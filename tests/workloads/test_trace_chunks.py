"""The chunked trace API: the one generation path, and its contract.

Every workload produces its stream through :meth:`Workload.trace_chunks`;
``trace()`` is only an adapter over it.  These tests pin the chunk stream
of the scientific generators to their per-access reference generators
(``reference_generators``), check that every producer hands over numpy
chunks, and check that the chunked simulator loop produces the same
measurements as the per-access loop.
"""

from itertools import islice

import numpy as np
import pytest

from reference_generators import em3d_reference_trace, ocean_reference_trace
from repro.config import CacheLevel
from repro.coherence.simulator import TraceSimulator
from repro.coherence.system import TiledCMP
from repro.core.cuckoo_directory import CuckooDirectory
from repro.experiments.common import scaled_system
from repro.traces import TraceRecorder, TraceReplayWorkload, parse_mix
from repro.workloads.suite import WORKLOAD_NAMES, get_workload
from repro.workloads.synthetic import UniformRandomWorkload


def _flatten(chunks, limit):
    produced = 0
    for cores, addresses, writes, instrs in chunks:
        assert len(cores) == len(addresses) == len(writes) == len(instrs)
        for fields in zip(cores, addresses, writes, instrs):
            yield fields
            produced += 1
            if produced >= limit:
                return


#: Per-access oracles for the generators whose original per-access form
#: lives on in the tests; the others are checked against the adapter.
_REFERENCE = {"em3d": em3d_reference_trace, "ocean": ocean_reference_trace}


@pytest.mark.parametrize("name", ["Oracle", "Qry2", "em3d", "ocean"])
def test_trace_chunks_flatten_to_trace(name):
    system = scaled_system(CacheLevel.L1, scale=64)
    workload = get_workload(name)
    limit = 5000
    from_chunks = list(_flatten(workload.trace_chunks(system, seed=3), limit))
    reference = _REFERENCE.get(name)
    accesses = (
        reference(workload, system, seed=3)
        if reference is not None
        else workload.trace(system, seed=3)
    )
    from_stream = [
        (access.core, access.address, access.is_write, access.is_instruction)
        for access in islice(accesses, limit)
    ]
    assert from_chunks == from_stream


def test_uniform_workload_chunks_flatten_to_trace():
    system = scaled_system(CacheLevel.L2, scale=64)
    workload = UniformRandomWorkload(footprint_blocks=512, write_fraction=0.25)
    limit = 4000
    from_chunks = list(_flatten(workload.trace_chunks(system, seed=9), limit))
    from_stream = [
        (access.core, access.address, access.is_write, access.is_instruction)
        for access in islice(workload.trace(system, seed=9), limit)
    ]
    assert from_chunks == from_stream


def _replay_workload(tmp_path):
    system = scaled_system(CacheLevel.L1, num_cores=8, scale=64)
    path = tmp_path / "Oracle.npz"
    TraceRecorder().record(get_workload("Oracle"), system, path, 20_000, seed=0)
    return TraceReplayWorkload(path), system


_PRODUCERS = [*WORKLOAD_NAMES, "uniform", "mix", "replay"]


@pytest.mark.parametrize("producer", _PRODUCERS)
def test_vectorised_chunk_fields_are_numpy_arrays(producer, tmp_path):
    """The batched front-end (``TiledCMP.access_batch``) consumes chunk
    fields with vectorised address math, so every producer must hand over
    equal-length numpy arrays (never a Python list per chunk): integer
    cores and addresses, boolean writes and instruction flags."""
    system = scaled_system(CacheLevel.L1, num_cores=16, scale=64)
    if producer == "uniform":
        workload = UniformRandomWorkload(footprint_blocks=512)
    elif producer == "mix":
        workload = parse_mix("8xocean+8xem3d")
    elif producer == "replay":
        workload, system = _replay_workload(tmp_path)
    else:
        workload = get_workload(producer)
    chunks = workload.trace_chunks(system, seed=0)
    for cores, addresses, writes, instrs in islice(chunks, 3):
        assert isinstance(cores, np.ndarray) and cores.dtype.kind in "iu"
        assert isinstance(addresses, np.ndarray) and addresses.dtype.kind in "iu"
        assert isinstance(writes, np.ndarray) and writes.dtype == np.bool_
        assert isinstance(instrs, np.ndarray) and instrs.dtype == np.bool_
        assert len(cores) == len(addresses) == len(writes) == len(instrs) > 0


def test_trace_stream_yields_plain_python_scalars():
    """``trace()`` remains the object-level API: MemoryAccess fields stay
    plain Python scalars even when the chunks underneath are numpy arrays."""
    system = scaled_system(CacheLevel.L1, scale=64)
    access = next(iter(get_workload("Oracle").trace(system, seed=0)))
    assert type(access.core) is int
    assert type(access.address) is int
    assert type(access.is_write) is bool
    assert type(access.is_instruction) is bool


def _fresh_simulator():
    config = scaled_system(CacheLevel.L1, num_cores=4, scale=64)
    system = TiledCMP(
        config,
        lambda num_caches, slice_id: CuckooDirectory(
            num_caches=num_caches, num_sets=64, num_ways=4
        ),
    )
    return config, TraceSimulator(system, warmup_accesses=500,
                                  occupancy_sample_interval=700)


def test_run_chunks_matches_run():
    workload = get_workload("Oracle")
    config, simulator_a = _fresh_simulator()
    result_a = simulator_a.run(workload.trace(config, seed=5), max_accesses=4000)
    _, simulator_b = _fresh_simulator()
    result_b = simulator_b.run_chunks(
        workload.trace_chunks(config, seed=5), max_accesses=4000
    )
    assert result_a.accesses == result_b.accesses
    assert result_a.cache_hit_rate == result_b.cache_hit_rate
    assert result_a.occupancy_samples == result_b.occupancy_samples
    stats_a, stats_b = result_a.directory_stats, result_b.directory_stats
    assert stats_a.insertions == stats_b.insertions
    assert stats_a.insertion_attempts == stats_b.insertion_attempts
    assert stats_a.attempt_histogram == stats_b.attempt_histogram
    assert stats_a.forced_invalidations == stats_b.forced_invalidations
    assert result_a.traffic.messages == result_b.traffic.messages
    assert result_a.traffic.hops == result_b.traffic.hops
