"""The chunk-native scientific generators equal their per-access oracles.

``OceanWorkload.trace_chunks`` and ``Em3dWorkload.trace_chunks`` build
whole numpy chunks; ``reference_generators`` keeps the original
object-at-a-time generators.  For random geometries and parameters the
flattened chunk stream must be the reference stream, access for access,
over at least two full ocean sweeps (so the wrap-around from the last row
back to the first is covered) and at least three em3d batches.
"""

from itertools import islice

import numpy as np
from hypothesis import given, settings, strategies as st

from reference_generators import em3d_reference_trace, ocean_reference_trace
from repro.config import CacheLevel
from repro.experiments.common import scaled_system
from repro.workloads.scientific import Em3dWorkload, OceanWorkload

_systems = st.builds(
    scaled_system,
    tracked_level=st.sampled_from([CacheLevel.L1, CacheLevel.L2]),
    num_cores=st.sampled_from([1, 2, 4, 8, 16]),
    scale=st.sampled_from([16, 64]),
)
_seeds = st.sampled_from([0, 1, 7, 1000])


def _flatten(chunks, limit):
    """The first ``limit`` accesses of a chunk stream as four arrays."""
    parts = [[], [], [], []]
    produced = 0
    for chunk in chunks:
        for store, field in zip(parts, chunk):
            store.append(np.asarray(field))
        produced += len(chunk[0])
        if produced >= limit:
            break
    return [np.concatenate(store)[:limit] for store in parts]


def _reference(accesses, limit):
    rows = [
        (a.core, a.address, a.is_write, a.is_instruction)
        for a in islice(accesses, limit)
    ]
    return [np.asarray(column) for column in zip(*rows)]


def _assert_same_stream(chunks, accesses, limit):
    produced = _flatten(chunks, limit)
    expected = _reference(accesses, limit)
    assert len(produced[0]) == len(expected[0]) == limit
    for got, want in zip(produced, expected):
        np.testing.assert_array_equal(got, want)


def _ocean_sweep_length(workload, system):
    blocks_per_band = max(2, int(workload.grid_l2x * system.l2_config.num_frames))
    rows = max(2, int(np.sqrt(blocks_per_band)))
    columns = max(1, blocks_per_band // rows)
    slots = 4 if workload.write_back_every_point else 3
    # Every (row, column, core) point has ``slots`` accesses, except the
    # two missing band-edge neighbours per column.
    return columns * (rows * system.num_cores * slots - 2)


@given(
    system=_systems,
    grid_l2x=st.sampled_from([0.01, 0.2, 1.0, 1.5]),
    points_per_block=st.sampled_from([1, 8]),
    write_back=st.booleans(),
    seed=_seeds,
)
@settings(max_examples=30, deadline=None)
def test_ocean_chunks_match_reference(
    system, grid_l2x, points_per_block, write_back, seed
):
    workload = OceanWorkload(
        grid_l2x=grid_l2x,
        points_per_block=points_per_block,
        write_back_every_point=write_back,
    )
    limit = 2 * _ocean_sweep_length(workload, system) + 97
    _assert_same_stream(
        workload.trace_chunks(system, seed=seed),
        ocean_reference_trace(workload, system, seed=seed),
        limit,
    )


@given(
    system=_systems,
    nodes_per_core_l2x=st.sampled_from([0.05, 1.2]),
    degree=st.integers(min_value=1, max_value=3),
    remote_fraction=st.sampled_from([0.0, 0.15, 0.5, 1.0]),
    values_per_block=st.sampled_from([1, 3, 8]),
    seed=_seeds,
)
@settings(max_examples=40, deadline=None)
def test_em3d_chunks_match_reference(
    system, nodes_per_core_l2x, degree, remote_fraction, values_per_block, seed
):
    workload = Em3dWorkload(
        nodes_per_core_l2x=nodes_per_core_l2x,
        degree=degree,
        remote_fraction=remote_fraction,
        values_per_block=values_per_block,
    )
    limit = 3 * 1024 * (degree + 1) + 513
    _assert_same_stream(
        workload.trace_chunks(system, seed=seed),
        em3d_reference_trace(workload, system, seed=seed),
        limit,
    )

