"""The batched front-end must be bit-identical to the reference path.

``TiledCMP.access_batch`` vectorises per-access address math, hoists the
core bounds check to chunk level, and runs the slice through the
vectorized drain.  None of that may change a single statistic: these
tests replay identical access streams through ``access_scalar`` (the
reference, one access at a time) and ``access_batch`` (with adversarial
chunk boundaries and run-heavy patterns) and require equal directory
stats, cache stats, traffic and residency; plus the batched page
translation against its scalar twin.

The helpers here (reference/batched runners, the public snapshot and the
per-organization deep directory state) are shared by the other
bit-identity suites in this directory.
"""

import numpy as np
import pytest

from repro.coherence.paging import PageMapper
from repro.coherence.system import TiledCMP
from repro.config import CacheConfig, CacheLevel, SystemConfig
from repro.core.cuckoo_directory import CuckooDirectory
from repro.core.stashed_cuckoo import StashedCuckooDirectory
from repro.directories.skewed import SkewedDirectory
from repro.directories.sparse import SparseDirectory


def _config(level=CacheLevel.L1, cores=4):
    return SystemConfig(
        num_cores=cores,
        l1_config=CacheConfig(size_bytes=1024, associativity=2),
        l2_config=CacheConfig(size_bytes=8192, associativity=16),
        tracked_level=level,
        page_bytes=256,
    )


def _cuckoo_factory(num_caches, slice_id):
    return CuckooDirectory(num_caches=num_caches, num_sets=64, num_ways=4)


def _sparse_factory(num_caches, slice_id):
    # Tiny on purpose: set conflicts force invalidations, exercising the
    # forced-invalidation path under batching.
    return SparseDirectory(num_caches=num_caches, num_sets=2, num_ways=2)


def _make_system(config, factory=_cuckoo_factory):
    return TiledCMP(config, factory, page_mapper=PageMapper(page_bytes=256, seed=0))


def _run_reference(system, accesses):
    """One ``access_scalar`` call per access: the reference protocol."""
    for core, address, is_write, is_instr in accesses:
        system.access_scalar(core, address, is_write, is_instr)


def _run_batched(system, accesses, chunk_size):
    for start in range(0, len(accesses), chunk_size):
        chunk = accesses[start : start + chunk_size]
        cores, addresses, writes, instrs = zip(*chunk)
        system.access_batch(
            list(cores), list(addresses), list(writes), list(instrs)
        )


def _snapshot(system):
    directory = system.directory_stats()
    return {
        "accesses": system.accesses_processed,
        "dir": (
            directory.lookups,
            directory.lookup_hits,
            directory.insertions,
            directory.insertion_attempts,
            dict(directory.attempt_histogram),
            directory.sharer_additions,
            directory.sharer_removals,
            directory.entry_removals,
            directory.forced_invalidations,
            directory.forced_invalidation_messages,
            directory.invalidate_all_operations,
            directory.bits_read,
            directory.bits_written,
        ),
        "caches": [
            (
                c.stats.accesses,
                c.stats.hits,
                c.stats.misses,
                c.stats.evictions,
                c.stats.dirty_evictions,
                c.stats.invalidations_received,
            )
            for c in system.tracked_caches
        ],
        "banks": None
        if system.l2_banks is None
        else [(b.stats.hits, b.stats.misses, b.stats.evictions) for b in system.l2_banks],
        "traffic": (
            dict(system.traffic.messages),
            system.traffic.hops,
            system.traffic.bytes_transferred,
        ),
        "resident": [
            sorted((a, c.state_of(a).value, c.probe(a).dirty) for a in c.resident_addresses())
            for c in system.tracked_caches
        ],
        # Frame placement and recency: the flat arrays themselves, the
        # LRU stamps and each clock (which orders every later victim).
        "frames": [
            (
                list(c._tags), list(c._states), list(c._dirty),
                list(c._stamps), list(c._set_counts), c._clock,
            )
            for c in (*system.tracked_caches, *(system.l2_banks or ()))
        ],
    }


def _sharer_state(sharers):
    if sharers is None:
        return None
    mask = getattr(sharers, "_mask", None)
    return mask if mask is not None else tuple(sorted(sharers))


def _deep_directory_state(system):
    """Every slice's internal state, down to slot positions and recency.

    Cuckoo (and the stashed variant): way arrays, locator, occupancy and
    the insertion start-way cursor, plus the stash.  Set-associative
    (sparse, in-cache): slot arrays, LRU stamps, locator, the sharer-set
    pool and the recency clock.  Skewed: every way's entries with their
    stamps, and the clock.
    """
    out = []
    for directory in system._directories:
        if isinstance(directory, CuckooDirectory):
            table = directory._table
            state = (
                [list(way_keys) for way_keys in table._keys],
                [
                    [_sharer_state(v) for v in way_values]
                    for way_values in table._values
                ],
                dict(table._locator),
                len(table),
                table._start_way,
            )
            if isinstance(directory, StashedCuckooDirectory):
                state += (
                    [(a, _sharer_state(v)) for a, v in directory._stash.items()],
                )
        elif isinstance(directory, SparseDirectory):
            state = (
                [list(keys) for keys in directory._keys],
                [
                    [_sharer_state(value) for value in values]
                    for values in directory._values
                ],
                [list(stamps) for stamps in directory._stamps],
                dict(directory._locator),
                len(directory._sharer_pool),
                repr(directory._tick.__self__),  # the clock's next stamp
            )
        elif isinstance(directory, SkewedDirectory):
            state = (
                [
                    [
                        None if entry is None
                        else (entry.address, _sharer_state(entry.sharers),
                              entry.stamp)
                        for entry in way
                    ]
                    for way in directory._ways
                ],
                directory._live_entries,
                directory._clock,
            )
        else:
            raise TypeError(f"no deep state for {type(directory).__name__}")
        out.append(state)
    return out


def _run_heavy_stream(num_cores=4):
    """A stream dense in same-core/same-block runs of every flavour."""
    rng = np.random.default_rng(7)
    accesses = []
    for _ in range(120):
        core = int(rng.integers(num_cores))
        block = int(rng.integers(24)) * 64
        kind = int(rng.integers(6))
        run = int(rng.integers(1, 9))
        if kind == 0:  # read run
            accesses += [(core, block, False, False)] * run
        elif kind == 1:  # write run (M after the first write)
            accesses += [(core, block, True, False)] * run
        elif kind == 2:  # read run then a write (S/E -> M upgrade mid-run)
            accesses += [(core, block, False, False)] * run
            accesses.append((core, block, True, False))
        elif kind == 3:  # write then reads (stay M)
            accesses.append((core, block, True, False))
            accesses += [(core, block, False, False)] * run
        elif kind == 4:  # instruction-fetch run (separate L1I cache)
            accesses += [(core, block, False, True)] * run
        else:  # ping-pong between two cores on one block
            other = (core + 1) % num_cores
            for i in range(run):
                accesses.append((core if i % 2 == 0 else other, block, i % 3 == 0, False))
    return accesses


@pytest.mark.parametrize("level", [CacheLevel.L1, CacheLevel.L2])
@pytest.mark.parametrize("chunk_size", [1, 3, 17, 4096])
def test_batched_equals_scalar_on_run_heavy_stream(level, chunk_size):
    accesses = _run_heavy_stream()
    reference = _make_system(_config(level))
    batched = _make_system(_config(level))
    _run_reference(reference, accesses)
    _run_batched(batched, accesses, chunk_size)
    assert _snapshot(batched) == _snapshot(reference)
    assert _deep_directory_state(batched) == _deep_directory_state(reference)


def test_batched_equals_scalar_under_forced_invalidations():
    accesses = _run_heavy_stream()
    reference = _make_system(_config(), _sparse_factory)
    batched = _make_system(_config(), _sparse_factory)
    _run_reference(reference, accesses)
    _run_batched(batched, accesses, 13)
    assert reference.directory_stats().forced_invalidations > 0
    assert _snapshot(batched) == _snapshot(reference)
    assert _deep_directory_state(batched) == _deep_directory_state(reference)


def test_batched_accepts_numpy_and_list_chunks_identically():
    accesses = _run_heavy_stream()
    cores, addresses, writes, instrs = (list(f) for f in zip(*accesses))
    as_lists = _make_system(_config())
    as_arrays = _make_system(_config())
    as_lists.access_batch(cores, addresses, writes, instrs)
    as_arrays.access_batch(
        np.asarray(cores, dtype=np.int32),
        np.asarray(addresses, dtype=np.int64),
        np.asarray(writes, dtype=np.bool_),
        np.asarray(instrs, dtype=np.bool_),
    )
    assert _snapshot(as_arrays) == _snapshot(as_lists)


def test_chunk_validation_rejects_out_of_range_cores_before_executing():
    system = _make_system(_config(cores=4))
    for bad_core in (-1, 4, 99):
        with pytest.raises(IndexError):
            system.access_batch([0, bad_core], [0x100, 0x200], [False, False], [False, False])
        # Validation is chunk-level: nothing from the bad chunk executed.
        assert system.accesses_processed == 0


def test_access_batch_start_stop_slice():
    accesses = _run_heavy_stream()
    cores, addresses, writes, instrs = (list(f) for f in zip(*accesses))
    whole = _make_system(_config())
    sliced = _make_system(_config())
    whole.access_batch(cores, addresses, writes, instrs)
    step = 29
    for start in range(0, len(cores), step):
        sliced.access_batch(
            cores, addresses, writes, instrs, start, min(start + step, len(cores))
        )
    assert _snapshot(sliced) == _snapshot(whole)


class TestTranslateBatch:
    @pytest.mark.parametrize("page_bytes", [256, 2730])  # pow2 and non-pow2
    def test_matches_scalar_translation(self, page_bytes):
        scalar = PageMapper(page_bytes=page_bytes, seed=3)
        batched = PageMapper(page_bytes=page_bytes, seed=3)
        rng = np.random.default_rng(11)
        stream = rng.integers(0, 1 << 20, size=700)
        stream[100:200] = stream[:100]  # guaranteed repeats
        expected = [scalar.translate(int(a)) for a in stream]
        out = []
        for start in range(0, len(stream), 64):
            out.extend(batched.translate_batch(stream[start : start + 64]).tolist())
        assert out == expected
        assert batched.pages_mapped == scalar.pages_mapped

    def test_interleaves_with_scalar_translation(self):
        scalar = PageMapper(page_bytes=512, seed=5)
        mixed = PageMapper(page_bytes=512, seed=5)
        rng = np.random.default_rng(13)
        stream = rng.integers(0, 1 << 18, size=300)
        expected = [scalar.translate(int(a)) for a in stream]
        out = []
        for i, start in enumerate(range(0, len(stream), 50)):
            segment = stream[start : start + 50]
            if i % 2 == 0:
                out.extend(mixed.translate_batch(segment).tolist())
            else:
                out.extend(mixed.translate(int(a)) for a in segment)
        assert out == expected

    def test_rejects_negative_addresses(self):
        mapper = PageMapper(page_bytes=256, seed=0)
        with pytest.raises(ValueError):
            mapper.translate_batch(np.asarray([0x100, -4]))

    def test_empty_batch(self):
        mapper = PageMapper(page_bytes=256, seed=0)
        assert mapper.translate_batch(np.asarray([], dtype=np.int64)).size == 0
