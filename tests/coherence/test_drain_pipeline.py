"""Vectorized drain pipeline vs scalar drain: bit-identity property suite.

``TiledCMP._drain_batch_vector`` replaces the scalar miss drain with an
all-miss accounting baseline plus per-hit corrections, batched candidate
hashing, inlined directory probes and a decoupled per-bank L2 replay.
These tests drive the *same* vector hit-kernel front-end into both drain
back-ends (the cached support decision is overridden to force the scalar
fallback) and require every observable — flat cache arrays, DirectoryStats
including the attempt histogram, the cuckoo tables' way arrays / locators /
start-way cursors, bank stats and traffic — to match bit for bit:

* across directory organizations (cuckoo and sparse take the vector path;
  stashed-cuckoo variants and rich sharer encodings must *refuse* it, say
  why, and still agree),
* under tight tables where displacement walks terminate in forced
  invalidations (the rollback / re-injection machinery), and
* with chunk boundaries placed at every offset of a conflict-heavy
  stream, so every drain class crosses a boundary somewhere.

The sparse (set-associative, LRU-victimising) organization is checked
against the ``_access_block`` reference protocol path itself, down to its
slot arrays, LRU stamps and recency clock.
"""

import numpy as np
import pytest

import repro.coherence.system as sysmod
from repro.coherence.paging import PageMapper
from repro.coherence.system import MemoryAccess, TiledCMP
from repro.config import CacheConfig, CacheLevel, SystemConfig
from repro.core.cuckoo_directory import CuckooDirectory
from repro.core.stashed_cuckoo import StashedCuckooDirectory
from repro.directories.in_cache import InCacheDirectory
from repro.directories.sharers import CoarseVector
from repro.directories.sparse import SparseDirectory
from repro.experiments.common import sparse_factory
from repro.hashing.strong import StrongHashFamily
from repro.obs.metrics import REGISTRY

from test_batch_equivalence import _config, _make_system, _run_batched, _snapshot
from test_batch_kernel import _deep_directory_state


@pytest.fixture
def vector_kernel(monkeypatch):
    """Pin the whole-chunk kernel so only the drain back-end differs."""
    monkeypatch.setattr(sysmod, "DEFAULT_BATCH_KERNEL", "vector")
    yield


@pytest.fixture
def counters():
    """Enabled drain counters, read as a dict; restored afterwards."""
    was_enabled = REGISTRY.enabled
    REGISTRY.enable()

    def read():
        return {
            "vector": sysmod._DRAIN_VECTOR.value,
            "scalar": sysmod._DRAIN_SCALAR.value,
            "rollbacks": sysmod._BATCH_ROLLBACKS.value,
            "refused": sysmod._DRAIN_REFUSED.value,
            "classes": {
                "hits": sysmod._DRAIN_CLS_HITS.value,
                "upgrades": sysmod._DRAIN_CLS_UPGRADES.value,
                "read_dirhit": sysmod._DRAIN_CLS_READ_DIRHIT.value,
                "read_insert": sysmod._DRAIN_CLS_READ_INSERT.value,
                "write_miss": sysmod._DRAIN_CLS_WRITE_MISS.value,
                "walks": sysmod._DRAIN_CLS_WALKS.value,
            },
        }

    yield read
    if not was_enabled:
        REGISTRY.disable()


def _force_scalar_drain(system):
    """Poison the cached support decision: every drain takes the fallback."""
    system._drain_vector_support = False
    return system


def _deep_state(system):
    return (_snapshot(system), _deep_directory_state(system))


def _run_pair(stream, chunk, factory, level=CacheLevel.L1, cores=4):
    """One stream through both drain back-ends; returns both systems."""
    vector_system = _make_system(_config(level, cores), factory)
    _run_batched(vector_system, stream, chunk)
    scalar_system = _force_scalar_drain(
        _make_system(_config(level, cores), factory)
    )
    _run_batched(scalar_system, stream, chunk)
    assert _deep_state(vector_system) == _deep_state(scalar_system)
    return vector_system, scalar_system


def _cuckoo_factory(num_caches, slice_id):
    return CuckooDirectory(num_caches=num_caches, num_sets=64, num_ways=4)


def _tight_cuckoo_factory(num_caches, slice_id):
    # Saturates quickly: displacement walks hit the attempt cut-off and
    # evict victims, driving forced invalidations and kernel rollbacks.
    return CuckooDirectory(
        num_caches=num_caches, num_sets=4, num_ways=2, max_attempts=4
    )


def _strong_cuckoo_factory(num_caches, slice_id):
    return CuckooDirectory(
        num_caches=num_caches,
        num_sets=64,
        num_ways=4,
        hash_family=StrongHashFamily(num_ways=4, num_sets=64, seed=9),
    )


def _stash_factory(num_caches, slice_id):
    return StashedCuckooDirectory(
        num_caches=num_caches, num_sets=64, num_ways=4, stash_entries=4
    )


def _sparse_factory(num_caches, slice_id):
    return SparseDirectory(num_caches=num_caches, num_sets=2, num_ways=2)


def _mixed_stream(seed=11, rounds=160, num_cores=4, blocks=28):
    """Every drain class: read runs, write runs, upgrades, ping-pong."""
    rng = np.random.default_rng(seed)
    stream = []
    for _ in range(rounds):
        core = int(rng.integers(num_cores))
        block = int(rng.integers(blocks)) * 64
        kind = int(rng.integers(5))
        run = int(rng.integers(1, 7))
        if kind == 0:
            stream += [(core, block, False, False)] * run
        elif kind == 1:
            stream += [(core, block, True, False)] * run
        elif kind == 2:  # S/E -> M upgrade after a read run
            stream += [(core, block, False, False)] * run
            stream.append((core, block, True, False))
        elif kind == 3:  # widely shared, then one writer invalidates
            for reader in range(num_cores):
                stream.append((reader, block, False, False))
            stream.append((core, block, True, False))
        else:  # ping-pong
            other = (core + 1) % num_cores
            for i in range(run):
                stream.append(
                    (core if i % 2 == 0 else other, block, i % 2 == 1, False)
                )
    return stream


# -- organization coverage ----------------------------------------------------


def test_cuckoo_vector_vs_scalar_drain(vector_kernel, counters):
    before = counters()
    vector_system, _scalar_system = _run_pair(
        _mixed_stream(), 64, _cuckoo_factory
    )
    after = counters()
    # The pair really exercised both back-ends.
    assert after["vector"] > before["vector"]
    assert after["scalar"] > before["scalar"]
    assert vector_system._drain_vector_support  # cuckoo supports the pipeline


def test_strong_hash_family_shared_batch_key(vector_kernel, counters):
    before = counters()
    _run_pair(_mixed_stream(seed=23), 96, _strong_cuckoo_factory)
    assert counters()["vector"] > before["vector"]


def test_stash_variant_refuses_vector_drain(vector_kernel, counters, caplog):
    before = counters()
    with caplog.at_level("INFO", logger="repro.coherence.system"):
        vector_system, _ = _run_pair(_mixed_stream(seed=5), 64, _stash_factory)
    after = counters()
    # drain_handles() is None for the stashed subclass: both systems take
    # the scalar fallback and the vector counter must not move.
    assert vector_system._drain_vector_support is False
    assert after["vector"] == before["vector"]
    assert after["scalar"] > before["scalar"]
    # The refusal names the gate, once per system (the scalar side of the
    # pair had its decision poisoned, so only one system resolved it).
    reason = "slice 0: StashedCuckooDirectory has no drain handles"
    assert vector_system.drain_vector_refusal == reason
    assert after["refused"] - before["refused"] == 1
    assert [r.getMessage() for r in caplog.records] == [
        f"vectorized drain refused: {reason}"
    ]


def test_rich_sharer_encoding_refusal_names_the_encoding(vector_kernel):
    def coarse_sparse(num_caches, slice_id):
        return SparseDirectory(
            num_caches=num_caches, num_sets=4, num_ways=2,
            sharer_cls=CoarseVector, num_pointers=1, vector_bits=2,
        )

    system = _make_system(_config(CacheLevel.L1, 4), coarse_sparse)
    _run_batched(system, _mixed_stream(seed=2), 64)
    assert system.drain_vector_refusal == "slice 0: sharer encoding CoarseVector"


def test_supported_system_reports_no_refusal(vector_kernel):
    system = _make_system(_config(CacheLevel.L1, 4), _sparse_factory)
    _run_batched(system, _mixed_stream(seed=2), 64)
    assert system._drain_vector_support
    assert system.drain_vector_refusal is None


# -- sparse: the vectorized drain vs the _access_block reference ---------------


def _sparse_deep_state(system):
    """Sparse slot arrays, LRU stamps, locator, pool and clock per slice."""
    return [
        (
            [list(keys) for keys in directory._keys],
            [
                [None if value is None else value._mask for value in values]
                for values in directory._values
            ],
            [list(stamps) for stamps in directory._stamps],
            dict(directory._locator),
            len(directory._sharer_pool),
            repr(directory._tick.__self__),  # the clock's next stamp
        )
        for directory in system._directories
    ]


def _reference_pair(stream, chunk, factory, level=CacheLevel.L1, cores=4,
                    track_traffic=True):
    """The stream batched (vector drain) and one access at a time through
    ``_access_block``; both systems must agree deeply."""
    config = _config(level, cores)

    def build():
        return TiledCMP(
            config, factory, track_traffic=track_traffic,
            page_mapper=PageMapper(page_bytes=256, seed=0),
        )

    reference = build()
    for core, address, is_write, is_instruction in stream:
        reference.access(MemoryAccess(core, address, is_write, is_instruction))
    vector_system = build()
    _run_batched(vector_system, stream, chunk)
    assert _snapshot(vector_system) == _snapshot(reference)
    assert _sparse_deep_state(vector_system) == _sparse_deep_state(reference)
    assert vector_system.check_inclusion() == []
    return vector_system


def test_sparse_takes_vector_drain(vector_kernel, counters):
    before = counters()
    vector_system = _reference_pair(_mixed_stream(seed=7), 64, _sparse_factory)
    after = counters()
    assert vector_system._drain_vector_support
    assert after["vector"] > before["vector"]
    # ... and agrees with the scalar drain back-end too.
    _run_pair(_mixed_stream(seed=7), 64, _sparse_factory)


def _hot_reread_flood(seed, rounds=120, hot=6, cold=200, num_cores=4):
    """One core re-reads a hot block (kernel hits) while the other cores
    flood the directory with fresh blocks that victimise its entry."""
    rng = np.random.default_rng(seed)
    stream = []
    for _ in range(rounds):
        core = int(rng.integers(num_cores))
        hot_block = int(rng.integers(hot)) * 64
        for _ in range(4):
            stream.append((core, hot_block, False, False))
            other = (core + 1 + int(rng.integers(num_cores - 1))) % num_cores
            cold_block = int(rng.integers(hot, hot + cold)) * 64
            stream.append((other, cold_block, bool(rng.integers(2)), False))
    return stream


def test_sparse_forced_invalidation_flood(vector_kernel, counters):
    # 2 sets x 2 ways per slice: nearly every insertion victimises an LRU
    # entry, and the victims' retired kernel hits must be rolled back.
    before = counters()
    stream = _hot_reread_flood(seed=1)
    for chunk in (16, 32, 64, len(stream)):
        vector_system = _reference_pair(stream, chunk, _sparse_factory)
        assert vector_system.directory_stats().forced_invalidations > 0
    after = counters()
    assert after["rollbacks"] > before["rollbacks"]
    # LRU victimisations count as insertions with no vacant candidate.
    assert after["classes"]["walks"] > before["classes"]["walks"]


def test_sparse_paper_geometry(vector_kernel, counters):
    # The paper's baseline: 8 ways at 2x provisioning of the tracked frames.
    factory = sparse_factory(_config(CacheLevel.L1, 4), ways=8, provisioning=2.0)
    assert factory(8, 0).num_ways == 8
    before = counters()
    _reference_pair(_mixed_stream(seed=31, rounds=300, blocks=96), 128, factory)
    assert counters()["vector"] > before["vector"]


def test_sparse_l2_tracked_without_banks(vector_kernel, counters):
    before = counters()
    vector_system = _reference_pair(
        _mixed_stream(seed=37), 64, _sparse_factory, level=CacheLevel.L2
    )
    assert vector_system.l2_banks is None
    assert counters()["vector"] > before["vector"]


def test_sparse_without_traffic_tracking(vector_kernel, counters):
    before = counters()
    vector_system = _reference_pair(
        _mixed_stream(seed=43), 64, _sparse_factory, track_traffic=False
    )
    assert sum(vector_system.traffic.messages.values()) == 0
    assert counters()["vector"] > before["vector"]


def test_in_cache_directory_takes_vector_drain(vector_kernel, counters):
    config = _config(CacheLevel.L1, 4)

    def in_cache(num_caches, slice_id):
        return InCacheDirectory(
            num_caches=num_caches, l2_slice_config=config.l2_config, num_slices=4
        )

    before = counters()
    vector_system = _reference_pair(
        _mixed_stream(seed=47, rounds=260, blocks=64), 64, in_cache
    )
    assert vector_system._drain_vector_support
    assert counters()["vector"] > before["vector"]


def test_sparse_chunks_around_vector_min(vector_kernel, counters):
    # Chunks draining fewer than _DRAIN_VECTOR_MIN accesses take the
    # scalar drain's inlined path, larger ones the vector drain; both
    # mutate the same sparse state and must stay on the reference.
    floor = sysmod._DRAIN_VECTOR_MIN
    stream = _mixed_stream(seed=53, rounds=200, blocks=40)
    before = counters()
    for chunk in (floor - 1, floor, floor + 1, 2 * floor + 3):
        _reference_pair(stream, chunk, _sparse_factory)
    after = counters()
    assert after["vector"] > before["vector"]
    assert after["scalar"] > before["scalar"]


def test_default_drain_pipeline_scalar_forces_fallback(
    vector_kernel, counters, monkeypatch
):
    # The module default is the benchmark's control point: with it pinned
    # to "scalar" even a fully supported cuckoo system must resolve the
    # cached support decision to the fallback.
    monkeypatch.setattr(sysmod, "DEFAULT_DRAIN_PIPELINE", "scalar")
    before = counters()
    system = _make_system(_config(CacheLevel.L1, 4), _cuckoo_factory)
    _run_batched(system, _mixed_stream(seed=19), 64)
    after = counters()
    assert system._drain_vector_support is False
    assert after["vector"] == before["vector"]
    assert after["scalar"] > before["scalar"]


def test_l2_tracking_replays_banks_identically(vector_kernel):
    # Tracking L1 keeps shared-L2 banks live: the vector drain's decoupled
    # per-bank replay must reproduce the scalar drain's bank stats exactly
    # (asserted via the banks field of the snapshot).
    vector_system, _ = _run_pair(_mixed_stream(seed=13), 128, _cuckoo_factory)
    assert vector_system.l2_banks is not None


# -- forced invalidations, rollbacks, re-injection ----------------------------


def test_tight_tables_force_invalidations_identically(vector_kernel):
    stream = _mixed_stream(seed=3, rounds=220, blocks=48)
    for chunk in (32, 64, len(stream)):
        vector_system, _ = _run_pair(stream, chunk, _tight_cuckoo_factory)
        stats = vector_system.directory_stats()
        assert stats.forced_invalidations > 0


def test_walks_and_histogram_match_under_pressure(vector_kernel):
    stream = _mixed_stream(seed=29, rounds=260, blocks=64)
    vector_system, scalar_system = _run_pair(stream, 96, _tight_cuckoo_factory)
    v_stats = vector_system.directory_stats()
    s_stats = scalar_system.directory_stats()
    assert dict(v_stats.attempt_histogram) == dict(s_stats.attempt_histogram)
    assert v_stats.insertion_attempts == s_stats.insertion_attempts
    assert max(v_stats.attempt_histogram) > 1  # walks actually happened


# -- chunk boundaries at every offset -----------------------------------------


def test_chunk_boundaries_at_every_offset(vector_kernel, monkeypatch):
    # Without the floor override, chunks draining fewer than
    # _DRAIN_VECTOR_MIN accesses would take the scalar fallback on both
    # sides and compare trivially; forcing it to 1 makes every offset
    # exercise the vector pipeline for real.
    monkeypatch.setattr(sysmod, "_DRAIN_VECTOR_MIN", 1)
    stream = _mixed_stream(seed=17, rounds=60, blocks=12)
    boundary_span = 24  # covers every phase of the longest generated run
    for chunk in range(1, boundary_span + 1):
        _run_pair(stream, chunk, _cuckoo_factory)


def test_single_chunk_whole_stream(vector_kernel):
    stream = _mixed_stream(seed=41, rounds=300)
    _run_pair(stream, len(stream), _cuckoo_factory)
