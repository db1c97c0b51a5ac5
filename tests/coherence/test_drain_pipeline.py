"""Vectorized drain vs the reference protocol: bit-identity property suite.

``TiledCMP._drain_batch_vector`` runs every batched slice through an
all-miss accounting baseline plus per-hit corrections, precomputed LRU
stamps, batched candidate hashing, inlined directory probes and a
decoupled per-bank L2 replay.  These tests replay the same stream through
``access_batch`` and through ``access_scalar`` one access at a time (the
``_access_block`` reference) and require every observable — flat cache
arrays, DirectoryStats including the attempt histogram, each
organization's slot arrays / locators / LRU stamps / clocks, bank stats
and traffic — to match bit for bit:

* across directory organizations (cuckoo, sparse and in-cache take the
  vector path; stashed-cuckoo, skewed, rich sharer encodings and custom
  cache replacement policies must *refuse* it, say why, take the
  reference fallback and still agree),
* under tight tables where displacement walks and LRU victimisations
  end in forced invalidations mid-chunk, and
* with chunk boundaries placed at every offset of a conflict-heavy
  stream, so every drain class crosses a boundary somewhere.
"""

import numpy as np
import pytest

import repro.coherence.system as sysmod
from repro import obs
from repro.cache.cache import SetAssociativeCache
from repro.cache.replacement import FifoPolicy
from repro.coherence.paging import PageMapper
from repro.coherence.system import TiledCMP
from repro.config import CacheLevel
from repro.core.cuckoo_directory import CuckooDirectory
from repro.core.stashed_cuckoo import StashedCuckooDirectory
from repro.directories.in_cache import InCacheDirectory
from repro.directories.sharers import CoarseVector
from repro.directories.skewed import SkewedDirectory
from repro.directories.sparse import SparseDirectory
from repro.experiments.common import sparse_factory
from repro.hashing.strong import StrongHashFamily
from repro.obs.metrics import REGISTRY

from test_batch_equivalence import (
    _config,
    _deep_directory_state,
    _make_system,
    _run_batched,
    _run_reference,
    _snapshot,
)


@pytest.fixture
def counters():
    """Enabled drain counters, read as a dict; restored afterwards."""
    was_enabled = REGISTRY.enabled
    REGISTRY.enable()

    def read():
        return {
            "vector": sysmod._DRAIN_VECTOR.value,
            "scalar": sysmod._DRAIN_SCALAR.value,
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


def _deep_state(system):
    return (_snapshot(system), _deep_directory_state(system))


def _run_pair(stream, chunk, factory, level=CacheLevel.L1, cores=4,
              track_traffic=True, prepare=None):
    """One stream batched and one access at a time through the reference.

    Returns ``(batched, reference)`` after requiring deep identity and an
    inclusion-clean batched system.  ``prepare`` edits each freshly built
    system before its first access (e.g. swaps in a cache).
    """
    config = _config(level, cores)

    def build():
        system = TiledCMP(
            config, factory, track_traffic=track_traffic,
            page_mapper=PageMapper(page_bytes=256, seed=0),
        )
        if prepare is not None:
            prepare(system)
        return system

    reference = build()
    _run_reference(reference, stream)
    batched = build()
    _run_batched(batched, stream, chunk)
    assert _deep_state(batched) == _deep_state(reference)
    assert batched.check_inclusion() == []
    return batched, reference


def _cuckoo_factory(num_caches, slice_id):
    return CuckooDirectory(num_caches=num_caches, num_sets=64, num_ways=4)


def _tight_cuckoo_factory(num_caches, slice_id):
    # Saturates quickly: displacement walks hit the attempt cut-off and
    # evict victims, driving forced invalidations mid-chunk.
    return CuckooDirectory(
        num_caches=num_caches, num_sets=4, num_ways=2, max_insertion_attempts=4
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


def test_cuckoo_vector_vs_scalar_drain(counters):
    before = counters()
    batched, _reference = _run_pair(_mixed_stream(), 64, _cuckoo_factory)
    after = counters()
    # Every batched access took the vectorized drain, none the fallback.
    assert after["vector"] - before["vector"] == batched.accesses_processed
    assert after["scalar"] == before["scalar"]
    assert batched._drain_vector_support  # cuckoo supports the drain


def test_strong_hash_family_shared_batch_key(counters):
    before = counters()
    _run_pair(_mixed_stream(seed=23), 96, _strong_cuckoo_factory)
    assert counters()["vector"] > before["vector"]


def test_stash_variant_refuses_vector_drain(counters, caplog):
    before = counters()
    with caplog.at_level("INFO", logger="repro.coherence.system"):
        batched, _ = _run_pair(_mixed_stream(seed=5), 64, _stash_factory)
    after = counters()
    # drain_handles() is None for the stashed subclass: the batched system
    # takes the reference fallback and the vector counter must not move.
    assert batched._drain_vector_support is False
    assert after["vector"] == before["vector"]
    assert after["scalar"] - before["scalar"] == batched.accesses_processed
    # The refusal names the gate, once per system (the reference side of
    # the pair never batches, so only one system resolved it).
    reason = "slice 0: StashedCuckooDirectory has no drain handles"
    assert batched.drain_vector_refusal == reason
    assert after["refused"] - before["refused"] == 1
    assert [r.getMessage() for r in caplog.records] == [
        f"vectorized drain refused: {reason}"
    ]


def test_rich_sharer_encoding_refusal_names_the_encoding():
    def coarse_sparse(num_caches, slice_id):
        return SparseDirectory(
            num_caches=num_caches, num_sets=4, num_ways=2,
            sharer_cls=CoarseVector, num_pointers=1, vector_bits=2,
        )

    system = _make_system(_config(CacheLevel.L1, 4), coarse_sparse)
    _run_batched(system, _mixed_stream(seed=2), 64)
    assert system.drain_vector_refusal == "slice 0: sharer encoding CoarseVector"


def test_supported_system_reports_no_refusal():
    system = _make_system(_config(CacheLevel.L1, 4), _sparse_factory)
    _run_batched(system, _mixed_stream(seed=2), 64)
    assert system._drain_vector_support
    assert system.drain_vector_refusal is None


# -- one refusal path: every refused system says why and takes drain_scalar ----


@pytest.fixture
def traced():
    """Enabled telemetry (counters and spans), reset before and after."""
    obs.reset()
    obs.enable()
    yield obs.TRACER
    obs.disable()
    obs.reset()


def _skewed_factory(num_caches, slice_id):
    return SkewedDirectory(num_caches=num_caches, num_sets=8, num_ways=2)


def _fifo_l1d_core2(system):
    # A custom replacement policy on one tracked cache: its recency lives
    # in the policy object, not the flat stamp array the drain writes.
    config = system.config.l1_config
    system._tracked[5] = SetAssociativeCache(
        config, name="l1d-2",
        policy=FifoPolicy(config.num_sets, config.associativity),
    )


@pytest.mark.parametrize(
    "factory, prepare, reason",
    [
        (_skewed_factory, None,
         "slice 0: SkewedDirectory has no drain handles"),
        (_cuckoo_factory, _fifo_l1d_core2,
         "cache l1d-2: replacement policy FifoPolicy has no inline LRU"),
    ],
    ids=["skewed", "custom-policy"],
)
def test_refused_systems_report_reason_and_take_reference(
    traced, caplog, factory, prepare, reason
):
    stream = _mixed_stream(seed=59, rounds=200, blocks=40)
    with caplog.at_level("INFO", logger="repro.coherence.system"):
        batched, _ = _run_pair(stream, 64, factory, prepare=prepare)
    assert batched.drain_vector_refusal == reason
    assert [r.getMessage() for r in caplog.records] == [
        f"vectorized drain refused: {reason}"
    ]
    phases = traced.totals()
    assert "drain_vector" not in phases
    assert phases["drain_scalar"]["count"] == phases["translate"]["count"]
    assert sysmod._DRAIN_SCALAR.value == len(stream)
    assert sysmod._DRAIN_VECTOR.value == 0


# -- sparse: slot arrays, LRU stamps and clocks against the reference ----------


def test_sparse_takes_vector_drain(counters):
    before = counters()
    batched, _ = _run_pair(_mixed_stream(seed=7), 64, _sparse_factory)
    after = counters()
    assert batched._drain_vector_support
    assert after["vector"] > before["vector"]


def _hot_reread_flood(seed, rounds=120, hot=6, cold=200, num_cores=4):
    """One core re-reads a hot block (cache hits) while the other cores
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


def test_sparse_forced_invalidation_flood(counters):
    # 2 sets x 2 ways per slice: nearly every insertion victimises an LRU
    # entry, invalidating the hot block between its re-reads.
    before = counters()
    stream = _hot_reread_flood(seed=1)
    for chunk in (16, 32, 64, len(stream)):
        batched, _ = _run_pair(stream, chunk, _sparse_factory)
        assert batched.directory_stats().forced_invalidations > 0
    after = counters()
    # LRU victimisations count as insertions with no vacant candidate.
    assert after["classes"]["walks"] > before["classes"]["walks"]


def test_sparse_paper_geometry(counters):
    # The paper's baseline: 8 ways at 2x provisioning of the tracked frames.
    factory = sparse_factory(_config(CacheLevel.L1, 4), ways=8, provisioning=2.0)
    assert factory(8, 0).num_ways == 8
    before = counters()
    _run_pair(_mixed_stream(seed=31, rounds=300, blocks=96), 128, factory)
    assert counters()["vector"] > before["vector"]


def test_sparse_l2_tracked_without_banks(counters):
    before = counters()
    batched, _ = _run_pair(
        _mixed_stream(seed=37), 64, _sparse_factory, level=CacheLevel.L2
    )
    assert batched.l2_banks is None
    assert counters()["vector"] > before["vector"]


def test_sparse_without_traffic_tracking(counters):
    before = counters()
    batched, _ = _run_pair(
        _mixed_stream(seed=43), 64, _sparse_factory, track_traffic=False
    )
    assert sum(batched.traffic.messages.values()) == 0
    assert counters()["vector"] > before["vector"]


def test_in_cache_directory_takes_vector_drain(counters):
    config = _config(CacheLevel.L1, 4)

    def in_cache(num_caches, slice_id):
        return InCacheDirectory(
            num_caches=num_caches, l2_slice_config=config.l2_config, num_slices=4
        )

    before = counters()
    batched, _ = _run_pair(
        _mixed_stream(seed=47, rounds=260, blocks=64), 64, in_cache
    )
    assert batched._drain_vector_support
    assert counters()["vector"] > before["vector"]


def test_sparse_tiny_chunks_take_vector_drain(counters):
    # There is no minimum slice size: one-access and few-access chunks
    # take the vectorized drain like any other and stay on the reference.
    stream = _mixed_stream(seed=53, rounds=200, blocks=40)
    before = counters()
    for chunk in (1, 2, 15, 16, 17, 35):
        _run_pair(stream, chunk, _sparse_factory)
    after = counters()
    assert after["vector"] - before["vector"] == 6 * len(stream)
    assert after["scalar"] == before["scalar"]


def test_l2_tracking_replays_banks_identically():
    # Tracking L1 keeps shared-L2 banks live: the vector drain's decoupled
    # per-bank replay must reproduce the reference's bank stats exactly
    # (asserted via the banks field of the snapshot).
    batched, _ = _run_pair(_mixed_stream(seed=13), 128, _cuckoo_factory)
    assert batched.l2_banks is not None


# -- forced invalidations -------------------------------------------------------


def test_tight_tables_force_invalidations_identically():
    stream = _mixed_stream(seed=3, rounds=220, blocks=48)
    for chunk in (32, 64, len(stream)):
        batched, _ = _run_pair(stream, chunk, _tight_cuckoo_factory)
        assert batched.directory_stats().forced_invalidations > 0


def test_walks_and_histogram_match_under_pressure():
    stream = _mixed_stream(seed=29, rounds=260, blocks=64)
    batched, reference = _run_pair(stream, 96, _tight_cuckoo_factory)
    b_stats = batched.directory_stats()
    r_stats = reference.directory_stats()
    assert dict(b_stats.attempt_histogram) == dict(r_stats.attempt_histogram)
    assert b_stats.insertion_attempts == r_stats.insertion_attempts
    assert max(b_stats.attempt_histogram) > 1  # walks actually happened


# -- chunk boundaries at every offset -----------------------------------------


def test_chunk_boundaries_at_every_offset():
    stream = _mixed_stream(seed=17, rounds=60, blocks=12)
    boundary_span = 24  # covers every phase of the longest generated run
    for chunk in range(1, boundary_span + 1):
        _run_pair(stream, chunk, _cuckoo_factory)


def test_single_chunk_whole_stream():
    stream = _mixed_stream(seed=41, rounds=300)
    _run_pair(stream, len(stream), _cuckoo_factory)
