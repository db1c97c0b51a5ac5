"""Chunked execution must be bit-identical to the per-access reference.

``TiledCMP.access_batch`` runs a whole translated slice through the
vectorized drain with precomputed LRU stamps, or, for systems the drain
refuses, through ``_access_block`` one access at a time.  Either way the
result may not depend on where the trace is cut into chunks: adversarial
chunks — interleaved writers, chunk boundaries splitting runs, forced
invalidations mid-chunk, single-access chunks, all-miss chunks, random
chunk sizes over every organization — replayed through ``access_batch``
must leave every statistic, every flat cache array and every directory's
internal state identical to one ``access_scalar`` call per access.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheLevel
from repro.core.cuckoo_directory import CuckooDirectory
from repro.core.stashed_cuckoo import StashedCuckooDirectory
from repro.directories.in_cache import InCacheDirectory
from repro.directories.skewed import SkewedDirectory
from repro.directories.sparse import SparseDirectory
from repro.hashing.strong import StrongHashFamily

from test_batch_equivalence import (
    _config,
    _cuckoo_factory,
    _deep_directory_state,
    _make_system,
    _run_batched,
    _run_reference,
    _snapshot,
    _sparse_factory,
)


def _assert_identical(reference_system, batched_system):
    assert _snapshot(reference_system) == _snapshot(batched_system)
    assert _deep_directory_state(reference_system) == _deep_directory_state(
        batched_system
    )


def _run_pair(stream, chunk, factory=_cuckoo_factory, level=CacheLevel.L1,
              cores=4):
    reference_system = _make_system(_config(level, cores), factory)
    _run_reference(reference_system, stream)
    batched_system = _make_system(_config(level, cores), factory)
    _run_batched(batched_system, stream, chunk)
    _assert_identical(reference_system, batched_system)
    return reference_system


# -- adversarial chunk shapes ---------------------------------------------------


def test_interleaved_writers_same_block():
    """Writers ping-ponging one block force invalidation chains mid-chunk."""
    stream = []
    for round_ in range(40):
        block = (round_ % 3) * 64
        for core in (0, 1, 2, 3, 0, 2):
            stream.append((core, block, True, False))
            stream.append(((core + 1) % 4, block, False, False))
    for chunk in (5, 64, len(stream)):
        _run_pair(stream, chunk)


def test_chunk_boundary_splits_runs():
    """Same-block runs split across chunk boundaries at every offset."""
    stream = []
    for i in range(30):
        core = i % 4
        block = (i % 5) * 64
        stream += [(core, block, False, False)] * 7
        stream.append((core, block, True, False))
    # Chunk sizes chosen to cut the 8-access runs at every phase.
    for chunk in (1, 2, 3, 5, 7, 8, 9, 13):
        _run_pair(stream, chunk)


def test_single_access_chunks():
    rng = np.random.default_rng(5)
    n = 400
    stream = list(
        zip(
            rng.integers(0, 4, n).tolist(),
            (rng.integers(0, 80, n) * 64).tolist(),
            (rng.random(n) < 0.3).tolist(),
            [False] * n,
        )
    )
    _run_pair(stream, 1)


def test_all_miss_chunks():
    """Strictly fresh addresses: every access misses."""
    stream = [(i % 4, i * 64, i % 3 == 0, False) for i in range(600)]
    for chunk in (17, 128, 600):
        _run_pair(stream, chunk)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("level", [CacheLevel.L1, CacheLevel.L2])
def test_randomized_streams(seed, level):
    rng = np.random.default_rng(seed)
    n = 1500
    stream = list(
        zip(
            rng.integers(0, 4, n).tolist(),
            (rng.integers(0, 300, n) * 64).tolist(),
            (rng.random(n) < 0.3).tolist(),
            (rng.random(n) < 0.1).tolist(),
        )
    )
    for chunk in (13, 101, n):
        _run_pair(stream, chunk, level=level)


def test_sparse_forced_invalidations():
    """A 2x2 sparse directory floods the forced-invalidation path."""
    rng = np.random.default_rng(9)
    n = 1200
    stream = list(
        zip(
            rng.integers(0, 4, n).tolist(),
            (rng.integers(0, 200, n) * 64).tolist(),
            (rng.random(n) < 0.25).tolist(),
            [False] * n,
        )
    )
    for chunk in (8, 64, 512):
        _run_pair(stream, chunk, factory=_sparse_factory)


def _tight_cuckoo(num_caches, slice_id):
    # Two ways over eight sets with a three-attempt walk: insertions cut
    # off constantly, so forced invalidations fire inside the cuckoo
    # drain, mid-chunk.
    return CuckooDirectory(
        num_caches=num_caches,
        num_sets=8,
        num_ways=2,
        hash_family=StrongHashFamily(2, 8, seed=1),
        max_insertion_attempts=3,
    )


def test_cuckoo_forced_invalidations_midchunk():
    rng = np.random.default_rng(11)
    n = 3000
    stream = list(
        zip(
            rng.integers(0, 4, n).tolist(),
            (rng.integers(0, 400, n) * 64).tolist(),
            (rng.random(n) < 0.25).tolist(),
            [False] * n,
        )
    )
    for chunk in (8, 64, 512):
        reference_system = _run_pair(stream, chunk, factory=_tight_cuckoo)
        # The scenario must actually exercise forced invalidations.
        assert reference_system.directory_stats().forced_invalidations > 0


# -- chunk-size independence over every organization ------------------------------
#
# Tiny geometries (a handful of sets and ways per slice) so that random
# streams of a few hundred accesses reach every protocol event: evictions,
# directory victimisations, cuckoo walks, stash parking, owner downgrades.


def _tiny_cuckoo(num_caches, slice_id):
    return CuckooDirectory(
        num_caches=num_caches, num_sets=4, num_ways=2, max_insertion_attempts=4
    )


def _tiny_sparse(num_caches, slice_id):
    return SparseDirectory(num_caches=num_caches, num_sets=2, num_ways=2)


def _tiny_in_cache(num_caches, slice_id):
    return InCacheDirectory(
        num_caches=num_caches,
        l2_slice_config=_config().l2_config,
        num_slices=4,
    )


def _tiny_skewed(num_caches, slice_id):
    return SkewedDirectory(num_caches=num_caches, num_sets=4, num_ways=2)


def _tiny_stash(num_caches, slice_id):
    return StashedCuckooDirectory(
        num_caches=num_caches, num_sets=4, num_ways=2, stash_entries=2,
        max_insertion_attempts=4,
    )


_TINY_FACTORIES = {
    "cuckoo": _tiny_cuckoo,
    "sparse": _tiny_sparse,
    "in_cache": _tiny_in_cache,
    "skewed": _tiny_skewed,
    "stash": _tiny_stash,
}

_access = st.tuples(
    st.integers(0, 3),  # core
    st.integers(0, 31).map(lambda block: block * 64),  # address
    st.booleans(),  # write
    st.booleans(),  # instruction fetch (L1I vs L1D when L1-tracked)
)


def _run_chunked(system, stream, sizes):
    """Cut ``stream`` at the boundaries ``sizes`` gives (cycled)."""
    position = 0
    step = 0
    while position < len(stream):
        chunk = stream[position : position + sizes[step % len(sizes)]]
        cores, addresses, writes, instrs = zip(*chunk)
        system.access_batch(
            list(cores), list(addresses), list(writes), list(instrs)
        )
        position += len(chunk)
        step += 1


@pytest.mark.parametrize("organization", sorted(_TINY_FACTORIES))
@settings(max_examples=25, deadline=None)
@given(
    stream=st.lists(_access, min_size=60, max_size=400),
    sizes=st.lists(st.integers(1, 64), min_size=1, max_size=12),
    private_l2=st.booleans(),
)
def test_chunk_size_independence(organization, stream, sizes, private_l2):
    factory = _TINY_FACTORIES[organization]
    level = CacheLevel.L2 if private_l2 else CacheLevel.L1
    reference_system = _make_system(_config(level), factory)
    _run_reference(reference_system, stream)
    batched_system = _make_system(_config(level), factory)
    _run_chunked(batched_system, stream, sizes)
    _assert_identical(reference_system, batched_system)
    assert batched_system.check_inclusion() == []
