"""The whole-chunk kernel must be bit-identical to the scalar loop.

``TiledCMP._access_batch_vector`` resolves every tracked-cache lookup of a
chunk at once, retires conflict-free hits with vectorised stamp writes,
and drains the remainder through the scalar MESI protocol.  Its conflict-
group partition (blocks with any miss/coherence event drain everywhere;
``(cache, set)`` groups with drains drag their hits) and its rollback /
re-injection hazard handling are exactly what these tests attack:
adversarial chunks — interleaved writers, chunk boundaries splitting
runs, forced invalidations mid-chunk, single-access chunks, all-miss
chunks — replayed through both kernels must leave every statistic, every
flat cache array, and the cuckoo tables' internal state identical.
"""

import numpy as np
import pytest

import repro.coherence.system as sysmod
from repro.coherence.system import (
    _BATCH_FOLDED,
    _BATCH_KERNEL_HITS,
    _BATCH_ROLLBACKS,
)
from repro.config import CacheLevel
from repro.core.cuckoo_directory import CuckooDirectory
from repro.hashing.strong import StrongHashFamily

from test_batch_equivalence import (
    _config,
    _cuckoo_factory,
    _make_system,
    _run_batched,
    _run_scalar,
    _snapshot,
    _sparse_factory,
)


@pytest.fixture
def kernel(monkeypatch):
    """Force a kernel per system via the module default; restores after."""

    def force(name):
        monkeypatch.setattr(sysmod, "DEFAULT_BATCH_KERNEL", name)

    yield force


def _deep_directory_state(system):
    """Cuckoo-table internals the public snapshot does not reach."""
    out = []
    for directory in system._directories:
        if not isinstance(directory, CuckooDirectory):
            return None
        table = directory._table
        out.append(
            (
                [list(way_keys) for way_keys in table._keys],
                [
                    [None if v is None else v._mask for v in way_values]
                    for way_values in table._values
                ],
                dict(table._locator),
                len(table),
                table._start_way,
            )
        )
    return out


def _assert_identical(scalar_system, vector_system):
    assert _snapshot(scalar_system) == _snapshot(vector_system)
    assert _deep_directory_state(scalar_system) == _deep_directory_state(
        vector_system
    )


def _run_pair(stream, chunk, factory=_cuckoo_factory, level=CacheLevel.L1,
              kernel=None, cores=4):
    kernel("scalar")
    scalar_system = _make_system(_config(level, cores), factory)
    _run_scalar(scalar_system, stream)
    kernel("vector")
    vector_system = _make_system(_config(level, cores), factory)
    _run_batched(vector_system, stream, chunk)
    _assert_identical(scalar_system, vector_system)


# -- conflict-group partitioner: adversarial chunk shapes -----------------------


def test_interleaved_writers_same_block(kernel):
    """Writers ping-ponging one block force invalidation chains mid-chunk."""
    stream = []
    for round_ in range(40):
        block = (round_ % 3) * 64
        for core in (0, 1, 2, 3, 0, 2):
            stream.append((core, block, True, False))
            stream.append(((core + 1) % 4, block, False, False))
    for chunk in (5, 64, len(stream)):
        _run_pair(stream, chunk, kernel=kernel)


def test_chunk_boundary_splits_runs(kernel):
    """Same-block runs split across chunk boundaries at every offset."""
    stream = []
    for i in range(30):
        core = i % 4
        block = (i % 5) * 64
        stream += [(core, block, False, False)] * 7
        stream.append((core, block, True, False))
    # Chunk sizes chosen to cut the 8-access runs at every phase.
    for chunk in (1, 2, 3, 5, 7, 8, 9, 13):
        _run_pair(stream, chunk, kernel=kernel)


def test_single_access_chunks(kernel):
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
    _run_pair(stream, 1, kernel=kernel)


def test_all_miss_chunks(kernel):
    """Strictly fresh addresses: every access misses, the drain is the chunk."""
    stream = [(i % 4, i * 64, i % 3 == 0, False) for i in range(600)]
    for chunk in (17, 128, 600):
        _run_pair(stream, chunk, kernel=kernel)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("level", [CacheLevel.L1, CacheLevel.L2])
def test_randomized_streams(kernel, seed, level):
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
        _run_pair(stream, chunk, level=level, kernel=kernel)


def test_sparse_forced_invalidations(kernel):
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
        _run_pair(stream, chunk, factory=_sparse_factory, kernel=kernel)


def _tight_cuckoo(num_caches, slice_id):
    # Two ways over eight sets with a three-attempt walk: insertions cut
    # off constantly, so forced invalidations (and the kernel's rollback
    # machinery) fire inside the *cuckoo* fast-path drain as well.
    return CuckooDirectory(
        num_caches=num_caches,
        num_sets=8,
        num_ways=2,
        hash_family=StrongHashFamily(2, 8, seed=1),
        max_insertion_attempts=3,
    )


def test_cuckoo_forced_invalidations_midchunk(kernel, obs_enabled):
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
    rollbacks_before = _BATCH_ROLLBACKS.value
    for chunk in (8, 64, 512):
        kernel("scalar")
        scalar_system = _make_system(_config(CacheLevel.L1), _tight_cuckoo)
        _run_scalar(scalar_system, stream)
        kernel("vector")
        vector_system = _make_system(_config(CacheLevel.L1), _tight_cuckoo)
        _run_batched(vector_system, stream, chunk)
        # The scenario must actually exercise the hazard path.
        assert scalar_system.directory_stats().forced_invalidations > 0
        _assert_identical(scalar_system, vector_system)
    # At least one chunking makes a forced invalidation victimise a block
    # with already-retired kernel hits, forcing rollback + re-injection.
    assert _BATCH_ROLLBACKS.value > rollbacks_before


# -- run-length fold vs vectorized kernel (two fast paths, one answer) ----------


@pytest.fixture
def obs_enabled():
    import repro.obs as obs

    obs.enable()
    yield
    obs.disable()


def test_same_block_run_fold_vs_kernel(kernel, obs_enabled):
    """A chunk that is one long same-block run: the scalar kernel folds it
    through ``touch_repeats``, the vector kernel retires it vectorised —
    the stats must not drift apart, and each fast path must engage.

    The warm-up (fill + upgrade to M) goes in its own chunk: a chunk's
    conflict-group rule drains every access to a block that misses or
    upgrades inside that same chunk, so only a pure-hit chunk lets the
    vector kernel retire the run.
    """
    core, block = 1, 7 * 64
    warm = [(core, block, False, False), (core, block, True, False)]
    run = [(core, block, False, False)] * 500  # read run, M resident
    run += [(core, block, True, False)] * 300  # write run, stays M

    def execute(system):
        for chunk in (warm, run):
            cores, addresses, writes, instrs = zip(*chunk)
            system.access_batch(
                list(cores), list(addresses), list(writes), list(instrs)
            )

    folded_before = _BATCH_FOLDED.value
    kernel("scalar")
    scalar_system = _make_system(_config(CacheLevel.L1), _cuckoo_factory)
    execute(scalar_system)
    assert _BATCH_FOLDED.value - folded_before >= len(run) - 1

    kernel_before = _BATCH_KERNEL_HITS.value
    kernel("vector")
    vector_system = _make_system(_config(CacheLevel.L1), _cuckoo_factory)
    execute(vector_system)
    assert _BATCH_KERNEL_HITS.value - kernel_before >= len(run)

    _assert_identical(scalar_system, vector_system)
