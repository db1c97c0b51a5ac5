"""Stateful equivalence: flat slot-array Sparse directory vs the list model.

:class:`repro.directories.sparse.SparseDirectory` keeps its entries in
flat ``[set][way]`` key / sharer-set / LRU-stamp arrays behind a locator
dict, so the batched miss drain can run on the same state.  The rewrite
must be *behaviourally invisible*: for any operation sequence, every
returned result (including which entry a full set victimises and the
sharers its forced invalidation names), every :class:`DirectoryStats`
field, and the entry count / occupancy must match the retained
list-of-entries implementation (``sparse_reference``) exactly.
"""

import dataclasses

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.directories.sharers import CoarseVector, FullBitVector
from repro.directories.sparse import SparseDirectory

from sparse_reference import ReferenceSparseDirectory

NUM_CACHES = 6
_addresses = st.integers(min_value=0, max_value=19)
_caches = st.integers(min_value=0, max_value=NUM_CACHES - 1)


def _stats(directory):
    return dataclasses.asdict(directory.stats)


class SparseVersusReference(RuleBasedStateMachine):
    """Drive both implementations with the same operation stream."""

    @initialize(
        num_sets=st.integers(min_value=1, max_value=4),
        num_ways=st.integers(min_value=1, max_value=4),
        coarse=st.booleans(),
    )
    def build(self, num_sets, num_ways, coarse):
        kwargs = dict(num_caches=NUM_CACHES, num_sets=num_sets, num_ways=num_ways)
        if coarse:
            # An inexact encoding: reported sharer supersets must agree too.
            kwargs.update(sharer_cls=CoarseVector, num_pointers=1, vector_bits=2)
        self.new = SparseDirectory(**kwargs)
        self.ref = ReferenceSparseDirectory(**kwargs)

    @rule(address=_addresses)
    def lookup(self, address):
        assert self.new.lookup(address) == self.ref.lookup(address)

    @rule(address=_addresses, cache=_caches)
    def lookup_add(self, address, cache):
        assert self.new.lookup_add(address, cache) == self.ref.lookup_add(
            address, cache
        )

    @rule(address=_addresses, cache=_caches)
    def add_sharer(self, address, cache):
        assert self.new.add_sharer(address, cache) == self.ref.add_sharer(
            address, cache
        )

    @rule(address=_addresses, cache=_caches)
    def acquire_exclusive(self, address, cache):
        assert self.new.acquire_exclusive(
            address, cache
        ) == self.ref.acquire_exclusive(address, cache)

    @rule(address=_addresses, cache=_caches)
    def remove_sharer(self, address, cache):
        self.new.remove_sharer(address, cache)
        self.ref.remove_sharer(address, cache)

    @invariant()
    def same_statistics_and_occupancy(self):
        if not hasattr(self, "new"):
            return
        assert _stats(self.new) == _stats(self.ref)
        assert self.new.entry_count() == self.ref.entry_count()
        assert self.new.occupancy() == self.ref.occupancy()


SparseVersusReference.TestCase.settings = settings(
    max_examples=150, stateful_step_count=60, deadline=None
)
TestSparseVersusReference = SparseVersusReference.TestCase


def test_full_set_victimises_least_recently_stamped_entry():
    """A re-stamped (touched) entry survives; the stalest one is evicted."""
    for directory in (
        SparseDirectory(num_caches=4, num_sets=1, num_ways=2),
        ReferenceSparseDirectory(num_caches=4, num_sets=1, num_ways=2),
    ):
        directory.add_sharer(10, 0)
        directory.add_sharer(11, 1)
        directory.add_sharer(10, 2)  # touch 10: 11 is now the LRU entry
        result = directory.add_sharer(12, 3)
        (victim,) = result.invalidations
        assert victim.address == 11 and victim.caches == frozenset({1})
        assert directory.lookup(10).sharers == frozenset({0, 2})
        assert directory.stats.forced_invalidations == 1


@pytest.mark.parametrize("sharer_cls", [FullBitVector, CoarseVector])
def test_drain_handles_only_for_full_bit_vectors(sharer_cls):
    directory = SparseDirectory(num_caches=4, num_sets=2, num_ways=2, sharer_cls=sharer_cls)
    handles = directory.drain_handles()
    if sharer_cls is FullBitVector:
        assert handles is not None and handles.stamps is not None
    else:
        assert handles is None


def test_drain_handles_refused_when_a_subclass_overrides_an_operation():
    class Counting(SparseDirectory):
        def add_sharer(self, address, cache_id):
            return super().add_sharer(address, cache_id)

    assert Counting(num_caches=4, num_sets=2, num_ways=2).drain_handles() is None
