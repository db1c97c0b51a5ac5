"""Sparse (set-associative) coherence directory.

The Sparse directory [Gupta et al. '90] reduces the associativity of the
Duplicate-Tag organization by spreading entries across many sets indexed
by low-order tag bits.  Because the one-to-one correspondence between
directory entries and cache frames is lost, each entry carries an explicit
sharer set.  The cost is *set conflicts*: when a set fills up, inserting a
new entry forces a live entry out, and the blocks it tracked must be
invalidated in the private caches (a *forced invalidation*, Figure 12's
metric).  The paper evaluates Sparse directories at 2x and 8x capacity
over-provisioning to keep that conflict rate down.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Tuple, Type

from repro.directories.base import (
    LOOKUP_MISS,
    SHARERS_UPDATED,
    Directory,
    DrainHandles,
    Invalidation,
    LookupResult,
    UpdateResult,
)
from repro.directories.sharers import FullBitVector, SharerSet

__all__ = ["SparseDirectory"]

#: Vacant-slot key.
_EMPTY = -1

#: Operations the batched drain reproduces inline from the drain handles;
#: a subclass overriding any of them gets no handles.
_INLINED_OPERATIONS = (
    "lookup", "add_sharer", "remove_sharer", "acquire_exclusive",
    "lookup_add", "_insert",
)


class SparseDirectory(Directory):
    """Set-associative directory with LRU victimisation.

    Entries live in flat ``[set][way]`` key / sharer-set / LRU-stamp
    arrays with a locator dict (address -> ``(set, way)``), so every
    operation probes in O(1) and the batched miss drain can run on the
    same state (:meth:`drain_handles`).  The LRU victim of a full set is
    its entry with the minimum stamp; stamps come from one clock and are
    unique, so slot positions never influence the choice.

    Parameters
    ----------
    num_caches:
        Number of private caches tracked (width of the sharer sets).
    num_sets, num_ways:
        Geometry of the tag store.  Capacity is ``num_sets * num_ways``.
    sharer_cls:
        Sharer-set representation (default: exact full bit vector).
    tag_bits:
        Stored tag width, used only for the bits-read/bits-written
        accounting surfaced in :class:`DirectoryStats`.
    """

    def __init__(
        self,
        num_caches: int,
        num_sets: int,
        num_ways: int,
        sharer_cls: Type[SharerSet] = FullBitVector,
        tag_bits: int = 36,
        **sharer_kwargs,
    ) -> None:
        super().__init__(num_caches)
        if num_sets <= 0 or num_ways <= 0:
            raise ValueError("num_sets and num_ways must be positive")
        self._num_sets = num_sets
        self._num_ways = num_ways
        self._sharer_cls = sharer_cls
        self._sharer_kwargs = sharer_kwargs
        self._tag_bits = tag_bits
        self._keys: List[List[int]] = [[_EMPTY] * num_ways for _ in range(num_sets)]
        self._values: List[List[Optional[SharerSet]]] = [
            [None] * num_ways for _ in range(num_sets)
        ]
        self._stamps: List[List[int]] = [[0] * num_ways for _ in range(num_sets)]
        self._locator: Dict[int, Tuple[int, int]] = {}
        # The recency clock: every call issues the next (unique) stamp.
        self._tick = itertools.count(1).__next__
        # Emptied sharer sets, recycled by later insertions (as in the
        # cuckoo directory; a pooled set is indistinguishable from a new one).
        self._sharer_pool: list = []
        self._entry_bits = 1 + tag_bits + sharer_cls.storage_bits(
            num_caches, **sharer_kwargs
        )
        self._payload_bits = self._entry_bits - tag_bits
        self._inserted = UpdateResult(inserted_new_entry=True, attempts=1)
        cls = type(self)
        self._drainable = sharer_cls is FullBitVector and all(
            getattr(cls, name) is getattr(SparseDirectory, name)
            for name in _INLINED_OPERATIONS
        )

    # -- geometry --------------------------------------------------------
    @property
    def num_sets(self) -> int:
        return self._num_sets

    @property
    def num_ways(self) -> int:
        return self._num_ways

    @property
    def capacity(self) -> int:
        return self._num_sets * self._num_ways

    @property
    def entry_bits(self) -> int:
        """Width of one directory entry (tag + sharer encoding + valid bit)."""
        return self._entry_bits

    def set_index(self, address: int) -> int:
        return address % self._num_sets

    def entry_count(self) -> int:
        return len(self._locator)

    # -- operations -------------------------------------------------------
    def lookup(self, address: int) -> LookupResult:
        stats = self._stats
        stats.lookups += 1
        stats.bits_read += self._num_ways * self._tag_bits
        location = self._locator.get(address)
        if location is None:
            stats.lookup_misses += 1
            return LOOKUP_MISS
        stats.lookup_hits += 1
        stats.bits_read += self._payload_bits
        set_index, way = location
        return LookupResult(
            found=True, sharers=self._values[set_index][way].sharers()
        )

    def add_sharer(self, address: int, cache_id: int) -> UpdateResult:
        self._check_cache(cache_id)
        stats = self._stats
        location = self._locator.get(address)
        if location is not None:
            set_index, way = location
            self._values[set_index][way].add(cache_id)
            self._stamps[set_index][way] = self._tick()
            stats.sharer_additions += 1
            stats.bits_written += self._payload_bits
            return SHARERS_UPDATED

        # Allocate a new entry; a full set forces an invalidation of the victim.
        pool = self._sharer_pool
        if pool:
            sharers = pool.pop()
        else:
            sharers = self._sharer_cls(self._num_caches, **self._sharer_kwargs)
        sharers.add(cache_id)
        invalidations = self._insert(address, sharers, None)
        if invalidations is None:
            stats.insertions += 1
            stats.record_attempts(1)
            stats.bits_written += self._entry_bits
            return self._inserted
        return UpdateResult(
            inserted_new_entry=True, attempts=1, invalidations=invalidations
        )

    def remove_sharer(self, address: int, cache_id: int) -> None:
        self._check_cache(cache_id)
        location = self._locator.get(address)
        if location is None:
            return
        set_index, way = location
        sharers = self._values[set_index][way]
        sharers.remove(cache_id)
        stats = self._stats
        stats.sharer_removals += 1
        stats.bits_written += self._payload_bits
        if sharers.is_empty():
            del self._locator[address]
            self._keys[set_index][way] = _EMPTY
            self._values[set_index][way] = None
            stats.entry_removals += 1
            self._sharer_pool.append(sharers)

    # -- insertion (shared by add_sharer and the batched drain) ------------
    def _insert(
        self, address: int, sharers: SharerSet, set_index: Optional[int]
    ) -> Optional[Tuple[Invalidation, ...]]:
        """Place a new entry for an absent ``address``; the drain-handle
        insert step.

        A vacant way takes the entry and ``None`` is returned: the caller
        accounts the single-attempt insertion.  A full set victimises its
        least recently stamped entry instead; that insertion (still one
        attempt) and its forced invalidation are recorded here and the
        invalidation is returned.
        """
        if set_index is None:
            set_index = address % self._num_sets
        keys = self._keys[set_index]
        stamps = self._stamps[set_index]
        if _EMPTY in keys:
            way = keys.index(_EMPTY)
            keys[way] = address
            self._values[set_index][way] = sharers
            stamps[way] = self._tick()
            self._locator[address] = (set_index, way)
            return None
        way = stamps.index(min(stamps))
        values = self._values[set_index]
        victim = keys[way]
        invalidation = Invalidation(address=victim, caches=values[way].sharers())
        del self._locator[victim]
        keys[way] = address
        values[way] = sharers
        stamps[way] = self._tick()
        self._locator[address] = (set_index, way)
        stats = self._stats
        stats.insertions += 1
        stats.record_attempts(1)
        stats.bits_written += self._entry_bits
        self._record_forced_invalidation(invalidation)
        return (invalidation,)

    def _set_rows(self, addresses) -> list:
        return (addresses % self._num_sets).tolist()

    def drain_handles(self) -> Optional[DrainHandles]:
        """The batched drain's view of this directory (see
        :class:`~repro.directories.base.DrainHandles`).

        Rows are sets, columns are ways; a set's index is the only
        insertion candidate, so the vectorized pre-pass is one modulo over
        the chunk.  Only the full-bit-vector encoding qualifies (the drain
        edits sharer masks directly), and only while no subclass overrides
        an operation the drain inlines; otherwise ``None`` keeps the
        method-call path.
        """
        if not self._drainable:
            return None
        return DrainHandles(
            locator=self._locator,
            keys=self._keys,
            values=self._values,
            stamps=self._stamps,
            tick=self._tick,
            sharer_pool=self._sharer_pool,
            stats=self._stats,
            lookup_bits=self._num_ways * self._tag_bits,
            payload_bits=self._payload_bits,
            entry_bits=self._entry_bits,
            batch_key=("set-index", self._num_sets),
            candidate_rows=self._set_rows,
            insert=self._insert,
        )

    @classmethod
    def with_provisioning(
        cls,
        num_caches: int,
        tracked_frames: int,
        num_ways: int,
        provisioning: float,
        sharer_cls: Type[SharerSet] = FullBitVector,
        tag_bits: int = 36,
        **sharer_kwargs,
    ) -> "SparseDirectory":
        """Build a Sparse directory sized at ``provisioning`` times the
        worst-case number of tracked blocks (the paper's 2x / 8x points)."""
        if provisioning <= 0:
            raise ValueError("provisioning must be positive")
        capacity = max(num_ways, int(round(tracked_frames * provisioning)))
        num_sets = max(1, capacity // num_ways)
        # Round the set count to a power of two, as a hardware indexer would.
        num_sets = 2 ** max(0, round(math.log2(num_sets)))
        return cls(
            num_caches=num_caches,
            num_sets=num_sets,
            num_ways=num_ways,
            sharer_cls=sharer_cls,
            tag_bits=tag_bits,
            **sharer_kwargs,
        )

