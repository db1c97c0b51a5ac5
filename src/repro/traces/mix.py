"""Multi-programmed workload mixes.

The paper evaluates nine single-application workloads; real consolidated
servers run several programs side by side on one tile, each confined to a
core group.  :class:`MixWorkload` composes that scenario out of existing
workloads (live generators *or* recorded-trace replays): every component
program is assigned a disjoint core group, its stream is generated against
a core-group-sized system, and its cores/addresses are remapped into the
combined machine:

* **core remap** — component-local core ``c`` becomes ``c + base_core`` of
  its group, so program 0 occupies cores ``[0, n0)``, program 1 occupies
  ``[n0, n0+n1)``, and so on;
* **address remap** — every program's virtual addresses are lifted into a
  private ``2**PROGRAM_STRIDE_BITS``-byte band (program ``i`` owns
  ``[i << 42, (i+1) << 42)``), so the programs' footprints can never alias
  to the same block even though every generator lays its regions out from
  the same canonical base.  The band is block- and page-aligned, so block
  identity within a program is untouched.

Streams are interleaved access-for-access with a deterministic *stride
schedule* proportional to core counts (an 8-core program issues twice the
accesses of a 4-core one, finely interleaved rather than in bursts), which
is what the home directories would observe from concurrently running
programs.  The composed stream is itself a
:class:`~repro.workloads.base.Workload`, so mixes record, replay, sample
and sweep exactly like single programs.
"""

from __future__ import annotations

import hashlib
import re
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import SystemConfig
from repro.traces.replay import TraceReplayWorkload
from repro.workloads.base import Workload, WorkloadCategory

__all__ = [
    "PROGRAM_STRIDE_BITS",
    "MixWorkload",
    "canonical_mix_spec",
    "parse_mix",
    "split_mix_spec",
]

#: Each program's virtual-address band is 2**42 bytes wide; with 48-bit
#: physical addresses (Table 1) that allows 64 programs per mix, far more
#: than one tile has core groups for.
PROGRAM_STRIDE_BITS = 42

_COMPONENT_PATTERN = re.compile(r"^(\d+)x(\S+)$")


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


def _stride_schedule(weights: Sequence[int]) -> np.ndarray:
    """One round of the deterministic proportional interleave.

    Classic stride scheduling: component ``i``'s ``t``-th access of the
    round lands at fractional position ``(t + 0.5) / w_i``; sorting all
    positions (ties broken by component index) yields a round of length
    ``sum(weights)`` in which every component appears ``w_i`` times,
    maximally spread out.
    """
    slots: List[Tuple[float, int]] = []
    for index, weight in enumerate(weights):
        for t in range(weight):
            slots.append(((t + 0.5) / weight, index))
    slots.sort()
    return np.asarray([index for _, index in slots], dtype=np.int64)


class _ComponentStream:
    """Buffered chunk stream of one mix component (arrays + cursor)."""

    def __init__(self, workload: Workload, system: SystemConfig, seed: int) -> None:
        self._chunks = workload.trace_chunks(system, seed=seed)
        self._parts: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        self._buffered = 0
        self._exhausted = False

    def ensure(self, count: int) -> int:
        """Buffer at least ``count`` accesses (or all that remain)."""
        while self._buffered < count and not self._exhausted:
            try:
                cores, addresses, writes, instrs = next(self._chunks)
            except StopIteration:
                self._exhausted = True
                break
            self._parts.append(
                (
                    np.asarray(cores, dtype=np.int64),
                    np.asarray(addresses, dtype=np.int64),
                    np.asarray(writes, dtype=np.bool_),
                    np.asarray(instrs, dtype=np.bool_),
                )
            )
            self._buffered += len(self._parts[-1][0])
        return self._buffered

    def take(self, count: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Pop exactly ``count`` buffered accesses as four parallel arrays."""
        if count > self._buffered:
            raise ValueError("take() beyond the buffered window")
        fields: List[List[np.ndarray]] = [[], [], [], []]
        remaining = count
        while remaining > 0:
            part = self._parts[0]
            size = len(part[0])
            if size <= remaining:
                for store, array in zip(fields, part):
                    store.append(array)
                self._parts.pop(0)
                remaining -= size
            else:
                for store, array in zip(fields, part):
                    store.append(array[:remaining])
                self._parts[0] = tuple(array[remaining:] for array in part)
                remaining = 0
        self._buffered -= count
        return tuple(
            parts[0] if len(parts) == 1 else np.concatenate(parts) for parts in fields
        )


class MixWorkload(Workload):
    """A multi-programmed scenario: workloads pinned to disjoint core groups.

    Parameters
    ----------
    components:
        ``(workload, cores)`` pairs in core-group order.  Each core count
        must be a power of two (the per-program generating system inherits
        the library's power-of-two core constraint) and the counts must sum
        to the combined system's core count at generation time.
    name:
        Display name; defaults to the canonical mix spec, e.g.
        ``"8xApache+8xocean"``.
    """

    def __init__(
        self,
        components: Sequence[Tuple[Workload, int]],
        name: Optional[str] = None,
    ) -> None:
        if not components:
            raise ValueError("a mix needs at least one component")
        for workload, cores in components:
            if not isinstance(workload, Workload):
                raise TypeError(
                    f"mix components are (Workload, cores) pairs, got {type(workload).__name__}"
                )
            if not _is_power_of_two(cores):
                raise ValueError(
                    f"component core counts must be powers of two, got {cores} "
                    f"for {workload.name!r}"
                )
        if len(components) > (1 << (48 - PROGRAM_STRIDE_BITS)):
            raise ValueError("too many components for the program address bands")
        self._components: Tuple[Tuple[Workload, int], ...] = tuple(
            (workload, int(cores)) for workload, cores in components
        )
        spec = "+".join(f"{cores}x{workload.name}" for workload, cores in self._components)
        super().__init__(name if name is not None else spec, WorkloadCategory.MIX)

    @property
    def components(self) -> Tuple[Tuple[Workload, int], ...]:
        return self._components

    @property
    def total_cores(self) -> int:
        return sum(cores for _, cores in self._components)

    @staticmethod
    def component_seed(seed: int, index: int) -> int:
        """Per-program seed derivation (distinct streams for repeated programs)."""
        return seed + 1_000_003 * index

    @staticmethod
    def program_base(index: int) -> int:
        """Base virtual address of program ``index``'s private band."""
        return index << PROGRAM_STRIDE_BITS

    def trace_chunks(
        self, system: SystemConfig, seed: int = 0, chunk_size: int = 4096
    ) -> Iterator[tuple]:
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        weights = [cores for _, cores in self._components]
        total = sum(weights)
        if total != system.num_cores:
            raise ValueError(
                f"mix {self.name!r} spans {total} cores but the system has "
                f"{system.num_cores}"
            )
        base_cores = np.cumsum([0] + weights[:-1])
        streams: List[_ComponentStream] = []
        for index, (workload, cores) in enumerate(self._components):
            subsystem = system.with_cores(cores)
            # Replay components are frozen recordings: they carry their own
            # seed and reject any other, so hand it straight back to them.
            if isinstance(workload, TraceReplayWorkload):
                component_seed = workload.header.seed
            else:
                component_seed = self.component_seed(seed, index)
            streams.append(_ComponentStream(workload, subsystem, component_seed))

        schedule = _stride_schedule(weights)
        round_positions = [
            np.flatnonzero(schedule == index) for index in range(len(weights))
        ]
        rounds_per_chunk = max(1, chunk_size // total)
        max_local_address = 1 << PROGRAM_STRIDE_BITS

        while True:
            available_rounds = rounds_per_chunk
            for stream, weight in zip(streams, weights):
                buffered = stream.ensure(rounds_per_chunk * weight)
                available_rounds = min(available_rounds, buffered // weight)
            if available_rounds == 0:
                return  # a finite component (a replayed trace) ran dry
            size = available_rounds * total
            out_cores = np.empty(size, dtype=np.int64)
            out_addresses = np.empty(size, dtype=np.int64)
            out_writes = np.empty(size, dtype=np.bool_)
            out_instrs = np.empty(size, dtype=np.bool_)
            round_offsets = (np.arange(available_rounds) * total)[:, None]
            for index, (stream, weight) in enumerate(zip(streams, weights)):
                cores, addresses, writes, instrs = stream.take(
                    available_rounds * weight
                )
                if len(addresses) and int(addresses.max()) >= max_local_address:
                    raise ValueError(
                        f"component {self._components[index][0].name!r} generated an "
                        f"address beyond its {1 << PROGRAM_STRIDE_BITS:#x}-byte band"
                    )
                positions = (round_positions[index][None, :] + round_offsets).ravel()
                out_cores[positions] = cores + int(base_cores[index])
                out_addresses[positions] = addresses + self.program_base(index)
                out_writes[positions] = writes
                out_instrs[positions] = instrs
            yield (out_cores, out_addresses, out_writes, out_instrs)

    def core_group(self, index: int) -> Tuple[int, int]:
        """``[start, end)`` core range of component ``index``."""
        weights = [cores for _, cores in self._components]
        start = sum(weights[:index])
        return start, start + weights[index]

    def trace_fingerprint(self) -> Optional[str]:
        """Combined content fingerprint of the trace-backed components.

        ``None`` when every component is a live generator.  Covers each
        replay component's position and recording fingerprint, so the
        engine can key cached results to the recordings' *contents* rather
        than their paths (re-recording a file changes the fingerprint and
        therefore misses the cache).
        """
        parts = [
            f"{index}:{workload.header.fingerprint}"
            for index, (workload, _cores) in enumerate(self._components)
            if isinstance(workload, TraceReplayWorkload)
        ]
        if not parts:
            return None
        return hashlib.sha256("+".join(parts).encode("utf-8")).hexdigest()


def split_mix_spec(spec: str) -> List[Tuple[int, str]]:
    """Split a mix spec into ``(cores, program)`` pairs.

    The one mix grammar, shared by :func:`parse_mix` and
    :class:`~repro.engine.spec.RunSpec`: ``+``-separated parts, each
    ``<cores>x<program>`` with surrounding whitespace ignored.  An empty
    part (``"8xApache+"``, ``"8xApache++8xocean"``) is an error.
    """
    parts = [part.strip() for part in spec.split("+")]
    if not any(parts):
        raise ValueError(f"empty mix spec {spec!r}")
    components: List[Tuple[int, str]] = []
    for part in parts:
        match = _COMPONENT_PATTERN.match(part)
        if match is None:
            raise ValueError(
                f"bad mix component {part!r} in {spec!r} (expected "
                f"'<cores>x<workload>', e.g. '8xApache+8xocean')"
            )
        components.append((int(match.group(1)), match.group(2)))
    return components


def canonical_mix_spec(spec: str) -> str:
    """The normal form of ``spec``: ``"08xApache + 8xocean"`` becomes
    ``"8xApache+8xocean"``.  ``@path`` programs are kept verbatim."""
    return "+".join(f"{cores}x{program}" for cores, program in split_mix_spec(spec))


def parse_mix(
    spec: str,
    resolve: Optional[Callable[[str], Workload]] = None,
) -> MixWorkload:
    """Parse a mix spec string like ``"8xApache+8xocean"`` into a workload.

    Each ``+``-separated part is ``<cores>x<program>`` where ``<program>``
    is a Table 2 workload name or ``@<path>`` naming a recorded trace file
    (replayed via :class:`TraceReplayWorkload`).  ``resolve`` overrides how
    bare names are looked up (defaults to the Table 2 suite).
    """
    if resolve is None:
        from repro.workloads.suite import get_workload as resolve

    components: List[Tuple[Workload, int]] = []
    for cores, name in split_mix_spec(spec):
        if name.startswith("@"):
            workload: Workload = TraceReplayWorkload(name[1:])
        else:
            try:
                workload = resolve(name)
            except KeyError as exc:
                raise ValueError(str(exc.args[0]) if exc.args else str(exc))
        components.append((workload, cores))
    return MixWorkload(components, name=spec)
