"""Declarative simulation-point specifications.

A :class:`RunSpec` fully determines one (workload × system × directory
organization) simulation point: everything :func:`repro.engine.execute.
execute_spec` needs to rebuild the :class:`~repro.coherence.system.TiledCMP`
and replay the trace lives in the spec, so a point simulated in a worker
process is bit-identical to the same point simulated in-process.  Specs are
frozen, hashable and JSON-round-trippable, and :meth:`RunSpec.key` derives a
stable content hash that the on-disk :class:`~repro.engine.store.ResultStore`
uses as its address.

:class:`RunGrid` is the declarative sweep layer: a grid is an ordered,
duplicate-free collection of specs, built either from an explicit iterable or
as the cartesian product of per-field axes (:meth:`RunGrid.product`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from itertools import product
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "SPEC_VERSION",
    "DEFAULT_SCALE",
    "DEFAULT_MEASURE_ACCESSES",
    "ORGANIZATIONS",
    "HASH_FAMILIES",
    "RunSpec",
    "RunGrid",
]

#: Version salt mixed into every spec key.  Bump whenever the simulator's
#: semantics change so that previously cached results are not reused.
#: v2: trace/mix fields (the trace subsystem).
#: v3: timeline sidecars (records predating them have no stored timeline
#: to serve, so re-keying keeps ``get`` semantics uniform).
SPEC_VERSION = 3

#: Default cache-capacity scale factor for experiments (16x smaller caches).
DEFAULT_SCALE = 16

#: Default measurement-window length (accesses) for experiments.
DEFAULT_MEASURE_ACCESSES = 40_000

#: Directory organizations the engine knows how to build.
ORGANIZATIONS = ("cuckoo", "sparse", "skewed")

#: Hash-family overrides for Cuckoo directories (``None`` keeps the default).
HASH_FAMILIES = ("skewing", "strong")


@dataclass(frozen=True)
class RunSpec:
    """One simulation point, expressed as plain JSON-serializable values.

    ``workload`` is intentionally *not* validated against the Table 2 suite
    here: validation happens at execution time so that a bad point in a grid
    surfaces as an isolated :class:`~repro.engine.results.RunFailure` instead
    of aborting grid construction.

    ``trace`` and ``mix`` (mutually exclusive) route the point through the
    trace subsystem instead of live suite generation:

    * ``trace`` names a recorded trace file
      (:class:`~repro.traces.replay.TraceReplayWorkload` replays it; the
      file's header must agree with ``workload``/``seed``/``num_cores``);
    * ``mix`` is a multi-programmed mix spec such as ``"8xApache+8xocean"``
      (:func:`repro.traces.mix.parse_mix`); component core counts must sum
      to ``num_cores``.  By convention ``workload`` carries the same string
      for labelling.

    ``timeline_interval`` turns on interval-sampled counter timelines
    (:mod:`repro.obs.timeline`) at that cadence.  It is **excluded from
    equality and from the content hash**: sampling happens only at
    sub-slice boundaries where the simulation is bit-identical with or
    without it, so the same point with and without a timeline is the same
    result — a cached record can satisfy either request (modulo a stored
    timeline sidecar; see :meth:`~repro.engine.store.ResultStore.get`).

    ``trace_fingerprint`` pins the *contents* of the recording(s) a
    trace/mix point consumes (the trace header fingerprint, or the
    combined :meth:`~repro.traces.mix.MixWorkload.trace_fingerprint` of a
    mix's ``@file`` components).  It is part of the content hash and is
    validated at execution, so re-recording a file at the same path
    changes the key instead of silently serving a stale cached result.
    The CLI populates it automatically; specs built by hand may leave it
    ``None`` to key on the path alone.
    """

    workload: str
    tracked_level: str = "L1"
    organization: str = "cuckoo"
    ways: int = 4
    provisioning: float = 1.0
    num_cores: int = 16
    scale: int = DEFAULT_SCALE
    seed: int = 0
    measure_accesses: int = DEFAULT_MEASURE_ACCESSES
    warmup_accesses: Optional[int] = None
    occupancy_sample_interval: int = 2_000
    hash_family: Optional[str] = None
    trace: Optional[str] = None
    mix: Optional[str] = None
    trace_fingerprint: Optional[str] = None
    timeline_interval: Optional[int] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        # Accept CacheLevel enum members and normalise numeric types so that
        # equal points always hash to the same key (1 vs 1.0, "L1" vs L1).
        level = getattr(self.tracked_level, "value", self.tracked_level)
        object.__setattr__(self, "tracked_level", str(level))
        object.__setattr__(self, "provisioning", float(self.provisioning))
        for name in ("ways", "num_cores", "scale", "seed", "measure_accesses",
                     "warmup_accesses", "occupancy_sample_interval",
                     "timeline_interval"):
            value = getattr(self, name)
            if value is None:
                continue
            if isinstance(value, float) and not value.is_integer():
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.tracked_level not in ("L1", "L2"):
            raise ValueError(f"tracked_level must be 'L1' or 'L2', got {self.tracked_level!r}")
        if self.organization not in ORGANIZATIONS:
            raise ValueError(
                f"organization must be one of {ORGANIZATIONS}, got {self.organization!r}"
            )
        if self.hash_family is not None:
            if self.organization != "cuckoo":
                raise ValueError("hash_family overrides only apply to cuckoo directories")
            if self.hash_family not in HASH_FAMILIES:
                raise ValueError(
                    f"hash_family must be one of {HASH_FAMILIES}, got {self.hash_family!r}"
                )
        if self.ways <= 0:
            raise ValueError("ways must be positive")
        if self.provisioning <= 0:
            raise ValueError("provisioning must be positive")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.measure_accesses <= 0:
            raise ValueError("measure_accesses must be positive")
        if self.warmup_accesses is not None and self.warmup_accesses < 0:
            raise ValueError("warmup_accesses must be non-negative")
        if self.occupancy_sample_interval <= 0:
            raise ValueError("occupancy_sample_interval must be positive")
        if self.timeline_interval is not None and self.timeline_interval <= 0:
            raise ValueError("timeline_interval must be positive")
        if self.trace is not None and self.mix is not None:
            raise ValueError("trace and mix are mutually exclusive")
        if self.trace_fingerprint is not None and self.trace is None and self.mix is None:
            raise ValueError("trace_fingerprint requires a trace or mix field")
        if self.mix is not None:
            from repro.traces.mix import split_mix_spec

            split_mix_spec(self.mix)

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown RunSpec fields: {sorted(unknown)}")
        return cls(**data)

    def key(self) -> str:
        """Stable content hash of this spec (the result-store address).

        The key covers every result-determining field plus
        :data:`SPEC_VERSION`, serialized as canonical JSON, so any such
        field change — and any simulator-semantics bump — produces a
        different key.  ``timeline_interval`` is excluded: it cannot
        change the simulated result (observability only), so the same
        point with and without a timeline shares one store address.
        """
        content = self.to_dict()
        content.pop("timeline_interval", None)
        payload = json.dumps(
            {"spec_version": SPEC_VERSION, **content},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def label(self) -> str:
        """Short human-readable description (progress reporting, CLI)."""
        family = f", {self.hash_family}" if self.hash_family else ""
        source = ""
        if self.trace is not None:
            source = " [trace]"
        elif self.mix is not None:
            source = " [mix]"
        return (
            f"{self.workload}/{self.tracked_level} "
            f"{self.organization} {self.ways}w x{self.provisioning:g}{family} "
            f"(scale={self.scale}, seed={self.seed}){source}"
        )


class RunGrid:
    """An ordered, duplicate-free collection of :class:`RunSpec` points."""

    def __init__(self, specs: Iterable[RunSpec] = ()) -> None:
        self._specs: List[RunSpec] = []
        self._keys: Dict[str, int] = {}
        for spec in specs:
            self.add(spec)

    # -- construction --------------------------------------------------------
    def add(self, spec: RunSpec) -> "RunGrid":
        """Append ``spec`` unless an identical point is already present."""
        if not isinstance(spec, RunSpec):
            raise TypeError(f"RunGrid holds RunSpec instances, got {type(spec).__name__}")
        key = spec.key()
        if key not in self._keys:
            self._keys[key] = len(self._specs)
            self._specs.append(spec)
        return self

    @classmethod
    def product(cls, **axes: object) -> "RunGrid":
        """Cartesian product over per-field axes.

        Every keyword must name a :class:`RunSpec` field.  A list/tuple value
        is an axis to sweep; a scalar (including strings) is held fixed::

            RunGrid.product(workload=["Oracle", "ocean"],
                            tracked_level=["L1", "L2"],
                            ways=4, provisioning=2.0)

        Axes expand in field-declaration order, so the resulting spec order
        is deterministic.
        """
        field_names = [f.name for f in fields(RunSpec)]
        unknown = set(axes) - set(field_names)
        if unknown:
            raise TypeError(f"unknown RunSpec fields: {sorted(unknown)}")

        def as_axis(value: object) -> Sequence[object]:
            if isinstance(value, (list, tuple)):
                if not value:
                    raise ValueError("empty axis in RunGrid.product")
                return value
            return (value,)

        names = [name for name in field_names if name in axes]
        axis_values = [as_axis(axes[name]) for name in names]
        grid = cls()
        for combination in product(*axis_values):
            grid.add(RunSpec(**dict(zip(names, combination))))
        return grid

    def __add__(self, other: "RunGrid") -> "RunGrid":
        merged = RunGrid(self._specs)
        for spec in other:
            merged.add(spec)
        return merged

    # -- access --------------------------------------------------------------
    @property
    def specs(self) -> Tuple[RunSpec, ...]:
        return tuple(self._specs)

    def keys(self) -> List[str]:
        return [spec.key() for spec in self._specs]

    def __iter__(self) -> Iterator[RunSpec]:
        return iter(self._specs)

    def __len__(self) -> int:
        return len(self._specs)

    def __contains__(self, spec: RunSpec) -> bool:
        return spec.key() in self._keys

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunGrid({len(self._specs)} specs)"
