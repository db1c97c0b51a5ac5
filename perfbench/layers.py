"""Outside-in instrumentation for the benchmark: capture and layer spans.

Nothing here edits the program.  The benchmark wraps public functions of
each layer at run time and restores them afterwards:

* :class:`Capture` (installed for every run) records each point's host
  time around ``execute_spec`` and reads the simulated statistics off the
  ``WorkloadRun`` and ``TiledCMP`` the point built, outside its timing.
* :func:`install_spans` (installed only around traced points) opens a span
  on the program's own ``repro.obs`` tracer around each layer's public
  entry points.  Because the program's built-in spans (``translate``,
  ``drain_vector``, ``store_io`` ...) land on the same tracer, nesting is
  resolved in one place and the self times of all spans under the
  benchmark's root span sum to the root's wall clock.

:func:`layer_metrics` folds tracer self times, obs counters (read by name;
a counter the program no longer registers is reported absent) and the
checked per-point statistics into the per-layer metrics.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import time
from typing import Callable, Dict, List

import repro.engine.execute as execute_module
from repro.analysis.frame import SweepFrame
from repro.cache.cache import CacheStats
from repro.coherence.paging import PageMapper
from repro.coherence.simulator import TraceSimulator
from repro.coherence.system import TiledCMP
from repro.engine.results import RunResult
from repro.engine.runner import ParallelRunner
from repro.engine.store import ResultStore
from repro.experiments import common
from repro.hashing.base import HashFamily
from repro.obs import REGISTRY, TRACER

#: Name of the benchmark's root span; its self time is unattributed.
ROOT = "bench.root"

#: Span around the benchmark's own per-point checks; its time is cut out
#: of the traced wall clock.
CHECK = "bench.check"

#: Span name -> per-layer self-time metric.  Spans opened by the program
#: itself keep their names; ``bench.*`` spans are opened by the wrappers
#: below.  A span missing from this table lands in ``residual_s``.
SELF_TIME_LAYERS = {
    "trace_production": "workloads.trace_s",
    "bench.paging": "paging.translate_s",
    "bench.access_batch": "system.access_batch_s",
    "translate": "system.access_batch_s",
    "batch_kernel": "system.batch_kernel_s",
    "hit_kernel": "system.hit_kernel_s",
    "drain_vector": "system.drain_vector_s",
    "drain_scalar": "system.drain_scalar_s",
    "bench.hashing": "hashing.batch_s",
    "occupancy_sampling": "dir.occupancy_sample_s",
    "bench.build": "simulator.build_s",
    "bench.run_workload": "simulator.build_s",
    "bench.simulator.run": "simulator.loop_s",
    "bench.execute": "engine.execute_s",
    "bench.result": "engine.result_s",
    "bench.runner": "runner.overhead_s",
    "bench.store.open": "store.open_s",
    "bench.store.put": "store.put_s",
    "bench.store.get": "store.get_s",
    "store_io": "store.io_s",
    "bench.report.aggregate": "report.aggregate_s",
    "bench.report.render": "report.render_s",
    "bench.report.cli": "report.cli_s",
}

#: Per-layer counters read from the program's obs registry by name.
COUNTERS = {
    "system.kernel_hits": "sim.batch.kernel_hits",
    "system.rollbacks": "sim.batch.rollbacks",
    "system.drained": "sim.batch.drained",
    "system.reinjected": "sim.drain.reinjected",
    "store.puts": "store.puts",
    "store.get_hits": "store.get.hits",
    "store.seals": "store.seals",
}


class Patches:
    """Attribute replacements that :meth:`undo` restores in reverse order."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def wrap(self, owner: object, name: str, make: Callable) -> None:
        raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        setattr(owner, name, replacement)
        self._undo.append((owner, name, raw))

    def undo(self) -> None:
        while self._undo:
            owner, name, raw = self._undo.pop()
            setattr(owner, name, raw)


@dataclasses.dataclass
class Point:
    """One executed point: its host time and its checked statistics."""

    spec: object
    seconds: float
    stats: Dict[str, object]
    violations: List[str]
    check_seconds: float


class Capture:
    """Times each ``execute_spec`` call and extracts the point's statistics.

    The statistics are read from the ``WorkloadRun`` and ``TiledCMP`` the
    point built, right after it returns and outside its timing; the
    system is dropped straight away (each one holds tens of MB).  The
    extraction runs under the :data:`CHECK` span, which the traced run
    subtracts from its wall clock.
    """

    def __init__(self, check_inclusion: bool = False) -> None:
        self.points: List[Point] = []
        self.check_inclusion = check_inclusion
        self._system = None
        self._run = None

    def install(self, patches: Patches) -> None:
        patches.wrap(execute_module, "execute_spec", self._timed_execute)
        patches.wrap(common, "run_workload", self._keeping_run)
        patches.wrap(TiledCMP, "__init__", self._keeping_system)

    def take(self) -> List[Point]:
        """The points recorded since the last call."""
        points, self.points = self.points, []
        return points

    def _timed_execute(self, func: Callable) -> Callable:
        @functools.wraps(func)
        def execute_spec(spec):
            self._run = self._system = None
            started = time.perf_counter()
            result = func(spec)
            seconds = time.perf_counter() - started
            with TRACER.span(CHECK):
                checked = time.perf_counter()
                stats = point_stats(self._run, self._system)
                violations = (
                    self._system.check_inclusion() if self.check_inclusion else []
                )
                self._run = self._system = None
                self.points.append(Point(
                    spec, seconds, stats, violations, time.perf_counter() - checked
                ))
            return result

        return execute_spec

    def _keeping_run(self, func: Callable) -> Callable:
        @functools.wraps(func)
        def run_workload(*args, **kwargs):
            self._run = func(*args, **kwargs)
            return self._run

        return run_workload

    def _keeping_system(self, func: Callable) -> Callable:
        @functools.wraps(func)
        def __init__(system, *args, **kwargs):
            func(system, *args, **kwargs)
            self._system = system

        return __init__


def _spanned(name: str) -> Callable:
    def make(func: Callable) -> Callable:
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with TRACER.span(name):
                return func(*args, **kwargs)

        return wrapper

    return make


class SpanCounts:
    """Work counted by the span wrappers (not available as obs counters)."""

    def __init__(self) -> None:
        self.hashed_addresses = 0
        self.produced_accesses = 0
        self.batch_accesses = 0
        self._hash_depth = 0

    def hashing(self, func: Callable) -> Callable:
        @functools.wraps(func)
        def wrapper(family, addresses, *args, **kwargs):
            # Base-class fallbacks call back into the family; count the
            # outermost call only.
            if self._hash_depth == 0:
                self.hashed_addresses += len(addresses)
            self._hash_depth += 1
            try:
                with TRACER.span("bench.hashing"):
                    return func(family, addresses, *args, **kwargs)
            finally:
                self._hash_depth -= 1

        return wrapper

    def access_batch(self, func: Callable) -> Callable:
        @functools.wraps(func)
        def access_batch(*args, **kwargs):
            with TRACER.span("bench.access_batch"):
                executed = func(*args, **kwargs)
            self.batch_accesses += executed
            return executed

        return access_batch

    def run_chunks(self, func: Callable) -> Callable:
        @functools.wraps(func)
        def run_chunks(simulator, chunks, *args, **kwargs):
            def counted():
                for chunk in chunks:
                    self.produced_accesses += len(chunk[0])
                    yield chunk

            with TRACER.span("bench.simulator.run"):
                return func(simulator, counted(), *args, **kwargs)

        return run_chunks


def _subclasses_defining(base: type, name: str) -> List[type]:
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if name in cls.__dict__:
            found.append(cls)
    return found


def install_spans(patches: Patches, counts: SpanCounts) -> None:
    """Wrap every layer's public entry points in spans (traced points only)."""
    import repro.hashing.skewing  # noqa: F401  (registers the subclasses)
    import repro.hashing.strong  # noqa: F401

    patches.wrap(execute_module, "execute_spec", _spanned("bench.execute"))
    patches.wrap(common, "run_workload", _spanned("bench.run_workload"))
    patches.wrap(TiledCMP, "__init__", _spanned("bench.build"))
    patches.wrap(TiledCMP, "access_batch", counts.access_batch)
    patches.wrap(TraceSimulator, "run_chunks", counts.run_chunks)
    patches.wrap(PageMapper, "translate_blocks", _spanned("bench.paging"))
    for name in ("batch_indices", "batch_indices_array"):
        for cls in _subclasses_defining(HashFamily, name):
            patches.wrap(cls, name, counts.hashing)
    patches.wrap(RunResult, "from_workload_run", _spanned("bench.result"))
    patches.wrap(ParallelRunner, "run", _spanned("bench.runner"))
    patches.wrap(ResultStore, "__init__", _spanned("bench.store.open"))
    patches.wrap(ResultStore, "put", _spanned("bench.store.put"))
    patches.wrap(ResultStore, "get", _spanned("bench.store.get"))
    for name in ("aggregate", "aggregate_columns"):
        patches.wrap(SweepFrame, name, _spanned("bench.report.aggregate"))
    for name in ("render", "to_csv", "to_json"):
        patches.wrap(SweepFrame, name, _spanned("bench.report.render"))


# -- simulated statistics ------------------------------------------------------
def _cache_totals(caches) -> Dict[str, int]:
    names = [field.name for field in dataclasses.fields(CacheStats)]
    return {name: sum(getattr(cache.stats, name) for cache in caches) for name in names}


def point_stats(run, system) -> Dict[str, object]:
    """Every simulated statistic of one point, as plain JSON values."""
    result = run.result
    directory = dataclasses.asdict(result.directory_stats)
    directory["attempt_histogram"] = sorted(
        [int(attempts), int(count)]
        for attempts, count in result.directory_stats.attempt_histogram.items()
    )
    traffic = result.traffic
    return {
        "accesses": result.accesses,
        "directory": directory,
        "tracked_caches": _cache_totals(system.tracked_caches),
        "l2_banks": _cache_totals(system.l2_banks or ()),
        "traffic": {
            "messages": {
                str(getattr(kind, "value", kind)): count
                for kind, count in traffic.messages.items()
            },
            "hops": traffic.hops,
            "bytes": traffic.bytes_transferred,
        },
        "cache_hit_rate": result.cache_hit_rate,
        "average_occupancy": result.average_occupancy,
        "occupancy_vs_worst_case": run.occupancy_vs_worst_case,
        "pages_mapped": system.page_mapper.pages_mapped,
    }


def invariant_problems(stats: Dict[str, object]) -> List[str]:
    """Identities every point's statistics satisfy, whatever the seed."""
    d = stats["directory"]
    caches = stats["tracked_caches"]
    problems = []
    if sum(count for _attempts, count in d["attempt_histogram"]) != d["insertions"]:
        problems.append("attempt histogram does not sum to insertions")
    if sum(a * count for a, count in d["attempt_histogram"]) != d["insertion_attempts"]:
        problems.append("attempt histogram does not sum to insertion attempts")
    if d["lookup_hits"] + d["lookup_misses"] != d["lookups"]:
        problems.append("lookup hits + misses != lookups")
    if caches["hits"] + caches["misses"] != stats["accesses"]:
        problems.append("tracked-cache hits + misses != measured accesses")
    return problems


def digest(value: object) -> str:
    """Short content hash of a JSON-serialisable value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


# -- per-layer metrics -----------------------------------------------------------
def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(
    stats: List[Dict[str, object]],
    counts: SpanCounts,
    overhead: float,
) -> tuple:
    """Per-layer metrics of the traced points, plus the absent counters.

    Self times are totals over the run's traced points and, with
    ``residual_s``, sum to ``run.traced_wall_s`` (the root spans' time less
    the benchmark's own checks); counts are means per traced point.
    """
    totals = TRACER.totals()
    wall = totals.get(ROOT, {}).get("total_seconds", 0.0)
    wall -= totals.get(CHECK, {}).get("total_seconds", 0.0)
    metrics: Dict[str, float] = {name: 0.0 for name in SELF_TIME_LAYERS.values()}
    residual = 0.0
    for name, entry in totals.items():
        if name == CHECK:
            continue
        layer = SELF_TIME_LAYERS.get(name)
        if layer is None:
            residual += entry["self_seconds"]
        else:
            metrics[layer] += entry["self_seconds"]
    metrics["residual_s"] = residual
    metrics["residual_share"] = residual / wall if wall else 0.0
    metrics["run.traced_wall_s"] = wall
    metrics["run.points"] = float(len(stats))
    metrics["obs.trace_overhead"] = overhead

    registered = set(REGISTRY.names())
    values = REGISTRY.snapshot()["counters"]
    points = max(len(stats), 1)
    absent = []
    for metric, counter in COUNTERS.items():
        if counter not in registered:
            absent.append(metric)
        metrics[metric] = values.get(counter, 0) / points
    batch = counts.batch_accesses
    metrics["system.us_per_access"] = (
        1e6 * totals.get("bench.access_batch", {}).get("total_seconds", 0.0) / batch
        if batch else 0.0
    )
    metrics["system.kernel_hit_share"] = (
        values.get("sim.batch.kernel_hits", 0) / batch if batch else 0.0
    )
    drained = values.get("sim.drain.vector_resolved", 0) + values.get(
        "sim.drain.scalar_fallback", 0
    )
    metrics["system.drain_vector_share"] = (
        values.get("sim.drain.vector_resolved", 0) / drained if drained else 0.0
    )
    for metric, counter in (
        ("system.kernel_hit_share", "sim.batch.kernel_hits"),
        ("system.drain_vector_share", "sim.drain.vector_resolved"),
        ("system.drain_vector_share", "sim.drain.scalar_fallback"),
    ):
        if counter not in registered:
            absent.append(metric)
    metrics["workloads.accesses"] = counts.produced_accesses / points
    metrics["hashing.addresses"] = counts.hashed_addresses / points

    directory = [entry["directory"] for entry in stats]
    walks = [
        sum(count for attempts, count in d["attempt_histogram"] if attempts > 1)
        for d in directory
    ]
    insertions = sum(d["insertions"] for d in directory)
    tracked = [entry["tracked_caches"] for entry in stats]
    cache_accesses = sum(c["hits"] + c["misses"] for c in tracked)
    metrics.update({
        "paging.pages_mapped": _mean([entry["pages_mapped"] for entry in stats]),
        "dir.lookups": _mean([d["lookups"] for d in directory]),
        "dir.insertions": _mean([d["insertions"] for d in directory]),
        "dir.insert_attempts_mean": (
            sum(d["insertion_attempts"] for d in directory) / insertions
            if insertions else 0.0
        ),
        "dir.walks": _mean(walks),
        "dir.forced_invalidations": _mean([d["forced_invalidations"] for d in directory]),
        "dir.occupancy_mean": _mean([entry["average_occupancy"] for entry in stats]),
        "cache.accesses": cache_accesses / points,
        "cache.hit_rate": (
            sum(c["hits"] for c in tracked) / cache_accesses if cache_accesses else 0.0
        ),
        "traffic.messages": _mean(
            [sum(entry["traffic"]["messages"].values()) for entry in stats]
        ),
        "traffic.hops": _mean([entry["traffic"]["hops"] for entry in stats]),
    })
    return metrics, sorted(set(absent))


def attribution_gap(metrics: Dict[str, float]) -> float:
    """|sum of self times + residual - traced wall| (0 up to rounding)."""
    attributed = sum(metrics[name] for name in set(SELF_TIME_LAYERS.values()))
    return abs(attributed + metrics["residual_s"] - metrics["run.traced_wall_s"])
