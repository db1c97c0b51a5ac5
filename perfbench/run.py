#!/usr/bin/env python3
"""Repository benchmark: host time to simulate the paper's points.

Usage::

    python3 perfbench/run.py --workload fig10_shared_l2 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --write-expected

Each workload is a closed loop with one client: points run one after
another, in this process, through the public ``execute_spec`` /
``ParallelRunner(workers=1)`` entry points.  ``--seed`` is the workload's
trace seed; the same seed simulates the same accesses.  The run measures
for ``--seconds`` and prints its metrics by name and unit, a provenance
record, and as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics with telemetry off, in
calibrated seconds (see ``calibrate.py``).
``--trace 1`` alternates untraced and traced points; the traced ones run
with ``repro.obs`` enabled and every layer's entry points wrapped in spans
(see ``layers.py``), and the run reports each layer's self time, the
unattributed residual and the tracing overhead.

Every point's simulated statistics are checked: against the digests in
``expected.json`` when the (workload, seed) pair has one, against every
other point of the run (repeats, traced and untraced alike), against
their own identities, and — in the traced run — against
``TiledCMP.check_inclusion``.  ``--write-expected``
regenerates ``expected.json`` for the default and held-out seed lists.
Exit status: 0 when every check passed, 1 when one failed, 2 when there
is no program under ``src/`` to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"

#: Single-point workloads: the paper's chosen designs at the experiments'
#: default scale and measurement window.
POINTS = {
    "fig10_shared_l2": dict(
        workload="Oracle", tracked_level="L1", organization="cuckoo", ways=4, provisioning=1.0
    ),
    "sparse_shared_l2": dict(
        workload="Oracle", tracked_level="L1", organization="sparse", ways=8, provisioning=2.0
    ),
    "ocean_private_l2": dict(
        workload="ocean", tracked_level="L2", organization="cuckoo", ways=3, provisioning=1.5
    ),
}
POINT_SCALE = 16
POINT_MEASURE = 40_000

#: fig08_sweep: the Figure 8 grid at a scale and window small enough that
#: per-point set-up and warm-up dominate, as in a quick sweep.  Each cycle
#: simulates the grid cold into a fresh store, re-runs it warm
#: ``WARM_REPEATS`` times from a freshly opened store, and renders the
#: store report ``REPORT_REPEATS`` times; the repeats make the two short
#: phases long enough for a steady median.
SWEEP_SCALE = 64
SWEEP_MEASURE = 4_000
WARM_REPEATS = 60
REPORT_REPEATS = 40
REPORT_ARGS = ["report", "--all", "--group-by", "workload,tracked_level"]
#: Warm and report repeats between two calibration probes.
PROBE_EVERY = 10

WORKLOADS = (*POINTS, "fig08_sweep")

#: Seeds the expected statistics are shipped for.  Tune on the default
#: list; a claimed gain is re-checked on the held-out list.
DEFAULT_SEEDS = tuple(range(20))
HELD_OUT_SEEDS = tuple(range(1000, 1010))

#: Set-up is timed in this many fresh child processes; the median is kept.
SETUP_SAMPLES = 7

#: Paper values the model is compared against (informational only).
PAPER_ATTEMPTS = {
    "fig10_shared_l2": ("Shared L2", "Oracle"),
    "ocean_private_l2": ("Private L2", "ocean"),
}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-expected", action="store_true",
        help="regenerate expected.json for the default and held-out seeds",
    )
    args = parser.parse_args(argv)
    if not args.write_expected and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# -- provenance ------------------------------------------------------------------
def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def provenance(load_start) -> Dict[str, object]:
    """The code and host that produced a record."""
    import numpy

    commit = dirty = None
    if (ROOT / ".git").exists():
        commit = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    return {
        "git_commit": commit,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
    }


# -- set-up ----------------------------------------------------------------------
def measure_setup(spec_dict: Dict[str, object]) -> tuple:
    """Seconds to import ``repro`` and build the first point's system, one
    sample per fresh child process, each calibrated by the probes run just
    before and just after the child.  Returns (calibrated, raw) samples."""
    from calibrate import calibrated, probe

    def steady_probe() -> float:
        # A child is short next to its start-up jitter; the median of three
        # probes keeps one noisy probe from skewing its sample.
        return statistics.median(probe() for _ in range(3))

    samples, raw = [], []
    before = steady_probe()
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), json.dumps(spec_dict)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        after = steady_probe()
        raw.append(float(done.stdout))
        samples.append(calibrated(raw[-1], before, after))
        before = after
    return samples, raw


# -- checking --------------------------------------------------------------------
class Checks:
    """Counts attempted and failed points and keeps every problem found."""

    def __init__(self, expected: Optional[str]) -> None:
        self.expected = expected
        self.reference: Optional[str] = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def against_reference(self, value: str, label: str) -> List[str]:
        """Problems of one point's (or one grid's) statistics digest: it
        must equal the expected one and the run's first one."""
        if self.reference is None:
            self.reference = value
        if self.expected is not None and value != self.expected:
            return [f"{label}: statistics differ from expected.json"]
        if value != self.reference:
            return [f"{label}: statistics differ from the run's first point"]
        return []

    def count(self, points: int, problems: List[str]) -> None:
        """``points`` attempted; all of them failed if there are problems."""
        self.attempted += points
        if problems:
            self.failed += points
            self.problems.extend(problems)
            for problem in problems:
                print(f"CHECK FAILED: {problem}", file=sys.stderr)


def load_expected(workload: str, seed: int) -> Optional[str]:
    if not EXPECTED.is_file():
        return None
    return json.loads(EXPECTED.read_text())["digests"].get(workload, {}).get(str(seed))


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


# -- workloads -------------------------------------------------------------------
def point_spec(name: str, seed: int):
    from repro.engine.spec import RunSpec

    return RunSpec(
        scale=POINT_SCALE, measure_accesses=POINT_MEASURE, seed=seed, **POINTS[name]
    )


def sweep_grid(seed: int):
    from repro.experiments import fig08_occupancy

    return fig08_occupancy.grid(scale=SWEEP_SCALE, measure_accesses=SWEEP_MEASURE, seed=seed)


def simulated_accesses(spec) -> int:
    """Warm-up plus measured accesses one point simulates."""
    from repro.config import CacheLevel
    from repro.experiments.common import scaled_system
    from repro.workloads.suite import get_workload

    warmup = spec.warmup_accesses
    if warmup is None:
        config = scaled_system(
            CacheLevel(spec.tracked_level), num_cores=spec.num_cores, scale=spec.scale
        )
        warmup = get_workload(spec.workload).recommended_warmup(config)
    return warmup + spec.measure_accesses


@dataclasses.dataclass
class Timed:
    """A timed region: its calibrated seconds, the calibrated seconds of
    each point it executed, and those points."""

    seconds: float
    point_seconds: List[float]
    points: list


class Bench:
    """State shared by the workload loops of one run."""

    def __init__(self, workload: str, seed: int, traced: bool) -> None:
        from calibrate import probe
        from layers import Capture, Patches, SpanCounts

        self.workload = workload
        self.seed = seed
        self.traced = traced
        self.checks = Checks(load_expected(workload, seed))
        self.patches = Patches()
        # The traced run also checks directory inclusion after every point.
        self.capture = Capture(check_inclusion=traced)
        self.capture.install(self.patches)
        self.counts = SpanCounts()
        self.traced_stats: List[Dict[str, object]] = []
        self.first_stats: Optional[Dict[str, object]] = None
        #: Calibrated wall clock of each untraced/traced point or sweep cycle.
        self.walls: Dict[str, List[float]] = {"untraced": [], "traced": []}
        self.probes: List[float] = [probe()]
        self.info: Dict[str, object] = {}
        self.sweep_results: Dict[str, object] = {}

    def timed(self, region, traced: bool = False) -> Timed:
        """Run ``region(mark)`` between two calibration probes.

        ``region`` may call ``mark()`` between its steps to probe the host
        there as well (untraced only: a probe inside the root span would
        be attributed to a layer).  A point executed between two probes is
        calibrated by those two; the region as a whole by the mean of all
        of its probes.  Probe and check time is cut out of the region.
        """
        from calibrate import NOMINAL_PROBE_S, probe

        inner: List[float] = []

        def mark(*_args) -> None:
            if not traced:
                inner.append(probe())

        started = time.perf_counter()
        with self.spans() if traced else contextlib.nullcontext():
            region(mark)
        elapsed = time.perf_counter() - started
        probes = [self.probes[-1], *inner, probe()]
        self.probes.extend(probes[1:])
        points = self.capture.take()
        elapsed -= sum(inner) + sum(point.check_seconds for point in points)
        scale = NOMINAL_PROBE_S / statistics.fmean(probes)
        if len(probes) > len(points):
            point_seconds = [
                point.seconds * 2 * NOMINAL_PROBE_S / (probes[i] + probes[i + 1])
                for i, point in enumerate(points)
            ]
        else:
            point_seconds = [point.seconds * scale for point in points]
        return Timed(elapsed * scale, point_seconds, points)

    @contextlib.contextmanager
    def spans(self):
        """Telemetry and layer spans on, under the benchmark's root span."""
        from layers import ROOT, Patches, install_spans
        from repro import obs

        patches = Patches()
        install_spans(patches, self.counts)
        obs.enable()
        try:
            with obs.TRACER.span(ROOT):
                yield
        finally:
            obs.disable()
            patches.undo()

    def digests(self, points, traced: bool) -> tuple:
        """Each captured point's statistics digest, and the problems found:
        broken statistics identities, and inclusion violations in the
        traced run."""
        from layers import digest, invariant_problems

        digests, problems = [], []
        for point in points:
            digests.append(digest(point.stats))
            problems += [
                f"{point.spec.label()}: {problem}"
                for problem in invariant_problems(point.stats)
            ]
            if self.first_stats is None:
                self.first_stats = point.stats
            if traced:
                self.traced_stats.append(point.stats)
            if point.violations:
                problems.append(
                    f"{point.spec.label()}: {len(point.violations)} inclusion "
                    f"violations, first: {point.violations[0]}"
                )
        return digests, problems

    def close(self) -> None:
        self.patches.undo()


def _alternate(bench: Bench, seconds: float, step) -> None:
    """Call ``step(traced)`` until ``seconds`` have passed; the traced run
    alternates untraced and traced steps, flipping the order every pair."""
    deadline = time.perf_counter() + seconds
    pair = 0
    while time.perf_counter() < deadline:
        if bench.traced:
            for traced in ((False, True) if pair % 2 == 0 else (True, False)):
                step(traced)
            pair += 1
        else:
            step(False)


def run_points(bench: Bench, seconds: float) -> Dict[str, float]:
    """A single-point workload: the same point, back to back."""
    import repro.engine.execute as execute_module

    spec = point_spec(bench.workload, bench.seed)
    accesses = simulated_accesses(spec)
    checks = bench.checks
    point_seconds: List[float] = []
    raw_seconds: List[float] = []

    def one(traced: bool) -> None:
        kind = "traced" if traced else "untraced"
        try:
            timed = bench.timed(lambda _mark: execute_module.execute_spec(spec), traced)
        except Exception:
            traceback.print_exc()
            bench.capture.take()
            checks.count(1, [f"{spec.label()} ({kind}) raised"])
            return
        bench.walls[kind].append(timed.seconds)
        if not traced:
            point_seconds.extend(timed.point_seconds)
            raw_seconds.extend(point.seconds for point in timed.points)
        (value,), problems = bench.digests(timed.points, traced)
        checks.count(1, checks.against_reference(value, f"{spec.label()} ({kind})") + problems)

    # Untimed first point: lazy imports and first-call set-up finish here,
    # and its statistics become the run's reference.
    one(False)
    point_seconds.clear()
    raw_seconds.clear()
    bench.walls["untraced"].clear()
    _alternate(bench, seconds, one)
    bench.info.update(
        points=len(point_seconds),
        accesses_per_point=accesses,
        raw_point_s_p50=_median(raw_seconds),
    )
    if len(point_seconds) >= 100:
        # Only with >= 10 samples beyond it is a tail percentile meaningful.
        bench.info["point_s.p90"] = statistics.quantiles(point_seconds, n=10)[-1]
    point_s = _median(point_seconds)
    return {
        "accesses_per_s": accesses / point_s if point_s else 0.0,
        "point_s.p50": point_s,
        "points_per_s": 1 / point_s if point_s else 0.0,
    }


def run_sweep(bench: Bench, seconds: float, workdir: Path) -> Dict[str, float]:
    """fig08_sweep: cold grid into a fresh store, warm re-runs, reports."""
    from layers import digest
    from repro.engine import ParallelRunner, cli
    from repro.engine.store import ResultStore
    from repro.obs import TRACER

    grid = sweep_grid(bench.seed)
    specs = list(grid)
    accesses = sum(simulated_accesses(spec) for spec in specs)
    checks = bench.checks
    phases: Dict[str, List[float]] = {
        "points_per_s": [], "accesses_per_s": [], "point_s": [],
        "warm_points_per_s": [], "report_s": [], "raw_point_s": [],
    }

    # Untimed first point: lazy imports and first-call set-up finish here.
    bench.timed(lambda _mark: ParallelRunner(workers=1).run(specs[:1]))

    def cycle(traced: bool) -> None:
        kind = "traced" if traced else "untraced"
        path = Path(tempfile.mkdtemp(dir=workdir)) / "results.jsonl"
        outcome: Dict[str, object] = {}

        def cold(mark) -> None:
            store = ResultStore(path)
            runner = ParallelRunner(workers=1, store=store, progress=mark)
            outcome["cold"] = runner.run(grid)
            store.flush()

        def warm(mark) -> None:
            for repeat in range(WARM_REPEATS):
                outcome["warm"] = ParallelRunner(workers=1, store=ResultStore(path)).run(grid)
                if repeat % PROBE_EVERY == PROBE_EVERY - 1:
                    mark()

        def report(mark) -> None:
            for repeat in range(REPORT_REPEATS):
                with contextlib.redirect_stdout(io.StringIO()), TRACER.span("bench.report.cli"):
                    outcome["status"] = cli.main(REPORT_ARGS + ["--store", str(path)])
                if repeat % PROBE_EVERY == PROBE_EVERY - 1:
                    mark()

        cold_t = bench.timed(cold, traced)
        warm_t = bench.timed(warm, traced)
        report_t = bench.timed(report, traced)
        points = cold_t.points
        bench.walls[kind].append(cold_t.seconds + warm_t.seconds + report_t.seconds)

        cold_report = outcome["cold"]
        digests, problems = bench.digests(points, traced)
        if cold_report.failures:
            problems += [
                f"{failure.spec.label()} raised: {failure.error}"
                for failure in cold_report.failures.values()
            ]
        else:
            problems += checks.against_reference(
                digest(digests), f"fig08 grid seed {bench.seed} ({kind})"
            )
        warm_report = outcome["warm"]
        if warm_report.simulated or warm_report.results != cold_report.results:
            problems.append("warm re-run differs from the cold results")
        if outcome["status"] != 0:
            problems.append(f"report exited with {outcome['status']}")
        if not _aggregation_agrees(path):
            problems.append("aggregate_columns differs from the streaming aggregate")
        checks.count(len(specs), problems)
        if not traced:
            phases["point_s"].extend(cold_t.point_seconds)
            phases["raw_point_s"].extend(point.seconds for point in points)
            phases["points_per_s"].append(len(specs) / cold_t.seconds)
            phases["accesses_per_s"].append(accesses / sum(cold_t.point_seconds))
            phases["warm_points_per_s"].append(len(specs) * WARM_REPEATS / warm_t.seconds)
            phases["report_s"].append(report_t.seconds / REPORT_REPEATS)
        bench.sweep_results = bench.sweep_results or cold_report.results
        shutil.rmtree(path.parent)

    _alternate(bench, seconds, cycle)
    bench.info.update(
        cycles=len(phases["report_s"]),
        points=len(phases["point_s"]),
        grid_points=len(specs),
        raw_point_s_p50=_median(phases["raw_point_s"]),
        warm_points_per_s=_median(phases["warm_points_per_s"]),
        report_s=_median(phases["report_s"]),
    )
    return {
        "accesses_per_s": _median(phases["accesses_per_s"]),
        "point_s.p50": _median(phases["point_s"]),
        "points_per_s": _median(phases["points_per_s"]),
    }


#: Reductions compared between the columnar and the streaming aggregation
#: (none reads elapsed_seconds, which would force the streaming path).
AGGREGATION_CHECK = dict(
    group_by=("workload", "tracked_level"),
    metrics={
        "points": ("workload", "count"),
        "hit_rate": ("cache_hit_rate", "mean"),
        "occupancy": ("occupancy_vs_worst_case", "mean"),
        "geomean_attempts": ("average_insertion_attempts", "geomean"),
        "invalidations": ("forced_invalidations", "sum"),
    },
)


def _aggregation_agrees(path: Path) -> bool:
    """``aggregate_columns`` must equal the streaming ``aggregate``.

    Floats are compared to a relative 1e-9: the columnar path sums in
    another order (numpy ``bincount``) than the streaming accumulators.
    """
    import math

    from repro.analysis.frame import SweepFrame
    from repro.engine.store import iter_store_records

    columnar = SweepFrame.aggregate_columns(path, **AGGREGATION_CHECK).rows()
    streamed = SweepFrame.aggregate(
        (payload for _key, payload in iter_store_records(path)), **AGGREGATION_CHECK
    ).rows()
    return len(columnar) == len(streamed) and all(
        set(a) == set(b) and all(
            math.isclose(a[k], b[k], rel_tol=1e-9)
            if isinstance(a[k], float) or isinstance(b[k], float)
            else a[k] == b[k]
            for k in a
        )
        for a, b in zip(columnar, streamed)
    )


# -- paper reference (informational) ----------------------------------------------
def paper_reference(workload: str, bench: Bench) -> List[str]:
    from repro.analysis.reference import REFERENCES

    lines = []
    if workload in PAPER_ATTEMPTS:
        series, name = PAPER_ATTEMPTS[workload]
        paper = REFERENCES["fig10"].series[series][name]
        stats = bench.first_stats
        if stats:
            d = stats["directory"]
            model = d["insertion_attempts"] / d["insertions"]
            lines.append(
                f"fig10 {series} {name} insertion attempts: model {model:.3f}, "
                f"paper {paper:.2f}, relative error {model / paper - 1:+.3f}"
            )
    elif bench.sweep_results:
        from repro.analysis.report import reference_scores
        from repro.experiments.fig08_occupancy import OccupancyResult

        results = bench.sweep_results.values()
        occupancy = {
            level: {r.spec.workload: r.occupancy_vs_worst_case
                    for r in results if r.spec.tracked_level == level}
            for level in ("L1", "L2")
        }
        scores = reference_scores(
            "fig08", OccupancyResult(shared_l2=occupancy["L1"], private_l2=occupancy["L2"])
        )
        for series, score in scores.items():
            lines.append(
                f"fig08 {series} occupancy vs paper: geomean relative error "
                f"{score.geomean_relative_error:.3f} over {score.points} workloads "
                f"(scale {SWEEP_SCALE}, {SWEEP_MEASURE} measured accesses)"
            )
    if not lines:
        lines.append(f"{workload}: no digitized paper curve for this point")
    lines.append(
        "(informational: the model is checked only against the digitized "
        "paper curves in repro.analysis.reference)"
    )
    return lines


# -- main --------------------------------------------------------------------------
def point_spec_dict(workload: str, seed: int) -> Dict[str, object]:
    """The spec of the run's first point, for the set-up probe."""
    if workload in POINTS:
        return point_spec(workload, seed).to_dict()
    return list(sweep_grid(seed))[0].to_dict()


def declared(kind: str, values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """``values`` as the result line's metrics, with the units that
    BENCHMARK.json declares for ``kind``; the two name sets must agree."""
    units = {
        metric["name"]: metric["unit"]
        for metric in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    }
    if set(units) != set(values):
        raise RuntimeError(
            f"{kind} metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(values))}"
        )
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def write_expected() -> int:
    """Regenerate expected.json: statistics digests per (workload, seed)."""
    import repro.engine.execute as execute_module
    from repro.engine import ParallelRunner
    from layers import Capture, Patches, digest

    patches = Patches()
    capture = Capture()
    capture.install(patches)
    digests: Dict[str, Dict[str, str]] = {}
    for workload in WORKLOADS:
        digests[workload] = {}
        for seed in DEFAULT_SEEDS + HELD_OUT_SEEDS:
            if workload in POINTS:
                execute_module.execute_spec(point_spec(workload, seed))
                (point,) = capture.take()
                value = digest(point.stats)
            else:
                report = ParallelRunner(workers=1).run(sweep_grid(seed))
                if not report.ok:
                    raise SystemExit(f"fig08 grid seed {seed} failed")
                value = digest([digest(point.stats) for point in capture.take()])
            digests[workload][str(seed)] = value
            print(workload, seed, value, flush=True)
    patches.undo()
    EXPECTED.write_text(json.dumps({
        "about": "sha256 prefixes of every simulated statistic per (workload, seed); "
                 "regenerate with: python3 perfbench/run.py --write-expected",
        "default_seeds": list(DEFAULT_SEEDS),
        "held_out_seeds": list(HELD_OUT_SEEDS),
        "digests": digests,
    }, indent=1) + "\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    if args.write_expected:
        return write_expected()

    load_start = os.getloadavg()
    traced = bool(args.trace)
    setup = raw_setup = None
    if not traced:
        setup, raw_setup = measure_setup(point_spec_dict(args.workload, args.seed))

    bench = Bench(args.workload, args.seed, traced)
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        if args.workload in POINTS:
            metrics = run_points(bench, args.seconds)
        else:
            metrics = run_sweep(bench, args.seconds, workdir)
    finally:
        bench.close()
        shutil.rmtree(workdir, ignore_errors=True)

    checks = bench.checks
    record: Dict[str, object] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "expected_checked": checks.expected is not None,
        "provenance": provenance(load_start),
        "info": bench.info,
    }
    record["probe_s"] = {
        "median": _median(bench.probes), "min": min(bench.probes), "max": max(bench.probes),
    }
    if traced:
        from layers import attribution_gap, layer_metrics

        untraced = _median(bench.walls["untraced"])
        traced_wall = _median(bench.walls["traced"])
        overhead = traced_wall / untraced if untraced else 0.0
        per_layer, absent = layer_metrics(bench.traced_stats, bench.counts, overhead)
        per_layer["run.probe_s"] = _median(bench.probes)
        gap = attribution_gap(per_layer)
        if gap > 1e-6 * max(per_layer["run.traced_wall_s"], 1.0):
            checks.count(0, [f"layer self times miss the traced wall clock by {gap:.3g}s"])
        record["absent_counters"] = absent
        out = declared("per_layer", per_layer)
    else:
        metrics["setup_s"] = _median(setup)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record["setup_samples_s"] = {"calibrated": setup, "raw": raw_setup}
        record["info"]["raw_setup_s"] = _median(raw_setup)
        out = declared("end_to_end", metrics)
    failed_frac = checks.failed / checks.attempted if checks.attempted else 1.0

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, entry in out.items():
        print(f"  {name:28s} {entry['value']:.6g} {entry['unit']}")
    print(f"  {'failed_frac':28s} {failed_frac:.6g} ({checks.failed}/{checks.attempted} points)")
    for key, value in record["info"].items():
        print(f"  {key:28s} {value}")
    if traced and record["absent_counters"]:
        print(f"  absent counters: {', '.join(record['absent_counters'])}")
    for line in paper_reference(args.workload, bench):
        print(f"  {line}")
    print(json.dumps({"record": "perfbench/1", **record}, default=str))
    correct = not checks.problems
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": out,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
