"""Multi-programmed mixes: remap invariants, interleave, determinism."""

import itertools

import pytest

from repro.config import CacheLevel
from repro.experiments.common import cuckoo_factory, run_workload, scaled_system
from repro.traces import (
    PROGRAM_STRIDE_BITS,
    MixWorkload,
    TraceRecorder,
    TraceReplayWorkload,
    parse_mix,
)
from repro.traces.mix import canonical_mix_spec
from repro.workloads.suite import get_workload


def _system(cores=8, scale=64, level=CacheLevel.L1):
    return scaled_system(level, num_cores=cores, scale=scale)


def _collect(mix, system, count, seed=0):
    cores, addresses, writes, instrs = [], [], [], []
    for chunk in mix.trace_chunks(system, seed=seed):
        cores.extend(chunk[0])
        addresses.extend(chunk[1])
        writes.extend(chunk[2])
        instrs.extend(chunk[3])
        if len(cores) >= count:
            break
    return cores[:count], addresses[:count], writes[:count], instrs[:count]


class TestParsing:
    def test_parses_names_cores_and_order(self):
        mix = parse_mix("4xApache+4xocean")
        assert mix.name == "4xApache+4xocean"
        assert [(w.name, n) for w, n in mix.components] == [("Apache", 4), ("ocean", 4)]
        assert mix.total_cores == 8
        assert mix.core_group(0) == (0, 4)
        assert mix.core_group(1) == (4, 8)

    def test_unknown_program_lists_valid_names(self):
        with pytest.raises(ValueError, match="DB2.*ocean"):
            parse_mix("4xNotAWorkload+4xocean")

    def test_bad_grammar_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            parse_mix("Apache+ocean")
        with pytest.raises(ValueError, match="empty"):
            parse_mix("  ")

    @pytest.mark.parametrize("spec", ["8xApache+", "8xApache++8xocean", "+8xocean"])
    def test_empty_component_rejected(self, spec):
        with pytest.raises(ValueError, match="bad mix component ''"):
            parse_mix(spec)

    def test_canonical_spec(self):
        assert canonical_mix_spec("08xApache + 8xocean") == "8xApache+8xocean"
        assert canonical_mix_spec("8xApache+8xocean") == "8xApache+8xocean"
        assert canonical_mix_spec("4x@/tmp/a.npz+04xocean") == "4x@/tmp/a.npz+4xocean"

    def test_non_power_of_two_component_rejected(self):
        with pytest.raises(ValueError, match="powers of two"):
            parse_mix("3xApache+5xocean")

    def test_trace_reference_component(self, tmp_path):
        system = _system(cores=4)
        path = tmp_path / "oracle.npz"
        TraceRecorder().record(get_workload("Oracle"), system, path, 1000, scale=64)
        mix = parse_mix(f"4x@{path}+4xocean")
        assert isinstance(mix.components[0][0], TraceReplayWorkload)
        assert mix.components[0][0].name == "Oracle"


class TestRemapInvariants:
    def test_no_cross_program_block_collisions(self):
        """Address bands keep every program's blocks disjoint (satellite)."""
        mix = parse_mix("4xApache+2xOracle+2xocean")
        system = _system(cores=8)
        cores, addresses, _writes, _instrs = _collect(mix, system, 6000)
        groups = [mix.core_group(i) for i in range(3)]
        blocks_per_program = [set() for _ in groups]
        for core, address in zip(cores, addresses):
            program = address >> PROGRAM_STRIDE_BITS
            start, end = groups[program]
            # Core remap: the issuing core must lie in the program's group.
            assert start <= core < end
            blocks_per_program[program].add(address // 64)
        for a, b in itertools.combinations(blocks_per_program, 2):
            assert not (a & b)

    def test_component_zero_stream_is_the_solo_stream(self):
        """Program 0 sits at band 0: its accesses equal a solo run's stream."""
        apache = get_workload("Apache")
        mix = MixWorkload([(apache, 4), (get_workload("ocean"), 4)])
        system = _system(cores=8)
        cores, addresses, writes, instrs = _collect(mix, system, 4000, seed=5)
        mixed = [
            (c, a, w, i)
            for c, a, w, i in zip(cores, addresses, writes, instrs)
            if a >> PROGRAM_STRIDE_BITS == 0
        ]
        solo_seed = MixWorkload.component_seed(5, 0)
        solo = []
        subsystem = system.with_cores(4)
        for chunk in apache.trace_chunks(subsystem, seed=solo_seed):
            solo.extend(zip(*chunk))
            if len(solo) >= len(mixed):
                break
        assert mixed == solo[: len(mixed)]

    def test_proportional_interleave(self):
        """A 4-core program issues twice as often as a 2-core one, finely."""
        mix = parse_mix("4xApache+2xOracle+2xQry17")
        system = _system(cores=8)
        _cores, addresses, _w, _i = _collect(mix, system, 800)
        programs = [a >> PROGRAM_STRIDE_BITS for a in addresses]
        # Exact proportions per round of 8 accesses.
        for start in range(0, 800, 8):
            window = programs[start : start + 8]
            assert window.count(0) == 4
            assert window.count(1) == 2
            assert window.count(2) == 2
        # Finely interleaved: program 0 never bursts more than twice in a row.
        longest = max(len(list(g)) for k, g in itertools.groupby(programs) if k == 0)
        assert longest <= 2

    def test_streams_are_deterministic(self):
        system = _system(cores=8)
        first = _collect(parse_mix("4xApache+4xocean"), system, 3000, seed=1)
        second = _collect(parse_mix("4xApache+4xocean"), system, 3000, seed=1)
        assert first == second

    def test_repeated_program_gets_distinct_streams(self):
        mix = parse_mix("4xApache+4xApache")
        system = _system(cores=8)
        _cores, addresses, _w, _i = _collect(mix, system, 2000)
        left = [a & ((1 << PROGRAM_STRIDE_BITS) - 1) for a in addresses
                if a >> PROGRAM_STRIDE_BITS == 0]
        right = [a & ((1 << PROGRAM_STRIDE_BITS) - 1) for a in addresses
                 if a >> PROGRAM_STRIDE_BITS == 1]
        assert left[:500] != right[:500]  # distinct per-program seeds

    def test_core_count_mismatch_rejected(self):
        mix = parse_mix("4xApache+4xocean")
        with pytest.raises(ValueError, match="spans 8 cores"):
            next(iter(mix.trace_chunks(_system(cores=16))))


class TestMixSimulation:
    def test_mix_runs_through_the_simulator(self):
        mix = parse_mix("4xApache+4xocean")
        system = _system(cores=8)
        run = run_workload(
            mix, system, cuckoo_factory(system), measure_accesses=1500, seed=0
        )
        assert run.result.accesses == 1500
        assert run.workload == "4xApache+4xocean"
        assert 0.0 < run.occupancy_vs_worst_case <= 1.5

    def test_mix_of_replays_matches_mix_of_live_components(self, tmp_path):
        """Trace-backed components reproduce the live mix bit-identically."""
        system = _system(cores=8)
        subsystem = system.with_cores(4)
        paths = {}
        for index, name in enumerate(("Apache", "ocean")):
            seed = MixWorkload.component_seed(0, index)
            paths[name] = tmp_path / f"{name}.npz"
            TraceRecorder().record(
                get_workload(name), subsystem, paths[name], 8000, seed=seed, scale=64
            )
        live_mix = parse_mix("4xApache+4xocean")
        replay_mix = parse_mix(f"4x@{paths['Apache']}+4x@{paths['ocean']}")
        live = _collect(live_mix, system, 6000, seed=0)
        replayed = _collect(replay_mix, system, 6000, seed=0)
        assert live == replayed

    def test_finite_replay_component_ends_the_mix(self, tmp_path):
        system = _system(cores=8)
        subsystem = system.with_cores(4)
        path = tmp_path / "short.npz"
        TraceRecorder().record(
            get_workload("Oracle"), subsystem, path, 500,
            seed=MixWorkload.component_seed(0, 0), scale=64,
        )
        mix = parse_mix(f"4x@{path}+4xocean")
        total = sum(len(chunk[0]) for chunk in mix.trace_chunks(system, seed=0))
        # The 500-access component supplies half of every round of 8.
        assert total == 1000

    def test_mix_trace_fingerprint_covers_replay_components(self, tmp_path):
        system = _system(cores=8)
        subsystem = system.with_cores(4)
        path = tmp_path / "oracle.npz"
        TraceRecorder().record(
            get_workload("Oracle"), subsystem, path, 1000,
            seed=MixWorkload.component_seed(0, 0), scale=64,
        )
        live_only = parse_mix("4xApache+4xocean")
        assert live_only.trace_fingerprint() is None
        traced = parse_mix(f"4x@{path}+4xocean")
        first = traced.trace_fingerprint()
        assert first is not None
        # Re-recording the file changes the combined fingerprint.
        TraceRecorder().record(
            get_workload("Oracle"), subsystem, path, 1200,
            seed=MixWorkload.component_seed(0, 0), scale=64,
        )
        assert parse_mix(f"4x@{path}+4xocean").trace_fingerprint() != first

    def test_execute_spec_rejects_stale_mix_fingerprint(self, tmp_path):
        from repro.engine.execute import execute_spec
        from repro.engine.spec import RunSpec

        system = _system(cores=8)
        subsystem = system.with_cores(4)
        path = tmp_path / "oracle.npz"
        TraceRecorder().record(
            get_workload("Oracle"), subsystem, path, 4000,
            seed=MixWorkload.component_seed(0, 0), scale=64,
        )
        mix_spec = f"4x@{path}+4xocean"
        spec = RunSpec(
            workload=mix_spec, mix=mix_spec, num_cores=8, scale=64,
            measure_accesses=500,
            trace_fingerprint=parse_mix(mix_spec).trace_fingerprint(),
        )
        execute_spec(spec)  # fingerprint matches
        TraceRecorder().record(  # re-record: contents change
            get_workload("Oracle"), subsystem, path, 4100,
            seed=MixWorkload.component_seed(0, 0), scale=64,
        )
        with pytest.raises(ValueError, match="re-recorded"):
            execute_spec(spec)

    def test_execute_spec_rejects_scale_mismatched_mix_component(self, tmp_path):
        from repro.engine.execute import execute_spec
        from repro.engine.spec import RunSpec

        subsystem = _system(cores=4, scale=16)
        path = tmp_path / "oracle-s16.npz"
        TraceRecorder().record(
            get_workload("Oracle"), subsystem, path, 4000,
            seed=MixWorkload.component_seed(0, 0), scale=16,
        )
        mix_spec = f"4x@{path}+4xocean"
        spec = RunSpec(
            workload=mix_spec, mix=mix_spec, num_cores=8, scale=64,
            measure_accesses=500,
        )
        with pytest.raises(ValueError, match="scale"):
            execute_spec(spec)

    def test_execute_spec_rejects_too_short_mix_component(self, tmp_path):
        from repro.engine.execute import execute_spec
        from repro.engine.spec import RunSpec

        subsystem = _system(cores=4)
        path = tmp_path / "tiny.npz"
        TraceRecorder().record(
            get_workload("Oracle"), subsystem, path, 300,
            seed=MixWorkload.component_seed(0, 0), scale=64,
        )
        mix_spec = f"4x@{path}+4xocean"
        spec = RunSpec(
            workload=mix_spec, mix=mix_spec, num_cores=8, scale=64,
            measure_accesses=5000,
        )
        with pytest.raises(ValueError, match="share of the run"):
            execute_spec(spec)

    def test_engine_executes_and_caches_mix_specs(self, tmp_path):
        """`repro-run mix` path: engine run with cached re-run store hits."""
        from repro.engine.runner import ParallelRunner
        from repro.engine.spec import RunSpec
        from repro.engine.store import ResultStore

        spec = RunSpec(
            workload="4xApache+4xocean",
            mix="4xApache+4xocean",
            num_cores=8,
            scale=64,
            measure_accesses=800,
        )
        store = ResultStore(tmp_path / "store.jsonl")
        runner = ParallelRunner(workers=1, store=store)
        first = runner.run([spec])
        assert first.ok and first.simulated == 1
        second = runner.run([spec])
        assert second.ok and second.cached == 1
        assert store.hits == 1
        assert first.result_for(spec).to_dict() == second.result_for(spec).to_dict()
