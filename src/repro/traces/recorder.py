"""Recording live workload streams into trace files.

:class:`TraceRecorder` wraps any :class:`~repro.workloads.base.Workload`'s
``trace_chunks`` stream and freezes its first ``num_accesses`` accesses
into the :mod:`~repro.traces.format` container.  Because every run
consumes that same chunk stream, a recording made once replays
bit-identically through
:class:`~repro.coherence.simulator.TraceSimulator` — record the expensive
generation once, then fan replays out across sweeps.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.config import SystemConfig
from repro.traces.format import TraceHeader, write_trace
from repro.workloads.base import Workload

__all__ = ["TraceRecorder", "accesses_for_run"]


def accesses_for_run(
    workload: Workload,
    system: SystemConfig,
    measure_accesses: int,
    warmup_accesses: Optional[int] = None,
) -> int:
    """Accesses a recording needs so a run can warm up *and* measure.

    Mirrors :func:`repro.experiments.common.run_workload`: the warm-up
    (``recommended_warmup`` unless overridden) rides on top of the
    measurement window.
    """
    if measure_accesses <= 0:
        raise ValueError("measure_accesses must be positive")
    if warmup_accesses is None:
        warmup_accesses = workload.recommended_warmup(system)
    if warmup_accesses < 0:
        raise ValueError("warmup_accesses must be non-negative")
    return warmup_accesses + measure_accesses


class TraceRecorder:
    """Records workload access streams to on-disk trace files."""

    def record(
        self,
        workload: Workload,
        system: SystemConfig,
        path: Union[str, Path],
        num_accesses: int,
        seed: int = 0,
        scale: Optional[int] = None,
    ) -> TraceHeader:
        """Record ``num_accesses`` accesses of ``workload`` to ``path``.

        ``scale`` is provenance only (stored in the header so replay specs
        can be reconstructed); the stream itself is fully determined by
        ``(workload, system, seed)``.  Returns the written header, whose
        ``fingerprint`` addresses the recording's exact contents.
        """
        if num_accesses <= 0:
            raise ValueError("num_accesses must be positive")
        # The length is known up front, so fill preallocated destination
        # arrays chunk by chunk: peak memory is one trace, not trace + parts.
        all_cores = np.empty(num_accesses, dtype=np.int32)
        all_addresses = np.empty(num_accesses, dtype=np.int64)
        all_writes = np.empty(num_accesses, dtype=np.bool_)
        all_instrs = np.empty(num_accesses, dtype=np.bool_)
        recorded = 0
        for cores, addresses, writes, instrs in workload.trace_chunks(system, seed=seed):
            take = min(len(cores), num_accesses - recorded)
            end = recorded + take
            all_cores[recorded:end] = np.asarray(cores[:take], dtype=np.int32)
            all_addresses[recorded:end] = np.asarray(addresses[:take], dtype=np.int64)
            all_writes[recorded:end] = np.asarray(writes[:take], dtype=np.bool_)
            all_instrs[recorded:end] = np.asarray(instrs[:take], dtype=np.bool_)
            recorded = end
            if recorded >= num_accesses:
                break
        if recorded < num_accesses:
            raise ValueError(
                f"workload {workload.name!r} produced only {recorded} accesses "
                f"({num_accesses} requested); finite traces cannot be extended"
            )
        header = TraceHeader(
            workload=workload.name,
            category=workload.category.value,
            seed=seed,
            num_cores=system.num_cores,
            block_bytes=system.block_bytes,
            num_accesses=num_accesses,
            fingerprint="",
            scale=scale,
        )
        return write_trace(path, header, all_cores, all_addresses, all_writes, all_instrs)

    def record_for_spec(
        self,
        spec: "object",
        path: Union[str, Path],
        num_accesses: Optional[int] = None,
    ) -> TraceHeader:
        """Record the trace a :class:`~repro.engine.spec.RunSpec` would replay.

        The recording length defaults to exactly what the spec's run will
        consume (warm-up + measurement window).  Imported lazily to keep
        the traces package independent of the engine at import time.
        """
        from repro.config import CacheLevel
        from repro.experiments.common import scaled_system
        from repro.workloads.suite import get_workload

        workload = get_workload(spec.workload)
        system = scaled_system(
            CacheLevel(spec.tracked_level), num_cores=spec.num_cores, scale=spec.scale
        )
        if num_accesses is None:
            num_accesses = accesses_for_run(
                workload, system, spec.measure_accesses, spec.warmup_accesses
            )
        return self.record(
            workload,
            system,
            path,
            num_accesses,
            seed=spec.seed,
            scale=spec.scale,
        )
