"""Child process timing one point's set-up: import ``repro``, then build the
point's config, workload, directory factory and ``TiledCMP`` — everything
before its first access.  Prints the elapsed host seconds.

Usage: python3 perfbench/setup_probe.py '<RunSpec JSON>'
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

started = time.perf_counter()
import repro  # noqa: E402,F401
from repro.config import CacheLevel  # noqa: E402
from repro.coherence.system import TiledCMP  # noqa: E402
from repro.engine.execute import directory_factory_for_spec, resolve_workload  # noqa: E402
from repro.engine.spec import RunSpec  # noqa: E402
from repro.experiments.common import scaled_system  # noqa: E402

spec = RunSpec.from_dict(json.loads(sys.argv[1]))
config = scaled_system(
    CacheLevel(spec.tracked_level), num_cores=spec.num_cores, scale=spec.scale
)
resolve_workload(spec, config)
TiledCMP(config, directory_factory_for_spec(spec, config))
print(time.perf_counter() - started)
