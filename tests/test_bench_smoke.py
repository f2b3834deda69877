"""The benchmark harness runs end to end at toy size.

`bench/run.py --smoke` runs every workload in fresh processes, checks that
each metric declared in BENCHMARK.json is reported with its unit, that the
layers each workload should reach (the public stepper, transforms, padded
flux and background jets) show non-zero counts, and that an injected
unresolved scenario is counted as failed.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"),
                           "--smoke"], cwd=ROOT, capture_output=True,
                          text=True, timeout=900)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert "smoke: OK" in done.stdout.splitlines()[-1]
