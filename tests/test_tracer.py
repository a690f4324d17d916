"""The benchmark's tracer must still find every function its metrics read."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the check of tracer.run_queries, which benchmark/run.py reports as a problem
CHECK = """
import sys
sys.path.insert(0, "benchmark")
import tracer
print(sorted(tracer.TRACED_FOR_METRICS - set(tracer.Tracer().install())))
"""


def test_tracer_finds_every_metric_function():
    # a subprocess, as install() rewraps the package's module attributes
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", CHECK], cwd=ROOT, env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert done.stdout == "[]\n"
