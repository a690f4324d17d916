"""The benchmark's tracer must still find every function its metrics read."""

import json
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


# one traced perm query on cyclic class data, which builds no table
TRACED_PERM = """
import json, sys
sys.path.insert(0, "benchmark")
import tracer
report = tracer.run_queries([["dims", "--group", "cyclic:12", "--parity", "odd"]], True)
counts = [s.get("counts") for s in report["spans"] if s["name"] == "perm.dim_invariants_perm"]
print(json.dumps([report["results"][0]["returncode"], counts]))
"""


def test_traced_perm_counts_coset_elements_of_class_data():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", TRACED_PERM], cwd=ROOT, env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    # full symmetry: the doubled group and its twisted coset, 2 * 12^2 elements
    assert json.loads(done.stdout) == [0, [{"coset_elements": 2 * 12**2}]]
