"""Benchmark of the theta-dims command line, run the way a user runs it.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from `src/`.
Workloads are defined in `workloads.py`, expected answers in `expected.json`.

With `--trace 0` each query is a fresh `python -m theta_dims ... ` process,
launched in a closed loop: one client, one query at a time, so at most this
process and one child run at once. Passes over the workload's query list
(shuffled by the seed) repeat until `--seconds` is spent; a query is not
started when its median time so far would overrun, but the first MIN_PASSES
passes always complete. Metrics, with times in reference seconds (see
CAL_REF_S below):

  wall_s           one pass: the sum over queries of each query's median
                   time, launch to exit
  slowest_query_s  the largest of those per-query medians
  cpu_s            one pass: the sum of per-query median user+system CPU
                   time of the child, from os.wait4
  peak_rss_mb      the highest child max-RSS of the run
  setup_s          median wall time of a process that only imports
                   theta_dims.cli (SETUP_SAMPLES per run)

With `--trace 1` the queries run in-process through theta_dims.cli.main in
a child process (`tracer.py`), alternating an untraced and a traced pass
until `--seconds` is spent; the per-layer metrics are medians over the traced
passes, and trace.overhead compares the traced to the untraced pass time.

Every answer is checked. A query that exits non-zero or answers wrongly
counts in `failed` (failed_frac = failed / attempted) and stays in the
timings. The last line of stdout is the JSON result; details and spans go to
`.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "theta_dims"

SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 60
# no query starts later than this past the deadline, so that a run whose
# children hang still ends within three minutes
MAX_OVERRUN_S = 60
# passes always completed, even past --seconds, so that every query has at
# least two samples (verify-all is a single query of about 15 s)
MIN_PASSES = 2

# Machine-speed calibration. On a shared host the speed of each CPU drifts by
# up to 2x over tens of seconds, so every child is bracketed by a fixed
# pure-Python loop, timed (best of CAL_REPEAT) on each usable CPU just before
# and just after the child. Times are reported in reference seconds: measured
# seconds times CAL_REF_S over the mean loop time. CAL_REF_S is the loop's
# time on the 2-core KVM guest the baseline was recorded on, in a fast state.
CAL_LOOP = 100_000
CAL_REPEAT = 3
CAL_REF_S = 0.006


class SetupError(Exception):
    pass


def child_env() -> dict[str, str]:
    """The environment of every child: the checkout's package, default threads."""
    env = dict(os.environ)
    env.pop("THETA_DIMS_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def calibration_time() -> float:
    """Seconds the calibration loop takes now: best of CAL_REPEAT, mean over CPUs."""
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            best = float("inf")
            for _ in range(CAL_REPEAT):
                started = time.perf_counter()
                total = 0
                for i in range(CAL_LOOP):
                    total += i * i
                best = min(best, time.perf_counter() - started)
            times.append(best)
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(times)


def run_child(args: list[str], env: dict[str, str], stderr_path: Path) -> dict:
    """Launch one child, wait for it with os.wait4, and time launch to exit."""
    with open(stderr_path, "w+") as err:
        before = calibration_time()
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            stdout = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
        scale = 2 * CAL_REF_S / (before + calibration_time())
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return {
        "returncode": proc.returncode,
        "stdout": stdout.decode(errors="replace"),
        "stderr": stderr,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        "scale": scale,
    }


def probe_environment(env: dict[str, str], out: Path) -> dict:
    """Check that children import the checkout's package; record versions."""
    code = ("import json, sys, numpy, theta_dims.cli as c; "
            "print(json.dumps({'module': c.__file__, 'numpy': numpy.__version__, "
            "'python': sys.version.split()[0]}))")
    res = run_child(["-c", code], env, out / "stderr.txt")
    if res["returncode"] != 0:
        raise SetupError(f"cannot import theta_dims.cli: {res['stderr'].strip()[-300:]}")
    facts = json.loads(res["stdout"])
    if Path(facts["module"]).resolve().parent != PACKAGE.resolve():
        raise SetupError(f"children import {facts['module']}, not the checkout's package")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": facts["python"],
        "numpy": facts["numpy"],
        "platform": platform.platform(),
        "THETA_DIMS_THREADS": "unset",
    }


def measure_setup(env: dict[str, str], out: Path) -> list[dict]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        res = run_child(["-c", "import theta_dims.cli"], env, out / "stderr.txt")
        if res["returncode"] != 0:
            raise SetupError("importing theta_dims.cli failed")
        samples.append({k: res[k] for k in ("wall_s", "scale")})
    return samples


def _shuffled(queries: list[list[str]], rng: random.Random) -> list[list[str]]:
    order = list(queries)
    rng.shuffle(order)
    return order


SAMPLE_FIELDS = ("wall_s", "cpu_s", "rss_mb", "scale", "returncode")
E2E_UNITS = {"wall_s": "s", "slowest_query_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
             "setup_s": "s"}


def closed_loop(queries, rng, deadline, env, checker, out) -> dict:
    """Passes of one-at-a-time CLI processes until the deadline; per-query samples."""
    samples: dict[str, list[dict]] = {workloads.query_key(q): [] for q in queries}
    failures = []
    passes = 0
    while True:
        for argv in _shuffled(queries, rng):
            key = workloads.query_key(argv)
            if time.perf_counter() > deadline + MAX_OVERRUN_S:
                unrun = [k for k, runs in samples.items() if not runs]
                return {"samples": samples, "failures": failures,
                        "problems": [f"not run, time limit: {k}" for k in unrun]}
            if passes >= MIN_PASSES:
                typical = statistics.median(s["wall_s"] for s in samples[key])
                if time.perf_counter() + typical > deadline:
                    return {"samples": samples, "failures": failures}
            res = run_child(["-m", "theta_dims", *argv], env, out / "stderr.txt")
            reason = checker.check(argv, res["returncode"], res["stdout"])
            if reason:
                failures.append({"query": key, "reason": reason, "stderr": res["stderr"][-500:]})
            samples[key].append({k: res[k] for k in SAMPLE_FIELDS})
        passes += 1


def end_to_end_metrics(samples: dict[str, list[dict]], setup: list[dict]) -> dict[str, float]:
    """The end-to-end metrics; times in reference seconds."""
    def per_query(field):
        return [statistics.median(s[field] * s["scale"] for s in runs)
                for runs in samples.values() if runs]

    walls = per_query("wall_s")
    return {
        "wall_s": sum(walls),
        "slowest_query_s": max(walls),
        "cpu_s": sum(per_query("cpu_s")),
        "peak_rss_mb": max(s["rss_mb"] for runs in samples.values() for s in runs),
        "setup_s": statistics.median(s["wall_s"] * s["scale"] for s in setup),
    }


def traced_loop(queries, rng, deadline, env, checker, out, tag) -> dict:
    """Alternate untraced and traced in-process passes until the deadline."""
    walls = {False: [], True: []}
    layer_passes, failures, problems = [], [], []
    attempted = 0
    while True:
        pair_started = time.perf_counter()
        order = _shuffled(queries, rng)
        for traced in (False, True):
            k = len(walls[traced])
            report_path = out / f"{tag}-{'traced' if traced else 'untraced'}-{k}.json"
            job_path = out / f"{tag}-job.json"
            job_path.write_text(json.dumps({"queries": order, "trace": traced,
                                            "out": str(report_path)}))
            res = run_child([str(HERE / "tracer.py"), str(job_path)], env, out / "stderr.txt")
            if res["returncode"] != 0:
                raise SetupError(f"tracer child failed: {res['stderr'].strip()[-500:]}")
            report = json.loads(report_path.read_text())
            for r in report["results"]:
                attempted += 1
                reason = checker.check(r["argv"], r["returncode"], r["stdout"])
                if reason:
                    failures.append({"query": workloads.query_key(r["argv"]), "reason": reason,
                                     "stderr": r["stderr"][-500:]})
            walls[traced].append(report["wall_s"] * res["scale"])
            if traced:
                problem = tracer.check_self_times(report["spans"])
                if problem:
                    problems.append(problem)
                if report["missing"]:
                    problems.append(f"not found to trace: {', '.join(report['missing'])}")
                layer_passes.append(tracer.layer_metrics(report["spans"], res["scale"]))
        if time.perf_counter() + (time.perf_counter() - pair_started) > deadline:
            break
    metrics = tracer.median_metrics(layer_passes)
    metrics["trace.overhead"] = statistics.median(walls[True]) / statistics.median(walls[False]) - 1
    return {"metrics": metrics, "attempted": attempted, "failures": failures,
            "problems": problems, "walls": {"untraced": walls[False], "traced": walls[True]}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out = ROOT / workloads.OUT_DIR
    env = child_env()
    try:
        if not (PACKAGE / "cli.py").is_file():
            raise SetupError(f"no package source at {PACKAGE}")
        out.mkdir(exist_ok=True)
        facts = probe_environment(env, out)
        facts.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                     trace=args.trace)
        queries = workloads.queries(args.workload)
        perms = (workloads.write_cayley_tables(ROOT, args.seed)
                 if args.workload == "cayley-tables" else None)
        checker = workloads.Checker(workloads.load_expected(), perms)
        rng = random.Random(f"{args.workload}:{args.seed}")
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            deadline = time.perf_counter() + args.seconds
            run = traced_loop(queries, rng, deadline, env, checker, out, tag)
            metrics, attempted = run["metrics"], run["attempted"]
            units = {name: unit for name, unit, _ in tracer.PER_LAYER}
        else:
            setup = measure_setup(env, out)
            deadline = time.perf_counter() + args.seconds
            run = closed_loop(queries, rng, deadline, env, checker, out)
            run["setup_samples"] = setup
            metrics = end_to_end_metrics(run["samples"], setup)
            attempted = sum(len(s) for s in run["samples"].values())
            units = E2E_UNITS
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failed = len(run["failures"])
    problems = run.get("problems", [])
    for f in run["failures"]:
        print(f"FAILED {f['query']}: {f['reason']}", file=sys.stderr)
    for p in problems:
        print(f"TRACE {p}", file=sys.stderr)
    details = {"environment": facts, "failed_frac": failed / attempted, **run}
    (out / f"{tag}.json").write_text(json.dumps(details, indent=1))
    print(json.dumps({"environment": facts, "failed_frac": failed / attempted}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
