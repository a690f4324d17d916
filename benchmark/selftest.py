"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 benchmark/selftest.py
    PYTHONPATH=src python3 -m pytest -q benchmark/selftest.py

The file name keeps these tests out of the repository's default pytest run.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
import time
from pathlib import Path

import record_expected
import run
import tracer
import workloads

OK_QUERY = ["dims", "--group", "cyclic:6", "--module", "aug-kernel", "--parity", "odd",
            "--format", "json"]
WRONG_QUERY = ["dims", "--group", "cyclic:6", "--module", "aug-kernel", "--parity", "even",
               "--format", "json"]
FAILING_QUERY = ["dims", "--group", "cyclic:0", "--parity", "odd", "--format", "json"]


def _scratch_dir():
    """A temporary directory inside the checkout's output directory."""
    out = run.ROOT / workloads.OUT_DIR
    out.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=out)


def _record(argv, dimension):
    opt = dict(zip(argv[1::2], argv[2::2]))
    return {"convention": "inversion", "dimension": dimension, "group": opt["--group"],
            "method": "perm", "module": opt.get("--module", "group-algebra"),
            "parity": opt["--parity"], "symmetry": "full"}


def test_wrong_answer_and_nonzero_exit_count_as_failed():
    answers = {workloads.query_key(OK_QUERY): _record(OK_QUERY, 3),
               # the true value is 1; a wrong expected value must be reported
               workloads.query_key(WRONG_QUERY): _record(WRONG_QUERY, 2),
               workloads.query_key(FAILING_QUERY): _record(FAILING_QUERY, 0)}
    checker = workloads.Checker({"answers": answers, "cayley": {}})
    queries = [OK_QUERY, WRONG_QUERY, FAILING_QUERY]
    with _scratch_dir() as tmp:
        result = run.closed_loop(queries, random.Random(0), time.perf_counter(),
                                 run.child_env(), checker, Path(tmp))
    attempted = sum(len(s) for s in result["samples"].values())
    failed = [f["query"] for f in result["failures"]]
    assert attempted == 3 * run.MIN_PASSES
    assert sorted(failed) == sorted(run.MIN_PASSES * [workloads.query_key(WRONG_QUERY),
                                                      workloads.query_key(FAILING_QUERY)])
    # failed queries stay in the timings
    assert all(len(s) == run.MIN_PASSES for s in result["samples"].values())
    assert run.end_to_end_metrics(result["samples"], [{"wall_s": 0.1, "scale": 1.0}])["wall_s"] > 0


def _span(name, parent, start, end):
    return {"name": name, "parent": parent, "start": start, "end": end}


def test_self_time_is_duration_minus_children():
    spans = [
        _span("cli.main", None, 0.0, 10.0),
        _span("cli.parse_group_spec", 0, 1.0, 4.0),
        _span("groups.make_from_cayley", 1, 2.0, 3.0),
        _span("perm.dim_invariants_perm", 0, 5.0, 9.0),
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert tracer.check_self_times(spans) is None
    m = tracer.layer_metrics(spans)
    assert m["cli.main_s"] == 10.0
    assert m["cli.parse_group_spec_self_s"] == 2.0
    assert m["groups.make_from_cayley_s"] == 1.0
    assert m["trace.coverage"] == 0.7
    # a span that escaped cli.main breaks the sum
    assert tracer.check_self_times(spans + [_span("perm.dim_invariants_perm", None, 11, 12)])


def test_same_seed_gives_identical_cayley_files():
    def contents(seed):
        with _scratch_dir() as tmp:
            (Path(tmp) / workloads.OUT_DIR).mkdir()
            workloads.write_cayley_tables(Path(tmp), seed)
            return [(Path(tmp) / workloads.cayley_path(n)).read_bytes()
                    for n in workloads.CAYLEY_TABLES]

    first = contents(7)
    assert first == contents(7)
    assert all(a != b for a, b in zip(first, contents(8)))
    table = json.loads(first[1])
    assert table["order"] == 2000 and len(table["mul"]) == 2000


def test_classes_check_follows_the_relabeling():
    mul = workloads.sl2_table(3)  # SL2(F3), order 24, 7 classes
    perm = workloads.relabeling("tiny", len(mul), 1)
    checker = workloads.Checker(
        {"answers": {}, "cayley": {"tiny": record_expected.class_data(mul)}}, {"tiny": perm})
    with _scratch_dir() as tmp:
        path = Path(tmp) / "cayley-tiny.json"
        workloads.write_cayley_json(workloads.relabeled(mul, perm), path)
        argv = ["classes", "--group", f"cayley:{path}", "--format", "json"]
        from theta_dims import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
    stdout = out.getvalue()
    assert checker.check(argv, 0, stdout) is None
    answer = json.loads(stdout)
    row = next(r for r in answer["classes"] if r["square_class"] != r["class"])
    row["square_class"] = row["class"]
    assert checker.check(argv, 0, json.dumps(answer))
    assert checker.check(argv, 1, stdout) == "exit code 1"


def test_benchmark_json_lists_what_the_harness_reports():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == tracer.PER_LAYER
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    sys.exit(0)
