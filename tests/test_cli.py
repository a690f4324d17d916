import collections
import csv
import io
import itertools
import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from test_chartab import BEYOND_EXACT_RANGE
from test_perm import REFERENCE_GROUPS

import theta_dims
from theta_dims import chartab, classdata, cli, groups, lens, limits, oracle, perm, verify
from theta_dims.errors import InputError, ThetaDimsError

REFERENCE_ROWS = {
    1: "1,1,0,0,0",
    6: "6,7,1,3,1",
    14: "14,24,10,16,10",
}


def run_cli(capsys, *args):
    code = cli.main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dims_chartab_headline(capsys):
    code, out, _ = run_cli(
        capsys,
        "dims", "--group", "sl2:5", "--module", "group-algebra",
        "--parity", "even", "--method", "chartab", "--convention", "flip",
    )
    assert code == 0
    assert "dimension: 27" in out
    assert "convention=flip" in out


def test_dims_perm_kernel(capsys):
    code, out, _ = run_cli(
        capsys,
        "dims", "--group", "cyclic:6", "--module", "aug-kernel",
        "--parity", "odd", "--method", "perm",
    )
    assert code == 0
    assert "dimension: 3" in out


@pytest.mark.parametrize(
    "module,parity,expected",
    [
        ("group-algebra", "odd", 12),
        ("group-algebra", "even", 3),
        ("aug-kernel", "odd", 7),
        ("aug-kernel", "even", 3),
    ],
)
def test_dims_closed_form(capsys, module, parity, expected):
    code, out, _ = run_cli(
        capsys,
        "dims", "--group", "cyclic:9", "--module", module,
        "--parity", parity, "--method", "closed-form",
    )
    assert code == 0
    assert f"dimension: {expected}\n" in out


def test_dims_closed_form_builds_no_table(capsys):
    # a cyclic:100000 table would have 1e10 entries; the closed form needs only n
    code, out, _ = run_cli(
        capsys,
        "dims", "--group", "cyclic:100000", "--parity", "odd", "--method", "closed-form",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["dimension"] == 833383334


@pytest.mark.parametrize(
    "argv",
    [
        ("dims", "--group", "cyclic:100000", "--parity", "odd"),
        ("dims", "--group", "cyclic:2237", "--method", "orbit", "--parity", "even"),
    ],
    ids=["table-entries", "orbit-nodes"],
)
def test_dims_cost_guards(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def package_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(theta_dims.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    return env


def run_cli_process(*args, timeout):
    """One `python -m theta_dims` process on this checkout's package; its stdout."""
    done = subprocess.run(
        [sys.executable, "-m", "theta_dims", *args],
        capture_output=True, text=True, timeout=timeout, env=package_env(), check=True,
    )
    return done.stdout


def test_dims_perm_cyclic_4096_process():
    # one term per class: under a second, not the N^3 half hour of the direct sum
    dims = {
        method: json.loads(run_cli_process(
            "dims", "--group", "cyclic:4096", "--parity", "odd", "--method", method,
            "--format", "json", timeout=60,
        ))["dimension"]
        for method in ("perm", "closed-form")
    }
    assert dims["perm"] == dims["closed-form"]


# runs argv through cli.main and prints, as JSON, the modules it executed that
# the bare interpreter had not loaded. A module registered lazily and never
# touched is still of the LazyLoader's module class, which type() reads
# without loading it. The probe reads sys.modules before its own import of
# json, which it needs to print.
MODULES_PROBE = """
import contextlib, importlib.util, io, sys
before = set(sys.modules)
from theta_dims import cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(sys.argv[1:]) == 0
executed = sorted(
    name for name, module in sys.modules.items()
    if name not in before and type(module) is not importlib.util._LazyModule
)
import json
print(json.dumps(executed))
"""

# each query the module tests probe, by id; {z4} is a Cayley file of Z4
PROBED_QUERIES = {
    "import": (),
    "closed-form": ("dims", "--group", "cyclic:336", "--parity", "odd", "--method", "closed-form"),
    "lens-table": ("lens-table",),
    "lens-table-csv": ("lens-table", "--format", "csv"),
    "perm-cyclic": ("dims", "--group", "cyclic:336", "--parity", "odd"),
    "perm-sl2-5": ("dims", "--group", "sl2:5", "--parity", "odd"),
    "perm-sl2-5-json": ("dims", "--group", "sl2:5", "--parity", "odd", "--format", "json"),
    "perm-sl2-7": ("dims", "--group", "sl2:7", "--parity", "even", "--module", "aug-kernel"),
    "chartab-sl2": ("dims", "--group", "sl2:5", "--parity", "odd", "--method", "chartab"),
    "classes-sl2": ("classes", "--group", "sl2:5"),
    "orbit-sl2": ("dims", "--group", "sl2:5", "--parity", "odd", "--method", "orbit"),
    "classes-cayley": ("classes", "--group", "cayley:{z4}"),
}


@pytest.fixture(scope="module")
def executed_modules(tmp_path_factory):
    """The modules each query of PROBED_QUERIES executes, by MODULES_PROBE,
    one interpreter per query, started on first use."""
    z4 = tmp_path_factory.mktemp("probe") / "z4.json"
    z4.write_text(json.dumps({"order": 4, "mul": groups.make_cyclic(4).mul_table.tolist()}))
    probed = {}

    def executed(query: str) -> list[str]:
        if query not in probed:
            argv = [a.format(z4=z4) for a in PROBED_QUERIES[query]]
            done = subprocess.run(
                [sys.executable, "-c", MODULES_PROBE, *argv],
                capture_output=True, text=True, timeout=60, env=package_env(), check=True,
            )
            probed[query] = json.loads(done.stdout)
        return probed[query]

    return executed


def by_query(*cases):
    """Parameters (query, expected), each with its query as its id."""
    return [pytest.param(query, expected, id=query) for query, expected in cases]


@pytest.mark.parametrize("query,loads_numpy", [
    *by_query(("import", False), ("closed-form", False), ("lens-table", False),
              ("perm-cyclic", False)),
    pytest.param("perm-sl2-5", False, id="perm-sl2"),
    *by_query(("chartab-sl2", False),
              # the probe sees numpy load
              ("classes-sl2", True), ("orbit-sl2", True)),
])
def test_numpy_loads_only_where_a_query_needs_it(executed_modules, query, loads_numpy):
    assert any(name.startswith("numpy.") for name in executed_modules(query)) == loads_numpy


def stdlib_loaded(names, modules):
    """The modules among names that a probed query executed."""
    return sorted(name for name in names if name in modules)


@pytest.mark.parametrize("query,loads", by_query(
    ("import", []),
    ("perm-cyclic", []),
    ("perm-sl2-5", []),
    ("perm-sl2-7", []),
    ("closed-form", []),
    ("lens-table", []),
    ("chartab-sl2", []),
))
def test_short_queries_skip_dataclasses_and_fractions(executed_modules, query, loads):
    names = ("dataclasses", "inspect", "fractions", "decimal")
    assert stdlib_loaded(names, executed_modules(query)) == loads


@pytest.mark.parametrize("query,loads", by_query(
    ("import", []),
    ("perm-cyclic", []),
    ("perm-sl2-5", []),
    ("closed-form", []),
    ("lens-table", []),
    ("chartab-sl2", []),
    # the probe sees each load for its own format
    ("lens-table-csv", ["csv"]),
    ("perm-sl2-5-json", ["json"]),
))
def test_json_and_csv_load_only_for_their_format(executed_modules, query, loads):
    assert stdlib_loaded(("json", "csv"), executed_modules(query)) == loads


# the modules every query executes: the package, the command line, and what
# parsing the arguments needs; the tables of groups load only where a query
# builds one
ENTRY_MODULES = ["theta_dims", "theta_dims._lazy", "theta_dims.classdata", "theta_dims.cli",
                 "theta_dims.errors", "theta_dims.limits", "theta_dims.perm"]


@pytest.mark.parametrize("query,also", by_query(
    ("import", []),
    ("perm-cyclic", []),
    ("perm-sl2-5", []),
    ("perm-sl2-7", []),
    ("closed-form", ["theta_dims.lens"]),
    ("lens-table", ["theta_dims.lens"]),
    ("chartab-sl2", ["theta_dims.chartab"]),
    ("classes-sl2", ["theta_dims.groups"]),
    ("orbit-sl2", ["theta_dims.groups", "theta_dims.oracle"]),
    ("classes-cayley", ["theta_dims.cayley", "theta_dims.groups"]),
))
def test_a_query_executes_only_the_modules_it_runs(executed_modules, query, also):
    package = [name for name in executed_modules(query) if name.partition(".")[0] == "theta_dims"]
    assert package == sorted(ENTRY_MODULES + also)


def run_reaped(argv, env):
    """One `python -m theta_dims` process, reaped with os.wait4: its exit code,
    wall time and user plus system CPU time."""
    started = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "theta_dims", *argv], env=env,
                             stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(60, child.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - started
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped, so Popen must not wait
    return child.returncode, wall, usage.ru_utime + usage.ru_stime


@pytest.mark.parametrize("argv", [
    ("verify", "fixtures"),
    ("classes", "--group", "sl2:5"),
    ("dims", "--group", "cyclic:12", "--parity", "odd", "--method", "reynolds"),
], ids=["verify-fixtures", "classes-sl2", "reynolds-cyclic"])
def test_a_numpy_query_spends_no_cpu_beyond_its_wall_time(argv):
    # each runs on one thread, so CPU time above wall time is OpenBLAS's idle
    # workers spinning (about 0.1 s each by default) instead of sleeping
    env = package_env()
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    code, wall, cpu = run_reaped(argv, env)
    assert code == 0
    assert cpu <= wall + 0.03


# prints OPENBLAS_THREAD_TIMEOUT as it reads when numpy's core extension, which
# loads OpenBLAS, is first imported: under cli.main(argv), or with no argv under
# an import of every module of the package and of numpy, as a library caller's
BLAS_ENV_PROBE = """
import contextlib, importlib, io, json, os, pkgutil, sys
seen = []

def hook(event, args):
    if event == "import" and args[0] == "numpy._core._multiarray_umath" and not seen:
        seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))

sys.addaudithook(hook)
import theta_dims
from theta_dims import cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[1:])
else:
    code = 0
    for module in pkgutil.iter_modules(theta_dims.__path__):
        vars(importlib.import_module(f"theta_dims.{module.name}"))
    import numpy
print(json.dumps([code, seen]))
"""


@pytest.mark.parametrize("argv,user,expected", [
    (("classes", "--group", "sl2:5"), None, "4"),
    (("classes", "--group", "sl2:5"), "28", "28"),
    ((), None, None),
], ids=["cli", "cli-user-value", "library"])
def test_openblas_thread_timeout_is_set_by_the_cli_alone(argv, user, expected):
    env = package_env()
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    if user is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = user
    done = subprocess.run(
        [sys.executable, "-c", BLAS_ENV_PROBE, *argv],
        capture_output=True, text=True, timeout=60, env=env, check=True,
    )
    assert json.loads(done.stdout) == [0, [expected]]


# imports each module of the package first in a module table cleared of the
# package, then every other one, which executes those registered lazily
CYCLE_PROBE = """
import importlib, sys
names = sys.argv[1:]
for first in names:
    for name in [n for n in sys.modules if n.partition(".")[0] == "theta_dims"]:
        del sys.modules[name]
    for name in [first, *names]:
        vars(importlib.import_module(name))
print(len(names))
"""


def test_every_module_imports_first():
    package = Path(theta_dims.__file__).parent
    names = ["theta_dims"] + sorted(
        f"theta_dims.{path.stem}" for path in package.glob("*.py") if path.stem != "__init__"
    )
    done = subprocess.run(
        [sys.executable, "-c", CYCLE_PROBE, *names],
        capture_output=True, text=True, timeout=60, env=package_env(),
    )
    assert (done.returncode, done.stderr, done.stdout) == (0, "", f"{len(names)}\n")


@pytest.mark.parametrize("verb", [(), ("dims",), ("verify",)], ids=["main", "dims", "verify"])
def test_help_of_a_fresh_process_lists_every_choice(capsys, monkeypatch, verb):
    # the choices of --convention and of the suite are read from modules that
    # a fresh process executes, not from the ones it binds lazily
    monkeypatch.setenv("COLUMNS", "100")
    with pytest.raises(SystemExit):
        cli.main([*verb, "--help"])
    done = subprocess.run(
        [sys.executable, "-m", "theta_dims", *verb, "--help"],
        capture_output=True, text=True, timeout=60, env=package_env() | {"COLUMNS": "100"},
        check=True,
    )
    assert done.stdout == capsys.readouterr().out
    if verb == ("dims",):
        assert "{flip,inversion}" in done.stdout
    if verb == ("verify",):
        assert "{all,fixtures,cross-methods,conventions}" in done.stdout


def test_package_exports_every_name_in_all():
    # a name left in __all__ after its definition is gone fails here, not in
    # a user's import
    assert len(set(theta_dims.__all__)) == len(theta_dims.__all__)
    assert [name for name in theta_dims.__all__ if not hasattr(theta_dims, name)] == []
    namespace = {}
    exec("from theta_dims import *", namespace)
    assert set(theta_dims.__all__) <= set(namespace)


def test_dims_json_round_trips(capsys):
    code, out, _ = run_cli(
        capsys,
        "dims", "--group", "cyclic:7", "--parity", "odd", "--format", "json",
    )
    assert code == 0
    parsed = json.loads(out)
    assert parsed["dimension"] == 8
    assert cli._to_json(parsed) == out


def test_dims_methods_agree(capsys):
    results = {}
    for method in ("perm", "orbit", "reynolds", "closed-form"):
        code, out, _ = run_cli(
            capsys,
            "dims", "--group", "cyclic:8", "--parity", "even",
            "--method", method, "--format", "json",
        )
        assert code == 0
        results[method] = json.loads(out)["dimension"]
    assert set(results.values()) == {2}


def test_dims_usage_errors(capsys):
    bad_invocations = [
        ("dims", "--group", "cyclic", "--parity", "odd"),
        ("dims", "--group", "nope:4", "--parity", "odd"),
        ("dims", "--group", "cyclic:5", "--parity", "odd", "--method", "perm", "--convention", "flip"),
        ("dims", "--group", "cyclic:5", "--parity", "odd", "--method", "chartab"),
        ("dims", "--group", "cyclic:5", "--module", "aug-kernel", "--parity", "odd", "--method", "orbit"),
        ("dims", "--group", "cyclic:123", "--parity", "odd", "--method", "reynolds"),
        ("dims", "--group", "sl2:5", "--parity", "odd", "--method", "closed-form"),
        ("dims", "--group", "cyclic:0", "--parity", "odd"),
        ("dims", "--group", "cyclic:16385", "--parity", "odd"),
    ]
    errors = {}
    for argv in bad_invocations:
        code, _, errors[argv] = run_cli(capsys, *argv)
        assert code == 2, argv
        assert errors[argv].strip(), argv
    # perm on cyclic:N builds no table, but keeps the table guard and its message
    assert errors[bad_invocations[-1]] == (
        "error: a table of order 16385 has 268468225 entries, over 268435456\n"
    )


@pytest.mark.parametrize("argv,message", [
    *[(("dims", "--group", "sl2:5", "--parity", "odd", "--method", method,
        "--char-table", "/nonexistent.json"), f"method {method} reads no character table")
      for method in ("perm", "orbit", "reynolds", "closed-form")],
    (("verify", "cross-methods", "--fixture", "/nonexistent.json"),
     "suite cross-methods reads no element fixture"),
], ids=["perm", "orbit", "reynolds", "closed-form", "verify-cross-methods"])
def test_a_file_option_the_query_never_reads_is_refused(capsys, argv, message):
    # the file is refused unread, as --convention flip is off chartab
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("suite", ["fixtures", "cross-methods"])
def test_orbit_check_on_a_suite_without_it_is_refused(capsys, suite):
    # only conventions, alone or in all, runs the orbit check
    assert run_cli(capsys, "verify", suite, "--with-orbit-check") == (
        2, "", f"error: suite {suite} takes no --with-orbit-check\n"
    )


@pytest.mark.parametrize("argv,message", [
    (("dims", "--group", "sl2:5", "--parity", "odd", "--method", "perm", "--char-table", ""),
     "method perm reads no character table"),
    (("dims", "--group", "sl2:5", "--parity", "odd", "--method", "chartab", "--char-table", ""),
     "cannot read character table '': "),
    (("verify", "fixtures", "--fixture", ""), "cannot read element fixture '': "),
], ids=["perm-char-table", "chartab-char-table", "verify-fixture"])
def test_an_empty_file_option_names_no_file(capsys, argv, message):
    # "" is a path that names no file, not the builtin table or the packaged fixture
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}"), err


def test_reynolds_pi_pi_equals_perm(capsys, tmp_path):
    # reynolds answers both symmetries: on the battery and 2O, read as Cayley tables
    for name, G in [*groups.battery_groups(), ("2O", REFERENCE_GROUPS["2O"])]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"order": G.order, "mul": G.mul_table.tolist()}))
        for module, parity in lens.COLUMNS:
            code, out, _ = run_cli(
                capsys, "dims", "--group", f"cayley:{path}", "--module", module,
                "--parity", parity, "--symmetry", "pi-pi", "--method", "reynolds",
                "--format", "json",
            )
            assert code == 0 and json.loads(out)["dimension"] == (
                perm.dim_invariants_perm(G, module, parity, perm.PI_PI)
            ), (name, module, parity)


def _no_table(spec):
    pytest.fail(f"built the group of {spec}")


@pytest.mark.parametrize("argv,message", [
    (("--group", "cyclic:16384", "--method", "chartab"),
     "method chartab needs --char-table FILE (builtin only for sl2:5)"),
    (("--group", "cyclic:16384", "--module", "aug-kernel", "--method", "orbit"),
     "method orbit supports the group algebra only"),
    (("--group", "cyclic:16384", "--symmetry", "pi-pi", "--method", "reynolds"),
     "44752896 orbit sums exceed the reynolds guard 2600"),
    (("--group", "cyclic:123", "--method", "reynolds"),
     "2624 orbit sums exceed the reynolds guard 2600"),
    (("--group", "cyclic:16384", "--method", "orbit"),
     "268435456 nodes exceed the orbit guard 10000000"),
    (("--group", "cyclic:3163", "--method", "orbit"),
     "10004569 nodes exceed the orbit guard 10000000"),
    (("--group", "sl2:7", "--method", "reynolds"),
     "19096 orbit sums exceed the reynolds guard 2600"),    (("--group", "cyclic:16384", "--symmetry", "pi-pi", "--method", "closed-form"),
     "method closed-form computes the full symmetry only"),
])
def test_argument_errors_precede_the_table(capsys, monkeypatch, argv, message):
    # a cyclic:16384 table is 512 MB; these refusals need only the arguments,
    # and the order guards only the order, which the class data of cyclic:N
    # and sl2:P gives with no table
    monkeypatch.setattr(cli, "parse_group_spec", _no_table)
    code, out, err = run_cli(capsys, "dims", "--parity", "odd", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("n,method,message", [
    (123, "reynolds", "2624 orbit sums exceed the reynolds guard 2600"),
    (400, "orbit", "160000 nodes exceed the orbit guard 150000"),
])
def test_cube_guard_after_a_cayley_table(tmp_path, capsys, monkeypatch, n, method, message):
    # a cayley: group has no class data before its table is read; oracle then
    # meets the guard from the table's order, before it lists the orbit sums
    # (reynolds) or the group's generators (orbit)
    path = tmp_path / f"z{n}.json"
    path.write_text(json.dumps({"order": n, "mul": groups.make_cyclic(n).mul_table.tolist()}))
    monkeypatch.setattr(limits, "ORBIT_NODE_LIMIT", 150_000)
    monkeypatch.setattr(oracle, "_orbit_sums", lambda *args: pytest.fail("listed the basis"))
    monkeypatch.setattr(oracle, "generating_set", lambda *args: pytest.fail("built the moves"))
    code, out, err = run_cli(
        capsys, "dims", "--group", f"cayley:{path}", "--parity", "odd", "--method", method
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")


def _error_classes(base=ThetaDimsError):
    for cls in base.__subclasses__():
        yield cls
        yield from _error_classes(cls)


@pytest.mark.parametrize("error", list(_error_classes()), ids=lambda cls: cls.__name__)
def test_every_error_class_has_an_exit_code(capsys, monkeypatch, error):
    # an InputError is the user's to fix and exits 2; any other error of the
    # package is an internal consistency trap and exits 1
    def fail(*args, **kwargs):
        raise error("the message")

    monkeypatch.setattr(perm, "dim_invariants_perm", fail)
    code, out, err = run_cli(capsys, "dims", "--group", "cyclic:3", "--parity", "odd")
    assert (code, out, err) == (
        2 if issubclass(error, InputError) else 1, "", "error: the message\n"
    )


def test_dims_perm_cyclic_16384_from_arithmetic(capsys, monkeypatch):
    # the largest order the table guard admits, answered with no table
    monkeypatch.setattr(cli, "parse_group_spec", _no_table)
    monkeypatch.setattr(groups, "make_cyclic", _no_table)
    expected = tuple(lens.lens_dims(16384))[1:]
    for (module, parity), want in zip(lens.COLUMNS, expected):
        code, out, _ = run_cli(
            capsys,
            "dims", "--group", "cyclic:16384", "--module", module, "--parity", parity,
            "--format", "json",
        )
        assert code == 0 and json.loads(out)["dimension"] == want, (module, parity)


def test_dims_perm_sl2_13_process_equals_table_route():
    # sl2:13 is answered from arithmetic class data; the table route is the reference
    G = groups.make_sl2(13)
    for module, parity in lens.COLUMNS:
        out = run_cli_process(
            "dims", "--group", "sl2:13", "--module", module, "--parity", parity,
            "--format", "json", timeout=60,
        )
        assert json.loads(out)["dimension"] == perm.dim_invariants_perm(G, module, parity)


@pytest.mark.parametrize("method", ["perm", "closed-form"])
@pytest.mark.parametrize("spec", [
    "sl2:x", "cyclic:1_0", "cyclic:+10", "cyclic: 10", "sl2:\u0663",
    pytest.param("cyclic:" + "9" * 5000, id="cyclic:9x5000"),
])
def test_group_spec_parameter_is_ascii_digits(capsys, spec, method):
    code, out, err = run_cli(capsys, "dims", "--group", spec, "--parity", "odd", "--method", method)
    assert code == 2 and out == ""
    assert err.startswith("error:") and repr(spec) in err


def test_dims_cayley_file(capsys, tmp_path):
    G = groups.make_cyclic(4)
    path = tmp_path / "z4.json"
    path.write_text(json.dumps({"order": 4, "mul": G.mul_table.tolist()}))
    code, out, _ = run_cli(
        capsys,
        "dims", "--group", f"cayley:{path}", "--parity", "odd", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["dimension"] == 4


@pytest.mark.parametrize("payload", ['{"order":1,"mul":5}', '{"order":1,"mul":null}'])
def test_dims_cayley_file_mul_not_a_list(capsys, tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    code, _, err = run_cli(capsys, "dims", "--group", f"cayley:{path}", "--parity", "odd")
    assert code == 2
    assert err.startswith("error:") and "list of rows" in err


def run_cli_process_ascii_locale(*args):
    """One `python -m theta_dims` process whose locale encoding is ASCII."""
    env = package_env() | {"PYTHONUTF8": "0", "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"}
    return subprocess.run(
        [sys.executable, "-m", "theta_dims", *args],
        capture_output=True, text=True, timeout=60, env=env,
    )


# each JSON file reader on a device and on a pipe: neither has a size to trust
@pytest.mark.parametrize("what,argv", [
    ("Cayley table", ("classes", "--group", "cayley:{path}")),
    ("character table", ("dims", "--group", "sl2:5", "--parity", "odd", "--method", "chartab",
                         "--char-table", "{path}")),
    ("element fixture", ("verify", "fixtures", "--fixture", "{path}")),
], ids=["cayley", "char-table", "fixture"])
@pytest.mark.parametrize("device", ["/dev/zero", "fifo"])
def test_a_file_that_is_not_regular_is_refused_unread(tmp_path, what, argv, device):
    import resource

    def cap_memory():
        # a read of the whole device would pass this cap within a second
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    path = device
    if device == "fifo":
        path = str(tmp_path / "fifo")
        os.mkfifo(path)  # no writer ever opens it
    done = subprocess.run(
        [sys.executable, "-m", "theta_dims", *(a.format(path=path) for a in argv)],
        capture_output=True, text=True, timeout=60, preexec_fn=cap_memory,
        env=package_env() | {"OPENBLAS_NUM_THREADS": "1"},
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: cannot read {what} {path!r}: not a regular file\n"


def _char_table_without_rows():
    raw = chartab.char_table_to_dict(chartab.builtin_sl2f5_table())
    del raw["rows"]
    return raw


# each JSON file reader on a file that lacks a required key: one rendering
@pytest.mark.parametrize("what,argv,make_raw,key", [
    ("Cayley table", ("classes", "--group", "cayley:{path}"), lambda: {"order": 1}, "mul"),
    ("character table", ("dims", "--group", "sl2:5", "--parity", "odd", "--method", "chartab",
                         "--char-table", "{path}"), _char_table_without_rows, "rows"),
    ("element fixture", ("verify", "fixtures", "--fixture", "{path}"), lambda: {"prime": 5},
     "elements"),
], ids=["cayley", "char-table", "fixture"])
def test_a_missing_key_names_the_file(capsys, tmp_path, what, argv, make_raw, key):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(make_raw()))
    code, out, err = run_cli(capsys, *(a.format(path=path) for a in argv))
    assert (code, out) == (2, "")
    assert err == f"error: cannot read {what} {str(path)!r}: missing key {key!r}\n"


def _builtin_table_edited(edit):
    raw = chartab.char_table_to_dict(chartab.builtin_sl2f5_table())
    edit(raw)
    return raw


def _z2_table_over_sqrt4():
    # -1 written as 1 - sqrt(4): orthogonal over the reals, not in Q[x]/(x^2 - 4)
    raw = _sign_table(1)
    raw["radicand"] = 4
    raw["rows"][1][1].update(a_num=1, b_num=-1)
    return raw


CHAR_TABLE_ARGV = ("dims", "--group", "sl2:5", "--parity", "odd", "--method", "chartab",
                   "--char-table", "{path}")


# each file that parses but is refused later, by the value checks of the
# reader, the table's validation or the group axioms
@pytest.mark.parametrize("what,argv,make_raw,message", [
    ("character table", CHAR_TABLE_ARGV,
     lambda: _builtin_table_edited(lambda t: t["rows"][1][0].update(a_den=0)), "zero denominator"),
    ("character table", CHAR_TABLE_ARGV,
     lambda: _builtin_table_edited(lambda t: t.update(radicand=None)), "with no radicand"),
    ("character table", CHAR_TABLE_ARGV, lambda: _builtin_table_edited(
        lambda t: t.update(radicand=1)), "radicand must be a non-square >= 2 or None, got 1"),
    ("character table", CHAR_TABLE_ARGV, lambda: _builtin_table_edited(
        lambda t: t["rows"][1].__setitem__(2, t["rows"][1][3])), "rows (0, 1): got -30, expected 0"),
    ("character table", CHAR_TABLE_ARGV,
     lambda: _builtin_table_edited(lambda t: t["power2"].__setitem__(3, 4)), "= 1/6 is not a"),
    ("character table", ("dims", "--group", "cyclic:2", *CHAR_TABLE_ARGV[3:]),
     _z2_table_over_sqrt4, "radicand must be a non-square >= 2 or None, got 4"),
    ("Cayley table", ("classes", "--group", "cayley:{path}"),
     lambda: {"order": 2, "mul": [[0, 1], [0, 1]]}, "no two-sided identity element"),
    ("Cayley table", ("classes", "--group", "cayley:{path}"),
     lambda: {"order": 3, "mul": [[0, 1], [1, 0]]}, "'mul' has 2 rows, 'order' says 3"),
    ("Cayley table", ("classes", "--group", "cayley:{path}"),
     lambda: {"order": 2, "mul": 5}, "'mul' must be a list of rows, got 5"),
    ("Cayley table", ("classes", "--group", "cayley:{path}"),
     lambda: [[0]], "expected a JSON object, got list"),
    ("element fixture", ("verify", "fixtures", "--fixture", "{path}"),
     lambda: {"prime": "5", "elements": []}, "fixture prime must be an integer, got '5'"),
    ("character table", CHAR_TABLE_ARGV, lambda: _builtin_table_edited(
        lambda t: t["class_names"].pop()), "table blocks disagree on the number of classes"),
    ("character table", CHAR_TABLE_ARGV, lambda: _builtin_table_edited(
        lambda t: t["rows"][4].pop()), "character rows must be square with the class count"),
    ("character table", CHAR_TABLE_ARGV, lambda: _builtin_table_edited(
        lambda t: t["class_sizes"].__setitem__(2, 0)), "class sizes must be positive"),
    ("character table", CHAR_TABLE_ARGV, lambda: _builtin_table_edited(
        lambda t: t["power3"].__setitem__(5, 9)), "power maps must be class indices"),
    ("character table", CHAR_TABLE_ARGV, lambda: _builtin_table_edited(
        lambda t: t["rows"].reverse()), "first row must be the trivial character"),
], ids=["zero-denominator", "no-radicand", "radicand-1", "not-orthogonal", "power-map",
        "square-radicand", "no-identity", "row-count", "scalar-mul", "cayley-not-an-object",
        "fixture-prime", "blocks-disagree", "row-length", "size-zero", "power-map-range",
        "first-row"])
def test_a_refused_file_names_the_file(capsys, tmp_path, what, argv, make_raw, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(make_raw()))
    code, out, err = run_cli(capsys, *(a.format(path=path) for a in argv))
    assert (code, out) == (2, "")
    assert re.match(f"error: (cannot read )?{what} {re.escape(repr(str(path)))}: ", err)
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("row", [1, 2, 6, 8])
def test_a_negated_faithful_row_exits_2(capsys, tmp_path, row):
    # each passes orthogonality and the power maps; row 1 read 21, not 27
    def negate(raw):
        for value in raw["rows"][row]:
            value["a_num"] *= -1
            value["b_num"] *= -1

    path = tmp_path / "table.json"
    path.write_text(json.dumps(_builtin_table_edited(negate)))
    code, out, err = run_cli(capsys, "dims", "--group", "sl2:5", "--parity", "even",
                             "--method", "chartab", "--char-table", str(path))
    degree = chartab.builtin_sl2f5_table().irrep_dims[row]
    assert (code, out) == (2, "")
    assert err == (f"error: cannot read character table {str(path)!r}: the first column "
                   f"must hold positive degrees, row {row} has {-degree}\n")


def test_json_inputs_are_read_as_utf8(tmp_path):
    # the class and element names are free text; the file's encoding, not
    # the locale's, decides how they read
    table = chartab.char_table_to_dict(chartab.builtin_sl2f5_table())
    table["class_names"][1] = "\u2212I"
    fixture = json.loads(verify.default_fixture_path().read_text(encoding="utf-8"))
    for rec in fixture["elements"]:
        rec["name"] = "\u2212" + rec["name"]
    for name, raw in (("table.json", table), ("fixture.json", fixture)):
        (tmp_path / name).write_text(json.dumps(raw, ensure_ascii=False), encoding="utf-8")
    done = run_cli_process_ascii_locale(
        "dims", "--group", "sl2:5", "--parity", "odd", "--method", "chartab",
        "--char-table", str(tmp_path / "table.json"), "--format", "json",
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["dimension"] == 65
    done = run_cli_process_ascii_locale(
        "verify", "fixtures", "--fixture", str(tmp_path / "fixture.json")
    )
    assert (done.returncode, done.stderr) == (0, "")


def test_dims_char_table_file(capsys, tmp_path):
    path = tmp_path / "table.json"
    chartab.dump_char_table(chartab.builtin_sl2f5_table(), path)
    code, out, _ = run_cli(
        capsys,
        "dims", "--group", "sl2:5", "--parity", "odd", "--method", "chartab",
        "--char-table", str(path), "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["dimension"] == 65


def _sl2f5_table_with(**fields):
    raw = chartab.char_table_to_dict(chartab.builtin_sl2f5_table())
    raw.update(fields)
    return raw


@pytest.mark.parametrize(
    "group,fields",
    [("cyclic:5", {}), ("cyclic:120", {}), ("sl2:5", {"power3": [0] * 9})],
    ids=["cyclic5", "cyclic120", "power3-zeros"],
)
def test_dims_char_table_must_fit_group(capsys, tmp_path, group, fields):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(_sl2f5_table_with(**fields)))
    code, out, err = run_cli(
        capsys, "dims", "--group", group, "--parity", "odd", "--method", "chartab",
        "--convention", "inversion", "--char-table", str(path),
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "does not fit group" in err


def _sign_table(r):
    """The character table of Z2^r in the file format: chi_s(x) = (-1)^|s & x|."""
    k = 1 << r
    rest = {"a_den": 1, "b_num": 0, "b_den": 1}
    return {
        "radicand": None,
        "class_sizes": [1] * k,
        "power2": [0] * k,
        "power3": list(range(k)),
        "rows": [[{"a_num": (-1) ** (s & x).bit_count(), **rest} for x in range(k)]
                 for s in range(k)],
    }


@pytest.mark.parametrize("case", BEYOND_EXACT_RANGE)
def test_char_table_beyond_the_exact_range_exits_2(capsys, tmp_path, case):
    # refused before any int64 array is formed: no OverflowError traceback,
    # no ExactnessViolation (exit 1), and no fit check reached
    path = tmp_path / "table.json"
    path.write_text(json.dumps(BEYOND_EXACT_RANGE[case]()))
    code, out, err = run_cli(
        capsys, "dims", "--group", "sl2:5", "--parity", "odd", "--method", "chartab",
        "--char-table", str(path),
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: character table {str(path)!r}: entries up to ")
    assert "Traceback" not in err and err.count("\n") == 1


def test_fitting_char_table_is_still_validated(capsys, tmp_path):
    raw = _sign_table(1)
    raw["rows"][1][1]["a_num"] = 1  # fits cyclic:2, but its rows are not orthogonal
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(raw))
    code, out, err = run_cli(
        capsys, "dims", "--group", "cyclic:2", "--parity", "odd", "--method", "chartab",
        "--char-table", str(path),
    )
    assert code == 2 and out == "" and "rows (0, 1)" in err
    path.write_text(json.dumps(_sign_table(1)))
    code, out, _ = run_cli(
        capsys, "dims", "--group", "cyclic:2", "--parity", "odd", "--method", "chartab",
        "--char-table", str(path), "--format", "json",
    )
    assert code == 0 and json.loads(out)["dimension"] == perm.dim_invariants_perm(
        groups.make_cyclic(2), perm.GROUP_ALGEBRA, perm.ODD
    )


def test_dims_char_table_indicator_out_of_range(capsys, tmp_path):
    # the square of class a moves from -I to I, which keeps the class sizes,
    # so the fit check passes; the Sym^2 and Lambda^2 multiplicities refuse the
    # table at load, whatever the query
    power2 = list(chartab.builtin_sl2f5_table().power2)
    power2[2] = 0
    path = tmp_path / "table.json"
    path.write_text(json.dumps(_sl2f5_table_with(power2=power2)))
    for module, parity, convention in itertools.product(perm.MODULES, perm.PARITIES,
                                                        perm.CONVENTIONS):
        code, out, err = run_cli(
            capsys, "dims", "--group", "sl2:5", "--module", module, "--parity", parity,
            "--method", "chartab", "--char-table", str(path), "--convention", convention,
        )
        assert code == 2 and out == ""
        assert err == (
            f"error: character table {str(path)!r}: power2 map: "
            "<(chi_1^2 + chi_1(g^2))/2, chi_0> = 1/2 is not a nonnegative integer\n"
        )


def test_dims_char_table_power_map_is_checked(capsys, tmp_path):
    # the square map moves but keeps the class sizes, so the fit check passes
    power2 = list(chartab.builtin_sl2f5_table().power2)
    power2[5], power2[6] = 5, 7
    path = tmp_path / "table.json"
    path.write_text(json.dumps(_sl2f5_table_with(power2=power2)))
    code, out, err = run_cli(
        capsys, "dims", "--group", "sl2:5", "--parity", "odd", "--method", "chartab",
        "--char-table", str(path),
    )
    assert code == 2 and out == ""
    assert err == (
        f"error: character table {str(path)!r}: power2 map: "
        "<(chi_1^2 + chi_1(g^2))/2, chi_0> = 1/20 is not a nonnegative integer\n"
    )


def test_dims_builtin_char_table_from_parsed_spec(capsys):
    code, out, _ = run_cli(
        capsys, "dims", "--group", "sl2:05", "--parity", "odd", "--method", "chartab",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["dimension"] == 65


def _first_entry_with(**fields):
    raw = _sl2f5_table_with()
    raw["rows"][0][0].update(fields)
    return raw


# Cayley files whose rows are not JSON integers in 0..order-1, with that order
BAD_CAYLEY_ROWS = {
    "cayley-mixed-bool": (2, '{"order":2,"mul":[[0,1],[1,false]]}'),
    "cayley-float-entry": (1, '{"order":1,"mul":[[0.0]]}'),
    "cayley-plus-entry": (1, '{"order":1,"mul":[[+0]]}'),
    "cayley-leading-zero": (2, '{"order":2,"mul":[[0,1],[1,00]]}'),
    "cayley-short-row": (2, '{"order":2,"mul":[[0,1],[1]]}'),
    "cayley-space-in-row": (2, '{"order":2,"mul":[[0,1],[1 0]]}'),
    "cayley-space-splits-entry": (2, '{"order":2,"mul":[[0,1 0],[1,0]]}'),
    "cayley-non-ascii": (2, '{"order":2,"mul":[[0,1],[1,\u00e90]]}'),
}


BAD_JSON_INPUTS = {
    "char-rows-scalar": ("char", _sl2f5_table_with(rows=5)),
    "char-rows-not-lists": ("char", _sl2f5_table_with(rows=list(range(9)))),
    "char-names-scalar": ("char", _sl2f5_table_with(class_names=5)),
    "char-sizes-scalar": ("char", _sl2f5_table_with(class_sizes=5)),
    "char-power2-scalar": ("char", _sl2f5_table_with(power2=5)),
    "char-power3-scalar": ("char", _sl2f5_table_with(power3=5)),
    "char-empty": ("char", {"radicand": None, "class_sizes": [], "power2": [], "power3": [],
                            "rows": []}),
    "char-float-den": ("char", _first_entry_with(a_den=1.5)),
    "char-bool-num": ("char", _first_entry_with(a_num=True)),
    "char-string-size": ("char", _sl2f5_table_with(class_sizes=["1"] * 9)),
    "char-float-radicand": ("char", _sl2f5_table_with(radicand=5.0)),
    "char-deep": ("char", "[" * 100000),
    "cayley-float-order": ("cayley", {"order": 1.9, "mul": [[0]]}),
    "cayley-bool-order": ("cayley", {"order": True, "mul": [[0]]}),
    "cayley-deep": ("cayley", "[" * 100000),
    **{case: ("cayley", text) for case, (_, text) in BAD_CAYLEY_ROWS.items()},
    "fixture-float-prime": ("fixture", {"prime": 5.0, "elements": []}),
    "fixture-bool-entry": ("fixture", {"prime": 5, "elements": [
        {"name": "g", "matrix": [[True, 0], [0, 1]], "class": "1"}]}),
    "fixture-not-an-object": ("fixture", []),
    "fixture-element-scalar": ("fixture", {"prime": 5, "elements": [5]}),
    "fixture-matrix-scalar": ("fixture", {"prime": 5, "elements": [
        {"name": "g", "matrix": 5, "class": "1"}]}),
    "char-entry-scalar": ("char", _builtin_table_edited(lambda t: t["rows"][0].__setitem__(0, 5))),
    "char-row-scalar": ("char", _builtin_table_edited(lambda t: t["rows"].__setitem__(0, 5))),
}

# the refusal of some BAD_JSON_INPUTS, after "error: cannot read <kind> '<path>': "
BAD_JSON_MESSAGES = {
    "fixture-not-an-object": "expected a JSON object, got list",
    "fixture-element-scalar": "'elements' must be a list of objects, got [5]",
    "fixture-matrix-scalar": "an element's 'matrix' must be a 2x2 matrix, got 5",
    "char-entry-scalar": "a character value must be a JSON object, got 5",
    "char-row-scalar": "a character row must be a list of objects, got 5",
    "char-rows-scalar": "'rows' must be a list, got 5",
    "char-names-scalar": "'class_names' must be a list, got 5",
    "char-sizes-scalar": "'class_sizes' must be a list, got 5",
    "char-power2-scalar": "'power2' must be a list, got 5",
    "char-power3-scalar": "'power3' must be a list, got 5",
    "cayley-non-ascii": "rows must be 2 lists of 2 integers in 0..1: found a character outside ASCII",
}


def _run_bad_json_input(capsys, tmp_path, case):
    """Run the command that reads BAD_JSON_INPUTS[case]; (code, out, err, the
    file's kind as messages name it, its path)."""
    kind, payload = BAD_JSON_INPUTS[case]
    path = tmp_path / "input.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload),
                    encoding="utf-8")
    what, argv = {
        "char": ("character table", ("dims", "--group", "sl2:5", "--parity", "odd",
                                     "--method", "chartab", "--char-table", str(path))),
        "cayley": ("Cayley table", ("dims", "--group", f"cayley:{path}", "--parity", "odd")),
        "fixture": ("element fixture", ("verify", "fixtures", "--fixture", str(path))),
    }[kind]
    return (*run_cli(capsys, *argv), what, path)


@pytest.mark.parametrize("case", sorted(BAD_JSON_INPUTS))
def test_bad_json_inputs_are_usage_errors(capsys, tmp_path, case):
    code, out, err, _, _ = _run_bad_json_input(capsys, tmp_path, case)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("case", sorted(BAD_JSON_MESSAGES))
def test_bad_json_inputs_say_what_was_expected(capsys, tmp_path, case):
    code, out, err, what, path = _run_bad_json_input(capsys, tmp_path, case)
    assert (code, out) == (2, "")
    assert err == f"error: cannot read {what} {str(path)!r}: {BAD_JSON_MESSAGES[case]}\n"


@pytest.mark.parametrize("case", sorted(BAD_CAYLEY_ROWS))
def test_bad_cayley_rows_name_file_and_range(capsys, tmp_path, case):
    n, text = BAD_CAYLEY_ROWS[case]
    path = tmp_path / "table.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "classes", "--group", f"cayley:{path}")
    assert code == 2 and out == ""
    assert err.startswith("error:") and repr(str(path)) in err
    assert f"integers in 0..{n - 1}" in err


def test_dims_cyclic12_odd(capsys):
    code, out, _ = run_cli(
        capsys,
        "dims", "--group", "cyclic:12", "--parity", "odd", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["dimension"] == 19


def test_lens_table_csv(capsys):
    code, out, _ = run_cli(capsys, "lens-table", "--max-n", "15", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,odd_group_algebra,even_group_algebra,odd_aug_kernel,even_aug_kernel"
    assert len(lines) == 16
    for n, row in REFERENCE_ROWS.items():
        assert lines[n] == row


def test_lens_table_single_row(capsys):
    code, out, _ = run_cli(capsys, "lens-table", "--max-n", "1", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[1] == "1,1,0,0,0"


@pytest.mark.parametrize("max_n", [-1, limits.LENS_TABLE_MAX_N + 1])
def test_lens_table_max_n_out_of_range(capsys, max_n):
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "lens-table", "--max-n", str(max_n))
    assert time.perf_counter() - started < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"0..{limits.LENS_TABLE_MAX_N}" in err


def test_lens_table_max_n_at_the_limit(capsys, monkeypatch):
    monkeypatch.setattr(limits, "LENS_TABLE_MAX_N", 20)
    code, out, _ = run_cli(capsys, "lens-table", "--max-n", "20", "--format", "csv")
    assert code == 0 and len(out.splitlines()) == 21


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_a_reader_that_closes_early_ends_the_writer_quietly(fmt):
    # `lens-table --max-n 100000 | head -1`: 4.9 MB of output, far more than a
    # pipe buffers, so the writes after the reader leaves fail with EPIPE
    with subprocess.Popen(
        [sys.executable, "-m", "theta_dims", "lens-table", "--max-n", "100000",
         "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=package_env(),
    ) as child:
        assert child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=60) == 141  # 128 + SIGPIPE, as the shell reports
    assert err == b""


def test_lens_table_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "lens-table", "--max-n", "4", "--format", "json")
    assert code == 0
    assert cli._to_json(json.loads(out)) == out


def test_classes_sl2(capsys):
    code, out, _ = run_cli(capsys, "classes", "--group", "sl2:5", "--format", "json")
    assert code == 0
    parsed = json.loads(out)
    assert len(parsed["classes"]) == 9
    assert sorted(r["size"] for r in parsed["classes"]) == [1, 1, 12, 12, 12, 12, 20, 20, 30]
    assert parsed["inversion_orbits"] == 9
    assert all(r["inverse_class"] == r["class"] for r in parsed["classes"])
    # the square/cube columns must agree with the reference power maps
    table = chartab.builtin_sl2f5_table()
    G = groups.make_sl2(5)
    order_map = verify.verify_sl2f5_fixture(G, verify.load_sl2_fixture()).label_class
    to_computed = [order_map[f"c{i + 1}"] for i in range(9)]
    by_class = {r["class"]: r for r in parsed["classes"]}
    for i in range(9):
        assert by_class[to_computed[i]]["square_class"] == to_computed[table.power2[i]]
        assert by_class[to_computed[i]]["cube_class"] == to_computed[table.power3[i]]


def test_classes_cyclic4(capsys):
    code, out, _ = run_cli(capsys, "classes", "--group", "cyclic:4")
    assert code == 0
    assert "inversion_orbits=3" in out
    assert out.count("class ") == 4


def test_classes_csv_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "classes", "--group", "sl2:3", "--format", "csv")
    code2, out2, _ = run_cli(capsys, "classes", "--group", "sl2:3", "--format", "csv")
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("argv", [
    ("classes", "--group", "sl2:3"),
    ("classes", "--group", "sl2:5"),
    ("dims", "--group", "cayley:{z4}", "--parity", "odd"),
    ("lens-table", "--max-n", "6"),
], ids=["classes-sl2-3", "classes-sl2-5", "dims-cayley-comma-path", "lens-table"])
def test_csv_rows_read_back_as_the_json_fields(capsys, tmp_path, argv):
    # sl2 representatives and this file's path hold commas
    z4 = tmp_path / "a,b" / "z4.json"
    z4.parent.mkdir()
    z4.write_text(json.dumps({"order": 4, "mul": groups.make_cyclic(4).mul_table.tolist()}))
    argv = [arg.format(z4=z4) for arg in argv]
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out, newline=""))
    assert rows and all(len(row) == len(header) for row in rows)
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    records = payload["classes"] if argv[0] == "classes" else payload
    records = records if isinstance(records, list) else [records]
    assert [dict(zip(header, row)) for row in rows] == [
        {key: str(value) for key, value in record.items()} for record in records
    ]
    if argv[0] == "dims":
        assert rows[0][header.index("group")] == f"cayley:{z4}"


def test_classes_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "classes", "--group", "cyclic:6", "--format", "json")
    assert code == 0
    assert cli._to_json(json.loads(out)) == out


def test_help_renders(capsys):
    for argv in (["--help"], ["dims", "--help"], ["verify", "--help"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out


def test_verify_fixtures_cli(capsys):
    code, out, _ = run_cli(capsys, "verify", "fixtures")
    assert code == 0
    assert "[fixtures]" in out and "ok" in out


@pytest.mark.parametrize("suite", ["fixtures", "conventions"])
def test_verify_fixture_file_override(capsys, tmp_path, suite):
    raw = json.loads(verify.default_fixture_path().read_text())
    raw["elements"][0]["class"] = "c9"
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(raw))
    code, out, _ = run_cli(capsys, "verify", suite, "--fixture", str(path))
    assert code == 1
    # both suites read the fixture through one reference, so they fail alike
    assert out == (
        f"[{suite}]\n"
        "FAIL: element fixture mismatches: ('g1: labeled c9, computed class is c3',)\n"
    )


@pytest.mark.parametrize("suite", ["fixtures", "conventions"])
def test_verify_fixture_labels_name_the_table_classes(capsys, tmp_path, suite):
    # labels k1..k9 classify every element consistently but name no table class
    raw = json.loads(verify.default_fixture_path().read_text())
    for rec in raw["elements"]:
        rec["class"] = rec["class"].replace("c", "k")
    path = tmp_path / "relabeled.json"
    path.write_text(json.dumps(raw))
    code, out, _ = run_cli(capsys, "verify", suite, "--fixture", str(path))
    assert code == 1
    labels = [f"c{i}" for i in range(1, 10)]
    assert out == f"[{suite}]\nFAIL: fixture labels are not {labels}\n"


def _relabel_one_of_each(first, second):
    """Give one element of class first the label second and one of second first."""
    def relabel(raw):
        a = next(rec for rec in raw["elements"] if rec["class"] == first)
        b = next(rec for rec in raw["elements"] if rec["class"] == second)
        a["class"], b["class"] = second, first
    return relabel


def _merge_labels(raw):
    """Label every element of class c9 as c8."""
    for rec in raw["elements"]:
        rec["class"] = rec["class"].replace("c9", "c8")


@pytest.mark.parametrize("edit,message", [
    (_merge_labels, "fixture names 8 classes, group has 9"),
    # -I (c2, one element) labeled c3: c2 names one element of c3, whose label
    # c3 keeps its majority, so both labels vote for the class of c3
    (_relabel_one_of_each("c2", "c3"), "fixture labels do not separate the computed classes"),
], ids=["class-count", "not-separated"])
def test_verify_fixture_labels_must_match_the_classes(capsys, tmp_path, edit, message):
    raw = json.loads(verify.default_fixture_path().read_text())
    edit(raw)
    path = tmp_path / "relabeled.json"
    path.write_text(json.dumps(raw))
    code, out, _ = run_cli(capsys, "verify", "fixtures", "--fixture", str(path))
    assert (code, out) == (1, f"[fixtures]\nFAIL: {message}\n")


def test_verify_fixture_order_checked_before_enumeration(capsys, tmp_path):
    # SL2(F_1009) has over 10^9 elements; none of them may be listed
    raw = json.loads(verify.default_fixture_path().read_text())
    raw["prime"] = 1009
    path = tmp_path / "prime1009.json"
    path.write_text(json.dumps(raw))
    started = time.perf_counter()
    code, out, _ = run_cli(capsys, "verify", "fixtures", "--fixture", str(path))
    assert time.perf_counter() - started < 1.0
    assert code == 1
    assert "FAIL: group order 120 != 1027242720\n" in out


def _fixture_without_elements():
    return {"prime": 5}


def _fixture_with_scalar_matrix():
    raw = json.loads(verify.default_fixture_path().read_text())
    raw["elements"][0]["matrix"] = 5
    return raw


@pytest.mark.parametrize(
    "make_raw", [None, _fixture_without_elements, _fixture_with_scalar_matrix],
    ids=["missing-file", "no-elements", "scalar-matrix"],
)
def test_verify_bad_fixture_file_is_usage_error(capsys, tmp_path, make_raw):
    path = tmp_path / "fixture.json"
    if make_raw is not None:
        path.write_text(json.dumps(make_raw()))
    code, _, err = run_cli(capsys, "verify", "fixtures", "--fixture", str(path))
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_verify_conventions_cli(capsys):
    code, out, _ = run_cli(capsys, "verify", "conventions")
    assert code == 0
    assert "row2=-1" in out
    assert "27" in out and "65" in out and "56" in out


def count_calls(monkeypatch, *targets):
    """A Counter, by name, of the calls to each (module, name) in targets."""
    calls = collections.Counter()

    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for module, name in targets:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


def test_cross_methods_computes_each_value_once(monkeypatch):
    # one pass over the 17 battery groups and Z13..Z15: classes once a group,
    # the calls inside perm included; orbit for 4 symmetry-parity pairs on the
    # battery and 2 on Z13..Z15; reynolds for 4 module-parity pairs on the 16
    # battery groups of order <= 12
    calls = count_calls(monkeypatch, (groups, "conjugacy_classes"),
                        (oracle, "dim_invariants_orbit"), (oracle, "dim_invariants_reynolds"))
    verify.verify_cross_methods()
    assert calls["conjugacy_classes"] <= 20
    assert calls["dim_invariants_orbit"] == 17 * 4 + 3 * 2 == 74
    assert calls["dim_invariants_reynolds"] == 16 * 4 == 64


def test_conventions_counts_each_coset_once(monkeypatch):
    # one direct pass over the twisted coset of SL2(F5) for all four
    # module-parity pairs: one `_row_chunks` call per element g
    calls = count_calls(monkeypatch, (groups, "conjugacy_classes"), (groups, "_row_chunks"))
    verify.verify_conventions(True)
    assert calls["conjugacy_classes"] == 1
    assert calls["_row_chunks"] == 120


def test_verify_all_builds_one_sl2f5_reference(capsys, monkeypatch):
    # fixtures and conventions share one reference: SL2(F5) is built, the
    # fixture read and its classes computed once, for the fixture's class vote
    calls = count_calls(monkeypatch, (verify, "load_sl2_fixture"))
    sl2_primes, class_orders = collections.Counter(), collections.Counter()
    make_sl2 = groups.make_sl2
    monkeypatch.setattr(groups, "make_sl2", lambda p: sl2_primes.update([p]) or make_sl2(p))
    classes = groups.conjugacy_classes
    monkeypatch.setattr(groups, "conjugacy_classes",
                        lambda G: class_orders.update([G.order]) or classes(G))
    code, out, _ = run_cli(capsys, "verify", "all", "--with-orbit-check")
    assert code == 0 and out.endswith("ok\n")
    assert (calls["load_sl2_fixture"], sl2_primes[5], class_orders[120]) == (1, 1, 1)


def test_verify_all_validates_the_builtin_table_once(capsys, monkeypatch):
    # builtin_sl2f5_table returns fixed data; verify._sl2f5 validates it once
    # per run, for both the fixtures and the conventions suite
    chartab.builtin_sl2f5_table.cache_clear()
    calls = count_calls(monkeypatch, (chartab.CharTable, "validate"))
    code, out, _ = run_cli(capsys, "verify", "all", "--with-orbit-check")
    assert code == 0 and out.endswith("ok\n")
    assert calls["validate"] == 1


def test_verify_all_enumerates_each_sl2_once(capsys, monkeypatch):
    # make_sl2 lists the matrices; the fixture check reads them off the
    # table's labels, and the battery's Q8 is a subgroup of its own SL2(F3)
    primes = collections.Counter()
    sl2_matrices = classdata.sl2_matrices
    monkeypatch.setattr(classdata, "sl2_matrices", lambda p: primes.update([p]) or sl2_matrices(p))
    code, out, _ = run_cli(capsys, "verify", "all", "--with-orbit-check")
    assert code == 0 and out.endswith("ok\n")
    assert primes == {5: 1, 3: 1}


def _plus_one_on_inversion(f):
    return lambda *args: f(*args) + (args[-1] == chartab.INVERSION)


@pytest.mark.parametrize("target, wrap, flags, fail", [
    ((perm, "_coset_terms"), lambda f: lambda G, twisted: f(G, twisted) + [(1, 2, 0, 0)], (),
     "group-algebra even: direct twisted average "),
    ((chartab, "tau_part"), _plus_one_on_inversion, (),
     "group-algebra even: weighted twisted part "),
    ((chartab, "dim_invariants_chartab"), _plus_one_on_inversion, (),
     "group-algebra even: inversion via table "),
    ((oracle, "dim_invariants_orbit"), lambda f: lambda *args: f(*args) + 1,
     ("--with-orbit-check",), "orbit check even: "),
], ids=["direct-twisted", "table-twisted", "inversion", "orbit"])
def test_conventions_route_disagreement_is_a_fail_line(capsys, monkeypatch, target, wrap, flags,
                                                       fail):
    # each two-route check of the suite reports a disagreement as its FAIL line
    monkeypatch.setattr(*target, wrap(getattr(*target)))
    code, out, err = run_cli(capsys, "verify", "conventions", *flags)
    assert (code, err) == (1, "")
    assert out.startswith(f"[conventions]\nFAIL: {fail}") and out.count("\n") == 2, out


def test_dims_chartab_pi_pi_equals_perm(capsys):
    # pi-pi is the diagonal part alone, which reads no convention
    def dimension(*argv):
        code, out, err = run_cli(capsys, "dims", "--group", "sl2:5", *argv, "--symmetry",
                                 "pi-pi", "--format", "json")
        assert (code, err) == (0, ""), argv
        return json.loads(out)["dimension"]

    values = {}
    for module, parity in lens.COLUMNS:
        query = ("--module", module, "--parity", parity)
        values[module, parity] = dimension(*query, "--method", "perm")
        for convention in perm.CONVENTIONS:
            assert dimension(*query, "--method", "chartab", "--convention", convention) == (
                values[module, parity]
            ), (module, parity, convention)
    assert values[perm.GROUP_ALGEBRA, perm.ODD] == 71
    assert values[perm.GROUP_ALGEBRA, perm.EVEN] == 33


def test_dims_chartab_builtin_computes_no_class_data(capsys, monkeypatch):
    # the builtin table is fixed data for sl2:5, checked by verify fixtures
    monkeypatch.setattr(classdata, "sl2_class_data", lambda p: pytest.fail("computed class data"))
    monkeypatch.setattr(groups, "conjugacy_classes", lambda G: pytest.fail("computed classes"))
    code, out, err = run_cli(
        capsys, "dims", "--group", "sl2:5", "--parity", "odd", "--method", "chartab"
    )
    assert (code, err) == (0, "") and "dimension: 65\n" in out


GOLDEN_OUTPUTS = [
    (
        ("dims", "--group", "cyclic:6", "--module", "aug-kernel", "--parity", "odd"),
        "group=cyclic:6 module=aug-kernel parity=odd symmetry=full method=perm "
        "convention=inversion\n"
        "dimension: 3\n"
        "elapsed: <masked>\n",
    ),
    (
        ("dims", "--group", "cyclic:6", "--module", "aug-kernel", "--parity", "odd",
         "--format", "csv"),
        "group,module,parity,symmetry,method,convention,dimension\n"
        "cyclic:6,aug-kernel,odd,full,perm,inversion,3\n",
    ),
    (
        ("dims", "--group", "cyclic:6", "--module", "aug-kernel", "--parity", "odd",
         "--format", "json"),
        '{"convention":"inversion","dimension":3,"group":"cyclic:6","method":"perm",'
        '"module":"aug-kernel","parity":"odd","symmetry":"full"}\n',
    ),
    *(
        (
            ("dims", "--group", "sl2:7", "--module", module, "--parity", parity,
             "--symmetry", symmetry, "--format", "json"),
            f'{{"convention":"inversion","dimension":{dim},"group":"sl2:7","method":"perm",'
            f'"module":"{module}","parity":"{parity}","symmetry":"{symmetry}"}}\n',
        )
        for module, parity, symmetry, dim in [
            ("group-algebra", "even", "full", 61),
            ("group-algebra", "odd", "full", 113),
            ("aug-kernel", "even", "full", 61),
            ("aug-kernel", "odd", "full", 104),
            ("group-algebra", "even", "pi-pi", 108),
            ("group-algebra", "odd", "pi-pi", 160),
        ]
    ),
    *(
        (
            ("dims", "--group", "sl2:5", "--method", "chartab", "--parity", parity,
             "--symmetry", "pi-pi", "--format", "json"),
            f'{{"convention":"flip","dimension":{dim},"group":"sl2:5","method":"chartab",'
            f'"module":"group-algebra","parity":"{parity}","symmetry":"pi-pi"}}\n',
        )
        for parity, dim in [("even", 33), ("odd", 71)]
    ),
    (
        ("lens-table", "--max-n", "4"),
        "  n  odd C[pi]  even C[pi]  odd Ker  even Ker\n"
        "  1          1           0        0         0\n"
        "  2          2           0        0         0\n"
        "  3          3           0        1         0\n"
        "  4          4           0        1         0\n",
    ),
    (
        ("lens-table", "--max-n", "0"),
        "  n  odd C[pi]  even C[pi]  odd Ker  even Ker\n",
    ),
    (
        ("lens-table", "--max-n", "4", "--format", "csv"),
        "n,odd_group_algebra,even_group_algebra,odd_aug_kernel,even_aug_kernel\n"
        "1,1,0,0,0\n"
        "2,2,0,0,0\n"
        "3,3,0,1,0\n"
        "4,4,0,1,0\n",
    ),
    (
        ("lens-table", "--max-n", "0", "--format", "csv"),
        "n,odd_group_algebra,even_group_algebra,odd_aug_kernel,even_aug_kernel\n",
    ),
    (
        ("lens-table", "--max-n", "2", "--format", "json"),
        '[{"even_aug_kernel":0,"even_group_algebra":0,"n":1,"odd_aug_kernel":0,'
        '"odd_group_algebra":1},{"even_aug_kernel":0,"even_group_algebra":0,"n":2,'
        '"odd_aug_kernel":0,"odd_group_algebra":2}]\n',
    ),
    (
        ("lens-table", "--max-n", "0", "--format", "json"),
        "[]\n",
    ),
    (
        ("classes", "--group", "sl2:3"),
        "group=sl2:3 classes=7 inversion_orbits=5\n"
        "class 0: rep [0,1;2,0] size 6 square->6 cube->0 inverse->0\n"
        "class 1: rep [0,1;2,1] size 4 square->2 cube->6 inverse->3\n"
        "class 2: rep [0,1;2,2] size 4 square->4 cube->5 inverse->4\n"
        "class 3: rep [0,2;1,1] size 4 square->4 cube->6 inverse->1\n"
        "class 4: rep [0,2;1,2] size 4 square->2 cube->5 inverse->2\n"
        "class 5: rep [1,0;0,1] size 1 square->5 cube->5 inverse->5\n"
        "class 6: rep [2,0;0,2] size 1 square->5 cube->6 inverse->6\n",
    ),
    (
        ("classes", "--group", "sl2:3", "--format", "csv"),
        "class,representative,size,square_class,cube_class,inverse_class\n"
        '0,"[0,1;2,0]",6,6,0,0\n'
        '1,"[0,1;2,1]",4,2,6,3\n'
        '2,"[0,1;2,2]",4,4,5,4\n'
        '3,"[0,2;1,1]",4,4,6,1\n'
        '4,"[0,2;1,2]",4,2,5,2\n'
        '5,"[1,0;0,1]",1,5,5,5\n'
        '6,"[2,0;0,2]",1,5,6,6\n',
    ),
    (
        ("classes", "--group", "cyclic:3", "--format", "json"),
        '{"classes":[{"class":0,"cube_class":0,"inverse_class":0,"representative":"0",'
        '"size":1,"square_class":0},{"class":1,"cube_class":0,"inverse_class":2,'
        '"representative":"1","size":1,"square_class":2},{"class":2,"cube_class":0,'
        '"inverse_class":1,"representative":"2","size":1,"square_class":1}],'
        '"group":"cyclic:3","inversion_orbits":2}\n',
    ),
    (
        # what the benchmark checks: md5 2979e1e7fba5487e3ede0e4b60198585
        ("verify", "all", "--with-orbit-check"),
        "[fixtures]\n"
        "classes: 9 classes with sizes {1,1,30,20,20,12,12,12,12}\n"
        "element fixture: all 120 elements classified correctly\n"
        "character table: 45 orthogonality sums exact\n"
        "power maps: computed squares/cubes match the table classes\n"
        "inversion: acts trivially on all 9 classes\n"
        "ok\n"
        "[cross-methods]\n"
        "orbit oracle: agrees with the perm path on 17 groups\n"
        "projector oracle: agrees with the perm path on 16 groups (order <= 12)\n"
        "split identities: hold on every battery group\n"
        "cyclic table: closed forms, perm path and orbit route agree for n <= 15\n"
        "ok\n"
        "[conventions]\n"
        "squared-power indicators: row1=+1, row2=-1, row3=-1, row4=+1, row5=+1, "
        "row6=+1, row7=-1, row8=+1, row9=-1\n"
        "indicator-weighted sums match per-class square-root counts\n"
        "flip convention: even/odd of the group algebra = 27/65, of the kernel = 27/56\n"
        "inversion convention (two independent routes agree): aug-kernel/even=27, "
        "aug-kernel/odd=56, group-algebra/even=27, group-algebra/odd=65\n"
        "note: flip and inversion values are reported side by side, not equated\n"
        "orbit oracle confirms the inversion group-algebra values\n"
        "ok\n",
    ),
]


@pytest.mark.parametrize(
    "argv,expected", GOLDEN_OUTPUTS, ids=[" ".join(argv) for argv, _ in GOLDEN_OUTPUTS]
)
def test_output_bytes_are_pinned(capsys, argv, expected):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert re.sub(r"elapsed: \d+\.\d{3}s", "elapsed: <masked>", out) == expected
