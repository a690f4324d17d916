import collections
import dataclasses
import itertools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import theta_dims
from theta_dims import chartab, cli, groups, lens, limits, oracle, perm, verify
from theta_dims.errors import InputError, SimplificationMismatch, ThetaDimsError

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


# runs argv through cli.main and prints whether any numpy submodule was imported
NUMPY_PROBE = """
import contextlib, io, sys
from theta_dims import cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(sys.argv[1:]) == 0
print(any(name.startswith("numpy.") for name in sys.modules))
"""


@pytest.mark.parametrize("argv,loads_numpy", [
    ((), False),
    (("dims", "--group", "cyclic:336", "--parity", "odd", "--method", "closed-form"), False),
    (("lens-table",), False),
    (("dims", "--group", "cyclic:336", "--parity", "odd"), False),
    (("dims", "--group", "sl2:5", "--parity", "odd"), False),
    (("dims", "--group", "sl2:5", "--parity", "odd", "--method", "chartab"), False),
    # the probe sees numpy load
    (("classes", "--group", "sl2:5"), True),
    (("dims", "--group", "sl2:5", "--parity", "odd", "--method", "orbit"), True),
], ids=["import", "closed-form", "lens-table", "perm-cyclic", "perm-sl2", "chartab-sl2",
        "classes-sl2", "orbit-sl2"])
def test_numpy_loads_only_where_a_query_needs_it(argv, loads_numpy):
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, *argv],
        capture_output=True, text=True, timeout=60, env=package_env(), check=True,
    )
    assert done.stdout == f"{loads_numpy}\n"


# runs argv through cli.main and prints the package modules it executed; a
# module that _lazy registered and nothing touched is still of the
# LazyLoader's module class, which type() reads without loading it
MODULES_PROBE = """
import contextlib, importlib.util, io, json, sys
from theta_dims import cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(sys.argv[1:]) == 0
print(json.dumps(sorted(
    name for name, module in sys.modules.items()
    if name.partition(".")[0] == "theta_dims" and type(module) is not importlib.util._LazyModule
)))
"""

# the modules every query executes: the package, the command line, and what
# parsing the arguments needs
ENTRY_MODULES = ["theta_dims", "theta_dims._lazy", "theta_dims.cli", "theta_dims.errors",
                 "theta_dims.groups", "theta_dims.limits", "theta_dims.perm"]


@pytest.mark.parametrize("argv,also", [
    ((), []),
    (("dims", "--group", "cyclic:336", "--parity", "odd"), []),
    (("dims", "--group", "sl2:5", "--parity", "odd"), []),
    (("dims", "--group", "sl2:7", "--parity", "even", "--module", "aug-kernel"), []),
    (("dims", "--group", "cyclic:336", "--parity", "odd", "--method", "closed-form"),
     ["theta_dims.lens"]),
    (("lens-table",), ["theta_dims.lens"]),
    (("dims", "--group", "sl2:5", "--parity", "odd", "--method", "chartab"),
     ["theta_dims.chartab"]),
    (("classes", "--group", "cayley:{z4}"), ["theta_dims.cayley"]),
], ids=["import", "perm-cyclic", "perm-sl2-5", "perm-sl2-7", "closed-form", "lens-table",
        "chartab-sl2", "classes-cayley"])
def test_a_query_executes_only_the_modules_it_runs(tmp_path, argv, also):
    z4 = tmp_path / "z4.json"
    z4.write_text(json.dumps({"order": 4, "mul": groups.make_cyclic(4).mul_table.tolist()}))
    done = subprocess.run(
        [sys.executable, "-c", MODULES_PROBE, *(a.format(z4=z4) for a in argv)],
        capture_output=True, text=True, timeout=60, env=package_env(), check=True,
    )
    assert json.loads(done.stdout) == sorted(ENTRY_MODULES + also)


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
        ("dims", "--group", "cyclic:25", "--parity", "odd", "--method", "reynolds"),
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


def _no_table(spec):
    pytest.fail(f"built the group of {spec}")


@pytest.mark.parametrize("argv,message", [
    (("--group", "cyclic:16384", "--method", "chartab"),
     "method chartab needs --char-table FILE (builtin only for sl2:5)"),
    (("--group", "cyclic:16384", "--module", "aug-kernel", "--method", "orbit"),
     "method orbit supports the group algebra only"),
    (("--group", "cyclic:16384", "--symmetry", "pi-pi", "--method", "reynolds"),
     "method reynolds computes the full symmetry only"),
    (("--group", "cyclic:25", "--method", "reynolds"),
     "2925 monomials exceed the reynolds guard 2600"),
    (("--group", "cyclic:16384", "--method", "orbit"),
     "268435456 nodes exceed the orbit guard 10000000"),
    (("--group", "cyclic:3163", "--method", "orbit"),
     "10004569 nodes exceed the orbit guard 10000000"),
    (("--group", "sl2:5", "--method", "reynolds"),
     "295240 monomials exceed the reynolds guard 2600"),
])
def test_argument_errors_precede_the_table(capsys, monkeypatch, argv, message):
    # a cyclic:16384 table is 512 MB; these refusals need only the arguments,
    # and the order guards only the order, which the class data of cyclic:N
    # and sl2:P gives with no table
    monkeypatch.setattr(cli, "parse_group_spec", _no_table)
    code, out, err = run_cli(capsys, "dims", "--parity", "odd", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("n,method,message", [
    (25, "reynolds", "2925 monomials exceed the reynolds guard 2600"),
    (400, "orbit", "160000 nodes exceed the orbit guard 150000"),
])
def test_cube_guard_after_a_cayley_table(tmp_path, capsys, monkeypatch, n, method, message):
    # a cayley: group has no class data before its table is read; oracle then
    # meets the guard from the table's order, before it lists the cube basis
    # (reynolds) or the group's generators (orbit)
    path = tmp_path / f"z{n}.json"
    path.write_text(json.dumps({"order": n, "mul": groups.make_cyclic(n).mul_table.tolist()}))
    monkeypatch.setattr(limits, "ORBIT_NODE_LIMIT", 150_000)
    monkeypatch.setattr(oracle, "_monomials", lambda *args: pytest.fail("listed the basis"))
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
    expected = dataclasses.astuple(lens.lens_dims(16384))[1:]
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
    ("element fixture", ("verify", "fixtures", "--fixture", "{path}"),
     lambda: {"prime": "5", "elements": []}, "fixture prime must be an integer, got '5'"),
], ids=["zero-denominator", "no-radicand", "radicand-1", "not-orthogonal", "power-map",
        "square-radicand", "no-identity", "row-count", "scalar-mul", "fixture-prime"])
def test_a_refused_file_names_the_file(capsys, tmp_path, what, argv, make_raw, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(make_raw()))
    code, out, err = run_cli(capsys, *(a.format(path=path) for a in argv))
    assert (code, out) == (2, "")
    assert re.match(f"error: (cannot read )?{what} {re.escape(repr(str(path)))}: ", err)
    assert message in err and "Traceback" not in err


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


def test_char_table_fit_precedes_orthogonality(capsys, monkeypatch, tmp_path):
    # 32 classes of size 1 cannot fit cyclic:2; that shows from the sizes,
    # before the O(k^3) orthogonality sums of validate
    def no_sums(table):
        raise AssertionError("the orthogonality sums ran")

    monkeypatch.setattr(chartab.CharTable, "validate", no_sums)
    path = tmp_path / "z2_5.json"
    path.write_text(json.dumps(_sign_table(5)))
    code, out, err = run_cli(
        capsys, "dims", "--group", "cyclic:2", "--parity", "odd", "--method", "chartab",
        "--char-table", str(path),
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "does not fit group cyclic:2" in err


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
}


BAD_JSON_INPUTS = {
    "char-rows-scalar": ("char", _sl2f5_table_with(rows=5)),
    "char-rows-not-lists": ("char", _sl2f5_table_with(rows=list(range(9)))),
    "char-names-scalar": ("char", _sl2f5_table_with(class_names=5)),
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
}


@pytest.mark.parametrize("case", sorted(BAD_JSON_INPUTS))
def test_bad_json_inputs_are_usage_errors(capsys, tmp_path, case):
    kind, payload = BAD_JSON_INPUTS[case]
    path = tmp_path / "input.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    argv = {
        "char": ("dims", "--group", "sl2:5", "--parity", "odd", "--method", "chartab",
                 "--char-table", str(path)),
        "cayley": ("dims", "--group", f"cayley:{path}", "--parity", "odd"),
        "fixture": ("verify", "fixtures", "--fixture", str(path)),
    }[kind]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("case", sorted(BAD_CAYLEY_ROWS))
def test_bad_cayley_rows_name_file_and_range(capsys, tmp_path, case):
    n, text = BAD_CAYLEY_ROWS[case]
    path = tmp_path / "table.json"
    path.write_text(text)
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
    calls = count_calls(monkeypatch, (groups, "conjugacy_classes"), (perm, "conjugacy_classes"),
                        (oracle, "dim_invariants_orbit"), (oracle, "dim_invariants_reynolds"))
    verify.verify_cross_methods()
    assert calls["conjugacy_classes"] <= 20
    assert calls["dim_invariants_orbit"] == 17 * 4 + 3 * 2 == 74
    assert calls["dim_invariants_reynolds"] == 16 * 4 == 64


def test_conventions_counts_each_coset_once(monkeypatch):
    # one direct pass over the twisted coset of SL2(F5) for all four
    # module-parity pairs: one `_row_chunks` call per element g
    calls = count_calls(monkeypatch, (groups, "conjugacy_classes"), (perm, "conjugacy_classes"),
                        (perm, "_row_chunks"))
    verify.verify_conventions(True)
    assert calls["conjugacy_classes"] == 2
    assert calls["_row_chunks"] == 120


def test_verify_all_builds_one_sl2f5_reference(capsys, monkeypatch):
    # fixtures and conventions share one reference: SL2(F5) is built and the
    # fixture read once, and its classes are computed for the fixture's class
    # vote and once more inside perm.twisted_coset_average
    calls = count_calls(monkeypatch, (verify, "load_sl2_fixture"))
    sl2_primes, class_orders = collections.Counter(), collections.Counter()
    make_sl2 = groups.make_sl2
    monkeypatch.setattr(groups, "make_sl2", lambda p: sl2_primes.update([p]) or make_sl2(p))
    for module in (groups, perm):
        classes = module.conjugacy_classes
        monkeypatch.setattr(module, "conjugacy_classes",
                            lambda G, classes=classes: class_orders.update([G.order]) or classes(G))
    code, out, _ = run_cli(capsys, "verify", "all", "--with-orbit-check")
    assert code == 0 and out.endswith("ok\n")
    assert (calls["load_sl2_fixture"], sl2_primes[5], class_orders[120]) == (1, 1, 2)


def test_twisted_coset_average_trap(capsys, monkeypatch):
    # a bug trap, not bad input: the direct and class-sum routes disagree
    class_sums = perm._class_sums

    def off_by_one(cd, shift, sign):
        untwisted, twisted = class_sums(cd, shift, sign)
        return untwisted, twisted + 1

    monkeypatch.setattr(perm, "_class_sums", off_by_one)
    with pytest.raises(SimplificationMismatch, match="^group-algebra even: "):
        perm.twisted_coset_average(groups.make_sl2(5))
    code, out, err = run_cli(capsys, "verify", "conventions")
    assert (code, out) == (1, "")
    assert err.startswith("error: group-algebra even: direct twisted average ")


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
        "0,[0,1;2,0],6,6,0,0\n"
        "1,[0,1;2,1],4,2,6,3\n"
        "2,[0,1;2,2],4,4,5,4\n"
        "3,[0,2;1,1],4,4,6,1\n"
        "4,[0,2;1,2],4,2,5,2\n"
        "5,[1,0;0,1],1,5,5,5\n"
        "6,[2,0;0,2],1,5,6,6\n",
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
