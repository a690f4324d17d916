"""Command-line front end: dims, lens-table, classes, verify."""

from __future__ import annotations

import argparse
import collections
import os
import sys
import time

from . import groups, limits, perm
from ._lazy import _lazy_import
from .errors import InputError, ThetaDimsError

# the modules that only some verbs and methods run execute on first use
cayley = _lazy_import(f"{__package__}.cayley")
chartab = _lazy_import(f"{__package__}.chartab")
lens = _lazy_import(f"{__package__}.lens")
oracle = _lazy_import(f"{__package__}.oracle")
verify = _lazy_import(f"{__package__}.verify")
# and so do the standard library's writers of --format json and csv
csv = _lazy_import("csv")
json = _lazy_import("json")

USAGE_EXIT = 2
FORMATS = ("text", "csv", "json")
METHODS = ("perm", "chartab", "orbit", "reynolds", "closed-form")
SUITES = ("all", "fixtures", "cross-methods", "conventions")

# each group-spec kind: the module and the name of the function that builds
# its table, and the groups function that builds its class data by arithmetic
# with no table, or None where the class data comes from the table; by name,
# so that a wrapper or patch on the module attribute is seen
_Kind = collections.namedtuple("_Kind", "module table class_data")
_KINDS = {
    "cyclic": _Kind(groups, "make_cyclic", "cyclic_class_data"),
    "sl2": _Kind(groups, "make_sl2", "sl2_class_data"),
    "cayley": _Kind(cayley, "load_cayley", None),
}


class UsageError(Exception):
    pass


def _to_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _write(fmt: str, payload, keys, rows, text_lines) -> int:
    """Print one result: payload as canonical JSON, rows as CSV under the
    header keys, each field quoted only where it holds a comma, a quote or a
    line break, or the text lines."""
    if fmt == "json":
        sys.stdout.write(_to_json(payload))
        return 0
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(keys)
        writer.writerows([row[k] for k in keys] for row in rows)
        return 0
    for line in text_lines:
        print(line)
    return 0


def _split_group_spec(spec: str) -> tuple[str, int | str]:
    """The kind and parameter of a group spec: the int N of cyclic:N and P of
    sl2:P, written in ASCII digits, or the FILE of cayley:FILE."""
    kind, _, arg = spec.partition(":")
    if not arg:
        raise UsageError(f"group spec needs a parameter, got {spec!r}")
    if kind not in _KINDS:
        use = ", ".join(f"{k}:" for k in _KINDS)
        raise UsageError(f"unknown group kind {kind!r} (use {use})")
    if kind == "cayley":
        return kind, arg
    if not (arg.isascii() and arg.isdigit()):
        raise UsageError(f"group spec {spec!r} needs ASCII digits after {kind}:")
    try:
        return kind, int(arg)
    except ValueError:  # more digits than int() converts
        raise UsageError(f"group spec {spec!r} has too many digits") from None


def parse_group_spec(spec: str) -> groups.GroupTable:
    """cyclic:N, sl2:P, or cayley:FILE (JSON {order, mul}, read by cayley.load_cayley)."""
    kind, arg = _split_group_spec(spec)
    return getattr(_KINDS[kind].module, _KINDS[kind].table)(arg)


def _class_data(spec: str) -> groups.ConjugacyData:
    """The class data of the group of spec: by arithmetic, with no table, for
    cyclic:N and sl2:P, and from the table of cayley:FILE."""
    kind, arg = _split_group_spec(spec)
    if _KINDS[kind].class_data is None:
        return groups.conjugacy_classes(parse_group_spec(spec))
    return getattr(groups, _KINDS[kind].class_data)(arg)


def _resolve_convention(method: str, convention: str | None) -> str:
    # basis-level inversion is the definition every permutation-style path
    # implements; the flip form exists only on the character-table path
    if convention is None:
        return perm.FLIP if method == "chartab" else perm.INVERSION
    if convention == perm.FLIP and method != "chartab":
        raise UsageError(f"method {method} computes the inversion convention only")
    return convention


def _class_power_sizes(sizes, power2, power3) -> list[tuple[int, int, int]]:
    """The sorted (|C|, |C^2|, |C^3|) of each class C."""
    return sorted((sizes[c], sizes[power2[c]], sizes[power3[c]]) for c in range(len(sizes)))


def _char_table_for(args) -> chartab.CharTable:
    """The table for --group: the builtin one for sl2:5, whose classes
    `verify fixtures` matches with SL2(F5)'s one by one, or the --char-table
    file. A file's classes must match the group's in size and in the sizes of
    their square and cube classes; that is necessary, not proof the table is G's."""
    if args.char_table is None:
        if _split_group_spec(args.group) != ("sl2", 5):
            raise UsageError("method chartab needs --char-table FILE (builtin only for sl2:5)")
        return chartab.builtin_sl2f5_table()
    cd = _class_data(args.group)
    table = chartab.load_char_table(args.char_table)
    if (_class_power_sizes(table.class_sizes, table.power2, table.power3)
            != _class_power_sizes(cd.sizes, cd.power2, cd.power3)):
        raise UsageError(
            f"the character table does not fit group {args.group}: its classes differ "
            "in size or in the sizes of their square and cube classes"
        )
    return table


def _compute_dims(args) -> int:
    method = args.method
    convention = _resolve_convention(method, args.convention)
    if args.char_table is not None and method != "chartab":
        raise UsageError(f"method {method} reads no character table")
    symmetry = args.symmetry
    # the spec's syntax, the method's arguments and the order guards are
    # checked before any table is built
    kind, arg = _split_group_spec(args.group)
    started = time.perf_counter()
    if method == "chartab":
        value = chartab.dim_invariants_chartab(
            _char_table_for(args), args.module, args.parity, convention, symmetry
        )
    elif method == "closed-form":
        # the closed form needs only the order, so no table is built
        if kind != "cyclic":
            raise UsageError("method closed-form applies to cyclic groups only")
        if symmetry != perm.FULL:
            raise UsageError("method closed-form computes the full symmetry only")
        dims = tuple(lens.lens_dims(arg))[1:]
        value = dims[lens.COLUMNS.index((args.module, args.parity))]
    elif method == "perm":
        value = perm.dim_invariants_perm(
            _class_data(args.group), args.module, args.parity, symmetry
        )
    else:  # orbit or reynolds
        if method == "orbit" and args.module != perm.GROUP_ALGEBRA:
            raise UsageError("method orbit supports the group algebra only")
        if _KINDS[kind].class_data:  # the size guard from the order, before the table
            oracle.check_order_guard(method, _class_data(args.group).order, args.parity)
        G = parse_group_spec(args.group)
        value = (oracle.dim_invariants_orbit(G, args.parity, symmetry) if method == "orbit"
                 else oracle.dim_invariants_reynolds(G, args.module, args.parity, symmetry))
    elapsed = time.perf_counter() - started

    record = {
        "group": args.group,
        "module": args.module,
        "parity": args.parity,
        "symmetry": symmetry,
        "method": method,
        "convention": convention,
        "dimension": value,
    }
    text = [
        f"group={args.group} module={args.module} parity={args.parity} "
        f"symmetry={symmetry} method={method} convention={convention}",
        f"dimension: {value}",
        f"elapsed: {elapsed:.3f}s",
    ]
    return _write(args.format, record, list(record), [record], text)


def _cmd_lens_table(args) -> int:
    if not 0 <= args.max_n <= limits.LENS_TABLE_MAX_N:
        raise UsageError(f"--max-n must lie in 0..{limits.LENS_TABLE_MAX_N}, got {args.max_n}")
    rows = [lens.lens_dims(n)._asdict() for n in range(1, args.max_n + 1)]
    keys = list(lens.LensDims._fields)
    text = [f"{'n':>3} {'odd C[pi]':>10} {'even C[pi]':>11} {'odd Ker':>8} {'even Ker':>9}"]
    text += [
        f"{r['n']:>3} {r['odd_group_algebra']:>10} {r['even_group_algebra']:>11} "
        f"{r['odd_aug_kernel']:>8} {r['even_aug_kernel']:>9}"
        for r in rows
    ]
    return _write(args.format, rows, keys, rows, text)


def _cmd_classes(args) -> int:
    G = parse_group_spec(args.group)
    cd = groups.conjugacy_classes(G)
    rows = [
        {
            "class": c,
            "representative": G.label(cd.reps[c]),
            "size": cd.sizes[c],
            "square_class": cd.power2[c],
            "cube_class": cd.power3[c],
            "inverse_class": cd.inverse[c],
        }
        for c in range(cd.num_classes)
    ]
    orbit_count = cd.inversion_orbits
    payload = {"group": args.group, "classes": rows, "inversion_orbits": orbit_count}
    text = [f"group={args.group} classes={cd.num_classes} inversion_orbits={orbit_count}"]
    text += [
        f"class {row['class']}: rep {row['representative']} size {row['size']} "
        f"square->{row['square_class']} cube->{row['cube_class']} "
        f"inverse->{row['inverse_class']}"
        for row in rows
    ]
    return _write(args.format, payload, list(rows[0]), rows, text)


def _cmd_verify(args) -> int:
    if args.fixture is not None and args.suite == "cross-methods":
        raise UsageError("suite cross-methods reads no element fixture")
    if args.with_orbit_check and args.suite not in ("all", "conventions"):
        raise UsageError(f"suite {args.suite} takes no --with-orbit-check")
    ok, lines = verify.run_suite(
        args.suite, with_orbit_check=args.with_orbit_check, fixture_path=args.fixture
    )
    for line in lines:
        print(line)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="theta-dims",
        description="Exact invariant dimensions of cubic tensors over finite group algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dims = sub.add_parser("dims", help="compute one invariant dimension")
    dims.add_argument("--group", required=True, help="cyclic:N | sl2:P | cayley:FILE")
    dims.add_argument("--module", choices=perm.MODULES, default=perm.GROUP_ALGEBRA)
    dims.add_argument("--parity", choices=perm.PARITIES, required=True)
    dims.add_argument("--symmetry", choices=perm.SYMMETRIES, default=perm.FULL)
    dims.add_argument("--method", choices=METHODS, default="perm")
    dims.add_argument("--convention", choices=perm.CONVENTIONS, default=None)
    dims.add_argument("--char-table", help="character table JSON for method chartab")
    dims.add_argument("--format", choices=FORMATS, default="text")
    dims.set_defaults(func=_compute_dims)

    lens_table = sub.add_parser("lens-table", help="table of cyclic-group dimensions")
    lens_table.add_argument("--max-n", type=int, default=15)
    lens_table.add_argument("--format", choices=FORMATS, default="text")
    lens_table.set_defaults(func=_cmd_lens_table)

    classes = sub.add_parser("classes", help="conjugacy classes with power maps")
    classes.add_argument("--group", required=True, help="cyclic:N | sl2:P | cayley:FILE")
    classes.add_argument("--format", choices=FORMATS, default="text")
    classes.set_defaults(func=_cmd_classes)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("suite", nargs="?", choices=SUITES, default="all")
    ver.add_argument(
        "--with-orbit-check",
        action="store_true",
        help="also confirm SL2(F5)'s group-algebra values by orbit counting",
    )
    ver.add_argument("--fixture", help="element fixture JSON (default: packaged copy)")
    ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    # OpenBLAS starts its worker threads when numpy loads, and by default an
    # idle one spins about 2^28 cycles (~0.1 s) before it sleeps: CPU spent
    # even by queries that never call BLAS. 4 is the least value OpenBLAS
    # takes, and waking sleeping workers cost no measurable time between
    # back-to-back products. Set here, before anything loads numpy, since the
    # command owns its process; a value the user set is kept.
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # inside the try, so that a reader gone early is caught here
        return code
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so that the flush at
        # exit does not raise again, and exit as a writer killed by SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (UsageError, ValueError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except ThetaDimsError as exc:
        # internal consistency traps, never valid input
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
