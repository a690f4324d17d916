"""Command-line front end: dims, lens-table, classes, verify."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from . import chartab, groups, lens, oracle, perm, verify
from .errors import (
    IndicatorOutOfRange,
    MixedRadicand,
    NonRealValue,
    NotAGroup,
    OrthogonalityViolation,
    ParseError,
    ThetaDimsError,
    TooLarge,
)

USAGE_EXIT = 2
FORMATS = ("text", "csv", "json")
METHODS = ("perm", "chartab", "orbit", "reynolds", "closed-form")

# largest lens-table: on a 2-core box 10^5 rows take 2-3 s and 75-105 MB max RSS,
# 10^6 rows 22 s and 750 MB
LENS_TABLE_MAX_N = 100_000


class UsageError(Exception):
    pass


def _to_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _write(fmt: str, payload, keys, rows, text_lines) -> int:
    """Print one result: payload as canonical JSON, rows as CSV under the
    header keys, or the text lines."""
    if fmt == "json":
        sys.stdout.write(_to_json(payload))
        return 0
    if fmt == "csv":
        text_lines = [",".join(keys)] + [",".join(str(row[k]) for k in keys) for row in rows]
    for line in text_lines:
        print(line)
    return 0


def _split_group_spec(spec: str) -> tuple[str, int | str]:
    """The kind and parameter of a group spec: the int N of cyclic:N and P of
    sl2:P, written in ASCII digits, or the FILE of cayley:FILE."""
    kind, _, arg = spec.partition(":")
    if not arg:
        raise UsageError(f"group spec needs a parameter, got {spec!r}")
    if kind not in ("cyclic", "sl2", "cayley"):
        raise UsageError(f"unknown group kind {kind!r} (use cyclic:, sl2:, cayley:)")
    if kind == "cayley":
        return kind, arg
    if not (arg.isascii() and arg.isdigit()):
        raise UsageError(f"group spec {spec!r} needs ASCII digits after {kind}:")
    try:
        return kind, int(arg)
    except ValueError:  # more digits than int() converts
        raise UsageError(f"group spec {spec!r} has too many digits") from None


def parse_group_spec(spec: str) -> groups.GroupTable:
    """cyclic:N, sl2:P, or cayley:FILE (JSON {order, mul}, read by groups.load_cayley)."""
    kind, arg = _split_group_spec(spec)
    if kind == "cyclic":
        return groups.make_cyclic(arg)
    if kind == "sl2":
        return groups.make_sl2(arg)
    return groups.load_cayley(arg)


def _class_data(spec: str) -> groups.ConjugacyData:
    """The class data of the group of spec: by arithmetic, with no table, for
    cyclic:N and sl2:P, and from the table of cayley:FILE."""
    kind, arg = _split_group_spec(spec)
    if kind == "cyclic":
        return groups.cyclic_class_data(arg)
    if kind == "sl2":
        return groups.sl2_class_data(arg)
    return groups.conjugacy_classes(parse_group_spec(spec))


def _check_order_guard(kind: str, arg, method: str, parity: str) -> None:
    """Refuse cyclic:N or sl2:P from its order alone when method's size guard
    would refuse its table, after the checks that building the group makes
    first; a cayley:FILE group meets the guard once it is read."""
    if kind == "cyclic":
        groups._check_cyclic_order(arg)
        oracle.check_order_guard(method, arg, parity)
    elif kind == "sl2":
        groups._check_sl2_prime(arg)
        oracle.check_order_guard(method, arg * (arg * arg - 1), parity)


def _resolve_convention(method: str, convention: str | None) -> str:
    # basis-level inversion is the definition every permutation-style path
    # implements; the flip form exists only on the character-table path
    if convention is None:
        return chartab.FLIP if method == "chartab" else chartab.INVERSION
    if convention == chartab.FLIP and method != "chartab":
        raise UsageError(f"method {method} computes the inversion convention only")
    return convention


def _class_power_sizes(sizes, power2, power3) -> list[tuple[int, int, int]]:
    """The sorted (|C|, |C^2|, |C^3|) of each class C."""
    return sorted((sizes[c], sizes[power2[c]], sizes[power3[c]]) for c in range(len(sizes)))


def _char_table_for(args) -> chartab.CharTable:
    """The table for --group: the --char-table file or the builtin one. The
    table's classes must match the group's in size and in the sizes of their
    square and cube classes; that is necessary, not proof the table is G's."""
    if not args.char_table and _split_group_spec(args.group) != ("sl2", 5):
        raise UsageError("method chartab needs --char-table FILE (builtin only for sl2:5)")
    cd = _class_data(args.group)
    group_side = _class_power_sizes(cd.sizes, cd.power2, cd.power3)

    def fits(table: chartab.CharTable) -> None:
        if _class_power_sizes(table.class_sizes, table.power2, table.power3) != group_side:
            raise UsageError(
                f"the character table does not fit group {args.group}: its classes differ "
                "in size or in the sizes of their square and cube classes"
            )

    if not args.char_table:
        table = chartab.builtin_sl2f5_table()
        fits(table)
        return table
    # checked before the table's orthogonality sums, which take O(k^3)
    return chartab.load_char_table(args.char_table, fits)


def _compute_dims(args) -> int:
    method = args.method
    convention = _resolve_convention(method, args.convention)
    symmetry = args.symmetry
    # the spec's syntax, the method's arguments and the order guards are
    # checked before any table is built
    kind, arg = _split_group_spec(args.group)
    started = time.perf_counter()
    if method == "chartab":
        table = _char_table_for(args)
        if symmetry == perm.FULL:
            value = chartab.dim_invariants_chartab(table, args.module, args.parity, convention)
        else:
            value = perm._as_dimension(
                chartab.diagonal_part(table, args.module, args.parity),
                module=args.module, parity=args.parity, symmetry=symmetry,
            )
    elif method == "closed-form":
        # the closed form needs only the order, so no table is built
        if kind != "cyclic":
            raise UsageError("method closed-form applies to cyclic groups only")
        if symmetry != perm.FULL:
            raise UsageError("method closed-form computes the full symmetry only")
        dims = dataclasses.astuple(lens.lens_dims(arg))[1:]
        value = dims[lens.COLUMNS.index((args.module, args.parity))]
    elif method == "perm":
        value = perm.dim_invariants_perm(
            _class_data(args.group), args.module, args.parity, symmetry
        )
    elif method == "orbit":
        if args.module != perm.GROUP_ALGEBRA:
            raise UsageError("method orbit supports the group algebra only")
        _check_order_guard(kind, arg, method, args.parity)
        value = oracle.dim_invariants_orbit(parse_group_spec(args.group), args.parity, symmetry)
    else:  # reynolds
        if symmetry != perm.FULL:
            raise UsageError("method reynolds computes the full symmetry only")
        _check_order_guard(kind, arg, method, args.parity)
        value = oracle.dim_invariants_reynolds(
            parse_group_spec(args.group), args.module, args.parity
        )
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
    if not 0 <= args.max_n <= LENS_TABLE_MAX_N:
        raise UsageError(f"--max-n must lie in 0..{LENS_TABLE_MAX_N}, got {args.max_n}")
    rows = [dataclasses.asdict(lens.lens_dims(n)) for n in range(1, args.max_n + 1)]
    keys = [f.name for f in dataclasses.fields(lens.LensDims)]
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
    dims.add_argument("--convention", choices=chartab.CONVENTIONS, default=None)
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
    ver.add_argument("suite", nargs="?", choices=verify.SUITES, default="all")
    ver.add_argument(
        "--with-orbit-check",
        action="store_true",
        help="also confirm the big-group values by orbit counting (slow)",
    )
    ver.add_argument("--fixture", help="element fixture JSON (default: packaged copy)")
    ver.set_defaults(func=_cmd_verify)
    return parser


# IndicatorOutOfRange comes only from a loaded character table
_INPUT_ERRORS = (
    UsageError,
    ValueError,
    ParseError,
    NotAGroup,
    TooLarge,
    MixedRadicand,
    NonRealValue,
    OrthogonalityViolation,
    IndicatorOutOfRange,
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except ThetaDimsError as exc:
        # internal consistency traps, never valid input
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
