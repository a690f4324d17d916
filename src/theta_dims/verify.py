"""Named verification suites behind the command-line `verify` verb.

Each suite returns (ok, lines). Lines are human-readable and deterministic;
the first failing check aborts the suite with a counterexample message.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from . import chartab, groups, lens, oracle, perm
from .errors import FixtureMismatch

SUITES = ("all", "fixtures", "cross-methods", "conventions")

_SL2F5_SIZES = (1, 1, 30, 20, 20, 12, 12, 12, 12)


class VerifyFailure(Exception):
    pass


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise VerifyFailure(message)


def _fixture_to_table_classes(label_class, table):
    """Computed class index for each table class, via the fixture labels."""
    # fixture labels c1..c9 follow the table's class order
    return [label_class[f"c{i + 1}"] for i in range(table.num_classes)]


def verify_fixtures(fixture_path=None) -> list[str]:
    lines = []
    G = groups.make_sl2(5)
    _expect(G.order == 120, f"group order {G.order} != 120")
    cd = groups.conjugacy_classes(G)
    _expect(cd.num_classes == 9, f"{cd.num_classes} classes != 9")
    _expect(
        sorted(cd.sizes) == sorted(_SL2F5_SIZES),
        f"class sizes {sorted(cd.sizes)} != {sorted(_SL2F5_SIZES)}",
    )
    lines.append("classes: 9 classes with sizes {1,1,30,20,20,12,12,12,12}")

    fx = groups.load_sl2_fixture(fixture_path)
    report = groups.verify_sl2f5_fixture(G, fx)
    _expect(report.ok, f"element fixture mismatches: {report.mismatches[:3]}")
    lines.append(f"element fixture: all {len(fx.matrices)} elements classified correctly")

    table = chartab.builtin_sl2f5_table()
    table.validate()
    lines.append("character table: 45 orthogonality sums exact")

    to_computed = _fixture_to_table_classes(report.label_class, table)
    for i in range(table.num_classes):
        _expect(
            cd.power2[to_computed[i]] == to_computed[table.power2[i]],
            f"square of class {table.class_names[i]} disagrees with the power table",
        )
        _expect(
            cd.power3[to_computed[i]] == to_computed[table.power3[i]],
            f"cube of class {table.class_names[i]} disagrees with the power table",
        )
        _expect(
            cd.sizes[to_computed[i]] == table.class_sizes[i],
            f"size of class {table.class_names[i]} disagrees with the table",
        )
    lines.append("power maps: computed squares/cubes match the table classes")

    _expect(
        cd.inverse == tuple(range(9)) and cd.inversion_orbits == 9,
        f"inversion on classes is {cd.inverse} with {cd.inversion_orbits} orbits, "
        "expected trivial",
    )
    lines.append("inversion: acts trivially on all 9 classes")
    return lines


def _lens_third_route(G, orbit_count: int) -> tuple[int, int, int, int]:
    """The lens.COLUMNS dimensions by orbit counting on the group algebra,
    extended to the kernel columns through the general split identities."""
    odd = oracle.dim_invariants_orbit(G, perm.ODD, perm.FULL)
    even = oracle.dim_invariants_orbit(G, perm.EVEN, perm.FULL)
    return odd, even, odd - orbit_count, even


def verify_cross_methods() -> list[str]:
    lines = []
    battery = groups.battery_groups()
    for name, G in battery:
        for parity in perm.PARITIES:
            for symmetry in perm.SYMMETRIES:
                a = perm.dim_invariants_perm(G, perm.GROUP_ALGEBRA, parity, symmetry)
                b = oracle.dim_invariants_orbit(G, parity, symmetry)
                _expect(
                    a == b,
                    f"{name} {parity} {symmetry}: perm {a} != orbit {b}",
                )
    lines.append(f"orbit oracle: agrees with the perm path on {len(battery)} groups")

    small = [(name, G) for name, G in battery if G.order <= oracle.REYNOLDS_ORDER_LIMIT]
    for name, G in small:
        for module in perm.MODULES:
            for parity in perm.PARITIES:
                a = perm.dim_invariants_perm(G, module, parity, perm.FULL)
                b = oracle.dim_invariants_reynolds(G, module, parity)
                _expect(
                    a == b,
                    f"{name} {module} {parity}: perm {a} != projector rank {b}",
                )
    lines.append(
        f"projector oracle: agrees with the perm path on {len(small)} groups (order <= 12)"
    )

    for name, G in battery:
        orbit_count = groups.conjugacy_classes(G).inversion_orbits
        even_ca = perm.dim_invariants_perm(G, perm.GROUP_ALGEBRA, perm.EVEN, perm.FULL)
        even_ker = perm.dim_invariants_perm(G, perm.AUG_KERNEL, perm.EVEN, perm.FULL)
        odd_ca = perm.dim_invariants_perm(G, perm.GROUP_ALGEBRA, perm.ODD, perm.FULL)
        odd_ker = perm.dim_invariants_perm(G, perm.AUG_KERNEL, perm.ODD, perm.FULL)
        _expect(even_ca == even_ker, f"{name}: even {even_ca} != kernel even {even_ker}")
        _expect(
            odd_ca - odd_ker == orbit_count,
            f"{name}: odd split {odd_ca}-{odd_ker} != inversion orbits {orbit_count}",
        )
    lines.append("split identities: hold on every battery group")

    for n in range(1, 16):
        G = groups.make_cyclic(n)
        closed = lens.lens_dims(n)
        by_perm = tuple(
            perm.dim_invariants_perm(G, module, parity, perm.FULL)
            for module, parity in lens.COLUMNS
        )
        by_orbit = _lens_third_route(G, groups.conjugacy_classes(G).inversion_orbits)
        by_closed = dataclasses.astuple(closed)[1:]
        _expect(
            by_perm == by_closed and by_orbit == by_closed,
            f"n={n}: closed {by_closed}, perm {by_perm}, orbit {by_orbit}",
        )
    lines.append("cyclic table: closed forms, perm path and orbit route agree for n <= 15")
    return lines


def verify_conventions(with_orbit_check: bool = False, fixture_path=None) -> list[str]:
    lines = []
    G = groups.make_sl2(5)
    table = chartab.builtin_sl2f5_table()
    nus = chartab.fs_indicators(table)
    lines.append(
        "squared-power indicators: "
        + ", ".join(f"row{i + 1}={nu:+d}" for i, nu in enumerate(nus))
    )
    _expect(nus[0] == 1, "trivial row indicator must be +1")
    _expect(nus[1] == -1, f"second row indicator {nus[1]} != -1")

    # the indicator-weighted column sums must count square roots in the group
    cd = groups.conjugacy_classes(G)
    fx = groups.load_sl2_fixture(fixture_path)
    to_computed = _fixture_to_table_classes(groups.fixture_class_order(G, fx), table)
    sqrt_count = [0] * cd.num_classes
    for z in range(G.order):
        sqrt_count[int(cd.class_of[G.mul(z, z)])] += 1
    for i in range(table.num_classes):
        weighted = chartab.QuadValue.of(0, table.radicand)
        for j in range(table.num_classes):
            weighted = weighted + nus[j] * table.rows[j][i]
        c = to_computed[i]
        expected = Fraction(sqrt_count[c], cd.sizes[c])
        _expect(
            weighted == chartab.QuadValue.of(expected, table.radicand),
            f"class {table.class_names[i]}: weighted sum {weighted!r} != "
            f"square-root count {expected}",
        )
    lines.append("indicator-weighted sums match per-class square-root counts")

    flip = {
        (module, parity): chartab.dim_invariants_chartab(table, module, parity, chartab.FLIP)
        for module in perm.MODULES
        for parity in perm.PARITIES
    }
    expected_flip = {
        (perm.GROUP_ALGEBRA, perm.EVEN): 27,
        (perm.GROUP_ALGEBRA, perm.ODD): 65,
        (perm.AUG_KERNEL, perm.EVEN): 27,
        (perm.AUG_KERNEL, perm.ODD): 56,
    }
    _expect(flip == expected_flip, f"flip-convention values {flip} != {expected_flip}")
    lines.append(
        "flip convention: even/odd of the group algebra = 27/65, of the kernel = 27/56"
    )

    for module in perm.MODULES:
        for parity in perm.PARITIES:
            via_table = chartab.tau_part(table, module, parity, chartab.INVERSION)
            via_perm = perm.twisted_coset_average(G, module, parity)
            _expect(
                via_table == via_perm,
                f"{module} {parity}: weighted twisted part {via_table} != "
                f"permutation value {via_perm}",
            )
    inversion = {}
    for module in perm.MODULES:
        for parity in perm.PARITIES:
            a = chartab.dim_invariants_chartab(table, module, parity, chartab.INVERSION)
            b = perm.dim_invariants_perm(G, module, parity, perm.FULL)
            _expect(
                a == b,
                f"{module} {parity}: inversion via table {a} != via permutations {b}",
            )
            inversion[(module, parity)] = a
    lines.append(
        "inversion convention (two independent routes agree): "
        + ", ".join(
            f"{m}/{p}={v}" for (m, p), v in sorted(inversion.items())
        )
    )
    lines.append("note: flip and inversion values are reported side by side, not equated")

    if with_orbit_check:
        for parity in perm.PARITIES:
            got = oracle.dim_invariants_orbit(G, parity, perm.FULL)
            want = inversion[(perm.GROUP_ALGEBRA, parity)]
            _expect(got == want, f"orbit check {parity}: {got} != {want}")
        lines.append("orbit oracle confirms the inversion group-algebra values")
    return lines


def run_suite(
    name: str, with_orbit_check: bool = False, fixture_path=None
) -> tuple[bool, list[str]]:
    """Run one named suite (or all); returns (ok, report lines)."""
    if name not in SUITES:
        raise ValueError(f"suite must be one of {SUITES}, got {name!r}")
    chosen = ("fixtures", "cross-methods", "conventions") if name == "all" else (name,)
    lines: list[str] = []
    for suite in chosen:
        lines.append(f"[{suite}]")
        try:
            if suite == "fixtures":
                lines += verify_fixtures(fixture_path)
            elif suite == "cross-methods":
                lines += verify_cross_methods()
            else:
                lines += verify_conventions(with_orbit_check, fixture_path)
        except (VerifyFailure, FixtureMismatch) as exc:
            lines.append(f"FAIL: {exc}")
            return False, lines
        lines.append("ok")
    return True, lines
