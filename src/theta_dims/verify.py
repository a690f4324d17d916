"""Named verification suites behind the command-line `verify` verb, and the
SL2(F5) element fixture (load_sl2_fixture, verify_sl2f5_fixture) they check
the computed classes against.

Each suite returns (ok, lines). Lines are human-readable and deterministic;
the first failing check aborts the suite with a counterexample message.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

from . import chartab, groups, lens, limits, oracle, perm
from .cli import SUITES
from .errors import FixtureMismatch, ParseError

_SL2F5_SIZES = (1, 1, 30, 20, 20, 12, 12, 12, 12)

# the battery groups the projector oracle checks, below its own size guard so
# that the suite stays short; the report states this order
PROJECTOR_ORDER_LIMIT = 12


class VerifyFailure(Exception):
    pass


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise VerifyFailure(message)


# -- the element fixture of SL2(F5) ----------------------------------------------


@dataclasses.dataclass(frozen=True)
class Sl2Fixture:
    """Reference list of all elements of SL2(F_p) with expected class labels."""

    prime: int
    names: tuple[str, ...]
    matrices: tuple[tuple[int, int, int, int], ...]
    class_labels: tuple[str, ...]


@dataclasses.dataclass(frozen=True)
class FixtureReport:
    """Outcome of checking a fixture against the constructed group."""

    mismatches: tuple[str, ...] = ()
    label_class: dict[str, int] = dataclasses.field(default_factory=dict)  # by majority vote

    @property
    def ok(self) -> bool:
        return not self.mismatches


def default_fixture_path() -> Path:
    return Path(__file__).parent / "data" / "sl2f5_elements.json"


def load_sl2_fixture(path: str | Path | None = None) -> Sl2Fixture:
    """Load an element fixture file ({prime, elements:[{name, matrix, class}]})."""
    path = Path(path or default_fixture_path())
    where = f"element fixture {str(path)!r}"
    text = limits._read_text(path, where, limits.FIXTURE_FILE_LIMIT, "a fixture may take")
    try:
        raw = json.loads(text)
        p = limits._json_int(raw["prime"], "fixture prime")
        names, mats, labels = [], [], []
        for rec in raw["elements"]:
            (a, b), (c, d) = rec["matrix"]
            names.append(str(rec["name"]))
            mats.append(tuple(limits._json_int(x, "a matrix entry") for x in (a, b, c, d)))
            labels.append(str(rec["class"]))
    except (RecursionError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"cannot read {where}: {exc!r}") from exc
    return Sl2Fixture(p, tuple(names), tuple(mats), tuple(labels))


def verify_sl2f5_fixture(G: groups.GroupTable, fx: Sl2Fixture) -> FixtureReport:
    """Check the fixture against G = make_sl2(fx.prime).

    Structural failures (wrong cardinality, bad determinants, no bijection
    with the enumerated elements) raise FixtureMismatch. Per-element class
    disagreements are collected in the returned report.
    """
    p = fx.prime
    # |SL2(F_p)| = p (p^2 - 1), checked before any matrix is enumerated
    if G.order != p * (p * p - 1):
        raise FixtureMismatch(f"group order {G.order} != {p * (p * p - 1)}")
    expected = groups.sl2_matrices(p)
    if len(fx.matrices) != len(expected):
        raise FixtureMismatch(
            f"fixture lists {len(fx.matrices)} elements, expected {len(expected)}"
        )
    for name, (a, b, c, d) in zip(fx.names, fx.matrices):
        if (a * d - b * c) % p != 1:
            raise FixtureMismatch(f"{name} has determinant != 1 mod {p}")
    index = {m: i for i, m in enumerate(expected)}
    if set(fx.matrices) != set(index):
        missing = sorted(set(index) - set(fx.matrices))[:3]
        raise FixtureMismatch(f"fixture is not a bijection; e.g. missing {missing}")

    cd = groups.conjugacy_classes(G)
    # pick the label <-> computed-class correspondence by majority vote, then
    # flag the elements that disagree with it
    votes: dict[str, Counter] = defaultdict(Counter)
    for mat, label in zip(fx.matrices, fx.class_labels):
        votes[label][int(cd.class_of[index[mat]])] += 1
    if len(votes) != cd.num_classes:
        raise FixtureMismatch(
            f"fixture names {len(votes)} classes, group has {cd.num_classes}"
        )
    label_class = {label: c.most_common(1)[0][0] for label, c in votes.items()}
    if len(set(label_class.values())) != cd.num_classes:
        raise FixtureMismatch("fixture labels do not separate the computed classes")
    class_label = {v: k for k, v in label_class.items()}
    mismatches = []
    for name, mat, label in zip(fx.names, fx.matrices, fx.class_labels):
        cidx = int(cd.class_of[index[mat]])
        if cidx != label_class[label]:
            mismatches.append(f"{name}: labeled {label}, computed class is {class_label[cidx]}")
    return FixtureReport(tuple(mismatches), label_class)


def fixture_class_order(G: groups.GroupTable, fx: Sl2Fixture) -> dict[str, int]:
    """Map each fixture class label to the computed class index it names."""
    report = verify_sl2f5_fixture(G, fx)
    if not report.ok:
        raise FixtureMismatch("; ".join(report.mismatches))
    return report.label_class


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

    fx = load_sl2_fixture(fixture_path)
    report = verify_sl2f5_fixture(G, fx)
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

    small = [(name, G) for name, G in battery if G.order <= PROJECTOR_ORDER_LIMIT]
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
        f"projector oracle: agrees with the perm path on {len(small)} groups "
        f"(order <= {PROJECTOR_ORDER_LIMIT})"
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
    fx = load_sl2_fixture(fixture_path)
    to_computed = _fixture_to_table_classes(fixture_class_order(G, fx), table)
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
