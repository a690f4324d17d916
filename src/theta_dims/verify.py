"""Named verification suites behind the command-line `verify` verb, and the
SL2(F5) element fixture (load_sl2_fixture, verify_sl2f5_fixture) they check
the computed classes against.

`fixtures` and `conventions` read one reference, `_sl2f5`, which run_suite
builds once per run, so the fixture is read once and a bad one fails both
alike; `cross-methods` computes each group's values once.

Each suite returns (ok, lines). Lines are human-readable and deterministic;
the first failing check aborts the suite with a counterexample message.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from . import chartab, classdata, groups, lens, limits, oracle, perm
from .cli import SUITES
from .errors import FixtureMismatch, ParseError

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
    classes: classdata.ConjugacyData | None = None  # the group's, as computed for the vote

    @property
    def ok(self) -> bool:
        return not self.mismatches


def default_fixture_path() -> Path:
    return Path(__file__).parent / "data" / "sl2f5_elements.json"


def load_sl2_fixture(path: str | Path | None = None) -> Sl2Fixture:
    """Load an element fixture file ({prime, elements:[{name, matrix, class}]})
    through limits.read_input, which names the file in every refusal."""
    if path is None:
        path = default_fixture_path()
    return limits.read_input(path, "element fixture", _fixture_of, lambda fx: fx)


def _fixture_of(text: str) -> Sl2Fixture:
    raw = json.loads(text)
    if not isinstance(raw, dict):
        raise ParseError(f"expected a JSON object, got {type(raw).__name__}")
    p = limits._json_int(raw["prime"], "fixture prime")
    elements = raw["elements"]
    if not isinstance(elements, list) or not all(isinstance(rec, dict) for rec in elements):
        raise ParseError(f"'elements' must be a list of objects, got {elements!r:.40}")
    names, mats, labels = [], [], []
    for rec in elements:
        matrix = rec["matrix"]
        if not (isinstance(matrix, list) and len(matrix) == 2
                and all(isinstance(row, list) and len(row) == 2 for row in matrix)):
            raise ParseError(f"an element's 'matrix' must be a 2x2 matrix, got {matrix!r:.40}")
        (a, b), (c, d) = matrix
        names.append(str(rec["name"]))
        mats.append(tuple(limits._json_int(x, "a matrix entry") for x in (a, b, c, d)))
        labels.append(str(rec["class"]))
    return Sl2Fixture(p, tuple(names), tuple(mats), tuple(labels))


def verify_sl2f5_fixture(G: groups.GroupTable, fx: Sl2Fixture) -> FixtureReport:
    """Check the fixture against G = make_sl2(fx.prime), whose labels name
    its elements' matrices.

    Structural failures (wrong cardinality, bad determinants, no bijection
    with G's elements) raise FixtureMismatch. Per-element class
    disagreements are collected in the returned report.
    """
    p = fx.prime
    # |SL2(F_p)| = p (p^2 - 1), checked before any label is compared
    if G.order != p * (p * p - 1):
        raise FixtureMismatch(f"group order {G.order} != {p * (p * p - 1)}")
    if len(fx.matrices) != G.order:
        raise FixtureMismatch(f"fixture lists {len(fx.matrices)} elements, expected {G.order}")
    for name, (a, b, c, d) in zip(fx.names, fx.matrices):
        if (a * d - b * c) % p != 1:
            raise FixtureMismatch(f"{name} has determinant != 1 mod {p}")
    index = {label: i for i, label in enumerate(G.labels)}
    listed = [classdata._sl2_label(m) for m in fx.matrices]
    present = set(listed)
    missing = [label for label in G.labels if label not in present]
    if missing:
        raise FixtureMismatch(f"fixture is not a bijection; e.g. missing {missing[:3]}")

    cd = groups.conjugacy_classes(G)
    # pick the label <-> computed-class correspondence by majority vote, then
    # flag the elements that disagree with it
    votes: dict[str, Counter] = defaultdict(Counter)
    for element, label in zip(listed, fx.class_labels):
        votes[label][int(cd.class_of[index[element]])] += 1
    if len(votes) != cd.num_classes:
        raise FixtureMismatch(
            f"fixture names {len(votes)} classes, group has {cd.num_classes}"
        )
    label_class = {label: c.most_common(1)[0][0] for label, c in votes.items()}
    if len(set(label_class.values())) != cd.num_classes:
        raise FixtureMismatch("fixture labels do not separate the computed classes")
    class_label = {v: k for k, v in label_class.items()}
    mismatches = []
    for name, element, label in zip(fx.names, listed, fx.class_labels):
        cidx = int(cd.class_of[index[element]])
        if cidx != label_class[label]:
            mismatches.append(f"{name}: labeled {label}, computed class is {class_label[cidx]}")
    return FixtureReport(tuple(mismatches), label_class, cd)


class _Sl2f5(NamedTuple):
    """SL2(F5) and the references the fixtures and conventions suites read."""

    G: groups.GroupTable
    cd: classdata.ConjugacyData
    table: chartab.CharTable
    to_computed: list[int]  # the computed class index of each table class


def _sl2f5(fixture_path) -> _Sl2f5:
    """SL2(F5), its classes and the builtin table, with the element fixture
    checked against the classes and the table validated, once per run; a
    fixture mismatch fails the suite."""
    G = groups.make_sl2(5)
    fx = load_sl2_fixture(fixture_path)
    report = verify_sl2f5_fixture(G, fx)
    _expect(report.ok, f"element fixture mismatches: {report.mismatches[:3]}")
    table = chartab.builtin_sl2f5_table()
    table.validate()
    # fixture labels c1..c9 follow the table's class order
    labels = [f"c{i + 1}" for i in range(table.num_classes)]
    _expect(report.label_class.keys() == set(labels), f"fixture labels are not {labels}")
    return _Sl2f5(G, report.classes, table, [report.label_class[c] for c in labels])


def verify_fixtures(reference=None) -> list[str]:
    """SL2(F5)'s classes against the element fixture and the builtin table:
    every element's class (checked in _sl2f5), each class's size, square and
    cube, and inversion acting trivially on classes. The table was validated
    in _sl2f5. reference is the fixture's _sl2f5, by default the shipped
    fixture's."""
    G, cd, table, to_computed = reference or _sl2f5(None)
    for i, c in enumerate(to_computed):
        name = table.class_names[i]
        _expect(cd.power2[c] == to_computed[table.power2[i]],
                f"square of class {name} disagrees with the power table")
        _expect(cd.power3[c] == to_computed[table.power3[i]],
                f"cube of class {name} disagrees with the power table")
        _expect(cd.sizes[c] == table.class_sizes[i],
                f"size of class {name} disagrees with the table")
    _expect(cd.inverse == tuple(range(9)),
            f"inversion on classes is {cd.inverse}, expected trivial")
    return [
        "classes: 9 classes with sizes {1,1,30,20,20,12,12,12,12}",
        f"element fixture: all {G.order} elements classified correctly",
        "character table: 45 orthogonality sums exact",
        "power maps: computed squares/cubes match the table classes",
        "inversion: acts trivially on all 9 classes",
    ]


def verify_cross_methods() -> list[str]:
    """The perm path against the other methods, in one pass over the battery
    groups and Z13..Z15 that computes each group's classes, its eight perm
    values and each orbit value once. The checks: orbit = perm on the group
    algebra (both symmetries on the battery, the full one on Z13..Z15);
    reynolds = perm on the battery up to PROJECTOR_ORDER_LIMIT; the split
    identities; and the closed forms of Z1..Z15 = perm. The orbit route to
    the closed forms follows from the first and the third, so it is not
    counted again."""
    battery = groups.battery_groups()
    lens_only = [(f"Z{n}", groups.make_cyclic(n)) for n in range(13, 16)]
    by_perm = {}
    small = 0
    for index, (name, G) in enumerate(battery + lens_only):
        in_battery = index < len(battery)
        cd = groups.conjugacy_classes(G)
        values = by_perm[name] = {
            key: perm.dim_invariants_perm(cd, *key)
            for key in itertools.product(perm.MODULES, perm.PARITIES, perm.SYMMETRIES)
        }
        for parity in perm.PARITIES:
            for symmetry in perm.SYMMETRIES if in_battery else (perm.FULL,):
                a = values[perm.GROUP_ALGEBRA, parity, symmetry]
                b = oracle.dim_invariants_orbit(G, parity, symmetry)
                _expect(a == b, f"{name} {parity} {symmetry}: perm {a} != orbit {b}")

        if in_battery and G.order <= PROJECTOR_ORDER_LIMIT:
            small += 1
            for module, parity in itertools.product(perm.MODULES, perm.PARITIES):
                a = values[module, parity, perm.FULL]
                b = oracle.dim_invariants_reynolds(G, module, parity)
                _expect(a == b, f"{name} {module} {parity}: perm {a} != projector rank {b}")

        even_ca, odd_ca, even_ker, odd_ker = (
            values[module, parity, perm.FULL] for module in perm.MODULES for parity in perm.PARITIES
        )
        _expect(even_ca == even_ker, f"{name}: even {even_ca} != kernel even {even_ker}")
        orbits = cd.inversion_orbits
        _expect(odd_ca - odd_ker == orbits,
                f"{name}: odd split {odd_ca}-{odd_ker} != inversion orbits {orbits}")

    for n in range(1, 16):
        got = tuple(by_perm[f"Z{n}"][module, parity, perm.FULL] for module, parity in lens.COLUMNS)
        closed = tuple(lens.lens_dims(n))[1:]
        _expect(got == closed, f"n={n}: closed {closed}, perm {got}")
    return [
        f"orbit oracle: agrees with the perm path on {len(battery)} groups",
        f"projector oracle: agrees with the perm path on {small} groups "
        f"(order <= {PROJECTOR_ORDER_LIMIT})",
        "split identities: hold on every battery group",
        "cyclic table: closed forms, perm path and orbit route agree for n <= 15",
    ]


def verify_conventions(with_orbit_check: bool = False, reference=None) -> list[str]:
    """SL2(F5)'s flip and inversion values from its table; the inversion ones
    and the twisted parts against the perm path, the indicators against
    square-root counts, and optionally the orbit count. reference is as for
    verify_fixtures."""
    G, cd, table, to_computed = reference or _sl2f5(None)
    nus = chartab.fs_indicators(table)
    lines = ["squared-power indicators: " + ", ".join(
        f"row{i + 1}={nu:+d}" for i, nu in enumerate(nus)
    )]
    _expect(nus[1] == -1, f"second row indicator {nus[1]} != -1")

    # the indicator-weighted column sums tau_part reads must count square roots
    sqrt_count = [0] * cd.num_classes
    for z in range(G.order):
        sqrt_count[int(cd.class_of[G.mul(z, z)])] += 1
    roots = chartab._coset_roots(table, chartab.INVERSION)
    for i, (c, weighted) in enumerate(zip(to_computed, roots)):
        expected = Fraction(sqrt_count[c], cd.sizes[c])
        _expect(
            weighted == expected,
            f"class {table.class_names[i]}: weighted sum {weighted!r} != "
            f"square-root count {expected}",
        )
    lines.append("indicator-weighted sums match per-class square-root counts")

    keys = list(itertools.product(perm.MODULES, perm.PARITIES))
    flip = {key: chartab.dim_invariants_chartab(table, *key, chartab.FLIP) for key in keys}
    expected_flip = dict(zip(keys, (27, 65, 27, 56)))
    _expect(flip == expected_flip, f"flip-convention values {flip} != {expected_flip}")
    lines.append("flip convention: even/odd of the group algebra = 27/65, of the kernel = 27/56")

    # the twisted average directly, from the class sums as 2 full - pi-pi
    # (full averages the two cosets, pi-pi is the untwisted one), from the table
    inversion, twisted = {}, perm.twisted_coset_average(G)
    for module, parity in keys:
        direct = twisted[module, parity]
        full = perm.dim_invariants_perm(cd, module, parity, perm.FULL)
        reduced = 2 * full - perm.dim_invariants_perm(cd, module, parity, perm.PI_PI)
        _expect(direct == reduced, f"{module} {parity}: direct twisted average {direct} "
                                   f"!= reduced class-sum value {reduced}")
        via_table = chartab.tau_part(table, module, parity, chartab.INVERSION)
        _expect(via_table == direct, f"{module} {parity}: weighted twisted part {via_table} "
                                     f"!= permutation value {direct}")
        a = chartab.dim_invariants_chartab(table, module, parity, chartab.INVERSION)
        _expect(a == full, f"{module} {parity}: inversion via table {a} != via permutations {full}")
        inversion[module, parity] = a
    lines.append(
        "inversion convention (two independent routes agree): "
        + ", ".join(f"{m}/{p}={v}" for (m, p), v in sorted(inversion.items()))
    )
    lines.append("note: flip and inversion values are reported side by side, not equated")

    if with_orbit_check:
        for parity in perm.PARITIES:
            got = oracle.dim_invariants_orbit(G, parity, perm.FULL)
            want = inversion[perm.GROUP_ALGEBRA, parity]
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
    reference = None  # fixtures' and conventions' _sl2f5, built by the first of them
    for suite in chosen:
        lines.append(f"[{suite}]")
        try:
            if suite != "cross-methods":
                reference = reference or _sl2f5(fixture_path)
            if suite == "fixtures":
                lines += verify_fixtures(reference)
            elif suite == "cross-methods":
                lines += verify_cross_methods()
            else:
                lines += verify_conventions(with_orbit_check, reference)
        except (VerifyFailure, FixtureMismatch) as exc:
            lines.append(f"FAIL: {exc}")
            return False, lines
        lines.append("ok")
    return True, lines
