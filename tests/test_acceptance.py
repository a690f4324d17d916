"""Acceptance criteria, one test per criterion, each printing a PASS line.

Everything is exact integer/rational arithmetic, so there are no numeric
tolerances; the only budgets are wall-clock ones, asserted where stated.
Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import random
import time

from theta_dims import chartab, cli, groups, lens, oracle, perm, verify

# frozen reference values of the cyclic-group dimensions for n = 1..15
REFERENCE_TABLE = {
    "odd_ca": [1, 2, 3, 4, 5, 7, 8, 10, 12, 14, 16, 19, 21, 24, 27],
    "even_ca": [0, 0, 0, 0, 0, 1, 1, 2, 3, 4, 5, 7, 8, 10, 12],
    "odd_ker": [0, 0, 1, 1, 2, 3, 4, 5, 7, 8, 10, 12, 14, 16, 19],
    "even_ker": [0, 0, 0, 0, 0, 1, 1, 2, 3, 4, 5, 7, 8, 10, 12],
}


class _criterion:
    def __init__(self, number, label):
        self.number = number
        self.label = label

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    @property
    def elapsed(self):
        return time.perf_counter() - self.started

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.number:>2}] {status} ({self.elapsed:.2f}s): {self.label}")
        return False


def test_criterion_01_headline_numbers():
    with _criterion(1, "headline dimensions 27/65/27/56 (flip, character table)") as c:
        t = chartab.builtin_sl2f5_table()
        assert chartab.dim_invariants_chartab(t, perm.GROUP_ALGEBRA, perm.EVEN, chartab.FLIP) == 27
        assert chartab.dim_invariants_chartab(t, perm.GROUP_ALGEBRA, perm.ODD, chartab.FLIP) == 65
        assert chartab.dim_invariants_chartab(t, perm.AUG_KERNEL, perm.EVEN, chartab.FLIP) == 27
        assert chartab.dim_invariants_chartab(t, perm.AUG_KERNEL, perm.ODD, chartab.FLIP) == 56
        assert c.elapsed < 1.0


def test_criterion_02_intermediate_values():
    with _criterion(2, "diagonal 33/71, twisted 21/59, averages 27/65"):
        t = chartab.builtin_sl2f5_table()
        diag_even = chartab.diagonal_part(t, perm.GROUP_ALGEBRA, perm.EVEN)
        diag_odd = chartab.diagonal_part(t, perm.GROUP_ALGEBRA, perm.ODD)
        tau_even = chartab.tau_part(t, perm.GROUP_ALGEBRA, perm.EVEN, chartab.FLIP)
        tau_odd = chartab.tau_part(t, perm.GROUP_ALGEBRA, perm.ODD, chartab.FLIP)
        assert (diag_even, diag_odd) == (33, 71)
        assert (tau_even, tau_odd) == (21, 59)
        assert (diag_even + tau_even) / 2 == 27 == chartab.dim_invariants_chartab(
            t, perm.GROUP_ALGEBRA, perm.EVEN, chartab.FLIP
        )
        assert (diag_odd + tau_odd) / 2 == 65 == chartab.dim_invariants_chartab(
            t, perm.GROUP_ALGEBRA, perm.ODD, chartab.FLIP
        )


def test_criterion_03_lens_table_three_ways(capsys):
    field_of = {
        "odd_ca": "odd_group_algebra",
        "even_ca": "even_group_algebra",
        "odd_ker": "odd_aug_kernel",
        "even_ker": "even_aug_kernel",
    }
    with _criterion(3, "cyclic table n=1..15, three routes, all 60 numbers") as c:
        code = cli.main(["lens-table", "--max-n", "15", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,odd_group_algebra,even_group_algebra,odd_aug_kernel,even_aug_kernel"
        for n in range(1, 16):
            expected = (
                f"{n},{REFERENCE_TABLE['odd_ca'][n - 1]},{REFERENCE_TABLE['even_ca'][n - 1]},"
                f"{REFERENCE_TABLE['odd_ker'][n - 1]},{REFERENCE_TABLE['even_ker'][n - 1]}"
            )
            assert lines[n] == expected, f"row {n}: {lines[n]} != {expected}"
        checked = 0
        for n in range(1, 16):
            G = groups.make_cyclic(n)
            orbits = groups.conjugacy_classes(G).inversion_orbits
            by_perm = {
                "odd_ca": perm.dim_invariants_perm(G, perm.GROUP_ALGEBRA, perm.ODD, perm.FULL),
                "even_ca": perm.dim_invariants_perm(G, perm.GROUP_ALGEBRA, perm.EVEN, perm.FULL),
                "odd_ker": perm.dim_invariants_perm(G, perm.AUG_KERNEL, perm.ODD, perm.FULL),
                "even_ker": perm.dim_invariants_perm(G, perm.AUG_KERNEL, perm.EVEN, perm.FULL),
            }
            orbit_ca = {
                parity: oracle.dim_invariants_orbit(G, parity, perm.FULL)
                for parity in perm.PARITIES
            }
            by_orbit = {
                "odd_ca": orbit_ca[perm.ODD],
                "even_ca": orbit_ca[perm.EVEN],
                # kernel columns through the proven split identities
                "odd_ker": orbit_ca[perm.ODD] - orbits,
                "even_ker": orbit_ca[perm.EVEN],
            }
            closed = lens.lens_dims(n)
            for key, field in field_of.items():
                expected = REFERENCE_TABLE[key][n - 1]
                assert getattr(closed, field) == expected, (n, key)
                assert by_perm[key] == expected, (n, key)
                assert by_orbit[key] == expected, (n, key)
                checked += 1
        assert checked == 60
        assert c.elapsed < 10.0


def test_criterion_04_group_structure():
    with _criterion(4, "class sizes, power maps, trivial inversion, element fixture"):
        G = groups.make_sl2(5)
        cd = groups.conjugacy_classes(G)
        assert cd.num_classes == 9
        assert sorted(cd.sizes) == [1, 1, 12, 12, 12, 12, 20, 20, 30]
        fx = verify.load_sl2_fixture()
        report = verify.verify_sl2f5_fixture(G, fx)
        assert report.ok
        order_map = report.label_class
        table = chartab.builtin_sl2f5_table()
        to_computed = [order_map[f"c{i + 1}"] for i in range(9)]
        for i in range(9):
            assert cd.power2[to_computed[i]] == to_computed[table.power2[i]]
            assert cd.power3[to_computed[i]] == to_computed[table.power3[i]]
            assert cd.sizes[to_computed[i]] == table.class_sizes[i]
        assert cd.inverse == tuple(range(9)) and cd.inversion_orbits == 9


def test_criterion_05_char_table_health():
    with _criterion(5, "all 45 orthogonality sums equal 120*delta exactly"):
        t = chartab.builtin_sl2f5_table()
        checked = 0
        for i in range(9):
            for j in range(i, 9):
                total = chartab.QuadValue.of(0, 5)
                for cidx in range(9):
                    total = total + t.class_sizes[cidx] * t.value(i, cidx) * t.value(j, cidx)
                assert total == (120 if i == j else 0)
                checked += 1
        assert checked == 45


def test_criterion_06_cross_method_battery():
    with _criterion(6, "perm == orbit (group algebra) and perm == projector rank") as c:
        battery = groups.battery_groups()
        assert [name for name, _ in battery] == [
            "Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "Z9", "Z10", "Z11", "Z12",
            "Z2xZ2", "S3", "Q8", "D4", "SL2F3",
        ]
        for name, G in battery:
            for parity in perm.PARITIES:
                a = perm.dim_invariants_perm(G, perm.GROUP_ALGEBRA, parity, perm.FULL)
                assert a == oracle.dim_invariants_orbit(G, parity, perm.FULL), (name, parity)
                # projector route on the groups the verify suite gives it
                if G.order <= verify.PROJECTOR_ORDER_LIMIT:
                    for module in perm.MODULES:
                        b = perm.dim_invariants_perm(G, module, parity, perm.FULL)
                        assert b == oracle.dim_invariants_reynolds(G, module, parity), (
                            name, module, parity,
                        )
        assert c.elapsed < 60.0


def test_criterion_07_general_group_identities():
    with _criterion(7, "kernel split identities on every battery group"):
        for name, G in groups.battery_groups():
            orbits = groups.conjugacy_classes(G).inversion_orbits
            even_ca = perm.dim_invariants_perm(G, perm.GROUP_ALGEBRA, perm.EVEN, perm.FULL)
            even_ker = perm.dim_invariants_perm(G, perm.AUG_KERNEL, perm.EVEN, perm.FULL)
            odd_ca = perm.dim_invariants_perm(G, perm.GROUP_ALGEBRA, perm.ODD, perm.FULL)
            odd_ker = perm.dim_invariants_perm(G, perm.AUG_KERNEL, perm.ODD, perm.FULL)
            assert even_ca == even_ker, name
            assert odd_ca - odd_ker == orbits, name


def test_criterion_08_partition_function():
    with _criterion(8, "p3 dynamic programming == closed form up to 100000") as c:
        for m in range(100001):
            assert lens.p3_dp(m) == lens.p3_closed(m)
        assert c.elapsed < 1.0
        for n in range(1, 16):
            d = lens.lens_dims(n)
            assert d.odd_group_algebra == lens.p3_dp(n) == REFERENCE_TABLE["odd_ca"][n - 1]
            assert d.even_group_algebra == lens.p3_dp(n - 6) == REFERENCE_TABLE["even_ca"][n - 1]
            assert d.odd_aug_kernel == lens.p3_dp(n - 3) == REFERENCE_TABLE["odd_ker"][n - 1]


def test_criterion_09_weight_systems():
    with _criterion(9, "weight-map identities (10^4 random cases) and ranks to n=20"):
        rng = random.Random(424242)
        cases = 0
        while cases < 10000:
            n = rng.randint(1, 50)
            a, b, c, k = (rng.randrange(n) for _ in range(4))
            parity = rng.choice(perm.PARITIES)
            base = lens.weight_map(n, a, b, c, parity)
            assert lens.weight_map(n, a + k, b + k, c + k, parity).coeffs == base.coeffs
            assert lens.weight_map(n, -a, -b, -c, parity).coeffs == base.coeffs
            swapped = lens.weight_map(n, b, a, c, parity)
            if parity == perm.ODD:
                assert swapped.coeffs == base.coeffs
            else:
                assert swapped.coeffs == tuple((key, -v) for key, v in base.coeffs)
            cases += 3
        for n in range(1, 21):
            assert lens.weight_rank(n, perm.ODD) == lens.p3_dp(n)
            assert lens.weight_rank(n, perm.EVEN) == lens.p3_dp(n - 6)


def test_criterion_10_convention_report(capsys):
    with _criterion(10, "indicator report; flip and inversion routes each self-consistent"):
        code = cli.main(["verify", "conventions"])
        out = capsys.readouterr().out
        assert code == 0
        assert "row2=-1" in out
        assert "27/65" in out and "27/56" in out
        assert "group-algebra/even=27" in out and "group-algebra/odd=65" in out
        assert "not equated" in out

        t = chartab.builtin_sl2f5_table()
        G = groups.make_sl2(5)
        twisted = perm.twisted_coset_average(G)
        # the two independent inversion routes must agree exactly
        for module in perm.MODULES:
            for parity in perm.PARITIES:
                assert chartab.dim_invariants_chartab(
                    t, module, parity, chartab.INVERSION
                ) == perm.dim_invariants_perm(G, module, parity, perm.FULL)
                assert chartab.tau_part(
                    t, module, parity, chartab.INVERSION
                ) == twisted[module, parity]


def test_criterion_10_orbit_confirmation_flagged():
    with _criterion(10, "orbit oracle confirms the inversion values on the big group") as c:
        G = groups.make_sl2(5)
        for parity in perm.PARITIES:
            want = perm.dim_invariants_perm(G, perm.GROUP_ALGEBRA, parity, perm.FULL)
            assert oracle.dim_invariants_orbit(G, parity, perm.FULL) == want
        assert c.elapsed < 300.0
