"""Record the frozen expected answer of every benchmark query in expected.json.

    PYTHONPATH=src python3 benchmark/record_expected.py

Run once, from the checkout root, on a commit whose answers are trusted.
Each value comes from a route other than the one the benchmark query takes,
or is confirmed by one (see PROVENANCE); the script stops if routes disagree.
The benchmark itself only reads the file.
"""

from __future__ import annotations

import contextlib
import io
import json

import workloads
from theta_dims import chartab, cli, groups, lens, perm, verify

PROVENANCE = {
    "cyclic:336": "lens.p3_closed: (p3(n), p3(n-6), p3(n-3), p3(n-6))",
    "lens-table": "lens.p3_closed for n = 1..336, with p3(m) = 0 for m < 0",
    "sl2:5": ("chartab.dim_invariants_chartab on the builtin table, inversion convention, "
              "equal to the inversion values the `verify conventions` suite reports"),
    "sl2:7": ("full: (pi-pi + twisted) / 2 with the pi-pi part from dim_invariants_perm("
              "use_class_pairs=True) and the twisted part from perm.twisted_coset_average, "
              "equal to dim_invariants_perm(full, use_class_pairs=True); pi-pi: "
              "dim_invariants_perm(use_class_pairs=True)"),
    "verify": ("stdout of `verify all --with-orbit-check` at recording; the suites "
               "cross-check perm, chartab, orbit, reynolds and the closed forms"),
    "cayley": ("class data of each canonical table from groups.conjugacy_classes, "
               "class_power_map and inversion_on_classes; SL2(13) class sizes confirmed "
               "against the known q + 4 classes of SL2(q), Z40xZ50 against x -> 2x, 3x, -x"),
}


def _p3(m: int) -> int:
    return lens.p3_closed(m) if m >= 0 else 0


def _cyclic_dims(n: int) -> dict:
    return {
        ("group-algebra", "odd"): _p3(n),
        ("group-algebra", "even"): _p3(n - 6),
        ("aug-kernel", "odd"): _p3(n - 3),
        ("aug-kernel", "even"): _p3(n - 6),
    }


def _sl2f5_dims() -> dict:
    table = chartab.builtin_sl2f5_table()
    values = {(m, p): chartab.dim_invariants_chartab(table, m, p, chartab.INVERSION)
              for m, p in workloads.PAIRS}
    line = next(x for x in verify.verify_conventions() if x.startswith("inversion convention"))
    reported = dict(item.split("=") for item in line.split(": ", 1)[1].split(", "))
    for (m, p), v in values.items():
        assert int(reported[f"{m}/{p}"]) == v, (m, p, v, reported)
    return values


def _sl2f7_dims(symmetry: str) -> dict:
    G = groups.make_sl2(7)
    values = {}
    for m, p in workloads.PAIRS:
        pipi = perm.dim_invariants_perm(G, m, p, perm.PI_PI, use_class_pairs=True)
        if symmetry == perm.PI_PI:
            values[(m, p)] = pipi
            continue
        full = (pipi + perm.twisted_coset_average(G, m, p)) / 2
        assert full.denominator == 1, full
        assert perm.dim_invariants_perm(G, m, p, perm.FULL, use_class_pairs=True) == full
        values[(m, p)] = int(full)
    return values


def _dims_answers() -> dict:
    by_group = {
        ("cyclic:336", "full"): _cyclic_dims(336),
        ("sl2:5", "full"): _sl2f5_dims(),
        ("sl2:7", "full"): _sl2f7_dims(perm.FULL),
        ("sl2:7", "pi-pi"): _sl2f7_dims(perm.PI_PI),
    }
    answers = {}
    for workload in ("perm-sl2", "perm-cyclic"):
        for argv in workloads.queries(workload):
            if argv[0] != "dims":
                continue
            opt = dict(zip(argv[1::2], argv[2::2]))
            answers[workloads.query_key(argv)] = {
                "convention": "inversion",
                "dimension": by_group[(opt["--group"], opt["--symmetry"])][
                    (opt["--module"], opt["--parity"])],
                "group": opt["--group"],
                "method": opt["--method"],
                "module": opt["--module"],
                "parity": opt["--parity"],
                "symmetry": opt["--symmetry"],
            }
    return answers


def _lens_answer() -> list:
    rows = []
    for n in range(1, 337):
        d = _cyclic_dims(n)
        rows.append([n, d[("group-algebra", "odd")], d[("group-algebra", "even")],
                     d[("aug-kernel", "odd")], d[("aug-kernel", "even")]])
    return rows


def _verify_answer(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def class_data(mul) -> dict:
    """Classes of a Cayley table: class of each element, per-class power maps."""
    G = groups.make_from_cayley(mul)
    cd = groups.conjugacy_classes(G)
    p2 = groups.class_power_map(G, cd, 2)
    p3 = groups.class_power_map(G, cd, 3)
    inv, orbits = groups.inversion_on_classes(G, cd)
    return {
        "class_of": [int(c) for c in cd.class_of],
        "classes": [[cd.sizes[c], p2[c], p3[c], inv[c]] for c in range(cd.num_classes)],
        "inversion_orbits": orbits,
    }


def _confirmed_class_data(name: str) -> dict:
    mul = workloads.canonical_table(name)
    data = class_data(mul)
    n = len(mul)
    sizes = [c[0] for c in data["classes"]]
    if name == "sl2_13":
        q = 13
        want = [1, 1] + [(q * q - 1) // 2] * 4 + [q * (q + 1)] * ((q - 3) // 2) \
            + [q * (q - 1)] * ((q - 1) // 2)
        assert sorted(sizes) == sorted(want) and len(sizes) == q + 4
    else:
        # abelian: every class a singleton, powers and inverses by table lookup
        assert data["class_of"] == list(range(n))
        for x, (size, sq, cube, inv) in enumerate(data["classes"]):
            assert (size, sq, cube) == (1, mul[x, x], mul[mul[x, x], x])
            assert mul[x, inv] == 0
        self_inverse = sum(1 for x, c in enumerate(data["classes"]) if c[3] == x)
        assert data["inversion_orbits"] == (n + self_inverse) // 2
    return data


def main() -> None:
    answers = _dims_answers()
    lens_argv = next(q for q in workloads.queries("perm-cyclic") if q[0] == "lens-table")
    answers[workloads.query_key(lens_argv)] = _lens_answer()
    verify_argv = workloads.queries("verify-all")[0]
    answers[workloads.query_key(verify_argv)] = _verify_answer(verify_argv)
    expected = {
        "provenance": PROVENANCE,
        "answers": answers,
        "cayley": {name: _confirmed_class_data(name) for name in workloads.CAYLEY_TABLES},
    }
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, separators=(",", ":")) + "\n")
    print(f"wrote {workloads.EXPECTED_PATH.name}: {len(answers)} answers, "
          f"{len(expected['cayley'])} Cayley tables")


if __name__ == "__main__":
    main()
