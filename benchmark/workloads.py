"""Workload definitions, Cayley-table inputs and the answer checks.

A query is one command line of the `theta-dims` CLI (the argument list after
`python -m theta_dims`). Each workload is a fixed list of queries; the
workload seed shuffles their order in each pass and, for `cayley-tables`,
draws the index relabeling of the generated tables. The expected answer of
every query is frozen in `expected.json` (see `record_expected.py`).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

MODULES = ("group-algebra", "aug-kernel")
PARITIES = ("even", "odd")
PAIRS = [(m, p) for m in MODULES for p in PARITIES]

# directory, relative to the checkout root, for generated inputs and outputs
OUT_DIR = ".bench_out"

# the two canonical Cayley tables of `cayley-tables`, keyed by table name
CAYLEY_TABLES = ("sl2_13", "z40xz50")


def _dims(group: str, module: str, parity: str, symmetry: str = "full", method: str = "perm"):
    return [
        "dims", "--group", group, "--module", module, "--parity", parity,
        "--symmetry", symmetry, "--method", method, "--format", "json",
    ]


def _perm_sl2() -> list[list[str]]:
    queries = [_dims(g, m, p) for g in ("sl2:5", "sl2:7") for m, p in PAIRS]
    queries += [_dims("sl2:7", "group-algebra", p, "pi-pi") for p in PARITIES]
    return queries


def _perm_cyclic() -> list[list[str]]:
    queries = [_dims("cyclic:336", m, p) for m, p in PAIRS]
    queries += [_dims("cyclic:336", m, p, method="closed-form") for m, p in PAIRS]
    queries.append(["lens-table", "--max-n", "336", "--format", "json"])
    return queries


def _verify_all() -> list[list[str]]:
    return [["verify", "all", "--with-orbit-check"]]


def cayley_path(name: str) -> str:
    return f"{OUT_DIR}/cayley-{name}.json"


def _cayley_tables() -> list[list[str]]:
    return [["classes", "--group", f"cayley:{cayley_path(n)}", "--format", "json"]
            for n in CAYLEY_TABLES]


WORKLOADS = {
    "perm-sl2": _perm_sl2,
    "perm-cyclic": _perm_cyclic,
    "verify-all": _verify_all,
    "cayley-tables": _cayley_tables,
}


def queries(workload: str) -> list[list[str]]:
    return WORKLOADS[workload]()


def query_key(argv: list[str]) -> str:
    """The key of a query in `expected.json`: its argument list, space-joined."""
    return " ".join(argv)


# -- Cayley tables ----------------------------------------------------------------


def sl2_table(p: int) -> np.ndarray:
    """Multiplication table of SL2(F_p), elements in lexicographic matrix order."""
    r = np.arange(p)
    a, b, c, d = (x.ravel() for x in np.meshgrid(r, r, r, r, indexing="ij"))
    keep = (a * d - b * c) % p == 1
    a, b, c, d = a[keep], b[keep], c[keep], d[keep]
    n = len(a)
    index = np.full(p**4, -1, dtype=np.int64)
    index[((a * p + b) * p + c) * p + d] = np.arange(n)
    mul = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        pa = (a[i] * a + b[i] * c) % p
        pb = (a[i] * b + b[i] * d) % p
        pc = (c[i] * a + d[i] * c) % p
        pd = (c[i] * b + d[i] * d) % p
        mul[i] = index[((pa * p + pb) * p + pc) * p + pd]
    return mul


def abelian_table(m: int, k: int) -> np.ndarray:
    """Multiplication table of Z_m x Z_k, element (i, j) encoded as i*k + j."""
    x = np.arange(m * k)
    i, j = x // k, x % k
    return ((i[:, None] + i[None, :]) % m) * k + (j[:, None] + j[None, :]) % k


def canonical_table(name: str) -> np.ndarray:
    if name == "sl2_13":
        return sl2_table(13)
    if name == "z40xz50":
        return abelian_table(40, 50)
    raise ValueError(f"unknown Cayley table {name!r}")


def relabeling(name: str, n: int, seed: int) -> np.ndarray:
    """A random permutation of 0..n-1 drawn from the workload seed: new = perm[old]."""
    order = list(range(n))
    random.Random(f"{name}:{seed}").shuffle(order)
    return np.array(order, dtype=np.int64)


def relabeled(mul: np.ndarray, perm: np.ndarray) -> np.ndarray:
    out = np.empty_like(mul)
    out[np.ix_(perm, perm)] = perm[mul]
    return out


def write_cayley_json(mul: np.ndarray, path: Path) -> None:
    """Write `{"order": n, "mul": [...]}` compactly, one row at a time."""
    with open(path, "w") as f:
        f.write(f'{{"order":{len(mul)},"mul":[')
        for i, row in enumerate(mul.tolist()):
            f.write(("," if i else "") + "[" + ",".join(map(str, row)) + "]")
        f.write("]}")


def write_cayley_tables(root: Path, seed: int) -> dict[str, np.ndarray]:
    """Write each relabeled table under `root`; returns the relabeling of each."""
    perms = {}
    for name in CAYLEY_TABLES:
        mul = canonical_table(name)
        perm = relabeling(name, len(mul), seed)
        write_cayley_json(relabeled(mul, perm), root / cayley_path(name))
        perms[name] = perm
    return perms


# -- answer checks ----------------------------------------------------------------


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


class Checker:
    """Checks one query's output against the frozen expected answer.

    `check` returns None when the output is right and a one-line reason
    otherwise. Cayley answers depend on the relabeling, so they are checked
    through it against the class data of the canonical table.
    """

    def __init__(self, expected: dict, perms: dict[str, np.ndarray] | None = None):
        self.answers = expected["answers"]
        self.cayley = expected["cayley"]
        self.perms = perms or {}

    def check(self, argv: list[str], returncode: int, stdout: str) -> str | None:
        if returncode != 0:
            return f"exit code {returncode}"
        if argv[0] == "classes":
            path = Path(argv[argv.index("--group") + 1].removeprefix("cayley:"))
            name = path.stem.removeprefix("cayley-")
            return self._check_classes(argv, name, stdout)
        want = self.answers.get(query_key(argv))
        if want is None:
            return "no expected answer recorded"
        if argv[0] == "verify":
            return None if stdout == want else "verify report differs"
        try:
            got = json.loads(stdout)
        except json.JSONDecodeError:
            return "output is not JSON"
        if argv[0] == "lens-table":
            keys = ("n", "odd_group_algebra", "even_group_algebra", "odd_aug_kernel",
                    "even_aug_kernel")
            try:
                got = [[row[k] for k in keys] for row in got]
            except (KeyError, TypeError):
                return "lens table rows malformed"
        return None if got == want else f"answer {str(got)[:200]} != expected {str(want)[:200]}"

    def _check_classes(self, argv: list[str], name: str, stdout: str) -> str | None:
        exp, perm = self.cayley.get(name), self.perms.get(name)
        if exp is None or perm is None:
            return f"no expected class data for table {name!r}"
        try:
            got = json.loads(stdout)
            rows, orbits, group = got["classes"], got["inversion_orbits"], got["group"]
            reps = [int(r["representative"]) for r in rows]
            fields = [(r["class"], r["size"], r["square_class"], r["cube_class"],
                       r["inverse_class"]) for r in rows]
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            return "classes output malformed"
        if group != argv[argv.index("--group") + 1]:
            return f"group field {group!r} differs from the query"
        if orbits != exp["inversion_orbits"]:
            return f"inversion orbits {orbits} != {exp['inversion_orbits']}"
        classes = exp["classes"]  # canonical class -> [size, square, cube, inverse]
        if len(rows) != len(classes):
            return f"{len(rows)} classes != {len(classes)}"
        class_of = np.asarray(exp["class_of"])
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(len(perm))
        # smallest relabeled member of each canonical class
        smallest = np.full(len(classes), len(perm))
        np.minimum.at(smallest, class_of, perm)
        if not all(0 <= r < len(perm) for r in reps):
            return "representative out of range"
        canon = [int(class_of[inverse[r]]) for r in reps]
        if sorted(canon) != list(range(len(classes))):
            return "output classes are not the canonical classes"
        for k, (index, size, sq, cube, inv) in enumerate(fields):
            c = canon[k]
            want = classes[c]
            if index != k or reps[k] != smallest[c]:
                return f"class {k}: index or representative is not canonical"
            if not all(isinstance(j, int) and 0 <= j < len(canon) for j in (sq, cube, inv)):
                return f"class {k}: power map out of range"
            got_row = [size, canon[sq], canon[cube], canon[inv]]
            if got_row != want:
                return f"class {k}: [size, square, cube, inverse] {got_row} != {want}"
        return None
