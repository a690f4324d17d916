"""In-process runner with layer spans, and the per-layer metrics derived from them.

Run as a child process: `python3 benchmark/tracer.py JOB.json`, with the
package on PYTHONPATH. The job names the queries, whether to trace, and the
file to write the results to. Each query is one `theta_dims.cli.main(argv)`
call with stdout captured, so its answer can be checked.

Tracing wraps the public functions of the modules cli, groups, perm,
chartab, oracle, lens and verify at their module attribute, which is where
`cli` and `verify` look them up (`perm.dim_invariants_perm`, ...). Calls made
through names bound by `from ... import` are not seen. A span records its
name, start, end and parent; spans stay in memory and are written out at
the end with the results.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import statistics
import sys
import time
import traceback
from math import comb
from pathlib import Path

LAYER_MODULES = ("cli", "groups", "perm", "chartab", "oracle", "lens", "verify")

# per-monomial kernels of `reynolds`, called millions of times per pass: a span
# there would measure the tracer, not the layer
NOT_WRAPPED = frozenset({"oracle.wedge_canonical", "oracle.sym_canonical"})

# self times must add up to cli.main_s within this share of it
SELF_TIME_SLACK = 1e-6


def _cube_basis_size(module_dim: int, parity: str) -> int:
    """Monomials of the alternating ("even") or symmetric ("odd") cube."""
    return comb(module_dim, 3) if parity == "even" else comb(module_dim + 2, 3)


def _count_coset_elements(args, result) -> dict:
    n = args["G"].order
    return {"coset_elements": n * n * (2 if args["symmetry"] == "full" else 1)}


def _count_orbit_monomials(args, result) -> dict:
    return {"monomials": _cube_basis_size(args["G"].order, args["parity"])}


def _count_matrix_entries(args, result) -> dict:
    n = args["G"].order
    dim = _cube_basis_size(n if args["module"] == "group-algebra" else n - 1, args["parity"])
    return {"matrix_entries": dim * dim}


def _count_elements_built(args, result) -> dict:
    return {"elements_built": result.order}


COUNTERS = {
    "perm.dim_invariants_perm": _count_coset_elements,
    "oracle.dim_invariants_orbit": _count_orbit_monomials,
    "oracle.dim_invariants_reynolds": _count_matrix_entries,
    "groups.make_cyclic": _count_elements_built,
    "groups.make_sl2": _count_elements_built,
    "groups.make_from_cayley": _count_elements_built,
    "groups.make_direct_product": _count_elements_built,
    "groups.make_permutation_group": _count_elements_built,
    "groups.make_quaternion8": _count_elements_built,
}


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter(), "end": None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counts"] = counter(bound.arguments, result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every layer function; returns the wrapped names."""
        import theta_dims.cli  # noqa: F401  (loads every layer module)

        wrapped = []
        for short in LAYER_MODULES:
            module = sys.modules[f"theta_dims.{short}"]
            for attr, obj in list(vars(module).items()):
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in NOT_WRAPPED or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                setattr(module, attr, self.wrap(name, obj))
                wrapped.append(name)
        chartab = sys.modules["theta_dims.chartab"]
        chartab.CharTable.validate = self.wrap("chartab.CharTable.validate",
                                               chartab.CharTable.validate)
        wrapped.append("chartab.CharTable.validate")
        return wrapped


# -- analysis -----------------------------------------------------------------------


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def check_self_times(spans: list[dict]) -> str | None:
    """None when every root is cli.main and self times sum to cli.main_s."""
    roots = [s for s in spans if s["parent"] is None]
    if any(s["name"] != "cli.main" for s in roots):
        return "a span outside cli.main"
    main_s = sum(s["end"] - s["start"] for s in roots)
    total = sum(self_times(spans))
    if abs(total - main_s) > SELF_TIME_SLACK * max(main_s, 1e-9):
        return f"self times sum to {total:.9f} s, cli.main_s is {main_s:.9f} s"
    return None


# (metric, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("perm.dim_invariants_perm_s", "s", "lower"),
    ("perm.calls", "count", "lower"),
    ("perm.coset_elements", "count", "lower"),
    ("perm.us_per_coset_element", "us", "lower"),
    ("perm.twisted_coset_average_s", "s", "lower"),
    ("reynolds.dim_invariants_reynolds_s", "s", "lower"),
    ("reynolds.calls", "count", "lower"),
    ("reynolds.matrix_entries", "count", "lower"),
    ("orbit.dim_invariants_orbit_s", "s", "lower"),
    ("orbit.monomials", "count", "lower"),
    ("orbit.ns_per_monomial", "ns", "lower"),
    ("chartab.dim_invariants_chartab_s", "s", "lower"),
    ("chartab.diagonal_part_s", "s", "lower"),
    ("chartab.tau_part_s", "s", "lower"),
    ("chartab.table_validate_s", "s", "lower"),
    ("groups.make_from_cayley_s", "s", "lower"),
    ("groups.conjugacy_classes_s", "s", "lower"),
    ("groups.power_maps_s", "s", "lower"),
    ("groups.make_sl2_s", "s", "lower"),
    ("groups.elements_built", "count", "lower"),
    ("cli.parse_group_spec_self_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    ("lens.lens_dims_s", "s", "lower"),
    ("verify.fixtures_s", "s", "lower"),
    ("verify.cross_methods_s", "s", "lower"),
    ("verify.conventions_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
]

# metric -> traced function whose span durations it sums (none of them recurses)
_TIMED = {
    "perm.dim_invariants_perm_s": "perm.dim_invariants_perm",
    "perm.twisted_coset_average_s": "perm.twisted_coset_average",
    "reynolds.dim_invariants_reynolds_s": "oracle.dim_invariants_reynolds",
    "orbit.dim_invariants_orbit_s": "oracle.dim_invariants_orbit",
    "chartab.dim_invariants_chartab_s": "chartab.dim_invariants_chartab",
    "chartab.diagonal_part_s": "chartab.diagonal_part",
    "chartab.tau_part_s": "chartab.tau_part",
    "chartab.table_validate_s": "chartab.CharTable.validate",
    "groups.make_from_cayley_s": "groups.make_from_cayley",
    "groups.conjugacy_classes_s": "groups.conjugacy_classes",
    "groups.power_maps_s": "groups.class_power_map",
    "groups.make_sl2_s": "groups.make_sl2",
    "cli.main_s": "cli.main",
    "lens.lens_dims_s": "lens.lens_dims",
    "verify.fixtures_s": "verify.verify_fixtures",
    "verify.cross_methods_s": "verify.verify_cross_methods",
    "verify.conventions_s": "verify.verify_conventions",
}

# every traced function a per-layer metric reads
TRACED_FOR_METRICS = frozenset(_TIMED.values()) | {"cli.parse_group_spec"}


def layer_metrics(spans: list[dict], scale: float = 1.0) -> dict[str, float]:
    """Per-layer metrics of one traced pass, except trace.overhead.

    Times are multiplied by `scale`, the pass's factor from measured to
    reference seconds.
    """
    spans = [{**s, "start": s["start"] * scale, "end": s["end"] * scale} for s in spans]
    selfs = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    self_by_name: dict[str, float] = {}
    for i, s in enumerate(spans):
        name = s["name"]
        self_by_name[name] = self_by_name.get(name, 0.0) + selfs[i]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + s["end"] - s["start"]
        parent = spans[s["parent"]]["name"] if s["parent"] is not None else ""
        for key, n in s.get("counts", {}).items():
            # a group built inside another constructor is counted once, by the outer one
            if key == "elements_built" and parent.startswith("groups.make_"):
                continue
            counts[key] = counts.get(key, 0) + n

    m = {metric: total.get(fn, 0.0) for metric, fn in _TIMED.items()}
    m["perm.calls"] = calls.get("perm.dim_invariants_perm", 0)
    m["perm.coset_elements"] = counts.get("coset_elements", 0)
    m["reynolds.calls"] = calls.get("oracle.dim_invariants_reynolds", 0)
    m["reynolds.matrix_entries"] = counts.get("matrix_entries", 0)
    m["orbit.monomials"] = counts.get("monomials", 0)
    m["groups.elements_built"] = counts.get("elements_built", 0)
    m["perm.us_per_coset_element"] = (
        1e6 * m["perm.dim_invariants_perm_s"] / m["perm.coset_elements"]
        if m["perm.coset_elements"] else 0.0)
    m["orbit.ns_per_monomial"] = (
        1e9 * m["orbit.dim_invariants_orbit_s"] / m["orbit.monomials"]
        if m["orbit.monomials"] else 0.0)
    m["cli.parse_group_spec_self_s"] = self_by_name.get("cli.parse_group_spec", 0.0)
    main_s = m["cli.main_s"]
    m["trace.coverage"] = 1.0 - self_by_name.get("cli.main", 0.0) / main_s if main_s else 0.0
    return m


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}


# -- child entry point ------------------------------------------------------------------


def run_queries(queries: list[list[str]], trace: bool) -> dict:
    """Run each query through cli.main in this process; time the whole pass."""
    from theta_dims import cli

    tracer = Tracer() if trace else None
    missing = []
    if tracer:
        missing = sorted(TRACED_FOR_METRICS - set(tracer.install()))
    results = []
    started = time.perf_counter()
    for argv in queries:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash fails this query, as it would the CLI process
                traceback.print_exc()
                code = 1
        results.append({"argv": argv, "returncode": code, "stdout": out.getvalue(),
                        "stderr": err.getvalue()})
    wall = time.perf_counter() - started
    return {"wall_s": wall, "results": results, "missing": missing,
            "spans": tracer.spans if tracer else []}


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    report = run_queries(job["queries"], bool(job["trace"]))
    Path(job["out"]).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
