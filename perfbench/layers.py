"""Per-layer tracing from outside the program.

``install`` wraps the public functions of each spencerlab layer wherever a
module binds them (``saturation_is_unit`` inside ``microlocal``,
``symbol_space`` inside ``spencer``, mpmath's ``gammainc`` inside ``zeta``)
and records nested spans with self times plus work counters.  The traced
launcher (``launcher.py``) calls it before ``spencerlab.cli.main``;
``run.py`` folds the per-job traces into the per-layer metrics with
``pass_totals`` and ``layer_metrics``.

Nothing here imports spencerlab at module level, so ``run.py`` can import
this file without loading the program.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import stats
from workloads import WORKLOADS as ALL


class Tracer:
    """Span stack with self-time accounting, aggregated by span path."""

    def __init__(self):
        self.stack = []  # [path, start, time covered by child spans]
        self.spans = {}  # path -> [calls, self seconds, total seconds]
        self.counters = defaultdict(float)
        self.fired = {}
        self.seen = defaultdict(dict)  # counter family -> key -> object kept alive

    def enter(self, name, start=None):
        parent = self.stack[-1][0] + "/" if self.stack else ""
        self.stack.append([parent + name, time.perf_counter() if start is None else start, 0.0])

    def exit(self):
        path, start, child = self.stack.pop()
        dur = time.perf_counter() - start
        agg = self.spans.setdefault(path, [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += dur - child
        agg[2] += dur
        if self.stack:
            self.stack[-1][2] += dur

    def count(self, name, n=1):
        self.counters[name] += n

    def repeat(self, family, key, obj):
        """Count a call whose key was already seen in this job."""
        if key in self.seen[family]:
            self.count(family + "_repeats")
        else:
            self.seen[family][key] = obj

    def wrap(self, fn, target):
        span, hook, key = target.span, target.hook, target.target
        fired = self.fired
        fired[key] = 0

        def wrapper(*args, **kwargs):
            fired[key] += 1
            if span is None:
                result = fn(*args, **kwargs)
            else:
                self.enter(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.exit()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def dump(self):
        return {
            "spans": {p: [c, s * 1e3, t * 1e3] for p, (c, s, t) in self.spans.items()},
            "counters": dict(self.counters),
            "fired": self.fired,
        }


# -- counter hooks: (tracer, args, kwargs, result) ---------------------------------------


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _emit(tr, args, kwargs, result):
    tr.count("reports.bytes", len(result))


def _rref(tr, args, kwargs, result):
    mat, (reduced, _pivots) = args[0], result
    tr.count("linalg.rref_cells", mat.rows * mat.cols)
    tr.count("linalg.rref_nonzero", sum(1 for row in reduced for x in row if x))


def _rank(tr, args, kwargs, result):
    tr.count("linalg.rank_calls")
    tr.repeat("linalg.rank", id(args[0]), args[0])


def _matmul(tr, args, kwargs, result):
    a, b = args[0], args[1]
    tr.count("linalg.matmul_mults", a.rows * a.cols * b.cols)


def _counter(name):
    def hook(tr, args, kwargs, result):
        tr.count(name)
    return hook


def _buchberger(tr, args, kwargs, result):
    tr.count("groebner.basis_size_sum", len(result))


def _normal_form(tr, args, kwargs, result):
    if not result:
        tr.count("groebner.nf_zero")


def _symbol_space(tr, args, kwargs, result):
    system, q = _arg(args, kwargs, 0, "sys"), _arg(args, kwargs, 1, "q")
    point = _arg(args, kwargs, 2, "point")
    tr.repeat("symbols.symbol_space", (id(system), q, repr(point)), system)


def _spencer_complex(tr, args, kwargs, result):
    cells = max((d.rows * d.cols for d in result.differentials.values()), default=0)
    tr.counters["spencer.delta_cells_max"] = max(tr.counters["spencer.delta_cells_max"], cells)


def _classify(tr, args, kwargs, result):
    tr.count("microlocal.samples", len(_arg(args, kwargs, 2, "grid")))


def _gammainc(tr, args, kwargs, result):
    tr.repeat("zeta.gammainc", tuple(str(a) for a in args), None)


@dataclass(frozen=True)
class Target:
    target: str  # "module:attribute" or "module:Class.method"
    span: str | None  # span name; None counts calls without a span
    hook: object
    expect: tuple  # workloads on which the wrapper must fire


TARGETS = (
    Target("spencerlab.cli:dispatch", "cli.dispatch", None, ALL),
    Target("spencerlab.dsl:parse_pde_dsl", "dsl.parse", None, ("jet", "microlocal")),
    Target("spencerlab.reports:emit_report", "reports.emit", _emit, ALL),
    Target("spencerlab.linalg:ExactMatrix.rref", "linalg.rref", _rref, ("jet",)),
    Target("spencerlab.linalg:ExactMatrix.rank", None, _rank, ("jet",)),
    Target("spencerlab.linalg:ExactMatrix.__matmul__", "linalg.matmul", _matmul, ("jet",)),
    Target("spencerlab.linalg:SpanSolver.__init__", "linalg.spansolver", None, ("jet",)),
    Target("spencerlab.linalg:SpanSolver.coords", "linalg.spansolver",
           _counter("linalg.coords_calls"), ("jet",)),
    Target("spencerlab.linalg:ExactMatrix.det", None, _counter("linalg.det_calls"), ("microlocal",)),
    Target("spencerlab.groebner:buchberger", "groebner.buchberger", _buchberger, ("microlocal",)),
    Target("spencerlab.groebner:normal_form", "groebner.normal_form", _normal_form, ("microlocal",)),
    Target("spencerlab.groebner:saturation_is_unit", "groebner.saturation", None, ("microlocal",)),
    Target("spencerlab.poly:MultiPoly.__mul__", "poly.mul", None, ("microlocal",)),
    Target("spencerlab.symbols:symbol_space", "symbols.symbol_space", _symbol_space, ("jet",)),
    Target("spencerlab.spencer:spencer_complex", "spencer.complex", _spencer_complex, ("jet",)),
    Target("spencerlab.spencer:delta_cohomology", "spencer.cohomology", None, ("jet",)),
    Target("spencerlab.spencer:to_flat_connection", "spencer.flat", None, ("jet",)),
    Target("spencerlab.microlocal:classify_mixed", "microlocal.classify", _classify, ("microlocal",)),
    Target("spencerlab.microlocal:is_elliptic", None,
           _counter("microlocal.frozen_decisions"), ("microlocal",)),
    Target("spencerlab.microlocal:is_hyperbolic", None,
           _counter("microlocal.frozen_decisions"), ("microlocal",)),
    Target("spencerlab.microlocal:sturm_distinct_real_roots", "microlocal.sturm", None, ("microlocal",)),
    Target("spencerlab.microlocal:characteristic_ideal", "microlocal.char_ideal", None, ("microlocal",)),
    Target("spencerlab.microlocal:factorization_check", "microlocal.factorization", None, ("microlocal",)),
    Target("spencerlab.index:atiyah_singer_index", "index", None, ("microlocal",)),
    Target("spencerlab.index:grr_index", "index", None, ("microlocal",)),
    Target("spencerlab.index:twisted_dolbeault_class", "index", None, ("microlocal",)),
    Target("spencerlab.index:dolbeault_class", "index", None, ("microlocal",)),
    Target("spencerlab.chern:get_model", "index", None, ("microlocal",)),
    Target("spencerlab.chern:model_tangent_todd", "index", None, ("microlocal",)),
    Target("spencerlab.zeta:gammainc", "zeta.gammainc", _gammainc, ("spectral",)),
    Target("spencerlab.zeta:zeta_prime_at_zero", "zeta.zeta_prime0", None, ("spectral",)),
    Target("spencerlab.torsion:ray_singer_torsion", "torsion.ray_singer", None, ("spectral",)),
    Target("spencerlab.torsion:bcov_invariant_model", "torsion.bcov", None, ("spectral",)),
)


def install(tracer):
    """Wrap every target; returns the targets that no longer exist."""
    import spencerlab.cli  # noqa: F401  (loads every module the CLI binds)

    modules = [m for name, m in sorted(sys.modules.items())
               if name == "spencerlab" or name.startswith("spencerlab.")]
    missing = []
    for t in TARGETS:
        modname, attr = t.target.split(":")
        *owner_path, name = attr.split(".")
        owner = sys.modules.get(modname)
        for part in owner_path:
            owner = getattr(owner, part, None)
        original = getattr(owner, name, None) if owner is not None else None
        if original is None:
            missing.append(t.target)
            continue
        wrapper = tracer.wrap(original, t)
        if owner_path:  # a method: its class is the one binding
            setattr(owner, name, wrapper)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    return missing


# -- folding traces into metrics ---------------------------------------------------------

# (metric, unit, better): the per-layer metrics, in BENCHMARK.json order.
PER_LAYER = (
    ("cli.import_ms", "ms", "lower"),
    ("cli.import_numpy_ms", "ms", "lower"),
    ("cli.import_mpmath_ms", "ms", "lower"),
    ("cli.job_overhead_ms", "ms", "lower"),
    ("dsl.parse_ms", "ms", "lower"),
    ("reports.emit_ms", "ms", "lower"),
    ("reports.bytes", "bytes", "lower"),
    ("linalg.rref_ms", "ms", "lower"),
    ("linalg.rref_calls", "count", "lower"),
    ("linalg.rref_cells", "count", "lower"),
    ("linalg.rref_fill", "share", "lower"),
    ("linalg.rank_calls", "count", "lower"),
    ("linalg.rank_repeat_ratio", "share", "lower"),
    ("linalg.matmul_ms", "ms", "lower"),
    ("linalg.matmul_mults", "count", "lower"),
    ("linalg.coords_calls", "count", "lower"),
    ("linalg.spansolver_ms", "ms", "lower"),
    ("linalg.det_calls", "count", "lower"),
    ("groebner.buchberger_calls", "count", "lower"),
    ("groebner.buchberger_ms", "ms", "lower"),
    ("groebner.basis_size_sum", "count", "lower"),
    ("groebner.normal_form_calls", "count", "lower"),
    ("groebner.normal_form_ms", "ms", "lower"),
    ("groebner.nf_zero_ratio", "share", "lower"),
    ("groebner.saturation_calls", "count", "lower"),
    ("groebner.saturation_ms", "ms", "lower"),
    ("poly.mul_calls", "count", "lower"),
    ("poly.mul_ms", "ms", "lower"),
    ("symbols.symbol_space_calls", "count", "lower"),
    ("symbols.symbol_space_ms", "ms", "lower"),
    ("symbols.repeat_ratio", "share", "lower"),
    ("spencer.complex_ms", "ms", "lower"),
    ("spencer.cohomology_ms", "ms", "lower"),
    ("spencer.flat_ms", "ms", "lower"),
    ("spencer.delta_cells_max", "count", "lower"),
    ("microlocal.classify_ms", "ms", "lower"),
    ("microlocal.samples", "count", "higher"),
    ("microlocal.frozen_decisions", "count", "lower"),
    ("microlocal.cache_hit_ratio", "share", "higher"),
    ("microlocal.sturm_calls", "count", "lower"),
    ("microlocal.sturm_ms", "ms", "lower"),
    ("microlocal.char_ideal_ms", "ms", "lower"),
    ("microlocal.factorization_ms", "ms", "lower"),
    ("index.ms", "ms", "lower"),
    ("zeta.gammainc_calls", "count", "lower"),
    ("zeta.gammainc_ms", "ms", "lower"),
    ("zeta.gammainc_distinct_ratio", "share", "higher"),
    ("zeta.zeta_prime0_ms", "ms", "lower"),
    ("torsion.ray_singer_ms", "ms", "lower"),
    ("torsion.bcov_ms", "ms", "lower"),
    ("zeta.err_bound_max_log10", "log10", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# log10 reported when no report of the workload declares an error bound
NO_BOUND_LOG10 = -324.0


def pass_totals(traces, walls_ms):
    """Sum the traces of one traced pass (one per job) by span name."""
    self_ms, calls = defaultdict(float), defaultdict(int)
    counters = defaultdict(float)
    overhead = 0.0
    for trace, wall in zip(traces, walls_ms):
        for path, (n, self_t, total_t) in trace["spans"].items():
            name = path.rsplit("/", 1)[-1]
            self_ms[name] += self_t
            calls[name] += n
            if path == "job/cli.dispatch":
                overhead += wall - total_t
        for name, value in trace["counters"].items():
            if name.endswith("_max"):
                counters[name] = max(counters[name], value)
            else:
                counters[name] += value
    return {"self_ms": self_ms, "calls": calls, "counters": counters, "job_overhead_ms": overhead}


def _ratio(num, den):
    return num / den if den else 0.0


def one_pass_metrics(p):
    """Per-layer values of one traced pass (everything but start-up imports,
    error bounds and tracing overhead)."""
    ms, calls, c = p["self_ms"], p["calls"], p["counters"]  # defaultdicts: absent reads 0
    return {
        "cli.job_overhead_ms": p["job_overhead_ms"],
        "dsl.parse_ms": ms["dsl.parse"],
        "reports.emit_ms": ms["reports.emit"],
        "reports.bytes": c["reports.bytes"],
        "linalg.rref_ms": ms["linalg.rref"],
        "linalg.rref_calls": calls["linalg.rref"],
        "linalg.rref_cells": c["linalg.rref_cells"],
        "linalg.rref_fill": _ratio(c["linalg.rref_nonzero"], c["linalg.rref_cells"]),
        "linalg.rank_calls": c["linalg.rank_calls"],
        "linalg.rank_repeat_ratio": _ratio(c["linalg.rank_repeats"], c["linalg.rank_calls"]),
        "linalg.matmul_ms": ms["linalg.matmul"],
        "linalg.matmul_mults": c["linalg.matmul_mults"],
        "linalg.coords_calls": c["linalg.coords_calls"],
        "linalg.spansolver_ms": ms["linalg.spansolver"],
        "linalg.det_calls": c["linalg.det_calls"],
        "groebner.buchberger_calls": calls["groebner.buchberger"],
        "groebner.buchberger_ms": ms["groebner.buchberger"],
        "groebner.basis_size_sum": c["groebner.basis_size_sum"],
        "groebner.normal_form_calls": calls["groebner.normal_form"],
        "groebner.normal_form_ms": ms["groebner.normal_form"],
        "groebner.nf_zero_ratio": _ratio(c["groebner.nf_zero"], calls["groebner.normal_form"]),
        "groebner.saturation_calls": calls["groebner.saturation"],
        "groebner.saturation_ms": ms["groebner.saturation"],
        "poly.mul_calls": calls["poly.mul"],
        "poly.mul_ms": ms["poly.mul"],
        "symbols.symbol_space_calls": calls["symbols.symbol_space"],
        "symbols.symbol_space_ms": ms["symbols.symbol_space"],
        "symbols.repeat_ratio": _ratio(c["symbols.symbol_space_repeats"],
                                       calls["symbols.symbol_space"]),
        "spencer.complex_ms": ms["spencer.complex"],
        "spencer.cohomology_ms": ms["spencer.cohomology"],
        "spencer.flat_ms": ms["spencer.flat"],
        "spencer.delta_cells_max": c["spencer.delta_cells_max"],
        "microlocal.classify_ms": ms["microlocal.classify"],
        "microlocal.samples": c["microlocal.samples"],
        "microlocal.frozen_decisions": c["microlocal.frozen_decisions"],
        "microlocal.cache_hit_ratio": (1 - _ratio(c["microlocal.frozen_decisions"],
                                                  c["microlocal.samples"])
                                       if c["microlocal.samples"] else 0.0),
        "microlocal.sturm_calls": calls["microlocal.sturm"],
        "microlocal.sturm_ms": ms["microlocal.sturm"],
        "microlocal.char_ideal_ms": ms["microlocal.char_ideal"],
        "microlocal.factorization_ms": ms["microlocal.factorization"],
        "index.ms": ms["index"],
        "zeta.gammainc_calls": calls["zeta.gammainc"],
        "zeta.gammainc_ms": ms["zeta.gammainc"],
        "zeta.gammainc_distinct_ratio": _ratio(
            calls["zeta.gammainc"] - c["zeta.gammainc_repeats"], calls["zeta.gammainc"]),
        "zeta.zeta_prime0_ms": ms["zeta.zeta_prime0"],
        "torsion.ray_singer_ms": ms["torsion.ray_singer"],
        "torsion.bcov_ms": ms["torsion.bcov"],
    }


def layer_metrics(passes, imports_ms, err_bound_max, overhead_ratio):
    """All per-layer metrics: medians over the traced passes plus start-up,
    numeric-claim and tracing-overhead figures."""
    per_pass = [one_pass_metrics(p) for p in passes]
    out = {"cli.import_ms": imports_ms["spencerlab.cli"],
           "cli.import_numpy_ms": imports_ms["numpy"],
           "cli.import_mpmath_ms": imports_ms["mpmath"]}
    for name in per_pass[0]:
        out[name] = stats.summary(v[name] for v in per_pass)["median"]
    out["zeta.err_bound_max_log10"] = (math.log10(err_bound_max) if err_bound_max > 0
                                       else NO_BOUND_LOG10)
    out["trace.overhead_ratio"] = overhead_ratio
    return {name: out[name] for name, _unit, _better in PER_LAYER}


def silent_targets(fired_totals, workload):
    """Wrappers that never fired on a workload where the table predicts work."""
    return [t.target for t in TARGETS
            if workload in t.expect and not fired_totals.get(t.target)]


def parse_importtime(stderr_text, modules=("spencerlab.cli", "numpy", "mpmath")):
    """Cumulative import time in ms of each named module from ``-X importtime``."""
    found = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        if name in modules and name not in found:
            found[name] = int(parts[1]) / 1e3
    return {m: found.get(m, 0.0) for m in modules}
