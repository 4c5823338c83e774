"""Per-layer tracing by rebinding tadic's public entry points.

Nothing inside the library changes: each target is replaced, on its module
or class, by a wrapper that times the call and keeps aggregated counts.
Module-level functions are also replaced in every other tadic module that
imported them with `from .x import y`.  A target that no longer exists is
an error, so a rename or a merge breaks the traced run instead of
reporting zero for a layer.

Every wrapper is aggregated per name (calls, inclusive time, self time);
self time is a call's duration minus the time its wrapped callees took.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

LAYERS = ("cli", "polytope", "arith", "series", "sums", "dwork")

# (layer, dotted attribute path inside tadic.<layer>); the span is named
# "<layer>.<path>", with __init__ spelled init
TARGETS = (
    ("cli", "main"),
    ("cli", "build_config"),
    ("cli", "run"),
    ("cli", "parse_laurent"),
    ("polytope", "newton_data"),
    ("polytope", "is_nondegenerate"),
    ("polytope", "DegreeData.cone_points_upto"),
    ("polytope", "hodge_polygon_to_width"),
    ("arith", "FieldContext.__init__"),
    ("arith", "FieldContext.embed_into"),
    ("arith", "FieldContext.mul"),
    ("arith", "FieldContext.zq_mul"),
    ("arith", "FieldContext.zq_trace"),
    ("arith", "teichmuller_lift"),
    ("arith", "one_plus_T_pow"),
    ("arith", "specialize_tseries"),
    ("series", "exp_generating"),
    ("series", "polygon_from_sseries"),
    ("series", "polygon_verdict"),
    ("series", "TSeries.mul"),
    ("sums", "torus_trace_counts"),
    ("sums", "s_f_T"),
    ("sums", "s_f_psi"),
    ("sums", "l_function"),
    ("sums", "c_function"),
    ("sums", "np_report"),
    ("sums", "survey_family"),
    ("sums", "congruence_check"),
    ("dwork", "psi_a_matrix"),
    ("dwork", "char_series"),
    ("dwork", "operator_trace"),
    ("dwork", "t_to_pi"),
    ("dwork", "ordinariness_determinants"),
    ("dwork", "facial_criterion"),
    ("dwork", "verify_trace_formula"),
    ("dwork", "char_c_crosscheck"),
    ("dwork", "ZqPi.mul"),
)


class TraceError(RuntimeError):
    """A wrapped entry point is missing from the library."""


class Tracer:
    def __init__(self):
        self.stack = []  # one [callee time] cell per open call
        self.stats = {}  # name -> [calls, inclusive s, self s]
        self.torus = {"points": 0, "distinct": 0, "keys": set()}
        self.matrix = {"dim_max": 0, "nnz": 0, "cells": 0}
        self.zqpi_nonzero = 0

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack

        def wrapper(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - cell[0]
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def install(self):
        """Wrap every target; raise TraceError naming all missing ones."""
        modules = [m for n, m in sys.modules.items() if n == "tadic" or n.startswith("tadic.")]
        missing = []
        plan = []
        for layer, path in TARGETS:
            name = f"{layer}.{path}".replace("__init__", "init")
            mod = sys.modules.get(f"tadic.{layer}")
            owner = mod
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            attr = parts[-1]
            if mod is None or owner is None or attr not in vars(owner):
                missing.append(f"tadic.{layer}.{path}")
                continue
            plan.append((owner, attr, name, isinstance(owner, type)))
        if missing:
            raise TraceError("traced entry points missing: " + ", ".join(missing))
        hooks = {
            "sums.torus_trace_counts": self._after_torus,
            "dwork.psi_a_matrix": self._after_matrix,
            "dwork.ZqPi.mul": self._after_zqpi_mul,
        }
        for owner, attr, name, is_class in plan:
            fn = vars(owner)[attr]
            if name == "sums.torus_trace_counts":
                self._torus_sig = inspect.signature(fn)
            wrapped = self._wrap(name, fn, hooks.get(name))
            setattr(owner, attr, wrapped)
            if not is_class:
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            setattr(mod, key, wrapped)

    # -- counters derived from return values ----------------------------------

    def _after_torus(self, args, kwargs, counts):
        bound = self._torus_sig.bind(*args, **kwargs).arguments
        f, k, prec = bound["f"], bound["k"], bound["prec"]
        self.torus["points"] += sum(counts.values())
        self.torus["distinct"] += len(counts)
        self.torus["keys"].add((f.ctx.p, f.ctx.a * k, prec))

    def _after_matrix(self, args, kwargs, mx):
        dim = mx.dim
        self.matrix["dim_max"] = max(self.matrix["dim_max"], dim)
        self.matrix["nnz"] += sum(1 for row in mx.entries for e in row if not e.is_zero())
        self.matrix["cells"] += dim * dim

    def _after_zqpi_mul(self, args, kwargs, out):
        # a product with a zero factor is wasted work for dense Berkowitz
        if args[0].coeffs and args[1].coeffs:
            self.zqpi_nonzero += 1

    # -- report ---------------------------------------------------------------

    def snapshot(self, job_s: float) -> dict:
        """Raw per-round numbers: spans, counters and the layer split."""
        spans = {n: list(v) for n, v in self.stats.items()}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, self_s) in spans.items():
            layer_self[name.split(".", 1)[0]] += self_s
        return {
            "spans": spans,
            "torus_points": self.torus["points"],
            "distinct_traces": self.torus["distinct"],
            "table_keys": len(self.torus["keys"]),
            "matrix_dim_max": self.matrix["dim_max"],
            "matrix_nnz": self.matrix["nnz"],
            "matrix_cells": self.matrix["cells"],
            "zqpi_nonzero": self.zqpi_nonzero,
            "layer_self_s": layer_self,
            "job_s": job_s,
        }


def _ratio(num, den):
    return num / den if den else 0.0


# per-layer metric name -> (unit, value from one round's snapshot)
def _span(name, field):
    return lambda snap: snap["spans"][name][field]


_CALLS, _TOTAL, _SELF = 0, 1, 2

PER_LAYER = {
    "cli.build_config.s": ("s", _span("cli.build_config", _TOTAL)),
    "cli.parse_laurent.s": ("s", _span("cli.parse_laurent", _TOTAL)),
    "cli.emit.s": (
        "s",
        lambda s: s["spans"]["cli.main"][_TOTAL]
        - s["spans"]["cli.build_config"][_TOTAL]
        - s["spans"]["cli.run"][_TOTAL],
    ),
    "polytope.newton_data.s": ("s", _span("polytope.newton_data", _TOTAL)),
    "polytope.is_nondegenerate.calls": ("count", _span("polytope.is_nondegenerate", _CALLS)),
    "polytope.is_nondegenerate.s": ("s", _span("polytope.is_nondegenerate", _TOTAL)),
    "polytope.DegreeData.cone_points_upto.s": (
        "s",
        _span("polytope.DegreeData.cone_points_upto", _TOTAL),
    ),
    "polytope.hodge_polygon_to_width.s": ("s", _span("polytope.hodge_polygon_to_width", _TOTAL)),
    "arith.FieldContext.init.calls": ("count", _span("arith.FieldContext.init", _CALLS)),
    "arith.FieldContext.init.s": ("s", _span("arith.FieldContext.init", _TOTAL)),
    "arith.FieldContext.embed_into.s": ("s", _span("arith.FieldContext.embed_into", _TOTAL)),
    "arith.FieldContext.mul.calls": ("count", _span("arith.FieldContext.mul", _CALLS)),
    "arith.FieldContext.zq_mul.calls": ("count", _span("arith.FieldContext.zq_mul", _CALLS)),
    "arith.FieldContext.zq_trace.calls": ("count", _span("arith.FieldContext.zq_trace", _CALLS)),
    "arith.teichmuller_lift.calls": ("count", _span("arith.teichmuller_lift", _CALLS)),
    "arith.teichmuller_lift.s": ("s", _span("arith.teichmuller_lift", _TOTAL)),
    "arith.one_plus_T_pow.calls": ("count", _span("arith.one_plus_T_pow", _CALLS)),
    "arith.one_plus_T_pow.s": ("s", _span("arith.one_plus_T_pow", _TOTAL)),
    "arith.specialize_tseries.s": ("s", _span("arith.specialize_tseries", _TOTAL)),
    "series.exp_generating.s": ("s", _span("series.exp_generating", _TOTAL)),
    "series.polygon_from_sseries.s": ("s", _span("series.polygon_from_sseries", _TOTAL)),
    "series.polygon_verdict.s": ("s", _span("series.polygon_verdict", _TOTAL)),
    "series.TSeries.mul.calls": ("count", _span("series.TSeries.mul", _CALLS)),
    "sums.torus_trace_counts.calls": ("count", _span("sums.torus_trace_counts", _CALLS)),
    "sums.torus_trace_counts.self_s": ("s", _span("sums.torus_trace_counts", _SELF)),
    "sums.torus_points": ("count", lambda s: s["torus_points"]),
    "sums.distinct_traces": ("count", lambda s: s["distinct_traces"]),
    "sums.distinct_trace_ratio": (
        "ratio",
        lambda s: _ratio(s["distinct_traces"], s["torus_points"]),
    ),
    "sums.table_reuse": (
        "ratio",
        lambda s: _ratio(s["spans"]["sums.torus_trace_counts"][_CALLS], s["table_keys"]),
    ),
    "sums.s_f_T.self_s": ("s", _span("sums.s_f_T", _SELF)),
    "sums.s_f_psi.s": ("s", _span("sums.s_f_psi", _TOTAL)),
    "sums.np_report.self_s": ("s", _span("sums.np_report", _SELF)),
    "sums.survey_family.self_s": ("s", _span("sums.survey_family", _SELF)),
    "sums.congruence_check.self_s": ("s", _span("sums.congruence_check", _SELF)),
    "dwork.psi_a_matrix.calls": ("count", _span("dwork.psi_a_matrix", _CALLS)),
    "dwork.psi_a_matrix.s": ("s", _span("dwork.psi_a_matrix", _TOTAL)),
    "dwork.matrix_dim.max": ("count", lambda s: s["matrix_dim_max"]),
    "dwork.matrix_nnz_frac": ("ratio", lambda s: _ratio(s["matrix_nnz"], s["matrix_cells"])),
    "dwork.char_series.s": ("s", _span("dwork.char_series", _TOTAL)),
    "dwork.operator_trace.s": ("s", _span("dwork.operator_trace", _TOTAL)),
    "dwork.t_to_pi.s": ("s", _span("dwork.t_to_pi", _TOTAL)),
    "dwork.ordinariness_determinants.calls": (
        "count",
        _span("dwork.ordinariness_determinants", _CALLS),
    ),
    "dwork.ordinariness_determinants.s": ("s", _span("dwork.ordinariness_determinants", _TOTAL)),
    "dwork.facial_criterion.self_s": ("s", _span("dwork.facial_criterion", _SELF)),
    "dwork.ZqPi.mul.calls": ("count", _span("dwork.ZqPi.mul", _CALLS)),
    "dwork.ZqPi.mul.nonzero_frac": (
        "ratio",
        lambda s: _ratio(s["zqpi_nonzero"], s["spans"]["dwork.ZqPi.mul"][_CALLS]),
    ),
}
for _layer in LAYERS:
    PER_LAYER[f"layer.{_layer}.self_frac"] = (
        "ratio",
        lambda s, _l=_layer: _ratio(s["layer_self_s"][_l], s["job_s"]),
    )

# counts that must repeat exactly from round to round
EXACT = tuple(n for n, (unit, _) in PER_LAYER.items() if unit == "count")
