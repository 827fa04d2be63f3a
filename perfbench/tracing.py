"""Per-layer tracing of rgperturb, done from outside the package.

`Tracer.install()` replaces the public functions of each rgperturb module
(and a few hot methods) with wrappers that record a span per call: name,
start, end, parent span and job id.  Spans stay in memory; `layer_metrics`
turns one batch's spans and counters into the per-layer metrics, and
`write_spans` writes them out at the end of a run.  Nothing under `src/`
knows about this module.

Counters that are not spans (Q(i) operations, term pairs visited by
`MultiPoly.mul`, RK4 field evaluations, table sizes) are gathered in the
same wrappers, outside the timed interval of the span they belong to.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = ("gaussrat", "poly", "expressions", "systems", "engine", "renorm",
          "checks", "difference", "numeric", "cli")

# private functions that a metric needs a span for: span name -> (layer, attribute)
PRIVATE = {
    "cli.numeric_smoke": ("cli", "_numeric_smoke"),
    # the Theta-resummed windowed amplitudes that `verify` builds
    "difference.closed_windowed": ("difference", "_closed_windowed"),
}

# metric -> span names whose outermost occurrences are summed (inclusive time)
INCLUSIVE = {
    "systems.parse_spec_s": ("systems.parse_spec",),
    "engine.expand_s": ("engine.expand_table", "engine.expand_semisimple",
                        "engine.expand_nilpotent", "engine.expand_scalar"),
    "engine.eval_vpoly_s": ("engine.eval_vpoly_hs",),
    "renorm.derive_rg_s": ("renorm.derive_rg",),
    "renorm.expansion_s": ("renorm.renormalized_expansion",),
    "renorm.inversion_s": ("renorm.invert_amplitudes",),
    "renorm.polar_s": ("renorm.polar_transform",),
    "checks.functional_relation_s": ("checks.check_functional_relation",),
    "checks.group_property_s": ("checks.check_group_property",),
    "checks.no_secular_s": ("checks.check_no_secular",),
    "checks.residual_s": ("checks.check_residual",),
    "checks.inversion_s": ("checks.check_inversion",),
    "checks.homogeneity_s": ("checks.check_homogeneity",),
    "checks.autonomous_reduction_s": ("checks.check_autonomous_reduction",),
    "difference.identities_s": ("difference.check_difference_identities",),
    "difference.gk_poly_s": ("difference.gk_poly",),
    "difference.secular_s": ("difference.secular_windowed", "difference.secular_pm",
                             "difference.closed_windowed"),
    "numeric.rk4_s": ("numeric.rk4_integrate",),
    "numeric.reconstruct_s": ("numeric.reconstruct",),
    "numeric.emit_s": ("numeric.emit_csv", "numeric.emit_svg"),
    "cli.numeric_smoke_s": ("cli.numeric_smoke",),
}

# metric -> span names whose self time is summed
SELF = {
    "poly.mul_self_s": ("poly.MultiPoly.mul",),
    "poly.substitute_self_s": ("poly.MultiPoly.substitute",),
}

# metric -> span names whose calls are counted
CALLS = {
    "poly.mul_calls": ("poly.MultiPoly.mul",),
    "poly.substitute_calls": ("poly.MultiPoly.substitute",),
    "systems.parse_spec_calls": ("systems.parse_spec",),
    "engine.eval_vpoly_calls": ("engine.eval_vpoly_hs",),
    "renorm.amplitudes_calls": ("renorm.renormalized_amplitudes",),
}

# metrics kept by the wrappers as plain counters
COUNTERS = (
    "gaussrat.mul_calls", "gaussrat.add_calls", "gaussrat.coeff_bits_max",
    "poly.mul_pairs", "poly.mul_pairs_kept", "poly.mul_terms_out",
    "engine.table_terms", "checks.failed", "checks.skipped",
    "numeric.field_evals", "numeric.field_s", "numeric.bytes_written",
    "numeric.recon_dev", "numeric.conj_dev",
)

# per-layer metrics that are exact counts: equal on every batch of a seed
EXACT = (
    "gaussrat.mul_calls", "gaussrat.add_calls", "gaussrat.coeff_bits_max",
    "poly.mul_calls", "poly.mul_pairs", "poly.mul_pairs_kept_ratio",
    "poly.mul_terms_out", "poly.substitute_calls", "systems.parse_spec_calls",
    "engine.eval_vpoly_calls", "engine.table_terms", "renorm.amplitudes_calls",
    "checks.failed", "checks.skipped", "numeric.field_evals",
    "numeric.bytes_written",
)

METRICS = (
    "gaussrat.mul_calls", "gaussrat.add_calls", "gaussrat.coeff_bits_max",
    "poly.mul_calls", "poly.mul_self_s", "poly.mul_pairs",
    "poly.mul_pairs_kept_ratio", "poly.mul_terms_out",
    "poly.substitute_calls", "poly.substitute_self_s",
    "systems.parse_spec_s", "systems.parse_spec_calls",
    "engine.expand_s", "engine.eval_vpoly_s", "engine.eval_vpoly_calls",
    "engine.table_terms",
    "renorm.derive_rg_s", "renorm.expansion_s", "renorm.inversion_s",
    "renorm.polar_s", "renorm.amplitudes_calls",
    "checks.functional_relation_s", "checks.group_property_s",
    "checks.no_secular_s", "checks.residual_s", "checks.inversion_s",
    "checks.homogeneity_s", "checks.autonomous_reduction_s",
    "checks.failed", "checks.skipped",
    "difference.identities_s", "difference.gk_poly_s", "difference.secular_s",
    "numeric.rk4_s", "numeric.field_evals", "numeric.field_s",
    "numeric.reconstruct_s", "numeric.emit_s", "numeric.bytes_written",
    "numeric.recon_dev", "numeric.conj_dev",
    "cli.numeric_smoke_s", "cli.self_s",
)


def _coeff_bits(table) -> int:
    bits = 0
    for comp in table.components:
        for p in comp.entries.values():
            for c in p.terms.values():
                for q in (c.re, c.im):
                    bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
    return bits


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, job id)
        self.job = None
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = []
        self._eps = None  # index of eps in a MultiPoly exponent tuple

    # -- wrapping -------------------------------------------------------------
    def _span(self, name, fn, pre=None, post=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                args = pre(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            if post is not None:
                post(args, kwargs, result)
            return result

        return wrapper

    def _counting(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(a, b):
            counts[key] += 1
            return fn(a, b)

        return wrapper

    def _mul_pre(self, args, kwargs):
        # term pairs MultiPoly.mul visits, and those within the eps cut
        a, b = args[0], args[1]
        trunc = args[2] if len(args) > 2 else kwargs.get("trunc")
        cut = a.ctx.order if trunc is None else min(trunc, a.ctx.order)
        eps = self._eps
        cum = [0] * (cut + 1)
        for e in b.terms:
            if e[eps] <= cut:
                cum[e[eps]] += 1
        for k in range(1, cut + 1):
            cum[k] += cum[k - 1]
        kept = sum(cum[cut - e[eps]] for e in a.terms if e[eps] <= cut)
        self.counts["poly.mul_pairs"] += len(a.terms) * len(b.terms)
        self.counts["poly.mul_pairs_kept"] += kept
        return args

    def _mul_post(self, args, kwargs, result):
        self.counts["poly.mul_terms_out"] += len(result.terms)

    def _table_post(self, args, kwargs, table):
        counts = self.counts
        counts["engine.table_terms"] += sum(
            len(p.terms) for comp in table.components for p in comp.entries.values())
        counts["gaussrat.coeff_bits_max"] = max(counts["gaussrat.coeff_bits_max"],
                                                _coeff_bits(table))

    def _checks_post(self, args, kwargs, reports):
        for r in reports:
            if not r.applicable:
                self.counts["checks.skipped"] += 1
            elif not r.passed:
                self.counts["checks.failed"] += 1

    def _rk4_pre(self, args, kwargs):
        counts, clock, f = self.counts, time.perf_counter, args[0]

        def field(t, y):
            start = clock()
            try:
                return f(t, y)
            finally:
                counts["numeric.field_s"] += clock() - start
                counts["numeric.field_evals"] += 1

        return (field,) + args[1:]

    def _emit_post(self, args, kwargs, result):
        self.counts["numeric.bytes_written"] += os.path.getsize(args[1])

    def _simulate_post(self, args, kwargs, result):
        counts = self.counts
        counts["numeric.recon_dev"] = max(counts["numeric.recon_dev"],
                                          result["reconstruction_deviation"])
        counts["numeric.conj_dev"] = max(counts["numeric.conj_dev"],
                                         result["conjugate_deviation"])

    def install(self) -> None:
        """Wrap every public function of every layer, wherever it is bound."""
        hooks = {
            "engine.expand_semisimple": (None, self._table_post),
            "engine.expand_nilpotent": (None, self._table_post),
            "engine.expand_scalar": (None, self._table_post),
            "checks.run_all_checks": (None, self._checks_post),
            "numeric.rk4_integrate": (self._rk4_pre, None),
            "numeric.emit_csv": (None, self._emit_post),
            "numeric.emit_svg": (None, self._emit_post),
            "numeric.simulate_conjugate_pair": (None, self._simulate_post),
        }
        modules = {layer: importlib.import_module(f"rgperturb.{layer}") for layer in LAYERS}
        replace = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    replace[obj] = self._span(name, obj, *hooks.get(name, (None, None)))
        for name, (layer, attr) in PRIVATE.items():
            fn = getattr(modules[layer], attr)
            replace[fn] = self._span(name, fn)
        for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "rgperturb"]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replace:
                    setattr(mod, attr, replace[obj])

        self._eps = modules["poly"].EPS
        poly = modules["poly"].MultiPoly
        mul = self._span("poly.MultiPoly.mul", poly.mul, self._mul_pre, self._mul_post)
        poly.mul = poly.__mul__ = mul
        poly.substitute = self._span("poly.MultiPoly.substitute", poly.substitute)
        gq = modules["gaussrat"].GaussianRational
        gq.__mul__ = self._counting("gaussrat.mul_calls", gq.__mul__)
        gq.__add__ = self._counting("gaussrat.add_calls", gq.__add__)

    # -- batches ----------------------------------------------------------------
    def reset_counts(self) -> None:
        # in place: the counting wrappers hold a reference to this dict
        self.counts.update(dict.fromkeys(COUNTERS, 0))

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


def layer_metrics(spans, first: int, counts: dict) -> dict:
    """Per-layer metrics of the spans[first:] of one batch plus its counters."""
    out = dict.fromkeys(METRICS, 0)
    child_time = {}
    for i in range(first, len(spans)):
        name, start, end, parent, _ = spans[i]
        if parent >= first:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    group_of = {}
    for metric, names in INCLUSIVE.items():
        for n in names:
            group_of[n] = metric
    self_of = {n: m for m, names in SELF.items() for n in names}
    calls_of = {n: m for m, names in CALLS.items() for n in names}
    for i in range(first, len(spans)):
        name, start, end, parent, _ = spans[i]
        dur = end - start
        own = dur - child_time.get(i, 0.0)
        metric = group_of.get(name)
        if metric is not None:
            p = parent
            while p >= first and group_of.get(spans[p][0]) != metric:
                p = spans[p][3]
            if p < first:
                out[metric] += dur
        if name in self_of:
            out[self_of[name]] += own
        if name in calls_of:
            out[calls_of[name]] += 1
        if name.startswith("cli.") and name != "cli.numeric_smoke":
            out["cli.self_s"] += own
    for key in COUNTERS:
        if key in out:
            out[key] = counts[key]
    pairs = counts["poly.mul_pairs"]
    out["poly.mul_pairs_kept_ratio"] = counts["poly.mul_pairs_kept"] / pairs if pairs else 0
    return out
