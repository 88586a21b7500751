"""Per-layer tracing of macdunkl from outside the package.

``Tracer.install`` replaces the public functions and methods of each
module with wrappers that time every call.  A wrapper keeps a stack of
open calls so that a layer's self time is its span minus the spans of the
traced calls it made.  Counts of the work each call was handed (term
counts, cache misses) are taken at the same boundary.  Calls to the coarse
layers are also kept as spans (name, start, end, parent span, check
index) in memory; ``Tracer.dump`` writes them out once the round is over.
Nothing inside macdunkl is edited: a name the package no longer has is
listed as unpatched and its metrics read zero.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# Identities whose inclusive time is reported, in registry order; the
# three workloads together run all of them.
IDENTITIES = (
    "scalar_part",
    "tbinom_taylor",
    "tbinom_taylor_scaled",
    "tbinom_h4_scaling",
    "tbinom_product_vs_recurrence",
    "h_explicit_1",
    "h_explicit_2",
    "h_explicit_3",
    "beta2_h3",
    "ord1_matches",
    "ord2_matches",
    "ord3_matches",
    "ord3_raw_eq_dunkl",
    "ord3_display_r1",
    "ord3_display_r2",
    "ord5_beta0",
    "ord5_beta1",
    "ord5_beta2",
    "ord5_beta3",
    "type1_matches",
    "type2_matches",
    "type3_matches",
    "type4_matches",
    "type5_matches",
    "type6_matches",
    "h_commutator",
    "macdonald_commutator",
    "orderwise_commutator",
    "eq1_shift_form",
)

# (layer, quantities reported) in the order they are printed.
LAYERS = (
    ("multipoly.mul", ("calls", "self_s", "term_pairs")),
    ("multipoly.exact_div", ("calls", "self_s", "dividend_terms", "divisor_terms", "quotient_terms")),
    ("multipoly.add", ("calls", "self_s", "terms_copied")),
    ("multipoly.permute_vars", ("calls", "self_s", "terms")),
    ("multipoly.to_msym_coords", ("calls", "self_s")),
    ("multipoly.symmetry_violation", ("calls", "self_s")),
    ("multipoly.vandermonde", ("calls", "misses")),
    ("rings.hjet.mul", ("calls", "self_s")),
    ("rings.betapoly.mul", ("calls", "self_s")),
    ("operators.jet_matrix", ("calls", "misses", "self_s")),
    ("operators.macdonald_apply", ("calls", "self_s")),
    ("operators.dunkl_apply", ("calls", "self_s")),
    ("operators.b_op_apply", ("calls", "self_s")),
    ("operators.operator_matrix", ("calls", "self_s")),
    ("operators.matrix_matmul", ("self_s",)),
    ("tbinom.t_binomial", ("calls", "self_s")),
    ("tbinom.jet", ("self_s",)),
    ("verify.typesums.raw_apply", ("calls", "self_s")),
    ("verify.typesums.closed_apply", ("calls", "self_s")),
    ("verify.typesums.canonical_sums", ("misses",)),
    ("cli.emit_report", ("self_s",)),
)

# Metrics the traced run adds about itself.
OVERHEAD = (("trace.traced_verify_s", "s"), ("trace.overhead_pct", "%"))

# Layers called often enough that keeping each call as a span would cost
# more memory than the whole round; they are aggregated only.
_AGGREGATE_ONLY = {
    "multipoly.mul",
    "multipoly.add",
    "multipoly.permute_vars",
    "multipoly.symmetry_violation",
    "multipoly.to_msym_coords",
    "multipoly.vandermonde",
    "rings.hjet.mul",
    "rings.betapoly.mul",
    "tbinom.t_binomial",
}


def _unit(quantity: str) -> str:
    return "s" if quantity.endswith("_s") else "count"


def metric_specs():
    """[(name, unit)] of every per-layer metric, in print order."""
    out = []
    for layer, quantities in LAYERS:
        out.extend((f"{layer}.{q}", _unit(q)) for q in quantities)
    out.append(("cli.report_bytes", "bytes"))
    out.extend((f"verify.identities.{name}.s", "s") for name in IDENTITIES)
    out.extend(OVERHEAD)
    return out


def is_count(name: str) -> bool:
    """Counts repeat exactly between rounds; times do not."""
    return not (name.endswith("_s") or name.endswith(".s") or name.startswith("trace."))


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.work = Counter()
        self.spans = []
        self.unpatched = []
        self.check = None  # index of the check being verified, shared by its spans
        self._stack = []
        self._next_id = 0
        self._canonical_start = 0

    # -- recording --------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        """A wrapper timing each call of fn as a span of the named layer.

        ``before(work, args)`` may return a state that is handed to
        ``after(work, args, result, state)``."""
        keep = name not in _AGGREGATE_ONLY
        calls, self_s, incl_s, work = self.calls, self.self_s, self.incl_s, self.work
        stack, perf = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            calls[name] += 1
            state = before(work, args) if before is not None else None
            parent_span = stack[-1][1] if stack else None
            span_id = parent_span
            if keep:
                span_id = self._next_id
                self._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                self_s[name] += dur - frame[0]
                incl_s[name] += dur
                if stack:
                    stack[-1][0] += dur
                if keep:
                    self.spans.append((span_id, parent_span, name, t0, t1, self.check))
            if after is not None:
                after(work, args, result, state)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span of the named layer."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- patching ----------------------------------------------------------

    def _patch_function(self, module, attr, name, before=None, after=None):
        orig = getattr(sys.modules.get(module), attr, None)
        if orig is None:
            self.unpatched.append(f"{module}.{attr}")
            return None
        wrapper = self.wrap(name, orig, before, after)
        for modname, mod in list(sys.modules.items()):
            if modname == "macdunkl" or modname.startswith("macdunkl."):
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
        return orig

    def _patch_method(self, cls, attrs, name, before=None, after=None, static=False):
        orig = cls.__dict__.get(attrs[0]) if cls is not None else None
        if orig is None:
            self.unpatched.append(f"{getattr(cls, '__name__', '?')}.{attrs[0]}")
            return
        fn = orig.__func__ if static else orig
        wrapper = self.wrap(name, fn, before, after)
        for attr in attrs:
            if cls.__dict__.get(attr) is orig:
                setattr(cls, attr, staticmethod(wrapper) if static else wrapper)

    def install(self):
        """Wrap the layer boundaries of an imported macdunkl."""
        import macdunkl.multipoly as mp
        import macdunkl.operators as ops
        import macdunkl.rings as rings
        import macdunkl.verify.typesums as ts

        def mul_pairs(work, args):
            work["multipoly.mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)

        def div_before(work, args):
            work["multipoly.exact_div.dividend_terms"] += len(args[0].terms)
            work["multipoly.exact_div.divisor_terms"] += len(args[1].terms)

        def div_after(work, args, result, state):
            work["multipoly.exact_div.quotient_terms"] += len(result.terms)

        def add_copied(work, args):
            work["multipoly.add.terms_copied"] += len(args[0].terms)

        def permute_terms(work, args):
            work["multipoly.permute_vars.terms"] += len(args[0].terms)

        vdm_cache = getattr(mp, "_VDM_CACHE", None)

        def vdm_before(work, args):
            return len(vdm_cache) if vdm_cache is not None else 0

        def vdm_after(work, args, result, state):
            if vdm_cache is not None and len(vdm_cache) > state:
                work["multipoly.vandermonde.misses"] += 1

        MultiPoly = getattr(mp, "MultiPoly", None)
        self._patch_method(MultiPoly, ("__mul__",), "multipoly.mul", mul_pairs)
        self._patch_method(MultiPoly, ("__add__",), "multipoly.add", add_copied)
        self._patch_method(MultiPoly, ("permute_vars",), "multipoly.permute_vars", permute_terms)
        self._patch_function(mp.__name__, "exact_div", "multipoly.exact_div", div_before, div_after)
        self._patch_function(mp.__name__, "to_msym_coords", "multipoly.to_msym_coords")
        self._patch_function(mp.__name__, "symmetry_violation", "multipoly.symmetry_violation")
        self._patch_function(mp.__name__, "vandermonde", "multipoly.vandermonde", vdm_before, vdm_after)

        self._patch_method(getattr(rings, "HJet", None), ("__mul__", "__rmul__"), "rings.hjet.mul")
        self._patch_method(getattr(rings, "BetaPoly", None), ("__mul__", "__rmul__"), "rings.betapoly.mul")

        jet_cache = getattr(ops, "jet_matrix", None)

        def jet_before(work, args):
            return jet_cache.cache_info().misses if hasattr(jet_cache, "cache_info") else 0

        def jet_after(work, args, result, state):
            if hasattr(jet_cache, "cache_info"):
                work["operators.jet_matrix.misses"] += jet_cache.cache_info().misses - state

        self._patch_function(ops.__name__, "jet_matrix", "operators.jet_matrix", jet_before, jet_after)
        for attr in ("macdonald_apply", "dunkl_apply", "b_op_apply"):
            self._patch_function(ops.__name__, attr, f"operators.{attr}")
        matrix = getattr(ops, "OperatorMatrix", None)
        self._patch_method(matrix, ("from_operator",), "operators.operator_matrix", static=True)
        self._patch_method(matrix, ("__matmul__",), "operators.matrix_matmul")

        import macdunkl.tbinom as tb

        self._patch_function(tb.__name__, "t_binomial", "tbinom.t_binomial")
        self._patch_function(tb.__name__, "t_binomial_jet", "tbinom.jet")
        self._patch_function(tb.__name__, "scaled_t_binomial_jet", "tbinom.jet")

        self._patch_function(ts.__name__, "type_sum_raw_apply", "verify.typesums.raw_apply")
        self._patch_function(ts.__name__, "type_sum_closed_apply", "verify.typesums.closed_apply")
        self._canonical = getattr(ts, "_canonical_sums", None)
        if not hasattr(self._canonical, "cache_info"):
            self.unpatched.append(f"{ts.__name__}._canonical_sums")
            self._canonical = None
        self._canonical_start = self._canonical_misses()

    def _canonical_misses(self):
        return self._canonical.cache_info().misses if self._canonical is not None else 0

    # -- results -----------------------------------------------------------

    def metrics(self, report_bytes):
        """The per-layer metrics of everything recorded so far (without the
        overhead pair, which needs an untraced pass)."""
        self.work["verify.typesums.canonical_sums.misses"] = (
            self._canonical_misses() - self._canonical_start
        )
        out = {}
        for layer, quantities in LAYERS:
            for q in quantities:
                key = f"{layer}.{q}"
                if q == "calls":
                    out[key] = self.calls[layer]
                elif q == "self_s":
                    out[key] = self.self_s[layer]
                else:
                    out[key] = self.work[key]
        out["cli.report_bytes"] = report_bytes
        for name in IDENTITIES:
            out[f"verify.identities.{name}.s"] = self.incl_s[f"verify.identities.{name}"]
        return out

    def dump(self, path, header):
        payload = dict(header)
        payload["unpatched"] = self.unpatched
        payload["span_fields"] = ["id", "parent", "name", "start", "end", "check"]
        payload["spans"] = self.spans
        payload["calls"] = dict(self.calls)
        payload["self_s"] = dict(self.self_s)
        payload["inclusive_s"] = dict(self.incl_s)
        payload["work"] = dict(self.work)
        with open(path, "w") as fh:
            json.dump(payload, fh)
