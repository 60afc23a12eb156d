"""Span tracing at the module boundaries of `varchenko`, from outside it.

Each target is a public name in its home module. Installing the tracer
replaces the function object with a wrapper wherever a loaded `varchenko`
module holds a reference to it, so callers that imported the name directly
see the wrapper too. Spans stay in memory as [name, start, end, parent,
counters] and are summarised after each traced item. A target whose name no
longer exists makes the metrics built on it absent instead of failing.

`polyring` and `report` have no boundary that can be cut from outside:
polynomial arithmetic runs inside the varmatrix spans, and report building
and JSON rendering inside the cli spans.
"""

from __future__ import annotations

import functools
import sys
import time
from statistics import median


def _details(metric, key):
    return lambda args, result: {metric: result.details[key]}


# (span name, module, attribute path, counters(args, result) -> {metric: n}).
# The layer is the part of the span name before the dot.
TARGETS = (
    ("lp.solve_lp", "lp", "solve_lp", None),
    ("geometry.feasible_interior", "geometry", "feasible_interior",
     lambda args, result: {"geometry.feasible_hits": int(result is not None)}),
    ("geometry.is_bounded", "geometry", "is_bounded", None),
    ("faces.enumerate_faces", "faces", "enumerate_faces",
     lambda args, result: {"faces.count": len(result.faces),
                           "faces.chambers": len(result.chamber_ids)}),
    ("files.parse_arrangement", "files", "parse_arrangement", None),
    ("apartments.enumerate_apartments", "apartments", "enumerate_apartments",
     lambda args, result: {"apartments.count": len(result)}),
    ("apartments.faces_in", "apartments", "faces_in", None),
    ("apartments.chambers_in", "apartments", "chambers_in", None),
    ("tits.tits_semigroup_check", "tits", "tits_semigroup_check",
     _details("tits.triples", "triples")),
    ("witt.witt_sweep", "witt", "witt_sweep", _details("witt.nested_pairs", "nested_pairs")),
    ("euler.classify", "euler", "classify", None),
    ("euler.lemma_ch_check", "euler", "lemma_ch_check", None),
    ("euler.lemma_chm_check", "euler", "lemma_chm_check",
     _details("euler.chm_checked", "checked")),
    ("varmatrix.det_symbolic", "varmatrix", "det_symbolic",
     lambda args, result: {"varmatrix.det_symbolic_max_n": args[0].size}),
    ("varmatrix.det_modular", "varmatrix", "det_modular",
     lambda args, result: {"varmatrix.det_modular_trials": len(result)}),
    ("varmatrix.varchenko_matrix", "varmatrix", "varchenko_matrix", None),
    ("varmatrix.beta_independence", "varmatrix", "beta_independence", None),
    ("varmatrix.expand", "varmatrix", "FactoredDet.expand", None),
    ("varmatrix.v_path_identity_check", "varmatrix", "v_path_identity_check",
     _details("varmatrix.identities_checked", "checked")),
    ("varmatrix.mad_recurrence_check", "varmatrix", "mad_recurrence_check",
     _details("varmatrix.identities_checked", "checked")),
    ("varmatrix.verify_factorization", "varmatrix", "verify_factorization",
     lambda args, result: {
         "varmatrix.factorization_symbolic": int(result.details.get("mode") == "symbolic")}),
    ("varmatrix.beta_independence_check", "varmatrix", "beta_independence_check", None),
    ("cli.main", "cli", "main", None),
    ("cli.render", "cli", "json.dumps", None),
)

_V = "varmatrix."
_IDENTITIES = (_V + "v_path_identity_check", _V + "mad_recurrence_check")

# Per-item metric -> (how it is read, span names or a layer).
#   calls: number of spans; self: self time; time: total time;
#   sum / max: of the counters the spans' hooks returned; layer: self time
#   of every span of the layer.
METRICS = {
    "lp.calls": ("calls", "lp.solve_lp"),
    "lp.self_s": ("layer", "lp"),
    "geometry.feasible_calls": ("calls", "geometry.feasible_interior"),
    "geometry.feasible_hits": ("sum", "geometry.feasible_interior"),
    "geometry.bounded_calls": ("calls", "geometry.is_bounded"),
    "geometry.self_s": ("layer", "geometry"),
    "faces.count": ("sum", "faces.enumerate_faces"),
    "faces.chambers": ("sum", "faces.enumerate_faces"),
    "faces.self_s": ("layer", "faces"),
    "files.parse_s": ("time", "files.parse_arrangement"),
    "apartments.count": ("sum", "apartments.enumerate_apartments"),
    "apartments.self_s": ("layer", "apartments"),
    "tits.triples": ("sum", "tits.tits_semigroup_check"),
    "tits.self_s": ("layer", "tits"),
    "witt.nested_pairs": ("sum", "witt.witt_sweep"),
    "witt.self_s": ("layer", "witt"),
    "euler.chm_checked": ("sum", "euler.lemma_chm_check"),
    "euler.self_s": ("layer", "euler"),
    "varmatrix.det_symbolic_s": ("self", _V + "det_symbolic"),
    "varmatrix.det_symbolic_calls": ("calls", _V + "det_symbolic"),
    "varmatrix.det_symbolic_max_n": ("max", _V + "det_symbolic"),
    "varmatrix.det_modular_s": ("self", _V + "det_modular"),
    "varmatrix.det_modular_trials": ("sum", _V + "det_modular"),
    "varmatrix.factorization_symbolic": ("sum", _V + "verify_factorization"),
    "varmatrix.factorization_checked": ("calls", _V + "verify_factorization"),
    "varmatrix.matrix_s": ("self", _V + "varchenko_matrix"),
    "varmatrix.beta_s": ("self", _V + "beta_independence"),
    "varmatrix.expand_s": ("self", _V + "expand"),
    "varmatrix.identities_s": ("self", *_IDENTITIES),
    "varmatrix.identities_checked": ("sum", *_IDENTITIES),
    "varmatrix.self_s": ("layer", "varmatrix"),
    "cli.self_s": ("layer", "cli"),
    "trace.unattributed_s": ("self", "cli.main"),
}

# Ratios and their parts; the parts in _HIDDEN are not reported on their own.
_RATIOS = {"geometry.feasible_hit_frac": ("geometry.feasible_hits", "geometry.feasible_calls"),
           "varmatrix.symbolic_frac": ("varmatrix.factorization_symbolic",
                                       "varmatrix.factorization_checked")}
_HIDDEN = {"geometry.feasible_hits", "varmatrix.factorization_symbolic",
           "varmatrix.factorization_checked"}


def _layer(span_name):
    return span_name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._installed = []  # (holder, attribute, original)
        self.missing = set()

    def _wrap(self, name, fn, counters):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if counters is not None:
                try:
                    span[4] = counters(args, result)
                except (AttributeError, KeyError, TypeError, IndexError):
                    span[4] = None  # the field it reads was renamed
            return result

        return wrapper

    def install(self):
        modules = [mod for key, mod in list(sys.modules.items())
                   if mod is not None and (key == "varchenko" or key.startswith("varchenko."))]
        for name, module, path, counters in TARGETS:
            owner = sys.modules.get(f"varchenko.{module}")
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if not callable(original):
                self.missing.add(name)
                continue
            wrapper = self._wrap(name, original, counters)
            holders = [(owner, attr)]
            if not parents:
                holders += [(mod, key) for mod in modules if mod is not owner
                            for key, value in list(vars(mod).items()) if value is original]
            for holder, key in holders:
                setattr(holder, key, wrapper)
                self._installed.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self._installed):
            setattr(holder, key, original)
        self._installed.clear()

    def take(self):
        """Spans recorded since the last call, and a fresh buffer."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


def _sources(how, names):
    if how == "layer":
        return [target[0] for target in TARGETS if _layer(target[0]) == names[0]]
    return list(names)


def summarize(spans, missing):
    """Per-item metrics (None when absent) from one traced item's spans."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    own = {}  # span name -> [calls, self time, total time, counter dicts]
    for i, (name, start, end, _, counters) in enumerate(spans):
        entry = own.setdefault(name, [0, 0.0, 0.0, []])
        entry[0] += 1
        entry[1] += end - start - child_time[i]
        entry[2] += end - start
        entry[3].append(counters)

    raw = {}
    for metric, (how, *names) in METRICS.items():
        sources = _sources(how, names)
        if missing.intersection(sources):
            raw[metric] = None
            continue
        entries = [own[n] for n in sources if n in own]
        if how == "calls":
            raw[metric] = sum(e[0] for e in entries)
        elif how in ("self", "layer"):
            raw[metric] = sum(e[1] for e in entries)
        elif how == "time":
            raw[metric] = sum(e[2] for e in entries)
        else:
            counted = [c for e in entries for c in e[3]]
            if None in counted:
                raw[metric] = None
                continue
            values = [c[metric] for c in counted]
            raw[metric] = max(values, default=0) if how == "max" else sum(values)
    return raw


def combine(per_item_raws):
    """Per-layer metrics: each item's median over its traced runs, summed
    over items (max for "max" metrics). Ratios are formed from the summed parts;
    None marks an absent metric."""
    totals = {}
    for raws in per_item_raws.values():
        for key in METRICS:
            values = [r[key] for r in raws]
            if None in values or totals.get(key, 0) is None:
                totals[key] = None
                continue
            value = median(values)
            if all(isinstance(v, int) for v in values) and value == int(value):
                value = int(value)
            if METRICS[key][0] == "max":
                totals[key] = max(totals.get(key, 0), value)
            else:
                totals[key] = totals.get(key, 0) + value
    metrics = {k: v for k, v in totals.items() if k not in _HIDDEN}
    for name, (part, whole) in _RATIOS.items():
        if totals[part] is None or totals[whole] is None:
            metrics[name] = None
        else:
            metrics[name] = totals[part] / totals[whole] if totals[whole] else 0.0
    return metrics
