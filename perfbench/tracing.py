"""Spans around calls into aqgv's public functions, for the traced run.

The wrappers are installed from here, by replacing module attributes and
Subspace methods of a freshly imported aqgv; nothing inside the package
changes.  Spans are aggregated per name as they close: calls, inclusive
time and self time (the span minus the time its child spans cover).
Hot calls (Subspace.reduce, weight) are aggregated the same way, so no
per-call record is kept.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self._stack = []  # [name, child seconds] per open span

    def span(self, name, fn, absorb=()):
        """Wrap fn in a span called name.  Called directly under an open
        span whose name is in absorb, fn runs as part of that span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            if stack and stack[-1][0] in absorb:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.total[name] += took
                self.self_time[name] += took - frame[1]
                if stack:
                    stack[-1][1] += took

        return traced

    def counter(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def self_ms(self, name):
        return 1e3 * self.self_time[name] / self.calls[name] if self.calls[name] else 0.0


def instrument(wl, tracer):
    """Install the tracer's wrappers for workload ``wl``; returns a function
    that removes them again.  The cli workload's commands run in child
    processes, so there the spans come from cli_child.py instead."""
    if wl.name == "cli":
        wl.span_file = wl.tmp / "cli-span.json"

        def stop():
            wl.span_file = None

        return stop
    aq = wl.aq
    cs, b, a, f = aq.codesearch, aq.bounds, aq.asymptotic, aq.fields
    sub = f.Subspace
    undo = []

    def patch(owner, attr, wrapped):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    for attr in ("random_nested_pair", "random_isotropic_code"):
        patch(cs, attr, tracer.span("codesearch.sample", getattr(cs, attr)))
    patch(cs, "css_distances", tracer.span("codesearch.verify", cs.css_distances))
    # Inside stab_profile_matrix the profile calls are the report, not a verification.
    patch(cs, "stab_detects_profile",
          tracer.span("codesearch.verify", cs.stab_detects_profile, absorb={"codesearch.profile"}))
    patch(cs, "stab_profile_matrix", tracer.span("codesearch.profile", cs.stab_profile_matrix))
    patch(cs, "gv_witness_search", tracer.span("codesearch.search", cs.gv_witness_search))
    patch(cs, "enumerate_nested_pairs", tracer.span("codesearch.enumerate", cs.enumerate_nested_pairs))
    patch(cs, "weight", tracer.counter("fields.weight", cs.weight))
    patch(sub, "reduce", tracer.span("fields.reduce", sub.reduce))
    patch(sub, "span", classmethod(tracer.span("fields.span", sub.__dict__["span"].__func__)))
    patch(sub, "dual", tracer.span("fields.dual", sub.dual))
    patch(sub, "symplectic_dual", tracer.span("fields.dual", sub.symplectic_dual))
    for attr in ("css_gv_lhs", "stab_gv_lhs"):
        patch(b, attr, tracer.span("bounds.lhs", getattr(b, attr)))
    for attr in ("best_css_params", "max_k_stab"):
        patch(b, attr, tracer.span("bounds.scan", getattr(b, attr)))
    patch(a, "stab_frontier", tracer.span("asymptotic.frontier", a.stab_frontier))

    def remove():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return remove


def layer_metrics(wl, tracer, ops, observed):
    """Per-layer metrics of one workload's traced phase.  ``ops`` is the
    number of operations run; ``observed`` holds (op, output, seconds) for
    each one that passed its check."""
    name, t = wl.name, tracer
    per_op = lambda key: t.calls[key] / ops  # noqa: E731
    if name == "witness":
        rate, promised = wl.hit_rates()
        return {
            "codesearch.sample_ms": (t.self_ms("codesearch.sample"), "ms"),
            "codesearch.verify_ms": (t.self_ms("codesearch.verify"), "ms"),
            "codesearch.profile_ms": (t.self_ms("codesearch.profile"), "ms"),
            "codesearch.search_self_ms": (t.self_ms("codesearch.search"), "ms"),
            "codesearch.trials": (t.calls["codesearch.sample"] / ops, "count/op"),
            "fields.weight_calls": (per_op("fields.weight"), "count/op"),
            "fields.reduce_calls": (per_op("fields.reduce"), "count/op"),
            "fields.reduce_ms": (t.self_ms("fields.reduce"), "ms"),
            "fields.span_calls": (per_op("fields.span"), "count/op"),
            "fields.span_ms": (t.self_ms("fields.span"), "ms"),
            "fields.dual_calls": (per_op("fields.dual"), "count/op"),
            "fields.dual_ms": (t.self_ms("fields.dual"), "ms"),
            "codesearch.hits_per_trial": (rate, "ratio"),
            "codesearch.one_minus_lhs": (promised, "ratio"),
        }
    if name == "lemma":
        pairs = sum(out.total_pairs for _, out, _ in observed)
        return {
            "codesearch.enumerate_ms": (t.self_ms("codesearch.enumerate"), "ms"),
            "codesearch.pairs_per_s": (pairs / t.total["codesearch.enumerate"], "1/s"),
            "fields.lemma_span_ms": (t.self_ms("fields.span"), "ms"),
            "fields.lemma_dual_ms": (t.self_ms("fields.dual"), "ms"),
        }
    if name == "tables":
        return {
            "bounds.lhs_calls": (per_op("bounds.lhs"), "count/op"),
            "bounds.lhs_us": (1e3 * t.self_ms("bounds.lhs"), "us"),
            "bounds.scan_ms": (t.self_ms("bounds.scan"), "ms"),
            "asymptotic.frontier_ms": (t.self_ms("asymptotic.frontier"), "ms"),
        }
    mean_ms = lambda xs: 1e3 * sum(xs) / len(xs)  # noqa: E731
    spans = [(cmd, proc.span) for cmd, proc, _ in observed]
    return {
        "cli.import_ms": (mean_ms([s["import_s"] for _, s in spans]), "ms"),
        "cli.run_ms": (mean_ms([s["run_s"] for _, s in spans]), "ms"),
        "cli.search_run_ms": (mean_ms([s["run_s"] for c, s in spans if c.argv[0] == "search"]), "ms"),
        "cli.rest_ms": (mean_ms([s["wall_s"] - s["import_s"] - s["run_s"] for _, s in spans]), "ms"),
    }
