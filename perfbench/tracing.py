"""Spans at the bwexp module boundaries, recorded from outside the package.

A traced pass replaces public functions with timing wrappers under the
name each caller looks them up by (``from .x import f`` binds a second
name, so both bindings are wrapped).  Every call records a span (id,
name, start, end, parent span, run id, attributes) in memory; the spans
are written out when the pass ends, and the per-layer metrics are
computed from them.  Untraced passes never import this module.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict

import bwexp.cli
import bwexp.construct
import bwexp.core
import bwexp.norms
import bwexp.solver

# (module, attribute, span name): each binding a caller looks up.
TRACED_BINDINGS = (
    (bwexp.cli, "en_bracket", "solver.en_bracket"),
    (bwexp.solver, "theorem2_bounds", "analytic_bounds.theorem2_bounds"),
    (bwexp.solver, "witness_certificate", "construct.witness_certificate"),
    (bwexp.solver, "en_lp_estimate", "solver.en_lp_estimate"),
    (bwexp.solver, "en_random_search", "solver.en_random_search"),
    (bwexp.solver, "build_witness", "construct.build_witness"),
    (bwexp.solver, "linprog", "solver.linprog"),
    (bwexp.construct, "build_witness", "construct.build_witness"),
    (bwexp.construct, "norm_on_K", "norms.norm_on_K"),
    (bwexp.construct, "norm_on_circle", "norms.norm_on_circle"),
    (bwexp.norms, "compose_to_expsum", "core.compose_to_expsum"),
    (bwexp.core, "compose_to_expsum", "core.compose_to_expsum"),
)


def _linprog_attrs(bound: inspect.BoundArguments, result) -> dict:
    args = bound.arguments
    a_ub = args.get("A_ub")
    return {
        "rows": 0 if a_ub is None else int(a_ub.shape[0]),
        "status": int(result.status),
        # the retry chain's later links drop SOLVER_OPTIONS or switch to IPM
        "fallback": args.get("options") is None or args.get("method") == "highs-ipm",
    }


def _lp_candidates(bound: inspect.BoundArguments, result) -> dict:
    cfg = bound.arguments["cfg"]
    residues = bwexp.solver.phase_residues(cfg.polygon_sides, cfg.phase_samples)
    return {"candidates": cfg.torus_points**2 * len(residues)}


_ATTRS = {
    "solver.linprog": _linprog_attrs,
    "solver.en_lp_estimate": _lp_candidates,
}


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        """Return fn recording a span named `name` around each call."""
        attrs = _ATTRS.get(name)
        signature = inspect.signature(fn) if attrs else None

        def traced(*args, **kwargs):
            span_id = len(self.spans)
            span = {
                "id": span_id,
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id,
            }
            self.spans.append(span)
            self._stack.append(span_id)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(attrs(bound, result))
            return result

        return traced

    def install(self) -> None:
        """Swap every binding in TRACED_BINDINGS for a timing wrapper."""
        for module, attr, name in TRACED_BINDINGS:
            setattr(module, attr, self.wrap(name, getattr(module, attr)))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self) -> tuple[dict, str | None]:
        """Per-layer totals from the spans, and the name with the most self time.

        trace.overhead_s needs an untraced pass, so the caller adds it.
        """
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        child_time = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        for span in self.spans:
            dur = span["end"] - span["start"]
            total[span["name"]] += dur
            self_time[span["name"]] += dur - child_time[span["id"]]
            calls[span["name"]] += 1
        lp = [s for s in self.spans if s["name"] == "solver.linprog"]
        candidates = sum(
            s["candidates"] for s in self.spans if s["name"] == "solver.en_lp_estimate"
        )
        out = {
            "solver.linprog.calls": calls["solver.linprog"],
            "solver.linprog.s": total["solver.linprog"],
            "solver.linprog.rows": sum(s["rows"] for s in lp),
            "solver.linprog.status4": sum(s["status"] == 4 for s in lp),
            "solver.linprog.fallback_calls": sum(s["fallback"] for s in lp),
            "solver.linprog.per_candidate": (
                calls["solver.linprog"] / candidates if candidates else 0.0
            ),
            "solver.en_lp_estimate.s": total["solver.en_lp_estimate"],
            "solver.en_lp_estimate.self_s": self_time["solver.en_lp_estimate"],
            "solver.en_random_search.s": total["solver.en_random_search"],
            "solver.en_bracket.self_s": self_time["solver.en_bracket"],
            "construct.witness_certificate.s": total["construct.witness_certificate"],
            "construct.build_witness.calls": calls["construct.build_witness"],
            "construct.build_witness.s": total["construct.build_witness"],
            "norms.norm_on_K.s": total["norms.norm_on_K"],
            "norms.norm_on_K.calls": calls["norms.norm_on_K"],
            "norms.norm_on_circle.s": total["norms.norm_on_circle"],
            "norms.norm_on_circle.calls": calls["norms.norm_on_circle"],
            "norms.norm_on_bidisk.s": total["norms.norm_on_bidisk"],
            "norms.norm_on_bidisk.calls": calls["norms.norm_on_bidisk"],
            "core.compose_to_expsum.s": total["core.compose_to_expsum"],
            "cli.main.s": total["cli.main"],
            # cli.main's only traced children are its en_bracket calls
            "cli.self_s": self_time["cli.main"],
            "analytic_bounds.theorem2_bounds.s": total["analytic_bounds.theorem2_bounds"],
        }
        top = max(self_time, key=self_time.get, default=None)
        return out, top

