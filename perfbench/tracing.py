"""In-memory spans around calls into graphenergy's public functions.

Each traced function is wrapped once per module that looks it up, so a
call is seen whichever module makes it: ``graphenergy.network`` calls
``attention_scores`` through its own global, ``graphenergy.graph`` calls
``laplacian_apply`` from inside ``derivative_energy``, and
``graphenergy.dynamics`` calls it directly. A span records its name, start
and end, its parent span, the run id, and the module the call came
through. Self time is a span's duration minus the part of it that child
spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import asdict, dataclass

# span name -> (defining module, function name)
TRACED = {
    "attention.attention_scores": ("graphenergy.attention", "attention_scores"),
    "attention.symmetrize_scores": ("graphenergy.attention", "symmetrize_scores"),
    "attention.attention_weighted_graph": (
        "graphenergy.attention", "attention_weighted_graph"),
    "network.init_model": ("graphenergy.network", "init_model"),
    "network.forward_trajectory": ("graphenergy.network", "forward_trajectory"),
    "network.message_passing": ("graphenergy.network", "message_passing"),
    "network.nonlocal_message_passing": (
        "graphenergy.network", "nonlocal_message_passing"),
    "network.feed_forward": ("graphenergy.network", "feed_forward"),
    "network.layer_norm": ("graphenergy.network", "layer_norm"),
    "graph.laplacian_apply": ("graphenergy.graph", "laplacian_apply"),
    "graph.aggregate_apply": ("graphenergy.graph", "aggregate_apply"),
    "graph.grad_inner_product": ("graphenergy.graph", "grad_inner_product"),
    "graph.derivative_energy": ("graphenergy.graph", "derivative_energy"),
    "graph.canonical_energy_graph": ("graphenergy.graph", "canonical_energy_graph"),
    "diagnostics.energy_series": ("graphenergy.diagnostics", "energy_series"),
    "diagnostics.fit_decay": ("graphenergy.diagnostics", "fit_decay"),
    "diagnostics.relative_change_series": (
        "graphenergy.diagnostics", "relative_change_series"),
    "diagnostics.cosine_similarity_matrix": (
        "graphenergy.diagnostics", "cosine_similarity_matrix"),
    "diagnostics.prune_layer_deviation": (
        "graphenergy.diagnostics", "prune_layer_deviation"),
    "dynamics.simulate_heat": ("graphenergy.dynamics", "simulate_heat"),
    "dynamics.simulate_nonlocal": ("graphenergy.dynamics", "simulate_nonlocal"),
    "dynamics.simulate_preln_flow": ("graphenergy.dynamics", "simulate_preln_flow"),
    "dynamics.estimate_lambda_max": ("graphenergy.dynamics", "estimate_lambda_max"),
    "ingest.generate_graph": ("graphenergy.ingest", "generate_graph"),
    "ingest.random_features": ("graphenergy.ingest", "random_features"),
}
ROOT_SPAN = "cli.main"


def _laplacian_bytes(args, kwargs) -> dict:
    """Bytes ``laplacian_apply`` moves, computed from array sizes: both
    endpoint gathers, the edge weights, and the output."""
    G, X = args[0], args[1]
    edges = int(G.indices.size)
    width = X.shape[1] if getattr(X, "ndim", 1) == 2 else 1
    return {"bytes": (2 * edges * width + edges + G.n * width) * 8}  # float64


def _energy_states(args, kwargs) -> dict:
    return {"states": len(args[0].states)}


# Extra numbers recorded on a span, from the call's arguments.
ON_CALL = {
    "graph.laplacian_apply": _laplacian_bytes,
    "diagnostics.energy_series": _energy_states,
}
# Extra numbers recorded on a span, from the call's result. The workload's
# gated flow records every Euler step, so its steps are its records after
# the initial state.
ON_RESULT = {
    "dynamics.simulate_nonlocal": lambda result: {"steps": len(result.times) - 1},
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    site: str
    info: dict


class Tracer:
    """Collects spans in memory; ``install`` wraps every traced function
    at each module attribute that holds it, ``uninstall`` restores them."""

    def __init__(self, run: str):
        self.run = run
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, (module, attr) in TRACED.items():
            original = getattr(importlib.import_module(module), attr)
            for holder, held_as in patch_sites(original):
                site = holder.__name__.rsplit(".", 1)[-1]
                self._patched.append((holder, held_as, original))
                setattr(holder, held_as, self.wrap(name, original, site))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def wrap(self, name: str, fn, site: str):
        on_call, on_result = ON_CALL.get(name), ON_RESULT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(index)
            info = on_call(args, kwargs) if on_call else {}
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.run, site, info)
            if on_result:
                info.update(on_result(result))
            return result

        return traced

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a root span named ``name``."""
        return self.wrap(name, fn, "perfbench")(*args)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump([{"id": k, **asdict(s)} for k, s in enumerate(self.spans)], fh)
            fh.write("\n")


def patch_sites(original) -> list[tuple[object, str]]:
    """Every ``(module, attribute)`` of the loaded ``graphenergy`` modules
    that holds ``original``."""
    sites = []
    for mod_name, module in sorted(sys.modules.items()):
        if mod_name == "graphenergy" or mod_name.startswith("graphenergy."):
            sites.extend(
                (module, attr) for attr, value in vars(module).items()
                if value is original
            )
    return sites


def self_times(spans) -> list[float]:
    """Per span, its duration minus the union of its children's intervals
    clipped to it."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for k, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(k, [])):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


CALLS_AND_SELF = (
    "attention.attention_scores",
    "attention.symmetrize_scores",
    "attention.attention_weighted_graph",
    "network.forward_trajectory",
    "network.message_passing",
    "network.nonlocal_message_passing",
    "graph.laplacian_apply",
    "graph.grad_inner_product",
    "graph.derivative_energy",
    "graph.aggregate_apply",
    "diagnostics.energy_series",
    "diagnostics.prune_layer_deviation",
)
SELF_ONLY = (
    "network.feed_forward",
    "network.layer_norm",
    "network.init_model",
    "diagnostics.fit_decay",
    "diagnostics.relative_change_series",
    "diagnostics.cosine_similarity_matrix",
    "dynamics.simulate_heat",
    "dynamics.simulate_nonlocal",
    "dynamics.simulate_preln_flow",
    "dynamics.estimate_lambda_max",
    "ingest.generate_graph",
    "ingest.random_features",
)
CALLS_ONLY = ("graph.canonical_energy_graph",)


def per_layer(spans, layers_needed: int, states_needed: int | None) -> dict:
    """Per-layer metrics of one traced workload run, as ``{name: (value,
    unit, base)}``; ``base`` spells out the numerator and denominator of
    every ratio."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    for s, t in zip(spans, selfs):
        calls[s.name] = calls.get(s.name, 0) + 1
        busy[s.name] = busy.get(s.name, 0.0) + t
    out = {}
    for name in CALLS_AND_SELF + CALLS_ONLY:
        out[f"{name}.calls"] = (calls.get(name, 0), "count", "")
    for name in CALLS_AND_SELF + SELF_ONLY:
        out[f"{name}.self_s"] = (busy.get(name, 0.0), "s", "")

    evals = calls.get("network.feed_forward", 0)
    out["network.layer_evals"] = (
        evals, "count", "feed_forward calls; each evaluated hidden layer makes one")
    out["network.useful_layer_ratio"] = _ratio(
        layers_needed, evals, "layer evaluations needed / made")

    moved = sum(s.info["bytes"] for s in spans if s.name == "graph.laplacian_apply")
    lap_s = busy.get("graph.laplacian_apply", 0.0)
    out["graph.laplacian_apply.computed_gb_per_s"] = (
        moved / lap_s / 1e9 if lap_s > 0 else 0.0, "GB/s",
        f"computed from array sizes: {moved} B / {lap_s:.6g} s")

    measured = sum(s.info["states"] for s in spans if s.name == "diagnostics.energy_series")
    distinct = measured if states_needed is None else states_needed
    out["diagnostics.useful_state_ratio"] = _ratio(
        distinct, measured, "distinct states / states measured")

    gated = {k for k, s in enumerate(spans) if s.name == "dynamics.simulate_nonlocal"}
    steps = sum(spans[k].info["steps"] for k in gated)
    direct = sum(
        1 for s in spans
        if s.name == "graph.laplacian_apply" and s.site == "dynamics"
        and _has_ancestor(spans, s, gated)
    )
    out["dynamics.laplacian_per_step"] = (
        direct / steps if steps else 0.0, "calls/step",
        f"{direct} laplacian_apply calls from dynamics / {steps} gated-flow Euler steps")
    out["cli.self_s"] = (
        busy.get(ROOT_SPAN, 0.0), "s", "command time outside every traced call")
    return out


def _ratio(num, den, what):
    # Nothing attempted means nothing wasted.
    return (num / den if den else 1.0, "ratio", f"{what}: {num}/{den}")


def _has_ancestor(spans, span, candidates) -> bool:
    parent = span.parent
    while parent is not None:
        if parent in candidates:
            return True
        parent = spans[parent].parent
    return False
