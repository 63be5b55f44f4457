"""Names that code outside the package resolves by lookup.

The benchmark's tracer (``perfbench/tracing.py``) wraps each function in
its ``TRACED`` table with ``getattr`` and no default, so deleting or
renaming one breaks a traced benchmark run. The benchmark's tests also
import ``_resolve_graph`` and ``build_parser`` from ``graphenergy.cli``.
The benchmark's own tests sit outside this suite's test paths, so these checks guard the names here.
The tracer's table is read from its source; the module is not run.
"""

import ast
import importlib
import importlib.util
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def traced_table() -> dict:
    """The tracer's ``TRACED`` literal, read from its source without
    running the module."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED":
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACING}")


@pytest.mark.skipif(not TRACING.exists(), reason="no benchmark in this checkout")
def test_every_traced_name_resolves_to_a_callable():
    table = traced_table()
    assert table
    for span, (module, attr) in table.items():
        assert callable(getattr(importlib.import_module(module), attr, None)), span


# Module attributes the tracer must find holding a traced function, so the
# calls made through them are counted (perfbench/tests checks the same
# sites): holder module -> attribute -> the module that defines it.
PATCH_SITES = {
    ("graphenergy.cli", "forward_trajectory"): "graphenergy.network",
    ("graphenergy.network", "attention_scores"): "graphenergy.attention",
    ("graphenergy.sweep", "forward_trajectory"): "graphenergy.network",
    ("graphenergy.diagnostics", "derivative_energy"): "graphenergy.graph",
    ("graphenergy.dynamics", "laplacian_apply"): "graphenergy.graph",
    ("graphenergy.graph", "laplacian_apply"): "graphenergy.graph",
}


@pytest.mark.parametrize("holder, attr", sorted(PATCH_SITES),
                         ids=[f"{m}.{a}" for m, a in sorted(PATCH_SITES)])
def test_patch_site_holds_the_traced_function(holder, attr):
    defined = getattr(importlib.import_module(PATCH_SITES[holder, attr]), attr)
    assert callable(defined) and defined.__module__ == PATCH_SITES[holder, attr]
    assert getattr(importlib.import_module(holder), attr, None) is defined


@pytest.mark.skipif(not PERFBENCH.exists(), reason="no benchmark in this checkout")
def test_cli_names_the_benchmark_imports(monkeypatch):
    # perfbench/tests builds the flows graph with these and unpacks a pair.
    from graphenergy.cli import _resolve_graph, build_parser
    from graphenergy.graph import WeightedGraph

    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    args = build_parser().parse_args(["flow", *workloads.FLOW_GRAPH, "--flow", "heat",
                                      "--horizon", "1", "--out", "unused"])
    G, digest = _resolve_graph(args)
    assert isinstance(G, WeightedGraph) and isinstance(digest, str)
