"""Tests of the benchmark itself: span arithmetic, the output checks on
doctored artifacts, and the names the tracer patches.

    python3 -m pytest perfbench/tests -q
"""

import importlib
import json
import os

import pytest

import checks
import run
import tracing
import workloads
from graphenergy.cli import main as cli_main

SMALL_GRAPH = ("--kind", "sbm", "--block-sizes", "15,15",
               "--block-probs", "0.5,0.05;0.05,0.5")


def span(name, start, end, parent=None, site="x", **info):
    return tracing.Span(name, start, end, parent, "r", site, info)


def ops_of(cmd):
    code = cli_main(list(cmd.argv))
    return checks.check_command(cmd, code == 0)


def problems_of(results):
    return {op: problems for op, (problems, _) in results.items() if problems}


def rewrite(path, old, new):
    with open(path) as fh:
        text = fh.read()
    assert old in text
    with open(path, "w") as fh:
        fh.write(text.replace(old, new, 1))


def data_rows(path):
    with open(path) as fh:
        return [line for line in fh.read().splitlines() if not line.startswith("#")][1:]


# ------------------------------------------------------------ spans


def test_self_time_subtracts_children_once():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("leaf", 2.0, 3.0, parent=1),
        span("b", 5.0, 7.0, parent=0),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_takes_the_union_of_overlapping_children():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("b", 3.0, 6.0, parent=0),
        span("c", 9.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_per_layer_ratios_carry_their_base():
    spans = [span("dynamics.simulate_nonlocal", 0.0, 10.0, steps=3)]
    spans += [span("graph.laplacian_apply", k, k + 0.5, parent=0, site="dynamics",
                   bytes=1000) for k in range(6)]
    spans += [span("graph.laplacian_apply", 8.0, 8.5, parent=0, site="graph",
                   bytes=1000)]
    spans += [span("network.feed_forward", 9.0, 9.1, parent=0) for _ in range(4)]
    layers = tracing.per_layer(spans, layers_needed=3, states_needed=None)
    assert layers["dynamics.laplacian_per_step"][:2] == (2.0, "calls/step")
    assert "6 laplacian_apply calls from dynamics / 3" in layers[
        "dynamics.laplacian_per_step"][2]
    assert layers["network.useful_layer_ratio"][0] == 0.75
    assert layers["network.useful_layer_ratio"][2].endswith("3/4")
    assert layers["graph.laplacian_apply.calls"][0] == 7
    assert layers["graph.laplacian_apply.computed_gb_per_s"][0] == pytest.approx(
        7000 / 3.5 / 1e9)


def test_benchmark_json_lists_every_metric():
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    layers = tracing.per_layer([], 0, None)
    assert [m["name"] for m in bench["per_layer"]] == list(layers) + ["trace.overhead_s"]
    assert [m["name"] for m in bench["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


# ----------------------------------------------------- output checks


def test_sweep_checks_pass_then_reject_a_changed_prefix_row(tmp_path):
    cmd = workloads.sweep_command(3, str(tmp_path / "sweep"), depths=(2, 6),
                                  variants=("post_ln", "pre_ln"), graph=SMALL_GRAPH)
    results = ops_of(cmd)
    assert len(results) == 4 and not problems_of(results)

    energy = tmp_path / "sweep" / "pre_ln" / "depth-002" / "seed-03" / "energy.csv"
    row = data_rows(energy)[2]
    layer, value = row.split(",")
    rewrite(energy, row, f"{layer},{float(value) * (1 + 1e-15)!r}")
    bad = problems_of(checks.check_command(cmd, True))
    assert list(bad) == ["pre_ln/depth-002/seed-03"]
    assert "differ from the first 3 rows" in bad["pre_ln/depth-002/seed-03"][0]


def test_sweep_checks_reject_a_nan(tmp_path):
    cmd = workloads.sweep_command(1, str(tmp_path / "sweep"), depths=(2, 6),
                                  variants=("post_ln",), graph=SMALL_GRAPH)
    ops_of(cmd)
    cosine = tmp_path / "sweep" / "post_ln" / "depth-006" / "seed-01" / "cosine.csv"
    first = data_rows(cosine)[0]
    rewrite(cosine, first, "nan" + first[first.index(","):])
    bad = problems_of(checks.check_command(cmd, True))
    assert list(bad) == ["post_ln/depth-006/seed-01"]
    assert "non-finite" in bad["post_ln/depth-006/seed-01"][0]


def test_sweep_checks_reject_a_negative_energy(tmp_path):
    cmd = workloads.sweep_command(1, str(tmp_path / "sweep"), depths=(2,),
                                  variants=("post_ln",), graph=SMALL_GRAPH)
    ops_of(cmd)
    energy = tmp_path / "sweep" / "post_ln" / "depth-002" / "seed-01" / "energy.csv"
    row = data_rows(energy)[1]
    rewrite(energy, row, row.replace(",", ",-", 1))
    assert "negative" in " ".join(problems_of(checks.check_command(cmd, True))[
        "post_ln/depth-002/seed-01"])


def test_failed_command_fails_every_operation(tmp_path):
    cmd = workloads.sweep_command(1, str(tmp_path / "sweep"), depths=(2,),
                                  variants=("post_ln",), graph=SMALL_GRAPH)
    results = checks.check_command(cmd, False, "boom")
    assert results["post_ln/depth-002/seed-01"][0][0] == "command failed: boom"


@pytest.mark.parametrize("flow, extra", [
    ("heat", ("--horizon", "3")),
    ("nonlocal", ("--horizon", "50", "--dt", "0.2")),
])
def test_flow_checks_reject_a_rising_dirichlet_value(tmp_path, flow, extra):
    cmd = workloads.flow_command(0, str(tmp_path / flow), flow, extra, graph=SMALL_GRAPH)
    assert not problems_of(ops_of(cmd))
    trajectory = tmp_path / flow / "trajectory.csv"
    rows = data_rows(trajectory)
    fields = rows[3].split(",")
    fields[1] = repr(float(rows[2].split(",")[1]) * 1.001)
    rewrite(trajectory, rows[3], ",".join(fields))
    bad = problems_of(checks.check_command(cmd, True))
    assert "Dirichlet energy rises" in bad[flow][0]


def test_flow_checks_reject_a_nan_and_a_norm_mass_drift(tmp_path):
    cmd = workloads.flow_command(0, str(tmp_path / "preln"), "preln",
                                 ("--horizon", "2", "--stride", "4"), graph=SMALL_GRAPH)
    assert not problems_of(ops_of(cmd))
    energy = tmp_path / "preln" / "energy.csv"
    row = data_rows(energy)[1]
    rewrite(energy, row, row.split(",")[0] + ",nan")
    report = tmp_path / "preln" / "report.json"
    payload = json.loads(report.read_text())
    payload["norm_mass_max_deviation"] = 1e-6
    report.write_text(json.dumps(payload))
    problems = checks.check_command(cmd, True)["preln"][0]
    assert any("non-finite" in p for p in problems)
    assert any("norm_mass_max_deviation" in p for p in problems)


def test_prune_checks_reject_a_bad_deviation_and_cosine(tmp_path):
    cmd = workloads.prune_command(2, str(tmp_path / "prune"), "pre_ln", (1, 3),
                                  depth=4, graph=SMALL_GRAPH)
    results = ops_of(cmd)
    assert sorted(results) == ["pre_ln/layer-001/seed-02", "pre_ln/layer-003/seed-02"]
    assert not problems_of(results)
    table = tmp_path / "prune" / "prune.csv"
    first, second = data_rows(table)
    layer, seed, _, cosine = first.split(",")
    rewrite(table, first, f"{layer},{seed},-0.5,{cosine}")
    layer, seed, deviation, _ = second.split(",")
    rewrite(table, second, f"{layer},{seed},{deviation},1.5")
    bad = problems_of(checks.check_command(cmd, True))
    assert "negative" in bad["pre_ln/layer-001/seed-02"][0]
    assert "outside [-1, 1]" in bad["pre_ln/layer-003/seed-02"][0]


def test_changed_bytes_between_runs_fail_the_operation(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = workloads.Workload("w", 0, (), 0, None)
    same = {"ops": {"a": [[], "d1"], "b": [[], "d2"]}}
    changed = {"ops": {"a": [[], "d1"], "b": [[], "other"]}}
    assert run.failed_operations([same, same], workload, "src") == []
    failures = run.failed_operations([same, changed], workload, "src")
    assert [(f["repetition"], f["operation"]) for f in failures] == [(1, "b")]
    failures = run.failed_operations([changed], workload, "src")  # earlier run stored
    assert [f["operation"] for f in failures] == ["b"]
    assert "earlier run with the same seed" in failures[0]["problems"][0]


def test_source_digest_ignores_bytecode(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
    before = checks.tree_digest(str(tmp_path), suffix=".py")
    (tmp_path / "pkg" / "__pycache__").mkdir()
    (tmp_path / "pkg" / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"\0")
    assert checks.tree_digest(str(tmp_path), suffix=".py") == before
    (tmp_path / "pkg" / "mod.py").write_text("x = 2\n")
    assert checks.tree_digest(str(tmp_path), suffix=".py") != before


def test_flow_graph_gives_a_repeatable_lambda_max():
    # The byte check on flows needs lambda_max to repeat exactly.
    from graphenergy.cli import _resolve_graph, build_parser
    from graphenergy.dynamics import estimate_lambda_max

    args = build_parser().parse_args(["flow", *workloads.FLOW_GRAPH, "--flow", "heat",
                                      "--horizon", "1", "--out", "unused"])
    G, _ = _resolve_graph(args)
    assert repr(estimate_lambda_max(G)) == repr(estimate_lambda_max(G))


# ----------------------------------------------------- patched names


@pytest.mark.parametrize("name", sorted(tracing.TRACED))
def test_every_traced_function_exists(name):
    module, attr = tracing.TRACED[name]
    assert callable(getattr(importlib.import_module(module), attr))


def test_tracer_patches_each_lookup_site_and_restores_it():
    import graphenergy.cli  # noqa: F401  (loads every module the CLI uses)

    sites = {
        ("graphenergy.network", "attention_scores"),
        ("graphenergy.cli", "forward_trajectory"),
        ("graphenergy.diagnostics", "derivative_energy"),
        ("graphenergy.dynamics", "laplacian_apply"),
        ("graphenergy.graph", "laplacian_apply"),
    }
    before = {site: getattr(importlib.import_module(site[0]), site[1]) for site in sites}
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        for (module, attr), original in before.items():
            patched = getattr(importlib.import_module(module), attr)
            assert patched is not original and patched.__wrapped__ is original
    finally:
        tracer.uninstall()
    for (module, attr), original in before.items():
        assert getattr(importlib.import_module(module), attr) is original


def test_traced_sweep_counts_layers_and_states(tmp_path):
    cmd = workloads.sweep_command(0, str(tmp_path / "sweep"), depths=(2, 6),
                                  variants=("post_ln", "nonlocal_post_ln"),
                                  graph=SMALL_GRAPH)
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        assert tracer.call(tracing.ROOT_SPAN, cli_main, list(cmd.argv)) == 0
    finally:
        tracer.uninstall()
    layers = tracing.per_layer(tracer.spans, layers_needed=12, states_needed=14)
    assert layers["network.layer_evals"][0] == 16
    assert layers["network.useful_layer_ratio"][2].endswith("12/16")
    assert layers["diagnostics.useful_state_ratio"][2].endswith("14/20")
    assert layers["attention.attention_scores.calls"][0] == 16
    assert layers["graph.laplacian_apply.calls"][0] == 20
    assert layers["cli.self_s"][0] > 0
