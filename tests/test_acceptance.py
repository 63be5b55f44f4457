"""Behavioral acceptance gate: ten numbered end-to-end checks.

Run with -v to get one pass/fail row per criterion; each test also prints
a one-line verdict with the measured numbers behind it.
"""
import gc
import time

import numpy as np
import pytest

from graphenergy.attention import AttentionKind
from graphenergy.cli import surrogate_spec
from graphenergy.diagnostics import (
    EnergySeries,
    fit_decay,
    prune_scan,
    relative_change_series,
)
from graphenergy.dynamics import (
    FlowSpec,
    simulate_heat,
    simulate_nonlocal,
    simulate_preln_flow,
)
from graphenergy.graph import (
    build_weighted_graph,
    derivative_energy,
    grad_inner_product,
    integrate,
    laplacian_apply,
)
from graphenergy.ingest import SyntheticSpec, generate_graph, random_features
from graphenergy.network import ModelConfig, init_model
from graphenergy.sweep import SweepSpec, run_sweep

from conftest import dense_spectrum, relative_rate

DEPTHS = (2, 32, 64, 128, 256)
VARIANTS = ("post_ln", "pre_ln", "nonlocal_post_ln")
SEEDS = tuple(range(10))
PRUNE_LAYERS = (2, 32, 64, 96, 128, 160, 192, 224)


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


def random_connected_graph(rng, n):
    """Spanning chain plus random extra unit edges."""
    edges = [(i, i + 1, 1.0) for i in range(n - 1)]
    extra = rng.integers(0, n, size=(2 * n, 2))
    for a, b in extra:
        if a != b:
            edges.append((int(a), int(b), 1.0))
    edges = sorted({(min(a, b), max(a, b), w) for a, b, w in edges})
    return build_weighted_graph(edges, n=n)


def fiedler_direction(G):
    """Second eigenpair of the negated operator, unit-measure normalized."""
    A = G.adjacency.toarray()
    inv_root = 1.0 / np.sqrt(G.measure)
    sym = np.diag(G.weight_row_sums / G.measure)
    sym -= (inv_root[:, None] * A) * inv_root[None, :]
    w, U = np.linalg.eigh(sym)
    return w[1], U[:, 1] * inv_root


def median_series(jobs):
    stack = np.stack([job.series.values for job in jobs])
    return EnergySeries(
        indices=jobs[0].series.indices,
        values=np.median(stack, axis=0),
    )


@pytest.fixture(scope="module")
def surrogate_sweep():
    """One shared depth sweep on the block-model surrogate (criteria 6, 7)."""
    G = generate_graph(surrogate_spec(0))
    spec = SweepSpec(
        depths=DEPTHS,
        variants=VARIANTS,
        seeds=SEEDS,
        attention=AttentionKind(variant="san"),
    )
    start = time.perf_counter()
    result = run_sweep(G, spec)
    elapsed = time.perf_counter() - start
    assert result.all_ok, [j.error for j in result.jobs if not j.ok]
    return result, elapsed


# Defined before the other criteria on purpose: pytest runs tests in
# definition order, and this sub-millisecond wall-time measurement needs the
# process before the depth sweep has churned the allocator.
def test_criterion_10_gating_overhead_scaling():
    from graphenergy.network import layer_step, message_passing

    start = time.perf_counter()
    kind = AttentionKind(variant="san")
    plan = {1000: (100, 15), 10000: (8, 13), 100000: (3, 9)}

    def window(fn, calls):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - t0) / calls

    def make_fns(n):
        G = generate_graph(SyntheticSpec(kind="ring", size=n))
        X = random_features(n, 32, seed=1)
        config = ModelConfig(input_dim=32, output_dim=4, depth=1, hidden_dim=32,
                             heads=1, variant="post_ln", attention=kind, seed=0)
        layer = init_model(config).layers[0]

        def mp():
            return message_passing(X, layer, G, kind)

        def nl():
            return message_passing(X, layer, G, kind, gated=True)

        def full_layer():
            return layer_step(X, layer, config, G)[0]

        return mp, nl, full_layer

    contexts = {n: make_fns(n) for n in plan}

    def measure_once():
        overheads, fracs = [], {}
        for n, (calls, pairs) in plan.items():
            mp, nl, full_layer = contexts[n]
            gc.collect()
            window(mp, 2), window(nl, 2), window(full_layer, 2)  # warm-up
            mp_times, nl_times, layer_times = [], [], []
            for i in range(pairs):
                if i % 2 == 0:  # alternate order to cancel cache-state bias
                    mp_times.append(window(mp, calls))
                    nl_times.append(window(nl, calls))
                else:
                    nl_times.append(window(nl, calls))
                    mp_times.append(window(mp, calls))
                layer_times.append(window(full_layer, max(2, calls // 2)))
            # Contention only adds time, so the per-side minimum is the
            # closest view of intrinsic cost (same rationale as timeit).
            over = min(nl_times) - min(mp_times)
            overheads.append(max(over, 1e-12))
            fracs[n] = over / min(layer_times)
        sizes = np.array(list(plan), dtype=float)
        slope = float(np.polyfit(np.log(sizes), np.log(overheads), 1)[0])
        return slope, overheads, fracs

    # Wall-time bounds on a shared box: retry the whole measurement a few
    # times and accept the best trial; a real superlinear or >15% overhead
    # would fail every trial.
    for _ in range(3):
        slope, overheads, fracs = measure_once()
        ok = 0.8 <= slope <= 1.2 and max(fracs.values()) < 0.15
        if ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 900.0
    report(10, ok, f"overhead slope {slope:.2f} vs node count, "
           f"max layer-time share {max(fracs.values()):.1%}, {elapsed:.0f}s")
    assert 0.8 <= slope <= 1.2, (slope, overheads)
    assert max(fracs.values()) < 0.15, fracs
    assert elapsed < 900.0


def test_criterion_01_integration_by_parts():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 51))
        G = random_connected_graph(rng, n)
        d = int(rng.integers(1, 9))
        X = rng.standard_normal((n, d))
        Y = rng.standard_normal((n, d))
        lhs = float(np.sum(integrate(G, -laplacian_apply(G, X) * Y)))
        rhs = float(integrate(G, grad_inner_product(G, X, Y)))
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    report(1, ok, f"max scaled residual {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_criterion_02_energy_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    margin = np.inf
    for _ in range(100):
        n = int(rng.integers(2, 51))
        G = random_connected_graph(rng, n)
        X = rng.standard_normal((n, int(rng.integers(1, 9))))
        lam = dense_spectrum(G)
        e1 = derivative_energy(G, X, 1)
        e2 = derivative_energy(G, X, 2)
        slack = 1e-9 * (1.0 + e2)
        assert lam[1] * e1 <= e2 + slack
        assert e2 <= lam[-1] * e1 + slack
        margin = min(margin, e2 - lam[1] * e1, lam[-1] * e1 - e2)
    elapsed = time.perf_counter() - start
    report(2, elapsed < 10.0, f"100 pairs bracketed, worst margin {margin:.2e}, {elapsed:.1f}s")
    assert elapsed < 10.0


def test_criterion_03_heat_flow_rate():
    start = time.perf_counter()
    graphs = [build_weighted_graph([(0, 1, 1.0), (1, 2, 1.0)])]
    rng = np.random.default_rng(17)
    graphs += [random_connected_graph(rng, int(rng.integers(6, 31))) for _ in range(5)]
    details = []
    for G in graphs:
        lam = dense_spectrum(G)
        lam2, f2 = fiedler_direction(G)
        d = 4
        X0 = f2[:, None] * np.ones((1, d))
        X0 += 0.3 * rng.standard_normal((G.n, d))
        dt = 0.05 / lam[-1]
        horizon = 6.0 / lam2
        traj = simulate_heat(G, X0, FlowSpec(horizon=horizon, dt=dt))

        tail = traj.times >= 0.6 * horizon
        slope = np.polyfit(traj.times[tail], np.log(traj.dirichlet[tail]), 1)[0]
        assert slope == pytest.approx(-2.0 * lam2, rel=0.05)

        fd = np.diff(traj.dirichlet) / np.diff(traj.times)
        rhs = -2.0 * traj.laplacian[:-1]
        assert np.all(np.abs(fd - rhs) <= 5.0 * dt * lam[-1] * np.abs(rhs) + 1e-30)
        details.append(slope / (-2.0 * lam2))
    elapsed = time.perf_counter() - start
    report(3, elapsed < 30.0,
           f"slope/(-2*gap) in [{min(details):.3f}, {max(details):.3f}] on 6 graphs, {elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_04_gated_flow_algebraic():
    start = time.perf_counter()
    graphs = [build_weighted_graph([(0, 1, 1.0), (1, 2, 1.0)])]
    rng = np.random.default_rng(11)
    graphs += [random_connected_graph(rng, int(rng.integers(8, 31))) for _ in range(5)]
    slopes = []
    for G in graphs:
        X0 = np.random.default_rng(3).standard_normal((G.n, 4))
        traj = simulate_nonlocal(G, X0, FlowSpec(horizon=1e5, dt=0.05))
        t, E = traj.times, traj.dirichlet

        decade = (t >= t[-1] / 10.0) & (E > 0)
        slope = np.polyfit(np.log(t[decade]), np.log(E[decade]), 1)[0]
        assert -1.15 <= slope <= -0.85
        slopes.append(slope)

        pos = t > 0
        c_hi = float(np.max(t[pos] * E[pos]))
        early = pos & (t <= 1.0)
        late = t > 1.0
        c_lo = float(min(E[early].min() if early.any() else np.inf,
                         (t[late] * E[late]).min()))
        assert np.isfinite(c_hi) and c_lo > 0.0
        assert np.all(E[pos] <= c_hi / t[pos] * (1 + 1e-12))
        lower = np.minimum(c_lo, c_lo / t[pos])
        assert np.all(E[pos] >= lower * (1 - 1e-12))
        assert c_hi / c_lo < 50.0
    elapsed = time.perf_counter() - start
    report(4, elapsed < 60.0,
           f"final-decade slopes in [{min(slopes):.3f}, {max(slopes):.3f}], "
           f"sandwich constants bounded, {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_05_normalized_flow_growth():
    start = time.perf_counter()
    specs = [SyntheticSpec(kind="ring", size=16),
             SyntheticSpec(kind="erdos-renyi", size=20, edge_prob=0.3, seed=2)]
    for g_spec in specs:
        G = generate_graph(g_spec)
        X0 = np.random.default_rng(0).standard_normal((G.n, 3))
        traj = simulate_preln_flow(G, X0, FlowSpec(horizon=60.0,
                                                   record_stride=4))
        assert np.all(np.abs(traj.norm_mass - G.n) <= 1e-10)

        t = traj.times
        root = np.sqrt(G.n * traj.dirichlet)
        secants = (root[1:] - root[0]) / t[1:]
        C = float(secants.max())
        assert np.isfinite(C) and C > 0.0
        assert np.all(root <= C * t + root[0] + 1e-9 * (1.0 + root))
        first_half = t[1:] <= t[-1] / 2.0
        assert C <= 1.5 * secants[first_half].max()
        assert np.polyfit(t, root, 1)[0] > 0.0

        mid, rate = relative_rate(traj)
        at_tenth = rate[np.argmin(np.abs(mid - 0.1 * t[-1]))]
        assert rate[-1] < at_tenth
    elapsed = time.perf_counter() - start
    report(5, elapsed < 60.0,
           f"unit mass, linear root-energy envelope, decelerating rate, {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_06_depth_sweep_trends(surrogate_sweep):
    result, elapsed = surrogate_sweep
    finals = {}
    for variant in VARIANTS:
        for depth in DEPTHS:
            vals = [result.job(variant, depth, s).final_energy for s in SEEDS]
            finals[variant, depth] = float(np.median(vals))

    fits = {}
    for variant in VARIANTS:
        med = median_series([result.job(variant, 256, s) for s in SEEDS])
        fits[variant] = fit_decay(med)

    pre = [finals["pre_ln", d] for d in DEPTHS]
    ratios = {d: finals["nonlocal_post_ln", d] / finals["post_ln", d] for d in DEPTHS}
    clauses = {
        "pre_ln finals non-decreasing": all(b >= a for a, b in zip(pre, pre[1:])),
        "pre_ln 256 growth-power r2>=0.9": (
            fits["pre_ln"].law == "growth-power" and fits["pre_ln"].r_squared >= 0.9
        ),
        "post_ln 256 final <= 1e-8": finals["post_ln", 256] <= 1e-8,
        "post_ln 256 exponential-decay": (
            fits["post_ln"].classification == "exponential-decay"
        ),
        "nonlocal 256 final >= 1e-6": finals["nonlocal_post_ln", 256] >= 1e-6,
        "nonlocal 256 algebraic-decay": (
            fits["nonlocal_post_ln"].classification == "algebraic-decay"
        ),
        "nonlocal >= 10x post_ln at every depth": all(r >= 10.0 for r in ratios.values()),
        "sweep runtime < 600s": elapsed < 600.0,
    }
    for name, ok in clauses.items():
        print(f"  [{'ok' if ok else 'FAIL'}] {name}")
    print(f"  medians at 256: post={finals['post_ln', 256]:.2e} "
          f"pre={finals['pre_ln', 256]:.2e} nonlocal={finals['nonlocal_post_ln', 256]:.2e}")
    print(f"  nonlocal/post ratios: "
          + ", ".join(f"{d}: {ratios[d]:.3g}" for d in DEPTHS))
    print(f"  256-layer classifications: "
          + ", ".join(f"{v}={fits[v].classification}" for v in VARIANTS))
    failed = [name for name, ok in clauses.items() if not ok]
    report(6, not failed, f"{len(clauses) - len(failed)}/{len(clauses)} clauses, "
           f"sweep {elapsed:.0f}s" + (f"; failed: {'; '.join(failed)}" if failed else ""))
    assert not failed, f"failed clauses: {failed}"


def test_criterion_07_deep_layer_stall_marker(surrogate_sweep):
    result, _ = surrogate_sweep
    pre = median_series([result.job("pre_ln", 256, s) for s in SEEDS])
    changes = relative_change_series(pre, tail_fraction=0.25)
    verdict = changes.verdict
    ok_pre = verdict.median_tail_change < 0.05 and verdict.change_trend < 0.0

    nl = median_series([result.job("nonlocal_post_ln", 256, s) for s in SEEDS])
    nl_verdict = relative_change_series(nl, tail_fraction=0.25).verdict
    ok = ok_pre and not nl_verdict.stalled
    report(7, ok, f"pre_ln tail median {verdict.median_tail_change:.4f}, "
           f"trend {verdict.change_trend:.2e}; nonlocal stalled={nl_verdict.stalled}")
    assert verdict.median_tail_change < 0.05
    assert verdict.change_trend < 0.0
    assert not nl_verdict.stalled


def test_criterion_08_prune_deviation_ordering():
    start = time.perf_counter()
    probs = tuple(tuple(0.15 if i == j else 0.002 for j in range(7)) for i in range(7))
    G = generate_graph(SyntheticSpec(kind="sbm", block_sizes=(72,) * 7,
                                     block_probs=probs, seed=0))
    X = random_features(G.n, 32, seed=7)

    def median_devs(variant, layers):
        devs = {layer: [] for layer in layers}
        for seed in SEEDS:
            config = ModelConfig(input_dim=32, output_dim=7, depth=256,
                                 hidden_dim=32, variant=variant,
                                 attention=AttentionKind(variant="san"), seed=seed)
            for row in prune_scan(init_model(config), config, G, X, layers):
                devs[row.layer].append(row.deviation)
        return {layer: float(np.median(v)) for layer, v in devs.items()}

    pre = median_devs("pre_ln", (2, 224))
    nonlocal_devs = median_devs("nonlocal_post_ln", PRUNE_LAYERS)
    elapsed = time.perf_counter() - start
    ok = pre[224] < pre[2] and min(nonlocal_devs.values()) > 1e-3 and elapsed < 300.0
    report(8, ok, f"pre_ln dev(224)={pre[224]:.3f} < dev(2)={pre[2]:.3f}; "
           f"nonlocal min dev {min(nonlocal_devs.values()):.3f}, {elapsed:.0f}s")
    assert pre[224] < pre[2]
    assert min(nonlocal_devs.values()) > 1e-3
    assert elapsed < 300.0


def test_criterion_09_fit_recovery():
    k_pow = np.arange(1.0, 201.0)
    k_exp = np.arange(0.0, 121.0)
    planted = [
        ("power", k_pow, 3.0 * k_pow ** -1.3, -1.3),
        ("exponential", k_exp, 2.0 * np.exp(-0.35 * k_exp), -0.35),
        ("growth-power", k_pow, 0.5 * k_pow ** 0.8, 0.8),
    ]
    rng = np.random.default_rng(909)
    worst_clean, worst_noisy = 0.0, 0.0
    for law, idx, values, truth in planted:
        fit = fit_decay(EnergySeries(indices=idx, values=values))
        assert fit.law == law
        err = abs(fit.exponent - truth) / abs(truth)
        worst_clean = max(worst_clean, err)
        assert err <= 1e-6

        noisy = values * (1.0 + 0.01 * rng.standard_normal(values.size))
        fit_n = fit_decay(EnergySeries(indices=idx, values=noisy))
        assert fit_n.law == law
        err_n = abs(fit_n.exponent - truth) / abs(truth)
        worst_noisy = max(worst_noisy, err_n)
        assert err_n <= 0.05
    report(9, True, f"exact to {worst_clean:.1e}, {worst_noisy:.1%} at 1% noise")
