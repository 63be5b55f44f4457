import time

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from graphenergy.dynamics import (
    LANCZOS_MAXITER,
    FlowInstabilityError,
    FlowSpec,
    FlowTrajectory,
    estimate_lambda_max,
    simulate_heat,
    simulate_nonlocal,
    simulate_preln_flow,
)
from graphenergy import graph as graph_module
from graphenergy.graph import (
    aggregate_apply,
    build_weighted_graph,
    derivative_energy,
    integrate,
    laplacian_apply,
)
from graphenergy.ingest import SyntheticSpec, generate_graph

from conftest import (
    STATE_TEMPORARIES,
    collect,
    dense_laplacian,
    dense_spectrum,
    energy_oracle,
    nbytes,
    random_graph,
    relative_rate,
    rk4_reference,
    traced_peak,
)


def heat_expm_oracle(G, X0, t):
    """Exact diffusion via the dense matrix exponential."""
    L = dense_laplacian(G)
    return scipy.linalg.expm(t * L) @ X0


class TestFlowSpec:
    def test_validation(self):
        FlowSpec(horizon=1.0)
        with pytest.raises(ValueError, match="horizon"):
            FlowSpec(horizon=0.0)
        with pytest.raises(ValueError, match="dt"):
            FlowSpec(horizon=1.0, dt=-0.1)
        with pytest.raises(ValueError, match="record_stride"):
            FlowSpec(horizon=1.0, record_stride=0)
        for value in (np.inf, -np.inf, np.nan):
            refused = f"must be positive and finite, got {value}"
            with pytest.raises(ValueError, match=f"horizon {refused}"):
                FlowSpec(horizon=value)
            with pytest.raises(ValueError, match=f"dt {refused}"):
                FlowSpec(horizon=1.0, dt=value)


class TestLambdaMax:
    def test_matches_dense_on_small_graph(self, p3):
        assert estimate_lambda_max(p3) == pytest.approx(7.0 / 6.0, abs=1e-12)

    def test_sparse_path_agrees_with_dense(self):
        G, _ = random_graph(np.random.default_rng(3), n=40)
        exact = dense_spectrum(G)[-1]
        assert estimate_lambda_max(G) == pytest.approx(exact, rel=1e-9)

    def test_edgeless_graph_gives_zero(self):
        for n in (1, 4):
            assert estimate_lambda_max(build_weighted_graph([], n=n)) == 0.0

    def test_sparse_path_is_reproducible(self):
        # Lanczos from a fixed start vector
        G, _ = random_graph(np.random.default_rng(4), n=2001)
        first = estimate_lambda_max(G)
        assert estimate_lambda_max(G) == first
        exact = dense_spectrum(G, max_nodes=G.n)[-1]
        assert first == pytest.approx(exact, rel=1e-10)

    def test_unconverged_run_falls_back_to_gershgorin(self, capsys):
        # A ring's top eigenvalues cluster, so Lanczos needs ~230 restarts
        # at 1,000 nodes, and uncapped it ran for over 9 minutes at 2·10⁴.
        # The cap stops it; on an even ring the Gershgorin bound
        # 2 max_i (sum_j w_ij) / mu_i = 2 · 2/3 is the exact top eigenvalue.
        ring = generate_graph(SyntheticSpec(kind="ring", size=20_000))
        start = time.perf_counter()
        lam = estimate_lambda_max(ring)
        elapsed = time.perf_counter() - start
        assert lam == 4.0 / 3.0
        err = capsys.readouterr().err
        assert f"did not converge in {LANCZOS_MAXITER} iterations" in err
        assert "Gershgorin bound" in err
        assert elapsed < 20.0  # 1.4 s on an idle 2-core host

    def test_fallback_bound_is_loose_off_bipartite_regular_graphs(self, p3, capsys):
        # A path with second-neighbour edges is irregular at its ends, its
        # top spectrum clusters like a ring's and Lanczos stops unconverged.
        # Its lambda_max is 5/4 (from cos θ = -1/4 in the interior), while
        # the bound is 2 · 4/5 = 8/5. So the default step is 25/32 of what
        # the true value allows, and a step legal for the true value is
        # refused, with the refusal naming the bound.
        n = 1000
        edges = [(i, i + 1, 1.0) for i in range(n - 1)]
        edges += [(i, i + 2, 1.0) for i in range(n - 2)]
        band = build_weighted_graph(edges, n=n)
        exact = dense_spectrum(band, max_nodes=n)[-1]
        assert exact == pytest.approx(1.25, abs=1e-4)
        assert estimate_lambda_max(band) == 2.0 * (4.0 / 5.0)
        assert "Gershgorin bound" in capsys.readouterr().err
        X0 = np.random.default_rng(34).normal(size=(n, 2))
        dt = 0.65  # within SAFETY / exact = 0.72, beyond SAFETY / 1.6 = 0.5625
        with pytest.raises(FlowInstabilityError, match="Gershgorin upper bound"):
            simulate_heat(band, X0, FlowSpec(horizon=1.0, dt=dt))
        # a converged lambda_max leaves the message as it was
        with pytest.raises(FlowInstabilityError) as refused:
            simulate_heat(p3, np.eye(3), FlowSpec(horizon=1.0, dt=1.0))
        assert "Gershgorin" not in str(refused.value)


class TestHeat:
    def test_euler_converges_to_matrix_exponential(self, p3):
        rng = np.random.default_rng(0)
        X0 = rng.normal(size=(3, 2))
        exact = heat_expm_oracle(p3, X0, 1.0)
        errs = []
        for dt in (0.05, 0.025):
            spec = FlowSpec(horizon=1.0, dt=dt, record_stride=10**6)
            traj, states = collect(simulate_heat, p3, X0, spec)
            final = heat_expm_oracle(p3, X0, traj.times[-1])
            errs.append(np.abs(states[-1] - final).max())
        assert errs[1] < errs[0]
        # first-order method: halving dt roughly halves the error
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.25)
        assert np.abs(exact).max() > 0

    def test_rk4_oracle_matches_matrix_exponential(self, p3):
        rng = np.random.default_rng(1)
        X0 = rng.normal(size=(3, 2))
        times, states = rk4_reference(
            p3, X0, lambda X: laplacian_apply(p3, X), dt=0.01, horizon=1.0
        )
        assert times[-1] == pytest.approx(1.0)
        np.testing.assert_allclose(
            states[-1], heat_expm_oracle(p3, X0, times[-1]), atol=1e-9
        )

    def test_constant_state_is_stationary(self, p3):
        X0 = np.full((3, 2), 4.5)
        traj, states = collect(simulate_heat, p3, X0, FlowSpec(horizon=2.0))
        for X in states:
            np.testing.assert_array_equal(X, X0)
        assert traj.dirichlet.max() == 0.0

    def test_default_step_respects_safety(self, p3):
        spec = FlowSpec(horizon=1.0)
        traj = simulate_heat(p3, np.eye(3), spec)
        # default dt = 0.5 * 0.9 / lambda_max; horizon 1 then needs ceil(1/dt) steps
        dt = 0.5 * 0.9 / traj.lambda_max
        assert traj.times[1] == pytest.approx(dt)

    def test_unstable_step_rejected(self, p3):
        spec = FlowSpec(horizon=1.0, dt=2.0)
        with pytest.raises(FlowInstabilityError, match="stability limit"):
            simulate_heat(p3, np.eye(3), spec)

    def test_energy_never_increases(self):
        G, _ = random_graph(np.random.default_rng(7), n=25)
        X0 = np.random.default_rng(8).normal(size=(25, 4))
        traj = simulate_heat(G, X0, FlowSpec(horizon=3.0))
        assert (np.diff(traj.dirichlet) <= 1e-12 * traj.dirichlet[0]).all()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(3, 12))
    def test_discrete_rate_sandwich(self, seed, n):
        # Euler damps the gradient mode at lambda by (1 - dt*lambda) per
        # step, so the Dirichlet energy is pinched between the effective
        # rates -ln(1 - dt*lambda)/dt of the extreme nonzero eigenvalues.
        rng = np.random.default_rng(seed)
        G, _ = random_graph(rng, n=n)
        spect = dense_spectrum(G)
        lam2, lam_max = spect[1], spect[-1]
        if lam2 < 1e-9:
            return  # numerically disconnected; nothing to pinch
        dt = 0.3 / lam_max
        X0 = rng.normal(size=(n, 3))
        traj = simulate_heat(G, X0, FlowSpec(horizon=2.0, dt=dt))
        fast = -np.log1p(-dt * lam_max) / dt
        slow = -np.log1p(-dt * lam2) / dt
        E0 = traj.dirichlet[0]
        for t, E in zip(traj.times[1:], traj.dirichlet[1:]):
            assert E <= E0 * np.exp(-2 * slow * t) * (1 + 1e-9) + 1e-300
            assert E >= E0 * np.exp(-2 * fast * t) * (1 - 1e-9) - 1e-300

    def test_tail_slope_tracks_spectral_gap(self, p3):
        lam2 = 0.5
        lam_max = 7.0 / 6.0
        dt = 0.01 / lam_max
        rng = np.random.default_rng(5)
        X0 = rng.normal(size=(3, 2))
        spec = FlowSpec(horizon=8.0, dt=dt, record_stride=50)
        traj = simulate_heat(p3, X0, spec)
        tail = traj.times > 4.0
        slope = np.polyfit(traj.times[tail], np.log(traj.dirichlet[tail]), 1)[0]
        assert slope == pytest.approx(-2 * lam2, rel=0.02)

    def test_relative_rate_midpoints(self, p3):
        X0 = np.array([1.0, 0.0, -1.0])
        traj = simulate_heat(p3, X0, FlowSpec(horizon=1.0))
        mid, rate = relative_rate(traj)
        assert mid.shape == rate.shape == (traj.times.size - 1,)
        assert (rate < 0).all()

    def test_relative_rate_needs_two_records(self):
        traj = FlowTrajectory(
            times=np.array([0.0]),
            dirichlet=np.array([0.0]),
            laplacian=np.array([0.0]),
            gate=np.array([0.0]),
            norm_mass=None,
            lambda_max=0.0,
        )
        with pytest.raises(ValueError, match="two records"):
            relative_rate(traj)

    def test_bad_initial_state(self, p3):
        spec = FlowSpec(horizon=1.0)
        with pytest.raises(ValueError, match="does not match n=3"):
            simulate_heat(p3, np.zeros((4, 2)), spec)
        with pytest.raises(ValueError, match="non-finite"):
            simulate_heat(p3, np.array([1.0, np.nan, 0.0]), spec)


class TestNonlocal:
    def test_steps_are_gated_euler_updates(self, p3):
        rng = np.random.default_rng(2)
        X0 = rng.normal(size=(3, 2))
        dt = 0.1
        spec = FlowSpec(horizon=50.0, dt=dt)
        traj, states = collect(simulate_nonlocal, p3, X0, spec)
        for k in range(len(states) - 1):
            X = states[k]
            gate = float(integrate(p3, (laplacian_apply(p3, X) ** 2).sum(axis=1)))
            if gate <= 1e-280:
                break
            np.testing.assert_allclose(
                states[k + 1], X + dt * laplacian_apply(p3, X), atol=1e-12
            )
            assert traj.times[k + 1] - traj.times[k] == pytest.approx(
                dt / gate, rel=1e-12
            )

    def test_gate_series_matches_order_two_energy(self, p3):
        rng = np.random.default_rng(3)
        traj = simulate_nonlocal(
            p3, rng.normal(size=(3, 2)), FlowSpec(horizon=10.0)
        )
        np.testing.assert_allclose(traj.gate, traj.laplacian * p3.n, rtol=1e-12)

    def test_long_horizon_needs_few_steps(self, p3):
        rng = np.random.default_rng(4)
        X0 = rng.normal(size=(3, 2))
        spec = FlowSpec(horizon=1e8, dt=0.1)
        traj = simulate_nonlocal(p3, X0, spec)
        assert traj.times[-1] >= 1e8
        # the gate decays exponentially in step count, so horizon grows
        # exponentially too: thousands of steps cover eight decades
        assert traj.times.size < 5000

    def test_algebraic_tail(self, p3):
        # t * E(t) settles near a constant once the slowest mode dominates
        rng = np.random.default_rng(6)
        X0 = rng.normal(size=(3, 2))
        spec = FlowSpec(horizon=1e7, dt=0.05)
        traj = simulate_nonlocal(p3, X0, spec)
        tail = traj.times > 1e4
        product = traj.times[tail] * traj.dirichlet[tail]
        assert product.max() / product.min() < 1.5

    def test_rk4_cross_check(self, p3):
        rng = np.random.default_rng(9)
        X0 = rng.normal(size=(3, 2))
        spec = FlowSpec(horizon=0.5, dt=1e-4, record_stride=10**6)
        traj, recorded = collect(simulate_nonlocal, p3, X0, spec)
        t_end = traj.times[-1]

        def rhs(X):
            gate = float(integrate(p3, (laplacian_apply(p3, X) ** 2).sum(axis=1)))
            return gate * laplacian_apply(p3, X)

        _, states = rk4_reference(p3, X0, rhs, dt=t_end / 4096, horizon=t_end)
        np.testing.assert_allclose(recorded[-1], states[-1], atol=2e-3)

    def test_constant_state_jumps_to_horizon(self, p3):
        X0 = np.full((3, 2), 2.0)
        traj, states = collect(simulate_nonlocal, p3, X0, FlowSpec(horizon=5.0))
        assert traj.times[-1] == 5.0
        np.testing.assert_array_equal(states[-1], X0)


class TestStream:
    """``observe`` sees every record as it is produced, with the recorded
    series unchanged, and the trajectory holds no state."""

    @pytest.mark.parametrize(
        "simulate, horizon",
        [(simulate_heat, 1.0), (simulate_nonlocal, 40.0), (simulate_preln_flow, 2.0)],
    )
    def test_observe_sees_every_record(self, simulate, horizon):
        G, _ = random_graph(np.random.default_rng(31), n=9, admissible=True)
        X0 = np.random.default_rng(32).normal(size=(9, 2))
        spec = FlowSpec(horizon=horizon, dt=0.1, record_stride=3)
        plain = simulate(G, X0, spec)
        seen = []
        observed = simulate(
            G, X0, spec, observe=lambda t, X: seen.append((t, X.copy())))
        assert [t for t, _ in seen] == plain.times.tolist()
        assert [derivative_energy(G, X, 1) for _, X in seen] == plain.dirichlet.tolist()
        for name in ("times", "dirichlet", "laplacian", "gate"):
            np.testing.assert_array_equal(getattr(observed, name), getattr(plain, name))
        series = 4 if plain.norm_mass is None else 5
        assert nbytes(plain) == series * plain.times.nbytes  # no state

    def test_large_gated_flow_holds_no_records(self):
        # A gated flow on a 10⁵-node ring at d = 4 records 205 states. Kept,
        # they would hold 205 states (one state is 3.2 MB). Streamed, the
        # peak is one Euler step's temporaries, bounded by
        # STATE_TEMPORARIES states, or the Lanczos run that picks the step
        # before the first one: its 20-vector basis, ARPACK's work arrays
        # and the operator come to ~52 vectors of n floats (13 states at
        # d = 4). Neither grows with the record count.
        n, d = 100_000, 4
        ring = generate_graph(SyntheticSpec(kind="ring", size=n))
        X0 = np.random.default_rng(33).normal(size=(n, d))
        state = nbytes(X0)
        traj, peak = traced_peak(
            lambda: simulate_nonlocal(ring, X0, FlowSpec(horizon=10.0))
        )
        assert traj.times.size > 200
        assert peak < STATE_TEMPORARIES * state + 64 * n * 8  # 89.6 MB
        assert traj.dirichlet[-1] < traj.dirichlet[0]


class TestOneEdgePassPerState:
    """Each flow state's edge differences ``BX`` are formed once: they give
    the step's ``Delta X``, and a recorded state's order-1 energy and gate
    come from the same pass."""

    @staticmethod
    def _count_edge_passes(monkeypatch):
        # graph._edge_differences is the one place edge differences are
        # formed
        passes = []

        def gathered(G, X2):
            passes.append(1)
            return original(G, X2)

        original = graph_module._edge_differences
        monkeypatch.setattr(graph_module, "_edge_differences", gathered)
        return passes

    @pytest.mark.parametrize(
        "simulate, seed", [(simulate_nonlocal, 51), (simulate_heat, 53)]
    )
    def test_one_pass_per_step_recorded_or_not(self, monkeypatch, simulate, seed):
        G, _ = random_graph(np.random.default_rng(seed), n=12)
        X0 = np.random.default_rng(seed + 1).normal(size=(12, 4))
        passes = self._count_edge_passes(monkeypatch)
        every = simulate(G, X0, FlowSpec(horizon=2.0))
        assert len(passes) == every.times.size  # one per state, all recorded
        passes.clear()
        strided = simulate(G, X0, FlowSpec(horizon=2.0, record_stride=3))
        assert strided.times.size < every.times.size
        assert len(passes) == every.times.size

    def test_normalized_flow_one_pass_per_step_and_record(self, monkeypatch):
        G, _ = random_graph(np.random.default_rng(55), n=12, admissible=True)
        X0 = np.random.default_rng(56).normal(size=(12, 4))
        passes = self._count_edge_passes(monkeypatch)
        spec = FlowSpec(horizon=1.0, dt=0.1, record_stride=3)
        traj = simulate_preln_flow(G, X0, spec)
        assert traj.times.size == 5  # steps 0, 3, 6, 9 and 10
        assert len(passes) == 10 + 5  # one aggregation per step, one per record


class TestPrelnFlow:
    def test_norm_mass_pinned_to_vertex_count(self):
        G, _ = random_graph(np.random.default_rng(11), n=20, admissible=True)
        X0 = np.random.default_rng(12).normal(size=(20, 5))
        traj = simulate_preln_flow(G, X0, FlowSpec(horizon=3.0))
        assert traj.norm_mass is not None
        np.testing.assert_allclose(traj.norm_mass, G.n, atol=1e-10)

    def test_energy_grows(self):
        G, _ = random_graph(np.random.default_rng(13), n=20, admissible=True)
        X0 = np.random.default_rng(14).normal(size=(20, 5))
        traj, states = collect(simulate_preln_flow, G, X0, FlowSpec(horizon=20.0))
        assert traj.dirichlet[-1] > traj.dirichlet[0]
        assert np.isfinite(states[-1]).all()

    def test_rk4_cross_check(self):
        G, _ = random_graph(np.random.default_rng(15), n=8, admissible=True)
        rng = np.random.default_rng(16)
        X0 = rng.normal(size=(8, 3))
        spec = FlowSpec(horizon=1.0, dt=1e-3, record_stride=10**6)
        traj, recorded = collect(simulate_preln_flow, G, X0, spec)
        radius = np.sqrt(G.n / float(G.measure.sum()))

        def rhs(X):
            norms = np.linalg.norm(X, axis=1, keepdims=True)
            return aggregate_apply(G, radius * X / norms)

        _, states = rk4_reference(
            G, X0, rhs, dt=traj.times[-1] / 4096, horizon=traj.times[-1]
        )
        np.testing.assert_allclose(recorded[-1], states[-1], atol=1e-2)

    def test_rejects_inadmissible_graph(self):
        G = build_weighted_graph([(0, 1, 1.0)], measure=[1.0, 1.0])
        with pytest.raises(ValueError, match="incident weights"):
            simulate_preln_flow(
                G, np.ones((2, 2)), FlowSpec(horizon=1.0)
            )

    def test_zero_row_rejected(self, p3):
        X0 = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(FlowInstabilityError, match="sphere projection"):
            simulate_preln_flow(p3, X0, FlowSpec(horizon=1.0))


class TestRecordedSeries:
    """Each record's energies against the dense oracle, on horizons whose
    last step falls between two strides."""

    @staticmethod
    def _check_against_oracle(G, edges, traj, states):
        assert len(states) == traj.times.size
        for X, dirichlet, laplacian in zip(states, traj.dirichlet, traj.laplacian):
            assert dirichlet == pytest.approx(
                energy_oracle(G.n, edges, G.measure, X, 1), rel=1e-10, abs=1e-14
            )
            assert laplacian == pytest.approx(
                energy_oracle(G.n, edges, G.measure, X, 2), rel=1e-10, abs=1e-14
            )
        np.testing.assert_allclose(traj.gate, G.n * traj.laplacian, rtol=1e-12)

    @pytest.mark.parametrize(
        "kind, horizon, dt",
        [("heat", 1.0, 0.1), ("nonlocal", 40.0, 0.1), ("preln", 2.0, 0.15)],
    )
    def test_series_match_oracle_at_every_stride(self, kind, horizon, dt):
        G, edges = random_graph(np.random.default_rng(21), n=7, admissible=True)
        X0 = np.random.default_rng(22).normal(size=(7, 3))
        simulate = {
            "heat": simulate_heat,
            "nonlocal": simulate_nonlocal,
            "preln": simulate_preln_flow,
        }[kind]
        every, every_states = collect(
            simulate, G, X0, FlowSpec(horizon=horizon, dt=dt))
        strided, strided_states = collect(
            simulate, G, X0, FlowSpec(horizon=horizon, dt=dt, record_stride=3))
        steps = every.times.size - 1
        assert steps % 3 != 0  # the final record falls mid-stride
        kept = list(range(0, steps, 3)) + [steps]
        np.testing.assert_array_equal(strided.times, every.times[kept])
        self._check_against_oracle(G, edges, every, every_states)
        self._check_against_oracle(G, edges, strided, strided_states)

    def test_gated_constant_state_jump(self):
        G, edges = random_graph(np.random.default_rng(23), n=7)
        traj, states = collect(
            simulate_nonlocal, G, np.full((7, 2), -1.5), FlowSpec(horizon=3.0))
        assert traj.times.tolist() == [0.0, 3.0]
        self._check_against_oracle(G, edges, traj, states)
        assert traj.gate.tolist() == [0.0, 0.0]


@np.errstate(over="ignore")
def test_overflowing_state_fails_loudly(p3):
    huge = np.array([[1e300, -1e300], [-1e300, 1e300], [1e300, -1e300]])
    for m in range(4):
        with pytest.raises(ValueError, match=f"order-{m}"):
            derivative_energy(p3, huge, m)
    for simulate in (simulate_heat, simulate_nonlocal, simulate_preln_flow):
        with pytest.raises(ValueError, match="finite"):
            simulate(p3, huge, FlowSpec(horizon=1.0))
