from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphenergy.diagnostics import (
    CosineGram,
    EnergySeries,
    cosine_similarity_matrix,
    energy_series,
    fit_decay,
    prune_layer_deviation,
    prune_scan,
    relative_change_series,
    unit_rows,
)
from graphenergy.graph import build_weighted_graph
from graphenergy.ingest import SyntheticSpec, generate_graph, random_features
from graphenergy import network, sweep
from graphenergy.attention import AttentionKind
from graphenergy.network import (
    MODEL_VARIANTS,
    ModelConfig,
    NonFiniteLayerError,
    forward_trajectory,
    init_model,
)

from conftest import (
    P3_EDGES,
    STATE_TEMPORARIES,
    omitted_layer,
    random_graph,
    stack_states,
    traced_peak,
    unit_row_gram,
)


def series(values, indices=None):
    values = np.asarray(values, dtype=float)
    if indices is None:
        indices = np.arange(values.size, dtype=float)
    return EnergySeries(
        indices=np.asarray(indices, dtype=float),
        values=values,
    )


class TestEnergySeries:
    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            series([])
        with pytest.raises(ValueError, match="strictly increasing"):
            series([1.0, 2.0], indices=[1.0, 1.0])
        with pytest.raises(ValueError, match="negative"):
            series([1.0, -0.5])
        with pytest.raises(ValueError, match="aligned"):
            series([1.0, 2.0], indices=[0.0, 1.0, 2.0])

    def test_arrays_frozen(self):
        s = series([1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 5.0

    def test_constant_trajectory_measures_zero(self, p3):
        s = energy_series([np.ones((3, 2)), np.ones((3, 2))], topology=p3)
        np.testing.assert_array_equal(s.values, [0.0, 0.0])
        np.testing.assert_array_equal(s.indices, [0.0, 1.0])

    def test_p3_ramp_values(self, p3):
        ramp = np.array([[0.0], [1.0], [2.0]])
        states = [ramp, ramp]
        np.testing.assert_allclose(
            energy_series(states, 2, topology=p3).values, [1 / 3, 1 / 3], atol=1e-15
        )
        np.testing.assert_allclose(
            energy_series(states, 1, topology=p3).values, [2 / 3, 2 / 3], atol=1e-15
        )

    def test_measured_on_canonical_graph(self):
        # same topology, different weights: energies must not change
        heavy = build_weighted_graph([(0, 1, 5.0), (1, 2, 5.0)])
        ramp = np.array([[0.0], [1.0], [2.0]])
        s = energy_series([ramp], 2, topology=heavy)
        np.testing.assert_allclose(s.values, [1 / 3], atol=1e-15)


class TestRelativeChange:
    def test_constant_series_is_zero_and_stalled(self):
        r = relative_change_series(series([3.0] * 10))
        np.testing.assert_array_equal(r.values, np.zeros(9))
        assert r.verdict.stalled

    def test_geometric_series_is_exactly_one(self):
        r = relative_change_series(series(2.0 ** np.arange(12)))
        np.testing.assert_array_equal(r.values, np.ones(11))
        assert not r.verdict.stalled
        assert r.verdict.median_tail_change == 1.0

    def test_quadratic_series_value_at_ten(self):
        k = np.arange(1.0, 21.0)
        r = relative_change_series(series(k**2, indices=k))
        assert r.values[8] == pytest.approx(19 / 81, abs=1e-12)

    def test_zero_denominator_flagged(self):
        r = relative_change_series(series([0.0, 1.0, 2.0]))
        assert np.isnan(r.values[0])
        assert r.values[1] == 1.0

    def test_decaying_series_not_stalled(self):
        r = relative_change_series(series(np.exp(-0.5 * np.arange(30))))
        assert not r.verdict.stalled
        assert r.verdict.energy_slope < 0

    def test_saturating_growth_is_stalled(self):
        k = np.arange(40.0)
        r = relative_change_series(series(1.0 - 0.5 ** (k + 1), indices=k))
        v = r.verdict
        assert v.stalled
        assert v.energy_slope >= 0
        assert v.median_tail_change < 0.05
        assert v.change_trend <= 0

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="two energies"):
            relative_change_series(series([1.0]))

    def test_bad_tail_fraction(self):
        with pytest.raises(ValueError, match="tail_fraction"):
            relative_change_series(series([1.0, 2.0]), tail_fraction=0.0)


class TestCosineMatrix:
    def test_identical_and_negated_states(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(5, 3))
        sim = cosine_similarity_matrix([X, X, -X])
        assert sim[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert sim[0, 2] == pytest.approx(-1.0, abs=1e-12)
        np.testing.assert_array_equal(np.diag(sim), 1.0)

    def test_hand_example(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0]])
        b = np.array([[1.0, 1.0], [1.0, 1.0]]) / np.sqrt(2)
        sim = cosine_similarity_matrix([a, b])
        assert sim[0, 1] == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        states = [rng.normal(size=(6, 4)) for _ in range(4)]
        sim = cosine_similarity_matrix(states)
        np.testing.assert_array_equal(sim, sim.T)

    def test_zero_row_poisons_entries_without_raising(self):
        good = np.ones((3, 2))
        bad = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        sim = cosine_similarity_matrix([good, bad, good])
        assert np.isnan(sim[0, 1]) and np.isnan(sim[1, 1])
        assert sim[0, 2] == pytest.approx(1.0)

    @settings(max_examples=50)
    @given(seed=st.integers(0, 10**6))
    def test_invariant_to_positive_row_scaling(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(5, 3)) + 0.1
        Y = rng.normal(size=(5, 3))
        scale = rng.uniform(0.1, 10.0, size=(5, 1))
        base = cosine_similarity_matrix([X, Y])
        scaled = cosine_similarity_matrix([scale * X, Y])
        np.testing.assert_allclose(scaled[0, 1], base[0, 1], atol=1e-12)

    def test_unit_rows_then_gram_is_bitwise_the_matrix(self):
        rng = np.random.default_rng(2)
        states = [rng.normal(size=(7, 4)) for _ in range(4)]
        states[2][3] = 0.0
        units = [unit_rows(X) for X in states]
        assert units[2] is None
        for X, U in zip(states, units):
            if U is not None:
                assert U.tobytes() == (X / np.linalg.norm(
                    X, axis=1, keepdims=True)).tobytes()
        gram = unit_row_gram(units)
        assert gram.tobytes() == cosine_similarity_matrix(states).tobytes()
        assert np.isnan(gram[2]).all() and np.isnan(gram[:, 2]).all()
        np.testing.assert_array_equal(np.diag(gram)[[0, 1, 3]], 1.0)

    def test_empty(self):
        assert cosine_similarity_matrix([]).shape == (0, 0)


class TestCosineGram:
    """Entries taken as the states arrive give each subsample's matrix with
    the bits of the reference Gram of its unit-row forms, and a form is
    held only until its last partner has arrived."""

    SUBSAMPLES = ([0, 1, 2], [0, 2, 4, 6, 8], [0, 3, 6, 9, 10, 11])

    @staticmethod
    def stream(subsamples, states, on_add=None):
        gram = CosineGram(subsamples)
        for k, X in enumerate(states):
            gram.add(k, X)
            if on_add is not None:
                on_add(k, gram)
        return gram

    @pytest.mark.parametrize("zero_row", [None, 0, 4, 11])
    def test_matrices_are_the_reference_gram(self, zero_row):
        rng = np.random.default_rng(3)
        states = [rng.normal(size=(9, 5)) for _ in range(12)]
        if zero_row is not None:
            states[zero_row][2] = 0.0
        gram = self.stream(self.SUBSAMPLES, states)
        for layers in self.SUBSAMPLES:
            matrix = gram.matrix(layers)
            expected = unit_row_gram([unit_rows(states[k]) for k in layers])
            assert matrix.tobytes() == expected.tobytes()
            if zero_row in layers:
                t = layers.index(zero_row)
                assert np.isnan(matrix[t]).all() and np.isnan(matrix[:, t]).all()

    def test_forms_dropped_after_their_last_partner(self):
        rng = np.random.default_rng(4)
        states = [rng.normal(size=(6, 3)) for _ in range(12)]
        held = {}
        gram = self.stream(self.SUBSAMPLES, states,
                           lambda k, gram: held.update({k: sorted(gram._forms)}))
        assert held[1] == [0, 1]
        assert held[2] == [0, 2]  # 1's last partner is 2
        assert held[6] == [0, 2, 3, 4, 6]  # 5 is in no subsample
        assert held[8] == [0, 3, 6]  # 2's and 4's last partner is 8, and 8 has none
        assert held[10] == [0, 3, 6, 9, 10]
        assert held[11] == []
        # the most held at once: 0, 2, 3, 4, 6 and 8 when 8 arrives
        assert gram.peak == 6

    def test_peak_of_nested_subsamples_is_the_largest(self):
        # the sweep's default depths nest: multiples of 16 up to 256, of 8
        # up to 128, of 4 up to 64, ... so at most 17 forms are held
        subsamples = [sweep._subsample(depth + 1, sweep.COSINE_LAYER_CAP)
                      for depth in sweep.DEFAULT_DEPTHS]
        gram = self.stream(subsamples, [np.ones((2, 2))] * 257)
        assert gram.peak == max(len(layers) for layers in subsamples) == 17
        assert not gram._forms

    @pytest.mark.parametrize("depths", [(100, 256), (194, 205, 213, 226, 252)])
    def test_subsamples_of_any_depths_nest(self, depths):
        # a depth that is not 16 times a power of two still takes its
        # layers from multiples of a power of two, so the forms held stay
        # within the cap
        subsamples = [sweep._subsample(depth + 1, sweep.COSINE_LAYER_CAP)
                      for depth in depths]
        gram = self.stream(subsamples, [np.ones((2, 2))] * (max(depths) + 1))
        assert gram.peak <= sweep.COSINE_LAYER_CAP
        assert not gram._forms

    @settings(max_examples=50)
    @given(seed=st.integers(0, 10**6))
    def test_any_subsamples_match_the_reference(self, seed):
        rng = np.random.default_rng(seed)
        count = int(rng.integers(1, 30))
        subsamples = [
            sorted(rng.choice(count, size=int(rng.integers(1, count + 1)),
                              replace=False).tolist())
            for _ in range(int(rng.integers(1, 5)))
        ]
        states = [rng.normal(size=(4, 2)) for _ in range(count)]
        gram = self.stream(subsamples, states)
        assert 1 <= gram.peak <= len(set().union(*subsamples))
        assert not gram._forms  # every form met its last partner
        for layers in subsamples:
            expected = unit_row_gram([unit_rows(states[k]) for k in layers])
            assert gram.matrix(layers).tobytes() == expected.tobytes()

    def test_states_in_no_subsample_are_ignored(self):
        gram = CosineGram([[1, 3]])
        for k in range(5):
            gram.add(k, np.full((2, 2), k + 1.0))
        assert gram.peak == 2
        np.testing.assert_allclose(gram.matrix([1, 3]), np.ones((2, 2)), rtol=1e-15)


class TestFitDecay:
    def test_recovers_planted_power_law(self):
        k = np.arange(1.0, 101.0)
        report = fit_decay(series(100.0 / k, indices=k))
        assert report.classification == "algebraic-decay"
        assert report.law == "power"
        assert report.exponent == pytest.approx(-1.0, abs=1e-6)
        assert report.r_squared > 0.999999

    def test_recovers_planted_exponential(self):
        k = np.arange(0.0, 60.0)
        report = fit_decay(series(np.exp(-0.5 * k), indices=k))
        assert report.classification == "exponential-decay"
        assert report.law == "exponential"
        assert report.exponent == pytest.approx(-0.5, abs=1e-6)

    def test_recovers_planted_growth(self):
        k = np.arange(1.0, 80.0)
        report = fit_decay(series(k**1.8, indices=k))
        assert report.classification == "growth"
        assert report.law == "growth-power"
        assert report.exponent == pytest.approx(1.8, abs=1e-6)

    def test_noise_robustness(self):
        rng = np.random.default_rng(42)
        k = np.arange(1.0, 201.0)
        noisy = 50.0 * k**-1.3 * (1.0 + 0.01 * rng.normal(size=k.size))
        report = fit_decay(series(noisy, indices=k))
        assert report.classification == "algebraic-decay"
        assert report.exponent == pytest.approx(-1.3, rel=0.05)

        noisy_exp = np.exp(-0.2 * k[:80]) * (1.0 + 0.01 * rng.normal(size=80))
        report = fit_decay(series(noisy_exp, indices=k[:80]))
        assert report.classification == "exponential-decay"
        assert report.exponent == pytest.approx(-0.2, rel=0.05)

    def test_auto_window_drops_first_tenth(self):
        k = np.arange(0.0, 100.0)
        report = fit_decay(series(np.exp(-k), indices=k))
        assert report.window[0] == 10.0
        assert report.window[1] == 99.0

    def test_explicit_window(self):
        k = np.arange(1.0, 101.0)
        vals = 100.0 / k
        report = fit_decay(series(vals, indices=k), window=(20, 60))
        assert report.window == (20.0, 60.0)
        assert report.exponent == pytest.approx(-1.0, abs=1e-9)

    def test_window_outside_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            fit_decay(series(np.ones(10)), window=(50, 60))
        with pytest.raises(ValueError, match="lo exceeds"):
            fit_decay(series(np.ones(10)), window=(6, 2))
        with pytest.raises(ValueError, match="unknown window"):
            fit_decay(series(np.ones(10)), window="all")

    def test_too_few_positive_points(self):
        with pytest.raises(ValueError, match="five positive"):
            fit_decay(series([1.0, 2.0, 0.0, 0.0, 0.0, 0.0]))

    def test_nonpositive_values_shrink_window(self):
        k = np.arange(1.0, 41.0)
        vals = np.exp(-0.3 * k)
        vals[-3:] = 0.0  # underflowed tail
        report = fit_decay(series(vals, indices=k), window=(1, 40))
        assert report.window[1] == 37.0
        assert report.classification == "exponential-decay"

    def test_constant_series_inconclusive(self):
        report = fit_decay(series(np.ones(20), indices=np.arange(1.0, 21.0)))
        assert report.classification == "inconclusive"

    @pytest.mark.parametrize("variant", ["post_ln", "pre_ln", "nonlocal_post_ln"])
    def test_fit_classification_stable_across_orders(self, variant):
        # order-1 and order-2 energies of the same forward pass are pinned
        # to each other by the spectrum, so the fitted decay family must
        # agree
        G, _ = random_graph(np.random.default_rng(99), n=200)
        X = np.random.default_rng(100).normal(size=(200, 16))
        for seed in range(5):
            cfg = ModelConfig(
                input_dim=16,
                output_dim=4,
                depth=128,
                hidden_dim=32,
                heads=4,
                variant=variant,
                seed=seed,
            )
            _, states = stack_states(init_model(cfg), cfg, G, X)
            kinds = [
                fit_decay(energy_series(states, m, topology=G)).classification
                for m in (1, 2)
            ]
            assert kinds[0] == kinds[1], f"seed {seed}: {kinds}"


class TestPrune:
    def test_zero_weight_pre_ln_layer_is_free(self, p3):
        cfg = ModelConfig(
            input_dim=2, output_dim=3, depth=3, hidden_dim=4, variant="pre_ln", seed=1
        )
        params = init_model(cfg)
        layers = list(params.layers)
        layers[1] = replace(
            layers[1],
            out_weight=np.zeros_like(layers[1].out_weight),
            ffn_w2=np.zeros_like(layers[1].ffn_w2),
        )
        params = replace(params, layers=tuple(layers))
        X = np.random.default_rng(2).normal(size=(3, 2))
        report = prune_layer_deviation(params, cfg, p3, X, layer=2)
        assert report.deviation == 0.0
        assert report.mean_cosine == pytest.approx(1.0)

    def test_depth_one_prune_is_encoder_decoder(self, p3):
        cfg = ModelConfig(input_dim=2, output_dim=3, depth=1, hidden_dim=4, seed=3)
        params = init_model(cfg)
        X = np.random.default_rng(4).normal(size=(3, 2))
        report = prune_layer_deviation(params, cfg, p3, X, layer=1)
        pruned = forward_trajectory(omitted_layer(params, 1), cfg, p3, X)
        full = forward_trajectory(params, cfg, p3, X)
        expected = np.linalg.norm(
            pruned.decoder_output - full.decoder_output
        ) / np.linalg.norm(full.decoder_output)
        assert report.deviation == pytest.approx(expected, rel=1e-12)
        assert report.deviation > 0

    def test_out_of_range_layer(self, p3):
        cfg = ModelConfig(input_dim=2, output_dim=2, depth=2, hidden_dim=4)
        params = init_model(cfg)
        X = np.ones((3, 2))
        with pytest.raises(ValueError, match="pruned layer must lie in"):
            prune_layer_deviation(params, cfg, p3, X, layer=3)

    @pytest.mark.parametrize("variant", MODEL_VARIANTS)
    def test_scan_matches_skip_layer_oracle(self, variant):
        rng = np.random.default_rng(40)
        G, _ = random_graph(rng, 12)
        X = rng.normal(size=(12, 3))
        cfg = ModelConfig(input_dim=3, output_dim=2, depth=9, hidden_dim=8,
                          heads=2, variant=variant,
                          attention=AttentionKind("san"), seed=6)
        params = init_model(cfg)
        layers = (9, 1, 5, 1, 9, 2)  # unsorted, with repeats
        reports = prune_scan(params, cfg, G, X, layers)
        assert [r.layer for r in reports] == list(layers)
        assert reports[1] == reports[3] and reports[0] == reports[4]

        # the oracle skips layer k by leaving it out of an intact pass
        reference = forward_trajectory(params, cfg, G, X).decoder_output
        ref_norms = np.linalg.norm(reference, axis=1)
        for report in reports:
            candidate = forward_trajectory(
                omitted_layer(params, report.layer), cfg, G, X).decoder_output
            deviation = float(np.linalg.norm(candidate - reference)
                              / np.linalg.norm(reference))
            cosines = (reference * candidate).sum(axis=1) / (
                ref_norms * np.linalg.norm(candidate, axis=1))
            assert report.deviation == deviation
            assert report.mean_cosine == float(np.nanmean(cosines))
            assert report.deviation > 0

    def test_scan_draws_each_layer_once(self, monkeypatch):
        rng = np.random.default_rng(41)
        G, _ = random_graph(rng, 8)
        cfg = ModelConfig(input_dim=3, output_dim=2, depth=6, hidden_dim=4)
        params = init_model(cfg)
        drawn = []
        real = network._draw_layer

        def counted(stream, config):
            drawn.append(1)
            return real(stream, config)

        monkeypatch.setattr(network, "_draw_layer", counted)
        prune_scan(params, cfg, G, rng.normal(size=(8, 3)), (2, 4))
        assert len(drawn) == cfg.depth  # not 6 + 4 + 2 for three passes

    def test_scan_keeps_only_the_states_before_pruned_layers(self):
        n, hidden, layers = 3000, 16, (32, 48, 62)
        G = generate_graph(SyntheticSpec(kind="ring", size=n, seed=0))
        X = random_features(n, 8, seed=7)
        cfg = ModelConfig(input_dim=8, output_dim=3, depth=64, hidden_dim=hidden)
        shallow = replace(cfg, depth=1)
        prune_scan(init_model(shallow), shallow, G, X, (1,))  # build G's caches
        params = init_model(cfg)
        _, peak = traced_peak(lambda: prune_scan(params, cfg, G, X, layers))
        assert peak < (len(layers) + STATE_TEMPORARIES) * n * hidden * 8

    def test_scan_memory_does_not_grow_with_depth(self):
        n, hidden, layers = 3000, 16, (32, 48, 62)
        G = generate_graph(SyntheticSpec(kind="ring", size=n, seed=0))
        X = random_features(n, 8, seed=7)
        cfg = ModelConfig(input_dim=8, output_dim=3, depth=1, hidden_dim=hidden)
        prune_scan(init_model(cfg), cfg, G, X, (1,))  # build G's caches
        peaks = []
        for depth in (64, 256):
            deep = replace(cfg, depth=depth)
            params = init_model(deep)
            _, peak = traced_peak(lambda: prune_scan(params, deep, G, X, layers))
            peaks.append(peak)
        # four times the layers may not cost one more state
        assert peaks[1] - peaks[0] < n * hidden * 8

    def test_scan_out_of_range_layer(self, p3, monkeypatch):
        cfg = ModelConfig(input_dim=2, output_dim=2, depth=2, hidden_dim=4)
        params = init_model(cfg)
        monkeypatch.setattr(network, "layer_step", None)  # no layer may run
        with pytest.raises(ValueError, match="pruned layer must lie in"):
            prune_scan(params, cfg, p3, np.ones((3, 2)), (1, 0))
        with pytest.raises(ValueError, match="pruned layer must lie in"):
            prune_scan(params, cfg, p3, np.ones((3, 2)), (2, 3))

    def test_scan_nonfinite_precedence(self, monkeypatch):
        rng = np.random.default_rng(42)
        G, _ = random_graph(rng, 8)
        X = rng.normal(size=(8, 3))
        cfg = ModelConfig(input_dim=3, output_dim=2, depth=6, hidden_dim=4)
        params = init_model(cfg)
        params = replace(params, layers=tuple(params.layers))
        _, intact = stack_states(params, cfg, G, X)
        real = network.layer_step
        index = {id(layer): k for k, layer in enumerate(params.layers, start=1)}
        broken = {}  # layer -> whether it fails on the intact input too

        def step(state, layer, config, graph):
            k = index[id(layer)]
            if k in broken and (broken[k] or not np.array_equal(
                    state, intact[k - 1])):
                return np.full_like(state, np.nan), None
            return real(state, layer, config, graph)

        monkeypatch.setattr(network, "layer_step", step)
        # layers 3 and 5 fail on any input but the intact stack's: the
        # stack that skips 2 fails at 3, the one that skips 4 at 5, and
        # the one that skips 5 never fails
        broken.update({3: False, 5: False})
        for layers, failed_at in (((4, 2), 5), ((2, 4), 3), ((5, 4, 2), 5)):
            with pytest.raises(NonFiniteLayerError) as err:
                prune_scan(params, cfg, G, X, layers)
            assert err.value.layer == failed_at
        assert prune_scan(params, cfg, G, X, (5,))[0].deviation > 0
        # a non-finite intact stack comes first, even after pruned ones
        broken[6] = True
        with pytest.raises(NonFiniteLayerError) as err:
            prune_scan(params, cfg, G, X, (2, 4))
        assert err.value.layer == 6
