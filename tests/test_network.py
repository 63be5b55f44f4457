"""Layer-norm placements, message passing, and recorded forward passes."""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np
import pytest
from numpy.testing import assert_allclose

from graphenergy import network
from graphenergy.attention import SCORE_VARIANTS, AttentionKind, AttentionParams
from graphenergy.graph import build_weighted_graph
from graphenergy.network import (
    LAYER_NORM_EPS,
    MODEL_VARIANTS,
    LayerParams,
    ModelConfig,
    NonFiniteLayerError,
    feed_forward,
    _draw_layer,
    forward_trajectory,
    glorot_uniform,
    init_model,
    layer_norm,
    message_passing,
    nonlocal_message_passing,
)

from conftest import omitted_layer, random_graph, stack_states


def identity_layer(d: int, heads: int = 1) -> LayerParams:
    """GCN attention, identity value/output maps, zeroed FFN."""
    dh = d // heads
    blocks = []
    for h in range(heads):
        block = np.zeros((d, dh))
        block[h * dh:(h + 1) * dh] = np.eye(dh)
        blocks.append(block)
    return LayerParams(
        attention=tuple(AttentionParams() for _ in range(heads)),
        values=tuple(blocks),
        out_weight=np.eye(d),
        ffn_w1=np.zeros((d, 2 * d)),
        ffn_w2=np.zeros((2 * d, d)),
    )


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ValueError, match="divide"):
            ModelConfig(input_dim=3, output_dim=2, depth=1, hidden_dim=6, heads=4)

    def test_depth_zero_allowed(self):
        cfg = ModelConfig(input_dim=3, output_dim=2, depth=0)
        assert cfg.depth == 0

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            ModelConfig(input_dim=3, output_dim=2, depth=-1)

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            ModelConfig(input_dim=3, output_dim=2, depth=1, variant="sandwich_ln")


class TestInit:
    def test_deterministic(self):
        cfg = ModelConfig(input_dim=4, output_dim=2, depth=3, hidden_dim=8,
                          attention=AttentionKind("san"), seed=5)
        a, b = init_model(cfg), init_model(cfg)
        assert np.array_equal(a.encoder_w1, b.encoder_w1)
        assert np.array_equal(a.layers[2].ffn_w1, b.layers[2].ffn_w1)
        c = init_model(ModelConfig(input_dim=4, output_dim=2, depth=3,
                                   hidden_dim=8, attention=AttentionKind("san"),
                                   seed=6))
        assert not np.array_equal(a.encoder_w1, c.encoder_w1)

    def test_shapes_and_defaults(self):
        cfg = ModelConfig(input_dim=4, output_dim=3, depth=2, hidden_dim=8,
                          heads=2, attention=AttentionKind("gat"))
        params = init_model(cfg)
        assert params.encoder_w1.shape == (4, 8)
        assert len(params.layers) == 2
        layer = params.layers[0]
        assert len(layer.attention) == 2
        assert layer.attention[0].weight.shape == (8, 4)
        assert layer.attention[0].attn_vector.shape == (8,)
        assert layer.values[0].shape == (8, 4)
        assert layer.ffn_w1.shape == (8, 16)
        assert layer.ffn_w2.shape == (16, 8)
        assert params.decoder_w.shape == (8, 3)

    @pytest.mark.parametrize("heads", (1, 2, 4))
    @pytest.mark.parametrize("score", SCORE_VARIANTS)
    def test_layers_drawn_on_demand_match_a_sequential_draw(self, score, heads):
        cfg = ModelConfig(input_dim=5, output_dim=3, depth=6, hidden_dim=8,
                          heads=heads, attention=AttentionKind(score), seed=9)
        rng = np.random.default_rng(9)
        encoder = (glorot_uniform(rng, 5, 8, (5, 8)), glorot_uniform(rng, 8, 8, (8, 8)))
        layers = tuple(_draw_layer(rng, cfg) for _ in range(cfg.depth))
        decoder = glorot_uniform(rng, 8, 3, (8, 3))

        params = init_model(cfg)
        assert isinstance(params.layers, Sequence) and len(params.layers) == 6
        assert _bits((params.encoder_w1, params.encoder_w2)) == _bits(encoder)
        assert _bits(params.decoder_w) == _bits(decoder)
        assert _bits(tuple(params.layers)) == _bits(layers)  # iteration
        assert _bits(params.layers[4]) == _bits(layers[4])
        assert _bits(params.layers[-2]) == _bits(layers[4])
        assert _bits(params.layers[1:5:2]) == _bits(layers[1:5:2])
        assert _bits(params.layers[::-1]) == _bits(layers[::-1])
        assert params.layers[7:] == ()
        for bad in (6, -7):
            with pytest.raises(IndexError):
                params.layers[bad]

    def test_layers_are_not_cached(self):
        params = init_model(ModelConfig(input_dim=2, output_dim=2, depth=2))
        first, again = params.layers[1], params.layers[1]
        assert first is not again and first.ffn_w1 is not again.ffn_w1
        assert _bits(first) == _bits(again)

    def test_glorot_bound(self):
        cfg = ModelConfig(input_dim=100, output_dim=2, depth=1, hidden_dim=4)
        params = init_model(cfg)
        bound = np.sqrt(6.0 / (100 + 4))
        assert np.abs(params.encoder_w1).max() <= bound


class TestLayerNorm:
    def test_already_normalized_row(self):
        out = layer_norm(np.array([[1.0, -1.0]]))
        assert_allclose(out, [[1.0, -1.0]], atol=1e-4)

    def test_constant_row_maps_to_zero(self):
        out = layer_norm(np.full((2, 3), 9.0))
        assert np.array_equal(out, np.zeros((2, 3)))

    @pytest.mark.parametrize("d", [2, 32])
    def test_bitwise_equal_to_formula(self, d):
        rng = np.random.default_rng(d)
        X = 3.0 * rng.normal(size=(40, d)) + rng.normal(size=(40, 1))
        X[3], X[17] = -1.25, 4.0  # constant rows
        before = X.copy()
        mean = X.mean(axis=1, keepdims=True)
        var = X.var(axis=1, keepdims=True)
        expected = (X - mean) / np.sqrt(var + LAYER_NORM_EPS)
        assert np.array_equal(layer_norm(X), expected)
        assert np.array_equal(X, before)

    def test_needs_two_features(self):
        with pytest.raises(ValueError, match="d >= 2"):
            layer_norm(np.ones((3, 1)))


class TestMessagePassing:
    def test_identity_maps_give_aggregation(self, p3):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        out, mults = message_passing(X, identity_layer(2), p3, AttentionKind("gcn"))
        assert mults is None
        assert_allclose(out[:, 0], [0.5, 1.0, 1.5], rtol=1e-14)
        assert_allclose(out[:, 1], [0.5, 1.0, 1.5], rtol=1e-14)

    def test_two_heads_concatenate(self, p3):
        X = np.array([[0.0, 10.0], [1.0, 11.0], [2.0, 12.0]])
        out, _ = message_passing(X, identity_layer(2, heads=2), p3,
                                 AttentionKind("gcn"))
        assert_allclose(out[:, 0], [0.5, 1.0, 1.5], rtol=1e-14)
        assert_allclose(out[:, 1], [10.5, 11.0, 11.5], rtol=1e-14)

    def test_gated_multiplier_value(self, p3):
        # ramp features: ||PX - X||_F^2 = 0.5, so s = 1/6
        X = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        out, mults = message_passing(X, identity_layer(2), p3,
                                     AttentionKind("gcn"), gated=True)
        assert_allclose(mults, [1.0 / 6.0], rtol=1e-12)
        assert_allclose(out[:, 0], np.array([0.5, 1.0, 1.5]) / 6.0, rtol=1e-12)

    def test_gated_cubic_homogeneity(self):
        rng = np.random.default_rng(3)
        G, _ = random_graph(rng, 11)
        layer = identity_layer(4)
        X = rng.normal(size=(11, 4))
        base, _ = message_passing(X, layer, G, AttentionKind("gcn"), gated=True)
        scaled, _ = message_passing(3.0 * X, layer, G, AttentionKind("gcn"),
                                    gated=True)
        assert_allclose(scaled, 27.0 * base, rtol=1e-10)

    def test_gate_vanishes_on_constants(self, p3):
        X = np.full((3, 2), 4.2)
        out, mults = message_passing(X, identity_layer(2), p3,
                                     AttentionKind("gcn"), gated=True)
        assert mults[0] <= 1e-28
        assert_allclose(out, 0.0, atol=1e-13)

    @staticmethod
    def _two_san_heads():
        """A drawn two-head san layer with an identity output map, so
        output columns 0-3 are head 0 and 4-7 head 1."""
        rng = np.random.default_rng(23)
        G, _ = random_graph(rng, 12)
        cfg = ModelConfig(input_dim=8, output_dim=2, depth=1, hidden_dim=8,
                          heads=2, attention=AttentionKind("san"))
        layer = dataclasses.replace(init_model(cfg).layers[0], out_weight=np.eye(8))
        return rng.normal(size=(12, 8)), layer, G, cfg.attention

    def test_gated_heads_are_plain_heads_scaled(self):
        X, layer, G, kind = self._two_san_heads()
        plain, none = message_passing(X, layer, G, kind)
        gated, mults = message_passing(X, layer, G, kind, gated=True)
        assert none is None and mults.shape == (2,) and np.all(mults > 0)
        expected = np.concatenate([plain[:, :4] * mults[0], plain[:, 4:] * mults[1]],
                                  axis=1)
        assert np.array_equal(gated, expected)

    def test_nonlocal_alias_is_the_gated_call(self):
        X, layer, G, kind = self._two_san_heads()
        out, mults = nonlocal_message_passing(X, layer, G, kind)
        ref_out, ref_mults = message_passing(X, layer, G, kind, gated=True)
        assert np.array_equal(out, ref_out) and np.array_equal(mults, ref_mults)


class TestForward:
    def _config(self, G, depth, variant="post_ln", seed=0, hidden=8):
        return ModelConfig(input_dim=3, output_dim=2, depth=depth,
                           hidden_dim=hidden, variant=variant,
                           attention=AttentionKind("san"), seed=seed)

    def test_shapes_and_lengths(self):
        rng = np.random.default_rng(14)
        G, _ = random_graph(rng, 9)
        cfg = self._config(G, depth=4)
        traj, states = stack_states(init_model(cfg), cfg, G, rng.normal(size=(9, 3)))
        assert len(states) == 5
        assert len(traj.multipliers) == 4
        assert states[0].shape == (9, 8)
        assert traj.decoder_output.shape == (9, 2)

    def test_depth_zero(self):
        rng = np.random.default_rng(15)
        G, _ = random_graph(rng, 6)
        cfg = self._config(G, depth=0)
        traj, states = stack_states(init_model(cfg), cfg, G, rng.normal(size=(6, 3)))
        assert len(states) == 1
        assert traj.multipliers == ()
        assert traj.decoder_output.shape == (6, 2)

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(16)
        G, _ = random_graph(rng, 8)
        cfg = self._config(G, depth=3, variant="nonlocal_post_ln", seed=2)
        X = rng.normal(size=(8, 3))
        _, s1 = stack_states(init_model(cfg), cfg, G, X)
        _, s2 = stack_states(init_model(cfg), cfg, G, X)
        assert _bits(s1) == _bits(s2)

    def test_post_ln_zero_weights_idempotent(self):
        rng = np.random.default_rng(17)
        G, _ = random_graph(rng, 7)
        cfg = self._config(G, depth=2)
        params = init_model(cfg)
        zeroed = _zero_branches(params)
        _, states = stack_states(zeroed, cfg, G, rng.normal(size=(7, 3)))
        expected = layer_norm(states[0])
        # normalization is idempotent up to eps/(2 var) per row
        assert_allclose(states[1], expected, atol=2e-3)
        assert_allclose(states[2], expected, atol=2e-3)

    def test_pre_ln_zero_weights_exact_identity(self):
        rng = np.random.default_rng(18)
        G, _ = random_graph(rng, 7)
        cfg = self._config(G, depth=3, variant="pre_ln")
        zeroed = _zero_branches(init_model(cfg))
        _, states = stack_states(zeroed, cfg, G, rng.normal(size=(7, 3)))
        for state in states[1:]:
            assert np.array_equal(state, states[0])

    def test_gated_variant_records_multipliers(self):
        rng = np.random.default_rng(19)
        G, _ = random_graph(rng, 10)
        cfg = self._config(G, depth=3, variant="nonlocal_post_ln")
        traj = forward_trajectory(init_model(cfg), cfg, G, rng.normal(size=(10, 3)))
        assert all(m is not None and m.shape == (1,) for m in traj.multipliers)
        plain_cfg = self._config(G, depth=3)
        plain = forward_trajectory(init_model(plain_cfg), plain_cfg, G,
                                   rng.normal(size=(10, 3)))
        assert all(m is None for m in plain.multipliers)

    def test_gated_equals_plain_when_gate_closed(self, p3):
        # constant features close the gate; the layer then reduces to the
        # norm/FFN pipeline with a zero message branch
        layer = identity_layer(4)
        X = np.full((3, 4), 2.0)
        mp, mults = message_passing(X, layer, p3, AttentionKind("gcn"), gated=True)
        assert mults.max() <= 1e-28
        Y = layer_norm(X + mp)
        manual = layer_norm(Y + feed_forward(Y, layer))
        Y0 = layer_norm(X)
        plain = layer_norm(Y0 + feed_forward(Y0, layer))
        assert_allclose(manual, plain, atol=1e-12)

    def test_input_shape_checked(self):
        rng = np.random.default_rng(22)
        G, _ = random_graph(rng, 5)
        cfg = self._config(G, depth=1)
        with pytest.raises(ValueError, match="does not match"):
            forward_trajectory(init_model(cfg), cfg, G, rng.normal(size=(5, 4)))

    def test_nonfinite_reports_layer(self):
        rng = np.random.default_rng(23)
        G, _ = random_graph(rng, 6)
        cfg = self._config(G, depth=2)
        params = init_model(cfg)
        bad_layer = params.layers[1]
        poisoned = dataclasses.replace(
            bad_layer, out_weight=bad_layer.out_weight * np.inf
        )
        broken = dataclasses.replace(params, layers=(params.layers[0], poisoned))
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteLayerError) as err:
            forward_trajectory(broken, cfg, G, rng.normal(size=(6, 3)))
        assert err.value.layer == 2

    def test_constant_input_rows_stay_equal(self, p3):
        cfg = ModelConfig(input_dim=3, output_dim=2, depth=2, hidden_dim=8,
                          attention=AttentionKind("san"), seed=1)
        X = np.tile([0.3, -1.2, 0.8], (3, 1))
        _, states = stack_states(init_model(cfg), cfg, p3, X)
        for state in states:
            assert_allclose(state - state[0], 0.0, atol=1e-10)


class TestPrefixInvariant:
    """A depth-d stack is the first d layers of any deeper stack with the
    same seed; sweeps and pruning scans reuse states on that basis."""

    @pytest.mark.parametrize("heads", (1, 2))
    @pytest.mark.parametrize("score", SCORE_VARIANTS)
    @pytest.mark.parametrize("variant", MODEL_VARIANTS)
    def test_shallow_stack_is_prefix_of_deep(self, variant, score, heads):
        rng = np.random.default_rng(30)
        G, _ = random_graph(rng, 9)
        X = rng.normal(size=(9, 3))

        def config(depth):
            return ModelConfig(input_dim=3, output_dim=2, depth=depth,
                               hidden_dim=8, heads=heads, variant=variant,
                               attention=AttentionKind(score), seed=4)

        shallow_cfg, deep_cfg = config(3), config(7)
        shallow, deep = init_model(shallow_cfg), init_model(deep_cfg)
        assert _bits(shallow.layers) == _bits(deep.layers[:3])
        assert _bits(shallow.encoder_w1) == _bits(deep.encoder_w1)
        # the decoder is drawn after the layers, so it is not shared
        assert _bits(shallow.decoder_w) != _bits(deep.decoder_w)

        short, short_states = stack_states(shallow, shallow_cfg, G, X)
        long, long_states = stack_states(deep, deep_cfg, G, X)
        assert _bits(short_states) == _bits(long_states[:4])
        assert _bits(short.multipliers) == _bits(long.multipliers[:3])

    @pytest.mark.parametrize("variant", MODEL_VARIANTS)
    def test_stream_branches_match_skip_layer(self, variant):
        rng = np.random.default_rng(31)
        G, _ = random_graph(rng, 10)
        X = rng.normal(size=(10, 3))
        cfg = ModelConfig(input_dim=3, output_dim=2, depth=5, hidden_dim=8,
                          heads=2, variant=variant,
                          attention=AttentionKind("gat"), seed=2)
        params = init_model(cfg)
        intact, states = stack_states(params, cfg, G, X)
        branches = dict.fromkeys((5, 1, 3, 2, 4))
        stream = list(network._stream(params, cfg, G, X, branches))
        # the stacks beside it leave the stack itself untouched
        assert _bits(tuple(state for state, _ in stream)) == _bits(states)
        assert _bits(tuple(m for _, m in stream[1:])) == _bits(intact.multipliers)
        # the branch for layer k ends where the stack without layer k does
        for layer in range(1, 6):
            _, pruned = stack_states(omitted_layer(params, layer), cfg, G, X)
            assert _bits(branches[layer]) == _bits(pruned[-1])
        for layer in (0, 6):
            with pytest.raises(ValueError, match="pruned layer must lie in"):
                next(network._stream(params, cfg, G, X, {1: None, layer: None}))

    def test_nonfinite_error_carries_finite_prefix(self):
        rng = np.random.default_rng(32)
        G, _ = random_graph(rng, 6)
        cfg = ModelConfig(input_dim=3, output_dim=2, depth=4, hidden_dim=8,
                          attention=AttentionKind("san"), seed=1)
        params = init_model(cfg)
        X = rng.normal(size=(6, 3))
        _, clean = stack_states(params, cfg, G, X)
        layers = list(params.layers)
        layers[2] = dataclasses.replace(
            layers[2], out_weight=layers[2].out_weight * np.inf)
        broken = dataclasses.replace(params, layers=tuple(layers))
        seen = []
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteLayerError) as err:
            forward_trajectory(broken, cfg, G, X,
                               observe=lambda k, state: seen.append(state))
        assert err.value.layer == 3 and len(seen) == err.value.layer
        assert _bits(tuple(seen)) == _bits(clean[:3])

    def test_observe_sees_every_state_in_order(self):
        rng = np.random.default_rng(33)
        G, _ = random_graph(rng, 8)
        cfg = ModelConfig(input_dim=3, output_dim=2, depth=5, hidden_dim=8,
                          heads=2, variant="nonlocal_post_ln",
                          attention=AttentionKind("gat"), seed=3)
        params = init_model(cfg)
        X = rng.normal(size=(8, 3))
        stream = list(network._stream(params, cfg, G, X, {}))

        seen = []
        traj = forward_trajectory(params, cfg, G, X,
                                  observe=lambda k, state: seen.append((k, state)))
        assert [k for k, _ in seen] == list(range(6))
        assert _bits(tuple(state for _, state in seen)) == _bits(
            tuple(state for state, _ in stream))
        assert _bits(traj.multipliers) == _bits(tuple(m for _, m in stream[1:]))
        assert _bits(traj.decoder_output) == _bits(network._decode(params, stream[-1][0]))

        layers = list(params.layers)
        layers[2] = dataclasses.replace(
            layers[2], out_weight=layers[2].out_weight * np.inf)
        broken = dataclasses.replace(params, layers=tuple(layers))
        seen.clear()
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteLayerError) as err:
            forward_trajectory(broken, cfg, G, X,
                               observe=lambda k, state: seen.append((k, state)))
        assert err.value.layer == 3
        assert [k for k, _ in seen] == [0, 1, 2]


def _bits(value):
    """Every array byte and None inside nested dataclasses and sequences
    (tuples, and the layers :func:`init_model` draws on demand)."""
    if dataclasses.is_dataclass(value):
        return tuple(_bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, Sequence) and not isinstance(value, str):
        return tuple(_bits(v) for v in value)
    if isinstance(value, np.ndarray):
        return (value.shape, value.tobytes())
    return value


def _zero_branches(params):
    """Zero every message-passing output map and FFN second map."""
    from dataclasses import replace

    new_layers = tuple(
        replace(layer, out_weight=np.zeros_like(layer.out_weight),
                ffn_w2=np.zeros_like(layer.ffn_w2))
        for layer in params.layers
    )
    return replace(params, layers=new_layers)
