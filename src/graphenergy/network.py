"""Attention message-passing stacks with three norm placements.

One hidden layer is message passing plus a feed-forward block, wired in
one of three ways (``Norm`` centres each row and scales it to unit
variance, with ``LAYER_NORM_EPS`` added to the variance and no affine):

* ``post_ln``:  ``Y = Norm(X + MP(X))``, ``X' = Norm(Y + FFN(Y))``
* ``pre_ln``:   ``Y = X + MP(Norm(X))``, ``X' = Y + FFN(Norm(Y))``
* ``nonlocal_post_ln``: post_ln with each head of MP scaled by its gate
  ``s = ||P X - X||_F^2 / n``

One head loop, ``message_passing``, serves all three: per head it scores
the edges on the current input, once per undirected edge, takes the
softmax over the closed neighborhood, aggregates, maps through the head's
value matrix and, gated, scales by ``s``. Heads concatenate and pass
through a shared output matrix. The gate is the squared distance of one
aggregation step per vertex: it vanishes exactly on constant features,
shrinks as smoothing proceeds, adds no parameters and costs O(nd).

The forward pass is one stream of states X^0 .. X^L, with the layer
loop and its finiteness check in one place. ``forward_trajectory`` hands
each state to an optional observer as it is produced and keeps none, so
a depth-256 sweep measures every state as it arrives and holds only what
its writers read later. A non-finite state raises with its layer index
alone: the observer has already seen the finite prefix. Pruned stacks,
each without one layer, can step beside it, so a pruning scan
(``diagnostics.prune_scan``) reads every layer once and drops it.

There is no training here, so the model holds weight matrices only;
biases and norm affines would stay zero and one. Parameters come from
one seeded generator so runs are reproducible bitwise; each layer's are
drawn when the stream reaches it, so neither the states nor the
parameters a pass holds grow with depth.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from graphenergy.attention import (
    AttentionKind,
    AttentionParams,
    VARIANT_ADDITIVE,
    VARIANT_DOT,
    attention_scores,
    attention_weighted_graph,
)
from graphenergy.graph import WeightedGraph

VARIANT_POST_LN = "post_ln"
VARIANT_PRE_LN = "pre_ln"
VARIANT_NONLOCAL = "nonlocal_post_ln"
MODEL_VARIANTS = (VARIANT_POST_LN, VARIANT_PRE_LN, VARIANT_NONLOCAL)

LAYER_NORM_EPS = 1e-5
FFN_EXPANSION = 2  # FFN hidden width as a multiple of hidden_dim


class NonFiniteLayerError(RuntimeError):
    """A forward pass produced a non-finite value at ``layer``.

    States X^0 .. X^(layer-1) were finite and were handed to the
    caller's ``observe`` callback before this is raised, so a caller that
    measures states as they arrive, as the sweep does, already holds the
    measurements of the whole finite prefix.
    """

    def __init__(self, layer: int):
        super().__init__(f"non-finite values appeared at layer {layer}")
        self.layer = layer


@dataclass(frozen=True)
class ModelConfig:
    """Static architecture description; validation happens on construction."""

    input_dim: int
    output_dim: int
    depth: int
    hidden_dim: int = 32
    heads: int = 1
    variant: str = VARIANT_POST_LN
    attention: AttentionKind = field(default_factory=AttentionKind)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.variant not in MODEL_VARIANTS:
            raise ValueError(
                f"unknown variant {self.variant!r}; expected one of {MODEL_VARIANTS}"
            )
        if self.depth < 0:
            raise ValueError("depth must be nonnegative")
        if self.hidden_dim < 2:
            raise ValueError("hidden_dim must be at least 2 for row normalization")
        if self.heads < 1 or self.hidden_dim % self.heads != 0:
            raise ValueError(
                f"heads {self.heads} does not divide hidden_dim {self.hidden_dim}"
            )
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("input_dim and output_dim must be positive")

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.heads


@dataclass(frozen=True)
class LayerParams:
    attention: tuple[AttentionParams, ...]
    values: tuple[np.ndarray, ...]
    out_weight: np.ndarray
    ffn_w1: np.ndarray
    ffn_w2: np.ndarray


@dataclass(frozen=True)
class ModelParams:
    """A stack's parameters. :func:`init_model` fills ``layers`` with a
    :class:`DrawnLayers` that draws each layer when it is read; any other
    sequence of :class:`LayerParams` works the same, such as a tuple
    without layer k: the stack ``prune_scan`` steps beside the intact one."""

    encoder_w1: np.ndarray
    encoder_w2: np.ndarray
    layers: Sequence[LayerParams]
    decoder_w: np.ndarray


@dataclass(frozen=True, eq=False)
class LayerTrajectory:
    """What a forward pass leaves once its states have streamed past: the
    decoder output and the per-layer scalars.

    ``multipliers[k]`` holds the gating scalars of layer k+1 (one per
    head) for the gated variant and None otherwise, so the depth L is
    ``len(multipliers)``.
    """

    decoder_output: np.ndarray
    multipliers: tuple[np.ndarray | None, ...]


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def init_model(config: ModelConfig) -> ModelParams:
    """Draw the parameters from one seeded PCG64 stream: the encoder, then
    ``config.depth`` layers, then the decoder.

    Weight matrices are variance-scaled uniform. The draw order is fixed,
    so equal seeds give bitwise-equal parameters, and a depth-d stack's
    layers are the first d layers of any deeper stack with the same seed
    (its decoder is not); sweeps rely on this to take shallow depths as
    prefixes of the deepest run.

    The encoder and decoder are drawn here. The layers are drawn when
    they are read (see :class:`DrawnLayers`), so a forward pass holds one
    layer's parameters at a time, whatever the depth. The decoder is
    drawn after the stream is advanced past every layer's draws.
    """
    rng = np.random.default_rng(config.seed)
    d = config.hidden_dim
    enc_w1 = glorot_uniform(rng, config.input_dim, d, (config.input_dim, d))
    enc_w2 = glorot_uniform(rng, d, d, (d, d))
    layers = DrawnLayers(config, rng.bit_generator.state)
    rng.bit_generator.advance(config.depth * layers.draws_per_layer)
    dec_w = glorot_uniform(rng, d, config.output_dim, (d, config.output_dim))
    return ModelParams(
        encoder_w1=enc_w1, encoder_w2=enc_w2, layers=layers, decoder_w=dec_w
    )


class DrawnLayers(Sequence):
    """The ``config.depth`` layers of :func:`init_model`, each drawn anew
    whenever it is read.

    ``state`` is the stream's state after the encoder. Layer k is drawn
    from that state advanced past k layers' draws: every uniform double
    takes one 64-bit step of PCG64, so k layers take ``k *
    draws_per_layer`` steps, and the result is bitwise the layer a
    sequential draw gives. Integer indices (negative ones too) and slices
    work; a slice is a tuple. Nothing is cached.
    """

    def __init__(self, config: ModelConfig, state: dict):
        counter = _DrawCounter()
        _draw_layer(counter, config)
        self.draws_per_layer = counter.draws
        self._config = config
        self._state = state

    def __len__(self) -> int:
        return self._config.depth

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[i] for i in range(*k.indices(len(self))))
        k = operator.index(k)
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError(f"layer index out of range for depth {len(self)}")
        bits = np.random.PCG64()
        bits.state = self._state
        bits.advance(k * self.draws_per_layer)
        return _draw_layer(np.random.Generator(bits), self._config)


class _DrawCounter:
    """Stands in for the generator in :func:`_draw_layer` and counts the
    uniform doubles a layer takes."""

    def __init__(self):
        self.draws = 0

    def uniform(self, low, high, size):
        self.draws += math.prod(size)
        return np.zeros(size)


def _draw_layer(rng, config: ModelConfig) -> LayerParams:
    """One hidden layer's parameters, drawn from ``rng`` in fixed order."""
    d, dh, e = config.hidden_dim, config.head_dim, FFN_EXPANSION
    heads = []
    for _ in range(config.heads):
        if config.attention.variant == VARIANT_ADDITIVE:
            heads.append(AttentionParams(
                weight=glorot_uniform(rng, d, dh, (d, dh)),
                attn_vector=glorot_uniform(rng, 2 * dh, 1, (2 * dh,)),
            ))
        elif config.attention.variant == VARIANT_DOT:
            heads.append(AttentionParams(
                key=glorot_uniform(rng, d, dh, (d, dh)),
                query=glorot_uniform(rng, d, dh, (d, dh)),
            ))
        else:
            heads.append(AttentionParams())
    values = tuple(glorot_uniform(rng, d, dh, (d, dh)) for _ in range(config.heads))
    return LayerParams(
        attention=tuple(heads),
        values=values,
        out_weight=glorot_uniform(rng, d, d, (d, d)),
        ffn_w1=glorot_uniform(rng, d, e * d, (d, e * d)),
        ffn_w2=glorot_uniform(rng, e * d, d, (e * d, d)),
    )


def layer_norm(X: np.ndarray) -> np.ndarray:
    """Row-wise normalization to zero mean and unit variance."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] < 2:
        raise ValueError("layer_norm expects (n, d) input with d >= 2")
    out = X - X.mean(axis=1, keepdims=True)
    var = np.square(out).sum(axis=1, keepdims=True) / X.shape[1]
    out /= np.sqrt(var + LAYER_NORM_EPS)
    return out


def feed_forward(X: np.ndarray, layer: LayerParams) -> np.ndarray:
    """Position-wise expansion MLP with a single rectifier."""
    hidden = X @ layer.ffn_w1
    return np.maximum(hidden, 0.0, out=hidden) @ layer.ffn_w2


def message_passing(
    X: np.ndarray,
    layer: LayerParams,
    G: WeightedGraph,
    kind: AttentionKind,
    gated: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Multi-head softmax aggregation followed by the output map; returns
    the output and, when ``gated``, the per-head multipliers (else None).

    Gated, head h is scaled by ``s_h = ||P_h X - X||_F^2 / n``, which is
    O(nd) extra work per head on top of the aggregation itself and no
    extra n x d array: once ``P_h X V`` is taken, ``P_h X`` is turned into
    the squared update in place, and the head output is scaled in place.
    """
    parts = []
    mults = np.empty(len(layer.values)) if gated else None
    for h, (head_params, V) in enumerate(zip(layer.attention, layer.values)):
        P = attention_weighted_graph(attention_scores(kind, head_params, G, X))
        PX = P @ X
        head = PX @ V
        if gated:
            PX -= X
            PX *= PX
            mults[h] = s = float(PX.sum()) / X.shape[0]
            head *= s
        parts.append(head)
    joined = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
    return joined @ layer.out_weight, mults


def nonlocal_message_passing(X, layer, G, kind):
    """Gated :func:`message_passing`, by the name ``perfbench`` traces."""
    return message_passing(X, layer, G, kind, gated=True)


def layer_step(
    X: np.ndarray,
    layer: LayerParams,
    config: ModelConfig,
    G: WeightedGraph,
) -> tuple[np.ndarray, np.ndarray | None]:
    """One hidden layer in the configured wiring; returns the next state
    and the layer's gating multipliers (None unless gated)."""
    if config.variant == VARIANT_PRE_LN:
        Y = message_passing(layer_norm(X), layer, G, config.attention)[0]
        Y += X
        X = feed_forward(layer_norm(Y), layer)
        X += Y
        return X, None
    gated = config.variant == VARIANT_NONLOCAL
    mp, mult = message_passing(X, layer, G, config.attention, gated)
    Y = layer_norm(np.add(mp, X, out=mp))
    F = feed_forward(Y, layer)
    return layer_norm(np.add(F, Y, out=F)), mult


def forward_trajectory(
    params: ModelParams,
    config: ModelConfig,
    G: WeightedGraph,
    X_in: np.ndarray,
    *,
    observe: Callable[[int, np.ndarray], None] | None = None,
) -> LayerTrajectory:
    """Run the stack as a stream of states X^0 .. X^L.

    ``observe(k, X)``, when given, sees each state as it is produced; no
    state is kept. Non-finite values raise :class:`NonFiniteLayerError`
    with the offending layer index; ``observe`` has seen every state
    before it.
    """
    multipliers: list[np.ndarray | None] = []
    for k, (X, mult) in enumerate(_stream(params, config, G, X_in, {})):
        if observe is not None:
            observe(k, X)
        multipliers.append(mult)
    return LayerTrajectory(
        decoder_output=_decode(params, X),
        multipliers=tuple(multipliers[1:]),  # the encoder has none
    )


def _stream(params, config, G, X, branches):
    """Yield ``(X^k, multipliers of layer k)`` for k = 0 .. L from the
    model input ``X``; state 0 is the encoder's output. This is the
    package's one layer loop, and it checks its arguments before any
    layer runs. Beside it, ``branches[j]`` is the stack without layer j:
    it takes X^(j-1) at layer j and steps with each later layer, read
    once for all stacks, until it turns non-finite and the error takes
    its place."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape != (G.n, config.input_dim):
        raise ValueError(
            f"input of shape {X.shape} does not match "
            f"(n={G.n}, input_dim={config.input_dim})"
        )
    for j in branches:
        if not 1 <= j <= config.depth:
            raise ValueError(f"pruned layer must lie in [1, {config.depth}], got {j}")
    for k in range(len(params.layers) + 1):
        mult = None
        if k == 0:
            X = np.maximum(X @ params.encoder_w1, 0.0) @ params.encoder_w2
        else:
            layer = params.layers[k - 1]
            for j, Xj in branches.items():
                if j < k and isinstance(Xj, np.ndarray):
                    Xj = layer_step(Xj, layer, config, G)[0]
                    branches[j] = Xj if np.all(np.isfinite(Xj)) else NonFiniteLayerError(k)
            if k in branches:
                branches[k] = X
            X, mult = layer_step(X, layer, config, G)
        if not np.all(np.isfinite(X)):
            raise NonFiniteLayerError(k)
        yield X, mult


def _decode(params: ModelParams, X: np.ndarray) -> np.ndarray:
    return X @ params.decoder_w
