"""Attention scores on graph edges and the aggregation they induce.

Scores live on the directed edges of a fixed topology plus its diagonal.
Three score rules are supported:

* uniform: every score is 1, which recovers plain neighborhood averaging
  after the softmax;
* additive: ``LeakyReLU(a^T [W X(i) | W X(j)])`` with a configurable
  negative slope;
* dot-product: ``<K X(i), Q X(j)> / sqrt(d_head)``.

Symmetrized scores ``e`` induce a weighted graph with ``w_ij = exp(e_ij)``
and ``mu_i = exp(e_ii) + sum_l exp(e_il)``, whose aggregation operator is
exactly the row-wise softmax over the closed neighborhood. That operator is
returned as a sparse matrix ``P`` built from row-max-shifted scores, so it
stays finite for any score magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from graphenergy.graph import WeightedGraph, _row_sums

VARIANT_UNIFORM = "gcn"
VARIANT_ADDITIVE = "gat"
VARIANT_DOT = "san"
SCORE_VARIANTS = (VARIANT_UNIFORM, VARIANT_ADDITIVE, VARIANT_DOT)


@dataclass(frozen=True)
class AttentionKind:
    """Score rule selector plus its scalar hyperparameters."""

    variant: str = VARIANT_DOT
    leaky_slope: float = 0.2

    def __post_init__(self) -> None:
        if self.variant not in SCORE_VARIANTS:
            raise ValueError(
                f"unknown attention variant {self.variant!r}; "
                f"expected one of {SCORE_VARIANTS}"
            )


@dataclass(frozen=True)
class AttentionParams:
    """Learnable tensors for one head. Unused slots stay None."""

    weight: np.ndarray | None = None       # additive: feature map before scoring
    attn_vector: np.ndarray | None = None  # additive: scoring vector, length 2*d_head
    key: np.ndarray | None = None          # dot-product: K map
    query: np.ndarray | None = None        # dot-product: Q map


@dataclass(frozen=True, eq=False)
class EdgeScores:
    """Scores for every stored directed edge of ``graph`` plus the diagonal.

    ``values`` is aligned with ``graph.indices``, so the graph's cached
    edge sources and reverse-edge ids index it directly.
    """

    graph: WeightedGraph
    values: np.ndarray
    diagonal: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != self.graph.indices.shape:
            raise ValueError("edge score array does not match the edge list")
        if self.diagonal.shape != (self.graph.n,):
            raise ValueError("diagonal score array does not match n")


def attention_scores(
    kind: AttentionKind,
    params: AttentionParams,
    G: WeightedGraph,
    X: np.ndarray,
) -> EdgeScores:
    """Evaluate the score rule on every directed edge and the diagonal."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != G.n:
        raise ValueError(f"feature matrix of shape {X.shape} does not match n={G.n}")
    src, dst = G.edge_sources, G.indices

    if kind.variant == VARIANT_UNIFORM:
        off = np.ones(src.size)
        diag = np.ones(G.n)
    elif kind.variant == VARIANT_ADDITIVE:
        if params.weight is None or params.attn_vector is None:
            raise ValueError("additive scores need 'weight' and 'attn_vector'")
        H = X @ params.weight
        a = np.asarray(params.attn_vector, dtype=float).reshape(-1)
        dh = H.shape[1]
        if a.size != 2 * dh:
            raise ValueError(
                f"attn_vector has length {a.size}, expected {2 * dh}"
            )
        s_src = H @ a[:dh]
        s_dst = H @ a[dh:]
        off = _leaky_relu(s_src[src] + s_dst[dst], kind.leaky_slope)
        diag = _leaky_relu(s_src + s_dst, kind.leaky_slope)
    else:
        if params.key is None or params.query is None:
            raise ValueError("dot-product scores need 'key' and 'query'")
        K = X @ params.key
        Q = X @ params.query
        if K.shape != Q.shape:
            raise ValueError("key and query maps must share the head dimension")
        scale = 1.0 / np.sqrt(K.shape[1])
        off = scale * np.einsum("ed,ed->e", K[src], Q[dst])
        diag = scale * np.einsum("nd,nd->n", K, Q)

    return EdgeScores(graph=G, values=off, diagonal=diag)


def symmetrize_scores(scores: EdgeScores) -> EdgeScores:
    """Average each off-diagonal score with its reverse. Idempotent."""
    rev = scores.graph.reverse_edge_ids
    values = 0.5 * (scores.values + scores.values[rev])
    return EdgeScores(graph=scores.graph, values=values, diagonal=scores.diagonal)


def attention_weighted_graph(scores: EdgeScores) -> sparse.csr_matrix:
    """Turn symmetric scores into the softmax aggregation operator ``P``.

    Rejects asymmetric scores. Row-max shifted exponentials keep every
    entry finite regardless of score magnitude; apply as ``P @ X``.
    """
    G = scores.graph
    rev = G.reverse_edge_ids
    scale = max(1.0, float(np.abs(scores.values).max()) if scores.values.size else 1.0)
    if scores.values.size and np.abs(scores.values - scores.values[rev]).max() > 1e-12 * scale:
        raise ValueError("scores must be symmetric; call symmetrize_scores first")

    n, indptr, src = G.n, G.indptr, G.edge_sources
    row_max = scores.diagonal.copy()
    mask = G.degrees > 0
    if scores.values.size:
        row_peaks = np.maximum.reduceat(scores.values, indptr[:-1][mask])
        row_max[mask] = np.maximum(row_max[mask], row_peaks)
    exp_off = np.exp(scores.values - row_max[src])
    exp_diag = np.exp(scores.diagonal - row_max)
    normalizers = exp_diag + _row_sums(G, exp_off)

    p_off = exp_off / normalizers[src]
    p_diag = exp_diag / normalizers
    operator = sparse.csr_matrix((p_off, G.indices, indptr), shape=(n, n))
    return operator + sparse.diags(p_diag, format="csr")


def _leaky_relu(z: np.ndarray, slope: float) -> np.ndarray:
    return np.where(z > 0, z, slope * z)
