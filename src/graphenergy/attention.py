"""Attention scores on graph edges and the aggregation they induce.

Scores live on the undirected edges of a fixed topology plus its
diagonal, one score per edge. Three score rules are supported:

* uniform: every score is 1, which recovers plain neighborhood averaging
  after the softmax;
* additive: ``LeakyReLU(a^T [W X(i) | W X(j)])`` with a configurable
  negative slope;
* dot-product: ``<K X(i), Q X(j)> / sqrt(d_head)``.

Every rule is symmetrized by averaging its two orientations, and each
undirected edge is scored once: the additive rule averages its two
rectified orientations, and the dot-product average is the symmetric
bilinear form ``<X(i), X(j) S>`` with
``S = (K Q^T + Q K^T) / (2 sqrt(d_head))``. Scores given per direction
enter through :func:`symmetrize_scores`.

Symmetric scores ``e`` induce a weighted graph with ``w_ij = exp(e_ij)``
and ``mu_i = exp(e_ii) + sum_l exp(e_il)``, whose aggregation operator is
exactly the row-wise softmax over the closed neighborhood. That operator is
returned as a sparse matrix ``P`` on the graph's cached pattern of
``A + I``, built from row-max-shifted scores, so it stays finite for any
score magnitude.
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
# The dot-product rule scores the undirected edges in blocks whose row
# gathers stay within this many bytes each (4,096 edges at d = 32), so a
# layer's temporaries do not grow with E x d.
SCORE_BLOCK_BYTES = 1 << 20


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
        if not np.isfinite(self.leaky_slope):
            raise ValueError(f"leaky slope must be finite, got {self.leaky_slope!r}")


@dataclass(frozen=True)
class AttentionParams:
    """Learnable tensors for one head. Unused slots stay None."""

    weight: np.ndarray | None = None       # additive: feature map before scoring
    attn_vector: np.ndarray | None = None  # additive: scoring vector, length 2*d_head
    key: np.ndarray | None = None          # dot-product: K map
    query: np.ndarray | None = None        # dot-product: Q map


@dataclass(frozen=True, eq=False)
class EdgeScores:
    """One score per undirected edge of ``graph``, plus the diagonal.

    ``values[k]`` scores edge k of ``graph.edge_ends`` and stands for
    both of its directions.
    """

    graph: WeightedGraph
    values: np.ndarray
    diagonal: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != self.graph.edge_ends[0].shape:
            raise ValueError("edge score array does not match the edge list")
        if self.diagonal.shape != (self.graph.n,):
            raise ValueError("diagonal score array does not match n")


def attention_scores(
    kind: AttentionKind,
    params: AttentionParams,
    G: WeightedGraph,
    X: np.ndarray,
) -> EdgeScores:
    """Evaluate the symmetrized score rule once per undirected edge and on
    the diagonal."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != G.n:
        raise ValueError(f"feature matrix of shape {X.shape} does not match n={G.n}")
    i, j = G.edge_ends
    if kind.variant == VARIANT_UNIFORM:
        return EdgeScores(graph=G, values=np.ones(i.size), diagonal=np.ones(G.n))

    if kind.variant == VARIANT_ADDITIVE:
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
        slope = kind.leaky_slope
        edge = 0.5 * (
            _leaky_relu(s_src[i] + s_dst[j], slope)
            + _leaky_relu(s_src[j] + s_dst[i], slope)
        )
        diag = _leaky_relu(s_src + s_dst, slope)
    else:
        if params.key is None or params.query is None:
            raise ValueError("dot-product scores need 'key' and 'query'")
        key, query = np.asarray(params.key), np.asarray(params.query)
        if key.shape != query.shape:
            raise ValueError("key and query maps must share the head dimension")
        KQ = key @ query.T
        XS = X @ ((KQ + KQ.T) * (0.5 / np.sqrt(key.shape[1])))
        edge = np.empty(i.size)
        block = max(1, SCORE_BLOCK_BYTES // max(1, XS.shape[1] * XS.itemsize))
        for lo in range(0, i.size, block):
            hi = lo + block
            np.einsum("ed,ed->e", X[i[lo:hi]], XS[j[lo:hi]], out=edge[lo:hi])
        diag = np.einsum("nd,nd->n", X, XS)

    return EdgeScores(graph=G, values=edge, diagonal=diag)


def symmetrize_scores(
    graph: WeightedGraph, values: np.ndarray, diagonal: np.ndarray
) -> EdgeScores:
    """Scores from per-direction ``values``, aligned with ``graph.indices``:
    each undirected edge scores the average of its two directions."""
    values = np.asarray(values, dtype=float)
    if values.shape != graph.indices.shape:
        raise ValueError("per-direction score array does not match the edge list")
    average = 0.5 * (values + values[graph.reverse_edge_ids])
    upper = average[graph.indices > graph.edge_sources]
    return EdgeScores(graph=graph, values=upper, diagonal=diagonal)


def attention_weighted_graph(scores: EdgeScores) -> sparse.csr_matrix:
    """Turn scores into the softmax aggregation operator ``P``.

    Row-max shifted exponentials keep every entry finite regardless of
    score magnitude. ``P`` is laid out on ``scores.graph.closed_neighborhood``
    and shares its read-only index arrays; apply as ``P @ X``.
    """
    G = scores.graph
    values, diagonal = scores.values[G.undirected_edge_ids], scores.diagonal

    src = G.edge_sources
    row_max = diagonal.copy()
    mask = G.degrees > 0
    if values.size:
        row_peaks = np.maximum.reduceat(values, G.indptr[:-1][mask])
        row_max[mask] = np.maximum(row_max[mask], row_peaks)
    exp_off = np.exp(values - row_max[src])
    exp_diag = np.exp(diagonal - row_max)
    normalizers = exp_diag + _row_sums(G.indptr, exp_off)

    indptr, indices, order = G.closed_neighborhood
    data = np.concatenate([exp_off / normalizers[src], exp_diag / normalizers])[order]
    return sparse.csr_matrix((data, indices, indptr), shape=(G.n, G.n))


def _leaky_relu(z: np.ndarray, slope: float) -> np.ndarray:
    return np.where(z > 0, z, slope * z)
