"""Edge scores, symmetrization, and the induced softmax aggregation."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse

import graphenergy.attention as attention
from graphenergy.attention import (
    AttentionKind,
    AttentionParams,
    EdgeScores,
    attention_scores,
    attention_weighted_graph,
    symmetrize_scores,
)
from graphenergy.graph import aggregate_apply, build_weighted_graph
from graphenergy.ingest import SyntheticSpec, generate_graph

from conftest import random_graph, traced_peak


def _edge_value(scores, i, j):
    ends = list(zip(*(e.tolist() for e in scores.graph.edge_ends)))
    return scores.values[ends.index((min(i, j), max(i, j)))]


def per_direction(scores):
    """Each edge's score on both of its stored directions, aligned with
    ``graph.indices``, looked up by endpoints."""
    G = scores.graph
    src = np.repeat(np.arange(G.n), np.diff(G.indptr))
    return np.array([_edge_value(scores, int(a), int(b))
                     for a, b in zip(src, G.indices)], dtype=float)


def induced_graph_oracle(scores):
    """Weighted graph with ``w_ij = exp(e_ij)`` and
    ``mu_i = exp(e_ii) + sum_l exp(e_il)``; its aggregation operator is the
    closed-neighborhood softmax of symmetric scores ``e``."""
    G = scores.graph
    src, dst = np.repeat(np.arange(G.n), np.diff(G.indptr)), G.indices
    w = np.exp(per_direction(scores))
    mu = np.exp(scores.diagonal) + np.bincount(src, weights=w, minlength=G.n)
    upper = src < dst
    edges = np.column_stack([src[upper], dst[upper], w[upper]])
    return build_weighted_graph(edges, measure=mu, n=G.n)


class TestScores:
    def test_uniform_all_ones(self, p3):
        scores = attention_scores(AttentionKind("gcn"), AttentionParams(), p3,
                                  np.zeros((3, 2)))
        assert scores.graph is p3
        assert np.all(scores.values == 1.0)
        assert np.all(scores.diagonal == 1.0)

    def test_shape_mismatch_rejected(self, p3):
        with pytest.raises(ValueError, match="edge list"):
            EdgeScores(graph=p3, values=np.ones(3), diagonal=np.ones(3))
        with pytest.raises(ValueError, match="edge list"):  # one per direction
            EdgeScores(graph=p3, values=np.ones(4), diagonal=np.ones(3))
        with pytest.raises(ValueError, match="diagonal"):
            EdgeScores(graph=p3, values=np.ones(2), diagonal=np.ones(2))

    def test_additive_zero_vector_gives_zero(self, p3):
        rng = np.random.default_rng(0)
        params = AttentionParams(weight=rng.normal(size=(2, 4)),
                                 attn_vector=np.zeros(8))
        scores = attention_scores(AttentionKind("gat"), params, p3,
                                  rng.normal(size=(3, 2)))
        assert np.all(scores.values == 0.0)
        assert np.all(scores.diagonal == 0.0)

    def test_additive_leaky_slope(self, p3):
        # score before the rectifier is s(i) + s(j); make it negative
        params = AttentionParams(weight=np.array([[1.0]]),
                                 attn_vector=np.array([1.0, 1.0]))
        X = -np.ones((3, 1))
        scores = attention_scores(AttentionKind("gat", leaky_slope=0.2), params, p3, X)
        assert_allclose(scores.values, -0.4, rtol=1e-15)
        assert_allclose(scores.diagonal, -0.4, rtol=1e-15)

    def test_dot_product_identity_maps(self, p3):
        params = AttentionParams(key=np.eye(1), query=np.eye(1))
        X = np.array([[0.0], [1.0], [2.0]])
        scores = attention_scores(AttentionKind("san"), params, p3, X)
        assert _edge_value(scores, 0, 1) == 0.0
        assert _edge_value(scores, 1, 2) == 2.0
        assert scores.diagonal[1] == 1.0

    def test_dot_product_head_scaling(self):
        G = build_weighted_graph([(0, 1, 1.0)])
        d = 4
        params = AttentionParams(key=np.eye(d), query=np.eye(d))
        X = np.ones((2, d))
        scores = attention_scores(AttentionKind("san"), params, G, X)
        assert_allclose(scores.values, d / np.sqrt(d), rtol=1e-15)

    def test_missing_params_rejected(self, p3):
        with pytest.raises(ValueError, match="attn_vector"):
            attention_scores(AttentionKind("gat"), AttentionParams(), p3,
                             np.zeros((3, 2)))
        with pytest.raises(ValueError, match="key"):
            attention_scores(AttentionKind("san"), AttentionParams(), p3,
                             np.zeros((3, 2)))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            AttentionKind("transformer")


def _reverse_positions(G):
    """Stored position of each directed edge's reverse, from a dict."""
    src = np.repeat(np.arange(G.n), np.diff(G.indptr))
    where = {(int(a), int(b)): p for p, (a, b) in enumerate(zip(src, G.indices))}
    return np.array([where[(int(b), int(a))] for a, b in zip(src, G.indices)],
                    dtype=np.intp)


def averaged_directed_scores(kind, params, G, X):
    """Each rule on every directed edge, averaged with its reverse; one
    value per undirected edge, read from its ``i < j`` copy."""
    src = np.repeat(np.arange(G.n), np.diff(G.indptr))
    dst = G.indices
    if kind.variant == "gat":
        H = X @ params.weight
        dh = H.shape[1]
        s_src, s_dst = H @ params.attn_vector[:dh], H @ params.attn_vector[dh:]

        def rectify(z):
            return np.where(z > 0, z, kind.leaky_slope * z)

        off = rectify(s_src[src] + s_dst[dst])
        diag = rectify(s_src + s_dst)
    else:
        K, Q = X @ params.key, X @ params.query
        scale = 1.0 / np.sqrt(K.shape[1])
        off = scale * (K[src] * Q[dst]).sum(axis=1)
        diag = scale * (K * Q).sum(axis=1)
    return 0.5 * (off + off[_reverse_positions(G)])[src < dst], diag


def closed_softmax_oracle(scores):
    """Row-max-shifted softmax over each closed neighborhood, assembled as
    ``csr + sparse.diags`` with per-row loops."""
    G = scores.graph
    e, diag = per_direction(scores), scores.diagonal
    p_off = np.empty_like(e)
    p_diag = np.empty_like(diag)
    for i in range(G.n):
        lo, hi = G.indptr[i], G.indptr[i + 1]
        peak = max(diag[i], e[lo:hi].max()) if hi > lo else diag[i]
        exp_row = np.exp(e[lo:hi] - peak)
        exp_self = np.exp(diag[i] - peak)
        # reduceat, as the operator sums; ndarray.sum rounds differently
        row_sum = np.add.reduceat(exp_row, [0])[0] if hi > lo else 0.0
        total = exp_self + row_sum
        p_off[lo:hi] = exp_row / total
        p_diag[i] = exp_self / total
    off = sparse.csr_matrix((p_off, G.indices, G.indptr), shape=(G.n, G.n))
    return off + sparse.diags(p_diag, format="csr")


# Vertex 5 has no edges.
ISOLATED_EDGES = [(0, 1, 1.0), (1, 2, 0.5), (2, 4, 2.0), (0, 4, 1.0), (1, 4, 1.5),
                  (3, 4, 1.0)]


def _score_graphs():
    rng = np.random.default_rng(21)
    return [build_weighted_graph(ISOLATED_EDGES, n=6), random_graph(rng, 30)[0]]


class TestOnePassScores:
    @pytest.mark.parametrize("graph", range(2))
    @pytest.mark.parametrize("dims", [(8, 8), (8, 4), (32, 16)])
    def test_dot_product_matches_averaged_directed(self, graph, dims):
        G = _score_graphs()[graph]
        d, dh = dims
        rng = np.random.default_rng(d + dh + graph)
        params = AttentionParams(key=rng.normal(size=(d, dh)),
                                 query=rng.normal(size=(d, dh)))
        X = rng.normal(size=(G.n, d))
        kind = AttentionKind("san")
        scores = attention_scores(kind, params, G, X)
        values, diag = averaged_directed_scores(kind, params, G, X)
        assert_allclose(scores.values, values, rtol=0,
                        atol=1e-14 * np.abs(values).max())
        assert_allclose(scores.diagonal, diag, rtol=0,
                        atol=1e-14 * np.abs(diag).max())

    @pytest.mark.parametrize("graph", range(2))
    @pytest.mark.parametrize("slope", [0.2, 0.0, 1.7])
    def test_additive_bitwise_equal_to_averaged_directed(self, graph, slope):
        G = _score_graphs()[graph]
        rng = np.random.default_rng(graph)
        params = AttentionParams(weight=rng.normal(size=(6, 4)),
                                 attn_vector=rng.normal(size=8))
        X = rng.normal(size=(G.n, 6))
        kind = AttentionKind("gat", leaky_slope=slope)
        scores = attention_scores(kind, params, G, X)
        values, diag = averaged_directed_scores(kind, params, G, X)
        assert np.array_equal(scores.values, values)
        assert np.array_equal(scores.diagonal, diag)

    def test_key_query_shape_mismatch_rejected(self, p3):
        params = AttentionParams(key=np.ones((2, 2)), query=np.ones((2, 1)))
        with pytest.raises(ValueError, match="head dimension"):
            attention_scores(AttentionKind("san"), params, p3, np.ones((3, 2)))


def one_pass_dot_scores(params, G, X):
    """Dot-product scores with every undirected edge in one ``einsum``."""
    i, j = G.edge_ends
    KQ = params.key @ params.query.T
    XS = X @ ((KQ + KQ.T) * (0.5 / np.sqrt(params.key.shape[1])))
    edge = np.einsum("ed,ed->e", X[i], XS[j])
    return edge, np.einsum("nd,nd->n", X, XS)


def _graph_with_edges(count: int, n: int = 12):
    rng = np.random.default_rng(count)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = rng.choice(len(pairs), size=count, replace=False)
    return build_weighted_graph([pairs[k] for k in sorted(chosen)], n=n)


class TestScoreBlocks:
    """Dot-product scores are formed in blocks of undirected edges; the
    values must be bitwise those of one pass over every edge."""

    BLOCK = 8

    @pytest.mark.parametrize("edges", [0, 1, 5, 8, 16, 19])
    @pytest.mark.parametrize("d", [1, 6, 32])
    def test_blocked_scores_bitwise_equal_to_one_pass(self, monkeypatch, edges, d):
        monkeypatch.setattr(attention, "SCORE_BLOCK_BYTES", self.BLOCK * d * 8)
        G = _graph_with_edges(edges)
        rng = np.random.default_rng(d)
        params = AttentionParams(key=rng.normal(size=(d, max(1, d // 2))),
                                 query=rng.normal(size=(d, max(1, d // 2))))
        X = rng.normal(size=(G.n, d))
        scores = attention_scores(AttentionKind("san"), params, G, X)
        values, diag = one_pass_dot_scores(params, G, X)
        assert G.indices.size == 2 * edges
        assert scores.values.tobytes() == values.tobytes()
        assert scores.diagonal.tobytes() == diag.tobytes()

    def test_budget_below_one_row_scores_one_edge_per_block(self, monkeypatch):
        # a budget below one row still scores one edge per block
        monkeypatch.setattr(attention, "SCORE_BLOCK_BYTES", 1)
        G = _graph_with_edges(7)
        rng = np.random.default_rng(3)
        params = AttentionParams(key=rng.normal(size=(4, 2)),
                                 query=rng.normal(size=(4, 2)))
        X = rng.normal(size=(G.n, 4))
        scores = attention_scores(AttentionKind("san"), params, G, X)
        assert scores.values.tobytes() == one_pass_dot_scores(params, G, X)[0].tobytes()

    def test_dense_graph_scores_in_bounded_memory(self):
        """ER with mean degree 40 on 2,000 nodes at d = 32: one n x d state
        is 512 KB and E/n = 20. Scoring may hold ``XS``, the two 1 MiB
        block gathers (4 states here) and the length-E/2 score array
        (0.6 states): 8 states. Gathering every edge at once takes two
        E x d arrays, 40 states."""
        n, d = 2000, 32
        G = generate_graph(
            SyntheticSpec(kind="erdos-renyi", size=n, edge_prob=40 / (n - 1))
        )
        G.undirected_edge_ids  # cached graph arrays are not the call's
        rng = np.random.default_rng(0)
        params = AttentionParams(key=rng.normal(size=(d, d)),
                                 query=rng.normal(size=(d, d)))
        X = rng.normal(size=(n, d))
        scores, peak = traced_peak(
            lambda: attention_scores(AttentionKind("san"), params, G, X)
        )
        assert G.indices.size > 35 * n
        assert scores.values.tobytes() == one_pass_dot_scores(params, G, X)[0].tobytes()
        assert peak < 8 * n * d * 8, peak / (n * d * 8)


class TestClosedOperator:
    @staticmethod
    def _assert_matches_oracle(scores, X):
        P = attention_weighted_graph(scores)
        oracle = closed_softmax_oracle(scores)
        assert np.array_equal(P.indptr, oracle.indptr)
        assert np.array_equal(P.indices, oracle.indices)
        assert np.array_equal(P.data, oracle.data)
        assert np.array_equal(P @ X, oracle @ X)

    @pytest.mark.parametrize("graph", range(2))
    def test_bitwise_equal_to_csr_plus_diags(self, graph):
        G = _score_graphs()[graph]
        rng = np.random.default_rng(30 + graph)
        scores = attention_scores(
            AttentionKind("san"),
            AttentionParams(key=rng.normal(size=(4, 4)), query=rng.normal(size=(4, 4))),
            G, rng.normal(size=(G.n, 4)))
        self._assert_matches_oracle(scores, rng.normal(size=(G.n, 5)))

    def test_huge_scores(self):
        G = _score_graphs()[1]
        rng = np.random.default_rng(32)
        scores = EdgeScores(graph=G,
                            values=rng.choice([-80.0, 80.0], size=G.indices.size // 2),
                            diagonal=rng.choice([-80.0, 80.0], size=G.n))
        self._assert_matches_oracle(scores, rng.normal(size=(G.n, 3)))

    def test_empty_row(self):
        G = _score_graphs()[0]
        rng = np.random.default_rng(33)
        base = attention_scores(AttentionKind("gcn"), AttentionParams(), G,
                                np.zeros((G.n, 1)))
        scores = EdgeScores(graph=G, values=3.0 * base.values,
                            diagonal=rng.normal(size=G.n))
        self._assert_matches_oracle(scores, rng.normal(size=(G.n, 3)))
        assert attention_weighted_graph(scores)[5].toarray().tolist() == [
            [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]]

    def test_edgeless_graph(self):
        G = build_weighted_graph([], n=4)
        rng = np.random.default_rng(34)
        scores = attention_scores(
            AttentionKind("san"),
            AttentionParams(key=rng.normal(size=(3, 3)), query=rng.normal(size=(3, 3))),
            G, rng.normal(size=(4, 3)))
        X = rng.normal(size=(4, 2))
        self._assert_matches_oracle(scores, X)
        assert np.array_equal(attention_weighted_graph(scores) @ X, X)

    def test_pattern_is_shared_and_read_only(self, p3):
        scores = attention_scores(AttentionKind("gcn"), AttentionParams(), p3,
                                  np.zeros((3, 1)))
        first, second = attention_weighted_graph(scores), attention_weighted_graph(scores)
        assert np.shares_memory(first.indices, second.indices)
        assert not first.indices.flags.writeable
        assert not np.shares_memory(first.data, second.data)


class TestSymmetrize:
    def test_averages_pairs(self, p3):
        # edge (0,1) gets 0, edge (1,0) gets 2; edge (1,2) gets 1 both ways
        src = np.repeat(np.arange(3), np.diff(p3.indptr))
        values = np.ones(p3.indices.size)
        for k, (i, j) in enumerate(zip(src, p3.indices)):
            if (i, j) == (0, 1):
                values[k] = 0.0
            elif (i, j) == (1, 0):
                values[k] = 2.0
        sym = symmetrize_scores(p3, values, np.zeros(3))
        assert sym.values.tolist() == [1.0, 1.0]
        assert _edge_value(sym, 0, 1) == 1.0

    def test_idempotent_exact(self):
        rng = np.random.default_rng(5)
        G, _ = random_graph(rng, 12)
        once = symmetrize_scores(G, rng.normal(size=G.indices.size),
                                 rng.normal(size=G.n))
        twice = symmetrize_scores(G, per_direction(once), once.diagonal)
        assert np.array_equal(once.values, twice.values)

    def test_shared_key_query_already_symmetric(self, p3):
        # K = Q makes raw dot-product scores symmetric up to roundoff
        rng = np.random.default_rng(6)
        K = rng.normal(size=(2, 2))
        X = rng.normal(size=(3, 2))
        scores = attention_scores(AttentionKind("san"),
                                  AttentionParams(key=K, query=K), p3, X)
        src = np.repeat(np.arange(3), np.diff(p3.indptr))
        KX = X @ K
        raw = (KX[src] * KX[p3.indices]).sum(axis=1) / np.sqrt(2)
        sym = symmetrize_scores(p3, raw, scores.diagonal)
        assert_allclose(sym.values, scores.values, rtol=0, atol=1e-15)

    def test_shape_mismatch_rejected(self, p3):
        with pytest.raises(ValueError, match="per-direction"):
            symmetrize_scores(p3, np.ones(2), np.ones(3))


class TestInducedAggregation:
    def test_uniform_scores_uniform_rows(self, p3):
        scores = attention_scores(AttentionKind("gcn"), AttentionParams(), p3,
                                  np.zeros((3, 1)))
        P = attention_weighted_graph(scores) @ np.eye(3)
        assert_allclose(P[0], [0.5, 0.5, 0.0], rtol=1e-14)
        assert_allclose(P[1], [1 / 3, 1 / 3, 1 / 3], rtol=1e-14)

    def test_softmax_example(self, p3):
        # node 0: diagonal score 0, edge score 1 -> P_01 = e/(1+e)
        base = attention_scores(AttentionKind("gcn"), AttentionParams(), p3,
                                np.zeros((3, 1)))
        scores = EdgeScores(graph=p3, values=np.ones_like(base.values),
                            diagonal=np.zeros(3))
        P = attention_weighted_graph(scores) @ np.eye(3)
        e = np.e
        assert_allclose(P[0, 1], e / (1 + e), rtol=1e-14)
        assert_allclose(P[0, 0], 1 / (1 + e), rtol=1e-14)
        assert_allclose(P[0, 1], 0.731, atol=5e-4)

    def test_rows_stochastic_and_positive(self):
        rng = np.random.default_rng(9)
        G, _ = random_graph(rng, 25)
        scores = attention_scores(
            AttentionKind("san"),
            AttentionParams(key=rng.normal(size=(4, 4)), query=rng.normal(size=(4, 4))),
            G,
            rng.normal(size=(25, 4)),
        )
        P = attention_weighted_graph(scores) @ np.eye(25)
        assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
        assert P.min() >= 0.0
        assert np.all(P[np.arange(25), np.arange(25)] > 0.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(10)
        G, _ = random_graph(rng, 14)
        scores = attention_scores(
            AttentionKind("san"),
            AttentionParams(key=rng.normal(size=(3, 3)), query=rng.normal(size=(3, 3))),
            G, rng.normal(size=(14, 3)))
        shifted = EdgeScores(graph=G, values=scores.values + 37.0,
                             diagonal=scores.diagonal + 37.0)
        X = rng.normal(size=(14, 5))
        base = attention_weighted_graph(scores) @ X
        moved = attention_weighted_graph(shifted) @ X
        assert_allclose(moved, base, rtol=0, atol=1e-12 * np.abs(base).max())

    def test_graph_view_matches_applier(self):
        rng = np.random.default_rng(11)
        G, _ = random_graph(rng, 10)
        scores = attention_scores(
            AttentionKind("san"),
            AttentionParams(key=0.3 * rng.normal(size=(3, 3)),
                            query=0.3 * rng.normal(size=(3, 3))),
            G, rng.normal(size=(10, 3)))
        induced = induced_graph_oracle(scores)
        assert induced.aggregation_admissible
        X = rng.normal(size=(10, 4))
        assert_allclose(
            aggregate_apply(induced, X),
            attention_weighted_graph(scores) @ X,
            rtol=0,
            atol=1e-12 * np.abs(X).max(),
        )

    def test_huge_scores_stay_finite(self, p3):
        base = attention_scores(AttentionKind("gcn"), AttentionParams(), p3,
                                np.zeros((3, 1)))
        hot = EdgeScores(graph=p3, values=base.values * 80.0,
                         diagonal=base.diagonal * 80.0)
        out = attention_weighted_graph(hot) @ np.eye(3)
        assert np.all(np.isfinite(out))
        assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_constant_features_give_equal_rows(self, p3):
        rng = np.random.default_rng(12)
        scores = attention_scores(
            AttentionKind("san"),
            AttentionParams(key=rng.normal(size=(2, 2)), query=rng.normal(size=(2, 2))),
            p3, np.ones((3, 2)) * 1.7)
        X = np.ones((3, 4)) * 2.2
        out = attention_weighted_graph(scores) @ X
        assert_allclose(out, X, rtol=0, atol=1e-12)
