"""Graph construction and discrete calculus.

Frozen expected values were computed by hand or by the dense oracles in
conftest before the sparse kernels existed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from graphenergy import graph
from graphenergy.graph import (
    EdgeEntryError,
    WeightedGraph,
    _edge_differences,
    _squared_row_norms,
    aggregate_apply,
    build_weighted_graph,
    canonical_energy_graph,
    derivative_energy,
    grad_inner_product,
    integrate,
    laplacian_apply,
)

from graphenergy.ingest import SyntheticSpec, generate_graph

from conftest import (
    P3_EDGES,
    dense_laplacian,
    dense_laplacian_oracle,
    dense_spectrum,
    energy_oracle,
    grad_inner_oracle,
    incidence_matrix,
    neighbors,
    random_graph,
    traced_peak,
)

REL_TOL = 1e-12

# Vertices 4 and 5 have no edges.
ISOLATED_EDGES = [(0, 1, 0.5), (1, 2, 2.0), (0, 3, 1.5)]


class TestConstruction:
    def test_p3_default_measure(self, p3):
        assert p3.n == 3
        assert_allclose(p3.measure, [2.0, 3.0, 2.0])
        assert p3.is_connected
        assert p3.aggregation_admissible

    def test_p3_neighbor_lists(self, p3):
        ids, w = neighbors(p3, 1)
        assert ids.tolist() == [0, 2]
        assert w.tolist() == [1.0, 1.0]
        ids0, _ = neighbors(p3, 0)
        assert ids0.tolist() == [1]

    def test_single_vertex(self):
        G = build_weighted_graph([], n=1)
        assert G.n == 1
        assert G.is_connected
        assert_allclose(G.measure, [1.0])
        assert G.indices.size == 0

    def test_both_orientations_collapse(self):
        G = build_weighted_graph([(0, 1, 2.0), (1, 0, 2.0)])
        assert G.indices.size == 2
        _, w = neighbors(G, 0)
        assert w.tolist() == [2.0]

    def test_exact_duplicates_dedupe(self):
        G = build_weighted_graph([(0, 1, 1.0), (0, 1, 1.0), (1, 2, 1.0)])
        assert G.indices.size == 4

    def test_conflicting_duplicate_rejected(self):
        with pytest.raises(ValueError, match="conflicting"):
            build_weighted_graph([(0, 1, 1.0), (1, 0, 2.0)])
        # the refusal names the later entry, then the earlier one
        with pytest.raises(EdgeEntryError, match=r"^entry 3: edge \(1, 2\) has "
                           r"weight 2\.0, but entry 1 gave it the conflicting") as info:
            build_weighted_graph([(0, 1), (2, 1), (1, 3), (1, 2, 2.0)])
        assert info.value.entries == (3, 1)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            build_weighted_graph([(0, 0, 1.0), (0, 1, 1.0)])
        with pytest.raises(EdgeEntryError, match=r"^entry 1: self-loop") as info:
            build_weighted_graph([(0, 1, 1.0), (2, 2, 1.0), (3, 3, 1.0)])
        assert info.value.entries == (1,)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            build_weighted_graph([(0, 1, 0.0)])
        with pytest.raises(ValueError, match="positive"):
            build_weighted_graph([(0, 1, -2.0)])
        for w in (np.nan, np.inf):
            with pytest.raises(EdgeEntryError, match=rf"^entry 1: edge \(1, 2\) has "
                               rf"weight {w}; edge weights must be finite") as info:
                build_weighted_graph([(0, 1, 1.0), (1, 2, w)])
            assert info.value.entries == (1,)

    def test_out_of_range_endpoint(self):
        with pytest.raises(ValueError, match="out of range"):
            build_weighted_graph([(0, 5, 1.0)], n=3)
        with pytest.raises(EdgeEntryError, match=r"^entry 1: edge \(-1, 2\) has "
                           "a negative node index") as info:
            build_weighted_graph(np.array([[0, 1], [-1, 2]]), n=3)
        assert info.value.entries == (1,)

    def test_bad_measure(self):
        with pytest.raises(ValueError, match="positive"):
            build_weighted_graph(P3_EDGES, measure=[1.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="length"):
            build_weighted_graph(P3_EDGES, measure=[1.0, 1.0], n=3)
        # without explicit n the too-short measure surfaces as a range error
        with pytest.raises(ValueError, match="out of range"):
            build_weighted_graph(P3_EDGES, measure=[1.0, 1.0])

    def test_integer_and_float_arrays_build_the_same_graph(self):
        rng = np.random.default_rng(40)
        pairs = rng.integers(0, 50, size=(400, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        pairs = np.concatenate([pairs, pairs[:30, ::-1]])  # both orientations
        weights = 1 + pairs.sum(axis=1) % 3  # equal on repeats of an edge
        reference = build_weighted_graph(
            [(int(i), int(j), float(w)) for (i, j), w in zip(pairs, weights)], n=50)
        for arr in (np.column_stack([pairs, weights]),
                    np.column_stack([pairs, weights]).astype(np.uint16),
                    np.column_stack([pairs, weights]).astype(float)):
            G = build_weighted_graph(arr, n=50)
            for name in ("indptr", "indices", "weights", "measure"):
                a, b = getattr(G, name), getattr(reference, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_non_integer_float_endpoint_rejected(self):
        with pytest.raises(ValueError, match="endpoints must be integers"):
            build_weighted_graph(np.array([[0.0, 1.5], [1.0, 2.0]]))
        with pytest.raises(ValueError, match="endpoints must be integers"):
            build_weighted_graph(np.array([[0.0, np.nan]]))
        with pytest.raises(EdgeEntryError, match=r"^entry 2: node index inf ") as info:
            build_weighted_graph(np.array([[0.0, 1.0], [1.0, 2.0], [np.inf, 0.0]]))
        assert info.value.entries == (2,)

    def test_empty_edges_need_n(self):
        with pytest.raises(ValueError, match="vertex count"):
            build_weighted_graph([])

    def test_disconnected_flagged(self):
        G = build_weighted_graph([(0, 1, 1.0), (2, 3, 1.0)])
        assert not G.is_connected
        assert G.component_count == 2

    def test_arrays_frozen(self, p3):
        with pytest.raises(ValueError):
            p3.weights[0] = 5.0

    def test_weighted_degree_measure(self):
        G = build_weighted_graph([(0, 1, 0.5), (1, 2, 2.0)])
        assert_allclose(G.measure, [1.5, 3.5, 3.0])


class TestLaplacian:
    def test_p3_ramp(self, p3):
        out = laplacian_apply(p3, [0.0, 1.0, 2.0])
        assert_allclose(out, [0.5, 0.0, -0.5], rtol=0, atol=0)

    def test_p3_spike(self, p3):
        out = laplacian_apply(p3, [1.0, 0.0, 1.0])
        assert_allclose(out, [-0.5, 2.0 / 3.0, -0.5], rtol=REL_TOL)

    def test_constant_maps_to_exact_zero(self, p3):
        out = laplacian_apply(p3, np.full((3, 4), 3.7))
        assert np.all(out == 0.0)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        for n in (2, 5, 13, 40):
            G, edges = random_graph(rng, n)
            X = rng.normal(size=(n, 3))
            dense = dense_laplacian_oracle(n, edges, G.measure) @ X
            assert_allclose(laplacian_apply(G, X), dense, rtol=1e-12, atol=1e-12)

    def test_mu_mean_free(self):
        rng = np.random.default_rng(8)
        G, _ = random_graph(rng, 17)
        X = rng.normal(size=(17, 2))
        col_means = integrate(G, laplacian_apply(G, X))
        assert_allclose(col_means, 0.0, atol=1e-12 * np.abs(X).max())

    def test_shape_mismatch(self, p3):
        with pytest.raises(ValueError, match="does not match"):
            laplacian_apply(p3, [1.0, 2.0])

    def test_nonfinite_rejected(self, p3):
        with pytest.raises(ValueError, match="finite"):
            laplacian_apply(p3, [np.nan, 0.0, 0.0])


class TestAggregate:
    def test_p3_ramp(self, p3):
        assert_allclose(aggregate_apply(p3, [0.0, 1.0, 2.0]), [0.5, 1.0, 1.5])

    def test_single_vertex_identity(self):
        G = build_weighted_graph([], n=1)
        assert_allclose(aggregate_apply(G, [7.0]), [7.0])

    def test_constants_fixed_exactly(self, p3):
        out = aggregate_apply(p3, np.full(3, 1.25))
        assert np.all(out == 1.25)

    def test_preserves_mu_mean(self):
        rng = np.random.default_rng(11)
        G, _ = random_graph(rng, 23, admissible=True)
        X = rng.normal(size=(23, 4))
        assert_allclose(
            integrate(G, aggregate_apply(G, X)),
            integrate(G, X),
            rtol=1e-12,
            atol=1e-12,
        )

    def test_inadmissible_rejected(self):
        # measure equal to the incident weight sum fails the strict bound
        G = build_weighted_graph([(0, 1, 1.0)], measure=[1.0, 1.0])
        assert not G.aggregation_admissible
        with pytest.raises(ValueError, match="aggregation"):
            aggregate_apply(G, [1.0, 2.0])


class TestIntegrate:
    def test_p3_ramp(self, p3):
        assert integrate(p3, [0.0, 1.0, 2.0]) == 7.0

    def test_columns(self, p3):
        X = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
        assert_allclose(integrate(p3, X), [7.0, 7.0])


class TestGradInner:
    def test_p3_ramp_pointwise(self, p3):
        out = grad_inner_product(p3, [0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
        assert_allclose(out, [0.25, 1.0 / 3.0, 0.25], rtol=REL_TOL)
        assert_allclose(integrate(p3, out), 2.0, rtol=REL_TOL)

    def test_constant_argument_kills_product(self, p3):
        out = grad_inner_product(p3, np.full(3, 4.0), [0.0, 5.0, -1.0])
        assert np.all(out == 0.0)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(21)
        for n in (3, 9, 31):
            G, edges = random_graph(rng, n)
            X = rng.normal(size=(n, 2))
            Y = rng.normal(size=(n, 2))
            oracle = grad_inner_oracle(n, edges, G.measure, X, Y)
            assert_allclose(grad_inner_product(G, X, Y), oracle, rtol=1e-12, atol=1e-12)

    def test_nonnegative_with_itself(self):
        rng = np.random.default_rng(22)
        G, _ = random_graph(rng, 15)
        X = rng.normal(size=(15, 5))
        assert grad_inner_product(G, X, X).min() >= 0.0


def _assert_kernels_match_oracles(G, edges, X, Y):
    n = G.n
    L = dense_laplacian_oracle(n, edges, G.measure)
    assert_allclose(laplacian_apply(G, X), L @ X, rtol=1e-12, atol=1e-12)
    assert_allclose(aggregate_apply(G, X), X + L @ X, rtol=1e-12, atol=1e-12)
    assert_allclose(
        grad_inner_product(G, X, Y),
        grad_inner_oracle(n, edges, G.measure, X, Y),
        rtol=1e-12,
        atol=1e-12,
    )
    for m in range(4):
        assert_allclose(
            derivative_energy(G, X, m),
            energy_oracle(n, edges, G.measure, X, m),
            rtol=1e-12,
            atol=1e-14,
        )


class TestKernelEdgeCases:
    @pytest.mark.parametrize(
        "n, edges", [(6, ISOLATED_EDGES), (4, [])], ids=["isolated", "edgeless"]
    )
    def test_vertices_without_edges(self, n, edges):
        rng = np.random.default_rng(41)
        G = build_weighted_graph(edges, n=n)
        X = rng.normal(size=(n, 3))
        Y = rng.normal(size=(n, 3))
        _assert_kernels_match_oracles(G, edges, X, Y)
        lonely = G.degrees == 0
        assert np.all(laplacian_apply(G, X)[lonely] == 0.0)
        assert np.all(grad_inner_product(G, X, Y)[lonely] == 0.0)

    @pytest.mark.parametrize("d", [1, 32])
    def test_weighted_feature_widths(self, d):
        rng = np.random.default_rng(43)
        G, edges = random_graph(rng, 30, admissible=True)
        X = rng.normal(size=(30, d))
        Y = rng.normal(size=(30, d))
        _assert_kernels_match_oracles(G, edges, X, Y)

    def test_large_ring_memory_is_linear(self):
        n, d = 100_000, 32
        ids = np.arange(n)
        ring = build_weighted_graph(np.column_stack([ids, (ids + 1) % n]), n=n)
        X = np.random.default_rng(44).normal(size=(n, d))
        out, peak = traced_peak(lambda: laplacian_apply(ring, X))
        edges = ring.indices.size // 2
        # the call holds the edge differences (edges x d) and the output
        # (n x d); twice their size leaves room for building the graph's
        # cached edge views on first use
        assert peak < 2 * (edges + n) * d * 8
        ring_laplacian = (np.roll(X, 1, axis=0) + np.roll(X, -1, axis=0) - 2 * X) / 3
        assert_allclose(out, ring_laplacian, rtol=1e-12, atol=1e-12)


class TestEdgePass:
    """The gathered edge differences and the column-wise row sums give the
    bits of the sparse product with the incidence oracle and of numpy's row
    sum, on both sides of ``PAIRWISE_WIDTH``."""

    WIDTHS = range(1, 13)

    @pytest.mark.parametrize("d", WIDTHS)
    def test_edge_differences_equal_incidence_product(self, d):
        rng = np.random.default_rng(45)
        G, _ = random_graph(rng, 40)
        X = rng.normal(size=(40, d)) * 10.0 ** rng.integers(-6, 6, size=(40, d))
        diffs = _edge_differences(G, X)
        assert diffs.dtype == np.float64 and diffs.flags.c_contiguous
        assert diffs.tobytes() == (incidence_matrix(G) @ X).tobytes()

    def test_edge_differences_split_into_blocks(self, monkeypatch):
        rng = np.random.default_rng(46)
        G, _ = random_graph(rng, 40)
        X = rng.normal(size=(40, 3))
        monkeypatch.setattr(graph, "EDGE_BLOCK_BYTES", 4 * 3 * 8)  # 4 edges
        assert G.edge_ends[0].size % 4 != 0
        B = incidence_matrix(G)
        assert _edge_differences(G, X).tobytes() == (B @ X).tobytes()

    @pytest.mark.parametrize("d", (1, 5, 32))
    def test_grad_inner_product_spreads_edges_as_incidence(self, d):
        # |B|^T in edge order: the bincount over B's interleaved endpoints
        rng = np.random.default_rng(48)
        G, _ = random_graph(rng, 40)
        X, Y = rng.normal(size=(2, 40, d))
        B = incidence_matrix(G)
        per_edge =G.edge_weights * np.einsum("ed,ed->e", B @ X, B @ Y)
        spread = np.bincount(B.indices, np.repeat(per_edge, 2), minlength=G.n)
        expected = 0.5 * spread / G.measure
        assert grad_inner_product(G, X, Y).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("d", WIDTHS)
    def test_squared_row_norms_equal_numpy_row_sum(self, d):
        rng = np.random.default_rng(47)
        A = rng.normal(size=(500, d)) * 10.0 ** rng.integers(-8, 8, size=(500, d))
        assert _squared_row_norms(A).tobytes() == (A**2).sum(axis=1).tobytes()

    def test_edgeless_graph(self):
        G = build_weighted_graph([], n=4)
        X = np.random.default_rng(48).normal(size=(4, 3))
        diffs = _edge_differences(G, X)
        assert diffs.shape == (0, 3)
        assert _squared_row_norms(diffs).shape == (0,)
        assert derivative_energy(G, X, 1) == 0.0
        assert np.all(laplacian_apply(G, X) == 0.0)

    def test_wide_rows_hold_one_edge_array(self):
        # The X(j) gather is the output; the X(i) rows come in blocks of at
        # most EDGE_BLOCK_BYTES, so no second E x d array is held.
        n, d = 100_000, 32
        ring = generate_graph(SyntheticSpec(kind="ring", size=n))
        ring.edge_ends  # built before the measurement
        X = np.random.default_rng(49).normal(size=(n, d))
        diffs, peak = traced_peak(lambda: _edge_differences(ring, X))
        assert peak < diffs.nbytes + graph.EDGE_BLOCK_BYTES + 64 * 1024


def _ibp_defect(G, X, Y):
    lhs = integrate(G, -laplacian_apply(G, X) * Y if X.ndim == 1 else
                    (-laplacian_apply(G, X) * Y).sum(axis=1))
    rhs = integrate(G, grad_inner_product(G, X, Y))
    return lhs, rhs


class TestIntegrationByParts:
    def test_p3(self, p3):
        X = np.array([0.0, 1.0, 2.0])
        lhs, rhs = _ibp_defect(p3, X, X)
        assert_allclose(lhs, 2.0, rtol=REL_TOL)
        assert_allclose(lhs, rhs, rtol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 24))
    def test_random(self, seed, n):
        rng = np.random.default_rng(seed)
        G, _ = random_graph(rng, n)
        X = rng.normal(size=(n, 3))
        Y = rng.normal(size=(n, 3))
        lhs, rhs = _ibp_defect(G, X, Y)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


class TestDerivativeEnergy:
    def test_p3_orders(self, p3):
        X = [0.0, 1.0, 2.0]
        assert_allclose(derivative_energy(p3, X, 1), 2.0 / 3.0, rtol=REL_TOL)
        assert_allclose(derivative_energy(p3, X, 2), 1.0 / 3.0, rtol=REL_TOL)

    def test_constants_zero_all_orders(self, p3):
        X = np.full((3, 2), 2.5)
        for m in range(5):
            assert derivative_energy(p3, X, m) == 0.0

    def test_order_zero_centers(self, p3):
        X = np.array([1.0, 2.0, 3.0])
        # mu-weighted mean is 2; residual [-1, 0, 1]
        assert_allclose(derivative_energy(p3, X, 0), (2.0 + 0.0 + 2.0) / 3.0 / 1.0,
                        rtol=REL_TOL)
        assert_allclose(
            derivative_energy(p3, X + 10.0, 0),
            derivative_energy(p3, X, 0),
            rtol=REL_TOL,
        )

    def test_zero_iff_constant_per_component(self):
        G = build_weighted_graph([(0, 1, 1.0), (2, 3, 1.0)])
        X = np.array([2.0, 2.0, -1.0, -1.0])
        for m in range(1, 5):
            assert derivative_energy(G, X, m) == 0.0
        X[3] = 5.0
        for m in range(1, 5):
            assert derivative_energy(G, X, m) > 1e-8

    def test_nonconstant_positive_connected(self):
        rng = np.random.default_rng(33)
        G, _ = random_graph(rng, 12)
        X = rng.normal(size=12)
        for m in range(5):
            assert derivative_energy(G, X, m) > 0.0

    def test_sqrt_subadditive(self):
        rng = np.random.default_rng(34)
        G, _ = random_graph(rng, 14)
        X = rng.normal(size=(14, 3))
        Y = rng.normal(size=(14, 3))
        for m in range(4):
            a = np.sqrt(derivative_energy(G, X, m))
            b = np.sqrt(derivative_energy(G, Y, m))
            c = np.sqrt(derivative_energy(G, X + Y, m))
            assert c <= a + b + 1e-12

    def test_bad_order(self, p3):
        with pytest.raises(ValueError, match="order"):
            derivative_energy(p3, [0.0, 1.0, 2.0], -1)
        with pytest.raises(ValueError, match="order"):
            derivative_energy(p3, [0.0, 1.0, 2.0], 1.5)


class TestEnergyEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(3, 20))
    def test_sandwich(self, seed, n):
        rng = np.random.default_rng(seed)
        G, _ = random_graph(rng, n)
        spectrum = dense_spectrum(G)
        lam2, lam_max = spectrum[1], spectrum[-1]
        X = rng.normal(size=(n, 2))
        e1 = derivative_energy(G, X, 1)
        e2 = derivative_energy(G, X, 2)
        slack = 1e-9 * max(1.0, e2)
        assert lam2 * e1 <= e2 + slack
        assert e2 <= lam_max * e1 + slack


class TestCanonicalGraph:
    def test_p3_weighted_input(self):
        G = build_weighted_graph([(0, 1, 0.3), (1, 2, 7.0)], measure=[9.0, 9.0, 9.0])
        C = canonical_energy_graph(G)
        assert np.all(C.weights == 1.0)
        assert_allclose(C.measure, [2.0, 3.0, 2.0])
        assert C.aggregation_admissible

    def test_isolated_vertex_measure_one(self):
        G = build_weighted_graph([(0, 1, 2.0)], n=3)
        C = canonical_energy_graph(G)
        assert_allclose(C.measure, [2.0, 2.0, 1.0])

    def test_idempotent(self, p3):
        C = canonical_energy_graph(p3)
        CC = canonical_energy_graph(C)
        assert_allclose(CC.measure, C.measure)
        assert np.array_equal(CC.indices, C.indices)

    def test_canonical_graph_is_returned_itself(self, p3):
        assert canonical_energy_graph(p3) is p3
        heavier = build_weighted_graph(P3_EDGES, measure=[2.0, 3.0, 2.5])
        C = canonical_energy_graph(heavier)
        assert C is not heavier
        assert_allclose(C.measure, [2.0, 3.0, 2.0])


class TestDenseSpectrum:
    def test_p3_values(self, p3):
        assert_allclose(dense_spectrum(p3), [0.0, 0.5, 7.0 / 6.0], atol=1e-12)

    def test_p3_charpoly_oracle(self, p3):
        # roots of det(lambda I - (-Delta)) from the dense matrix
        M = -dense_laplacian(p3)
        coeffs = np.poly(M)
        roots = np.sort(np.roots(coeffs).real)
        assert_allclose(np.sort(dense_spectrum(p3)), roots, atol=1e-10)

    def test_single_vertex(self):
        G = build_weighted_graph([], n=1)
        assert_allclose(dense_spectrum(G), [0.0])

    def test_zero_multiplicity_counts_components(self):
        G = build_weighted_graph([(0, 1, 1.0), (2, 3, 1.0), (4, 5, 1.0)])
        vals = dense_spectrum(G)
        assert (np.abs(vals) < 1e-10).sum() == 3

    def test_nonnegative_random(self):
        rng = np.random.default_rng(55)
        G, _ = random_graph(rng, 20)
        vals = dense_spectrum(G)
        assert vals.min() > -1e-10

    def test_admissible_bounded_by_two(self):
        rng = np.random.default_rng(56)
        for _ in range(5):
            G, _ = random_graph(rng, 12, admissible=True)
            assert dense_spectrum(G).max() <= 2.0 + 1e-10

    def test_guard(self):
        n = 2100
        edges = [(i, i + 1, 1.0) for i in range(n - 1)]
        G = build_weighted_graph(edges)
        with pytest.raises(ValueError, match="guard"):
            dense_spectrum(G)
        with pytest.raises(ValueError, match="guard"):
            dense_laplacian(G)


class TestDenseLaplacianHelper:
    def test_matches_conftest_oracle(self):
        rng = np.random.default_rng(60)
        G, edges = random_graph(rng, 9)
        assert_allclose(
            dense_laplacian(G),
            dense_laplacian_oracle(9, edges, G.measure),
            rtol=1e-14,
            atol=1e-14,
        )
