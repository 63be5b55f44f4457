"""Shared fixtures, independent dense oracles and a memory probe for the
test suite.

The oracles here rebuild every operator with dense matrices, from the raw
edge list or from a built graph's CSR arrays, and never call into the
package's sparse kernels, so agreement is meaningful.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import eigh

from graphenergy.dynamics import FlowTrajectory
from graphenergy.graph import WeightedGraph, build_weighted_graph
from graphenergy.network import ModelParams, forward_trajectory

P3_EDGES = [(0, 1, 1.0), (1, 2, 1.0)]


@pytest.fixture
def p3() -> WeightedGraph:
    """Unit-weight path on three vertices, measure degree + 1 = [2, 3, 2]."""
    return build_weighted_graph(P3_EDGES)


def dense_weight_matrix(n: int, edges) -> np.ndarray:
    A = np.zeros((n, n))
    for i, j, w in edges:
        A[i, j] = w
        A[j, i] = w
    return A


def dense_laplacian_oracle(n: int, edges, measure) -> np.ndarray:
    """Dense Delta = diag(mu)^-1 (A - diag(row sums of A))."""
    A = dense_weight_matrix(n, edges)
    L = A - np.diag(A.sum(axis=1))
    return L / np.asarray(measure, dtype=float)[:, None]


def dense_graph_weights(G: WeightedGraph, max_nodes: int = 2000) -> np.ndarray:
    """Dense weight matrix read straight from a built graph's CSR arrays.
    Small-graph oracle; guarded."""
    if G.n > max_nodes:
        raise ValueError(
            f"dense operator requested for n={G.n}, guard is {max_nodes}"
        )
    A = np.zeros((G.n, G.n))
    A[np.repeat(np.arange(G.n), np.diff(G.indptr)), G.indices] = G.weights
    return A


def dense_laplacian(G: WeightedGraph, max_nodes: int = 2000) -> np.ndarray:
    """Dense Delta of a built graph. Small-graph oracle; guarded."""
    A = dense_graph_weights(G, max_nodes)
    return (A - np.diag(A.sum(axis=1))) / G.measure[:, None]


def dense_spectrum(G: WeightedGraph, max_nodes: int = 2000) -> np.ndarray:
    """Eigenvalues of ``-Delta`` in ascending order.

    Solved as the generalized symmetric problem ``(D - A) v = λ M v`` with
    ``M = diag(mu)``, which is the self-adjoint form of ``-Delta`` in the
    mu-weighted inner product; eigenvalues are real and nonnegative, and 0
    appears once per connected component.
    """
    A = dense_graph_weights(G, max_nodes)
    vals = eigh(np.diag(A.sum(axis=1)) - A, np.diag(G.measure), eigvals_only=True)
    return np.sort(vals)


def incidence_matrix(G: WeightedGraph) -> sparse.csr_matrix:
    """Signed incidence matrix ``B`` of a built graph, read from its CSR
    arrays: one row per edge ``i < j`` in the stored order of its
    ``i -> j`` copy, -1 in column ``i`` and +1 in column ``j``."""
    sources = np.repeat(np.arange(G.n), np.diff(G.indptr))
    upper = G.indices > sources
    ends = np.column_stack([sources[upper], G.indices[upper]])
    count = ends.shape[0]
    signs = np.tile([-1.0, 1.0], count)
    rows = np.arange(0, 2 * count + 1, 2)
    return sparse.csr_matrix((signs, ends.ravel(), rows), shape=(count, G.n))


def unit_row_gram(rows) -> np.ndarray:
    """Reference cosine matrix of unit-row states, as
    ``diagnostics.unit_rows`` returns them: entry (s, t), s <= t, is the
    mean row-by-row inner product ``einsum(rows[s], rows[t]) / n``. A None
    state gets a NaN row and column, and every other diagonal entry is
    exactly 1."""
    m = len(rows)
    sim = np.full((m, m), np.nan)
    for s in range(m):
        if rows[s] is None:
            continue
        for t in range(s, m):
            if rows[t] is None:
                continue
            value = float(np.einsum("ij,ij->", rows[s], rows[t]))
            sim[s, t] = sim[t, s] = value / rows[s].shape[0]
    defined = [k for k, U in enumerate(rows) if U is not None]
    sim[defined, defined] = 1.0  # exact, not just up to roundoff
    return sim


def neighbors(G: WeightedGraph, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted neighbor ids and matching weights of vertex ``i``."""
    lo, hi = G.indptr[i], G.indptr[i + 1]
    return G.indices[lo:hi], G.weights[lo:hi]


def relative_rate(traj: FlowTrajectory) -> tuple[np.ndarray, np.ndarray]:
    """Discrete ``(dE/dt) / E`` of a flow's Dirichlet series.

    Returns midpoint times and rates; the series must hold >= 2 records.
    """
    t, E = traj.times, traj.dirichlet
    if t.size < 2:
        raise ValueError("need at least two records for a rate")
    dE = np.diff(E) / np.diff(t)
    mid = 0.5 * (t[1:] + t[:-1])
    return mid, dE / (0.5 * (E[1:] + E[:-1]))


def grad_inner_oracle(n, edges, measure, X, Y) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float).T).T
    Y = np.atleast_2d(np.asarray(Y, dtype=float).T).T
    mu = np.asarray(measure, dtype=float)
    out = np.zeros(n)
    for i, j, w in edges:
        val = w * float((X[j] - X[i]) @ (Y[j] - Y[i]))
        out[i] += 0.5 * val / mu[i]
        out[j] += 0.5 * val / mu[j]
    return out


def energy_oracle(n, edges, measure, X, m: int) -> float:
    """Dense ``(1/n) ∫ |∇^m X|² dμ``: order 0 is the spread around the
    mu-weighted mean, even m squares ``(-Δ)^{m/2} X``, odd m takes the
    gradient product of ``(-Δ)^{(m-1)/2} X`` with itself."""
    X = np.atleast_2d(np.asarray(X, dtype=float).T).T
    mu = np.asarray(measure, dtype=float)
    if m == 0:
        mean = (mu @ X) / mu.sum()
        return float(mu @ ((X - mean) ** 2).sum(axis=1)) / n
    L = dense_laplacian_oracle(n, edges, mu)
    Z = X
    for _ in range(m // 2):
        Z = -L @ Z
    if m % 2 == 0:
        per_node = (Z**2).sum(axis=1)
    else:
        per_node = grad_inner_oracle(n, edges, mu, Z, Z)
    return float(mu @ per_node) / n


def random_connected_edges(rng: np.random.Generator, n: int):
    """Random spanning tree plus extra random chords, unit-free weights."""
    edges = set()
    order = rng.permutation(n)
    for k in range(1, n):
        a = int(order[rng.integers(0, k)])
        b = int(order[k])
        edges.add((min(a, b), max(a, b)))
    extra = int(rng.integers(0, max(n, 2)))
    for _ in range(extra):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            edges.add((min(int(a), int(b)), max(int(a), int(b))))
    return [(i, j, float(rng.uniform(0.2, 3.0))) for i, j in sorted(edges)]


def random_graph(rng: np.random.Generator, n: int, admissible: bool = False):
    """Connected random graph with random positive measure.

    With admissible=True the measure strictly dominates the incident
    weight sums, so aggregation is defined.
    """
    edges = random_connected_edges(rng, n)
    wsum = np.zeros(n)
    for i, j, w in edges:
        wsum[i] += w
        wsum[j] += w
    if admissible:
        measure = wsum + rng.uniform(0.05, 1.5, size=n)
    else:
        measure = rng.uniform(0.5, 4.0, size=n)
    G = build_weighted_graph(edges, measure=measure, n=n)
    return G, edges


def triu_sample(spec) -> tuple[WeightedGraph, int]:
    """Erdős–Rényi or SBM sample of ``spec`` drawn against all
    ``np.triu_indices`` pairs at once, and the number of draws it took.
    Test oracle only: its memory grows with n²."""
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "erdos-renyi":
        n = spec.size
        blocks = np.zeros(n, dtype=np.int64)
        prob_of = np.array([[spec.edge_prob]])
    else:
        n = int(sum(spec.block_sizes))
        blocks = np.repeat(np.arange(len(spec.block_sizes)), spec.block_sizes)
        prob_of = np.asarray(spec.block_probs, dtype=float)
    src, dst = np.triu_indices(n, k=1)
    pair_probs = prob_of[blocks[src], blocks[dst]]
    for draw in range(1, spec.max_retries + 1):
        keep = rng.random(src.size) < pair_probs
        if not keep.any():
            continue
        G = build_weighted_graph(np.column_stack([src[keep], dst[keep]]), n=n)
        if G.is_connected:
            return G, draw
    raise RuntimeError("no connected sample")


def lattice_loops(spec) -> WeightedGraph:
    """Path, ring or grid2d graph of ``spec``, built edge by edge in
    Python loops. Test oracle for the index-array construction."""
    if spec.kind == "path":
        n = spec.size
        return build_weighted_graph([(i, i + 1) for i in range(n - 1)], n=n)
    if spec.kind == "ring":
        n = spec.size
        return build_weighted_graph([(i, (i + 1) % n) for i in range(n)], n=n)
    rows, cols = spec.shape
    edges = []
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                edges.append((node, node + 1))
            if r + 1 < rows:
                edges.append((node, node + cols))
    return build_weighted_graph(edges, n=rows * cols)


def rk4_reference(G, X0, rhs, dt: float, horizon: float):
    """Classical fixed-step Runge-Kutta. Test oracle only.

    ``rhs`` maps a state to its derivative; returns (times, states) at
    every step.
    """
    X = np.atleast_2d(np.asarray(X0, dtype=float).T).T
    steps = int(np.ceil(horizon / dt))
    times, states = [0.0], [X.copy()]
    t = 0.0
    for _ in range(steps):
        k1 = rhs(X)
        k2 = rhs(X + 0.5 * dt * k1)
        k3 = rhs(X + 0.5 * dt * k2)
        k4 = rhs(X + dt * k3)
        X = X + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
        times.append(t)
        states.append(X.copy())
    return np.asarray(times), states


def collect(simulate, G, X0, spec):
    """Run a flow; return its trajectory and a copy of every recorded
    state, gathered through ``observe``."""
    states = []
    traj = simulate(G, X0, spec, observe=lambda t, X: states.append(X.copy()))
    return traj, states


def stack_states(params, config, G, X):
    """Run a stack; return its trajectory and every state X^0 .. X^L,
    gathered through ``observe``."""
    states = []
    traj = forward_trajectory(params, config, G, X,
                              observe=lambda k, state: states.append(state))
    return traj, states


def omitted_layer(params: ModelParams, k: int) -> ModelParams:
    """``params`` without layer k (1-based): the stack a prune scan steps
    beside the intact one, built without the scan's branch code."""
    return dataclasses.replace(
        params, layers=params.layers[:k - 1] + params.layers[k:])


# Bound on one layer's and one energy's temporaries, in n x d float64
# states: the FFN's n x 2d hidden layer before and after the rectifier is
# four states on its own. On a 3,000-node ring at d = 16 and depth 64 the
# peaks beyond parameters and kept states are 8.8 states for a sweep
# without cosine matrices and 7.8 for a prune scan.
STATE_TEMPORARIES = 12


def traced_peak(fn):
    """``fn()``'s result and the peak bytes allocated while it runs, numpy
    buffers included; memory allocated before the call does not count."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def nbytes(value) -> int:
    """Bytes of every array inside nested dataclasses and tuples."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if dataclasses.is_dataclass(value):
        return sum(nbytes(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return sum(nbytes(v) for v in value)
    return 0
