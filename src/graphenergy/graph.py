"""Weighted graphs and their discrete calculus.

A graph here is an undirected topology with strictly positive symmetric
edge weights ``w`` and a strictly positive vertex measure ``mu``. Those two
ingredients define every operator in this module:

.. math::

    (\\Delta X)(i) = \\sum_{j \\sim i} \\frac{w_{ij}}{\\mu_i} (X(j) - X(i))

    (P X)(i) = X(i) + (\\Delta X)(i)

    \\int X \\, d\\mu = \\sum_i X(i) \\mu_i

    (\\nabla X \\cdot \\nabla Y)(i)
        = \\frac{1}{2} \\sum_{j \\sim i} \\frac{w_{ij}}{\\mu_i}
          \\langle X(j) - X(i), Y(j) - Y(i) \\rangle

The 1/2 in the gradient product is what makes integration by parts exact:
``∫ -ΔX · Y dμ = ∫ ∇X·∇Y dμ``. The aggregation operator ``P`` is only
defined when every vertex satisfies ``sum_j w_ij < mu_i``; rows of ``P``
are then convex combinations, so constants are fixed points.

Every kernel works on edge differences ``BX``, where ``B`` is the signed
incidence matrix (E x n, one row per edge ``i < j``: -1 at ``i``, +1 at
``j``) and ``w`` the edge weights: ``ΔX = -M⁻¹ Bᵀ (w ⊙ BX)`` and
``∇X·∇Y = ½ M⁻¹ |B|ᵀ (w ⊙ ⟨BX, BY⟩)`` with ``M = diag(mu)``. ``BX`` is
formed by gathering the rows ``X(j)`` and ``X(i)`` of every edge, which
gives the bits of the sparse product, and ``-Bᵀ W`` is cached on the
graph. One ``BX`` serves both ``ΔX`` and the order-1 energy, so a flow
state takes a single edge pass. A difference of equal floats is exactly
zero, so constants map to exact zeros; the algebraically equal
``AX - DX`` would leave roundoff residue on them. Peak memory of a kernel
call is a few E x d arrays.

Feature matrices are plain numpy arrays of shape ``(n,)`` or ``(n, d)``.
Storage is sorted compressed neighbor lists (CSR triple plus the measure).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

DEGREE_PLUS_ONE = "degree-plus-one"
# The X(i) rows of the edge differences are gathered in blocks of at most
# this many bytes, so a call holds one E x d array and not two.
EDGE_BLOCK_BYTES = 1 << 17
# numpy's sum(axis=1) adds a row of fewer than this many entries left to
# right, one inner loop per row, and longer rows pairwise. Below it,
# adding whole columns in order gives the same bits in one pass per
# column.
PAIRWISE_WIDTH = 8


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Undirected weighted graph with a vertex measure.

    Fields are frozen and the arrays are marked read-only; derived views
    are cached on first use. ``indptr``/``indices``/``weights`` hold both
    directions of every undirected edge with neighbor lists sorted.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    measure: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.indptr, self.indices, self.weights, self.measure):
            arr.setflags(write=False)

    def __repr__(self) -> str:
        return (
            f"WeightedGraph(n={self.n}, edges={self.indices.size // 2}, "
            f"connected={self.is_connected})"
        )

    @cached_property
    def degrees(self) -> np.ndarray:
        """Neighbor counts (unweighted)."""
        return np.diff(self.indptr)

    @cached_property
    def edge_sources(self) -> np.ndarray:
        """Source vertex of every stored directed edge, aligned with indices."""
        return np.repeat(np.arange(self.n, dtype=self.indices.dtype), self.degrees)

    @cached_property
    def weight_row_sums(self) -> np.ndarray:
        """Per-vertex sum of incident edge weights."""
        return _row_sums(self.indptr, self.weights)

    @cached_property
    def aggregation_admissible(self) -> bool:
        """True when sum_j w_ij < mu_i holds strictly at every vertex."""
        return bool(np.all(self.weight_row_sums < self.measure))

    @cached_property
    def reverse_edge_ids(self) -> np.ndarray:
        """Position of the reversed copy of each stored directed edge."""
        return np.lexsort((self.edge_sources, self.indices))

    @cached_property
    def edge_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Endpoints ``(i, j)``, ``i < j``, of every undirected edge in the
        stored order of its ``i -> j`` copy; edge k is row k of the signed
        incidence matrix ``B``."""
        upper = self.indices > self.edge_sources
        return self.edge_sources[upper], self.indices[upper]

    @cached_property
    def undirected_edge_ids(self) -> np.ndarray:
        """Edge id (index into :attr:`edge_ends`) of every stored directed
        edge, so ``e[undirected_edge_ids]`` writes one value per undirected
        edge to both of its directions."""
        upper = self.indices > self.edge_sources
        ids = np.cumsum(upper) - 1
        return np.where(upper, ids, ids[self.reverse_edge_ids])

    @cached_property
    def closed_neighborhood(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sorted CSR pattern of ``A + I`` as read-only ``(indptr, indices,
        order)``: ``np.concatenate([per_edge, per_vertex])[order]`` lays one
        value per stored directed edge and one per vertex out on it."""
        rows = np.concatenate([self.edge_sources, np.arange(self.n)])
        cols = np.concatenate([self.indices, np.arange(self.n)])
        order = np.lexsort((cols, rows))
        # scipy picks its index dtype here once, so operators built on
        # these arrays reuse them without a cast
        pattern = sparse.csr_matrix(
            (np.empty(order.size), cols[order], self.indptr + np.arange(self.n + 1)),
            shape=(self.n, self.n),
        )
        for arr in (pattern.indptr, pattern.indices, order):
            arr.setflags(write=False)
        return pattern.indptr, pattern.indices, order

    @cached_property
    def divergence(self) -> sparse.csr_matrix:
        """``-Bᵀ W`` as CSR, with ``B`` the signed incidence matrix of
        :attr:`edge_ends` and ``W = diag(edge_weights)``, so
        ``ΔX = M⁻¹ (-Bᵀ W) BX``. Each row lists a vertex's edges in edge
        order, so a product sums them as ``B.T @ (-w ⊙ Y)`` does, with the
        same bits. The sign rides on the weights, so constants give +0.0
        rather than -0.0.

        Row ``v`` has one entry per stored edge ``v -> u``: its edges to
        lower ``u`` precede its own block of edges, so sorted neighbors
        are edges in edge order. The entry is ``w`` when ``v`` is the lower
        endpoint (``-(-1) w``) and ``-w`` when it is the higher one.
        """
        data = np.where(self.indices > self.edge_sources, self.weights, -self.weights)
        return sparse.csr_matrix(
            (data, self.undirected_edge_ids, self.indptr),
            shape=(self.n, self.edge_weights.size),
        )

    @cached_property
    def edge_weights(self) -> np.ndarray:
        """Weight of each edge of :attr:`edge_ends`."""
        return self.weights[self.indices > self.edge_sources]

    @cached_property
    def adjacency(self) -> sparse.csr_matrix:
        """Weight matrix as scipy CSR, sharing this graph's buffers."""
        return sparse.csr_matrix(
            (self.weights, self.indices, self.indptr), shape=(self.n, self.n)
        )

    @cached_property
    def component_count(self) -> int:
        return int(csgraph.connected_components(self.adjacency, directed=False)[0])

    @cached_property
    def is_connected(self) -> bool:
        return self.component_count == 1


class EdgeEntryError(ValueError):
    """An edge entry that :func:`build_weighted_graph` refuses. ``entries``
    holds its 0-based input position, then, for a weight conflict, that of
    an earlier entry with the other weight; ``reason`` calls the earlier
    one ``{1}``, so a caller can name both entries its own way."""

    def __init__(self, reason: str, *entries: int):
        self.reason, self.entries = reason, entries
        names = (f"entry {k}" for k in entries)
        super().__init__(f"entry {entries[0]}: " + reason.format(*names))


def build_weighted_graph(
    edges,
    measure=DEGREE_PLUS_ONE,
    n: int | None = None,
) -> WeightedGraph:
    """Build a :class:`WeightedGraph` from undirected edge triples.

    ``edges`` is a sequence of ``(i, j, w)`` (or ``(i, j)``, weight 1)
    entries, or an array of shape ``(E, 2)`` or ``(E, 3)``. Listing an edge
    in both orientations or repeatedly is fine as long as the weights
    agree. ``measure`` is either the string ``"degree-plus-one"`` (then
    ``mu_i = sum_j w_ij + 1``) or an explicit positive array of length n.

    Edge entries are checked here and nowhere else, in this order: integer
    endpoints in ``[0, n)``, no self-loops, finite positive weights, one
    weight per edge. Each check raises an :class:`EdgeEntryError` at the
    first entry it refuses.
    """
    src, dst, wgt = _parse_edges(edges)

    def refuse(bad: np.ndarray, reason: str) -> None:
        if bad.any():
            k = int(bad.argmax())
            raise EdgeEntryError(reason.format(i=src[k], j=dst[k], w=float(wgt[k])), k)

    refuse((src < 0) | (dst < 0), "edge ({i}, {j}) has a negative node index")
    if n is None:
        if not isinstance(measure, str):
            n = len(np.atleast_1d(measure))
        elif src.size:
            n = int(max(src.max(), dst.max())) + 1
        else:
            raise ValueError(
                "cannot infer the vertex count from an empty edge list; pass n"
            )
    n = int(n)
    refuse((src >= n) | (dst >= n), "edge ({i}, {j}) has an endpoint out of range "
           f"for n={n}")
    if n <= 0:
        raise ValueError(f"vertex count must be positive, got {n}")
    refuse(src == dst, "self-loop ({i}, {i}) not allowed: self-mass belongs in the "
           "vertex measure, and aggregation adds the identity")
    refuse(~((wgt > 0) & (wgt < np.inf)), "edge ({i}, {j}) has weight {w!r}; edge "
           "weights must be finite and strictly positive")

    indptr, indices, weights = _symmetric_csr(n, src, dst, wgt)

    if isinstance(measure, str):
        if measure != DEGREE_PLUS_ONE:
            raise ValueError(f"unknown measure rule {measure!r}")
        mu = _row_sums(indptr, weights) + 1.0
    else:
        mu = np.array(measure, dtype=float).reshape(-1)
        if mu.size != n:
            raise ValueError(f"measure has length {mu.size}, expected {n}")
        if not np.all(np.isfinite(mu)) or mu.min() <= 0:
            raise ValueError("vertex measure must be finite and strictly positive")

    return WeightedGraph(
        n=n, indptr=indptr, indices=indices, weights=weights, measure=mu
    )


def laplacian_apply(G: WeightedGraph, X) -> np.ndarray:
    """Apply the measure-weighted Laplacian row-wise.

    Computed from edge differences, so constant inputs map to exact
    zeros. Output rows are mu-mean-free up to roundoff.
    """
    X2, squeeze = _as_features(G, X)
    out = _laplacian(G, X2)
    return out[:, 0] if squeeze else out


def aggregate_apply(G: WeightedGraph, X) -> np.ndarray:
    """Apply the aggregation operator ``P = I + Delta``.

    Rows of ``P`` are convex combinations of the vertex and its neighbors;
    requires the strict admissibility ``sum_j w_ij < mu_i`` everywhere.
    """
    if not G.aggregation_admissible:
        raise ValueError(
            "aggregation undefined: need sum of incident weights < vertex "
            "measure at every vertex"
        )
    X2, squeeze = _as_features(G, X)
    out = X2 + _laplacian(G, X2)
    return out[:, 0] if squeeze else out


def integrate(G: WeightedGraph, X):
    """Measure integral ``sum_i X(i) mu_i`` per feature column."""
    X2, squeeze = _as_features(G, X)
    vals = G.measure @ X2
    return float(vals[0]) if squeeze else vals


def grad_inner_product(G: WeightedGraph, X, Y) -> np.ndarray:
    """Pointwise gradient inner product, one value per vertex.

    ``(1/2) sum_j (w_ij/mu_i) <X(j)-X(i), Y(j)-Y(i)>``; always nonnegative
    when ``Y is X``.
    """
    dx = _edge_differences(G, _as_features(G, X)[0])
    dy = dx if Y is X else _edge_differences(G, _as_features(G, Y)[0])
    per_edge = G.edge_weights * np.einsum("ed,ed->e", dx, dy)
    # |B|^T: each edge's value lands on both of its endpoints, in edge order
    ends = np.column_stack(G.edge_ends).ravel()
    at_vertices = np.bincount(ends, np.repeat(per_edge, 2), minlength=G.n)
    return 0.5 * at_vertices / G.measure


def derivative_energy(G: WeightedGraph, X, m: int) -> float:
    """Normalized m-th derivative energy ``(1/n) ∫ |∇^m X|² dμ``.

    With ``Z = Δ^{⌊m/2⌋} X`` (the sign of ``(-Δ)^{⌊m/2⌋}`` squares away),
    even m sums ``μ_i |Z(i)|²`` over vertices and odd m sums ``w_e |(BZ)_e|²``
    over edges, which is ``∫ ∇Z·∇Z dμ``. Order 0 measures the spread around
    the mu-weighted mean. Zero exactly on constants (per component for
    m >= 1). An overflowing energy raises ``ValueError``, never ``inf``.
    """
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise ValueError(f"derivative order must be a nonnegative integer, got {m!r}")
    Z, _ = _as_features(G, X)
    if m == 0:
        mean = (G.measure @ Z) / G.measure.sum()
        return _finite_energy(G, G.measure @ _squared_row_norms(Z - mean), m)
    for _ in range(m // 2):
        Z = laplacian_apply(G, Z)
    if m % 2 == 0:
        return _finite_energy(G, G.measure @ _squared_row_norms(Z), m)
    return _edge_energy(G, _edge_differences(G, Z), m)


def canonical_energy_graph(G: WeightedGraph) -> WeightedGraph:
    """Same topology (sharing the read-only ``indptr`` and ``indices``)
    with unit weights and measure ``degree + 1``.

    All cross-variant energy comparisons happen on this graph so that
    attention-induced weights never leak into the measurement. A graph
    that already has these weights and this measure is returned itself,
    with its cached views.
    """
    measure = np.asarray(G.degrees, dtype=float) + 1.0
    if np.all(G.weights == 1.0) and np.array_equal(G.measure, measure):
        return G
    weights = np.ones_like(G.weights)
    return WeightedGraph(
        n=G.n,
        indptr=G.indptr,
        indices=G.indices,
        weights=weights,
        measure=measure,
    )


def _parse_edges(edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if isinstance(edges, np.ndarray):
        # integer endpoints stay integers; anything else is checked below
        arr = edges if edges.dtype.kind in "iu" else edges.astype(float)
    else:
        rows = list(edges)
        widths = {len(r) for r in rows}
        if not widths <= {2, 3}:
            raise ValueError("edges must be (i, j) or (i, j, w) entries")
        arr = np.array([tuple(r) + (1.0,) * (3 - len(r)) for r in rows], dtype=float)
    if arr.size == 0:
        arr = arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] not in (2, 3):
        raise ValueError("edge array must have shape (E, 2) or (E, 3)")
    ij = arr[:, :2]
    if arr.dtype.kind == "f":
        bad = (ij != np.floor(ij)) | np.isinf(ij)
        if bad.any():
            raise EdgeEntryError(
                f"node index {float(ij[bad][0])!r} is not an integer; edge "
                "endpoints must be integers", int(bad.any(axis=1).argmax()))
    src = ij[:, 0].astype(np.int64)
    dst = ij[:, 1].astype(np.int64)
    wgt = arr[:, 2].astype(float) if arr.shape[1] == 3 else np.ones(len(arr))
    return src, dst, wgt


def _symmetric_csr(n, src, dst, wgt):
    """CSR arrays of both orientations of every edge, rows and columns
    ascending, duplicates merged. Entries are sorted by the one key
    ``u * n + v``; a stable sort keeps the input order among duplicates."""
    key = np.concatenate([src * n + dst, dst * n + src])
    order = np.argsort(key, kind="stable")
    key = key[order]
    w = np.concatenate([wgt, wgt])[order]
    if key.size:
        dup = key[1:] == key[:-1]
        conflict = dup & (w[1:] != w[:-1])
        if conflict.any():
            k = int(conflict.argmax()) + 1
            u, v = divmod(int(key[k]), n)
            earlier, entry = sorted(order[[k - 1, k]] % src.size)
            raise EdgeEntryError(
                f"edge ({u}, {v}) has weight {float(wgt[entry])!r}, but {{1}} gave "
                f"it the conflicting weight {float(wgt[earlier])!r}",
                int(entry), int(earlier),
            )
        del order
        keep = np.concatenate([[True], ~dup])
        del dup, conflict
        key, w = key[keep], w[keep]
    u, v = np.divmod(key, n)
    counts = np.bincount(u, minlength=n) if u.size else np.zeros(n, dtype=np.int64)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return indptr, v, np.ascontiguousarray(w)


def _as_features(G: WeightedGraph, X) -> tuple[np.ndarray, bool]:
    arr = np.asarray(X, dtype=float)
    squeeze = arr.ndim == 1
    if squeeze:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] != G.n:
        raise ValueError(
            f"feature array of shape {np.shape(X)} does not match n={G.n}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError("feature array contains non-finite entries")
    return arr, squeeze


def _row_sums(indptr: np.ndarray, per_edge: np.ndarray) -> np.ndarray:
    """Sum of ``per_edge`` over each CSR row of ``indptr``; 0 on empty rows."""
    out = np.zeros(indptr.size - 1)
    mask = np.diff(indptr) > 0
    if per_edge.size:
        out[mask] = np.add.reduceat(per_edge, indptr[:-1][mask])
    return out


def _laplacian(G: WeightedGraph, X2: np.ndarray) -> np.ndarray:
    """``-M^{-1} B^T (w ⊙ BX)`` on an ``(n, d)`` array."""
    return _laplacian_of_differences(G, _edge_differences(G, X2))


def _laplacian_and_dirichlet(
    G: WeightedGraph, X2: np.ndarray
) -> tuple[np.ndarray, float]:
    """``ΔX`` and the order-1 energy of an ``(n, d)`` array from one edge
    pass, with the bits of ``laplacian_apply`` and ``derivative_energy``."""
    diffs = _edge_differences(G, X2)
    dirichlet = _edge_energy(G, diffs, 1)
    return _laplacian_of_differences(G, diffs), dirichlet


def _laplacian_of_differences(G: WeightedGraph, diffs: np.ndarray) -> np.ndarray:
    """``-M^{-1} B^T (w ⊙ diffs)``."""
    out = G.divergence @ diffs
    out /= G.measure[:, None]
    return out


def _edge_differences(G: WeightedGraph, X2: np.ndarray) -> np.ndarray:
    """``BX`` of an ``(n, d)`` array: row k is ``X(j) - X(i)`` for edge
    ``k = (i, j)`` of :attr:`WeightedGraph.edge_ends`.

    Two row gathers give the bits of the sparse product ``B @ X2``, except
    that a zero difference may keep the sign of ``-0.0 - 0.0``; the
    ``X(i)`` rows come in blocks of at most ``EDGE_BLOCK_BYTES``.
    """
    i, j = G.edge_ends
    out = np.take(X2, j, axis=0)
    block = max(1, EDGE_BLOCK_BYTES // max(1, X2.shape[1] * X2.itemsize))
    for lo in range(0, i.size, block):
        out[lo : lo + block] -= np.take(X2, i[lo : lo + block], axis=0)
    return out


def _squared_row_norms(A: np.ndarray) -> np.ndarray:
    """``(A**2).sum(axis=1)`` of a 2-D array, bit for bit; rows narrower
    than ``PAIRWISE_WIDTH`` are summed a column at a time."""
    if not 0 < A.shape[1] < PAIRWISE_WIDTH:
        return (A**2).sum(axis=1)
    out = A[:, 0] * A[:, 0]
    for k in range(1, A.shape[1]):
        out += A[:, k] * A[:, k]
    return out


def _edge_energy(G: WeightedGraph, diffs: np.ndarray, m: int) -> float:
    """Odd order-m energy ``(1/n) Σ_e w_e |(BZ)_e|²`` from ``diffs = BZ``,
    ``Z = Δ^{(m-1)/2} X``."""
    return _finite_energy(G, G.edge_weights @ _squared_row_norms(diffs), m)


def _finite_energy(G: WeightedGraph, total, m: int) -> float:
    energy = float(total) / G.n
    if not np.isfinite(energy):
        raise ValueError(f"order-{m} derivative energy is not finite")
    return energy
