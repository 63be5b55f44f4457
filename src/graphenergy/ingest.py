"""File loaders, writers, and seeded synthetic graph generators.

Edge lists are plain text, one edge per line as ``i j`` or ``i j w``,
whitespace separated, 0-indexed, undirected, with ``#`` comments. A first
line ``# nodes N``, as ``write_edge_list`` writes, sets the vertex count to
N (so vertices without edges survive); otherwise it is the largest index + 1.
Features are headerless CSV, row i = node i, or a 2-D ``.npy`` array, as
``sweep --dump-states`` saves each state; ``load_features`` reads both.

Generators use numpy's seeded PCG64 stream, so identical specs
reproduce identical graphs across runs and platforms.
"""

from __future__ import annotations

import itertools
import os
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

from graphenergy.graph import EdgeEntryError, WeightedGraph, build_weighted_graph

KIND_PATH = "path"
KIND_RING = "ring"
KIND_GRID = "grid2d"
KIND_ER = "erdos-renyi"
KIND_SBM = "sbm"
GENERATOR_KINDS = (KIND_PATH, KIND_RING, KIND_GRID, KIND_ER, KIND_SBM)
# Upper-triangle pairs drawn per chunk by the random generators (2 MiB of
# uniforms), so their memory does not grow with n².
PAIR_CHUNK = 1 << 18


@dataclass(frozen=True)
class DatasetStats:
    """Row of summary numbers for one dataset: node and undirected edge
    counts, feature width (None when no feature file was supplied), and
    the number of connected components."""

    nodes: int
    edges: int
    feature_dim: int | None
    components: int


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one synthetic graph.

    ``size`` drives path/ring/erdos-renyi, ``shape`` drives grid2d, and
    ``block_sizes``/``block_probs`` drive sbm. Random kinds redraw up to
    ``max_retries`` times until the sample is connected, consuming one
    seeded stream, so results stay deterministic per spec.
    """

    kind: str
    size: int | None = None
    shape: tuple[int, int] | None = None
    edge_prob: float | None = None
    block_sizes: tuple[int, ...] | None = None
    block_probs: tuple[tuple[float, ...], ...] | None = None
    seed: int = 0
    max_retries: int = 50

    def __post_init__(self) -> None:
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(
                f"unknown generator kind {self.kind!r}; expected one of "
                f"{GENERATOR_KINDS}"
            )
        if self.max_retries < 1:
            raise ValueError("max_retries must be at least 1")
        if self.kind == KIND_PATH:
            if self.size is None or self.size < 1:
                raise ValueError("path needs size >= 1")
        elif self.kind == KIND_RING:
            if self.size is None or self.size < 3:
                raise ValueError("ring needs size >= 3")
        elif self.kind == KIND_GRID:
            if self.shape is None or len(self.shape) != 2 or min(self.shape) < 1:
                raise ValueError("grid2d needs shape (rows, cols) with both >= 1")
        elif self.kind == KIND_ER:
            if self.size is None or self.size < 2:
                raise ValueError("erdos-renyi needs size >= 2")
            if self.edge_prob is None or not 0 < self.edge_prob <= 1:
                raise ValueError("erdos-renyi needs edge_prob in (0, 1]")
        else:
            if not self.block_sizes or min(self.block_sizes) < 1:
                raise ValueError("sbm needs nonempty block_sizes with entries >= 1")
            k = len(self.block_sizes)
            P = self.block_probs
            if P is None or len(P) != k or any(len(row) != k for row in P):
                raise ValueError(f"sbm needs a {k}x{k} block_probs matrix")
            for a, row in enumerate(P):
                for b, p in enumerate(row):
                    if not 0 <= p <= 1:  # also false for NaN
                        raise ValueError(
                            f"block probability ({a}, {b}) is {p!r}; block "
                            "probabilities must lie in [0, 1]"
                        )
            for a in range(k):
                for b in range(a + 1, k):
                    if P[a][b] != P[b][a]:
                        raise ValueError("block_probs must be symmetric")


def generate_graph(spec: SyntheticSpec) -> WeightedGraph:
    """Build the graph a spec describes: unit weights, degree-plus-one
    measure. Random kinds raise RuntimeError when the retry budget runs
    out without hitting a connected sample."""
    if spec.kind in (KIND_PATH, KIND_RING, KIND_GRID):  # a path is a one-row grid
        rows, cols = spec.shape if spec.kind == KIND_GRID else (1, spec.size)
        node = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
        ends = [(node[:, :-1], node[:, 1:]), (node[:-1], node[1:])]  # right, down
        if spec.kind == KIND_RING:
            ends.append((node[:, -1], node[:, 0]))  # the edge that closes the path
        edges = np.concatenate([np.column_stack([a.ravel(), b.ravel()]) for a, b in ends])
        return build_weighted_graph(edges, n=node.size)

    rng = np.random.default_rng(spec.seed)
    if spec.kind == KIND_ER:
        n = spec.size
        blocks = np.zeros(n, dtype=np.int64)
        prob_of = np.array([[spec.edge_prob]])
    else:
        n = int(sum(spec.block_sizes))
        blocks = np.repeat(np.arange(len(spec.block_sizes)), spec.block_sizes)
        prob_of = np.asarray(spec.block_probs, dtype=float)

    for _ in range(spec.max_retries):
        pairs = _draw_pairs(rng, blocks, prob_of)
        if not pairs.size:
            continue
        G = build_weighted_graph(pairs, n=n)
        if G.is_connected:
            return G
    raise RuntimeError(
        f"no connected sample within {spec.max_retries} draws; raise the "
        "edge probability or the retry budget"
    )


def _draw_pairs(rng, blocks: np.ndarray, prob_of: np.ndarray) -> np.ndarray:
    """Keep each pair ``i < j`` with probability ``prob_of[blocks[i],
    blocks[j]]``, drawing one uniform per pair in ``np.triu_indices``
    order; returns the kept pairs as an (E, 2) array in that order.

    The triangle is walked in flat chunks of ``PAIR_CHUNK`` pairs, and a
    chunk's probabilities are slices of the rows of ``prob_of[:, blocks]``,
    so memory is O(chunk + n + E) and time O(n²). PCG64 gives the same
    doubles drawn at once or in pieces, so the sample equals one
    ``rng.random(n (n - 1) / 2)`` draw against all pairs.
    """
    n = blocks.size
    row_probs = prob_of[:, blocks]
    rows = np.arange(n + 1, dtype=np.int64)
    starts = rows * (2 * n - rows - 1) // 2  # flat index of pair (r, r + 1)
    shift = rows + 1 - starts  # column of flat index f in row r: f + shift[r]
    total = int(starts[-1])
    kept = []
    for lo in range(0, total, PAIR_CHUNK):
        hi = min(lo + PAIR_CHUNK, total)
        first, last = np.searchsorted(starts, (lo, hi - 1), side="right") - 1
        probs = np.concatenate([
            row_probs[blocks[r], max(lo, starts[r]) + shift[r]:
                      min(hi, starts[r + 1]) + shift[r]]
            for r in range(first, last + 1)
        ])
        flat = np.flatnonzero(rng.random(hi - lo) < probs) + lo
        src = np.searchsorted(starts, flat, side="right") - 1
        kept.append(np.column_stack([src, flat + shift[src]]))
    return np.concatenate(kept) if kept else np.empty((0, 2), dtype=np.int64)


def check_feature_scale(scale: float) -> None:
    """Reject a feature scale that is negative, NaN or infinite."""
    if not 0 <= scale < np.inf:
        raise ValueError(
            f"feature scale must be finite and nonnegative, got {scale!r}"
        )


def random_features(n: int, d: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """Seeded centered-normal feature matrix; scale 0 gives exact zeros."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    check_feature_scale(scale)
    return np.random.default_rng(seed).normal(0.0, scale, size=(n, d))


def load_edge_list(path) -> WeightedGraph:
    """Read an undirected edge list; see the module docstring for the
    format. Repeated lines (either orientation) collapse to one edge.
    ``np.loadtxt`` reads a file whose lines are all ``i j`` or all ``i j w``,
    and any other file is read line by line. A malformed line, or an entry
    ``build_weighted_graph`` refuses, raises naming its ``path:line`` (both
    lines of a pair listed with two weights)."""
    with open(path) as fh:  # names a missing file
        words = fh.readline().split()
    header = words[:2] == ["#", "nodes"] and len(words) == 3 and words[2].isdecimal()
    try:
        with warnings.catch_warnings():  # loadtxt reads a path in large chunks
            warnings.simplefilter("ignore", UserWarning)  # no data: refused below
            rows = np.loadtxt(path, comments="#", ndmin=2)
    except ValueError:
        rows = None
    if rows is None or rows.shape[1] not in (2, 3):
        values = array("d")
        for lineno, raw, row in _data_rows(path):
            if len(row) not in (2, 3):
                raise ValueError(
                    f"{path}:{lineno}: expected 'i j' or 'i j w', got {raw.strip()!r}"
                )
            values.extend(row + [1.0] * (3 - len(row)))
        rows = np.frombuffer(values).reshape(-1, 3)
    if not rows.size:
        raise ValueError(f"{path}: no edges found")
    try:
        return build_weighted_graph(rows, n=int(words[2]) if header else None)
    except EdgeEntryError as exc:  # entry k is the k-th data line
        lines = [next(itertools.islice(_data_rows(path), k, None))[0]
                 for k in exc.entries]
        names = (f"line {line}" for line in lines)
        raise ValueError(f"{path}:{lines[0]}: " + exc.reason.format(*names)) from None


def load_features(path, n: int | None = None) -> np.ndarray:
    """Read a feature table, from a headerless CSV file or, by its
    ``.npy`` suffix, a 2-D numeric array such as a dumped state, and check
    it has n rows when n is given. A non-numeric CSV token is reported
    with its line and column, and every refusal names the file; a missing
    file raises ``FileNotFoundError`` carrying its name."""
    if str(path).endswith(".npy"):
        try:
            arr = np.load(path, allow_pickle=False)
        except (ValueError, EOFError) as exc:  # pickled, truncated or not .npy
            raise ValueError(f"{path}: {exc}") from None
        if arr.ndim != 2 or arr.dtype.kind not in "iuf":
            raise ValueError(f"{path}: expected a 2-D numeric array, "
                             f"found a {arr.ndim}-D {arr.dtype} array")
        arr = arr.astype(float, copy=False)
    else:
        try:
            with open(path):  # names a missing file; loadtxt reads a path in chunks
                arr = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
        except ValueError:
            for _ in _data_rows(path, ","):  # raises at the first non-numeric token
                pass
            raise ValueError(f"{path}: failed to parse as a numeric table") from None
    if n is not None and arr.shape[0] != n:
        raise ValueError(f"{path}: expected {n} rows, found {arr.shape[0]}")
    return arr


def dataset_stats(G: WeightedGraph, features: np.ndarray | None = None) -> DatasetStats:
    """Summary counts; each undirected edge counted once."""
    return DatasetStats(
        nodes=G.n,
        edges=G.indices.size // 2,
        feature_dim=None if features is None else int(np.atleast_2d(features).shape[1]),
        components=G.component_count,
    )


def write_edge_list(path, G: WeightedGraph) -> None:
    """Write each undirected edge once (smaller endpoint first); weights
    are included only when some weight differs from 1."""
    weighted = not np.all(G.edge_weights == 1.0)
    with open(path, "w") as fh:
        fh.write(f"# nodes {G.n}\n")
        for i, j, w in zip(*G.edge_ends, G.edge_weights):
            fh.write(f"{i} {j} {float(w)!r}\n" if weighted else f"{i} {j}\n")


def _data_rows(path, sep: str | None = None):
    """``(line number, line, values)`` of each line of ``path`` that holds
    data once its ``#`` comment is cut, its tokens split on ``sep``; a
    non-numeric token raises with its line and column."""
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            values = []
            for col, token in enumerate(line.split(sep), start=1):
                try:
                    values.append(float(token))
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: column {col}: "
                                     f"non-numeric token {token.strip()!r}") from None
            yield lineno, raw, values


def ensure_directory(path) -> None:
    """mkdir -p."""
    os.makedirs(path, exist_ok=True)