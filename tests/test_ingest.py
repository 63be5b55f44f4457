import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphenergy.ingest as ingest
from graphenergy.cli import main, surrogate_spec
from graphenergy.graph import build_weighted_graph
from graphenergy.ingest import (
    DatasetStats,
    SyntheticSpec,
    dataset_stats,
    ensure_directory,
    generate_graph,
    load_edge_list,
    load_features,
    random_features,
    write_edge_list,
)
from graphenergy.sweep import _graph_digest

from conftest import lattice_loops, neighbors, traced_peak, triu_sample


class TestSyntheticSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown generator kind"):
            SyntheticSpec(kind="torus", size=4)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(kind="path", size=0), "size >= 1"),
            (dict(kind="ring", size=2), "size >= 3"),
            (dict(kind="grid2d", shape=(0, 4)), "rows, cols"),
            (dict(kind="erdos-renyi", size=5), "edge_prob"),
            (dict(kind="erdos-renyi", size=5, edge_prob=0.0), "edge_prob"),
            (dict(kind="sbm", block_sizes=()), "block_sizes"),
            (
                dict(kind="sbm", block_sizes=(2, 2), block_probs=((0.5,),)),
                "2x2",
            ),
            (
                dict(
                    kind="sbm",
                    block_sizes=(2, 2),
                    block_probs=((0.5, 0.1), (0.2, 0.5)),
                ),
                "symmetric",
            ),
            (
                dict(
                    kind="sbm",
                    block_sizes=(2, 2),
                    block_probs=((0.5, 1.5), (1.5, 0.5)),
                ),
                r"\[0, 1\]",
            ),
            (dict(kind="path", size=3, max_retries=0), "max_retries"),
            (
                dict(
                    kind="sbm",
                    block_sizes=(5, 5),
                    block_probs=((np.nan, 0.5), (0.5, np.nan)),
                ),
                r"\(0, 0\) is nan",
            ),
            (
                dict(
                    kind="sbm",
                    block_sizes=(5, 5),
                    block_probs=((0.5, np.inf), (np.inf, 0.5)),
                ),
                r"\(0, 1\) is inf",
            ),
        ],
    )
    def test_invalid_parameters(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SyntheticSpec(**kwargs)


class TestGenerate:
    def test_path_three_nodes(self):
        G = generate_graph(SyntheticSpec(kind="path", size=3))
        assert G.n == 3
        np.testing.assert_array_equal(G.measure, [2.0, 3.0, 2.0])
        np.testing.assert_array_equal(neighbors(G, 1)[0], [0, 2])

    def test_singleton_path(self):
        G = generate_graph(SyntheticSpec(kind="path", size=1))
        assert G.n == 1 and G.indices.size == 0

    def test_ring_measure(self):
        G = generate_graph(SyntheticSpec(kind="ring", size=4))
        np.testing.assert_array_equal(G.measure, np.full(4, 3.0))
        assert G.indices.size // 2 == 4

    def test_grid_two_by_two(self):
        G = generate_graph(SyntheticSpec(kind="grid2d", shape=(2, 2)))
        assert G.n == 4
        assert G.indices.size // 2 == 4

    def test_grid_row_is_path(self):
        grid = generate_graph(SyntheticSpec(kind="grid2d", shape=(1, 5)))
        path = generate_graph(SyntheticSpec(kind="path", size=5))
        np.testing.assert_array_equal(grid.indptr, path.indptr)
        np.testing.assert_array_equal(grid.indices, path.indices)

    @pytest.mark.parametrize("spec", [
        *(SyntheticSpec(kind="path", size=n) for n in (1, 2, 7)),
        *(SyntheticSpec(kind="ring", size=n) for n in (3, 4, 9)),
        *(SyntheticSpec(kind="grid2d", shape=s) for s in [(1, 1), (1, 5), (5, 1), (3, 4)]),
    ], ids=lambda s: f"{s.kind}-{s.size or 'x'.join(map(str, s.shape))}")
    def test_lattice_matches_loop_oracle(self, spec):
        assert _same_graph(generate_graph(spec), lattice_loops(spec))

    def test_er_is_deterministic_and_connected(self):
        spec = SyntheticSpec(kind="erdos-renyi", size=30, edge_prob=0.2, seed=7)
        G1, G2 = generate_graph(spec), generate_graph(spec)
        assert G1.is_connected
        np.testing.assert_array_equal(G1.indptr, G2.indptr)
        np.testing.assert_array_equal(G1.indices, G2.indices)

    def test_er_seed_changes_sample(self):
        a = generate_graph(SyntheticSpec(kind="erdos-renyi", size=30, edge_prob=0.2, seed=0))
        b = generate_graph(SyntheticSpec(kind="erdos-renyi", size=30, edge_prob=0.2, seed=1))
        assert a.indices.size != b.indices.size or not np.array_equal(
            a.indices, b.indices
        )

    def test_er_full_probability_is_complete(self):
        G = generate_graph(SyntheticSpec(kind="erdos-renyi", size=6, edge_prob=1.0))
        assert G.indices.size // 2 == 15

    def test_sbm_block_structure(self):
        spec = SyntheticSpec(
            kind="sbm",
            block_sizes=(12, 12),
            block_probs=((0.8, 0.05), (0.05, 0.8)),
            seed=3,
        )
        G = generate_graph(spec)
        assert G.n == 24 and G.is_connected
        blocks = np.repeat([0, 1], 12)
        intra = inter = 0
        for i in range(G.n):
            for j in neighbors(G, i)[0]:
                if j > i:
                    if blocks[i] == blocks[j]:
                        intra += 1
                    else:
                        inter += 1
        assert intra > inter

    def test_retry_budget_exhausted(self):
        spec = SyntheticSpec(
            kind="erdos-renyi", size=40, edge_prob=0.001, seed=0, max_retries=3
        )
        with pytest.raises(RuntimeError, match="no connected sample"):
            generate_graph(spec)


def _same_graph(G, H) -> bool:
    return G.n == H.n and all(
        a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for a, b in zip(
            (G.indptr, G.indices, G.weights, G.measure),
            (H.indptr, H.indices, H.weights, H.measure),
        )
    )


class TestChunkedSampler:
    """The random kinds draw their pairs chunk by chunk; every graph must be
    byte-equal to the all-pairs ``np.triu_indices`` draw, retries included."""

    SMALL = [
        SyntheticSpec(kind="erdos-renyi", size=2, edge_prob=1.0),
        SyntheticSpec(kind="erdos-renyi", size=3, edge_prob=0.7, seed=1),
        SyntheticSpec(kind="erdos-renyi", size=30, edge_prob=0.2, seed=7),
    ]
    # First connected sample on the 3rd and the 4th draw.
    RETRYING = [
        SyntheticSpec(kind="erdos-renyi", size=30, edge_prob=0.1, seed=0),
        SyntheticSpec(
            kind="sbm", block_sizes=(12, 12),
            block_probs=((0.3, 0.01), (0.01, 0.3)), seed=2,
        ),
    ]

    @pytest.mark.parametrize("chunk", [1, 3, 7, ingest.PAIR_CHUNK])
    @pytest.mark.parametrize("spec", range(len(SMALL) + len(RETRYING)))
    def test_small_graphs_match_oracle(self, monkeypatch, spec, chunk):
        spec = (self.SMALL + self.RETRYING)[spec]
        monkeypatch.setattr(ingest, "PAIR_CHUNK", chunk)
        expected, draws = triu_sample(spec)
        assert _same_graph(generate_graph(spec), expected)
        if spec in self.RETRYING:
            assert draws > 1

    @pytest.mark.parametrize("chunk", [97, ingest.PAIR_CHUNK])
    def test_er_700_matches_oracle(self, monkeypatch, chunk):
        monkeypatch.setattr(ingest, "PAIR_CHUNK", chunk)
        spec = SyntheticSpec(kind="erdos-renyi", size=700, edge_prob=0.02, seed=1)
        assert _same_graph(generate_graph(spec), triu_sample(spec)[0])

    @pytest.mark.parametrize("chunk", [1009, ingest.PAIR_CHUNK])
    @pytest.mark.parametrize("seed", range(4))
    def test_surrogate_matches_oracle(self, monkeypatch, seed, chunk):
        # 1,009 pairs split most of the surrogate's 2,505-pair rows
        monkeypatch.setattr(ingest, "PAIR_CHUNK", chunk)
        spec = surrogate_spec(seed)
        assert _same_graph(generate_graph(spec), triu_sample(spec)[0])

    @pytest.mark.parametrize("n", [5_000, 20_000])
    def test_large_sbm_in_bounded_memory(self, n):
        """Four blocks at mean degree ~11.5. Drawing all n(n-1)/2 pairs at
        once takes ~40 bytes a pair (500 MB at 5,000 nodes, 8 GB at
        20,000). The chunked draw may hold two chunk-sized arrays of
        doubles plus 96 bytes per stored edge for building the graph; it
        peaks at 5.2 and 18.5 MB."""
        k, size = 4, n // 4
        p_in, p_out = 10 / size, 1.5 / (n - size)
        spec = SyntheticSpec(
            kind="sbm", block_sizes=(size,) * k,
            block_probs=tuple(
                tuple(p_in if a == b else p_out for b in range(k)) for a in range(k)
            ),
        )
        G, peak = traced_peak(lambda: generate_graph(spec))
        assert G.is_connected
        bound = 2 * ingest.PAIR_CHUNK * 8 + 96 * G.indices.size
        assert peak < bound, (peak, bound)


class TestRandomFeatures:
    def test_seed_reproducibility(self):
        a = random_features(20, 4, seed=5)
        b = random_features(20, 4, seed=5)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (20, 4)

    def test_zero_scale(self):
        np.testing.assert_array_equal(random_features(5, 3, seed=0, scale=0.0), 0.0)

    def test_sample_mean_is_centered(self):
        X = random_features(1000, 1000, seed=11)
        assert abs(X.mean()) < 0.01

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="n >= 1"):
            random_features(0, 3, seed=0)
        with pytest.raises(ValueError, match="negative"):
            random_features(3, 3, seed=0, scale=-1.0)
        for scale in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                random_features(3, 3, seed=0, scale=scale)


class TestLoadEdgeList:
    def test_p3_file(self, tmp_path):
        f = tmp_path / "p3.txt"
        f.write_text("0 1\n1 2\n")
        G = load_edge_list(f)
        assert G.n == 3
        np.testing.assert_array_equal(G.measure, [2.0, 3.0, 2.0])

    def test_duplicate_orientations_collapse(self, tmp_path):
        f = tmp_path / "dup.txt"
        f.write_text("1 2\n2 1\n")
        G = load_edge_list(f)
        assert G.indices.size // 2 == 1

    def test_comments_and_blanks_skipped(self, tmp_path):
        f = tmp_path / "c.txt"
        f.write_text("# a comment\n\n0 1\n1 2  # trailing note\n")
        assert load_edge_list(f).n == 3

    def test_weight_column(self, tmp_path):
        f = tmp_path / "w.txt"
        f.write_text("0 1 2.5\n")
        G = load_edge_list(f)
        np.testing.assert_array_equal(G.weights, [2.5, 2.5])

    def test_malformed_line_reports_number(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("0 1\n1 2\nnope\n")
        with pytest.raises(ValueError, match=r"bad\.txt:3"):
            load_edge_list(f)

    # File text and the refusal that follows "path:"; every kind of bad
    # line, each as the first bad line of its file.
    REFUSED = {
        "too-many-tokens": (
            "0 1 1.0 7\n", r"1: expected 'i j' or 'i j w', got '0 1 1\.0 7'"),
        "non-numeric-token": ("0 1\n1 x\n", r"2: column 2: non-numeric token 'x'"),
        "fractional-index": (
            "0 1\n1.5 2\n", r"2: node index 1\.5 is not an integer"),
        "negative-index": ("-1 2\n", r"1: edge \(-1, 2\) has a negative node index"),
        "negative-indices": (
            "-3 -2\n", r"1: edge \(-3, -2\) has a negative node index"),
        "self-loop": ("0 1\n2 2\n", r"2: self-loop \(2, 2\) not allowed"),
        "header-below-endpoint": (
            "# nodes 3\n0 1\n1 5\n",
            r"3: edge \(1, 5\) has an endpoint out of range for n=3$"),
        "header-zero": (
            "# nodes 0\n0 1\n", r"2: edge \(0, 1\) has an endpoint out of range for n=0$"),
        "conflicting-weights": (
            "0 1 2.0\n1 2 1\n1 0 3.0\n",
            r"3: edge \(0, 1\) has weight 3\.0, but line 1 gave it the "
            r"conflicting weight 2\.0$"),
        **{
            f"{name}-weight": (
                f"0 1 1\n1 2 {token}\n",
                rf"2: edge \(1, 2\) has weight {shown}; edge weights must be "
                "finite and strictly positive$")
            for name, token, shown in [("nan", "nan", "nan"), ("inf", "inf", "inf"),
                                       ("zero", "0", "0.0"), ("negative", "-2", "-2.0")]
        },
    }

    @pytest.mark.parametrize("tail", ["", "# widths mix below\n8 9\n8 9 1.0\n"],
                             ids=["as-is", "mixed-widths"])
    @pytest.mark.parametrize("case", REFUSED)
    def test_refusal_names_line(self, tmp_path, case, tail):
        """Each refusal names ``path:line``. Appending lines of both widths
        moves the file off ``np.loadtxt`` to the line-by-line pass, which
        must name the same line."""
        text, refusal = self.REFUSED[case]
        f = tmp_path / "bad.txt"
        f.write_text(text + tail)
        with pytest.raises(ValueError, match=re.escape(f"{f}:") + refusal):
            load_edge_list(f)

    MIXED = (
        "# weighted graph: comments, blanks, both orientations, repeats\n"
        "0 1 0.5\n"
        "1 2 0.25   # trailing note\n"
        "\n"
        "2 0 0.5\n"
        "1 0 0.5\n"
        "3 2\n"
        "2\t3 1.0\n"
        "   # indented comment\n"
        "3 4 2\n"
        "4 5 0.1\n"
        "5 4 0.1\n"
        "0 1 0.5\n"
        "  6 5 1e-3\n"
        "7 1 3.25\n"
    )

    def test_loaded_graphs_keep_their_digests(self, tmp_path):
        """``sweep._graph_digest`` of two loaded files, recorded with the
        earlier line-by-line loader: a weighted file with comments, blank
        lines, both orientations, repeats and mixed widths, and the
        surrogate as ``gen`` writes it."""
        mixed, surrogate = tmp_path / "mixed.txt", tmp_path / "surrogate.txt"
        mixed.write_text(self.MIXED)
        assert main(["gen", "--out", str(surrogate)]) == 0
        assert _graph_digest(load_edge_list(mixed)) == "202e9e3adbc0"
        assert _graph_digest(load_edge_list(surrogate)) == "49f81161246c"

    def test_large_file_in_bounded_memory(self, tmp_path):
        """A seeded 2·10⁵-line file over 10⁵ nodes. Checking it line by
        line through a dict of tuples peaked at ~430 bytes a line; read
        into arrays, it peaks at ~130."""
        draw = np.random.default_rng(0).integers
        i, j = draw(0, 10**5, 2 * 10**5), draw(0, 10**5, 2 * 10**5)
        pairs = np.column_stack([i, j])[i != j]
        f = tmp_path / "big.txt"
        np.savetxt(f, pairs, fmt="%d")
        G, peak = traced_peak(lambda: load_edge_list(f))
        assert G.indices.size // 2 == np.unique(np.sort(pairs, axis=1), axis=0).shape[0]
        assert peak < 250 * len(pairs), (peak, len(pairs))

    def test_empty_file(self, tmp_path):
        f = tmp_path / "empty.txt"
        f.write_text("# only a comment\n")
        with pytest.raises(ValueError, match="no edges"):
            load_edge_list(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_edge_list(tmp_path / "absent.txt")


class TestLoadFeatures:
    def test_single_column(self, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("0\n1\n2\n")
        X = load_features(f, n=3)
        np.testing.assert_array_equal(X, [[0.0], [1.0], [2.0]])

    def test_multi_column(self, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("1.0,2.0\n3.0,4.0\n")
        np.testing.assert_array_equal(load_features(f, 2), [[1, 2], [3, 4]])

    def test_row_count_mismatch(self, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("1.0\n2.0\n")
        with pytest.raises(ValueError, match="expected 3 rows, found 2"):
            load_features(f, n=3)

    def test_bad_token_position(self, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(ValueError, match=r"x\.csv:2: column 2.*'oops'"):
            load_features(f, n=2)


class TestStats:
    def test_p3(self, p3):
        s = dataset_stats(p3)
        assert s == DatasetStats(nodes=3, edges=2, feature_dim=None, components=1)

    def test_with_features_and_labels(self, p3):
        # labels are no longer read: the package has no training loop
        s = dataset_stats(p3, features=np.ones((3, 7)))
        assert s.feature_dim == 7
        with pytest.raises(TypeError):
            dataset_stats(p3, labels=np.array([0, 1, 1]))

    def test_component_count(self):
        G = build_weighted_graph([(0, 1), (2, 3)])
        assert dataset_stats(G).components == 2


class TestRoundTrips:
    def test_unit_graph_round_trip(self, tmp_path):
        G = generate_graph(SyntheticSpec(kind="erdos-renyi", size=25, edge_prob=0.2, seed=2))
        f = tmp_path / "g.txt"
        write_edge_list(f, G)
        H = load_edge_list(f)
        np.testing.assert_array_equal(G.indptr, H.indptr)
        np.testing.assert_array_equal(G.indices, H.indices)
        np.testing.assert_array_equal(G.weights, H.weights)

    def test_isolated_vertices_survive_round_trip(self, tmp_path):
        G = build_weighted_graph([(0, 1)], n=3)
        f = tmp_path / "g.txt"
        write_edge_list(f, G)
        H = load_edge_list(f)
        assert H.n == 3
        np.testing.assert_array_equal(G.indptr, H.indptr)
        np.testing.assert_array_equal(G.measure, H.measure)

    def test_weighted_graph_round_trip(self, tmp_path):
        G = build_weighted_graph([(0, 1, 2.5), (1, 2, 0.125)])
        f = tmp_path / "g.txt"
        write_edge_list(f, G)
        H = load_edge_list(f)
        np.testing.assert_array_equal(G.weights, H.weights)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_generated_round_trip_is_isomorphic(self, seed, tmp_path_factory):
        spec = SyntheticSpec(kind="erdos-renyi", size=15, edge_prob=0.25, seed=seed)
        try:
            G = generate_graph(spec)
        except RuntimeError:
            return  # too sparse for this seed's budget
        f = tmp_path_factory.mktemp("rt") / "g.txt"
        write_edge_list(f, G)
        H = load_edge_list(f)
        assert H.n == G.n
        for i in range(G.n):
            np.testing.assert_array_equal(neighbors(G, i)[0], neighbors(H, i)[0])

    def test_matrix_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        M = rng.normal(size=(4, 3))
        f = tmp_path / "m.npy"
        np.save(f, M)
        assert load_features(f, n=4).tobytes() == M.tobytes()
        np.save(f, np.arange(4).reshape(2, 2))  # integers read as floats
        assert load_features(f).dtype == np.float64
        with pytest.raises(ValueError, match=r"m\.npy: expected 3 rows, found 2"):
            load_features(f, n=3)

    def test_ensure_directory(self, tmp_path):
        target = tmp_path / "a" / "b"
        ensure_directory(target)
        ensure_directory(target)  # idempotent
        assert target.is_dir()
