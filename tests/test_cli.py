import concurrent.futures
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import graphenergy.cli as cli
import graphenergy.network as network
import graphenergy.sweep as sweep
from graphenergy.attention import AttentionKind
from graphenergy.cli import main, surrogate_spec
from graphenergy.diagnostics import (
    energy_series,
    fit_decay,
    relative_change_series,
    unit_rows,
)
from graphenergy.dynamics import FlowSpec, simulate_heat
from graphenergy.graph import canonical_energy_graph, derivative_energy
from graphenergy.ingest import (
    SyntheticSpec,
    generate_graph,
    load_edge_list,
    random_features,
)
from graphenergy.network import ModelConfig, init_model
from graphenergy.sweep import SweepSpec, run_sweep

from conftest import (
    STATE_TEMPORARIES,
    collect,
    nbytes,
    stack_states,
    traced_peak,
    unit_row_gram,
)


def read_file_map(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def csv_columns(path):
    """Header names and data rows of a CSV the CLI wrote, as text."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


@pytest.fixture
def p3_file(tmp_path):
    f = tmp_path / "p3.txt"
    f.write_text("0 1\n1 2\n")
    return str(f)


def no_graph(args):
    raise AssertionError("the graph was built")


class TestGen:
    def test_nan_block_probability_named(self, tmp_path):
        out = tmp_path / "g.txt"
        with pytest.raises(SystemExit, match=r"block probability \(0, 0\) is nan"):
            main(["gen", "--kind", "sbm", "--block-sizes", "5,5",
                  "--block-probs", "nan,0.5;0.5,nan", "--out", str(out)])
        assert not out.exists()

    def test_ring_four_writes_four_edges(self, tmp_path, capsys):
        out = tmp_path / "ring.txt"
        rc = main(["gen", "--kind", "ring", "--size", "4", "--out", str(out)])
        assert rc == 0
        lines = [
            line
            for line in out.read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert len(lines) == 4
        assert "edges 4" in capsys.readouterr().out

    def test_sbm_flags(self, tmp_path):
        out = tmp_path / "sbm.txt"
        rc = main(
            [
                "gen",
                "--kind",
                "sbm",
                "--block-sizes",
                "10,10",
                "--block-probs",
                "0.9,0.2;0.2,0.9",
                "--graph-seed",
                "1",
                "--out",
                str(out),
            ]
        )
        assert rc == 0 and out.exists()

    def test_missing_sbm_flags(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["gen", "--kind", "sbm", "--out", str(tmp_path / "x.txt")])

    def test_refuses_an_edge_list(self, p3_file, tmp_path, capsys):
        out = tmp_path / "g.txt"
        with pytest.raises(SystemExit):
            main(["gen", "--edges", p3_file, "--out", str(out)])
        assert "unrecognized arguments: --edges" in capsys.readouterr().err
        assert not out.exists()


class TestStats:
    def test_p3_counts(self, p3_file, capsys):
        assert main(["stats", "--edges", p3_file]) == 0
        out = capsys.readouterr().out
        assert "nodes 3, edges 2" in out and "components 1" in out

    def test_with_features_and_labels(self, p3_file, tmp_path, capsys):
        feats = tmp_path / "x.csv"
        feats.write_text("1,2\n3,4\n5,6\n")
        assert main(["stats", "--edges", p3_file, "--features", str(feats)]) == 0
        assert "features 2" in capsys.readouterr().out
        # labels are no longer read: the package has no training loop
        labels = tmp_path / "y.txt"
        labels.write_text("0\n1\n0\n")
        with pytest.raises(SystemExit):
            main(["stats", "--edges", p3_file, "--labels", str(labels)])
        assert "unrecognized arguments: --labels" in capsys.readouterr().err


class TestSweep:
    def sweep_args(self, tmp_path, out_name):
        return [
            "sweep",
            "--kind", "ring", "--size", "12",
            "--depths", "2,4",
            "--variants", "post_ln,pre_ln",
            "--seeds", "0,1",
            "--hidden-dim", "8",
            "--input-dim", "4",
            "--output-dim", "3",
            "--out", str(tmp_path / out_name),
        ]

    def test_layout_and_metadata(self, tmp_path, capsys):
        rc = main(self.sweep_args(tmp_path, "run"))
        assert rc == 0
        job = tmp_path / "run" / "post_ln" / "depth-002" / "seed-01"
        for name in ("energy.csv", "relative_change.csv", "cosine.csv", "report.json"):
            assert (job / name).exists()
        energy = (job / "energy.csv").read_text().splitlines()
        assert energy[0].startswith("# config-hash=")
        assert "seed=1" in energy[0] and "version=" in energy[0]
        assert "degree+1" in energy[1]
        assert energy[2] == "layer,energy"
        assert len(energy) == 3 + 3  # depth-2 trajectory records X^0..X^2

        report = json.loads((job / "report.json").read_text())
        assert report["final_energy"] > 0
        assert report["seed"] == 1
        assert report["measurement"].startswith("energies measured")

        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["cells"]["pre_ln/depth-004"]["median_final_energy"] > 0
        assert summary["failures"] == []
        assert "sweep: 8/8 jobs ok" in capsys.readouterr().out

    def test_bitwise_reproducible(self, tmp_path):
        assert main(self.sweep_args(tmp_path, "a")) == 0
        assert main(self.sweep_args(tmp_path, "b")) == 0
        a = read_file_map(tmp_path / "a")
        b = read_file_map(tmp_path / "b")
        assert a.keys() == b.keys()
        for key in a:
            assert a[key] == b[key], f"{key} differs between reruns"

    def test_workers_below_one_refused(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_resolve_graph", no_graph)
        args = self.sweep_args(tmp_path, "run")
        for workers in (0, -1):
            with pytest.raises(SystemExit, match=rf"^bad sweep arguments: workers must "
                                                 rf"be at least 1, got {workers}$"):
                main(args + ["--workers", str(workers)])
        assert not (tmp_path / "run").exists()

    def test_job_failure_sets_exit_code(self, tmp_path, monkeypatch):
        real = sweep.forward_trajectory

        def boom(params, config, G, X, **kwargs):
            if config.variant == "pre_ln" and config.seed == 1:
                raise RuntimeError("synthetic failure")
            return real(params, config, G, X, **kwargs)

        monkeypatch.setattr(sweep, "forward_trajectory", boom)
        rc = main(self.sweep_args(tmp_path, "run"))
        assert rc == 1
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert len(summary["failures"]) == 2  # two depths at that seed
        assert "synthetic failure" in summary["failures"][0]["error"]
        report = json.loads(
            (tmp_path / "run" / "pre_ln" / "depth-002" / "seed-01" / "report.json").read_text()
        )
        assert "synthetic failure" in report["error"]

    def test_run_sweep_records(self):
        G = generate_graph(surrogate_spec(0))
        assert G.n == 2506
        spec = SweepSpec(
            depths=(2,),
            variants=("post_ln",),
            seeds=(0,),
            hidden_dim=8,
            input_dim=4,
            output_dim=3,
        )
        result = run_sweep(G, spec)
        assert result.all_ok and result.out_dir is None
        job = result.job("post_ln", 2, 0)
        assert job.series.values.shape == (3,)
        assert job.final_energy == job.series.values[-1]

    def test_dump_states_and_similarity(self, tmp_path):
        args = self.sweep_args(tmp_path, "run") + ["--dump-states"]
        assert main(args) == 0
        states = tmp_path / "run" / "post_ln" / "seed-00" / "states"
        names = sorted(os.listdir(states))
        assert names == [f"layer-{k:03d}.npy" for k in range(5)] + ["states.json"]
        record = json.loads((states / "states.json").read_text())
        assert (record["variant"], record["states"], record["seed"]) == ("post_ln", 5, 0)
        assert not list((tmp_path / "run" / "post_ln" / "depth-002").rglob("states"))
        out = tmp_path / "cosine.csv"
        assert main(["similarity", "--states", str(states), "--out", str(out)]) == 0
        matrix = np.loadtxt(out, delimiter=",", skiprows=3)
        assert matrix.shape == (5, 5)
        np.testing.assert_allclose(np.diag(matrix), 1.0, atol=1e-12)
        # a shallower rerun into the same directory leaves no deeper layer
        rerun = self.sweep_args(tmp_path, "run") + ["--dump-states", "--depths", "2"]
        assert main(rerun) == 0
        assert sorted(os.listdir(states)) == [
            f"layer-{k:03d}.npy" for k in range(3)] + ["states.json"]

    def test_invalid_depths(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "--depths", "two", "--out", str(tmp_path / "x")])

    @pytest.mark.parametrize("flag, value, named", [
        ("--variants", "post_ln,foo", "'foo'"),
        ("--heads", "3", "heads 3"),
        ("--energy-order", "-1", "energy order must be nonnegative, got -1"),
        ("--feature-scale", "nan", "feature scale must be finite and nonnegative"),
        ("--feature-scale", "inf", "feature scale must be finite and nonnegative"),
        ("--leaky-slope", "nan", "^bad sweep arguments: leaky slope must be finite, "
         "got nan$"),
        ("--leaky-slope", "inf", "^bad sweep arguments: leaky slope must be finite, "
         "got inf$"),
    ])
    def test_bad_model_flag_fails_before_writing(
        self, tmp_path, monkeypatch, flag, value, named
    ):
        monkeypatch.setattr(cli, "_resolve_graph", no_graph)
        with pytest.raises(SystemExit, match=named):
            main(self.sweep_args(tmp_path, "run") + [flag, value])
        assert not (tmp_path / "run").exists()


class TestSweepPrefixes:
    """Each (variant, seed) runs once at the deepest depth; every cell must
    still match a run at its own depth."""

    SPEC = SweepSpec(
        depths=(2, 5, 8),
        seeds=(0, 1),
        attention=AttentionKind("gat"),
        heads=2,
        hidden_dim=8,
        input_dim=4,
        output_dim=3,
    )

    @pytest.fixture(scope="class")
    def graph(self):
        return generate_graph(SyntheticSpec(
            kind="sbm", block_sizes=(15, 15),
            block_probs=((0.4, 0.05), (0.05, 0.4)), seed=0,
        ))

    def oracle(self, G, variant, depth, seed):
        spec = self.SPEC
        cfg = ModelConfig(
            input_dim=spec.input_dim, output_dim=spec.output_dim, depth=depth,
            hidden_dim=spec.hidden_dim, heads=spec.heads, variant=variant,
            attention=spec.attention, seed=seed,
        )
        X = random_features(G.n, spec.input_dim, seed=spec.feature_seed)
        series = energy_series(
            stack_states(init_model(cfg), cfg, G, X)[1], topology=G
        )
        try:
            fit = fit_decay(series)
        except ValueError:
            fit = None
        return series, fit, relative_change_series(series).verdict

    def test_every_cell_matches_its_own_depth(self, graph, capsys):
        result = run_sweep(graph, self.SPEC)
        assert result.all_ok
        cells = [(j.variant, j.depth, j.seed) for j in result.jobs]
        assert cells == [
            (v, d, s) for v in self.SPEC.variants for d in (2, 5, 8) for s in (0, 1)
        ]
        for job in result.jobs:
            series, fit, stall = self.oracle(graph, job.variant, job.depth, job.seed)
            assert job.series.values.tobytes() == series.values.tobytes()
            assert job.series.indices.tobytes() == series.indices.tobytes()
            assert repr(job.fit) == repr(fit)
            assert repr(job.stall) == repr(stall)
        assert sum(j.fit is None for j in result.jobs) == 6  # depth 2 is too short

        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 6
        assert lines[0].startswith("sweep [1/6] post_ln seed 0 depths 2,5,8: ok, ")
        assert lines[-1].startswith("sweep [6/6] nonlocal_post_ln seed 1 depths")

    @pytest.mark.parametrize("dump_states", [False, True])
    def test_nonfinite_layer_fails_only_deeper_cells(
        self, graph, tmp_path, monkeypatch, capsys, dump_states
    ):
        spec = replace(self.SPEC, dump_states=dump_states)
        real = sweep.init_model

        def poisoned(config):
            params = real(config)
            layers = list(params.layers)
            layers[4] = replace(layers[4], out_weight=layers[4].out_weight * np.inf)
            return replace(params, layers=tuple(layers))

        clean = run_sweep(graph, spec, out_dir=str(tmp_path / "clean"))
        monkeypatch.setattr(sweep, "init_model", poisoned)
        with np.errstate(invalid="ignore", over="ignore"):
            result = run_sweep(graph, spec, out_dir=str(tmp_path / "bad"))
        for job in result.jobs:
            if job.depth == 2:
                assert job.ok
                assert job.series.values.tobytes() == clean.job(
                    job.variant, 2, job.seed).series.values.tobytes()
            else:
                assert not job.ok and job.layer == 5
                assert job.error == (
                    "NonFiniteLayerError: non-finite values appeared at layer 5"
                )

        clean_files = read_file_map(tmp_path / "clean")
        bad_files = read_file_map(tmp_path / "bad")
        shallow = [k for k in clean_files if os.sep + "depth-002" + os.sep in k]
        assert len(shallow) == 6 * 4
        for key in shallow:
            assert bad_files[key] == clean_files[key], key
        # each unit keeps the states X^0..X^4 saved before layer 5 failed
        saved = [k for k in bad_files if os.sep + "states" + os.sep in k]
        assert len(saved) == 6 * (5 + 1) * dump_states
        for key in saved:
            if key.endswith(".npy"):
                assert int(key[-7:-4]) < 5 and bad_files[key] == clean_files[key], key
            else:
                assert json.loads(bad_files[key])["states"] == 5, key
        for v in self.SPEC.variants:
            for d in (5, 8):
                for s in (0, 1):
                    job = os.path.join(v, f"depth-{d:03d}", f"seed-{s:02d}")
                    assert sorted(
                        k for k in bad_files if k.startswith(job + os.sep)
                    ) == [os.path.join(job, "report.json")]
        report = json.loads(bad_files[os.path.join(
            "pre_ln", "depth-005", "seed-01", "report.json")])
        assert report["layer"] == 5 and "layer 5" in report["error"]
        summary = json.loads(bad_files["summary.json"])
        assert [(f["variant"], f["depth"], f["seed"], f["layer"])
                for f in summary["failures"]] == [
            (v, d, s, 5) for v in self.SPEC.variants for d in (5, 8) for s in (0, 1)
        ]
        err = capsys.readouterr().err
        assert "post_ln seed 0 depths 2,5,8: failed at depths 5,8" in err

    def test_each_dumped_state_is_saved_once(self, graph, tmp_path, monkeypatch):
        spec = replace(self.SPEC, depths=(2, 8, 16), variants=("post_ln",),
                       seeds=(0,), dump_states=True)
        real, saved = np.save, []

        def counted(path, arr):
            saved.append(path)
            real(path, arr)

        monkeypatch.setattr(np, "save", counted)
        assert run_sweep(graph, spec, out_dir=str(tmp_path)).all_ok
        states = tmp_path / "post_ln" / "seed-00" / "states"
        # states X^0..X^16 once each, not one file a depth
        assert saved == [str(states / f"layer-{k:03d}.npy") for k in range(17)]
        cfg = replace(spec.model_configs["post_ln"], seed=0)
        X = random_features(graph.n, spec.input_dim, seed=spec.feature_seed)
        for k, state in enumerate(stack_states(init_model(cfg), cfg, graph, X)[1]):
            assert np.load(saved[k]).tobytes() == state.tobytes()
        assert json.loads((states / "states.json").read_text())["states"] == 17

    def test_canonical_graph_is_built_once(self, tmp_path, monkeypatch):
        edges = tmp_path / "weighted.txt"
        edges.write_text("0 1 2.0\n1 2 0.5\n2 0 1.5\n2 3 1.0\n")
        spec = replace(self.SPEC, depths=(2,), variants=("post_ln", "pre_ln"))
        real, built = sweep.canonical_energy_graph, []

        def counted(G):
            built.append(G)
            return real(G)

        monkeypatch.setattr(sweep, "canonical_energy_graph", counted)
        assert run_sweep(load_edge_list(str(edges)), spec).all_ok
        assert len(built) == 1  # not one per (variant, seed)

    def test_worker_pool_matches_serial(self, tmp_path, capsys):
        spec = self.SPEC
        argv = [
            "sweep", "--kind", "sbm", "--block-sizes", "15,15",
            "--block-probs", "0.4,0.05;0.05,0.4", "--graph-seed", "0",
            "--depths", "2,5,8", "--seeds", "0,1",
            "--attention", spec.attention.variant, "--heads", str(spec.heads),
            "--hidden-dim", str(spec.hidden_dim), "--input-dim", str(spec.input_dim),
            "--output-dim", str(spec.output_dim),
        ]
        assert main(argv + ["--workers", "1", "--out", str(tmp_path / "serial")]) == 0
        assert main(argv + ["--workers", "2", "--out", str(tmp_path / "pooled")]) == 0
        serial = read_file_map(tmp_path / "serial")
        assert len(serial) == 1 + 3 * 3 * 2 * 4  # summary, then four files a cell
        assert read_file_map(tmp_path / "pooled") == serial
        assert capsys.readouterr().err.count("[6/6]") == 2

    @pytest.mark.parametrize("bad", [5, 8])  # 8: found after the last layer
    def test_failed_measurement_stops_the_pass(
        self, graph, tmp_path, monkeypatch, bad
    ):
        spec = replace(self.SPEC, variants=("post_ln",), seeds=(0,), dump_states=True)
        real_energy, real_step = sweep.derivative_energy, network.layer_step
        calls, steps = [], []

        def energy(G, X, m):
            calls.append(len(calls))
            if calls[-1] >= bad:
                raise ValueError(f"synthetic failure at state {calls[-1]}")
            return real_energy(G, X, m)

        def step(*args):
            steps.append(len(steps) + 1)
            return real_step(*args)

        monkeypatch.setattr(sweep, "derivative_energy", energy)
        monkeypatch.setattr(network, "layer_step", step)
        result = run_sweep(graph, spec, out_dir=str(tmp_path))
        assert [(j.depth, j.ok, j.error, j.layer) for j in result.jobs] == [
            (d, False, f"ValueError: synthetic failure at state {bad}", None)
            for d in (2, 5, 8)
        ]
        assert bad <= len(steps) <= min(bad + 2, 8)  # two layers past it at most
        assert len(calls) == bad + 1  # no state is measured after a failed one
        states = tmp_path / "post_ln" / "seed-00" / "states"
        assert sorted(os.listdir(states)) == [
            f"layer-{k:03d}.npy" for k in range(bad)] + ["states.json"]
        assert json.loads((states / "states.json").read_text())["states"] == bad

    def test_at_most_two_states_in_flight(self, graph, monkeypatch, capsys):
        spec = replace(self.SPEC, variants=("post_ln",), seeds=(0,))
        real_energy, real_step = sweep.derivative_energy, network.layer_step
        measured, in_flight = [], []

        def slow(G, X, m):
            time.sleep(0.02)
            value = real_energy(G, X, m)
            measured.append(value)
            return value

        def step(*args):
            # states 0 .. j-1 are handed over before layer j runs
            in_flight.append(len(in_flight) + 1 - len(measured))
            return real_step(*args)

        clean = run_sweep(graph, spec)
        monkeypatch.setattr(sweep, "derivative_energy", slow)
        monkeypatch.setattr(network, "layer_step", step)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            result = run_sweep(graph, spec)
        finally:
            sys.setswitchinterval(interval)
        assert len(in_flight) == 8 and max(in_flight) == 2
        assert [j.series.values.tobytes() for j in result.jobs] == [
            j.series.values.tobytes() for j in clean.jobs
        ]
        err = capsys.readouterr().err.splitlines()[-1]
        seconds = float(err.split("measuring ")[1].split(" s,")[0])
        assert seconds >= 0.1  # nine states at 0.02 s each


class TestSweepCosine:
    """Each depth's cosine matrix, built from Gram entries taken as the
    states arrive, is ``unit_row_gram`` of that depth's subsample, bit for
    bit."""

    SPEC = SweepSpec(
        depths=(2, 20, 40), variants=("post_ln",), seeds=(0,),
        hidden_dim=8, input_dim=4, output_dim=3,
    )

    @pytest.fixture(scope="class")
    def graph(self):
        return generate_graph(SyntheticSpec(
            kind="sbm", block_sizes=(15, 15),
            block_probs=((0.4, 0.05), (0.05, 0.4)), seed=0,
        ))

    def expected_rows(self, G, X, params, depth):
        spec = self.SPEC
        cfg = ModelConfig(
            input_dim=spec.input_dim, output_dim=spec.output_dim,
            depth=max(spec.depths), hidden_dim=spec.hidden_dim, seed=0,
        )
        _, states = stack_states(params or init_model(cfg), cfg, G, X)
        keep = sweep._subsample(depth + 1, sweep.COSINE_LAYER_CAP)
        matrix = unit_row_gram([unit_rows(states[k]) for k in keep])
        return [[repr(float(x)) for x in row] for row in matrix]

    def written_rows(self, out, depth):
        path = out / "post_ln" / f"depth-{depth:03d}" / "seed-00" / "cosine.csv"
        return csv_columns(path)[1]

    def test_similarity_of_dumped_states_is_the_cell_matrix(self, graph, tmp_path):
        # Up to depth 16 a cell's cosine subsample is every layer, so a
        # depth-d cell's matrix is the top-left (d + 1) x (d + 1) block of the
        # unit's; depth 40 reads every fourth row and column.
        spec = replace(self.SPEC, depths=(2, 16, 40), dump_states=True)
        assert run_sweep(graph, spec, out_dir=str(tmp_path)).all_ok
        out = tmp_path / "similarity.csv"
        states = tmp_path / "post_ln" / "seed-00" / "states"
        assert main(["similarity", "--states", str(states), "--out", str(out)]) == 0
        full = csv_columns(out)[1]
        assert len(full) == 41
        for depth in spec.depths:
            keep = sweep._subsample(depth + 1, sweep.COSINE_LAYER_CAP)
            if depth <= 16:
                assert keep == list(range(depth + 1))
            assert self.written_rows(tmp_path, depth) == [
                [full[r][c] for c in keep] for r in keep]

    @pytest.mark.parametrize("zero_row", [False, True])
    def test_matrices_match_unit_row_gram(
        self, graph, tmp_path, monkeypatch, zero_row
    ):
        X = random_features(graph.n, self.SPEC.input_dim,
                            seed=self.SPEC.feature_seed)
        if zero_row:  # the encoder maps a zero input row to a zero row
            X[3] = 0.0
            monkeypatch.setattr(sweep, "random_features", lambda *a, **k: X.copy())
        result = run_sweep(graph, self.SPEC, out_dir=str(tmp_path))
        assert result.all_ok
        for depth in self.SPEC.depths:
            rows = self.written_rows(tmp_path, depth)
            assert rows == self.expected_rows(graph, X, None, depth)
            # every layer to 2, every second to 20, every fourth to 40
            assert len(rows) == {2: 3, 20: 11, 40: 11}[depth]
            assert (rows[0][0] == "nan") == zero_row  # X^0 is in every subsample
            assert rows[1][1] == "1.0"

    def test_failed_deepest_depth_keeps_shallow_matrices(
        self, graph, tmp_path, monkeypatch
    ):
        real = sweep.init_model
        poisoned = {}

        def poison(config):
            params = real(config)
            layers = list(params.layers)
            layers[29] = replace(layers[29], out_weight=layers[29].out_weight * np.inf)
            poisoned["params"] = replace(params, layers=tuple(layers))
            return poisoned["params"]

        monkeypatch.setattr(sweep, "init_model", poison)
        with np.errstate(invalid="ignore", over="ignore"):
            result = run_sweep(graph, self.SPEC, out_dir=str(tmp_path))
        assert [(j.depth, j.ok, j.layer) for j in result.jobs] == [
            (2, True, None), (20, True, None), (40, False, 30)]
        X = random_features(graph.n, self.SPEC.input_dim,
                            seed=self.SPEC.feature_seed)
        shallow = replace(poisoned["params"], layers=poisoned["params"].layers[:29])
        for depth in (2, 20):
            rows = self.written_rows(tmp_path, depth)
            assert rows == self.expected_rows(graph, X, shallow, depth)
        assert not (tmp_path / "post_ln" / "depth-040" / "seed-00" / "cosine.csv"
                    ).exists()


class TestBlasThreads:
    """A command runs numpy's OpenBLAS on one thread and then restores the
    thread count it found."""

    @pytest.fixture
    def blas_threads(self):
        found = cli._blas_thread_count()
        if found is None:
            pytest.skip("numpy carries no OpenBLAS thread-count symbols")
        get, put = found
        before = get()
        put(2)
        yield get
        put(before)

    def test_command_runs_on_one_thread(
        self, blas_threads, p3_file, monkeypatch, capsys
    ):
        seen = []
        real = cli.cmd_stats

        def spy(args):
            seen.append(blas_threads())
            return real(args)

        monkeypatch.setattr(cli, "cmd_stats", spy)
        assert main(["stats", "--edges", p3_file]) == 0
        assert seen == [1]
        assert blas_threads() == 2

    def test_count_restored_after_a_failed_command(
        self, blas_threads, p3_file, monkeypatch
    ):
        def boom(args):
            assert blas_threads() == 1
            raise RuntimeError("synthetic command failure")

        monkeypatch.setattr(cli, "cmd_stats", boom)
        with pytest.raises(RuntimeError, match="synthetic command failure"):
            main(["stats", "--edges", p3_file])
        assert blas_threads() == 2


class TestSweepMemory:
    """A sweep's memory does not grow with depth. The forward pass holds
    one layer's parameters at a time, and the cosine matrices hold only
    the unit-row forms whose partners have not all arrived yet: at most
    the subsample cap, or nothing without cosine matrices. Peaks are
    traced allocations while the sweep runs."""

    N, HIDDEN, DEPTHS = 3000, 16, (2, 64)

    @pytest.fixture(scope="class")
    def ring(self):
        G = generate_graph(SyntheticSpec(kind="ring", size=self.N, seed=0))
        run_sweep(G, self.spec((1,), False))  # build the graph's caches
        return G

    def spec(self, depths, write_cosine=True):
        return SweepSpec(
            depths=depths, variants=("post_ln",), seeds=(0,),
            hidden_dim=self.HIDDEN, input_dim=8, output_dim=3,
            write_cosine=write_cosine,
        )

    def peak(self, G, tmp_path, depths, write_cosine=True):
        _, peak = traced_peak(lambda: run_sweep(
            G, self.spec(depths, write_cosine), out_dir=str(tmp_path)))
        return peak

    def bound(self, live):
        """One layer's parameters, the encoder and decoder, the live
        forms and one layer's temporaries."""
        cfg = ModelConfig(input_dim=8, output_dim=3, depth=max(self.DEPTHS),
                          hidden_dim=self.HIDDEN)
        params = init_model(cfg)
        one_layer = replace(params, layers=params.layers[:1])
        return nbytes(one_layer) + (live + STATE_TEMPORARIES) * self.N * self.HIDDEN * 8

    def test_holds_only_the_live_cosine_forms(self, ring, tmp_path, capsys):
        peak = self.peak(ring, tmp_path, self.DEPTHS)
        # layers 0, 4, .., 64 of the depth-64 subsample are live together
        assert capsys.readouterr().err.rstrip().endswith(
            "at most 17 of 65 states live")
        assert peak < self.bound(17)

    def test_keeps_no_state_without_cosine(self, ring, tmp_path, capsys):
        peak = self.peak(ring, tmp_path, self.DEPTHS, write_cosine=False)
        assert capsys.readouterr().err.rstrip().endswith(
            "at most 0 of 65 states live")
        assert peak < self.bound(0)

    def test_peak_does_not_grow_with_depth(self, ring, tmp_path, monkeypatch):
        # Measured inline, a state's energy temporaries never overlap the
        # next layer's, so the peak does not depend on thread timing.
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _Inline)
        shallow = self.peak(ring, tmp_path / "shallow", (2, 32))
        deep = self.peak(ring, tmp_path / "deep", sweep.DEFAULT_DEPTHS)
        assert max(sweep.DEFAULT_DEPTHS) == 256
        assert deep - shallow < self.N * self.HIDDEN * 8  # one state


class _Inline:
    """A one-worker executor that runs each task as it is submitted."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


class TestFlow:
    def test_heat_rate_on_p3(self, p3_file, tmp_path, capsys):
        out = tmp_path / "flow"
        rc = main(
            [
                "flow", "--edges", p3_file, "--flow", "heat",
                "--horizon", "14", "--dt", "0.02", "--stride", "50", "--d", "2",
                "--out", str(out),
            ]
        )
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["fit"]["classification"] == "exponential-decay"
        # tail slope is -2 * lambda_2 = -1 on this graph
        assert report["fit"]["exponent"] == pytest.approx(-1.0, rel=0.1)
        assert (out / "energy.csv").exists() and (out / "trajectory.csv").exists()
        assert "exponential-decay" in capsys.readouterr().out

    def test_gated_flow_algebraic_tail(self, p3_file, tmp_path):
        out = tmp_path / "flow"
        rc = main(
            [
                "flow", "--edges", p3_file, "--flow", "nonlocal",
                "--horizon", "100000", "--dt", "0.05", "--d", "2",
                "--out", str(out),
            ]
        )
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["fit"]["classification"] == "algebraic-decay"
        assert report["fit"]["exponent"] == pytest.approx(-1.0, abs=0.2)

    def test_normalized_flow_grows(self, tmp_path):
        out = tmp_path / "flow"
        rc = main(
            [
                "flow", "--kind", "ring", "--size", "16", "--flow", "preln",
                "--horizon", "30", "--stride", "4", "--d", "3",
                "--out", str(out),
            ]
        )
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["fit"]["classification"] == "growth"
        assert report["norm_mass_max_deviation"] < 1e-10
        assert np.isfinite(report["sqrt_energy_slope"])

    def test_energy_times_are_trajectory_times(self, p3_file, tmp_path):
        out = tmp_path / "flow"
        rc = main(
            [
                "flow", "--edges", p3_file, "--flow", "heat",
                "--horizon", "2", "--stride", "3", "--d", "2", "--out", str(out),
            ]
        )
        assert rc == 0
        names, energy = csv_columns(out / "energy.csv")
        assert names == ["time", "energy"]
        names, traj = csv_columns(out / "trajectory.csv")
        assert names[:2] == ["time", "dirichlet"]
        assert len(energy) == len(traj) > 2
        assert [row[0] for row in energy] == [row[0] for row in traj]
        # the unit-weight path is its own canonical graph, so the order-1
        # energy is the trajectory's Dirichlet series, byte for byte
        assert [row[1] for row in energy] == [row[1] for row in traj]

    @pytest.mark.parametrize("order", [1, 2])
    def test_weighted_graph_energy_on_canonical_graph(self, tmp_path, order):
        """``energy.csv`` is measured on the canonical graph and
        ``trajectory.csv`` on the flow's own; each file's note says which."""
        edges = tmp_path / "weighted.txt"
        edges.write_text("0 1 0.5\n1 2 2.0\n2 3 1.5\n")
        out = tmp_path / "flow"
        rc = main(
            [
                "flow", "--edges", str(edges), "--flow", "heat",
                "--horizon", "2", "--stride", "3", "--d", "2",
                "--feature-seed", "3", "--energy-order", str(order),
                "--out", str(out),
            ]
        )
        assert rc == 0
        G = load_edge_list(str(edges))
        canonical = canonical_energy_graph(G)
        assert canonical is not G
        _, states = collect(
            simulate_heat, G, random_features(G.n, 2, seed=3),
            FlowSpec(horizon=2.0, record_stride=3),
        )
        expected = [repr(derivative_energy(canonical, X, order)) for X in states]
        _, energy = csv_columns(out / "energy.csv")
        assert [row[1] for row in energy] == expected
        _, rows = csv_columns(out / "trajectory.csv")
        assert [row[1] for row in rows] != [row[1] for row in energy]
        assert [row[1] for row in rows] == [
            repr(derivative_energy(G, X, 1)) for X in states
        ]
        notes = [(out / name).read_text().splitlines()[1]
                 for name in ("energy.csv", "trajectory.csv")]
        assert notes == [f"# {sweep.MEASUREMENT_NOTE}", f"# {cli.FLOW_GRAPH_NOTE}"]

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--horizon", "0", "horizon must be positive"),
            ("--dt", "-0.5", "dt must be positive"),
            ("--stride", "0", "record_stride must be at least 1"),
            ("--feature-scale", "nan", "feature scale must be finite"),
            ("--feature-scale", "inf", "feature scale must be finite"),
            ("--d", "0", "d must be at least 1, got 0"),
            ("--d", "-3", "d must be at least 1, got -3"),
            ("--horizon", "inf", "horizon must be positive and finite, got inf"),
            ("--horizon", "nan", "horizon must be positive and finite, got nan"),
            ("--dt", "inf", "dt must be positive and finite, got inf"),
            ("--dt", "nan", "dt must be positive and finite, got nan"),
        ],
    )
    def test_bad_flow_argument_fails_before_building_graph(
        self, p3_file, tmp_path, monkeypatch, flag, value, message
    ):
        monkeypatch.setattr(cli, "_resolve_graph", no_graph)
        out = tmp_path / "flow"
        argv = ["flow", "--edges", p3_file, "--flow", "heat", "--horizon", "1"]
        with pytest.raises(SystemExit, match=f"bad flow arguments: {message}"):
            main(argv + [flag, value, "--out", str(out)])
        assert not out.exists()

    def test_negative_energy_order_fails_before_running(self, p3_file, tmp_path):
        out = tmp_path / "flow"
        with pytest.raises(SystemExit, match="energy order must be nonnegative, got -1"):
            main(
                [
                    "flow", "--edges", p3_file, "--flow", "heat",
                    "--horizon", "1", "--energy-order", "-1", "--out", str(out),
                ]
            )
        assert not out.exists()


class TestPrune:
    def test_table_and_report(self, tmp_path, capsys):
        out = tmp_path / "prune"
        rc = main(
            [
                "prune", "--kind", "ring", "--size", "10",
                "--variant", "pre_ln", "--depth", "4",
                "--layers", "2,4", "--seeds", "0,1",
                "--hidden-dim", "8", "--input-dim", "4", "--output-dim", "3",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert "median deviation" in capsys.readouterr().out
        report = json.loads((out / "report.json").read_text())
        assert set(report["medians"]) == {"2", "4"}
        rows = np.loadtxt(out / "prune.csv", delimiter=",", skiprows=3)
        assert rows.shape == (4, 4)

    def test_bad_feature_scale_fails_before_building_graph(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(cli, "_resolve_graph", no_graph)
        with pytest.raises(SystemExit, match="feature scale must be finite"):
            main(
                [
                    "prune", "--kind", "ring", "--size", "10",
                    "--depth", "4", "--layers", "2", "--feature-scale", "nan",
                    "--out", str(tmp_path / "prune"),
                ]
            )
        assert not (tmp_path / "prune").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_leaky_slope_fails_before_building_graph(
        self, tmp_path, monkeypatch, value
    ):
        monkeypatch.setattr(cli, "_resolve_graph", no_graph)
        with pytest.raises(SystemExit, match=rf"^bad model arguments: leaky slope "
                                             rf"must be finite, got {value}$"):
            main(
                [
                    "prune", "--kind", "ring", "--size", "10", "--attention", "gat",
                    "--depth", "4", "--layers", "2", "--leaky-slope", value,
                    "--out", str(tmp_path / "prune"),
                ]
            )
        assert not (tmp_path / "prune").exists()

    def test_bad_heads_fail_before_running(self, tmp_path):
        with pytest.raises(SystemExit, match="heads 3"):
            main(
                [
                    "prune", "--kind", "ring", "--size", "10",
                    "--depth", "4", "--layers", "2", "--heads", "3",
                    "--hidden-dim", "8", "--input-dim", "4", "--output-dim", "3",
                    "--out", str(tmp_path / "prune"),
                ]
            )
        assert not (tmp_path / "prune").exists()

    def test_layer_out_of_range(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_resolve_graph", no_graph)
        for layer in (0, 5):
            with pytest.raises(SystemExit, match=rf"^bad model arguments: layer {layer} "
                                                 r"lies outside \[1, 4\]$"):
                main(
                    [
                        "prune", "--kind", "ring", "--size", "10",
                        "--depth", "4", "--layers", f"2,{layer}",
                        "--hidden-dim", "8", "--input-dim", "4", "--output-dim", "3",
                        "--out", str(tmp_path / "prune"),
                    ]
                )
            assert not (tmp_path / "prune").exists()


SMALL_MODEL = ["--hidden-dim", "8", "--input-dim", "4", "--output-dim", "3"]
# The commands that hash a graph, without their graph flags.
GRAPH_RUNS = {
    "flow": ["flow", "--flow", "heat", "--horizon", "1", "--d", "2"],
    "prune": ["prune", "--depth", "4", "--layers", "2", *SMALL_MODEL],
    "sweep": ["sweep", "--depths", "2", "--seeds", "0", *SMALL_MODEL],
}
# Graph seeds 6 and 7 draw two different graphs with the same 126 edges.
ER_GRAPH = ["--kind", "erdos-renyi", "--size", "30", "--edge-prob", "0.3"]
PRUNE_ARGS = [*GRAPH_RUNS["prune"], "--kind", "ring", "--size", "10"]
FLOW_ARGS = [*GRAPH_RUNS["flow"], *ER_GRAPH]


class TestConfigHash:
    """Two runs whose numbers differ never share a config hash, and the
    same graph hashes alike however it was read."""

    def report_hash(self, out, argv):
        assert main(argv + ["--out", str(out)]) == 0
        report = "summary.json" if argv[0] == "sweep" else "report.json"
        return json.loads((out / report).read_text())["config_hash"]

    @pytest.mark.parametrize("argv, a, b", [
        (PRUNE_ARGS, ["--attention", "san"], ["--attention", "gat"]),
        (FLOW_ARGS, ["--stride", "1"], ["--stride", "3"]),
        (FLOW_ARGS, ["--graph-seed", "6"], ["--graph-seed", "7"]),
        ([*GRAPH_RUNS["prune"], *ER_GRAPH], ["--graph-seed", "6"],
         ["--graph-seed", "7"]),
        ([*GRAPH_RUNS["sweep"], *ER_GRAPH], ["--graph-seed", "6"],
         ["--graph-seed", "7"]),
    ], ids=["prune-attention", "flow-stride", "flow-graph-seed", "prune-graph-seed",
            "sweep-graph-seed"])
    def test_differing_input_changes_hash(self, tmp_path, argv, a, b):
        assert self.report_hash(tmp_path / "a", argv + a) != self.report_hash(
            tmp_path / "b", argv + b
        )

    @pytest.mark.parametrize("command", sorted(GRAPH_RUNS))
    def test_same_named_edge_files_hash_apart(self, tmp_path, command):
        # a path and a star: same file name, same node and edge counts
        hashes = []
        for name, edges in (("a", "0 1\n1 2\n"), ("b", "0 1\n0 2\n")):
            (tmp_path / name).mkdir()
            graph = tmp_path / name / "g.txt"
            graph.write_text(edges)
            argv = [*GRAPH_RUNS[command], "--edges", str(graph)]
            hashes.append(self.report_hash(tmp_path / name / "out", argv))
        assert hashes[0] != hashes[1]

    def test_generated_graph_hashes_as_its_edge_file(self, tmp_path):
        graph = tmp_path / "g.txt"
        assert main(["gen", *ER_GRAPH, "--graph-seed", "6", "--out", str(graph)]) == 0
        assert self.report_hash(
            tmp_path / "a", [*FLOW_ARGS, "--graph-seed", "6"]
        ) == self.report_hash(
            tmp_path / "b", [*GRAPH_RUNS["flow"], "--edges", str(graph)]
        )

    def test_fit_hashes_the_series_data(self, tmp_path):
        hashes = []
        for name, rate in (("a", 0.5), ("b", 0.25)):
            (tmp_path / name).mkdir()
            series = tmp_path / name / "series.csv"
            series.write_text("".join(f"{k},{np.exp(-rate * k)}\n" for k in range(10)))
            out = tmp_path / name / "fit.json"
            assert main(["fit", "--series", str(series), "--out", str(out)]) == 0
            hashes.append(json.loads(out.read_text())["config_hash"])
        assert hashes[0] != hashes[1]

    def test_fit_ignores_the_series_file_name(self, tmp_path):
        hashes = []
        for name in ("a.csv", "b.csv"):
            series = tmp_path / name
            series.write_text("".join(f"{k},{np.exp(-0.5 * k)}\n" for k in range(10)))
            out = tmp_path / f"{name}.json"
            assert main(["fit", "--series", str(series), "--out", str(out)]) == 0
            hashes.append(json.loads(out.read_text())["config_hash"])
        assert hashes[0] == hashes[1]

    def test_similarity_hashes_the_states(self, tmp_path):
        X = np.arange(6.0).reshape(3, 2) + 1.0
        hashes = []
        for name, second in (("a", 2 * X), ("b", X[::-1])):
            states = tmp_path / name
            states.mkdir()
            np.save(states / "layer-000.npy", X)
            np.save(states / "layer-001.npy", second)
            out = tmp_path / f"{name}.csv"
            assert main(["similarity", "--states", str(states), "--out", str(out)]) == 0
            hashes.append(out.read_text().split()[1])  # "config-hash=..."
        assert hashes[0] != hashes[1]



class TestListEntriesAndSeeds:
    """A repeated list entry or a negative seed exits before any graph is
    built, with one line that names the flag or the entry."""

    RUNS = {
        command: [*argv, "--kind", "ring", "--size", "10"]
        for command, argv in [*GRAPH_RUNS.items(), ("gen", ["gen"]), ("stats", ["stats"])]
    }

    def refused(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.setattr(cli, "_resolve_graph", no_graph)
        monkeypatch.setattr(cli, "generate_graph", no_graph)
        out = [] if argv[0] == "stats" else ["--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exit_info:
            main(argv + out)
        assert not (tmp_path / "out").exists()
        return exit_info.value.code, capsys.readouterr().err.splitlines()[-1:]

    @pytest.mark.parametrize("command, flag, value, entry", [
        ("sweep", "--depths", "8,8", 8),
        ("sweep", "--seeds", "0,1,0", 0),
        ("prune", "--layers", "2,2", 2),
        ("prune", "--seeds", "0,0", 0),
    ])
    def test_repeated_list_entry(
        self, tmp_path, monkeypatch, capsys, command, flag, value, entry
    ):
        code, err = self.refused(tmp_path, monkeypatch, capsys,
                                 self.RUNS[command] + [flag, value])
        assert code == 2 and err == [
            f"graphenergy {command}: error: argument {flag}: "
            f"repeated entry {entry} in '{value}'"
        ]

    def test_repeated_variant(self, tmp_path, monkeypatch, capsys):
        argv = self.RUNS["sweep"] + ["--variants", "post_ln,pre_ln,post_ln"]
        code, _ = self.refused(tmp_path, monkeypatch, capsys, argv)
        assert code == "bad sweep arguments: repeated variant 'post_ln'"

    @pytest.mark.parametrize("command, flag, value, config", [
        *[pytest.param(command, flag, "-1", False, id=f"{command}-{flag}")
          for command, flag in [
              ("sweep", "--seeds"), ("sweep", "--feature-seed"), ("sweep", "--graph-seed"),
              ("flow", "--feature-seed"), ("flow", "--graph-seed"),
              ("prune", "--seeds"), ("prune", "--feature-seed"), ("prune", "--graph-seed"),
              ("gen", "--graph-seed"), ("stats", "--graph-seed"),
          ]],
        # a value that is not a plain number, on the command line or from --config
        *[pytest.param(command, flag, value, config,
                       id=f"{command}-{flag}-{value}" + ("-config" if config else ""))
          for command, flag, value in [
              ("sweep", "--seeds", "-1,2"), ("sweep", "--depths", "-2,4"),
              ("prune", "--seeds", "-1,2"), ("prune", "--layers", "-3,4"),
          ]
          for config in (False, True)],
    ])
    def test_negative_seed(
        self, tmp_path, monkeypatch, capsys, command, flag, value, config
    ):
        if config:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{flag[2:]} = {value}\n")
            tail = ["--config", str(cfg)]
        else:
            tail = [flag, value]
        code, err = self.refused(tmp_path, monkeypatch, capsys,
                                 self.RUNS[command] + tail)
        assert code == 2 and err == [
            f"graphenergy {command}: error: argument {flag}: must be nonnegative, "
            f"got {value.split(',')[0]}"
        ]

    @pytest.mark.parametrize("fields, message", [
        (dict(depths=(2, 4, 2)), "repeated depth 2"),
        (dict(variants=("pre_ln", "pre_ln")), "repeated variant 'pre_ln'"),
        (dict(seeds=(3, 3)), "repeated seed 3"),
        (dict(seeds=(0, -1)), "seeds and the feature seed must be nonnegative"),
        (dict(feature_seed=-1), "seeds and the feature seed must be nonnegative"),
    ])
    def test_sweep_spec_refuses(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SweepSpec(**fields)


class TestFit:
    def test_fit_series_file(self, tmp_path, capsys):
        f = tmp_path / "series.csv"
        k = np.arange(1.0, 60.0)
        lines = ["# comment", "layer,energy"]
        lines += [f"{x},{100.0 / x}" for x in k]
        f.write_text("\n".join(lines) + "\n")
        out = tmp_path / "fit.json"
        rc = main(["fit", "--series", str(f), "--out", str(out)])
        assert rc == 0
        assert "algebraic-decay" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["fit"]["exponent"] == pytest.approx(-1.0, abs=1e-9)
        assert "config_hash" in payload

    def test_explicit_window(self, tmp_path, capsys):
        f = tmp_path / "series.csv"
        k = np.arange(0.0, 40.0)
        f.write_text("\n".join(f"{x},{float(np.exp(-0.5 * x))!r}" for x in k) + "\n")
        rc = main(["fit", "--series", str(f), "--window", "5:35"])
        assert rc == 0
        assert "exponential-decay" in capsys.readouterr().out

    def test_bad_window(self, tmp_path):
        f = tmp_path / "series.csv"
        f.write_text("1,1\n2,0.5\n3,0.25\n4,0.125\n5,0.0625\n")
        with pytest.raises(SystemExit, match="window"):
            main(["fit", "--series", str(f), "--window", "oops"])

    @pytest.mark.parametrize("rows, window, named", [
        ([f"{k},{2.0 ** -k}" for k in range(8)], "3:1", ": window lo exceeds hi"),
        (["0,1", "1,0.5", "2,0.25"], "auto", ": need at least five positive points"),
        (["# energies", "0,1", "1,0.5", "2,half"], "auto",
         ":4: non-numeric row '2,half'"),  # the path, then the line
    ], ids=["reversed-window", "three-points", "non-numeric-row"])
    def test_unfittable_series_exits_with_one_line(self, tmp_path, rows, window, named):
        f = tmp_path / "series.csv"
        f.write_text("\n".join(rows) + "\n")
        with pytest.raises(SystemExit) as exit_info:
            main(["fit", "--series", str(f), "--window", window])
        message = str(exit_info.value.code)
        assert message.startswith(f"graphenergy: {f}{named}")
        assert "\n" not in message

    @pytest.mark.parametrize("row, named", [
        ("5,nan", "position 5: index 5.0, value nan"),
        ("5,inf", "position 5: index 5.0, value inf"),
        ("inf,0.03125", "position 5: index inf, value 0.03125"),
    ], ids=["nan-value", "inf-value", "inf-index"])
    def test_nonfinite_series_entry_exits_naming_it(self, tmp_path, capsys, row, named):
        rows = [f"{k},{2.0 ** -k!r}" for k in range(12)]
        rows[5] = row
        f = tmp_path / "series.csv"
        f.write_text("\n".join(rows) + "\n")
        out = tmp_path / "fit.json"
        with pytest.raises(SystemExit) as exit_info:
            main(["fit", "--series", str(f), "--out", str(out)])
        assert exit_info.value.code == (
            f"graphenergy: {f}: non-finite entry at {named}")
        assert not out.exists() and capsys.readouterr().out == ""


class TestMissingFile:
    """A path that cannot be opened or made ends the command in one line
    that names it."""

    @pytest.mark.parametrize("argv, named, message", [
        (["sweep", "--config", "{absent}", "--out", "{tmp}/out"], "{absent}",
         "no such file or directory"),
        (["stats", "--edges", "{absent}"], "{absent}", "no such file or directory"),
        (["stats", "--kind", "ring", "--size", "5", "--features", "{absent}"],
         "{absent}", "no such file or directory"),
        (["fit", "--series", "{absent}"], "{absent}", "no such file or directory"),
        (["similarity", "--states", "{absent}", "--out", "{tmp}/cos.csv"], "{absent}",
         "no such file or directory"),
        (["fit", "--series", "{tmp}"], "{tmp}", "is a directory"),
        (["similarity", "--states", "{states}", "--out", "{tmp}/cos.csv"],
         "{states}/layer-000.npy", "is a directory"),
        (["sweep", "--kind", "ring", "--size", "10", "--depths", "2", "--seeds", "0",
          "--hidden-dim", "8", "--input-dim", "4", "--output-dim", "3",
          "--out", "{file}"], "{file}", "file exists"),
    ], ids=["config", "edges", "features", "series", "states", "series-directory",
            "state-directory", "out-file"])
    def test_names_the_file(self, tmp_path, argv, named, message):
        paths = dict(absent=tmp_path / "absent", tmp=tmp_path,
                     states=tmp_path / "states", file=tmp_path / "file")
        (paths["states"] / "layer-000.npy").mkdir(parents=True)
        paths["file"].write_text("")
        argv = [a.format(**paths) for a in argv]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == f"graphenergy: {named.format(**paths)}: {message}"


class TestBadGraphSource:
    SPARSE = ["--kind", "erdos-renyi", "--size", "50", "--edge-prob", "0.01",
              "--retries", "2"]
    RING = ["--kind", "ring", "--size", "10"]
    MODEL = ["--hidden-dim", "8", "--input-dim", "4", "--output-dim", "3"]

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--edges", "{loop}", "--depths", "2", *MODEL, "--out", "{out}"],
         "{loop}:2: self-loop (2, 2) not allowed"),
        (["flow", "--edges", "{bad}", "--flow", "heat", "--horizon", "1",
          "--out", "{out}"],
         "{bad}:2: expected 'i j' or 'i j w', got '1'"),
        (["prune", "--edges", "{loop}", "--depth", "2", "--layers", "1", *MODEL,
          "--out", "{out}"],
         "{loop}:2: self-loop (2, 2) not allowed"),
        (["stats", "--edges", "{bad}"], "{bad}:2: expected 'i j' or 'i j w', got '1'"),
        (["stats", "--kind", "ring", "--size", "5", "--features", "{rows}"],
         "{rows}: expected 5 rows, found 2"),
        (["stats", "--kind", "ring", "--size", "5", "--features", "{token}"],
         "{token}:2: column 2: non-numeric token 'x'"),
        (["gen", *SPARSE, "--out", "{out}"], "no connected sample within 2 draws"),
        (["flow", *SPARSE, "--flow", "heat", "--horizon", "1", "--out", "{out}"],
         "no connected sample within 2 draws"),
        # refusals met while the flow or the prune scan runs
        (["flow", *RING, "--flow", "heat", "--horizon", "4", "--dt", "5",
          "--out", "{out}"], "step 5 exceeds the stability limit"),
        (["flow", *RING, "--flow", "preln", "--horizon", "4", "--feature-scale", "0",
          "--out", "{out}"], "a feature row collapsed to zero"),
        (["flow", *RING, "--flow", "heat", "--horizon", "4",
          "--feature-scale", "1e200", "--out", "{out}"],
         "order-1 derivative energy is not finite"),
        (["prune", *RING, "--depth", "4", "--layers", "1", "--feature-scale", "0",
          "--out", "{out}"], "seed 0: reference output is identically zero"),
        (["prune", *RING, "--depth", "4", "--layers", "1",
          "--feature-scale", "1e308", "--out", "{out}"],
         "seed 0: non-finite values appeared at layer 0"),
        (["prune", *RING, "--depth", "4", "--layers", "1",
          "--feature-scale", "1e300", "--out", "{out}"],
         "seed 0: reference output norm overflows to inf"),
        *[(["stats", "--edges", "{%s}" % name],
           "{%s}:2: edge (1, 2) has weight %s; edge weights must be finite "
           "and strictly positive" % (name, shown))
          for name, shown in [("nan", "nan"), ("inf", "inf"), ("zero", "0.0"),
                              ("negative", "-2.0")]],
    ], ids=["sweep-loop", "flow-malformed", "prune-loop", "stats-malformed",
            "stats-rows", "stats-token", "gen-retries", "flow-retries",
            "flow-unstable-step", "flow-zero-row", "flow-overflow", "prune-zero",
            "prune-non-finite", "prune-overflow", "stats-nan-weight",
            "stats-inf-weight", "stats-zero-weight", "stats-negative-weight"])
    def test_exits_with_one_line(self, tmp_path, argv, message):
        files = {"loop": "0 1\n2 2\n", "bad": "0 1\n1\n",
                 "rows": "1,2\n3,4\n", "token": "1,2\n3,x\n",
                 **{name: f"0 1 1\n1 2 {w}\n" for name, w in
                    [("nan", "nan"), ("inf", "inf"), ("zero", "0"), ("negative", "-2")]}}
        paths = {"out": tmp_path / "out"}
        for name, text in files.items():
            paths[name] = tmp_path / f"{name}.txt"
            paths[name].write_text(text)
        argv = [a.format(**paths) for a in argv]
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(SystemExit) as exit_info:
            main(argv)
        text = str(exit_info.value.code)
        assert text.startswith("graphenergy: ") and "\n" not in text
        assert message.format(**paths) in text
        assert not paths["out"].exists()


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "depths 2\nseeds 0\nvariants post_ln\n"
            "hidden-dim 8\ninput_dim 4\noutput-dim 3  # underscores work too\n"
        )
        out = tmp_path / "run"
        rc = main(
            [
                "sweep", "--config", str(cfg),
                "--kind", "ring", "--size", "8", "--out", str(out),
            ]
        )
        assert rc == 0
        assert sorted(os.listdir(out)) == ["post_ln", "summary.json"]
        assert os.listdir(out / "post_ln") == ["depth-002"]

    def test_command_line_overrides_config(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("depths 2\nseeds 0\nvariants post_ln\nhidden-dim 8\n")
        out = tmp_path / "run"
        rc = main(
            [
                "sweep", "--config", str(cfg), "--depths", "4",
                "--kind", "ring", "--size", "8",
                "--input-dim", "4", "--output-dim", "3", "--out", str(out),
            ]
        )
        assert rc == 0
        assert os.listdir(out / "post_ln") == ["depth-004"]

    def test_config_without_file_argument(self):
        with pytest.raises(SystemExit, match="--config"):
            main(["sweep", "--config"])


class TestSimilarityErrors:
    def test_empty_states_dir(self, tmp_path):
        empty = tmp_path / "states"
        empty.mkdir()
        with pytest.raises(SystemExit, match="layer-"):
            main(["similarity", "--states", str(empty), "--out", str(tmp_path / "o.csv")])

    @staticmethod
    def exit_line(tmp_path, states) -> str:
        out = tmp_path / "o.csv"
        with pytest.raises(SystemExit) as exit_info:
            main(["similarity", "--states", str(states), "--out", str(out)])
        assert not out.exists()
        message = str(exit_info.value.code)
        assert "\n" not in message
        return message

    def test_states_of_different_shapes(self, tmp_path):
        states = tmp_path / "states"
        states.mkdir()
        np.save(states / "layer-000.npy", np.ones((2, 2)))
        np.save(states / "layer-001.npy", np.ones((3, 2)))
        assert self.exit_line(tmp_path, states) == (
            f"graphenergy: {states / 'layer-001.npy'}: shape (3, 2) differs "
            "from layer-000.npy's (2, 2)")

    def test_non_numeric_entry(self, tmp_path):
        states = tmp_path / "states"
        states.mkdir()
        np.save(states / "layer-000.npy", np.ones((2, 2)))
        np.save(states / "layer-001.npy", np.array([["1.0", "1.0"], ["1.0", "oops"]]))
        assert self.exit_line(tmp_path, states) == (
            f"graphenergy: {states / 'layer-001.npy'}: expected a 2-D numeric "
            "array, found a 2-D <U4 array")

    @pytest.mark.parametrize("write, named", [
        (lambda f: np.save(f, np.array([[1.0, None]]), allow_pickle=True),
         "Object arrays cannot be loaded when allow_pickle=False"),
        (lambda f: np.save(f, np.ones(3)),
         "expected a 2-D numeric array, found a 1-D float64 array"),
        (lambda f: (np.save(f, np.ones((2, 2))), f.write_bytes(f.read_bytes()[:-8])),
         "Failed to read all data for array"),
        (lambda f: f.write_bytes(b""), "No data left in file"),
    ], ids=["pickled", "one-dimensional", "truncated", "empty"])
    def test_unreadable_state(self, tmp_path, write, named):
        states = tmp_path / "states"
        states.mkdir()
        np.save(states / "layer-000.npy", np.ones((2, 2)))
        write(states / "layer-001.npy")
        message = self.exit_line(tmp_path, states)
        assert message.startswith(f"graphenergy: {states / 'layer-001.npy'}: ")
        assert named in message

    def test_states_path_is_a_file(self, tmp_path):
        states = tmp_path / "layer-000.npy"
        np.save(states, np.ones((2, 2)))
        assert self.exit_line(tmp_path, states) == f"graphenergy: {states}: not a directory"

    def test_layers_in_numeric_order(self, tmp_path):
        states = tmp_path / "states"
        states.mkdir()
        X = np.arange(6.0).reshape(3, 2) + 1.0
        for layer, state in ((100, X), (101, -X), (1000, X)):
            np.save(states / f"layer-{layer}.npy", state)
        np.save(states / "layer-x.npy", np.ones((5, 5)))  # not a numbered layer
        out = tmp_path / "cos.csv"
        assert main(["similarity", "--states", str(states), "--out", str(out)]) == 0
        header, rows = csv_columns(out)
        assert header == ["layer-100", "layer-101", "layer-1000"]
        np.testing.assert_allclose(np.array(rows, dtype=float),
                                   [[1, -1, 1], [-1, 1, -1], [1, -1, 1]], atol=1e-12)

    def test_matrix_inputs(self, tmp_path):
        states = tmp_path / "states"
        states.mkdir()
        X = np.arange(6.0).reshape(3, 2) + 1.0
        np.save(states / "layer-000.npy", X)
        np.save(states / "layer-001.npy", 2 * X)
        out = tmp_path / "cos.csv"
        assert main(["similarity", "--states", str(states), "--out", str(out)]) == 0
        matrix = np.loadtxt(out, delimiter=",", skiprows=3)
        np.testing.assert_allclose(matrix, 1.0, atol=1e-12)
