"""Command-line front end: initialization sweeps, flows, pruning scans,
graph generation, dataset stats, series fitting, similarity matrices.

Every output file embeds the seed, a hash of the producing
configuration, the package version, and the measurement convention, so
any number can be traced back to its recipe. No timestamps are written:
re-running a command with the same inputs reproduces every byte.

Subcommands write one CSV per series (``index,value`` rows) and one JSON
per structured report, in a ``variant/depth-XXX/seed-YY`` layout for
sweeps.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import ctypes
import glob
import hashlib
import itertools
import json
import os
import shutil
import sys
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

import graphenergy
from graphenergy.attention import SCORE_VARIANTS, AttentionKind
from graphenergy.diagnostics import (
    CosineGram,
    EnergySeries,
    FitReport,
    StallVerdict,
    cosine_similarity_matrix,
    fit_decay,
    prune_scan,
    relative_change_series,
)
from graphenergy.dynamics import (
    FLOW_GATED,
    FLOW_HEAT,
    FLOW_KINDS,
    FLOW_NORMALIZED,
    FlowSpec,
    simulate_heat,
    simulate_nonlocal,
    simulate_preln_flow,
)
from graphenergy.graph import (
    WeightedGraph,
    canonical_energy_graph,
    derivative_energy,
)
from graphenergy.ingest import (
    GENERATOR_KINDS,
    SyntheticSpec,
    check_feature_scale,
    dataset_stats,
    ensure_directory,
    generate_graph,
    load_edge_list,
    load_features,
    load_matrix,
    random_features,
    write_edge_list,
    write_matrix,
)
from graphenergy.network import (
    MODEL_VARIANTS,
    ModelConfig,
    NonFiniteLayerError,
    forward_trajectory,
    init_model,
)

DEFAULT_DEPTHS = (2, 32, 64, 128, 256)
DEFAULT_SEEDS = tuple(range(10))
DEFAULT_FEATURE_SEED = 7
MEASUREMENT_NOTE = (
    "energies measured on the unit-weight graph with vertex measure "
    "degree+1 over the run topology"
)
FLOW_GRAPH_NOTE = "energies measured on the flow's own weights and vertex measure"
COSINE_LAYER_CAP = 17  # cosine matrices subsample to at most this many layers


def surrogate_spec(seed: int = 0) -> SyntheticSpec:
    """Default synthetic stand-in for a citation graph: seven blocks,
    ~2500 nodes, mean degree ~12 (dense enough that a connected sample
    appears within a few draws)."""
    k = 7
    return SyntheticSpec(
        kind="sbm",
        block_sizes=(358,) * k,
        block_probs=tuple(
            tuple(0.03 if a == b else 0.0004 for b in range(k)) for a in range(k)
        ),
        seed=seed,
    )


@dataclass(frozen=True)
class SweepSpec:
    """One initialization sweep: the cross product of variants, depths,
    and seeds on a single graph.

    ``model_configs`` maps each variant to its model at the deepest depth
    and seed 0, built on construction so that a bad model field fails
    before any cell runs.
    """

    depths: tuple[int, ...] = DEFAULT_DEPTHS
    variants: tuple[str, ...] = MODEL_VARIANTS
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    attention: AttentionKind = field(default_factory=AttentionKind)
    heads: int = 1
    hidden_dim: int = 32
    input_dim: int = 32
    output_dim: int = 7
    feature_seed: int = DEFAULT_FEATURE_SEED
    feature_scale: float = 1.0
    energy_order: int = 2
    dump_states: bool = False
    write_cosine: bool = True
    model_configs: dict[str, ModelConfig] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.depths or not self.variants or not self.seeds:
            raise ValueError("depths, variants, and seeds must be nonempty")
        if min(self.depths) < 1:
            raise ValueError("depths must be positive")
        if self.energy_order < 0:
            raise ValueError(
                f"energy order must be nonnegative, got {self.energy_order}"
            )
        check_feature_scale(self.feature_scale)
        configs = {
            variant: ModelConfig(
                input_dim=self.input_dim,
                output_dim=self.output_dim,
                depth=max(self.depths),
                hidden_dim=self.hidden_dim,
                heads=self.heads,
                variant=variant,
                attention=self.attention,
            )
            for variant in self.variants
        }
        object.__setattr__(self, "model_configs", configs)


@dataclass(frozen=True, eq=False)
class SweepJob:
    """Result of one (variant, depth, seed) cell. ``error`` holds the
    failure message when ``ok`` is False and the numeric fields are
    None; ``layer`` is then the layer index of a non-finite failure."""

    variant: str
    depth: int
    seed: int
    ok: bool
    error: str | None = None
    series: EnergySeries | None = None
    final_energy: float | None = None
    fit: FitReport | None = None
    stall: StallVerdict | None = None
    layer: int | None = None


@dataclass(frozen=True, eq=False)
class SweepResult:
    jobs: tuple[SweepJob, ...]
    out_dir: str | None
    config_hash: str

    @property
    def all_ok(self) -> bool:
        return all(j.ok for j in self.jobs)

    def job(self, variant: str, depth: int, seed: int) -> SweepJob:
        for j in self.jobs:
            if (j.variant, j.depth, j.seed) == (variant, depth, seed):
                return j
        raise KeyError((variant, depth, seed))


def run_sweep(
    G: WeightedGraph,
    spec: SweepSpec,
    out_dir: str | None = None,
    workers: int = 1,
) -> SweepResult:
    """Forward every (variant, depth, seed) cell at initialization and
    measure it; optionally write the per-job artifact tree under
    ``out_dir``. Job failures are recorded, not raised.

    Parameters are drawn layer by layer from one seeded stream, so a
    depth-d stack is the first d layers of a deeper one with the same
    seed: each (variant, seed) runs and measures once at the deepest
    depth, and every depth takes its prefix. Energies and cosine Gram
    entries are taken on a second thread while the next layers run. The
    memory a run holds does not grow with depth: one layer's parameters,
    the states in flight, and the unit-row forms still awaiting a cosine
    partner. One progress line per (variant, seed) goes to stderr.
    """
    X = random_features(
        G.n, spec.input_dim, seed=spec.feature_seed, scale=spec.feature_scale
    )
    meta = _sweep_meta(G, spec)
    config_hash = _config_hash(meta)
    units = [(variant, seed) for variant in spec.variants for seed in spec.seeds]
    packed = [(G, X, spec, unit, out_dir, config_hash) for unit in units]
    cells = {}
    with contextlib.ExitStack() as stack:
        if workers > 1:
            pool = stack.enter_context(
                concurrent.futures.ProcessPoolExecutor(max_workers=workers)
            )
            finished = pool.map(_run_trajectory, packed)
        else:
            finished = map(_run_trajectory, packed)
        for i, ((variant, seed), (jobs, seconds, busy, live, produced)) in enumerate(
            zip(units, finished), start=1
        ):
            failed = [str(j.depth) for j in jobs if not j.ok]
            outcome = f"failed at depths {','.join(failed)}" if failed else "ok"
            print(
                f"sweep [{i}/{len(units)}] {variant} seed {seed} depths "
                f"{','.join(str(d) for d in spec.depths)}: {outcome}, "
                f"{seconds:.1f} s, measuring {busy:.1f} s, "
                f"at most {live} of {produced} states live",
                file=sys.stderr,
            )
            cells.update(((variant, j.depth, seed), j) for j in jobs)

    jobs = tuple(
        cells[variant, depth, seed]
        for variant in spec.variants
        for depth in spec.depths
        for seed in spec.seeds
    )
    result = SweepResult(jobs=jobs, out_dir=out_dir, config_hash=config_hash)
    if out_dir is not None:
        _write_sweep_summary(result, G, meta)
    return result


def _run_trajectory(packed) -> tuple[list[SweepJob], float, float, int, int]:
    """Run one (variant, seed) at the deepest depth and build every
    depth's job from its prefix; returns the jobs, the wall seconds, the
    seconds spent measuring, the most unit-row forms held at once, and
    how many states were produced.

    Each state's energy is measured, and with ``dump_states`` its file
    written into every depth that reaches it, on a second thread while the
    forward pass computes the next layers. Measurements run in order, and
    the forward pass hands over state k only once state k-2 is measured,
    so at most two states are in flight. No state is kept. The cosine
    matrices come from one :class:`CosineGram` over every depth's
    subsample, so the unit-row forms held are bounded by the subsample
    cap per depth, however deep.

    A non-finite layer k fails only the depths that reach it; the k
    energies measured before it still serve every shallower depth, and a
    failed depth's directory holds only its ``report.json``. Any other
    failure fails every depth; a failed measurement also stops the forward
    pass, and the earliest failure in state order is the one reported.
    """
    G, X, spec, (variant, seed), out_dir, config_hash = packed
    start = time.perf_counter()
    cfg = replace(spec.model_configs[variant], seed=seed)
    gram = CosineGram(
        [_subsample(depth + 1, COSINE_LAYER_CAP) for depth in spec.depths]
        if spec.write_cosine else []
    )
    dumps = {
        depth: os.path.join(_job_dir(out_dir, variant, depth, seed), "states")
        for depth in spec.depths
    } if out_dir is not None and spec.dump_states else {}
    canonical = canonical_energy_graph(G)
    energies = []
    busy = 0.0

    def measure(k, state):
        nonlocal busy
        begin = time.perf_counter()
        energies.append(derivative_energy(canonical, state, spec.energy_order))
        gram.add(k, state)
        for depth, states_dir in dumps.items():
            if k == 0:
                ensure_directory(states_dir)
            if k <= depth:
                write_matrix(
                    os.path.join(states_dir, f"layer-{k:03d}.csv"),
                    state,
                    provenance=f"config-hash={config_hash} seed={seed} layer={k}",
                )
        busy += time.perf_counter() - begin

    failure, reached = None, cfg.depth + 1
    in_flight = []
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as meter:

        def observe(k, state):
            if len(in_flight) == 2:
                in_flight[0].result()  # a failed measurement stops the pass
                del in_flight[0]
            in_flight.append(meter.submit(measure, k, state))

        try:
            forward_trajectory(init_model(cfg), cfg, G, X, observe=observe)
        except NonFiniteLayerError as exc:
            failure, reached = exc, exc.layer
        except Exception as exc:  # capture per trajectory, keep the sweep alive
            failure, reached = exc, 0
        # These states precede any forward-pass failure, so the first of
        # their failures is the earliest.
        failed = [f.exception() for f in in_flight if f.exception() is not None]
        if failed:
            failure, reached = failed[0], 0

    jobs = []
    for depth in spec.depths:
        try:
            if depth >= reached:
                raise failure  # this depth reaches the failed layer
            prefix = EnergySeries(
                indices=np.arange(depth + 1, dtype=float),
                values=np.array(energies[: depth + 1]),
            )
            try:
                fit = fit_decay(prefix)
            except ValueError:  # shallow stacks have too few points
                fit = None
            changes = relative_change_series(prefix)
        except Exception as exc:  # capture per job
            job = SweepJob(
                variant=variant,
                depth=depth,
                seed=seed,
                ok=False,
                error=f"{type(exc).__name__}: {exc}",
                layer=exc.layer if isinstance(exc, NonFiniteLayerError) else None,
            )
            changes = None
            if depth in dumps and os.path.isdir(dumps[depth]):
                shutil.rmtree(dumps[depth])
        else:
            job = SweepJob(
                variant=variant,
                depth=depth,
                seed=seed,
                ok=True,
                series=prefix,
                final_energy=float(prefix.values[-1]),
                fit=fit,
                stall=changes.verdict,
            )
        if out_dir is not None:
            _write_job_files(out_dir, job, gram, changes, spec, config_hash)
        jobs.append(job)
    return jobs, time.perf_counter() - start, busy, gram.peak, reached


def _job_dir(out_dir: str, variant: str, depth: int, seed: int) -> str:
    return os.path.join(out_dir, variant, f"depth-{depth:03d}", f"seed-{seed:02d}")


def _write_job_files(
    out_dir, job: SweepJob, gram: CosineGram, changes, spec: SweepSpec, config_hash
) -> None:
    """Write one cell's files; a failed cell gets only its ``report.json``."""
    directory = _job_dir(out_dir, job.variant, job.depth, job.seed)
    ensure_directory(directory)
    report_path = os.path.join(directory, "report.json")
    if not job.ok:
        _write_json(report_path, _failure_record(job), config_hash, job.seed)
        return
    meta = _csv_meta(config_hash, job.seed)
    series = job.series
    _write_csv(
        os.path.join(directory, "energy.csv"),
        meta,
        ("layer", "energy"),
        (series.indices, series.values),
    )
    _write_csv(
        os.path.join(directory, "relative_change.csv"),
        meta,
        ("layer", "relative_change"),
        (series.indices[1:], changes.values),
    )
    if spec.write_cosine:
        keep = _subsample(job.depth + 1, COSINE_LAYER_CAP)
        matrix = gram.matrix(keep)
        _write_csv(
            os.path.join(directory, "cosine.csv"),
            meta + [f"# layers {','.join(str(int(k)) for k in keep)}"],
            tuple(f"layer_{int(k)}" for k in keep),
            tuple(matrix[:, c] for c in range(matrix.shape[1])),
        )
    report = {
        "variant": job.variant,
        "depth": job.depth,
        "seed": job.seed,
        "final_energy": job.final_energy,
        "energy_order": spec.energy_order,
        "fit": None if job.fit is None else asdict(job.fit),
        "stall": asdict(job.stall),
    }
    _write_json(report_path, report, config_hash, job.seed)


def _failure_record(job: SweepJob) -> dict:
    """A failed cell as its ``report.json`` and ``summary.json`` list it."""
    fields = ("variant", "depth", "seed", "error", "layer")
    return {name: getattr(job, name) for name in fields}


def _write_sweep_summary(result: SweepResult, G: WeightedGraph, meta: dict):
    summary = {
        "graph": {
            "digest": meta["graph"],
            "nodes": G.n,
            "edges": int(G.indices.size // 2),
        },
        "seeds": meta["seeds"],
        "cells": {},
        "failures": [_failure_record(j) for j in result.jobs if not j.ok],
    }
    # run_sweep orders the jobs by variant, then depth, then seed
    cells = itertools.groupby(result.jobs, key=lambda j: (j.variant, j.depth))
    for (variant, depth), cell in cells:
        finished = [j for j in cell if j.ok]
        if not finished:
            continue
        labels = [j.fit.classification for j in finished if j.fit]
        summary["cells"][f"{variant}/depth-{depth:03d}"] = {
            "median_final_energy": float(np.median([j.final_energy for j in finished])),
            "classifications": {c: labels.count(c) for c in sorted(set(labels))},
            "stalled": sum(j.stall.stalled for j in finished),
        }
    _write_json(
        os.path.join(result.out_dir, "summary.json"),
        summary,
        result.config_hash,
        None,
    )


def _subsample(count: int, cap: int) -> list[int]:
    if count <= cap:
        return list(range(count))
    return sorted({int(k) for k in np.linspace(0, count - 1, cap).round()})


# ---------------------------------------------------------------- output


def _config_hash(meta: dict) -> str:
    blob = json.dumps(meta, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _sweep_meta(G: WeightedGraph, spec: SweepSpec) -> dict:
    return {
        "graph": _graph_digest(G),
        "depths": list(spec.depths),
        "variants": list(spec.variants),
        "seeds": list(spec.seeds),
        **_model_meta(spec, spec.attention),
        "energy_order": spec.energy_order,
        "version": graphenergy.__version__,
    }


def _model_meta(settings, attention: AttentionKind) -> dict:
    """The model and feature settings of a model run, read by name from a
    ``SweepSpec`` or from parsed ``prune`` arguments."""
    fields = "heads hidden_dim input_dim output_dim feature_seed feature_scale"
    meta = {name: getattr(settings, name) for name in fields.split()}
    meta["attention"] = [attention.variant, attention.leaky_slope]
    return meta


def _data_digest(arrays) -> str:
    """Digest of the shapes and values of the arrays a command read."""
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(repr(a.shape).encode())
        digest.update(np.ascontiguousarray(a))
    return digest.hexdigest()[:12]


def _graph_digest(G: WeightedGraph) -> str:
    """Digest of the graph's edges, weights and vertex measure."""
    return _data_digest((
        G.indptr.astype(np.int64, copy=False),
        G.indices.astype(np.int64, copy=False),
        G.weights.astype(np.float64, copy=False),
        G.measure.astype(np.float64, copy=False),
    ))


def _csv_meta(config_hash: str, seed, note: str = MEASUREMENT_NOTE) -> list[str]:
    seed_part = "" if seed is None else f" seed={seed}"
    return [
        f"# config-hash={config_hash}{seed_part} "
        f"version={graphenergy.__version__}",
        f"# {note}",
    ]


def _write_csv(path, meta_lines, names, columns) -> None:
    columns = [np.asarray(c, dtype=float) for c in columns]
    with open(path, "w") as fh:
        for line in meta_lines:
            fh.write(line + "\n")
        fh.write(",".join(names) + "\n")
        for row in zip(*columns):
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def _read_series_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Two-column series reader tolerating '#' comments and one optional
    column-name row."""
    rows = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = [t for t in line.split(",") if t.strip()]
            try:
                rows.append([float(t) for t in tokens[:2]])
            except ValueError:
                if rows:
                    raise ValueError(f"non-numeric row {raw.strip()!r}") from None
                continue  # header row
    if not rows or any(len(r) < 2 for r in rows):
        raise ValueError("expected two numeric columns")
    data = np.asarray(rows)
    return data[:, 0], data[:, 1]


def _write_json(path, payload: dict, config_hash: str, seed) -> None:
    body = dict(payload)
    body["config_hash"] = config_hash
    if seed is not None:
        body["seed"] = seed
    body["version"] = graphenergy.__version__
    body["measurement"] = MEASUREMENT_NOTE
    with open(path, "w") as fh:
        json.dump(_jsonable(body), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        out = float(value)
        return None if np.isnan(out) else out
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


# ------------------------------------------------------------- argument


def _add_graph_source(parser: argparse.ArgumentParser, edges: bool = True) -> None:
    if edges:
        parser.add_argument("--edges", help="edge-list file; omit to generate")
    parser.add_argument(
        "--kind",
        choices=GENERATOR_KINDS,
        help="synthetic graph kind when --edges is absent "
        "(default: the sbm surrogate)",
    )
    parser.add_argument("--size", type=int, help="node count (path/ring/erdos-renyi)")
    parser.add_argument("--rows", type=int, help="grid2d rows")
    parser.add_argument("--cols", type=int, help="grid2d cols")
    parser.add_argument("--edge-prob", type=float, help="erdos-renyi edge probability")
    parser.add_argument(
        "--block-sizes", help="sbm: comma-separated block sizes, e.g. 50,50"
    )
    parser.add_argument(
        "--block-probs",
        help="sbm: semicolon-separated rows of comma-separated "
        "probabilities, e.g. 0.5,0.1;0.1,0.5",
    )
    parser.add_argument("--graph-seed", type=int, default=0)
    parser.add_argument("--retries", type=int, default=50)


def _synthetic_spec_from_args(args) -> SyntheticSpec:
    if args.kind is None:
        return surrogate_spec(args.graph_seed)
    kwargs = dict(kind=args.kind, seed=args.graph_seed, max_retries=args.retries)
    if args.kind in ("path", "ring", "erdos-renyi"):
        kwargs["size"] = args.size
    if args.kind == "grid2d":
        if args.rows is None or args.cols is None:
            raise SystemExit("grid2d needs --rows and --cols")
        kwargs["shape"] = (args.rows, args.cols)
    if args.kind == "erdos-renyi":
        kwargs["edge_prob"] = args.edge_prob
    if args.kind == "sbm":
        if not args.block_sizes or not args.block_probs:
            raise SystemExit("sbm needs --block-sizes and --block-probs")
        kwargs["block_sizes"] = tuple(
            int(s) for s in args.block_sizes.split(",") if s
        )
        kwargs["block_probs"] = tuple(
            tuple(float(p) for p in row.split(",") if p)
            for row in args.block_probs.split(";")
            if row
        )
    try:
        return SyntheticSpec(**kwargs)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"bad generator arguments: {exc}") from None


def _resolve_graph(args) -> tuple[WeightedGraph, str]:
    """The graph ``--edges`` names or the generator flags describe, and
    its digest. A bad edge list, or a generator out of retries, exits
    with one line."""
    try:
        if args.edges:
            G = load_edge_list(args.edges)
        else:
            G = generate_graph(_synthetic_spec_from_args(args))
    except (ValueError, RuntimeError) as exc:
        raise SystemExit(f"graphenergy: {exc}") from None
    return G, _graph_digest(G)


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--hidden-dim", type=int, default=32)
    parser.add_argument("--heads", type=int, default=1)
    parser.add_argument("--attention", choices=SCORE_VARIANTS, default="san")
    parser.add_argument("--leaky-slope", type=float, default=0.2)
    parser.add_argument("--input-dim", type=int, default=32)
    parser.add_argument("--output-dim", type=int, default=7)
    parser.add_argument("--feature-seed", type=int, default=DEFAULT_FEATURE_SEED)
    parser.add_argument("--feature-scale", type=float, default=1.0)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        items = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")
    if not items:
        raise argparse.ArgumentTypeError("empty list")
    return items


def _expand_config(argv: list[str]) -> list[str]:
    """Splice ``--config FILE`` key/value lines in as long-form flags,
    ahead of explicit flags so the command line wins."""
    if "--config" not in argv:
        return argv
    at = argv.index("--config")
    if at + 1 >= len(argv):
        raise SystemExit("--config needs a file argument")
    path = argv[at + 1]
    tokens: list[str] = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.replace("=", " ", 1).split(None, 1)
            key = parts[0].strip().replace("_", "-")
            tokens.append(f"--{key}")
            if len(parts) > 1 and parts[1].strip():
                tokens.append(parts[1].strip())
    head, tail = argv[:at], argv[at + 2 :]
    insert_at = 1 if head else 0  # right after the subcommand name
    return head[:insert_at] + tokens + head[insert_at:] + tail


# ----------------------------------------------------------- subcommands


def cmd_sweep(args) -> int:
    attention = AttentionKind(variant=args.attention, leaky_slope=args.leaky_slope)
    try:
        spec = SweepSpec(
            depths=args.depths,
            variants=tuple(args.variants.split(",")),
            seeds=args.seeds,
            attention=attention,
            heads=args.heads,
            hidden_dim=args.hidden_dim,
            input_dim=args.input_dim,
            output_dim=args.output_dim,
            feature_seed=args.feature_seed,
            feature_scale=args.feature_scale,
            energy_order=args.energy_order,
            dump_states=args.dump_states,
            write_cosine=not args.no_cosine,
        )
        if args.workers < 1:
            raise ValueError(f"workers must be at least 1, got {args.workers}")
    except ValueError as exc:
        raise SystemExit(f"bad sweep arguments: {exc}") from None
    G, _ = _resolve_graph(args)
    ensure_directory(args.out)
    result = run_sweep(G, spec, out_dir=args.out, workers=args.workers)
    failed = [j for j in result.jobs if not j.ok]
    print(
        f"sweep: {len(result.jobs) - len(failed)}/{len(result.jobs)} jobs ok, "
        f"config-hash {result.config_hash}, output {args.out}"
    )
    for j in failed:
        print(f"  failed {j.variant}/depth-{j.depth}/seed-{j.seed}: {j.error}")
    return 0 if result.all_ok else 1


def cmd_flow(args) -> int:
    try:
        if args.energy_order < 0:
            raise ValueError(
                f"energy order must be nonnegative, got {args.energy_order}"
            )
        if args.d < 1:
            raise ValueError(f"d must be at least 1, got {args.d}")
        check_feature_scale(args.feature_scale)
        spec = FlowSpec(horizon=args.horizon, dt=args.dt, record_stride=args.stride)
    except ValueError as exc:
        raise SystemExit(f"bad flow arguments: {exc}") from None
    G, graph = _resolve_graph(args)
    X0 = random_features(G.n, args.d, seed=args.feature_seed, scale=args.feature_scale)
    simulate = {
        FLOW_HEAT: simulate_heat,
        FLOW_GATED: simulate_nonlocal,
        FLOW_NORMALIZED: simulate_preln_flow,
    }[args.flow]
    # Each record is measured as the flow produces it. On a graph that is
    # already canonical the order-1 energy is the trajectory's own
    # Dirichlet series, so it is not measured twice.
    canonical = canonical_energy_graph(G)
    energies = []
    observe = None
    if canonical is not G or args.energy_order != 1:
        def observe(t, X):
            energies.append(derivative_energy(canonical, X, args.energy_order))
    trajectory = simulate(G, X0, spec, observe=observe)
    series = EnergySeries(
        indices=trajectory.times,
        values=trajectory.dirichlet if observe is None else np.array(energies),
    )

    meta = {
        "graph": graph,
        "flow": args.flow,
        "horizon": args.horizon,
        "dt": args.dt,
        "stride": args.stride,
        "feature_seed": args.feature_seed,
        "feature_scale": args.feature_scale,
        "d": args.d,
        "energy_order": args.energy_order,
        "version": graphenergy.__version__,
    }
    config_hash = _config_hash(meta)
    ensure_directory(args.out)
    _write_csv(
        os.path.join(args.out, "energy.csv"),
        _csv_meta(config_hash, args.feature_seed),
        ("time", "energy"),
        (series.indices, series.values),
    )
    _write_csv(
        os.path.join(args.out, "trajectory.csv"),
        _csv_meta(config_hash, args.feature_seed, FLOW_GRAPH_NOTE),
        ("time", "dirichlet", "laplacian", "gate"),
        (trajectory.times, trajectory.dirichlet, trajectory.laplacian, trajectory.gate),
    )
    report: dict = {"flow": args.flow, "lambda_max": trajectory.lambda_max}
    try:
        fit = fit_decay(series)
        report["fit"] = asdict(fit)
        print(
            f"flow {args.flow}: {fit.classification}, slope {fit.exponent:.4g}, "
            f"R^2 {fit.r_squared:.4f}"
        )
    except ValueError as exc:
        report["fit"] = None
        report["fit_error"] = str(exc)
        print(f"flow {args.flow}: fit unavailable ({exc})")
    if trajectory.norm_mass is not None:
        report["norm_mass_max_deviation"] = float(
            np.abs(trajectory.norm_mass - G.n).max()
        )
        scaled = np.sqrt(G.n * trajectory.dirichlet)
        report["sqrt_energy_slope"] = _sqrt_growth_slope(trajectory.times, scaled)
    _write_json(
        os.path.join(args.out, "report.json"), report, config_hash, args.feature_seed
    )
    return 0


def _sqrt_growth_slope(times: np.ndarray, scaled: np.ndarray) -> float:
    mask = times > 0
    if mask.sum() < 2:
        return 0.0
    return float(np.polyfit(times[mask], scaled[mask], 1)[0])


def cmd_prune(args) -> int:
    attention = AttentionKind(variant=args.attention, leaky_slope=args.leaky_slope)
    try:
        check_feature_scale(args.feature_scale)
        base = ModelConfig(
            input_dim=args.input_dim,
            output_dim=args.output_dim,
            depth=args.depth,
            hidden_dim=args.hidden_dim,
            heads=args.heads,
            variant=args.variant,
            attention=attention,
        )
        for layer in args.layers:
            if not 1 <= layer <= args.depth:
                raise ValueError(f"layer {layer} lies outside [1, {args.depth}]")
    except ValueError as exc:
        raise SystemExit(f"bad model arguments: {exc}") from None
    G, graph = _resolve_graph(args)
    X = random_features(
        G.n, args.input_dim, seed=args.feature_seed, scale=args.feature_scale
    )
    rows = []
    for seed in args.seeds:
        cfg = replace(base, seed=seed)
        for report in prune_scan(init_model(cfg), cfg, G, X, args.layers):
            rows.append((report.layer, seed, report.deviation, report.mean_cosine))

    meta = {
        "graph": graph,
        "variant": args.variant,
        "depth": args.depth,
        "layers": list(args.layers),
        "seeds": list(args.seeds),
        **_model_meta(args, attention),
        "version": graphenergy.__version__,
    }
    config_hash = _config_hash(meta)
    medians = {
        layer: float(np.median([dev for lay, _, dev, _ in rows if lay == layer]))
        for layer in args.layers
    }
    print(f"prune deviations ({args.variant}, depth {args.depth}):")
    for layer in args.layers:
        print(f"  layer {layer:4d}: median deviation {medians[layer]:.6g}")
    if args.out:
        ensure_directory(args.out)
        _write_csv(
            os.path.join(args.out, "prune.csv"),
            _csv_meta(config_hash, None),
            ("layer", "seed", "deviation", "mean_cosine"),
            tuple(np.array(col, dtype=float) for col in zip(*rows)),
        )
        _write_json(
            os.path.join(args.out, "report.json"),
            {"medians": {str(k): v for k, v in medians.items()}, **meta},
            config_hash,
            None,
        )
    return 0


def cmd_gen(args) -> int:
    try:
        G = generate_graph(_synthetic_spec_from_args(args))
    except RuntimeError as exc:
        raise SystemExit(f"graphenergy: {exc}") from None
    write_edge_list(args.out, G)
    stats = dataset_stats(G)
    print(
        f"wrote {args.out}: nodes {stats.nodes}, edges {stats.edges}, "
        f"components {stats.components}"
    )
    return 0


def cmd_stats(args) -> int:
    G, graph = _resolve_graph(args)
    try:
        features = load_features(args.features, G.n) if args.features else None
    except ValueError as exc:
        raise SystemExit(f"graphenergy: {exc}") from None
    stats = dataset_stats(G, features=features)
    parts = [f"nodes {stats.nodes}", f"edges {stats.edges}"]
    if stats.feature_dim is not None:
        parts.append(f"features {stats.feature_dim}")
    parts.append(f"components {stats.components}")
    print(f"{graph}: " + ", ".join(parts))
    return 0


def cmd_fit(args) -> int:
    window = "auto"
    if args.window != "auto":
        lo, _, hi = args.window.partition(":")
        try:
            window = (float(lo), float(hi))
        except ValueError:
            raise SystemExit(
                f"--window must be 'auto' or 'lo:hi', got {args.window!r}"
            ) from None
    try:
        indices, values = _read_series_csv(args.series)
        fit = fit_decay(EnergySeries(indices=indices, values=values), window=window)
    except ValueError as exc:
        raise SystemExit(f"graphenergy: {args.series}: {exc}") from None
    payload = asdict(fit)
    config_hash = _config_hash(
        {"data": _data_digest((indices, values)), "window": args.window}
    )
    if args.out:
        _write_json(args.out, {"fit": payload}, config_hash, None)
    print(
        f"{fit.classification}: law {fit.law}, slope {fit.exponent:.6g}, "
        f"R^2 {fit.r_squared:.4f}, window [{fit.window[0]:g}, {fit.window[1]:g}]"
    )
    return 0


def cmd_similarity(args) -> int:
    names = sorted(
        name
        for name in os.listdir(args.states)
        if name.startswith("layer-") and name.endswith(".csv")
    )
    if not names:
        raise SystemExit(f"{args.states}: no layer-*.csv files")
    states = []
    for name in names:
        path = os.path.join(args.states, name)
        try:
            states.append(load_matrix(path))
            if states[-1].shape != states[0].shape:
                raise ValueError(f"shape {states[-1].shape} differs from "
                                 f"{names[0]}'s {states[0].shape}")
        except ValueError as exc:
            raise SystemExit(f"graphenergy: {path}: {exc}") from None
    matrix = cosine_similarity_matrix(states)
    config_hash = _config_hash({"states": names, "data": _data_digest(states)})
    _write_csv(
        args.out,
        _csv_meta(config_hash, None),
        tuple(name[:-4] for name in names),
        tuple(matrix[:, c] for c in range(matrix.shape[1])),
    )
    print(f"wrote {args.out}: {matrix.shape[0]}x{matrix.shape[1]} cosine matrix")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphenergy",
        description="initialization-time energy diagnostics for attention "
        "message passing on graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="variant x depth x seed forward sweep")
    _add_graph_source(p)
    _add_model_flags(p)
    p.add_argument("--depths", type=_int_list, default=DEFAULT_DEPTHS)
    p.add_argument("--variants", default=",".join(MODEL_VARIANTS))
    p.add_argument("--seeds", type=_int_list, default=DEFAULT_SEEDS)
    p.add_argument("--energy-order", type=int, default=2)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--dump-states", action="store_true")
    p.add_argument("--no-cosine", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("flow", help="integrate a feature flow")
    _add_graph_source(p)
    p.add_argument("--flow", choices=FLOW_KINDS, required=True)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--d", type=int, default=4, help="feature columns")
    p.add_argument("--feature-seed", type=int, default=DEFAULT_FEATURE_SEED)
    p.add_argument("--feature-scale", type=float, default=1.0)
    p.add_argument("--energy-order", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("prune", help="single-layer pruning deviation scan")
    _add_graph_source(p)
    _add_model_flags(p)
    p.add_argument("--variant", choices=MODEL_VARIANTS, default="pre_ln")
    p.add_argument("--depth", type=int, default=32)
    p.add_argument("--layers", type=_int_list, required=True)
    p.add_argument("--seeds", type=_int_list, default=(0,))
    p.add_argument("--out")
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("gen", help="write a synthetic graph to an edge list")
    _add_graph_source(p, edges=False)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("stats", help="dataset summary counts")
    _add_graph_source(p)
    p.add_argument("--features")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("fit", help="fit a decay law to a series CSV")
    p.add_argument("--series", required=True)
    p.add_argument("--window", default="auto", help="'auto' or 'lo:hi'")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("similarity", help="cosine matrix of dumped states")
    p.add_argument("--states", required=True, help="directory of layer-*.csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_similarity)

    return parser


def _blas_thread_count():
    """``(get, set)`` for the thread count of numpy's bundled OpenBLAS,
    or None when numpy carries no OpenBLAS that exports them."""
    libs = os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run numpy's OpenBLAS on one thread, then restore the count it had.

    A second BLAS thread gains a sweep no wall time: its n x 32 by 32 x 64
    products are too narrow to share, and the idle thread busy-waits
    between them on the core that the sweep's measurement thread uses.
    """
    found = _blas_thread_count()
    if found is None:
        yield
        return
    get, put = found
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(_expand_config(argv))
        with _one_blas_thread():
            return args.func(args)
    except (FileNotFoundError, NotADirectoryError) as exc:
        if exc.filename is None:
            raise
        raise SystemExit(
            f"graphenergy: {exc.filename}: {exc.strerror.lower()}"
        ) from None


if __name__ == "__main__":
    raise SystemExit(main())