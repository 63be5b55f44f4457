"""Command-line front end: initialization sweeps, flows, pruning scans,
graph generation, dataset stats, series fitting, similarity matrices.

Every output file embeds the seed, a hash of the producing
configuration, the package version, and the measurement convention, so
any number can be traced back to its recipe. No timestamps are written:
re-running a command with the same inputs reproduces every byte.

Subcommands write one CSV per series (``index,value`` rows) and one JSON
per structured report, in a ``variant/depth-XXX/seed-YY`` layout for
sweeps. ``sweep --dump-states`` saves each state once, as
``variant/seed-YY/states/layer-KKK.npy``, and ``similarity`` reads such a
directory.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import os
import re
import sys
from dataclasses import asdict, replace

import numpy as np

import graphenergy
from graphenergy.attention import SCORE_VARIANTS, AttentionKind
from graphenergy.diagnostics import (
    EnergySeries,
    _ls_slope,
    cosine_similarity_matrix,
    fit_decay,
    prune_scan,
)
from graphenergy.dynamics import (
    FLOW_GATED,
    FLOW_HEAT,
    FLOW_KINDS,
    FLOW_NORMALIZED,
    FlowInstabilityError,
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
    random_features,
    write_edge_list,
)
from graphenergy.network import (
    MODEL_VARIANTS,
    ModelConfig,
    NonFiniteLayerError,
    forward_trajectory,  # noqa: F401  (the benchmark's tracer tests patch it here)
    init_model,
)
from graphenergy.sweep import (
    DEFAULT_DEPTHS,
    DEFAULT_FEATURE_SEED,
    DEFAULT_SEEDS,
    SweepSpec,
    _config_hash,
    _csv_meta,
    _data_digest,
    _graph_digest,
    _model_meta,
    _repeated,
    _write_csv,
    _write_json,
    run_sweep,
)

FLOW_GRAPH_NOTE = "energies measured on the flow's own weights and vertex measure"


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


def _read_series_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Two-column series reader tolerating '#' comments and one optional
    column-name row. Every refusal names the file, and a later
    non-numeric row its ``path:line``."""
    rows = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = [t for t in line.split(",") if t.strip()]
            try:
                rows.append([float(t) for t in tokens[:2]])
            except ValueError:
                if rows:
                    raise ValueError(
                        f"{path}:{lineno}: non-numeric row {raw.strip()!r}"
                    ) from None
                continue  # header row
    if not rows or any(len(r) < 2 for r in rows):
        raise ValueError(f"{path}: expected two numeric columns")
    data = np.asarray(rows)
    return data[:, 0], data[:, 1]


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
    parser.add_argument("--graph-seed", type=_nonnegative, default=0)
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
    parser.add_argument("--feature-seed", type=_nonnegative, default=DEFAULT_FEATURE_SEED)
    parser.add_argument("--feature-scale", type=float, default=1.0)


def _nonnegative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _int_list(text: str) -> tuple[int, ...]:
    items = tuple(_nonnegative(tok) for tok in text.split(",") if tok.strip())
    if not items:
        raise argparse.ArgumentTypeError("empty list")
    repeated = _repeated(items)
    if repeated:
        raise argparse.ArgumentTypeError(f"repeated entry {repeated[0]} in {text!r}")
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


def _join_dash_values(argv: list[str]) -> list[str]:
    """Write ``--flag -1,2`` as ``--flag=-1,2``: argparse takes ``-1,2`` for
    an option, and every option here is a ``--long`` flag."""
    joined = argv[:1]
    for token in argv[1:]:
        if re.match(r"-\d", token) and re.fullmatch(r"--[\w-]+", joined[-1]):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


# ----------------------------------------------------------- subcommands


def cmd_sweep(args) -> int:
    try:
        attention = AttentionKind(variant=args.attention, leaky_slope=args.leaky_slope)
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
    try:
        trajectory = simulate(G, X0, spec, observe=observe)
    except (FlowInstabilityError, ValueError) as exc:
        raise SystemExit(f"graphenergy: {exc}") from None
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
        report["sqrt_energy_slope"] = _ls_slope(trajectory.times[1:], scaled[1:])
    _write_json(
        os.path.join(args.out, "report.json"), report, config_hash, args.feature_seed
    )
    return 0


def cmd_prune(args) -> int:
    try:
        attention = AttentionKind(variant=args.attention, leaky_slope=args.leaky_slope)
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
        try:
            reports = prune_scan(init_model(cfg), cfg, G, X, args.layers)
        except (NonFiniteLayerError, ValueError) as exc:
            raise SystemExit(f"graphenergy: seed {seed}: {exc}") from None
        for report in reports:
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
    G, _ = _resolve_graph(args)
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
    except ValueError as exc:
        raise SystemExit(f"graphenergy: {exc}") from None
    try:
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
    files = (re.fullmatch(r"layer-(\d+)\.npy", n) for n in os.listdir(args.states))
    names = [m[0] for m in sorted(filter(None, files), key=lambda m: (int(m[1]), m[0]))]
    if not names:
        raise SystemExit(f"{args.states}: no layer-*.npy files")
    states = []
    for name in names:
        path = os.path.join(args.states, name)
        try:
            states.append(load_features(path))
        except ValueError as exc:
            raise SystemExit(f"graphenergy: {exc}") from None
        if states[-1].shape != states[0].shape:
            raise SystemExit(f"graphenergy: {path}: shape {states[-1].shape} "
                             f"differs from {names[0]}'s {states[0].shape}")
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
    p.add_argument("--feature-seed", type=_nonnegative, default=DEFAULT_FEATURE_SEED)
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
    p.set_defaults(func=cmd_gen, edges=None)

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
    p.add_argument("--states", required=True,
                   help="directory of layer-*.npy, as sweep --dump-states writes")
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
        args = build_parser().parse_args(_join_dash_values(_expand_config(argv)))
        with _one_blas_thread():
            return args.func(args)
    except OSError as exc:
        if exc.filename is None or exc.strerror is None:
            raise
        raise SystemExit(
            f"graphenergy: {exc.filename}: {exc.strerror.lower()}"
        ) from None


if __name__ == "__main__":
    raise SystemExit(main())