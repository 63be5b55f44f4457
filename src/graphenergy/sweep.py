"""The initialization sweep and the files every command writes.

``run_sweep`` forwards each (variant, seed) once at the deepest depth and
measures every depth's prefix: energies, decay fits, stall verdicts and
cosine matrices, written per cell in a ``variant/depth-XXX/seed-YY``
layout under one ``summary.json``. With ``dump_states`` each state is
saved once, as ``variant/seed-YY/states/layer-KKK.npy`` beside one
``states.json``; a depth-d cell's states are layers 0..d of its
(variant, seed). The output helpers give every
command's files their provenance: the seed, a hash of the producing
configuration, the package version and the measurement convention.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
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
from graphenergy.attention import AttentionKind
from graphenergy.diagnostics import (
    CosineGram,
    EnergySeries,
    FitReport,
    StallVerdict,
    fit_decay,
    relative_change_series,
)
from graphenergy.graph import (
    WeightedGraph,
    canonical_energy_graph,
    derivative_energy,
)
from graphenergy.ingest import (
    check_feature_scale,
    ensure_directory,
    random_features,
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
COSINE_LAYER_CAP = 17  # cosine matrices subsample to at most this many layers


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
        for name, items in (
            ("depth", self.depths), ("variant", self.variants), ("seed", self.seeds)
        ):
            repeated = _repeated(items)
            if repeated:
                raise ValueError(f"repeated {name} {repeated[0]!r}")
        if min(self.seeds) < 0 or self.feature_seed < 0:
            raise ValueError("seeds and the feature seed must be nonnegative")
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
    canonical = canonical_energy_graph(G)
    packed = [(G, canonical, X, spec, unit, out_dir, config_hash) for unit in units]
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

    Each state's energy on ``canonical`` is measured, and with
    ``dump_states`` the state saved once into the unit's ``states``
    directory, on a second thread while the forward pass computes the
    next layers. Measurements run in order, and the forward pass hands over
    state k only once state k-2 is measured, so at most two states are in
    flight. No state is kept. The cosine matrices come from one
    :class:`CosineGram` over every depth's subsample, so the unit-row forms
    held are bounded by the subsample cap per depth, however deep.

    A non-finite layer k fails only the depths that reach it; the k
    energies measured before it still serve every shallower depth, and a
    failed depth's directory holds only its ``report.json``. Any other
    failure fails every depth; a failed measurement also stops the forward
    pass, and the earliest failure in state order is the one reported.
    Either way the states saved before the failure stay, and
    ``states.json`` counts them.
    """
    G, canonical, X, spec, (variant, seed), out_dir, config_hash = packed
    start = time.perf_counter()
    cfg = replace(spec.model_configs[variant], seed=seed)
    gram = CosineGram(
        [_subsample(depth + 1, COSINE_LAYER_CAP) for depth in spec.depths]
        if spec.write_cosine else []
    )
    states_dir = None
    if out_dir is not None and spec.dump_states:
        states_dir = os.path.join(out_dir, variant, f"seed-{seed:02d}", "states")
        if os.path.isdir(states_dir):  # keep no layer of an earlier run
            shutil.rmtree(states_dir)
        ensure_directory(states_dir)
    energies = []
    busy, measured = 0.0, 0

    def measure(k, state):
        nonlocal busy, measured
        if measured < k:  # an earlier measurement failed
            return
        begin = time.perf_counter()
        energies.append(derivative_energy(canonical, state, spec.energy_order))
        gram.add(k, state)
        if states_dir is not None:
            np.save(os.path.join(states_dir, f"layer-{k:03d}.npy"), state)
        measured += 1
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
    if states_dir is not None:
        _write_json(os.path.join(states_dir, "states.json"),
                    {"variant": variant, "states": measured}, config_hash, seed)

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


def _write_job_files(
    out_dir, job: SweepJob, gram: CosineGram, changes, spec: SweepSpec, config_hash
) -> None:
    """Write one cell's files; a failed cell gets only its ``report.json``."""
    directory = os.path.join(out_dir, job.variant, f"depth-{job.depth:03d}",
                             f"seed-{job.seed:02d}")
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


def _repeated(items) -> list:
    """The entries of ``items`` that an earlier entry already gave."""
    return [x for i, x in enumerate(items) if x in items[:i]]


def _subsample(count: int, cap: int) -> list[int]:
    """At most ``cap`` of the layers ``0 .. count - 1``: the multiples of
    the smallest power of two that leaves at most ``cap - 1`` steps, and
    the last layer. A deeper depth's stride is a multiple of a shallower
    one's, so the subsamples of any depths nest (see :class:`CosineGram`).
    """
    stride = 1
    while stride * (cap - 1) < count - 1:
        stride *= 2
    return sorted({*range(0, count, stride), count - 1})


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
