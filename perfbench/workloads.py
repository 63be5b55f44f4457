"""The benchmark's workloads: the ``graphenergy`` command lines each one
runs, built from the workload seed, and the work each one needs.

The seed sets ``--seeds``, ``--graph-seed`` and ``--feature-seed`` of every
command, so the same seed gives the same inputs. Every command runs in
one process with ``--workers 1`` where the command has that flag.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

SWEEP_VARIANTS = ("post_ln", "pre_ln", "nonlocal_post_ln")
SWEEP_DEPTHS = (2, 32, 64, 128, 256)

PRUNE_DEPTH = 256
PRUNE_SCANS = (
    ("pre_ln", (2, 224)),
    ("nonlocal_post_ln", (2, 32, 64, 96, 128, 160, 192, 224)),
)
# Criterion 8's graph: 7 blocks of 72 nodes, p 0.15 inside a block and
# 0.002 between blocks.
PRUNE_GRAPH = (
    "--kind", "sbm",
    "--block-sizes", ",".join(["72"] * 7),
    "--block-probs", ";".join(
        ",".join("0.15" if a == b else "0.002" for b in range(7)) for a in range(7)
    ),
)

# The default surrogate's seven blocks and probabilities (0.03 inside a
# block, 0.0004 between blocks) at 285 nodes a block: 1,995 nodes, so that
# estimate_lambda_max takes its dense path. On the 2,506-node surrogate it
# calls eigsh without a start vector, and lambda_max, the step sizes and
# every flow artifact then change from process to process.
FLOW_GRAPH = (
    "--kind", "sbm",
    "--block-sizes", ",".join(["285"] * 7),
    "--block-probs", ";".join(
        ",".join("0.03" if a == b else "0.0004" for b in range(7)) for a in range(7)
    ),
)
FLOWS = (
    ("heat", ("--horizon", "20")),
    ("nonlocal", ("--horizon", "1e5", "--dt", "0.05")),
    ("preln", ("--horizon", "60", "--stride", "4")),
)

WORKLOADS = ("sweep", "prune", "flows")


@dataclass(frozen=True)
class Command:
    """One ``graphenergy`` invocation and what its output must contain.

    ``out`` is the command's output directory, relative to the checkout
    root. ``spec`` holds what the output checks need: the variants,
    depths and seed of a sweep, the variant, layers and seed of a prune
    scan, or the flow kind.
    """

    name: str
    kind: str
    argv: tuple[str, ...]
    out: str
    spec: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """The commands of one workload and the work it needs.

    ``layers_needed`` counts the hidden-layer evaluations the outputs
    require when every depth prefix and every intact stack is computed
    once. ``states_needed`` counts the distinct states whose energy the
    outputs require; None means every measured state is distinct.
    """

    name: str
    seed: int
    commands: tuple[Command, ...]
    layers_needed: int
    states_needed: int | None


def sweep_command(seed, out, depths=SWEEP_DEPTHS, variants=SWEEP_VARIANTS,
                  graph=()) -> Command:
    argv = (
        "sweep", *graph,
        "--variants", ",".join(variants),
        "--depths", ",".join(str(d) for d in depths),
        "--attention", "san",
        "--seeds", str(seed),
        "--graph-seed", str(seed),
        "--feature-seed", str(seed),
        "--workers", "1",
        "--out", out,
    )
    spec = {"variants": tuple(variants), "depths": tuple(depths), "seed": seed}
    return Command("sweep", "sweep", argv, out, spec)


def prune_command(seed, out, variant, layers, depth=PRUNE_DEPTH,
                  graph=PRUNE_GRAPH) -> Command:
    argv = (
        "prune", *graph,
        "--variant", variant,
        "--depth", str(depth),
        "--layers", ",".join(str(k) for k in layers),
        "--attention", "san",
        "--seeds", str(seed),
        "--graph-seed", str(seed),
        "--feature-seed", str(seed),
        "--out", out,
    )
    spec = {"variant": variant, "layers": tuple(layers), "seed": seed}
    return Command(f"prune-{variant}", "prune", argv, out, spec)


def flow_command(seed, out, flow, extra, graph=FLOW_GRAPH, d=4) -> Command:
    argv = (
        "flow", *graph,
        "--flow", flow, *extra,
        "--d", str(d),
        "--graph-seed", str(seed),
        "--feature-seed", str(seed),
        "--out", out,
    )
    return Command(f"flow-{flow}", "flow", argv, out, {"flow": flow})


def build(name: str, seed: int, out_root: str) -> Workload:
    """The workload ``name`` for ``seed``, writing under ``out_root``."""
    out = os.path.join(out_root, name)
    if name == "sweep":
        cmd = sweep_command(seed, os.path.join(out, "sweep"))
        deepest = max(SWEEP_DEPTHS) * len(SWEEP_VARIANTS)
        return Workload(name, seed, (cmd,), deepest,
                        (max(SWEEP_DEPTHS) + 1) * len(SWEEP_VARIANTS))
    if name == "prune":
        cmds = tuple(
            prune_command(seed, os.path.join(out, f"prune-{variant}"), variant, layers)
            for variant, layers in PRUNE_SCANS
        )
        # One intact stack per scan, then each pruned stack from the
        # skipped layer on: the layers before it equal the intact run's.
        needed = sum(
            PRUNE_DEPTH + sum(PRUNE_DEPTH - k for k in layers)
            for _, layers in PRUNE_SCANS
        )
        return Workload(name, seed, cmds, needed, 0)
    if name == "flows":
        cmds = tuple(
            flow_command(seed, os.path.join(out, f"flow-{flow}"), flow, extra)
            for flow, extra in FLOWS
        )
        return Workload(name, seed, cmds, 0, None)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
