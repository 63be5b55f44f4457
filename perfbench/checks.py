"""Output checks. An operation is one unit of output: a (variant, depth,
seed) cell of a sweep, a (variant, layer, seed) row of a prune scan, or
one flow command. Each check is a property of the mathematics or of the
seeding, not of one implementation:

* the command exits zero and records no failure;
* every number written is finite, and no energy is negative;
* sweep: a cell's energy rows are bitwise equal to the first depth+1
  rows of the deepest cell of the same (variant, seed), because depths
  are prefixes of one seeded stack;
* flows: the Dirichlet energy of the heat and gated flows never rises by
  more than 1e-9 of its first value, and the normalized flow keeps its
  norm mass within 1e-10 of n;
* prune: deviations are nonnegative and mean cosines lie in [-1, 1], up
  to 1e-12 of floating-point rounding.

Byte equality between runs with the same seed is checked by the caller
from the per-operation digests returned here.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

DIRICHLET_RISE = 1e-9
NORM_MASS_BOUND = 1e-10
COSINE_ROUNDING = 1e-12


def check_command(cmd, exit_ok: bool, error: str | None = None) -> dict:
    """Check one command's output. Returns ``{operation: (problems,
    digest)}`` for every operation the command owes, found or not; an
    operation passes when its problem list is empty."""
    checker = {"sweep": _check_sweep, "prune": _check_prune, "flow": _check_flow}
    results = checker[cmd.kind](cmd)
    if not exit_ok:
        for problems, _ in results.values():
            problems.insert(0, f"command failed: {error}")
    return results


def tree_digest(root: str, suffix: str = "") -> str:
    """SHA-256 over every file under ``root`` whose name ends in
    ``suffix``: relative path and bytes, in sorted path order."""
    return _digest(root, [p for p in _files_under(root) if p.endswith(suffix)])


def _check_sweep(cmd) -> dict:
    spec = cmd.spec
    deepest = max(spec["depths"])
    summary = os.path.join(cmd.out, "summary.json")
    shared = []
    _read_json(summary, shared)
    results = {}
    for variant in spec["variants"]:
        deep_dir = _cell_dir(cmd.out, variant, deepest, spec["seed"])
        deep = _read_csv(os.path.join(deep_dir, "energy.csv"), [])
        for depth in spec["depths"]:
            op = f"{variant}/depth-{depth:03d}/seed-{spec['seed']:02d}"
            cell = _cell_dir(cmd.out, variant, depth, spec["seed"])
            problems = list(shared)
            report = _read_json(os.path.join(cell, "report.json"), problems)
            if report is not None and "error" in report:
                problems.append(f"recorded as failed: {report['error']}")
            energy = _read_csv(os.path.join(cell, "energy.csv"), problems)
            if energy is not None:
                texts, rows = energy
                _nonnegative(rows, 1, "energy.csv energy", problems)
                if len(rows) != depth + 1:
                    problems.append(f"energy.csv has {len(rows)} rows, expected {depth + 1}")
                elif deep is None or texts != deep[0][: depth + 1]:
                    problems.append(
                        f"energy.csv rows differ from the first {depth + 1} rows "
                        f"of depth {deepest}"
                    )
            for name in ("relative_change.csv", "cosine.csv"):
                _read_csv(os.path.join(cell, name), problems)
            files = _files_under(cell) + ([summary] if os.path.exists(summary) else [])
            results[op] = (problems, _digest(cmd.out, files))
    return results


def _check_prune(cmd) -> dict:
    spec = cmd.spec
    csv_path = os.path.join(cmd.out, "prune.csv")
    report_path = os.path.join(cmd.out, "report.json")
    shared = []
    _read_json(report_path, shared)
    table = _read_csv(csv_path, shared)
    by_key = {}
    if table is not None:
        for text, row in zip(*table):
            by_key[(row[0], row[1])] = (text, row)
    header = _non_data_lines(csv_path)
    results = {}
    for layer in spec["layers"]:
        op = f"{spec['variant']}/layer-{layer:03d}/seed-{spec['seed']:02d}"
        problems = list(shared)
        found = by_key.get((float(layer), float(spec["seed"])))
        if found is None:
            if table is not None:
                problems.append("prune.csv has no row for this layer and seed")
            results[op] = (problems, None)
            continue
        text, (_, _, deviation, cosine) = found
        if deviation < 0:
            problems.append(f"deviation {deviation!r} is negative")
        if not -1 - COSINE_ROUNDING <= cosine <= 1 + COSINE_ROUNDING:
            problems.append(f"mean cosine {cosine!r} lies outside [-1, 1]")
        h = hashlib.sha256("\n".join(header + [text]).encode())
        h.update(_read_bytes(report_path))
        results[op] = (problems, h.hexdigest())
    return results


def _check_flow(cmd) -> dict:
    flow = cmd.spec["flow"]
    problems = []
    energy = _read_csv(os.path.join(cmd.out, "energy.csv"), problems)
    if energy is not None:
        _nonnegative(energy[1], 1, "energy.csv energy", problems)
    traj = _read_csv(os.path.join(cmd.out, "trajectory.csv"), problems)
    if traj is not None:
        rows = traj[1]
        for col, name in ((1, "dirichlet"), (2, "laplacian"), (3, "gate")):
            _nonnegative(rows, col, f"trajectory.csv {name}", problems)
        if flow in ("heat", "nonlocal") and rows:
            first = rows[0][1]
            for k in range(1, len(rows)):
                rise = rows[k][1] - rows[k - 1][1]
                if rise > DIRICHLET_RISE * first:
                    problems.append(
                        f"Dirichlet energy rises by {rise!r} at record {k}, above "
                        f"{DIRICHLET_RISE:g} of its first value {first!r}"
                    )
                    break
    report = _read_json(os.path.join(cmd.out, "report.json"), problems)
    if flow == "preln" and report is not None:
        deviation = report.get("norm_mass_max_deviation")
        if not isinstance(deviation, (int, float)) or not deviation <= NORM_MASS_BOUND:
            problems.append(
                f"norm_mass_max_deviation {deviation!r} exceeds {NORM_MASS_BOUND:g}"
            )
    return {flow: (problems, tree_digest(cmd.out))}


def _cell_dir(out, variant, depth, seed) -> str:
    return os.path.join(out, variant, f"depth-{depth:03d}", f"seed-{seed:02d}")


def _read_csv(path, problems):
    """Data rows of a CLI CSV as ``(texts, floats)``, skipping ``#`` lines
    and the column-name row; records a missing file or a non-finite or
    non-numeric value in ``problems`` and returns None for a missing or
    malformed file."""
    name = os.path.basename(path)
    if not os.path.exists(path):
        problems.append(f"{name} is missing")
        return None
    texts, rows = [], []
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    for k, line in enumerate(lines[1:], start=1):
        try:
            row = [float(tok) for tok in line.split(",")]
        except ValueError:
            problems.append(f"{name} row {k} is not numeric: {line!r}")
            return None
        if not all(math.isfinite(x) for x in row):
            problems.append(f"{name} row {k} holds a non-finite value: {line!r}")
        texts.append(line)
        rows.append(row)
    return texts, rows


def _read_json(path, problems):
    name = os.path.basename(path)
    if not os.path.exists(path):
        problems.append(f"{name} is missing")
        return None

    def reject(token):
        problems.append(f"{name} holds the non-finite number {token}")
        return None

    with open(path) as fh:
        try:
            payload = json.load(fh, parse_constant=reject)
        except json.JSONDecodeError as exc:
            problems.append(f"{name} is not JSON: {exc}")
            return None
    return payload


def _nonnegative(rows, col, label, problems) -> None:
    for k, row in enumerate(rows, start=1):
        if row[col] < 0:
            problems.append(f"{label} at row {k} is negative: {row[col]!r}")
            return


def _non_data_lines(path) -> list[str]:
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh]
    comments = [line for line in lines if line.startswith("#")]
    data = [line for line in lines if not line.startswith("#")]
    return comments + data[:1]


def _files_under(root) -> list[str]:
    out = []
    for dirpath, _, names in os.walk(root):
        out.extend(os.path.join(dirpath, name) for name in names)
    return out


def _read_bytes(path) -> bytes:
    if not os.path.exists(path):
        return b""
    with open(path, "rb") as fh:
        return fh.read()


def _digest(root, paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths, key=lambda p: os.path.relpath(p, root)):
        h.update(os.path.relpath(path, root).encode() + b"\0")
        h.update(_read_bytes(path) + b"\0")
    return h.hexdigest()
