"""Benchmark of the ``graphenergy`` command line.

    python3 perfbench/run.py --workload {sweep,prune,flows,all} --seed N \
        --seconds S --trace {0,1}

Run it from anywhere in a checkout; the package comes from the checkout's
``src/``. A run sets up five times (a fresh interpreter imports the
package, then the workload's command lines are built and its output
directories emptied), then repeats the whole workload until at least
``--seconds`` of command time have passed. Each repetition runs in a
fresh interpreter, as a user's command would, and calls
``graphenergy.cli.main`` in-process for every command of the workload, one
process and one worker. Every output is checked (``checks.py``); an
operation that fails a check counts in ``failed``.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics. With ``--trace 1`` the workload is then repeated
again with every traced function wrapped (``tracing.py``), and the JSON
carries the per-layer metrics. ``--workload all`` runs every workload in
turn and prints one table of the end-to-end metrics and ``fail_ratio``.

Artifacts, full results with provenance, digests and spans go under
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import checks
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = ".perfbench_out"
ARTIFACTS = os.path.join(OUT, "artifacts")
SETUP_REPEATS = 5
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repetition", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join("src", "graphenergy", "cli.py")):
        print(f"perfbench: no src/graphenergy/cli.py under {ROOT}", file=sys.stderr)
        return 2
    if args.repetition is not None:
        return run_repetition(args)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    shown = result["per_layer"] if args.trace else result["metrics"]
    print(json.dumps({
        "correct": not result["failed"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in shown.items()},
    }))
    return 0


# ------------------------------------------------------------ one run


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of workload ``name``: set-ups, repetitions and checks.
    Writes the full result under ``.perfbench_out/results``, prints its
    report and returns it."""
    setups = [set_up(name, seed) for _ in range(SETUP_REPEATS)]
    workload = setups[-1][1]
    plain = repeat(name, seed, seconds, traced=False)
    traced = repeat(name, seed, seconds, traced=True) if trace else []

    # Python sources only: bytecode caches change with the interpreter and
    # with file times, not with the code.
    source = checks.tree_digest("src", suffix=".py")
    failures = failed_operations(plain + traced, workload, source)
    attempted = sum(len(rep["ops"]) for rep in plain + traced)
    walls = [rep["wall"] for rep in plain]
    metrics = {
        "setup_s": (statistics.median(t for t, _ in setups), "s",
                    f"median of {SETUP_REPEATS} set-ups"),
        "run_s": (statistics.median(walls), "s", timing_note(walls)),
        "cpu_s": (statistics.median(rep["cpu"] for rep in plain), "s",
                  "user+sys CPU time of the process, median per repetition"),
        "peak_rss_mb": (statistics.median(rep["peak_rss_mb"] for rep in plain), "MB",
                        "peak resident set of the repetition's process, median"),
    }
    layers = traced_metrics(plain, traced) if traced else {}

    provenance = dict(plain[0]["provenance"])
    provenance.update(
        git_commit=git_commit(),
        source_sha256=source,
        seed=seed,
        argv=[["graphenergy", *cmd.argv] for cmd in workload.commands],
        artifact_sha256=plain[0]["tree"],
    )
    result = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "repetitions": [{k: rep[k] for k in ("wall", "cpu", "peak_rss_mb")}
                        for rep in plain],
        "traced_repetitions": [{k: rep[k] for k in ("wall", "cpu", "peak_rss_mb")}
                               for rep in traced],
        "metrics": {k: list(v) for k, v in metrics.items()},
        "per_layer": {k: list(v) for k, v in layers.items()},
        "provenance": provenance,
    }
    path = os.path.join(OUT, "results", f"{name}-seed{seed}-trace{trace}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    report(result, path)
    return result


def set_up(name: str, seed: int):
    """Import the package in a fresh interpreter, build the workload's
    command lines and empty its output directories. Returns the wall time
    and the workload."""
    start = time.perf_counter()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-c", "import graphenergy.cli"], env=env, check=True)
    workload = workloads.build(name, seed, ARTIFACTS)
    for cmd in workload.commands:
        reset(cmd.out)
    return time.perf_counter() - start, workload


def reset(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def repeat(name: str, seed: int, seconds: float, traced: bool) -> list[dict]:
    """Repetitions, each in a fresh interpreter, until ``seconds`` of
    command time have passed; at least one."""
    reps = []
    while not reps or sum(rep["wall"] for rep in reps) < seconds:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(traced)),
             "--repetition", str(len(reps))],
            capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            raise RuntimeError(f"repetition exited {done.returncode} without a result")
        reps.append(json.loads(lines[-1]))
    return reps


def failed_operations(reps, workload, source: str) -> list[dict]:
    """Operations that failed a check in any repetition, or whose
    artifacts differ from the first repetition here or from an earlier
    run with the same seed on the same source tree."""
    store = os.path.join(
        OUT, "digests", f"{workload.name}-seed{workload.seed}-{source[:16]}.json")
    reference = {op: digest for op, (_, digest) in reps[0]["ops"].items()}
    earlier = None
    if os.path.exists(store):
        with open(store) as fh:
            earlier = json.load(fh)
    else:
        os.makedirs(os.path.dirname(store), exist_ok=True)
        with open(store + ".tmp", "w") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
        os.replace(store + ".tmp", store)

    failures = []
    for k, rep in enumerate(reps):
        for op, (problems, digest) in rep["ops"].items():
            problems = list(problems)
            if digest is None:
                pass  # missing output, already a problem
            elif digest != reference[op]:
                problems.append("artifacts differ from the first repetition of this run")
            elif earlier is not None and earlier.get(op) != digest:
                problems.append("artifacts differ from an earlier run with the same seed")
            if problems:
                failures.append({"repetition": k, "operation": op, "problems": problems})
    return failures


def traced_metrics(plain, traced) -> dict:
    out = {}
    for name, (_, unit, base) in traced[0]["per_layer"].items():
        values = [rep["per_layer"][name][0] for rep in traced]
        out[name] = (statistics.median(values), unit, base)
    out["trace.overhead_s"] = (
        statistics.median(rep["wall"] for rep in traced)
        - statistics.median(rep["wall"] for rep in plain),
        "s", "traced run_s minus untraced run_s, medians")
    return out


def timing_note(values) -> str:
    """Median, and the highest percentile with at least ten repetitions
    beyond it, with the repetition count."""
    n = len(values)
    if n < 11:
        return f"median of {n} repetition(s); a tail percentile needs at least 11"
    p = math.floor(100 * (n - 10) / n)
    k = math.ceil(p * n / 100) - 1
    return f"median of {n} repetitions; p{p} {sorted(values)[k]:.6g} s"


def git_commit() -> str | None:
    if not os.path.isdir(".git"):
        return None  # not a git checkout; source_sha256 identifies the code
    done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return done.stdout.strip() or None


def report(result: dict, path: str) -> None:
    print(f"perfbench {result['workload']} seed {result['seed']}: "
          f"{result['attempted']} operations attempted, {result['failed']} failed")
    for name, (value, unit, note) in result["metrics"].items():
        print(f"  {name:<12} {value:12.6g} {unit:<3} {note}")
    print(f"  {'fail_ratio':<12} {result['failed'] / result['attempted']:12.6g} "
          f"failed/attempted ({result['failed']}/{result['attempted']})")
    for failure in result["failures"][:20]:
        print(f"  FAILED repetition {failure['repetition']} {failure['operation']}: "
              + "; ".join(failure["problems"]))
    if result["per_layer"]:
        print("  per layer, traced (no layer waits on a queue or another process, "
              "so there is no waiting metric):")
        for name, (value, unit, base) in result["per_layer"].items():
            print(f"    {name:<44} {value:12.6g} {unit:<10} {base}")
    prov = result["provenance"]
    blas = prov["blas"]
    print(f"  provenance: nproc {prov['nproc']}, python {prov['python']}, numpy "
          f"{prov['numpy']}, scipy {prov['scipy']}, {blas['name']} {blas['version']} "
          f"with {blas['threads']} threads, commit {prov['git_commit']}, "
          f"artifacts sha256 {prov['artifact_sha256']}")
    print(f"  full result: {path}")


# ----------------------------------------------------- one repetition


def run_repetition(args) -> int:
    """One repetition of the workload in this interpreter; prints its
    timings, check outcomes and, when traced, per-layer metrics as one
    JSON line."""
    sys.path.insert(0, "src")
    import graphenergy.cli

    workload = workloads.build(args.workload, args.seed, ARTIFACTS)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}-traced{args.repetition}")
        tracer.install()
    wall = cpu = 0.0
    ops = {}
    try:
        for cmd in workload.commands:
            reset(cmd.out)
            ok, error, cmd_wall, cmd_cpu = run_command(graphenergy.cli.main, cmd, tracer)
            wall += cmd_wall
            cpu += cmd_cpu
            for op, outcome in checks.check_command(cmd, ok, error).items():
                ops[f"{cmd.name}:{op}"] = outcome
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "wall": wall,
        "cpu": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": ops,
        "tree": checks.tree_digest(os.path.join(ARTIFACTS, workload.name)),
        "provenance": machine(),
    }
    if tracer is not None:
        result["per_layer"] = tracing.per_layer(
            tracer.spans, workload.layers_needed, workload.states_needed)
        path = os.path.join(OUT, "traces", f"{tracer.run}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tracer.dump(path)
    print(json.dumps(result))
    return 0


def run_command(cli_main, cmd, tracer):
    """Run one command in-process; its standard output is discarded.
    Returns (ok, error, wall seconds, CPU seconds)."""
    sink = io.StringIO()
    error = None
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(sink):
            if tracer is None:
                code = cli_main(list(cmd.argv))
            else:
                code = tracer.call(tracing.ROOT_SPAN, cli_main, list(cmd.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a failing command is a measured outcome
        code, error = 1, f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    if code != 0 and error is None:
        error = f"exit code {code}: {sink.getvalue().strip()[-500:]}"
    return code == 0, error, wall, cpu


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(numpy),
    }


def blas_info(numpy) -> dict:
    config = numpy.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    threads = None
    libs = os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": threads}


# ------------------------------------------------------ every workload


def run_all(args) -> int:
    """Every workload in turn, then one table of every metric."""
    rows = {name: run_workload(name, args.seed, args.seconds, args.trace)
            for name in workloads.WORKLOADS}
    print()
    names = [f"{n} ({u})" for n, u in END_TO_END] + ["fail_ratio (failed/attempted)"]
    print(f"{'workload':<9}" + "".join(f"{h:>31}" for h in names))
    for name, res in rows.items():
        cells = [f"{res['metrics'][n][0]:.6g}" for n, _ in END_TO_END]
        cells.append(f"{res['failed']}/{res['attempted']} = "
                     f"{res['failed'] / res['attempted']:.6g}")
        print(f"{name:<9}" + "".join(f"{c:>31}" for c in cells))
    print(json.dumps({name: {"correct": not res["failed"], "attempted": res["attempted"],
                             "failed": res["failed"]} for name, res in rows.items()}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
