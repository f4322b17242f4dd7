#!/usr/bin/env python3
"""Benchmark the shipped nlwave study configs end to end and per layer.

    python3 perfbench/run.py --workload sweep-bbm --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py                  # every workload, one after another

Run from anywhere inside a source checkout: the harness imports ``nlwave``
from the checkout's ``src/`` and reads its ``configs/``, and refuses to run
(exit 2, no result) when either is missing.

Each pass drives ``nlwave.cli.main`` in process on the workload's configs
(see ``workloads.py``), passing only ``--config`` and ``--output``, then
checks every output against the closed-form oracles.  Passes repeat for
about ``--seconds``: a pass that would end more than half a pass late is not
started, and there is always at least one.

``--trace 0`` reports the end-to-end metrics: median wall and process CPU
time of a pass, the median set-up time (import, config load and
``build_system`` for every grid, in a fresh interpreter, repeated) and peak
RSS.  ``--trace 1`` alternates untraced and traced passes and reports the
per-layer figures of the traced ones (medians over passes) plus the tracing
overhead.  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; ``attempted`` counts CLI
calls and ``failed`` those that errored or failed a check.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

from tracer import Tracer, layer_metrics
from workloads import WORKLOADS, check_outputs, check_shared_grid, write_configs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CONFIGS = os.path.join(ROOT, "configs")
WORK = os.path.join(HERE, ".work")
SETUP_REPEATS = 9

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "config.load_s": "s",
    "system.build_s": "s",
    "experiments.study_s": "s",
    "experiments.runs": "count",
    "experiments.concurrency": "ratio",
    "experiments.threads_peak": "count",
    "system.rhs_calls": "count",
    "system.rhs_s": "s",
    "system.rhs_ns_per_node": "ns",
    "system.rhs_self_s": "s",
    "system.fft_share": "ratio",
    "system.fft_points": "count",
    "backend.poly_s": "s",
    "backend.poly_ns_per_node": "ns",
    "backend.conv_direct_s": "s",
    "backend.conv_direct_calls": "count",
    "integrator.integrate_s": "s",
    "integrator.self_s": "s",
    "integrator.accepted_steps": "count",
    "integrator.rejected_steps": "count",
    "integrator.rhs_per_step": "count",
    "analytic.s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}
# Printed but left out of the result: it reads exactly 0 while every shipped
# grid is above the direct-convolution threshold.
UNLISTED_LAYERS = ("backend.conv_direct_s",)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(nlwave, numpy) -> dict:
    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "backend": nlwave.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def measure_setup(calls) -> list:
    """Set-up seconds of fresh interpreters; the first, which may compile
    bytecode, is a warm-up and is dropped."""
    probe = os.path.join(HERE, "setup_probe.py")
    argv = [sys.executable, probe, SRC] + [f"{c}:{ini}" for c, ini, _, _ in calls]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times[1:]


def run_pass(cli, calls, outroot):
    """Run the workload's CLI calls once; returns wall, cpu and outcomes."""
    outcomes = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for command, ini, _, _ in calls:
        outdir = os.path.join(
            outroot, f"{command}-{os.path.splitext(os.path.basename(ini))[0]}"
        )
        try:
            rc = cli.main([command, "--config", ini, "--output", outdir])
        except (Exception, SystemExit) as exc:  # a crash is a failed call
            rc = f"{type(exc).__name__}: {exc}"
        outcomes.append((rc, outdir))
    return time.perf_counter() - wall0, time.process_time() - cpu0, outcomes


def gate(calls, outcomes) -> list:
    """Problems found per call (an empty list for a call that passed)."""
    problems, facts = [], []
    for (command, _, kind, shifted), (rc, outdir) in zip(calls, outcomes):
        if rc != 0:
            problems.append([f"{command} returned {rc!r}"])
            facts.append({})
            continue
        found, fact = check_outputs(command, kind, shifted, outdir)
        problems.append(found)
        facts.append(fact)
    sweeps = [i for i, (c, _, _, _) in enumerate(calls)
              if c in ("converge", "truncation")]
    shared = check_shared_grid([facts[i] for i in sweeps])
    if sweeps and not shared and sum("shared_error" in facts[i] for i in sweeps) < 2:
        shared = ["the shared grid is missing from a sweep"]
    for i in sweeps:
        problems[i] += shared
    return problems


def tail(samples):
    """(percentile, value) of the highest percentile with >= 10 samples
    beyond it, or None when there are too few samples."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def run_workload(args) -> int:
    calls = write_configs(args.workload, args.seed, CONFIGS, args.work)
    setup_times = None if args.trace else measure_setup(calls)

    sys.path.insert(0, SRC)
    import numpy
    import nlwave
    import nlwave.cli as cli

    if not os.path.abspath(nlwave.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported nlwave from {nlwave.__file__}, not {SRC}")
    env = stamp(nlwave, numpy)

    tracer = Tracer()
    walls, cpus, traced_walls, layers = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    laps = []  # seconds per loop iteration, checks included
    index = 0
    while True:
        lap_start = time.perf_counter()
        traced = bool(args.trace) and index % 2 == 1
        outroot = os.path.join(args.work, f"pass{index}")
        if traced:
            with tracer.hooks():
                wall, cpu, outcomes = run_pass(cli, calls, outroot)
            traced_walls.append(wall)
            layers.append(layer_metrics(tracer.drain()))
        else:
            wall, cpu, outcomes = run_pass(cli, calls, outroot)
            walls.append(wall)
            cpus.append(cpu)
        for problems, (command, ini, _, _) in zip(gate(calls, outcomes), calls):
            attempted += 1
            if problems:
                failed += 1
                print(f"FAILED {command} {os.path.basename(ini)}: "
                      + "; ".join(problems), file=sys.stderr)
        shutil.rmtree(outroot, ignore_errors=True)
        index += 1
        now = time.perf_counter()
        laps.append(now - lap_start)
        # stop when another pass would end more than half a pass late
        done = now - start + 0.5 * statistics.median(laps) > args.seconds
        if done and (not args.trace or layers):
            break

    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} untraced_passes={len(walls)} "
          f"traced_passes={len(traced_walls)}")
    print("stamp: " + json.dumps(env, sort_keys=True))
    wall_s = statistics.median(walls)
    pct = tail(walls)
    notes = {"wall_s": f"median of {len(walls)} passes; "
             + (f"p{pct[0]:.0f} {pct[1]!r} s" if pct
                else "no percentile has 10 samples beyond it")}
    if args.trace:
        metrics = {name: statistics.median(layer[name] for layer in layers)
                   for name in layers[0]}
        traced_wall = statistics.median(traced_walls)
        metrics["trace.overhead_s"] = traced_wall - wall_s
        metrics["trace.overhead_frac"] = traced_wall / wall_s - 1.0
        notes["trace.overhead_s"] = (f"traced wall_s {traced_wall!r} s over "
                                     f"{len(traced_walls)} passes minus untraced "
                                     f"{wall_s!r} s over {len(walls)}")
        units = LAYER_UNITS
    else:
        metrics = {
            "wall_s": wall_s,
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        notes["cpu_s"] = f"median of {len(cpus)} passes"
        notes["setup_s"] = f"median of {len(setup_times)} set-ups"
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"{name} {value!r} {units[name]}{note}")
    print(f"failed_frac {failed / attempted!r} ({failed}/{attempted} calls)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                    if name not in UNLISTED_LAYERS},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own interpreter; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        status = status or proc.returncode
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (os.path.isfile(os.path.join(SRC, "nlwave", "__init__.py"))
            and os.path.isdir(CONFIGS)):
        print(f"perfbench: no nlwave sources under {ROOT} (need src/nlwave and "
              "configs/)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    args.work = os.path.join(WORK, f"{args.workload}-s{args.seed}-{os.getpid()}")
    try:
        return run_workload(args)
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
