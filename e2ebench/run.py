#!/usr/bin/env python3
"""Repo benchmark: real Raman jobs end to end, with a traced per-layer run.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the library and the swraman_e2e
workload binary from source into .bench_build/, measures the workload's
set-up in fresh processes, runs it, checks its outputs, and prints the
metrics. The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 they are the per-layer ones, read from the obs perf reports of a
traced run. See e2ebench/README.md for the workloads and the metric map.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("water_raman", "cluster_polar", "serve_burst")
SETUP_SAMPLES = 11         # fresh processes per run; setup_s is their median
RUN_DEADLINE_S = 170.0     # a run (after the build) must end within this
BUILD_TIMEOUT_S = 850.0

# Counts that must repeat exactly between the two traced rounds of a run.
REPEATED_COUNTS = (
    "hartree.poisson.calls", "hartree.point_atom_evals", "hartree.auto_fmm_calls",
    "scf.solves", "scf.iterations", "dfpt.iterations", "scf.force_evals",
    "raman.hessian.scf_solves", "raman.geometries", "raman.bec.field_forces",
    "serve.tasks_executed", "serve.cache_hits",
)

# Per-layer self times: metric name -> span name.
SELF_TIMES = {
    "hartree.poisson.self_s": "hartree.poisson",
    "hartree.multipole.self_s": "hartree.multipole",
    "scf.iter.self_s": "scf.iter",
    "scf.hamiltonian.self_s": "scf.hamiltonian",
    "scf.density.self_s": "scf.density",
    "scf.eigensolve.self_s": "scf.eigensolve",
    "scf.build_matrices.self_s": "scf.build_matrices",
    "scf.forces.self_s": "scf.forces",
    "dfpt.n1.self_s": "dfpt.n1",
    "dfpt.h1.self_s": "dfpt.h1",
    "dfpt.sternheimer.self_s": "dfpt.sternheimer",
}
# Per-layer wall times (outermost spans of that name only).
WALL_TIMES = {
    "raman.hessian.wall_s": "raman.hessian",
    "raman.dalpha.wall_s": "raman.dalpha",
    "raman.bec.fields.wall_s": "raman.bec.fields",
    "serve.hessian.wall_s": "serve.hessian",
}
CYCLE_ATTRS = ("modeled_cycles_cpe", "modeled_cycles_mpe", "modeled_cycles")
# Numbers of the untraced round, reported beside the per-layer metrics.
ROUND_VALUES = {
    "raman_dfpt_s": "s", "raman_bec_s": "s", "water_freq_mae_cm": "cm-1",
    "scf_s": "s", "polar_s": "s", "serve_jobs_per_s": "1/s", "serve_p50_s": "s",
}
LADDER_LAYERS = ("setup", "poisson", "density", "integrate", "eigensolve")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log("e2ebench: " + msg)
    sys.exit(code)


def build(root):
    """Configures and builds swraman_e2e; returns the binary's path."""
    src = os.path.join(root, "e2ebench")
    out = os.path.join(root, ".bench_build", "e2ebench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", src, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", out, "-j", "4", "--target", "swraman_e2e"],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return out, os.path.join(out, "swraman_e2e")


def run_child(cmd, deadline):
    """Runs a child to completion within the run's deadline; returns stdout."""
    left = deadline - time.monotonic()
    if left <= 0:
        fail("out of time before " + " ".join(cmd[1:3]))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=left)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd[1:3]))
    if proc.returncode != 0:
        fail(f"{' '.join(cmd[1:3])} exited with {proc.returncode}")
    return proc.stdout


# --------------------------------------------------------------------------
# Perf-report analysis

def components(path):
    return path.split("/")


def outermost(phases, name):
    """Phases named `name` with no ancestor of the same name."""
    return [p for p in phases
            if p["name"] == name and name not in components(p["path"])[:-1]]


def layer_numbers(report, previous, result):
    """Per-layer numbers of one traced round from its perf report.

    `previous` is the report written just before the round: counters are
    process-cumulative, so the round's counts are the difference.
    """
    phases = report["phases"]
    counters = report["metrics"]["counters"]
    before = previous["metrics"]["counters"]

    def counter(name):
        return counters.get(name, 0.0) - before.get(name, 0.0)

    def count(name):
        return float(sum(p["count"] for p in phases if p["name"] == name))

    out = {}
    for metric, span in SELF_TIMES.items():
        out[metric] = sum(p["self_s"] for p in phases if p["name"] == span)
    for metric, span in WALL_TIMES.items():
        out[metric] = sum(p["wall_s"] for p in outermost(phases, span))
    out["hartree.poisson.calls"] = count("hartree.poisson")
    # Direct evaluation visits every (grid point, atom) pair per call; every
    # engine of a round is built on the workload's molecule.
    out["hartree.point_atom_evals"] = (out["hartree.poisson.calls"] *
                                       result["n_points"] * result["n_atoms"])
    out["hartree.auto_fmm_calls"] = count("hartree.fmm.upward")
    for name in ("scf.solves", "scf.iterations", "dfpt.iterations",
                 "scf.force_evals"):
        out[name] = counter(name)
    # SCF solves under a Hessian span: the calculators' raman.hessian or the
    # service's serve.hessian task.
    out["raman.hessian.scf_solves"] = float(sum(
        p["count"] for p in phases
        if p["name"] == "scf.solve" and
        {"raman.hessian", "serve.hessian"} & set(components(p["path"]))))
    cycles = 0.0
    for p in phases:
        for attr in CYCLE_ATTRS:
            if attr in p["attrs"]:
                cycles += p["attrs"][attr]
                break
    out["sunway.modeled_cycles"] = cycles
    task_wall = sum(p["wall_s"] for p in outermost(phases, "serve.task"))
    out["serve.task.wall_s"] = task_wall
    return out, task_wall


def setup_numbers(report):
    phases = report["phases"]
    setup = outermost(phases, "bench.setup")

    def self_of(*names):
        return sum(p["self_s"] for p in phases if p["name"] in names)

    return {
        "setup.wall_s": sum(p["wall_s"] for p in setup),
        "setup.build_matrices_s": self_of("scf.build_matrices"),
        "setup.grid_batches_s": self_of("grid.make_batches",
                                        "grid.balance_batches"),
        # Molecular grid, basis with its species solves, Hartree context:
        # the constructor work no library span covers.
        "setup.unspanned_s": self_of("bench.setup"),
    }


def fitted_exponent(xs, ys):
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(max(y, 1e-9)) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    return num / den


# --------------------------------------------------------------------------

def end_to_end(result, setup_samples):
    rounds = [r for r in result["rounds"] if not r["traced"]]
    latencies = [x for r in rounds for x in r["latencies"]]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "job_p50_s": (statistics.median(latencies), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def per_layer(result, out_dir, failures):
    """Per-layer metrics of a traced run; appends count mismatches."""
    def load(path):
        with open(path) as f:
            return json.load(f)

    untraced = next(r for r in result["rounds"] if not r["traced"])
    traced = [r for r in result["rounds"] if r["traced"]]
    workers = untraced["values"].get("serve.workers", 1.0)
    previous = load(os.path.join(out_dir, "perf_base.json"))
    layers = []
    for r in traced:
        report = load(r["perf"])
        numbers, task_wall = layer_numbers(report, previous, result)
        previous = report
        for key in ("raman.geometries", "raman.bec.field_forces",
                    "serve.tasks_executed", "serve.cache_hits",
                    "serve.cache_hit_ratio"):
            numbers[key] = r["values"].get(key, 0.0)
        numbers["serve.worker_busy_frac"] = (
            task_wall / (workers * r["wall_s"]) if "serve.workers" in r["values"]
            else 0.0)
        layers.append(numbers)

    for name in REPEATED_COUNTS:
        seen = [n[name] for n in layers]
        # Counts the untraced round reports itself must agree too.
        if name in untraced["values"]:
            seen.append(untraced["values"][name])
        if len(set(seen)) != 1:
            failures.append(f"count {name} does not repeat across rounds: {seen}")

    metrics = {}
    for name in layers[0]:
        unit = ("s" if name.endswith("_s") else
                "ratio" if name.endswith(("_ratio", "_frac")) else
                "cycles" if name.endswith("cycles") else "count")
        metrics[name] = (statistics.fmean(n[name] for n in layers), unit)
    metrics["trace_overhead"] = (
        statistics.fmean(r["wall_s"] for r in traced) / untraced["wall_s"],
        "ratio")
    for name, value in setup_numbers(load(result["setup_perf"])).items():
        metrics[name] = (value, "s")
    for name, unit in ROUND_VALUES.items():
        metrics[name] = (untraced["values"].get(name, 0.0), unit)
    ladder = result["ladder"]
    for layer in LADDER_LAYERS:
        metrics[f"ladder.{layer}_exp"] = (
            fitted_exponent(ladder["atoms"], ladder[layer + "_s"]), "exponent")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("src/CMakeLists.txt", "tests/golden/golden_water_raman.txt"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"{needed} not found: run from a full checkout", code=2)

    try:
        build_dir, binary = build(root)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    deadline = time.monotonic() + RUN_DEADLINE_S

    out_dir = os.path.join(build_dir, "out", args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    seed = str(args.seed)

    setup_samples = []
    for _ in range(0 if args.trace else SETUP_SAMPLES):
        line = run_child([binary, "setup", args.workload, seed, root],
                         deadline).strip().splitlines()[-1]
        setup_samples.append(json.loads(line)["setup_s"])
    run_child([binary, "run", args.workload, seed, str(args.seconds),
               str(args.trace), out_dir, root], deadline)
    with open(os.path.join(out_dir, "result.json")) as f:
        result = json.load(f)

    failures = list(result["failures"])
    attempted = result["checks"] + result["jobs"]
    if args.trace:
        metrics = per_layer(result, out_dir, failures)
        attempted += len(REPEATED_COUNTS)
        metrics["failed_ratio"] = (len(failures) / attempted, "ratio")
    else:
        metrics = end_to_end(result, setup_samples)
        # The workload's own end-to-end numbers, for reading.
        for name, unit in ROUND_VALUES.items():
            values = [r["values"][name] for r in result["rounds"]
                      if name in r["values"]]
            if values:
                print(f"{name:<32} {statistics.median(values):>14.6g} {unit}")
        print(f"{'failed_ratio':<32} {len(failures) / attempted:>14.6g} ratio")

    for name, (value, unit) in metrics.items():
        print(f"{name:<32} {value:>14.6g} {unit}")
    for f in failures:
        print("FAILED: " + f)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
