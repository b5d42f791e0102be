"""Benchmark of glauberlab's check -> decompose -> sample -> exact loop.

    python3 perfbench/run.py --workload {hypothesis,blocks,chains,exact} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; glauberlab is imported from its
``src`` directory. Every job runs in a fresh process (perfbench/job.py).
With ``--trace 0`` the run sets the workload's inputs up several times,
runs whole jobs until ``--seconds`` have passed, checks every output and
prints the end-to-end metrics. With ``--trace 1`` it runs the job once
untraced and once traced and prints the per-layer metrics. The last line
of standard output is one JSON object: correct, attempted, failed and
metrics.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hypothesis", "blocks", "chains", "exact")
# Set-up is timed in this many set-up-only processes per run, besides the
# job processes, which set up too; the median of all is reported.
SETUPS = 2
# One process, one thread: numpy's BLAS would otherwise start a thread per
# CPU for the dense matrix products of the exact layer.
ONE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS")}


def spawn(workload, seed, work, mode):
    """Run job.py in a fresh process; its result dict, or exit on a crash."""
    result = os.path.join(work, f"result-{mode}.json")
    cmd = [sys.executable, os.path.join(HERE, "job.py"), "--workload",
           workload, "--seed", str(seed), "--work", work, "--mode", mode,
           "--result", result]
    # The child's chatter goes to stderr: stdout ends with the result line.
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], stdout=sys.stderr,
                          cwd=ROOT, env={**os.environ, **ONE_THREAD},
                          check=False)
    if proc.returncode != 0:
        sys.exit(f"perfbench: {mode} process for {workload} exited "
                 f"{proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def measure(workload, seed, seconds, work):
    setups = [spawn(workload, seed, work, "setup")["setup_s"]
              for _ in range(SETUPS)]
    rounds = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < seconds:
        rounds.append(spawn(workload, seed, work, "run"))
    setups += [r["setup_s"] for r in rounds]
    print(f"perfbench: {workload}: set-up " + " ".join(
        f"{x:.3f}" for x in setups) + " s; jobs " + " ".join(
        f"{r['run_s']:.3f}" for r in rounds) + " s", file=sys.stderr)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(r["run_s"] for r in rounds), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds),
                        "MB"),
    }
    return rounds, metrics


def per_layer(workload, seed, work):
    import spans

    plain = spawn(workload, seed, work, "run")
    traced = spawn(workload, seed, work, "trace")
    table = spans.summarize(os.path.join(work, "spans.npz"))
    # a layer that does not run on this workload reads 0
    zero = {"self_s": 0.0, "total_s": 0.0, "calls": 0, "distinct": 0}
    row = {name: table.get(name, zero) for name in layers.span_names()}
    work_done = traced["work"]
    metrics = {f"{n}.self_s": (r["self_s"], "s") for n, r in row.items()}
    metrics.update({f"{n}.calls": (row[n]["calls"], "count")
                    for n in layers.CALLS})
    chain_s = row["dynamics.run_chain"]["total_s"]
    metrics.update({
        "blocks.skeleton_vertices": (work_done["blocks.skeleton_vertices"],
                                     "count"),
        "dynamics.run_chain.steps_per_s": (
            work_done["dynamics.run_chain.steps"] / chain_s
            if chain_s else 0.0, "1/s"),
        "dynamics.coalescence_time.steps": (
            work_done["dynamics.coalescence_time.steps"], "count"),
        "exact.skeleton_joint.distinct_inputs": (
            row["exact.skeleton_joint"]["distinct"] or 0, "count"),
        "exact.states": (work_done["exact.states"], "count"),
        "exact.matrix_mb": (work_done["exact.matrix_mb"], "MB"),
        "cli.output_bytes": (work_done["cli.output_bytes"], "bytes"),
        "bench.trace_overhead_s": (traced["run_s"] - plain["run_s"], "s"),
    })
    return [plain, traced], metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM unwind like on an error: subprocess.run then kills the
    # running child and waits for it, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: stopped"))

    if not os.path.isfile(os.path.join(ROOT, "src", "glauberlab",
                                       "__init__.py")):
        sys.exit(f"perfbench: no glauberlab sources under {ROOT}/src")
    work = os.path.join(HERE, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        if args.trace:
            runs, metrics = per_layer(args.workload, args.seed, work)
            shutil.copy(os.path.join(work, "spans.npz"), os.path.join(
                HERE, "work", f"spans-{args.workload}.npz"))
        else:
            runs, metrics = measure(args.workload, args.seed, args.seconds,
                                    work)
    finally:
        shutil.rmtree(work)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    if sorted(metrics) != sorted(m["name"] for m in spec):
        sys.exit("perfbench: metrics differ from those BENCHMARK.json names")
    for r in runs:
        for problem in r["problems"]:
            print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": all(not r["problems"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
