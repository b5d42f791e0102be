"""One fresh benchmark process: set up a workload's inputs and, unless
only set-up is asked for, run its job once, check the outputs and write a
result file.

    python3 perfbench/job.py --workload W --seed N --work DIR --t0 T \
        --mode {setup,run,trace} --result FILE

``--t0`` is the CLOCK_MONOTONIC reading taken just before this process
was started, so set-up time counts the interpreter start and every import.
In ``trace`` mode the layer functions are wrapped before set-up and the
spans are written to DIR/spans.npz after the job.
"""

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"),
                    required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import glauberlab
    if os.path.dirname(os.path.dirname(glauberlab.__file__)) != SRC:
        sys.exit(f"glauberlab imported from {glauberlab.__file__}, "
                 f"not from {SRC}")
    # glauberlab imports scipy's graph routines on first use; set-up
    # imports them here, so that the job's time holds no import.
    import scipy.sparse.csgraph  # noqa: F401

    import spans
    import workloads

    recorder = None
    if args.mode == "trace":
        recorder = spans.Recorder()
        recorder.install(workloads.trace_targets())
    inp = workloads.make_inputs(args.workload, args.seed, args.work)
    result = {"setup_s": time.monotonic() - args.t0}

    if args.mode != "setup":
        t = time.perf_counter()
        out = workloads.run_job(args.workload, inp)
        result["run_s"] = time.perf_counter() - t
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["peak_rss_mb"] = peak_kb / 1024
        if recorder is not None:
            recorder.restore()
            recorder.dump(os.path.join(args.work, "spans.npz"))
        result["attempted"] = len(out.codes)
        result["failed"] = sum(1 for c in out.codes.values() if c != 0)
        result["problems"] = workloads.check_outputs(args.workload, inp, out)
        result["work"] = workloads.work_counts(inp, out)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
