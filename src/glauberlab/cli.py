"""Command-line surface: generate, check, decompose, sample, analyze.

Every command is deterministic given its argument list; wall-clock values
live only in the "meta" section of the output document, so the "payload"
section is byte-stable and safe to digest in regression tests.

Exit codes: 0 pass, 1 check failure, 2 budget, horizon or memory
exhaustion, 3 invalid input.
"""

import argparse
import csv
import functools
import io
import json
import math
import statistics
import sys
import time
from datetime import datetime, timezone

from .blocks import decompose, validate_partition, write_partition
from .defaults import CHOICES, _check_count, _check_log_base, load_config
from .dynamics import (coalescence_time, run_chain, write_checkpoint)
from .errors import (BudgetExceededError, DegenerateChainError,
                     HorizonExceededError, PaletteExhaustedError)
from .exact import (detailed_balance_gap, enumerate_states,
                    format_chain_dump, mixing_time, relaxation_time,
                    sandwich_check, transition_matrix)
from .graphs import (HypothesisParams, check_hypothesis, generate_er,
                     read_edge_list, write_edge_list)
from .models import (coloring_model, greedy_coloring, hardcore_model,
                     initial_configuration, read_model)
from .rng import derive_seed
from .zoo import SUITES, run_suite

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_BUDGET = 2
EXIT_INVALID = 3


def _emit(args, command, payload, meta_extra=None, code=EXIT_PASS):
    meta = {"command": command,
            "generated_at": datetime.now(timezone.utc).isoformat()}
    if meta_extra:
        meta.update(meta_extra)
    doc = {"meta": meta, "payload": payload}
    if args.out:
        fmt = args.format
        if fmt == "csv":
            rows = payload.get("records") or payload.get("rows")
            if rows is None:
                # no table: the scalar fields make one row
                rows = [{k: v for k, v in payload.items()
                         if not isinstance(v, (list, dict))}]
            with open(args.out, "w", newline="", encoding="utf-8") as fh:
                fh.write(_rows_to_csv(rows))
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True,
                          default=_plain)
                fh.write("\n")
        print(f"{command}: {'pass' if code == EXIT_PASS else 'fail'} "
              f"-> {args.out}")
    else:
        json.dump(doc, sys.stdout, indent=2, sort_keys=True, default=_plain)
        sys.stdout.write("\n")
    return code


def _plain(obj):
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    if isinstance(obj, tuple):
        return list(obj)
    if hasattr(obj, "item"):
        return obj.item()
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _rows_to_csv(rows):
    cols = []
    for row in rows:
        for key in row:
            if key not in cols:
                cols.append(key)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=cols, restval="")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: ("" if v is None else v) for k, v in
                         row.items()})
    return buf.getvalue()


def _records_json(records):
    return [r.to_json_dict() for r in records]


def cmd_gen(args, cfg):
    if not args.out:
        raise ValueError("gen writes an edge list; --out is required")
    g = generate_er(args.n, args.d, args.seed)
    write_edge_list(g, args.out)
    print(f"gen: n={g.n} m={g.m} -> {args.out}")
    return EXIT_PASS


def cmd_check(args, cfg):
    g = read_edge_list(args.graph)
    hp = HypothesisParams(a=args.a, alpha=args.alpha, t=args.t,
                          delta=args.delta)
    rep = check_hypothesis(g, hp, node_budget=args.node_budget,
                           log_base=args.log_base)
    payload = {
        "passed": rep.passed,
        "radius": rep.radius,
        "m_alpha": rep.m_alpha,
        "params": {"a": hp.a, "alpha": hp.alpha, "t": hp.t,
                   "delta": hp.delta},
        "records": _records_json(rep.records),
    }
    return _emit(args, "check", payload,
                 meta_extra={"phi_swept": rep.phi_swept,
                             "path_nodes": rep.path_nodes,
                             **rep.clause_one},
                 code=EXIT_PASS if rep.passed else EXIT_FAIL)


def cmd_decompose(args, cfg):
    g = read_edge_list(args.graph)
    hp = HypothesisParams(a=args.a, alpha=args.alpha, t=args.t,
                          delta=args.delta)
    partition = decompose(g, hp, L=args.length_scale,
                          log_base=args.log_base,
                          scan_order=args.scan_order,
                          node_budget=args.node_budget)
    report = validate_partition(g, partition)
    if args.partition_out:
        write_partition(partition, args.partition_out)
    kinds = {}
    for b in partition.blocks:
        kinds[b.kind] = kinds.get(b.kind, 0) + 1
    payload = {
        "passed": report.passed,
        "blocks": len(partition.blocks),
        "kinds": kinds,
        "skeleton_vertices": sum(len(b.skeleton)
                                 for b in partition.blocks),
        "records": _records_json(report.records),
    }
    return _emit(args, "decompose", payload,
                 meta_extra={"phi_swept": partition.labeling.phi_swept},
                 code=EXIT_PASS if report.passed else EXIT_FAIL)


def cmd_sample(args, cfg):
    model = read_model(args.model)
    g = read_edge_list(args.graph)
    start = initial_configuration(model, g)
    state, trace = run_chain(model, g, start, args.steps, seed=args.seed,
                             lazy=not args.no_lazy, stride=args.stride)
    if args.out:
        with open(args.out + ".trace.csv", "w", newline="",
                  encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("step", "hamming", "active"))
            writer.writerows(trace)
        write_checkpoint(args.out + ".ckpt", state)
    payload = {
        "steps": args.steps,
        "final": list(state.config),
        "trace_rows": len(trace),
        "final_hamming": trace[-1][1],
        "final_active": trace[-1][2],
    }
    return _emit(args, "sample", payload)


def cmd_exact(args, cfg):
    model = read_model(args.model)
    g = read_edge_list(args.graph)
    chain = enumerate_states(model, g, budget=args.state_budget)
    if not len(chain.pi):
        payload = {"states": 0, "note": "no feasible configuration"}
        return _emit(args, "exact", payload, code=EXIT_FAIL)
    transition_matrix(chain, lazy=not args.no_lazy)
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as fh:
            fh.write(format_chain_dump(chain))
    payload = {"states": len(chain.pi),
               "detailed_balance_gap": detailed_balance_gap(chain),
               "min_pi": float(chain.pi.min())}
    code = EXIT_PASS
    try:
        tau = relaxation_time(chain)
        tmix = mixing_time(chain, horizon=cfg["mixing_horizon"])
        recs = sandwich_check(chain, instance=f"{args.model}:{args.graph}",
                              tau=tau, tmix=tmix)
        payload.update({"relaxation": tau, "mixing": tmix,
                        "records": _records_json(recs)})
        if not all(r.passed for r in recs):
            code = EXIT_FAIL
    except DegenerateChainError as exc:
        payload["degenerate"] = str(exc)
        code = EXIT_FAIL
    return _emit(args, "exact", payload, code=code)


_SUITE_KNOBS = {
    "sandwich": ("state_budget", "horizon"),
    "cheeger": ("state_budget", "horizon"),
    "canonical": ("state_budget",),
    "decay": ("boundary_samples",),
    "skeleton-joint": (),
    "block-composition": ("state_budget",),
}


def cmd_verify(args, cfg):
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    values = {"state_budget": args.state_budget,
              "horizon": cfg["mixing_horizon"],
              "boundary_samples": cfg["decay_boundary_samples"]}
    records = []
    counts = {"passed": 0, "failed": 0, "skipped": 0}
    for name in names:
        kwargs = {k: values[k] for k in _SUITE_KNOBS[name]}
        report = run_suite(name, **kwargs)
        for rec in report.records:
            d = rec.to_json_dict()
            d["suite"] = name
            records.append(d)
            if getattr(rec, "check", None) == "skipped":
                counts["skipped"] += 1
            elif rec.passed:
                counts["passed"] += 1
            else:
                counts["failed"] += 1
    payload = {"suites": names, "counts": counts, "records": records}
    return _emit(args, "verify", payload,
                 code=EXIT_PASS if counts["failed"] == 0 else EXIT_FAIL)


def _scaling_start_pair(model, g):
    """Adversarial start pair: two greedy solutions from opposite vertex
    orders (colorings), empty versus greedily packed (hardcore), or all 0
    versus all q-1 (soft models, whose finite g makes both feasible).

    Where index order runs out of colors, the colorings are the
    smallest-last first-fit coloring and its color reversal c -> q-1-c,
    proper whenever the first exists.
    """
    n = g.n
    if model.kind == "soft":
        return (0,) * n, (model.q - 1,) * n
    if model.kind == "coloring":
        try:
            fwd = greedy_coloring(g, model.q)
            back = greedy_coloring(g, model.q, order=range(n - 1, -1, -1))
        except PaletteExhaustedError:
            fwd = initial_configuration(model, g)
            back = [model.q - 1 - c for c in fwd]
        return fwd, back
    taken = [0] * n
    for v in range(n):
        if all(taken[w] == 0 for w in g.adj[v]):
            taken[v] = 1
    return tuple([0] * n), tuple(taken)


def _scaling_cell(cell):
    n, d, q, beta, cell_seed, horizon = cell
    model = coloring_model(q) if beta is None else hardcore_model(beta)
    g = generate_er(n, d, cell_seed)
    a, b = _scaling_start_pair(model, g)
    t0 = time.perf_counter()
    steps = coalescence_time(model, g, a, b, horizon, seed=cell_seed)
    return steps, time.perf_counter() - t0


def cmd_scaling(args, cfg):
    if args.beta is None:
        args.q = 20 if args.q is None else args.q
    elif args.q is not None:
        raise ValueError("--q (colourings) and --beta (hardcore) exclude "
                         "each other")
    horizon = args.chain_horizon
    cells = []
    for n in args.sizes:
        for i in range(args.seeds):
            cell_seed = derive_seed(args.seed, "scaling", str(n), str(i))
            cells.append((n, args.d, args.q, args.beta, cell_seed, horizon))
    if args.workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            outcomes = list(pool.map(_scaling_cell, cells))
    else:
        outcomes = [_scaling_cell(c) for c in cells]

    rows = []
    walls = []
    for cell, (steps, wall) in zip(cells, outcomes):
        n, d, q, beta, cell_seed, _ = cell
        rows.append({"n": n, "d": d,
                     "q": q if beta is None else None,
                     "beta": beta, "seed": cell_seed,
                     "kind": "coalescence", "steps": steps,
                     "coalesced": steps is not None})
        walls.append(round(wall, 3))

    medians = {}
    for n in args.sizes:
        vals = [r["steps"] for r in rows if r["n"] == n and r["coalesced"]]
        medians[str(n)] = statistics.median(vals) if vals else None
    points = [(math.log(int(k)), math.log(v))
              for k, v in medians.items() if v]
    if len(points) < 2:
        slope = None
    else:
        mx = sum(x for x, _ in points) / len(points)
        my = sum(y for _, y in points) / len(points)
        var = sum((x - mx) ** 2 for x, _ in points)
        slope = sum((x - mx) * (y - my) for x, y in points) / var
    total = len(rows)
    bad = sum(1 for r in rows if not r["coalesced"])
    payload = {
        "rows": rows,
        "medians": medians,
        "slope": slope,
        "slope_note": None if slope is not None else
        "undefined: fewer than two sizes with coalesced medians",
        "non_coalesced_fraction": bad / total if total else 0.0,
        "horizon": horizon,
    }
    return _emit(args, "scaling", payload, meta_extra={"walls": walls})


def cmd_couple(args, cfg):
    model = read_model(args.model)
    g = read_edge_list(args.graph)
    horizon = args.chain_horizon
    a, b = _scaling_start_pair(model, g)
    hamming = sum(1 for x, y in zip(a, b) if x != y)
    t0 = time.perf_counter()
    steps = coalescence_time(model, g, a, b, horizon, seed=args.seed,
                             lazy=not args.no_lazy)
    wall = time.perf_counter() - t0
    done = horizon if steps is None else steps
    payload = {"initial_hamming": hamming, "steps": steps,
               "coalesced": steps is not None, "horizon": horizon}
    meta = {"wall_s": round(wall, 6),
            "steps_per_s": round(done / wall) if wall > 0 else None}
    return _emit(args, "couple", payload, meta_extra=meta,
                 code=EXIT_PASS if steps is not None else EXIT_BUDGET)


def _checked(convert, check):
    """An argparse type: convert the text, then check the value."""
    def parse(text):
        try:
            value = convert(text)
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return parse


_COUNT = _checked(int, _check_count)

# The flags several commands share, by dest.  Every dest that is also a
# config key falls back to the config's value when its flag is not given.
_SHARED = {
    "seed": ("--seed", dict(type=int, help="base seed")),
    "node_budget": ("--budget", dict(type=_COUNT, help="DFS node budget")),
    "state_budget": ("--budget", dict(type=_COUNT, help="state budget")),
    "log_base": ("--log-base", dict(type=_checked(float, _check_log_base),
                                    help="base of logs in length scales")),
    "out": ("--out", dict(help="output path")),
    "format": ("--format", dict(choices=CHOICES["format"])),
    "config": ("--config", dict(help="JSON config overriding defaults")),
    "chain_horizon": ("--horizon", dict(type=_COUNT,
                                        help="step cap of coupled runs")),
}


def _command(sub, name, func, shared, help):
    """A subparser taking the listed shared flags."""
    sp = sub.add_parser(name, help=help)
    for dest in shared:
        flag, kwargs = _SHARED[dest]
        sp.add_argument(flag, dest=dest, **kwargs)
    sp.set_defaults(func=func)
    return sp


def _hypothesis_args(sp):
    sp.add_argument("graph")
    for flag, kind in (("--a", float), ("--alpha", float), ("--t", int),
                       ("--delta", float)):
        sp.add_argument(flag, type=kind, required=True)


def build_parser():
    p = argparse.ArgumentParser(
        prog="glauberlab",
        description="Spin-system Gibbs sampling toolkit: generation, "
                    "hypothesis checking, decomposition, sampling, and "
                    "exact verification.")
    sub = p.add_subparsers(dest="command", required=True)
    hypothesis = ("node_budget", "log_base", "out", "format", "config")
    chain = ("seed", "out", "format", "config")
    exact = ("state_budget", "out", "format", "config")

    sp = _command(sub, "gen", cmd_gen, ("seed", "out", "config"),
                  "generate a sparse random graph")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=float, required=True,
                    help="target average degree (p = d/n)")

    sp = _command(sub, "check", cmd_check, hypothesis,
                  "check the structural hypothesis")
    _hypothesis_args(sp)

    sp = _command(sub, "decompose", cmd_decompose, hypothesis,
                  "build and validate a block partition")
    _hypothesis_args(sp)
    sp.add_argument("--length-scale", type=float, default=None,
                    dest="length_scale", help="override the block scale L")
    sp.add_argument("--scan-order", choices=CHOICES["scan_order"],
                    default=None, dest="scan_order")
    sp.add_argument("--partition-out", default=None, dest="partition_out",
                    help="write the partition JSON here")

    sp = _command(sub, "sample", cmd_sample, chain,
                  "run the single-site sampler")
    sp.add_argument("--model", required=True)
    sp.add_argument("--graph", required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--stride", type=int, default=None)
    sp.add_argument("--no-lazy", action="store_true", dest="no_lazy")

    sp = _command(sub, "exact", cmd_exact, exact,
                  "enumerate a chain and report exact times")
    sp.add_argument("--model", required=True)
    sp.add_argument("--graph", required=True)
    sp.add_argument("--no-lazy", action="store_true", dest="no_lazy")
    sp.add_argument("--dump", default=None,
                    help="write the full chain (states, pi, P) here")

    sp = _command(sub, "verify", cmd_verify, exact,
                  "run exact verification suites on the zoo")
    sp.add_argument("--suite", default="all",
                    choices=["all"] + sorted(SUITES))

    sp = _command(sub, "scaling", cmd_scaling, chain + ("chain_horizon",),
                  "coalescence-time scaling table")
    sp.add_argument("--d", type=float, required=True)
    sp.add_argument("--q", type=int, default=None)
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--sizes", type=int, nargs="+", required=True)
    sp.add_argument("--seeds", type=_COUNT, default=5,
                    help="seeds per size")
    sp.add_argument("--workers", type=_COUNT, default=1)

    sp = _command(sub, "couple", cmd_couple, chain + ("chain_horizon",),
                  "run one coupled pair to coalescence")
    sp.add_argument("--model", required=True)
    sp.add_argument("--graph", required=True)
    sp.add_argument("--no-lazy", action="store_true", dest="no_lazy")
    return p


@functools.cache
def _parser():
    return build_parser()


def main(argv=None):
    """Run one command; returns its exit code.  The parser is built on
    the first call and reused by every later one in the process."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; keep 2 reserved for budgets
        return 0 if exc.code == 0 else EXIT_INVALID
    try:
        cfg = load_config(args.config)
        # an unset flag whose dest is a config key takes the config value
        for key, value in cfg.items():
            if getattr(args, key, 0) is None:
                setattr(args, key, value)
        return args.func(args, cfg)
    except (BudgetExceededError, HorizonExceededError) as exc:
        print(f"{args.command}: budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print(f"{args.command}: budget exhausted: out of memory",
              file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError, KeyError) as exc:
        print(f"{args.command}: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
