"""Command-line surface: generate, check, decompose, sample, analyze.

Every command is deterministic given its argument list; wall-clock values
live only in the "meta" section of the output document, so the "payload"
section is byte-stable and safe to digest in regression tests.

Exit codes: 0 pass, 1 check failure, 2 budget or horizon exhaustion,
3 invalid input.
"""

import argparse
import csv
import io
import json
import math
import statistics
import sys
import time
from datetime import datetime, timezone

from .blocks import decompose, validate_partition, write_partition
from .defaults import CHOICES, load_config
from .dynamics import (coalescence_time, run_chain, write_checkpoint)
from .errors import (BudgetExceededError, DegenerateChainError,
                     HorizonExceededError)
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
                raise ValueError("csv output needs tabular payload")
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


def _positive(flag, cfg, key, name):
    """The flag's value, or the config's when the flag is not given."""
    value = flag if flag is not None else cfg[key]
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")
    return value


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
    budget = _positive(args.budget, cfg, "node_budget", "budget")
    rep = check_hypothesis(g, hp, node_budget=budget,
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
                 code=EXIT_PASS if rep.passed else EXIT_FAIL)


def cmd_decompose(args, cfg):
    g = read_edge_list(args.graph)
    hp = HypothesisParams(a=args.a, alpha=args.alpha, t=args.t,
                          delta=args.delta)
    budget = _positive(args.budget, cfg, "node_budget", "budget")
    partition = decompose(g, hp, L=args.length_scale,
                          log_base=args.log_base,
                          scan_order=args.scan_order, node_budget=budget)
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
            fh.write(_rows_to_csv([{"step": s, "hamming": h, "active": a}
                                   for s, h, a in trace]))
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
    budget = _positive(args.budget, cfg, "state_budget", "budget")
    chain = enumerate_states(model, g, budget=budget)
    if not chain.states:
        payload = {"states": 0, "note": "no feasible configuration"}
        return _emit(args, "exact", payload, code=EXIT_FAIL)
    transition_matrix(chain, lazy=not args.no_lazy)
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as fh:
            fh.write(format_chain_dump(chain))
    payload = {"states": len(chain.states),
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
    budget = _positive(args.budget, cfg, "state_budget", "budget")
    values = {"state_budget": budget, "horizon": cfg["mixing_horizon"],
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
    orders (colorings), or empty versus greedily packed (hardcore)."""
    n = g.n
    if model.kind == "coloring":
        fwd = greedy_coloring(g, model.q)
        back = greedy_coloring(g, model.q, order=range(n - 1, -1, -1))
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
    if min(args.seeds, args.workers) < 1:
        raise ValueError("--seeds and --workers must be at least 1")
    horizon = _positive(args.horizon, cfg, "chain_horizon", "horizon")
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
    horizon = _positive(args.horizon, cfg, "chain_horizon", "horizon")
    a, b = _scaling_start_pair(model, g)
    hamming = sum(1 for x, y in zip(a, b) if x != y)
    steps = coalescence_time(model, g, a, b, horizon, seed=args.seed,
                             lazy=not args.no_lazy)
    payload = {"initial_hamming": hamming, "steps": steps,
               "coalesced": steps is not None, "horizon": horizon}
    return _emit(args, "couple", payload,
                 code=EXIT_PASS if steps is not None else EXIT_BUDGET)


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="base seed (default from config)")
    common.add_argument("--budget", type=int, default=None,
                        help="search/state budget override")
    common.add_argument("--log-base", type=float, default=None,
                        dest="log_base",
                        help="base of logarithms in length scales")
    common.add_argument("--out", default=None, help="output path")
    common.add_argument("--format", choices=CHOICES["format"], default=None)
    common.add_argument("--config", default=None,
                        help="JSON config file overriding defaults")

    p = argparse.ArgumentParser(
        prog="glauberlab",
        description="Spin-system Gibbs sampling toolkit: generation, "
                    "hypothesis checking, decomposition, sampling, and "
                    "exact verification.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", parents=[common],
                        help="generate a sparse random graph")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=float, required=True,
                    help="target average degree (p = d/n)")
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("check", parents=[common],
                        help="check the structural hypothesis")
    sp.add_argument("graph")
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--delta", type=float, required=True)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("decompose", parents=[common],
                        help="build and validate a block partition")
    sp.add_argument("graph")
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--length-scale", type=float, default=None,
                    dest="length_scale", help="override the block scale L")
    sp.add_argument("--scan-order", choices=CHOICES["scan_order"],
                    default=None, dest="scan_order")
    sp.add_argument("--partition-out", default=None, dest="partition_out",
                    help="write the partition JSON here")
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("sample", parents=[common],
                        help="run the single-site sampler")
    sp.add_argument("--model", required=True)
    sp.add_argument("--graph", required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--stride", type=int, default=None)
    sp.add_argument("--no-lazy", action="store_true", dest="no_lazy")
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("exact", parents=[common],
                        help="enumerate a chain and report exact times")
    sp.add_argument("--model", required=True)
    sp.add_argument("--graph", required=True)
    sp.add_argument("--no-lazy", action="store_true", dest="no_lazy")
    sp.add_argument("--dump", default=None,
                    help="write the full chain (states, pi, P) here")
    sp.set_defaults(func=cmd_exact)

    sp = sub.add_parser("verify", parents=[common],
                        help="run exact verification suites on the zoo")
    sp.add_argument("--suite", default="all",
                    choices=["all"] + sorted(SUITES))
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("scaling", parents=[common],
                        help="coalescence-time scaling table")
    sp.add_argument("--d", type=float, required=True)
    sp.add_argument("--q", type=int, default=None)
    sp.add_argument("--beta", type=float, default=None)
    sp.add_argument("--sizes", type=int, nargs="+", required=True)
    sp.add_argument("--seeds", type=int, default=5,
                    help="seeds per size")
    sp.add_argument("--horizon", type=int, default=None)
    sp.add_argument("--workers", type=int, default=1)
    sp.set_defaults(func=cmd_scaling)

    sp = sub.add_parser("couple", parents=[common],
                        help="run one coupled pair to coalescence")
    sp.add_argument("--model", required=True)
    sp.add_argument("--graph", required=True)
    sp.add_argument("--horizon", type=int, default=None)
    sp.add_argument("--no-lazy", action="store_true", dest="no_lazy")
    sp.set_defaults(func=cmd_couple)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; keep 2 reserved for budgets
        return 0 if exc.code == 0 else EXIT_INVALID
    try:
        cfg = load_config(args.config)
        if args.seed is None:
            args.seed = cfg["seed"]
        if args.log_base is None:
            args.log_base = cfg["log_base"]
        if args.format is None:
            args.format = cfg["format"]
        if getattr(args, "scan_order", "") is None:
            args.scan_order = cfg["scan_order"]
        return args.func(args, cfg)
    except (BudgetExceededError, HorizonExceededError) as exc:
        print(f"{args.command}: budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError, KeyError) as exc:
        print(f"{args.command}: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
