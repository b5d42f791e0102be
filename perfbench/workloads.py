"""The benchmark's four workloads: their inputs, their jobs, the checks
of their outputs, and the functions the traced run wraps.

Each job is a fixed sequence of operations issued from one process, the
way a user drives glauberlab: CLI commands through ``glauberlab.cli.main``
and, for block dynamics, which has no command, ``run_block_chain`` on the
partition a ``decompose --partition-out`` wrote. The program sees only the
files written here.
"""

import csv
import math
import os
import traceback
from dataclasses import dataclass, field

from glauberlab import (blocks, cli, dynamics, exact, graphs, models, rng,
                        trees, zoo)

import checks
import layers

# The paper's constants, as in acceptance criterion 5: a=0.2, alpha=0.25,
# t=1, delta=2.07, on G(n, 2/n) with n = 3500 rather than 5000 so that a
# job takes about 5 s (the radius ceil(0.2 ln n) is 2 for both).
HYPOTHESIS = {"a": 0.2, "alpha": 0.25, "t": 1, "delta": 2.07}
HYPOTHESIS_N, HYPOTHESIS_D = 3500, 2.0

# Criterion 6's regime: every vertex is good and the skeleton grows large
# (L = 2 / ln n). Skeleton growth time varies from graph to graph by about
# 26 % (standard deviation over mean, n = 400 to 1000), so the job grows
# many small graphs, whose summed time varies less.
SKELETON = {"a": 1.0, "alpha": 0.5, "t": 1000, "delta": 100.0}
SKELETON_N, SKELETON_D, SKELETON_GRAPHS = 400, 2.5, 12

# Block-chain graph: planted 5-cycles, each with a 2-vertex path hanging
# off every cycle vertex, beside a subcritical ER background. At L = 0.15
# (cycles of fewer than 5 L ln n = 5.3 vertices join the skeleton) every
# cycle becomes one skeleton block with five tree pieces.
CHAIN_BLOCK = {"a": 0.3, "alpha": 0.25, "t": 1, "delta": 2.07}
CHAIN_L = 0.15
CHAIN_N, CHAIN_GADGETS, CHAIN_BACKGROUND_D = 1200, 30, 0.5
CHAIN_STEPS = 3 * 10 ** 4

HARDCORE_BETA = 1.0
SAMPLE_N, SAMPLE_D, SAMPLE_STEPS = 5000, 2.0, 5 * 10 ** 5
# Coalescence time is random: one coupled run varies by about 20 % from
# seed to seed, so it runs on a smaller graph than the sampler.
COUPLE_N = 1000
# Criterion 9's arguments, its seed included, so that this third of the
# job does the same work on every benchmark seed.
SCALING = ["--d", "2.0", "--q", "20", "--sizes", "250", "500", "1000",
           "2000", "--seeds", "5", "--workers", "1"]

EXACT_PATH, EXACT_Q = 9, 3


def _flags(params):
    return [x for k, v in params.items() for x in (f"--{k}", str(v))]


def hypothesis_graph(seed):
    """G(n, 2/n) conditioned on the tree-excess clause at the paper's
    radius: candidate seeds are tried in a fixed order derived from
    ``seed`` (seed itself first) until one passes, checked by local BFS."""
    radius = graphs.log_radius(HYPOTHESIS["a"], HYPOTHESIS_N)
    for k in range(64):
        gseed = seed if k == 0 else rng.derive_seed(seed, "clause-1", k)
        g = graphs.generate_er(HYPOTHESIS_N, HYPOTHESIS_D, gseed)
        if max(checks.ball_excess(g, radius)) <= HYPOTHESIS["t"]:
            return g
    raise RuntimeError(f"no graph passing the tree-excess clause for {seed}")


def gadget_graph(seed):
    """The block-chain graph and its planted cycles, labels shuffled."""
    background = CHAIN_N - 15 * CHAIN_GADGETS
    g = graphs.generate_er(background, CHAIN_BACKGROUND_D, seed)
    edges = list(g.edges)
    cycles = []
    nxt = background
    for _ in range(CHAIN_GADGETS):
        ring = list(range(nxt, nxt + 5))
        nxt += 5
        edges += [(ring[i], ring[(i + 1) % 5]) for i in range(5)]
        for r in ring:
            edges += [(r, nxt), (nxt, nxt + 1)]
            nxt += 2
        cycles.append(ring)
    label = list(range(CHAIN_N))
    rng.make_rng(seed, "perfbench", "labels").shuffle(label)
    relabelled = graphs.Graph(CHAIN_N, [(label[u], label[v])
                                        for u, v in edges])
    return relabelled, [sorted(label[v] for v in c) for c in cycles]


@dataclass
class Inputs:
    seed: int
    work: str
    files: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def path(self, name):
        return os.path.join(self.work, name)


def make_inputs(workload, seed, work):
    """Generate the workload's graphs and models from ``seed`` and write
    the files its job reads."""
    inp = Inputs(seed, work)

    def write_graph(key, g):
        inp.files[key] = inp.path(f"{key}.edges")
        graphs.write_edge_list(g, inp.files[key])

    def write_model(key, model):
        inp.files[key] = inp.path(f"{key}.json")
        models.write_model(model, inp.files[key])

    if workload == "hypothesis":
        write_graph("graph", hypothesis_graph(seed))
    elif workload == "blocks":
        for i in range(SKELETON_GRAPHS):
            write_graph(f"skeleton-{i}", graphs.generate_er(
                SKELETON_N, SKELETON_D, rng.derive_seed(seed, "skeleton", i)))
        g, cycles = gadget_graph(seed)
        write_graph("chain", g)
        inp.extra["cycles"] = cycles
        write_model("hardcore", models.hardcore_model(HARDCORE_BETA))
    elif workload == "chains":
        write_graph("graph", graphs.generate_er(SAMPLE_N, SAMPLE_D, seed))
        write_graph("couple", graphs.generate_er(
            COUPLE_N, SAMPLE_D, rng.derive_seed(seed, "couple")))
        write_model("hardcore", models.hardcore_model(HARDCORE_BETA))
    elif workload == "exact":
        write_graph("path", graphs.Graph(
            EXACT_PATH, [(v, v + 1) for v in range(EXACT_PATH - 1)]))
        write_model("coloring", models.coloring_model(EXACT_Q))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inp


@dataclass
class Outcome:
    codes: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    chain: object = None


def _cli(out, op, argv, path):
    out.outputs[op] = path
    out.codes[op] = cli.main(argv + ["--out", path])


def run_job(workload, inp):
    """Run the workload's operations in order; never raises for a failed
    operation, whose exit code is kept instead."""
    out = Outcome()
    seed = str(inp.seed)
    if workload == "hypothesis":
        g = inp.files["graph"]
        _cli(out, "check", ["check", g] + _flags(HYPOTHESIS),
             inp.path("check.json"))
        _cli(out, "decompose", ["decompose", g] + _flags(HYPOTHESIS),
             inp.path("decompose.json"))
    elif workload == "blocks":
        scale = str(2 / math.log(SKELETON_N))
        for i in range(SKELETON_GRAPHS):
            for order in ("low", "high"):
                tag = f"{order}-{i}"
                _cli(out, f"decompose-{tag}",
                     ["decompose", inp.files[f"skeleton-{i}"]]
                     + _flags(SKELETON)
                     + ["--length-scale", scale, "--scan-order", order,
                        "--partition-out", inp.path(f"partition-{tag}.json")],
                     inp.path(f"decompose-{tag}.json"))
        _cli(out, "decompose-chain",
             ["decompose", inp.files["chain"]] + _flags(CHAIN_BLOCK)
             + ["--length-scale", str(CHAIN_L),
                "--partition-out", inp.path("partition-chain.json")],
             inp.path("decompose-chain.json"))
        out.codes["block-chain"] = 1
        if out.codes["decompose-chain"] == 0:
            try:
                model = models.read_model(inp.files["hardcore"])
                g = graphs.read_edge_list(inp.files["chain"])
                part = blocks.read_partition(inp.path("partition-chain.json"))
                out.chain = dynamics.run_block_chain(
                    model, g, part, [0] * g.n, CHAIN_STEPS, seed=inp.seed)
                out.codes["block-chain"] = 0
            except Exception:  # a fault in the program: count it, go on
                traceback.print_exc()
    elif workload == "chains":
        g, hc = inp.files["graph"], inp.files["hardcore"]
        _cli(out, "sample", ["sample", "--model", hc, "--graph", g,
                             "--steps", str(SAMPLE_STEPS), "--seed", seed],
             inp.path("sample.json"))
        _cli(out, "couple", ["couple", "--model", hc, "--graph",
                             inp.files["couple"], "--seed", seed],
             inp.path("couple.json"))
        _cli(out, "scaling", ["scaling"] + SCALING, inp.path("scaling.json"))
    elif workload == "exact":
        _cli(out, "exact", ["exact", "--model", inp.files["coloring"],
                            "--graph", inp.files["path"]],
             inp.path("exact.json"))
        _cli(out, "verify", ["verify", "--suite", "all"],
             inp.path("verify.json"))
    return out


def _check_blocks(inp, out, p):
    problems = [f"{op}: partition validation failed"
                for op in p if op.startswith("decompose")
                and not p[op]["passed"]]

    def partition(tag):
        return blocks.read_partition(inp.path(f"partition-{tag}.json"))

    for i in range(SKELETON_GRAPHS):
        g = graphs.read_edge_list(inp.files[f"skeleton-{i}"])
        low, high = partition(f"low-{i}"), partition(f"high-{i}")
        problems += checks.skeleton_problems(
            g, checks.skeleton_of(low), checks.skeleton_of(high),
            2 / math.log(SKELETON_N))
        problems += checks.cover_problems(g.n, low)
        problems += checks.cover_problems(g.n, high)
    g = graphs.read_edge_list(inp.files["chain"])
    chain = partition("chain")
    problems += checks.cover_problems(g.n, chain)
    skeletons = [set(b.skeleton) for b in chain.blocks]
    lost = [c for c in inp.extra["cycles"]
            if not any(set(c) <= s for s in skeletons)]
    if lost:
        problems.append(f"planted cycles {lost[:2]} are not skeletons")
    if out.chain is None:
        return problems + ["block chain did not run"]
    problems += checks.independent_set_problems(g, out.chain[0].config)
    problems += checks.isolated_share_problems(g, out.chain[0].config,
                                               HARDCORE_BETA)
    return problems


def _check_chains(inp, out, p):
    problems = []
    g = graphs.read_edge_list(inp.files["graph"])
    base = out.outputs["sample"]
    config = dynamics.read_checkpoint(base + ".ckpt").config
    problems += checks.independent_set_problems(g, config)
    with open(base + ".trace.csv", newline="", encoding="utf-8") as fh:
        last = list(csv.DictReader(fh))[-1]
    occupied = sum(1 for x in config if x)
    # the hardcore chain starts from the empty set
    if (int(last["step"]), int(last["hamming"]), int(last["active"])) != \
            (SAMPLE_STEPS, occupied, occupied):
        problems.append(f"last trace row {last} != recount {occupied}")
    problems += checks.isolated_share_problems(g, config, HARDCORE_BETA)
    couple = p["couple"]
    if not (couple["coalesced"] and couple["steps"] <= couple["horizon"]):
        problems.append(f"couple did not coalesce: {couple}")
    scaling = p["scaling"]
    if scaling["non_coalesced_fraction"] != 0.0 or not all(
            r["coalesced"] for r in scaling["rows"]):
        problems.append("a scaling cell did not coalesce")
    if scaling["slope"] is None or scaling["slope"] > 3.5:
        problems.append(f"scaling slope {scaling['slope']} > 3.5")
    return problems


def _check_exact(inp, out, p):
    _, tau = checks.path_coloring_relaxation(EXACT_PATH, EXACT_Q)
    problems = checks.exact_problems(p["exact"], EXACT_PATH, EXACT_Q, tau)
    counts = p["verify"]["counts"]
    if counts["failed"] != 0 or counts["passed"] == 0:
        problems.append(f"verify counts {counts}")
    return problems


def check_outputs(workload, inp, out):
    """Problems found in the job's outputs; a failed operation is one."""
    if any(code != 0 for code in out.codes.values()):
        failed = sorted(op for op, c in out.codes.items() if c != 0)
        return [f"operations {failed} failed; their outputs are unchecked"]
    p = {op: checks.payload(path) for op, path in out.outputs.items()}
    if workload == "hypothesis":
        g = graphs.read_edge_list(inp.files["graph"])
        return checks.hypothesis_problems(g, p["check"], p["decompose"],
                                          HYPOTHESIS)
    return {"blocks": _check_blocks, "chains": _check_chains,
            "exact": _check_exact}[workload](inp, out, p)


def _joint_key(model, graph, block, boundary, *args, **kwargs):
    return block.vertices, tuple(sorted(boundary.items()))


def trace_targets():
    """(holder, attribute, span name, opaque, key) for every wrapped
    function, at each name its callers look it up by."""
    modules = {"blocks": blocks, "cli": cli, "dynamics": dynamics,
               "exact": exact, "graphs": graphs, "trees": trees}
    targets = []
    for name, holders in layers.SPANS.items():
        attr = name.split(".", 1)[1]
        key = _joint_key if name == "exact.skeleton_joint" else None
        targets += [(modules[h], attr, name, False, key) for h in holders]
    targets += [(zoo.SUITES, suite, f"zoo.run_suite.{suite}", True, None)
                for suite in layers.SUITES]
    return targets


def work_counts(inp, out):
    """Counts of work done, read from the job's outputs."""
    counts = {"blocks.skeleton_vertices": 0, "dynamics.run_chain.steps": 0,
              "dynamics.coalescence_time.steps": 0, "exact.states": 0,
              "exact.matrix_mb": 0.0, "cli.output_bytes": 0}
    for op, path in out.outputs.items():
        if out.codes.get(op) != 0:
            continue
        counts["cli.output_bytes"] += os.path.getsize(path)
        payload = checks.payload(path)
        if op.startswith("decompose"):
            counts["blocks.skeleton_vertices"] += payload["skeleton_vertices"]
        elif op == "sample":
            counts["dynamics.run_chain.steps"] += payload["steps"]
            counts["cli.output_bytes"] += sum(
                os.path.getsize(path + ext) for ext in (".trace.csv",
                                                        ".ckpt"))
        elif op == "couple":
            counts["dynamics.coalescence_time.steps"] += payload["steps"]
        elif op == "scaling":
            counts["dynamics.coalescence_time.steps"] += sum(
                r["steps"] for r in payload["rows"])
        elif op == "exact":
            counts["exact.states"] = payload["states"]
            counts["exact.matrix_mb"] = payload["states"] ** 2 * 8 / 1e6
    for name in os.listdir(inp.work):
        if name.startswith("partition-"):
            counts["cli.output_bytes"] += os.path.getsize(inp.path(name))
    return counts
