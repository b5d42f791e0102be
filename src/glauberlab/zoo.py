"""Built-in instance collections and the named verification suites.

The graph censuses are listed data: one graph6 string per isomorphism
class, in a fixed order that also fixes the names, so test pins and CLI
reports stay stable.  tests/test_zoo.py regenerates both by brute force.
"""

import functools
import heapq
import itertools
import math

from .blocks import Block, BlockPartition, Piece
from .defaults import DEFAULTS
from .dynamics import compose_block_law
from .errors import BudgetExceededError, CheegerHypothesisError
from .exact import (_path_congestion, block_composition_check,
                    cheeger_bound, coloring_q_threshold, enumerate_states,
                    hardcore_activity_threshold, is_irreducible, law_tv,
                    mixing_time, relaxation_time, sandwich_check,
                    soft_norm_threshold, transition_matrix, tree_decay_check)
from .graphs import Graph
from .models import coloring_model, hardcore_model, model_norm, soft_model
from .records import BoundRecord, CheckRecord, Report
from .rng import make_rng

_CONNECTED_G6 = (
    "@ A_ Bo Bw Cs Cq C{ Cr C} C~ Ds_ DsO DqG D{_ D{O D{C DsW DqK D}_ D{c D}G "
    "D{S Ds[ D}o D~_ D}g D}K D~o D}k D~w D~{").split()
_REGULAR_G6 = (
    "@ A? A_ B? Bw C? C` C] C~ D?? DqK D~{ E??? E`?G EwCW EqGW EFz_ ELv_ E]~o "
    "E~~w F???? FwCOW FqGOW FFzn_ FLvn_ F~~~w G????? G`?G?C GwCOOK Gr?GOK "
    "GqGOOK G~?GW[ G}GOW[ G{S_g[ G{O_ww GsXP_[ GsXPGs G?~vf_ G@vnf_ GBj^V_ "
    "GBn^FC GJem^_ GJemvG GFznno GK~vno GLvnno G]~v~w G~~~~{").split()


def _from_graph6(code):
    """The graph a graph6 string (at most 62 vertices) encodes."""
    n = ord(code[0]) - 63
    bits = "".join(f"{ord(c) - 63:06b}" for c in code[1:])
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return Graph(n, [p for p, b in zip(pairs, bits) if b == "1"])


@functools.lru_cache(maxsize=None)
def connected_graphs():
    """All connected graphs on 1..5 vertices up to isomorphism.

    Returns [(name, Graph)] with names G{n}.{k}, ordered by vertex count,
    then edge count, then canonical edge list.
    """
    out = []
    for code in _CONNECTED_G6:
        g = _from_graph6(code)
        k = sum(1 for _, h in out if h.n == g.n) + 1
        out.append((f"G{g.n}.{k}", g))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def regular_graphs():
    """All regular graphs (any degree, connectivity not required) on
    1..8 vertices up to isomorphism, as [(name, degree, Graph)].

    Ordered by vertex count, then degree, then sorted edge list (the
    complement's, where the degree exceeds (n - 1) / 2).
    """
    out = []
    for code in _REGULAR_G6:
        g = _from_graph6(code)
        d = g.degree(0)
        i = sum(1 for _, e, h in out if (h.n, e) == (g.n, d)) + 1
        out.append((f"reg{d}-n{g.n}-{i}", d, g))
    return tuple(out)


def _soft_grid_model():
    rng = make_rng(0, "zoo", "soft")
    q = 3
    h = tuple(round(rng.uniform(-0.5, 0.5), 3) for _ in range(q))
    g = [[0.0] * q for _ in range(q)]
    for a in range(q):
        for b in range(a, q):
            g[a][b] = g[b][a] = round(rng.uniform(-0.5, 0.5), 3)
    return soft_model(h, tuple(tuple(row) for row in g))


def model_grid():
    """The model panel every zoo suite sweeps."""
    return [
        ("coloring-q3", coloring_model(3)),
        ("coloring-q4", coloring_model(4)),
        ("hardcore-b0", hardcore_model(0.0)),
        ("hardcore-b0.5", hardcore_model(0.5)),
        ("hardcore-b1", hardcore_model(1.0)),
        ("soft-r", _soft_grid_model()),
    ]


def random_tree(k, seed):
    """Uniform labeled tree on k vertices via a random Pruefer sequence."""
    if k < 1:
        raise ValueError("need at least one vertex")
    if k == 1:
        return Graph(1, [])
    if k == 2:
        return Graph(2, [(0, 1)])
    rng = make_rng(seed, "tree")
    seq = [rng.randrange(k) for _ in range(k - 2)]
    degree = [1] * k
    for a in seq:
        degree[a] += 1
    edges = []
    leaves = [v for v in range(k) if degree[v] == 1]
    heapq.heapify(leaves)
    for a in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, a), max(leaf, a)))
        degree[a] -= 1
        if degree[a] == 1:
            heapq.heappush(leaves, a)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return Graph(k, edges)


def skeleton_block_cases():
    """Hand-built skeleton blocks with boundaries, for the two-stage
    sampler law versus full enumeration."""
    cases = []

    tri = Graph(3, [(0, 1), (0, 2), (1, 2)])
    cases.append(("tri-w-q3", coloring_model(3), tri,
                  Block("skeleton", (0, 1, 2), skeleton=(0, 1, 2)), {}))

    g2 = Graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (4, 5)])
    blk2 = Block("skeleton", (0, 1, 2, 3, 4), skeleton=(0, 1, 2),
                 pieces=(Piece(root=0, vertices=(3, 4)),))
    cases.append(("tri-tail-q3", coloring_model(3), g2, blk2, {5: 1}))
    cases.append(("tri-tail-hc", hardcore_model(0.7), g2, blk2, {5: 0}))

    g4 = Graph(7, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (2, 5), (5, 6)])
    blk4 = Block("skeleton", (0, 1, 2, 3, 4, 5, 6), skeleton=(0, 1, 2, 3),
                 pieces=(Piece(root=0, vertices=(4,)),
                         Piece(root=2, vertices=(5, 6))))
    cases.append(("c4-two-trees-q4", coloring_model(4), g4, blk4, {}))

    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    blk5 = Block("skeleton", (0, 1, 2, 3), skeleton=(0,),
                 pieces=(Piece(root=0, vertices=(1,)),
                         Piece(root=0, vertices=(2,)),
                         Piece(root=0, vertices=(3,))))
    cases.append(("star-center-q3", coloring_model(3), star, blk5, {}))

    k2 = Graph(2, [(0, 1)])
    cases.append(("k2-w-q3", coloring_model(3), k2,
                  Block("skeleton", (0, 1), skeleton=(0, 1)), {}))

    path4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    blk7 = Block("skeleton", (0, 1, 2, 3), skeleton=(1, 2),
                 pieces=(Piece(root=1, vertices=(0,)),
                         Piece(root=2, vertices=(3,))))
    cases.append(("path4-mid-soft", _soft_grid_model(), path4, blk7, {}))

    star_b = Graph(4, [(0, 1), (0, 2), (0, 3)])
    blk8 = Block("skeleton", (0, 1, 2), skeleton=(0,),
                 pieces=(Piece(root=0, vertices=(1,)),
                         Piece(root=0, vertices=(2,))))
    cases.append(("star-occupied-hc", hardcore_model(0.5), star_b, blk8,
                  {3: 1}))

    g9 = Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    blk9 = Block("skeleton", (0, 1, 2, 3, 4), skeleton=(0,),
                 pieces=(Piece(root=0, vertices=(1,)),
                         Piece(root=0, vertices=(2,)),
                         Piece(root=0, vertices=(3, 4))))
    cases.append(("claw-chain-q3", coloring_model(3), g9, blk9, {}))

    k4e = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    cases.append(("k4e-w-q4", coloring_model(4), k4e,
                  Block("skeleton", (0, 1, 2, 3), skeleton=(0, 1, 2, 3)),
                  {}))
    return cases


def partitioned_cases():
    """Hand-built (model, graph, partition) triples for the composition
    bound; blocks cover the graph disjointly."""
    e = math.e

    def part(blocks):
        return BlockPartition(blocks=tuple(blocks), L=1.0, log_base=e, t=1)

    cases = []
    path3 = Graph(3, [(0, 1), (1, 2)])
    cases.append(("path3-q3-split", coloring_model(3), path3, part([
        Block("singleton", (0,)), Block("tree", (1, 2))])))

    path4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    cases.append(("path4-q3-halves", coloring_model(3), path4, part([
        Block("tree", (0, 1)), Block("tree", (2, 3))])))

    tri = Graph(3, [(0, 1), (0, 2), (1, 2)])
    cases.append(("tri-q4-single", coloring_model(4), tri, part([
        Block("skeleton", (0, 1, 2), skeleton=(0, 1, 2))])))

    claw = Graph(4, [(0, 1), (0, 2), (0, 3)])
    cases.append(("claw-q4-single", coloring_model(4), claw, part([
        Block("tree", (0, 1, 2, 3))])))

    k2 = Graph(2, [(0, 1)])
    cases.append(("k2-hc0-sites", hardcore_model(0.0), k2, part([
        Block("singleton", (0,)), Block("singleton", (1,))])))

    cases.append(("path3-hc-straddle", hardcore_model(0.5), path3, part([
        Block("tree", (0, 2)), Block("singleton", (1,))])))

    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    cases.append(("c4-q3-halves", coloring_model(3), c4, part([
        Block("tree", (0, 1)), Block("tree", (2, 3))])))

    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    cases.append(("c5-q4-2-3", coloring_model(4), c5, part([
        Block("tree", (0, 1)), Block("tree", (2, 3, 4))])))

    cases.append(("path3-soft-sites", _soft_grid_model(), path3, part([
        Block("singleton", (0,)), Block("singleton", (1,)),
        Block("singleton", (2,))])))

    k4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    cases.append(("k4-q5-1-3", coloring_model(5), k4, part([
        Block("singleton", (0,)),
        Block("skeleton", (1, 2, 3), skeleton=(1, 2, 3))])))
    return cases


def _skip(report, instance, reason):
    report.add(CheckRecord(check="skipped", passed=True,
                           witness={"instance": instance, "reason": reason}))


@functools.lru_cache(maxsize=1)
def _zoo_chains(state_budget):
    """(instance, chain) for every model x connected graph that is
    feasible, irreducible, and within budget; infeasible or degenerate
    combinations come out as (instance, reason string).

    Built once per state budget and shared by the sandwich, cheeger and
    canonical suites, so each chain's P and pi are made read-only.
    """
    out = []
    for mname, model in model_grid():
        for gname, graph in connected_graphs():
            instance = f"{mname}/{gname}"
            try:
                chain = enumerate_states(model, graph, budget=state_budget)
            except BudgetExceededError:
                out.append((instance, "state budget exceeded"))
                continue
            if not len(chain.pi):
                out.append((instance, "no feasible configuration"))
                continue
            transition_matrix(chain, lazy=True)
            if not is_irreducible(chain):
                out.append((instance, "reducible chain"))
                continue
            chain.P.flags.writeable = chain.pi.flags.writeable = False
            out.append((instance, chain))
    return tuple(out)


def suite_sandwich(state_budget=DEFAULTS["state_budget"],
                   horizon=DEFAULTS["mixing_horizon"]):
    report = Report()
    for instance, chain in _zoo_chains(state_budget):
        if isinstance(chain, str):
            _skip(report, instance, chain)
            continue
        for rec in sandwich_check(chain, instance=instance, horizon=horizon):
            report.add(rec)
    return report


def suite_cheeger(state_budget=DEFAULTS["state_budget"],
                  horizon=DEFAULTS["mixing_horizon"]):
    tol = 1e-9
    report = Report()
    for instance, chain in _zoo_chains(state_budget):
        if isinstance(chain, str):
            _skip(report, instance, chain)
            continue
        try:
            cb = cheeger_bound(chain)
        except CheegerHypothesisError as exc:
            _skip(report, instance, str(exc))
            continue
        tmix = mixing_time(chain, horizon=horizon)
        report.add(BoundRecord(instance=instance, bound_name="cheeger",
                               bound_value=cb.bound,
                               exact_value=float(tmix),
                               passed=tmix <= cb.bound + tol,
                               tolerance=tol))
    return report


def suite_canonical(state_budget=DEFAULTS["state_budget"]):
    tol = 1e-9
    report = Report()
    for instance, chain in _zoo_chains(state_budget):
        if not instance.startswith("hardcore-"):
            continue
        if isinstance(chain, str):
            # every hardcore chain on a connected graph is feasible and
            # irreducible, so only a small budget skips one
            raise BudgetExceededError(f"state budget {state_budget} exceeded")
        cp = _path_congestion(chain)
        tau = relaxation_time(chain)
        report.add(BoundRecord(instance=instance,
                               bound_name="canonical-path",
                               bound_value=cp.bound, exact_value=tau,
                               passed=tau <= cp.bound + tol,
                               tolerance=tol))
    return report


def _decay_soft_model(lam):
    rng = make_rng(0, "zoo", "decay-soft")
    q = 3
    h = [rng.uniform(-1.0, 1.0) for _ in range(q)]
    g = [[0.0] * q for _ in range(q)]
    for a in range(q):
        for b in range(a, q):
            g[a][b] = g[b][a] = rng.uniform(-1.0, 1.0)
    peak = model_norm(soft_model(h, g)).value
    scale = 0.9 * soft_norm_threshold(lam) / peak
    return soft_model(tuple(x * scale for x in h),
                      tuple(tuple(x * scale for x in row) for row in g))


def decay_panel(lam=0.25):
    """The three model regimes with their decay guarantees at lam."""
    beta = -1.5
    if beta >= hardcore_activity_threshold(lam):
        raise ValueError("panel activity must stay below the threshold")
    return [
        ("coloring", coloring_model(coloring_q_threshold(lam))),
        ("hardcore", hardcore_model(beta)),
        ("soft", _decay_soft_model(lam)),
    ]


def suite_decay(boundary_samples=DEFAULTS["decay_boundary_samples"]):
    lam = 0.25
    report = Report()
    for mname, model in decay_panel(lam):
        for k in (5, 7, 9):
            for seed in (1, 2):
                graph = random_tree(k, seed)
                leaves = [v for v in range(k) if graph.degree(v) == 1]
                subset = [v for v in range(k) if v not in set(leaves)]
                if not subset:
                    subset = [0]
                v = min(subset)
                instance = f"{mname}/tree{k}-s{seed}"
                chk = tree_decay_check(model, graph, subset, v, lam,
                                       boundary_samples=boundary_samples,
                                       seed=seed)
                report.add(CheckRecord(
                    check="decay", passed=chk.margin >= 0.0,
                    value=chk.observed, bound=chk.bound,
                    witness={"instance": instance, "psi": chk.psi,
                             "skipped": chk.skipped,
                             "exhaustive": chk.exhaustive}))
    return report


def suite_skeleton_joint():
    tol = 1e-12
    report = Report()
    for name, model, graph, block, boundary in skeleton_block_cases():
        composed = compose_block_law(model, graph, block, boundary)
        chain = enumerate_states(model, graph,
                                 vertices=block.vertices,
                                 boundary=boundary)
        exact_law = {s: float(p) for s, p in zip(chain.states, chain.pi)}
        tv = law_tv(composed, exact_law)
        report.add(CheckRecord(check="skeleton-joint", passed=tv <= tol,
                               value=tv, bound=tol,
                               witness={"instance": name}))
    return report


def suite_block_composition(state_budget=DEFAULTS["state_budget"]):
    report = Report()
    for name, model, graph, partition in partitioned_cases():
        record, _ = block_composition_check(model, graph, partition,
                                            instance=name,
                                            state_budget=state_budget)
        report.add(record)
    return report


SUITES = {
    "sandwich": suite_sandwich,
    "cheeger": suite_cheeger,
    "canonical": suite_canonical,
    "decay": suite_decay,
    "skeleton-joint": suite_skeleton_joint,
    "block-composition": suite_block_composition,
}


def run_suite(name, **kwargs):
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{sorted(SUITES)}")
    return SUITES[name](**kwargs)
