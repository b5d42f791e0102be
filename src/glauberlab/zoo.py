"""Built-in instance collections and the named verification suites.

Graph collections are enumerated up to isomorphism with deterministic
names, so test pins and CLI reports stay stable across runs.
"""

import functools
import heapq
import itertools
import math

import numpy as np

from .blocks import Block, BlockPartition, Piece
from .defaults import DEFAULTS
from .dynamics import compose_block_law
from .errors import BudgetExceededError, CheegerHypothesisError
from .exact import (_path_congestion, block_composition_check,
                    cheeger_bound, coloring_q_threshold, enumerate_states,
                    hardcore_activity_threshold, is_irreducible, law_tv,
                    mixing_time, relaxation_time, sandwich_check,
                    soft_norm_threshold, transition_matrix, tree_decay_check)
from .graphs import Graph, bfs_distances
from .models import coloring_model, hardcore_model, model_norm, soft_model
from .records import BoundRecord, CheckRecord, Report
from .rng import make_rng


def _canonical_edges(n, edges):
    best = None
    for perm in itertools.permutations(range(n)):
        mapped = tuple(sorted(
            (perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])
            for u, v in edges))
        if best is None or mapped < best:
            best = mapped
    return best


@functools.lru_cache(maxsize=None)
def connected_graphs():
    """All connected graphs on 1..5 vertices up to isomorphism.

    Returns [(name, Graph)] with names G{n}.{k}, ordered by vertex count,
    then edge count, then canonical edge list.
    """
    out = []
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        reps = set()
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            if len(edges) < n - 1 or \
                    len(bfs_distances(Graph(n, edges), 0)) < n:
                continue
            reps.add(_canonical_edges(n, tuple(edges)))
        for k, edges in enumerate(sorted(reps, key=lambda e: (len(e), e)),
                                  start=1):
            out.append((f"G{n}.{k}", Graph(n, edges)))
    return tuple(out)


def _graph_invariant(n, adjset):
    mat = np.zeros((n, n))
    for u, v in adjset:
        mat[u, v] = mat[v, u] = 1.0
    eigs = tuple(round(float(x), 6) for x in np.linalg.eigvalsh(mat))
    tri = sum(1 for a, b, c in itertools.combinations(range(n), 3)
              if (a, b) in adjset and (a, c) in adjset and (b, c) in adjset)
    return eigs, tri


def _isomorphic(n, ea, eb):
    adj_a = [set() for _ in range(n)]
    adj_b = [set() for _ in range(n)]
    for u, v in ea:
        adj_a[u].add(v)
        adj_a[v].add(u)
    for u, v in eb:
        adj_b[u].add(v)
        adj_b[v].add(u)
    if sorted(map(len, adj_a)) != sorted(map(len, adj_b)):
        return False
    mapping = [None] * n
    used = [False] * n

    def extend(i):
        if i == n:
            return True
        for cand in range(n):
            if used[cand] or len(adj_b[cand]) != len(adj_a[i]):
                continue
            ok = True
            for j in range(i):
                if ((j in adj_a[i]) ==
                        (mapping[j] in adj_b[cand])):
                    continue
                ok = False
                break
            if ok:
                mapping[i] = cand
                used[cand] = True
                if extend(i + 1):
                    return True
                used[cand] = False
        return False

    return extend(0)


def _regular_candidates(n, d):
    """Labeled d-regular graphs on n vertices, N0 forced to {1..d}."""
    results = []
    adj = [set() for _ in range(n)]
    residual = [d] * n

    def take(u, v):
        adj[u].add(v)
        adj[v].add(u)
        residual[u] -= 1
        residual[v] -= 1

    def drop(u, v):
        adj[u].discard(v)
        adj[v].discard(u)
        residual[u] += 1
        residual[v] += 1

    def rec():
        u = next((x for x in range(n) if residual[x] > 0), None)
        if u is None:
            results.append(frozenset(
                (a, b) for a in range(n) for b in adj[a] if a < b))
            return
        cands = [v for v in range(u + 1, n)
                 if residual[v] > 0 and v not in adj[u]]
        if len(cands) < residual[u]:
            return
        for chosen in itertools.combinations(cands, residual[u]):
            for v in chosen:
                take(u, v)
            rec()
            for v in chosen:
                drop(u, v)

    if d == 0:
        return [frozenset()]
    for v in range(1, d + 1):
        take(0, v)
    rec()
    return results


def _regular_classes(n, d):
    """Isomorphism classes of d-regular graphs on n vertices (edge sets)."""
    if n * d % 2 or d > n - 1:
        return []
    if 2 * d > n - 1:
        # Complementing is a bijection between d- and (n-1-d)-regular
        # classes; generate the sparse side.
        comps = _regular_classes(n, n - 1 - d)
        full = set(itertools.combinations(range(n), 2))
        return [sorted(full - set(edges)) for edges in comps]
    reps = []
    buckets = {}
    for cand in _regular_candidates(n, d):
        inv = _graph_invariant(n, cand)
        known = buckets.setdefault(inv, [])
        if any(_isomorphic(n, cand, other) for other in known):
            continue
        known.append(cand)
        reps.append(sorted(cand))
    reps.sort()
    return reps


@functools.lru_cache(maxsize=None)
def regular_graphs():
    """All regular graphs (any degree, connectivity not required) on
    1..8 vertices up to isomorphism, as [(name, degree, Graph)]."""
    out = []
    for n in range(1, 9):
        for d in range(n):
            for i, edges in enumerate(_regular_classes(n, d), start=1):
                out.append((f"reg{d}-n{n}-{i}", d, Graph(n, edges)))
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


def _zoo_chains(state_budget):
    """Yield (instance, chain) for every model x connected graph that is
    feasible, irreducible, and within budget; infeasible or degenerate
    combinations come out as (instance, reason string)."""
    for mname, model in model_grid():
        for gname, graph in connected_graphs():
            instance = f"{mname}/{gname}"
            try:
                chain = enumerate_states(model, graph, budget=state_budget)
            except BudgetExceededError:
                yield instance, "state budget exceeded"
                continue
            if not chain.states:
                yield instance, "no feasible configuration"
                continue
            transition_matrix(chain, lazy=True)
            if not is_irreducible(chain):
                yield instance, "reducible chain"
                continue
            yield instance, chain


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
    for mname, model in model_grid():
        if model.kind != "hardcore":
            continue
        for gname, graph in connected_graphs():
            instance = f"{mname}/{gname}"
            chain = transition_matrix(
                enumerate_states(model, graph, budget=state_budget),
                lazy=True)
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
