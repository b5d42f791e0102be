"""Brute-force analysis of small chains.

State spaces are enumerated exactly, transition matrices built densely,
and every spectral, conductance, canonical-path, correlation-decay, and
block-composition bound is checked against exact relaxation and mixing
times.  Everything here is for instances small enough to enumerate.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (BoundaryInfeasibleError, BudgetExceededError,
                     CheegerHypothesisError, DegenerateChainError,
                     HorizonExceededError)
from .graphs import bfs_distances, exterior_boundary
from .models import NEG_INF, neighbor_conditional
from .records import BoundRecord
from .rng import make_rng, sample_index
from .trees import batched_root_marginals, build_tree_tables, tree_law

DEFAULT_STATE_BUDGET = 200_000
DEFAULT_MIXING_HORIZON = 10 ** 6
TV_TARGET = 1.0 / (2.0 * math.e)
EIG_TOLERANCE = 1e-10


@dataclass
class ExactChain:
    model: object
    graph: object
    vertices: tuple
    boundary: dict
    states: list
    logw: list
    pi: np.ndarray
    P: np.ndarray = None
    lazy: bool = None
    _index: dict = field(default=None, repr=False)
    _reads: list = field(default=None, repr=False)

    def index(self, state):
        if self._index is None:
            self._index = {s: i for i, s in enumerate(self.states)}
        return self._index[state]

    def neighbor_reads(self, i):
        """Where the neighbors of position i get their states, in adjacency
        order: (j, None) for chain position j, (None, x) for a boundary
        state x.  Neighbors that are neither are skipped."""
        if self._reads is None:
            pos = {u: j for j, u in enumerate(self.vertices)}
            self._reads = [
                [(pos[w], None) if w in pos else (None, self.boundary[w])
                 for w in self.graph.adj[v]
                 if w in pos or w in self.boundary]
                for v in self.vertices]
        return self._reads[i]


def enumerate_states(model, graph, budget=DEFAULT_STATE_BUDGET,
                     vertices=None, boundary=None):
    """All feasible configurations on ``vertices`` with their Gibbs law.

    Depth-first over vertices in sorted order, pruning any partial
    assignment that already hits a hard constraint, so states come out in
    lexicographic order.  ``boundary`` pins outside neighbors; passing
    None treats the subset as its induced subgraph (edges leaving it are
    ignored), while a dict requires every outside neighbor to be pinned.
    Boundary-boundary edges never contribute (they are constant anyway).
    """
    if vertices is None:
        vertices = tuple(range(graph.n))
    else:
        vertices = tuple(sorted(set(vertices)))
    vset = set(vertices)
    free_exterior = boundary is None
    boundary = {} if boundary is None else dict(boundary)
    if not free_exterior:
        for v in vertices:
            for w in graph.adj[v]:
                if w not in vset and w not in boundary:
                    raise ValueError(
                        f"neighbor {w} of vertex {v} has no boundary state")
    pos = {v: i for i, v in enumerate(vertices)}

    # Per vertex: the neighbors already assigned (earlier in the order).
    earlier = []
    for i, v in enumerate(vertices):
        earlier.append([pos[w] for w in graph.adj[v] if w in vset
                        and pos[w] < i])
    states = []
    logw = []
    assign = [0] * len(vertices)

    def rec(i, acc):
        if i == len(vertices):
            if len(states) >= budget:
                raise BudgetExceededError(
                    f"state budget {budget} exceeded", reached=len(states))
            states.append(tuple(assign))
            logw.append(acc)
            return
        v = vertices[i]
        for x in range(model.q):
            s = model.h[x]
            ok = True
            for j in earlier[i]:
                gxy = model.g[x][assign[j]]
                if gxy == NEG_INF:
                    ok = False
                    break
                s += gxy
            if not ok:
                continue
            for w in graph.adj[v]:
                if w in boundary:
                    gxb = model.g[x][boundary[w]]
                    if gxb == NEG_INF:
                        ok = False
                        break
                    s += gxb
            if not ok:
                continue
            assign[i] = x
            rec(i + 1, acc + s)

    if vertices:
        rec(0, 0.0)
    if states:
        arr = np.array(logw)
        w = np.exp(arr - arr.max())
        pi = w / w.sum()
    else:
        pi = np.zeros(0)
    return ExactChain(model=model, graph=graph, vertices=vertices,
                      boundary=boundary, states=states, logw=logw, pi=pi)


def _conditional_probs(chain, state, i):
    """Heat-bath law at position i of a chain state (list of q floats)."""
    states = [state[j] if j is not None else x
              for j, x in chain.neighbor_reads(i)]
    return neighbor_conditional(chain.model, states, chain.vertices[i])


def transition_matrix(chain, lazy=True):
    """Fill in the single-site heat-bath kernel; returns the same chain.

    P(sigma -> tau) = (1/|vertices|) * conditional mass for moves at one
    position; the diagonal absorbs holds.  lazy replaces P by (I+P)/2.
    """
    S = len(chain.states)
    nv = len(chain.vertices)
    P = np.zeros((S, S))
    for i, sigma in enumerate(chain.states):
        for pos_i in range(nv):
            probs = _conditional_probs(chain, sigma, pos_i)
            for x, px in enumerate(probs):
                if px == 0.0:
                    continue
                if x == sigma[pos_i]:
                    j = i
                else:
                    tau = list(sigma)
                    tau[pos_i] = x
                    j = chain.index(tuple(tau))
                P[i, j] += px / nv
    if lazy:
        P = 0.5 * (np.eye(S) + P)
    chain.P = P
    chain.lazy = lazy
    return chain


def detailed_balance_gap(chain):
    """max |pi_i P_ij - pi_j P_ji|; zero for exactly reversible chains."""
    flow = chain.pi[:, None] * chain.P
    return float(np.abs(flow - flow.T).max())


def is_irreducible(chain):
    S = len(chain.states)
    if S <= 1:
        return S == 1
    support = chain.P > 0
    seen = np.zeros(S, dtype=bool)
    seen[0] = True
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for j in np.nonzero(support[i])[0]:
                if not seen[j]:
                    seen[j] = True
                    nxt.append(int(j))
        frontier = nxt
    return bool(seen.all())


def spectrum(chain):
    """Real eigenvalues of P via the pi-symmetrized form, ascending."""
    if chain.P is None:
        raise ValueError("transition matrix not built")
    d = np.sqrt(chain.pi)
    M = (d[:, None] / d[None, :]) * chain.P
    M = 0.5 * (M + M.T)
    return np.linalg.eigvalsh(M)


def relaxation_time(chain):
    """1/gap with gap = min(1 - lambda_2, 1 - |lambda_min|).

    A single state has relaxation time 1 by convention; reducible or
    periodic chains have no finite relaxation time and raise.
    """
    if chain.P is None:
        raise ValueError("transition matrix not built")
    if len(chain.states) == 0:
        raise DegenerateChainError("empty state space")
    if len(chain.states) == 1:
        return 1.0
    if not is_irreducible(chain):
        raise DegenerateChainError("chain is reducible")
    eigs = spectrum(chain)
    lam2 = eigs[-2]
    lam_min = eigs[0]
    gap = min(1.0 - lam2, 1.0 - abs(lam_min))
    if gap < EIG_TOLERANCE:
        raise DegenerateChainError(
            f"spectral gap {gap:.3e} below tolerance (periodic or "
            f"effectively reducible chain)")
    return 1.0 / gap


def _worst_tv(mat, pi):
    return float(0.5 * np.abs(mat - pi[None, :]).sum(axis=1).max())


def mixing_time(chain, target=TV_TARGET, horizon=DEFAULT_MIXING_HORIZON):
    """Smallest t with worst-start TV(P^t, pi) <= target.

    Worst-start TV is non-increasing in t, so doubling up then binary
    search is exact; power-of-two matrices are cached and reused.
    """
    if chain.P is None:
        raise ValueError("transition matrix not built")
    S = len(chain.states)
    if _worst_tv(np.eye(S), chain.pi) <= target:
        return 0
    pows = [chain.P]
    t = 1
    while _worst_tv(pows[-1], chain.pi) > target:
        # pows[-1] is P^t; mixing time exceeds t, so give up once t does.
        if t > horizon:
            raise HorizonExceededError(
                f"no mixing within horizon {horizon}", horizon=horizon)
        pows.append(pows[-1] @ pows[-1])
        t *= 2
    hi = t
    lo = t // 2

    def power(steps):
        out = None
        k = 0
        while steps:
            if steps & 1:
                out = pows[k] if out is None else out @ pows[k]
            steps >>= 1
            k += 1
        return out

    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _worst_tv(power(mid), chain.pi) <= target:
            hi = mid
        else:
            lo = mid
    if hi > horizon:
        raise HorizonExceededError(
            f"no mixing within horizon {horizon}", horizon=horizon)
    return hi


def sandwich_check(chain, instance="", tol=1e-9,
                   horizon=DEFAULT_MIXING_HORIZON, tau=None, tmix=None):
    """tau <= tau_mix and tau_mix <= tau*(1 + 0.5*ln(1/min pi)).

    ``tau`` and ``tmix`` are computed here unless the caller already has
    them.
    """
    if tau is None:
        tau = relaxation_time(chain)
    if tmix is None:
        tmix = mixing_time(chain, horizon=horizon)
    upper = tau * (1.0 + 0.5 * math.log(1.0 / chain.pi.min()))
    return [
        BoundRecord(instance=instance, bound_name="sandwich-lower",
                    bound_value=float(tmix), exact_value=tau,
                    passed=tau <= tmix + tol, tolerance=tol),
        BoundRecord(instance=instance, bound_name="sandwich-upper",
                    bound_value=upper, exact_value=float(tmix),
                    passed=tmix <= upper + tol, tolerance=tol),
    ]


@dataclass(frozen=True)
class CheegerBound:
    bound: float
    epsilon: float
    complete: bool
    reading: str


def _cheeger_from_epsilon(eps):
    return 2.0 / (eps * eps)


def cheeger_bound(chain, require_complete=True):
    """tau_mix <= 2/eps^2 with eps the smallest edge measure pi(a)P(a,b).

    The hypothesis wants every state pair joined in one step; single-site
    chains on more than one vertex never satisfy it, which surfaces as
    CheegerHypothesisError.  require_complete=False applies the other
    reading of the hypothesis (minimum over nonzero pairs only) and labels
    the result accordingly.
    """
    if chain.P is None:
        raise ValueError("transition matrix not built")
    S = len(chain.states)
    if S < 2:
        raise CheegerHypothesisError("no state pairs to bound")
    flow = chain.pi[:, None] * chain.P
    off = ~np.eye(S, dtype=bool)
    complete = bool((flow[off] > 0.0).all())
    if require_complete and not complete:
        raise CheegerHypothesisError(
            "hypothesis not met: some state pair has no direct transition")
    vals = flow[off]
    vals = vals[vals > 0.0]
    if vals.size == 0:
        raise CheegerHypothesisError("chain never leaves its state")
    eps = float(vals.min())
    return CheegerBound(bound=_cheeger_from_epsilon(eps), epsilon=eps,
                        complete=complete,
                        reading="all-pairs" if complete else "nonzero-pairs")


@dataclass(frozen=True)
class CanonicalBound:
    bound: float
    length: int
    congestion: float


def canonical_path_bound(model, graph, lazy=True,
                         budget=DEFAULT_STATE_BUDGET):
    """tau <= L*rho via the zero-out/raise canonical paths.

    Hardcore only: the path from sigma to eta clears sigma's occupied
    vertices in index order, then occupies eta's vertices in index order;
    every intermediate set stays independent.  rho is the worst congestion
    sum pi(sigma)pi(eta) / (pi(a)P(a,b)) over directed transitions.
    """
    if model.kind != "hardcore":
        raise ValueError("canonical paths are defined for hardcore models")
    chain = transition_matrix(
        enumerate_states(model, graph, budget=budget), lazy=lazy)
    S = len(chain.states)
    loads = {}
    max_len = 0
    for i in range(S):
        for j in range(S):
            if i == j:
                continue
            sigma, eta = chain.states[i], chain.states[j]
            cur = list(sigma)
            hops = []
            prev = i
            for v in range(len(cur)):
                if cur[v] == 1:
                    cur[v] = 0
                    nxt = chain.index(tuple(cur))
                    hops.append((prev, nxt))
                    prev = nxt
            for v in range(len(cur)):
                if eta[v] == 1:
                    cur[v] = 1
                    nxt = chain.index(tuple(cur))
                    hops.append((prev, nxt))
                    prev = nxt
            max_len = max(max_len, len(hops))
            w = chain.pi[i] * chain.pi[j]
            for hop in hops:
                loads[hop] = loads.get(hop, 0.0) + w
    rho = 0.0
    for (a, b), load in loads.items():
        q_ab = chain.pi[a] * chain.P[a, b]
        if q_ab <= 0.0:
            raise DegenerateChainError(
                f"canonical path uses the impossible transition {a}->{b}")
        rho = max(rho, load / q_ab)
    return CanonicalBound(bound=max_len * rho, length=max_len,
                          congestion=rho)


def psi_weight(g, subset, v, lam):
    """Boundary weighting: sum over w in the exterior boundary of
    lam^d(w, v), distances taken in the full graph."""
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie in (0,1)")
    sset = set(subset)
    if v not in sset:
        raise ValueError(f"vertex {v} is not in the subset")
    ext = exterior_boundary(g, sset)
    if not ext:
        return 0.0
    dist = bfs_distances(g, v)
    return sum(lam ** dist[w] for w in ext if w in dist)


def coloring_q_threshold(lam):
    """Smallest color count with the decay guarantee at this lambda."""
    return math.ceil(max(4.0 * math.e, 8.0 / lam + 4.0 / lam ** 2))


def hardcore_activity_threshold(lam):
    """Activities strictly below ln(lambda) have the decay guarantee."""
    return math.log(lam)


def soft_norm_threshold(lam):
    """Interaction norms below asinh(lam/32) keep 4K < lam, where
    K = 4*(e^H - e^-H) = 8*sinh(H), plus the two linearization bounds
    the decay argument needs on [0, 1/lam]."""
    return math.asinh(lam / 32.0)


@dataclass
class DecayCheck:
    kind: str
    psi: float
    bound: float
    observed: float
    margin: float
    boundaries: int
    skipped: int
    exhaustive: bool


def tree_decay_check(model, graph, tree, v, lam, boundary_samples=1000,
                     seed=0):
    """Worst-case boundary influence at v against the psi_lambda bound.

    Coloring: max over boundaries and feasible state pairs of the marginal
    ratio, compared with exp(psi).  Hardcore/soft: max over boundary pairs
    of the TV at v, compared with psi.  Boundaries are enumerated when
    q^|boundary| fits in boundary_samples, else sampled with the seed;
    infeasible boundaries are skipped and counted.
    """
    tree = tuple(sorted(set(tree)))
    if v not in tree:
        raise ValueError(f"vertex {v} not in the tree")
    ext = exterior_boundary(graph, tree)
    psi = psi_weight(graph, tree, v, lam)
    q = model.q
    total = q ** len(ext)
    exhaustive = total <= boundary_samples
    if not ext:
        rows = np.zeros((1, 0), dtype=int)
    elif exhaustive:
        rows = np.array(list(itertools.product(range(q), repeat=len(ext))),
                        dtype=int)
    else:
        rng = make_rng(seed, "decay")
        rows = np.array([[rng.randrange(q) for _ in ext]
                         for _ in range(boundary_samples)], dtype=int)
    marg, feasible = batched_root_marginals(model, graph, tree, v, ext, rows)
    skipped = int((~feasible).sum())
    M = marg[feasible]
    if model.kind == "coloring":
        bound = math.exp(psi)
        observed = 0.0
        for row in M:
            pos = row[row > 0.0]
            observed = max(observed, float(pos.max() / pos.min()))
        kind = "ratio"
    else:
        bound = psi
        observed = 0.0
        for i in range(len(M) - 1):
            diff = 0.5 * np.abs(M[i + 1:] - M[i]).sum(axis=1)
            observed = max(observed, float(diff.max()))
        kind = "tv"
    return DecayCheck(kind=kind, psi=psi, bound=bound, observed=observed,
                      margin=bound - observed, boundaries=len(rows),
                      skipped=skipped, exhaustive=exhaustive)


@dataclass
class SkeletonJoint:
    w_vertices: tuple
    states: list
    probs: np.ndarray

    @property
    def law(self):
        return {s: float(p) for s, p in zip(self.states, self.probs)}

    def sample(self, rng):
        return self.states[sample_index(self.probs.tolist(), rng.random())]


def _root_field(model, graph, w, pieces, boundary, wset):
    """Unnormalized law of a skeleton vertex from its hanging trees.

    The table covers {w} plus its pieces; edges from w to other skeleton
    vertices are deliberately ignored (the skeleton's own pair terms are
    accounted for separately), and everything else must be pinned.
    """
    verts = {w}
    for piece in pieces:
        verts.update(piece.vertices)
    needed = set()
    for u in verts:
        for x in graph.adj[u]:
            if x not in verts:
                needed.add(x)
    ignore = needed & wset
    for u in ignore:
        hits = {t for t in graph.adj[u] if t in verts}
        if hits != {w}:
            raise ValueError(
                f"skeleton vertex {u} touches the trees of {w} at {hits}")
    try:
        pinned = {u: boundary[u] for u in needed - wset}
    except KeyError as exc:
        raise ValueError(f"boundary missing state for vertex {exc}") from exc
    tables = build_tree_tables(model, graph, sorted(verts), pinned,
                               ignore=ignore, roots=(w,))
    return tables.up[w]


def skeleton_joint(model, graph, block, boundary, budget=10 ** 6):
    """Exact joint law Q of the skeleton states.

    Q(xi) is proportional to the activity-free pair weight over skeleton
    edges times the product over skeleton vertices of their hanging-tree
    root fields (which carry the vertex activities and all boundary
    influence).  Enumerates all q^|W| assignments.
    """
    W = tuple(sorted(block.skeleton))
    if not W:
        raise ValueError("block has no skeleton")
    q = model.q
    if q ** len(W) > budget:
        raise BudgetExceededError(
            f"{q}^{len(W)} skeleton states exceed budget {budget}",
            reached=budget)
    wset = set(W)
    by_root = {w: [] for w in W}
    for piece in block.pieces:
        by_root[piece.root].append(piece)
    fields = {w: _root_field(model, graph, w, by_root[w], boundary, wset)
              for w in W}
    wpos = {w: i for i, w in enumerate(W)}
    wedges = [(wpos[u], wpos[v]) for u, v in graph.edges
              if u in wset and v in wset]
    expg = np.zeros((q, q))
    for a in range(q):
        for b in range(q):
            gab = model.g[a][b]
            expg[a, b] = 0.0 if gab == NEG_INF else math.exp(gab)

    states = []
    weights = []
    for xi in itertools.product(range(q), repeat=len(W)):
        w_val = 1.0
        for w in W:
            w_val *= fields[w][xi[wpos[w]]]
            if w_val == 0.0:
                break
        else:
            for a, b in wedges:
                w_val *= expg[xi[a], xi[b]]
                if w_val == 0.0:
                    break
        if w_val > 0.0:
            states.append(xi)
            weights.append(w_val)
    if not states:
        raise BoundaryInfeasibleError(
            "no feasible skeleton state under the given boundary")
    probs = np.array(weights)
    probs /= probs.sum()
    return SkeletonJoint(w_vertices=W, states=states, probs=probs)


def compose_block_law(model, graph, block, boundary, budget=10 ** 6):
    """Joint law of the whole block from Q and per-piece tree laws.

    Returns {config tuple over sorted block vertices: probability}; this
    is the law the two-stage sampler (skeleton joint, then trees) draws
    from, computed exactly for comparison against full enumeration.
    """
    joint = skeleton_joint(model, graph, block, boundary, budget=budget)
    W = joint.w_vertices
    wpos = {w: i for i, w in enumerate(W)}
    allv = tuple(sorted(block.vertices))

    piece_laws = []
    for piece in block.pieces:
        pset = set(piece.vertices)
        pinned_base = {}
        for u in pset:
            for x in graph.adj[u]:
                if x in pset or x == piece.root:
                    continue
                if x not in boundary:
                    raise ValueError(
                        f"boundary missing state for vertex {x}")
                pinned_base[x] = boundary[x]
        laws = {}
        for x in range(model.q):
            pinned = dict(pinned_base)
            pinned[piece.root] = x
            try:
                tables = build_tree_tables(model, graph, piece.vertices,
                                           pinned)
            except BoundaryInfeasibleError:
                laws[x] = None
                continue
            laws[x] = tree_law(tables)
        piece_laws.append((piece, laws))

    out = {}
    for xi, qp in zip(joint.states, joint.probs):
        partial = [({w: xi[wpos[w]] for w in W}, float(qp))]
        for piece, laws in piece_laws:
            law = laws[xi[wpos[piece.root]]]
            if law is None:
                partial = []
                break
            block_order = tuple(sorted(piece.vertices))
            nxt = []
            for assign, p in partial:
                for cfg, pl in law.items():
                    a = dict(assign)
                    for u, x in zip(block_order, cfg):
                        a[u] = x
                    nxt.append((a, p * pl))
            partial = nxt
        for assign, p in partial:
            key = tuple(assign[u] for u in allv)
            out[key] = out.get(key, 0.0) + p
    return out


def law_tv(law_a, law_b):
    """TV distance between two {outcome: probability} dicts."""
    keys = set(law_a) | set(law_b)
    return 0.5 * sum(abs(law_a.get(k, 0.0) - law_b.get(k, 0.0))
                     for k in keys)


def _block_kernel(chain, partition):
    """Exact block-dynamics matrix on the enumerated state space."""
    S = len(chain.states)
    K = len(partition.blocks)
    pos = {v: i for i, v in enumerate(chain.vertices)}
    B = np.zeros((S, S))
    for block in partition.blocks:
        inside = sorted(pos[v] for v in block.vertices)
        outside = [i for i in range(len(chain.vertices)) if i not in
                   set(inside)]
        groups = {}
        for i, s in enumerate(chain.states):
            groups.setdefault(tuple(s[j] for j in outside), []).append(i)
        for idx in groups.values():
            I = np.array(idx)
            w = chain.pi[I]
            cond = w / w.sum()
            B[np.ix_(I, I)] += cond[None, :] / K
    return B


def _boundary_assignments(model, graph, block_vertices, cap, seed,
                          state_budget):
    """Boundary conditions realizable by states of the complement graph."""
    ext = exterior_boundary(graph, block_vertices)
    if not ext:
        return [dict()], False
    comp = [v for v in range(graph.n) if v not in set(block_vertices)]
    comp_chain = enumerate_states(model, graph, budget=state_budget,
                                  vertices=comp, boundary=None)
    cpos = {v: i for i, v in enumerate(comp_chain.vertices)}
    seen = sorted({tuple(s[cpos[w]] for w in ext)
                   for s in comp_chain.states})
    sampled = len(seen) > cap
    if sampled:
        rng = make_rng(seed, "block-boundaries")
        seen = sorted(rng.sample(seen, cap))
    return [dict(zip(ext, row)) for row in seen], sampled


def block_composition_check(model, graph, partition, instance="",
                            state_budget=DEFAULT_STATE_BUDGET,
                            boundary_cap=10 ** 4, seed=0, tol=1e-9):
    """Verify tau <= tau_block * max_i tau_i (disjoint blocks, so the
    multiplicity factor is 1).

    Site chains (whole graph and per-block conditionals) are lazy; the
    block kernel resamples a uniformly chosen block exactly and is used
    as-is (it is already positive semidefinite).  tau_i maximizes over
    boundary conditions realizable by complement states, capped at
    boundary_cap (sampled beyond, and reported).
    """
    chain = transition_matrix(
        enumerate_states(model, graph, budget=state_budget), lazy=True)
    tau = relaxation_time(chain)

    bchain = ExactChain(model=model, graph=graph, vertices=chain.vertices,
                        boundary={}, states=chain.states, logw=chain.logw,
                        pi=chain.pi, P=_block_kernel(chain, partition),
                        lazy=False)
    tau_block = relaxation_time(bchain)

    taus = []
    any_sampled = False
    for block in partition.blocks:
        worst = 0.0
        assignments, sampled = _boundary_assignments(
            model, graph, block.vertices, boundary_cap, seed, state_budget)
        any_sampled = any_sampled or sampled
        for bc in assignments:
            sub = enumerate_states(model, graph, budget=state_budget,
                                   vertices=block.vertices, boundary=bc)
            if not sub.states:
                continue
            transition_matrix(sub, lazy=True)
            worst = max(worst, relaxation_time(sub))
        taus.append(worst)
    bound = tau_block * max(taus)
    record = BoundRecord(instance=instance, bound_name="block-composition",
                         bound_value=bound, exact_value=tau,
                         passed=tau <= bound * (1.0 + tol) + tol,
                         tolerance=tol)
    details = {"tau_block": tau_block, "tau_blocks": taus,
               "boundaries_sampled": any_sampled}
    return record, details


def path_density(g, tree, root):
    """Max over root-starting paths in the tree of the ambient degree sum."""
    tset = set(tree)
    if root not in tset:
        raise ValueError(f"root {root} not in the tree")
    dist = bfs_distances(g, root, within=tset)
    if len(dist) != len(tset):
        raise ValueError("tree vertex set is not connected")
    ecount = sum(1 for u in tset for w in g.adj[u] if w > u and w in tset)
    if ecount != len(tset) - 1:
        raise ValueError("vertex set does not induce a tree")

    best = 0

    def walk(u, parent, acc):
        nonlocal best
        acc += g.degree(u)
        best = max(best, acc)
        for w in g.adj[u]:
            if w != parent and w in tset:
                walk(w, u, acc)

    walk(root, None, 0)
    return best


def format_chain_dump(chain):
    """Plain-text dump: states, stationary vector, dense matrix."""
    lines = [f"states {len(chain.states)} {len(chain.vertices)}"]
    lines.extend(" ".join(map(str, s)) for s in chain.states)
    lines.append("pi")
    lines.append(" ".join(f"{x:.17g}" for x in chain.pi))
    if chain.P is not None:
        lines.append("P")
        lines.extend(" ".join(f"{x:.17g}" for x in row) for row in chain.P)
    return "\n".join(lines) + "\n"
