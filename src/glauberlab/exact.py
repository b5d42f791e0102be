"""Brute-force analysis of small chains.

State spaces are enumerated exactly, transition matrices built densely,
and every spectral, conductance, canonical-path, correlation-decay, and
block-composition bound is checked against exact relaxation and mixing
times.  Everything here is for instances small enough to enumerate.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .defaults import DEFAULTS
from .errors import (BoundaryInfeasibleError, BudgetExceededError,
                     CheegerHypothesisError, DegenerateChainError,
                     HorizonExceededError)
from .graphs import bfs_distances, exterior_boundary
from .models import NEG_INF
from .records import BoundRecord
from .rng import make_rng, sample_index
from .trees import batched_root_marginals, build_tree_tables

TV_TARGET = 1.0 / (2.0 * math.e)
EIG_TOLERANCE = 1e-10


@dataclass
class ExactChain:
    """Row k of ``X`` (S, n; the smallest unsigned type holding q-1) is
    state k, column i the state of ``vertices[i]``, rows in lexicographic
    order.  ``logw`` (float64) holds the unnormalized log Gibbs weights,
    ``pi`` their law and ``P`` the (S, S) kernel once built.  ``states``
    is a tuple view of ``X``, derived on first use.
    """
    model: object
    graph: object
    vertices: tuple
    boundary: dict
    X: np.ndarray
    logw: np.ndarray
    pi: np.ndarray
    P: np.ndarray = None

    @cached_property
    def states(self):
        return list(map(tuple, self.X.tolist()))

    @cached_property
    def index(self):
        """Maps a state tuple to its row."""
        return {s: i for i, s in enumerate(self.states)}.__getitem__


def enumerate_states(model, graph, budget=DEFAULTS["state_budget"],
                     vertices=None, boundary=None):
    """All feasible configurations on ``vertices`` with their Gibbs law.

    A level sweep over vertices in sorted order: the partial assignments
    are the rows of one small-int array, and each vertex extends every
    row by each of its q states in turn, so states come out in
    lexicographic order.  A new row scores h[x], then g against each
    earlier neighbor in the subset, then g against each pinned neighbor
    (both in adjacency order), adds that sum to its running log weight,
    and is dropped if the sum is -inf (a hard constraint).  ``budget``
    caps the rows any level holds, partial assignments included, so it
    bounds memory and work as well as the states returned.
    ``boundary`` pins outside neighbors; passing None treats the subset
    as its induced subgraph (edges leaving it are ignored), while a dict
    requires every outside neighbor to be pinned.  Boundary-boundary
    edges never contribute (they are constant anyway).
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
    h = np.array(model.h, dtype=float)
    g = np.array(model.g, dtype=float)
    # rows[k] is a partial assignment and acc[k] its log weight so far;
    # the empty assignment is the one row of the first level
    rows = np.zeros((1, 0), dtype=np.min_scalar_type(model.q - 1))
    acc = np.zeros(1)
    if len(rows) > budget:
        raise BudgetExceededError(f"state budget {budget} exceeded")
    for i, v in enumerate(vertices):
        # s[k, x] scores row k extended by state x; g is symmetric, so
        # g[y] holds g[x, y] for every x
        s = np.repeat(h[None, :], len(rows), axis=0)
        for w in graph.adj[v]:
            if w in vset and pos[w] < i:
                s += g[rows[:, pos[w]]]
        for w in graph.adj[v]:
            if w in boundary:
                s += g[boundary[w]]
        k, x = np.nonzero(s != NEG_INF)
        rows = np.column_stack([rows[k], x.astype(rows.dtype)])
        acc = acc[k] + s[k, x]
        if len(rows) > budget:
            raise BudgetExceededError(f"state budget {budget} exceeded")

    if len(rows):
        w = np.exp(acc - acc.max())
        pi = w / w.sum()
    else:
        pi = np.zeros(0)
    return ExactChain(model=model, graph=graph, vertices=vertices,
                      boundary=boundary, X=rows, logw=acc, pi=pi)


def _resample_kernel(chain, groups):
    """Heat-bath kernel that picks one group of chain positions uniformly
    and redraws it from the Gibbs law given every other position.

    States that agree outside the group form one class; within a class
    the redraw law is the Gibbs weight restricted to it, normalized from
    ``logw`` with the class maximum subtracted (ratios of ``pi`` could
    underflow where the class law does not).  Groups add in order, so
    each diagonal entry sums in group order.
    """
    X, logw = chain.X, chain.logw
    S, n = X.shape
    # with no group to redraw, every state stays put
    P = np.zeros((S, S)) if groups else np.eye(S)
    for group in groups:
        # a row with the group's columns zeroed, read as one opaque key,
        # names its class; a stable sort keeps members in ascending order
        rest = X.copy()
        rest[:, group] = 0
        keys = rest.view(np.dtype((np.void, n * X.itemsize)))[:, 0]
        inverse = np.unique(keys, return_inverse=True)[1]
        order = np.argsort(inverse, kind="stable")
        sizes = np.bincount(inverse)
        starts = np.cumsum(sizes) - sizes
        # Classes of one size at a time, as rows of an index matrix.
        for m in set(sizes.tolist()):
            cls = order[starts[sizes == m][:, None] + np.arange(m)]
            w = np.exp(logw[cls] - logw[cls].max(axis=1, keepdims=True))
            p = w / w.sum(axis=1, keepdims=True) / len(groups)
            P[cls[:, :, None], cls[:, None, :]] += p[:, None, :]
    return P


def transition_matrix(chain, lazy=True):
    """Fill in the single-site heat-bath kernel; returns the same chain.

    Each step redraws one uniformly chosen position from its conditional
    law; lazy replaces P by (I+P)/2.
    """
    P = _resample_kernel(chain, [[i] for i in range(len(chain.vertices))])
    if lazy:
        P *= 0.5
        P[np.diag_indices_from(P)] += 0.5
    chain.P = P
    return chain


def detailed_balance_gap(chain):
    """max |pi_i P_ij - pi_j P_ji|; zero for exactly reversible chains."""
    flow = chain.pi[:, None] * chain.P
    return float(np.abs(flow - flow.T).max())


def is_irreducible(chain):
    S = len(chain.pi)
    if S <= 1:
        return S == 1
    support = chain.P > 0
    seen = np.zeros(S, dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    # one boolean level of BFS from state 0 per pass
    while frontier.any():
        frontier = support[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def _symmetrized(chain):
    """M = D^1/2 P D^-1/2 with D = diag(pi), made exactly symmetric as
    (M + M^T)/2; P is reversible, so M shares P's real spectrum.

    A state whose stationary mass underflows to 0 leaves M undefined.
    """
    if chain.P is None:
        raise ValueError("transition matrix not built")
    zero = int((chain.pi == 0.0).sum())
    if zero:
        raise DegenerateChainError(
            f"stationary mass underflows to 0 at {zero} states")
    d = np.sqrt(chain.pi)
    M = (d[:, None] / d[None, :]) * chain.P
    return 0.5 * (M + M.T)


def spectrum(chain):
    """Real eigenvalues of P via the pi-symmetrized form, ascending."""
    return np.linalg.eigvalsh(_symmetrized(chain))


def relaxation_time(chain):
    """1/gap with gap = min(1 - lambda_2, 1 - |lambda_min|).

    A single state has relaxation time 1 by convention; reducible or
    periodic chains have no finite relaxation time and raise.
    """
    if chain.P is None:
        raise ValueError("transition matrix not built")
    if len(chain.pi) == 0:
        raise DegenerateChainError("empty state space")
    if len(chain.pi) == 1:
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


def _power_tv(lam, U, pi):
    """t -> worst-start TV(P^t, pi), from the eigendecomposition
    U diag(lam) U^T of P's symmetrized form.

    P^t = A diag(lam^t) B with A = D^-1/2 U and B = U^T D^1/2,
    D = diag(pi).  Term k moves a row's TV by at most
    |lam_k|^t / sqrt(pi_min), as sum_y |U_yk| sqrt(pi_y) <= 1 by
    Cauchy-Schwarz; dropping the terms with |lam_k|^t under
    1e-15 sqrt(pi_min) / S moves TV by less than 1e-15 in all, and near
    t_mix leaves a few of the S terms in the one product.
    """
    d = np.sqrt(pi)
    A, B = U / d[:, None], (U * d[:, None]).T
    mag = np.abs(lam)
    cut = 1e-15 * d.min() / len(d)

    def tv(t):
        keep = mag ** t > cut
        return _worst_tv((A[:, keep] * lam[keep] ** t) @ B[keep], pi)
    return tv


def mixing_time(chain, horizon=DEFAULTS["mixing_horizon"]):
    """Smallest t with worst-start TV(P^t, pi) <= TV_TARGET = 1/(2e).

    P is reversible, so one eigendecomposition of its symmetrized form
    gives TV at any t to within 1e-15 (``_power_tv``).  Worst-start TV
    is non-increasing in t, so t_mix is the t whose TV is at most the
    target while that of t - 1 is above it, and ``_first_mixed`` finds
    it in a few evaluations.  As t_mix >= t_rel - 1 (Levin-Peres-Wilmer,
    Thm 12.5), the search starts at t_rel = 1/(1 - lam*), with
    lam* = max(lam_2, |lam_min|), and extrapolates along ln lam*, the
    rate at which TV decays in the end.
    """
    if chain.P is None:
        raise ValueError("transition matrix not built")
    v0 = _worst_tv(np.eye(len(chain.pi)), chain.pi)
    if v0 <= TV_TARGET:
        return 0
    lam, U = np.linalg.eigh(_symmetrized(chain))
    # with lam* = 1 the chain never mixes, and the first guess is the cap
    star = min(max(lam[-2], -lam[0]), 1.0)
    rate = -math.log(max(star, 1e-300))
    cap = max(horizon, 0) + 1
    t = min(cap, math.ceil(1.0 / (1.0 - star))) if rate else cap
    tmix = _first_mixed(_power_tv(lam, U, chain.pi), v0, t, rate, cap)
    if tmix is None or tmix > horizon:
        raise HorizonExceededError(f"no mixing within horizon {horizon}")
    return tmix


def _first_mixed(tv, v0, t, rate, cap):
    """Smallest t in 1..cap with tv(t) <= TV_TARGET, or None if tv(cap)
    is above it; ``tv`` is non-increasing with tv(0) = v0 above it.

    From the guess ``t`` the search extrapolates up, ln tv falling by
    ``rate`` a step (rate 0: straight to the cap), until some t has
    mixed.  Secant steps on ln tv then shrink the bracket of the nearest
    unmixed and mixed t, with a bisection whenever three steps have not
    halved it, so a flat stretch of tv costs O(log cap) evaluations.
    """
    lo, v_lo = 0, v0
    v = tv(t)
    while v > TV_TARGET:
        if t == cap:
            return None
        lo, v_lo = t, v
        step = math.log(v / TV_TARGET) / rate if rate else cap
        t = min(cap, t + max(1, math.ceil(step)))
        v = tv(t)
    hi, v_hi = t, v
    widths = [hi - lo]
    while hi - lo > 1:
        if len(widths) > 3 and hi - lo > widths[-4] / 2:
            t = (lo + hi) // 2
        else:
            a, b = math.log(v_lo), math.log(max(v_hi, 1e-300))
            frac = (a - math.log(TV_TARGET)) / (a - b)
            t = min(max(lo + math.ceil((hi - lo) * frac), lo + 1), hi - 1)
        v = tv(t)
        if v > TV_TARGET:
            lo, v_lo = t, v
        else:
            hi, v_hi = t, v
        widths.append(hi - lo)
    return hi


def sandwich_check(chain, instance="", horizon=DEFAULTS["mixing_horizon"],
                   tau=None, tmix=None):
    """tau <= tau_mix and tau_mix <= tau*(1 + 0.5*ln(1/min pi)).

    ``tau`` and ``tmix`` are computed here unless the caller already has
    them.
    """
    if tau is None:
        tau = relaxation_time(chain)
    if tmix is None:
        tmix = mixing_time(chain, horizon=horizon)
    if len(chain.pi) == 1:
        # stationary from the start, one state relaxes in 0 steps as it
        # mixes in 0 (relaxation_time's 1.0 takes the missing gap as 1)
        tau = 0.0
    upper = tau * (1.0 + 0.5 * math.log(1.0 / chain.pi.min()))
    tol = 1e-9
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


def _cheeger_from_epsilon(eps):
    return 2.0 / (eps * eps)


def cheeger_bound(chain):
    """tau_mix <= 2/eps^2 with eps the smallest edge measure pi(a)P(a,b).

    The hypothesis wants every state pair joined in one step; single-site
    chains on more than one vertex never satisfy it, which surfaces as
    CheegerHypothesisError.
    """
    if chain.P is None:
        raise ValueError("transition matrix not built")
    S = len(chain.pi)
    if S < 2:
        raise CheegerHypothesisError("no state pairs to bound")
    vals = (chain.pi[:, None] * chain.P)[~np.eye(S, dtype=bool)]
    if not (vals > 0.0).all():
        raise CheegerHypothesisError(
            "hypothesis not met: some state pair has no direct transition")
    eps = float(vals.min())
    return CheegerBound(bound=_cheeger_from_epsilon(eps), epsilon=eps)


@dataclass(frozen=True)
class CanonicalBound:
    bound: float
    length: int
    congestion: float


def canonical_path_bound(model, graph, lazy=True,
                         budget=DEFAULTS["state_budget"]):
    """tau <= L*rho via the zero-out/raise canonical paths.

    Hardcore only: the path from sigma to eta clears sigma's occupied
    vertices in index order, then occupies eta's vertices in index order;
    every intermediate set stays independent.  rho is the worst congestion
    sum pi(sigma)pi(eta) / (pi(a)P(a,b)) over directed transitions.
    """
    if model.kind != "hardcore":
        raise ValueError("canonical paths are defined for hardcore models")
    return _path_congestion(transition_matrix(
        enumerate_states(model, graph, budget=budget), lazy=lazy))


def _path_congestion(chain):
    """The canonical-path bound on a built hardcore chain."""
    loads = {}
    max_len = 0
    for i, sigma in enumerate(chain.states):
        for j, eta in enumerate(chain.states):
            if i == j:
                continue
            # clear sigma's occupied vertices, then occupy eta's
            flips = ([(v, 0) for v, x in enumerate(sigma) if x == 1]
                     + [(v, 1) for v, x in enumerate(eta) if x == 1])
            cur = list(sigma)
            hops = []
            prev = i
            for v, x in flips:
                cur[v] = x
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


def tree_decay_check(model, graph, tree, v, lam,
                     boundary_samples=DEFAULTS["decay_boundary_samples"],
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
    if exhaustive or not ext:
        # every boundary as a row, in lexicographic order (one empty row
        # when there is no boundary)
        rows = np.indices((q,) * len(ext)).reshape(len(ext), total).T
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

    def __post_init__(self):
        # sample's weights, listed once for every draw
        self._weights = self.probs.tolist()

    def sample(self, rng):
        return self.states[sample_index(self._weights, rng.random())]


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


def skeleton_joint(model, graph, block, boundary):
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
    budget = 10 ** 6
    if q ** len(W) > budget:
        raise BudgetExceededError(
            f"{q}^{len(W)} skeleton states exceed budget {budget}")
    wset = set(W)
    by_root = {w: [] for w in W}
    for piece in block.pieces:
        by_root[piece.root].append(piece)
    fields = {w: _root_field(model, graph, w, by_root[w], boundary, wset)
              for w in W}
    wpos = {w: i for i, w in enumerate(W)}
    wedges = [(wpos[u], wpos[v]) for u, v in graph.edges
              if u in wset and v in wset]
    expg = model.exp_tables[1]

    # every assignment as a row, in lexicographic order
    xi = np.indices((q,) * len(W), dtype=np.min_scalar_type(q - 1))
    xi = xi.reshape(len(W), -1).T
    weights = np.ones(len(xi))
    for i, w in enumerate(W):
        weights *= fields[w][xi[:, i]]
    for a, b in wedges:
        weights *= expg[xi[:, a], xi[:, b]]
    keep = weights > 0.0
    if not keep.any():
        raise BoundaryInfeasibleError(
            "no feasible skeleton state under the given boundary")
    probs = weights[keep]
    probs /= probs.sum()
    return SkeletonJoint(w_vertices=W,
                         states=list(map(tuple, xi[keep].tolist())),
                         probs=probs)


def law_tv(law_a, law_b):
    """TV distance between two {outcome: probability} dicts."""
    keys = set(law_a) | set(law_b)
    return 0.5 * sum(abs(law_a.get(k, 0.0) - law_b.get(k, 0.0))
                     for k in keys)


def _boundary_assignments(model, graph, block_vertices, state_budget):
    """Boundary conditions realizable by states of the complement graph,
    at most 10^4 of them (a seeded sample beyond that)."""
    ext = exterior_boundary(graph, block_vertices)
    if not ext:
        return [dict()], False
    comp = [v for v in range(graph.n) if v not in set(block_vertices)]
    comp_chain = enumerate_states(model, graph, budget=state_budget,
                                  vertices=comp, boundary=None)
    cpos = {v: i for i, v in enumerate(comp_chain.vertices)}
    cols = [cpos[w] for w in ext]
    seen = sorted(set(map(tuple, comp_chain.X[:, cols].tolist())))
    cap = 10 ** 4
    sampled = len(seen) > cap
    if sampled:
        rng = make_rng(0, "block-boundaries")
        seen = sorted(rng.sample(seen, cap))
    return [dict(zip(ext, row)) for row in seen], sampled


def block_composition_check(model, graph, partition, instance="",
                            state_budget=DEFAULTS["state_budget"]):
    """Verify tau <= tau_block * max_i tau_i (disjoint blocks, so the
    multiplicity factor is 1).

    Site chains (whole graph and per-block conditionals) are lazy; the
    block kernel resamples a uniformly chosen block exactly and is used
    as-is (it is already positive semidefinite).  tau_i maximizes over
    boundary conditions realizable by complement states, capped at 10^4
    (sampled beyond, and reported).
    """
    chain = transition_matrix(
        enumerate_states(model, graph, budget=state_budget), lazy=True)
    tau = relaxation_time(chain)

    pos = {v: i for i, v in enumerate(chain.vertices)}
    groups = [sorted(pos[v] for v in block.vertices)
              for block in partition.blocks]
    bchain = replace(chain, P=_resample_kernel(chain, groups))
    tau_block = relaxation_time(bchain)

    taus = []
    any_sampled = False
    for block in partition.blocks:
        worst = 0.0
        assignments, sampled = _boundary_assignments(
            model, graph, block.vertices, state_budget)
        any_sampled = any_sampled or sampled
        for bc in assignments:
            sub = enumerate_states(model, graph, budget=state_budget,
                                   vertices=block.vertices, boundary=bc)
            if not len(sub.pi):
                continue
            transition_matrix(sub, lazy=True)
            worst = max(worst, relaxation_time(sub))
        taus.append(worst)
    bound = tau_block * max(taus)
    tol = 1e-9
    record = BoundRecord(instance=instance, bound_name="block-composition",
                         bound_value=bound, exact_value=tau,
                         passed=tau <= bound * (1.0 + tol) + tol,
                         tolerance=tol)
    details = {"tau_block": tau_block, "tau_blocks": taus,
               "boundaries_sampled": any_sampled}
    return record, details


def format_chain_dump(chain):
    """Plain-text dump: states, stationary vector, dense matrix."""
    lines = [f"states {len(chain.pi)} {len(chain.vertices)}"]
    lines.extend(" ".join(map(str, s)) for s in chain.X.tolist())
    lines.append("pi")
    lines.append(" ".join(f"{x:.17g}" for x in chain.pi))
    if chain.P is not None:
        lines.append("P")
        lines.extend(" ".join(f"{x:.17g}" for x in row) for row in chain.P)
    return "\n".join(lines) + "\n"
