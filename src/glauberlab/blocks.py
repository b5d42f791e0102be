"""Good/bad vertex classification and the block decomposition.

Bad vertices clump into equivalence classes (paths with no two consecutive
good vertices), short cycles and their connectors form skeleton components
via three addition rules, and the final partition hangs tree pieces off
skeleton roots.  validate_partition re-checks every structural guarantee
the construction promises.
"""

import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import starmap

import numpy as np

from .defaults import CHOICES, DEFAULTS, _check_log_base
from .errors import (BudgetExceededError, NonUniqueAttachmentError,
                     SkeletonBoundError)
from .graphs import (_SLACK, Graph, _distance_chunks, _walk_bounds,
                     alpha_weights_all, bfs_distances, boundaries,
                     induced_components, induced_excess, log_radius)
from .records import CheckRecord, Report


@dataclass
class GoodBadLabeling:
    good: np.ndarray
    c: float
    alpha: float
    eps: float
    phi_swept: int

    def is_good(self, v):
        return bool(self.good[v])

    @property
    def bad_vertices(self):
        return [v for v in range(len(self.good)) if not self.good[v]]


def classify(g, c, alpha, eps, phi=None):
    """Label each vertex good iff deg(v) <= c and phi_alpha(v) <= eps.

    A caller that already has phi (the hypothesis check computes it)
    passes it in.  Otherwise a vertex is bad when deg(v) > c or
    alpha * deg(v), a lower bound on phi, clears eps, and good when
    graphs' non-backtracking walk bound on phi is within eps; levels of
    that bound are added while some vertex can still be settled, and only
    the vertices left open get their exact phi from the sweep, which
    phi_swept counts.  The labels equal those of the exact phi.
    """
    if c < 0:
        raise ValueError("degree cap must be nonnegative")
    if eps <= 0:
        raise ValueError("weight cap must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0,1)")
    degrees = np.diff(g.csr_adjacency()[0])
    good = degrees <= c
    if phi is not None:
        good &= np.asarray(phi, dtype=float) <= eps
        return GoodBadLabeling(good=good, c=c, alpha=alpha, eps=eps,
                               phi_swept=0)
    low = alpha * degrees
    good &= low - _SLACK * (low + 1) <= eps
    unsettled = good.copy()
    for head, tail in _walk_bounds(g, alpha):
        upper = head + tail
        unsettled &= upper + _SLACK * (upper + 1) > eps
        # head only grows, and a tail within the slack cannot settle more
        slack = _SLACK * (head + 1)
        if not np.any(unsettled & (head + slack <= eps) & (tail > slack)):
            break
    swept = np.flatnonzero(unsettled)
    if len(swept):
        good[swept] = alpha_weights_all(g, alpha, swept) <= eps
    return GoodBadLabeling(good=good, c=c, alpha=alpha, eps=eps,
                           phi_swept=len(swept))


@dataclass(frozen=True)
class BlockParams:
    L: float
    c: float
    eps: float


def choose_params(hp, L=None):
    """Derive the classification thresholds from hypothesis parameters.

    eps = 3*delta/L and c = eps/alpha.  The default block scale is
    0.9 * a / (20t + 2), which keeps (20t+2)*L below a.
    """
    if L is None:
        L = 0.9 * hp.a / (20 * hp.t + 2)
    if L <= 0:
        raise ValueError("block scale must be positive")
    if L > hp.a:
        raise ValueError(f"block scale {L} exceeds the ball exponent {hp.a}")
    eps = 3.0 * hp.delta / L
    return BlockParams(L=L, c=eps / hp.alpha, eps=eps)


def bad_classes(g, labeling):
    """Partition of the bad vertices: u ~ u' iff a path joins them with no
    two consecutive good vertices.

    They are the bad vertices of each unit that has any, sorted by their
    minimum vertex.
    """
    classes = [tuple(v for v in unit if not labeling.is_good(v))
               for unit in _units(g, labeling)]
    return sorted((c for c in classes if c), key=lambda c: c[0])


def _units(g, labeling):
    """Extended equivalence classes covering every vertex: the components
    of g without its good-good edges.

    There a good vertex touches only bad vertices, so a component holding
    a bad vertex is one bad class plus its good neighbours, and every other
    good vertex stands alone.
    """
    good = labeling.good.tolist()
    h = Graph._from_sorted(g.n, [(u, v) for u, v in g.edges
                                 if not (good[u] and good[v])])
    return induced_components(h, range(g.n))


class _SearchBudget:
    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def spend(self, amount):
        self.used += amount
        if self.used > self.limit:
            raise BudgetExceededError(
                f"skeleton rule search exceeded {self.limit} nodes")


class _Skeleton:
    """The skeleton W with the counts the rules and bounds read, kept up to
    date by each addition instead of being re-derived from the graph.

    hits[v] is v's number of W-neighbours, anchored holds the vertices
    outside W with at least one, and a union-find over W keeps at each
    root comp[root] = [size, induced edge count, minimum vertex] of its
    component.  Rule (i) has failed for good on every edge before
    edge_cursor, counted in its scan order.
    """

    def __init__(self, g, W=()):
        self.g = g
        self.W = set()
        self.hits = [0] * g.n
        self.anchored = set()
        self.parent = {}
        self.comp = {}
        self.edge_cursor = 0
        self.add(set(W))

    def _find(self, v):
        parent = self.parent
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def _union(self, a, b):
        if a != b:
            if self.comp[a][0] < self.comp[b][0]:
                a, b = b, a
            self.parent[b] = a
            size, edges, low = self.comp.pop(b)
            ca = self.comp[a]
            ca[:] = ca[0] + size, ca[1] + edges, min(ca[2], low)
        return a

    def add(self, vertices):
        """Put vertices (outside W) into W; returns the root of the last
        one's component, which holds them all when they are connected."""
        W, hits, anchored = self.W, self.hits, self.anchored
        root = None
        for v in vertices:
            W.add(v)
            anchored.discard(v)
            self.parent[v] = v
            self.comp[v] = [1, 0, v]
            root = v
            for w in self.g.adj[v]:
                hits[w] += 1
                if w in W:
                    root = self._union(root, self._find(w))
                    self.comp[root][1] += 1
                else:
                    anchored.add(w)
        return root


def _find_rule_iii(g, sk, cap, budget, high):
    # cap is irrelevant here: a double-attached vertex always joins.  The
    # scan spends once per vertex outside W up to the first with two
    # W-neighbours; that count is charged at once.
    if not sk.W:
        return None
    double = [v for v in sk.anchored if sk.hits[v] >= 2]
    if not double:
        budget.spend(g.n - len(sk.W))
        return None
    if high:
        v = max(double)
        budget.spend(g.n - v - sum(1 for w in sk.W if w > v))
    else:
        v = min(double)
        budget.spend(v + 1 - sum(1 for w in sk.W if w < v))
    return (v,)


def _short_path(g, W, s, ends, max_dist, budget, banned=None):
    """Shortest path from s through V-W to the first vertex of ends within
    max_dist edges, never using edge (s, banned).

    Spends once per expansion, charged when the probe ends: the budget
    trips on exactly the probes where per-expansion charging would.
    """
    parent = {s: None}
    frontier = [s]
    depth = expanded = 0
    while frontier and depth < max_dist:
        depth += 1
        nxt = []
        for u in frontier:
            expanded += 1
            for w in g.adj[u]:
                if w in W or w in parent or (u == s and w == banned):
                    continue
                parent[w] = u
                if w in ends:
                    budget.spend(expanded)
                    path = []
                    while w is not None:
                        path.append(w)
                        w = parent[w]
                    return tuple(reversed(path))
                nxt.append(w)
        frontier = nxt
    budget.spend(expanded)
    return None


def _find_rule_ii(g, sk, cap, budget, high):
    # Path of m = dist+1 vertices with 2 <= m < cap, so dist <= ceil(cap)-2.
    if cap <= 2.0 or not sk.W:
        return None
    for s in sorted(sk.anchored, reverse=high):
        path = _short_path(g, sk.W, s, sk.anchored, math.ceil(cap) - 2,
                           budget)
        if path:
            return path
    return None


def _find_rule_i(g, sk, cap, budget, high):
    # Cycle of m = dist+1 vertices with 3 <= m < cap, where dist is the
    # length of the shortest path between the edge's ends avoiding it.
    # The scan resumes at the cursor: the edges before it failed for good.
    if cap <= 3.0:
        return None
    W, edges = sk.W, g.edges
    last = len(edges) - 1
    for k in range(sk.edge_cursor, len(edges)):
        u, v = edges[last - k] if high else edges[k]
        if u in W or v in W:
            continue
        path = _short_path(g, W, u, {v}, math.ceil(cap) - 2, budget,
                           banned=v)
        if path:
            sk.edge_cursor = k + 1
            return path
    sk.edge_cursor = len(edges)
    return None


# Rule order when scanning up; scanning down tries them in reverse.
_RULES = (("iii", _find_rule_iii), ("ii", _find_rule_ii),
          ("i", _find_rule_i))


def _first_rule(g, sk, cap, budget, high):
    """(name, addition) of the first rule that fires on sk.W, or None."""
    for name, rule in (_RULES[::-1] if high else _RULES):
        addition = rule(g, sk, cap, budget, high)
        if addition:
            return name, addition
    return None


def _log_n(n, log_base):
    _check_log_base(log_base)
    return math.log(n) / math.log(log_base) if n > 1 else 0.0


def _rule_cap(g, L, log_base):
    if L <= 0:
        raise ValueError("block scale must be positive")
    return 5.0 * L * _log_n(g.n, log_base)


def build_skeleton(g, labeling, L, t, log_base=DEFAULTS["log_base"],
                   scan_order=DEFAULTS["scan_order"],
                   node_budget=DEFAULTS["node_budget"]):
    """Grow the skeleton W from empty to a fixed point of the three rules.

    (i) a cycle of m vertices in V-W, 3 <= m < 5L log n; (ii) a path of m
    vertices in V-W with both endpoints adjacent to W, 2 <= m < 5L log n;
    (iii) a vertex with two W-neighbors.  The fixed point is order
    independent, so the scan order only affects the trace: "low" tries
    (iii),(ii),(i) scanning vertices upward, "high" tries (i),(ii),(iii)
    scanning downward.  Rule searches are exact shortest-path probes.
    Each addition is connected, so it changes only the component it joins,
    and that component alone is checked against the size and excess bounds.

    W only grows, and a rule (i) probe searches V-W, which only shrinks,
    for a path between two fixed ends: a probe that failed stays failed.
    So rule (i)'s edge scan resumes just past the edge that last fired,
    and picks the same edge a full rescan would.  Rule (ii) rescans all
    of its sources every round, since its targets, the anchored vertices,
    grow with W and a failed probe can succeed later.

    ``labeling`` is accepted for interface symmetry: the rules themselves
    never consult goodness (only the termination guarantee does).
    """
    del labeling
    if scan_order not in CHOICES["scan_order"]:
        raise ValueError(f"unknown scan order {scan_order!r}")
    cap = _rule_cap(g, L, log_base)
    size_cap = 20.0 * t * L * _log_n(g.n, log_base)
    high = scan_order == "high"
    budget = _SearchBudget(node_budget)

    sk = _Skeleton(g)
    while found := _first_rule(g, sk, cap, budget, high):
        size, edges, low = sk.comp[sk.add(found[1])]
        if size > size_cap:
            raise SkeletonBoundError(
                f"skeleton component of size {size} exceeds "
                f"{size_cap:.3f}; the graph fails the hypothesis at these "
                f"parameters (component min vertex {low})")
        excess = edges - size + 1
        if excess > t:
            raise SkeletonBoundError(
                f"skeleton component has tree excess {excess} > {t} "
                f"(component min vertex {low})")
    return induced_components(g, sk.W)


def has_applicable_rule(g, W, L):
    """Name of the first rule that can still fire, or None at a fixed point
    (default log base and node budget)."""
    found = _first_rule(g, _Skeleton(g, W),
                        _rule_cap(g, L, DEFAULTS["log_base"]),
                        _SearchBudget(DEFAULTS["node_budget"]), False)
    return found[0] if found else None


@dataclass(frozen=True)
class Piece:
    root: int
    vertices: tuple


@dataclass(frozen=True)
class Block:
    kind: str
    vertices: tuple
    skeleton: tuple = ()
    pieces: tuple = ()


@dataclass
class BlockPartition:
    blocks: tuple
    L: float
    log_base: float
    t: int = None
    labeling: GoodBadLabeling = None

    def owner_map(self):
        owner = {}
        for i, b in enumerate(self.blocks):
            for v in b.vertices:
                owner[v] = i
        return owner


def _extract_pieces(g, block_vertices, wset, block_tag):
    pieces = []
    outside = [v for v in block_vertices if v not in wset]
    for comp in induced_components(g, outside):
        cset = set(comp)
        attach = [(w, c) for c in comp for w in g.adj[c] if w in wset]
        if len(attach) != 1:
            raise NonUniqueAttachmentError(
                f"{block_tag}: component {comp[:6]}... has {len(attach)} "
                f"attachment edges to the skeleton (need exactly 1)")
        if induced_excess(g, comp) != 0:
            raise NonUniqueAttachmentError(
                f"{block_tag}: component {comp[:6]}... contains a cycle, "
                f"so paths to the skeleton are not unique")
        pieces.append(Piece(root=attach[0][0], vertices=comp))
    pieces.sort(key=lambda p: (p.root, p.vertices))
    return tuple(pieces)


def build_blocks(g, labeling, skeleton, L, t=None,
                 log_base=DEFAULTS["log_base"]):
    """Assemble the final partition around the skeleton components.

    A unit (extended class) joins skeleton component W_j when one of its
    vertices lies within ceil(L log n) of W_j; ties go to the nearest
    component, then the lowest index.  Units near no component become tree
    blocks (several vertices) or singletons (one good vertex).
    """
    comps = [tuple(sorted(c)) for c in skeleton]
    wall = set()
    for comp in comps:
        for v in comp:
            if v in wall:
                raise ValueError(f"skeleton components overlap at {v}")
            wall.add(v)
    units = _units(g, labeling)

    radius = log_radius(L, g.n, base=log_base)
    dists = [bfs_distances(g, comp, cutoff=radius) for comp in comps]
    assigned = {}
    standalone = []
    for unit in units:
        best = None
        for j, dist in enumerate(dists):
            d = min((dist[v] for v in unit if v in dist), default=None)
            if d is not None and (best is None or (d, j) < best):
                best = (d, j)
        if best is None:
            standalone.append(unit)
        else:
            assigned.setdefault(best[1], []).append(unit)

    blocks = []
    for j, comp in enumerate(comps):
        members = set(comp)
        for unit in assigned.get(j, ()):
            members.update(unit)
        pieces = _extract_pieces(g, members, set(comp), f"skeleton block {j}")
        blocks.append(Block(kind="skeleton", vertices=tuple(sorted(members)),
                            skeleton=comp, pieces=pieces))
    for unit in standalone:
        blocks.append(Block("singleton" if len(unit) == 1 else "tree", unit))
    blocks.sort(key=lambda b: b.vertices[0])
    return BlockPartition(blocks=tuple(blocks), L=L, log_base=log_base, t=t,
                          labeling=labeling)


def _block_diameter(g, vertices):
    """Exact diameter of the subgraph induced on vertices, inf if it is
    disconnected: the largest MS-BFS depth code of the relabelled
    subgraph, whose unreached code ``far`` exceeds every depth."""
    # a lone vertex skips the sweep's set-up, most of its cost on the
    # thousands of singleton blocks of a sparse graph
    if len(vertices) == 1:
        return 0
    # in increasing order, the relabelled edges come out sorted
    vertices = sorted(set(vertices))
    pos = {v: i for i, v in enumerate(vertices)}
    sub = Graph._from_sorted(len(pos), [(pos[u], pos[v]) for u in vertices
                                        for v in g.adj[u]
                                        if u < v and v in pos])
    diam = 0
    for _, code, far in _distance_chunks(sub):
        top = int(code.max())
        if top == far:
            return math.inf
        diam = max(diam, top)
    return diam


def validate_partition(g, partition):
    """Re-check all six structural guarantees; failures become records
    with witnesses, never exceptions.

    Cover, cross-edges and boundary-good come from one vertex -> block
    owner map, with the set of blocks of each vertex that lies in several.
    A vertex is interior to block i when a neighbour lies outside i, so
    only bad vertices are tested, each in every block that holds it.
    """
    labeling = partition.labeling
    L = partition.L
    logn = _log_n(g.n, partition.log_base)
    report = Report()
    blocks = partition.blocks

    owner = {}
    shared = {}
    duplicated = []
    for i, b in enumerate(blocks):
        for v in b.vertices:
            if v in owner:
                duplicated.append(v)
                shared.setdefault(v, {owner[v]}).add(i)
            owner[v] = i
    missing = [v for v in range(g.n) if v not in owner]
    report.add(CheckRecord(
        check="cover", passed=not duplicated and not missing,
        witness={"duplicated": duplicated[:10], "missing": missing[:10]}))

    def pair(u, v):
        bu, bv = owner.get(u), owner.get(v)
        if bu is not None and bv is not None and bu != bv:
            return (bu, bv) if bu < bv else (bv, bu)

    # edges per block pair first; edge lists, of the first four edges in
    # g.edges order, only for the pairs that share two or more
    count = Counter(starmap(pair, g.edges))
    count.pop(None, None)
    offenders = {k: [] for k, c in count.items() if c > 1}
    if offenders:
        for e, key in zip(g.edges, starmap(pair, g.edges)):
            edges = offenders.get(key)
            if edges is not None and len(edges) < 4:
                edges.append(e)
    report.add(CheckRecord(
        check="cross-edges", passed=not offenders,
        witness={"pairs": [{"blocks": list(k), "edges": v}
                           for k, v in list(offenders.items())[:5]]},
        value=max(count.values(), default=0), bound=1))

    if labeling is None:
        raise ValueError("boundary check needs the good/bad labeling")
    if len(owner) + len(missing) != g.n:
        # a block holds a vertex outside 0..n-1: raise boundaries' error
        for b in blocks:
            boundaries(g, b.vertices)
    bad_boundary = sorted(
        (i, v) for v, ok in enumerate(labeling.good.tolist())
        if not ok and v in owner
        for i in shared.get(v, (owner[v],))
        if any(owner.get(w) != i and i not in shared.get(w, ())
               for w in g.adj[v]))
    report.add(CheckRecord(
        check="boundary-good", passed=not bad_boundary,
        witness={"violations": [{"block": i, "vertex": v}
                                for i, v in bad_boundary[:10]]}))

    if partition.t is None:
        raise ValueError("diameter check needs the excess parameter t")
    diam_bound = (20 * partition.t + 2) * L * logn
    worst = (-1.0, None)
    for i, b in enumerate(blocks):
        d = _block_diameter(g, b.vertices)
        if d > worst[0]:
            worst = (d, i)
    report.add(CheckRecord(
        check="diameter", passed=worst[0] < diam_bound,
        witness={"block": worst[1]}, value=worst[0], bound=diam_bound))

    depth_bound = 2 * L * logn
    stand_off = L * logn
    size_cap = 20 * partition.t * L * logn
    problems = []
    # closest skeleton pair as (distance, a, b) over positions among the
    # skeleton blocks: each block's distance map is measured against the
    # skeletons before it, and ties go to the lexicographically first pair
    skeletons = []
    closest = (math.inf,)
    for i, b in enumerate(blocks):
        if b.kind != "skeleton":
            continue
        wset = set(b.skeleton)
        vset = set(b.vertices)
        claimed = set(b.skeleton)
        for piece in b.pieces:
            cset = set(piece.vertices)
            claimed |= cset
            if induced_excess(g, piece.vertices) != 0:
                problems.append({"block": i, "piece": piece.root,
                                 "why": "piece not a tree"})
            full = cset | {piece.root}
            depth = max(bfs_distances(g, piece.root, within=full).values())
            if depth > depth_bound:
                problems.append({"block": i, "piece": piece.root,
                                 "why": f"depth {depth} > {depth_bound:.3f}"})
            for c in piece.vertices:
                for w in g.adj[c]:
                    if w in full or w not in vset:
                        continue
                    problems.append({"block": i, "piece": piece.root,
                                     "why": f"side edge ({c},{w})"})
            attach = [(w, c) for c in cset for w in g.adj[c] if w in wset]
            if len(attach) != 1:
                problems.append({"block": i, "piece": piece.root,
                                 "why": f"{len(attach)} attachment edges"})
        if claimed != vset:
            problems.append({"block": i,
                             "why": "skeleton plus pieces misses vertices"})
        wdist = bfs_distances(g, b.skeleton)
        b_pos = len(skeletons)
        for a, skel in enumerate(skeletons):
            d = min((wdist[v] for v in skel if v in wdist), default=math.inf)
            closest = min(closest, (d, a, b_pos))
        skeletons.append(b.skeleton)
        inner = boundaries(g, b.vertices).interior
        near = min((wdist[v] for v in inner if v in wdist), default=None)
        if near is not None and near < stand_off:
            problems.append({"block": i,
                             "why": f"boundary at distance {near} "
                                    f"< {stand_off:.3f} from skeleton"})
        if len(b.skeleton) > size_cap:
            problems.append({"block": i,
                             "why": f"skeleton size {len(b.skeleton)} "
                                    f"> {size_cap:.3f}"})
        maxdeg = max((sum(1 for w in g.adj[v] if w in wset)
                      for v in b.skeleton), default=0)
        if maxdeg > 2 * partition.t:
            problems.append({"block": i,
                             "why": f"skeleton degree {maxdeg} "
                                    f"> {2 * partition.t}"})
    report.add(CheckRecord(
        check="skeleton-structure", passed=not problems,
        witness={"violations": problems[:10]}))

    sep_bound = 5 * L * logn
    d, pair = closest[0], list(closest[1:]) or None
    report.add(CheckRecord(
        check="skeleton-separation", passed=d >= sep_bound,
        witness={"pair": pair},
        value=None if d is math.inf else d, bound=sep_bound))
    return report


def decompose(g, hp, L=None, log_base=DEFAULTS["log_base"],
              scan_order=DEFAULTS["scan_order"],
              node_budget=DEFAULTS["node_budget"], phi=None):
    """classify -> bad_classes -> build_skeleton -> build_blocks.

    phi lets a caller reuse per-vertex weights already computed by the
    hypothesis check.  Without it, classify settles most labels by bounds
    and sweeps only the vertices they leave open; the partition's
    labeling.phi_swept counts those.
    """
    params = choose_params(hp, L)
    labeling = classify(g, params.c, hp.alpha, params.eps, phi=phi)
    skeleton = build_skeleton(g, labeling, params.L, t=hp.t,
                              log_base=log_base, scan_order=scan_order,
                              node_budget=node_budget)
    return build_blocks(g, labeling, skeleton, params.L, t=hp.t,
                        log_base=log_base)


def partition_to_json_dict(p):
    blocks = []
    for b in p.blocks:
        entry = {"kind": b.kind, "vertices": list(b.vertices)}
        if b.kind == "skeleton":
            entry["skeleton"] = list(b.skeleton)
            entry["pieces"] = [{"root": pc.root,
                                "vertices": list(pc.vertices)}
                               for pc in b.pieces]
        blocks.append(entry)
    return {"params": {"L": p.L, "log_base": p.log_base, "t": p.t},
            "blocks": blocks}


def partition_from_json_dict(data):
    blocks = []
    for entry in data["blocks"]:
        pieces = tuple(Piece(root=pc["root"],
                             vertices=tuple(pc["vertices"]))
                       for pc in entry.get("pieces", ()))
        blocks.append(Block(kind=entry["kind"],
                            vertices=tuple(entry["vertices"]),
                            skeleton=tuple(entry.get("skeleton", ())),
                            pieces=pieces))
    params = data["params"]
    return BlockPartition(blocks=tuple(blocks), L=params["L"],
                          log_base=params["log_base"], t=params.get("t"))


def write_partition(p, path):
    with open(path, "w") as fh:
        json.dump(partition_to_json_dict(p), fh, indent=2)
        fh.write("\n")


def read_partition(path):
    with open(path) as fh:
        return partition_from_json_dict(json.load(fh))
