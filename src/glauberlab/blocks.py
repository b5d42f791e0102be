"""Good/bad vertex classification and the block decomposition.

Bad vertices clump into equivalence classes (paths with no two consecutive
good vertices), short cycles and their connectors form skeleton components
via three addition rules, and the final partition hangs tree pieces off
skeleton roots.  validate_partition re-checks every structural guarantee
the construction promises.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (BudgetExceededError, LabelingInconsistencyError,
                     NonUniqueAttachmentError, SkeletonBoundError)
from .graphs import (DEFAULT_NODE_BUDGET, alpha_weights_all, bfs_distances,
                     boundaries, induced_components, induced_excess,
                     log_radius)
from .records import CheckRecord, Report


@dataclass
class GoodBadLabeling:
    good: np.ndarray
    c: float
    alpha: float
    eps: float
    phi: np.ndarray

    def is_good(self, v):
        return bool(self.good[v])

    @property
    def bad_vertices(self):
        return [v for v in range(len(self.good)) if not self.good[v]]


def classify(g, c, alpha, eps, phi=None):
    """Label each vertex good iff deg(v) <= c and phi_alpha(v) <= eps.

    phi defaults to the exact weights; a caller that already has them (the
    hypothesis check computes them) passes them in.
    """
    if c < 0:
        raise ValueError("degree cap must be nonnegative")
    if eps <= 0:
        raise ValueError("weight cap must be positive")
    if phi is None:
        phi = alpha_weights_all(g, alpha)
    else:
        phi = np.asarray(phi, dtype=float)
    degrees = np.array([g.degree(v) for v in range(g.n)], dtype=float)
    good = (degrees <= c) & (phi <= eps)
    return GoodBadLabeling(good=good, c=c, alpha=alpha, eps=eps, phi=phi)


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

    BFS over the step relation "bad to adjacent bad" and "bad to good to
    that good vertex's bad neighbors".  Classes come out sorted by their
    minimum vertex.
    """
    remaining = {v for v in range(g.n) if not labeling.is_good(v)}
    classes = []
    while remaining:
        start = min(remaining)
        comp = {start}
        queue = [start]
        while queue:
            u = queue.pop()
            for w in g.adj[u]:
                if not labeling.is_good(w):
                    if w in remaining and w not in comp:
                        comp.add(w)
                        queue.append(w)
                else:
                    for x in g.adj[w]:
                        if not labeling.is_good(x) and x not in comp:
                            comp.add(x)
                            queue.append(x)
        remaining -= comp
        classes.append(tuple(sorted(comp)))
    classes.sort(key=lambda c: c[0])
    return classes


class _SearchBudget:
    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def spend(self, amount=1):
        self.used += amount
        if self.used > self.limit:
            raise BudgetExceededError(
                f"skeleton rule search exceeded {self.limit} nodes",
                reached=self.used)


def _find_rule_iii(g, W, cap, budget, high):
    # cap is irrelevant here: a double-attached vertex always joins.
    if not W:
        return None
    for v in (range(g.n - 1, -1, -1) if high else range(g.n)):
        if v in W:
            continue
        budget.spend()
        hits = 0
        for w in g.adj[v]:
            if w in W:
                hits += 1
                if hits == 2:
                    return (v,)
    return None


def _short_path(g, W, s, ends, max_dist, budget, banned=None):
    """Shortest path from s through V-W to the first vertex of ends within
    max_dist edges, never using edge (s, banned); spends once per expansion."""
    parent = {s: None}
    frontier = [s]
    depth = 0
    while frontier and depth < max_dist:
        depth += 1
        nxt = []
        for u in frontier:
            budget.spend()
            for w in g.adj[u]:
                if w in W or w in parent or (u == s and w == banned):
                    continue
                parent[w] = u
                if w in ends:
                    path = []
                    while w is not None:
                        path.append(w)
                        w = parent[w]
                    return tuple(reversed(path))
                nxt.append(w)
        frontier = nxt
    return None


def _find_rule_ii(g, W, cap, budget, high):
    # Path of m = dist+1 vertices with 2 <= m < cap, so dist <= ceil(cap)-2.
    if cap <= 2.0 or not W:
        return None
    anchored = {v for v in range(g.n)
                if v not in W and any(w in W for w in g.adj[v])}
    for s in sorted(anchored, reverse=high):
        path = _short_path(g, W, s, anchored, math.ceil(cap) - 2, budget)
        if path:
            return path
    return None


def _find_rule_i(g, W, cap, budget, high):
    # Cycle of m = dist+1 vertices with 3 <= m < cap, where dist is the
    # length of the shortest path between the edge's ends avoiding it.
    if cap <= 3.0:
        return None
    edges = [e for e in g.edges if e[0] not in W and e[1] not in W]
    for u, v in (reversed(edges) if high else edges):
        path = _short_path(g, W, u, {v}, math.ceil(cap) - 2, budget,
                           banned=v)
        if path:
            return path
    return None


# Rule order when scanning up; scanning down tries them in reverse.
_RULES = (("iii", _find_rule_iii), ("ii", _find_rule_ii),
          ("i", _find_rule_i))


def _first_rule(g, W, cap, budget, high):
    """(name, addition) of the first rule that fires on W, or None."""
    for name, rule in (_RULES[::-1] if high else _RULES):
        addition = rule(g, W, cap, budget, high)
        if addition:
            return name, addition
    return None


def _log_n(n, log_base):
    return math.log(n) / math.log(log_base) if n > 1 else 0.0


def _rule_cap(g, L, log_base):
    if L <= 0:
        raise ValueError("block scale must be positive")
    return 5.0 * L * _log_n(g.n, log_base)


def _check_skeleton_bounds(g, W, size_cap, t):
    for comp in induced_components(g, W):
        if len(comp) > size_cap:
            raise SkeletonBoundError(
                f"skeleton component of size {len(comp)} exceeds "
                f"{size_cap:.3f}; the graph fails the hypothesis at these "
                f"parameters (component min vertex {comp[0]})")
        excess = induced_excess(g, comp)
        if excess > t:
            raise SkeletonBoundError(
                f"skeleton component has tree excess {excess} > {t} "
                f"(component min vertex {comp[0]})")


def build_skeleton(g, labeling, L, t, log_base=math.e, scan_order="low",
                   node_budget=DEFAULT_NODE_BUDGET):
    """Grow the skeleton W from empty to a fixed point of the three rules.

    (i) a cycle of m vertices in V-W, 3 <= m < 5L log n; (ii) a path of m
    vertices in V-W with both endpoints adjacent to W, 2 <= m < 5L log n;
    (iii) a vertex with two W-neighbors.  The fixed point is order
    independent, so the scan order only affects the trace: "low" tries
    (iii),(ii),(i) scanning vertices upward, "high" tries (i),(ii),(iii)
    scanning downward.  Rule searches are exact shortest-path probes, and
    each addition re-checks the per-component size and excess bounds.

    ``labeling`` is accepted for interface symmetry: the rules themselves
    never consult goodness (only the termination guarantee does).
    """
    del labeling
    if scan_order not in ("low", "high"):
        raise ValueError(f"unknown scan order {scan_order!r}")
    cap = _rule_cap(g, L, log_base)
    size_cap = 20.0 * t * L * _log_n(g.n, log_base)
    high = scan_order == "high"
    budget = _SearchBudget(node_budget)

    W = set()
    while found := _first_rule(g, W, cap, budget, high):
        W.update(found[1])
        _check_skeleton_bounds(g, W, size_cap, t)
    return induced_components(g, W)


def has_applicable_rule(g, W, L, log_base=math.e,
                        node_budget=DEFAULT_NODE_BUDGET):
    """Name of the first rule that can still fire, or None at a fixed point."""
    found = _first_rule(g, set(W), _rule_cap(g, L, log_base),
                        _SearchBudget(node_budget), False)
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


def _units(g, labeling, classes):
    """Extended equivalence classes covering every vertex.

    Each bad class absorbs the good vertices adjacent to it; a good vertex
    with no bad neighbor stands alone.  A good vertex adjacent to two
    different classes means the classes were not closed under the two-hop
    step, which is a labeling inconsistency.
    """
    unit_of = {}
    for k, cls in enumerate(classes):
        for v in cls:
            if labeling.is_good(v):
                raise LabelingInconsistencyError(
                    f"good vertex {v} listed in a bad class")
            if v in unit_of:
                raise LabelingInconsistencyError(
                    f"vertex {v} appears in two bad classes")
            unit_of[v] = k
    units = [set(cls) for cls in classes]
    for v in range(g.n):
        if labeling.is_good(v):
            hits = {unit_of[w] for w in g.adj[v]
                    if w in unit_of and not labeling.is_good(w)}
            if len(hits) > 1:
                raise LabelingInconsistencyError(
                    f"good vertex {v} is adjacent to bad classes "
                    f"{sorted(hits)}")
            if hits:
                k = hits.pop()
                units[k].add(v)
                unit_of[v] = k
        elif v not in unit_of:
            raise LabelingInconsistencyError(
                f"bad vertex {v} is missing from the classes")
    singles = []
    for v in range(g.n):
        if v not in unit_of:
            unit_of[v] = len(classes) + len(singles)
            singles.append({v})
    return [tuple(sorted(u)) for u in units + singles]


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


def build_blocks(g, labeling, skeleton, L, t=None, log_base=math.e,
                 classes=None):
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
    if classes is None:
        classes = bad_classes(g, labeling)
    units = _units(g, labeling, classes)

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
        kind = "singleton" if len(unit) == 1 else "tree"
        blocks.append(Block(kind=kind, vertices=unit))
    blocks.sort(key=lambda b: b.vertices[0])
    return BlockPartition(blocks=tuple(blocks), L=L, log_base=log_base, t=t,
                          labeling=labeling)


def _block_diameter(g, vertices):
    vset = set(vertices)
    diam = 0
    for v in vertices:
        dist = bfs_distances(g, v, within=vset)
        if len(dist) < len(vset):
            return math.inf
        diam = max(diam, max(dist.values()))
    return diam


def validate_partition(g, partition, labeling=None):
    """Re-check all six structural guarantees; failures become records
    with witnesses, never exceptions."""
    if labeling is None:
        labeling = partition.labeling
    L = partition.L
    logn = _log_n(g.n, partition.log_base)
    report = Report()
    blocks = partition.blocks

    owner = {}
    duplicated = []
    for i, b in enumerate(blocks):
        for v in b.vertices:
            if v in owner:
                duplicated.append(v)
            owner[v] = i
    missing = [v for v in range(g.n) if v not in owner]
    report.add(CheckRecord(
        check="cover", passed=not duplicated and not missing,
        witness={"duplicated": duplicated[:10], "missing": missing[:10]}))

    pair_edges = {}
    for u, v in g.edges:
        bu, bv = owner.get(u), owner.get(v)
        if bu is None or bv is None or bu == bv:
            continue
        key = (min(bu, bv), max(bu, bv))
        pair_edges.setdefault(key, []).append((u, v))
    offenders = {k: v for k, v in pair_edges.items() if len(v) > 1}
    report.add(CheckRecord(
        check="cross-edges", passed=not offenders,
        witness={"pairs": [{"blocks": list(k), "edges": v[:4]}
                           for k, v in list(offenders.items())[:5]]},
        value=max((len(v) for v in pair_edges.values()), default=0),
        bound=1))

    if labeling is None:
        raise ValueError("boundary check needs the good/bad labeling")
    bad_boundary = []
    for i, b in enumerate(blocks):
        for v in boundaries(g, b.vertices).interior:
            if not labeling.is_good(v):
                bad_boundary.append({"block": i, "vertex": v})
    report.add(CheckRecord(
        check="boundary-good", passed=not bad_boundary,
        witness={"violations": bad_boundary[:10]}))

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
    for i, b in enumerate(blocks):
        if b.kind != "skeleton":
            continue
        wset = set(b.skeleton)
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
                    if w in full or w not in set(b.vertices):
                        continue
                    problems.append({"block": i, "piece": piece.root,
                                     "why": f"side edge ({c},{w})"})
            attach = [(w, c) for c in cset for w in g.adj[c] if w in wset]
            if len(attach) != 1:
                problems.append({"block": i, "piece": piece.root,
                                 "why": f"{len(attach)} attachment edges"})
        if claimed != set(b.vertices):
            problems.append({"block": i,
                             "why": "skeleton plus pieces misses vertices"})
        wdist = bfs_distances(g, b.skeleton)
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
    skel = [b for b in blocks if b.kind == "skeleton"]
    closest = math.inf
    pair = None
    for a in range(len(skel)):
        dist = bfs_distances(g, skel[a].skeleton)
        for b in range(a + 1, len(skel)):
            d = min((dist[v] for v in skel[b].skeleton if v in dist),
                    default=math.inf)
            if d < closest:
                closest = d
                pair = (a, b)
    report.add(CheckRecord(
        check="skeleton-separation", passed=closest >= sep_bound,
        witness={"pair": list(pair) if pair else None},
        value=None if closest is math.inf else closest, bound=sep_bound))
    return report


def decompose(g, hp, L=None, log_base=math.e, scan_order="low",
              node_budget=DEFAULT_NODE_BUDGET, phi=None):
    """classify -> bad_classes -> build_skeleton -> build_blocks.

    phi lets a caller reuse per-vertex weights already computed by the
    hypothesis check instead of paying a second all-pairs pass.
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
