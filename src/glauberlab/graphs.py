"""Undirected simple graphs and their structural quantities.

Everything the sparsity hypothesis needs lives here: balls and spheres,
interior/exterior boundaries, tree excess of balls, exponentially decaying
vertex weights, maximal self-avoiding-path weights, plus seeded random
graph generation and the edge-list file format.
"""

import math
from dataclasses import dataclass

import numpy as np

from .defaults import DEFAULTS, _check_log_base
from .errors import BudgetExceededError
from .records import CheckRecord, Report
from .rng import make_rng

# BFS sources swept at once: four 64-bit words of source bits per vertex,
# and an (n, 256) block of small-int depth codes (uint8 up to depth 127).
_DIST_CHUNK = 256


class Graph:
    """Immutable simple graph on vertices 0..n-1 with sorted adjacency."""

    def __init__(self, n, edges):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen = set()
        adj = [[] for _ in range(n)]
        norm = []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise ValueError(f"parallel edge ({u},{v})")
            seen.add((u, v))
            norm.append((u, v))
            adj[u].append(v)
            adj[v].append(u)
        norm.sort()
        self.n = n
        self.edges = tuple(norm)
        self.adj = tuple(tuple(sorted(a)) for a in adj)
        self._csr = None

    @property
    def m(self):
        return len(self.edges)

    def degree(self, v):
        return len(self.adj[v])

    def csr_adjacency(self):
        """(indptr, indices) of the sorted adjacency lists, cached."""
        if self._csr is None:
            indptr = np.cumsum([0] + [len(a) for a in self.adj])
            indices = np.array([w for a in self.adj for w in a],
                               dtype=np.intp)
            self._csr = (indptr, indices)
        return self._csr

    def __eq__(self, other):
        return (isinstance(other, Graph)
                and self.n == other.n and self.edges == other.edges)

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def bfs_distances(g, sources, cutoff=None, within=None):
    """Hop distances from ``sources`` (vertex or iterable of vertices).

    ``within`` restricts the traversal to an induced vertex set (sources
    included unconditionally).  Returns {vertex: distance} for reached
    vertices only.
    """
    if isinstance(sources, int):
        sources = (sources,)
    dist = {}
    frontier = []
    for s in sources:
        if s not in dist:
            dist[s] = 0
            frontier.append(s)
    d = 0
    while frontier and (cutoff is None or d < cutoff):
        d += 1
        nxt = []
        for u in frontier:
            for w in g.adj[u]:
                if w in dist:
                    continue
                if within is not None and w not in within:
                    continue
                dist[w] = d
                nxt.append(w)
        frontier = nxt
    return dist


def induced_components(g, vertices):
    """Components of the induced subgraph as sorted tuples, by min vertex."""
    vset = set(vertices)
    comps = []
    seen = set()
    for s in sorted(vset):
        if s in seen:
            continue
        comp = tuple(sorted(bfs_distances(g, s, within=vset)))
        seen.update(comp)
        comps.append(comp)
    return comps


def induced_excess(g, vertices):
    """|E| - |V| + 1 of the induced subgraph."""
    vset = set(vertices)
    ecount = sum(1 for u in vset for w in g.adj[u] if w > u and w in vset)
    return ecount - len(vset) + 1


def ball(g, v, l):
    """V(v,l) and the induced edge list E(v,l), via BFS from v."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    if l < 0:
        raise ValueError("radius must be nonnegative")
    dist = bfs_distances(g, v, cutoff=l)
    verts = tuple(sorted(dist))
    vset = set(verts)
    edges = []
    for u in verts:
        for w in g.adj[u]:
            if w > u and w in vset:
                edges.append((u, w))
    edges.sort()
    return verts, tuple(edges)


def tree_excess(g, v, l):
    """|E(v,l)| - |V(v,l)| + 1 of the ball B(v,l); 0 iff it is a tree."""
    verts, edges = ball(g, v, l)
    return len(edges) - len(verts) + 1


@dataclass(frozen=True)
class AlphaWeight:
    value: float


def alpha_weight(g, v, alpha):
    """phi_alpha(v) = sum over u != v of alpha^d(v,u); unreachable u add 0."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0,1)")
    dist = bfs_distances(g, v)
    return AlphaWeight(sum(alpha ** d for d in dist.values()) - 1.0)


def _bfs_level(indptr, indices, seen, act, words):
    """The vertices that gain source bits from the frontier ``act`` (with
    bit ``words``) and those bits.  A small frontier pushes its bits along
    its own edges, a large one is pulled over the whole adjacency; np.take
    gathers rows several times faster than fancy indexing."""
    lens = indptr[act + 1] - indptr[act]
    pushes = int(lens.sum())
    if not pushes:
        return act[:0], words[:0]
    if 4 * pushes < len(indices):
        first = np.repeat(indptr[act] - (np.cumsum(lens) - lens), lens)
        target = indices[first + np.arange(pushes)]
        order = np.argsort(target, kind="stable")
        target = target[order]
        heads = np.flatnonzero(np.concatenate(([True],
                                               target[1:] != target[:-1])))
        cand = target[heads]
        sender = np.repeat(np.arange(len(act)), lens)[order]
        gained = np.bitwise_or.reduceat(np.take(words, sender, axis=0),
                                        heads, axis=0)
    else:
        front = np.zeros_like(seen)
        front[act] = words
        cand = np.flatnonzero(np.diff(indptr))
        gained = np.bitwise_or.reduceat(np.take(front, indices, axis=0),
                                        indptr[cand], axis=0)
    gained &= ~np.take(seen, cand, axis=0)
    keep = np.flatnonzero(gained.any(axis=1))
    return cand[keep], np.take(gained, keep, axis=0)


def _unpack_bits(words, k):
    return np.unpackbits(words.view(np.uint8), axis=1, count=k,
                         bitorder="little")


def _distance_chunks(g, sources=None):
    """Yield (source indices, depth codes, unreached code) over ``sources``
    (distinct vertices, in their order; None means every vertex).

    Bit-parallel multi-source BFS (MS-BFS; Then et al., PVLDB 2014): bit s
    of a vertex's words records that source sel[s] has reached it, so one
    level advances every source of the chunk.  Each level ORs its new bits
    into the planes of its depth (plane b holds bit b of the distance).
    ``code`` is the (n, k) array, of the smallest unsigned int type that
    holds ``far``, whose column s holds the hop distances from sel[s];
    ``far`` = 1 << len(planes) exceeds every depth of the chunk and marks
    an unreached vertex.  ``_sweep`` reads phi and the ball excesses off
    the codes, and ``blocks._block_diameter`` reads a block's diameter off
    those of its induced subgraph.
    """
    indptr, indices = g.csr_adjacency()
    if sources is None:
        sources = np.arange(g.n)
    for start in range(0, len(sources), _DIST_CHUNK):
        sel = sources[start:start + _DIST_CHUNK]
        k = len(sel)
        col = np.arange(k)
        seen = np.zeros((g.n, (k + 63) // 64), dtype="<u8")
        seen[sel, col >> 6] = np.uint64(1) << (col & 63).astype("<u8")
        planes = []
        act, words, depth = sel, seen[sel], 0
        while True:
            act, words = _bfs_level(indptr, indices, seen, act, words)
            if not len(act):
                break
            depth += 1
            seen[act] = np.take(seen, act, axis=0) | words
            if depth >> len(planes):
                planes.append(np.zeros_like(seen))
            for b, plane in enumerate(planes):
                if depth >> b & 1:
                    plane[act] = np.take(plane, act, axis=0) | words
        far = 1 << len(planes)
        # An unreached bit has no level bits, so its code is far alone.
        code_type = np.min_scalar_type(far)
        code = np.left_shift(_unpack_bits(~seen, k), len(planes),
                             dtype=code_type)
        for b, plane in enumerate(planes):
            code |= np.left_shift(_unpack_bits(plane, k), b, dtype=code_type)
        # Free the sweep's state before the caller works on the codes.
        del seen, planes, act, words
        yield sel, code, far


def _sweep(g, alpha=None, radius=None, sources=None):
    """phi_alpha and the tree excess of the radius-``radius`` ball of each
    of ``sources`` (every vertex when None), in that order, from one pass
    over the depth codes; a clause left as None reads zeros.

    phi looks each code up in a table of alpha powers (0.0 for unreached)
    and sums each source's terms as one contiguous row in vertex order, as
    a row of distances would be summed, so a source's phi does not depend
    on the other sources swept.  Sources go 32 at a time because np.take
    copies its index as intp.
    """
    k = g.n if sources is None else len(sources)
    phi = np.zeros(k)
    excess = np.zeros(k, dtype=np.int64)
    ends = np.array(g.edges, dtype=np.intp).reshape(-1, 2)
    done = 0
    for sel, code, far in _distance_chunks(g, sources):
        at = slice(done, done + len(sel))
        done += len(sel)
        if alpha is not None:
            table = alpha ** np.arange(far + 1, dtype=float)
            table[far] = 0.0
            for i in range(0, len(sel), 32):
                phi[at][i:i + 32] = np.take(
                    table, code.T[i:i + 32]).sum(axis=1) - 1.0
        if radius is not None:
            excess[at] = _ball_excess(code, far, radius, ends)
    return phi, excess


def _ball_excess(code, far, radius, ends):
    """Tree excess of each code column's radius-``radius`` ball; its masks
    are freed before the next chunk's BFS runs."""
    # Capped at far - 1: far itself is the unreached code.
    mask = code <= min(radius, far - 1)
    inside = np.take(mask, ends[:, 0], axis=0)
    inside &= np.take(mask, ends[:, 1], axis=0)
    return inside.sum(axis=0) - mask.sum(axis=0) + 1


def alpha_weights_all(g, alpha, sources=None):
    """Exact phi_alpha of every vertex, or of each of the distinct vertices
    ``sources`` in their order (chunked whole-graph BFS); a vertex's value
    is the same bits either way."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0,1)")
    if sources is not None:
        sources = np.asarray(sources, dtype=np.intp).reshape(-1)
        if (len(np.unique(sources)) < len(sources)
                or not np.all((0 <= sources) & (sources < g.n))):
            raise ValueError("sources must be distinct vertices")
    return _sweep(g, alpha=alpha, sources=sources)[0]


def _walk_counts(g):
    """Yield W_k, the number of non-backtracking walks of length k from
    each vertex, capped at n, for k = 1, 2, ...

    W_k(v) is the sum over the arcs v->w of c_k(v->w), the walks that
    start along that arc, and c_k(u->w) = W_{k-1}(w) - c_{k-1}(w->u) with
    c_1 = 1: one vectorised step over the CSR arcs and their reverses.
    Each c_k is capped at n, which keeps it at min(n, exact) (a capped
    summand caps the sum) and W_k at least min(n, exact).
    """
    indptr, indices = g.csr_adjacency()
    origin = np.repeat(np.arange(g.n), np.diff(indptr))
    # the arcs sorted by (target, origin): the reverse of each CSR arc
    reverse = np.lexsort((origin, indices))
    count = np.ones(len(indices), dtype=np.int64)
    while True:
        sums = np.concatenate(([0], np.cumsum(count)))
        walks = sums[indptr[1:]] - sums[indptr[:-1]]
        yield walks
        count = np.minimum(walks[indices] - count[reverse], g.n)


def _walk_bounds(g, alpha):
    """Yield (head, tail) at levels k = 1, 2, ...: per-vertex arrays with
    head + tail >= phi_alpha(v), tightening with k.

    The sphere S_k(v) has at most W_k(v) vertices (``_walk_counts``).
    Filling the nearest spheres first, x_j = min(W_j, remaining) out of
    the |C(v)| - 1 other vertices of v's component, maximises
    sum_j alpha^j |S_j| under those caps, so head = sum_{j<=k} alpha^j x_j
    plus tail = alpha^(k+1) * remaining bounds phi.  Past v's eccentricity
    nothing remains and head is the whole bound.
    """
    remaining = np.zeros(g.n, dtype=np.int64)
    for comp in induced_components(g, range(g.n)):
        remaining[list(comp)] = len(comp) - 1
    head = np.zeros(g.n)
    power = 1.0
    for walks in _walk_counts(g):
        power *= alpha
        x = np.minimum(walks, remaining)
        head += power * x
        remaining -= x
        yield head, power * alpha * remaining


def tree_excess_all(g, l):
    """Tree excess of B(v,l) for every v (vectorized over source chunks)."""
    return _sweep(g, radius=l)[1]


@dataclass(frozen=True)
class MaxPathWeight:
    value: float
    path: tuple


def max_path_alpha_weight(g, alpha, l, node_budget=DEFAULTS["node_budget"],
                          phi=None):
    """Exact max over self-avoiding paths of at most ``l`` edges of the sum
    of phi_alpha over the path's vertices.

    Depth-first enumeration with branch-and-bound: a branch dies when its
    running sum plus (remaining edges) * (global max phi) cannot beat the
    incumbent.  A single vertex is a path of zero edges, so the result is
    at least max_v phi_alpha(v).  Exceeding ``node_budget`` DFS nodes is an
    error, never a silent approximation.
    """
    if l < 0:
        raise ValueError("path length cap must be nonnegative")
    if g.n == 0:
        return MaxPathWeight(0.0, ())
    if phi is None:
        phi = alpha_weights_all(g, alpha)
    phi = [float(x) for x in phi]
    l = min(l, g.n - 1)
    max_phi = max(phi)
    order = sorted(range(g.n), key=lambda v: -phi[v])
    best = -math.inf
    best_path = ()
    nodes = 0
    in_path = bytearray(g.n)
    path = []
    stack = []  # per path vertex: its untried children, sum, edges left

    def enter(v, total, edges_left):
        nonlocal best, best_path, nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(
                f"path enumeration exceeded {node_budget} nodes")
        path.append(v)
        in_path[v] = 1
        total += phi[v]
        if total > best:
            best = total
            best_path = tuple(path)
        grow = edges_left > 0 and total + edges_left * max_phi > best
        stack.append((iter(g.adj[v] if grow else ()), total, edges_left - 1))

    for v in order:
        if phi[v] + l * max_phi <= best:
            break
        enter(v, 0.0, l)
        while stack:
            children, total, edges_left = stack[-1]
            for w in children:
                if not in_path[w]:
                    enter(w, total, edges_left)
                    break
            else:
                stack.pop()
                in_path[path.pop()] = 0
    return MaxPathWeight(best, best_path)


@dataclass(frozen=True)
class Boundaries:
    interior: tuple
    exterior: tuple


def boundaries(g, subset):
    """Interior and exterior boundary of a vertex set.

    interior = members with a neighbor outside; exterior = non-members with
    a neighbor inside.
    """
    sset = set(subset)
    for u in sset:
        if not 0 <= u < g.n:
            raise ValueError(f"vertex {u} out of range")
    interior = []
    exterior = set()
    for u in sorted(sset):
        inside = True
        for w in g.adj[u]:
            if w not in sset:
                exterior.add(w)
                if inside:
                    interior.append(u)
                    inside = False
    return Boundaries(tuple(interior), tuple(sorted(exterior)))


def exterior_boundary(g, subset):
    return boundaries(g, subset).exterior


@dataclass(frozen=True)
class HypothesisParams:
    a: float
    alpha: float
    t: int
    delta: float

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("a must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0,1)")
        if self.t < 0:
            raise ValueError("t must be nonnegative")
        if self.delta <= 0:
            raise ValueError("delta must be positive")


def log_radius(coef, n, base=DEFAULTS["log_base"]):
    """ceil(coef * log_base(n)) as an integer radius; n <= 1 gives 0."""
    _check_log_base(base)
    if n <= 1:
        return 0
    return math.ceil(coef * math.log(n) / math.log(base))


@dataclass
class HypothesisReport:
    params: HypothesisParams
    radius: int
    report: Report
    m_alpha: float
    phi: np.ndarray

    @property
    def passed(self):
        return self.report.passed

    @property
    def records(self):
        return self.report.records


def check_hypothesis(g, params, node_budget=DEFAULTS["node_budget"],
                     log_base=DEFAULTS["log_base"]):
    """Check the two structural clauses on every vertex.

    Clause 1: tree excess of B(v, ceil(a*log n)) at most t, for all v.
    Clause 2: max path alpha-weight over paths of at most ceil(a*log n)
    edges strictly below delta*log n.  Logs use ``log_base``.
    """
    radius = log_radius(params.a, g.n, base=log_base)
    report = Report()

    phi, excess = _sweep(g, alpha=params.alpha, radius=radius)
    bad = [int(v) for v in np.nonzero(excess > params.t)[0]]
    witness = [{"vertex": v, "excess": int(excess[v])}
               for v in bad[:20]]
    report.add(CheckRecord(
        check="tree-excess",
        passed=not bad,
        witness={"violations": len(bad), "first": witness},
        value=int(excess.max()) if g.n else 0,
        bound=params.t,
    ))

    mpw = max_path_alpha_weight(g, params.alpha, radius,
                                node_budget=node_budget, phi=phi)
    if g.n <= 1:
        path_bound = 0.0
    else:
        path_bound = params.delta * math.log(g.n) / math.log(log_base)
    report.add(CheckRecord(
        check="path-weight",
        passed=mpw.value < path_bound,
        witness={"path": list(mpw.path)},
        value=mpw.value,
        bound=path_bound,
    ))
    return HypothesisReport(params=params, radius=radius, report=report,
                            m_alpha=mpw.value, phi=phi)


def generate_er(n, d, seed):
    """G(n, p) with p = d/n, sampled by geometric edge skipping.

    Each unordered pair appears independently with probability d/n; the
    same (n, d, seed) always produces the identical graph.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if d < 0 or d > n:
        raise ValueError("mean degree must satisfy 0 <= d <= n")
    p = d / n
    edges = []
    if p >= 1.0:
        edges = [(u, v) for v in range(n) for u in range(v)]
    elif p > 0.0:
        rng = make_rng(seed, "er")
        log_q = math.log1p(-p)
        v, w = 1, -1
        while v < n:
            w += 1 + int(math.log1p(-rng.random()) / log_q)
            while w >= v and v < n:
                w -= v
                v += 1
            if v < n:
                edges.append((w, v))
    return Graph(n, edges)


def format_edge_list(g):
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_edge_list(text):
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append(line)
    if not rows:
        raise ValueError("edge list has no header line")
    head = rows[0].split()
    if len(head) != 2:
        raise ValueError(f"malformed header {rows[0]!r}")
    n, m = int(head[0]), int(head[1])
    if len(rows) - 1 != m:
        raise ValueError(f"header declares {m} edges, found {len(rows) - 1}")
    edges = []
    for line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line {line!r}")
        u, v = int(parts[0]), int(parts[1])
        if u >= v:
            raise ValueError(f"edge {u} {v} violates u < v")
        edges.append((u, v))
    return Graph(n, edges)


def write_edge_list(g, path):
    with open(path, "w") as fh:
        fh.write(format_edge_list(g))


def read_edge_list(path):
    with open(path) as fh:
        return parse_edge_list(fh.read())
