"""Undirected simple graphs and their structural quantities.

Everything the sparsity hypothesis needs lives here: balls and spheres,
interior/exterior boundaries, tree excess of balls, exponentially decaying
vertex weights, maximal self-avoiding-path weights, plus seeded random
graph generation and the edge-list file format.
"""

import math
import operator
from dataclasses import dataclass, field

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
        norm.sort()
        self._fill(n, norm)

    @classmethod
    def _from_sorted(cls, n, edges):
        """The graph on 0..n-1 with ``edges``, which must already be those
        of a simple graph as Graph stores them: (u, v) pairs with u < v,
        distinct and sorted.  Skips __init__'s checks and sort."""
        g = cls.__new__(cls)
        g._fill(n, edges)
        return g

    def _fill(self, n, edges):
        # in sorted order each vertex meets its smaller neighbours before
        # its larger ones, both ascending, so every adjacency list fills
        # in order
        adj = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.edges = tuple(edges)
        self.adj = tuple(map(tuple, adj))
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
    """Components of the induced subgraph as sorted tuples, by min vertex.

    A vertex with no neighbours in g is its own component, (s,), with no
    BFS: in a graph with few edges most components are such vertices.
    """
    vset = set(vertices)
    comps = []
    seen = set()
    for s in sorted(vset):
        if not g.adj[s]:
            comps.append((s,))
            continue
        if s in seen:
            continue
        comp = tuple(sorted(bfs_distances(g, s, within=vset)))
        seen.update(comp)
        comps.append(comp)
    return comps


def _component_sizes(g):
    """The size of each vertex's component.

    Every vertex carries a label in its component, first itself.  A round
    lowers each label to the least of its neighbours', hooks each old
    label's vertex under the lowest label that reached its members, and
    jumps pointers (label of the label) to a fixed point; at the round that
    changes nothing, each component carries its least vertex throughout.
    """
    indptr, indices = g.csr_adjacency()
    has = np.flatnonzero(np.diff(indptr))
    label = np.arange(g.n)
    while True:
        low = label.copy()
        if len(has):
            low[has] = np.minimum(low[has], np.minimum.reduceat(
                label[indices], indptr[has]))
        np.minimum.at(low, label, low)
        while True:
            jump = low[low]
            if np.array_equal(jump, low):
                break
            low = jump
        if np.array_equal(low, label):
            return np.bincount(label, minlength=g.n)[label]
        label = low


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
    its own edges, a large one is pulled over the whole adjacency; take
    gathers rows several times faster than fancy indexing (the method
    skips np.take's dispatch, most of a small frontier's cost)."""
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
        gained = np.bitwise_or.reduceat(words.take(sender, axis=0),
                                        heads, axis=0)
    else:
        front = np.zeros_like(seen)
        front[act] = words
        cand = np.flatnonzero(np.diff(indptr))
        gained = np.bitwise_or.reduceat(front.take(indices, axis=0),
                                        indptr[cand], axis=0)
    gained &= ~seen.take(cand, axis=0)
    keep = np.flatnonzero(gained.any(axis=1))
    return cand[keep], gained.take(keep, axis=0)


def _unpack_bits(words, k):
    return np.unpackbits(words.view(np.uint8), axis=1, count=k,
                         bitorder="little")


def _distance_chunks(g, sources=None, cap=None):
    """Yield (source indices, depth codes, unreached code) over ``sources``
    (distinct vertices, in their order; None means every vertex), with
    each chunk's BFS stopped at depth ``cap`` (None: run to the end).

    Bit-parallel multi-source BFS (MS-BFS; Then et al., PVLDB 2014): bit s
    of a vertex's words records that source sel[s] has reached it, so one
    level advances every source of the chunk.  Each level ORs its new bits
    into the planes of its depth (plane b holds bit b of the distance).
    ``code`` is the (n, k) array, of the smallest unsigned int type that
    holds ``far``, whose column s holds the hop distances from sel[s];
    ``far`` = 1 << len(planes) exceeds every depth of the chunk and marks
    an unreached vertex.  A chunk stopped at the cap has a vertex at depth
    ``cap``, and ``far`` there marks every vertex beyond it as well; one
    whose BFS ran out first has its full codes.  ``_sweep`` reads phi and
    the ball excesses off the codes, and ``blocks._block_diameter`` reads
    a block's diameter off those of its induced subgraph.
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
        while cap is None or depth < cap:
            act, words = _bfs_level(indptr, indices, seen, act, words)
            if not len(act):
                break
            depth += 1
            seen[act] = seen.take(act, axis=0) | words
            if depth >> len(planes):
                planes.append(np.zeros_like(seen))
            for b, plane in enumerate(planes):
                if depth >> b & 1:
                    plane[act] = plane.take(act, axis=0) | words
        far = 1 << len(planes)
        # An unreached bit has no level bits, so its code is far alone.
        # (Products in place: numpy's left shift of small ints is several
        # times slower.)
        code_type = np.min_scalar_type(far)
        code = _unpack_bits(~seen, k).astype(code_type, copy=False)
        code *= far
        for b, plane in enumerate(planes):
            bits = _unpack_bits(plane, k).astype(code_type, copy=False)
            bits *= 1 << b
            code |= bits
        # Free the sweep's state before the caller works on the codes.
        del seen, planes, act, words
        yield sel, code, far


def _sweep(g, alpha=None, radius=None, sources=None):
    """phi_alpha and the tree excess of the radius-``radius`` ball of each
    of ``sources`` (every vertex when None), in that order, from one pass
    over the depth codes.

    Without a radius the BFS runs to the end and the excesses read zeros.
    With one it stops at that depth, and phi is read only off the chunks
    whose BFS ran out first, so their codes are complete.  phi is NaN
    where it is not read, and everywhere when alpha is None.

    phi looks each code up in a table of alpha powers (0.0 for unreached)
    and sums each source's terms as one contiguous row in vertex order, as
    a row of distances would be summed, so a source's phi does not depend
    on the other sources swept.  Sources go 32 at a time because np.take
    copies its index as intp.
    """
    k = g.n if sources is None else len(sources)
    phi = np.full(k, np.nan)
    excess = np.zeros(k, dtype=np.int64)
    ends = np.array(g.edges, dtype=np.intp).reshape(-1, 2)
    chunks = (_distance_chunks(g, sources) if radius is None
              else _distance_chunks(g, sources, cap=radius))
    done = 0
    for sel, code, far in chunks:
        at = slice(done, done + len(sel))
        done += len(sel)
        complete = radius is None
        if radius is not None:
            excess[at], complete = _ball_excess(code, far, radius, ends)
        if alpha is not None and complete:
            table = alpha ** np.arange(far + 1, dtype=float)
            table[far] = 0.0
            for i in range(0, len(sel), 32):
                phi[at][i:i + 32] = np.take(
                    table, code.T[i:i + 32]).sum(axis=1) - 1.0
    return phi, excess


# Rows of codes (vertices or edge ends) that _ball_excess reads at once.
_ROW_BLOCK = 2048


def _ball_excess(code, far, radius, ends):
    """Tree excess of each code column's radius-``radius`` ball, and
    whether the chunk's BFS ran out before that depth: it did iff no
    vertex sits at depth ``radius`` (a real depth only below ``far``).
    The codes are read in row blocks, so no (n, k) mask is built."""
    # Capped at far - 1: far itself is the unreached code.
    top = min(radius, far - 1)
    excess = np.ones(code.shape[1], dtype=np.int64)
    at_cap = False
    for i in range(0, len(code), _ROW_BLOCK):
        rows = code[i:i + _ROW_BLOCK]
        excess -= _column_counts(rows <= top)
        at_cap = at_cap or (top == radius and bool(np.any(rows == top)))
    for i in range(0, len(ends), _ROW_BLOCK):
        block = ends[i:i + _ROW_BLOCK]
        deeper = np.take(code, block[:, 0], axis=0)
        np.maximum(deeper, np.take(code, block[:, 1], axis=0), out=deeper)
        excess += _column_counts(deeper <= top)
    return excess, not at_cap


def _column_counts(mask):
    """True entries per column of a bool block of at most _ROW_BLOCK rows
    (several times faster than np.count_nonzero along an axis)."""
    return mask.view(np.uint8).sum(axis=0, dtype=np.uint16)


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


# Relative slack of a bound on phi.  The sweep's phi is a sum of at most n
# powers of alpha, rounded within about 1e-14 * (phi + 1); a bound's own
# float sum is off by about 1e-16 per level or per path vertex.  Both are
# far below this slack, so a bound raised by it holds against the swept
# phi, and a label or candidate set settled by it is the one the exact phi
# would give.
_SLACK = 1e-9


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
    remaining = _component_sizes(g) - 1
    head = np.zeros(g.n)
    power = 1.0
    for walks in _walk_counts(g):
        power *= alpha
        x = np.minimum(walks, remaining)
        head += power * x
        remaining -= x
        yield head, power * alpha * remaining


def _phi_upper(g, alpha):
    """U >= phi_alpha at every vertex: the walk bound of ``_walk_bounds``
    at the first level whose tails all lie within the slack, raised by
    the slack."""
    for head, tail in _walk_bounds(g, alpha):
        if not np.any(tail > _SLACK * (head + 1)):
            break
    upper = head + tail
    return upper + _SLACK * (upper + 1)


# Most runs of arm splits that _path_bounds bounds apart, one (n,) array
# each.
_SPLITS = 16


def _path_bounds(g, upper, l):
    """B(v) >= the ``upper``-weight of every path of at most l edges
    through v, in O(_SPLITS * n) memory.

    F_0 = U and F_k(v) = U(v) + max(0, max over w ~ v of F_{k-1}(w)) is
    the heaviest walk of at most k edges from v, one reduceat over the CSR
    per level.  A path through v splits there into two arms of a <= l // 2
    and at most l - a edges, so it weighs at most F_a(v) + F_{l-a}(v) -
    U(v).  The splits a = 0..l // 2 go in at most _SPLITS runs [lo, hi];
    F grows with k, so F_hi + F_{l-lo} - U bounds a whole run, and each
    run keeps one array.  Runs of one split make B the best split's bound.
    """
    indptr, indices = g.csr_adjacency()
    has = np.flatnonzero(np.diff(indptr))
    half = np.arange(l // 2 + 1)
    runs = [(r[0], r[-1]) for r in np.array_split(half, min(len(half),
                                                            _SPLITS))]
    kept = {}
    bound = walk = upper
    for k in range(l + 1):
        if k:
            reach = np.zeros(g.n)
            if len(has):
                reach[has] = np.maximum.reduceat(walk[indices], indptr[has])
            walk = upper + reach
        for lo, hi in runs:
            if k == hi:
                kept[hi] = walk
            if k == l - lo:
                bound = np.maximum(bound, kept.pop(hi) + walk - upper)
    return bound


# A sparse block's ball keys: at most about this many per graph vertex, so
# that its few int64 arrays of keys stay below an MS-BFS chunk's (n, 256)
# array of depth codes.
_BALL_BLOCK = 2

# A ball key (sorted, looked up and merged once per level) costs about as
# much as this many (vertex, source) cells of the MS-BFS's bit arrays and
# depth codes.
_KEY_COST = 100


def _ball_keys(g, l):
    """Per-vertex bounds on the vertices of B(v, l), and whether each
    256-source chunk (in vertex order) goes to the sparse engine: its
    bounds, at _KEY_COST each, cost less than its n cells per source.

    The sphere S_k(v) has at most min(W_k(v), n) vertices
    (``_walk_counts``), so B(v, l) has at most 1 + the sum over k <= l of
    those, and at most v's component.  The levels stop early once every
    chunk either costs too much or has all its bounds at their component
    sizes.
    """
    sizes = _component_sizes(g)
    keys = np.ones(g.n, dtype=np.int64)
    starts = np.arange(0, g.n, _DIST_CHUNK)
    cells = g.n * np.diff(np.append(starts, g.n))
    for _, walks in zip(range(l), _walk_counts(g)):
        keys = np.minimum(keys + walks, sizes)
        if np.all((_KEY_COST * np.add.reduceat(keys, starts) >= cells)
                  | np.logical_and.reduceat(keys == sizes, starts)):
            break
    return keys, _KEY_COST * np.add.reduceat(keys, starts) < cells


def _ball_excess_sparse(g, sources, l):
    """(tree excess of B(s, l), keys of the balls) for the distinct
    vertices ``sources``.

    A ball is a sorted run of int64 keys (i << shift) + v, i the source's
    position and v a ball vertex.  Each level gathers the CSR neighbours
    of the frontier keys, sorts them, drops repeats and keys already in a
    ball (searchsorted), and merges the rest in; they are the next
    frontier.  The arcs gathered from depths below l all end in the ball;
    those leaving depth l are looked up.  Arcs count every inner edge
    twice.
    """
    indptr, indices = g.csr_adjacency()
    shift = max(g.n - 1, 1).bit_length()
    mask = (1 << shift) - 1
    k = len(sources)
    ball = (np.arange(k, dtype=np.int64) << shift) + sources
    front = ball
    arcs = np.zeros(k, dtype=np.int64)

    def neighbours(keys):
        v = keys & mask
        lens = indptr[v + 1] - indptr[v]
        at = np.repeat(indptr[v] - (np.cumsum(lens) - lens), lens)
        at += np.arange(len(at))
        return indices[at] + np.repeat(keys - v, lens)

    for _ in range(l):
        near = neighbours(front)
        arcs += np.bincount(near >> shift, minlength=k)
        near.sort()
        hit = np.searchsorted(ball, near)
        new = ball.take(hit, mode="clip") != near
        new[1:] &= near[1:] != near[:-1]
        front = near[new]
        if not len(front):
            break
        ball = np.insert(ball, hit[new], front)
    if len(front):
        near = neighbours(front)
        near = near[ball.take(np.searchsorted(ball, near), mode="clip")
                    == near]
        arcs += np.bincount(near >> shift, minlength=k)
    return arcs // 2 - np.bincount(ball >> shift, minlength=k) + 1, len(ball)


def tree_excess_all(g, l, alpha=None, counters=None):
    """Tree excess of B(v,l) for every v.

    Two engines give the same integers.  The sparse one builds each ball
    as sorted (source, vertex) keys (``_ball_excess_sparse``); the MS-BFS
    sweeps 256 sources at once over bit arrays of all n vertices
    (``_sweep`` with its BFS stopped at depth l).  Each 256-source chunk,
    in vertex order, goes sparse when the walk-count bounds on its balls'
    vertices (``_ball_keys``) sum to less than its n cells per source over
    ``_KEY_COST``: small balls in a large graph, the paper's regime.  Large
    balls, such as a radius that spans a long path, go to the MS-BFS.
    Sparse sources go in blocks of about ``_BALL_BLOCK`` * n keys.  A dict
    ``counters`` receives the work done: ``ball_sources`` (sources of the
    sparse engine), ``bfs_chunks`` (MS-BFS chunks run) and
    ``ball_keys_peak`` (most keys one sparse block held).

    With ``alpha``, returns (excess, phi): phi_alpha, bit-identical to
    alpha_weights_all's, of each vertex of an MS-BFS chunk whose BFS ran
    out before depth l (every source's ball is its whole component), read
    off that chunk's codes, and NaN at the others.  The sparse engine
    gives no phi: its sources stay NaN even where their balls are whole
    components, and nothing here sweeps at full depth.
    """
    if l < 0:
        raise ValueError("radius must be nonnegative")
    if alpha is not None and not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0,1)")
    n = g.n
    excess = np.zeros(n, dtype=np.int64)
    phi = np.full(n, np.nan)
    counters = {} if counters is None else counters
    counters.update(ball_sources=0, bfs_chunks=0, ball_keys_peak=0)
    starts = np.arange(0, n, _DIST_CHUNK)
    lens = np.diff(np.append(starts, n))
    keys, sparse = _ball_keys(g, l)
    sparse_at = np.repeat(sparse, lens)

    dense = np.flatnonzero(~sparse_at)
    if len(dense):
        phi[dense], excess[dense] = _sweep(g, alpha=alpha, radius=l,
                                           sources=dense)
        counters["bfs_chunks"] += -(-len(dense) // _DIST_CHUNK)

    balls = np.flatnonzero(sparse_at)
    if len(balls):
        cost = keys[balls]
        block = (np.cumsum(cost) - cost) // (_BALL_BLOCK * n)
        for part in np.split(balls, np.flatnonzero(np.diff(block)) + 1):
            excess[part], held = _ball_excess_sparse(g, part, l)
            counters["ball_keys_peak"] = max(counters["ball_keys_peak"],
                                             held)
        counters["ball_sources"] = len(balls)
    return excess if alpha is None else (excess, phi)


@dataclass(frozen=True)
class MaxPathWeight:
    value: float
    path: tuple
    swept: int = 0
    nodes: int = 0
    phi: np.ndarray = field(default=None, repr=False, compare=False)


# Vertices, highest path bound first, whose exact phi the path search
# sweeps before its first DFS.
_PATH_SEEDS = 64


def max_path_alpha_weight(g, alpha, l, node_budget=DEFAULTS["node_budget"],
                          phi=None):
    """Exact max over self-avoiding paths of at most ``l`` edges of the sum
    of phi_alpha over the path's vertices, and the first path (in the
    order below) that attains it.

    ``phi`` holds phi_alpha, bit-identical to alpha_weights_all's, with
    NaN where it is not known; None means known nowhere.  Where it is
    known everywhere, the depth-first search runs over the whole graph.
    Otherwise only vertices that can lie on a heaviest path are swept:
    with U the walk bound on phi (raised by the slack) and B(v) =
    ``_path_bounds``, the ``_PATH_SEEDS`` vertices of highest B go first,
    a DFS over the swept vertices finds a path of weight L, and the
    vertices with B(v) >= L, which hold every path as heavy, are swept in
    turn until none is left out; the last DFS is the answer.
    ``MaxPathWeight.swept`` counts the vertices swept here, and
    ``MaxPathWeight.phi`` is a copy of ``phi`` with their values filled in.

    The DFS uses branch-and-bound: a branch dies when its running sum plus
    (remaining edges) * (largest phi searched) cannot beat the incumbent.
    A single vertex is a path of zero edges, so the result is at least
    max_v phi_alpha(v).  ``MaxPathWeight.nodes`` counts the DFS nodes of
    every run; exceeding ``node_budget`` is an error, never a silent
    approximation.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0,1)")
    if l < 0:
        raise ValueError("path length cap must be nonnegative")
    if g.n == 0:
        return MaxPathWeight(0.0, (), phi=np.empty(0))
    l = min(l, g.n - 1)
    phi = np.full(g.n, np.nan) if phi is None else np.array(phi, float)
    inside = ~np.isnan(phi)
    swept = 0
    new = np.flatnonzero(~inside)
    if len(new):
        # U's slack also covers the float sums of B and of the search
        bound = _path_bounds(g, _phi_upper(g, alpha), l)
        new = new[np.argsort(-bound[new], kind="stable")[:_PATH_SEEDS]]
    nodes = 0
    while True:
        if len(new):
            phi[new] = alpha_weights_all(g, alpha, new)
            inside[new] = True
            swept += len(new)
        value, path, nodes = _path_search(g, phi, l, inside, node_budget,
                                          nodes)
        if inside.all():
            break
        new = np.flatnonzero((bound >= value) & ~inside)
        if not len(new):
            break
    return MaxPathWeight(value, path, swept=swept, nodes=nodes, phi=phi)


def _path_search(g, phi, l, inside, node_budget, nodes):
    """(value, path, DFS nodes so far) of the heaviest path of at most l
    edges within the vertex mask ``inside``, from ``nodes`` nodes spent.

    Roots go by decreasing phi, ties by index, and children in adjacency
    order; ``best`` moves only on a strict gain, and both prunes (with the
    largest phi inside) discard only branches that cannot beat it.  So the
    result is the first path in that order that attains the maximum.  When
    ``inside`` holds every path at least as heavy as some path within it,
    that is the path the search over the whole graph returns, to the bit:
    the heaviest paths all lie inside, and the order restricted to
    ``inside`` is the whole order restricted to it.
    """
    weight = phi.tolist()
    max_phi = float(phi[inside].max())
    order = sorted(np.flatnonzero(inside).tolist(), key=lambda v: -weight[v])
    best = -math.inf
    best_path = ()
    # a vertex outside the mask stays blocked, like one on the path
    blocked = bytearray((~inside).tobytes())
    path = []
    stack = []  # per path vertex: its untried children, sum, edges left

    def enter(v, total, edges_left):
        nonlocal best, best_path, nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(
                f"path enumeration exceeded {node_budget} nodes")
        path.append(v)
        blocked[v] = 1
        total += weight[v]
        if total > best:
            best = total
            best_path = tuple(path)
        grow = edges_left > 0 and total + edges_left * max_phi > best
        stack.append((iter(g.adj[v] if grow else ()), total, edges_left - 1))

    for v in order:
        if weight[v] + l * max_phi <= best:
            break
        enter(v, 0.0, l)
        while stack:
            children, total, edges_left = stack[-1]
            for w in children:
                if not blocked[w]:
                    enter(w, total, edges_left)
                    break
            else:
                stack.pop()
                blocked[path.pop()] = 0
    return best, best_path, nodes


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
    phi_swept: int
    path_nodes: int
    clause_one: dict
    graph: Graph = field(repr=False)
    known_phi: np.ndarray = field(repr=False)

    @property
    def passed(self):
        return self.report.passed

    @property
    def records(self):
        return self.report.records

    @property
    def phi(self):
        """phi_alpha of every vertex, bit-identical to alpha_weights_all's.

        The check knows it in the MS-BFS chunks whose clause-1 BFS ran
        out before the radius, never at a sparse source, and at the
        vertices clause 2 swept; the first read sweeps the other vertices,
        and later reads reuse the array.
        """
        open_ = np.flatnonzero(np.isnan(self.known_phi))
        if len(open_):
            self.known_phi[open_] = alpha_weights_all(
                self.graph, self.params.alpha, open_)
        return self.known_phi


def check_hypothesis(g, params, node_budget=DEFAULTS["node_budget"],
                     log_base=DEFAULTS["log_base"]):
    """Check the two structural clauses on every vertex.

    Clause 1: tree excess of B(v, ceil(a*log n)) at most t, for all v.
    Clause 2: max path alpha-weight over paths of at most ceil(a*log n)
    edges strictly below delta*log n.  Logs use ``log_base``.

    Clause 1 comes from tree_excess_all, which builds each ball by the
    sparse engine or by the MS-BFS stopped at the radius, whichever its
    cost rule finds cheaper per 256-source chunk; an MS-BFS chunk whose
    BFS runs out first gives its sources' exact phi as well, and the
    sparse engine gives none.  Clause 2 sweeps only the vertices that
    max_path_alpha_weight's bounds leave as candidates for the heaviest
    path, whatever part of phi clause 1 handed over.  The records equal
    those of the full sweep.  The report's phi_swept counts the vertices
    whose exact phi was computed, and known_phi holds those values;
    path_nodes counts the path search's DFS nodes, and clause_one
    tree_excess_all's counters of the clause-1 work.
    """
    radius = log_radius(params.a, g.n, base=log_base)
    report = Report()

    clause_one = {}
    excess, phi = tree_excess_all(g, radius, alpha=params.alpha,
                                  counters=clause_one)
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
    swept = int(np.count_nonzero(~np.isnan(phi))) + mpw.swept
    return HypothesisReport(params=params, radius=radius, report=report,
                            m_alpha=mpw.value, phi_swept=swept,
                            path_nodes=mpw.nodes, clause_one=clause_one,
                            graph=g, known_phi=mpw.phi)


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
    """The graph of an edge-list text: a header "n m", then m lines "u v"
    with u < v; blank lines and lines starting with "#" are skipped.

    Edges that are strictly increasing and in range, as write_edge_list
    writes them, go to the graph as they are; any other list goes through
    Graph's checks and sort, whose errors it raises.
    """
    rows = [line for line in map(str.strip, text.splitlines())
            if line and not line.startswith("#")]
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
    if (n >= 0 and all(map(operator.lt, edges, edges[1:]))
            and (not edges or edges[0][0] >= 0
                 and max(map(operator.itemgetter(1), edges)) < n)):
        return Graph._from_sorted(n, edges)
    return Graph(n, edges)


def write_edge_list(g, path):
    with open(path, "w") as fh:
        fh.write(format_edge_list(g))


def read_edge_list(path):
    with open(path) as fh:
        return parse_edge_list(fh.read())
