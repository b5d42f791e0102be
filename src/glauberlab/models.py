"""Pairwise spin models and configuration construction.

A model assigns each configuration sigma the unnormalized log weight
sum_v h(sigma(v)) + sum_{(u,v) in E} g(sigma(u), sigma(v)); hard
constraints are -inf entries of g.  Three shapes are supported: proper
coloring, hardcore (independent sets with activity), and soft models with
finite g everywhere.
"""

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NoFeasibleStateError, PaletteExhaustedError
from .rng import sample_index

NEG_INF = float("-inf")


def _finite(x):
    return not (math.isinf(x) or math.isnan(x))


@dataclass(frozen=True)
class SpinModel:
    kind: str
    q: int
    h: tuple
    g: tuple
    beta: float = None

    def __post_init__(self):
        if self.kind not in ("coloring", "hardcore", "soft"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.q < 1:
            raise ValueError("state space must be nonempty")
        if len(self.h) != self.q:
            raise ValueError("h must have one entry per state")
        if len(self.g) != self.q or any(len(row) != self.q for row in self.g):
            raise ValueError("g must be a q x q table")
        for i in range(self.q):
            for j in range(self.q):
                gij = self.g[i][j]
                if math.isnan(gij) or gij == math.inf:
                    raise ValueError("g entries must be finite or -inf")
                if gij != self.g[j][i]:
                    raise ValueError("g must be symmetric")
        for x in self.h:
            if not _finite(x):
                raise ValueError("h entries must be finite")
        if self.kind == "coloring":
            for i in range(self.q):
                for j in range(self.q):
                    want = NEG_INF if i == j else 0.0
                    if self.g[i][j] != want or self.h[i] != 0.0:
                        raise ValueError("coloring shape violated")
        elif self.kind == "hardcore":
            if self.q != 2 or self.beta is None:
                raise ValueError("hardcore needs q=2 and an activity")
            if self.h != (0.0, self.beta) or self.g[1][1] != NEG_INF:
                raise ValueError("hardcore shape violated")
            if self.g[0] != (0.0, 0.0) or self.g[1][0] != 0.0:
                raise ValueError("hardcore shape violated")
        else:
            for row in self.g:
                for x in row:
                    if not _finite(x):
                        raise ValueError("soft models need finite g")

    @property
    def states(self):
        return range(self.q)

    @cached_property
    def exp_tables(self):
        """Read-only (exp h, exp g) arrays, built once per model; a hard
        constraint's exp g is 0.0."""
        expg = np.zeros((self.q, self.q))
        for i in range(self.q):
            for j in range(self.q):
                gij = self.g[i][j]
                expg[i, j] = 0.0 if gij == NEG_INF else np.exp(gij)
        exph = np.exp(np.array(self.h))
        exph.flags.writeable = expg.flags.writeable = False
        return exph, expg


def coloring_model(q):
    if q < 2:
        raise ValueError("coloring needs at least 2 colors")
    g = tuple(tuple(NEG_INF if i == j else 0.0 for j in range(q))
              for i in range(q))
    return SpinModel("coloring", q, (0.0,) * q, g)


def hardcore_model(beta):
    if not _finite(beta):
        raise ValueError("activity must be finite")
    g = ((0.0, 0.0), (0.0, NEG_INF))
    return SpinModel("hardcore", 2, (0.0, beta), g, beta=beta)


def soft_model(h, g):
    h = tuple(float(x) for x in h)
    g = tuple(tuple(float(x) for x in row) for row in g)
    return SpinModel("soft", len(h), h, g)


def log_weight(model, graph, config):
    """Unnormalized log weight of a full configuration; -inf if violated."""
    if len(config) != graph.n:
        raise ValueError("configuration length must equal vertex count")
    total = 0.0
    for x in config:
        if not 0 <= x < model.q:
            raise ValueError(f"state {x} out of range")
        total += model.h[x]
    for u, v in graph.edges:
        guv = model.g[config[u]][config[v]]
        if guv == NEG_INF:
            return NEG_INF
        total += guv
    return total


def is_feasible(model, graph, config):
    return log_weight(model, graph, config) > NEG_INF


def _no_feasible_state(v):
    return NoFeasibleStateError(
        f"no feasible state at vertex {v} given its neighborhood")


def neighbor_conditional(model, states, v):
    """Heat-bath distribution at v given its neighbors' states, listed in
    adjacency order.

    Log-sum-exp with max subtraction; every state incompatible with the
    neighborhood gets probability exactly 0.0.
    """
    scores = []
    for x in model.states:
        s = model.h[x]
        for y in states:
            gxy = model.g[x][y]
            if gxy == NEG_INF:
                s = NEG_INF
                break
            s += gxy
        scores.append(s)
    top = max(scores)
    if top == NEG_INF:
        raise _no_feasible_state(v)
    weights = [math.exp(s - top) if s > NEG_INF else 0.0 for s in scores]
    total = sum(weights)
    return [w / total for w in weights]


def local_conditional(model, graph, config, v):
    """Heat-bath distribution of the state at v given all other vertices."""
    return neighbor_conditional(model, [config[w] for w in graph.adj[v]], v)


class HeatBath:
    """The heat-bath conditional of one model on one graph.

    ``pmf(config, v)`` is ``local_conditional(model, graph, config, v)``
    for every model kind, and ``draw(config, v, u)`` equals
    ``sample_index`` of that pmf with uniform ``u``, float for float.  A
    proper coloring's conditional is uniform on the k free colors, so per
    k one table of the sequential partial sums of 1.0/k replays the
    cumulative walk of ``sample_index``; hardcore draws from one table,
    the pmf of an unblocked vertex.  Soft models take the generic path.
    ``couple(left, right, v, u)`` equals ``sample_maximal_coupling`` of
    v's pmfs in the two configurations; colorings read it off the two
    taken sets with the same tables, and hardcore off one table per pair
    of blocked flags.
    """

    def __init__(self, model, graph):
        self.model = model
        self.graph = graph
        self._adj = graph.adj
        self._q = model.q
        if model.kind == "coloring":
            self._cums = [()]
            # sum() of k masses 1.0/k, as sample_maximal_coupling totals
            # its entries; compensated on CPython >= 3.12, so it need not
            # equal the sequential cum[-1]
            self._totals = [0.0]
            for k in range(1, model.q + 1):
                w = 1.0 / k
                acc = 0.0
                cum = []
                for _ in range(k):
                    acc += w
                    cum.append(acc)
                self._cums.append(tuple(cum))
                self._totals.append(sum([w] * k))
            self.draw = self._draw_coloring
            self.couple = self._couple_coloring
        elif model.kind == "hardcore":
            self._open = neighbor_conditional(model, (), None)
            p0, p1 = self._open
            self._total = 0.0 + p0 + p1
            # sample_index never picks a state of mass 0.0
            self._cut = p0 if p1 > 0.0 else math.inf
            self.draw = self._draw_hardcore
            self.couple = self._couple_hardcore

    def draw(self, config, v, u):
        return sample_index(local_conditional(
            self.model, self.graph, config, v), u)

    def pmf(self, config, v):
        return local_conditional(self.model, self.graph, config, v)

    def couple(self, left, right, v, u):
        """The pair (x, y) that ``sample_maximal_coupling`` draws with
        uniform ``u`` from v's conditionals in the two configurations."""
        return sample_maximal_coupling(self.pmf(left, v),
                                       self.pmf(right, v), u)

    def _draw_coloring(self, config, v, u):
        taken = {config[w] for w in self._adj[v]}
        cum = self._cums[self._q - len(taken)]
        if not cum:
            raise _no_feasible_state(v)
        j = bisect_right(cum, u * cum[-1])
        if j == len(cum):
            j -= 1
        # the j-th free color: each taken color at or below it shifts it up
        for c in sorted(taken):
            if c > j:
                break
            j += 1
        return j

    def _couple_coloring(self, left, right, v, u):
        # sample_maximal_coupling's walk, read off the two taken sets: its
        # entries are the c commonly free colors, each of mass
        # m = 1/max(kl, kr) with partial sums in _cums, then the residual
        # pairs in maximal_coupling_entries' order
        nbrs = self._adj[v]
        tl = {left[w] for w in nbrs}
        tr = {right[w] for w in nbrs}
        q = self._q
        kl = q - len(tl)
        if not kl:
            raise _no_feasible_state(v)
        kr = q - len(tr)
        if not kr:
            raise _no_feasible_state(v)
        k = max(kl, kr)
        cum = self._cums[k]
        taken = tl | tr
        c = q - len(taken)
        if kl == kr:
            # the residuals pair one to one, so all k entries weigh m and
            # the walk's partial sums are cum itself
            j = min(bisect_right(cum, u * self._totals[k]), k - 1)
            if j >= c:
                j -= c
                return sorted(tr - tl)[j], sorted(tl - tr)[j]
        else:
            m = 1.0 / k
            pairs = _pair_residuals(_residuals(q, tl, tr, 1.0 / kl, m),
                                    _residuals(q, tr, tl, 1.0 / kr, m))
            target = u * sum([m] * c + [mass for _, _, mass in pairs])
            j = bisect_right(cum, target, 0, c)
            if j == c:
                acc = cum[c - 1] if c else 0.0
                for x, y, mass in pairs:
                    acc += mass
                    if target < acc:
                        return x, y
                return x, y
        # the j-th commonly free color, as in _draw_coloring
        for t in sorted(taken):
            if t > j:
                break
            j += 1
        return j, j

    def _draw_hardcore(self, config, v, u):
        for w in self._adj[v]:
            if config[w]:
                return 0
        return 0 if u * self._total < self._cut else 1

    @cached_property
    def _hardcore_pairs(self):
        # per pair of blocked flags, sample_maximal_coupling's total and
        # its walk: at most two entries, the first taken below its mass
        pmf = {False: self._open, True: [1.0, 0.0]}
        pairs = {}
        for bl in pmf:
            for br in pmf:
                e = maximal_coupling_entries(pmf[bl], pmf[br])
                pairs[bl, br] = (sum(m for _, _, m in e),
                                 e[0][2] if e[1:] else math.inf,
                                 e[0][:2], e[-1][:2])
        return pairs

    def _couple_hardcore(self, left, right, v, u):
        nbrs = self._adj[v]
        total, cut, first, last = self._hardcore_pairs[
            any(left[w] for w in nbrs), any(right[w] for w in nbrs)]
        return first if u * total < cut else last


def _residuals(q, own, other, p, m):
    """One side's residual entries [x, a - min(a, b)] in ascending color
    order, as maximal_coupling_entries builds them, for the uniform law of
    mass p on the colors outside ``own`` against the uniform law on the
    colors outside ``other``; m is the smaller of the two masses.  A color
    free on this side only keeps all of p; a commonly free one keeps
    p - m, which is positive only on the side with fewer free colors."""
    if p > m:
        return [[x, p if x in other else p - m]
                for x in range(q) if x not in own]
    return [[x, p] for x in sorted(other - own)]


def _pair_residuals(rp, rq):
    """Pair two residual lists two-pointer in list order, consuming them;
    returns the off-diagonal entries (x, y, mass)."""
    entries = []
    i = j = 0
    while i < len(rp) and j < len(rq):
        m = min(rp[i][1], rq[j][1])
        entries.append((rp[i][0], rq[j][0], m))
        rp[i][1] -= m
        rq[j][1] -= m
        if rp[i][1] <= 1e-15:
            i += 1
        if j < len(rq) and rq[j][1] <= 1e-15:
            j += 1
    return entries


def maximal_coupling_entries(p, q):
    """Entries (x, y, mass) of the maximal coupling of two pmfs.

    Diagonal terms min(p,q) come first in index order, then the residuals
    are paired two-pointer in ascending index; masses sum to one.
    """
    if len(p) != len(q):
        raise ValueError("pmf lengths differ")
    entries = []
    rp = []
    rq = []
    for x, (a, b) in enumerate(zip(p, q)):
        m = min(a, b)
        if m > 0.0:
            entries.append((x, x, m))
        if a > m:
            rp.append([x, a - m])
        if b > m:
            rq.append([x, b - m])
    return entries + _pair_residuals(rp, rq)


def sample_maximal_coupling(p, q, u):
    """Draw a pair from the maximal coupling with one uniform."""
    entries = maximal_coupling_entries(p, q)
    total = sum(m for _, _, m in entries)
    target = u * total
    acc = 0.0
    for x, y, m in entries:
        acc += m
        if target < acc:
            return x, y
    return entries[-1][0], entries[-1][1]


@dataclass(frozen=True)
class ModelNorm:
    value: float
    hard_constrained: bool


def model_norm(model):
    """Largest |entry| across h and the finite part of g.

    -inf entries are hard constraints, not magnitudes; their presence is
    reported in the flag instead of the value.
    """
    value = 0.0
    hard = False
    for x in model.h:
        value = max(value, abs(x))
    for row in model.g:
        for x in row:
            if x == NEG_INF:
                hard = True
            else:
                value = max(value, abs(x))
    return ModelNorm(value, hard)


def _smallest_last_order(graph):
    """Vertices in smallest-last order (Matula and Beck, JACM 1983).

    The reverse of the order in which repeatedly deleting a vertex of least
    remaining degree removes them, so each vertex has at most degeneracy
    neighbors before it.  Bucket queue with stale entries skipped; buckets
    fill in ascending index order and pop from the end, so among ties the
    largest index leaves first.
    """
    deg = [graph.degree(v) for v in range(graph.n)]
    buckets = [[] for _ in range(max(deg, default=0) + 1)]
    for v in range(graph.n):
        buckets[deg[v]].append(v)
    gone = [False] * graph.n
    removed = []
    low = 0
    while len(removed) < graph.n:
        if not buckets[low]:
            low += 1
            continue
        v = buckets[low].pop()
        if deg[v] != low:
            continue
        gone[v] = True
        removed.append(v)
        for w in graph.adj[v]:
            if not gone[w]:
                deg[w] -= 1
                buckets[deg[w]].append(w)
        low = max(low - 1, 0)
    return removed[::-1]


def initial_configuration(model, graph):
    """A feasible starting configuration.

    Coloring: first-fit in smallest-last order, which succeeds whenever
    q >= degeneracy + 1 (PaletteExhaustedError if the palette runs out).
    Hardcore and soft models start from the all-zero configuration, which
    is feasible by shape.
    """
    if model.kind != "coloring":
        return [0] * graph.n
    return greedy_coloring(graph, model.q, order=_smallest_last_order(graph))


def greedy_coloring(graph, q, order=None):
    """First-fit proper coloring along ``order`` (default 0..n-1)."""
    if order is None:
        order = range(graph.n)
    config = [None] * graph.n
    for v in order:
        taken = {config[w] for w in graph.adj[v] if config[w] is not None}
        color = next((c for c in range(q) if c not in taken), None)
        if color is None:
            raise PaletteExhaustedError(
                f"greedy coloring ran out of colors at vertex {v}")
        config[v] = color
    if any(x is None for x in config):
        raise ValueError("order must visit every vertex")
    return config


def model_to_json_dict(model):
    enc = lambda x: "-inf" if x == NEG_INF else x
    data = {
        "kind": model.kind,
        "q": model.q,
        "h": [enc(x) for x in model.h],
        "g": [[enc(x) for x in row] for row in model.g],
    }
    if model.beta is not None:
        data["beta"] = model.beta
    return data


def _json_number(x, types=(int, float)):
    if isinstance(x, bool) or not isinstance(x, types):
        raise ValueError(f"model value {x!r} is not a number")
    return x


def model_from_json_dict(data):
    if not isinstance(data, dict):
        raise ValueError("model file must hold a JSON object")
    dec = lambda x: NEG_INF if x == "-inf" else float(_json_number(x))
    kind = data["kind"]
    if not (isinstance(data["h"], list) and isinstance(data["g"], list)
            and all(isinstance(row, list) for row in data["g"])):
        raise ValueError("model h must be a list and g a list of lists")
    h = tuple(dec(x) for x in data["h"])
    g = tuple(tuple(dec(x) for x in row) for row in data["g"])
    if kind == "hardcore":
        return hardcore_model(_json_number(data.get("beta")))
    if kind == "coloring":
        return coloring_model(_json_number(data["q"], int))
    if kind == "soft":
        return soft_model(h, g)
    raise ValueError(f"unknown model kind {kind!r}")


def write_model(model, path):
    with open(path, "w") as fh:
        json.dump(model_to_json_dict(model), fh, indent=2)
        fh.write("\n")


def read_model(path):
    with open(path) as fh:
        return model_from_json_dict(json.load(fh))
