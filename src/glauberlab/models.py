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
from dataclasses import dataclass, replace

from .errors import NoFeasibleStateError, PaletteExhaustedError, PeelingError
from .graphs import bfs_distances
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

    ``pmf(config, v)`` equals ``local_conditional(model, graph, config, v)``
    and ``draw(config, v, u)`` equals ``sample_index`` of that pmf with
    uniform ``u``, float for float.  A proper coloring's conditional is
    uniform on the k free colors, so per k one table of the sequential
    partial sums of 1.0/k replays the cumulative walk of ``sample_index``;
    hardcore has one pmf for an unblocked vertex.  Soft models take the
    generic path.
    """

    def __init__(self, model, graph):
        self.model = model
        self.graph = graph
        self._adj = graph.adj
        self._q = model.q
        if model.kind == "coloring":
            self._cums = [()]
            for k in range(1, model.q + 1):
                w = 1.0 / k
                acc = 0.0
                cum = []
                for _ in range(k):
                    acc += w
                    cum.append(acc)
                self._cums.append(tuple(cum))
            self.draw = self._draw_coloring
            self.pmf = self._pmf_coloring
        elif model.kind == "hardcore":
            self._open = neighbor_conditional(model, (), None)
            p0, p1 = self._open
            self._total = 0.0 + p0 + p1
            # sample_index never picks a state of mass 0.0
            self._cut = p0 if p1 > 0.0 else math.inf
            self.draw = self._draw_hardcore
            self.pmf = self._pmf_hardcore

    def draw(self, config, v, u):
        return sample_index(local_conditional(
            self.model, self.graph, config, v), u)

    def pmf(self, config, v):
        return local_conditional(self.model, self.graph, config, v)

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

    def _pmf_coloring(self, config, v):
        taken = {config[w] for w in self._adj[v]}
        k = self._q - len(taken)
        if not k:
            raise _no_feasible_state(v)
        p = 1.0 / k
        return [0.0 if c in taken else p for c in range(self._q)]

    def _draw_hardcore(self, config, v, u):
        for w in self._adj[v]:
            if config[w]:
                return 0
        return 0 if u * self._total < self._cut else 1

    def _pmf_hardcore(self, config, v):
        if any(config[w] for w in self._adj[v]):
            return [1.0, 0.0]
        return list(self._open)


def activity_free(model):
    """The same model with h forced to zero (hard constraints kept).

    For hardcore that is the model at activity 0; coloring already has
    h = 0.  Idempotent.
    """
    if all(x == 0.0 for x in model.h):
        return model
    if model.kind == "hardcore":
        return hardcore_model(0.0)
    return replace(model, h=(0.0,) * model.q)


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


def _peel(graph, degree_cap):
    """Remove every vertex of original degree above the cap, in one pass.

    Returns (kept set, removed list) without judging what remains.
    """
    removed = [v for v in range(graph.n) if graph.degree(v) > degree_cap]
    kept = set(range(graph.n)) - set(removed)
    return kept, removed


def _kept_components(graph, kept):
    """Connected components of the kept set, each with its non-tree edges."""
    seen = set()
    comps = []
    for s in sorted(kept):
        if s in seen:
            continue
        dist = bfs_distances(graph, s, within=kept)
        comp = sorted(dist)
        seen.update(comp)
        cset = set(comp)
        ecount = 0
        for u in comp:
            for w in graph.adj[u]:
                if w > u and w in cset:
                    ecount += 1
        comps.append((comp, ecount - len(comp) + 1))
    return comps


def initial_configuration(model, graph, degree_cap):
    """A feasible configuration built by peel / solve / reinsert.

    Coloring: vertices of degree above the cap are peeled away, each
    remaining component must be a tree or unicyclic (else PeelingError),
    trees get a 2-coloring, unicyclic components repair the one conflict
    edge with color 2, and peeled vertices come back in descending degree
    order taking the smallest legal color (PaletteExhaustedError if none;
    q >= degree_cap + 3 always suffices).  Hardcore and soft models start
    from the all-zero configuration, which is feasible by shape.
    """
    if degree_cap < 1:
        raise ValueError("degree cap must be positive")
    if model.kind != "coloring":
        return [0] * graph.n
    if model.q < 3:
        raise ValueError("peel-and-reinsert needs at least 3 colors")

    kept, removed = _peel(graph, degree_cap)
    config = [0] * graph.n
    for comp, excess in _kept_components(graph, kept):
        if excess > 1:
            raise PeelingError(
                f"component of size {len(comp)} has tree excess {excess} "
                f"after peeling at degree cap {degree_cap}")
        root = comp[0]
        dist = bfs_distances(graph, root, within=set(comp))
        for u in comp:
            config[u] = dist[u] % 2
        if excess == 1:
            conflict = None
            for u in comp:
                for w in graph.adj[u]:
                    if w > u and w in dist and config[u] == config[w]:
                        conflict = (u, w)
                        break
                if conflict:
                    break
            if conflict:
                config[conflict[0]] = 2

    for v in sorted(removed, key=lambda v: (-graph.degree(v), v)):
        taken = {config[w] for w in graph.adj[v] if w in kept}
        color = next((c for c in range(model.q) if c not in taken), None)
        if color is None:
            raise PaletteExhaustedError(
                f"no color left for vertex {v} with {model.q} colors")
        config[v] = color
        kept.add(v)

    if not is_feasible(model, graph, config):
        raise RuntimeError("reinsertion produced an improper coloring")
    return config


def fit_degree_cap(graph, start=None, ceiling=None):
    """Smallest cap in a doubling sequence at which peeling leaves only
    trees and unicyclic components.  Starts at twice the mean degree.
    """
    if graph.n == 0:
        raise ValueError("empty graph")
    if start is None:
        mean = 2 * graph.m / graph.n
        start = max(1, math.ceil(2 * mean))
    if ceiling is None:
        ceiling = max(graph.degree(v) for v in range(graph.n)) if graph.n \
            else 1
        ceiling = max(ceiling, start)
    cap = start
    while True:
        kept, _ = _peel(graph, cap)
        if all(x <= 1 for _, x in _kept_components(graph, kept)):
            return cap
        if cap > ceiling:
            raise PeelingError(
                f"no degree cap up to {cap} leaves only trees and "
                f"unicyclic components")
        cap *= 2


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


def model_from_json_dict(data):
    dec = lambda x: NEG_INF if x == "-inf" else float(x)
    kind = data["kind"]
    h = tuple(dec(x) for x in data["h"])
    g = tuple(tuple(dec(x) for x in row) for row in data["g"])
    beta = data.get("beta")
    if kind == "hardcore":
        return hardcore_model(beta)
    if kind == "coloring":
        return coloring_model(data["q"])
    return soft_model(h, g)


def write_model(model, path):
    with open(path, "w") as fh:
        json.dump(model_to_json_dict(model), fh, indent=2)
        fh.write("\n")


def read_model(path):
    with open(path) as fh:
        return model_from_json_dict(json.load(fh))


def format_configuration(config):
    return " ".join(str(x) for x in config) + "\n"


def parse_configuration(text, model=None, graph=None):
    values = [int(tok) for tok in text.split()]
    if graph is not None and len(values) != graph.n:
        raise ValueError(
            f"configuration has {len(values)} entries, graph has {graph.n}")
    if model is not None:
        for x in values:
            if not 0 <= x < model.q:
                raise ValueError(f"state {x} out of range for q={model.q}")
    return values


def write_configuration(config, path):
    with open(path, "w") as fh:
        fh.write(format_configuration(config))


def read_configuration(path, model=None, graph=None):
    with open(path) as fh:
        return parse_configuration(fh.read(), model=model, graph=graph)
