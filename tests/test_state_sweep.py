"""The exact layer's product-space enumerators and heat-bath kernel
against per-assignment references.

``enumerate_states`` sweeps levels of one small-int array and
``skeleton_joint`` weighs every assignment at once.  The references
below are the depth-first search and the assignment loop they replace;
states, log weights and laws must agree exactly, in the same order.
``_resample_kernel`` groups rows by their bytes; its reference sorts
them with a lexsort over the other columns, and P must agree bit for bit.
"""

import itertools
import random

import numpy as np
import pytest

import glauberlab as gl
from glauberlab.errors import BudgetExceededError
from glauberlab.exact import (_boundary_assignments, _resample_kernel,
                              _root_field)
from glauberlab.models import NEG_INF
from glauberlab.zoo import (_soft_grid_model, connected_graphs, model_grid,
                            partitioned_cases, skeleton_block_cases)


def reference_enumerate_states(model, graph, vertices=None, boundary=None):
    """Depth-first search over vertices in sorted order, pruning a partial
    assignment at its first hard constraint; (states, logw, pi)."""
    if vertices is None:
        vertices = tuple(range(graph.n))
    else:
        vertices = tuple(sorted(set(vertices)))
    vset = set(vertices)
    boundary = {} if boundary is None else dict(boundary)
    pos = {v: i for i, v in enumerate(vertices)}
    earlier = [[pos[w] for w in graph.adj[v] if w in vset and pos[w] < i]
               for i, v in enumerate(vertices)]

    def score(i, x):
        s = model.h[x]
        for j in earlier[i]:
            gxy = model.g[x][assign[j]]
            if gxy == NEG_INF:
                return None
            s += gxy
        for w in graph.adj[vertices[i]]:
            if w in boundary:
                gxb = model.g[x][boundary[w]]
                if gxb == NEG_INF:
                    return None
                s += gxb
        return s

    n = len(vertices)
    states, logw = [], []
    assign = [0] * n
    acc = [0.0] * (n + 1)
    nxt = [0] * n
    i = 0
    while i >= 0:
        if i == n:
            states.append(tuple(assign))
            logw.append(acc[n])
            i -= 1
            continue
        x = nxt[i]
        if x == model.q:
            nxt[i] = 0
            i -= 1
            continue
        nxt[i] = x + 1
        s = score(i, x)
        if s is not None:
            assign[i] = x
            acc[i + 1] = acc[i] + s
            i += 1
    if states:
        arr = np.array(logw)
        w = np.exp(arr - arr.max())
        pi = w / w.sum()
    else:
        pi = np.zeros(0)
    return states, logw, pi


def reference_skeleton_joint(model, graph, block, boundary):
    """One product per skeleton assignment, breaking at the first zero;
    (states, probs)."""
    W = tuple(sorted(block.skeleton))
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
    states, weights = [], []
    for xi in itertools.product(range(model.q), repeat=len(W)):
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
    probs = np.array(weights)
    probs /= probs.sum()
    return states, probs


def reference_resample_kernel(chain, groups):
    """Heat-bath kernel over ``groups``, each group's classes found by a
    lexsort of the other columns; n^2 work per state for single sites."""
    S = len(chain.states)
    X = np.array(chain.states, dtype=np.int64).reshape(S, len(chain.vertices))
    logw = np.array(chain.logw)
    P = np.zeros((S, S)) if groups else np.eye(S)
    for group in groups:
        rest = np.delete(X, group, axis=1)
        order = np.lexsort(rest.T) if rest.shape[1] else np.arange(S)
        rest = rest[order]
        first = np.ones(S, dtype=bool)
        first[1:] = (rest[1:] != rest[:-1]).any(axis=1)
        starts = np.flatnonzero(first)
        sizes = np.diff(np.append(starts, S))
        for m in set(sizes.tolist()):
            cls = order[starts[sizes == m][:, None] + np.arange(m)]
            w = np.exp(logw[cls] - logw[cls].max(axis=1, keepdims=True))
            p = w / w.sum(axis=1, keepdims=True) / len(groups)
            P[cls[:, :, None], cls[:, None, :]] += p[:, None, :]
    return P


def assert_same_chain(model, graph, vertices=None, boundary=None):
    chain = gl.enumerate_states(model, graph, vertices=vertices,
                                boundary=boundary)
    states, logw, pi = reference_enumerate_states(model, graph, vertices,
                                                  boundary)
    assert chain.states == states
    assert chain.logw.tolist() == logw
    assert np.array_equal(chain.pi, pi)
    assert all(type(a) is int for s in chain.states for a in s)
    assert all(type(x) is float for x in chain.logw.tolist())
    assert np.array_equal(
        chain.X, np.array(states).reshape(len(states), len(chain.vertices)))
    assert chain.X.dtype == np.min_scalar_type(model.q - 1)


def assert_same_kernel(chain, groups):
    P = _resample_kernel(chain, groups)
    assert np.array_equal(P, reference_resample_kernel(chain, groups))


def site_groups(chain):
    """Every single site, then the whole chain as one group."""
    n = len(chain.vertices)
    return [[[i] for i in range(n)], [list(range(n))]]


def assert_same_joint(model, graph, block, boundary):
    joint = gl.skeleton_joint(model, graph, block, boundary)
    states, probs = reference_skeleton_joint(model, graph, block, boundary)
    assert joint.states == states
    assert np.array_equal(joint.probs, probs)
    assert all(type(a) is int for s in joint.states for a in s)


class TestAgainstReferences:
    @pytest.mark.parametrize("mname, model", model_grid(),
                             ids=[m for m, _ in model_grid()])
    def test_zoo_grid(self, mname, model):
        for _, graph in connected_graphs():
            assert_same_chain(model, graph)

    def test_skeleton_block_cases(self):
        for _, model, graph, block, boundary in skeleton_block_cases():
            assert_same_joint(model, graph, block, boundary)
            pinned = {u: boundary[u] for u in
                      gl.exterior_boundary(graph, block.vertices)}
            assert_same_chain(model, graph, block.vertices, pinned)

    @pytest.mark.parametrize("model", [gl.hardcore_model(1.0),
                                       gl.coloring_model(5),
                                       _soft_grid_model()],
                             ids=["hardcore", "coloring-q5", "soft"])
    def test_populated_partition_blocks(self, model):
        # TestBlockLawCache's partition of gen --n 2000 --d 2 --seed 1:
        # two skeleton blocks with pieces, every one with a boundary
        g = gl.generate_er(2000, 2.0, seed=1)
        hp = gl.HypothesisParams(a=0.3, alpha=0.25, t=1, delta=0.15)
        part = gl.decompose(g, hp, L=0.12)
        config = gl.initial_configuration(model, g)
        skeletons = [b for b in part.blocks if b.kind == "skeleton"]
        assert len(skeletons) == 2
        for block in skeletons:
            pinned = {u: config[u] for u in
                      gl.exterior_boundary(g, block.vertices)}
            assert_same_joint(model, g, block, pinned)
            if model.q ** len(block.vertices) <= 5000:
                assert_same_chain(model, g, block.vertices, pinned)

    def test_random_cases(self):
        rng = random.Random(20)
        kinds = {"coloring": 0, "hardcore": 0, "soft": 0}
        for _ in range(200):
            kind = rng.choice(sorted(kinds))
            kinds[kind] += 1
            if kind == "coloring":
                model = gl.coloring_model(rng.randint(2, 4))
            elif kind == "hardcore":
                model = gl.hardcore_model(round(rng.uniform(-2.0, 2.0), 3))
            else:
                q = rng.randint(1, 3)
                g = [[0.0] * q for _ in range(q)]
                for a in range(q):
                    for b in range(a, q):
                        g[a][b] = g[b][a] = rng.uniform(-1.0, 1.0)
                model = gl.soft_model(
                    [rng.uniform(-1.0, 1.0) for _ in range(q)], g)
            n = rng.randint(1, 8)
            p = rng.uniform(0.1, 0.7)
            graph = gl.Graph(n, [(u, v) for u, v in
                                 itertools.combinations(range(n), 2)
                                 if rng.random() < p])
            subset = [v for v in range(n) if rng.random() < 0.7]
            boundary = None
            if rng.random() < 0.5:
                boundary = {u: rng.randrange(model.q) for u in range(n)
                            if u not in subset}
            assert_same_chain(model, graph, subset, boundary)
        assert min(kinds.values()) > 50


def path(n):
    return gl.Graph(n, [(i, i + 1) for i in range(n - 1)])


class TestBudget:
    @pytest.mark.parametrize("model", [gl.coloring_model(3),
                                       gl.hardcore_model(0.5),
                                       _soft_grid_model()],
                             ids=["coloring-q3", "hardcore", "soft"])
    def test_budget_is_the_state_count_on_paths(self, model):
        # every partial assignment of a path extends, so no level holds
        # more rows than the last
        S = len(gl.enumerate_states(model, path(6)).states)
        assert len(gl.enumerate_states(model, path(6), budget=S).states) == S
        with pytest.raises(gl.BudgetExceededError):
            gl.enumerate_states(model, path(6), budget=S - 1)

    def test_dead_partial_assignments_count(self):
        # K_{1,10} with the hub last: the ten leaves hold 2^10 partial
        # 2-colourings, though only 2 complete
        star = gl.Graph(11, [(i, 10) for i in range(10)])
        model = gl.coloring_model(2)
        assert len(gl.enumerate_states(model, star).states) == 2
        with pytest.raises(gl.BudgetExceededError):
            gl.enumerate_states(model, star, budget=100)


class TestKernelAgainstReference:
    def test_zoo_grid(self):
        for _, model in model_grid():
            for _, graph in connected_graphs():
                chain = gl.enumerate_states(model, graph)
                for groups in site_groups(chain):
                    assert_same_kernel(chain, groups)

    def test_partitioned_cases(self):
        for _, model, graph, part in partitioned_cases():
            chain = gl.enumerate_states(model, graph)
            assert_same_kernel(chain, [sorted(b.vertices)
                                       for b in part.blocks])
            # the per-block chains under each realizable boundary
            for block in part.blocks:
                bcs, _ = _boundary_assignments(model, graph, block.vertices,
                                               5000)
                for bc in bcs:
                    sub = gl.enumerate_states(
                        model, graph, vertices=block.vertices, boundary=bc)
                    for groups in site_groups(sub):
                        assert_same_kernel(sub, groups)

    def test_random_partitions(self):
        rng = random.Random(22)
        built = empty = 0
        while built < 200:
            kind = rng.choice(["coloring", "hardcore", "soft"])
            if kind == "coloring":
                model = gl.coloring_model(rng.randint(2, 4))
            elif kind == "hardcore":
                model = gl.hardcore_model(round(rng.uniform(-2.0, 2.0), 3))
            else:
                q = rng.randint(1, 3)
                g = [[0.0] * q for _ in range(q)]
                for a in range(q):
                    for b in range(a, q):
                        g[a][b] = g[b][a] = rng.uniform(-1.0, 1.0)
                model = gl.soft_model(
                    [rng.uniform(-1.0, 1.0) for _ in range(q)], g)
            n = rng.randint(1, 7)
            p = rng.uniform(0.1, 0.7)
            graph = gl.Graph(n, [(u, v) for u, v in
                                 itertools.combinations(range(n), 2)
                                 if rng.random() < p])
            try:
                # at most 500 states keeps each dense P within 2 MB
                chain = gl.enumerate_states(model, graph, budget=500)
            except BudgetExceededError:
                continue
            built += 1
            empty += len(chain.X) == 0
            k = rng.randint(1, n)
            labels = [rng.randrange(k) for _ in range(n)]
            groups = [[i for i in range(n) if labels[i] == b]
                      for b in sorted(set(labels))]
            assert_same_kernel(chain, groups)
            for groups in site_groups(chain):
                assert_same_kernel(chain, groups)
        assert empty > 0

    def test_long_path_two_colourings(self):
        chain = gl.enumerate_states(gl.coloring_model(2), path(300))
        assert len(chain.X) == 2
        for groups in site_groups(chain):
            assert_same_kernel(chain, groups)
