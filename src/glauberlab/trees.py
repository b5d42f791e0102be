"""Exact conditional laws on tree-shaped vertex sets.

Given a model, a forest-inducing vertex set, and a boundary assignment,
an upward sweep of subtree weight tables gives exact marginals, exact
joint laws, and perfect samples without enumeration.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BoundaryInfeasibleError
from .rng import derive_seed, sample_index


def _forest_structure(graph, block, roots):
    """Parents, children and a roots-first order, from one BFS pass.

    With ``roots`` None each component is rooted at its smallest vertex;
    given roots must be block vertices, one in each component.  Rejects
    cycles.
    """
    bset = set(block)
    starts = sorted(bset) if roots is None else roots
    found = []
    parent = {}
    children = {v: [] for v in bset}
    order = []
    visited = set()
    for r in starts:
        if r in visited and roots is None:
            continue
        if r not in bset or r in visited:
            raise ValueError("roots must cover each component exactly once")
        found.append(r)
        visited.add(r)
        head = len(order)
        order.append(r)
        while head < len(order):
            u = order[head]
            head += 1
            for w in graph.adj[u]:
                if w not in bset:
                    continue
                if w in visited:
                    if parent.get(u) != w and parent.get(w) != u:
                        raise ValueError(
                            f"vertex set is not a forest: extra edge "
                            f"({min(u, w)},{max(u, w)})")
                    continue
                visited.add(w)
                parent[w] = u
                children[u].append(w)
                order.append(w)
    if len(order) != len(bset):
        raise ValueError(
            f"need one root per component: {len(bset) - len(order)} block "
            f"vertices lie in components without a root")
    return tuple(found), parent, children, tuple(order)


@dataclass
class TreeTables:
    model: object
    block: tuple
    roots: tuple
    parent: dict
    order: tuple
    up: dict
    expg: np.ndarray
    # tree_sample's conditional lists, by root or (child, parent state)
    draws: dict


def build_tree_tables(model, graph, block, boundary, ignore=(), roots=None):
    """Upward subtree weight tables for a forest-inducing block.

    ``boundary`` pins every neighbor of the block outside it, except
    vertices listed in ``ignore`` (whose edges are dropped entirely, for
    callers that account for those interactions themselves).  up[v][x] is
    proportional to the total weight of v's subtree when v is in state x,
    max-normalized per vertex; a vertex with no feasible state raises
    BoundaryInfeasibleError.
    """
    block = tuple(sorted(set(block)))
    if not block:
        raise ValueError("empty block")
    bset = set(block)
    ignore = frozenset(ignore)
    for v in block:
        for w in graph.adj[v]:
            if w not in bset and w not in boundary and w not in ignore:
                raise ValueError(
                    f"neighbor {w} of block vertex {v} has no boundary "
                    f"assignment")
    roots, parent, children, order = _forest_structure(graph, block, roots)
    exph, expg = model.exp_tables

    up = {}
    for v in reversed(order):
        w_v = exph.copy()
        for w in graph.adj[v]:
            if w in ignore or w in bset:
                continue
            w_v = w_v * expg[:, boundary[w]]
        for c in children[v]:
            w_v = w_v * (expg @ up[c])
        mx = w_v.max()
        if mx <= 0.0:
            raise BoundaryInfeasibleError(
                f"no feasible state at vertex {v} under the given boundary")
        up[v] = w_v / mx
    return TreeTables(model=model, block=block, roots=roots, parent=parent,
                      order=order, up=up, expg=expg, draws={})


def tree_root_law(tables, root=None):
    """Exact marginal of a root's state (normalized)."""
    if root is None:
        if len(tables.roots) != 1:
            raise ValueError("forest has several roots; name one")
        root = tables.roots[0]
    if root not in tables.roots:
        raise ValueError(f"{root} is not a root")
    w = tables.up[root]
    return w / w.sum()


def _child_conditional(tables, v, parent_state):
    w = tables.up[v] * tables.expg[:, parent_state]
    total = w.sum()
    if total <= 0.0:
        raise BoundaryInfeasibleError(
            f"parent state {parent_state} leaves vertex {v} stuck")
    return w / total


def tree_law(tables):
    """Exact joint law of the block, as {config tuple: probability}.

    Configs are tuples aligned with tables.block (sorted vertex order).
    Exponential in the block size; meant for small blocks and oracles.
    """
    partial = [({}, 1.0)]
    parent = tables.parent
    for v in tables.order:
        nxt = []
        for assign, p in partial:
            law = (_child_conditional(tables, v, assign[parent[v]])
                   if v in parent else tree_root_law(tables, v))
            for x in range(tables.model.q):
                if law[x] > 0.0:
                    a = dict(assign)
                    a[v] = x
                    nxt.append((a, p * law[x]))
        partial = nxt
    out = {}
    for assign, p in partial:
        key = tuple(assign[v] for v in tables.block)
        out[key] = out.get(key, 0.0) + p
    return out


def tree_sample(tables, rng):
    """One exact sample of the block, as {vertex: state}; each conditional
    list is built on its first draw and kept on the tables."""
    out = {}
    parent = tables.parent
    for v in tables.order:
        key = (v, out[parent[v]]) if v in parent else v
        probs = tables.draws.get(key)
        if probs is None:
            probs = tables.draws[key] = (
                _child_conditional(tables, v, key[1]) if v in parent
                else tree_root_law(tables, v)).tolist()
        out[v] = sample_index(probs, rng.random())
    return out


def tree_sample_many(tables, count, seed):
    """``count`` independent exact samples, vectorized.

    Returns (matrix, order): matrix[k, i] is sample k's state at
    tables.order[i].  Uses a dedicated numpy generator derived from the
    seed, so results are reproducible but unrelated to the stdlib stream.
    """
    gen = np.random.Generator(np.random.PCG64(derive_seed(seed, "tree-batch")))
    q = tables.model.q
    order = tables.order
    col = {v: i for i, v in enumerate(order)}
    out = np.zeros((count, len(order)), dtype=np.int64)
    for v in order:
        u = gen.random(count)
        if v in tables.parent:
            cond = np.zeros((q, q))
            for xp in range(q):
                w = tables.up[v] * tables.expg[:, xp]
                t = w.sum()
                if t > 0.0:
                    cond[xp] = w / t
            cum = cond.cumsum(axis=1)
            rows = cum[out[:, col[tables.parent[v]]]]
            out[:, col[v]] = (u[:, None] < rows).argmax(axis=1)
        else:
            p = tree_root_law(tables, v)
            cum = p.cumsum()
            out[:, col[v]] = np.minimum(
                np.searchsorted(cum, u, side="right"), q - 1)
    return out, order


def batched_root_marginals(model, graph, block, root, boundary_vertices,
                           boundary_states):
    """Exact root marginals under many boundary assignments at once.

    ``boundary_states`` is a (batch, len(boundary_vertices)) int array.
    Returns (marginals, feasible): marginals is (batch, q) with rows
    normalized where feasible, zero rows otherwise; feasible is a boolean
    mask.  One upward sweep over the tree carries all batch rows.
    """
    block = tuple(sorted(set(block)))
    bset = set(block)
    bpos = {v: i for i, v in enumerate(boundary_vertices)}
    for v in block:
        for w in graph.adj[v]:
            if w not in bset and w not in bpos:
                raise ValueError(f"boundary vertex {w} missing from the list")
    roots, parent, children, order = _forest_structure(graph, block, (root,))
    exph, expg = model.exp_tables
    states = np.asarray(boundary_states)
    batch = states.shape[0]

    up = {}
    for v in reversed(order):
        w_v = np.broadcast_to(exph, (batch, model.q)).copy()
        for w in graph.adj[v]:
            if w in bset:
                continue
            w_v *= expg[states[:, bpos[w]], :]
        for c in children[v]:
            w_v *= up[c] @ expg
        mx = w_v.max(axis=1, keepdims=True)
        np.divide(w_v, mx, out=w_v, where=mx > 0.0)
        up[v] = w_v
    top = up[root]
    totals = top.sum(axis=1, keepdims=True)
    feasible = totals[:, 0] > 0.0
    marg = np.zeros_like(top)
    np.divide(top, totals, out=marg, where=totals > 0.0)
    return marg, feasible
