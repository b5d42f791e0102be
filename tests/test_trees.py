import itertools
import math

import numpy as np
import pytest

import glauberlab as gl


def brute_block_law(model, graph, block, boundary):
    """Independent oracle: enumerate all q^|block| assignments and weigh
    each full configuration directly."""
    block = tuple(sorted(block))
    out = {}
    for assign in itertools.product(range(model.q), repeat=len(block)):
        cfg = [0] * graph.n
        for v, x in zip(block, assign):
            cfg[v] = x
        for v, x in boundary.items():
            cfg[v] = x
        lw = 0.0
        for v in block:
            lw += model.h[cfg[v]]
        seen = set()
        for v in block:
            for w in graph.adj[v]:
                if w in seen:
                    continue
                if w in boundary or (w in set(block) and w > v):
                    lw += model.g[cfg[v]][cfg[w]]
        # the loop above double-counts nothing: block-block edges once
        # (w > v), block-boundary edges once per block endpoint
        if lw == -math.inf:
            continue
        out[assign] = math.exp(lw)
    total = sum(out.values())
    if total == 0.0:
        return {}
    return {k: v / total for k, v in out.items()}


def law_tv(a, b):
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)


def path3():
    return gl.Graph(3, [(0, 1), (1, 2)])


class TestBuildTables:
    def test_requires_boundary_coverage(self):
        g = path3()
        with pytest.raises(ValueError):
            gl.build_tree_tables(gl.coloring_model(3), g, (0, 1), {})

    def test_ignore_drops_edges(self):
        g = path3()
        tb = gl.build_tree_tables(gl.coloring_model(3), g, (0, 1), {},
                                  ignore=(2,))
        # with the 1-2 edge dropped, the block is a free path of two
        law = gl.tree_law(tb)
        assert len(law) == 6
        assert all(p == pytest.approx(1 / 6) for p in law.values())

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError):
            gl.build_tree_tables(gl.coloring_model(3), path3(), (), {})

    def test_infeasible_boundary_raises(self):
        # q=2 star center whose two leaves are pinned to both colors
        g = gl.Graph(3, [(0, 1), (0, 2)])
        with pytest.raises(gl.BoundaryInfeasibleError):
            gl.build_tree_tables(gl.coloring_model(2), g, (0,),
                                 {1: 0, 2: 1})


def two_trees():
    # components {0, 1, 2} (a path through 1) and {3, 4}
    return gl.Graph(5, [(1, 0), (1, 2), (4, 3)])


class TestForestStructure:
    def test_default_roots_are_component_minima(self):
        tb = gl.build_tree_tables(gl.coloring_model(3), two_trees(),
                                  range(5), {})
        assert tb.roots == (0, 3)
        assert tb.order == (0, 1, 2, 3, 4)
        assert tb.parent == {1: 0, 2: 1, 4: 3}

    def test_given_roots_reorder(self):
        tb = gl.build_tree_tables(gl.coloring_model(3), two_trees(),
                                  range(5), {}, roots=(4, 1))
        assert tb.roots == (4, 1)
        assert tb.order == (4, 3, 1, 0, 2)

    def test_too_few_roots(self):
        with pytest.raises(ValueError, match="one root per component"):
            gl.build_tree_tables(gl.coloring_model(3), two_trees(),
                                 range(5), {}, roots=(0,))

    def test_two_roots_in_one_component(self):
        with pytest.raises(ValueError, match="exactly once"):
            gl.build_tree_tables(gl.coloring_model(3), two_trees(),
                                 range(5), {}, roots=(0, 2))

    def test_root_outside_block(self):
        with pytest.raises(ValueError, match="exactly once"):
            gl.build_tree_tables(gl.coloring_model(3), two_trees(),
                                 (0, 1, 2), {}, roots=(3,))

    @pytest.mark.parametrize("roots", [None, (2,)])
    def test_cycle_in_block(self, roots):
        g = gl.Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        with pytest.raises(ValueError, match="not a forest"):
            gl.build_tree_tables(gl.coloring_model(3), g, range(4), {},
                                 roots=roots)


class TestTreeLaw:
    def test_free_path_uniform(self):
        tb = gl.build_tree_tables(gl.coloring_model(3), path3(),
                                  (0, 1, 2), {})
        law = gl.tree_law(tb)
        assert len(law) == 12
        assert all(p == pytest.approx(1 / 12, abs=1e-15)
                   for p in law.values())

    def test_matches_enumeration_with_boundary(self):
        g = gl.Graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
        cases = [
            (gl.coloring_model(3), (1, 2, 3), {0: 0, 4: 2}),
            (gl.hardcore_model(0.8), (0, 1, 2), {3: 1, 4: 0}),
            (gl.soft_model([0.1, -0.2], [[0.4, 0.0], [0.0, 0.4]]),
             (1, 2, 3, 4), {0: 1}),
        ]
        for model, block, boundary in cases:
            tb = gl.build_tree_tables(model, g, block, boundary)
            assert law_tv(gl.tree_law(tb),
                          brute_block_law(model, g, block, boundary)) < 1e-13

    def test_root_law_matches_joint_marginal(self):
        g = gl.random_tree(6, seed=5)
        m = gl.hardcore_model(0.5)
        tb = gl.build_tree_tables(m, g, tuple(range(6)), {})
        law = gl.tree_law(tb)
        root = tb.roots[0]
        pos = tb.block.index(root)
        marg = np.zeros(m.q)
        for key, p in law.items():
            marg[key[pos]] += p
        assert gl.tree_root_law(tb) == pytest.approx(marg, abs=1e-14)


class TestTreeSample:
    def test_samples_feasible_and_deterministic(self):
        g = gl.random_tree(7, seed=1)
        m = gl.coloring_model(3)
        tb = gl.build_tree_tables(m, g, tuple(range(7)), {})
        a = gl.tree_sample(tb, gl.make_rng(42, "t"))
        b = gl.tree_sample(tb, gl.make_rng(42, "t"))
        assert a == b
        cfg = [a[v] for v in range(7)]
        assert gl.is_feasible(m, g, cfg)

    def test_respects_boundary(self):
        g = path3()
        m = gl.coloring_model(3)
        tb = gl.build_tree_tables(m, g, (0, 1), {2: 1})
        for k in range(50):
            s = gl.tree_sample(tb, gl.make_rng(k, "b"))
            assert s[1] != 1 and s[0] != s[1]

    def test_monte_carlo_matches_law(self):
        g = gl.random_tree(8, seed=4)
        m = gl.coloring_model(3)
        # pin half the tree from a feasible draw so the block law is small
        full_tb = gl.build_tree_tables(m, g, tuple(range(8)), {})
        full = gl.tree_sample(full_tb, gl.make_rng(0, "pin"))
        block = (0, 3, 4, 7)
        boundary = {v: full[v] for v in range(8) if v not in block}
        tb = gl.build_tree_tables(m, g, block, boundary)
        mat, order = gl.tree_sample_many(tb, 10 ** 5, seed=11)
        col = {v: i for i, v in enumerate(order)}
        emp = {}
        for row in mat:
            key = tuple(int(row[col[v]]) for v in tb.block)
            emp[key] = emp.get(key, 0) + 1
        emp = {k: c / len(mat) for k, c in emp.items()}
        assert law_tv(emp, gl.tree_law(tb)) < 0.02

    def test_batch_matches_single_stream_support(self):
        g = gl.random_tree(5, seed=9)
        m = gl.hardcore_model(1.0)
        tb = gl.build_tree_tables(m, g, tuple(range(5)), {})
        mat, order = gl.tree_sample_many(tb, 500, seed=3)
        for row in mat:
            cfg = [0] * 5
            for i, v in enumerate(order):
                cfg[v] = int(row[i])
            assert gl.is_feasible(m, g, cfg)


class TestBatchedRootMarginals:
    def test_matches_per_boundary_tables(self):
        g = gl.Graph(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)])
        m = gl.coloring_model(4)
        block = (1, 3)
        bverts = (0, 2, 4, 5)
        states = np.array(list(itertools.product(range(4), repeat=4)))
        marg, feas = gl.batched_root_marginals(m, g, block, 1, bverts,
                                               states)
        for i, row in enumerate(states):
            boundary = dict(zip(bverts, (int(x) for x in row)))
            tb = gl.build_tree_tables(m, g, block, boundary, roots=(1,))
            want = gl.tree_root_law(tb, 1)
            assert feas[i]
            assert marg[i] == pytest.approx(want, abs=1e-13)

    def test_flags_infeasible_rows(self):
        g = gl.Graph(3, [(0, 1), (0, 2)])
        m = gl.coloring_model(2)
        states = np.array([[0, 1], [0, 0]])
        marg, feas = gl.batched_root_marginals(m, g, (0,), 0, (1, 2),
                                               states)
        assert not feas[0] and feas[1]
        assert marg[0] == pytest.approx([0.0, 0.0])
        assert marg[1] == pytest.approx([0.0, 1.0])
