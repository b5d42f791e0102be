import math
import random

import numpy as np
import pytest

import glauberlab as gl
from glauberlab import blocks as gl_blocks
from glauberlab import graphs as gl_graphs
from glauberlab.graphs import induced_components
from glauberlab.records import CheckRecord, Report


def c6():
    return gl.Graph(6, [(i, (i + 1) % 6) for i in range(6)])


def oracle_bad_classes(g, labeling):
    """Independent oracle: transitive closure of bad-bad adjacency plus
    bad-good-bad two-hop steps, via union-find."""
    parent = {v: v for v in labeling.bad_vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    bad = set(labeling.bad_vertices)
    for u in bad:
        for w in g.adj[u]:
            if w in bad:
                union(u, w)
            else:
                for x in g.adj[w]:
                    if x in bad and x != u:
                        union(u, x)
    classes = {}
    for v in bad:
        classes.setdefault(find(v), set()).add(v)
    return sorted(frozenset(c) for c in classes.values())


def oracle_block_diameter(g, vertices):
    """All-sources oracle: the largest BFS distance inside the block from
    any of its vertices, inf when the block is disconnected."""
    vset = set(vertices)
    diam = 0
    for v in vertices:
        dist = gl.bfs_distances(g, v, within=vset)
        if len(dist) < len(vset):
            return math.inf
        diam = max(diam, max(dist.values()))
    return diam


def oracle_units(g, labeling):
    """Independent oracle: each bad class plus its good neighbours, and
    every other good vertex alone."""
    units = []
    for cls in oracle_bad_classes(g, labeling):
        unit = set(cls)
        for u in cls:
            unit.update(w for w in g.adj[u] if labeling.is_good(w))
        units.append(frozenset(unit))
    covered = set().union(*units)
    units += [frozenset({v}) for v in range(g.n) if v not in covered]
    return sorted(units, key=min)


class TestChooseParams:
    def test_formulas(self):
        hp = gl.HypothesisParams(a=4.0, alpha=0.25, t=1, delta=1.5)
        bp = gl.choose_params(hp, L=3.0)
        assert bp.eps == pytest.approx(3 * 1.5 / 3.0)
        assert bp.c == pytest.approx(bp.eps / 0.25)

    def test_default_scale(self):
        hp = gl.HypothesisParams(a=22.0, alpha=0.5, t=1, delta=1.0)
        bp = gl.choose_params(hp)
        assert bp.L == pytest.approx(0.9 * 22.0 / 22.0)

    def test_scale_cannot_exceed_ball_exponent(self):
        hp = gl.HypothesisParams(a=1.0, alpha=0.5, t=1, delta=1.0)
        with pytest.raises(ValueError):
            gl.choose_params(hp, L=2.0)


class TestClassify:
    def test_degree_and_weight_both_required(self):
        star = gl.Graph(4, [(0, 1), (0, 2), (0, 3)])
        lab = gl.classify(star, c=2, alpha=0.5, eps=10.0)
        # center fails the degree cap only
        assert lab.bad_vertices == [0]
        lab2 = gl.classify(star, c=10, alpha=0.5, eps=1.2)
        # center has phi = 1.5 > 1.2; leaves have 0.5 + 2*0.25 = 1.0
        assert lab2.bad_vertices == [0]

    def test_phi_override_reused(self):
        g = gl.generate_er(50, 2.0, seed=3)
        phi = gl.alpha_weights_all(g, 0.25)
        a = gl.classify(g, c=8, alpha=0.25, eps=1.0)
        b = gl.classify(g, c=8, alpha=0.25, eps=1.0, phi=phi)
        assert a.bad_vertices == b.bad_vertices

    def test_validates_thresholds(self):
        g = c6()
        with pytest.raises(ValueError):
            gl.classify(g, c=-1, alpha=0.5, eps=1.0)
        with pytest.raises(ValueError):
            gl.classify(g, c=2, alpha=0.5, eps=0.0)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.25])
    def test_validates_alpha_with_phi(self, alpha):
        with pytest.raises(ValueError):
            gl.classify(c6(), c=2, alpha=alpha, eps=1.0, phi=[0.5] * 6)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.25])
    def test_validates_alpha_without_phi(self, alpha):
        # eps = 1e9 settles every vertex by bounds, before any sweep
        with pytest.raises(ValueError):
            gl.classify(c6(), c=2, alpha=alpha, eps=1e9)

    @pytest.mark.parametrize("alpha", [0.05, 0.25, 0.5, 0.75, 0.95])
    def test_labels_equal_exact_phi_labels(self, alpha):
        # Oracle: the labels of the exact phi, with eps exactly at some
        # vertex's phi, one float below it, drawn uniformly, and huge.
        rng = np.random.default_rng(int(alpha * 100))
        cases = 0
        for _ in range(16):
            n = int(rng.integers(1, 601))
            d = min(float(rng.uniform(0.5, 5.0)), n)
            g = gl.generate_er(n, d, int(rng.integers(1 << 30)))
            phi = gl.alpha_weights_all(g, alpha)
            v = int(rng.integers(n))
            for c in (1, 3, n):
                for eps in (phi[v], np.nextafter(phi[v], 0),
                            rng.uniform(0, phi.max() + 1), 1e9):
                    if eps <= 0:
                        continue
                    got = gl.classify(g, c=c, alpha=alpha, eps=eps)
                    want = gl.classify(g, c=c, alpha=alpha, eps=eps, phi=phi)
                    assert np.array_equal(got.good, want.good), (n, c, eps)
                    assert got.phi_swept <= n
                    cases += 1
        assert cases >= 60

    def test_sweeps_only_open_vertices(self, monkeypatch):
        # every vertex of a star but its centre is settled good by the
        # bounds; the centre's phi (1.5) sits at eps, so it alone is swept
        calls = count_sweeps(monkeypatch)
        star = gl.Graph(4, [(0, 1), (0, 2), (0, 3)])
        lab = gl.classify(star, c=10, alpha=0.5, eps=1.5)
        assert lab.bad_vertices == []
        assert lab.phi_swept == 1
        assert calls == [[[0]]]

    def test_degree_bound_settles_bad_without_sweep(self, monkeypatch):
        # the centre of a 10-leaf star has alpha * deg = 5 > eps, so it is
        # bad by the lower bound; each leaf's bound 0.5 + 0.25 * 10 is good
        calls = count_sweeps(monkeypatch)
        star = gl.Graph(11, [(0, v) for v in range(1, 11)])
        lab = gl.classify(star, c=100, alpha=0.5, eps=4.0)
        assert lab.bad_vertices == [0]
        assert calls == []

    def test_paper_constants_sweep_nothing(self, monkeypatch):
        # eps = 759 against a largest phi near 5
        calls = count_sweeps(monkeypatch)
        hp = gl.HypothesisParams(a=0.2, alpha=0.25, t=1, delta=2.07)
        part = gl.decompose(gl.generate_er(3500, 2.0, 1), hp)
        assert calls == []
        assert part.labeling.phi_swept == 0
        assert part.labeling.bad_vertices == []


def count_sweeps(monkeypatch):
    """Record each call of the exact sweep as its chunks' sources."""
    calls = []
    chunks = gl_graphs._distance_chunks

    def record(seen, items):
        for sel, code, far in items:
            seen.append(sel.tolist())
            yield sel, code, far

    def counted(g, sources=None):
        calls.append([])
        return record(calls[-1], chunks(g, sources))

    monkeypatch.setattr(gl_graphs, "_distance_chunks", counted)
    return calls


def count_bfs(monkeypatch):
    """Record the sources of each dict BFS, wherever it is looked up."""
    calls = []
    bfs = gl_graphs.bfs_distances

    def counted(g, sources, *args, **kwargs):
        calls.append(sources)
        return bfs(g, sources, *args, **kwargs)

    for module in (gl_graphs, gl_blocks):
        monkeypatch.setattr(module, "bfs_distances", counted)
    return calls


class TestWorkCounts:
    def test_paper_constants_run_no_bfs(self, monkeypatch):
        # every vertex is good, so every unit and block is one isolated
        # vertex of the good-good-free graph and needs no BFS
        g = gl.generate_er(3500, 2.0, 1)
        hp = gl.HypothesisParams(a=0.2, alpha=0.25, t=1, delta=2.07)
        calls = count_bfs(monkeypatch)
        part = gl.decompose(g, hp)
        assert gl.validate_partition(g, part).passed
        assert calls == []
        assert len(part.blocks) == 3500

    def test_guard_sees_the_bfs(self, monkeypatch):
        calls = count_bfs(monkeypatch)
        assert induced_components(gl.Graph(3, [(0, 1)]), range(3)) == \
            [(0, 1), (2,)]
        assert calls == [0]


class TestBadClasses:
    def test_two_hop_merge(self):
        # path 0-1-2 with ends bad and middle good: one class
        g = gl.Graph(3, [(0, 1), (1, 2)])
        lab = gl.classify(g, c=10, alpha=0.5, eps=1.0,
                          phi=[10.0, 0.0, 10.0])
        assert gl.bad_classes(g, lab) == [(0, 2)]

    def test_three_hop_does_not_merge(self):
        # two good vertices in a row break the chain
        g = gl.Graph(4, [(0, 1), (1, 2), (2, 3)])
        lab = gl.classify(g, c=10, alpha=0.5, eps=1.0,
                          phi=[10.0, 0.0, 0.0, 10.0])
        assert gl.bad_classes(g, lab) == [(0,), (3,)]

    def test_matches_union_find_oracle(self):
        for seed in range(6):
            g = gl.generate_er(80, 2.5, seed=seed)
            lab = gl.classify(g, c=4, alpha=0.3, eps=0.8)
            got = sorted(frozenset(c) for c in gl.bad_classes(g, lab))
            assert got == oracle_bad_classes(g, lab)


class TestBuildSkeleton:
    def good_labeling(self, g):
        return gl.classify(g, c=g.n, alpha=0.5, eps=1e9)

    def test_short_cycle_absorbed(self):
        g = c6()
        comps = gl.build_skeleton(g, self.good_labeling(g), L=1.0, t=1)
        assert [tuple(sorted(c)) for c in comps] == [(0, 1, 2, 3, 4, 5)]

    def test_tree_has_empty_skeleton(self):
        g = gl.random_tree(12, seed=1)
        comps = gl.build_skeleton(g, self.good_labeling(g), L=1.0, t=1)
        assert comps == []

    def test_long_cycle_left_alone(self):
        # cycle length 20 exceeds 5 * L * ln n for small L
        g = gl.Graph(20, [(i, (i + 1) % 20) for i in range(20)])
        comps = gl.build_skeleton(g, self.good_labeling(g), L=0.5, t=1)
        assert comps == []

    def test_size_bound_enforced_at_t0(self):
        # at t = 0 the size cap 20 t L log n is 0, so the size clause
        # fires first; the excess clause is pinned below
        g = c6()
        with pytest.raises(gl.SkeletonBoundError,
                           match="skeleton component of size 6 exceeds"):
            gl.build_skeleton(g, self.good_labeling(g), L=1.0, t=0)

    # Messages recorded on the construction that split all of W into
    # components again after every addition.  At t = 3 (high scan) the
    # excess clause fires at the 7th addition, with three components in
    # W; at t = 8 at the 12th, with four.  The size clause fires only at
    # t < 1, on the first addition: every skeleton component has excess at
    # least 1, and each addition adds fewer than 5 L log n vertices while
    # raising twice the excess minus the component count by at least one,
    # so a component of excess e <= t has fewer than 5 (2e - 1) L log n <
    # 20 t L log n vertices.
    @pytest.mark.parametrize("seed, t, message", [
        (2, 3, "skeleton component has tree excess 4 > 3 "
               "(component min vertex 15)"),
        (1, 8, "skeleton component has tree excess 10 > 8 "
               "(component min vertex 0)"),
        (2, 0, "skeleton component of size 7 exceeds 0.000; the graph "
               "fails the hypothesis at these parameters (component min "
               "vertex 15)"),
    ], ids=["excess-t3", "excess-t8", "size-t0"])
    def test_bound_error_message_pinned(self, seed, t, message):
        g = gl.generate_er(400, 2.5, seed=seed)
        with pytest.raises(gl.SkeletonBoundError) as err:
            gl.build_skeleton(g, self.good_labeling(g), 2 / math.log(g.n),
                              t=t, scan_order="high")
        assert str(err.value) == message

    def test_order_independent_fixed_point(self):
        for seed in range(8):
            g = gl.generate_er(60, 2.5, seed=100 + seed)
            lab = self.good_labeling(g)
            low = gl.build_skeleton(g, lab, L=2 / math.log(g.n), t=1000,
                                    scan_order="low")
            high = gl.build_skeleton(g, lab, L=2 / math.log(g.n), t=1000,
                                     scan_order="high")
            wl = sorted(v for c in low for v in c)
            wh = sorted(v for c in high for v in c)
            assert wl == wh

    def test_no_rule_left_at_fixed_point(self):
        g = gl.generate_er(80, 2.5, seed=42)
        comps = gl.build_skeleton(g, self.good_labeling(g),
                                  L=2 / math.log(g.n), t=1000)
        W = [v for c in comps for v in c]
        assert gl.has_applicable_rule(g, W, 2 / math.log(g.n)) is None

    def test_rule_iii_fires_on_partial_w(self):
        # a vertex with two skeleton neighbors must be absorbed
        g = c6()
        assert gl.has_applicable_rule(g, [1, 3], 1.0) == "iii"

    def test_rule_i_fires_on_empty_w(self):
        assert gl.has_applicable_rule(c6(), [], 1.0) == "i"

    def test_rule_ii_fires_beside_w(self):
        # 1 and 5 both touch W = {0}, joined by the path 1-2-3-4-5
        assert gl.has_applicable_rule(c6(), [0], 1.0) == "ii"

    @pytest.mark.parametrize("L", [0.0, -1.0])
    def test_has_applicable_rule_rejects_nonpositive_scale(self, L):
        with pytest.raises(ValueError):
            gl.has_applicable_rule(c6(), [1, 3], L)

    # one vertex checks the base before the n <= 1 shortcut
    @pytest.mark.parametrize("g", [c6(), gl.Graph(1, [])],
                             ids=["c6", "one-vertex"])
    @pytest.mark.parametrize("base", [1.0, 0.5])
    def test_log_base_must_exceed_one(self, g, base):
        with pytest.raises(ValueError, match="log base must exceed 1"):
            gl.build_skeleton(g, self.good_labeling(g), L=1.0, t=1,
                              log_base=base)

    # Total rule-search spend to the fixed point: a node_budget equal to
    # it passes and one below it raises.  Only probes that run are charged,
    # and rule (i) never re-probes an edge that has failed.  The high scan
    # tries rule (i) first in every round, so its spend is what the cursor
    # saves; the low scan reaches rule (i) here only on the empty W and at
    # the fixed point, where every edge it passed over first touches W.
    @pytest.mark.parametrize("seed, order, spend, size", [
        (100, "low", 660, 37), (100, "high", 467, 37),
        (101, "low", 635, 43), (101, "high", 519, 43),
        (102, "low", 706, 40), (102, "high", 292, 40),
    ])
    def test_search_spend_pinned(self, seed, order, spend, size):
        g = gl.generate_er(60, 2.5, seed=seed)
        lab = self.good_labeling(g)
        L = 2 / math.log(g.n)
        comps = gl.build_skeleton(g, lab, L, t=1000, scan_order=order,
                                  node_budget=spend)
        assert sum(len(c) for c in comps) == size
        with pytest.raises(gl.BudgetExceededError):
            gl.build_skeleton(g, lab, L, t=1000, scan_order=order,
                              node_budget=spend - 1)

    def test_rejects_bad_scan_order(self):
        with pytest.raises(ValueError):
            gl.build_skeleton(c6(), self.good_labeling(c6()), L=1.0, t=1,
                              scan_order="sideways")


def full_rescan_rule_i(g, sk, cap, budget, high):
    """Rule (i) as a full rescan: every round probes every edge outside W
    again, from the first edge in scan order."""
    if cap <= 3.0:
        return None
    W = sk.W
    edges = [e for e in g.edges if e[0] not in W and e[1] not in W]
    for u, v in (reversed(edges) if high else edges):
        path = gl_blocks._short_path(g, W, u, {v}, math.ceil(cap) - 2,
                                     budget, banned=v)
        if path:
            return path
    return None


def record_growth(monkeypatch, g, order):
    """(additions in order, components) of build_skeleton at L = 2/ln n."""
    additions = []
    add = gl_blocks._Skeleton.add

    def recording_add(sk, vertices):
        additions.append(tuple(vertices))
        return add(sk, vertices)

    with monkeypatch.context() as m:
        m.setattr(gl_blocks._Skeleton, "add", recording_add)
        comps = gl.build_skeleton(g, None, 2 / math.log(g.n), t=1000,
                                  scan_order=order)
    return additions, comps


GROWTH_GRAPHS = ([(60, seed) for seed in range(100, 130)]
                 + [(400, seed) for seed in range(4)])


class TestRuleICursor:
    """Resuming rule (i)'s edge scan where it last fired against the full
    rescan: W only grows, so an edge whose probe failed fails for good."""

    @pytest.mark.parametrize("order", ["low", "high"])
    def test_same_growth_as_full_rescan(self, monkeypatch, order):
        for n, seed in GROWTH_GRAPHS:
            g = gl.generate_er(n, 2.5, seed=seed)
            got = record_growth(monkeypatch, g, order)
            with monkeypatch.context() as m:
                m.setattr(gl_blocks, "_RULES",
                          gl_blocks._RULES[:2] + (("i", full_rescan_rule_i),))
                want = record_growth(monkeypatch, g, order)
            assert got == want, (n, seed)

    @pytest.mark.parametrize("order", ["low", "high"])
    def test_each_edge_probed_at_most_once(self, monkeypatch, order):
        probes = []
        short_path = gl_blocks._short_path

        def counting(*args, banned=None, **kwargs):
            probes.append(banned is not None)
            return short_path(*args, banned=banned, **kwargs)

        monkeypatch.setattr(gl_blocks, "_short_path", counting)
        for n, seed in [(60, 100), (60, 101), (60, 102), (400, 0)]:
            g = gl.generate_er(n, 2.5, seed=seed)
            probes.clear()
            gl.build_skeleton(g, None, 2 / math.log(n), t=1000,
                              scan_order=order)
            assert 0 < sum(probes) <= g.m, (n, seed)


class TestBuildBlocks:
    def test_tree_becomes_singletons_and_trees(self):
        g = gl.Graph(3, [(0, 1), (1, 2)])
        lab = gl.classify(g, c=10, alpha=0.5, eps=1e9)
        part = gl.build_blocks(g, lab, [], L=1.0)
        kinds = sorted(b.kind for b in part.blocks)
        assert kinds == ["singleton"] * 3
        covered = sorted(v for b in part.blocks for v in b.vertices)
        assert covered == [0, 1, 2]

    def test_bad_unit_absorbs_good_neighbors(self):
        g = gl.Graph(3, [(0, 1), (1, 2)])
        lab = gl.classify(g, c=10, alpha=0.5, eps=1.0,
                          phi=[0.0, 10.0, 0.0])
        part = gl.build_blocks(g, lab, [], L=1.0)
        assert len(part.blocks) == 1
        assert part.blocks[0].vertices == (0, 1, 2)
        assert part.blocks[0].kind == "tree"

    def test_units_near_skeleton_join_it(self):
        g = c6()
        lab = gl.classify(g, c=10, alpha=0.5, eps=1e9)
        skeleton = gl.build_skeleton(g, lab, L=1.0, t=1)
        part = gl.build_blocks(g, lab, skeleton, L=1.0, t=1)
        assert len(part.blocks) == 1
        assert part.blocks[0].kind == "skeleton"
        assert part.blocks[0].vertices == (0, 1, 2, 3, 4, 5)
        assert part.blocks[0].pieces == ()

    def test_pieces_have_unique_roots(self):
        # triangle with two tails: tails become pieces of the skeleton
        g = gl.Graph(7, [(0, 1), (0, 2), (1, 2), (1, 3), (3, 4), (2, 5),
                         (5, 6)])
        lab = gl.classify(g, c=10, alpha=0.5, eps=1e9)
        skeleton = gl.build_skeleton(g, lab, L=1.0, t=1)
        part = gl.build_blocks(g, lab, skeleton, L=1.0, t=1)
        blk = part.blocks[0]
        assert blk.kind == "skeleton"
        assert sorted(blk.skeleton) == [0, 1, 2]
        roots = sorted(p.root for p in blk.pieces)
        assert roots == [1, 2]

    def test_good_chain_between_classes_stays_apart(self):
        # bad classes {0, 1} and {5, 6} joined by the good chain 2-3-4:
        # 2 and 4 join the class they touch, and 3, whose neighbours are
        # both good, stands alone
        g = gl.Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
        lab = gl.classify(g, c=10, alpha=0.5, eps=1.0,
                          phi=[10.0, 10.0, 0.0, 0.0, 0.0, 10.0, 10.0])
        assert gl.bad_classes(g, lab) == [(0, 1), (5, 6)]
        part = gl.build_blocks(g, lab, [], L=1.0)
        assert [(b.kind, b.vertices) for b in part.blocks] == [
            ("tree", (0, 1, 2)), ("singleton", (3,)), ("tree", (4, 5, 6))]

    @pytest.mark.parametrize("bad_share", [0.0, 0.1, 0.3, 0.6, 1.0])
    @pytest.mark.parametrize("d", [0.0, 1.0, 2.5])
    def test_units_match_oracle(self, bad_share, d):
        # with no skeleton every unit is a block of its own
        for seed in range(8):
            g = gl.generate_er(60, d, seed=seed)
            rng = np.random.default_rng(seed)
            phi = np.where(rng.random(g.n) < bad_share, 10.0, 0.0)
            lab = gl.classify(g, c=100, alpha=0.5, eps=1.0, phi=phi)
            part = gl.build_blocks(g, lab, [], L=1.0)
            got = [frozenset(b.vertices) for b in part.blocks]
            assert got == oracle_units(g, lab)
            assert all(b.kind == ("singleton" if len(b.vertices) == 1
                                  else "tree") for b in part.blocks)


class TestBlockDiameter:
    """The MS-BFS diameter against the all-sources oracle."""

    def test_random_vertex_sets(self):
        rng = np.random.default_rng(12)
        disconnected = 0
        for seed in range(300):
            n = int(rng.integers(10, 80))
            g = gl.generate_er(n, float(rng.choice([1.5, 2.5, 4.0])),
                               seed=seed)
            k = int(rng.integers(1, n + 1))
            vertices = tuple(int(v) for v in rng.permutation(n)[:k])
            want = oracle_block_diameter(g, vertices)
            assert gl_blocks._block_diameter(g, vertices) == want
            assert gl_blocks._block_diameter(g, sorted(vertices)) == want
            disconnected += want == math.inf
        assert 30 < disconnected < 270

    def test_single_vertices_paths_and_cycles(self):
        # n = 300 spans two 256-source chunks, and its depths need uint16
        # codes (far = 512)
        for n in (*range(1, 41), 300):
            path = gl.Graph(n, [(i, i + 1) for i in range(n - 1)])
            assert gl_blocks._block_diameter(path, (n - 1,)) == 0
            assert gl_blocks._block_diameter(path, tuple(range(n))) == n - 1
            if n >= 3:
                cycle = gl.Graph(n, [(i, (i + 1) % n) for i in range(n)])
                assert (gl_blocks._block_diameter(cycle, tuple(range(n)))
                        == n // 2)
                # the cycle less one vertex is a path
                assert (gl_blocks._block_diameter(cycle, tuple(range(1, n)))
                        == oracle_block_diameter(cycle, range(1, n)) == n - 2)

    def test_two_paths_disconnected_in_every_chunk(self):
        # two disjoint 300-vertex paths: 600 sources in three chunks
        n = 300
        twin = gl.Graph(2 * n, [(i, i + 1) for i in range(2 * n - 1)
                                if i != n - 1])
        assert gl_blocks._block_diameter(twin, tuple(range(2 * n))) == math.inf

    def test_giant_skeleton_block_takes_fewer_bfs(self, monkeypatch):
        # the giant skeleton block (339 vertices) of G(400, 2.5/400), seed
        # 3, in criterion 6's regime: its diameter comes from the MS-BFS
        # depth codes alone, with no dict BFS per source
        g = gl.generate_er(400, 2.5, seed=3)
        hp = gl.HypothesisParams(a=1.0, alpha=0.5, t=1000, delta=100.0)
        part = gl.decompose(g, hp, L=2 / math.log(g.n))
        block = max(part.blocks, key=lambda b: len(b.vertices))
        assert block.kind == "skeleton" and len(block.vertices) == 339
        assert oracle_block_diameter(g, block.vertices) == 13
        calls = []
        bfs = gl_blocks.bfs_distances

        def counting(*args, **kwargs):
            calls.append(args)
            return bfs(*args, **kwargs)

        monkeypatch.setattr(gl_blocks, "bfs_distances", counting)
        assert gl_blocks._block_diameter(g, block.vertices) == 13
        assert calls == []

    @pytest.mark.parametrize("d", [1.0, 1.5, 2.0, 3.0])
    def test_er_components(self, d):
        for seed in range(25):
            g = gl.generate_er(300, d, seed=seed)
            for comp in induced_components(g, range(g.n)):
                assert (gl_blocks._block_diameter(g, comp)
                        == oracle_block_diameter(g, comp))


def reference_owner_checks(g, partition):
    """Reference for validate_partition's cover, cross-edges and
    boundary-good records, computed block by block: the interior of each
    block comes from its own boundaries() call."""
    labeling = partition.labeling
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
        for v in gl.boundaries(g, b.vertices).interior:
            if not labeling.is_good(v):
                bad_boundary.append({"block": i, "vertex": v})
    report.add(CheckRecord(
        check="boundary-good", passed=not bad_boundary,
        witness={"violations": bad_boundary[:10]}))
    return [r.to_json_dict() for r in report.records]


def random_partition(g, seed, sizes=(1, 6), bad_share=0.3, missing=0,
                     dup_within=0, dup_across=0, extra=()):
    """Shuffled vertices cut into blocks of sizes[0]..sizes[1] vertices, a
    random labeling with about bad_share bad vertices, then the
    corruptions asked for: vertices left out, repeated in their own block
    or added to another, and the vertices of ``extra`` appended to the
    last block."""
    rng = random.Random(seed)
    order = list(range(g.n))
    rng.shuffle(order)
    order = order[missing:]
    groups = []
    while order:
        k = rng.randint(*sizes)
        groups.append(order[:k])
        order = order[k:]
    for _ in range(dup_within):
        group = rng.choice(groups)
        group.insert(rng.randrange(len(group) + 1), rng.choice(group))
    for _ in range(dup_across):
        rng.choice(groups).append(rng.randrange(g.n))
    groups[-1].extend(extra)
    phi = [float(rng.random() < bad_share) for _ in range(g.n)]
    lab = gl.classify(g, c=g.n, alpha=0.5, eps=0.5, phi=phi)
    blocks = tuple(gl.Block("singleton" if len(b) == 1 else "tree",
                            tuple(b)) for b in groups)
    return gl.BlockPartition(blocks=blocks, L=1.0, log_base=math.e, t=1,
                             labeling=lab)


# (n, mean degree, random_partition keywords): 25 seeded partitions
OWNER_CASES = (
    [(60, 3.0, dict(seed=s)) for s in range(6)]
    # all good singletons: every check passes
    + [(60, 3.0, dict(seed=s, sizes=(1, 1), bad_share=0.0))
       for s in range(2)]
    + [(60, 3.0, dict(seed=s, missing=5)) for s in range(3)]
    + [(60, 3.0, dict(seed=s, dup_within=4)) for s in range(3)]
    + [(60, 3.0, dict(seed=s, dup_across=4)) for s in range(3)]
    + [(60, 3.0, dict(seed=s, missing=3, dup_within=2, dup_across=6))
       for s in range(3)]
    # every block pair of a dense graph carries several cross edges
    + [(40, 20.0, dict(seed=s, sizes=(8, 10), dup_across=3))
       for s in range(2)]
    # far more than ten bad vertices on block boundaries
    + [(120, 3.0, dict(seed=s, bad_share=0.8, dup_within=2))
       for s in range(3)])


class TestValidateOwnerMap:
    @pytest.mark.parametrize("n, d, kw", OWNER_CASES)
    def test_records_equal_reference(self, n, d, kw):
        g = gl.generate_er(n, d, kw["seed"])
        part = random_partition(g, **kw)
        got = [r.to_json_dict()
               for r in gl.validate_partition(g, part).records[:3]]
        assert got == reference_owner_checks(g, part)

    def test_shared_vertex_lies_inside_each_of_its_blocks(self):
        # 2 lies in blocks 0 and 1, so bad vertex 1 has no neighbour
        # outside block 0; bad vertex 3 has one, 4, outside block 1
        g = gl.Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        lab = gl.classify(g, c=10, alpha=0.5, eps=0.5,
                          phi=[0.0, 1.0, 0.0, 1.0, 0.0])
        blocks = (gl.Block("tree", (0, 1, 2)), gl.Block("tree", (2, 3)),
                  gl.Block("singleton", (4,)))
        part = gl.BlockPartition(blocks=blocks, L=1.0, log_base=math.e,
                                 t=1, labeling=lab)
        got = [r.to_json_dict()
               for r in gl.validate_partition(g, part).records[:3]]
        assert got == reference_owner_checks(g, part)
        assert got[2]["witness"] == {"violations": [{"block": 1,
                                                     "vertex": 3}]}

    def test_cases_reach_every_witness_cap(self):
        seen = set()
        for n, d, kw in OWNER_CASES:
            g = gl.generate_er(n, d, kw["seed"])
            cover, cross, boundary = reference_owner_checks(
                g, random_partition(g, **kw))
            if cover["witness"]["missing"]:
                seen.add("missing")
            if cover["witness"]["duplicated"]:
                seen.add("duplicated")
            pairs = cross["witness"]["pairs"]
            if len(pairs) == 5 and all(len(p["edges"]) == 4 for p in pairs):
                seen.add("pairs")
            if len(boundary["witness"]["violations"]) == 10:
                seen.add("violations")
            if cover["pass"] and cross["pass"] and boundary["pass"]:
                seen.add("valid")
        assert seen == {"missing", "duplicated", "pairs", "violations",
                        "valid"}

    def test_decompositions_equal_reference(self):
        hp = gl.HypothesisParams(a=1.0, alpha=0.5, t=1000, delta=100.0)
        for seed in (1, 2):
            g = gl.generate_er(400, 2.5, seed)
            part = gl.decompose(g, hp, L=2 / math.log(400))
            assert any(b.kind == "skeleton" for b in part.blocks)
            got = [r.to_json_dict()
                   for r in gl.validate_partition(g, part).records[:3]]
            assert got == reference_owner_checks(g, part)

    @pytest.mark.parametrize("extra, labeled, message", [
        ((63,), True, "vertex 63 out of range"),
        ((-1,), True, "vertex -1 out of range"),
        ((5, 70, 61), True, None),
        ((63,), False, "boundary check needs the good/bad labeling"),
    ])
    def test_errors_follow_the_first_two_records(self, monkeypatch, extra,
                                                 labeled, message):
        g = gl.generate_er(60, 3.0, 4)
        part = random_partition(g, 4, extra=extra)
        if not labeled:
            part.labeling = None
        with pytest.raises(ValueError) as want:
            reference_owner_checks(g, part)
        if message is not None:
            assert str(want.value) == message
        added = []

        class Recording(Report):
            def add(self, rec):
                added.append(rec.check)
                super().add(rec)

        monkeypatch.setattr(gl_blocks, "Report", Recording)
        with pytest.raises(ValueError) as got:
            gl.validate_partition(g, part)
        assert str(got.value) == str(want.value)
        assert added == ["cover", "cross-edges"]


class TestValidatePartition:
    CHECKS = ["cover", "cross-edges", "boundary-good", "diameter",
              "skeleton-structure", "skeleton-separation"]

    def test_forest_partition_passes(self):
        g = gl.random_tree(40, seed=5)
        hp = gl.HypothesisParams(a=2.0, alpha=0.3, t=1, delta=2.0)
        part = gl.decompose(g, hp)
        rep = gl.validate_partition(g, part)
        assert rep.passed
        assert [r.check for r in rep.records] == self.CHECKS

    def test_er_instance_passes(self):
        g = gl.generate_er(300, 1.5, seed=2)
        hp = gl.HypothesisParams(a=0.3, alpha=0.25, t=1, delta=2.5)
        chk = gl.check_hypothesis(g, hp)
        assert chk.passed
        part = gl.decompose(g, hp, phi=chk.phi)
        rep = gl.validate_partition(g, part)
        assert rep.passed

    def test_corrupted_cover_fails(self):
        g = gl.random_tree(10, seed=3)
        hp = gl.HypothesisParams(a=2.0, alpha=0.3, t=1, delta=2.0)
        part = gl.decompose(g, hp)
        broken = gl.BlockPartition(blocks=part.blocks[1:], L=part.L,
                                   log_base=part.log_base, t=part.t,
                                   labeling=part.labeling)
        rep = gl.validate_partition(g, broken)
        cover = next(r for r in rep.records if r.check == "cover")
        assert not cover.passed

    def test_merged_blocks_fail_cross_edges(self):
        # one block holding two adjacent singletons breaks the one-edge rule
        g = gl.Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        lab = gl.classify(g, c=10, alpha=0.5, eps=1e9)
        blocks = (gl.Block("tree", (0, 1, 2)), gl.Block("singleton", (3,)))
        part = gl.BlockPartition(blocks=blocks, L=1.0, log_base=math.e,
                                 t=1, labeling=lab)
        rep = gl.validate_partition(g, part)
        cross = next(r for r in rep.records if r.check == "cross-edges")
        assert not cross.passed

    def test_bad_boundary_vertex_detected(self):
        g = gl.Graph(3, [(0, 1), (1, 2)])
        lab = gl.classify(g, c=10, alpha=0.5, eps=1.0,
                          phi=[0.0, 10.0, 0.0])
        # vertex 1 is bad but placed on a block boundary
        blocks = (gl.Block("tree", (0, 1)), gl.Block("singleton", (2,)))
        part = gl.BlockPartition(blocks=blocks, L=1.0, log_base=math.e,
                                 t=1, labeling=lab)
        rep = gl.validate_partition(g, part)
        bg = next(r for r in rep.records if r.check == "boundary-good")
        assert not bg.passed


class TestPartitionIO:
    def test_round_trip(self, tmp_path):
        g = gl.generate_er(120, 1.5, seed=4)
        hp = gl.HypothesisParams(a=0.5, alpha=0.25, t=1, delta=2.5)
        part = gl.decompose(g, hp)
        p = tmp_path / "part.json"
        gl.write_partition(part, p)
        back = gl.read_partition(p)
        assert back.L == part.L and back.t == part.t
        assert back.blocks == part.blocks

    def test_owner_map_total(self):
        g = gl.random_tree(25, seed=7)
        hp = gl.HypothesisParams(a=2.0, alpha=0.3, t=1, delta=2.0)
        part = gl.decompose(g, hp)
        owner = part.owner_map()
        assert sorted(owner) == list(range(25))
