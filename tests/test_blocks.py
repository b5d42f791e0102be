import math

import pytest

import glauberlab as gl


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

    def test_excess_bound_enforced(self):
        g = c6()
        with pytest.raises(gl.SkeletonBoundError):
            gl.build_skeleton(g, self.good_labeling(g), L=1.0, t=0)

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

    # Total rule-search spend to the fixed point, recorded on the
    # hand-written BFS loops this search replaced: a node_budget equal to
    # it passes and one below it raises.
    @pytest.mark.parametrize("seed, order, spend, size", [
        (100, "low", 660, 37), (100, "high", 1052, 37),
        (101, "low", 635, 43), (101, "high", 861, 43),
        (102, "low", 706, 40), (102, "high", 620, 40),
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

    def test_split_classes_rejected(self):
        g = gl.Graph(3, [(0, 1), (1, 2)])
        lab = gl.classify(g, c=10, alpha=0.5, eps=1.0,
                          phi=[10.0, 0.0, 10.0])
        with pytest.raises(gl.LabelingInconsistencyError):
            gl.build_blocks(g, lab, [], L=1.0, classes=[(0,), (2,)])

    def test_good_vertex_in_class_rejected(self):
        g = gl.Graph(3, [(0, 1), (1, 2)])
        lab = gl.classify(g, c=10, alpha=0.5, eps=1e9)
        with pytest.raises(gl.LabelingInconsistencyError):
            gl.build_blocks(g, lab, [], L=1.0, classes=[(0,)])


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
