import dataclasses
import itertools
import math
import random

import pytest

import glauberlab as gl
from glauberlab import dynamics
from glauberlab import rng as gl_rng
from glauberlab.cli import _scaling_start_pair
from glauberlab.trees import _child_conditional
from glauberlab.zoo import skeleton_block_cases


def triangle():
    return gl.Graph(3, [(0, 1), (0, 2), (1, 2)])


def path3():
    return gl.Graph(3, [(0, 1), (1, 2)])


class TestRunChain:
    def test_pinned_trajectory(self):
        # frozen regression: exact endpoint of a seeded run
        st, trace = gl.run_chain(gl.coloring_model(4), triangle(),
                                 (0, 1, 2), 1000, seed=7,
                                 reference=(0, 1, 2))
        assert tuple(st.config) == (2, 0, 1)
        assert trace[-1] == (1000, 3, 2)

    def test_deterministic(self):
        a, ta = gl.run_chain(gl.coloring_model(3), path3(), (0, 1, 0),
                             500, seed=11)
        b, tb = gl.run_chain(gl.coloring_model(3), path3(), (0, 1, 0),
                             500, seed=11)
        assert tuple(a.config) == tuple(b.config)
        assert ta == tb

    def test_zero_steps_identity(self):
        st, trace = gl.run_chain(gl.coloring_model(3), path3(), (0, 1, 0),
                                 0, seed=1)
        assert tuple(st.config) == (0, 1, 0)
        # columns: step, hamming to reference, nonzero-state count
        assert trace == [(0, 0, 1)]

    def test_rejects_infeasible_start(self):
        with pytest.raises(ValueError):
            gl.run_chain(gl.coloring_model(3), path3(), (0, 0, 1), 10)

    def test_trace_endpoints_and_stride(self):
        _, trace = gl.run_chain(gl.hardcore_model(0.5), path3(), (0, 0, 0),
                                100, seed=2, stride=10)
        assert trace[0][0] == 0 and trace[-1][0] == 100
        assert [row[0] for row in trace] == list(range(0, 101, 10))

    def test_moves_stay_feasible(self):
        m = gl.hardcore_model(1.0)
        g = gl.generate_er(30, 2.0, seed=3)
        st, _ = gl.run_chain(m, g, (0,) * 30, 2000, seed=4)
        assert gl.is_feasible(m, g, st.config)

    def test_hamming_counts_reference_disagreements(self):
        ref = (0, 1, 0)
        _, trace = gl.run_chain(gl.coloring_model(3), path3(), ref, 200,
                                seed=5, reference=ref, stride=1)
        # spot-check: recompute from a fresh identical run's endpoint
        st, _ = gl.run_chain(gl.coloring_model(3), path3(), ref, 200,
                             seed=5)
        want = sum(1 for a, b in zip(st.config, ref) if a != b)
        assert trace[-1][1] == want


class TestVisitCounts:
    def test_frozen_chain_never_moves(self):
        counts = gl.visit_counts(gl.coloring_model(3), triangle(),
                                 (0, 1, 2), 5000, seed=1)
        assert counts == {(0, 1, 2): 5000}

    def test_ergodic_chain_approaches_uniform(self):
        # path q=3 has 12 proper colorings, all equally likely
        counts = gl.visit_counts(gl.coloring_model(3), path3(),
                                 (0, 1, 0), 10 ** 5, seed=1)
        total = sum(counts.values())
        tv = 0.5 * sum(abs(c / total - 1 / 12) for c in counts.values())
        tv += 0.5 * (12 - len(counts)) / 12
        assert tv < 0.02


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        st, _ = gl.run_chain(gl.coloring_model(3), path3(), (0, 1, 0),
                             100, seed=9)
        p = tmp_path / "chain.ckpt"
        gl.write_checkpoint(p, st)
        back = gl.read_checkpoint(p)
        assert back.step == st.step
        assert tuple(back.config) == tuple(st.config)

    def test_resume_matches_uninterrupted(self, tmp_path):
        m, g = gl.coloring_model(4), triangle()
        full, _ = gl.run_chain(m, g, (0, 1, 2), 2000, seed=13)
        half, _ = gl.run_chain(m, g, (0, 1, 2), 1000, seed=13)
        p = tmp_path / "half.ckpt"
        gl.write_checkpoint(p, half)
        resumed = gl.resume_chain(m, g, gl.read_checkpoint(p), 1000)
        assert tuple(resumed.config) == tuple(full.config)
        assert resumed.step == full.step == 2000


class TestMaximalCoupling:
    def test_entries_have_correct_marginals(self):
        cases = [
            ([0.5, 0.5, 0.0], [0.0, 0.5, 0.5]),
            ([1.0, 0.0], [0.0, 1.0]),
            ([0.2, 0.3, 0.5], [0.2, 0.3, 0.5]),
            ([0.7, 0.1, 0.2], [0.1, 0.6, 0.3]),
        ]
        for p, q in cases:
            entries = gl.maximal_coupling_entries(p, q)
            left = [0.0] * len(p)
            right = [0.0] * len(q)
            for i, j, mass in entries:
                assert mass > 0.0
                left[i] += mass
                right[j] += mass
            assert left == pytest.approx(p, abs=1e-12)
            assert right == pytest.approx(q, abs=1e-12)

    def test_diagonal_mass_is_overlap(self):
        p, q = [0.7, 0.1, 0.2], [0.1, 0.6, 0.3]
        entries = gl.maximal_coupling_entries(p, q)
        diag = sum(m for i, j, m in entries if i == j)
        overlap = sum(min(a, b) for a, b in zip(p, q))
        assert diag == pytest.approx(overlap, abs=1e-12)

    def test_sampler_inverts_entries(self):
        p, q = [0.5, 0.5], [0.25, 0.75]
        entries = gl.maximal_coupling_entries(p, q)
        # walk the CDF: each u lands in the entry covering it
        acc = 0.0
        for i, j, mass in entries:
            mid = acc + mass / 2
            assert gl.sample_maximal_coupling(p, q, mid) == (i, j)
            acc += mass

    def test_identical_distributions_always_agree(self):
        p = [0.3, 0.3, 0.4]
        for k in range(20):
            i, j = gl.sample_maximal_coupling(p, p, k / 20 + 0.01)
            assert i == j


class TestCoalescence:
    def test_pinned_time(self):
        t = gl.coalescence_time(gl.coloring_model(4), triangle(),
                                (0, 1, 2), (2, 0, 1), 10 ** 6, seed=3)
        assert t == 86

    def test_equal_starts_coalesce_immediately(self):
        t = gl.coalescence_time(gl.coloring_model(4), triangle(),
                                (0, 1, 2), (0, 1, 2), 100, seed=1)
        assert t == 0

    def test_horizon_returns_none(self):
        # frozen triangle q=3 chains never move, so distinct starts stay apart
        t = gl.coalescence_time(gl.coloring_model(3), triangle(),
                                (0, 1, 2), (1, 2, 0), 500, seed=1)
        assert t is None

    # Recorded before the coupled loop kept the off[] counts and the
    # colorings coupled from their taken sets: (lazy, non-lazy) steps on
    # G(1500, 2/1500) from the scaling start pair, graph and chain seed s.
    @pytest.mark.parametrize("model, s, want", [
        (gl.coloring_model(8), 1, (35699, 20064)),
        (gl.coloring_model(8), 2, (45396, 22861)),
        (gl.coloring_model(8), 3, (33336, 20975)),
        (gl.coloring_model(12), 1, (35699, 12589)),
        (gl.coloring_model(12), 2, (23412, 16380)),
        (gl.coloring_model(12), 3, (32356, 12138)),
        (gl.hardcore_model(1.0), 1, (213816, 80807)),
        (gl.hardcore_model(1.0), 2, (314230, 112610)),
        (gl.hardcore_model(1.0), 3, (174706, 102342)),
    ])
    def test_pinned_times_on_sparse_graphs(self, model, s, want):
        g = gl.generate_er(1500, 2.0, s)
        a, b = _scaling_start_pair(model, g)
        got = tuple(gl.coalescence_time(model, g, a, b, 10 ** 7, seed=s,
                                        lazy=lazy) for lazy in (True, False))
        assert got == want


class TestContractionProbe:
    def test_triangle_q4_is_critical(self):
        # each neighbor's conditionals under the two pair states are
        # uniform on two colors with one shared: TV = 1/2 each, so the
        # expected Hamming change is (-1 + 2*(1/2))/3 = 0 exactly
        pr = gl.contraction_probe(gl.coloring_model(4), triangle(),
                                  pairs=5, seed=1)
        assert pr.worst_delta == pytest.approx(0.0, abs=1e-12)

    def test_star_q4_is_critical(self):
        # leaves see TV = 1/3 against 3 free colors; center sums 3 of them
        pr = gl.contraction_probe(gl.coloring_model(4),
                                  gl.Graph(4, [(0, 1), (0, 2), (0, 3)]),
                                  pairs=5, seed=1)
        assert pr.worst_delta == pytest.approx(0.0, abs=1e-12)

    def test_many_colors_contract(self):
        # q = 2*deg + 2 on a cycle gives strict contraction
        c5 = gl.Graph(5, [(i, (i + 1) % 5) for i in range(5)])
        pr = gl.contraction_probe(gl.coloring_model(6), c5, pairs=10,
                                  seed=2)
        assert pr.worst_delta < 0.0
        assert pr.implied_c > 0.0

    def test_deterministic(self):
        a = gl.contraction_probe(gl.coloring_model(5), triangle(), seed=4)
        b = gl.contraction_probe(gl.coloring_model(5), triangle(), seed=4)
        assert a.worst_delta == b.worst_delta and a.pairs == b.pairs


class TestBlockChain:
    def test_single_block_samples_exactly(self):
        # one tree block covering the whole graph: every block move is an
        # exact draw from the stationary law
        g = gl.Graph(4, [(0, 1), (0, 2), (0, 3)])
        m = gl.coloring_model(4)
        part = gl.BlockPartition(
            blocks=(gl.Block(kind="tree", vertices=(0, 1, 2, 3)),),
            L=1.0, log_base=math.e)
        st, _ = gl.run_block_chain(m, g, part, (0, 1, 2, 3), 200, seed=6)
        assert gl.is_feasible(m, g, st.config)
        counts = {}
        rng = gl.make_rng(8, "law")
        for _ in range(20000):
            cfg = list((0, 1, 2, 3))
            gl.block_step(m, g, part, cfg, rng)
            counts[tuple(cfg)] = counts.get(tuple(cfg), 0) + 1
        # exact stationary law: uniform over 4*3^3 = 108 proper colorings
        total = sum(counts.values())
        tv = 0.5 * sum(abs(c / total - 1 / 108) for c in counts.values())
        tv += 0.5 * (108 - len(counts)) / 108
        assert tv < 0.05

    def test_singleton_partition_preserves_feasibility(self):
        g = gl.generate_er(20, 1.5, seed=2)
        m = gl.coloring_model(5)
        part = gl.BlockPartition(
            blocks=tuple(gl.Block(kind="singleton", vertices=(v,))
                         for v in range(g.n)),
            L=1.0, log_base=math.e)
        start = gl.greedy_coloring(g, 5)
        st, trace = gl.run_block_chain(m, g, part, start, 500, seed=3)
        assert gl.is_feasible(m, g, st.config)
        assert trace[-1][0] == 500

    def test_trace_rows_equal_full_recount(self):
        # a skeleton block with two hanging trees beside singletons; the
        # chain keeps hamming/active incrementally, the replay recounts
        g = gl.Graph(10, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (2, 5),
                          (5, 6), (6, 7), (3, 8), (8, 9)])
        m = gl.coloring_model(4)
        skel = gl.Block(kind="skeleton", vertices=(0, 1, 2, 3, 4, 5),
                        skeleton=(0, 1, 2, 3),
                        pieces=(gl.Piece(root=0, vertices=(4,)),
                                gl.Piece(root=2, vertices=(5,))))
        part = gl.BlockPartition(
            blocks=(skel,) + tuple(gl.Block(kind="singleton", vertices=(v,))
                                   for v in (6, 7, 8, 9)),
            L=1.0, log_base=math.e)
        start = (0, 1, 0, 1, 1, 1, 0, 1, 0, 1)
        reference = (1, 0, 1, 0, 2, 3, 1, 2, 3, 0)
        st, trace = gl.run_block_chain(m, g, part, start, 400, seed=5,
                                       reference=reference, stride=1)
        rng = gl.make_rng(5, "block-chain")
        cfg = list(start)

        def recount(step):
            return (step, sum(1 for a, b in zip(cfg, reference) if a != b),
                    sum(1 for a in cfg if a != 0))

        want = [recount(0)]
        for step in range(1, 401):
            gl.block_step(m, g, part, cfg, rng)
            want.append(recount(step))
        assert trace == want
        assert tuple(st.config) == tuple(cfg)
        assert len({row[1:] for row in trace}) > 5


def skeleton_instance():
    # TestBlockChain's skeleton block with two hanging trees beside
    # four singletons
    g = gl.Graph(10, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (2, 5),
                      (5, 6), (6, 7), (3, 8), (8, 9)])
    skel = gl.Block(kind="skeleton", vertices=(0, 1, 2, 3, 4, 5),
                    skeleton=(0, 1, 2, 3),
                    pieces=(gl.Piece(root=0, vertices=(4,)),
                            gl.Piece(root=2, vertices=(5,))))
    part = gl.BlockPartition(
        blocks=(skel,) + tuple(gl.Block(kind="singleton", vertices=(v,))
                               for v in (6, 7, 8, 9)),
        L=1.0, log_base=math.e)
    return g, part


class TestPinnedDraws:
    """Exact outputs of every chain loop, recorded before the loops
    shared one stepper; any change to the draw order moves them."""

    @pytest.mark.parametrize("lazy, want", [
        (True, {(0, 1, 0): 8, (0, 2, 0): 3, (0, 2, 1): 10, (1, 0, 1): 5,
                (1, 0, 2): 10, (1, 2, 0): 15, (1, 2, 1): 9}),
        (False, {(0, 1, 0): 6, (0, 1, 2): 3, (0, 2, 0): 7, (0, 2, 1): 7,
                 (1, 2, 0): 12, (1, 2, 1): 9, (2, 1, 0): 9,
                 (2, 1, 2): 7}),
    ])
    def test_visit_counts(self, lazy, want):
        assert gl.visit_counts(gl.coloring_model(3), path3(), (0, 1, 0),
                               60, seed=4, lazy=lazy) == want

    def test_block_chain(self):
        g, part = skeleton_instance()
        st, trace = gl.run_block_chain(
            gl.coloring_model(4), g, part, (0, 1, 0, 1, 1, 1, 0, 1, 0, 1),
            40, seed=5, reference=(1, 0, 1, 0, 2, 3, 1, 2, 3, 0), stride=4)
        assert st.config == (1, 3, 1, 0, 0, 2, 0, 2, 3, 2)
        assert st.step == 40
        assert trace == [(0, 10, 6), (4, 10, 6), (8, 10, 7), (12, 8, 8),
                         (16, 9, 8), (20, 9, 8), (24, 9, 6), (28, 4, 6),
                         (32, 4, 7), (36, 2, 8), (40, 5, 7)]

    def test_contraction_probe_pairs(self):
        c5 = gl.Graph(5, [(i, (i + 1) % 5) for i in range(5)])
        pr = gl.contraction_probe(gl.coloring_model(6), c5, pairs=10,
                                  seed=2)
        near, far = (-0.11000000000000001, 0.44999999999999996), (-0.1, 0.5)
        want = [(0, near), (3, near), (1, near), (2, far), (2, near),
                (4, far), (1, near), (4, near), (1, near), (2, near)]
        assert pr.pairs == [{"vertex": v, "delta": d, "tv_sum": s}
                            for v, (d, s) in want]
        assert pr.worst_delta == -0.1


class TestResume:
    @pytest.mark.parametrize("model, graph, start, lazy", [
        (gl.coloring_model(4), triangle(), (0, 1, 2), False),
        (gl.hardcore_model(1.5), path3(), (0, 0, 0), True),
        (gl.hardcore_model(0.7), gl.generate_er(40, 2.0, seed=1),
         (0,) * 40, False),
    ])
    def test_matches_uninterrupted(self, tmp_path, model, graph, start,
                                   lazy):
        full, _ = gl.run_chain(model, graph, start, 900, seed=21, lazy=lazy)
        part, _ = gl.run_chain(model, graph, start, 400, seed=21, lazy=lazy)
        p = tmp_path / "part.ckpt"
        gl.write_checkpoint(p, part)
        resumed = gl.resume_chain(model, graph, gl.read_checkpoint(p), 500,
                                  lazy=lazy)
        assert resumed.config == full.config
        assert resumed.step == 900
        assert resumed.rng.getstate() == full.rng.getstate()

    def test_rejects_infeasible_state(self):
        state = gl.ChainState(config=(0, 0, 1), step=3,
                              rng=gl.make_rng(1, "chain"))
        with pytest.raises(ValueError):
            gl.resume_chain(gl.coloring_model(3), path3(), state, 10)


class TestNegativeSteps:
    def test_resume_rejects(self):
        st, _ = gl.run_chain(gl.coloring_model(3), path3(), (0, 1, 0), 20,
                             seed=1)
        with pytest.raises(ValueError):
            gl.resume_chain(gl.coloring_model(3), path3(), st, -5)

    def test_visit_counts_rejects(self):
        with pytest.raises(ValueError):
            gl.visit_counts(gl.coloring_model(3), path3(), (0, 1, 0), -5)

    def test_block_chain_rejects(self):
        g, part = skeleton_instance()
        with pytest.raises(ValueError):
            gl.run_block_chain(gl.coloring_model(4), g, part,
                               (0, 1, 0, 1, 1, 1, 0, 1, 0, 1), -5)


def count_law_builds(monkeypatch):
    """Record each block-law build that dynamics makes, as (builder,
    vertices, boundary items), in the list returned."""
    builds = []
    for name in ("skeleton_joint", "build_tree_tables"):
        def counted(model, graph, block, boundary, name=name,
                    fn=getattr(dynamics, name)):
            builds.append((name, getattr(block, "vertices", block),
                           tuple(sorted(boundary.items()))))
            return fn(model, graph, block, boundary)
        monkeypatch.setattr(dynamics, name, counted)
    return builds


@pytest.fixture(scope="module")
def populated_partition():
    # gen --n 2000 --d 2 --seed 1, decomposed as TestDecomposeWithBadVertices
    # does: two skeleton blocks with pieces and a tree block, every one
    # with a nonempty boundary
    g = gl.generate_er(2000, 2.0, seed=1)
    hp = gl.HypothesisParams(a=0.3, alpha=0.25, t=1, delta=0.15)
    return g, gl.decompose(g, hp, L=0.12)


class TestBlockLawCache:
    STEPS = 30000
    STRIDE = 100

    def test_partition_is_populated(self, populated_partition):
        g, part = populated_partition
        kinds = sorted(b.kind for b in part.blocks if b.kind != "singleton")
        assert kinds == ["skeleton", "skeleton", "tree"]
        assert all(b.pieces for b in part.blocks if b.kind == "skeleton")
        assert all(gl.exterior_boundary(g, b.vertices) for b in part.blocks
                   if b.kind != "singleton")

    @pytest.mark.parametrize("size", [None, 2], ids=["default", "evicting"])
    @pytest.mark.parametrize("model", [gl.hardcore_model(1.0),
                                       gl.coloring_model(5)],
                             ids=["hardcore", "coloring-q5"])
    def test_chain_equals_bare_replay(self, populated_partition, monkeypatch,
                                      model, size):
        g, part = populated_partition
        if size is not None:
            monkeypatch.setattr(dynamics, "LAW_CACHE_SIZE", size)
        builds = count_law_builds(monkeypatch)
        start = gl.initial_configuration(model, g)
        st, trace = gl.run_block_chain(model, g, part, start, self.STEPS,
                                       seed=4, stride=self.STRIDE)
        monkeypatch.undo()

        rng = gl.make_rng(4, "block-chain")
        cfg = list(start)
        want = [(0, 0, sum(1 for a in cfg if a))]
        lookups = 0
        for step in range(1, self.STEPS + 1):
            block = part.blocks[gl.block_step(model, g, part, cfg, rng)]
            if block.kind != "singleton":
                lookups += 1 + len(block.pieces)
            if step % self.STRIDE == 0:
                want.append((step,
                             sum(1 for a, b in zip(cfg, start) if a != b),
                             sum(1 for a in cfg if a)))
        assert trace == want
        assert st.config == tuple(cfg)
        assert len(set(builds)) < lookups
        if size is None:
            assert len(builds) == len(set(builds))
        else:
            assert len(builds) > len(set(builds))


# The block-law builders as they stood when the exact layer kept its own
# copy: per piece one tree law per root state, and a tree law with one
# branch for roots and one for children.  compose_block_law and tree_law
# must return equal dicts, in the same key order.

def reference_tree_law(tables):
    partial = [({}, 1.0)]
    for v in tables.order:
        if v in tables.parent:
            nxt = []
            for assign, p in partial:
                cond = _child_conditional(tables, v, assign[tables.parent[v]])
                for x in range(tables.model.q):
                    if cond[x] > 0.0:
                        a = dict(assign)
                        a[v] = x
                        nxt.append((a, p * cond[x]))
            partial = nxt
        else:
            law = gl.tree_root_law(tables, v)
            nxt = []
            for assign, p in partial:
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


def reference_compose_block_law(model, graph, block, boundary):
    joint = gl.skeleton_joint(model, graph, block, boundary)
    W = joint.w_vertices
    wpos = {w: i for i, w in enumerate(W)}
    allv = tuple(sorted(block.vertices))

    piece_laws = []
    for piece in block.pieces:
        pset = set(piece.vertices)
        pinned_base = {}
        for u in pset:
            for x in graph.adj[u]:
                if x in pset or x == piece.root:
                    continue
                if x not in boundary:
                    raise ValueError(
                        f"boundary missing state for vertex {x}")
                pinned_base[x] = boundary[x]
        laws = {}
        for x in range(model.q):
            pinned = dict(pinned_base)
            pinned[piece.root] = x
            try:
                tables = gl.build_tree_tables(model, graph, piece.vertices,
                                              pinned)
            except gl.BoundaryInfeasibleError:
                laws[x] = None
                continue
            laws[x] = reference_tree_law(tables)
        piece_laws.append((piece, laws))

    out = {}
    for xi, qp in zip(joint.states, joint.probs):
        partial = [({w: xi[wpos[w]] for w in W}, float(qp))]
        for piece, laws in piece_laws:
            law = laws[xi[wpos[piece.root]]]
            if law is None:
                partial = []
                break
            block_order = tuple(sorted(piece.vertices))
            nxt = []
            for assign, p in partial:
                for cfg, pl in law.items():
                    a = dict(assign)
                    for u, x in zip(block_order, cfg):
                        a[u] = x
                    nxt.append((a, p * pl))
            partial = nxt
        for assign, p in partial:
            key = tuple(assign[u] for u in allv)
            out[key] = out.get(key, 0.0) + p
    return out


# Largest q^|block| a reference case may have: the composed law lists
# every feasible block state.
STATE_CAP = 5000


class TestComposeBlockLaw:
    def test_cases_equal_reference(self):
        for name, model, graph, block, boundary in skeleton_block_cases():
            got = gl.compose_block_law(model, graph, block, boundary)
            want = reference_compose_block_law(model, graph, block,
                                               boundary)
            assert list(got.items()) == list(want.items()), name

    @pytest.mark.parametrize("model", [
        gl.hardcore_model(1.0), gl.hardcore_model(-0.4),
        gl.soft_model((0.0, 0.3), ((-0.98, 0.25), (0.25, 0.5)))],
        ids=["hardcore-1.0", "hardcore-neg0.4", "soft-q2"])
    def test_populated_blocks_equal_reference(self, populated_partition,
                                              model):
        g, part = populated_partition
        blocks = [b for b in part.blocks if b.kind == "skeleton"
                  and model.q ** len(b.vertices) <= STATE_CAP]
        assert blocks
        rng = gl.make_rng(5, "compose-reference")
        cfg = list(gl.initial_configuration(model, g))
        seen = set()
        for step in range(1, 3001):
            gl.block_step(model, g, part, cfg, rng)
            if step % 100:
                continue
            for block in blocks:
                ext = gl.exterior_boundary(g, block.vertices)
                boundary = {w: cfg[w] for w in ext}
                key = (block.vertices, tuple(boundary.items()))
                if key in seen:
                    continue
                seen.add(key)
                got = gl.compose_block_law(model, g, block, boundary)
                want = reference_compose_block_law(model, g, block,
                                                   boundary)
                assert list(got.items()) == list(want.items())
        assert len(seen) > len(blocks)

    def test_tree_law_equals_reference(self):
        rng = gl.make_rng(6, "tree-law-reference")
        models = [gl.coloring_model(3), gl.hardcore_model(0.8),
                  gl.hardcore_model(-1.2),
                  gl.soft_model((0.1, -0.2, 0.3),
                                ((-0.98, 0.4, -0.3), (0.4, 0.2, -0.5),
                                 (-0.3, -0.5, 0.7)))]
        compared = 0
        while compared < 200:
            model = models[rng.randrange(len(models))]
            tree = gl.random_tree(rng.randint(2, 12), seed=rng.randrange(99))
            size = rng.randint(1, tree.n)
            while model.q ** size > STATE_CAP:
                size -= 1
            block = rng.sample(range(tree.n), size)
            boundary = {w: rng.randrange(model.q)
                        for w in gl.exterior_boundary(tree, block)}
            try:
                tables = gl.build_tree_tables(model, tree, block, boundary)
            except gl.BoundaryInfeasibleError:
                continue
            got = gl.tree_law(tables)
            want = reference_tree_law(tables)
            assert list(got.items()) == list(want.items())
            compared += 1

    def test_tree_block_is_rejected(self, populated_partition):
        g, part = populated_partition
        block = next(b for b in part.blocks if b.kind == "tree")
        boundary = {w: 0 for w in gl.exterior_boundary(g, block.vertices)}
        with pytest.raises(ValueError):
            gl.compose_block_law(gl.hardcore_model(0.0), g, block, boundary)

    def test_missing_boundary_vertex_is_rejected(self):
        name, model, graph, block, boundary = next(
            c for c in skeleton_block_cases() if c[0] == "tri-tail-q3")
        assert boundary
        with pytest.raises(ValueError, match="boundary missing state"):
            gl.compose_block_law(model, graph, block, {})


# The chain loops as they stood before every single-site and coupled chain
# drew through dynamics._site_draws: a per-step closure that calls
# rng.randrange, the traced loop over its (vertex, old) pairs, and
# coalescence_time's own copy of the coin -> vertex -> uniform order.
# Every generator is seeded through glauberlab.rng.make_rng, so a test can
# record it.

def reference_single_site(kernel, rng, lazy):
    n = kernel.graph.n
    draw = kernel.draw
    coin = uniform = rng.random
    vertex = rng.randrange

    def step(config):
        if lazy and coin() < 0.5:
            return ()
        v = vertex(n)
        old = config[v]
        config[v] = draw(config, v, uniform())
        return ((v, old),)
    return step


def reference_traced(model, graph, start, steps, rng, step, reference=None,
                     stride=None):
    start = dynamics._checked_start(model, graph, start, steps)
    reference = start if reference is None else tuple(reference)
    if stride is None:
        stride = max(1, steps // 10 ** 4)
    elif stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    config = list(start)
    hamming = sum(1 for a, b in zip(config, reference) if a != b)
    active = sum(1 for a in config if a != 0)
    trace = [(0, hamming, active)]
    for t in range(1, steps + 1):
        for v, old in step(config):
            new = config[v]
            if old != new:
                hamming += (new != reference[v]) - (old != reference[v])
                active += (new != 0) - (old != 0)
        if t % stride == 0 or t == steps:
            trace.append((t, hamming, active))
    return gl.ChainState(config=tuple(config), step=steps, rng=rng), trace


def reference_run_chain(model, graph, start, steps, seed=0, lazy=True,
                        reference=None, stride=None):
    rng = gl_rng.make_rng(seed, "chain")
    step = reference_single_site(gl.HeatBath(model, graph), rng, lazy)
    return reference_traced(model, graph, start, steps, rng, step,
                            reference, stride)


def reference_resume_chain(model, graph, state, steps, lazy=True):
    step = reference_single_site(gl.HeatBath(model, graph), state.rng, lazy)
    end, _ = reference_traced(model, graph, state.config, steps, state.rng,
                              step)
    return gl.ChainState(config=end.config, step=state.step + steps,
                         rng=state.rng)


def reference_visit_counts(model, graph, start, steps, seed=0, lazy=True):
    start = dynamics._checked_start(model, graph, start, steps)
    step = reference_single_site(gl.HeatBath(model, graph),
                                 gl_rng.make_rng(seed, "chain"), lazy)
    config = list(start)
    cur = start
    counts = {}
    for _ in range(steps):
        for v, old in step(config):
            if config[v] != old:
                cur = tuple(config)
        counts[cur] = counts.get(cur, 0) + 1
    return counts


def reference_coalescence_time(model, graph, start_a, start_b, horizon,
                               seed=0, lazy=True):
    rng = gl_rng.make_rng(seed, "couple")
    kernel = gl.HeatBath(model, graph)
    a = list(start_a)
    b = list(start_b)
    adj = graph.adj
    diff = [x != y for x, y in zip(a, b)]
    disagree = sum(diff)
    if not disagree:
        return 0
    off = [d + sum(diff[w] for w in adj[v]) for v, d in enumerate(diff)]
    n = graph.n
    coin = uniform = rng.random
    vertex = rng.randrange
    draw = kernel.draw
    couple = kernel.couple
    for step in range(1, horizon + 1):
        if lazy and coin() < 0.5:
            continue
        v = vertex(n)
        u = uniform()
        if not off[v]:
            a[v] = b[v] = draw(a, v, u)
            continue
        x, y = couple(a, b, v, u)
        a[v] = x
        b[v] = y
        if (x != y) != diff[v]:
            diff[v] = x != y
            flip = 1 if diff[v] else -1
            off[v] += flip
            for w in adj[v]:
                off[w] += flip
            disagree += flip
            if not disagree:
                return step
    return None


def reference_contraction_probe(model, graph, pairs=20, seed=0):
    n = graph.n
    start = gl.initial_configuration(model, graph)
    kernel = gl.HeatBath(model, graph)
    results = []
    worst = None
    for k in range(pairs):
        step = reference_single_site(kernel,
                                     gl_rng.make_rng(seed, "probe", k), False)
        config = list(start)
        for _ in range(10 * n):
            step(config)
        twin = list(config)
        for _ in range(10 * n):
            (v0, old), = step(twin)
            if twin[v0] != old:
                break
        else:
            raise gl.NoFeasibleStateError(
                "no unit pair found: every sampled vertex is frozen")
        tv_sum = 0.0
        for w in graph.adj[v0]:
            p = kernel.pmf(config, w)
            q = kernel.pmf(twin, w)
            tv_sum += 0.5 * sum(abs(a - b) for a, b in zip(p, q))
        delta = (-1.0 + tv_sum) / n
        results.append({"vertex": v0, "delta": delta, "tv_sum": tv_sum})
        worst = delta if worst is None else max(worst, delta)
    return dynamics.ProbeResult(worst_delta=worst, implied_c=-worst * n,
                                pairs=results)


def reference_run_block_chain(model, graph, partition, start, steps, seed=0,
                              reference=None, stride=None):
    start = tuple(start)
    rng = gl_rng.make_rng(seed, "block-chain")
    laws = dynamics._BlockLaws(model, graph, partition.blocks,
                               gl.HeatBath(model, graph))
    blocks = partition.blocks
    before = list(start)

    def step(config):
        k = gl.block_step(model, graph, partition, config, rng, laws=laws)
        moved = []
        for v in blocks[k].vertices:
            moved.append((v, before[v]))
            before[v] = config[v]
        return moved
    return reference_traced(model, graph, start, steps, rng, step,
                            reference, stride)


@dataclasses.dataclass
class OracleCase:
    seed: int
    model: object
    graph: object
    start: tuple
    steps: int
    stride: object
    lazy: bool
    partition: object


# 1 = 2^0, 2^k and 2^k + 1: sizes where the vertex draw rejects about half
# of its getrandbits words
ORACLE_SIZES = (1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65)
ORACLE_STEPS = (0, 1, 7, 1000)


def oracle_cases():
    """Seeded chains across sizes, lengths, strides, laziness and model
    kinds.  Every graph has isolated vertices (the last, at least) and
    maximum degree at most 4, and below q for a coloring, so a greedy
    coloring starts it; its tree components are tree blocks."""
    rng = random.Random(20261020)
    cases = []
    for i in range(320):
        n = ORACLE_SIZES[i % len(ORACLE_SIZES)]
        steps = ORACLE_STEPS[i % len(ORACLE_STEPS)]
        stride = (1, 3, steps, steps + 1, None)[i // 4 % 5]
        kind = i // 20 % 4
        if kind == 0:
            model = gl.coloring_model(rng.randint(3, 20))
        elif kind == 1:
            model = gl.hardcore_model(-rng.uniform(0.1, 3.0))
        elif kind == 2:
            model = gl.hardcore_model(rng.uniform(0.1, 3.0))
        else:
            q = rng.randint(2, 4)
            g = [[0.0] * q for _ in range(q)]
            for x in range(q):
                for y in range(x, q):
                    g[x][y] = g[y][x] = rng.uniform(-1.5, 1.5)
            model = gl.soft_model([rng.uniform(-1, 1) for _ in range(q)], g)
        cap = min(4, model.q - 1) if model.kind == "coloring" else 4
        deg = [0] * n
        edges = set()
        for _ in range(n):
            u, v = sorted(rng.sample(range(n - 1), 2)) if n > 2 else (0, 0)
            if u != v and deg[u] < cap and deg[v] < cap \
                    and (u, v) not in edges:
                edges.add((u, v))
                deg[u] += 1
                deg[v] += 1
        graph = gl.Graph(n, sorted(edges))
        cases.append(OracleCase(
            seed=i, model=model, graph=graph,
            start=tuple(gl.initial_configuration(model, graph)),
            steps=steps, stride=stride, lazy=bool(i // 80 % 2),
            partition=tree_block_partition(graph)))
    return cases


def tree_block_partition(graph):
    """One tree block per connected component of 2 to 6 vertices that is
    a tree; every other vertex is a singleton."""
    parent = list(range(graph.n))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in graph.edges:
        parent[root(u)] = root(v)
    comps = {}
    for v in range(graph.n):
        comps.setdefault(root(v), []).append(v)
    blocks = []
    for verts in comps.values():
        inner = sum(len(graph.adj[v]) for v in verts) // 2
        if 2 <= len(verts) <= 6 and inner == len(verts) - 1:
            blocks.append(gl.Block(kind="tree", vertices=tuple(verts)))
        else:
            blocks += [gl.Block(kind="singleton", vertices=(v,))
                       for v in verts]
    return gl.BlockPartition(blocks=tuple(blocks), L=1.0, log_base=math.e)


@pytest.fixture(scope="module")
def cases():
    return oracle_cases()


@pytest.fixture()
def seeded(monkeypatch):
    """``call(fn, *args)``: fn's result, or the type of the ValueError it
    raised, and the final state of each generator it seeded."""
    make_rng = gl_rng.make_rng

    def call(fn, *args, **kwargs):
        made = []

        def recorded(*tags):
            made.append(make_rng(*tags))
            return made[-1]

        monkeypatch.setattr(dynamics, "make_rng", recorded)
        monkeypatch.setattr(gl_rng, "make_rng", recorded)
        try:
            out = fn(*args, **kwargs)
        except ValueError as exc:
            out = type(exc)
        finally:
            monkeypatch.undo()
        return out, [r.getstate() for r in made]
    return call


def chain_key(out):
    if isinstance(out, type):
        return out
    state, trace = out
    return state.config, state.step, trace, state.rng.getstate()


class TestReferenceLoops:
    """Every chain equals the loops it replaced, draw for draw: its
    output, its trace and the state of every generator it seeded."""

    def test_cases_cover_the_grid(self, cases):
        assert len(cases) >= 300
        assert {c.graph.n for c in cases} == set(ORACLE_SIZES)
        assert {c.steps for c in cases} == set(ORACLE_STEPS)
        assert {(c.steps, c.stride) for c in cases} == {
            (s, k) for s in ORACLE_STEPS for k in (1, 3, s, s + 1, None)}
        assert {c.lazy for c in cases} == {True, False}
        assert {(c.model.kind, c.model.kind != "hardcore"
                 or c.model.beta > 0) for c in cases} == {
            ("coloring", True), ("hardcore", False), ("hardcore", True),
            ("soft", True)}
        qs = {c.model.q for c in cases if c.model.kind == "coloring"}
        assert min(qs) == 3 and max(qs) == 20
        assert all(not c.graph.adj[c.graph.n - 1] for c in cases)
        assert any(b.kind == "tree" for c in cases
                   for b in c.partition.blocks)

    def test_run_chain(self, cases, seeded):
        for c in cases:
            args = (c.model, c.graph, c.start, c.steps)
            kw = dict(seed=c.seed, lazy=c.lazy, stride=c.stride,
                      reference=c.start[::-1])
            got, got_rngs = seeded(gl.run_chain, *args, **kw)
            want, want_rngs = seeded(reference_run_chain, *args, **kw)
            assert chain_key(got) == chain_key(want), c
            assert got_rngs == want_rngs, c

    def test_resume_chain(self, cases):
        for c in cases:
            state, _ = reference_run_chain(c.model, c.graph, c.start,
                                           c.steps, seed=c.seed, lazy=c.lazy)
            twin = gl.ChainState(config=state.config, step=state.step,
                                 rng=gl_rng.rng_state_from_hex(
                                     gl_rng.rng_state_to_hex(state.rng)))
            got = gl.resume_chain(c.model, c.graph, state, c.steps,
                                  lazy=c.lazy)
            want = reference_resume_chain(c.model, c.graph, twin, c.steps,
                                          lazy=c.lazy)
            assert (got.config, got.step, got.rng.getstate()) == (
                want.config, want.step, want.rng.getstate()), c

    def test_visit_counts(self, cases, seeded):
        for c in cases:
            args = (c.model, c.graph, c.start, c.steps)
            kw = dict(seed=c.seed, lazy=c.lazy)
            got, got_rngs = seeded(gl.visit_counts, *args, **kw)
            want, want_rngs = seeded(reference_visit_counts, *args, **kw)
            # same counts, first seen in the same order
            assert list(got.items()) == list(want.items()), c
            assert got_rngs == want_rngs, c

    def test_coalescence_time(self, cases, seeded):
        for c in cases:
            other, _ = reference_run_chain(c.model, c.graph, c.start, 50,
                                           seed=c.seed + 1)
            args = (c.model, c.graph, c.start, other.config, c.steps)
            kw = dict(seed=c.seed, lazy=c.lazy)
            got, got_rngs = seeded(gl.coalescence_time, *args, **kw)
            want, want_rngs = seeded(reference_coalescence_time, *args, **kw)
            assert got == want, c
            assert got_rngs == want_rngs, c

    def test_contraction_probe(self, cases, seeded):
        for c in cases:
            args = (c.model, c.graph)
            kw = dict(pairs=2, seed=c.seed)
            got, got_rngs = seeded(gl.contraction_probe, *args, **kw)
            want, want_rngs = seeded(reference_contraction_probe, *args,
                                     **kw)
            if not isinstance(got, type):
                got = (got.worst_delta, got.implied_c, got.pairs)
                want = (want.worst_delta, want.implied_c, want.pairs)
            assert got == want, c
            assert got_rngs == want_rngs, c

    def test_run_block_chain(self, cases, seeded):
        for c in cases:
            args = (c.model, c.graph, c.partition, c.start, c.steps)
            kw = dict(seed=c.seed, stride=c.stride, reference=c.start[::-1])
            got, got_rngs = seeded(gl.run_block_chain, *args, **kw)
            want, want_rngs = seeded(reference_run_block_chain, *args, **kw)
            assert chain_key(got) == chain_key(want), c
            assert got_rngs == want_rngs, c


# 2^k and 2^k + 1, where the vertex draw rejects about half of its
# getrandbits words, and 2^k - 1, where it rejects almost none
GUARD_SIZES = sorted({1, 2, 3, 5000} | {2 ** k + d for k in range(1, 21)
                                         for d in (-1, 0, 1)})


@pytest.mark.parametrize("n", GUARD_SIZES)
def test_site_draws_equal_randrange(n):
    # the inline rejection loop is CPython's _randbelow_with_getrandbits;
    # a Python whose randrange(n) draws otherwise fails here
    for seed in range(20):
        rng = gl.make_rng(seed, "guard")
        twin = gl.make_rng(seed, "guard")
        got = list(dynamics._site_draws(rng, n, False, 5))
        want = [(t, twin.randrange(n), twin.random()) for t in range(1, 6)]
        assert got == want
        assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("lazy", [True, False])
def test_site_draws_on_no_vertices_draw_nothing(lazy):
    rng = gl.make_rng(1, "chain")
    before = rng.getstate()
    assert list(dynamics._site_draws(rng, 0, lazy, 100)) == []
    assert rng.getstate() == before


@pytest.mark.parametrize("lazy", [True, False])
def test_empty_graph_chains_hold(lazy):
    m, g = gl.coloring_model(3), gl.Graph(0, [])
    assert gl.visit_counts(m, g, (), 25, seed=1, lazy=lazy) == {(): 25}
    st, trace = gl.run_chain(m, g, (), 7, seed=1, lazy=lazy, stride=3)
    assert st.config == () and st.step == 7
    assert trace == [(0, 0, 0), (3, 0, 0), (6, 0, 0), (7, 0, 0)]
