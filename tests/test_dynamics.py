import math

import pytest

import glauberlab as gl


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

    def test_coupled_step_keeps_equal_states_equal(self):
        m, g = gl.coloring_model(4), triangle()
        rng = gl.make_rng(5, "pair")
        left = list((0, 1, 2))
        right = list((0, 1, 2))
        for _ in range(50):
            gl.coupled_step(m, g, left, right, rng)
            assert left == right
            assert gl.is_feasible(m, g, left)


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
