import math
import random

import numpy as np
import pytest

import glauberlab as gl
import glauberlab.exact as gl_exact
from glauberlab.defaults import DEFAULTS
from glauberlab.exact import (TV_TARGET, _cheeger_from_epsilon,
                              _first_mixed, _power_tv, _resample_kernel,
                              _worst_tv)
from glauberlab.models import neighbor_conditional
from glauberlab.zoo import (_zoo_chains, connected_graphs, model_grid,
                            partitioned_cases, skeleton_block_cases)


def path3():
    return gl.Graph(3, [(0, 1), (1, 2)])


def triangle():
    return gl.Graph(3, [(0, 1), (0, 2), (1, 2)])


def edge():
    return gl.Graph(2, [(0, 1)])


def built(model, g, lazy=True, **kw):
    return gl.transition_matrix(gl.enumerate_states(model, g, **kw),
                                lazy=lazy)


class TestEnumeration:
    def test_path_coloring_count(self):
        ch = gl.enumerate_states(gl.coloring_model(3), path3())
        # 3 * 2 * 2 proper colorings
        assert len(ch.states) == 12

    def test_states_sorted_and_feasible(self):
        m = gl.hardcore_model(0.5)
        ch = gl.enumerate_states(m, path3())
        assert ch.states == sorted(ch.states)
        for s in ch.states:
            assert gl.is_feasible(m, path3(), s)

    def test_edge_hardcore_states(self):
        ch = gl.enumerate_states(gl.hardcore_model(0.0), edge())
        assert ch.states == [(0, 0), (0, 1), (1, 0)]

    def test_stationary_law_normalized(self):
        ch = gl.enumerate_states(gl.hardcore_model(1.0), path3())
        assert ch.pi.sum() == pytest.approx(1.0)
        # pi(sigma) proportional to e^{beta * occupied}
        w = [math.exp(sum(s)) for s in ch.states]
        assert ch.pi == pytest.approx(np.array(w) / sum(w))

    def test_budget_enforced(self):
        with pytest.raises(gl.BudgetExceededError):
            gl.enumerate_states(gl.coloring_model(4), triangle(), budget=5)

    def test_sub_block_with_boundary(self):
        m = gl.coloring_model(3)
        ch = gl.enumerate_states(m, path3(), vertices=(0, 1),
                                 boundary={2: 0})
        # vertex 1 avoids both its neighbor in the block and the pin
        for s in ch.states:
            assert s[1] != 0 and s[0] != s[1]

    def test_boundary_must_cover(self):
        with pytest.raises(ValueError):
            gl.enumerate_states(gl.coloring_model(3), path3(),
                                vertices=(0, 1), boundary={})


class TestTransitionMatrix:
    def test_rows_sum_to_one(self):
        for m in [gl.coloring_model(3), gl.hardcore_model(0.5)]:
            ch = built(m, path3())
            assert ch.P.sum(axis=1) == pytest.approx(np.ones(len(ch.states)))

    def test_edge_hardcore_lazy_pin(self):
        # hand-derived: from (0,0) each vertex flips up w.p. 1/2 given
        # the other empty; laziness halves everything off-diagonal
        ch = built(gl.hardcore_model(0.0), edge(), lazy=True)
        want = [[0.75, 0.125, 0.125],
                [0.125, 0.875, 0.0],
                [0.125, 0.0, 0.875]]
        assert ch.P == pytest.approx(np.array(want), abs=1e-15)

    def test_detailed_balance_exact(self):
        ch = built(gl.hardcore_model(0.0), edge())
        assert gl.detailed_balance_gap(ch) == 0.0

    def test_detailed_balance_soft(self):
        m = gl.soft_model([0.1, -0.2], [[0.3, 0.0], [0.0, 0.3]])
        ch = built(m, triangle())
        assert gl.detailed_balance_gap(ch) < 1e-12


def per_site_kernel(chain, lazy):
    """Oracle: the single-site kernel built state by state and position
    by position from each vertex's heat-bath conditional."""
    S = len(chain.states)
    nv = len(chain.vertices)
    pos = {v: i for i, v in enumerate(chain.vertices)}
    P = np.zeros((S, S))
    for i, sigma in enumerate(chain.states):
        for p, v in enumerate(chain.vertices):
            around = [sigma[pos[w]] if w in pos else chain.boundary[w]
                      for w in chain.graph.adj[v]
                      if w in pos or w in chain.boundary]
            probs = neighbor_conditional(chain.model, around, v)
            for x, px in enumerate(probs):
                if px == 0.0:
                    continue
                tau = sigma[:p] + (x,) + sigma[p + 1:]
                P[i, chain.index(tau)] += px / nv
    if lazy:
        P = 0.5 * (np.eye(S) + P)
    return P


def assert_matches_oracle(chain, lazy, bitwise=False):
    want = per_site_kernel(chain, lazy)
    got = gl.transition_matrix(chain, lazy=lazy).P
    assert ((got > 0) == (want > 0)).all()
    assert np.abs(got - want).max() <= 1e-15
    if bitwise:
        assert np.array_equal(got, want)


class TestKernelAgainstPerSiteOracle:
    @pytest.mark.parametrize("mname, model", model_grid(),
                             ids=[m for m, _ in model_grid()])
    def test_zoo_chains(self, mname, model):
        # uniform Gibbs weights leave nothing to round differently
        bitwise = mname in ("coloring-q3", "coloring-q4", "hardcore-b0")
        for gname, graph in connected_graphs():
            chain = gl.enumerate_states(model, graph)
            if not chain.states:
                continue
            for lazy in (True, False):
                assert_matches_oracle(chain, lazy, bitwise)

    @pytest.mark.parametrize("model", [
        gl.coloring_model(4), gl.hardcore_model(0.5),
        gl.soft_model([0.1, -0.2, 0.3], [[0.4, 0.0, -0.1],
                                         [0.0, 0.2, 0.5],
                                         [-0.1, 0.5, -0.3]])])
    def test_boundary_pinned_sub_chain(self, model):
        # a 6-cycle with a chord: vertices 1..4, with 0 and 5 pinned
        g = gl.Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5),
                         (1, 4)])
        chain = gl.enumerate_states(model, g, vertices=(1, 2, 3, 4),
                                    boundary={0: 1, 5: 0})
        assert chain.states
        for lazy in (True, False):
            assert_matches_oracle(chain, lazy)

    def test_induced_sub_chain(self):
        model = gl.soft_model([0.1, -0.2], [[0.3, -0.4], [-0.4, 0.3]])
        g = gl.Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)])
        chain = gl.enumerate_states(model, g, vertices=(0, 1, 2, 3),
                                    boundary=None)
        for lazy in (True, False):
            assert_matches_oracle(chain, lazy)


class TestResampleKernel:
    def test_singleton_partition_is_the_site_chain(self):
        # tau_block of all-singleton blocks is the non-lazy site chain's
        # relaxation time, bit for bit
        for name, model, graph, _ in partitioned_cases():
            part = gl.BlockPartition(
                blocks=tuple(gl.Block("singleton", (v,))
                             for v in range(graph.n)),
                L=1.0, log_base=math.e, t=1)
            site = gl.transition_matrix(gl.enumerate_states(model, graph),
                                        lazy=False)
            rec, details = gl.block_composition_check(model, graph, part,
                                                      instance=name)
            assert details["tau_block"] == gl.relaxation_time(site), name

    @pytest.mark.parametrize("model", [
        gl.coloring_model(4), gl.hardcore_model(0.5),
        gl.soft_model([0.1, -0.2], [[0.3, 0.0], [0.0, 0.3]])])
    def test_one_block_draws_from_pi(self, model):
        for graph in (triangle(), path3(), gl.Graph(1, [])):
            chain = gl.enumerate_states(model, graph)
            P = _resample_kernel(chain, [list(range(graph.n))])
            assert np.array_equal(P, np.tile(chain.pi, (len(P), 1)))


class TestSpectral:
    def test_relaxation_pins(self):
        lazy = built(gl.hardcore_model(0.0), edge(), lazy=True)
        nonlazy = built(gl.hardcore_model(0.0), edge(), lazy=False)
        assert gl.relaxation_time(lazy) == pytest.approx(8.0, abs=1e-9)
        assert gl.relaxation_time(nonlazy) == pytest.approx(4.0, abs=1e-9)

    def test_triangle_q4(self):
        ch = built(gl.coloring_model(4), triangle())
        assert len(ch.states) == 24
        assert gl.relaxation_time(ch) == pytest.approx(12.0, abs=1e-8)

    def test_single_state_is_one(self):
        sub = gl.enumerate_states(gl.coloring_model(3), triangle(),
                                  vertices=(0,), boundary={1: 1, 2: 2})
        sub = gl.transition_matrix(sub)
        assert len(sub.states) == 1
        assert gl.relaxation_time(sub) == 1.0

    def test_reducible_raises(self):
        # triangle q=3 is frozen: 6 isolated proper colorings
        ch = built(gl.coloring_model(3), triangle())
        with pytest.raises(gl.DegenerateChainError):
            gl.relaxation_time(ch)

    def test_spectrum_in_unit_interval_for_lazy(self):
        ch = built(gl.coloring_model(4), triangle(), lazy=True)
        eigs = gl.spectrum(ch)
        assert eigs.min() >= -1e-12
        assert eigs.max() == pytest.approx(1.0)


class TestMixingTime:
    def test_edge_hardcore_pin(self):
        ch = built(gl.hardcore_model(0.0), edge())
        assert gl.mixing_time(ch) == 8

    def test_triangle_q4_pin(self):
        ch = built(gl.coloring_model(4), triangle())
        assert gl.mixing_time(ch) == 20

    def test_single_state_zero(self):
        sub = gl.enumerate_states(gl.coloring_model(3), triangle(),
                                  vertices=(0,), boundary={1: 1, 2: 2})
        sub = gl.transition_matrix(sub)
        assert gl.mixing_time(sub) == 0

    def test_horizon_raises(self):
        ch = built(gl.hardcore_model(0.0), edge())
        with pytest.raises(gl.HorizonExceededError):
            gl.mixing_time(ch, horizon=4)

    def test_frozen_chain_never_mixes(self):
        ch = built(gl.coloring_model(3), triangle())
        with pytest.raises(gl.HorizonExceededError):
            gl.mixing_time(ch, horizon=64)

    def test_matches_linear_scan_on_zoo(self):
        checked = 0
        for instance, ch in _zoo_chains(DEFAULTS["state_budget"]):
            if isinstance(ch, str) or len(ch.states) > 64:
                continue
            assert gl.mixing_time(ch) == linear_scan_mixing(ch), instance
            checked += 1
        assert checked > 100

    @pytest.mark.parametrize("model, graph, tmix", [
        (gl.hardcore_model(0.0), edge(), 8),
        (gl.coloring_model(4), triangle(), 20)])
    def test_horizon_edges(self, model, graph, tmix):
        ch = built(model, graph)
        with pytest.raises(gl.HorizonExceededError):
            gl.mixing_time(ch, horizon=tmix - 1)
        assert gl.mixing_time(ch, horizon=tmix) == tmix

    def test_mixes_in_one_step(self):
        # the non-lazy chain on one vertex redraws it from pi at once
        ch = built(gl.coloring_model(2), gl.Graph(1, []), lazy=False)
        assert gl.mixing_time(ch) == 1

    def test_one_eigh_and_few_tv_evaluations(self, monkeypatch):
        # 3-colourings of the 9-vertex path: 768 states and t_mix = 495;
        # the search evaluated TV 4 times, where squaring and lifting
        # took 17 dense products
        ch = built(gl.coloring_model(3),
                   gl.Graph(9, [(v, v + 1) for v in range(8)]))
        calls = {"eigh": 0, "tv": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(np.linalg, "eigh",
                            counted("eigh", np.linalg.eigh))
        monkeypatch.setattr(gl_exact, "_worst_tv",
                            counted("tv", gl_exact._worst_tv))
        assert gl.mixing_time(ch) == 495
        # one _worst_tv call is the identity check at t = 0
        assert calls["eigh"] == 1
        assert calls["tv"] - 1 <= 6

    def test_underflowing_mass_is_degenerate(self):
        # pi(0, 0) = exp(-800) / Z rounds to 0, so D^-1/2 is undefined
        ch = built(gl.soft_model([0.0, 400.0], [[0.0, 0.0], [0.0, 0.0]]),
                   edge())
        assert ch.pi.min() == 0.0
        for fn in (gl.spectrum, gl.relaxation_time, gl.mixing_time):
            with pytest.raises(gl.DegenerateChainError, match="underflows"):
                fn(ch)


def linear_scan_mixing(chain):
    """Oracle: the smallest t with P^t = P^(t-1) @ P under the target."""
    mat = np.eye(len(chain.states))
    t = 0
    while _worst_tv(mat, chain.pi) > TV_TARGET:
        mat = mat @ chain.P
        t += 1
    return t


def reference_mixing_time(chain, horizon=DEFAULTS["mixing_horizon"]):
    """Oracle: squaring P up to the first mixed power P^t leaves P^(t/2)
    as the largest power known not to mix; binary lifting then tries its
    remaining bits from the top, keeping a candidate only if unmixed."""
    if chain.P is None:
        raise ValueError("transition matrix not built")
    if _worst_tv(np.eye(len(chain.pi)), chain.pi) <= TV_TARGET:
        return 0
    pows = [chain.P]
    t = 1
    while _worst_tv(pows[-1], chain.pi) > TV_TARGET:
        if t > horizon:
            raise gl.HorizonExceededError(
                f"no mixing within horizon {horizon}")
        pows.append(pows[-1] @ pows[-1])
        t *= 2
    pows.pop()
    lo = t // 2
    cur = pows.pop() if pows else None
    step = lo
    while pows:
        step //= 2
        cand = cur @ pows.pop()
        if _worst_tv(cand, chain.pi) > TV_TARGET:
            cur = cand
            lo += step
    if lo + 1 > horizon:
        raise gl.HorizonExceededError(f"no mixing within horizon {horizon}")
    return lo + 1


def outcome(fn, *args, **kwargs):
    """The integer a call returns, or the type of the exception it raises."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc)


def zoo_oracle_chains():
    """Every zoo chain, lazy as the suites build it and non-lazy."""
    for instance, ch in _zoo_chains(DEFAULTS["state_budget"]):
        if isinstance(ch, str):
            continue
        yield instance, ch
        yield f"{instance}/non-lazy", built(ch.model, ch.graph, lazy=False)


def random_oracle_chains(seed=27, count=220, budget=512):
    """Chains on random graphs of 2-7 vertices: q-colourings (2 <= q <= 4),
    hardcore with beta ~ N(0, 2) and soft q in {2, 3}, lazy and non-lazy;
    instances with more than ``budget`` partial states are passed over
    to keep dense products cheap."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(2, 7)
        g = gl.Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                         if rng.random() < 0.5])
        kind = rng.choice(["coloring", "hardcore", "soft"])
        if kind == "coloring":
            model = gl.coloring_model(rng.randint(2, 4))
        elif kind == "hardcore":
            model = gl.hardcore_model(rng.gauss(0.0, 2.0))
        else:
            q = rng.choice([2, 3])
            gg = [[0.0] * q for _ in range(q)]
            for a in range(q):
                for b in range(a, q):
                    gg[a][b] = gg[b][a] = rng.gauss(0.0, 1.0)
            model = gl.soft_model([rng.gauss(0.0, 1.0) for _ in range(q)],
                                  gg)
        for lazy in (True, False):
            try:
                ch = built(model, g, lazy=lazy, budget=budget)
            except gl.BudgetExceededError:
                break
            yield f"random-{i}/{kind}/n{n}/lazy={lazy}", ch


class TestMixingOracle:
    """The spectral search against squaring and lifting."""

    def assert_matches(self, cases, least):
        checked = 0
        for instance, ch in cases:
            want = outcome(reference_mixing_time, ch)
            assert outcome(gl.mixing_time, ch) == want, instance
            if isinstance(want, int) and want > 0:
                with pytest.raises(gl.HorizonExceededError):
                    gl.mixing_time(ch, horizon=want - 1)
                assert gl.mixing_time(ch, horizon=want) == want, instance
            checked += 1
        assert checked >= least

    def test_zoo(self):
        self.assert_matches(zoo_oracle_chains(), 322)

    def test_random_chains(self):
        self.assert_matches(random_oracle_chains(), 300)

    def test_power_tv_matches_dense_powers(self):
        # the dropped spectral terms move TV by less than 1e-15; rounding
        # in U and in the dense products leaves more than that
        cases = [*zoo_oracle_chains(), *random_oracle_chains()]
        checked = 0
        for instance, ch in cases:
            want = outcome(reference_mixing_time, ch)
            if not isinstance(want, int) or want == 0 or ch.pi.min() == 0:
                continue
            tv = _power_tv(*np.linalg.eigh(gl_exact._symmetrized(ch)), ch.pi)
            for t in {1, 2, want - 1, want, 2 * want} - {0}:
                mat = np.linalg.matrix_power(ch.P, t)
                assert tv(t) == pytest.approx(_worst_tv(mat, ch.pi),
                                              abs=1e-9), (instance, t)
            checked += 1
        assert checked >= 600

    def test_pinned_times_clear_the_target(self):
        # no pinned t_mix sits within rounding of the target: TV at t_mix
        # and at t_mix - 1 stays 1e-6 away from 1/(2e)
        path = built(gl.coloring_model(3),
                     gl.Graph(9, [(v, v + 1) for v in range(8)]))
        for instance, ch in [*zoo_oracle_chains(), ("path-9", path)]:
            try:
                tmix = gl.mixing_time(ch)
            except gl.HorizonExceededError:
                continue
            for t in (tmix, tmix - 1):
                if t >= 0:
                    mat = np.linalg.matrix_power(ch.P, t)
                    gap = abs(_worst_tv(mat, ch.pi) - TV_TARGET)
                    assert gap >= 1e-6, (instance, t)


class TestFirstMixed:
    """The integer search on synthetic non-increasing TV curves."""

    def test_matches_a_linear_scan(self):
        rng = random.Random(5)
        for _ in range(500):
            cap = rng.randint(1, 200)
            vals = sorted((rng.choice([0.0, rng.uniform(0.0, 0.4)])
                           for _ in range(cap + 1)), reverse=True)
            vals[0] = max(vals[0], 2 * TV_TARGET)
            want = next((t for t in range(1, cap + 1)
                         if vals[t] <= TV_TARGET), None)
            guess = rng.randint(1, cap)
            rate = rng.choice([0.0, 1e-3, 0.1, 2.0])
            assert _first_mixed(vals.__getitem__, vals[0], guess, rate,
                                cap) == want

    @pytest.mark.parametrize("k", [1, 2, 777, 123_457, 10 ** 6])
    def test_flat_stretch_costs_log_evaluations(self, k):
        # tv hugs the target and then drops to 0: from the bracket
        # [0, cap] secant steps alone creep up one t at a time
        calls = []

        def tv(t):
            calls.append(t)
            return TV_TARGET * (1 + 1e-12) if t < k else 0.0

        assert _first_mixed(tv, tv(0), 10 ** 6, 0.5, 10 ** 6) == k
        assert len(calls) <= 4 * 20 + 2


class TestSandwich:
    def test_edge_hardcore_passes(self):
        ch = built(gl.hardcore_model(0.0), edge())
        recs = gl.sandwich_check(ch, instance="edge-hc0")
        assert [r.bound_name for r in recs] == ["sandwich-lower",
                                                "sandwich-upper"]
        assert all(r.passed for r in recs)

    def test_relaxation_below_mixing(self):
        ch = built(gl.coloring_model(4), triangle())
        tau = gl.relaxation_time(ch)
        tmix = gl.mixing_time(ch)
        assert tau <= tmix + 1e-9
        assert tmix <= tau * (1 + 0.5 * math.log(1 / ch.pi.min())) + 1e-9


class TestCheeger:
    def test_single_vertex_pin(self):
        # lazy single-site chain on one vertex, q=2: every transition
        # probability pi(a) P(a,b) is at least 1/8, so the bound is
        # 2 / (1/8)^2 = 128
        ch = built(gl.coloring_model(2), gl.Graph(1, []))
        cb = gl.cheeger_bound(ch)
        assert cb.epsilon == pytest.approx(0.125)
        assert cb.bound == pytest.approx(128.0)

    def test_formula(self):
        assert _cheeger_from_epsilon(0.1) == pytest.approx(200.0)

    def test_incomplete_raises_by_default(self):
        # edge hardcore: the two single-occupied states do not talk
        ch = built(gl.hardcore_model(0.0), edge())
        with pytest.raises(gl.CheegerHypothesisError):
            gl.cheeger_bound(ch)

    def test_bound_dominates_mixing_when_complete(self):
        ch = built(gl.coloring_model(2), gl.Graph(1, []))
        assert gl.cheeger_bound(ch).bound >= gl.mixing_time(ch)


class TestCanonicalPaths:
    def test_pinned_bound(self):
        cb = gl.canonical_path_bound(gl.hardcore_model(0.5), path3())
        assert cb.bound == pytest.approx(92.549839678931, rel=1e-10)
        assert cb.length == 3

    def test_dominates_relaxation(self):
        for g in [path3(), triangle(), gl.Graph(4, [(0, 1), (1, 2),
                                                    (2, 3), (0, 3)])]:
            for beta in [0.0, 0.5, 1.0]:
                cb = gl.canonical_path_bound(gl.hardcore_model(beta), g)
                ch = built(gl.hardcore_model(beta), g)
                assert cb.bound >= gl.relaxation_time(ch) - 1e-9

    def test_rejects_non_hardcore(self):
        with pytest.raises(ValueError):
            gl.canonical_path_bound(gl.coloring_model(3), path3())


class TestThresholdsAndPsi:
    def test_coloring_threshold(self):
        # max(4e, 8/lambda + 4/lambda^2) at lambda = 1/4 is 32 + 64
        assert gl.coloring_q_threshold(0.25) == 96
        assert gl.coloring_q_threshold(2.0) == math.ceil(4 * math.e)

    def test_hardcore_threshold(self):
        assert gl.hardcore_activity_threshold(0.25) == math.log(0.25)

    def test_soft_threshold(self):
        assert gl.soft_norm_threshold(0.25) == math.asinh(0.25 / 32)

    def test_psi_weight(self):
        # subset {0,1} of the path: boundary vertex 2 at distance 2 from 0
        assert gl.psi_weight(path3(), (0, 1), 0, 0.5) == pytest.approx(0.25)
        assert gl.psi_weight(path3(), (0,), 0, 0.5) == pytest.approx(0.5)
        # whole graph: no boundary
        assert gl.psi_weight(path3(), (0, 1, 2), 0, 0.5) == 0.0


class TestDecay:
    def test_coloring_small_tree(self):
        g = gl.random_tree(5, seed=1)
        q = gl.coloring_q_threshold(0.25)
        chk = gl.tree_decay_check(gl.coloring_model(q), g, tuple(range(5)),
                                  0, 0.25, boundary_samples=50, seed=2)
        assert chk.kind == "ratio"
        assert chk.observed <= chk.bound
        assert chk.margin >= 0.0

    def test_hardcore_exhaustive(self):
        g = gl.random_tree(5, seed=2)
        chk = gl.tree_decay_check(gl.hardcore_model(-1.5), g,
                                  tuple(range(5)), 0, 0.25,
                                  boundary_samples=10 ** 6, seed=0)
        assert chk.exhaustive
        assert chk.observed <= chk.bound


class TestSkeletonJoint:
    def test_k2_uniform(self):
        name, model, graph, block, boundary = next(
            c for c in skeleton_block_cases() if c[0] == "k2-w-q3")
        joint = gl.skeleton_joint(model, graph, block, boundary)
        law = joint.law
        assert len(law) == 6
        assert all(p == pytest.approx(1 / 6) for p in law.values())

    def test_all_cases_match_enumeration(self):
        for name, model, graph, block, boundary in skeleton_block_cases():
            composed = gl.compose_block_law(model, graph, block, boundary)
            full = gl.enumerate_states(model, graph,
                                       vertices=block.vertices,
                                       boundary=boundary)
            exact = {s: p for s, p in zip(full.states, full.pi)}
            assert gl.law_tv(composed, exact) <= 1e-12, name

    def test_soft_pair_weights_are_the_model_table(self):
        # exp(-0.98) rounds differently under math.exp and np.exp, so the
        # joint and the tree tables agree only if both read exp_tables
        model = gl.soft_model((0.0, 0.3), ((-0.98, 0.25), (0.25, 0.5)))
        exph, expg = model.exp_tables
        assert math.exp(-0.98) != expg[0, 0]
        joint = gl.skeleton_joint(model, edge(),
                                  gl.Block("skeleton", (0, 1),
                                           skeleton=(0, 1)), {})
        field = exph / exph.max()
        w = np.array([field[a] * field[b] * expg[a, b]
                      for a in range(2) for b in range(2)])
        assert joint.states == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert np.array_equal(joint.probs, w / w.sum())

    def test_sample_matches_law(self):
        name, model, graph, block, boundary = skeleton_block_cases()[0]
        joint = gl.skeleton_joint(model, graph, block, boundary)
        counts = {}
        rng = gl.make_rng(3, "sj")
        for _ in range(20000):
            s = joint.sample(rng)
            counts[s] = counts.get(s, 0) + 1
        tv = 0.5 * sum(abs(counts.get(k, 0) / 20000 - p)
                       for k, p in joint.law.items())
        assert tv < 0.02


class TestBlockComposition:
    def test_one_block_partition_is_tight(self):
        # a single tree block resamples everything: the bound collapses
        # to the exact relaxation time
        name, model, graph, part = next(
            c for c in partitioned_cases() if c[0] == "claw-q4-single")
        rec, details = gl.block_composition_check(model, graph, part,
                                                  instance=name)
        assert rec.passed
        assert rec.bound_value == pytest.approx(rec.exact_value, rel=1e-9)

    def test_all_cases_hold(self):
        for name, model, graph, part in partitioned_cases():
            rec, details = gl.block_composition_check(model, graph, part,
                                                      instance=name)
            assert rec.passed, name
            assert rec.bound_value >= rec.exact_value - 1e-9


class TestChainDump:
    def test_contains_states_and_rows(self):
        ch = built(gl.hardcore_model(0.0), edge())
        text = gl.format_chain_dump(ch)
        assert "(0, 0)" in text or "0 0" in text
        assert str(len(ch.states)) in text
