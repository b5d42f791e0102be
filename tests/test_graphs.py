import contextlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

import glauberlab as gl
from glauberlab import graphs


def path3():
    return gl.Graph(3, [(0, 1), (1, 2)])


def triangle():
    return gl.Graph(3, [(0, 1), (0, 2), (1, 2)])


def star4():
    return gl.Graph(4, [(0, 1), (0, 2), (0, 3)])


def k4():
    return gl.Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


class TestGraphBasics:
    def test_adjacency_sorted(self):
        g = gl.Graph(3, [(2, 1), (1, 0)])
        assert g.adj[0] == (1,)
        assert g.adj[1] == (0, 2)
        assert g.edges == ((0, 1), (1, 2))

    def test_rejects_parallel_edge(self):
        with pytest.raises(ValueError):
            gl.Graph(3, [(1, 0), (0, 1)])

    def test_degree(self):
        g = star4()
        assert g.degree(0) == 3
        assert g.degree(1) == 1

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            gl.Graph(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            gl.Graph(2, [(0, 2)])

    @pytest.mark.parametrize("seed", range(6))
    def test_from_sorted_equals_checked_graph(self, seed):
        # any subset of a graph's edges is sorted, distinct and in range
        rng = np.random.default_rng(seed)
        g = gl.generate_er(60 + 40 * seed, 1.0 + seed, seed)
        for keep in (0.0, 0.3, 0.7, 1.0):
            edges = [e for e in g.edges if rng.random() < keep]
            fast = gl.Graph._from_sorted(g.n, edges)
            slow = gl.Graph(g.n, edges)
            assert fast == slow
            assert fast.edges == slow.edges and fast.adj == slow.adj
            for got, want in zip(fast.csr_adjacency(),
                                 slow.csr_adjacency()):
                assert np.array_equal(got, want)


class TestDistances:
    def test_bfs_on_path(self):
        d = gl.bfs_distances(path3(), [0])
        assert d == {0: 0, 1: 1, 2: 2}

    def test_bfs_cutoff(self):
        d = gl.bfs_distances(path3(), [0], cutoff=1)
        assert d == {0: 0, 1: 1}

    def test_bfs_multi_source(self):
        d = gl.bfs_distances(path3(), [0, 2])
        assert d == {0: 0, 1: 1, 2: 0}

    def test_ball(self):
        verts, edges = gl.ball(star4(), 1, 1)
        assert verts == (0, 1) and edges == ((0, 1),)
        verts, edges = gl.ball(star4(), 1, 2)
        assert verts == (0, 1, 2, 3) and len(edges) == 3

    def test_tree_excess_tree_is_zero(self):
        assert gl.tree_excess(star4(), 0, 2) == 0

    def test_tree_excess_k4(self):
        # ball of radius 1 around any K4 vertex is all of K4:
        # 6 edges - (4 vertices - 1 component) = 3
        assert gl.tree_excess(k4(), 0, 1) == 3

    def test_tree_excess_all_matches_loop(self):
        g = gl.generate_er(60, 2.5, seed=9)
        ex = gl.tree_excess_all(g, 2)
        for v in range(g.n):
            assert ex[v] == gl.tree_excess(g, v, 2)


class TestAlphaWeights:
    # phi_alpha(v) = sum_{u != v} alpha^d(v,u), hand-derived below.

    def test_path_end(self):
        # 0.5^1 + 0.5^2 = 0.75
        assert gl.alpha_weight(path3(), 0, 0.5).value == pytest.approx(0.75)

    def test_path_middle(self):
        # two neighbors at distance 1
        assert gl.alpha_weight(path3(), 1, 0.5).value == pytest.approx(1.0)

    def test_star_center(self):
        # three leaves at distance 1
        assert gl.alpha_weight(star4(), 0, 0.5).value == pytest.approx(1.5)

    def test_unreachable_adds_zero(self):
        g = gl.Graph(3, [(0, 1)])
        assert gl.alpha_weight(g, 0, 0.5).value == pytest.approx(0.5)

    def test_all_matches_loop(self):
        g = gl.generate_er(50, 2.0, seed=4)
        phi = gl.alpha_weights_all(g, 0.3)
        for v in range(g.n):
            assert phi[v] == pytest.approx(gl.alpha_weight(g, v, 0.3).value,
                                           abs=1e-12)

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            gl.alpha_weight(path3(), 0, 1.5)


def reference_rows(g):
    """All-pairs hop distances from scipy's unweighted shortest paths."""
    if g.n == 0:
        return np.zeros((0, 0))
    indptr, indices = g.csr_adjacency()
    adj = csr_matrix((np.ones(len(indices)), indices, indptr),
                     shape=(g.n, g.n))
    return np.atleast_2d(dijkstra(adj, directed=False, unweighted=True))


def reference_excess(g, rows, l):
    mask = rows <= l
    ends = np.array(g.edges, dtype=np.intp).reshape(-1, 2)
    ecount = (mask[:, ends[:, 0]] & mask[:, ends[:, 1]]).sum(axis=1)
    return ecount - mask.sum(axis=1) + 1


def engine_cases():
    # sizes below, at and across the 64-bit word and 256-source chunk
    for n in (0, 1, 63, 64, 65, 257, 1200):
        for d in (0.5, 1.0, 2.0, 3.0):
            if n < 2:
                yield pytest.param(gl.Graph(n, []), id=f"n={n}")
                break
            yield pytest.param(gl.generate_er(n, d, seed=n + int(4 * d)),
                               id=f"er-{n}-{d}")
    yield pytest.param(gl.Graph(70, []), id="edgeless")
    yield pytest.param(gl.Graph(300, [(0, 1), (1, 2), (5, 9), (200, 299)]),
                       id="isolated")
    yield pytest.param(gl.Graph(300, [(i, i + 1) for i in range(299)]),
                       id="path-300")
    # depth 7 = 0b111 is the deepest level, so the unreached code 8 sits
    # one above a real depth
    yield pytest.param(gl.Graph(300, [(i, i + 1) for i in range(7)]),
                       id="path-8-isolated")


class TestSweepEngine:
    # The bit-parallel BFS must reproduce the shortest-path rows exactly,
    # so that phi, summed row by row in the same order, is bit-identical.

    @pytest.mark.parametrize("g", engine_cases())
    def test_matches_reference(self, g):
        ref = reference_rows(g)
        rows = np.zeros((g.n, g.n))
        for sel, code, far in graphs._distance_chunks(g):
            assert code.shape == (g.n, len(sel))
            assert code.dtype == (np.uint8 if far < 256 else np.uint16)
            reached = code != far
            assert far == 1 << int(code[reached].max()).bit_length()
            rows[sel] = np.where(reached, code, np.inf).T
        assert np.array_equal(rows, ref)
        for alpha in (0.25, 0.3, 0.5, 0.9):
            phi = (alpha ** ref).sum(axis=1) - 1.0
            assert np.array_equal(gl.alpha_weights_all(g, alpha), phi), alpha
        for l in range(7):
            assert np.array_equal(gl.tree_excess_all(g, l),
                                  reference_excess(g, ref, l)), l

    def test_check_builds_no_float_distance_block(self):
        # one (256, n) float64 block of distances alone is 10.24 MB here
        g = gl.generate_er(5000, 2.0, 1)
        g.csr_adjacency()
        hp = gl.HypothesisParams(a=0.2, alpha=0.25, t=1, delta=2.07)
        tracemalloc.start()
        try:
            gl.check_hypothesis(g, hp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    @pytest.mark.parametrize("seed,a,t", [(3, 0.2, 1), (8, 0.5, 5),
                                          (11, 1.0, 0)])
    def test_check_equals_separate_sweeps(self, seed, a, t):
        g = gl.generate_er(700, 2.0, seed=seed)
        hp = gl.HypothesisParams(a=a, alpha=0.25, t=t, delta=2.07)
        rep = gl.check_hypothesis(g, hp)
        radius = gl.log_radius(a, g.n)
        excess = gl.tree_excess_all(g, radius)
        phi = gl.alpha_weights_all(g, hp.alpha)
        mpw = gl.max_path_alpha_weight(g, hp.alpha, radius, phi=phi)
        bad = [int(v) for v in np.nonzero(excess > t)[0]]
        path_bound = hp.delta * math.log(g.n)
        expected = [
            gl.CheckRecord(
                check="tree-excess", passed=not bad,
                witness={"violations": len(bad),
                         "first": [{"vertex": v, "excess": int(excess[v])}
                                   for v in bad[:20]]},
                value=int(excess.max()), bound=t),
            gl.CheckRecord(
                check="path-weight", passed=mpw.value < path_bound,
                witness={"path": list(mpw.path)}, value=mpw.value,
                bound=path_bound),
        ]
        assert rep.radius == radius
        assert rep.records == expected
        assert np.array_equal(rep.phi, phi)
        assert rep.m_alpha == mpw.value


class TestCappedSweep:
    # A BFS stopped at depth cap gives the full codes up to the cap and
    # far beyond it; a chunk whose BFS ran out first keeps its full codes,
    # and only those MS-BFS chunks give phi.

    @pytest.mark.parametrize("g", engine_cases())
    def test_codes_match_full_depth(self, g):
        full = list(graphs._distance_chunks(g))
        ends = np.array(g.edges, dtype=np.intp).reshape(-1, 2)
        for cap in (0, 1, 2, 5, 7, 8, 300):
            capped = list(graphs._distance_chunks(g, cap=cap))
            assert len(capped) == len(full)
            for (sel, code, far), (fsel, fcode, ffar) in zip(capped, full):
                assert np.array_equal(sel, fsel)
                near = (fcode != ffar) & (fcode <= cap)
                assert np.array_equal(code, np.where(near, fcode, far)), cap
                deepest = int(fcode[fcode != ffar].max())
                ran_out = graphs._ball_excess(code, far, cap, ends)[1]
                assert ran_out == (deepest < cap), cap
                if ran_out:
                    assert far == ffar and np.array_equal(code, fcode)

    @pytest.mark.parametrize("g", engine_cases())
    def test_phi_only_where_the_bfs_ran_out(self, g):
        ref = reference_rows(g)
        phi = gl.alpha_weights_all(g, 0.3)
        for l in (0, 1, 3, 8, 300):
            excess, got = gl.tree_excess_all(g, l, alpha=0.3)
            assert np.array_equal(excess, reference_excess(g, ref, l)), l
            assert np.array_equal(excess, gl.tree_excess_all(g, l))
            with forced("sparse"):
                none = gl.tree_excess_all(g, l, alpha=0.3)[1]
            assert np.isnan(none).all(), l
            with forced("bfs"):
                bfs = gl.tree_excess_all(g, l, alpha=0.3)[1]
            # the cost rule's sparse chunks give none of the MS-BFS's phi
            sparse = np.repeat(graphs._ball_keys(g, l)[1], graphs._DIST_CHUNK)
            assert np.array_equal(got, np.where(sparse[:g.n], np.nan, bfs),
                                  equal_nan=True), l
            # a chunk ran out iff every finite distance from it is below l
            for start in range(0, g.n, graphs._DIST_CHUNK):
                rows = ref[start:start + graphs._DIST_CHUNK]
                at = slice(start, start + len(rows))
                if rows[np.isfinite(rows)].max() < l:
                    assert np.array_equal(bfs[at], phi[at]), l
                else:
                    assert np.isnan(bfs[at]).all(), l

    def test_tree_excess_alpha_validated(self):
        with pytest.raises(ValueError):
            gl.tree_excess_all(path3(), 2, alpha=1.0)


class TestSweepSources:
    # A source's phi is summed over its own row in vertex order, so the
    # sweep over a subset gives the full sweep's bits at those vertices.

    @pytest.mark.parametrize("g", engine_cases())
    def test_subset_equals_full_sweep(self, g):
        rng = np.random.default_rng(g.n + g.m)
        subsets = [[], rng.permutation(g.n),
                   rng.permutation(g.n)[:rng.integers(g.n + 1)],
                   np.sort(rng.choice(g.n, size=g.n // 3, replace=False))]
        for alpha in (0.25, 0.9):
            full = gl.alpha_weights_all(g, alpha)
            for subset in subsets:
                got = gl.alpha_weights_all(g, alpha, subset)
                assert np.array_equal(got, full[np.asarray(subset, int)])
        excess = gl.tree_excess_all(g, 3)
        for subset in subsets:
            sources = np.asarray(subset, dtype=np.intp)
            assert np.array_equal(
                graphs._sweep(g, radius=3, sources=sources)[1],
                excess[sources])

    @pytest.mark.parametrize("sources", [[0, 0], [3], [-1]])
    def test_sources_are_distinct_vertices(self, sources):
        with pytest.raises(ValueError):
            gl.alpha_weights_all(path3(), 0.5, sources)


def brute_walks(g, v, k):
    """Non-backtracking walks of length k from v, one by one."""
    def extend(prev, u, left):
        if not left:
            return 1
        return sum(extend(u, w, left - 1) for w in g.adj[u] if w != prev)
    return extend(None, v, k)


def small_cases():
    yield gl.Graph(1, [])
    yield path3()
    yield triangle()
    yield star4()
    yield k4()
    yield gl.Graph(7, [(i, (i + 1) % 5) for i in range(5)] + [(4, 5)])
    for seed in range(8):
        yield gl.generate_er(9, 2.0 + seed / 2, seed)


class TestComponentSizes:
    @pytest.mark.parametrize("g", list(engine_cases()) + [
        pytest.param(g, id=repr(g)) for g in small_cases()])
    def test_match_induced_components(self, g):
        want = np.zeros(g.n, dtype=np.int64)
        for comp in graphs.induced_components(g, range(g.n)):
            want[list(comp)] = len(comp)
        assert np.array_equal(graphs._component_sizes(g), want)

    def test_shuffled_long_path(self):
        # labels far from the path order take several hooking rounds
        order = np.random.default_rng(5).permutation(3000).tolist()
        g = gl.Graph(3001, list(zip(order, order[1:])))
        sizes = graphs._component_sizes(g)
        assert sizes[order].tolist() == [3000] * 3000
        assert sizes[3000] == 1


@contextlib.contextmanager
def forced(engine):
    """Every chunk to one clause-1 engine: free ball keys send them all to
    the sparse engine, infinitely dear ones to the MS-BFS."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_KEY_COST",
                   0.0 if engine == "sparse" else math.inf)
        yield


def clause_one(g, l):
    """tree_excess_all's work counters on g at radius l."""
    counters = {}
    gl.tree_excess_all(g, l, counters=counters)
    return counters


@st.composite
def sparse_graphs(draw):
    """Graphs of 0-40 vertices with at most 2n edges: isolated vertices,
    small trees and short cycles beside larger components."""
    n = draw(st.integers(0, 40))
    if n < 2:
        return gl.Graph(n, [])
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = {(min(u, v), max(u, v))
             for u, v in draw(st.lists(pairs, max_size=2 * n)) if u != v}
    return gl.Graph(n, sorted(edges))


class TestBallEngines:
    # Both clause-1 engines, each forced everywhere, against the ball of
    # each vertex built alone; only the MS-BFS reads phi.

    @settings(max_examples=150, deadline=None)
    @given(g=sparse_graphs(), l=st.integers(0, 6))
    def test_forced_engines_match_per_vertex_balls(self, g, l):
        want = [gl.tree_excess(g, v, l) for v in range(g.n)]
        phis = []
        for engine in ("sparse", "bfs"):
            counters = {}
            with forced(engine):
                assert gl.tree_excess_all(g, l).tolist() == want
                excess, phi = gl.tree_excess_all(g, l, alpha=0.3,
                                                 counters=counters)
            assert excess.tolist() == want
            assert counters["ball_sources"] == (g.n if engine == "sparse"
                                                else 0)
            phis.append(phi)
        assert np.isnan(phis[0]).all()
        # one chunk: its BFS ran out iff every finite distance is below l
        if all(max(gl.bfs_distances(g, v).values()) < l for v in range(g.n)):
            assert np.array_equal(phis[1], gl.alpha_weights_all(g, 0.3))
        else:
            assert np.isnan(phis[1]).all()

    @pytest.mark.parametrize("g", engine_cases())
    def test_forced_sparse_matches_reference(self, g):
        ref = reference_rows(g)
        with forced("sparse"):
            for l in range(7):
                assert np.array_equal(gl.tree_excess_all(g, l),
                                      reference_excess(g, ref, l)), l

    @pytest.mark.parametrize("g,l,sparse", [
        (gl.generate_er(3500, 2.0, 1), gl.log_radius(0.2, 3500), 3500),
        (gl.generate_er(2000, 4.0, 1), 4, 0),
        (gl.Graph(3000, [(i, i + 1) for i in range(2999)]),
         gl.log_radius(400, 3000), 0),
    ], ids=["paper-constants", "er-2000-4-r4", "path-3000-a400"])
    def test_cost_rule_picks_the_engine(self, g, l, sparse, monkeypatch):
        # the choice alone: the MS-BFS is stubbed out (the path would
        # spend seconds sweeping its 3000 levels)
        monkeypatch.setattr(graphs, "_sweep", lambda g, alpha, radius,
                            sources: (sources * np.nan, sources * 0))
        counters = clause_one(g, l)
        assert counters["ball_sources"] == sparse
        assert counters["bfs_chunks"] == (g.n - sparse + 255) // 256
        assert (counters["ball_keys_peak"] > 0) == (sparse > 0)

    def test_sparse_blocks_stay_below_a_code_array(self):
        # a block's keys stay within twice its share of _BALL_BLOCK * n
        g = gl.generate_er(5000, 2.0, 1)
        counters = clause_one(g, 3)
        assert counters["ball_sources"] == g.n
        assert counters["ball_keys_peak"] <= 2 * graphs._BALL_BLOCK * g.n

    def test_radius_validated(self):
        with pytest.raises(ValueError):
            gl.tree_excess_all(path3(), -1)


class TestWalkBounds:
    @pytest.mark.parametrize("g", small_cases(), ids=repr)
    def test_counts_match_brute_force(self, g):
        # the counts are capped at n, so compare what lies below the cap
        for k, walks in zip(range(1, 8), graphs._walk_counts(g)):
            expect = [min(brute_walks(g, v, k), g.n) for v in range(g.n)]
            assert np.minimum(walks, g.n).tolist() == expect, k

    @pytest.mark.parametrize("alpha", [0.05, 0.25, 0.5, 0.75, 0.95])
    def test_bound_covers_exact_phi(self, alpha):
        for seed in range(12):
            g = gl.generate_er(40 + 30 * seed, 0.5 + seed / 3, seed)
            phi = gl.alpha_weights_all(g, alpha)
            # the swept phi carries its own rounding, far below 1e-12
            floor = phi - 1e-12 * (phi + 1)
            for k, (head, tail) in zip(range(1, 60),
                                       graphs._walk_bounds(g, alpha)):
                assert np.all(head + tail >= floor), (seed, k)
                if not tail.any():
                    break
            # past every eccentricity the head alone is the bound
            assert not tail.any()
            assert np.all(head >= floor)


class TestMaxPathWeight:
    def test_path_grabs_both_edges(self):
        # path 0-1-2 at alpha=0.5, up to 2 edges: phi contributions
        # 1.0 (middle) + 2*0.75 (ends) = 2.5 along the full path
        mpw = gl.max_path_alpha_weight(path3(), 0.5, 2)
        assert mpw.value == pytest.approx(2.5)
        assert tuple(sorted(mpw.path)) == (0, 1, 2)

    def test_triangle_single_edge(self):
        # each vertex has phi = 1.0; best 1-edge path sums two of them
        mpw = gl.max_path_alpha_weight(triangle(), 0.5, 1)
        assert mpw.value == pytest.approx(2.0)
        assert len(mpw.path) == 2

    def test_zero_length_is_max_phi(self):
        mpw = gl.max_path_alpha_weight(star4(), 0.5, 0)
        assert mpw.value == pytest.approx(1.5)
        assert mpw.path == (0,)


def reference_heaviest_path(g, phi, l):
    """The first path in (root order, adjacency preorder) of the greatest
    phi sum, by plain enumeration of every path of at most l edges; roots
    go by decreasing phi, ties by index, and sums run from 0.0 along the
    path, as in the search."""
    phi = [float(x) for x in phi]
    best, best_path = -math.inf, ()

    def extend(path, total):
        nonlocal best, best_path
        if total > best:
            best, best_path = total, tuple(path)
        if len(path) <= l:
            for w in g.adj[path[-1]]:
                if w not in path:
                    path.append(w)
                    extend(path, total + phi[w])
                    path.pop()

    for v in sorted(range(g.n), key=lambda v: -phi[v]):
        extend([v], 0.0 + phi[v])
    return best, best_path


def complete_graph(n):
    return gl.Graph(n, [(u, v) for v in range(n) for u in range(v)])


def cycle(n):
    return gl.Graph(n, [(i, (i + 1) % n) for i in range(n)])


def petersen():
    return gl.Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                    + [(i, i + 5) for i in range(5)]
                    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def random_regular(n, d, seed):
    """A uniform d-regular simple graph by the pairing model, retried
    until the pairing has no loop or repeated pair."""
    rng = np.random.default_rng(seed)
    while True:
        points = rng.permutation(np.repeat(np.arange(n), d)).reshape(-1, 2)
        pairs = {(min(u, v), max(u, v)) for u, v in points.tolist()}
        if len(pairs) == len(points) and all(u != v for u, v in pairs):
            return gl.Graph(n, pairs)


def disjoint_union(*parts):
    edges, base = [], 0
    for h in parts:
        edges += [(u + base, v + base) for u, v in h.edges]
        base += h.n
    return gl.Graph(base, edges)


def oracle_graphs():
    yield pytest.param(gl.Graph(0, []), id="n=0")
    yield pytest.param(gl.Graph(1, []), id="n=1")
    yield pytest.param(gl.Graph(2, []), id="n=2-edgeless")
    yield pytest.param(gl.Graph(2, [(0, 1)]), id="n=2-edge")
    yield pytest.param(gl.Graph(90, []), id="edgeless-90")
    yield pytest.param(disjoint_union(complete_graph(4), cycle(7), path3(),
                                      gl.Graph(5, []), petersen()),
                       id="disconnected")
    # on K70 every vertex is a candidate, past the first 64 swept
    for n in (3, 6, 9, 70):
        yield pytest.param(complete_graph(n), id=f"K{n}")
    for n in (5, 12, 130):
        yield pytest.param(cycle(n), id=f"C{n}")
    yield pytest.param(petersen(), id="petersen")
    for n, d, seed in ((12, 3, 1), (40, 3, 2), (150, 3, 3), (60, 4, 4)):
        yield pytest.param(random_regular(n, d, seed),
                           id=f"regular-{n}-{d}")
    yield pytest.param(gl.random_tree(120, seed=5), id="tree-120")
    yield pytest.param(gl.Graph(200, [(i, i + 1) for i in range(199)]),
                       id="path-200")
    for n, d in ((30, 3.0), (100, 1.0), (300, 2.0), (500, 2.5)):
        yield pytest.param(gl.generate_er(n, d, seed=n + int(d)),
                           id=f"er-{n}-{d}")


ORACLE_ALPHAS = (0.05, 0.25, 0.5, 0.75, 0.95)


class TestPathSearch:
    # The search sweeps phi only at the candidates of its bounds; its
    # value and witness are those of the search over the exact phi.

    @pytest.mark.parametrize("phi", [None, [1.0, 1.0, 1.0]])
    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5])
    def test_alpha_validated_first(self, monkeypatch, phi, alpha):
        def no_bounds(*args):
            raise AssertionError("a bound ran before alpha was checked")
        monkeypatch.setattr(graphs, "_walk_bounds", no_bounds)
        monkeypatch.setattr(graphs, "_sweep", no_bounds)
        with pytest.raises(ValueError, match="alpha"):
            gl.max_path_alpha_weight(path3(), alpha, 2, phi=phi)

    def test_empty_and_single_vertex(self):
        assert gl.max_path_alpha_weight(gl.Graph(0, []), 0.5, 3) == \
            graphs.MaxPathWeight(0.0, ())
        one = gl.max_path_alpha_weight(gl.Graph(1, []), 0.5, 3)
        assert (one.value, one.path, one.swept, one.nodes) == \
            (0.0, (0,), 1, 1)

    @pytest.mark.parametrize("g", [pytest.param(g, id=repr(g))
                                   for g in small_cases()] + [
        pytest.param(petersen(), id="petersen"),
        pytest.param(complete_graph(6), id="K6"),
        pytest.param(cycle(9), id="C9"),
        pytest.param(disjoint_union(cycle(4), path3(), gl.Graph(2, [])),
                     id="disconnected")])
    def test_matches_plain_enumeration(self, g):
        rng = np.random.default_rng(g.n + g.m)
        for alpha in ORACLE_ALPHAS:
            phi = gl.alpha_weights_all(g, alpha)
            # phi known at a random half, as clause 1 may hand it over
            half = np.where(rng.random(g.n) < 0.5, np.nan, phi)
            for l in range(5):
                want = reference_heaviest_path(g, phi, l)
                for given in (None, phi, half):
                    got = gl.max_path_alpha_weight(g, alpha, l, phi=given)
                    assert (got.value, got.path) == want, (alpha, l)

    def test_bounds_cover_every_path(self):
        # B(v) is at least the bound-weight of each path through v, for
        # one split run per split and for runs of several
        for seed in range(6):
            g = gl.generate_er(11, 2.0 + seed / 2, seed)
            upper = graphs._phi_upper(g, 0.5)
            for l in range(7):
                heaviest = [max(upper[list(p)].sum()
                                for p in paths_through(g, v, l))
                            for v in range(g.n)]
                for splits in (1, 2, 16):
                    with pytest.MonkeyPatch.context() as mp:
                        mp.setattr(graphs, "_SPLITS", splits)
                        bound = graphs._path_bounds(g, upper, l)
                    assert np.all(bound >= np.array(heaviest) * (1 - 1e-12))


def paths_through(g, v, l):
    """Every path of at most l edges with v on it."""
    out = []

    def extend(path):
        if v in path:
            out.append(tuple(path))
        if len(path) <= l:
            for w in g.adj[path[-1]]:
                if w not in path:
                    path.append(w)
                    extend(path)
                    path.pop()

    for s in range(g.n):
        extend([s])
    return out


def expected_records(g, hp, radius):
    """check_hypothesis's records from the full-depth sweep: tree excess
    at the radius, and the path search over the exact phi."""
    excess = gl.tree_excess_all(g, radius)
    phi = gl.alpha_weights_all(g, hp.alpha)
    mpw = gl.max_path_alpha_weight(g, hp.alpha, radius, phi=phi)
    bad = [int(v) for v in np.nonzero(excess > hp.t)[0]]
    path_bound = hp.delta * math.log(g.n) if g.n > 1 else 0.0
    return mpw.value, [
        gl.CheckRecord(
            check="tree-excess", passed=not bad,
            witness={"violations": len(bad),
                     "first": [{"vertex": v, "excess": int(excess[v])}
                               for v in bad[:20]]},
            value=int(excess.max()) if g.n else 0, bound=hp.t),
        gl.CheckRecord(
            check="path-weight", passed=mpw.value < path_bound,
            witness={"path": list(mpw.path)}, value=mpw.value,
            bound=path_bound),
    ]


class TestCheckOracle:
    # check_hypothesis against the full sweep, over 5 alphas and radii
    # 1-4 (0 below two vertices) on each graph: 480 seeded cases.

    @pytest.mark.parametrize("g", oracle_graphs())
    def test_equals_full_sweep(self, g):
        for alpha in ORACLE_ALPHAS:
            for l in range(1, 5):
                a = (l - 0.5) / math.log(g.n) if g.n > 1 else 1.0
                hp = gl.HypothesisParams(a=a, alpha=alpha, t=1, delta=2.0)
                rep = gl.check_hypothesis(g, hp)
                assert rep.radius == (l if g.n > 1 else 0)
                m_alpha, records = expected_records(g, hp, rep.radius)
                assert rep.records == records, (alpha, l)
                assert rep.m_alpha == m_alpha
                assert 0 <= rep.phi_swept <= g.n
                assert np.array_equal(rep.phi,
                                      gl.alpha_weights_all(g, alpha))


class TestBoundaries:
    def test_path_prefix(self):
        b = gl.boundaries(path3(), [0, 1])
        assert b.interior == (1,)
        assert b.exterior == (2,)

    def test_whole_graph_empty(self):
        b = gl.boundaries(path3(), [0, 1, 2])
        assert b.interior == ()
        assert b.exterior == ()

    def test_exterior_boundary_shortcut(self):
        assert gl.exterior_boundary(star4(), [1]) == (0,)


class TestHypothesis:
    def test_params_validated(self):
        with pytest.raises(ValueError):
            gl.HypothesisParams(a=0.0, alpha=0.5, t=1, delta=1.0)
        with pytest.raises(ValueError):
            gl.HypothesisParams(a=1.0, alpha=1.0, t=1, delta=1.0)
        with pytest.raises(ValueError):
            gl.HypothesisParams(a=1.0, alpha=0.5, t=-1, delta=1.0)
        with pytest.raises(ValueError):
            gl.HypothesisParams(a=1.0, alpha=0.5, t=1, delta=0.0)

    def test_log_radius(self):
        assert gl.log_radius(1.0, 8, base=2) == 3
        assert gl.log_radius(0.2, 5000) == 2

    def test_k4_fails_tree_excess(self):
        rep = gl.check_hypothesis(k4(), gl.HypothesisParams(1.0, 0.5, 1, 10.0))
        assert not rep.passed
        failed = [r.check for r in rep.records if not r.passed]
        assert failed == ["tree-excess"]
        excess = next(r for r in rep.records if r.check == "tree-excess")
        assert excess.value == 3

    def test_tree_passes_at_t0(self):
        g = gl.random_tree(7, seed=2)
        rep = gl.check_hypothesis(g, gl.HypothesisParams(1.0, 0.5, 0, 10.0))
        assert rep.passed

    def test_small_delta_fails_path_weight(self):
        g = gl.random_tree(30, seed=6)
        rep = gl.check_hypothesis(g, gl.HypothesisParams(1.0, 0.5, 0, 1e-9))
        failed = [r.check for r in rep.records if not r.passed]
        assert failed == ["path-weight"]

    def test_phi_exposed_for_reuse(self):
        g = gl.generate_er(40, 1.5, seed=8)
        rep = gl.check_hypothesis(g, gl.HypothesisParams(0.5, 0.25, 5, 10.0))
        assert np.allclose(rep.phi, gl.alpha_weights_all(g, 0.25))

    def test_known_phi_keeps_the_path_sweep(self, monkeypatch):
        # clause 1 builds every ball sparsely and hands over no phi, so
        # all 330 known values come from clause 2's candidates
        g = gl.generate_er(5000, 0.5, 1)
        rep = gl.check_hypothesis(g, gl.HypothesisParams(1, 0.25, 1, 2.07))
        assert rep.phi_swept == 330
        assert np.count_nonzero(~np.isnan(rep.known_phi)) == 330
        swept = []
        sweep = graphs.alpha_weights_all

        def counted(g, alpha, sources=None):
            swept.append(len(sources))
            return sweep(g, alpha, sources)

        monkeypatch.setattr(graphs, "alpha_weights_all", counted)
        phi = rep.phi
        assert swept == [g.n - 330]
        assert phi.tobytes() == sweep(g, 0.25).tobytes()


class TestGenerateEr:
    def test_deterministic(self):
        a = gl.generate_er(200, 2.0, seed=5)
        b = gl.generate_er(200, 2.0, seed=5)
        assert a.edges == b.edges

    def test_edge_count_pin_small(self):
        g = gl.generate_er(200, 2.0, seed=5)
        assert (g.n, len(g.edges)) == (200, 188)

    def test_edge_count_pin_large(self):
        g = gl.generate_er(10000, 2.0, seed=1)
        assert len(g.edges) == 10102

    def test_mean_degree_near_d(self):
        g = gl.generate_er(5000, 3.0, seed=2)
        mean = 2 * len(g.edges) / g.n
        assert abs(mean - 3.0) < 0.2


class TestEdgeListIO:
    def test_round_trip(self, tmp_path):
        g = gl.generate_er(80, 2.0, seed=7)
        p = tmp_path / "g.edges"
        gl.write_edge_list(g, p)
        h = gl.read_edge_list(p)
        assert h.n == g.n and h.edges == g.edges

    def test_format_header(self):
        text = gl.format_edge_list(k4())
        assert text.splitlines()[0] == "4 6"

    def test_parse_rejects_bad_count(self):
        with pytest.raises(ValueError):
            gl.parse_edge_list("2 5\n0 1\n")

    def test_isolated_vertices_survive(self, tmp_path):
        g = gl.Graph(5, [(0, 1)])
        p = tmp_path / "g.edges"
        gl.write_edge_list(g, p)
        assert gl.read_edge_list(p).n == 5

    @pytest.mark.parametrize("text, message", [
        ("", "edge list has no header line"),
        ("# a comment\n\n", "edge list has no header line"),
        ("3\n", "malformed header '3'"),
        ("3 1 0\n0 1\n", "malformed header '3 1 0'"),
        ("2 5\n0 1\n", "header declares 5 edges, found 1"),
        ("3 1\n0 1 2\n", "malformed edge line '0 1 2'"),
        ("3 1\n0 x\n", "invalid literal for int() with base 10: 'x'"),
        ("3 1\n1 0\n", "edge 1 0 violates u < v"),
        ("3 1\n1 1\n", "edge 1 1 violates u < v"),
        ("3 1\n0 3\n", "edge (0,3) out of range for n=3"),
        ("3 1\n-1 2\n", "edge (-1,2) out of range for n=3"),
        ("5 2\n0 1\n2 7\n", "edge (2,7) out of range for n=5"),
        ("3 2\n0 1\n0 1\n", "parallel edge (0,1)"),
        ("4 3\n0 1\n2 3\n0 1\n", "parallel edge (0,1)"),
        ("-1 0\n", "vertex count must be nonnegative"),
    ])
    def test_malformed_input_keeps_its_error(self, text, message):
        with pytest.raises(ValueError) as exc:
            gl.parse_edge_list(text)
        assert str(exc.value) == message

    def test_unsorted_file_equals_graph(self):
        g = gl.parse_edge_list("# unsorted\n5 4\n\n3 4\n0 2\n1 3\n0 1\n")
        h = gl.Graph(5, [(3, 4), (0, 2), (1, 3), (0, 1)])
        assert g == h and g.adj == h.adj
        assert g.edges == ((0, 1), (0, 2), (1, 3), (3, 4))

    @pytest.mark.parametrize("n, d, seed", [(3500, 2.0, 1), (400, 2.5, 1),
                                            (400, 2.5, 2)])
    def test_sorted_file_skips_graph_checks(self, tmp_path, monkeypatch,
                                            n, d, seed):
        # the graphs of the hypothesis and blocks workloads
        g = gl.generate_er(n, d, seed)
        p = tmp_path / "g.edges"
        gl.write_edge_list(g, p)

        def checked(*args):
            raise AssertionError("a sorted file went through Graph()")

        monkeypatch.setattr(gl.Graph, "__init__", checked)
        h = gl.read_edge_list(p)
        assert h.n == g.n and h.edges == g.edges and h.adj == g.adj
