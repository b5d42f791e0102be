import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glauberlab as gl


def path3():
    return gl.Graph(3, [(0, 1), (1, 2)])


def triangle():
    return gl.Graph(3, [(0, 1), (0, 2), (1, 2)])


def c6():
    return gl.Graph(6, [(i, (i + 1) % 6) for i in range(6)])


def soft_example():
    # asymmetric single-site field, attractive diagonal
    return gl.soft_model([0.2, -0.1], [[0.3, 0.0], [0.0, 0.3]])


def brute_conditional(model, graph, config, v):
    """Independent oracle: enumerate the q states at v directly from the
    log-weight of the full configuration."""
    weights = []
    for x in model.states:
        cfg = list(config)
        cfg[v] = x
        lw = gl.log_weight(model, graph, cfg)
        weights.append(0.0 if lw == -math.inf else math.exp(lw))
    total = sum(weights)
    return [w / total for w in weights]


class TestConstructors:
    def test_coloring_shape(self):
        m = gl.coloring_model(3)
        assert m.q == 3 and m.kind == "coloring"
        assert m.g[0][0] == -math.inf and m.g[0][1] == 0.0

    def test_coloring_needs_two_colors(self):
        with pytest.raises(ValueError):
            gl.coloring_model(1)

    def test_hardcore_shape(self):
        m = gl.hardcore_model(0.5)
        assert m.q == 2 and m.h == (0.0, 0.5)
        assert m.g[1][1] == -math.inf

    def test_hardcore_activity_finite(self):
        with pytest.raises(ValueError):
            gl.hardcore_model(math.inf)

    def test_soft_rejects_minus_inf(self):
        with pytest.raises(ValueError):
            gl.soft_model([0.0, 0.0], [[0.0, -math.inf], [-math.inf, 0.0]])

    def test_g_must_be_symmetric(self):
        with pytest.raises(ValueError):
            gl.soft_model([0.0, 0.0], [[0.0, 0.1], [0.2, 0.0]])


class TestLogWeight:
    def test_proper_coloring_zero(self):
        assert gl.log_weight(gl.coloring_model(3), path3(), [0, 1, 0]) == 0.0

    def test_improper_coloring_minus_inf(self):
        lw = gl.log_weight(gl.coloring_model(3), path3(), [0, 0, 1])
        assert lw == -math.inf

    def test_hardcore_counts_occupied(self):
        m = gl.hardcore_model(0.7)
        assert gl.log_weight(m, path3(), [1, 0, 1]) == pytest.approx(1.4)

    def test_soft_sums_h_and_g(self):
        m = soft_example()
        # h: 0.2 + (-0.1) + 0.2; g: edges (0,1) and (1,2) both off-diagonal
        lw = gl.log_weight(m, path3(), [0, 1, 0])
        assert lw == pytest.approx(0.3)
        lw2 = gl.log_weight(m, path3(), [0, 0, 0])
        assert lw2 == pytest.approx(0.6 + 0.6)


class TestFeasibility:
    def test_proper_is_feasible(self):
        assert gl.is_feasible(gl.coloring_model(3), triangle(), [0, 1, 2])

    def test_monochrome_edge_is_not(self):
        assert not gl.is_feasible(gl.coloring_model(3), triangle(), [0, 0, 1])

    def test_hardcore_adjacent_occupied(self):
        m = gl.hardcore_model(0.0)
        assert gl.is_feasible(m, path3(), [1, 0, 1])
        assert not gl.is_feasible(m, path3(), [1, 1, 0])

    def test_soft_always_feasible(self):
        m = soft_example()
        for cfg in itertools.product(range(2), repeat=3):
            assert gl.is_feasible(m, path3(), list(cfg))


class TestLocalConditional:
    def test_matches_brute_force_all_models(self):
        graphs = [path3(), triangle(), gl.Graph(4, [(0, 1), (0, 2), (0, 3)])]
        models = [gl.coloring_model(3), gl.coloring_model(4),
                  gl.hardcore_model(0.5), soft_example()]
        for g in graphs:
            for m in models:
                for cfg in itertools.product(range(m.q), repeat=g.n):
                    if not gl.is_feasible(m, g, cfg):
                        continue
                    for v in range(g.n):
                        got = gl.local_conditional(m, g, cfg, v)
                        want = brute_conditional(m, g, cfg, v)
                        assert got == pytest.approx(want, abs=1e-12)

    def test_frozen_vertex_keeps_state(self):
        # triangle q=3: each vertex is forced to its current color
        m = gl.coloring_model(3)
        probs = gl.local_conditional(m, triangle(), (0, 1, 2), 0)
        assert probs == pytest.approx([1.0, 0.0, 0.0])


class TestModelNorm:
    def test_coloring_is_zero_hard(self):
        norm = gl.model_norm(gl.coloring_model(3))
        assert norm.value == 0.0 and norm.hard_constrained

    def test_hardcore_is_activity(self):
        norm = gl.model_norm(gl.hardcore_model(2.0))
        assert norm.value == 2.0 and norm.hard_constrained

    def test_soft_max_abs_entry(self):
        norm = gl.model_norm(soft_example())
        assert norm.value == pytest.approx(0.3)
        assert not norm.hard_constrained


def degeneracy(graph):
    """Naive oracle: the largest minimum degree seen while repeatedly
    deleting a vertex of minimum degree."""
    alive = set(range(graph.n))
    best = 0
    while alive:
        deg = {v: sum(1 for w in graph.adj[v] if w in alive) for v in alive}
        v = min(alive, key=deg.get)
        best = max(best, deg[v])
        alive.remove(v)
    return best


class TestInitialConfiguration:
    def test_even_cycle_two_colors_used(self):
        cfg = gl.initial_configuration(gl.coloring_model(3), c6())
        assert cfg == [0, 1, 0, 1, 0, 1]
        assert gl.is_feasible(gl.coloring_model(3), c6(), cfg)

    def test_triangle_needs_three(self):
        cfg = gl.initial_configuration(gl.coloring_model(3), triangle())
        assert gl.is_feasible(gl.coloring_model(3), triangle(), cfg)

    def test_rejects_tiny_palette(self):
        with pytest.raises(gl.PaletteExhaustedError):
            gl.initial_configuration(gl.coloring_model(2), triangle())

    def test_hardcore_starts_empty(self):
        cfg = gl.initial_configuration(gl.hardcore_model(1.0), c6())
        assert cfg == [0] * 6

    def test_peeling_error_on_dense_core(self):
        # the supercritical instance whose 2-core no peeled start could
        # color: ER at mean degree 2 has degeneracy 2, so 3 colors suffice
        g = gl.generate_er(2000, 2.0, seed=5)
        m = gl.coloring_model(3)
        assert gl.is_feasible(m, g, gl.initial_configuration(m, g))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(4, 200), d=st.floats(0.5, 4.0),
           seed=st.integers(0, 10 ** 6))
    def test_degeneracy_plus_one_colors_suffice(self, n, d, seed):
        # first-fit in smallest-last order (Matula and Beck, JACM 1983);
        # coloring_model needs two colors even on an edgeless graph
        g = gl.generate_er(n, d, seed)
        m = gl.coloring_model(max(2, degeneracy(g) + 1))
        assert gl.is_feasible(m, g, gl.initial_configuration(m, g))


class TestGreedyColoring:
    def test_proper_on_er(self):
        g = gl.generate_er(100, 3.0, seed=1)
        dmax = max(g.degree(v) for v in range(g.n))
        cfg = gl.greedy_coloring(g, dmax + 1)
        assert gl.is_feasible(gl.coloring_model(dmax + 1), g, cfg)

    def test_order_changes_result(self):
        g = gl.generate_er(100, 3.0, seed=1)
        fwd = gl.greedy_coloring(g, 20)
        bwd = gl.greedy_coloring(g, 20, order=range(g.n - 1, -1, -1))
        assert fwd != bwd

    def test_palette_exhausted(self):
        with pytest.raises(gl.PaletteExhaustedError):
            gl.greedy_coloring(triangle(), 2)


class TestModelIO:
    def test_json_round_trip(self, tmp_path):
        for m in [gl.coloring_model(4), gl.hardcore_model(0.5),
                  soft_example()]:
            p = tmp_path / "m.json"
            gl.write_model(m, p)
            assert gl.read_model(p) == m

    def test_minus_inf_survives_json(self):
        d = gl.model_to_json_dict(gl.coloring_model(3))
        m = gl.model_from_json_dict(d)
        assert m.g[0][0] == -math.inf


class TestModelJsonValidation:
    @pytest.mark.parametrize("data", [
        [],
        "coloring",
        {"kind": "coloring", "q": "3", "h": [0, 0, 0],
         "g": [["-inf", 0, 0], [0, "-inf", 0], [0, 0, "-inf"]]},
        {"kind": "hardcore", "q": 2, "h": [0, 1], "g": [[0, 0], [0, "-inf"]],
         "beta": True},
        {"kind": "hardcore", "q": 2, "h": [0, 1], "g": [[0, 0], [0, "-inf"]],
         "beta": None},
        {"kind": "soft", "q": 2, "h": [0, None], "g": [[0, 0], [0, 0]]},
        {"kind": "soft", "q": 2, "h": 5, "g": [[0, 0], [0, 0]]},
        {"kind": "soft", "q": 2, "h": [0, 0], "g": [[0, 0], 0]},
        {"kind": "colouring", "q": 3, "h": [0, 0, 0],
         "g": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]},
    ])
    def test_malformed_raises_value_error(self, data):
        with pytest.raises(ValueError):
            gl.model_from_json_dict(data)

    def test_integer_activity_accepted(self):
        data = gl.model_to_json_dict(gl.hardcore_model(2.0))
        data["beta"] = 2
        assert gl.model_from_json_dict(data) == gl.hardcore_model(2.0)
