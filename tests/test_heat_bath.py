"""The model-specialised heat-bath kernel against the generic conditional.

``HeatBath.draw`` must equal ``sample_index(local_conditional(...), u)`` and
``HeatBath.pmf`` must equal ``local_conditional``, float for float, so that
every chain built on the kernel replays the generic chain draw for draw.
"""

import hashlib
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glauberlab as gl

# 1.0 lies outside a uniform's range but drives sample_index's fallback
UNIFORMS = st.one_of(st.just(0.0), st.just(1.0 - 2.0 ** -53), st.just(1.0),
                     st.floats(0.0, 1.0, exclude_max=True))
# exp underflows at both ends of the list; drawn activities give pmfs
# whose two masses do not sum to exactly 1.0
BETAS = st.one_of(st.sampled_from((-800.0, -1.0, 0.0, 0.5, 1.0, 800.0)),
                  st.floats(-50.0, 50.0))


@st.composite
def graph_and_config(draw, q, compatible):
    """A graph on 1..7 vertices with a configuration that is feasible by
    construction: edges are drawn only between compatible state pairs."""
    n = draw(st.integers(1, 7))
    config = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    pairs = [(a, b) for a, b in itertools.combinations(range(n), 2)
             if compatible(config[a], config[b])]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    g = gl.Graph(n, [e for e, k in zip(pairs, keep) if k])
    return g, config


def colorings(q):
    return graph_and_config(q, lambda a, b: a != b)


def independent_sets():
    return graph_and_config(2, lambda a, b: not (a and b))


@st.composite
def soft_models(draw):
    q = draw(st.integers(1, 4))
    vals = st.floats(-5.0, 5.0)
    h = draw(st.lists(vals, min_size=q, max_size=q))
    g = [[0.0] * q for _ in range(q)]
    for i in range(q):
        for j in range(i, q):
            g[i][j] = g[j][i] = draw(vals)
    return gl.soft_model(h, g)


def boundary_uniforms(pmf):
    """The uniforms at which sample_index's cumulative walk switches index:
    each partial sum over the total, and the floats just either side."""
    total = 0.0
    for p in pmf:
        total += p
    out = []
    acc = 0.0
    for p in pmf:
        acc += p
        u = acc / total
        out += [u, math.nextafter(u, 0.0), math.nextafter(u, 1.0)]
    return [u for u in out if 0.0 <= u <= 1.0]


def assert_matches_generic(model, g, config, us):
    kernel = gl.HeatBath(model, g)
    for v in range(g.n):
        want = gl.local_conditional(model, g, config, v)
        assert kernel.pmf(config, v) == want
        for u in us + boundary_uniforms(want):
            assert kernel.draw(config, v, u) == gl.sample_index(want, u)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), q=st.integers(2, 40),
       us=st.lists(UNIFORMS, min_size=1, max_size=4))
def test_coloring_matches_generic(data, q, us):
    g, config = data.draw(colorings(q))
    assert_matches_generic(gl.coloring_model(q), g, config, us)


@settings(max_examples=200, deadline=None)
@given(gc=independent_sets(), beta=BETAS,
       us=st.lists(UNIFORMS, min_size=1, max_size=4))
def test_hardcore_matches_generic(gc, beta, us):
    g, config = gc
    assert_matches_generic(gl.hardcore_model(beta), g, config, us)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), model=soft_models(),
       us=st.lists(UNIFORMS, min_size=1, max_size=4))
def test_soft_matches_generic(data, model, us):
    g, config = data.draw(graph_and_config(model.q, lambda a, b: True))
    assert_matches_generic(model, g, config, us)


@settings(max_examples=40, deadline=None)
@given(q=st.integers(2, 40), u=UNIFORMS)
def test_every_color_taken_raises_like_generic(q, u):
    # the center of a star whose q leaves hold q distinct colors
    g = gl.Graph(q + 1, [(0, leaf) for leaf in range(1, q + 1)])
    config = [0] + list(range(q))
    model = gl.coloring_model(q)
    kernel = gl.HeatBath(model, g)
    with pytest.raises(gl.NoFeasibleStateError) as generic:
        gl.local_conditional(model, g, config, 0)
    with pytest.raises(gl.NoFeasibleStateError) as drawn:
        kernel.draw(config, 0, u)
    with pytest.raises(gl.NoFeasibleStateError) as pmf:
        kernel.pmf(config, 0)
    assert str(drawn.value) == str(pmf.value) == str(generic.value)


def test_q20_trajectory_pinned():
    # frozen regression: a 20-coloring chain on G(400, 2/400); the values
    # were recorded from the generic local_conditional/sample_index path
    g = gl.generate_er(400, 2.0, seed=11)
    start = gl.greedy_coloring(g, 20)
    st_, trace = gl.run_chain(gl.coloring_model(20), g, start, 40000,
                              seed=9, stride=1000)
    digest = hashlib.sha256(bytes(st_.config)).hexdigest()[:16]
    assert digest == "6facece44d406100"
    assert len(trace) == 41
    assert trace[-3:] == [(38000, 376, 370), (39000, 376, 372),
                          (40000, 383, 382)]
