"""The model-specialised heat-bath kernel against the generic conditional.

``HeatBath.draw`` must equal ``sample_index(local_conditional(...), u)`` and
``HeatBath.pmf`` must equal ``local_conditional``, float for float, so that
every chain built on the kernel replays the generic chain draw for draw.
"""

import hashlib
import itertools
import math
import random

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


def coupling_uniforms(p, q, rng):
    """0, 1 - 2**-53, one random uniform, and the uniforms at which the
    generic coupling's cumulative walk switches entry (each partial sum
    over the total, and the floats just either side)."""
    entries = gl.maximal_coupling_entries(p, q)
    total = sum(m for _, _, m in entries)
    out = [0.0, 1.0 - 2.0 ** -53, rng.random()]
    acc = 0.0
    for _, _, m in entries:
        acc += m
        u = acc / total
        out += [u, math.nextafter(u, 0.0), math.nextafter(u, 1.0)]
    return [u for u in out if 0.0 <= u < 1.0]


def star_pair(tl, tr, own=(0, 0)):
    """A star whose center v sees the taken sets tl and tr in two
    configurations; v holds ``own`` in them."""
    tl, tr = sorted(tl), sorted(tr)
    leaves = max(len(tl), len(tr))
    v = leaves
    g = gl.Graph(leaves + 1, [(i, v) for i in range(leaves)])
    left = [tl[i % len(tl)] for i in range(leaves)] + [own[0]]
    right = [tr[i % len(tr)] for i in range(leaves)] + [own[1]]
    return g, v, left, right


def taken_pairs(q, rng, count):
    """Random taken-set pairs, each with a free color on both sides: about
    half are independent subsets, half differ by one recolored, added or
    removed color, as next to a single disagreeing neighbor."""
    for _ in range(count):
        tl = set(rng.sample(range(q), rng.randrange(1, q)))
        if rng.random() < 0.5:
            tr = set(rng.sample(range(q), rng.randrange(1, q)))
        else:
            tr = set(tl)
            free = [c for c in range(q) if c not in tl]
            move = rng.randrange(3)
            if move != 1 and len(tr) > 1:
                tr.discard(rng.choice(sorted(tr)))
            if move != 0 and len(tr) < q - 1:
                tr.add(rng.choice([c for c in free if c not in tr]))
        yield tl, tr


class TestColoringCouple:
    """``HeatBath.couple`` reads the maximal coupling of two colorings'
    uniform conditionals off the taken sets; it must give the pair that
    ``sample_maximal_coupling`` gives on the two pmfs, uniform for
    uniform."""

    @pytest.mark.parametrize("q", [3, 4, 5, 7, 20, 31])
    def test_matches_generic_coupling(self, q):
        rng = random.Random(q)
        cases = 0
        for tl, tr in taken_pairs(q, rng, 600):
            g, v, left, right = star_pair(tl, tr)
            kernel = gl.HeatBath(gl.coloring_model(q), g)
            p, r = kernel.pmf(left, v), kernel.pmf(right, v)
            for u in coupling_uniforms(p, r, rng):
                assert kernel.couple(left, right, v, u) == \
                    gl.sample_maximal_coupling(p, r, u), (tl, tr, u)
                cases += 1
        assert cases >= 3000

    @pytest.mark.parametrize("q", [3, 4, 5, 7, 20, 31])
    def test_identical_neighborhoods_share_the_draw(self, q):
        # v itself may disagree: only its neighbors' colors enter
        rng = random.Random(q)
        for _ in range(300):
            tl = set(rng.sample(range(q), rng.randrange(1, q)))
            own = (rng.randrange(q), rng.randrange(q))
            g, v, left, right = star_pair(tl, tl, own)
            kernel = gl.HeatBath(gl.coloring_model(q), g)
            for u in (0.0, 1.0 - 2.0 ** -53, rng.random()):
                x = kernel.draw(left, v, u)
                assert kernel.couple(left, right, v, u) == (x, x)

    @pytest.mark.parametrize("q", [2, 3, 7])
    def test_exhausted_palette_raises_naming_v(self, q):
        full, some = set(range(q)), {0}
        for tl, tr in ((full, some), (some, full), (full, full)):
            g, v, left, right = star_pair(tl, tr)
            kernel = gl.HeatBath(gl.coloring_model(q), g)
            # the left side is checked first, as pmf(left) is generically
            side = left if tl == full else right
            with pytest.raises(gl.NoFeasibleStateError) as want:
                kernel.pmf(side, v)
            with pytest.raises(gl.NoFeasibleStateError) as got:
                kernel.couple(left, right, v, 0.5)
            assert str(got.value) == str(want.value)
            assert f"vertex {v} " in str(got.value)
