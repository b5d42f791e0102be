"""Tests of the benchmark's own bookkeeping and output checks.

    python3 -m pytest perfbench/test_perfbench.py
"""

import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import spans  # noqa: E402
from glauberlab import blocks, exact, graphs, models  # noqa: E402


def test_self_time_is_duration_minus_covered_children():
    # span 0 holds 1 and 2, which overlap, and 3, which runs past its end;
    # span 1 holds 4
    parent = [-1, 0, 0, 0, 1]
    start = [0.0, 1.0, 2.0, 8.0, 1.5]
    end = [10.0, 3.0, 5.0, 12.0, 2.5]
    own = spans.self_times(parent, start, end)
    # children of 0 cover [1, 5] and [8, 10]: 6 of its 10 seconds
    assert own[0] == pytest.approx(4.0)
    assert own[1] == pytest.approx(1.0)
    assert list(own[2:]) == pytest.approx([3.0, 4.0, 1.0])


def test_recorder_nests_spans_and_restores_functions():
    class Holder:
        pass

    h = Holder()
    h.inner = lambda x: x + 1
    h.outer = lambda x: h.inner(x) * 2
    opaque = {"quiet": lambda x: h.inner(x)}
    rec = spans.Recorder()
    rec.install([(h, "inner", "inner", False, lambda x: x % 2),
                  (h, "outer", "outer", False, None),
                  (opaque, "quiet", "quiet", True, None)])
    assert [h.outer(x) for x in range(3)] == [2, 4, 6]
    assert opaque["quiet"](1) == 2
    rec.restore()
    assert not hasattr(h.inner, "__wrapped__")
    assert not hasattr(opaque["quiet"], "__wrapped__")
    names = [rec.names[i] for i in rec.name]
    assert names == ["outer", "inner"] * 3 + ["quiet"]
    assert list(rec.parent) == [-1, 0, -1, 2, -1, 4, -1]
    assert len(rec.distinct["inner"]) == 2


def test_independent_set_check_rejects_adjacent_occupied():
    g = graphs.Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert checks.independent_set_problems(g, [1, 0, 1, 0]) == []
    assert checks.independent_set_problems(g, [1, 0, 1, 1])


@pytest.fixture(scope="module")
def skeleton_case():
    g = graphs.generate_er(120, 2.5, 3)
    lab = blocks.classify(g, c=g.n, alpha=0.5, eps=1e9)
    L = 2 / math.log(g.n)
    comps = blocks.build_skeleton(g, lab, L, t=1000)
    low = [v for c in comps for v in c]
    high = [v for c in blocks.build_skeleton(g, lab, L, t=1000,
                                             scan_order="high") for v in c]
    assert comps
    return g, low, high, L, comps


def test_skeleton_check_accepts_both_scan_orders(skeleton_case):
    g, low, high, L, _ = skeleton_case
    assert checks.skeleton_problems(g, low, high, L) == []


def test_skeleton_check_rejects_a_removed_vertex(skeleton_case):
    g, low, high, L, _ = skeleton_case
    for k in range(len(low)):
        assert checks.skeleton_problems(g, low, low[:k] + low[k + 1:], L)


def test_skeleton_check_rejects_a_set_that_is_no_fixed_point(skeleton_case):
    # without one whole component both orders agree and no outside vertex
    # has two skeleton neighbours, but a rule applies again
    g, low, high, L, comps = skeleton_case
    for comp in comps:
        rest = [v for v in low if v not in comp]
        assert any("rule" in p
                   for p in checks.skeleton_problems(g, rest, rest, L))


@pytest.fixture(scope="module")
def exact_case():
    n, q = 5, 3
    g = graphs.Graph(n, [(v, v + 1) for v in range(n - 1)])
    chain = exact.transition_matrix(
        exact.enumerate_states(models.coloring_model(q), g))
    result = {"states": len(chain.states),
              "detailed_balance_gap": exact.detailed_balance_gap(chain),
              "min_pi": float(chain.pi.min()),
              "relaxation": exact.relaxation_time(chain),
              "mixing": exact.mixing_time(chain)}
    return result, n, q, checks.path_coloring_relaxation(n, q)[1]


def test_exact_check_accepts_the_program_output(exact_case):
    result, n, q, tau = exact_case
    assert checks.exact_problems(result, n, q, tau) == []


@pytest.mark.parametrize("field,corrupt", [
    ("states", lambda x: x + 1),
    ("states", lambda x: x - 1),
    ("relaxation", lambda x: x * (1 + 1e-6)),
    ("relaxation", lambda x: x * (1 - 1e-6)),
])
def test_exact_check_rejects_corrupted_output(exact_case, field, corrupt):
    result, n, q, tau = exact_case
    bad = dict(result, **{field: corrupt(result[field])})
    assert checks.exact_problems(bad, n, q, tau)
