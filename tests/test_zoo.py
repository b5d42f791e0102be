import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import glauberlab as gl
from glauberlab import cli, exact, zoo
from glauberlab.defaults import DEFAULTS
from glauberlab.zoo import (SUITES, connected_graphs, model_grid,
                            partitioned_cases, regular_graphs, run_suite,
                            skeleton_block_cases)

SRC = Path(__file__).resolve().parents[1] / "src"


# The census oracle: both graph lists regenerated by brute-force
# isomorphism, in the order and with the names the listed data keeps.

def _canonical_edges(n, edges):
    best = None
    for perm in itertools.permutations(range(n)):
        mapped = tuple(sorted(
            (perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])
            for u, v in edges))
        if best is None or mapped < best:
            best = mapped
    return best


def oracle_connected_graphs():
    out = []
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        reps = set()
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            if len(edges) < n - 1 or \
                    len(gl.bfs_distances(gl.Graph(n, edges), 0)) < n:
                continue
            reps.add(_canonical_edges(n, tuple(edges)))
        for k, edges in enumerate(sorted(reps, key=lambda e: (len(e), e)),
                                  start=1):
            out.append((f"G{n}.{k}", gl.Graph(n, edges)))
    return out


def _graph_invariant(n, adjset):
    mat = np.zeros((n, n))
    for u, v in adjset:
        mat[u, v] = mat[v, u] = 1.0
    eigs = tuple(round(float(x), 6) for x in np.linalg.eigvalsh(mat))
    tri = sum(1 for a, b, c in itertools.combinations(range(n), 3)
              if (a, b) in adjset and (a, c) in adjset and (b, c) in adjset)
    return eigs, tri


def _isomorphic(n, ea, eb):
    adj_a = [set() for _ in range(n)]
    adj_b = [set() for _ in range(n)]
    for u, v in ea:
        adj_a[u].add(v)
        adj_a[v].add(u)
    for u, v in eb:
        adj_b[u].add(v)
        adj_b[v].add(u)
    if sorted(map(len, adj_a)) != sorted(map(len, adj_b)):
        return False
    mapping = [None] * n
    used = [False] * n

    def extend(i):
        if i == n:
            return True
        for cand in range(n):
            if used[cand] or len(adj_b[cand]) != len(adj_a[i]):
                continue
            if all((j in adj_a[i]) == (mapping[j] in adj_b[cand])
                   for j in range(i)):
                mapping[i] = cand
                used[cand] = True
                if extend(i + 1):
                    return True
                used[cand] = False
        return False

    return extend(0)


def _regular_candidates(n, d):
    """Labeled d-regular graphs on n vertices, N0 forced to {1..d}."""
    results = []
    adj = [set() for _ in range(n)]
    residual = [d] * n

    def take(u, v):
        adj[u].add(v)
        adj[v].add(u)
        residual[u] -= 1
        residual[v] -= 1

    def drop(u, v):
        adj[u].discard(v)
        adj[v].discard(u)
        residual[u] += 1
        residual[v] += 1

    def rec():
        u = next((x for x in range(n) if residual[x] > 0), None)
        if u is None:
            results.append(frozenset(
                (a, b) for a in range(n) for b in adj[a] if a < b))
            return
        cands = [v for v in range(u + 1, n)
                 if residual[v] > 0 and v not in adj[u]]
        if len(cands) < residual[u]:
            return
        for chosen in itertools.combinations(cands, residual[u]):
            for v in chosen:
                take(u, v)
            rec()
            for v in chosen:
                drop(u, v)

    if d == 0:
        return [frozenset()]
    for v in range(1, d + 1):
        take(0, v)
    rec()
    return results


def _regular_classes(n, d):
    """Isomorphism classes of d-regular graphs on n vertices (edge sets)."""
    if n * d % 2 or d > n - 1:
        return []
    if 2 * d > n - 1:
        # Complementing is a bijection between d- and (n-1-d)-regular
        # classes; generate the sparse side.
        comps = _regular_classes(n, n - 1 - d)
        full = set(itertools.combinations(range(n), 2))
        return [sorted(full - set(edges)) for edges in comps]
    reps = []
    buckets = {}
    for cand in _regular_candidates(n, d):
        inv = _graph_invariant(n, cand)
        known = buckets.setdefault(inv, [])
        if any(_isomorphic(n, cand, other) for other in known):
            continue
        known.append(cand)
        reps.append(sorted(cand))
    reps.sort()
    return reps


def oracle_regular_graphs():
    out = []
    for n in range(1, 9):
        for d in range(n):
            for i, edges in enumerate(_regular_classes(n, d), start=1):
                out.append((f"reg{d}-n{n}-{i}", d, gl.Graph(n, edges)))
    return out


class TestCensusData:
    def test_connected_matches_oracle(self):
        assert [(name, g.n, g.edges) for name, g in connected_graphs()] == \
            [(name, g.n, g.edges) for name, g in oracle_connected_graphs()]

    def test_regular_matches_oracle(self):
        assert [(name, d, g.n, g.edges)
                for name, d, g in regular_graphs()] == \
            [(name, d, g.n, g.edges)
             for name, d, g in oracle_regular_graphs()]

    def test_import_builds_no_graphs(self):
        # cli imports zoo in every process: the census waits for a caller
        code = ("import glauberlab.cli, glauberlab.zoo as z; "
                "print(z.connected_graphs.cache_info().currsize, "
                "z.regular_graphs.cache_info().currsize, "
                "z._zoo_chains.cache_info().currsize)")
        done = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0", "0", "0"]


class TestConnectedCensus:
    def test_counts_match_oeis(self):
        # connected graphs up to isomorphism: 1, 1, 2, 6, 21
        cg = connected_graphs()
        by_n = Counter(g.n for _, g in cg)
        assert dict(by_n) == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21}
        assert len(cg) == 31

    def test_all_connected(self):
        for name, g in connected_graphs():
            seen = gl.bfs_distances(g, [0])
            assert len(seen) == g.n, name

    def test_pairwise_distinct_edge_sets(self):
        sigs = [(g.n, g.edges) for _, g in connected_graphs()]
        assert len(set(sigs)) == len(sigs)

    def test_names_stable(self):
        names = [n for n, _ in connected_graphs()[:4]]
        assert names == ["G1.1", "G2.1", "G3.1", "G3.2"]


class TestRegularCensus:
    def test_total_and_table(self):
        rg = regular_graphs()
        assert len(rg) == 48
        tab = Counter((g.n, d) for _, d, g in rg)
        # spot rows against the known counts of regular graphs
        assert tab[(8, 3)] == 6   # cubic graphs on 8 vertices
        assert tab[(6, 3)] == 2   # K_{3,3} and the prism
        assert tab[(8, 2)] == 3   # C8, C3+C5, C4+C4
        assert tab[(5, 2)] == 1   # C5 only

    def test_degrees_are_regular(self):
        for name, d, g in regular_graphs():
            assert all(g.degree(v) == d for v in range(g.n)), name

    def test_complement_symmetry(self):
        # the census of (n, d) matches (n, n-1-d) by complementation
        tab = Counter((g.n, d) for _, d, g in regular_graphs())
        for (n, d), cnt in tab.items():
            assert tab[(n, n - 1 - d)] == cnt


class TestModelGrid:
    def test_names(self):
        assert [n for n, _ in model_grid()] == [
            "coloring-q3", "coloring-q4", "hardcore-b0", "hardcore-b0.5",
            "hardcore-b1", "soft-r"]

    def test_soft_norm_within_half(self):
        soft = dict(model_grid())["soft-r"]
        assert gl.model_norm(soft).value <= 0.5

    def test_deterministic(self):
        a = dict(model_grid())["soft-r"]
        b = dict(model_grid())["soft-r"]
        assert a == b


class TestRandomTree:
    def test_shape(self):
        for k in (2, 5, 9):
            g = gl.random_tree(k, seed=k)
            assert g.n == k and len(g.edges) == k - 1
            assert len(gl.bfs_distances(g, [0])) == k

    def test_pinned_edges(self):
        assert gl.random_tree(8, seed=4).edges == (
            (0, 2), (0, 5), (0, 7), (1, 4), (3, 6), (3, 7), (4, 7))


class TestFixtures:
    def test_skeleton_cases_shape(self):
        cases = skeleton_block_cases()
        assert len(cases) == 10
        for name, model, graph, block, boundary in cases:
            assert block.kind == "skeleton"
            assert set(block.skeleton) <= set(block.vertices)
            for v in block.vertices:
                for w in graph.adj[v]:
                    assert w in set(block.vertices) or w in boundary, name

    def test_partitioned_cases_cover(self):
        cases = partitioned_cases()
        assert len(cases) == 10
        for name, model, graph, part in cases:
            covered = sorted(v for b in part.blocks for v in b.vertices)
            assert covered == list(range(graph.n)), name


class TestSuites:
    def test_registry(self):
        assert sorted(SUITES) == ["block-composition", "canonical",
                                  "cheeger", "decay", "sandwich",
                                  "skeleton-joint"]

    def test_skeleton_joint_all_pass(self):
        report = run_suite("skeleton-joint")
        assert report.passed
        assert len(report.records) == 10

    def test_block_composition_all_pass(self):
        report = run_suite("block-composition")
        assert report.passed
        assert len(report.records) == 10

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("nonexistent")


@pytest.fixture(scope="module")
def verify_all(tmp_path_factory):
    """verify --suite all from an empty chain cache: its payload and the
    enumerate_states calls it made through zoo and exact."""
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)
        return wrapper

    out = tmp_path_factory.mktemp("verify") / "v.json"
    zoo._zoo_chains.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        for module in (zoo, exact):
            mp.setattr(module, "enumerate_states",
                       counted(module.enumerate_states))
        assert cli.main(["verify", "--suite", "all", "--out", str(out)]) == 0
    return json.loads(out.read_text())["payload"], len(calls)


class TestSharedChains:
    def test_one_enumeration_per_zoo_chain(self, verify_all):
        # 6 models x 31 graphs once, plus the skeleton-joint and
        # block-composition suites' own chains
        _, calls = verify_all
        assert calls == 367

    @pytest.mark.parametrize("name", ["sandwich", "cheeger", "canonical"])
    def test_suite_alone_is_its_slice(self, verify_all, name):
        payload, _ = verify_all
        zoo._zoo_chains.cache_clear()
        alone = [dict(rec.to_json_dict(), suite=name)
                 for rec in run_suite(name).records]
        alone = json.loads(json.dumps(alone, default=cli._plain))
        assert alone == [r for r in payload["records"] if r["suite"] == name]

    def test_shared_chains_are_read_only(self):
        chains = [c for _, c in zoo._zoo_chains(DEFAULTS["state_budget"])
                  if not isinstance(c, str)]
        assert len(chains) == 161
        for chain in chains:
            with pytest.raises(ValueError):
                chain.P[0, 0] = 0.5
            with pytest.raises(ValueError):
                chain.pi[0] = 0.5

    def test_canonical_reads_every_hardcore_chain(self):
        hardcore = [c for name, c in zoo._zoo_chains(DEFAULTS["state_budget"])
                    if name.startswith("hardcore-")]
        assert len(hardcore) == 93
        assert not any(isinstance(c, str) for c in hardcore)
