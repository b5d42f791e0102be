"""What the output checks compare with.

Independent computations written here (local BFS, per-vertex BFS weights,
an own heat-bath matrix) and properties the method guarantees (independent
sets, order independence of the skeleton, the relaxation/mixing sandwich);
nothing is compared with a stored copy of an earlier output. Each
``*_problems`` function returns a list of problems, empty when the output
is correct; ``workloads.check_outputs`` applies them to a job's outputs.
"""

import itertools
import json
import math

import numpy as np

from glauberlab import blocks


def payload(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["payload"]


def _bfs(g, v, cutoff=None):
    dist = {v: 0}
    frontier = [v]
    d = 0
    while frontier and (cutoff is None or d < cutoff):
        d += 1
        nxt = []
        for u in frontier:
            for w in g.adj[u]:
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def ball_excess(g, r):
    """Tree excess |E| - |V| + 1 of every radius-r ball, by local BFS."""
    out = []
    for v in range(g.n):
        ball = _bfs(g, v, cutoff=r)
        edges = sum(1 for u in ball for w in g.adj[u]
                    if w > u and w in ball)
        out.append(edges - len(ball) + 1)
    return out


def alpha_weight(g, v, alpha):
    """phi_alpha(v): sum of alpha^d(v,u) over the other vertices u."""
    return sum(alpha ** d for u, d in _bfs(g, v).items() if u != v)


def independent_set_problems(g, config):
    clash = [(u, v) for u, v in g.edges if config[u] and config[v]]
    if clash:
        return [f"occupied neighbours {clash[:3]} ({len(clash)} edges)"]
    return []


def isolated_share_problems(g, config, beta):
    """Occupied share of isolated vertices against their exact marginal
    e^beta / (1 + e^beta) (glauberlab's hardcore beta is the log of the
    activity), within five standard deviations."""
    lone = [v for v in range(g.n) if not g.adj[v]]
    if len(lone) < 50:
        return [f"only {len(lone)} isolated vertices"]
    p = math.exp(beta) / (1.0 + math.exp(beta))
    share = sum(config[v] for v in lone) / len(lone)
    sigma = math.sqrt(p * (1 - p) / len(lone))
    if abs(share - p) > 5 * sigma:
        return [f"isolated occupied share {share:.4f} is more than 5 sigma "
                f"({sigma:.4f}) from {p:.4f}"]
    return []


def hypothesis_problems(g, check, decomp, params):
    a, alpha, t, delta = (params[k] for k in ("a", "alpha", "t", "delta"))
    n = g.n
    problems = []
    r = math.ceil(a * math.log(n))
    if check["radius"] != r:
        problems.append(f"radius {check['radius']} != ceil(a ln n) = {r}")
    recs = {rec["check"]: rec for rec in check["records"]}
    excess = ball_excess(g, r)
    te = recs["tree-excess"]
    violations = sum(1 for x in excess if x > t)
    if te["value"] != max(excess) or te["witness"]["violations"] != violations:
        problems.append(f"tree excess {te['value']}/"
                        f"{te['witness']['violations']} violations, local "
                        f"BFS gives {max(excess)}/{violations}")
    path = recs["path-weight"]["witness"]["path"]
    simple = len(set(path)) == len(path) and 1 <= len(path) <= r + 1
    linked = all(w in g.adj[u] for u, w in zip(path, path[1:]))
    if not (simple and linked):
        problems.append(f"path-weight witness {path} is not a simple path "
                        f"of at most {r} edges")
    weight = sum(alpha_weight(g, v, alpha) for v in path)
    if abs(weight - check["m_alpha"]) > 1e-9:
        problems.append(f"witness weight {weight!r} != m_alpha "
                        f"{check['m_alpha']!r}")
    L = 0.9 * a / (20 * t + 2)
    eps = 3 * delta / L
    maxdeg = max(len(x) for x in g.adj)
    if not (check["m_alpha"] < eps and maxdeg <= eps / alpha
            and 5 * L * math.log(n) < 2):
        problems.append("the every-vertex-good premise does not hold")
    if not check["passed"]:
        problems.append("hypothesis check did not pass")
    if (decomp["blocks"] != n or decomp["kinds"] != {"singleton": n}
            or decomp["skeleton_vertices"] != 0 or not decomp["passed"]):
        problems.append(f"decompose gave {decomp['kinds']}, "
                        f"{decomp['skeleton_vertices']} skeleton vertices, "
                        f"passed={decomp['passed']}; want {n} singletons")
    return problems


def skeleton_of(partition):
    return sorted(v for b in partition.blocks for v in b.skeleton)


def cover_problems(n, partition):
    seen = [0] * n
    for b in partition.blocks:
        for v in b.vertices:
            seen[v] += 1
    wrong = [v for v in range(n) if seen[v] != 1]
    return [f"vertices {wrong[:5]} are not covered exactly once"] if wrong \
        else []


def skeleton_problems(g, w_low, w_high, L):
    """Order independence and the fixed point of the skeleton rules."""
    problems = []
    if sorted(w_low) != sorted(w_high):
        diff = sorted(set(w_low) ^ set(w_high))
        problems.append(f"scan orders disagree on skeleton vertices "
                        f"{diff[:5]}")
    rule = blocks.has_applicable_rule(g, w_low, L)
    if rule is not None:
        problems.append(f"rule {rule} still applies to the skeleton")
    wset = set(w_low)
    double = [v for v in range(g.n) if v not in wset
              and sum(1 for w in g.adj[v] if w in wset) >= 2]
    if double:
        problems.append(f"outside vertices {double[:5]} have two skeleton "
                        f"neighbours")
    return problems


def path_coloring_relaxation(n, q):
    """Relaxation time of the lazy heat-bath chain on proper q-colourings
    of the n-vertex path, from an own enumeration and matrix."""
    states = [s for s in itertools.product(range(q), repeat=n)
              if all(s[i] != s[i + 1] for i in range(n - 1))]
    index = {s: i for i, s in enumerate(states)}
    P = np.zeros((len(states), len(states)))
    for i, s in enumerate(states):
        for v in range(n):
            near = {s[w] for w in (v - 1, v + 1) if 0 <= w < n}
            free = [x for x in range(q) if x not in near]
            for x in free:
                j = index[s[:v] + (x,) + s[v + 1:]]
                P[i, j] += 1.0 / (n * len(free))
    P = 0.5 * (np.eye(len(states)) + P)
    eigs = np.linalg.eigvalsh(P)  # uniform stationary law: P is symmetric
    gap = min(1.0 - eigs[-2], 1.0 - abs(eigs[0]))
    return len(states), 1.0 / gap


def exact_problems(result, n, q, tau):
    problems = []
    states = q * (q - 1) ** (n - 1)
    if result["states"] != states:
        problems.append(f"states {result['states']} != {states}")
    if result["detailed_balance_gap"] != 0.0:
        problems.append(f"detailed balance gap "
                        f"{result['detailed_balance_gap']}")
    if not math.isclose(result["min_pi"], 1.0 / states, rel_tol=1e-12):
        problems.append(f"min_pi {result['min_pi']} != 1/{states}")
    relax = result.get("relaxation")
    if relax is None or abs(relax - tau) > 1e-9 * tau:
        problems.append(f"relaxation {relax!r} != own eigenvalue "
                        f"computation {tau!r}")
    upper = tau * (1 + 0.5 * math.log(states))
    mix = result.get("mixing")
    if mix is None or not tau <= mix <= upper:
        problems.append(f"mixing {mix} outside [{tau:.4f}, {upper:.4f}]")
    return problems
