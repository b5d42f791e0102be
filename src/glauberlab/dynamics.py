"""Single-site and block Gibbs samplers, couplings, and probes.

The single-site update consumes randomness in a fixed order (laziness
coin, then vertex, then one uniform for the heat-bath draw) so that runs,
checkpoints, and couplings are reproducible bit for bit.  A held lazy
step consumes only the coin.
"""

from dataclasses import dataclass

from .errors import NoFeasibleStateError
from .exact import skeleton_joint
# local_conditional and sample_index are unused here but stay importable:
# perfbench's traced run wraps them on this module
from .models import HeatBath, greedy_coloring, is_feasible, local_conditional
from .rng import make_rng, rng_state_from_hex, rng_state_to_hex, sample_index
from .trees import build_tree_tables, tree_sample

DEFAULT_CHAIN_HORIZON = 10 ** 8


@dataclass
class ChainState:
    config: tuple
    step: int
    rng: object


def _glauber_update(kernel, config, rng, lazy=True):
    """One update in place; returns (v, old, new) or None when held."""
    if lazy and rng.random() < 0.5:
        return None
    v = rng.randrange(kernel.graph.n)
    u = rng.random()
    old = config[v]
    x = kernel.draw(config, v, u)
    config[v] = x
    return v, old, x


def run_chain(model, graph, start, steps, seed=0, lazy=True,
              reference=None, stride=None):
    """Run the single-site sampler, tracing summary rows.

    Trace rows are (step, hamming, active): hamming distance to
    ``reference`` (the start by default) and the count of nonzero spins.
    Rows are written at step 0, every ``stride`` steps, and at the end;
    stride defaults to about 10^4 rows per run.
    """
    start = tuple(start)
    if not is_feasible(model, graph, start):
        raise ValueError("start configuration is infeasible")
    reference = start if reference is None else tuple(reference)
    if stride is None:
        stride = max(1, steps // 10 ** 4)
    rng = make_rng(seed, "chain")
    kernel = HeatBath(model, graph)
    config = list(start)
    hamming = sum(1 for a, b in zip(config, reference) if a != b)
    active = sum(1 for a in config if a != 0)
    trace = [(0, hamming, active)]
    for step in range(1, steps + 1):
        moved = _glauber_update(kernel, config, rng, lazy=lazy)
        if moved is not None:
            v, old, new = moved
            if old != new:
                hamming += (new != reference[v]) - (old != reference[v])
                active += (new != 0) - (old != 0)
        if step % stride == 0 or step == steps:
            trace.append((step, hamming, active))
    return ChainState(config=tuple(config), step=steps, rng=rng), trace


def visit_counts(model, graph, start, steps, seed=0, lazy=True):
    """Empirical law over the configurations seen after each update."""
    start = tuple(start)
    if not is_feasible(model, graph, start):
        raise ValueError("start configuration is infeasible")
    rng = make_rng(seed, "chain")
    kernel = HeatBath(model, graph)
    config = list(start)
    cur = start
    counts = {}
    for _ in range(steps):
        moved = _glauber_update(kernel, config, rng, lazy=lazy)
        if moved is not None and moved[1] != moved[2]:
            cur = tuple(config)
        counts[cur] = counts.get(cur, 0) + 1
    return counts


def write_checkpoint(path, state):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{state.step}\n")
        fh.write(" ".join(map(str, state.config)) + "\n")
        fh.write(rng_state_to_hex(state.rng) + "\n")


def read_checkpoint(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    if len(lines) < 3:
        raise ValueError("truncated checkpoint")
    step = int(lines[0])
    config = tuple(int(tok) for tok in lines[1].split())
    rng = rng_state_from_hex(lines[2])
    return ChainState(config=config, step=step, rng=rng)


def resume_chain(model, graph, state, steps, lazy=True):
    """Continue a checkpointed run; extends it by ``steps`` updates."""
    kernel = HeatBath(model, graph)
    config = list(state.config)
    for _ in range(steps):
        _glauber_update(kernel, config, state.rng, lazy=lazy)
    return ChainState(config=tuple(config), step=state.step + steps,
                      rng=state.rng)


def maximal_coupling_entries(p, q):
    """Entries (x, y, mass) of the maximal coupling of two pmfs.

    Diagonal terms min(p,q) come first in index order, then the residuals
    are paired two-pointer in ascending index; masses sum to one.
    """
    if len(p) != len(q):
        raise ValueError("pmf lengths differ")
    entries = []
    rp = []
    rq = []
    for x, (a, b) in enumerate(zip(p, q)):
        m = min(a, b)
        if m > 0.0:
            entries.append((x, x, m))
        if a > m:
            rp.append([x, a - m])
        if b > m:
            rq.append([x, b - m])
    i = j = 0
    while i < len(rp) and j < len(rq):
        m = min(rp[i][1], rq[j][1])
        entries.append((rp[i][0], rq[j][0], m))
        rp[i][1] -= m
        rq[j][1] -= m
        if rp[i][1] <= 1e-15:
            i += 1
        if j < len(rq) and rq[j][1] <= 1e-15:
            j += 1
    return entries


def sample_maximal_coupling(p, q, u):
    """Draw a pair from the maximal coupling with one uniform."""
    entries = maximal_coupling_entries(p, q)
    total = sum(m for _, _, m in entries)
    target = u * total
    acc = 0.0
    for x, y, m in entries:
        acc += m
        if target < acc:
            return x, y
    return entries[-1][0], entries[-1][1]


def coupled_step(model, graph, left, right, rng, lazy=True, kernel=None):
    """One synchronized update of two configs sharing all randomness.

    When the chosen vertex sees identical neighborhoods in both copies
    the single heat-bath draw is reused verbatim, so agreement is
    preserved exactly; otherwise the two conditionals are joined by their
    maximal coupling.  ``kernel`` is the model's HeatBath on the graph,
    built here when not given.
    """
    kernel = kernel or HeatBath(model, graph)
    if lazy and rng.random() < 0.5:
        return None
    v = rng.randrange(graph.n)
    u = rng.random()
    same = left[v] == right[v] and all(
        left[w] == right[w] for w in graph.adj[v])
    if same:
        x = kernel.draw(left, v, u)
        left[v] = x
        right[v] = x
        return v
    p = kernel.pmf(left, v)
    q = kernel.pmf(right, v)
    x, y = sample_maximal_coupling(p, q, u)
    left[v] = x
    right[v] = y
    return v


def coalescence_time(model, graph, start_a, start_b, horizon, seed=0,
                     lazy=True):
    """Steps until the coupled pair agrees everywhere, or None."""
    rng = make_rng(seed, "couple")
    kernel = HeatBath(model, graph)
    a = list(start_a)
    b = list(start_b)
    disagree = {v for v, (x, y) in enumerate(zip(a, b)) if x != y}
    if not disagree:
        return 0
    for step in range(1, horizon + 1):
        v = coupled_step(model, graph, a, b, rng, lazy=lazy, kernel=kernel)
        if v is None:
            continue
        if a[v] == b[v]:
            disagree.discard(v)
            if not disagree:
                return step
        else:
            disagree.add(v)
    return None


@dataclass
class ProbeResult:
    worst_delta: float
    implied_c: float
    pairs: list


def _probe_start(model, graph):
    if model.kind == "coloring":
        return greedy_coloring(graph, model.q)
    return tuple([0] * graph.n)


def contraction_probe(model, graph, pairs=20, seed=0, burn_factor=10):
    """Exact one-step drift of the pair distance at sampled unit pairs.

    Each probe burns in a configuration, flips one vertex to another
    state of positive conditional mass, and evaluates the exact expected
    change of the Hamming distance under one synchronized non-lazy step:
    (-1 + sum over neighbors of TV between their conditionals) / n.
    Contraction holds at a pair iff its delta is negative.
    """
    n = graph.n
    start = _probe_start(model, graph)
    kernel = HeatBath(model, graph)
    results = []
    worst = None
    for k in range(pairs):
        rng = make_rng(seed, "probe", k)
        config = list(start)
        for _ in range(burn_factor * n):
            _glauber_update(kernel, config, rng, lazy=False)
        v0 = None
        alt = None
        for _ in range(10 * n):
            v = rng.randrange(n)
            x = kernel.draw(config, v, rng.random())
            if x != config[v]:
                v0, alt = v, x
                break
        if v0 is None:
            raise NoFeasibleStateError(
                "no unit pair found: every sampled vertex is frozen")
        twin = list(config)
        twin[v0] = alt
        tv_sum = 0.0
        for w in graph.adj[v0]:
            p = kernel.pmf(config, w)
            q = kernel.pmf(twin, w)
            tv_sum += 0.5 * sum(abs(a - b) for a, b in zip(p, q))
        delta = (-1.0 + tv_sum) / n
        results.append({"vertex": v0, "delta": delta, "tv_sum": tv_sum})
        worst = delta if worst is None else max(worst, delta)
    return ProbeResult(worst_delta=worst, implied_c=-worst * n,
                       pairs=results)


def block_step(model, graph, partition, config, rng, kernel=None):
    """Resample one uniformly chosen block from its conditional law.

    Singleton blocks use the heat-bath kernel (``kernel``, or a HeatBath
    built here), plain tree blocks one downward sampling pass, and
    skeleton blocks draw the skeleton joint first and then each hanging
    tree given its root.  Mutates config in place, only at the block's
    vertices, and returns the block index.
    """
    k = rng.randrange(len(partition.blocks))
    block = partition.blocks[k]
    bset = set(block.vertices)
    if block.kind == "singleton":
        v = block.vertices[0]
        kernel = kernel or HeatBath(model, graph)
        config[v] = kernel.draw(config, v, rng.random())
        return k
    boundary = {}
    for u in block.vertices:
        for w in graph.adj[u]:
            if w not in bset:
                boundary[w] = config[w]
    if block.kind == "skeleton":
        joint = skeleton_joint(model, graph, block, boundary)
        xi = joint.sample(rng)
        wpos = {w: i for i, w in enumerate(joint.w_vertices)}
        for w, i in wpos.items():
            config[w] = xi[i]
        for piece in block.pieces:
            pinned = {x: config[x] for u in piece.vertices
                      for x in graph.adj[u] if x not in set(piece.vertices)}
            tables = build_tree_tables(model, graph, piece.vertices, pinned)
            for v, x in tree_sample(tables, rng).items():
                config[v] = x
    else:
        tables = build_tree_tables(model, graph, block.vertices, boundary)
        for v, x in tree_sample(tables, rng).items():
            config[v] = x
    return k


def run_block_chain(model, graph, partition, start, steps, seed=0,
                    reference=None, stride=None):
    """Block-dynamics analogue of run_chain with the same trace format."""
    start = tuple(start)
    if not is_feasible(model, graph, start):
        raise ValueError("start configuration is infeasible")
    reference = start if reference is None else tuple(reference)
    if stride is None:
        stride = max(1, steps // 10 ** 4)
    rng = make_rng(seed, "block-chain")
    kernel = HeatBath(model, graph)
    config = list(start)
    before = list(start)
    hamming = sum(1 for a, b in zip(config, reference) if a != b)
    active = sum(1 for a in config if a != 0)
    trace = [(0, hamming, active)]
    for step in range(1, steps + 1):
        k = block_step(model, graph, partition, config, rng, kernel=kernel)
        for v in partition.blocks[k].vertices:
            old, new = before[v], config[v]
            if old != new:
                hamming += (new != reference[v]) - (old != reference[v])
                active += (new != 0) - (old != 0)
                before[v] = new
        if step % stride == 0 or step == steps:
            trace.append((step, hamming, active))
    return ChainState(config=tuple(config), step=steps, rng=rng), trace
