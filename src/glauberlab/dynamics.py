"""Single-site and block Gibbs samplers, couplings, and probes.

Every single-site and coupled chain takes its randomness from one
generator, ``_site_draws``, in a fixed order (laziness coin, then vertex,
then one uniform for the heat-bath draw), so that runs, checkpoints, and
couplings are reproducible bit for bit.  A held lazy step consumes only
the coin.  Chains yield their moves as (step, vertex, previous state), and
one traced loop writes the trace rows of single-site and block chains.
"""

import itertools
from collections import OrderedDict
from dataclasses import dataclass

from .errors import NoFeasibleStateError
from .exact import skeleton_joint
from .graphs import exterior_boundary
# local_conditional and sample_index are unused here but stay importable:
# perfbench's traced run wraps them on this module
from .models import (HeatBath, initial_configuration, is_feasible,
                     local_conditional)
from .rng import make_rng, rng_state_from_hex, rng_state_to_hex, sample_index
from .trees import build_tree_tables, tree_law, tree_sample

# Most block laws one block chain keeps.  Under colourings a block has up
# to q^|boundary| boundary states, so past this many the least recently
# used law is dropped.
LAW_CACHE_SIZE = 1024


@dataclass
class ChainState:
    config: tuple
    step: int
    rng: object


def _checked_start(model, graph, start, steps):
    start = tuple(start)
    if not is_feasible(model, graph, start):
        raise ValueError("start configuration is infeasible")
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    return start


def _site_draws(rng, n, lazy, steps):
    """Yield (t, v, u) for each step t in 1..steps that a lazy coin does
    not hold: coin, then vertex, then uniform, in the module's order.

    The vertex is read off ``rng.getrandbits(n.bit_length())`` with the
    rejection loop that ``random.Random.randrange(n)`` runs
    (``_randbelow_with_getrandbits``, CPython 3.10-3.13), so every draw,
    and the RNG state after it, equals randrange's.  With no
    vertices every step holds and nothing is drawn.
    """
    if not n:
        return
    random = rng.random
    bits = rng.getrandbits
    k = n.bit_length()
    for t in range(1, steps + 1):
        if lazy and random() < 0.5:
            continue
        v = bits(k)
        while v >= n:
            v = bits(k)
        yield t, v, random()


def _single_site(kernel, rng, lazy):
    """``moves(config, steps)``: the chain's updates of config in place.

    For each step t that a lazy coin does not hold, redraws config[v] and
    yields (t, v, previous state of v).
    """
    n = kernel.graph.n
    draw = kernel.draw

    def moves(config, steps):
        for t, v, u in _site_draws(rng, n, lazy, steps):
            old = config[v]
            config[v] = draw(config, v, u)
            yield t, v, old
    return moves


def _traced(model, graph, start, steps, rng, moves, reference=None,
            stride=None):
    """Run ``moves`` from start with run_chain's trace rows, keeping
    hamming and active from the moves it yields.  Several moves may share
    a step; a step with none holds."""
    start = _checked_start(model, graph, start, steps)
    reference = start if reference is None else tuple(reference)
    if stride is None:
        stride = max(1, steps // 10 ** 4)
    elif stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    config = list(start)
    hamming = sum(1 for a, b in zip(config, reference) if a != b)
    active = sum(1 for a in config if a != 0)
    trace = [(0, hamming, active)]
    row = stride
    for t, v, old in moves(config, steps):
        # rows of the steps before t, which this move follows
        while row < t:
            trace.append((row, hamming, active))
            row += stride
        new = config[v]
        if old != new:
            hamming += (new != reference[v]) - (old != reference[v])
            active += (new != 0) - (old != 0)
    trace.extend((r, hamming, active) for r in range(row, steps + 1, stride))
    if steps % stride:
        trace.append((steps, hamming, active))
    return ChainState(config=tuple(config), step=steps, rng=rng), trace


def run_chain(model, graph, start, steps, seed=0, lazy=True,
              reference=None, stride=None):
    """Run the single-site sampler, tracing summary rows.

    Trace rows are (step, hamming, active): hamming distance to
    ``reference`` (the start by default) and the count of nonzero spins.
    Rows are written at step 0, every ``stride`` steps, and at the end;
    stride defaults to about 10^4 rows per run.
    """
    rng = make_rng(seed, "chain")
    moves = _single_site(HeatBath(model, graph), rng, lazy)
    return _traced(model, graph, start, steps, rng, moves, reference, stride)


def visit_counts(model, graph, start, steps, seed=0, lazy=True):
    """Empirical law over the configurations seen after each update."""
    start = _checked_start(model, graph, start, steps)
    moves = _single_site(HeatBath(model, graph), make_rng(seed, "chain"),
                         lazy)
    config = list(start)
    cur = start
    since = 1  # the first step of cur's current run
    counts = {}
    for t, v, old in moves(config, steps):
        if config[v] != old:
            if t > since:
                counts[cur] = counts.get(cur, 0) + t - since
            cur = tuple(config)
            since = t
    if steps >= since:
        counts[cur] = counts.get(cur, 0) + steps + 1 - since
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
    moves = _single_site(HeatBath(model, graph), state.rng, lazy)
    end, _ = _traced(model, graph, state.config, steps, state.rng, moves)
    return ChainState(config=end.config, step=state.step + steps,
                      rng=state.rng)


def coalescence_time(model, graph, start_a, start_b, horizon, seed=0,
                     lazy=True):
    """Steps until the coupled pair agrees everywhere, or None.

    Both copies share every step's coin, vertex and uniform, drawn in the
    single-site order.  Where the chosen vertex's closed neighborhood
    agrees, one heat-bath draw is written to both copies, so agreement is
    kept exactly; elsewhere the two conditionals are joined by their
    maximal coupling (``HeatBath.couple``).  ``off[v]`` counts the
    disagreeing vertices of v's closed neighborhood and changes only when
    a vertex's agreement flips.
    """
    rng = make_rng(seed, "couple")
    kernel = HeatBath(model, graph)
    a = list(start_a)
    b = list(start_b)
    adj = graph.adj
    diff = [x != y for x, y in zip(a, b)]
    disagree = sum(diff)
    if not disagree:
        return 0
    off = [d + sum(diff[w] for w in adj[v]) for v, d in enumerate(diff)]
    draw = kernel.draw
    couple = kernel.couple
    for step, v, u in _site_draws(rng, graph.n, lazy, horizon):
        if not off[v]:
            a[v] = b[v] = draw(a, v, u)
            continue
        x, y = couple(a, b, v, u)
        a[v] = x
        b[v] = y
        if (x != y) != diff[v]:
            diff[v] = x != y
            flip = 1 if diff[v] else -1
            off[v] += flip
            for w in adj[v]:
                off[w] += flip
            disagree += flip
            if not disagree:
                return step
    return None


@dataclass
class ProbeResult:
    worst_delta: float
    implied_c: float
    pairs: list


def contraction_probe(model, graph, pairs=20, seed=0):
    """Exact one-step drift of the pair distance at sampled unit pairs.

    Each probe burns in a configuration for 10n steps, flips one vertex to
    another state of positive conditional mass, and evaluates the exact
    expected change of the Hamming distance under one synchronized
    non-lazy step:
    (-1 + sum over neighbors of TV between their conditionals) / n.
    Contraction holds at a pair iff its delta is negative.
    """
    n = graph.n
    start = initial_configuration(model, graph)
    kernel = HeatBath(model, graph)
    results = []
    worst = None
    for k in range(pairs):
        moves = _single_site(kernel, make_rng(seed, "probe", k), False)
        config = list(start)
        for _ in moves(config, 10 * n):
            pass
        # one more update on a copy: the first that changes its vertex
        # leaves the twin one flip away from config
        twin = list(config)
        for _, v0, old in moves(twin, 10 * n):
            if twin[v0] != old:
                break
        else:
            raise NoFeasibleStateError(
                "no unit pair found: every sampled vertex is frozen")
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


class _BlockLaws:
    """One block chain's heat-bath kernel and block laws.

    A block's or piece's outside neighbors are listed, in a fixed order,
    on first use.  A law is kept per (block index, piece index or None,
    their states), up to LAW_CACHE_SIZE laws: the same object, with the
    same floats, that a bare block_step builds.
    """

    def __init__(self, model, graph, blocks, kernel=None):
        self.model = model
        self.graph = graph
        self.blocks = blocks
        self.kernel = kernel
        self._outside = {}
        self._laws = OrderedDict()

    def law(self, k, piece, config):
        """A skeleton block's joint (piece None) or tree tables."""
        block = self.blocks[k]
        verts = (block if piece is None else block.pieces[piece]).vertices
        outside = self._outside.get((k, piece))
        if outside is None:
            vset = set(verts)
            outside = self._outside[k, piece] = tuple(dict.fromkeys(
                w for u in verts for w in self.graph.adj[u]
                if w not in vset))
        key = (k, piece, tuple([config[w] for w in outside]))
        law = self._laws.get(key)
        if law is not None:
            self._laws.move_to_end(key)
            return law
        boundary = dict(zip(outside, key[2]))
        law = self._laws[key] = (
            skeleton_joint(self.model, self.graph, block, boundary)
            if piece is None and block.kind == "skeleton" else
            build_tree_tables(self.model, self.graph, verts, boundary))
        if len(self._laws) > LAW_CACHE_SIZE:
            self._laws.popitem(last=False)
        return law


def compose_block_law(model, graph, block, boundary):
    """Joint law of a skeleton block, as {config tuple over sorted block
    vertices: probability}.

    The law block_step draws from, read off the same block laws: the
    skeleton joint, then for each of its states each piece's tree law
    given its root (worked out once per root state).  Computed exactly,
    for comparison against full enumeration.
    """
    if block.kind != "skeleton":
        raise ValueError(f"a {block.kind} block has no skeleton joint")
    for w in exterior_boundary(graph, block.vertices):
        if w not in boundary:
            raise ValueError(f"boundary missing state for vertex {w}")
    laws = _BlockLaws(model, graph, (block,))
    config = dict(boundary)
    joint = laws.law(0, None, config)
    allv = tuple(sorted(block.vertices))
    piece_verts = [tuple(sorted(piece.vertices)) for piece in block.pieces]
    piece_laws = {}
    out = {}
    for xi, qp in zip(joint.states, joint.probs):
        config.update(zip(joint.w_vertices, xi))
        combos = []
        for i, piece in enumerate(block.pieces):
            key = (i, config[piece.root])
            if key not in piece_laws:
                piece_laws[key] = tree_law(laws.law(0, i, config)).items()
            combos.append(piece_laws[key])
        for combo in itertools.product(*combos):
            p = float(qp)
            for verts, (cfg, pl) in zip(piece_verts, combo):
                config.update(zip(verts, cfg))
                p *= pl
            out[tuple([config[u] for u in allv])] = p
    return out


def block_step(model, graph, partition, config, rng, laws=None):
    """Resample one uniformly chosen block from its conditional law.

    Singleton blocks use the heat-bath kernel, plain tree blocks one
    downward sampling pass, and skeleton blocks draw the skeleton joint
    first and then each hanging tree given its root.  ``laws`` is a
    chain's kernel and law cache (run_block_chain's); a bare call builds
    what it needs afresh.  Mutates config in place, only at the block's
    vertices, and returns the block index.
    """
    k = rng.randrange(len(partition.blocks))
    block = partition.blocks[k]
    if block.kind == "singleton":
        v = block.vertices[0]
        kernel = laws.kernel if laws else HeatBath(model, graph)
        config[v] = kernel.draw(config, v, rng.random())
        return k
    laws = laws or _BlockLaws(model, graph, partition.blocks)
    law = laws.law(k, None, config)
    if block.kind == "skeleton":
        for w, x in zip(law.w_vertices, law.sample(rng)):
            config[w] = x
        for i in range(len(block.pieces)):
            for v, x in tree_sample(laws.law(k, i, config), rng).items():
                config[v] = x
    else:
        for v, x in tree_sample(law, rng).items():
            config[v] = x
    return k


def run_block_chain(model, graph, partition, start, steps, seed=0,
                    reference=None, stride=None):
    """Block-dynamics analogue of run_chain with the same trace format."""
    start = tuple(start)
    rng = make_rng(seed, "block-chain")
    laws = _BlockLaws(model, graph, partition.blocks, HeatBath(model, graph))
    blocks = partition.blocks
    before = list(start)

    def moves(config, steps):
        for t in range(1, steps + 1):
            k = block_step(model, graph, partition, config, rng, laws=laws)
            for v in blocks[k].vertices:
                old = before[v]
                before[v] = config[v]
                yield t, v, old
    return _traced(model, graph, start, steps, rng, moves, reference, stride)
