"""Probability queries over finalized PE-nets.

Two engines answer the same question (probability of a conjunction of
node states, optionally given evidence):

* ``exact_query`` - one bucket-elimination pass over the multi-state
  ancestors of the targets and the evidence, in the min-degree order
  ``finalize`` fixed, with ``np.einsum`` over the stored table views; width
  and factor-size guards run before any product is formed;
* ``mc_query`` - forward sampling with likelihood weighting, vectorized, over
  the same ancestors in the topological order ``finalize`` stored; the
  generator is advanced past the draws of every other node that is not
  evidence, once before the next draw, so answers equal whole-net
  sampling's for a given seed, and each node's samples are freed after
  their last reader. It does no table work per query: each node's row
  strides and its CDF, column by column, were fixed by ``finalize``, so a
  sampled node costs one row of draws and one comparison per CDF column; a
  draw picks the state that counts the columns with ``draw >= running
  sum``, so no draw, 0.0 included, lands on a state of probability 0. A
  node certain of its state on every row costs no draw and no comparison:
  its state is read from the pick table ``finalize`` stored, and its draws
  are skipped like those of a node outside the query. Which nodes draw, and
  how many doubles the generator skips before each, is scheduled before any
  is sampled; ``_fill`` alone then advances the generator and draws. A
  query that draws at least ``_AHEAD_DRAWS`` doubles has a second thread
  fill the rows one block ahead while the caller compares, since numpy
  draws without the interpreter lock; a smaller one draws each row inline
  into one buffer. Both paths draw the same doubles in the same order.

A one-state node's table is 1 on every row, so neither engine reads one: a
pin or a reachable target on it drops out, and so does every node read
only through such nodes. An unreachable target, a state its node does not
have, makes the conjunction score 0 once the evidence is found feasible.

The brute-force joint enumeration both are checked against reads the
``Node.cpt`` rows instead, and lives with the tests in
``tests/joint_oracle.py``.

Both run on the integer view ``finalize`` stores as
``PENet.numbering``. A query's target and evidence ``NodeId``s are numbered
once, on entry; the ancestor walk, the buckets, the factor scopes and the
sampling loop then index tuples by number, with no ``NodeId`` hashed or
formatted.

``plan_success`` and ``leads_to_success`` wrap these for the two plan
metrics: goals plus the selected detailed path, versus goals alone.
"""

from __future__ import annotations

import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleEvidence, PlanEvalError, TooLarge, WidthExceeded, ZeroWeight
from .net import MAX_FACTOR_CELLS, PENet, atom_node

EXACT = "exact"
MC = "mc"

DEFAULT_WIDTH_LIMIT = 20


@dataclass
class Query:
    targets: list  # [(NodeId, state), ...] conjunction
    evidence: dict = field(default_factory=dict)  # NodeId -> state
    mode: str = EXACT
    samples: int = 10000
    seed: int = 0


@dataclass
class QueryResult:
    probability: float
    estimator: str
    standard_error: float = None
    elimination_width: int = None
    sample_count: int = None
    effective_sample_size: float = None  # Kish's (sum w)^2 / sum w^2, Monte Carlo only


def _check_evidence(net: PENet, evidence: dict):
    for nid, state in evidence.items():
        if nid not in net.nodes:
            raise InfeasibleEvidence(f"evidence node {nid} is not in the net")
        if state not in net.nodes[nid].states:
            raise InfeasibleEvidence(f"evidence state {state!r} is not a state of {nid}")


def _targets_reachable(net: PENet, targets) -> bool:
    for nid, state in targets:
        if nid not in net.nodes:
            raise PlanEvalError(f"target node {nid} is not in the net")
        if state not in net.nodes[nid].states:
            return False
    return True


# ---------------------------------------------------------------------------
# exact inference: one pruned bucket-elimination pass
# ---------------------------------------------------------------------------

# np.einsum takes at most 32 operands before numpy 2 (64 from it) and 52 axis labels.
_EINSUM_OPERANDS = 32


def _ancestors(parents: tuple, roots) -> set:
    """The numbers of ``roots`` and of every ancestor, by ``Numbering.parents``."""
    keep, stack = set(roots), list(roots)
    while stack:
        for parent in parents[stack.pop()]:
            if parent not in keep:
                keep.add(parent)
                stack.append(parent)
    return keep


def _contract(factors: list, out: tuple) -> np.ndarray:
    """Multiply (table, vars) factors and sum every variable not in ``out``."""
    while len(factors) > _EINSUM_OPERANDS:
        head = factors[:_EINSUM_OPERANDS]
        scope = tuple(sorted(set().union(*(vars for _, vars in head))))
        factors = [(_contract(head, scope), scope)] + factors[_EINSUM_OPERANDS:]
    # Relabelled, so the guarded cell count bounds the labels a call uses.
    labels = {}
    args = []
    for table, vars in factors:
        args.append(table)
        args.append([labels.setdefault(v, len(labels)) for v in vars])
    args.append([labels[v] for v in out])
    return np.einsum(*args)


def _numbered(net: PENet, pairs) -> list:
    """``(number, state index)`` of each ``(NodeId, state)`` pair."""
    number = net.numbering.number
    return [(number[nid], net.nodes[nid].states.index(state)) for nid, state in pairs]


def _eliminate(net: PENet, targets: list, evidence: dict, width_limit: int):
    """Evidence probability and joint target probability, and the width.

    Targets and evidence are turned into node numbers on entry, and those on
    one-state nodes are dropped. Barren nodes (not multi-state ancestors of
    a target or pinned node) go too, pinned axes are sliced out of each
    table, and the other nodes are eliminated in ``Numbering.rank`` order,
    each factor in the bucket of its earliest node. One two-state axis stays
    free: each target adds a factor that is 1 on its entry 0 and the
    target's indicator on its entry 1, so entry 0 of the result is the
    evidence probability and entry 1 the joint one, however many targets the
    conjunction has. Every bucket's scope, which holds only multi-state
    axes, is checked against the guards before any product is formed.
    """
    numbering = net.numbering
    sizes, rank = numbering.sizes, numbering.rank
    pins = dict(_numbered(net, evidence.items()))
    targets = [(v, s) for v, s in _numbered(net, targets) if sizes[v] > 1]
    keep = _ancestors(numbering.parents, [v for v, _ in targets] + [v for v in pins if sizes[v] > 1])
    order = sorted(keep.difference(pins), key=rank.__getitem__)
    # Kept nodes get local numbers in elimination order; local number m is
    # the free axis, and bucket m collects the factors over it alone.
    m = len(order)
    local = {v: i for i, v in enumerate(order)}
    dims = [sizes[v] for v in order] + [2]
    factors = [(np.ones(2), (m,))]  # the free axis, even with no targets
    for v in keep:
        ids = (*numbering.parents[v], v)
        table = numbering.tables[v]
        if pins:
            table = table[tuple(pins.get(u, slice(None)) for u in ids)]
        factors.append((table, tuple(local[u] for u in ids if u in local)))
    for v, state in targets:
        hit = np.zeros((sizes[v], 2))
        hit[:, 0] = 1.0
        hit[state, 1] = 1.0
        factors.append((hit[pins[v]], (m,)) if v in pins else (hit, (local[v], m)))
    buckets = [[] for _ in range(m + 1)]
    for table, vars in factors:
        buckets[min((m, *vars))].append((table, vars))

    scopes = [set().union(*(vars for _, vars in bucket)) for bucket in buckets]
    for i in range(m):
        message = scopes[i] - {i}
        scopes[min((m, *message))] |= message
    width = max(map(len, scopes)) - 1
    cells = max(math.prod(dims[v] for v in scope) for scope in scopes)
    if width > width_limit:
        raise WidthExceeded(width, width_limit)
    if cells > MAX_FACTOR_CELLS:
        raise TooLarge(f"elimination needs a factor of {cells} cells, above {MAX_FACTOR_CELLS}")

    for i in range(m):
        out = tuple(sorted(scopes[i] - {i}))
        buckets[min((m, *out))].append((_contract(buckets[i], out), out))
    z_e, z_te = _contract(buckets[m], (m,))
    return float(z_e), float(z_te), width


def exact_query(net: PENet, q: Query, width_limit: int = DEFAULT_WIDTH_LIMIT) -> QueryResult:
    """Exact conditional probability of the target conjunction, in one elimination."""
    if not net.finalized:
        raise PlanEvalError("exact_query requires a finalized net")
    if q.mode != EXACT:
        raise PlanEvalError(f"exact_query called with mode {q.mode!r}")
    _check_evidence(net, q.evidence)
    reachable = _targets_reachable(net, q.targets)  # raises for a target node that is not in the net
    # An unreachable conjunction scores zero, once the evidence is found feasible.
    z_e, z_te, width = _eliminate(net, q.targets if reachable else [], q.evidence, width_limit)
    if z_e <= 0.0:
        raise InfeasibleEvidence("evidence has probability zero")
    return QueryResult(min(max(z_te / z_e, 0.0), 1.0) if reachable else 0.0, EXACT, elimination_width=width)


# ---------------------------------------------------------------------------
# Monte Carlo: forward sampling with likelihood weighting
# ---------------------------------------------------------------------------


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Doubles a query must draw before a second thread draws them ahead: thread
# start and join cost about 0.1 ms, and on one CPU the thread could only
# take turns with the caller.
_AHEAD_DRAWS = 2**20 if _cpus() > 1 else math.inf
_BLOCK_DOUBLES = 2**16  # doubles per block the thread hands over, at least one row


def _fill(rng, skips, block: np.ndarray):
    """Draw one row of ``block`` per entry of ``skips``, in order.

    Before each row the generator is advanced past the entry's count of
    doubles, those owed to the nodes since the last draw that do not draw.
    Rows with nothing skipped between them are drawn in one call, which
    gives the same doubles. This is the only code that touches the
    generator.
    """
    run = 0  # first row not yet drawn
    for i, skip in enumerate(skips):
        if skip:
            if run < i:
                rng.random(out=block[run:i])
            # PCG64 spends one 64-bit output per double drawn.
            rng.bit_generator.advance(skip)
            run = i
    rng.random(out=block[run:] if run else block)


def _inline_rows(rng, skips: list, n: int):
    """Each drawing node's row, in order, drawn into one buffer reused for every row."""
    block = np.empty((1, n))
    draws = block[0]
    for skip in skips:
        _fill(rng, (skip,), block)
        yield draws


@contextmanager
def _drawn_ahead(rng, skips: list, n: int):
    """``_inline_rows`` drawn one block ahead by a worker thread.

    The worker fills two slots of ``_BLOCK_DOUBLES // n`` rows each (at least
    one), in turn, while the caller reads the other; a row is valid until the
    next one is asked for. The thread lives only inside this context, which
    stops and joins it on exit, and an exception it raises is raised in the
    caller.
    """
    rows = max(1, _BLOCK_DOUBLES // n)
    blocks = [skips[start:start + rows] for start in range(0, len(skips), rows)]
    slots = (np.empty((rows, n)), np.empty((rows, n)))
    # Each lock is a binary semaphore one thread releases and the other
    # acquires: filled[s] is free once the worker has filled slot s, and
    # taken[s] is held from the worker filling slot s until the caller is
    # done with it.
    filled = (threading.Lock(), threading.Lock())
    taken = (threading.Lock(), threading.Lock())
    for lock in filled:
        lock.acquire()
    failed = []
    stopped = False

    def work():
        for b, block in enumerate(blocks):
            taken[b % 2].acquire()
            if stopped:
                return
            try:
                _fill(rng, block, slots[b % 2][:len(block)])
            except BaseException as exc:  # handed to the caller, which raises it
                failed.append(exc)
                return
            finally:
                filled[b % 2].release()

    def handed_over():
        for b, block in enumerate(blocks):
            filled[b % 2].acquire()
            if failed:
                raise failed[0]
            yield from slots[b % 2][:len(block)]
            taken[b % 2].release()

    worker = threading.Thread(target=work, name="planeval-mc-draws", daemon=True)
    worker.start()
    try:
        yield handed_over()
    finally:
        stopped = True
        for lock in taken:
            if lock.locked():  # only the caller releases these, so it stays locked until here
                lock.release()
        worker.join()


def _sample(numbering, kept: list, pins: dict, readers: list, rows, n: int) -> tuple:
    """Sample ``kept`` in the stored order; the values left and the weights.

    Each node that draws takes the next row of ``rows``. A node's samples
    are dropped once ``readers`` counts no reader left.
    """
    parents_of, strides_of, cdfs, sizes, picks = (
        numbering.parents, numbering.strides, numbering.cdfs, numbering.sizes, numbering.picks)
    values = {}  # number -> state index per sample, or one int when every sample shares it
    weights = np.ones(n)
    for v in kept:
        parents, k = parents_of[v], sizes[v]
        if len(parents) == 1:
            row = values[parents[0]]
        else:
            row = 0
            for p, stride in zip(parents, strides_of[v]):
                row = row + values[p] * stride
        if v in pins:
            value = pins[v]
            weights *= numbering.tables[v].reshape(-1, k)[row, value]
        elif picks[v] is not None:
            # Every draw would pick the row's one state; the schedule skips its draws.
            value = picks[v][row]
        else:
            draws = next(rows)
            # The CDF never decreases, so counting the entries a draw reaches
            # among its first k-1 picks the state; the last entry is never
            # needed, and a state of probability 0 is never reached.
            first, *rest = cdfs[v]
            value = (draws >= first[row]).astype(np.intp)
            for column in rest:
                value += draws >= column[row]
        for p in parents:
            readers[p] -= 1
            if not readers[p]:
                del values[p]
        if readers[v]:
            values[v] = value
    return values, weights


def mc_query(net: PENet, q: Query) -> QueryResult:
    """Likelihood-weighted estimate of the target conjunction; reproducible by seed.

    Only the multi-state ancestors of the targets and the evidence are
    sampled. Every other node that is not evidence, one-state nodes
    included, still owns its n doubles of the stream: the generator skips
    them, so each answer equals whole-net sampling's for the same seed. A
    sampled node with a pick table is skipped the same way, its state read
    from that table. An evidence node owns no draws, whatever its state
    count. One pass over the stored order first lists the nodes that draw,
    each with the doubles skipped before it; the rows are then drawn in that
    order, one block ahead on a second thread when the query draws at least
    ``_AHEAD_DRAWS`` doubles and inline otherwise, with the same bits either
    way. Samples are freed after their last reader.
    """
    if not net.finalized:
        raise PlanEvalError("mc_query requires a finalized net")
    # A bool is an int to isinstance, but not a sample count or a seed.
    if isinstance(q.samples, bool) or not isinstance(q.samples, int) or q.samples < 1:
        raise PlanEvalError(f"Monte Carlo needs a whole number of at least one sample, not {q.samples!r}")
    if q.samples > MAX_FACTOR_CELLS:  # before the generator or any array is made
        raise TooLarge(f"Monte Carlo asks for {q.samples} samples, above {MAX_FACTOR_CELLS}")
    if isinstance(q.seed, bool) or not isinstance(q.seed, int) or q.seed < 0:
        raise PlanEvalError(f"Monte Carlo needs a whole-number seed of at least zero, not {q.seed!r}")
    _check_evidence(net, q.evidence)
    reachable = _targets_reachable(net, q.targets)  # raises for a target node that is not in the net
    n = q.samples
    rng = np.random.Generator(np.random.PCG64(q.seed))
    numbering = net.numbering
    parents_of, sizes, picks = numbering.parents, numbering.sizes, numbering.picks
    pins = dict(_numbered(net, q.evidence.items()))
    # An unreachable conjunction scores zero whatever is drawn, so it reads nothing.
    targets = [(v, s) for v, s in _numbered(net, q.targets) if sizes[v] > 1] if reachable else []
    keep = _ancestors(parents_of, [v for v, _ in targets] + [v for v in pins if sizes[v] > 1])
    readers = [0] * len(parents_of)  # per node, its sampled children plus one per target
    for v in [p for u in keep for p in parents_of[u]] + [v for v, _ in targets]:
        readers[v] += 1
    kept = []  # the sampled nodes, in the stored order
    skips = []  # per node that draws, in order, the doubles skipped before its draw
    skip = 0
    for v in numbering.order:
        if v not in keep:
            if v not in pins:  # evidence owns no draws
                skip += n
            continue
        kept.append(v)
        if v in pins:
            continue
        if picks[v] is None:
            skips.append(skip)
            skip = 0
        else:
            skip += n
    if len(skips) * n < _AHEAD_DRAWS:
        values, weights = _sample(numbering, kept, pins, readers, _inline_rows(rng, skips, n), n)
    else:
        with _drawn_ahead(rng, skips, n) as rows:
            values, weights = _sample(numbering, kept, pins, readers, rows, n)

    total = weights.sum()
    if total <= 0.0:
        raise ZeroWeight("all samples are inconsistent with the evidence")
    hit = np.full(n, reachable)
    for v, state in targets:
        hit &= values[v] == state
    x = hit.astype(float)
    estimate = float((weights * x).sum() / total)
    residual = x - estimate
    se = float(np.sqrt(((weights * residual) ** 2).sum()) / total)
    ess = float(total * total / (weights * weights).sum())
    return QueryResult(estimate, MC, standard_error=se, sample_count=n, effective_sample_size=ess)


# ---------------------------------------------------------------------------
# plan metrics
# ---------------------------------------------------------------------------


def _goal_targets(net: PENet, plan) -> list:
    final = net.final_situation()
    return [(atom_node(atom, final), state) for atom, state in plan.goals]


def _selected_path_targets(net: PENet) -> list:
    selected_of = {rec.node: rec.selected for rec in net.selection_records if rec.origin == "expansion"}
    targets = []
    for rec in net.selection_records:
        if rec.origin != "expansion":
            continue
        on_path = all(selected_of.get(gnode) == glabel for gnode, glabel in rec.guards)
        if on_path:
            targets.append((rec.node, rec.selected))
    return targets


def _run(net: PENet, targets, evidence: dict, mode: str, samples: int, seed: int) -> QueryResult:
    """Answer one conjunction given evidence with the chosen engine."""
    query = Query(targets=targets, evidence=evidence, mode=EXACT if mode == EXACT else MC, samples=samples, seed=seed)
    if mode == EXACT:
        return exact_query(net, query)
    return mc_query(net, query)


def plan_success(net: PENet, plan, mode: str = EXACT, samples: int = 10000, seed: int = 0,
                 evidence: dict = None) -> QueryResult:
    """Probability that the goals hold in the final situation and every
    expansion-selection node on the selected detailed path takes its
    planner-chosen alternative, given ``evidence`` (NodeId -> state)."""
    targets = _goal_targets(net, plan) + _selected_path_targets(net)
    return _run(net, targets, evidence or {}, mode, samples, seed)


def leads_to_success(net: PENet, plan, mode: str = EXACT, samples: int = 10000, seed: int = 0,
                     evidence: dict = None) -> QueryResult:
    """Probability of the goal conjunction in the final situation, whichever
    branches actually execute, given ``evidence`` (NodeId -> state)."""
    return _run(net, _goal_targets(net, plan), evidence or {}, mode, samples, seed)
