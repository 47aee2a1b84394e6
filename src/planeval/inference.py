"""Probability queries over finalized PE-nets.

Two engines answer the same question (probability of a conjunction of
node states, optionally given evidence):

* ``exact_query`` - bucket elimination over the multi-state ancestors of
  the targets and the evidence, in the min-degree order ``finalize`` fixed,
  with ``np.einsum`` over the stored table views; the width and
  factor-size guards run on int bitmasks before any product is formed
  (``_eliminate``). Answers go into the cache ``finalize`` made,
  ``PENet.answers``, and a conjunction on one node is asked in a batch
  with the node's other states, so a marginal costs one elimination per
  node and evidence (``_answer``);
* ``mc_query`` - forward sampling with likelihood weighting, vectorized, over
  the same ancestors in the topological order ``finalize`` stored. It does
  no table work per query, reads a node certain of its state from its pick
  table, and advances the generator past the draws of every other node, so
  answers equal whole-net sampling's for a given seed. A query that draws
  many rows has a worker thread draw them one block ahead into two slots,
  which pass between it and the caller through two queues (``mc_query``,
  ``_fill``, ``_drawn_ahead``).

A one-state node's table is 1 on every row, so neither engine reads one: a
pin or a reachable target on it drops out, and so does every node read
only through such nodes. An unreachable target, a state its name does not
have, makes the conjunction score 0 once the evidence is found feasible.

An alias (``PENet.aliases``) is a name the build made no node for,
because its state is always a relabelling of one made node's, its source:
a no-change copy of a predecessor, or a node such as a selection whose
rows mirror its guard atom. Both engines read a name of an alias, in
targets and evidence, as its source in the state the alias's state
stands for, so it shares the source's cache entries and draws.
Evidence that pins an alias and its source, or two aliases of one source,
to different states has probability 0: exact inference says so after the
guards, with no product formed, and Monte Carlo raises ``ZeroWeight``
before any draw.

Both run on the integer view ``finalize`` stores as ``PENet.numbering``:
one reader both engines share (``_read``) numbers a query's names on
entry, so a name raises the same typed error in either, and the rest
indexes tuples by number. The brute-force joint enumeration both are
checked against reads the ``Node.cpt`` rows instead, and lives with the
tests in ``tests/joint_oracle.py``.

``plan_success`` and ``leads_to_success`` wrap these for the two plan
metrics: goals plus the selected detailed path the build fixed
(``PENet.selected_path``), versus goals alone.
"""

from __future__ import annotations

import math
import os
import queue
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import NamedTuple

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


def _aliased(net: PENet, nid, state) -> tuple:
    """``(number, state index)`` of a state of an alias: its source's number
    and the index of the source state it stands for; None for a name, or a
    state, the net lacks."""
    alias = net.aliases.get(nid)
    if alias is None:
        return None, None
    return net.numbering.number[alias.source], alias.own.index(state) if state in alias.own else None


def _read(net: PENet, q: Query) -> tuple:
    """The query's evidence and targets as ``(number, state index)`` pairs,
    and whether every target state is one its name has (no target is
    returned when one is not). Evidence is read first: a name or a state
    the net lacks raises ``InfeasibleEvidence``. Then every target is read,
    and a name the net lacks raises ``PlanEvalError`` wherever it stands. A
    made node is looked up inline: queries mostly name one, and a cached
    answer costs a few microseconds, so a call per name would show."""
    nodes, number = net.nodes, net.numbering.number
    pins, targets, reachable = [], [], True
    for nid, state in q.evidence.items():
        node = nodes.get(nid)
        v, at = (number[nid], node.at.get(state)) if node is not None else _aliased(net, nid, state)
        if v is None:
            raise InfeasibleEvidence(f"evidence node {nid} is not in the net")
        if at is None:
            raise InfeasibleEvidence(f"evidence state {state!r} is not a state of {nid}")
        pins.append((v, at))
    for nid, state in q.targets:
        node = nodes.get(nid)
        v, at = (number[nid], node.at.get(state)) if node is not None else _aliased(net, nid, state)
        if v is None:
            raise PlanEvalError(f"target node {nid} is not in the net")
        reachable = reachable and at is not None
        targets.append((v, at))
    return pins, targets if reachable else [], reachable


# ---------------------------------------------------------------------------
# exact inference: one pruned bucket-elimination pass
# ---------------------------------------------------------------------------

# np.einsum takes at most 32 operands before numpy 2 (64 from it) and 52 axis labels.
_EINSUM_OPERANDS = 32


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


def _keyed(numbering, pairs) -> frozenset:
    """``(number, state index)`` pairs as exact inference reads them: a
    one-state node, which no query reads, dropped."""
    sizes, keyed = numbering.sizes, set()
    for v, at in pairs:  # a loop: a cache hit costs microseconds, and a comprehension here shows
        if sizes[v] > 1:
            keyed.add((v, at))
    return frozenset(keyed)


class _Answer(NamedTuple):
    """A cached exact answer, in plain numbers: no array is kept."""

    z_e: float  # the evidence probability
    z_te: float  # the joint probability of the conjunction and the evidence
    width: int  # the width of the elimination that gave it
    cells: int  # the largest factor that elimination makes for one conjunction


def _guard(width: int, cells: int, width_limit: int):
    if width > width_limit:
        raise WidthExceeded(width, width_limit)
    if cells > MAX_FACTOR_CELLS:
        raise TooLarge(f"elimination needs a factor of {cells} cells, above {MAX_FACTOR_CELLS}")


def _positions(mask: int) -> list:
    """The positions of the set bits of ``mask``, lowest first."""
    positions = []
    while mask:
        low = mask & -mask
        positions.append(low.bit_length() - 1)
        mask ^= low
    return positions


def _ancestors(parents: tuple, roots) -> set:
    """``roots`` and every ancestor by ``Numbering.parents``."""
    keep, stack = set(roots), list(roots)
    while stack:
        for parent in parents[stack.pop()]:
            if parent not in keep:
                keep.add(parent)
                stack.append(parent)
    return keep


def _eliminate(numbering, batch: list, pins: frozenset, width_limit: int, asked) -> tuple:
    """The conjunctions answered, the free axis's entries, the width, and
    the largest factor of one conjunction.

    ``batch`` holds conjunctions and ``pins`` the evidence, each a set of
    ``(number, state index)`` pairs on multi-state nodes, as ``_keyed``
    gives them; two pins on one node in different states score 0 after the
    guards. Barren nodes (not ancestors of a target or pinned node) are
    dropped, pinned axes are sliced out of each table, and the other nodes
    are eliminated in ``Numbering.rank`` order. A variable is its node's
    rank position, both as an einsum label and as a bit of an int: a
    factor's scope is a bitmask, made from its labels as the factor is read,
    and its bucket is its lowest bit, so the buckets, the scopes and the
    guards take a few int operations per factor. One axis of ``len(batch) +
    1`` entries stays free, labelled after every rank position and carried
    by the buckets whose scope holds it: each target node adds one factor
    that is 1 on entry 0 and, on entry j, its indicator when conjunction j
    names it and 1 otherwise. So entry 0 of the result is the evidence
    probability and entry j conjunction j's joint one. Every bucket's scope
    is checked against the guards for a free axis of two entries, as one
    conjunction needs, before any product is formed; a batch whose free axis
    would then make a factor of more than ``MAX_FACTOR_CELLS`` cells answers
    the conjunction ``asked`` alone.
    """
    sizes, rank, parents_of, tables = numbering.sizes, numbering.rank, numbering.parents, numbering.tables
    pinned = dict(pins)
    targets = list(dict.fromkeys(v for conjunction in batch for v, _ in conjunction))
    keep = _ancestors(parents_of, targets + list(pinned))
    free = len(sizes)  # the free axis's label, after every rank position
    # Per bucket, by its variable's rank position: the variable's state
    # count, the bucket's scope without the free axis, and the factors and
    # messages it gets.
    dims, scopes, buckets = {}, {free: 0}, {free: []}
    for v in keep:
        if v not in pinned:
            at = rank[v]
            dims[at], scopes[at], buckets[at] = sizes[v], 0, []
    for v in keep:
        ids = (*parents_of[v], v)
        table = tables[v]
        if pinned:
            table = table[tuple([pinned.get(u, slice(None)) for u in ids])]
        labels = tuple([rank[u] for u in ids if u not in pinned])
        mask, home = 0, free  # the factor's scope, and its bucket: the lowest position, or the free axis's
        for at in labels:
            mask |= 1 << at
            if at < home:
                home = at
        scopes[home] |= mask
        buckets[home].append((table, labels))
    carry = {rank[v] for v in targets if v not in pinned}  # the buckets whose scope holds the free axis
    carry.add(free)  # which stays, even with no targets
    messages = []  # per eliminated position, in rank order: the variables it passes on, and their bucket
    width = alone = joined = 0  # the largest scope, and the most cells of a scope without and with the free axis
    for at in sorted(scopes):
        scope = scopes[at]
        variables = _positions(scope)
        width = max(width, len(variables) + (at in carry) - 1)
        cells = 1
        for var in variables:
            cells *= dims[var]
        if at in carry:
            joined = max(joined, cells)
        else:
            alone = max(alone, cells)
        if at != free:
            # The bucket's own variable is its scope's lowest bit, and the next one is the message's bucket.
            home = variables[1] if len(variables) > 1 else free
            scopes[home] |= scope & (scope - 1)
            if at in carry:
                carry.add(home)
            messages.append((at, tuple(variables[1:]) + ((free,) if at in carry else ()), home))
    cells = max(alone, 2 * joined)
    _guard(width, cells, width_limit)
    entries = len(batch) + 1
    if max(alone, entries * joined) > MAX_FACTOR_CELLS:
        batch = [asked]
        entries = 2
    if len(pinned) < len(pins):  # a node pinned in two states
        return batch, [0.0] * entries, width, cells

    hits = {v: np.ones((sizes[v], entries)) for v in targets}
    for j, conjunction in enumerate(batch, 1):
        for v, state in conjunction:
            hits[v][:state, j] = hits[v][state + 1:, j] = 0.0
    for v, hit in hits.items():
        if v in pinned:
            buckets[free].append((hit[pinned[v]], (free,)))
        else:
            buckets[rank[v]].append((hit, (rank[v], free)))
    buckets[free].append((np.ones(entries), (free,)))
    for at, out, home in messages:
        buckets[home].append((_contract(buckets[at], out), out))
    return batch, _contract(buckets[free], (free,)).tolist(), width, cells


def _answer(net: PENet, conjunction: frozenset, pins: frozenset, width_limit: int) -> _Answer:
    """Eliminate for a conjunction the net has no answer to, and cache every
    conjunction the elimination answers.

    A conjunction on one node is asked in one batch with the node's other
    states, in state order, and any other conjunction alone. So a key's
    answer does not depend on which query found it, and threads that miss
    the same key at once store the same numbers: the cache needs no lock.
    """
    batch = [conjunction]
    if len(conjunction) == 1:
        ((v, _),) = conjunction
        batch = [frozenset({(v, s)}) for s in range(net.numbering.sizes[v])]
    batch, z, width, cells = _eliminate(net.numbering, batch, pins, width_limit, conjunction)
    answers = {(c, pins): _Answer(z[0], z_te, width, cells) for c, z_te in zip(batch, z[1:])}
    net.answers.update(answers)
    return answers[conjunction, pins]


def exact_query(net: PENet, q: Query, width_limit: int = DEFAULT_WIDTH_LIMIT) -> QueryResult:
    """Exact conditional probability of the target conjunction.

    The answer comes from ``net.answers``, keyed by the conjunction and the
    evidence as ``_keyed`` gives them, whatever their order: an alias's
    state is keyed as its source's, and one-state nodes drop out, so every
    query on an alias shares its source's entries and every marginal of a
    one-state node under one evidence set shares one entry. On a miss the
    answer comes from one elimination that caches what it answers. A hit
    checks the width limit, the factor-size guard and the evidence as a
    miss does, so a query raises exactly when its own elimination would, and
    the result is made anew for each call.
    """
    if not net.finalized:
        raise PlanEvalError("exact_query requires a finalized net")
    if q.mode != EXACT:
        raise PlanEvalError(f"exact_query called with mode {q.mode!r}")
    evidence, targets, reachable = _read(net, q)
    pins = _keyed(net.numbering, evidence)
    # An unreachable conjunction, read as empty, scores zero once the evidence is found feasible.
    conjunction = _keyed(net.numbering, targets)
    answer = net.answers.get((conjunction, pins)) or _answer(net, conjunction, pins, width_limit)
    _guard(answer.width, answer.cells, width_limit)  # for a hit; a miss was guarded before its products
    if answer.z_e <= 0.0:
        raise InfeasibleEvidence("evidence has probability zero")
    probability = min(max(answer.z_te / answer.z_e, 0.0), 1.0) if reachable else 0.0
    return QueryResult(probability, EXACT, elimination_width=answer.width)


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

    Two slots of ``_BLOCK_DOUBLES // n`` rows each (at least one) pass
    between the worker and the caller through two queues: ``free`` holds the
    slots the worker may fill, and a None there stops it; ``full`` holds the
    filled slots in block order, or the exception the worker raised, which
    the caller raises. The caller reads one slot while the worker fills the
    other, and a row is valid until the next one is asked for. The thread
    lives only inside this context, which stops and joins it on exit.
    """
    rows = max(1, _BLOCK_DOUBLES // n)
    blocks = [skips[start:start + rows] for start in range(0, len(skips), rows)]
    free, full = queue.SimpleQueue(), queue.SimpleQueue()
    for _ in range(2):
        free.put(np.empty((rows, n)))

    def work():
        try:
            for block in blocks:
                slot = free.get()
                if slot is None:
                    return
                _fill(rng, block, slot[:len(block)])
                full.put(slot)
        except BaseException as exc:  # handed to the caller, which raises it
            full.put(exc)

    def handed_over():
        for block in blocks:
            slot = full.get()
            if isinstance(slot, BaseException):
                raise slot
            yield from slot[:len(block)]
            free.put(slot)

    worker = threading.Thread(target=work, name="planeval-mc-draws", daemon=True)
    worker.start()
    try:
        yield handed_over()
    finally:
        free.put(None)
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
    order, in one context that gives them one block ahead from a second
    thread when the query draws at least ``_AHEAD_DRAWS`` doubles and inline
    otherwise, with the same bits either way, and ``_sample`` reads them.
    Samples are freed after their last reader. A query that samples no node,
    every target one-state or unreachable and every evidence node one-state,
    is answered without a schedule or a generator, with the bits sampling
    would give.
    """
    if not net.finalized:
        raise PlanEvalError("mc_query requires a finalized net")
    if q.mode != MC:
        raise PlanEvalError(f"mc_query called with mode {q.mode!r}")
    # A bool is an int to isinstance, but not a sample count or a seed.
    if isinstance(q.samples, bool) or not isinstance(q.samples, int) or q.samples < 1:
        raise PlanEvalError(f"Monte Carlo needs a whole number of at least one sample, not {q.samples!r}")
    if q.samples > MAX_FACTOR_CELLS:  # before the generator or any array is made
        raise TooLarge(f"Monte Carlo asks for {q.samples} samples, above {MAX_FACTOR_CELLS}")
    if isinstance(q.seed, bool) or not isinstance(q.seed, int) or q.seed < 0:
        raise PlanEvalError(f"Monte Carlo needs a whole-number seed of at least zero, not {q.seed!r}")
    evidence, targets, reachable = _read(net, q)
    n = q.samples
    numbering = net.numbering
    parents_of, sizes, picks = numbering.parents, numbering.sizes, numbering.picks
    pins = {}
    for v, state in evidence:
        if pins.setdefault(v, state) != state:  # an alias and its source, or two aliases of one node, pinned apart
            raise ZeroWeight("all samples are inconsistent with the evidence")
    # An unreachable conjunction, read as empty, scores zero whatever is drawn, so it reads nothing.
    targets = [(v, s) for v, s in targets if sizes[v] > 1]
    roots = [v for v, _ in targets] + [v for v in pins if sizes[v] > 1]
    if not roots:
        # Nothing is sampled: every weight is 1 and every sample hits, or none
        # does. The ESS, n * n / n, is exactly n, since n <= 2**25.
        return QueryResult(float(reachable), MC, standard_error=0.0, sample_count=n, effective_sample_size=float(n))
    rng = np.random.Generator(np.random.PCG64(q.seed))
    keep = _ancestors(parents_of, roots)
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
    ahead = len(skips) * n >= _AHEAD_DRAWS
    with _drawn_ahead(rng, skips, n) if ahead else nullcontext(_inline_rows(rng, skips, n)) as rows:
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


def _run(net: PENet, targets, evidence: dict, mode: str, samples: int, seed: int) -> QueryResult:
    """Answer one conjunction given evidence with the chosen engine."""
    query = Query(targets=targets, evidence=evidence, mode=mode, samples=samples, seed=seed)
    return (exact_query if mode == EXACT else mc_query)(net, query)


def plan_success(net: PENet, plan, mode: str = EXACT, samples: int = 10000, seed: int = 0,
                 evidence: dict = None) -> QueryResult:
    """Probability that the goals hold in the final situation and every
    expansion-selection node on the selected detailed path takes its
    planner-chosen alternative, given ``evidence`` (NodeId -> state)."""
    targets = _goal_targets(net, plan) + list(net.selected_path)
    return _run(net, targets, evidence or {}, mode, samples, seed)


def leads_to_success(net: PENet, plan, mode: str = EXACT, samples: int = 10000, seed: int = 0,
                     evidence: dict = None) -> QueryResult:
    """Probability of the goal conjunction in the final situation, whichever
    branches actually execute, given ``evidence`` (NodeId -> state)."""
    return _run(net, _goal_targets(net, plan), evidence or {}, mode, samples, seed)
