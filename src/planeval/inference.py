"""Probability queries over finalized PE-nets.

Three engines answer the same question (probability of a conjunction of
node states, optionally given evidence):

* ``exact_query`` - one bucket-elimination pass over the ancestors of the
  targets and the evidence, in situation order, with ``np.einsum`` over the
  frozen ``Node.table`` arrays; width and factor-size guards run before any
  product is formed;
* ``mc_query`` - forward sampling with likelihood weighting, vectorized and
  reproducible for a given seed;
* ``oracle_enumerate`` - brute-force joint enumeration, kept dead simple so
  it can serve as ground truth for the other two.

``plan_success`` and ``leads_to_success`` wrap these for the two plan
metrics: goals plus the selected detailed path, versus goals alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleEvidence, PlanEvalError, TooLarge, WidthExceeded, ZeroWeight
from .net import PENet, atom_node

EXACT = "exact"
MC = "mc"

DEFAULT_WIDTH_LIMIT = 20
DEFAULT_ORACLE_BOUND = 10 ** 7


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

# Largest factor an elimination may form: 2**25 float64 cells are 256 MiB.
MAX_FACTOR_CELLS = 2 ** 25

# np.einsum takes at most 32 operands before numpy 2 (64 from it) and 52 axis labels.
_EINSUM_OPERANDS = 32


def _ancestors(net: PENet, roots) -> set:
    keep, stack = set(roots), list(roots)
    while stack:
        for parent in net.nodes[stack.pop()].parents:
            if parent not in keep:
                keep.add(parent)
                stack.append(parent)
    return keep


def _contract(factors: list, out: tuple, dims: list) -> np.ndarray:
    """Multiply (table, vars) factors and sum every variable not in ``out``."""
    while len(factors) > _EINSUM_OPERANDS:
        head = factors[:_EINSUM_OPERANDS]
        scope = tuple(sorted(set().union(*(vars for _, vars in head))))
        factors = [(_contract(head, scope, dims), scope)] + factors[_EINSUM_OPERANDS:]
    # One-state axes are dropped, so the guarded cell count bounds the labels.
    labels = {}
    args = []
    for table, vars in factors:
        args.append(np.reshape(table, [dims[v] for v in vars if dims[v] > 1]))
        args.append([labels.setdefault(v, len(labels)) for v in vars if dims[v] > 1])
    args.append([labels[v] for v in out if dims[v] > 1])
    return np.einsum(*args).reshape([dims[v] for v in out])


def _eliminate(net: PENet, targets: list, pins: dict, width_limit: int):
    """Evidence probability and joint target probability, and the width.

    Barren nodes (not ancestors of a target or pinned node) are dropped,
    pinned axes are sliced out of each table, and the other nodes are
    eliminated in ``node_key`` order (situation first), each factor in the
    bucket of its earliest node. One two-state axis stays free: each target
    adds a factor that is 1 on its entry 0 and the target's indicator on its
    entry 1, so entry 0 of the result is the evidence probability and entry
    1 the joint one, however many targets the conjunction has. Every bucket's
    scope is checked against the guards before any product is formed.
    """
    keep = _ancestors(net, tuple(nid for nid, _ in targets) + tuple(pins))
    order = sorted((nid for nid in keep if nid not in pins), key=net.node_key)
    # Nodes are numbered in elimination order; number m is the free axis, and
    # bucket m collects the factors over it alone.
    m = len(order)
    number = {nid: i for i, nid in enumerate(order)}
    dims = [len(net.nodes[nid].states) for nid in order] + [2]
    factors = [(np.ones(2), (m,))]  # the free axis, even with no targets
    for nid in keep:
        node = net.nodes[nid]
        ids = (*node.parents, nid)
        table = node.table
        if pins:
            table = table[tuple(pins.get(v, slice(None)) for v in ids)]
        factors.append((table, tuple(number[v] for v in ids if v in number)))
    for nid, state in targets:
        hit = np.ones((len(net.nodes[nid].states), 2))
        hit[:, 1] = [s == state for s in net.nodes[nid].states]
        factors.append((hit[pins[nid]], (m,)) if nid in pins else (hit, (number[nid], m)))
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
        buckets[min((m, *out))].append((_contract(buckets[i], out, dims), out))
    z_e, z_te = _contract(buckets[m], (m,), dims)
    return float(z_e), float(z_te), width


def exact_query(net: PENet, q: Query, width_limit: int = DEFAULT_WIDTH_LIMIT) -> QueryResult:
    """Exact conditional probability of the target conjunction, in one elimination."""
    if not net.finalized:
        raise PlanEvalError("exact_query requires a finalized net")
    if q.mode != EXACT:
        raise PlanEvalError(f"exact_query called with mode {q.mode!r}")
    _check_evidence(net, q.evidence)
    pins = {nid: net.nodes[nid].states.index(state) for nid, state in q.evidence.items()}
    targets = [(nid, state) for nid, state in q.targets if nid in net.nodes]
    z_e, z_te, width = _eliminate(net, targets, pins, width_limit)
    if z_e <= 0.0:
        raise InfeasibleEvidence("evidence has probability zero")
    _targets_reachable(net, q.targets)  # raises for a target node that is not in the net
    return QueryResult(min(max(z_te / z_e, 0.0), 1.0), EXACT, elimination_width=width)


# ---------------------------------------------------------------------------
# Monte Carlo: forward sampling with likelihood weighting
# ---------------------------------------------------------------------------


def mc_query(net: PENet, q: Query) -> QueryResult:
    """Likelihood-weighted estimate of the target conjunction; reproducible by seed."""
    if not net.finalized:
        raise PlanEvalError("mc_query requires a finalized net")
    _check_evidence(net, q.evidence)
    n = q.samples
    rng = np.random.Generator(np.random.PCG64(q.seed))
    order = net.topological_nodes()
    values = {}
    weights = np.ones(n)

    for nid in order:
        node = net.nodes[nid]
        # A root's index is 0, which broadcasts over the samples.
        row_index = np.ravel_multi_index([values[p] for p in node.parents], node.table.shape[:-1])
        matrix = node.table.reshape(-1, len(node.states))
        if nid in q.evidence:
            col = node.states.index(q.evidence[nid])
            weights = weights * matrix[row_index, col]
            values[nid] = np.full(n, col, dtype=np.int64)
        else:
            cdf = np.cumsum(matrix, axis=1)[row_index]
            draws = rng.random(n)
            picked = (draws[:, None] > cdf).sum(axis=1)
            values[nid] = np.minimum(picked, len(node.states) - 1).astype(np.int64)

    total = weights.sum()
    if total <= 0.0:
        raise ZeroWeight("all samples are inconsistent with the evidence")
    hit = np.ones(n, dtype=bool)
    for nid, state in q.targets:
        node = net.nodes[nid]
        if state not in node.states:
            hit[:] = False
            break
        hit &= values[nid] == node.states.index(state)
    x = hit.astype(float)
    estimate = float((weights * x).sum() / total)
    residual = x - estimate
    se = float(np.sqrt(((weights * residual) ** 2).sum()) / total)
    return QueryResult(estimate, MC, standard_error=se, sample_count=n)


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


def oracle_enumerate(net: PENet, q: Query, bound: float = DEFAULT_ORACLE_BOUND) -> QueryResult:
    """Ground-truth query by summing the fully expanded joint (zero-pruned DFS)."""
    if not net.finalized:
        raise PlanEvalError("oracle_enumerate requires a finalized net")
    _check_evidence(net, q.evidence)
    size = 1.0
    for node in net.nodes.values():
        size *= len(node.states)
        if size > bound:
            raise TooLarge(f"joint state space exceeds the {bound:g} bound")
    order = net.topological_nodes()
    targets = dict()
    for nid, state in q.targets:
        if targets.get(nid, state) != state:
            return QueryResult(0.0, "oracle")
        targets[nid] = state
    reachable = _targets_reachable(net, q.targets)

    z_e = 0.0
    z_te = 0.0
    assignment = {}

    def walk(depth: int, prob: float):
        nonlocal z_e, z_te
        if depth == len(order):
            z_e += prob
            if reachable and all(assignment[nid] == state for nid, state in targets.items()):
                z_te += prob
            return
        nid = order[depth]
        node = net.nodes[nid]
        combo = tuple(assignment[p] for p in node.parents)
        dist = node.cpt[combo]
        pinned = q.evidence.get(nid)
        for state, p in dist.items():
            if p == 0.0:
                continue
            if pinned is not None and state != pinned:
                continue
            assignment[nid] = state
            walk(depth + 1, prob * p)
        assignment.pop(nid, None)

    walk(0, 1.0)
    if z_e <= 0.0:
        raise InfeasibleEvidence("evidence has probability zero")
    return QueryResult(min(max(z_te / z_e, 0.0), 1.0), "oracle")


def joint_distribution(net: PENet, keep=None, bound: float = DEFAULT_ORACLE_BOUND) -> dict:
    """Joint over ``keep`` nodes (default: all), marginalizing the rest.

    Returns {assignment tuple aligned with sorted(keep): probability} with
    zero outcomes omitted. Test plumbing for joint-equivalence checks.
    """
    if keep is None:
        keep = list(net.nodes)
    keep = sorted(keep, key=net.node_key)
    size = 1.0
    for node in net.nodes.values():
        size *= len(node.states)
        if size > bound:
            raise TooLarge(f"joint state space exceeds the {bound:g} bound")
    order = net.topological_nodes()
    out = {}
    assignment = {}

    def walk(depth: int, prob: float):
        if depth == len(order):
            key = tuple(assignment[nid] for nid in keep)
            out[key] = out.get(key, 0.0) + prob
            return
        nid = order[depth]
        node = net.nodes[nid]
        combo = tuple(assignment[p] for p in node.parents)
        for state, p in node.cpt[combo].items():
            if p == 0.0:
                continue
            assignment[nid] = state
            walk(depth + 1, prob * p)
        assignment.pop(nid, None)

    walk(0, 1.0)
    return out


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


def _run(net: PENet, targets, evidence: dict, mode: str, samples: int, seed: int,
         width_limit: int = DEFAULT_WIDTH_LIMIT) -> QueryResult:
    """Answer one conjunction given evidence with the chosen engine."""
    query = Query(targets=targets, evidence=evidence, mode=EXACT if mode == EXACT else MC, samples=samples, seed=seed)
    if mode == EXACT:
        return exact_query(net, query, width_limit=width_limit)
    return mc_query(net, query)


def plan_success(net: PENet, plan, mode: str = EXACT, samples: int = 10000, seed: int = 0,
                 width_limit: int = DEFAULT_WIDTH_LIMIT, evidence: dict = None) -> QueryResult:
    """Probability that the goals hold in the final situation and every
    expansion-selection node on the selected detailed path takes its
    planner-chosen alternative, given ``evidence`` (NodeId -> state)."""
    targets = _goal_targets(net, plan) + _selected_path_targets(net)
    return _run(net, targets, evidence or {}, mode, samples, seed, width_limit)


def leads_to_success(net: PENet, plan, mode: str = EXACT, samples: int = 10000, seed: int = 0,
                     width_limit: int = DEFAULT_WIDTH_LIMIT, evidence: dict = None) -> QueryResult:
    """Probability of the goal conjunction in the final situation, whichever
    branches actually execute, given ``evidence`` (NodeId -> state)."""
    return _run(net, _goal_targets(net, plan), evidence or {}, mode, samples, seed, width_limit)
