"""Ground truth for both query engines: brute-force joint enumeration.

``oracle_enumerate`` answers a ``Query`` by walking every joint assignment
of a finalized net, depth first in ``topological_nodes`` order, over the
``Node.cpt`` rows, not the ``Node.table`` arrays that
``inference.exact_query`` and ``inference.mc_query`` read. Zero-probability
rows and rows that contradict the evidence are pruned. It is kept dead
simple so it can serve as the reference they are compared against; its cost
is the product of every node's state count, bounded by
``DEFAULT_ORACLE_BOUND`` unless a test passes another bound. An alias, a node
the build did not make because its state always relabels another's, takes
in every world its own state at the position of that node's state, so a
target or a pin on it is one on that node.
"""

import math

from planeval.errors import InfeasibleEvidence, PlanEvalError, TooLarge
from planeval.inference import Query, QueryResult, _read
from planeval.net import PENet

DEFAULT_ORACLE_BOUND = 10 ** 7


def _check_size(net: PENet, bound: float):
    size = 1.0
    for node in net.nodes.values():
        size *= len(node.states)
        if size > bound:
            raise TooLarge(f"joint state space exceeds the {bound:g} bound")


def _as_made(net: PENet, nid, state) -> tuple:
    """A name's state as a state of the made node it reads; None for a state an alias lacks."""
    alias = net.aliases.get(nid)
    if alias is None:
        return nid, state
    return alias.source, net.nodes[alias.source].states[alias.own.index(state)] if state in alias.own else None


def _own(net: PENet, nid, assignment: dict):
    """A name's state in a world of the made nodes."""
    alias = net.aliases.get(nid)
    if alias is None:
        return assignment[nid]
    return alias.own[net.nodes[alias.source].at[assignment[alias.source]]]


def oracle_enumerate(net: PENet, q: Query, bound: float = DEFAULT_ORACLE_BOUND) -> QueryResult:
    """Ground-truth query: the target conjunction's mass in the evidence-pruned joint."""
    if not net.finalized:
        raise PlanEvalError("oracle_enumerate requires a finalized net")
    _read(net, q)  # raises for evidence, then for a target node, that is not in the net
    _check_size(net, bound)
    targets = dict()
    for nid, state in q.targets:
        nid, state = _as_made(net, nid, state)
        if targets.get(nid, state) != state:
            return QueryResult(0.0, "oracle")
        targets[nid] = state
    keep = sorted(targets, key=net.node_key)
    joint = joint_distribution(net, keep, bound=math.inf, evidence=q.evidence)
    z_e = sum(joint.values())
    if z_e <= 0.0:
        raise InfeasibleEvidence("evidence has probability zero")
    z_te = joint.get(tuple(targets[nid] for nid in keep), 0.0)
    return QueryResult(min(max(z_te / z_e, 0.0), 1.0), "oracle")


def joint_distribution(net: PENet, keep=None, bound: float = DEFAULT_ORACLE_BOUND, evidence: dict = None) -> dict:
    """Joint of the ``keep`` nodes (default: all) with the ``evidence`` (NodeId
    -> state), marginalizing the rest, by a zero-pruned DFS over the CPT rows.

    Returns {assignment tuple aligned with sorted(keep): probability} with
    zero outcomes omitted; branches that contradict the evidence are pruned.
    """
    if keep is None:
        keep = list(net.nodes)
    keep = sorted(keep, key=net.node_key)
    pins = {}
    for nid, state in (evidence or {}).items():
        nid, state = _as_made(net, nid, state)
        if pins.setdefault(nid, state) != state:
            return {}  # two pins on one node, through an alias, disagree
    _check_size(net, bound)
    order = net.topological_nodes()
    cpts = {nid: dict(net.nodes[nid].cpt) for nid in order}  # each row read once, not once per visit
    out = {}
    assignment = {}

    def walk(depth: int, prob: float):
        if depth == len(order):
            key = tuple(_own(net, nid, assignment) for nid in keep)
            out[key] = out.get(key, 0.0) + prob
            return
        nid = order[depth]
        node = net.nodes[nid]
        combo = tuple(assignment[p] for p in node.parents)
        pinned = pins.get(nid)
        for state, p in cpts[nid][combo].items():
            if p == 0.0 or (pinned is not None and state != pinned):
                continue
            assignment[nid] = state
            walk(depth + 1, prob * p)
        assignment.pop(nid, None)

    walk(0, 1.0)
    return out
