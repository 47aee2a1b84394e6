"""Slow reference for Monte Carlo: likelihood weighting over the whole net.

``forward_sample`` draws every node of the net, in the order
``topological_nodes`` gives, for every query, and reads a state off the full
n x k comparison of each draw with its row's cumulative distribution: the
count of running sums the draw reaches (``>=``). ``inference.mc_query``
samples only the multi-state ancestors of the targets and the evidence,
reads the nodes certain of their state from pick tables, and skips the
other nodes' draws in the generator's stream (an evidence node has none),
so for the same seed the two give the same bits. Both read a name of an
alias as its source, through ``inference._read``.

``topological_nodes`` sorts the nodes by ``node_key`` and places them pass
by pass, the order a finalized net stores.
"""

import numpy as np

from planeval.errors import PlanEvalError, ZeroWeight
from planeval.inference import _read


def topological_nodes(net) -> list:
    """Nodes with every parent before its child; deterministic order."""
    order = []
    placed = set()
    pending = sorted(net.nodes, key=net.node_key)
    while pending:
        progressed = False
        remaining = []
        for nid in pending:
            if all(p in placed for p in net.nodes[nid].parents):
                order.append(nid)
                placed.add(nid)
                progressed = True
            else:
                remaining.append(nid)
        if not progressed:
            raise PlanEvalError("net is cyclic")
        pending = remaining
    return order


def forward_sample(net, q):
    """(estimate, standard error, weights) of the target conjunction."""
    evidence, targets, reachable = _read(net, q)
    ids = net.numbering.ids
    pins = {}
    for v, at in evidence:
        if pins.setdefault(ids[v], at) != at:  # an alias and its source pinned apart
            raise ZeroWeight("all samples are inconsistent with the evidence")
    n = q.samples
    rng = np.random.Generator(np.random.PCG64(q.seed))
    order = topological_nodes(net)
    values = {}
    weights = np.ones(n)

    for nid in order:
        node = net.nodes[nid]
        # A root's index is 0, which broadcasts over the samples.
        row_index = np.ravel_multi_index([values[p] for p in node.parents], node.table.shape[:-1])
        matrix = node.table.reshape(-1, len(node.states))
        if nid in pins:
            col = pins[nid]
            weights = weights * matrix[row_index, col]
            values[nid] = np.full(n, col, dtype=np.int64)
        else:
            cdf = np.cumsum(matrix, axis=1)[row_index]
            draws = rng.random(n)
            picked = (draws[:, None] >= cdf).sum(axis=1)
            values[nid] = np.minimum(picked, len(node.states) - 1).astype(np.int64)

    total = weights.sum()
    if total <= 0.0:
        raise ZeroWeight("all samples are inconsistent with the evidence")
    hit = np.full(n, reachable)
    for v, at in targets:
        hit &= values[ids[v]] == at
    x = hit.astype(float)
    estimate = float((weights * x).sum() / total)
    residual = x - estimate
    se = float(np.sqrt(((weights * residual) ** 2).sum()) / total)
    return estimate, se, weights
