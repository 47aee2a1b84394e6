"""The plan-evaluation network substrate.

A PENet is a situation-layered DAG. A node's shape is fixed when it is made:
its kind and states at creation, its parents before its first row. Node CPTs
are stored sparsely as rows keyed by full parent-state combinations;
fragments carry rows with partial conditions on declared parents, which are
expanded over the remaining parents when pasted.
``finalize`` freezes each CPT into one read-only array, ``Node.table``, and
each row's running sums into a read-only CDF for Monte Carlo, and numbers
the nodes in ``node_key`` order; the inference engines read the tables and
CDFs through that numbering (``PENet.numbering``), on ints alone.

Two merge operations build nets from model fragments:

* ``paste_onto``: fragment rows replace conflicting rows already in the net
  (last writer wins, at row granularity).
* ``paste_into``: fragment rows fill gaps only; existing rows are untouched.

Layering rules, enforced on every arc:

* no arc points from a later situation to an earlier one;
* a primitive node's atom parents live in strictly earlier situations
  (gating nodes - selection, clock, relative-end-time - may share its
  situation, but never a predicate node);
* a derived node's parents are primitive nodes in the same situation.

Since arcs never point backward, a cycle can only close inside one
situation, so a same-situation arc is checked for cycles by walking the
parent's same-situation ancestors alone.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import IncompleteCPT, LayeringViolation, PlanEvalError, TooLarge
from .model import PROB_TOL, GroundAtom, format_bucket, label_sort_key

PRIMITIVE = "primitive"
DERIVED = "derived"
SELECTION = "action-selection"
CLOCK = "clock"
RELATIVE_END_TIME = "relative-end-time"
ELAPSED = "elapsed"

KIND_RANK = {PRIMITIVE: 0, DERIVED: 1, SELECTION: 2, CLOCK: 3, RELATIVE_END_TIME: 4, ELAPSED: 5}

ATOM_KINDS = (PRIMITIVE, DERIVED)

# Largest table or factor: 2**25 float64 cells are 256 MiB.
MAX_FACTOR_CELLS = 2 ** 25

# numpy's limit on the dimensions of one array: 32 before numpy 2, 64 from it.
_MAX_TABLE_DIMS = 64 if int(np.__version__.split(".")[0]) >= 2 else 32


@dataclass(frozen=True)
class SituationId:
    index: int
    sub: str = ""  # "" | "a" | "b"

    def __str__(self):
        return f"S{self.index}{self.sub}"


def parse_situation(token: str) -> SituationId:
    text = token[1:] if token[:1] in ("S", "s") else token
    sub = ""
    if text and text[-1] in ("a", "b"):
        sub = text[-1]
        text = text[:-1]
    try:
        return SituationId(int(text), sub)
    except ValueError:
        raise PlanEvalError(f"malformed situation {token!r}; expected S<index> with an optional a or b") from None


@dataclass(frozen=True)
class NodeId:
    """A node address: what it stands for plus the situation it lives in.

    ``ref`` is a discriminated tuple:
    ("atom", name, args) | ("sel", boundary) | ("clock",) |
    ("ret", earlier_step, later_step) | ("dur", step_id) | ("elapsed", buckets)
    """

    ref: tuple
    sit: SituationId

    def __hash__(self):
        # Flat, so hashing a node id does not also call SituationId.__hash__.
        return hash((self.ref, self.sit.index, self.sit.sub))

    def __str__(self):
        kind = self.ref[0]
        if kind == "atom":
            return f"{GroundAtom(self.ref[1], self.ref[2])}@{self.sit}"
        if kind == "sel":
            return f"sel({self.ref[1]})@{self.sit}"
        if kind == "clock":
            return f"clock@{self.sit}"
        if kind == "ret":
            return f"ret({self.ref[1]},{self.ref[2]})@{self.sit}"
        if kind == "elapsed":
            return f"elapsed({' '.join(format_bucket(b) for b in self.ref[1])})@{self.sit}"
        return f"dur({self.ref[1]})@{self.sit}"

    @property
    def atom(self) -> GroundAtom:
        if self.ref[0] != "atom":
            raise ValueError(f"{self} is not an atom node")
        return GroundAtom(self.ref[1], self.ref[2])


def atom_node(atom: GroundAtom, sit: SituationId) -> NodeId:
    return NodeId(("atom", atom.name, tuple(atom.args)), sit)


def sel_node(boundary: str, sit: SituationId) -> NodeId:
    return NodeId(("sel", boundary), sit)


def clock_node(sit: SituationId) -> NodeId:
    return NodeId(("clock",), sit)


def ret_node(step_earlier: str, step_later: str, sit: SituationId) -> NodeId:
    return NodeId(("ret", step_earlier, step_later), sit)


def dur_node(step_id: str, sit: SituationId) -> NodeId:
    return NodeId(("dur", step_id), sit)


def elapsed_node(buckets: tuple, sit: SituationId) -> NodeId:
    return NodeId(("elapsed", buckets), sit)


@dataclass
class Node:
    """A net node. ``table`` is None until ``finalize`` freezes the CPT into a
    read-only float64 array of shape (|parent_1|, ..., |parent_k|, |states|),
    indexed by parent and state position; ``cpt`` keeps the rows as written."""

    id: NodeId
    kind: str
    states: list
    parents: list = field(default_factory=list)  # kept sorted by the net's node key
    cpt: dict = field(default_factory=dict)  # combo tuple -> {state: prob}
    provenance: dict = field(default_factory=dict)  # combo tuple -> str
    table: np.ndarray = field(default=None, repr=False, compare=False)


@dataclass
class FragmentNode:
    id: NodeId
    kind: str
    states: list
    parents: list = field(default_factory=list)


@dataclass
class FragmentRow:
    node: NodeId
    condition: dict  # NodeId -> state (partial; expanded over remaining parents)
    distribution: dict
    provenance: str = ""


@dataclass
class Fragment:
    """A PENet-shaped piece produced by instantiating one model."""

    nodes: list = field(default_factory=list)
    rows: list = field(default_factory=list)


class Numbering(NamedTuple):
    """A finalized net on ints, as inference reads it: node ``i`` is ``ids[i]``,
    numbered in ``node_key`` order, and every other field is indexed by that
    number.

    A one-state node's table is 1 on every row, so it carries no information:
    ``parents`` lists only the parents of more than one state, and
    ``tables[v]`` is ``Node.table`` viewed without the one-state parent axes,
    of shape ``(|p_1|, ..., |p_m|, k)`` over those parents. ``order`` is the
    topological order over the full parent lists, the order Monte Carlo
    draws in. ``rank[v]`` is the node's place in one min-degree elimination
    order of the moral graph on the multi-state nodes, fixed here so every
    exact query eliminates in it; the one-state nodes, which no query
    eliminates, rank after them in number order.

    ``strides`` and ``cdfs`` are what Monte Carlo reads. A node's table row
    for parent state indices ``(i_1, ..., i_m)`` is ``sum(i_j * strides[v][j])``,
    the row ``np.ravel_multi_index`` gives. ``cdfs[v]`` has shape
    ``(k - 1, rows)`` for a node of ``k`` states: column ``j`` of the running
    sums of each table row, ``np.cumsum(table.reshape(-1, k)[:, :-1], axis=1)``
    bit for bit, lies contiguous over the rows as ``cdfs[v][j]``. The last
    running sum is never needed, so a one-state node's CDF has no column.
    """

    ids: tuple  # NodeIds in node_key order
    number: MappingProxyType  # NodeId -> number, read-only
    parents: tuple  # multi-state parent numbers, in Node.parents order
    tables: tuple  # views of the Node.table arrays over those parents
    sizes: tuple  # state counts
    order: tuple  # the topological order over all parents, as numbers
    rank: tuple  # per node, its place in the min-degree elimination order
    strides: tuple  # per node, each multi-state parent's row multiplier, as ints
    cdfs: tuple  # per node, a read-only (k - 1, rows) float64 array


class PENet:
    """Situation-layered belief network over plan-evaluation nodes."""

    def __init__(self, situation_order=()):
        self.nodes: dict = {}
        self.situation_order: list = list(situation_order)
        self._positions = {sit: i for i, sit in enumerate(self.situation_order)}
        self.finalized = False
        self.selection_records: list = []
        self._order: tuple = ()  # the topological order, fixed by finalize
        self.numbering: Numbering = None  # set by finalize

    # -- situations ------------------------------------------------------

    def ensure_situation(self, sit: SituationId):
        if sit in self._positions:
            return
        # Ad-hoc nets register situations in index order; pipeline nets fix the
        # order up front (splits deliberately deviate from numeric order).
        self.situation_order.append(sit)
        self.situation_order.sort(key=lambda s: (s.index, s.sub))
        self._positions = {s: i for i, s in enumerate(self.situation_order)}

    def position(self, sit: SituationId) -> int:
        return self._positions[sit]

    def node_key(self, nid: NodeId):
        kind_rank = KIND_RANK.get(self.nodes[nid].kind, 9) if nid in self.nodes else 9
        return (self._positions[nid.sit], kind_rank, str(nid))

    # -- structure -------------------------------------------------------

    def ensure_node(self, spec: FragmentNode) -> Node:
        self._mutable()
        self.ensure_situation(spec.id.sit)
        node = self.nodes.get(spec.id)
        if node is None:
            node = self.nodes[spec.id] = Node(spec.id, spec.kind, list(spec.states))
        elif (node.kind, node.states) != (spec.kind, list(spec.states)):
            raise PlanEvalError(f"node {spec.id} exists as {node.kind} {node.states}; "
                                f"a re-declaration says {spec.kind} {list(spec.states)}")
        for parent in spec.parents:
            self.add_parent(node, parent)
        return node

    def add_parent(self, node: Node, parent: NodeId):
        if parent in node.parents:
            return
        self._mutable()
        if parent not in self.nodes:
            raise PlanEvalError(f"parent {parent} of {node.id} is not in the net")
        self._check_layering(parent, node)
        if parent.sit == node.id.sit:
            self._check_no_cycle(parent, node.id)
        if node.cpt:
            raise PlanEvalError(f"parent {parent} added to {node.id}, which already has rows")
        node.parents.append(parent)
        node.parents.sort(key=self.node_key)

    def _check_layering(self, parent: NodeId, child: Node):
        pkind = self.nodes[parent].kind
        ppos, cpos = self._positions[parent.sit], self._positions[child.id.sit]
        if ppos > cpos:
            raise LayeringViolation(f"arc {parent} -> {child.id}: parent follows the child situation")
        if child.kind == PRIMITIVE:
            if pkind in ATOM_KINDS and ppos == cpos:
                raise LayeringViolation(
                    f"arc {parent} -> {child.id}: predicate parents of a primitive node "
                    "must lie in an earlier situation"
                )
        elif child.kind == DERIVED:
            if ppos != cpos:
                raise LayeringViolation(f"arc {parent} -> {child.id}: derived nodes take same-situation parents only")
            if pkind != PRIMITIVE:
                raise LayeringViolation(f"arc {parent} -> {child.id}: derived nodes take primitive parents only")

    def _check_no_cycle(self, parent: NodeId, child: NodeId):
        """Reject a same-situation arc whose parent already descends from the child."""
        stack, seen = [parent], {parent}
        while stack:
            nid = stack.pop()
            if nid == child:
                raise PlanEvalError(f"paste created a cycle through {child}")
            for grand in self.nodes[nid].parents:
                if grand.sit == child.sit and grand not in seen:
                    seen.add(grand)
                    stack.append(grand)

    def topological_nodes(self) -> tuple:
        """Nodes with every parent before its child: the order ``finalize`` stored."""
        if not self.finalized:
            raise PlanEvalError("topological_nodes requires a finalized net")
        return self._order

    # -- row writing -----------------------------------------------------

    def _paste(self, frag: Fragment, overwrite: bool) -> PENet:
        self._mutable()
        for spec in frag.nodes:
            self.ensure_node(spec)
        for row in frag.rows:
            node = self.nodes[row.node]
            pools, pinned = [], 0
            for parent in node.parents:
                states = self.nodes[parent].states
                if parent in row.condition:
                    pinned += 1
                    pin = row.condition[parent]
                    pools.append((pin,) if pin in states else ())  # an unreachable pin expands to nothing
                else:
                    pools.append(tuple(states))
            if pinned < len(row.condition):
                stray = next(key for key in row.condition if key not in node.parents)
                raise PlanEvalError(f"a row of {node.id} pins {stray}, which is not one of its parents")
            combos = math.prod(len(pool) for pool in pools)
            if combos > MAX_FACTOR_CELLS:
                raise TooLarge(f"a row of node {node.id} expands to {combos} parent combinations, "
                               f"above {MAX_FACTOR_CELLS}")
            targets = [
                combo for combo in itertools.product(*pools)
                if overwrite or combo not in node.cpt
            ]
            if not targets:
                continue
            dist = self._fit_distribution(node, row.distribution)
            for combo in targets:
                node.cpt[combo] = dict(dist)
                node.provenance[combo] = row.provenance
        return self

    def _fit_distribution(self, node: Node, dist: dict) -> dict:
        fitted = {}
        for state, prob in dist.items():
            if prob == 0.0:
                continue
            if state not in node.states:
                raise PlanEvalError(f"state {state!r} not among {node.id}'s states {node.states}")
            fitted[state] = fitted.get(state, 0.0) + prob
        return {s: fitted[s] for s in sorted(fitted, key=label_sort_key)}

    def _mutable(self):
        if self.finalized:
            raise PlanEvalError("net is finalized and immutable")

    # -- queries over structure -------------------------------------------

    def find(self, atom, situation) -> NodeId:
        """Node id for an atom (GroundAtom or '(Loc A)' text) at a situation ('S1' or SituationId)."""
        if isinstance(atom, str):
            atom = GroundAtom.parse(atom)
        if isinstance(situation, str):
            situation = parse_situation(situation)
        nid = atom_node(atom, situation)
        if nid not in self.nodes:
            raise PlanEvalError(f"no node {nid} in net")
        return nid

    def row_provenance(self, nid: NodeId, combo: tuple) -> str:
        return self.nodes[nid].provenance[combo]

    def final_situation(self) -> SituationId:
        return self.situation_order[-1]


def paste_onto(net: PENet, frag: Fragment) -> PENet:
    """Merge a fragment, replacing conflicting rows (last writer wins per row)."""
    return net._paste(frag, overwrite=True)


def paste_into(net: PENet, frag: Fragment) -> PENet:
    """Merge a fragment without disturbing anything already present."""
    return net._paste(frag, overwrite=False)


def finalize(net: PENet) -> PENet:
    """Check full CPT coverage, normalize rows exactly, and freeze the net.

    Each node's rows are also written, in ``itertools.product`` order over the
    parents' states, into ``Node.table``, a float64 array over immutable bytes.
    The same per-node pass takes each row's running sums for the Monte Carlo
    CDFs. All tables are slices of one per-net buffer and all CDFs of
    another, so a query makes no table work of its own and a finalized net
    can be queried from many threads at once. A table of more dimensions
    than numpy allows or of more than ``MAX_FACTOR_CELLS`` cells raises
    ``TooLarge`` before any node's rows are enumerated. The nodes are numbered in ``node_key`` order,
    and that integer view, stored as ``net.numbering``, keeps only the
    multi-state parents and fixes the row strides, the CDFs and one min-degree
    elimination order for every query.
    """
    if net.finalized:
        return net
    ordered = sorted(net.nodes, key=net.node_key)
    number = {nid: i for i, nid in enumerate(ordered)}
    nodes = [net.nodes[nid] for nid in ordered]
    every_parent = tuple(tuple(number[p] for p in node.parents) for node in nodes)
    shapes = [[len(nodes[p].states) for p in ps] + [len(node.states)] for node, ps in zip(nodes, every_parent)]
    for node, shape in zip(nodes, shapes):
        if len(shape) > _MAX_TABLE_DIMS:
            raise TooLarge(f"node {node.id} needs a table of {len(shape)} dimensions, above {_MAX_TABLE_DIMS}")
        if math.prod(shape) > MAX_FACTOR_CELLS:
            raise TooLarge(f"node {node.id} needs a table of {math.prod(shape)} cells, above {MAX_FACTOR_CELLS}")
    # Every table goes into one per-net list of cells and every CDF into
    # another, so the net gets two buffers rather than two arrays per node.
    cells, sums, spans = [], [], []
    for node, ps in zip(nodes, every_parent):
        pools = [nodes[p].states for p in ps]
        rows = []
        for combo in itertools.product(*pools):
            dist = node.cpt.get(combo)
            if dist is None:
                raise IncompleteCPT(node.id, _describe_combo(node, combo))
            total = sum(dist.values())
            if abs(total - 1.0) > PROB_TOL:
                raise PlanEvalError(f"row {node.id}{combo} sums to {total!r}")
            if total != 1.0:
                dist = node.cpt[combo] = {s: p / total for s, p in dist.items()}
            rows.append([dist.get(s, 0.0) for s in node.states])
        if len(node.cpt) != len(rows):
            extra = set(node.cpt) - set(itertools.product(*pools))
            raise PlanEvalError(f"node {node.id} carries rows for unreachable combinations {sorted(extra)[:3]}")
        spans.append((len(cells), len(sums), len(rows)))
        cells += itertools.chain.from_iterable(rows)
        # Running sums are sequential, as np.cumsum's, so the CDF has its bits;
        # they are taken column by column, and the last column is never read.
        for column in itertools.islice(zip(*map(itertools.accumulate, rows)), len(node.states) - 1):
            sums += column
    # Backed by immutable bytes, so not even the writeable flag can be set back.
    cell_buffer = np.frombuffer(np.array(cells, dtype=float).tobytes())
    sum_buffer = np.frombuffer(np.array(sums, dtype=float).tobytes())
    order = _topological_order(every_parent)
    sizes = tuple(shape[-1] for shape in shapes)
    parents, tables, strides, cdfs = [], [], [], []
    for node, (start, first, count), shape, ps in zip(nodes, spans, shapes, every_parent):
        k = shape[-1]
        node.table = table = cell_buffer[start:start + count * k].reshape(shape)
        if 1 in shape[:-1]:  # view the table without its one-state parent axes
            ps = tuple([p for p in ps if sizes[p] > 1])
            table = table.reshape([sizes[p] for p in ps] + [k])
        parents.append(ps)
        tables.append(table)
        # A one-state axis multiplies no stride, so the full shape's strides serve.
        strides.append(tuple([math.prod(shape[i + 1:-1]) for i in range(len(shape) - 1) if shape[i] > 1]))
        cdfs.append(sum_buffer[first:first + count * (k - 1)].reshape(k - 1, count))
    parents = tuple(parents)
    net._order = tuple(ordered[v] for v in order)
    net.numbering = Numbering(
        ids=tuple(ordered),
        number=MappingProxyType(number),
        parents=parents,
        tables=tuple(tables),
        sizes=sizes,
        order=order,
        rank=_min_degree_rank(parents, sizes),
        strides=tuple(strides),
        cdfs=tuple(cdfs),
    )
    net.finalized = True
    return net


def _topological_order(parents: tuple) -> tuple:
    """Node numbers rearranged so parents precede children.

    Each pass places, in number order, every pending node whose parents are placed.
    """
    order = []
    placed = [False] * len(parents)
    pending = range(len(parents))
    while pending:
        remaining = []
        for v in pending:
            if all(placed[p] for p in parents[v]):
                order.append(v)
                placed[v] = True
            else:
                remaining.append(v)
        if len(remaining) == len(pending):
            raise PlanEvalError("net is cyclic")
        pending = remaining
    return tuple(order)


def _min_degree_rank(parents: tuple, sizes: tuple) -> tuple:
    """Each node's place in a min-degree elimination order of the moral graph
    on the multi-state nodes; the one-state nodes follow in number order.

    A multi-state node is linked to its parents, and they to each other
    (``parents`` holds only multi-state ones, and a one-state child marries
    none). The node of fewest neighbours goes next, the lower number on a tie,
    and its neighbours become a clique. A heap holds ``(degree, number)``
    entries, pushed whenever a degree changes; a popped entry whose degree is
    stale, or whose node is gone, is passed over.
    """
    neighbours = [set() if k > 1 else None for k in sizes]
    for v, ps in enumerate(parents):
        if ps and sizes[v] > 1:
            family = (*ps, v)
            for u in family:
                neighbours[u].update(family)
    heap = []
    for v, around in enumerate(neighbours):
        if around is not None:
            around.discard(v)
            heap.append((len(around), v))
    heapq.heapify(heap)
    rank = [0] * len(sizes)
    place = 0
    while heap:
        degree, v = heapq.heappop(heap)
        around = neighbours[v]
        if around is None or degree != len(around):
            continue
        neighbours[v] = None
        rank[v] = place
        place += 1
        for u in around:
            other = neighbours[u]
            before = len(other)
            other.discard(v)
            if degree > 1:
                other |= around
                other.discard(u)
            if len(other) != before:
                heapq.heappush(heap, (len(other), u))
    for v, k in enumerate(sizes):
        if k == 1:
            rank[v] = place
            place += 1
    return tuple(rank)


def _describe_combo(node: Node, combo: tuple) -> str:
    return ", ".join(f"{p}={v}" for p, v in zip(node.parents, combo))


def canonical_dump(net: PENet) -> str:
    """Deterministic text rendering of the whole net; equal nets dump equal bytes."""
    lines = [f"situations {' '.join(str(s) for s in net.situation_order)}"]
    for nid in sorted(net.nodes, key=net.node_key):
        node = net.nodes[nid]
        lines.append(
            f"node {nid} kind={node.kind} states={{{' '.join(str(s) for s in node.states)}}}"
            f" parents=[{', '.join(str(p) for p in node.parents)}]"
        )
        for combo in sorted(node.cpt, key=lambda c: tuple(str(v) for v in c)):
            dist = node.cpt[combo]
            body = " ".join(f"{s}:{dist[s]:.12g}" for s in sorted(dist, key=label_sort_key))
            src = node.provenance.get(combo, "")
            lines.append(f"  row ({', '.join(str(v) for v in combo)}) -> {{{body}}}  # {src}")
    return "\n".join(lines) + "\n"
