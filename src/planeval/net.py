"""The plan-evaluation network substrate.

A PENet is a situation-layered DAG. A node's shape is fixed when it is made:
its kind and states at creation, its parents before its first row, and with
them the arrays its rows are written into, one cell per parent-state
combination and state. Every node has its arrays from the moment it is in
the net: a table of more dimensions than numpy allows or of more than
``MAX_FACTOR_CELLS`` cells raises ``TooLarge`` when the node is made or a
parent added, before the net changes. Fragments carry rows with partial
conditions on declared parents; pasting a row writes one array slice, over
every state of each parent the row does not pin.
``finalize`` normalizes the cells into one read-only array per node,
``Node.table``, takes each row's running sums into a read-only CDF for Monte
Carlo, and numbers the nodes in ``node_key`` order; the inference engines
read the tables and CDFs through that numbering (``PENet.numbering``), on
ints alone.

Two merge operations build nets from model fragments:

* ``paste_onto``: fragment rows replace conflicting rows already in the net
  (last writer wins, at row granularity).
* ``paste_into``: fragment rows fill gaps only; existing rows are untouched.

Both write rows with one row writer. Fill rows that many nodes share, such
as a persistence model's, come as one ``FillBlock`` of rows; the row writer
writes them once per layout into arrays over the node's states and the
parents that are the block's axes, and the build copies those into each
node with one masked copy per array of the node, which writes what
``paste_into`` of the block's rows would.

A node whose state is always a relabelling of one made node's is not made:
the net keeps it in ``PENet.aliases`` as an ``Alias`` of that node, its
source, with its own states, in its name's order, and its state for each
source state (a no-change copy of a predecessor keeps its source's; a
selector that mirrors its guard does not).
``find`` gives the source of an alias that keeps its source's states and
the name of one that relabels them, the queries read an alias's state as
the source state it stands for, ``row_provenance`` reads the record, and
``canonical_dump`` prints one line per alias, with its map when it relabels.

Layering rules, enforced on every arc:

* no arc points from a later situation to an earlier one;
* a primitive node's atom parents live in strictly earlier situations
  (gating nodes - selection, clock, relative-end-time - may share its
  situation, but never a predicate node);
* a derived node's parents are primitive nodes in the same or an earlier
  situation (an earlier one where the same-situation node is an alias).

Since arcs never point backward, a cycle can only close inside one
situation, so a same-situation arc is checked for cycles by walking the
parent's same-situation ancestors alone.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Mapping
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


class SituationId(NamedTuple):
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


class NodeId(NamedTuple):
    """A node address: what it stands for plus the situation it lives in.

    ``ref`` is a discriminated tuple:
    ("atom", name, args) | ("sel", boundary) | ("clock",) |
    ("ret", earlier_step, later_step) | ("dur", step_id) | ("elapsed", buckets)
    """

    ref: tuple
    sit: SituationId

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


@dataclass(eq=False, slots=True)
class Node:
    """A net node: its kind and states are fixed when it is made, its parents
    before its first row.

    Rows are written straight into arrays indexed by parent state position:
    ``cells``, of shape (|parent_1|, ..., |parent_k|, |states|), holds each
    row's probabilities, ``totals`` each row's sum, and ``sources`` the index
    of its provenance in ``labels``, 0 for a row not written. ``finalize``
    divides the cells by the totals into ``table``, a read-only float64 array
    of the same shape, and drops ``cells`` and ``totals``. ``cpt`` and
    ``provenance`` are read-only views of the written rows, keyed by
    parent-state combination.
    """

    id: NodeId
    kind: str
    states: list
    text: str  # str(id), formatted once
    labels: list = field(repr=False)  # the net's provenance labels
    parents: list = field(default_factory=list)  # sorted by the net's node key
    axes: tuple = field(default=None, repr=False)  # the parent Nodes, once the shape is fixed
    table: np.ndarray = field(default=None, repr=False)
    cells: np.ndarray = field(default=None, repr=False)
    totals: np.ndarray = field(default=None, repr=False)
    sources: np.ndarray = field(default=None, repr=False)
    at: dict = field(init=False, repr=False)  # state -> position

    def __post_init__(self):
        self.at = {state: i for i, state in enumerate(self.states)}

    @property
    def cpt(self) -> Mapping:
        """{state: prob} per row, zero entries dropped, in label order."""
        return _Rows(self, _distribution)

    @property
    def provenance(self) -> Mapping:
        """The label of the model that wrote each row."""
        return _Rows(self, lambda node, at: node.labels[node.sources[at]])


def _distribution(node: Node, at: tuple) -> dict:
    row = (node.cells if node.table is None else node.table)[at].tolist()
    given = [(state, p) for state, p in zip(node.states, row) if p != 0.0]
    if len(given) > 1:
        given.sort(key=lambda entry: label_sort_key(entry[0]))
    return dict(given)


class _Rows(Mapping):
    """A node's written rows, read-only: parent-state combination -> ``read(node, position)``."""

    def __init__(self, node: Node, read):
        self.node, self.read = node, read

    def __getitem__(self, combo):
        node = self.node
        try:
            at = tuple([axis.at[state] for axis, state in zip(node.axes, combo, strict=True)])
        except (KeyError, TypeError, ValueError):  # not a combination of parent states
            raise KeyError(combo) from None
        if not node.sources[at]:
            raise KeyError(combo)
        return self.read(node, at)

    def __iter__(self):
        # combinations and sources both in parent-state order
        combos = itertools.product(*[axis.states for axis in self.node.axes])
        return itertools.compress(combos, self.node.sources.ravel().tolist())

    def __len__(self):
        return int(np.count_nonzero(self.node.sources))


@dataclass(slots=True)
class FragmentNode:
    id: NodeId
    kind: str
    states: list
    parents: list = field(default_factory=list)
    text: str = ""  # str(id) when the maker already formatted it


@dataclass(slots=True)
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


class Alias(NamedTuple):
    """A name the net made no node for: ``source`` is the made node whose
    state it always relabels, ``states`` its own states, in the order a node
    of its name would list them, ``own`` its state for each source state, in
    source-state order, and ``labels`` the provenance of the row that gives
    each. A no-change copy has ``states`` and ``own`` equal to its source's
    states, each labelled ``default-persistence`` or ``clock-identity``."""

    source: NodeId
    states: tuple
    own: tuple
    labels: tuple

    def keeps(self, source_states) -> bool:
        """True when its states are ``source_states``, in that order, each its own."""
        return self.states == self.own == tuple(source_states)


class Numbering(NamedTuple):
    """A finalized net on ints, as inference reads it: node ``i`` is ``ids[i]``,
    numbered in ``node_key`` order, and every other field is indexed by that
    number.

    A one-state node's table is 1 on every row, so it carries no information:
    ``parents`` lists only the parents of more than one state, and
    ``tables[v]`` is ``Node.table`` viewed without the one-state parent axes,
    of shape ``(|p_1|, ..., |p_m|, k)`` over those parents. ``order`` is the
    topological order over the full parent lists, the order Monte Carlo
    draws in.

    ``rank[v]`` is the node's place in one min-degree elimination order of
    the moral graph on the multi-state nodes, fixed here so every exact
    query eliminates in it; the one-state nodes, which no query eliminates,
    rank after them in number order. A query reads a node's factor over rank
    positions, ``rank[v]`` and ``rank[p]`` of each multi-state parent ``p``,
    as it reads the node, so nothing per node grows with the net.

    ``strides`` and ``cdfs`` are what Monte Carlo reads. A node's table row
    for parent state indices ``(i_1, ..., i_m)`` is ``sum(i_j * strides[v][j])``,
    the row ``np.ravel_multi_index`` gives. ``cdfs[v]`` has shape
    ``(k - 1, rows)`` for a node of ``k`` states: column ``j`` of the running
    sums of each table row, ``np.cumsum(table.reshape(-1, k)[:, :-1], axis=1)``
    bit for bit, lies contiguous over the rows as ``cdfs[v][j]``. The last
    running sum is never needed, so a one-state node's CDF has no column.
    A draw ``u`` in [0, 1) picks the state that counts the columns with
    ``u >= cdfs[v][j][row]``, so no draw lands on a state of probability 0.

    ``picks[v]`` is set for a multi-state node whose CDF entries are all
    exactly 0.0 or 1.0, such as a derived definition, an expansion selection
    or an atom a reliable effect fixes: one entry per row, that row's state, which
    is the count of its running sums equal to 0 and the state every draw
    picks. Monte Carlo reads it and draws nothing for the node. Every other
    node, every one-state node included, has ``None``.
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
    picks: tuple  # per node, a read-only intp array of each row's certain state, or None


class PENet:
    """Situation-layered belief network over plan-evaluation nodes."""

    def __init__(self, situation_order=()):
        self.nodes: dict = {}
        self.aliases: Mapping = {}  # NodeId -> Alias; read-only once finalized
        self.situation_order: list = list(situation_order)
        self._positions = {sit: i for i, sit in enumerate(self.situation_order)}
        self.finalized = False
        # (expansion selection, planner-chosen label) pairs on the selected path, set by the build
        self.selected_path: tuple = ()
        self.labels = [None]  # provenance labels by ``Node.sources``, 0 for no row; a tuple once finalized
        self._label_ids: dict = {}
        self.numbering: Numbering = None  # set by finalize
        self.answers: dict = None  # exact answers by (conjunction, evidence), made empty by finalize

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
        node = self.nodes.get(nid)
        if node is None:  # an alias sorts as a node of its source's kind
            alias = self.aliases.get(nid)
            return (self._positions[nid.sit], KIND_RANK.get(alias and self.nodes[alias.source].kind, 9), str(nid))
        return (self._positions[nid.sit], KIND_RANK.get(node.kind, 9), node.text)

    # -- structure -------------------------------------------------------

    def ensure_node(self, spec: FragmentNode) -> Node:
        """Make a node, or check a re-declaration of it, and add its parents;
        a new node enters the net with its arrays."""
        self._mutable()
        node = self.nodes.get(spec.id)
        if node is None:
            node = Node(spec.id, spec.kind, list(spec.states), spec.text or str(spec.id), self.labels)
        elif (node.kind, node.states) != (spec.kind, list(spec.states)):
            raise PlanEvalError(f"node {spec.id} exists as {node.kind} {node.states}; "
                                f"a re-declaration says {spec.kind} {list(spec.states)}")
        self.add_parent(node, *spec.parents)
        self.nodes[spec.id] = node
        return node

    def add_parent(self, node: Node, *parents: NodeId):
        """Add parents to a node and allocate its arrays anew, or for the
        first time for a node not yet in the net. The table's size is judged
        first, so a node too large for one leaves the net as it was; each arc
        and the node's rows are checked before the node changes."""
        added = [p for p in dict.fromkeys(parents) if p not in node.parents]
        if node.axes is not None and not added:
            return
        self._mutable()
        for parent in added:
            if parent not in self.nodes:
                raise PlanEvalError(f"parent {parent} of {node.id} is not in the net")
        parents, axes = self._shape(node, added)
        for parent in added:
            self._check_layering(parent, node)
            if parent.sit == node.id.sit:
                self._check_no_cycle(parent, node.id)
        if node.axes is not None and node.sources.any():
            raise PlanEvalError(f"parent {added[0]} added to {node.id}, which already has rows")
        self.ensure_situation(node.id.sit)
        _allocate(node, parents, axes)

    def _shape(self, node: Node, added: list) -> tuple:
        """The node's parents with ``added``, sorted, and their Nodes. A table
        of more dimensions than numpy allows or of more than
        ``MAX_FACTOR_CELLS`` cells raises ``TooLarge``."""
        parents = sorted([*node.parents, *added], key=self.node_key)
        axes = tuple([self.nodes[p] for p in parents])
        shape = tuple([len(axis.states) for axis in axes])
        dims, cells = len(shape) + 1, math.prod(shape) * len(node.states)
        if dims > _MAX_TABLE_DIMS:
            raise TooLarge(f"node {node.id} needs a table of {dims} dimensions, above {_MAX_TABLE_DIMS}")
        if cells > MAX_FACTOR_CELLS:
            raise TooLarge(f"node {node.id} needs a table of {cells} cells, above {MAX_FACTOR_CELLS}")
        return parents, axes

    def _check_layering(self, parent: NodeId, child: Node):
        """Judge one arc; a child situation not yet registered is judged by
        where ``ensure_situation`` would place it, and stays unregistered."""
        pkind = self.nodes[parent].kind
        if child.id.sit in self._positions:
            ppos, cpos = self._positions[parent.sit], self._positions[child.id.sit]
        else:  # ensure_situation sorts every situation by (index, sub), as the ids compare
            ppos, cpos = parent.sit, child.id.sit
        if ppos > cpos:
            raise LayeringViolation(f"arc {parent} -> {child.id}: parent follows the child situation")
        if child.kind == PRIMITIVE:
            if pkind in ATOM_KINDS and ppos == cpos:
                raise LayeringViolation(
                    f"arc {parent} -> {child.id}: predicate parents of a primitive node "
                    "must lie in an earlier situation"
                )
        elif child.kind == DERIVED:
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
        """Nodes with every parent before its child: ``Numbering.order`` as ids."""
        if not self.finalized:
            raise PlanEvalError("topological_nodes requires a finalized net")
        numbering = self.numbering
        return tuple([numbering.ids[v] for v in numbering.order])

    # -- row writing -----------------------------------------------------

    def _paste(self, frag: Fragment, overwrite: bool) -> PENet:
        """Make the fragment's nodes, then write its rows into their nodes' arrays."""
        self._mutable()
        for spec in frag.nodes:
            self.ensure_node(spec)
        self._write(self.nodes, frag.rows, overwrite)
        return self

    def _write(self, tables: Mapping, rows, overwrite: bool):
        """Write each row into one slice of the arrays of ``tables[row.node]``:
        a pinned parent is an index, any other parent every state, and a pin
        on a state the parent lacks writes nothing and registers no label.
        An onto row (``overwrite``) writes the whole slice, a fill row only
        the rows of it not yet written."""
        for row in rows:
            table, condition = tables[row.node], row.condition
            # a trailing Ellipsis keeps even a single row a view
            at = (*[axis.at.get(condition[p]) if p in condition else _ALL
                    for p, axis in zip(table.parents, table.axes)], ...)
            if len(at) - 1 - at.count(_ALL) < len(condition):
                stray = next(key for key in condition if key not in table.parents)
                raise PlanEvalError(f"a row of {table.id} pins {stray}, which is not one of its parents")
            if None in at:
                continue  # an unreachable pin writes nothing
            if not overwrite:
                free = table.sources[at] == 0
                if not free.any():
                    continue
            cells, total = _fit(table.at, row.distribution, table.id)
            source = self._label(row.provenance)
            if overwrite:
                table.cells[at], table.totals[at], table.sources[at] = cells, total, source
            else:
                table.cells[at][free], table.totals[at][free], table.sources[at][free] = cells, total, source

    def _fill(self, fills) -> PENet:
        """Write fill blocks, each into the rows of its node not yet written,
        as ``paste_into`` of the blocks' rows would. ``fills`` are (node,
        parents, block): the block's axes are the nodes ``parents``, and it
        repeats along every other parent of the node. Nodes alike in block,
        states and parent layout share one part: ``_write`` writes the
        block's rows once into arrays over the node's states and over its
        parents that are block axes, in its parent order, which take a
        length-1 axis for every other parent and are copied into each node
        with one masked copy per array."""
        self._mutable()
        arranged = {}
        for nid, parents, block in fills:
            node = self.nodes[nid]
            axis = dict(zip(parents, range(len(parents))))
            layout = (id(block), tuple(node.states), *[axis.get(p) for p in node.parents])
            if layout not in arranged:  # kept with the block, so no other block can take its id
                part = Node(nid, node.kind, node.states, node.text, self.labels)
                own = [p for p in node.parents if p in axis]
                _allocate(part, own, tuple([self.nodes[p] for p in own]))
                self._write({nid: part}, block.fragment_rows(nid, parents), overwrite=False)
                shape = [n if p in axis else 1 for p, n in zip(node.parents, node.totals.shape)]
                arranged[layout] = (block, part.cells.reshape(*shape, -1), part.totals.reshape(shape),
                                    part.sources.reshape(shape))
            _block, cells, totals, sources = arranged[layout]
            free = node.sources == 0
            np.copyto(node.cells, cells, where=free[..., None])
            np.copyto(node.totals, totals, where=free)
            np.copyto(node.sources, sources, where=free)
        return self

    def _label(self, text: str) -> int:
        """The index of a provenance label in ``labels``, added on first use."""
        source = self._label_ids.setdefault(text, len(self.labels))
        if source == len(self.labels):
            self.labels.append(text)
        return source

    def _mutable(self):
        if self.finalized:
            raise PlanEvalError("net is finalized and immutable")

    # -- queries over structure -------------------------------------------

    def node_of(self, nid: NodeId):
        """The made Node ``nid`` names: its own, or for an alias its source;
        None when the net names no such node."""
        alias = self.aliases.get(nid)
        return self.nodes[alias.source] if alias else self.nodes.get(nid)

    def states_of(self, nid: NodeId) -> list:
        """The states a name the net has takes: a made node's, or an alias's own."""
        alias = self.aliases.get(nid)
        return list(alias.states) if alias else self.nodes[nid].states

    def find(self, atom, situation) -> NodeId:
        """Node id for an atom (GroundAtom or '(Loc A)' text) at a situation
        ('S1' or SituationId): a made node's, or for an alias whose states
        are its source's, in the same order, the source's. An alias that
        relabels gives its own name, which the queries and ``states_of``
        read but ``nodes`` does not hold."""
        if isinstance(atom, str):
            atom = GroundAtom.parse(atom)
        if isinstance(situation, str):
            situation = parse_situation(situation)
        nid = atom_node(atom, situation)
        node = self.node_of(nid)
        if node is None:
            raise PlanEvalError(f"no node {nid} in net")
        alias = self.aliases.get(nid)
        return nid if alias and not alias.keeps(node.states) else node.id

    def row_provenance(self, nid: NodeId, combo: tuple) -> str:
        """The label of the model that wrote the node's row for a parent-state
        combination. An alias answers as the node it stands for would: its
        one parent is its source, and each source state has the row its
        record labels."""
        node = self.node_of(nid)
        if node is None:
            raise PlanEvalError(f"no node {nid} in net")
        if node.id == nid:
            try:
                return node.provenance[combo]
            except KeyError:
                pass
        elif isinstance(combo, tuple) and len(combo) == 1 and combo[0] in node.states:
            return self.aliases[nid].labels[node.at[combo[0]]]
        raise PlanEvalError(f"node {nid} has no row for parent states {combo!r}")

    def final_situation(self) -> SituationId:
        return self.situation_order[-1]


_ALL = slice(None)  # a parent a row does not pin


def _allocate(node: Node, parents: list, axes: tuple):
    """Give a node its parents, their Nodes and zeroed arrays over them."""
    shape = tuple([len(axis.states) for axis in axes])
    node.parents, node.axes = parents, axes
    node.cells = np.zeros((*shape, len(node.states)))
    node.totals = np.zeros(shape)
    node.sources = np.zeros(shape, dtype=np.int32)


def _fit(at: dict, dist: dict, owner) -> tuple:
    """A row's cells in state order and its total: the nonzero probabilities
    added one by one in label order, so the total has the same bits whatever
    the states' order. ``at`` maps each state of ``owner`` to its position."""
    cells, total = [0.0] * len(at), 0.0
    for state in sorted(dist, key=label_sort_key) if len(dist) > 1 else dist:
        if dist[state] != 0.0:
            if state not in at:
                raise PlanEvalError(f"state {state!r} not among {owner}'s states {list(at)}")
            cells[at[state]] += dist[state]
            total += dist[state]
    return cells, total


class FillBlock(NamedTuple):
    """Fill rows that every node they fill alike shares (``PENet._fill``).

    ``rows`` are (pins, distribution, label) in paste order, one pin per
    axis: a state, or None for every state of the axis. ``states`` are the
    states the rows reachable over the axes' states give.
    """

    rows: tuple
    states: tuple

    def fragment_rows(self, node: NodeId, parents: tuple) -> list:
        """The rows as fragment rows of ``node``, the block's axes being the nodes ``parents``."""
        return [FragmentRow(node, {p: pin for p, pin in zip(parents, pins) if pin is not None}, dict(dist), label)
                for pins, dist, label in self.rows]


def paste_onto(net: PENet, frag: Fragment) -> PENet:
    """Merge a fragment, replacing conflicting rows (last writer wins per row)."""
    return net._paste(frag, overwrite=True)


def paste_into(net: PENet, frag: Fragment) -> PENet:
    """Merge a fragment without disturbing anything already present."""
    return net._paste(frag, overwrite=False)


def finalize(net: PENet) -> PENet:
    """Check full CPT coverage, normalize rows exactly, and freeze the net.

    Coverage is read from the nodes' ``sources``, and each row's cells are
    divided by its stored total into ``Node.table``, a float64 array over
    immutable bytes (a total of exactly 1.0 divides to the same bits); the
    Monte Carlo CDFs are the running sums of the table rows. All tables are
    slices of one per-net buffer and all CDFs and pick tables of another, so
    a query makes no table work of its own and a finalized net can be
    queried from many threads at once. The nodes are numbered in
    ``node_key`` order, and that integer view, stored as ``net.numbering``,
    keeps only the multi-state parents and fixes the row strides, the CDFs,
    the pick tables of the nodes certain of their state on every row, and
    one min-degree elimination order for every query. The alias table
    becomes read-only. ``net.answers`` starts as an empty dict, the cache
    ``exact_query`` answers through: a finalized net never changes, so an
    answer, once found, holds for the net's life. It keeps plain numbers,
    and dict updates are atomic, so threads may share it.
    """
    if net.finalized:
        return net
    ordered = sorted(net.nodes, key=net.node_key)
    number = {nid: i for i, nid in enumerate(ordered)}
    nodes = [net.nodes[nid] for nid in ordered]
    every_parent = tuple(tuple(number[p] for p in node.parents) for node in nodes)
    shapes = [[len(nodes[p].states) for p in ps] + [len(node.states)] for node, ps in zip(nodes, every_parent)]
    sizes = tuple(shape[-1] for shape in shapes)
    counts = [node.sources.size for node in nodes]
    size_array, row_counts = np.array(sizes, dtype=np.intp), np.array(counts, dtype=np.intp)
    widths = np.repeat(size_array, row_counts)  # per row of the net, its node's state count
    totals = _checked_totals(nodes)  # a guard, so before any cell is copied
    cells = _joined([node.cells.ravel() for node in nodes])
    cells /= np.repeat(totals, widths)
    # Backed by immutable bytes, so not even the writeable flag can be set back.
    cell_buffer = np.frombuffer(cells.tobytes())
    # The running sums of all rows of k states at once: np.cumsum runs
    # sequentially along a row, and the last sum is never read. The block of
    # each k holds column j of its rows contiguous, in number order.
    by_size = widths.argsort(kind="stable")  # the rows block by block
    row_sizes, ks = widths[by_size], sorted(set(sizes))
    firsts, blocks, sums, flat, at, row = np.cumsum(widths) - widths, {}, [], [], 0, 0
    for k, end in zip(ks, row_sizes.searchsorted(ks, side="right").tolist()):
        blocks[k] = (at, end - row, row)
        cdf = np.cumsum(cell_buffer[firsts[by_size[row:end], None] + np.arange(k - 1)], axis=1)
        sums.append(cdf.T.ravel())
        flat.append(cdf.ravel())
        at, row = at + cdf.size, end
    # A row whose running sums are all 0.0 or 1.0 is certain of its state,
    # the count of its zero sums, and a node of more than one state is when
    # every row is. Both are counted over every sum at once, block by block,
    # so no k and no node costs a numpy call of its own.
    running = _joined(flat)
    zero = running == 0.0
    row_sums = row_sizes - 1
    node_of_row = np.arange(len(nodes)).repeat(row_counts)[by_size]
    unsure = np.bincount(node_of_row.repeat(row_sums), weights=~zero & (running != 1.0), minlength=len(nodes)).tolist()
    states = np.bincount(np.arange(len(row_sums)).repeat(row_sums), weights=zero, minlength=len(row_sums))
    # The CDFs and the pick tables share one buffer of immutable bytes.
    joined = _joined(sums)
    buffer = joined.tobytes() + states.astype(np.intp).tobytes()
    sum_buffer = np.frombuffer(buffer, count=len(joined))
    state_buffer = np.frombuffer(buffer, dtype=np.intp, offset=joined.nbytes)
    picks = {k: state_buffer[row:row + n] for k, (_, n, row) in blocks.items()}
    blocks = {k: sum_buffer[at:at + (k - 1) * n].reshape(k - 1, n) for k, (at, n, _) in blocks.items()}
    order = _topological_order(every_parent)
    labels = net.labels = tuple(net.labels)
    parents, tables, strides, cdfs, pick_of = [], [], [], [], []
    start, placed = 0, dict.fromkeys(blocks, 0)  # per k, how many of its rows are placed
    for node, shape, ps, count, doubts in zip(nodes, shapes, every_parent, counts, unsure):
        k = shape[-1]
        node.table = table = cell_buffer[start:start + count * k].reshape(shape)
        start += count * k
        node.cells = node.totals = None
        node.sources.flags.writeable = False
        node.labels = labels
        if 1 in shape[:-1]:  # view the table without its one-state parent axes
            ps = tuple([p for p in ps if sizes[p] > 1])
            table = table.reshape([sizes[p] for p in ps] + [k])
        parents.append(ps)
        tables.append(table)
        # A one-state axis multiplies no stride, so the full shape's strides serve.
        strides.append(tuple([math.prod(shape[i + 1:-1]) for i in range(len(shape) - 1) if shape[i] > 1]))
        cdfs.append(blocks[k][:, placed[k]:placed[k] + count])
        pick_of.append(picks[k][placed[k]:placed[k] + count] if k > 1 and not doubts else None)
        placed[k] += count
    parents = tuple(parents)
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
        picks=tuple(pick_of),
    )
    net.aliases = MappingProxyType(dict(net.aliases))
    net.answers = {}
    net.finalized = True
    return net


def _joined(arrays: list) -> np.ndarray:
    return np.concatenate(arrays) if arrays else np.zeros(0)


def _checked_totals(nodes: list) -> np.ndarray:
    """Every row's total, the nodes taken in turn; raises for the first row
    off 1 by more than ``PROB_TOL``, which is the first unwritten row too,
    since an unwritten row's total is 0."""
    totals = _joined([node.totals.ravel() for node in nodes])
    off = np.flatnonzero(np.abs(totals - 1.0) > PROB_TOL)
    if len(off):
        at = int(off[0])
        for node in nodes:
            if at < node.sources.size:
                break
            at -= node.sources.size
        combo = tuple(axis.states[i] for axis, i in zip(node.axes, np.unravel_index(at, node.sources.shape)))
        if not node.sources.ravel()[at]:
            raise IncompleteCPT(node.id, _describe_combo(node, combo))
        raise PlanEvalError(f"row {node.id}{combo} sums to {float(node.totals.ravel()[at])!r}")
    return totals


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
    none). The node of fewest neighbours goes next, the lower number on a
    tie, and its neighbours become a clique. A heap holds ``(degree,
    number)`` entries, pushed whenever a degree changes; a popped entry
    whose degree is stale, or whose node is gone, is passed over.
    """
    neighbours = [set() if k > 1 else None for k in sizes]
    for v, ps in enumerate(parents):
        if ps and sizes[v] > 1:
            family = {*ps, v}
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
    """Deterministic text rendering of the whole net; equal nets dump equal
    bytes. An alias is one line, in the place its node would have, followed
    by its map, one line per source state, unless it is a no-change copy."""
    lines = [f"situations {' '.join(str(s) for s in net.situation_order)}"]
    for nid in sorted([*net.nodes, *net.aliases], key=net.node_key):
        node = net.nodes.get(nid)
        if node is None:
            alias = net.aliases[nid]
            source = net.nodes[alias.source]
            lines.append(f"alias {nid} -> {source.text}")
            if not alias.keeps(source.states) or set(alias.labels) - {"default-persistence", "clock-identity"}:
                lines += [f"  map ({state}) -> {own}  # {label}"
                          for state, own, label in zip(source.states, alias.own, alias.labels)]
            continue
        lines.append(
            f"node {node.text} kind={node.kind} states={{{' '.join(str(s) for s in node.states)}}}"
            f" parents=[{', '.join(net.nodes[p].text for p in node.parents)}]"
        )
        cpt, provenance = node.cpt, node.provenance
        for combo in sorted(cpt, key=lambda c: tuple(str(v) for v in c)):
            dist = cpt[combo]
            body = " ".join(f"{s}:{dist[s]:.12g}" for s in dist)
            lines.append(f"  row ({', '.join(str(v) for v in combo)}) -> {{{body}}}  # {provenance[combo]}")
    return "\n".join(lines) + "\n"
