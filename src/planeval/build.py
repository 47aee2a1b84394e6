"""Construction pipeline: compile (plan, knowledge base, options) into a finalized PE-net.

The pipeline runs in a fixed order:

1. flatten the hierarchy and normalize guards,
2. linearize the interlock partial order,
3. derive the situation schedule,
4. split the schedule's situations in place until no reachable negative
   elapsed time remains (this reads the schedule alone, following the time
   tree: exponential only in the number of splits, never in the steps),
5. sweep the situations once (``Schedule.analyse``): make each node's rows
   in paste order, and take from them its kind, states and parents; a node
   that persistence and no-change rows complete gets a fill block instead,
   shared by every node filled alike. A node whose state would always
   relabel one made node's is not made: the sweep records it as an alias of
   that node (``PENet.aliases``), and every row made after it reads that
   node in its place, in the source state it stands for,
6. create every node in that shape, then paste the forward rows: priors,
   action fragments and derived-predicate rows (paste-onto), residual
   effects (paste-into), contingency selection nodes, during effects, clock
   machinery with clock-identity gap fillers (paste-into) and elapsed-bucket
   nodes,
7. write each fill block's rows, KB persistence rows before the default
   no-change rows, once per layout with the net's row writer into arrays
   over the node's states and the parents that are the block's axes, then
   copy them into each node's rows no earlier stage wrote, with one masked
   copy per array; an elapsed-time row reads its situation's elapsed-bucket
   node, or the node that one relabels,
8. finalize.

No stage after the sweep makes a row. Each replays what the sweep recorded,
with one paste-onto call for its onto rows and one paste-into call for its
fill rows, or with the fill blocks, which write what paste-into of their
rows would, in the one precedence ``_relabel`` states: per node the last
onto row that covers a combination wins, and otherwise the first fill row
does. A node's parents are exactly the keys its rows read, its fill
block's among them. Gap fillers (persistence, no-change and
clock-identity rows) are recorded only where a node's own rows leave a
reachable parent combination uncovered, and KB persistence rows only where
one of them covers such a combination.

Everything here is deterministic: rebuilding from identical inputs yields a
byte-identical net.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ArityMismatch,
    BuildError,
    LayeringViolation,
    MissingDuration,
    PlanEvalError,
    TooLarge,
    UnknownConditionNode,
)
from .model import (
    OTHER,
    PROB_TOL,
    GroundAtom,
    KnowledgeBase,
    SelRef,
    format_bucket,
    instantiate,
    instantiate_row,
    label_sort_key,
    substitute_label,
    validate_kb,
)
from .net import (
    CLOCK,
    DERIVED,
    ELAPSED,
    KIND_RANK,
    MAX_FACTOR_CELLS,
    PRIMITIVE,
    RELATIVE_END_TIME,
    SELECTION,
    FillBlock,
    Alias,
    Fragment,
    FragmentNode,
    FragmentRow,
    NodeId,
    PENet,
    SituationId,
    atom_node,
    clock_node,
    dur_node,
    elapsed_node,
    finalize,
    paste_into,
    paste_onto,
    ret_node,
    sel_node,
)
from .plan import NOOP, Plan, PlanStep, flatten_hierarchy, linearize

GATE_EFFECT_ONLY = "gate-effect-only"
NULLIFY_ACTION = "nullify-action"
NEGATIVE = "negative"
NONNEGATIVE = "nonnegative"
NO_BUCKET = "none"  # the elapsed-node state of clock pairs no bucket takes


@dataclass
class BuildOptions:
    during_failure_semantics: str = GATE_EFFECT_ONLY
    clock_enabled: bool = False
    clock_cap: int = 64  # clock values above this collapse into OTHER
    tie_break: object = None  # linearization key; None = (agent, step index)

    def check(self):
        if self.during_failure_semantics not in (GATE_EFFECT_ONLY, NULLIFY_ACTION):
            raise PlanEvalError(f"unknown during-failure semantics {self.during_failure_semantics!r}")
        if self.clock_cap < 2:
            raise PlanEvalError("the clock cap must be at least 2")


@dataclass
class SitInfo:
    sid: SituationId
    boundary: str
    # Splitting replaces a situation, in place, by two sub-situations; each is
    # active only for one sign of its split's relative-end-time node, and
    # everything in it is identity otherwise.
    gate: tuple = None  # (SplitSpec, required sign)


@dataclass
class SplitSpec:
    earlier: PlanStep  # the step whose end situation the later step may precede
    later: PlanStep
    index: int

    @property
    def ret(self) -> NodeId:
        return ret_node(self.earlier.id, self.later.id, SituationId(self.index, "a"))


class Schedule:
    """The linearized situation plan driving construction (the pipeline's spine)."""

    def __init__(self, plan: Plan, kb: KnowledgeBase, opts: BuildOptions, boundary_order: list):
        self.plan = plan
        self.kb = kb
        self.opts = opts
        self.boundary_order = list(boundary_order) or ["start"]  # an empty plan still has S0
        self.situations = [SitInfo(SituationId(i), b) for i, b in enumerate(self.boundary_order)]
        self.splits = []  # SplitSpecs, in the order split_situations applied them
        self._refresh()
        self._collect_universe()
        self._validate()

    # -- layout ----------------------------------------------------------

    def _refresh(self):
        """Index positions, each situation's ending steps, residuals and spanning steps,
        and the steps of every split, which get explicit duration nodes."""
        self.dur_steps = {step.id for spec in self.splits for step in (spec.earlier, spec.later)}
        self._pos = {si.sid: i for i, si in enumerate(self.situations)}
        self._boundary_last = {}
        for si in self.situations:
            self._boundary_last[si.boundary] = si.sid
        self._enders, self._residuals = {}, {}
        for pos, si in enumerate(self.situations):
            self._enders[si.sid] = [s for s in self.plan.steps if s.end == si.boundary] if pos else []
            self._residuals[si.sid] = [r for r in self.plan.residuals if r.end == si.boundary] if pos else []
        self._spanners = {si.sid: [] for si in self.situations}
        for step in self.plan.steps:
            if step.model.during_effects:
                for mid in self.intermediates(step):
                    self._spanners[mid].append(step)

    def position(self, sid: SituationId) -> int:
        return self._pos[sid]

    def sit_of_boundary(self, boundary: str) -> SituationId:
        return self._boundary_last[boundary]

    def start_sit(self, step: PlanStep) -> SituationId:
        return self.sit_of_boundary(step.start)

    def end_pos(self, step: PlanStep) -> int:
        """Position of the first situation where the step's consequences land."""
        return next(pos for pos, si in enumerate(self.situations) if si.boundary == step.end)

    def enders_at(self, sid: SituationId) -> list:
        return self._enders[sid]

    def residuals_at(self, sid: SituationId) -> list:
        return self._residuals[sid]

    def group_at_boundary(self, boundary: str):
        for group in self.plan.contingencies:
            if group.boundary == boundary:
                return group
        return None

    def intermediates(self, step: PlanStep) -> list:
        lo = self._pos[self.start_sit(step)]
        return [si.sid for si in self.situations[lo + 1:self.end_pos(step)]]

    def spanners_at(self, sid: SituationId) -> list:
        return self._spanners[sid]

    @property
    def timed(self) -> bool:
        return self.opts.clock_enabled

    # -- universe ----------------------------------------------------------

    def _collect_universe(self):
        prims = {}
        derived = {}

        def add(atom: GroundAtom):
            schema = self.kb.schemas.get(atom.name)
            if schema is None:
                raise PlanEvalError(f"{atom} references undeclared predicate")
            if not atom.is_ground:
                raise PlanEvalError(f"{atom} is not ground")
            if schema.kind == PRIMITIVE:
                prims.setdefault(atom, None)
            else:
                derived.setdefault(atom, None)

        for atom in self.plan.initial:
            add(atom)
        for atom, _state in self.plan.goals:
            add(atom)
        for step in self.plan.steps:
            bindings = step.bindings
            if len(step.action.args) != len(step.model.params):
                raise ArityMismatch(
                    f"step {step.id}: {step.action} does not match {step.model.name}/{len(step.model.params)} parameters"
                )
            for pattern, rows in step.model.consequences + step.model.during_effects:
                add(instantiate(pattern, bindings))
                for row in rows:
                    for key in row.condition:
                        if isinstance(key, GroundAtom):
                            add(instantiate(key, bindings))
            for cond in step.model.during_conditions:
                add(instantiate(cond.atom, bindings))
        for group in self.plan.contingencies:
            for row in group.selector:
                for key in row.condition:
                    if isinstance(key, GroundAtom):
                        add(key)
        for res in self.plan.residuals:
            add(res.atom)
            for row in res.rows:
                for key in row.condition:
                    if isinstance(key, GroundAtom):
                        add(key)

        # Parents of referenced derived atoms join the primitive universe.
        for datom in list(derived):
            found = self.kb.find_derived(datom)
            if found is None:
                raise PlanEvalError(f"no derived definition matches {datom}")
            definition, bindings = found
            for parent in definition.parents:
                add(instantiate(parent, bindings))

        self.atoms = sorted(prims, key=GroundAtom.sort_key)
        self.derived_atoms = sorted(derived, key=GroundAtom.sort_key)

    def _validate(self):
        seen_boundaries = set()
        position = {b: i for i, b in enumerate(self.boundary_order)}
        for group in self.plan.contingencies:
            if group.boundary in seen_boundaries:
                raise PlanEvalError(f"two contingency groups share boundary {group.boundary!r}")
            seen_boundaries.add(group.boundary)
            for row in group.selector:
                for key in row.condition:
                    if (isinstance(key, SelRef) and self.group_at_boundary(key.boundary) is not None
                            and position[key.boundary] >= position[group.boundary]):
                        raise LayeringViolation(
                            f"selector at {group.boundary!r} reads {key}; it may only read earlier selections")
            if group.origin != "plain":
                continue  # expansion alternatives are labels, not step ids
            for alt in group.alternatives:
                if alt == NOOP:
                    continue
                step = self.plan.step_by_id(alt)
                if step.start != group.boundary:
                    raise PlanEvalError(
                        f"contingent step {alt} starts at {step.start!r}, not at the group boundary {group.boundary!r}"
                    )
        for atom in self.plan.initial:
            if self.kb.kind_of(atom) != PRIMITIVE:
                raise PlanEvalError(f"initial state mentions derived atom {atom}")
        if self.timed:
            for step in self.plan.steps:
                if step.model.duration is None:
                    raise MissingDuration(f"step {step.id} has no duration distribution but the clock is enabled")

    # -- the sweep -------------------------------------------------------

    def analyse(self):
        """Sweep the situations once, making every node's rows; returns the node states.

        Fills ``nodes`` (nid -> FragmentNode, parents before children),
        ``rows`` (nid -> [(kind, rows)] in paste order), which the paste
        stages replay unchanged, ``fills`` (nid -> _Fill), the one record of
        a node's persistence and no-change rows as a block that nodes filled
        alike share, and ``aliases`` (nid -> Alias) for each node whose state
        would always relabel a made node's, which is in no other table. A
        node's parents are the keys of its ``rows`` and its fill's axes.
        """
        self.nodes, self.rows, self.fills, self.aliases = {}, {}, {}, {}
        return _Sweep(self).run()


# ---------------------------------------------------------------------------
# condition-key resolution and model rows
# ---------------------------------------------------------------------------


def _resolve_key(schedule: Schedule, key, sit: SituationId) -> NodeId:
    if isinstance(key, SelRef):
        if schedule.group_at_boundary(key.boundary) is None:
            raise UnknownConditionNode(f"{key} does not name a contingency boundary")
        return sel_node(key.boundary, schedule.sit_of_boundary(key.boundary))
    if isinstance(key, GroundAtom):
        return atom_node(key, sit)
    raise PlanEvalError(f"unsupported condition key {key!r}")


def _guard_pins(schedule: Schedule, guards: tuple) -> dict:
    pins = {}
    for sel, label in guards:
        pins[_resolve_key(schedule, sel, None)] = label
    return pins


def _during_gate_pins(schedule: Schedule, step: PlanStep, consequence: GroundAtom) -> dict:
    """Extra parents pinning the step's during-conditions at each intermediate situation."""
    pins = {}
    bindings = step.bindings
    nullify = schedule.opts.during_failure_semantics == NULLIFY_ACTION
    for cond in step.model.during_conditions:
        gated = cond.gates is None or nullify
        if not gated:
            gated = consequence in [instantiate(g, bindings) for g in cond.gates]
        if not gated:
            continue
        atom = instantiate(cond.atom, bindings)
        state = substitute_label(cond.state, bindings)
        for mid in schedule.intermediates(step):
            pins[atom_node(atom, mid)] = state
    return pins


def _writer_pins(schedule: Schedule, guards: tuple, sid: SituationId) -> dict:
    """The pins of a writer at ``sid``: its guards' selections, then the situation's gate."""
    pins = _guard_pins(schedule, guards)
    gate = schedule.situations[schedule.position(sid)].gate
    if gate is not None:
        spec, sign = gate
        pins[spec.ret] = sign
    return pins


def _fragment_rows(schedule: Schedule, target: NodeId, pins: dict, ground_rows, read_sit, provenance: str) -> list:
    """Ground model rows for ``target``: the pins plus each row's conditions
    read at ``read_sit``, every pin read through the aliases recorded so
    far. A row that pins one node in two states, through keys aliased to it,
    reaches no combination and is left out."""
    rows = []
    for row in ground_rows:
        condition = dict(pins)
        for key, state in row.condition.items():
            condition[_resolve_key(schedule, key, read_sit)] = state
        condition = _read_through(schedule, condition)
        if condition is not None:
            rows.append(FragmentRow(target, condition, dict(row.distribution), provenance))
    return rows


_NO_STATE = object()  # the pin a state an alias lacks reads as: no state of its source meets it


def _read_through(schedule: Schedule, condition: dict):
    """``condition`` with each pin on an alias read as a pin on its source,
    in the source state the alias's state stands for; None when two pins
    read one node in different states."""
    aliases = schedule.aliases
    if not aliases:
        return condition
    read = {}
    for key, state in condition.items():
        alias = aliases.get(key)
        if alias is not None:
            key = alias.source
            state = schedule.nodes[key].states[alias.own.index(state)] if state in alias.own else _NO_STATE
        if read.setdefault(key, state) != state:
            return None
    return read


def _ground(step: PlanStep, effects: list) -> list:
    """A step's model effects as (atom, rows) under its bindings."""
    bindings = step.bindings
    return [(instantiate(pattern, bindings), [instantiate_row(row, bindings) for row in rows]) for pattern, rows in effects]


def _writer_rows(schedule: Schedule, writer, effects: list, sid: SituationId, read_sit: SituationId,
                 provenance: str, during: bool = False) -> list:
    """Fragment rows of one writer, a step or a residual effect, at ``sid``: one
    list per (atom, rows) effect. Each row pins the writer's pins and, with
    ``during`` (a step's consequences), the step's during conditions, then
    reads its own conditions at ``read_sit``."""
    pins = _writer_pins(schedule, writer.guards, sid)
    rows = []
    for atom, model_rows in effects:
        atom_pins = {**pins, **_during_gate_pins(schedule, writer, atom)} if during else pins
        rows.append(_fragment_rows(schedule, atom_node(atom, sid), atom_pins, model_rows, read_sit, provenance))
    return rows


def _situation_rows(schedule: Schedule, sid: SituationId) -> dict:
    """nid -> [(kind, rows)] for everything writing one situation, in paste order:
    "action" entries of ending steps, then "residual", then "during" entries
    of spanning steps, one entry per consequence, residual or during effect.
    Consequences read their step's start situation, residual effects their
    start boundary's, during effects the previous situation."""
    prev = schedule.situations[schedule.position(sid) - 1].sid
    writers = [("action", step, _ground(step, step.model.consequences), schedule.start_sit(step), f"action {step.id}")
               for step in schedule.enders_at(sid)]
    writers += [("residual", res, [(res.atom, res.rows)], schedule.sit_of_boundary(res.start), f"residual {res.source}")
                for res in schedule.residuals_at(sid)]
    writers += [("during", step, _ground(step, step.model.during_effects), prev, f"during {step.id}")
                for step in schedule.spanners_at(sid)]
    by_target = {}
    for kind, writer, effects, read_sit, provenance in writers:
        for rows in _writer_rows(schedule, writer, effects, sid, read_sit, provenance, during=kind == "action"):
            if rows:
                by_target.setdefault(rows[0].node, []).append((kind, rows))
    return by_target


# ---------------------------------------------------------------------------
# the situation sweep: each node's rows, and from them its states and parents
# ---------------------------------------------------------------------------

# Row kinds pasted into the net (gaps only); every other kind is pasted onto it.
_FILLS = frozenset({"residual", "selector-default", "clock-identity"})


def _row_feasible(states: dict, condition: dict) -> bool:
    for nid, state in condition.items():
        if state not in states.get(nid, ()):
            return False
    return True


def _certain(dist: dict):
    """The one state a distribution gives, or None when it gives more."""
    given = [state for state, p in dist.items() if p != 0.0]
    return given[0] if len(given) == 1 and abs(dist[given[0]] - 1.0) <= PROB_TOL else None


def _relabel(rows: list, source: list, states: list):
    """How a node of ``states`` relabels a parent of ``source`` states:
    ``(own, labels)``, per source state the node's state and the label of
    the row that gives it, when at each source state the row the paste
    stages leave there gives a point mass, on a state no other source state
    gets, and every one of ``states`` is given; None otherwise.

    ``rows`` are the node's feasible rows in paste order, each as (pin on the
    parent or None, distribution, label, whether it fills). That order is
    the paste stages' precedence: the last onto row that covers a state
    wins, and otherwise the first fill row does.
    """
    survivors = {}
    for pin, dist, label, fills in rows:
        for state in source if pin is None else [pin]:
            if not (fills and state in survivors):
                survivors[state] = dist, label
    own = [_certain(survivors[state][0]) if state in survivors else None for state in source]
    if None in own or len(own) != len(states) or set(own) != set(states):  # so none is given twice
        return None
    return tuple(own), tuple([survivors[state][1] for state in source])


def _ordered(schema, support) -> list:
    """Support states in schema order, then any others by label."""
    ordered = [s for s in schema.states if s in support]
    return ordered + [s for s in sorted(support, key=label_sort_key) if s not in ordered]


class _Fill(NamedTuple):
    """One node's persistence and no-change fill: a block shared by every
    node filled alike, and the nodes its axes read."""

    node: NodeId
    parents: tuple
    block: FillBlock


def _situation_nodes(schedule: Schedule, si: SitInfo) -> dict:
    """nid -> kind for every node living in one situation."""
    sid = si.sid
    nodes = {}
    if schedule.timed:
        for step in schedule.plan.steps:
            if step.id in schedule.dur_steps and schedule.start_sit(step) == sid:
                nodes[dur_node(step.id, sid)] = CLOCK
        if si.gate is not None and si.gate[0].ret.sit == sid:  # the split's ``a`` sub-situation
            nodes[si.gate[0].ret] = RELATIVE_END_TIME
        nodes[clock_node(sid)] = CLOCK
    for atom in schedule.atoms:
        nodes[atom_node(atom, sid)] = PRIMITIVE
    for datom in schedule.derived_atoms:
        nodes[atom_node(datom, sid)] = DERIVED
    if sid == schedule.sit_of_boundary(si.boundary) and schedule.group_at_boundary(si.boundary) is not None:
        nodes[sel_node(si.boundary, sid)] = SELECTION
    return nodes


class _Sweep:
    """One forward pass over the situations, filling the schedule's analysis.

    Within a situation a node is made after every same-situation node its
    rows read (depth first, in net node-key order), so a selection node is
    known before the effects it gates, and a key is read through the
    aliases only once its node is visited (a split's relative-end-time node,
    which every row of its situation pins, first). Each maker returns the
    node's (kind, rows) entries and sets its states: an atom or derived node
    keeps every state its feasible rows can give it. Then ``_visit`` alone
    decides whether the node is made or is an alias of one node its rows
    relabel (``_alias``), whatever its kind.
    """

    def __init__(self, schedule: Schedule):
        self.schedule = schedule
        self.states, self.derived_rows = {}, {}
        self.text = {}  # nid -> str(nid), formatted when the sweep first meets the node
        for datom in schedule.derived_atoms:
            definition, bindings = schedule.kb.find_derived(datom)
            self.derived_rows[datom] = (f"derived {definition.atom}",
                                        [instantiate_row(row, bindings) for row in definition.rows])
        self.derived_reads = {key for _label, rows in self.derived_rows.values() for row in rows for key in row.condition}
        # Per persistence model's atom name: the rows this build keeps, their
        # bucket tiling (None when no kept row reads one) and their label.
        self.models = {}
        for name, model in schedule.kb.persistence.items():
            kept = [row for row in model.rows if schedule.timed or row.bucket is None]
            buckets = tuple(model.buckets) if any(row.bucket for row in kept) else None
            self.models[name] = kept, buckets, f"persistence {model.atom}"
        # Per atom name, previous states, gate pin, whether the model's rows
        # fill a gap and the elapsed node's states: the fill block and the
        # axes its rows read.
        self.blocks = {}
        self.verdicts = {}  # per fill block, how a node it alone writes relabels one of its axes
        self.makers = {PRIMITIVE: self._primitive, DERIVED: self._derived, "sel": self._selection,
                       "dur": self._duration, "ret": self._relative_end_time, "clock": self._clock,
                       "elapsed": self._elapsed}

    def run(self):
        for pos, si in enumerate(self.schedule.situations):
            self.pos, self.si = pos, si
            self.prev = self.schedule.situations[pos - 1].sid if pos else None
            self.nodes = _situation_nodes(self.schedule, si)
            self.active = set()
            self.elapsed = {}  # bucket tiling -> this situation's elapsed node, None when no pair reaches a bucket
            self.text.update({nid: str(nid) for nid in self.nodes})
            gate = _writer_pins(self.schedule, (), si.sid)  # the gate pin alone
            self._need(gate)
            self.gate = _read_through(self.schedule, gate)
            self.writers = _situation_rows(self.schedule, si.sid) if pos else {}
            for nid in sorted(self.nodes, key=lambda n: (KIND_RANK[self.nodes[n]], self.text[n])):
                self._visit(nid)
        return self.states

    def _visit(self, nid: NodeId):
        schedule = self.schedule
        if nid in schedule.nodes or nid in schedule.aliases:
            return
        if nid in self.active:
            raise PlanEvalError(f"paste created a cycle through {nid}")
        self.active.add(nid)
        kind = self.nodes[nid]
        entries = self.makers[kind if nid.ref[0] == "atom" else nid.ref[0]](nid)
        parents = dict.fromkeys(key for _kind, rows in entries for row in rows for key in row.condition)
        fill = schedule.fills.get(nid)
        if fill is not None:
            parents.update(dict.fromkeys(fill.parents))
        if self._alias(nid, entries, fill, parents):
            return
        self._need(parents)
        schedule.nodes[nid] = FragmentNode(nid, kind, self.states[nid], list(parents), self.text[nid])
        schedule.rows[nid] = entries

    def _support(self, rows) -> set:
        """Every state a feasible row gives positive probability."""
        return {state for row in rows if _row_feasible(self.states, row.condition)
                for state, prob in row.distribution.items() if prob > 0}

    def _need(self, keys):
        """Make every same-situation node among ``keys`` first."""
        for key in keys:
            if key in self.nodes:
                self._visit(key)

    def _reading(self, nid: NodeId) -> tuple:
        """The made node a name reads, and a dict from each of the name's own
        states to the state of that node it reads, in that node's state order."""
        alias = self.schedule.aliases.get(nid)
        if alias is None:  # a made node reads itself
            states = self.states[nid]
            return nid, dict(zip(states, states))
        return alias.source, dict(zip(alias.own, self.states[alias.source]))

    def _joint(self, names: list, pins: dict = None) -> list:
        """Every joint value of ``names``, each read through its alias, as the
        pins on made nodes that give it, ``pins`` read through among them, and
        each name's own state; a value that pins one node in two states is
        left out."""
        pins = _read_through(self.schedule, pins or {})
        if pins is None:
            return []
        reads = [self._reading(name) for name in names]
        sources = [source for source, _read in reads]
        joint = []
        for combo in itertools.product(*[read.items() for _source, read in reads]):
            owns, states = zip(*combo)
            given = dict(pins)
            for source, state in zip(sources, states):
                if given.setdefault(source, state) != state:
                    break
            else:
                joint.append((given, owns))
        return joint

    def _may_relabel(self, nid: NodeId, source: NodeId) -> bool:
        """False for an atom a derived definition reads and a source that is
        not a primitive, since a derived node takes primitive parents only."""
        return not (nid.ref[0] == "atom" and nid.atom in self.derived_reads
                    and self.schedule.nodes[source].kind != PRIMITIVE)

    def _predecessor(self, nid: NodeId):
        """The made node the same atom or clock at the previous situation
        reads, through its alias; None for a node that has none."""
        if self.prev is None or nid.ref[0] not in ("atom", "clock"):
            return None
        return self._reading(NodeId(nid.ref, self.prev))[0]

    def _alias(self, nid: NodeId, entries: list, fill, parents: dict) -> bool:
        """Record ``nid`` as an alias, and drop its fill and states, when the
        rows the paste stages leave relabel one source one to one
        (``_relabelling``) and ``_may_relabel`` holds. The source is judged
        on the node's parents, or on its fill's axes alone when none of its
        own rows is feasible; such a node takes one verdict per fill block."""
        states = self.states
        if fill is None or entries and any(_row_feasible(states, row.condition)
                                           for _kind, rows in entries for row in rows):
            verdict = self._relabelling(nid, [key for key in parents if len(states[key]) > 1], entries, fill)
        else:
            block = id(fill.block)  # every block lives as long as the sweep (``blocks``)
            if block not in self.verdicts:
                verdict = self._relabelling(nid, [p for p in fill.parents if len(states[p]) > 1], (), fill)
                self.verdicts[block] = verdict and (fill.parents.index(verdict[0]), *verdict[1:])
            verdict = self.verdicts[block]
            verdict = verdict and (fill.parents[verdict[0]], *verdict[1:])
        if verdict is None or not self._may_relabel(nid, verdict[0]):
            return False
        self.schedule.aliases[nid] = Alias(verdict[0], tuple(states[nid]), *verdict[1:])
        self.schedule.fills.pop(nid, None)
        del states[nid]
        return True

    def _relabelling(self, nid: NodeId, multi: list, entries, fill):
        """``(source, own, labels)`` when the rows the paste stages leave, the
        node's feasible ``entries`` rows in paste order, then its fill block's
        reachable rows, relabel the source one to one (``_relabel``); None
        otherwise. The source is the one node of ``multi``, the candidates
        of more than one state; when there is none and no feasible row is
        pasted onto, it is the node's predecessor."""
        if len(multi) > 1:
            return None
        states = self.states
        rows = [(row.condition, row.distribution, row.provenance, kind in _FILLS)
                for kind, rows in entries for row in rows if _row_feasible(states, row.condition)]
        onto = [dist for _condition, dist, _label, fills in rows if not fills]
        # the predecessor is the source only when no feasible row is pasted
        # onto the node, and the last onto row is left wherever it writes
        if onto and (not multi or _certain(onto[-1]) is None):
            return None
        source = multi[0] if multi else self._predecessor(nid)
        if source is None:
            return None
        rows = [(condition.get(source), dist, label, fills) for condition, dist, label, fills in rows]
        if fill is not None:
            at = fill.parents.index(source) if source in fill.parents else None
            rows += [(None if at is None else pins[at], dist, label, True) for pins, dist, label in fill.block.rows
                     if all(pin is None or pin in states[p] for p, pin in zip(fill.parents, pins))]
        relabel = _relabel(rows, states[source], states[nid])
        return relabel and (source, *relabel)

    def _read_rows(self, target: NodeId, ground_rows, provenance: str) -> list:
        """Model rows read in this situation, made after every same-situation
        node they read, so each key reads through its alias."""
        schedule, sid = self.schedule, self.si.sid
        self._need([_resolve_key(schedule, key, sid) for row in ground_rows for key in row.condition])
        return _fragment_rows(schedule, target, {}, ground_rows, sid, provenance)

    # -- makers ------------------------------------------------------------

    def _primitive(self, nid: NodeId):
        schedule = self.schedule
        schema = schedule.kb.schemas[nid.ref[1]]
        if self.pos == 0:
            prior = schedule.plan.initial.get(nid.atom) or {schema.states[0]: 1.0}
            self.states[nid] = _ordered(schema, [s for s in prior if prior[s] > 0])
            return [("initial", [FragmentRow(nid, {}, dict(prior), "initial")])]

        if nid not in self.writers:  # no step writes the node: its fill alone gives its states
            self.states[nid] = list(self._persistence(nid, _Coverage(self.states, [])))
            return []
        entries = self.writers[nid]
        written = [row for _kind, rows in entries for row in rows]
        self._need([key for row in written for key in row.condition])
        support = self._support(written)
        coverage = _Coverage(self.states, written)
        if coverage.open():
            support.update(self._persistence(nid, coverage))
        self.states[nid] = _ordered(schema, support)
        return entries

    def _persistence(self, nid: NodeId, coverage: _Coverage):
        """KB persistence rows, if they fill a gap the node's written rows
        leave (``coverage``), then no-change defaults: records them as the
        node's fill in ``Schedule.fills`` and returns the states its
        reachable rows give. Whether the node is then an alias is judged in
        ``_visit``, on its rows and this fill.

        Whether the model's rows fill a gap is judged on their gate and
        previous-state pins, bucket aside; only then is the elapsed node made.
        An elapsed-time row pins its bucket on it; a bucket no clock pair
        reaches, or an untimed build, drops the row. Nodes alike in all of
        that, read through their aliases, share one block, made on first use.
        """
        schedule = self.schedule
        name, gate = nid.ref[1], self.gate
        prev_nid, read = self._reading(NodeId(nid.ref, self.prev))
        (gate_nid, sign), = gate.items() or [(None, None)]
        kept, buckets, label = self.models.get(name, ((), None, None))
        pins = [{**gate, prev_nid: read.get(row.prev, _NO_STATE)} for row in kept]
        key = (name, tuple(read), tuple(read.values()), gate_nid, sign, gate_nid and tuple(self.states[gate_nid]))
        fills = coverage.opens(pins)
        elapsed = self._elapsed_node(buckets) if fills and buckets else None
        elapsed, bucket_read = self._reading(elapsed) if elapsed else (None, {})
        candidates = (gate_nid, prev_nid, elapsed)
        same = tuple(map(candidates.index, candidates))  # through aliases, two may read one node
        key = (key, fills, tuple(bucket_read), tuple(bucket_read.values()), same)
        found = self.blocks.get(key)
        if found is None:
            found = self.blocks[key] = self._fill_block(name, kept if fills else None, label, candidates,
                                                        (sign, read, bucket_read, same))
        block, axes = found
        schedule.fills[nid] = _Fill(nid, tuple([candidates[i] for i in axes]), block)
        return block.states

    def _fill_block(self, name: str, kept: list, label: str, candidates: tuple, reads: tuple) -> tuple:
        """The block of one fill: the model's ``kept`` rows (None when they fill
        no gap), labelled ``label``, then a no-change row per previous state,
        pinned on the ``candidates`` (gate, previous node, elapsed node), with
        the states the reachable rows give; and the indices of the candidates
        the rows read. ``reads`` are the gate's sign, what each previous state
        and bucket reads, and per candidate the first that is the same node,
        which takes its pins; a row whose pins on one node disagree is left
        out."""
        sign, read, bucket_read, same = reads
        rows = []
        for row in kept or ():
            bucket = row.bucket and format_bucket(row.bucket)
            if bucket is None or bucket in bucket_read:
                rows.append(((sign, read.get(row.prev, _NO_STATE), bucket_read.get(bucket)), row.distribution, label))
        rows += [((None, s, None), {own: 1.0}, "default-persistence") for own, s in read.items()]
        pinned = []  # per row, its pins by candidate index
        for pins, dist, label in rows:
            at = {}
            if all(pin is None or at.setdefault(same[i], pin) == pin for i, pin in enumerate(pins)):
                pinned.append((at, dist, label))
        axes = tuple(sorted({i for at, _dist, _label in pinned for i in at}))
        rows = [(tuple([at.get(i) for i in axes]), dist, label) for at, dist, label in pinned]
        states = [self.states[candidates[i]] for i in axes]
        # a row pinning an unreachable state writes nothing and gives no state
        reachable = [row for row in rows if all(pin is None or pin in axis for pin, axis in zip(row[0], states))]
        support = {state for _pins, dist, _label in reachable for state, prob in dist.items() if prob > 0}
        return FillBlock(tuple(rows), tuple(_ordered(self.schedule.kb.schemas[name], support))), axes

    def _clock_pairs(self):
        """Every (previous, this situation's) clock value pair with the pins
        that give it, making this situation's clock first."""
        self._need([clock_node(self.si.sid)])
        return self._joint([clock_node(self.prev), clock_node(self.si.sid)])

    def _elapsed_node(self, buckets: tuple):
        """This situation's elapsed node for one bucket tiling, made on first use.

        None when every clock pair lands in ``none``, so no row could read it.
        """
        if buckets not in self.elapsed:
            nid = elapsed_node(buckets, self.si.sid)
            if all(_bucket_label(buckets, a, b) == NO_BUCKET for _pins, (a, b) in self._clock_pairs()):
                nid = None
            else:
                self.nodes[nid] = ELAPSED
                self.text[nid] = str(nid)
            self.elapsed[buckets] = nid
        nid = self.elapsed[buckets]
        if nid is not None:
            self._need([nid])
        return nid

    def _elapsed(self, nid: NodeId):
        """The bucket the time since the previous situation falls in: one row per clock pair."""
        buckets = nid.ref[1]
        rows = [FragmentRow(nid, pins, {_bucket_label(buckets, a, b): 1.0}, "elapsed")
                for pins, (a, b) in self._clock_pairs()]
        reached = {label for row in rows for label in row.distribution}
        self.states[nid] = [s for s in [*map(format_bucket, buckets), NO_BUCKET] if s in reached]
        return [("elapsed", rows)]

    def _derived(self, nid: NodeId):
        sid = self.si.sid
        label, ground = self.derived_rows[nid.atom]
        rows = self._read_rows(nid, ground, label)
        support = self._support(rows)
        if not support:
            raise PlanEvalError(f"derived definition for {nid.atom} matches no reachable state at {sid}")
        self.states[nid] = _ordered(self.schedule.kb.schemas[nid.atom.name], support)
        return [("derived", rows)]

    def _selection(self, nid: NodeId):
        group = self.schedule.group_at_boundary(nid.ref[1])
        rows = self._read_rows(nid, group.selector, f"selector {group.boundary}")
        labels = list(group.alternatives)
        uncovered = _Coverage(self.states, rows).open()
        explicit_noop = any(NOOP in row.distribution for row in rows)
        if group.origin == "plain" and (uncovered or explicit_noop) and NOOP not in labels:
            labels.append(NOOP)
        self.states[nid] = labels
        default = group.selected if group.origin == "expansion" else NOOP
        return [("selector", rows),
                ("selector-default", [FragmentRow(nid, {}, {default: 1.0}, f"selector-default {group.boundary}")])]

    def _duration(self, nid: NodeId):
        step = self.schedule.plan.step_by_id(nid.ref[1])
        self.states[nid] = sorted(step.model.duration)
        return [("duration", [FragmentRow(nid, {}, dict(step.model.duration), f"duration {step.id}")])]

    def _relative_end_time(self, nid: NodeId):
        schedule = self.schedule
        spec, _sign = self.si.gate  # the node lives in its split's ``a`` sub-situation
        ce, cl = clock_node(schedule.start_sit(spec.earlier)), clock_node(schedule.start_sit(spec.later))
        rows = []
        for pins, (e_start, e_dur, l_start, l_dur) in self._joint([
                ce, dur_node(spec.earlier.id, schedule.start_sit(spec.earlier)),
                cl, dur_node(spec.later.id, schedule.start_sit(spec.later))]):
            if ce == cl:  # a start clock both steps share cancels, whatever its value
                e_start = l_start = 0
            rows.append(FragmentRow(nid, pins, {_end_sign(l_start, l_dur, e_start, e_dur): 1.0}, "relative-end-time"))
        self.states[nid] = [NEGATIVE, NONNEGATIVE]
        return [("relative-end-time", rows)]

    def _clock(self, nid: NodeId):
        schedule = self.schedule
        sid = self.si.sid
        if self.pos == 0:
            self.states[nid] = [0]
            return [("clock", [FragmentRow(nid, {}, {0: 1.0}, "clock-initial")])]
        cap = schedule.opts.clock_cap
        rows = []
        for step in schedule.enders_at(sid):
            start = schedule.start_sit(step)
            pins = _writer_pins(schedule, step.guards, sid)
            self._need(pins)
            label = f"clock {step.id}"
            if step.id in schedule.dur_steps:
                rows += [FragmentRow(nid, given, {_sum_clock(c, d, cap): 1.0}, label)
                         for given, (c, d) in self._joint([clock_node(start), dur_node(step.id, start)], pins)]
                continue
            for given, (c,) in self._joint([clock_node(start)], pins):
                dist = {}
                for d, p in sorted(step.model.duration.items()):
                    value = _sum_clock(c, d, cap)
                    dist[value] = dist.get(value, 0.0) + p
                rows.append(FragmentRow(nid, given, dist, label))
        coverage = _Coverage(self.states, rows)
        if not coverage.feasible:  # no ender can run, so its rows write nothing
            rows = []
        entries = [("clock", rows)]
        support = dict.fromkeys(value for row in rows for value in row.distribution)
        if coverage.open():  # where no ender runs, the clock keeps its value
            kept = self._joint([clock_node(self.prev)])
            support.update(dict.fromkeys(c for _pins, (c,) in kept))
            entries.append(("clock-identity", [FragmentRow(nid, pins, {c: 1.0}, "clock-identity") for pins, (c,) in kept]))
        self.states[nid] = sorted(support, key=label_sort_key)
        return entries


class _Coverage:
    """The reachable combinations of some rows' condition keys that the
    feasible rows cover: one boolean array, an axis per key of more than one
    state, in which each feasible row sets its slice as a paste does. It
    answers both gap tests of a node, for any combination (``open``) and for
    fillers (``opens``), and raises ``TooLarge`` before any array is made
    when the keys have more than ``MAX_FACTOR_CELLS`` combinations.
    ``feasible`` tells whether any row is.
    """

    def __init__(self, states: dict, rows: list):
        self.states, self.rows, self.feasible = states, rows, False
        if not rows:  # nothing is covered, and no array is needed to say so
            return
        self.keys = dict.fromkeys(key for row in rows for key in row.condition)
        self._guard(self.keys)
        conditions = [row.condition for row in rows if _row_feasible(states, row.condition)]
        self.feasible = bool(conditions)
        self.axes = [key for key in self.keys if len(states.get(key, ())) > 1]
        self.covered = np.zeros([len(states[key]) for key in self.axes], dtype=bool)
        for condition in conditions:
            self.covered[self._at(condition)] = True

    def _guard(self, keys: dict):
        """Raise ``TooLarge`` when ``keys`` have more than ``MAX_FACTOR_CELLS``
        combinations, before any array is made for them."""
        full = math.prod(max(len(self.states.get(key, ())), 1) for key in keys)
        if full > MAX_FACTOR_CELLS:
            raise TooLarge(f"node {self.rows[0].node} reads {full} parent combinations, above {MAX_FACTOR_CELLS}")

    def _at(self, condition: dict) -> tuple:
        """A pinned axis is an index, any other axis a full slice; a pin on a
        key that is not an axis asks for the whole array, which is constant
        along it."""
        return tuple([self.states[key].index(condition[key]) if key in condition else slice(None)
                      for key in self.axes])

    def open(self) -> bool:
        """True when the feasible rows leave any combination open."""
        return not self.rows or np.count_nonzero(self.covered) < self.covered.size

    def opens(self, fillers: list) -> bool:
        """True when a feasible filler (a condition) covers a combination the rows leave open."""
        feasible = [condition for condition in fillers if _row_feasible(self.states, condition)]
        if not self.rows:  # nothing is covered
            return bool(feasible)
        self._guard({**self.keys, **dict.fromkeys(key for condition in fillers for key in condition)})
        return any(np.count_nonzero(slab) < slab.size for slab in [self.covered[self._at(c)] for c in feasible])


def _bucket_label(buckets: tuple, a, b) -> str:
    """The bucket taking the clock gap ``b - a``; NO_BUCKET for OTHER and for gaps no bucket takes."""
    if isinstance(a, int) and isinstance(b, int):
        for bucket in buckets:
            if bucket[0] <= b - a < bucket[1]:
                return format_bucket(bucket)
    return NO_BUCKET


# ---------------------------------------------------------------------------
# timing: the time tree, clock arithmetic, situation splitting
# ---------------------------------------------------------------------------


def _time_forms(schedule: Schedule, signs: dict) -> list:
    """Each situation's event time under one sign per split, as {step id: count} of the durations it sums.

    A situation whose last ender is active adds that step to its start
    situation's form; any other situation copies the form before it.
    """
    forms = [{}]
    for si in schedule.situations[1:]:
        enders = schedule.enders_at(si.sid)
        if enders and (si.gate is None or signs[si.gate[0].ret] == si.gate[1]):
            last = enders[-1]
            forms.append(_plus(forms[schedule.position(schedule.start_sit(last))], last))
        else:
            forms.append(forms[-1])
    return forms


def _plus(form: dict, step: PlanStep) -> dict:
    out = dict(form)
    out[step.id] = out.get(step.id, 0) + 1
    return out


def _difference(plus: dict, minus: dict) -> dict:
    """``plus - minus``; steps on both sides, the shared time ancestry, cancel."""
    diff = dict(plus)
    for step_id, count in minus.items():
        diff[step_id] = diff.get(step_id, 0) - count
    return {step_id: count for step_id, count in diff.items() if count}


def _offsets(durations: dict, diffs: list) -> set:
    """Every joint value of the differences ``diffs`` over independent durations, each in its support.

    One set pass over the steps the differences read, in plan order.
    """
    reached = {(0,) * len(diffs)}
    for step_id, support in durations.items():
        coefs = [diff.get(step_id, 0) for diff in diffs]
        if any(coefs):
            reached = {tuple(v + c * dur for v, c in zip(vec, coefs)) for vec in reached for dur in support}
    return reached


def _scan_time_tree(schedule: Schedule):
    """Exact scan of the time tree, one sign pattern of the splits at a time.

    Returns the first situation whose event time can precede its
    predecessor's (None if none can). The test reads only which offsets have
    positive probability, so no threshold can cause a split.
    """
    durations = {step.id: [d for d, p in sorted(step.model.duration.items()) if p > 0]
                 for step in schedule.plan.steps}
    rets = [spec.ret for spec in schedule.splits]
    conflict = None
    for signs in itertools.product((NEGATIVE, NONNEGATIVE), repeat=len(rets)):
        forms = _time_forms(schedule, dict(zip(rets, signs)))
        ends = [_difference(_plus(forms[schedule.position(schedule.start_sit(spec.later))], spec.later),
                            _plus(forms[schedule.position(schedule.start_sit(spec.earlier))], spec.earlier))
                for spec in schedule.splits]

        def agrees(vec):  # each split's end difference has the pattern's sign
            return all((NEGATIVE if v < 0 else NONNEGATIVE) == sign for v, sign in zip(vec, signs))

        for pos in range(1, conflict or len(forms)):
            gap = _difference(forms[pos], forms[pos - 1])
            if gap and any(vec[-1] < 0 and agrees(vec[:-1]) for vec in _offsets(durations, ends + [gap])):
                conflict = pos
                break
    return conflict


def _end_sign(later_start, later_duration, earlier_start, earlier_duration) -> str:
    """The sign of the later step's end time minus the earlier step's; a start
    clock beyond the cap is treated as arbitrarily late."""
    if later_start == OTHER:
        return NONNEGATIVE
    if earlier_start == OTHER:
        return NEGATIVE
    return NEGATIVE if later_start + later_duration < earlier_start + earlier_duration else NONNEGATIVE


def _sum_clock(clock_value, duration, cap):
    if clock_value == OTHER:
        return OTHER
    value = clock_value + duration
    return OTHER if value > cap else value


def split_situations(schedule: Schedule) -> Schedule:
    """Split the schedule's situations in place until no reachable transition runs backward in time.

    Each split inserts sub-situation ``a`` immediately before the earlier
    situation it conflicts with and renames the original to ``b``; a
    relative-end-time node gates which sub-situation the step's effects
    land on. Iterates to a fixed point, capped by the number of
    overlapping step pairs, and returns the same schedule.

    Each round scans the time tree (``_scan_time_tree``): per sign pattern
    of the splits so far, event times are sums of durations along time
    parents, and steps shared by both sides of a difference cancel. A round
    costs polynomial time in the steps and is exponential only in the
    number of splits.
    """
    if not schedule.timed:
        return schedule
    cap = _overlapping_pairs(schedule)
    while True:
        conflict_pos = _scan_time_tree(schedule)
        if conflict_pos is None:
            return schedule
        if len(schedule.splits) >= cap:
            raise PlanEvalError("situation splitting did not reach a fixed point within the overlap cap")
        _apply_split(schedule, conflict_pos)


def _overlapping_pairs(schedule: Schedule) -> int:
    spans = []
    for step in schedule.plan.steps:
        spans.append((schedule.position(schedule.start_sit(step)), schedule.end_pos(step)))
    count = 0
    for i in range(len(spans)):
        for j in range(i + 1, len(spans)):
            a, b = spans[i], spans[j]
            if a[0] < b[1] and b[0] < a[1] and not (a[0] == b[0] and a[1] == b[1]):
                count += 1
    return count


def _apply_split(schedule: Schedule, conflict_pos: int):
    """Split the situation at ``conflict_pos`` into gated sub-situations, in place."""
    situations = schedule.situations
    target = situations[conflict_pos]
    if target.gate is not None:
        raise PlanEvalError(f"situation {target.sid} would need a second split; unsupported")
    enders = schedule.enders_at(target.sid)
    if not enders:
        raise PlanEvalError(f"conflict at {target.sid} without an ending step")
    later = enders[-1]

    # The time being preceded belongs to the nearest earlier situation that
    # actually hosts an end event.
    earlier_pos = conflict_pos - 1
    earlier_step = None
    while earlier_pos > 0:
        cands = schedule.enders_at(situations[earlier_pos].sid)
        if cands:
            earlier_step = cands[-1]
            break
        earlier_pos -= 1
    if earlier_step is None:
        raise PlanEvalError(f"conflict at {target.sid} has no earlier end event")

    spec = SplitSpec(earlier=earlier_step, later=later, index=target.sid.index)
    sit_a = SitInfo(SituationId(target.sid.index, "a"), target.boundary, gate=(spec, NEGATIVE))
    sit_b = SitInfo(SituationId(target.sid.index, "b"), target.boundary, gate=(spec, NONNEGATIVE))
    schedule.situations = (situations[:earlier_pos] + [sit_a] + situations[earlier_pos:conflict_pos]
                           + [sit_b] + situations[conflict_pos + 1:])
    schedule.splits.append(spec)
    schedule._refresh()


# ---------------------------------------------------------------------------
# construction stages: each replays the rows the sweep recorded
# ---------------------------------------------------------------------------


def _paste(schedule: Schedule, net: PENet, *kinds: str) -> PENet:
    """Paste every recorded row of the given kinds in one pass: one paste-onto
    call with the onto rows, then one paste-into call with the fill rows, each
    in sweep order, so the rows each combination keeps are those ``_relabel`` reads."""
    onto, fills = [], []
    for entries in schedule.rows.values():
        for kind, rows in entries:
            if kind in kinds:
                (fills if kind in _FILLS else onto).extend(rows)
    if onto:
        paste_onto(net, Fragment(rows=onto))
    if fills:
        paste_into(net, Fragment(rows=fills))
    return net


def merge_contingent(schedule: Schedule, net: PENet) -> PENet:
    """Write every contingency group's action-selection node into the net,
    and set ``net.selected_path``: each expansion selection, at its
    planner-chosen label, whose guards are all expansion selections at
    theirs."""
    _paste(schedule, net, "selector", "selector-default")
    chosen = {sel_node(group.boundary, schedule.sit_of_boundary(group.boundary)): group
              for group in schedule.plan.contingencies if group.origin == "expansion"}
    net.selected_path = tuple(
        (nid, group.selected) for nid, group in chosen.items()
        if all(sel in chosen and chosen[sel].selected == label
               for sel, label in _guard_pins(schedule, group.guards).items()))
    return net


def attach_during(schedule: Schedule, net: PENet) -> PENet:
    """Paste every step's during effects onto its intermediate situations."""
    return _paste(schedule, net, "during")


def add_clock(schedule: Schedule, net: PENet) -> PENet:
    """Duration, relative-end-time, clock and elapsed-bucket rows."""
    return _paste(schedule, net, "duration", "relative-end-time", "clock", "clock-identity", "elapsed")


def complete_with_persistence(schedule: Schedule, net: PENet) -> PENet:
    """Fill every gap with KB persistence, then no-change defaults: write
    each fill block's rows once, then copy them, repeated along a node's
    other parents, into the rows no earlier stage wrote, with one masked
    copy per array. That is what paste-into of the block's rows writes."""
    return net._fill(schedule.fills.values())


def _forward_build(schedule: Schedule) -> PENet:
    """Sweep the schedule, create every node with its states and parents, paste the forward rows."""
    schedule.analyse()
    net = PENet(situation_order=[si.sid for si in schedule.situations])
    net.aliases = schedule.aliases
    for spec in schedule.nodes.values():
        net.ensure_node(spec)
    _paste(schedule, net, "initial", "action", "derived", "residual")
    merge_contingent(schedule, net)
    attach_during(schedule, net)
    return add_clock(schedule, net)


def make_schedule(plan: Plan, kb: KnowledgeBase, opts: BuildOptions, boundary_order: list) -> Schedule:
    return Schedule(plan, kb, opts, boundary_order)


def build_pe_net(plan: Plan, kb: KnowledgeBase, opts: BuildOptions = None) -> PENet:
    """Run the whole pipeline; returns a finalized, immutable net."""
    opts = opts or BuildOptions()
    opts.check()

    def stage(name, fn, *args):
        try:
            return fn(*args)
        except PlanEvalError as err:
            raise BuildError(name, err) from err

    diagnostics = validate_kb(kb)
    if diagnostics:
        summary = "; ".join(d.message for d in diagnostics[:3])
        raise BuildError("validate-kb", PlanEvalError(f"{len(diagnostics)} diagnostics: {summary}"))

    flat = stage("flatten", flatten_hierarchy, plan)
    order = stage("linearize", linearize, flat, opts.tie_break)
    schedule = stage("schedule", make_schedule, flat, kb, opts, order)
    schedule = stage("split", split_situations, schedule)
    net = stage("forward", _forward_build, schedule)
    net = stage("persistence", complete_with_persistence, schedule, net)
    net = stage("finalize", finalize, net)
    return net
