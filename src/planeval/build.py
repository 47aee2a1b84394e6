"""Construction pipeline: compile (plan, knowledge base, options) into a finalized PE-net.

The pipeline runs in a fixed order, and paste order is meaningful:

1. flatten the hierarchy and normalize guards,
2. linearize the interlock partial order,
3. derive the situation schedule,
4. split situations until no reachable negative elapsed time remains (this
   reads the schedule alone),
5. sweep the situations once (``Schedule.analyse``): make each node's rows
   in paste order, and take from them its states, parents and rough marginal,
6. create the nodes, then paste the forward rows: priors and action
   fragments (paste-onto), residual effects (paste-into), contingency
   selection nodes, during effects, clock machinery,
7. knowledge-base persistence then default no-change rows (both paste-into),
8. derived-predicate rows (paste-onto), then finalize.

No stage after the sweep makes a row: each replays what the sweep recorded.

Everything here is deterministic: rebuilding from identical inputs yields a
byte-identical net.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    ArityMismatch,
    BuildError,
    LayeringViolation,
    MissingDuration,
    PlanEvalError,
    UnknownConditionNode,
)
from .model import (
    OTHER,
    GroundAtom,
    KnowledgeBase,
    SelRef,
    instantiate,
    instantiate_row,
    label_sort_key,
    substitute_label,
    validate_kb,
)
from .net import (
    CLOCK,
    DERIVED,
    KIND_RANK,
    PRIMITIVE,
    RELATIVE_END_TIME,
    SELECTION,
    Fragment,
    FragmentNode,
    FragmentRow,
    NodeId,
    PENet,
    SituationId,
    atom_node,
    clock_node,
    dur_node,
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


@dataclass
class BuildOptions:
    during_failure_semantics: str = GATE_EFFECT_ONLY
    clock_enabled: bool = False
    clock_cap: int = 64  # clock values above this collapse into OTHER
    state_cap: int = 32  # per-node state-count cap before OTHER compaction
    tie_break: object = None  # linearization key; None = (agent, step index)

    def check(self):
        if self.during_failure_semantics not in (GATE_EFFECT_ONLY, NULLIFY_ACTION):
            raise PlanEvalError(f"unknown during-failure semantics {self.during_failure_semantics!r}")
        if self.clock_cap < 2 or self.state_cap < 2:
            raise PlanEvalError("state and clock caps must be at least 2")


@dataclass
class SitInfo:
    sid: SituationId
    boundary: str
    # Split sub-situations are active only for one sign of their
    # relative-end-time node; everything in them is identity otherwise.
    gate: tuple = None  # (ret NodeId, required sign)


@dataclass
class SplitSpec:
    earlier: PlanStep  # the step whose end situation the later step may precede
    later: PlanStep
    boundary: str
    index: int

    @property
    def ret(self) -> NodeId:
        return ret_node(self.earlier.id, self.later.id, SituationId(self.index, "a"))


@dataclass
class SelectionRecord:
    node: NodeId
    selected: str
    origin: str
    guards: tuple  # ((sel NodeId, label), ...)


class Schedule:
    """The linearized situation plan driving construction (the pipeline's spine)."""

    def __init__(self, plan: Plan, kb: KnowledgeBase, opts: BuildOptions, boundary_order: list,
                 situations: list = None, splits: list = None, dur_steps: set = None):
        self.plan = plan
        self.kb = kb
        self.opts = opts
        self.boundary_order = list(boundary_order) or ["start"]  # an empty plan still has S0
        self.situations = situations or [
            SitInfo(SituationId(i), b) for i, b in enumerate(self.boundary_order)
        ]
        self.splits = splits or []
        self.dur_steps = dur_steps or set()
        self.sign_mass = {}  # ret NodeId -> {sign: weight}, set by split_situations
        self._refresh()
        if situations is None:
            self._collect_universe()
            self._validate()

    # -- layout ----------------------------------------------------------

    def _refresh(self):
        """Index positions, and each situation's ending steps, residuals and spanning steps."""
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

    def end_entries(self, step: PlanStep) -> list:
        """(situation, activity sign) pairs where the step's consequences land."""
        out = []
        for si in self.situations:
            if si.boundary == step.end:
                out.append((si.sid, si.gate[1] if si.gate else None))
        return out

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
        entries = self.end_entries(step)
        hi = min(self._pos[sid] for sid, _sign in entries)
        return [si.sid for si in self.situations[lo + 1:hi]]

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
                raise BuildError("schedule", PlanEvalError(f"{atom} references undeclared predicate"))
            if not atom.is_ground:
                raise BuildError("schedule", PlanEvalError(f"{atom} is not ground"))
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
            for pattern in step.model.predecessors:
                add(instantiate(pattern, bindings))
            for pattern, rows in step.model.consequences:
                add(instantiate(pattern, bindings))
                for row in rows:
                    for key in row.condition:
                        if isinstance(key, GroundAtom):
                            add(instantiate(key, bindings))
            for cond in step.model.during_conditions:
                add(instantiate(cond.atom, bindings))
            for pattern, rows in step.model.during_effects:
                add(instantiate(pattern, bindings))
                for row in rows:
                    for key in row.condition:
                        if isinstance(key, GroundAtom):
                            add(instantiate(key, bindings))
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
                raise BuildError("schedule", PlanEvalError(f"no derived definition matches {datom}"))
            definition, bindings = found
            for parent in definition.parents:
                add(instantiate(parent, bindings))

        self.atoms = sorted(prims, key=GroundAtom.sort_key)
        self.derived_atoms = sorted(derived, key=GroundAtom.sort_key)

    def _validate(self):
        seen_boundaries = set()
        claimed = {}
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
                if claimed.setdefault(alt, group.boundary) != group.boundary:
                    raise PlanEvalError(f"step {alt} appears in two contingency groups")
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

        Fills ``kinds`` (nid -> node kind, parents before children),
        ``states``, ``parents`` and ``rows`` (nid -> [(kind, source, rows)]
        in paste order), which the paste stages replay unchanged.
        """
        self.kinds, self.states, self.parents, self.rows = {}, {}, {}, {}
        _Sweep(self).run()
        return self.states


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


def _gate_pin(schedule: Schedule, sid: SituationId) -> dict:
    info = schedule.situations[schedule.position(sid)]
    if info.gate is None:
        return {}
    ret, sign = info.gate
    return {ret: sign}


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


def _fragment_rows(schedule: Schedule, target: NodeId, pins: dict, ground_rows, read_sit, provenance: str) -> list:
    """Ground model rows for ``target``: the pins plus each row's conditions read at ``read_sit``."""
    rows = []
    for row in ground_rows:
        condition = dict(pins)
        for key, state in row.condition.items():
            condition[_resolve_key(schedule, key, read_sit)] = state
        rows.append(FragmentRow(target, condition, dict(row.distribution), provenance))
    return rows


def _ender_rows(schedule: Schedule, step: PlanStep, sid: SituationId) -> list:
    """Fragment rows for one step's consequences landing at one end situation."""
    rows = []
    bindings = step.bindings
    start = schedule.start_sit(step)
    base_pins = _guard_pins(schedule, step.guards)
    base_pins.update(_gate_pin(schedule, sid))
    for pattern, model_rows in step.model.consequences:
        consequence = instantiate(pattern, bindings)
        pins = dict(base_pins)
        pins.update(_during_gate_pins(schedule, step, consequence))
        ground = (instantiate_row(row, bindings) for row in model_rows)
        rows += _fragment_rows(schedule, atom_node(consequence, sid), pins, ground, start, f"action {step.id}")
    return rows


def _residual_rows(schedule: Schedule, res, sid: SituationId) -> list:
    pins = _guard_pins(schedule, res.guards)
    pins.update(_gate_pin(schedule, sid))
    start = schedule.sit_of_boundary(res.start)
    return _fragment_rows(schedule, atom_node(res.atom, sid), pins, res.rows, start, f"residual {res.source}")


def _during_rows(schedule: Schedule, step: PlanStep, sid: SituationId) -> list:
    """During-effect rows at one intermediate situation; conditions read the previous situation."""
    rows = []
    bindings = step.bindings
    prev = schedule.situations[schedule.position(sid) - 1].sid
    pins = _guard_pins(schedule, step.guards)
    pins.update(_gate_pin(schedule, sid))
    for pattern, model_rows in step.model.during_effects:
        target = atom_node(instantiate(pattern, bindings), sid)
        ground = (instantiate_row(row, bindings) for row in model_rows)
        rows += _fragment_rows(schedule, target, pins, ground, prev, f"during {step.id}")
    return rows


def _selector_rows(schedule: Schedule, group) -> tuple:
    sid = schedule.sit_of_boundary(group.boundary)
    target = sel_node(group.boundary, sid)
    rows = _fragment_rows(schedule, target, {}, group.selector, sid, f"selector {group.boundary}")
    default = group.selected if group.origin == "expansion" else NOOP
    default_row = FragmentRow(target, {}, {default: 1.0}, f"selector-default {group.boundary}")
    return rows, default_row


def _situation_rows(schedule: Schedule, sid: SituationId) -> list:
    """(kind, source, rows) for everything writing one situation, in paste order.

    Kind is "action" for ending steps, then "residual", then "during" for
    spanning steps; source is the step or residual effect.
    """
    return ([("action", step, _ender_rows(schedule, step, sid)) for step in schedule.enders_at(sid)]
            + [("residual", res, _residual_rows(schedule, res, sid)) for res in schedule.residuals_at(sid)]
            + [("during", step, _during_rows(schedule, step, sid)) for step in schedule.spanners_at(sid)])


def _rows_by_target(entries: list) -> dict:
    """Regroup (kind, source, rows) entries under each node the rows write."""
    by_target = {}
    for kind, source, rows in entries:
        for row in rows:
            writers = by_target.setdefault(row.node, [])
            if not writers or writers[-1][1] is not source:
                writers.append((kind, source, []))
            writers[-1][2].append(row)
    return by_target


# ---------------------------------------------------------------------------
# the situation sweep: each node's rows, and from them its states, parents
# and rough marginal
# ---------------------------------------------------------------------------

# Row kinds pasted into the net (gaps only); every other kind is pasted onto it.
_FILLS = frozenset({"residual", "selector-default", "clock-identity", "persistence", "default-persistence"})


def _row_feasible(states: dict, condition: dict) -> bool:
    for nid, state in condition.items():
        if state not in states.get(nid, ()):
            return False
    return True


def _combo_weight(approx: dict, condition: dict) -> float:
    weight = 1.0
    for nid, state in condition.items():
        weight *= approx.get(nid, {}).get(state, 0.0)
    return weight


def _absorb(mass: dict, dist: dict, weight: float):
    for state, prob in dist.items():
        if prob > 0:
            mass[state] = mass.get(state, 0.0) + weight * prob


def _normalized(mass: dict, states: list) -> dict:
    total = sum(mass.values()) or 1.0
    return {s: mass.get(s, 0.0) / total for s in states}


def _ordered(schema, support) -> list:
    """Support states in schema order, then any others by label."""
    ordered = [s for s in schema.states if s in support]
    return ordered + [s for s in sorted(support, key=label_sort_key) if s not in ordered]


def _keys(rows) -> list:
    return [key for row in rows for key in row.condition]


def _situation_nodes(schedule: Schedule, si: SitInfo) -> dict:
    """nid -> kind for every node living in one situation."""
    sid = si.sid
    nodes = {}
    if schedule.timed:
        for step in schedule.plan.steps:
            if step.id in schedule.dur_steps and schedule.start_sit(step) == sid:
                nodes[dur_node(step.id, sid)] = CLOCK
        for spec in schedule.splits:
            if spec.ret.sit == sid:
                nodes[spec.ret] = RELATIVE_END_TIME
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
    known before the effects it gates. Each maker returns the node's
    (kind, source, rows) entries plus any parents its rows leave unread and
    sets its states; atoms, derived and selection nodes also get a rough
    marginal that treats parents as independent and only ranks states for
    OTHER compaction.
    """

    def __init__(self, schedule: Schedule):
        self.schedule = schedule
        self.states, self.approx = schedule.states, {}
        self.makers = {PRIMITIVE: self._primitive, DERIVED: self._derived, "sel": self._selection,
                       "dur": self._duration, "ret": self._relative_end_time, "clock": self._clock}

    def run(self):
        for pos, si in enumerate(self.schedule.situations):
            self.pos, self.si = pos, si
            self.prev = self.schedule.situations[pos - 1].sid if pos else None
            self.nodes = _situation_nodes(self.schedule, si)
            self.writers = _rows_by_target(_situation_rows(self.schedule, si.sid)) if pos else {}
            self.active = set()
            for nid in sorted(self.nodes, key=lambda n: (KIND_RANK[self.nodes[n]], str(n))):
                self._visit(nid)

    def _visit(self, nid: NodeId):
        schedule = self.schedule
        if nid in schedule.kinds:
            return
        if nid in self.active:
            raise PlanEvalError(f"paste created a cycle through {nid}")
        self.active.add(nid)
        kind = self.nodes[nid]
        entries, unread = self.makers[kind if nid.ref[0] == "atom" else nid.ref[0]](nid)
        parents = dict.fromkeys(key for _kind, _source, rows in entries for key in _keys(rows))
        parents.update(dict.fromkeys(unread))
        self._need(parents)
        schedule.kinds[nid] = kind
        schedule.rows[nid] = entries
        schedule.parents[nid] = list(parents)

    def _mass(self, rows) -> dict:
        """Unnormalized state mass of the feasible rows, parents taken as independent."""
        mass = {}
        for row in rows:
            if _row_feasible(self.states, row.condition):
                _absorb(mass, row.distribution, max(_combo_weight(self.approx, row.condition), 1e-12))
        return mass

    def _need(self, keys):
        """Make every same-situation node among ``keys`` first."""
        for key in keys:
            if key in self.nodes:
                self._visit(key)

    # -- makers ------------------------------------------------------------

    def _primitive(self, nid: NodeId):
        schedule = self.schedule
        atom = nid.atom
        schema = schedule.kb.schemas[atom.name]
        if self.pos == 0:
            prior = schedule.plan.initial.get(atom) or {schema.states[0]: 1.0}
            self.states[nid] = [s for s in prior if prior[s] > 0]
            self.approx[nid] = {s: p for s, p in prior.items() if p > 0}
            return [("initial", None, [FragmentRow(nid, {}, dict(prior), "initial")])], ()

        writers = self.writers.get(nid, [])
        written = [row for _kind, _source, rows in writers for row in rows]
        read = _keys(written)
        self._need(read)
        mass = self._mass(written)

        prev_nid = atom_node(atom, self.prev)
        covered = _fully_covered(self.states, writers, self.si)
        entries, unread = list(writers), []
        # A covered node whose action reads the previous state still carries
        # the persistence rows: they fill nothing, but their keys are parents.
        if not covered or prev_nid in read:
            entries += self._persistence(atom, nid, prev_nid)
        if not covered:
            model = schedule.kb.persistence.get(atom.name)
            if model is not None and model.buckets is not None and schedule.timed:
                unread = [clock_node(self.prev), clock_node(self.si.sid)]
            # Each previous state spreads its mass evenly over what persistence
            # and the no-change default can make of it. Only the previous-state
            # pin can be infeasible, and rows of unreachable states go unread.
            by_prev = {}
            for _kind, _source, rows in entries[len(writers):]:
                for row in rows:
                    by_prev.setdefault(row.condition[prev_nid], {}).update(
                        dict.fromkeys(s for s, p in row.distribution.items() if p > 0))
            for prev_state in self.states[prev_nid]:
                support = by_prev[prev_state]
                _absorb(mass, {s: 1.0 / len(support) for s in support},
                        self.approx[prev_nid].get(prev_state, 0.0))

        ordered = _ordered(schema, mass)
        margin = _normalized(mass, ordered)
        if len(ordered) > schedule.opts.state_cap:
            ordered, margin = _compact(ordered, margin, schedule.opts.state_cap)
        self.states[nid] = ordered
        self.approx[nid] = margin
        return entries, unread

    def _persistence(self, atom: GroundAtom, nid: NodeId, prev_nid: NodeId) -> list:
        """KB persistence rows (elapsed-time rows read both clocks), then no-change defaults."""
        schedule = self.schedule
        entries = []
        model = schedule.kb.persistence.get(atom.name)
        if model is not None:
            rows = []
            cprev, cthis = clock_node(self.prev), clock_node(self.si.sid)
            for row in model.rows:
                condition = _gate_pin(schedule, self.si.sid)
                condition[prev_nid] = row.prev
                provenance = f"persistence {model.atom}"
                if row.bucket is None:
                    rows.append(FragmentRow(nid, condition, dict(row.distribution), provenance))
                elif schedule.timed:  # elapsed-conditioned rows need a clock
                    self._need([cthis])
                    lo, hi = row.bucket
                    for a in self.states[cprev]:
                        for b in self.states[cthis]:
                            if isinstance(a, int) and isinstance(b, int) and lo <= b - a < hi:
                                rows.append(FragmentRow(
                                    nid, {**condition, cprev: a, cthis: b}, dict(row.distribution), provenance))
            entries.append(("persistence", model, rows))
        entries.append(("default-persistence", None, [
            FragmentRow(nid, {prev_nid: s}, {s: 1.0}, "default-persistence") for s in self.states[prev_nid]
        ]))
        return entries

    def _derived(self, nid: NodeId):
        schedule = self.schedule
        sid = self.si.sid
        definition, bindings = schedule.kb.find_derived(nid.atom)
        declared = [atom_node(instantiate(p, bindings), sid) for p in definition.parents]
        rows = []
        for row in definition.rows:
            ground = instantiate_row(row, bindings)
            condition = {atom_node(key, sid): state for key, state in ground.condition.items()}
            rows.append(FragmentRow(nid, condition, dict(ground.distribution), f"derived {definition.atom}"))
        self._need(declared + _keys(rows))
        mass = self._mass(rows)
        if not mass:
            raise BuildError("enumerate", PlanEvalError(
                f"derived definition for {nid.atom} matches no reachable state at {sid}"))
        self.states[nid] = _ordered(schedule.kb.schemas[nid.atom.name], mass)
        self.approx[nid] = _normalized(mass, self.states[nid])
        return [("derived", None, rows)], declared

    def _selection(self, nid: NodeId):
        group = self.schedule.group_at_boundary(nid.ref[1])
        rows, default_row = _selector_rows(self.schedule, group)
        self._need(_keys(rows))
        labels = list(group.alternatives)
        uncovered = not _covers_reachable(self.states, rows)
        explicit_noop = any(NOOP in row.distribution for row in rows)
        if group.origin == "plain" and (uncovered or explicit_noop) and NOOP not in labels:
            labels.append(NOOP)
        self.states[nid] = labels
        mass = {}
        covered_weight = 0.0
        for row in rows:
            if not _row_feasible(self.states, row.condition):
                continue
            weight = max(_combo_weight(self.approx, row.condition), 1e-12)
            covered_weight += weight
            for label, prob in row.distribution.items():
                mass[label] = mass.get(label, 0.0) + weight * prob
        default_label = next(iter(default_row.distribution))
        mass[default_label] = mass.get(default_label, 0.0) + max(1.0 - covered_weight, 0.0)
        self.approx[nid] = _normalized(mass, labels)
        return [("selector", group, rows), ("selector-default", group, [default_row])], ()

    def _duration(self, nid: NodeId):
        step = self.schedule.plan.step_by_id(nid.ref[1])
        self.states[nid] = sorted(step.model.duration)
        return [("duration", None, [FragmentRow(nid, {}, dict(step.model.duration), f"duration {step.id}")])], ()

    def _relative_end_time(self, nid: NodeId):
        schedule = self.schedule
        spec = next(sp for sp in schedule.splits if sp.ret == nid)
        ce = clock_node(schedule.start_sit(spec.earlier))
        de = dur_node(spec.earlier.id, schedule.start_sit(spec.earlier))
        cl = clock_node(schedule.start_sit(spec.later))
        dl = dur_node(spec.later.id, schedule.start_sit(spec.later))
        keys = list(dict.fromkeys((ce, de, cl, dl)))
        rows = []
        for combo in itertools.product(*(self.states[k] for k in keys)):
            values = dict(zip(keys, combo))
            sign = _compare_ends(_end_time(values[cl], values[dl]), _end_time(values[ce], values[de]))
            rows.append(FragmentRow(nid, values, {sign: 1.0}, "relative-end-time"))
        self.states[nid] = [NEGATIVE, NONNEGATIVE]
        self.approx[nid] = schedule.sign_mass[nid]
        return [("relative-end-time", None, rows)], ()

    def _clock(self, nid: NodeId):
        schedule = self.schedule
        sid = self.si.sid
        if self.pos == 0:
            self.states[nid] = [0]
            return [("clock", None, [FragmentRow(nid, {}, {0: 1.0}, "clock-initial")])], ()
        cap = schedule.opts.clock_cap
        rows = []
        enders = schedule.enders_at(sid)
        for step in enders:
            start_clock = clock_node(schedule.start_sit(step))
            pins = _gate_pin(schedule, sid)
            pins.update(_guard_pins(schedule, step.guards))
            self._need(pins)
            if step.id in schedule.dur_steps:
                dnode = dur_node(step.id, schedule.start_sit(step))
                for c in self.states[start_clock]:
                    for d in self.states[dnode]:
                        rows.append(FragmentRow(
                            nid, {**pins, start_clock: c, dnode: d}, {_sum_clock(c, d, cap): 1.0}, f"clock {step.id}"))
            else:
                for c in self.states[start_clock]:
                    dist = {}
                    for d, p in sorted(step.model.duration.items()):
                        value = _sum_clock(c, d, cap)
                        dist[value] = dist.get(value, 0.0) + p
                    rows.append(FragmentRow(nid, {**pins, start_clock: c}, dist, f"clock {step.id}"))
        prev_nid = clock_node(self.prev)
        support = dict.fromkeys(value for row in rows for value in row.distribution)
        # Unless every ender runs unconditionally, the clock may keep its value.
        if not (enders and self.si.gate is None and all(not step.guards for step in enders)):
            support.update(dict.fromkeys(self.states[prev_nid]))
        self.states[nid] = sorted(support, key=label_sort_key)
        identity = [FragmentRow(nid, {prev_nid: c}, {c: 1.0}, "clock-identity") for c in self.states[prev_nid]]
        return [("clock", None, rows), ("clock-identity", None, identity)], ()


def _covers_reachable(states: dict, rows: list) -> bool:
    """True when the feasible rows cover every reachable combination of their condition keys."""
    keys = sorted({key for row in rows for key in row.condition}, key=str)
    covered = set()
    for row in rows:
        if not _row_feasible(states, row.condition):
            continue
        expansion = [
            (row.condition[key],) if key in row.condition else tuple(states.get(key, ()))
            for key in keys
        ]
        covered.update(itertools.product(*expansion))
    full = 1
    for key in keys:
        full *= max(len(states.get(key, ())), 1)
    return len(covered) == full


def _fully_covered(states: dict, writers: list, si: SitInfo) -> bool:
    """True when one action's rows alone cover every reachable predecessor combination.

    Conservative: any guard, gate, residual, or during effect forces the
    persistence rows.
    """
    if si.gate is not None or len(writers) != 1:
        return False
    kind, step, rows = writers[0]
    if kind != "action" or step.guards or step.model.during_conditions:
        return False
    return _covers_reachable(states, rows)


def _compact(ordered: list, margin: dict, cap: int):
    """Absorb the lowest-mass states into OTHER until the domain fits the cap."""
    if OTHER in ordered:
        kept = [s for s in ordered if s != OTHER]
        absorbed_mass = margin.get(OTHER, 0.0)
    else:
        kept = list(ordered)
        absorbed_mass = 0.0
    overflow = len(kept) + 1 - cap
    ranked = sorted(kept, key=lambda s: (margin.get(s, 0.0), label_sort_key(s)))
    absorbed = set(ranked[:overflow])
    kept = [s for s in kept if s not in absorbed]
    absorbed_mass += sum(margin.get(s, 0.0) for s in absorbed)
    new_states = kept + [OTHER]
    new_margin = {s: margin.get(s, 0.0) for s in kept}
    new_margin[OTHER] = absorbed_mass
    return new_states, new_margin


# ---------------------------------------------------------------------------
# timing: duration worlds, clock arithmetic, situation splitting
# ---------------------------------------------------------------------------


def _duration_worlds(schedule: Schedule):
    """All joint duration assignments with their probabilities (deterministic order)."""
    steps = [s for s in schedule.plan.steps if s.model.duration is not None]
    pools = [sorted(s.model.duration.items()) for s in steps]
    for combo in itertools.product(*pools):
        weight = 1.0
        assignment = {}
        for step, (dur, prob) in zip(steps, combo):
            assignment[step.id] = dur
            weight *= prob
        yield assignment, weight


def _world_times(schedule: Schedule, assignment: dict) -> list:
    """Per-situation event times for one duration world (guarded steps assumed run)."""
    times = [0]
    for si in schedule.situations[1:]:
        enders = schedule.enders_at(si.sid)
        if si.gate is not None:
            ret, sign = si.gate
            spec = next(sp for sp in schedule.splits if sp.ret == ret)
            if _end_sign(schedule, spec, times, assignment) != sign:
                enders = []  # the sub-situation is inactive in this world
        if enders:
            last = enders[-1]
            times.append(times[schedule.position(schedule.start_sit(last))] + assignment[last.id])
        else:
            times.append(times[-1])
    return times


def _end_sign(schedule: Schedule, spec: SplitSpec, times: list, assignment: dict) -> str:
    """Sign of the later step's end time minus the earlier step's, in one duration world."""
    end_later = times[schedule.position(schedule.start_sit(spec.later))] + assignment[spec.later.id]
    end_earlier = times[schedule.position(schedule.start_sit(spec.earlier))] + assignment[spec.earlier.id]
    return _compare_ends(end_later, end_earlier)


def _scan_worlds(schedule: Schedule):
    """One pass over the duration worlds of positive weight.

    Returns the first situation whose event time can precede its
    predecessor's (None if none can), and each split's weight mass per sign
    of its relative-end-time node.
    """
    conflict = None
    mass = {spec.ret: {NEGATIVE: 0.0, NONNEGATIVE: 0.0} for spec in schedule.splits}
    for assignment, weight in _duration_worlds(schedule):
        if weight <= 0:
            continue
        times = _world_times(schedule, assignment)
        for pos in range(1, len(times)):
            if times[pos] < times[pos - 1]:
                if conflict is None or pos < conflict:
                    conflict = pos
                break
        for spec in schedule.splits:
            mass[spec.ret][_end_sign(schedule, spec, times, assignment)] += weight
    return conflict, mass


def _end_time(clock_value, duration):
    if clock_value == OTHER:
        return None  # beyond the cap: treated as arbitrarily late
    return clock_value + duration


def _compare_ends(end_later, end_earlier) -> str:
    if end_later is None:
        return NONNEGATIVE
    if end_earlier is None:
        return NEGATIVE
    return NEGATIVE if end_later < end_earlier else NONNEGATIVE


def _sum_clock(clock_value, duration, cap):
    if clock_value == OTHER:
        return OTHER
    value = clock_value + duration
    return OTHER if value > cap else value


def split_situations(schedule: Schedule) -> Schedule:
    """Split situations until no reachable transition runs backward in time.

    Each split inserts sub-situation ``a`` immediately before the earlier
    situation it conflicts with and renames the original to ``b``; a
    relative-end-time node gates which sub-situation the step's effects
    land on. Iterates to a fixed point, capped by the number of
    overlapping step pairs, and returns the split schedule with each split's
    sign mass in ``sign_mass``.
    """
    if not schedule.timed:
        return schedule
    cap = _overlapping_pairs(schedule)
    while True:
        conflict_pos, schedule.sign_mass = _scan_worlds(schedule)
        if conflict_pos is None:
            return schedule
        if len(schedule.splits) >= cap:
            raise PlanEvalError("situation splitting did not reach a fixed point within the overlap cap")
        schedule = _apply_split(schedule, conflict_pos)


def _overlapping_pairs(schedule: Schedule) -> int:
    spans = []
    for step in schedule.plan.steps:
        spans.append((schedule.position(schedule.start_sit(step)),
                      min(schedule.position(s) for s, _ in schedule.end_entries(step))))
    count = 0
    for i in range(len(spans)):
        for j in range(i + 1, len(spans)):
            a, b = spans[i], spans[j]
            if a[0] < b[1] and b[0] < a[1] and not (a[0] == b[0] and a[1] == b[1]):
                count += 1
    return count


def _apply_split(schedule: Schedule, conflict_pos: int) -> Schedule:
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

    spec = SplitSpec(earlier=earlier_step, later=later, boundary=target.boundary, index=target.sid.index)
    sid_a = SituationId(target.sid.index, "a")
    sid_b = SituationId(target.sid.index, "b")
    new_situations = []
    for pos, si in enumerate(situations):
        if pos == earlier_pos:
            new_situations.append(SitInfo(sid_a, target.boundary, gate=(spec.ret, NEGATIVE)))
        if pos == conflict_pos:
            new_situations.append(SitInfo(sid_b, target.boundary, gate=(spec.ret, NONNEGATIVE)))
        else:
            new_situations.append(si)
    dur_steps = set(schedule.dur_steps) | {earlier_step.id, later.id}
    out = Schedule(schedule.plan, schedule.kb, schedule.opts, schedule.boundary_order,
                   situations=new_situations, splits=schedule.splits + [spec], dur_steps=dur_steps)
    out.atoms = schedule.atoms
    out.derived_atoms = schedule.derived_atoms
    return out


# ---------------------------------------------------------------------------
# construction stages: each replays the rows the sweep recorded
# ---------------------------------------------------------------------------


def _paste(schedule: Schedule, net: PENet, kind: str, source=None) -> PENet:
    """Paste every recorded row of one kind (of one source, if given) in sweep order."""
    rows = [row for entries in schedule.rows.values() for entry_kind, src, src_rows in entries
            if entry_kind == kind and (source is None or src is source) for row in src_rows]
    if rows:
        (paste_into if kind in _FILLS else paste_onto)(net, Fragment(rows=rows))
    return net


def merge_contingent(group, schedule: Schedule, net: PENet) -> PENet:
    """Write one contingency group's action-selection node into the net."""
    _paste(schedule, net, "selector", group)
    _paste(schedule, net, "selector-default", group)
    net.selection_records.append(SelectionRecord(
        node=sel_node(group.boundary, schedule.sit_of_boundary(group.boundary)),
        selected=group.selected,
        origin=group.origin,
        guards=tuple((_resolve_key(schedule, sel, None), label) for sel, label in group.guards),
    ))
    return net


def attach_during(step: PlanStep, schedule: Schedule, net: PENet) -> PENet:
    """Paste one step's during effects onto each of its intermediate situations."""
    return _paste(schedule, net, "during", step)


def add_clock(schedule: Schedule, net: PENet) -> PENet:
    """Duration, relative-end-time and clock rows."""
    for kind in ("duration", "relative-end-time", "clock", "clock-identity"):
        _paste(schedule, net, kind)
    return net


def complete_with_persistence(schedule: Schedule, net: PENet) -> PENet:
    """Fill every gap with KB persistence, then no-change defaults."""
    _paste(schedule, net, "persistence")
    return _paste(schedule, net, "default-persistence")


def _forward_build(schedule: Schedule) -> PENet:
    """Sweep the schedule, create every node with its states and parents, paste the forward rows."""
    schedule.analyse()
    net = PENet(situation_order=[si.sid for si in schedule.situations])
    for nid, kind in schedule.kinds.items():
        net.ensure_node(FragmentNode(nid, kind, list(schedule.states[nid]), schedule.parents[nid]))
    for kind in ("initial", "action", "residual"):
        _paste(schedule, net, kind)
    for group in schedule.plan.contingencies:
        merge_contingent(group, schedule, net)
    for step in schedule.plan.steps:
        if step.model.during_effects:
            attach_during(step, schedule, net)
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
        except BuildError:
            raise
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
    net = stage("derived", _paste, schedule, net, "derived")
    net = stage("finalize", finalize, net)
    return net
