"""Construction pipeline: compile (plan, knowledge base, options) into a finalized PE-net.

The pipeline runs in a fixed order, and paste order is meaningful:

1. flatten the hierarchy and normalize guards,
2. linearize the interlock partial order,
3. derive the situation schedule and enumerate reachable node states,
4. forward pass: priors, then action fragments (paste-onto), residual
   effects (paste-into), contingency selection nodes, during effects,
   clock machinery,
5. split situations until no reachable negative elapsed time remains,
6. backward pass: knowledge-base persistence then default no-change rows
   (both paste-into),
7. attach derived-predicate nodes and finalize.

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
        self._refresh()
        if situations is None:
            self._collect_universe()
            self._validate()

    # -- layout ----------------------------------------------------------

    def _refresh(self):
        self._pos = {si.sid: i for i, si in enumerate(self.situations)}
        self._boundary_last = {}
        for si in self.situations:
            self._boundary_last[si.boundary] = si.sid

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
        boundary = self.situations[self._pos[sid]].boundary
        if self._pos[sid] == 0:
            return []
        return [s for s in self.plan.steps if s.end == boundary]

    def residuals_at(self, sid: SituationId) -> list:
        boundary = self.situations[self._pos[sid]].boundary
        if self._pos[sid] == 0:
            return []
        return [r for r in self.plan.residuals if r.end == boundary]

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
        return [s for s in self.plan.steps if s.model.during_effects and sid in self.intermediates(s)]

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

    # -- analysis results (filled by analyse()) ---------------------------

    def analyse(self):
        self.states, self.parents, self.approx, self.rows = _forward_analysis(self)
        return self.states


# ---------------------------------------------------------------------------
# condition-key resolution and row generation (shared by analysis and build)
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
    spanning steps; source is the step or residual effect. Generated once
    per schedule: the forward analysis reads these rows and the paste
    stages write the same row objects.
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
# forward analysis: reachable states, parent sets, approximate marginals
# ---------------------------------------------------------------------------


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


def _persistence_support(schedule: Schedule, atom: GroundAtom, prev_states, elapsed_buckets) -> dict:
    """prev state -> support set under the KB persistence model plus the no-change default.

    The previous state itself is always in the support: default identity rows
    fill every combination the KB model leaves open (including gate-failed and
    unresolvable-elapsed ones), so the retained state must stay reachable.
    """
    model = schedule.kb.persistence.get(atom.name)
    out = {}
    for prev in prev_states:
        support = {prev}
        if model is not None:
            for row in model.rows:
                if row.prev != prev:
                    continue
                if row.bucket is not None and row.bucket not in elapsed_buckets:
                    continue
                support.update(s for s, p in row.distribution.items() if p > 0)
        out[prev] = support
    return out


def _reachable_buckets(schedule: Schedule, states: dict, sid: SituationId, model) -> set:
    """Elapsed buckets with a reachable (prev clock, this clock) supporting pair."""
    if model is None or model.buckets is None or not schedule.timed:
        return set()
    pos = schedule.position(sid)
    prev_clock = states.get(clock_node(schedule.situations[pos - 1].sid), ())
    this_clock = states.get(clock_node(sid), ())
    buckets = set()
    for a in prev_clock:
        for b in this_clock:
            if not (isinstance(a, int) and isinstance(b, int)):
                continue
            delta = b - a
            for lo, hi in model.buckets:
                if lo <= delta < hi:
                    buckets.add((lo, hi))
    return buckets


def _forward_analysis(schedule: Schedule):
    """One deterministic sweep computing per-node states, parents, and rough marginals.

    The marginal estimates treat parents as independent and over-count where
    later pastes override earlier ones; they exist only to rank states for
    OTHER compaction. Also returns each situation's rows, which the paste
    stages write unchanged.
    """
    states: dict = {}
    approx: dict = {}
    parents: dict = {}
    sit_rows: dict = {}
    plan = schedule.plan
    kb = schedule.kb
    opts = schedule.opts

    sign_probs = _split_sign_probs(schedule)

    for pos, si in enumerate(schedule.situations):
        sid = si.sid
        prev_sid = schedule.situations[pos - 1].sid if pos > 0 else None

        if schedule.timed:
            _analyse_clock_family(schedule, states, approx, parents, pos, si, sign_probs)
        if pos > 0:
            sit_rows[sid] = _situation_rows(schedule, sid)
            by_target = _rows_by_target(sit_rows[sid])

        for atom in schedule.atoms:
            nid = atom_node(atom, sid)
            schema = kb.schemas[atom.name]
            if pos == 0:
                prior = plan.initial.get(atom) or {schema.states[0]: 1.0}
                states[nid] = [s for s in prior if prior[s] > 0]
                approx[nid] = {s: p for s, p in prior.items() if p > 0}
                parents[nid] = []
                continue

            prev_nid = atom_node(atom, prev_sid)
            parent_set = {}
            support = {}
            mass = {}

            def absorb(dist, weight):
                for state, prob in dist.items():
                    if prob <= 0:
                        continue
                    support.setdefault(state, None)
                    mass[state] = mass.get(state, 0.0) + weight * prob

            writers = by_target.get(nid, [])
            for _kind, _source, rows in writers:
                for row in rows:
                    for key in row.condition:
                        parent_set.setdefault(key, None)
                    if _row_feasible(states, row.condition):
                        absorb(row.distribution, max(_combo_weight(approx, row.condition), 1e-12))

            if not _fully_covered(states, writers, si):
                parent_set.setdefault(prev_nid, None)
                model = kb.persistence.get(atom.name)
                buckets = _reachable_buckets(schedule, states, sid, model)
                if model is not None and model.buckets is not None and schedule.timed:
                    parent_set.setdefault(clock_node(prev_sid), None)
                    parent_set.setdefault(clock_node(sid), None)
                per_prev = _persistence_support(schedule, atom, states[prev_nid], buckets)
                for prev_state, supp in per_prev.items():
                    weight = approx[prev_nid].get(prev_state, 0.0)
                    absorb({s: 1.0 / len(supp) for s in supp}, weight)

            ordered = [s for s in schema.states if s in support]
            ordered += [s for s in sorted(support, key=label_sort_key) if s not in ordered]
            total = sum(mass.values()) or 1.0
            margin = {s: mass.get(s, 0.0) / total for s in ordered}
            if len(ordered) > opts.state_cap:
                ordered, margin = _compact(ordered, margin, opts.state_cap)
            states[nid] = ordered
            approx[nid] = margin
            parents[nid] = sorted(parent_set, key=lambda n: str(n))

        for datom in schedule.derived_atoms:
            nid = atom_node(datom, sid)
            definition, bindings = kb.find_derived(datom)
            parent_ids = [atom_node(instantiate(p, bindings), sid) for p in definition.parents]
            support = {}
            mass = {}
            for row in definition.rows:
                ground = instantiate_row(row, bindings)
                condition = {atom_node(key, sid): state for key, state in ground.condition.items()}
                if not _row_feasible(states, condition):
                    continue
                weight = max(_combo_weight(approx, condition), 1e-12)
                for state, prob in ground.distribution.items():
                    if prob <= 0:
                        continue
                    support.setdefault(state, None)
                    mass[state] = mass.get(state, 0.0) + weight * prob
            if not support:
                raise BuildError("enumerate", PlanEvalError(
                    f"derived definition for {datom} matches no reachable state at {sid}"))
            schema = kb.schemas[datom.name]
            ordered = [s for s in schema.states if s in support]
            ordered += [s for s in sorted(support, key=label_sort_key) if s not in ordered]
            total = sum(mass.values()) or 1.0
            states[nid] = ordered
            approx[nid] = {s: mass.get(s, 0.0) / total for s in ordered}
            parents[nid] = parent_ids

        group = schedule.group_at_boundary(si.boundary) if sid == schedule.sit_of_boundary(si.boundary) else None
        if group is not None:
            nid = sel_node(group.boundary, sid)
            sel_rows, default_row = _selector_rows(schedule, group)
            parent_set = {}
            for row in sel_rows:
                for key in row.condition:
                    parent_set.setdefault(key, None)
            uncovered = not _covers_reachable(states, sel_rows)
            explicit_noop = any(NOOP in row.distribution for row in sel_rows)
            labels = list(group.alternatives)
            if group.origin == "plain" and (uncovered or explicit_noop) and NOOP not in labels:
                labels.append(NOOP)
            states[nid] = labels
            mass = {}
            covered_weight = 0.0
            for row in sel_rows:
                if not _row_feasible(states, row.condition):
                    continue
                weight = max(_combo_weight(approx, row.condition), 1e-12)
                covered_weight += weight
                for label, prob in row.distribution.items():
                    mass[label] = mass.get(label, 0.0) + weight * prob
            default_label = next(iter(default_row.distribution))
            mass[default_label] = mass.get(default_label, 0.0) + max(1.0 - covered_weight, 0.0)
            total = sum(mass.values()) or 1.0
            approx[nid] = {s: mass.get(s, 0.0) / total for s in labels}
            parents[nid] = sorted(parent_set, key=lambda n: str(n))

    return states, parents, approx, sit_rows


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
    persistence fallback parent.
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
# clock family: durations, relative-end-time, clock nodes
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
    times = []
    for pos, si in enumerate(schedule.situations):
        if pos == 0:
            times.append(0)
            continue
        enders = schedule.enders_at(si.sid)
        if si.gate is not None:
            ret, sign = si.gate
            spec = next(sp for sp in schedule.splits if sp.ret == ret)
            end_later = times[schedule.position(schedule.start_sit(spec.later))] + assignment[spec.later.id]
            end_earlier = times[schedule.position(schedule.start_sit(spec.earlier))] + assignment[spec.earlier.id]
            active = (end_later < end_earlier) == (sign == NEGATIVE)
            if active and enders:
                last = enders[-1]
                times.append(times[schedule.position(schedule.start_sit(last))] + assignment[last.id])
            else:
                times.append(times[-1])
        elif enders:
            last = enders[-1]
            times.append(times[schedule.position(schedule.start_sit(last))] + assignment[last.id])
        else:
            times.append(times[-1])
    return times


def _find_conflict(schedule: Schedule):
    """First situation whose event time can precede its predecessor's, or None."""
    if not schedule.timed:
        return None
    best = None
    for assignment, weight in _duration_worlds(schedule):
        if weight <= 0:
            continue
        times = _world_times(schedule, assignment)
        for pos in range(1, len(times)):
            if times[pos] < times[pos - 1]:
                if best is None or pos < best:
                    best = pos
                break
    return best


def _split_sign_probs(schedule: Schedule) -> dict:
    out = {}
    if not schedule.splits:
        return out
    for spec in schedule.splits:
        out[spec.ret] = {NEGATIVE: 0.0, NONNEGATIVE: 0.0}
    for assignment, weight in _duration_worlds(schedule):
        times = _world_times(schedule, assignment)
        for spec in schedule.splits:
            end_later = times[schedule.position(schedule.start_sit(spec.later))] + assignment[spec.later.id]
            end_earlier = times[schedule.position(schedule.start_sit(spec.earlier))] + assignment[spec.earlier.id]
            sign = NEGATIVE if end_later < end_earlier else NONNEGATIVE
            out[spec.ret][sign] += weight
    return out


def _analyse_clock_family(schedule: Schedule, states, approx, parents, pos, si, sign_probs):
    opts = schedule.opts
    sid = si.sid

    for step in sorted((s for s in schedule.plan.steps
                        if s.id in schedule.dur_steps and schedule.start_sit(s) == sid),
                       key=lambda s: s.id):
        nid = dur_node(step.id, sid)
        states[nid] = sorted(step.model.duration)
        approx[nid] = dict(step.model.duration)
        parents[nid] = []

    for spec in schedule.splits:
        if spec.ret.sit != sid:
            continue
        nid = spec.ret
        states[nid] = [NEGATIVE, NONNEGATIVE]
        approx[nid] = sign_probs.get(nid, {NEGATIVE: 0.5, NONNEGATIVE: 0.5})
        parent_set = {}
        for step in (spec.earlier, spec.later):
            parent_set.setdefault(clock_node(schedule.start_sit(step)), None)
            parent_set.setdefault(dur_node(step.id, schedule.start_sit(step)), None)
        parents[nid] = sorted(parent_set, key=lambda n: str(n))

    nid = clock_node(sid)
    if pos == 0:
        states[nid] = [0]
        approx[nid] = {0: 1.0}
        parents[nid] = []
        return

    prev_nid = clock_node(schedule.situations[pos - 1].sid)
    parent_set = {prev_nid: None}
    support = {}
    mass = {}
    gate = _gate_pin(schedule, sid)
    for ret in gate:
        parent_set.setdefault(ret, None)

    enders = schedule.enders_at(sid)
    covered = bool(enders) and si.gate is None and all(not s.guards for s in enders)
    for step in enders:
        start_clock = clock_node(schedule.start_sit(step))
        parent_set.setdefault(start_clock, None)
        for sel, _label in step.guards:
            parent_set.setdefault(_resolve_key(schedule, sel, None), None)
        if step.id in schedule.dur_steps:
            parent_set.setdefault(dur_node(step.id, schedule.start_sit(step)), None)
        gate_weight = approx.get(si.gate[0], {}).get(si.gate[1], 1.0) if si.gate else 1.0
        for c in states[start_clock]:
            c_weight = approx[start_clock].get(c, 0.0)
            for d, p in sorted(step.model.duration.items()):
                value = OTHER if c == OTHER or (c + d) > opts.clock_cap else c + d
                support.setdefault(value, None)
                mass[value] = mass.get(value, 0.0) + c_weight * p * gate_weight
    if not covered:
        for c in states[prev_nid]:
            support.setdefault(c, None)
            mass[c] = mass.get(c, 0.0) + approx[prev_nid].get(c, 0.0)

    ordered = sorted(support, key=label_sort_key)
    total = sum(mass.values()) or 1.0
    states[nid] = ordered
    approx[nid] = {s: mass.get(s, 0.0) / total for s in ordered}
    parents[nid] = sorted(parent_set, key=lambda n: str(n))


# ---------------------------------------------------------------------------
# construction stages
# ---------------------------------------------------------------------------


def _skeleton(schedule: Schedule) -> PENet:
    net = PENet(situation_order=[si.sid for si in schedule.situations])
    net.context = schedule
    states, parents = schedule.states, schedule.parents

    def create(nid: NodeId, kind: str):
        net.ensure_node(FragmentNode(nid, kind, list(states[nid]), []))

    for pos, si in enumerate(schedule.situations):
        sid = si.sid
        if schedule.timed:
            for step in sorted((s for s in schedule.plan.steps
                                if s.id in schedule.dur_steps and schedule.start_sit(s) == sid),
                               key=lambda s: s.id):
                create(dur_node(step.id, sid), CLOCK)
            for spec in schedule.splits:
                if spec.ret.sit == sid:
                    create(spec.ret, RELATIVE_END_TIME)
            create(clock_node(sid), CLOCK)
        for atom in schedule.atoms:
            create(atom_node(atom, sid), PRIMITIVE)
        for datom in schedule.derived_atoms:
            create(atom_node(datom, sid), DERIVED)
        group = schedule.group_at_boundary(si.boundary) if sid == schedule.sit_of_boundary(si.boundary) else None
        if group is not None:
            create(sel_node(group.boundary, sid), SELECTION)

    # Wire planned parents (fragments rely on them being present up front).
    for nid in sorted(parents, key=lambda n: str(n)):
        node = net.nodes[nid]
        for parent in parents[nid]:
            net.add_parent(node, parent)
    return net


def _stage_priors(schedule: Schedule, net: PENet):
    frag = Fragment()
    first = schedule.situations[0].sid
    for atom in schedule.atoms:
        nid = atom_node(atom, first)
        prior = schedule.plan.initial.get(atom) or {schedule.kb.schemas[atom.name].states[0]: 1.0}
        frag.rows.append(FragmentRow(nid, {}, dict(prior), "initial"))
    paste_onto(net, frag)


def _stage_actions(schedule: Schedule, net: PENet):
    for si in schedule.situations[1:]:
        entries = schedule.rows[si.sid]
        onto = [row for kind, _source, rows in entries if kind == "action" for row in rows]
        if onto:
            paste_onto(net, Fragment(rows=onto))
        into = [row for kind, _source, rows in entries if kind == "residual" for row in rows]
        if into:
            paste_into(net, Fragment(rows=into))


def merge_contingent(group, net: PENet) -> PENet:
    """Write one contingency group's action-selection node into the net."""
    schedule: Schedule = net.context
    rows, default_row = _selector_rows(schedule, group)
    paste_onto(net, Fragment(rows=rows))
    paste_into(net, Fragment(rows=[default_row]))
    net.selection_records.append(SelectionRecord(
        node=default_row.node,
        selected=group.selected,
        origin=group.origin,
        guards=tuple((_resolve_key(schedule, sel, None), label) for sel, label in group.guards),
    ))
    return net


def attach_during(step: PlanStep, schedule: Schedule, net: PENet) -> PENet:
    """Paste one step's during effects onto each of its intermediate situations."""
    rows = [
        row
        for mid in schedule.intermediates(step)
        for _kind, source, source_rows in schedule.rows[mid]
        if source is step
        for row in source_rows
    ]
    if rows:
        paste_onto(net, Fragment(rows=rows))
    return net


def add_clock(schedule: Schedule, net: PENet) -> PENet:
    """Clock, duration, and relative-end-time nodes plus their rows."""
    if not schedule.timed:
        return net
    states = schedule.states

    dur_frag = Fragment()
    for step in sorted((s for s in schedule.plan.steps if s.id in schedule.dur_steps), key=lambda s: s.id):
        nid = dur_node(step.id, schedule.start_sit(step))
        dur_frag.rows.append(FragmentRow(nid, {}, dict(step.model.duration), f"duration {step.id}"))
    if dur_frag.rows:
        paste_onto(net, dur_frag)

    ret_frag = Fragment()
    for spec in schedule.splits:
        nid = spec.ret
        ce = clock_node(schedule.start_sit(spec.earlier))
        de = dur_node(spec.earlier.id, schedule.start_sit(spec.earlier))
        cl = clock_node(schedule.start_sit(spec.later))
        dl = dur_node(spec.later.id, schedule.start_sit(spec.later))
        pools = {}
        for key in (ce, de, cl, dl):
            pools.setdefault(key, states[key])
        keys = list(pools)
        for combo in itertools.product(*(pools[k] for k in keys)):
            values = dict(zip(keys, combo))
            end_earlier = _end_time(values[ce], values[de])
            end_later = _end_time(values[cl], values[dl])
            sign = _compare_ends(end_later, end_earlier)
            ret_frag.rows.append(FragmentRow(nid, values, {sign: 1.0}, "relative-end-time"))
    if ret_frag.rows:
        paste_onto(net, ret_frag)

    for pos, si in enumerate(schedule.situations):
        nid = clock_node(si.sid)
        if pos == 0:
            paste_onto(net, Fragment(rows=[FragmentRow(nid, {}, {0: 1.0}, "clock-initial")]))
            continue
        onto = Fragment()
        gate = _gate_pin(schedule, si.sid)
        for step in schedule.enders_at(si.sid):
            start_clock = clock_node(schedule.start_sit(step))
            pins = dict(gate)
            pins.update(_guard_pins(schedule, step.guards))
            if step.id in schedule.dur_steps:
                dnode = dur_node(step.id, schedule.start_sit(step))
                for c in states[start_clock]:
                    for d in states[dnode]:
                        condition = dict(pins)
                        condition[start_clock] = c
                        condition[dnode] = d
                        onto.rows.append(FragmentRow(
                            nid, condition, {_sum_clock(c, d, schedule.opts.clock_cap): 1.0}, f"clock {step.id}"))
            else:
                for c in states[start_clock]:
                    condition = dict(pins)
                    condition[start_clock] = c
                    dist = {}
                    for d, p in sorted(step.model.duration.items()):
                        value = _sum_clock(c, d, schedule.opts.clock_cap)
                        dist[value] = dist.get(value, 0.0) + p
                    onto.rows.append(FragmentRow(nid, condition, dist, f"clock {step.id}"))
        if onto.rows:
            paste_onto(net, onto)
        prev_nid = clock_node(schedule.situations[pos - 1].sid)
        identity = Fragment(rows=[
            FragmentRow(nid, {prev_nid: c}, {c: 1.0}, "clock-identity") for c in states[prev_nid]
        ])
        paste_into(net, identity)
    return net


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


def split_situations(schedule: Schedule, net: PENet) -> PENet:
    """Split situations until no reachable transition runs backward in time.

    Each split inserts sub-situation ``a`` immediately before the earlier
    situation it conflicts with and renames the original to ``b``; a
    relative-end-time node gates which sub-situation the step's effects
    land on. Iterates to a fixed point, capped by the number of
    overlapping step pairs.
    """
    if not schedule.timed:
        return net
    cap = _overlapping_pairs(schedule)
    iterations = 0
    while True:
        conflict_pos = _find_conflict(schedule)
        if conflict_pos is None:
            net.context = schedule
            return net
        iterations += 1
        if iterations > max(cap, 0):
            raise PlanEvalError("situation splitting did not reach a fixed point within the overlap cap")
        schedule = _apply_split(schedule, conflict_pos)
        net = _forward_build(schedule)


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


def complete_with_persistence(net: PENet, kb: KnowledgeBase) -> PENet:
    """Backward pass filling every gap with KB persistence, then no-change defaults."""
    schedule: Schedule = net.context
    states = schedule.states
    for pos in range(len(schedule.situations) - 1, 0, -1):
        si = schedule.situations[pos]
        prev_sid = schedule.situations[pos - 1].sid
        gate = _gate_pin(schedule, si.sid)
        for atom in schedule.atoms:
            nid = atom_node(atom, si.sid)
            prev_nid = atom_node(atom, prev_sid)
            if prev_nid not in net.nodes[nid].parents:
                continue  # the action model fully covers this node
            model = kb.persistence.get(atom.name)
            if model is not None:
                frag = Fragment()
                for row in model.rows:
                    dist = dict(row.distribution)
                    if row.bucket is None:
                        condition = dict(gate)
                        condition[prev_nid] = row.prev
                        frag.rows.append(FragmentRow(nid, condition, dist, f"persistence {model.atom}"))
                    else:
                        if not schedule.timed:
                            continue  # elapsed-conditioned rows need a clock
                        cprev, cthis = clock_node(prev_sid), clock_node(si.sid)
                        for a in states[cprev]:
                            for b in states[cthis]:
                                if not (isinstance(a, int) and isinstance(b, int)):
                                    continue
                                lo, hi = row.bucket
                                if not (lo <= b - a < hi):
                                    continue
                                condition = dict(gate)
                                condition[prev_nid] = row.prev
                                condition[cprev] = a
                                condition[cthis] = b
                                frag.rows.append(FragmentRow(nid, condition, dist, f"persistence {model.atom}"))
                if frag.rows:
                    paste_into(net, frag)
            default = Fragment(rows=[
                FragmentRow(nid, {prev_nid: s}, {s: 1.0}, "default-persistence")
                for s in states[prev_nid]
            ])
            paste_into(net, default)
    return net


def _attach_derived(net: PENet):
    schedule: Schedule = net.context
    kb = schedule.kb
    frag = Fragment()
    for si in schedule.situations:
        for datom in schedule.derived_atoms:
            nid = atom_node(datom, si.sid)
            definition, bindings = kb.find_derived(datom)
            for row in definition.rows:
                ground = instantiate_row(row, bindings)
                condition = {}
                for key, state in ground.condition.items():
                    condition[atom_node(key, si.sid)] = state
                frag.rows.append(FragmentRow(nid, condition, dict(ground.distribution), f"derived {definition.atom}"))
    if frag.rows:
        paste_onto(net, frag)
    return net


def _forward_build(schedule: Schedule) -> PENet:
    schedule.analyse()
    net = _skeleton(schedule)
    _stage_priors(schedule, net)
    _stage_actions(schedule, net)
    for group in schedule.plan.contingencies:
        merge_contingent(group, net)
    for step in schedule.plan.steps:
        if step.model.during_effects:
            attach_during(step, schedule, net)
    add_clock(schedule, net)
    return net


def enumerate_states(schedule: Schedule) -> dict:
    """Per-node reachable state lists (forward enumeration, OTHER-compacted)."""
    return _forward_analysis(schedule)[0]


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
    net = stage("forward", _forward_build, schedule)
    net = stage("split", split_situations, net.context, net)
    net = stage("persistence", complete_with_persistence, net, kb)
    net = stage("derived", _attach_derived, net)
    net = stage("finalize", finalize, net)
    return net
