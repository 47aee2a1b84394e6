"""Plans: per-agent step sequences, interlock constraints, contingencies, hierarchy.

A plan's boundaries form a partial order (the interlock constraints).
``linearize`` extends it to a total order; ``flatten_hierarchy`` rewrites
abstract steps into contingency groups plus spliced sub-plans, leaving a plan
with no expansions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import CyclicOrder, MalformedExpansion
from .model import ActionModel, ConditionalRow, GroundAtom, SelRef, instantiate, instantiate_row

NOOP = "noop"


@dataclass
class PlanStep:
    """One action occurrence: an instantiated action model spanning two boundaries."""

    id: str
    agent: str
    action: GroundAtom  # action name applied to constant arguments
    model: ActionModel
    start: str
    end: str
    guards: tuple = ()  # ((SelRef, alternative-label), ...): rows apply only when all match

    @property
    def bindings(self) -> dict:
        return dict(zip(self.model.params, self.action.args))


@dataclass
class ContingencyGroup:
    """Alternative steps at one boundary, chosen by a (possibly probabilistic) selector."""

    boundary: str
    alternatives: list  # step ids, possibly including NOOP
    selector: list  # ConditionalRow over condition nodes -> distribution over alternatives
    origin: str = "plain"  # plain | expansion
    selected: str = None  # expansion groups: the alternative the planner chose
    guards: tuple = ()


@dataclass
class ExpansionAlternative:
    label: str
    steps: list  # sub-plan steps, in execution order
    condition: dict = field(default_factory=dict)  # when this (non-selected) alternative is chosen


@dataclass
class ExpansionNode:
    step_id: str
    alternatives: list
    selected: str


@dataclass
class ResidualEffect:
    """An abstract consequence kept alive because no sub-step overrides it."""

    atom: GroundAtom
    rows: list
    start: str
    end: str
    guards: tuple = ()
    source: str = ""


@dataclass
class Plan:
    steps: list = field(default_factory=list)
    order: list = field(default_factory=list)  # explicit (before, after) boundary pairs
    contingencies: list = field(default_factory=list)
    expansions: list = field(default_factory=list)
    initial: dict = field(default_factory=dict)  # GroundAtom -> {state: prob}
    goals: list = field(default_factory=list)  # [(GroundAtom, state), ...]
    residuals: list = field(default_factory=list)

    def boundaries(self) -> list:
        seen = {}
        for step in self.steps:
            seen.setdefault(step.start, None)
            seen.setdefault(step.end, None)
        for before, after in self.order:
            seen.setdefault(before, None)
            seen.setdefault(after, None)
        for group in self.contingencies:
            seen.setdefault(group.boundary, None)
        return list(seen)

    def constraints(self) -> list:
        """Explicit orderings plus the implicit step-span and per-agent chains."""
        out = list(self.order)
        for step in self.steps:
            out.append((step.start, step.end))
        per_agent = {}
        for step in self.steps:
            per_agent.setdefault(step.agent, []).append(step)
        for steps in per_agent.values():
            for prev, nxt in zip(steps, steps[1:]):
                if _exclusive_branches(prev, nxt):
                    continue  # steps on different alternatives are never co-executed
                if prev.end != nxt.start:
                    out.append((prev.end, nxt.start))
        return out

    def agent_indices(self) -> dict:
        """step id -> (agent, per-agent declaration index)."""
        counters = {}
        out = {}
        for step in self.steps:
            idx = counters.get(step.agent, 0)
            counters[step.agent] = idx + 1
            out[step.id] = (step.agent, idx)
        return out

    def step_by_id(self, step_id: str) -> PlanStep:
        for step in self.steps:
            if step.id == step_id:
                return step
        raise KeyError(step_id)


def _exclusive_branches(a: PlanStep, b: PlanStep) -> bool:
    for sel, label in a.guards:
        for sel2, label2 in b.guards:
            if sel == sel2 and label != label2:
                return True
    return False


def default_tie_break(plan: Plan):
    """Boundary sort key from (agent id, per-agent step index), starts before ends."""
    indices = plan.agent_indices()
    keys = {}
    for step in plan.steps:
        agent, idx = indices[step.id]
        for boundary, tag in ((step.start, 0), (step.end, 1)):
            key = (agent, idx, tag)
            if boundary not in keys or key < keys[boundary]:
                keys[boundary] = key

    def key_fn(boundary):
        return keys.get(boundary, ("~", 0, 0)) + (boundary,)

    return key_fn


def linearize(plan: Plan, tie_break=None) -> list:
    """Total order on boundaries extending the interlock constraints.

    Kahn's algorithm, always popping the available boundary with the smallest
    tie-break key, so the result is deterministic for a fixed key.
    """
    if tie_break is None:
        tie_break = default_tie_break(plan)
    boundaries = plan.boundaries()
    successors = {b: [] for b in boundaries}
    indegree = {b: 0 for b in boundaries}
    seen_edges = set()
    for before, after in plan.constraints():
        if before == after:
            raise CyclicOrder(f"boundary {before!r} ordered before itself")
        if (before, after) in seen_edges:
            continue
        seen_edges.add((before, after))
        successors[before].append(after)
        indegree[after] += 1

    available = sorted((b for b in boundaries if indegree[b] == 0), key=tie_break)
    out = []
    while available:
        boundary = available.pop(0)
        out.append(boundary)
        changed = False
        for nxt in successors[boundary]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                available.append(nxt)
                changed = True
        if changed:
            available.sort(key=tie_break)
    if len(out) != len(boundaries):
        stuck = sorted(b for b in boundaries if indegree[b] > 0)
        raise CyclicOrder(f"interlock constraints are cyclic around {stuck}")
    return out


def flatten_hierarchy(plan: Plan) -> Plan:
    """Rewrite expansions into contingency groups plus spliced sub-plan steps.

    Also attaches selection guards to steps referenced by plain contingency
    groups, so downstream construction sees one uniform guard mechanism.
    Idempotent: a plan with no expansions comes back guard-normalized only.
    """
    expansions = {exp.step_id: exp for exp in plan.expansions}
    known_boundaries = set(plan.boundaries())

    # Guard-normalize a copy first: plain-group alternatives are exclusive, and
    # the exclusivity must be visible before per-agent chains are derived.
    base = Plan(
        steps=list(plan.steps),
        order=list(plan.order),
        contingencies=plan.contingencies,
        expansions=plan.expansions,
        initial=plan.initial,
        goals=plan.goals,
        residuals=plan.residuals,
    )
    _attach_plain_guards(base)

    new_steps = []
    new_groups = []
    new_residuals = list(plan.residuals)
    # The expanded abstract steps vanish, so the constraints they implied must
    # be kept explicitly.
    new_order = list(dict.fromkeys(base.constraints()))
    spliced = set()  # ids of the steps whose expansions are being spliced

    def splice(step: PlanStep, guards: tuple):
        exp = expansions.get(step.id)
        if exp is None:
            new_steps.append(replace(step, guards=_merge_guards(step.guards, guards)))
            return [instantiate(atom, step.bindings) for atom, _ in step.model.consequences]

        labels = [alt.label for alt in exp.alternatives]
        if exp.selected not in labels:
            raise MalformedExpansion(f"expansion of {step.id}: selected {exp.selected!r} not among {labels}")
        sel = SelRef(step.start)
        multi = len(exp.alternatives) > 1
        if multi:
            selector = []
            for alt in exp.alternatives:
                if alt.label != exp.selected and alt.condition:
                    selector.append(ConditionalRow(dict(alt.condition), {alt.label: 1.0}))
            new_groups.append(ContingencyGroup(
                boundary=step.start,
                alternatives=labels,
                selector=selector,
                origin="expansion",
                selected=exp.selected,
                guards=guards,
            ))

        touched_overall = []
        spliced.add(step.id)
        for alt in exp.alternatives:
            alt_guards = guards + (((sel, alt.label),) if multi else ())
            touched = []
            for sub in alt.steps:
                _check_interval(sub, step, known_boundaries)
                if sub.id in spliced:
                    raise MalformedExpansion(f"sub-step {sub.id} of {step.id} reuses the id of a step being expanded")
                touched.extend(splice(sub, alt_guards))
                for fresh in (sub.start, sub.end):
                    if fresh not in (step.start, step.end):
                        new_order.append((step.start, fresh))
                        new_order.append((fresh, step.end))
            touched_overall.append((alt_guards, touched))
        spliced.discard(step.id)

        # Consequences of the abstract model untouched by an alternative's
        # sub-steps survive as residual effects, pasted into the net later.
        bindings = step.bindings
        for alt_guards, touched in touched_overall:
            for atom, rows in step.model.consequences:
                ground = instantiate(atom, bindings)
                if ground in touched:
                    continue
                new_residuals.append(ResidualEffect(
                    atom=ground,
                    rows=[instantiate_row(r, bindings) for r in rows],
                    start=step.start,
                    end=step.end,
                    guards=alt_guards,
                    source=step.id,
                ))
        return [instantiate(atom, bindings) for atom, _ in step.model.consequences]

    for step in base.steps:
        splice(step, ())

    flat = Plan(
        steps=new_steps,
        order=list(dict.fromkeys(new_order)),
        contingencies=list(plan.contingencies) + new_groups,
        expansions=[],
        initial=dict(plan.initial),
        goals=list(plan.goals),
        residuals=new_residuals,
    )
    _attach_plain_guards(flat)
    # Close the constraint set so flattening is idempotent on its own output.
    flat.order = list(dict.fromkeys(flat.constraints()))
    return flat


def _check_interval(sub: PlanStep, abstract: PlanStep, known: set):
    for boundary in (sub.start, sub.end):
        if boundary in known and boundary not in (abstract.start, abstract.end):
            raise MalformedExpansion(
                f"sub-step {sub.id} of {abstract.id} references boundary {boundary!r} outside the expansion interval"
            )


def _merge_guards(existing: tuple, extra: tuple) -> tuple:
    merged = list(existing)
    for guard in extra:
        if guard not in merged:
            merged.append(guard)
    return tuple(merged)


def _attach_plain_guards(plan: Plan):
    for group in plan.contingencies:
        if group.origin != "plain":
            continue
        sel = SelRef(group.boundary)
        for idx, step in enumerate(plan.steps):
            if step.id in group.alternatives:
                plan.steps[idx] = replace(step, guards=_merge_guards(step.guards, ((sel, step.id),)))
