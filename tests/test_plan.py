"""Plan structure: linearization and hierarchy flattening."""

import random

import pytest

from planeval import GroundAtom, SourceDocument, flatten_hierarchy, linearize, parse_kb, parse_plan
from planeval.errors import CyclicOrder, MalformedExpansion
from planeval.plan import Plan, PlanStep

from fixtures import (
    HIERARCHY_KB,
    HIERARCHY_PLAN,
    MOVE_KB,
    OVERLAP_KB,
    OVERLAP_PLAN,
    SELF_EXPANDING_PLAN,
    TWO_STEP_PLAN,
    load,
)


def test_linear_plan_unique_extension():
    _kb, plan = load(MOVE_KB, TWO_STEP_PLAN)
    assert linearize(plan) == ["b0", "b1", "b2"]


def test_two_agent_shared_start_default_tiebreak():
    _kb, plan = load(OVERLAP_KB, OVERLAP_PLAN)
    # agents start together; the default key orders agent1's end first
    assert linearize(plan) == ["b0", "b1", "b2", "b3"]


def _random_dag_plan(rng):
    """A plan whose constraints form a random DAG over 8 boundaries."""
    boundaries = [f"n{i}" for i in range(8)]
    order = []
    for i in range(8):
        for j in range(i + 1, 8):
            if rng.random() < 0.3:
                order.append((boundaries[i], boundaries[j]))
    return Plan(order=order), boundaries


@pytest.mark.parametrize("seed", range(10))
def test_linearize_extends_partial_order(seed):
    rng = random.Random(seed)
    plan, _boundaries = _random_dag_plan(rng)
    out = linearize(plan)
    assert len(out) == len(plan.boundaries())
    position = {b: i for i, b in enumerate(out)}
    for before, after in plan.constraints():
        assert position[before] < position[after]


def test_linearize_deterministic_given_tie_break():
    rng = random.Random(3)
    plan, _ = _random_dag_plan(rng)
    first = linearize(plan)
    second = linearize(plan)
    assert first == second


def test_linearize_cycle_detected():
    plan = Plan(order=[("x", "y"), ("y", "x")])
    with pytest.raises(CyclicOrder):
        linearize(plan)


def test_flatten_identity_without_expansions():
    _kb, plan = load(MOVE_KB, TWO_STEP_PLAN)
    flat = flatten_hierarchy(plan)
    assert [s.id for s in flat.steps] == [s.id for s in plan.steps]
    assert flat.expansions == []


def test_flatten_splices_selected_subplan():
    _kb, plan = load(HIERARCHY_KB, HIERARCHY_PLAN)
    flat = flatten_hierarchy(plan)
    ids = [s.id for s in flat.steps]
    assert ids == ["w1", "w2", "c2"]
    groups = [g for g in flat.contingencies if g.origin == "expansion"]
    assert len(groups) == 1
    group = groups[0]
    assert group.alternatives == ["c1", "c2"]
    assert group.selected == "c1"
    # every sub-step carries its branch guard
    for step in flat.steps:
        labels = {label for _sel, label in step.guards}
        assert labels in ({"c1"}, {"c2"})


def test_flatten_records_residuals_for_untouched_consequences():
    _kb, plan = load(HIERARCHY_KB, HIERARCHY_PLAN)
    flat = flatten_hierarchy(plan)
    side = GroundAtom("Side", ("T",))
    residual_atoms = {(r.atom, tuple(sorted(label for _s, label in r.guards))) for r in flat.residuals}
    # (Side T) is untouched by both alternatives, so each branch keeps it
    assert (side, ("c1",)) in residual_atoms
    assert (side, ("c2",)) in residual_atoms
    done = GroundAtom("Done", ("T",))
    assert all(r.atom != done for r in flat.residuals)


def test_flatten_idempotent_on_output():
    _kb, plan = load(HIERARCHY_KB, HIERARCHY_PLAN)
    once = flatten_hierarchy(plan)
    twice = flatten_hierarchy(once)
    assert once == twice


def test_flatten_rejects_escaping_subplan():
    kb, plan = load(HIERARCHY_KB, HIERARCHY_PLAN)
    exp = plan.expansions[0]
    # redirect a sub-step to a boundary used elsewhere in the plan
    bad = exp.alternatives[0].steps[0]
    bad.end = "b9"
    bad2 = exp.alternatives[0].steps[1]
    bad2.start = "b0"
    exp.alternatives[0].steps[1] = PlanStep(bad2.id, bad2.agent, bad2.action, bad2.model, "outside", "b9")
    plan.order.append(("outside", "b0"))
    with pytest.raises(MalformedExpansion):
        flatten_hierarchy(plan)


def test_sub_step_reusing_the_expanded_id_is_malformed():
    kb, _diags = parse_kb(SourceDocument(HIERARCHY_KB, "k"))
    _plan, diags = parse_plan(SourceDocument(SELF_EXPANDING_PLAN, "p"), kb)
    assert [d.render("p") for d in diags] == [
        "p:0:0: plan: sub-step big of big reuses the id of a step being expanded"]


def test_per_agent_order_preserved_by_linearization():
    _kb, plan = load(OVERLAP_KB, OVERLAP_PLAN)
    out = linearize(plan)
    position = {b: i for i, b in enumerate(out)}
    per_agent = {}
    for step in plan.steps:
        per_agent.setdefault(step.agent, []).append(step)
    for steps in per_agent.values():
        for prev, nxt in zip(steps, steps[1:]):
            assert position[prev.end] <= position[nxt.start]
