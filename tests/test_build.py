"""Construction pipeline: worked scenarios, completion, exact state sets, determinism."""

import collections
import itertools
import math
import os
import random
import sys
import types

import numpy as np
import pytest

from planeval import (
    BuildOptions,
    BuildError,
    GroundAtom,
    Query,
    build_pe_net,
    canonical_dump,
    exact_query,
    flatten_hierarchy,
    TooLarge,
    leads_to_success,
    linearize,
    PlanEvalError,
    plan_success,
    validate_kb,
)
from planeval import build as build_module
from planeval import net as net_module
from planeval.build import make_schedule, split_situations
from planeval.net import Alias, PENet, Fragment, FragmentNode, FragmentRow, SituationId, atom_node, finalize, paste_into, sel_node
from planeval.plan import Plan

import instance_gen
import trajectory_oracle as oracle
from joint_oracle import oracle_enumerate
from fixtures import (
    CONTINGENT_KB,
    DURING_KB,
    DURING_PLAN,
    DURING_ROWS_KB,
    DURING_ROWS_PLAN,
    HELD_KB,
    HIERARCHY_KB,
    HIERARCHY_PLAN,
    INVERTED_KB,
    MOVE_KB,
    RELIABLE_MOVE_KB,
    RELIABLE_MOVE_PLAN,
    SHARED_BOUNDARY_PLAN,
    SWAPPED_COPY_KB,
    SWAPPED_COPY_PLAN,
    TWO_STEP_PLAN,
    UNMATCHED_DERIVED_KB,
    UNMATCHED_DERIVED_PLAN,
    contingent_plan,
    held_plan,
    load,
    load_kb,
)

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
import workloads  # noqa: E402 - the benchmark's instance generators


def build(kb_text, plan_text, opts=None):
    kb, plan = load(kb_text, plan_text)
    return kb, plan, build_pe_net(plan, kb, opts)


# -- the two-step worked example ------------------------------------------


def test_two_step_plan_structure():
    _kb, _plan, net = build(MOVE_KB, TWO_STEP_PLAN)
    a1 = net.find("(Loc A)", "S1")
    b1 = atom_node(GroundAtom("Loc", ("B",)), SituationId(1))
    b2 = net.find("(Loc B)", "S2")
    assert net.row_provenance(a1, ("L1",)) == "action s1"
    # no step moves B by S1: an alias of (Loc B)@S0, which answers as the no-change copy did
    assert net.aliases[b1].source == net.find("(Loc B)", "S1") == net.find("(Loc B)", "S0")
    assert net.row_provenance(b1, ("L3",)) == "default-persistence"
    assert net.row_provenance(b2, ("L3",)) == "action s2"
    # the partially covered (Loc A)@S2 mixes KB persistence and the default
    a2 = net.nodes[net.find("(Loc A)", "S2")]
    sources = set(a2.provenance.values())
    assert sources == {"persistence (Loc ?obj)", "default-persistence"}


def test_a_selector_alias_answers_row_provenance_from_its_record():
    # sel(b0)@S0 picks c2 when (Risk)@S0 is high and falls back to c1 otherwise
    _kb, _plan, net = build(HIERARCHY_KB, HIERARCHY_PLAN)
    sel, risk = sel_node("b0", SituationId(0)), net.find("(Risk)", "S0")
    assert net.aliases[sel] == Alias(risk, ("c1", "c2"), ("c1", "c2"), ("selector-default b0", "selector b0"))
    assert [net.row_provenance(sel, (state,)) for state in ("low", "high")] == ["selector-default b0", "selector b0"]
    with pytest.raises(PlanEvalError, match=r"node sel\(b0\)@S0 has no row for parent states \('c1',\)"):
        net.row_provenance(sel, ("c1",))  # a combination is of the source's states
    assert net.states_of(sel) == ["c1", "c2"] and net.node_of(sel) is net.nodes[risk]
    assert ("\nalias sel(b0)@S0 -> (Risk)@S0\n  map (low) -> c1  # selector-default b0\n"
            "  map (high) -> c2  # selector b0\n") in canonical_dump(net)


def test_a_node_whose_last_writer_relabels_one_node_is_an_alias():
    kb, plan, net = build(SWAPPED_COPY_KB, SWAPPED_COPY_PLAN)
    x1, y0 = atom_node(GroundAtom("X"), SituationId(1)), atom_node(GroundAtom("Y"), SituationId(0))
    assert net.aliases[x1] == Alias(y0, ("a", "b"), ("b", "a"), ("action s2", "action s2"))
    # it lists its states in schema order, and ``find`` gives its own name, which queries read as relabelled
    assert net.states_of(x1) == ["a", "b"] and net.find("(X)", "S1") == x1 and x1 not in net.nodes
    assert exact_query(net, Query(targets=[(net.find("(X)", "S1"), "b")])).probability == 0.25
    assert leads_to_success(net, plan).probability == 0.75


def test_a_finalized_net_refuses_writes_to_its_rows():
    _kb, _plan, net = build(MOVE_KB, TWO_STEP_PLAN)
    node = net.nodes[net.find("(Loc A)", "S1")]
    before = canonical_dump(net)
    with pytest.raises(TypeError):
        node.cpt[("zz",)] = {"L1": 1.0}
    with pytest.raises(TypeError):
        node.provenance[("L1",)] = "forged"
    with pytest.raises(ValueError):
        node.table[0, 0] = 0.5
    with pytest.raises(AttributeError):
        node.cpt = {}
    node.cpt[("L1",)]["L1"] = 0.5  # a row read out is a copy
    assert ("zz",) not in node.cpt
    assert canonical_dump(net) == before


def test_row_provenance_of_a_missing_row_is_a_typed_error():
    _kb, _plan, net = build(MOVE_KB, TWO_STEP_PLAN)
    a0, a1 = net.find("(Loc A)", "S0"), net.find("(Loc A)", "S1")
    with pytest.raises(PlanEvalError, match=r"node \(Loc A\)@S0 has no row for parent states \('nope',\)"):
        net.row_provenance(a0, ("nope",))
    with pytest.raises(PlanEvalError, match=r"node \(Loc A\)@S1 has no row for parent states \('L3',\)"):
        net.row_provenance(a1, ("L3",))  # (Loc A)@S0 never takes L3
    with pytest.raises(PlanEvalError, match=r"no node \(Loc C\)@S1 in net"):
        net.row_provenance(atom_node(GroundAtom("Loc", ("C",)), a1.sit), ("L1",))
    assert net.row_provenance(a0, ()) == "initial"


def test_empty_plan_keeps_priors():
    kb, plan = load(MOVE_KB, "initial { (Loc A)=L1:0.25 (Loc A)=L2:0.75 }\ngoal { (Loc A)=L2 }")
    net = build_pe_net(plan, kb)
    assert [str(s) for s in net.situation_order] == ["S0"]
    assert leads_to_success(net, plan).probability == 0.75


def test_build_requires_clean_kb():
    kb = load_kb(INVERTED_KB)
    with pytest.raises(BuildError):
        build_pe_net(Plan(), kb)


def test_oversized_table_is_a_typed_forward_error():
    # seventy writes during a gated step give one node more parents than a
    # numpy array has axes; the node is refused when it is made
    kb, plan = load(HELD_KB, held_plan(70))
    assert build(HELD_KB, held_plan(3))[2].finalized
    with pytest.raises(BuildError) as exc:
        build_pe_net(plan, kb)
    assert exc.value.stage == "forward"
    assert isinstance(exc.value.cause, TooLarge)
    assert f"dimensions, above {net_module._MAX_TABLE_DIMS}" in str(exc.value.cause)


# (P)@S1 reads (Q x1) and (Q x2): four combinations, one uncovered, so it
# also reads (P)@S0, a table of 2 x 2 x 3 rows of 3 states, 36 cells.
FAN_IN_KB = """
predicate (P) kind=primitive states { u v w }
predicate (Q ?x) kind=primitive states { a b }
action (Mix) level=0 { effect (P) { (Q x1)=a -> { v:1.0 } (Q x2)=a -> { w:1.0 } } }
"""

FAN_IN_PLAN = """
step s1 ag (Mix) start=b0 end=b1
initial { (P)=u:0.4 (P)=v:0.3 (P)=w:0.3 (Q x1)=a:0.5 (Q x1)=b:0.5 (Q x2)=a:0.5 (Q x2)=b:0.5 }
goal { (P)=v }
"""


def _guard_enumeration(monkeypatch, cap):
    """Fail any ``itertools.product`` of more than ``cap`` combinations."""
    product = itertools.product

    def guarded(*pools, repeat=1):
        size = math.prod(len(pool) for pool in pools) ** repeat
        assert size <= cap, f"enumerated {size} combinations"
        return product(*pools, repeat=repeat)

    monkeypatch.setattr(itertools, "product", guarded)


def _guard_gap_test_allocation(monkeypatch, cap):
    """Fail any array of more than ``cap`` cells the sweep's gap test makes."""
    zeros = np.zeros

    def guarded(shape, *args, **kwargs):
        size = math.prod(shape)
        assert size <= cap, f"allocated {size} cells"
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(build_module, "np", types.SimpleNamespace(**{**vars(np), "zeros": guarded}))


@pytest.mark.parametrize("cap, message", [
    (3, "node (P)@S1 reads 4 parent combinations, above 3"),
    (5, "node (P)@S1 needs a table of 36 cells, above 5"),
])
def test_guards_trip_before_enumerating_combinations(monkeypatch, cap, message):
    # the gap test neither enumerates nor allocates past the cap; the table is refused before it is made
    kb, plan = load(FAN_IN_KB, FAN_IN_PLAN)
    assert build_pe_net(plan, kb).finalized
    _guard_enumeration(monkeypatch, cap)
    _guard_gap_test_allocation(monkeypatch, cap)
    monkeypatch.setattr(build_module, "MAX_FACTOR_CELLS", cap)
    monkeypatch.setattr(net_module, "MAX_FACTOR_CELLS", cap)
    with pytest.raises(BuildError) as exc:
        build_pe_net(plan, kb)
    assert exc.value.stage == "forward"
    assert isinstance(exc.value.cause, TooLarge)
    assert str(exc.value.cause) == message


def _key_probe(n, certain=False):
    """One node (Z) written by n parallel steps, row i reading its own (K ki)=on:
    each key even odds of on, or on for certain."""
    kb_text = """
predicate (Z) kind=primitive states { off on }
predicate (K ?k) kind=primitive states { off on }
action (Set ?k) level=0 { effect (Z) { (K ?k)=on -> { on:0.9 off:0.1 } } }
"""
    plan_text = "".join(f"step s{i} ag{i} (Set k{i}) start=b0 end=b1\n" for i in range(n))
    prior = "(K k{0})=on" if certain else "(K k{0})=on:0.5 (K k{0})=off:0.5"
    priors = " ".join(prior.format(i) for i in range(n))
    return load(kb_text, plan_text + f"initial {{ (Z)=off {priors} }}\ngoal {{ (Z)=on }}\n")


def test_a_node_read_through_many_partial_rows_builds_without_enumerating(monkeypatch):
    # 16 binary keys: the gap test marks 2^16 combinations in one array, enumerating none
    kb, plan = _key_probe(16)
    _guard_enumeration(monkeypatch, 2 ** 12)
    net = build_pe_net(plan, kb)
    assert leads_to_success(net, plan).probability == pytest.approx(0.9 * (1 - 2 ** -16), abs=1e-12)


def test_many_one_state_keys_are_a_typed_dimension_error():
    # a key of one state takes no axis of the gap test; the node's table is refused when it is made
    kb, plan = _key_probe(net_module._MAX_TABLE_DIMS + 6, certain=True)
    with pytest.raises(BuildError) as exc:
        build_pe_net(plan, kb)
    assert exc.value.stage == "forward"
    assert isinstance(exc.value.cause, TooLarge)
    assert f"dimensions, above {net_module._MAX_TABLE_DIMS}" in str(exc.value.cause)


def _enumerated_leaves_open(states, rows, fillers=None):
    """The gap test by enumeration: the reachable combinations the feasible
    rows cover, against every combination or a feasible filler's."""
    conditions = [row.condition for row in rows]
    keys = list(dict.fromkeys(key for condition in conditions + (fillers or []) for key in condition))

    def combos(condition):
        if any(state not in states[key] for key, state in condition.items()):
            return []
        return itertools.product(*[(condition[key],) if key in condition else states[key] for key in keys])

    covered = {combo for condition in conditions for combo in combos(condition)}
    if fillers is None:
        return len(covered) < math.prod(len(states[key]) for key in keys)
    return any(combo not in covered for condition in fillers for combo in combos(condition))


def _random_condition(rng, keys):
    """Pins on some of ``keys``; a pin may name a state its key cannot reach."""
    return {key: rng.choice("abcx") for key in rng.sample(keys, rng.randint(0, len(keys)))}


def test_the_gap_test_agrees_with_enumeration():
    answers = collections.Counter()
    for seed in range(500):
        rng = random.Random(seed)
        keys = [f"k{i}" for i in range(rng.randint(1, 6))]
        states = {key: ["a", "b", "c"][:rng.randint(1, 3)] for key in keys}
        rows = [FragmentRow("z", _random_condition(rng, keys), {"on": 1.0}) for _ in range(rng.randint(0, 5))]
        fillers = None if seed % 2 else [_random_condition(rng, keys) for _ in range(rng.randint(0, 3))]
        expected = _enumerated_leaves_open(states, rows, fillers)
        coverage = build_module._Coverage(states, rows)
        assert (coverage.open() if fillers is None else coverage.opens(fillers)) == expected, seed
        answers[fillers is None, expected] += 1
    assert min(answers.values()) > 25, answers  # both answers, with fillers and without


# (P p)@S1 reads (Q x1), its previous state and the elapsed node: a table of
# 8 cells; no other node's table is above 4 cells. Its no-change fill row
# pins only the previous state.
WIDE_FILL_KB = """
predicate (P ?x) kind=primitive states { u v }
predicate (Q ?x) kind=primitive states { a b }
action (Mix) level=0 { duration { 1:0.5 4:0.5 } effect (P p) { (Q x1)=a -> { v:1.0 } } }
persistence (P ?x) elapsed { [0,3) [3,inf) } {
  u [0,3) -> { u:0.5 v:0.5 }
  u [3,inf) -> { v:1.0 }
}
"""

WIDE_FILL_PLAN = """
step s1 ag (Mix) start=b0 end=b1
initial { (P p)=u (Q x1)=a:0.5 (Q x1)=b:0.5 }
goal { (P p)=v }
"""


def test_a_fill_row_past_the_cap_is_a_typed_forward_error(monkeypatch):
    # the node the fill row writes is refused when it is made, before any fill
    kb, plan = load(WIDE_FILL_KB, WIDE_FILL_PLAN)
    assert build_pe_net(plan, kb, BuildOptions(clock_enabled=True)).finalized
    monkeypatch.setattr(build_module, "MAX_FACTOR_CELLS", 4)
    monkeypatch.setattr(net_module, "MAX_FACTOR_CELLS", 4)
    with pytest.raises(BuildError) as exc:
        build_pe_net(plan, kb, BuildOptions(clock_enabled=True))
    assert exc.value.stage == "forward"
    assert isinstance(exc.value.cause, TooLarge)
    assert str(exc.value.cause) == "node (P p)@S1 needs a table of 8 cells, above 4"


def test_invalid_caps_rejected():
    kb, plan = load(MOVE_KB, TWO_STEP_PLAN)
    from planeval import PlanEvalError
    with pytest.raises(PlanEvalError):
        build_pe_net(plan, kb, BuildOptions(clock_cap=1))


def test_unknown_selector_reference_rejected():
    from planeval import SourceDocument, parse_kb, parse_plan
    from planeval.errors import UnknownConditionNode

    plan_text = """
step f1 a1 (FixA m) start=b0 end=b1
contingent at b0 {
  sel(nowhere)=f9 -> f1
}
initial { (S m)=ok (R m)=lo }
goal { (R m)=hi }
"""
    kb, _ = parse_kb(SourceDocument(CONTINGENT_KB, "kb"))
    plan, _diags = parse_plan(SourceDocument(plan_text, "plan"), kb)
    with pytest.raises((BuildError, UnknownConditionNode)):
        build_pe_net(plan, kb)



@pytest.mark.parametrize("kb_text, plan_text, message", [
    (CONTINGENT_KB, SHARED_BOUNDARY_PLAN, "two contingency groups share boundary 'b0'"),
    (CONTINGENT_KB, """
step f1 a1 (FixA m) start=b0 end=b1
step g1 a1 (FixB m) start=b1 end=b2
contingent at b0 { (S m)=ok -> { f1:0.5 g1:0.5 } }
initial { (S m)=ok (R m)=lo }
goal { (R m)=hi }
""", "contingent step g1 starts at 'b1', not at the group boundary 'b0'"),
    (RELIABLE_MOVE_KB, """
step s1 a1 (Move X L1 L2) start=b0 end=b1
initial { (Loc X)=L1 (At L1)=X }
goal { (Loc X)=L2 }
""", "initial state mentions derived atom (At L1)"),
], ids=["shared-boundary", "off-boundary", "derived-initial"])
def test_a_plan_the_schedule_cannot_take_fails_at_the_schedule_stage(kb_text, plan_text, message):
    kb, plan = load(kb_text, plan_text)
    with pytest.raises(BuildError) as caught:
        build_pe_net(plan, kb)
    assert caught.value.stage == "schedule"
    assert str(caught.value.cause) == message


UNDEFINED_DERIVED_KB = """
predicate (D) kind=derived states { y n }
"""


def _plan_reading(kb_text: str, atom: GroundAtom):
    return load_kb(kb_text), Plan(initial={atom: {"ok": 1.0}})


@pytest.mark.parametrize("case, message", [
    (lambda: _plan_reading(MOVE_KB, GroundAtom("Nowhere")), "(Nowhere) references undeclared predicate"),
    (lambda: _plan_reading(MOVE_KB, GroundAtom("Loc", ("?x",))), "(Loc ?x) is not ground"),
    (lambda: load(UNDEFINED_DERIVED_KB, "goal { (D)=y }"), "no derived definition matches (D)"),
], ids=["undeclared", "not-ground", "no-derived-definition"])
def test_the_universe_refuses_an_atom_it_cannot_place_at_the_schedule_stage(case, message):
    kb, plan = case()
    with pytest.raises(BuildError) as caught:
        build_pe_net(plan, kb)
    assert caught.value.stage == "schedule"
    assert str(caught.value.cause) == message
    assert str(caught.value) == f"pipeline stage 'schedule': {message}"


# -- derived-effect regression ---------------------------------------------


def test_reliable_move_derived_regression():
    _kb, plan, net = build(RELIABLE_MOVE_KB, RELIABLE_MOVE_PLAN)
    p_loc = exact_query(net, Query(targets=[(net.find("(Loc X)", "S1"), "L2")])).probability
    p_at = exact_query(net, Query(targets=[(net.find("(At L1)", "S1"), "X")])).probability
    assert abs(p_loc - 1.0) <= 1e-12
    assert abs(p_at - 0.0) <= 1e-12
    # the action model, not persistence, supplies the moved object's row
    assert net.row_provenance(net.find("(Loc X)", "S1"), ("L1",)) == "action s1"


def test_derived_definition_matching_no_reachable_state_fails_at_forward():
    kb, plan = load(UNMATCHED_DERIVED_KB, UNMATCHED_DERIVED_PLAN)
    with pytest.raises(BuildError) as info:
        build_pe_net(plan, kb)
    assert info.value.stage == "forward"
    assert "derived definition for (At) matches no reachable state at S0" in str(info.value)


# -- partial-model completion -----------------------------------------------


PARTIAL_KB = """
predicate (P) kind=primitive states { a b c }
action (Poke) level=0 {
  effect (P) { (P)=a -> { b:1.0 } }
}
persistence (P) {
  b -> { b:0.5 c:0.5 }
}
"""

PARTIAL_PLAN = """
step s1 ag (Poke) start=b0 end=b1
initial { (P)=a:0.5 (P)=b:0.25 (P)=c:0.25 }
goal { (P)=b }
"""


def test_partial_action_rows_completed_by_persistence_then_default():
    _kb, plan, net = build(PARTIAL_KB, PARTIAL_PLAN)
    node = net.nodes[net.find("(P)", "S1")]
    assert net.row_provenance(node.id, ("a",)) == "action s1"
    assert net.row_provenance(node.id, ("b",)) == "persistence (P)"
    assert net.row_provenance(node.id, ("c",)) == "default-persistence"
    assert node.cpt[("c",)] == {"c": 1.0}
    # joint sanity: P(P=b @S1) = 0.5 (action) + 0.25*0.5 (persistence)
    p = exact_query(net, Query(targets=[(node.id, "b")])).probability
    assert abs(p - 0.625) <= 1e-12


def test_no_incomplete_cpts_after_backward_pass():
    for seed in range(20):
        kb, plan = instance_gen.generate(seed)
        net = build_pe_net(plan, kb)  # finalize inside raises IncompleteCPT on any gap
        assert net.finalized


# -- contingency merging ------------------------------------------------------


@pytest.mark.parametrize("weight", [0.0, 0.2, 0.5, 1.0])
def test_contingent_mixture_matches_single_action_nets(weight):
    kb, plan, net = build(CONTINGENT_KB, contingent_plan(weight))
    p = leads_to_success(net, plan).probability
    expected = weight * 0.7 + (1.0 - weight) * 0.2
    assert abs(p - expected) <= 1e-9


def test_selector_on_prior_selection_node():
    kb_text = CONTINGENT_KB
    plan_text = """
step f1 a1 (FixA m) start=b0 end=b1
step f2 a2 (FixB m) start=b0 end=b1
step g1 a3 (FixA m) start=b1 end=b2
step g2 a4 (FixB m) start=b1 end=b2
contingent at b0 {
  (S m)=ok -> { f1:0.5 f2:0.5 }
}
contingent at b1 {
  sel(b0)=f1 -> g2
  sel(b0)=f2 -> g1
}
initial { (S m)=ok (R m)=lo }
goal { (R m)=hi }
"""
    kb, plan, net = build(kb_text, plan_text)
    # the b1 selection relabels the b0 one: an alias of it, not a node
    earlier, later = sel_node("b0", SituationId(0)), sel_node("b1", SituationId(1))
    assert [nid for nid in net.nodes if nid.ref[0] == "sel"] == [earlier]
    assert net.nodes[earlier].states == ["f1", "f2"]
    assert net.aliases[later] == Alias(earlier, ("g2", "g1"), ("g2", "g1"), ("selector b1", "selector b1"))
    assert net.row_provenance(later, ("f2",)) == "selector b1"
    # mixture: half the worlds run f1 then g2, half f2 then g1
    p = leads_to_success(net, plan).probability
    expected = 0.5 * 0.2 + 0.5 * 0.7
    assert abs(p - expected) <= 1e-9


def test_noop_alternative_falls_back_to_persistence():
    plan_text = """
step f1 a1 (FixA m) start=b0 end=b1
contingent at b0 {
  (S m)=ok -> { f1:0.5 noop:0.5 }
}
initial { (S m)=ok (R m)=lo }
goal { (R m)=hi }
"""
    kb, plan, net = build(CONTINGENT_KB, plan_text)
    sel = [nid for nid in net.nodes if nid.ref[0] == "sel"][0]
    assert "noop" in net.nodes[sel].states
    p = leads_to_success(net, plan).probability
    assert abs(p - 0.5 * 0.7) <= 1e-9


# -- during conditions and effects -------------------------------------------


def test_during_effect_lands_on_intermediate_situation():
    _kb, plan, net = build(DURING_KB, DURING_PLAN)
    noise = net.find("(Noise)", "S1")
    assert net.nodes[noise].parents == []  # the during rows cover it: no persistence parent
    assert net.row_provenance(noise, ()) == "during asm"
    p = exact_query(net, Query(targets=[(noise, "loud")])).probability
    assert abs(p - 1.0) <= 1e-12


def test_during_condition_gates_named_effect_only():
    _kb, plan, net = build(DURING_KB, DURING_PLAN)
    p_built = leads_to_success(net, plan).probability
    p_mark = exact_query(net, Query(targets=[(net.find("(Mark W)", "S2"), "yes")])).probability
    assert abs(p_built - 0.6) <= 1e-9  # gated by (Power)=on at S1
    assert abs(p_mark - 1.0) <= 1e-9  # ungated consequence fires regardless


def test_nullify_action_reverts_all_consequences():
    _kb, plan, net = build(DURING_KB, DURING_PLAN, BuildOptions(during_failure_semantics="nullify-action"))
    p_mark = exact_query(net, Query(targets=[(net.find("(Mark W)", "S2"), "yes")])).probability
    assert abs(p_mark - 0.6) <= 1e-9


def test_step_without_intermediates_unaffected():
    kb_text = DURING_KB
    plan_text = """
step asm a1 (Assemble W) start=b0 end=b1
initial { (Power)=on (Noise)=quiet (Built W)=no (Mark W)=no }
goal { (Built W)=yes }
"""
    _kb, plan, net = build(kb_text, plan_text)
    assert leads_to_success(net, plan).probability == 1.0


def test_during_condition_over_two_intermediates():
    plan_text = """
step asm a1 (Assemble W) start=b0 end=b3
step cut1 a2 (Cut) start=b0 end=b1
step cut2 a2 (Cut) start=b1 end=b2
before b2 b3
initial { (Power)=on (Noise)=quiet (Built W)=no (Mark W)=no }
goal { (Built W)=yes }
"""
    _kb, plan, net = build(DURING_KB, plan_text)
    # the gate must hold at both S1 and S2: P(on,on) = 0.6 * 0.6
    p = leads_to_success(net, plan).probability
    assert abs(p - 0.36) <= 1e-9
    gates = [p for p in net.nodes[net.find("(Built W)", "S3")].parents if p.ref[0] == "atom" and p.ref[1] == "Power"]
    assert len(gates) == 2


# (Alarm) is derived from (Noise) and (Power); (Noise)@S1 is loud exactly
# when asm is selected, so it would relabel the selection node.
ALARM_KB = DURING_KB + """
predicate (Alarm) kind=derived states { off on }
derived (Alarm) from { (Noise) (Power) } {
  (Noise)=quiet -> { off:1.0 }
  (Noise)=loud (Power)=on -> { on:1.0 }
  (Noise)=loud (Power)=off -> { off:1.0 }
}
"""

ALARM_PLAN = """
step asm a1 (Assemble W) start=b0 end=b2
step cut a2 (Cut) start=b0 end=b1
before b1 b2
contingent at b0 {
  (Power)=on -> { asm:0.5 noop:0.5 }
}
initial { (Power)=on (Noise)=quiet (Built W)=no (Mark W)=no }
goal { (Alarm)=on }
"""


def test_an_atom_a_derived_node_reads_relabels_only_a_primitive():
    # A derived node takes primitive parents only, so (Noise)@S1 stays a node
    # instead of an alias of sel(b0)@S0; (Mark W)@S2, which no derived node
    # reads, is an alias of the selection.
    kb, plan, net = build(ALARM_KB, ALARM_PLAN)
    noise = net.find("(Noise)", "S1")
    assert noise in net.nodes and sel_node("b0", SituationId(0)) in net.nodes[noise].parents
    assert net.aliases[atom_node(GroundAtom("Mark", ("W",)), SituationId(2))].source.ref == ("sel", "b0")
    flat = flatten_hierarchy(plan)
    worlds = oracle.enumerate_trajectories(kb, flat, linearize(flat))
    want = oracle.goal_probability(kb, worlds, flat, len(net.situation_order) - 1)
    assert abs(leads_to_success(net, plan).probability - want) <= 1e-12 and abs(want - 0.3) <= 1e-12


def test_contingent_step_with_during_clauses_matches_oracle():
    kb_text = DURING_KB + """
predicate (Go) kind=primitive states { ok no }
"""
    plan_text = """
step asm a1 (Assemble W) start=b0 end=b2
step cut a2 (Cut) start=b0 end=b1
before b1 b2
contingent at b0 {
  (Go)=ok -> { asm:0.5 noop:0.5 }
}
initial { (Go)=ok (Power)=on (Noise)=quiet (Built W)=no (Mark W)=no }
goal { (Built W)=yes }
"""
    kb, plan, net = build(kb_text, plan_text)
    flat = flatten_hierarchy(plan)
    order = linearize(flat)
    worlds = oracle.enumerate_trajectories(kb, flat, order)
    atoms = oracle._universe(kb, flat)
    final = len(order) - 1
    for atom in atoms:
        expected = oracle.marginal(worlds, atom, final)
        nid = atom_node(atom, net.situation_order[-1])
        for state in net.states_of(nid):
            got = exact_query(net, Query(targets=[(nid, state)])).probability
            assert abs(got - expected.get(state, 0.0)) <= 1e-9, (str(atom), state)
    # sanity: the guarded during effect fires only when the step is selected
    noise = net.find("(Noise)", "S1")  # loud exactly when asm is selected: an alias of the selection
    assert net.aliases[noise].source.ref == ("sel", "b0")
    p_loud = exact_query(net, Query(targets=[(noise, "loud")])).probability
    assert abs(p_loud - 0.5) <= 1e-9


def test_during_effect_rows_of_every_form_match_oracle():
    kb, plan, net = build(DURING_ROWS_KB, DURING_ROWS_PLAN)
    flat = flatten_hierarchy(plan)
    order = linearize(flat)
    worlds = oracle.enumerate_trajectories(kb, flat, order)
    expected = oracle.goal_probability(kb, worlds, flat, len(order) - 1)
    assert abs(leads_to_success(net, plan).probability - expected) <= 1e-9
    # S2 is where each row form applies somewhere: (Power)=off at S1 picks the
    # conditioned row, (Noise)=quiet the shorthand row, anything else the `*` row
    noise = net.find("(Noise)", "S2")
    marginal = oracle.marginal(worlds, GroundAtom("Noise"), 2)
    assert set(marginal) == {"quiet", "hum", "loud"}
    for state, p in marginal.items():
        assert abs(exact_query(net, Query(targets=[(noise, state)])).probability - p) <= 1e-9


def test_always_false_during_condition_under_nullify_equals_no_action():
    kb_text = """
predicate (Flag) kind=primitive states { off on }
predicate (Goal) kind=primitive states { no yes }
predicate (Tick) kind=primitive states { t0 t1 }
action (Work) level=0 {
  effect (Goal) { * -> { yes:1.0 } }
  during-cond (Flag)=on
}
action (Beat) level=0 { effect (Tick) { * -> { t1:1.0 } } }
"""
    plan_text = """
step w a1 (Work) start=b0 end=b2
step t a2 (Beat) start=b0 end=b1
before b1 b2
initial { (Flag)=off (Goal)=no (Tick)=t0 }
goal { (Goal)=yes }
"""
    kb, plan = load(kb_text, plan_text)
    net = build_pe_net(plan, kb, BuildOptions(during_failure_semantics="nullify-action"))
    assert leads_to_success(net, plan).probability == 0.0


# -- hierarchy ---------------------------------------------------------------


def test_hierarchy_residual_comes_from_abstract_model():
    _kb, plan, net = build(HIERARCHY_KB, HIERARCHY_PLAN)
    side = net.find("(Side T)", "S2")
    node = net.nodes[side]
    assert all(src == "residual big" for src in node.provenance.values())
    p = exact_query(net, Query(targets=[(side, "dirty")])).probability
    assert abs(p - 0.3) <= 1e-9


# BigFix's (Side ?t) effect reads (Dust), which changes on its own between the
# abstract step's start and end, and no sub-step touches (Side ?t): the residual
# effect's rows must read (Dust) at the abstract step's start situation.
DUSTY_KB = HIERARCHY_KB.replace(
    "  effect (Side ?t) { * -> { dirty:0.3 clean:0.7 } }",
    "  effect (Side ?t) {\n    (Dust)=some -> { dirty:0.9 clean:0.1 }\n    (Dust)=none -> { dirty:0.2 clean:0.8 }\n  }",
) + """
predicate (Dust) kind=primitive states { none some }
persistence (Dust) { none -> { none:0.5 some:0.5 } }
"""

DUSTY_PLAN = HIERARCHY_PLAN.replace("(Risk)=high:0.25 }", "(Risk)=high:0.25 (Dust)=none:0.7 (Dust)=some:0.3 }").replace(
    "goal { (Done T)=yes }", "goal { (Done T)=yes (Side T)=clean }")


def test_residual_rows_read_their_conditions_at_the_abstract_start():
    kb, plan, net = build(DUSTY_KB, DUSTY_PLAN)
    assert DUSTY_KB != HIERARCHY_KB and DUSTY_PLAN != HIERARCHY_PLAN
    side = net.find("(Side T)", "S2")
    assert set(net.nodes[side].provenance.values()) == {"residual big"}
    parents = net.nodes[side].parents
    assert net.find("(Dust)", "S0") in parents and net.find("(Dust)", "S1") not in parents
    flat = flatten_hierarchy(plan)
    order = linearize(flat)
    worlds = oracle.enumerate_trajectories(kb, flat, order)
    for atom in oracle._universe(kb, flat):
        expected = oracle.marginal(worlds, atom, len(order) - 1)
        nid = atom_node(atom, net.situation_order[-1])
        for state in net.states_of(nid):
            got = exact_query(net, Query(targets=[(nid, state)])).probability
            assert abs(got - expected.get(state, 0.0)) <= 1e-9, (str(atom), state)
    want = oracle.goal_probability(kb, worlds, flat, len(order) - 1)
    assert abs(leads_to_success(net, plan).probability - want) <= 1e-9


def test_abstract_step_without_expansion_uses_abstract_model():
    plan_text = """
step big a1 (BigFix T) start=b0 end=b1
initial { (Done T)=no (Side T)=clean (Risk)=low }
goal { (Done T)=yes }
"""
    _kb, plan, net = build(HIERARCHY_KB, plan_text)
    assert abs(leads_to_success(net, plan).probability - 0.9) <= 1e-9


NESTED_KB = HIERARCHY_KB + """
predicate (Extra) kind=primitive states { off on }
action (MidFix ?t) level=1 {
  effect (Done ?t) { * -> { yes:0.7 no:0.3 } }
  effect (Extra) { * -> { on:0.6 off:0.4 } }
}
"""

NESTED_PLAN = """
step big a1 (BigFix T) start=b0 end=b9
expand big {
  selected c1 (MidFix T)
  alt c2 (AltFix T) cond=(Risk)=high
}
expand c1 {
  selected w {
    step w1 a1 (StepOne T) start=b0 end=m1
    step w2 a1 (StepTwo T) start=m1 end=b9
  }
}
initial { (Done T)=no (Side T)=clean (Extra)=off (Risk)=low:0.75 (Risk)=high:0.25 }
goal { (Done T)=yes }
"""


def test_nested_expansion_from_dsl():
    from planeval import plan_success

    kb, plan, net = build(NESTED_KB, NESTED_PLAN)
    # the inner expansion has one alternative: spliced, no second selection;
    # the outer one mirrors its condition's atom, so it is an alias of it
    sels = [nid for nid in [*net.nodes, *net.aliases] if nid.ref[0] == "sel"]
    assert len(sels) == 1 and net.aliases[sels[0]].source == net.find("(Risk)", "S0")
    lead = leads_to_success(net, plan).probability
    succ = plan_success(net, plan).probability
    assert abs(lead - (0.75 * 0.8 + 0.25 * 0.5)) <= 1e-9
    assert abs(succ - 0.75 * 0.8) <= 1e-9
    # the mid-level model's untouched consequence survives on its branch only
    extra = net.find("(Extra)", "S2")
    p_on = exact_query(net, Query(targets=[(extra, "on")])).probability
    assert abs(p_on - 0.75 * 0.6) <= 1e-9
    assert "residual c1" in set(net.nodes[extra].provenance.values())


def two_level_plan(outer: str) -> str:
    """Two selections: big's at b0 (c1 or c2, ``outer`` selected) and, under
    c2, p2's at m2 (d1 selected). The unselected outer alternative has a
    condition, so both outer labels are taken in some world."""
    conds = {"c1": "cond=(Risk)=low", "c2": "cond=(Risk)=high"}
    word, cond = ({alt: ("selected" if alt == outer else "alt") for alt in conds},
                  {alt: ("" if alt == outer else conds[alt]) for alt in conds})
    return f"""
step big a1 (BigFix T) start=b0 end=b9
expand big {{
  {word["c1"]} c1 {{
    step w1 a1 (StepOne T) start=b0 end=m1
    step w2 a1 (StepTwo T) start=m1 end=b9
  }} {cond["c1"]}
  {word["c2"]} c2 {{
    step p1 a1 (StepOne T) start=b0 end=m2
    step p2 a1 (MidFix T) start=m2 end=b9
  }} {cond["c2"]}
}}
expand p2 {{
  selected d1 (StepTwo T)
  alt d2 (AltFix T) cond=(Extra)=on
}}
initial {{ (Done T)=no (Side T)=clean (Extra)=off:0.4 (Extra)=on:0.6 (Risk)=low:0.75 (Risk)=high:0.25 }}
goal {{ (Done T)=yes }}
"""


@pytest.mark.parametrize("outer, path", [
    ("c1", [("sel(b0)@S0", "c1")]),  # the inner selection hangs under c2, which is not selected: off the path
    ("c2", [("sel(b0)@S0", "c2"), ("sel(m2)@S2", "d1")]),
])
def test_the_selected_path_holds_the_selections_under_selected_alternatives(outer, path):
    kb, plan, net = build(NESTED_KB, two_level_plan(outer))
    assert sorted(str(nid) for nid in [*net.nodes, *net.aliases] if nid.ref[0] == "sel") == ["sel(b0)@S0", "sel(m2)@S2"]
    assert [(str(nid), label) for nid, label in net.selected_path] == path
    chosen = {nid.ref[1]: label for nid, label in net.selected_path}  # boundary -> label
    flat = flatten_hierarchy(plan)
    order = linearize(flat)
    worlds = oracle.enumerate_trajectories(kb, flat, order)
    want = sum(w.prob for w in worlds
               if all(w.selections.get(boundary) == label for boundary, label in chosen.items())
               and all(w.states[-1][atom] == state for atom, state in plan.goals))
    assert abs(plan_success(net, plan).probability - want) <= 1e-12
    lead = oracle.goal_probability(kb, worlds, flat, len(order) - 1)
    assert abs(leads_to_success(net, plan).probability - lead) <= 1e-12


# -- exact state sets: every atom keeps each state its rows can give it ---------


SPREAD_KB = """
predicate (Reg) kind=primitive states { x1 x2 x3 x4 x5 x6 x7 x8 x9 x10 x11 x12 x13 x14 x15 }
action (Spread) level=0 {
  effect (Reg) {
    (Reg)=x1 -> { x2:0.5 x3:0.5 }
    (Reg)=x2 -> { x4:0.5 x5:0.5 }
    (Reg)=x3 -> { x6:0.5 x7:0.5 }
    (Reg)=x4 -> { x8:0.5 x9:0.5 }
    (Reg)=x5 -> { x10:0.5 x11:0.5 }
    (Reg)=x6 -> { x12:0.5 x13:0.5 }
    (Reg)=x7 -> { x14:0.5 x15:0.5 }
  }
}
"""


def spread_plan(length):
    lines = [f"step s{i} ag (Spread) start=b{i} end=b{i + 1}" for i in range(length)]
    lines.append("initial { (Reg)=x1 }")
    lines.append("goal { (Reg)=x2 }")
    return "\n".join(lines)


def test_spread_plan_matches_the_trajectory_oracle():
    kb, plan, net = build(SPREAD_KB, spread_plan(6))
    flat = flatten_hierarchy(plan)
    order = linearize(flat)
    worlds = oracle.enumerate_trajectories(kb, flat, order)
    reg = GroundAtom("Reg")
    for pos, sit in enumerate(net.situation_order):
        nid = atom_node(reg, sit)
        expected = oracle.marginal(worlds, reg, pos)
        assert set(net.states_of(nid)) == set(expected), str(sit)
        for state, p in expected.items():
            assert abs(exact_query(net, Query(targets=[(nid, state)])).probability - p) <= 1e-9, (str(sit), state)
    want = oracle.goal_probability(kb, worlds, flat, len(order) - 1)
    assert abs(leads_to_success(net, plan).probability - want) <= 1e-9


WIDE_KB = """
predicate (Reg) kind=primitive states { x0 %s }
action (Draw) level=0 { effect (Reg) { * -> { %s } } }
action (Shift) level=0 { effect (Reg) { (Reg)=x1 -> { x2:1.0 } } }
""" % (" ".join(f"x{i}" for i in range(1, 41)), " ".join(f"x{i}:0.025" for i in range(1, 41)))

WIDE_PLAN = """
step s1 ag (Draw) start=b0 end=b1
initial { (Reg)=x0 }
goal { (Reg)=x1 }
"""


def test_a_wide_draw_keeps_every_state():
    # Forty drawn states, each 0.025: none is merged away, so the goal state
    # keeps its probability under both plan metrics, up to the rounding of
    # normalizing forty 0.025s.
    _kb, plan, net = build(WIDE_KB, WIDE_PLAN)
    assert net.nodes[net.find("(Reg)", "S1")].states == [f"x{i}" for i in range(1, 41)]
    for metric in (leads_to_success, plan_success):
        assert abs(metric(net, plan).probability - 0.025) <= 1e-12, metric.__name__


def test_a_predicate_too_wide_for_the_cell_cap_is_a_typed_error(monkeypatch):
    # After the draw, (Reg)@S2 reads (Reg)@S1's forty states: a 40 x 40 table.
    plan_text = WIDE_PLAN.replace("initial", "step s2 ag (Shift) start=b1 end=b2\ninitial")
    kb, plan = load(WIDE_KB, plan_text)
    assert build_pe_net(plan, kb).finalized
    monkeypatch.setattr(net_module, "MAX_FACTOR_CELLS", 1000)
    with pytest.raises(BuildError) as exc:
        build_pe_net(plan, kb)
    assert exc.value.stage == "forward"
    assert isinstance(exc.value.cause, TooLarge)
    assert str(exc.value.cause) == "node (Reg)@S2 needs a table of 1600 cells, above 1000"


def test_identity_persistence_keeps_state_sets_constant():
    kb, plan = load(MOVE_KB, "step s1 a1 (Move A L1 L2) start=b0 end=b1\ninitial { (Loc A)=L1 (Loc B)=L3 }\ngoal { (Loc B)=L3 }")
    flat = flatten_hierarchy(plan)
    schedule = make_schedule(flat, kb, BuildOptions(), linearize(flat))
    states = schedule.analyse()
    b0, b1 = [atom_node(GroundAtom("Loc", ("B",)), si.sid) for si in schedule.situations]
    # no step moves B: (Loc B)@S1 is an alias of (Loc B)@S0, made once with its states
    assert schedule.aliases == {b1: Alias(b0, ("L3",), ("L3",), ("default-persistence",))}
    assert b1 not in states and states[b0] == ["L3"]


# -- persistence fill blocks ----------------------------------------------------

# One elapsed-time persistence model met under several keys: a two-state and a
# three-state previous situation, both signs of a split, and situations where
# no clock pair reaches one of the buckets, so the model's rows of that bucket
# are dropped. (R ?x) keeps the same previous states in and out of the split.
FILL_KB = """
predicate (P ?x) kind=primitive states { u v w }
predicate (R ?x) kind=primitive states { u v }
action (Quick ?x) level=0 { duration { 1:1.0 } effect (P ?x) { * -> { v:1.0 } } }
action (Slow ?x) level=0 { duration { 4:1.0 } effect (P ?x) { * -> { v:1.0 } } }
action (First) level=0 { duration { 2:0.5 4:0.5 } effect (P x1) { * -> { v:1.0 } } }
action (Second) level=0 { duration { 1:0.5 6:0.5 } effect (P x2) { * -> { v:1.0 } } }
persistence (P ?x) elapsed { [0,3) [3,inf) } {
  u [0,3) -> { u:0.5 w:0.5 }
  u [3,inf) -> { v:1.0 }
  w [0,3) -> { w:0.75 u:0.25 }
}
persistence (R ?x) {
  u -> { u:1.0 }
}
"""

# every clock gap is 1 at S1 and 4 at S2
QUICK_PLAN = """
step s1 ag (Quick x1) start=b0 end=b1
step s2 ag (Slow x2) start=b1 end=b2
initial { (P x1)=u (P x2)=u (P q)=u:0.5 (P q)=v:0.5 (P r)=u:0.5 (P r)=v:0.5 (P z)=u:0.5 (P z)=w:0.5 }
goal { (P q)=v }
"""

# a1 and a2 overlap, so the situation a2 ends is split in two
SPLIT_PLAN = """
step a1 agent1 (First) start=b0 end=b1
step a2 agent2 (Second) start=b0 end=b2
step a3 agent2 (Quick x3) start=b2 end=b3
initial { (P x1)=u (P x2)=u (P x3)=u (P q)=u:0.5 (P q)=v:0.5 (R q)=u }
goal { (P q)=v }
"""

TIMED = BuildOptions(clock_enabled=True)


def scheduled(kb, plan, opts):
    flat = flatten_hierarchy(plan)
    return split_situations(make_schedule(flat, kb, opts, linearize(flat)))


def swept(kb, plan, opts):
    schedule = scheduled(kb, plan, opts)
    schedule.analyse()
    return schedule


def fill_only(schedule) -> dict:
    """nid -> fill for every node that only persistence and no-change rows write."""
    return {nid: fill for nid, fill in schedule.fills.items() if not schedule.rows[nid]}


def fill_rows(schedule, nid) -> list:
    """The node's fill block as fragment rows over the node's fill axes."""
    fill = schedule.fills[nid]
    return fill.block.fragment_rows(nid, fill.parents)


def pasted(schedule, nid):
    """A node that only its fill writes, as ``paste_into`` of the fill's rows
    writes it, alone in a net with its parents: its normalized table and its
    provenance."""
    spec = schedule.nodes[nid]
    net = PENet(situation_order=[si.sid for si in schedule.situations])
    for parent in spec.parents:
        net.ensure_node(FragmentNode(parent, schedule.nodes[parent].kind, schedule.nodes[parent].states))
    node = net.ensure_node(spec)
    paste_into(net, Fragment(rows=fill_rows(schedule, nid)))
    return node.cells / node.totals[..., None], dict(node.provenance)


def assert_fills_match_paste_into(schedule, net):
    for nid in fill_only(schedule):
        table, provenance = pasted(schedule, nid)
        assert np.array_equal(net.nodes[nid].table, table), str(nid)
        assert dict(net.nodes[nid].provenance) == provenance, str(nid)


def p_node(x, sit):
    return atom_node(GroundAtom("P", (x,)), sit)


def test_fill_blocks_are_shared_per_key_and_write_what_paste_into_writes():
    kb, plan = load(FILL_KB, QUICK_PLAN)
    net, schedule = build_pe_net(plan, kb, TIMED), swept(kb, plan, TIMED)
    fills = fill_only(schedule)
    q1, r1, q2 = p_node("q", SituationId(1)), p_node("r", SituationId(1)), p_node("q", SituationId(2))
    z1, z2 = p_node("z", SituationId(1)), p_node("z", SituationId(2))
    assert {q1, r1, q2, z1, z2} <= set(fills)
    # S1 follows a two-state initial, S2 a three-state situation
    assert net.nodes[p_node("q", SituationId(0))].states == ["u", "v"]
    assert net.nodes[q1].states == ["u", "v", "w"]
    assert fills[q1].block is fills[r1].block
    assert fills[q1].block is not fills[q2].block
    # (P z) has the previous states {u, w} at both, and only the buckets differ
    assert net.nodes[p_node("z", SituationId(0))].states == net.nodes[z1].states == ["u", "w"]
    assert fills[z1].block is not fills[z2].block
    # no clock pair reaches [3,inf) at S1, nor [0,3) at S2: those rows are dropped
    for nid, bucket in ((q1, "[0,3)"), (z1, "[0,3)"), (z2, "[3,inf)")):
        (elapsed,) = [p for p in net.nodes[nid].parents if p.ref[0] == "elapsed"]
        assert net.nodes[elapsed].states == [bucket]
        kb_rows = [row for row in fill_rows(schedule, nid) if row.provenance != "default-persistence"]
        assert {row.condition[elapsed] for row in kb_rows} == {bucket}
    labels = [row.provenance for row in fill_rows(schedule, q1)]
    assert labels[:3] == ["persistence (P ?x)", "persistence (P ?x)", "default-persistence"]
    assert_fills_match_paste_into(schedule, net)


def test_a_fill_in_a_split_sub_situation_is_identity_on_the_inactive_sign():
    kb, plan = load(FILL_KB, SPLIT_PLAN)
    net, schedule = build_pe_net(plan, kb, TIMED), swept(kb, plan, TIMED)
    fills = fill_only(schedule)
    for atom, (sub, inactive) in itertools.product(("(P q)", "(R q)"), (("a", "nonnegative"), ("b", "negative"))):
        nid = net.find(atom, f"S2{sub}")
        prev = net.find(atom, net.situation_order[net.position(nid.sit) - 1])
        node = net.nodes[nid]
        (gate,) = [p for p in node.parents if p.ref[0] == "ret"]
        assert nid in fills and gate in fills[nid].parents
        idle = 0
        for combo, dist in node.cpt.items():
            values = dict(zip(node.parents, combo))
            if values[gate] == inactive:
                assert (dist, node.provenance[combo]) == ({values[prev]: 1.0}, "default-persistence"), combo
                idle += 1
        assert idle
    assert_fills_match_paste_into(schedule, net)


FILL_SCOPE_KB = """
predicate (P ?x) kind=primitive states { u v }
action (Flip ?x) level=0 { effect (P ?x) { * -> { v:1.0 } } }
persistence (P ?x) {
  u -> { u:%s v:%s }
}
"""

FILL_SCOPE_PLAN = """
step s1 ag (Flip x1) start=b0 end=b1
step s2 ag (Flip x2) start=b1 end=b2
initial { (P x1)=u (P x2)=u (P q)=u }
goal { (P q)=u }
"""


def test_fill_blocks_belong_to_one_build():
    """Two KBs differing in one persistence probability, built back to back
    and with their stages interleaved, each keep their own persistence rows."""
    loaded = [load(FILL_SCOPE_KB % pair, FILL_SCOPE_PLAN) for pair in (("0.75", "0.25"), ("0.5", "0.5"))]
    expected = [{"u": 0.75, "v": 0.25}, {"u": 0.5, "v": 0.5}]
    built = [build_pe_net(plan, kb) for kb, plan in loaded]
    schedules = [scheduled(kb, plan, BuildOptions()) for kb, plan in loaded]
    forward = [build_module._forward_build(schedule) for schedule in schedules]  # both sweeps before any fill
    for schedule, net in reversed(list(zip(schedules, forward))):
        build_module.complete_with_persistence(schedule, net)
    interleaved = [finalize(net) for net in forward]
    for net, again, dist in zip(built, interleaved, expected):
        for sit in (1, 2):
            node = net.nodes[p_node("q", SituationId(sit))]
            assert node.cpt[("u",)] == dist
            assert node.provenance[("u",)] == "persistence (P ?x)"
        assert canonical_dump(again) == canonical_dump(net)
    q1 = p_node("q", SituationId(1))
    assert schedules[0].fills[q1].block is not schedules[1].fills[q1].block


def test_a_tiling_no_clock_pair_reaches_is_decided_once_per_situation(monkeypatch):
    calls = collections.Counter()
    clock_pairs = build_module._Sweep._clock_pairs

    def counted(self):
        calls[self.si.sid] += 1
        return clock_pairs(self)

    monkeypatch.setattr(build_module._Sweep, "_clock_pairs", counted)
    # every duration passes the clock cap, so every gap lands in "none"
    kb, plan = load(FILL_KB.replace("1:1.0", "3:1.0"), QUICK_PLAN.replace("(P r)=u:0.5 (P r)=v:0.5", "(P r)=u (P s)=u"))
    net = build_pe_net(plan, kb, BuildOptions(clock_enabled=True, clock_cap=2))
    assert not [nid for nid in net.nodes if nid.ref[0] == "elapsed"]
    assert calls == {SituationId(1): 1, SituationId(2): 1}


# -- growth and determinism ----------------------------------------------------


def shuttle_plan(length):
    lines = []
    spots = ["L1", "L2"]
    for i in range(length):
        frm, to = spots[i % 2], spots[(i + 1) % 2]
        lines.append(f"step s{i} ag (Move A {frm} {to}) start=b{i} end=b{i + 1}")
    lines.append("initial { (Loc A)=L1 }")
    lines.append("goal { (Loc A)=L2 }")
    return "\n".join(lines)


def test_linear_plan_node_count_affine():
    counts = {}
    for length in range(1, 7):
        kb, plan = load(MOVE_KB, shuttle_plan(length))
        net = build_pe_net(plan, kb)
        counts[length] = len(net.nodes)
    slope = counts[2] - counts[1]
    intercept = counts[1] - slope * (1 + 1)  # node count = slope*(steps+1) + intercept
    for length in range(1, 7):
        assert counts[length] == slope * (length + 1) + intercept


def test_build_bit_deterministic():
    kb, plan = load(HIERARCHY_KB, HIERARCHY_PLAN)
    first = canonical_dump(build_pe_net(plan, kb))
    kb2, plan2 = load(HIERARCHY_KB, HIERARCHY_PLAN)
    second = canonical_dump(build_pe_net(plan2, kb2))
    assert first == second


# -- joint equivalence against the trajectory oracle ----------------------------


def net_assignment_probability(net, assignment):
    """The net's probability of a full assignment. An alias's factor is the
    table of the node it stands for: 1 where it takes its own state at its
    source's state's position, 0 elsewhere."""
    p = 1.0
    for nid, value in assignment.items():
        if nid in net.aliases:
            alias = net.aliases[nid]
            p *= alias.states[net.nodes[alias.source].at[assignment[alias.source]]] == value
            continue
        node = net.nodes[nid]
        combo = tuple(assignment[parent] for parent in node.parents)
        p *= node.cpt[combo].get(value, 0.0)
    return p


# Seeds 20 to 147 have a derived goal reading atoms of more than two states.
@pytest.mark.parametrize("seed", [*range(12), 20, 35, 56, 77, 147])
def test_joint_matches_trajectory_oracle(seed):
    kb, plan = instance_gen.generate(seed)
    assert not validate_kb(kb)
    flat = flatten_hierarchy(plan)
    order = linearize(flat)
    worlds = oracle.enumerate_trajectories(kb, flat, order)
    assert abs(sum(w.prob for w in worlds) - 1.0) <= 1e-9

    net = build_pe_net(plan, kb)
    atoms = oracle._universe(kb, flat)
    sel_bounds = [g.boundary for g in flat.contingencies]
    keyed = [atom_node(a, sit) for sit in net.situation_order for a in atoms]
    for boundary in sel_bounds:
        keyed.extend(nid for nid in [*net.nodes, *net.aliases] if nid.ref == ("sel", boundary))

    joint = oracle.joint(worlds, atoms, len(order), sel_bounds)
    for key, p_expected in joint.items():
        assignment = dict(zip(keyed, key))
        assert abs(net_assignment_probability(net, assignment) - p_expected) <= 1e-9


# -- no-change copies: aliases, not nodes ------------------------------------------


def generated_nets():
    """(timed, seed, schedule, net) for generate(0..199) and generate_timed(0..199)."""
    for timed, generator in ((False, instance_gen.generate), (True, instance_gen.generate_timed)):
        for seed in range(200):
            kb, plan = generator(seed)
            opts = BuildOptions(clock_enabled=timed)
            yield timed, seed, swept(kb, plan, opts), build_pe_net(plan, kb, opts)


def test_no_node_only_copies_its_predecessor_and_every_name_resolves():
    made = {False: 0, True: 0}
    for timed, seed, schedule, net in generated_nets():
        made[timed] += len(net.nodes)
        assert dict(net.aliases) == schedule.aliases, (timed, seed)
        for nid, node in net.nodes.items():
            kinds = set(node.provenance.values())
            assert kinds != {"default-persistence"} and kinds != {"clock-identity"}, (timed, seed, str(nid))
        for nid, alias in net.aliases.items():
            # read through chains to a made node, which it relabels one to one
            source = net.nodes[alias.source]
            assert nid not in net.nodes and net.position(source.id.sit) <= net.position(nid.sit)
            assert len(set(alias.states)) == len(alias.states) == len(source.states) == len(alias.labels)
            assert set(alias.own) == set(alias.states) and len(alias.own) == len(alias.states)
            if set(alias.labels) <= {"default-persistence", "clock-identity"}:
                # a no-change copy: the same atom or clock in an earlier situation, with its states
                assert source.id.ref == nid.ref and alias.keeps(source.states), (timed, seed, str(nid))
                assert net.position(source.id.sit) < net.position(nid.sit)
        for si in schedule.situations:
            for atom in schedule.atoms + schedule.derived_atoms:
                nid = atom_node(atom, si.sid)
                # an alias that keeps its source's states is found as its source, one that relabels as itself
                alias = net.aliases.get(nid)
                assert net.find(atom, si.sid) == (alias.source if alias and alias.keeps(net.states_of(alias.source)) else nid)
                assert net.states_of(nid)
            if timed:
                assert net.node_of(net_module.clock_node(si.sid)) is not None
    # 1,451 of generate's 3,202 nodes and 680 of generate_timed's 5,203 relabel one made node
    assert made[False] <= 1751 and made[True] <= 4523, made


def oracle_marginal(kb, worlds, nid, pos) -> dict:
    """The trajectory oracle's marginal of an atom, derived ones included, or of a selection."""
    if nid.ref[0] == "sel":
        return oracle.selection_marginal(worlds, nid.ref[1])
    out = {}
    for world in worlds:
        for branch, state in oracle._resolve_value(kb, world, pos, nid.atom):
            out[state] = out.get(state, 0.0) + branch.prob
    return out


def test_a_former_copy_answers_as_its_source_and_the_oracles():
    asked = 0
    for seed in range(80):
        kb, plan = instance_gen.generate(seed)
        net = build_pe_net(plan, kb)
        flat = flatten_hierarchy(plan)
        worlds = oracle.enumerate_trajectories(kb, flat, linearize(flat))
        for nid, alias in sorted(net.aliases.items(), key=lambda item: net.node_key(item[0])):
            truth = oracle_marginal(kb, worlds, nid, net.position(nid.sit))
            for state, own in zip(net.nodes[alias.source].states, alias.states):
                got = exact_query(net, Query([(nid, own)])).probability
                assert got == exact_query(net, Query([(alias.source, state)])).probability, (seed, str(nid))
                assert abs(got - oracle_enumerate(net, Query([(nid, own)])).probability) <= 1e-12
                assert abs(got - truth.get(own, 0.0)) <= 1e-12, (seed, str(nid), own)
                asked += 1
    assert asked > 500


def test_the_benchmark_reads_every_goal_atom_at_every_situation():
    inst = workloads.generate("branchy-queries", 1)[0]
    assert inst.name == "branchy-t2"
    kb, plan = load(inst.kb_text, inst.plan_text)
    net = build_pe_net(plan, kb)
    # sel(t0)@S0 and sel(t1)@S2 mirror their guard atoms: aliases, not nodes
    assert (len(net.nodes), len(net.aliases)) == (60, 44)
    assert [str(alias.source) for nid, alias in net.aliases.items() if nid.ref[0] == "sel"] == ["(Risk)@S0", "(Risk)@S0"]
    goal_atoms = list(dict.fromkeys(atom for atom, _state in plan.goals))
    for sit in net.situation_order:
        for atom in goal_atoms:
            assert net.nodes[net.find(atom, sit)].states
    # (Built W) stays a constant node at S0, and S1..S8 are its aliases
    built = [net.find("(Built W)", sit) for sit in net.situation_order]
    assert built[:9] == [built[0]] * 9 and built[9] != built[0] and net.nodes[built[0]].states == ["no"]
    mid = net.situation_order[len(net.situation_order) // 2]
    assert net.find("(Risk)", mid) == atom_node(GroundAtom("Risk"), SituationId(0))


def test_an_alias_dumps_as_one_line_where_its_node_would_be():
    _kb, _plan, net = build(MOVE_KB, TWO_STEP_PLAN)
    lines = canonical_dump(net).splitlines()
    assert [line for line in lines if not line.startswith(("node", "  row", "situations"))] == [
        "alias (Loc B)@S1 -> (Loc B)@S0"]
    at = lines.index("alias (Loc B)@S1 -> (Loc B)@S0")
    assert lines[at - 2].startswith("node (Loc A)@S1 ") and lines[at + 1].startswith("node (Loc A)@S2 ")
    b1 = atom_node(GroundAtom("Loc", ("B",)), SituationId(1))
    with pytest.raises(PlanEvalError, match=r"node \(Loc B\)@S1 has no row for parent states \('L1',\)"):
        net.row_provenance(b1, ("L1",))  # (Loc B)@S0 never takes L1
    # a net whose every node is made has no alias line
    _kb, _plan, moved = build(MOVE_KB, "step s1 a1 (Move A L1 L2) start=b0 end=b1\ninitial { (Loc A)=L1 }\ngoal { (Loc A)=L2 }")
    assert not moved.aliases and "alias" not in canonical_dump(moved)


# (Power) changes nowhere, so (Power)@S1 is an alias of (Power)@S0: the
# gated effect row that reads (Power)=off at the start and pins (Power)=on
# during the step pins one node in two states and is left out.
APART_KB = """
predicate (Power) kind=primitive states { on off }
predicate (Built) kind=primitive states { no yes }
predicate (Tick) kind=primitive states { a b }
action (Assemble) level=0 {
  effect (Built) { (Power)=off -> { yes:1.0 } (Power)=on -> { yes:0.5 no:0.5 } }
  during-cond (Power)=on gates (Built)
}
action (Step) level=0 { effect (Tick) { * -> { b:1.0 } } }
"""

APART_PLAN = """
step asm a1 (Assemble) start=c0 end=done
step tick a2 (Step) start=c0 end=c1
before c1 done
initial { (Power)=on:0.5 (Power)=off:0.5 (Built)=no (Tick)=a }
goal { (Built)=yes }
"""


@pytest.mark.parametrize("semantics", ["gate-effect-only", "nullify-action"])
def test_a_row_pinning_one_node_apart_through_an_alias_is_left_out(semantics):
    kb, plan = load(APART_KB, APART_PLAN)
    net = build_pe_net(plan, kb, BuildOptions(during_failure_semantics=semantics))
    power0 = net.find("(Power)", "S0")
    assert net.find("(Power)", "S1") == power0
    built = net.nodes[net.find("(Built)", "S2")]
    assert power0 in built.parents and len(built.parents) == 2  # (Power)@S0 and (Built)@S1's source
    flat = flatten_hierarchy(plan)
    order = linearize(flat)
    worlds = oracle.enumerate_trajectories(kb, flat, order, during_semantics=semantics)
    want = oracle.goal_probability(kb, worlds, flat, len(order) - 1)
    assert abs(leads_to_success(net, plan).probability - want) <= 1e-12
    assert abs(want - 0.25) <= 1e-12
