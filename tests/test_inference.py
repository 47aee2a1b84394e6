"""Inference engines: exact VE, Monte Carlo, enumeration oracle, plan metrics."""

import math
import os
import random
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from planeval import (
    GroundAtom,
    InfeasibleEvidence,
    PENet,
    PlanEvalError,
    Query,
    TooLarge,
    BuildOptions,
    WidthExceeded,
    ZeroWeight,
    build_pe_net,
    exact_query,
    leads_to_success,
    mc_query,
    plan_success,
    run_cli,
    validate_kb,
)
from planeval import inference
from planeval.net import Fragment, FragmentNode, FragmentRow, NodeId, SituationId, atom_node, finalize, paste_onto

import forward_sampler
import instance_gen
from joint_oracle import joint_distribution, oracle_enumerate
from fixtures import HIERARCHY_KB, HIERARCHY_PLAN, MOVE_KB, RELIABLE_MOVE_KB, RELIABLE_MOVE_PLAN, TWO_STEP_PLAN, load

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
import workloads  # noqa: E402 - the benchmark's instance generators


def build(kb_text, plan_text):
    kb, plan = load(kb_text, plan_text)
    return kb, plan, build_pe_net(plan, kb)


@pytest.fixture(scope="module")
def two_step():
    return build(MOVE_KB, TWO_STEP_PLAN)


def test_prior_recovery_empty_plan():
    kb, plan = load(MOVE_KB, "initial { (Loc A)=L1:0.3 (Loc A)=L2:0.7 }\ngoal { (Loc A)=L1 }")
    net = build_pe_net(plan, kb)
    q = Query(targets=[(net.find("(Loc A)", "S0"), "L1")])
    assert abs(exact_query(net, q).probability - 0.3) <= 1e-12
    assert abs(oracle_enumerate(net, q).probability - 0.3) <= 1e-12


def test_exact_matches_oracle_on_two_step(two_step):
    _kb, _plan, net = two_step
    q = Query(targets=[(net.find("(Loc B)", "S2"), "L1")])
    assert abs(exact_query(net, q).probability - oracle_enumerate(net, q).probability) <= 1e-12


@pytest.mark.parametrize("generator, seed", [pytest.param(instance_gen.generate, s, id=str(s)) for s in range(10)]
                         + [pytest.param(instance_gen.generate_timed, s, id=f"timed-{s}") for s in range(10)])
def test_exact_matches_oracle_random_nets(generator, seed):
    kb, plan = generator(100 + seed)
    assert not validate_kb(kb)
    net = build_pe_net(plan, kb, BuildOptions(clock_enabled=generator is instance_gen.generate_timed))
    rng = random.Random(seed)
    nodes = sorted(net.nodes, key=net.node_key)
    for _ in range(5):
        nid = rng.choice(nodes)
        state = rng.choice(net.nodes[nid].states)
        q = Query(targets=[(nid, state)])
        a = exact_query(net, q).probability
        b = oracle_enumerate(net, q, bound=float("inf")).probability
        assert abs(a - b) <= 1e-9
    while True:  # one evidence query, on evidence of positive probability
        seen = rng.choice(nodes)
        evidence = {seen: rng.choice(net.nodes[seen].states)}
        if oracle_enumerate(net, Query(targets=list(evidence.items())), bound=float("inf")).probability > 0.0:
            break
    nid = rng.choice(nodes)
    q = Query(targets=[(nid, rng.choice(net.nodes[nid].states))], evidence=evidence)
    assert abs(exact_query(net, q).probability - oracle_enumerate(net, q, bound=float("inf")).probability) <= 1e-9


def test_conditioning_coherence(two_step):
    _kb, _plan, net = two_step
    target = (net.find("(Loc B)", "S2"), "L1")
    evidence = {net.find("(Loc A)", "S1"): "L2"}
    cond = exact_query(net, Query(targets=[target], evidence=evidence)).probability
    joint_te = oracle_enumerate(net, Query(targets=[target, (net.find("(Loc A)", "S1"), "L2")])).probability
    joint_e = oracle_enumerate(net, Query(targets=[(net.find("(Loc A)", "S1"), "L2")])).probability
    assert abs(cond - joint_te / joint_e) <= 1e-9


def test_infeasible_evidence_raises(two_step):
    _kb, _plan, net = two_step
    ev = {net.find("(Loc B)", "S0"): "L1"}  # prior fixes it at L3
    with pytest.raises(InfeasibleEvidence):
        exact_query(net, Query(targets=[(net.find("(Loc B)", "S2"), "L1")], evidence=ev))


@pytest.mark.parametrize("targets", [
    [("(Loc B)", "S0", "L2")],  # L2 is not a state of the node
    [("(Loc B)", "S2", "L1"), ("(Loc B)", "S2", "L3")],  # contradictory conjunction
])
def test_infeasible_evidence_is_reported_before_the_targets(two_step, targets):
    _kb, _plan, net = two_step
    ev = {net.find("(Loc B)", "S0"): "L1"}  # prior fixes it at L3
    q = Query(targets=[(net.find(atom, sit), state) for atom, sit, state in targets], evidence=ev)
    with pytest.raises(InfeasibleEvidence):
        exact_query(net, q)


def test_target_that_is_also_evidence(two_step):
    _kb, _plan, net = two_step
    seen = net.find("(Loc A)", "S1")
    target = (net.find("(Loc B)", "S2"), "L1")
    assert exact_query(net, Query(targets=[(seen, "L2")], evidence={seen: "L2"})).probability == 1.0
    assert exact_query(net, Query(targets=[(seen, "L1")], evidence={seen: "L2"})).probability == 0.0
    both = exact_query(net, Query(targets=[target, (seen, "L2")], evidence={seen: "L2"})).probability
    alone = exact_query(net, Query(targets=[target], evidence={seen: "L2"})).probability
    assert both == alone


def test_wide_bucket_with_many_factors_and_one_state_nodes(monkeypatch):
    # One root with 40 observed two-state children and 60 one-state children:
    # the root's bucket holds more factors than one einsum call takes, and
    # the 61-node conjunction has more nodes than einsum has axis labels.
    # The one-state targets carry no axis, so the width counts the root and
    # the free axis alone.
    s0, s1 = SituationId(0), SituationId(1)
    root = atom_node(GroundAtom("R"), s0)
    seen = [atom_node(GroundAtom("E", (f"e{i}",)), s1) for i in range(40)]
    fixed = [atom_node(GroundAtom("C", (f"c{i}",)), s1) for i in range(60)]
    frag = Fragment(nodes=[FragmentNode(root, "primitive", ["r0", "r1"])],
                    rows=[FragmentRow(root, {}, {"r0": 0.3, "r1": 0.7})])
    for i, nid in enumerate(seen):
        frag.nodes.append(FragmentNode(nid, "primitive", ["no", "yes"], [root]))
        frag.rows.append(FragmentRow(nid, {root: "r0"}, {"yes": 0.2 + 0.01 * i, "no": 0.8 - 0.01 * i}))
        frag.rows.append(FragmentRow(nid, {root: "r1"}, {"yes": 0.6, "no": 0.4}))
    for nid in fixed:
        frag.nodes.append(FragmentNode(nid, "primitive", ["on"], [root]))
        frag.rows.append(FragmentRow(nid, {}, {"on": 1.0}))
    net = finalize(paste_onto(PENet(), frag))
    q = Query(targets=[(root, "r0")] + [(nid, "on") for nid in fixed],
              evidence={nid: "yes" if i % 3 else "no" for i, nid in enumerate(seen)})
    operands = []
    contract = inference._contract

    def counted(factors, out):
        operands.append(len(factors))
        return contract(factors, out)

    monkeypatch.setattr(inference, "_contract", counted)
    result = exact_query(net, q, width_limit=100)
    assert result.elimination_width == 1
    assert operands[0] > inference._EINSUM_OPERANDS  # the root's bucket: prior, 40 children, indicator
    assert abs(result.probability - oracle_enumerate(net, q, bound=float("inf")).probability) <= 1e-12


def test_long_conjunction_keeps_the_width_small():
    # 24 independent two-node chains; the goal is every chain's end at "t".
    s0, s1 = SituationId(0), SituationId(1)
    frag, expected, targets = Fragment(), 1.0, []
    for i in range(24):
        a, b = atom_node(GroundAtom("A", (f"o{i}",)), s0), atom_node(GroundAtom("B", (f"o{i}",)), s1)
        p = 0.5 + 0.01 * i
        frag.nodes += [FragmentNode(a, "primitive", ["f", "t"]), FragmentNode(b, "primitive", ["f", "t"], [a])]
        frag.rows += [FragmentRow(a, {}, {"t": p, "f": 1.0 - p}),
                      FragmentRow(b, {a: "t"}, {"t": 0.9, "f": 0.1}),
                      FragmentRow(b, {a: "f"}, {"t": 0.2, "f": 0.8})]
        expected *= 0.9 * p + 0.2 * (1.0 - p)
        targets.append((b, "t"))
    net = finalize(paste_onto(PENet(), frag))
    result = exact_query(net, Query(targets=targets))
    assert result.elimination_width <= 2
    assert abs(result.probability - expected) <= 1e-12 * expected


def test_unreachable_target_scores_zero(two_step):
    _kb, _plan, net = two_step
    q = Query(targets=[(net.find("(Loc B)", "S0"), "L2")])  # L2 not in the node's states
    assert exact_query(net, q).probability == 0.0


def test_unreachable_target_still_checks_the_evidence(two_step):
    _kb, _plan, net = two_step
    unreachable = [(net.find("(Loc B)", "S0"), "L2"), (net.find("(Loc B)", "S2"), "L1")]
    feasible = {net.find("(Loc A)", "S1"): "L2"}
    assert exact_query(net, Query(targets=unreachable, evidence=feasible)).probability == 0.0
    impossible = {net.find("(Loc A)", "S1"): "L2", net.find("(Loc A)", "S2"): "L1"}  # L2 persists
    with pytest.raises(InfeasibleEvidence):
        exact_query(net, Query(targets=unreachable, evidence=impossible))


def test_contradictory_conjunction_scores_zero(two_step):
    _kb, _plan, net = two_step
    nid = net.find("(Loc B)", "S2")
    q = Query(targets=[(nid, "L1"), (nid, "L3")])
    assert exact_query(net, q).probability == 0.0
    assert oracle_enumerate(net, q).probability == 0.0


def test_width_guard_fires(two_step):
    _kb, _plan, net = two_step
    q = Query(targets=[(net.find("(Loc B)", "S2"), "L1")])
    with pytest.raises(WidthExceeded):
        exact_query(net, q, width_limit=0)


def _no_products(*args, **kwargs):
    raise AssertionError("einsum ran before the guard")


def test_width_guard_trips_before_any_product(two_step, monkeypatch):
    _kb, _plan, net = two_step
    monkeypatch.setattr(np, "einsum", _no_products)
    q = Query(targets=[(net.find("(Loc B)", "S2"), "L1")])
    with pytest.raises(WidthExceeded):
        exact_query(net, q, width_limit=0)


def test_factor_cell_guard_trips_before_any_product(two_step, monkeypatch):
    _kb, _plan, net = two_step
    q = Query(targets=[(net.find("(Loc B)", "S2"), "L1")])
    assert exact_query(net, q).probability > 0.0
    monkeypatch.setattr(inference, "MAX_FACTOR_CELLS", 1)
    monkeypatch.setattr(np, "einsum", _no_products)
    with pytest.raises(TooLarge):
        exact_query(net, q)


def test_oracle_bound_enforced(two_step):
    _kb, _plan, net = two_step
    q = Query(targets=[(net.find("(Loc B)", "S2"), "L1")])
    with pytest.raises(TooLarge):
        oracle_enumerate(net, q, bound=2)


# -- the exact answer cache ----------------------------------------------------


def counted_eliminations(monkeypatch) -> list:
    """The batch of every ``_eliminate`` call from here on."""
    calls = []
    eliminate = inference._eliminate

    def counted(numbering, batch, *args):
        calls.append(batch)
        return eliminate(numbering, batch, *args)

    monkeypatch.setattr(inference, "_eliminate", counted)
    return calls


def bench_net(workload: str):
    """The plan and a freshly built net of a workload's first seed-1 instance."""
    inst = workloads.generate(workload, 1)[0]
    kb, plan = load(inst.kb_text, inst.plan_text)
    return inst, plan, build_pe_net(plan, kb, BuildOptions(clock_enabled=inst.clock))


ELIMINATE = inference._eliminate  # as imported, for one_line even where a test counts the calls


def one_line(net, q, width_limit=inference.DEFAULT_WIDTH_LIMIT) -> float:
    """The query's answer from an elimination of its conjunction alone, as a
    net with no answer cached would give it; it neither reads nor fills the
    cache."""
    evidence, targets, reachable = inference._read(net, q)
    if not reachable:
        return 0.0
    pins, conjunction = inference._keyed(net.numbering, evidence), inference._keyed(net.numbering, targets)
    _batch, (z_e, z_te), _width, _cells = ELIMINATE(net.numbering, [conjunction], pins, width_limit, conjunction)
    return min(max(z_te / z_e, 0.0), 1.0)


def test_goal_metrics_of_a_plan_without_expansions_share_one_elimination(monkeypatch):
    _inst, plan, net = bench_net("shuttle")
    assert net.selected_path == ()
    calls = counted_eliminations(monkeypatch)
    lead = leads_to_success(net, plan)
    assert plan_success(net, plan) == lead
    assert len(calls) == 1


def test_every_state_of_one_node_shares_one_elimination_per_evidence(monkeypatch):
    _kb, _plan, net = build(MOVE_KB, TWO_STEP_PLAN)
    nid, seen = net.find("(Loc A)", "S2"), net.find("(Loc A)", "S1")
    calls = counted_eliminations(monkeypatch)
    for evidence in ({}, {seen: "L1"}):
        before = len(calls)
        answers = [exact_query(net, Query(targets=[(nid, state)], evidence=evidence)) for state in ("L2", "L1")]
        assert len(calls) == before + 1
        assert abs(sum(answer.probability for answer in answers) - 1.0) <= 1e-12
        assert all(abs(answer.probability - one_line(net, Query([(nid, state)], evidence))) <= 1e-12
                   for answer, state in zip(answers, ("L2", "L1")))
    assert [len(batch) for batch in calls] == [2, 2]  # the node's two states


def test_reordered_evidence_and_targets_hit_the_cache(monkeypatch):
    _kb, _plan, net = build(MOVE_KB, TWO_STEP_PLAN)
    a1, a2, b2 = net.find("(Loc A)", "S1"), net.find("(Loc A)", "S2"), net.find("(Loc B)", "S2")
    evidence = {a1: "L2", a2: "L2"}
    first = exact_query(net, Query(targets=[(b2, "L1"), (a2, "L2")], evidence=evidence))
    calls = counted_eliminations(monkeypatch)
    again = exact_query(net, Query(targets=[(a2, "L2"), (b2, "L1")], evidence=dict(reversed(evidence.items()))))
    assert again == first and again is not first
    assert calls == []


def loc(name: str, sit: int):
    return atom_node(GroundAtom("Loc", (name,)), SituationId(sit))


# On the two-step net (Loc A)@S1 is a node and (Loc B)@S1 an alias of
# (Loc B)@S0, whose one state is L3. A missing node is named once as an atom
# the net has no node for, and once as the aliased atom past the last
# situation. Where both sides are bad, the evidence is read first. A target
# state its node lacks scores 0 (no error) once the evidence is found feasible,
# and a missing target node raises before or after such a state.
READ_CASES = {
    "evidence-node-missing-node": ({"evidence": {loc("C", 1): "L1"}},
                                   InfeasibleEvidence, "evidence node (Loc C)@S1 is not in the net"),
    "evidence-node-missing-alias": ({"evidence": {loc("B", 3): "L3"}},
                                    InfeasibleEvidence, "evidence node (Loc B)@S3 is not in the net"),
    "evidence-state-missing-node": ({"evidence": {loc("A", 1): "L3"}},
                                    InfeasibleEvidence, "evidence state 'L3' is not a state of (Loc A)@S1"),
    "evidence-state-missing-alias": ({"evidence": {loc("B", 1): "L1"}},
                                     InfeasibleEvidence, "evidence state 'L1' is not a state of (Loc B)@S1"),
    "target-node-missing-node": ({"targets": [(loc("C", 1), "L1")]},
                                 PlanEvalError, "target node (Loc C)@S1 is not in the net"),
    "target-node-missing-alias": ({"targets": [(loc("B", 3), "L3")]},
                                  PlanEvalError, "target node (Loc B)@S3 is not in the net"),
    "target-node-missing-after-an-unreachable-state": ({"targets": [(loc("A", 1), "L9"), (loc("C", 1), "L1")]},
                                                       PlanEvalError, "target node (Loc C)@S1 is not in the net"),
    "target-node-missing-before-an-unreachable-state": ({"targets": [(loc("C", 1), "L1"), (loc("A", 1), "L9")]},
                                                        PlanEvalError, "target node (Loc C)@S1 is not in the net"),
    "evidence-before-target": ({"targets": [(loc("C", 1), "L1")], "evidence": {loc("B", 1): "L1"}},
                               InfeasibleEvidence, "evidence state 'L1' is not a state of (Loc B)@S1"),
    "unreachable-target-node": ({"targets": [(loc("A", 1), "L3")], "evidence": {loc("B", 1): "L3"}}, None, None),
    "unreachable-target-alias": ({"targets": [(loc("B", 1), "L1")], "evidence": {loc("A", 1): "L2"}}, None, None),
}


@pytest.mark.parametrize("case", sorted(READ_CASES))
def test_both_engines_read_a_query_s_names_alike(two_step, case):
    _kb, _plan, net = two_step
    fields, error, message = READ_CASES[case]
    fields = {"targets": [(loc("A", 2), "L2")], **fields}
    for engine, mode in ((exact_query, "exact"), (mc_query, "mc")):
        q = Query(**fields, mode=mode, samples=100)
        if error is None:
            assert engine(net, q).probability == 0.0, engine
            continue
        with pytest.raises(PlanEvalError) as raised:
            engine(net, q)
        assert (type(raised.value), str(raised.value)) == (error, message), engine


def test_a_hit_returns_a_result_of_its_own(two_step):
    _kb, _plan, net = two_step
    q = Query(targets=[(net.find("(Loc B)", "S2"), "L1")])
    first = exact_query(net, q)
    expected = first.probability
    first.probability, first.elimination_width = -1.0, -1
    again = exact_query(net, q)
    assert again.probability == expected and again.elimination_width >= 0


def test_eval_marginals_run_one_elimination_per_marginal_node(tmp_path, capsys, monkeypatch):
    inst = workloads.generate("branchy-queries", 1)[0]
    assert inst.name == "branchy-t2"
    kb_path, plan_path = tmp_path / "branchy.kb", tmp_path / "branchy.plan"
    kb_path.write_text(inst.kb_text)
    plan_path.write_text(inst.plan_text)
    kb, plan = load(inst.kb_text, inst.plan_text)
    net = build_pe_net(plan, kb)
    specs = [f"{atom}@{sit}" for sit in net.situation_order for atom, _state in plan.goals]
    lines = sum(len(net.nodes[net.find(atom, sit)].states) for sit in net.situation_order for atom, _ in plan.goals)
    calls = counted_eliminations(monkeypatch)
    argv = ["eval", str(kb_path), str(plan_path)] + [arg for spec in specs for arg in ("--marginal", spec)]
    assert run_cli(argv) == 0
    out = capsys.readouterr().out
    assert out.count("\nmarginal ") == lines > len(specs)
    numbering = net.numbering
    marginal = [numbering.number[net.find(atom, sit)] for sit in net.situation_order for atom, _ in plan.goals]
    made = {v for v in marginal if numbering.sizes[v] > 1}  # an alias's marginal is its source's
    constants = [v for v in marginal if numbering.sizes[v] == 1]
    assert constants
    # leads_to_success, plan_success, one per marginal node an atom reads, and one for every constant
    assert len(calls) == 2 + len(made) + 1


def copy_net() -> tuple:
    """A root R, its identity copy C@S1, that copy's copy C@S2, a node X that
    reads R and C@S1, and a one-state node K. The net is pasted by hand, so
    the copies are nodes: only the build makes aliases."""
    s0, s1, s2 = SituationId(0), SituationId(1), SituationId(2)
    root, c1, c2 = atom_node(GroundAtom("R"), s0), atom_node(GroundAtom("C"), s1), atom_node(GroundAtom("C"), s2)
    x, k = atom_node(GroundAtom("X"), s2), atom_node(GroundAtom("K"), s1)
    states = ["f", "t"]
    nodes = [FragmentNode(root, "primitive", states), FragmentNode(c1, "primitive", states, [root]),
             FragmentNode(c2, "primitive", states, [c1]), FragmentNode(x, "primitive", ["a", "b", "c"], [root, c1]),
             FragmentNode(k, "primitive", ["on"], [root])]
    rows = [FragmentRow(root, {}, {"f": 0.3, "t": 0.7}), FragmentRow(k, {}, {"on": 1.0})]
    rows += [FragmentRow(copy, {parent: state}, {state: 1.0}) for copy, parent in ((c1, root), (c2, c1)) for state in states]
    rows += [FragmentRow(x, {root: r, c1: c}, {"a": 0.1 + 0.2 * i, "b": 0.2, "c": 0.7 - 0.2 * i})
             for i, (r, c) in enumerate([(r, c) for r in states for c in states])]
    return finalize(paste_onto(PENet(), Fragment(nodes=nodes, rows=rows))), (root, c1, c2, x, k)


def test_identity_copies_read_as_their_source_match_the_oracle():
    net, (root, c1, c2, x, k) = copy_net()
    assert not net.aliases and all(nid in net.nodes for nid in (root, c1, c2, x, k))
    for evidence in ({}, {c2: "t"}, {c1: "f", root: "f"}, {x: "b", k: "on"}, {x: "a", c2: "f"}):
        asked = [[(nid, state)] for nid in (root, c1, c2, x, k) for state in net.nodes[nid].states]
        asked += [[(c2, "t"), (x, "a")], [(c1, "f"), (root, "t")], [(c1, "t"), (c2, "t"), (k, "on")]]
        for targets in asked:
            q = Query(targets, evidence)
            assert abs(exact_query(net, q).probability - oracle_enumerate(net, q).probability) <= 1e-12, q


@pytest.mark.parametrize("evidence", [{"c2": "t", "root": "f"}, {"c1": "f", "c2": "t"}])
def test_evidence_pinning_a_copy_and_its_source_apart_is_infeasible_after_the_guards(evidence, monkeypatch):
    net, (root, c1, c2, x, _k) = copy_net()
    named = {"root": root, "c1": c1, "c2": c2}
    q = Query([(x, "a")], {named[name]: state for name, state in evidence.items()})
    with pytest.raises(InfeasibleEvidence):
        oracle_enumerate(net, q)
    calls = counted_eliminations(monkeypatch)
    with pytest.raises(WidthExceeded):
        exact_query(net, q, width_limit=0)
    # the copies are nodes, so the elimination finds the evidence's probability 0
    for _ in range(2):
        with pytest.raises(InfeasibleEvidence, match="evidence has probability zero"):
            exact_query(net, q)
    assert len(calls) == 2  # the second ask is a hit, and raises too


def test_a_copy_and_every_constant_cost_no_elimination_of_their_own(monkeypatch):
    _inst, plan, net = bench_net("branchy-queries")
    numbering, goals = net.numbering, inference._goal_targets(net, plan)
    # the aliases of multi-state nodes: selections that mirror their guards, and no-change copies
    copies = [nid for nid in sorted(net.aliases, key=net.node_key) if len(net.states_of(nid)) > 1]
    constants = [nid for nid in numbering.ids if len(net.nodes[nid].states) == 1]
    assert len(copies) > 10 and len(constants) > 10 and any(nid.ref[0] == "sel" for nid in copies)
    calls = counted_eliminations(monkeypatch)
    for nid in copies:
        states, source = net.states_of(nid), net.node_of(nid)
        expected = [exact_query(net, Query([(source.id, state)])).probability for state in source.states]
        before = len(calls)
        assert [exact_query(net, Query([(nid, state)])).probability for state in states] == expected
        likely = expected.index(max(expected))
        given = exact_query(net, Query(goals, {nid: states[likely]})).probability
        assert exact_query(net, Query(goals, {source.id: source.states[likely]})).probability == given
        assert len(calls) <= before + 1  # none for the marginal; evidence on an alias is evidence on its source
    first = net.states_of(copies[0])
    marginal = [exact_query(net, Query([(copies[0], state)])).probability for state in first]
    seen = {copies[0]: first[marginal.index(max(marginal))]}
    before = len(calls)
    for evidence in ({}, seen):
        assert all(exact_query(net, Query([(nid, net.nodes[nid].states[0])], evidence)).probability == 1.0
                   for nid in constants)
    assert len(calls) == before + 2  # one shared by every constant, per evidence


RISK = [atom_node(GroundAtom("Risk"), SituationId(i)) for i in range(3)]  # (Risk)@S1 and @S2 alias (Risk)@S0


@pytest.mark.parametrize("apart", [(0, 1), (1, 2)], ids=["alias-and-source", "two-aliases"])
def test_evidence_pinning_an_alias_apart_fails_in_both_engines(apart, monkeypatch):
    _kb, plan, net = build(HIERARCHY_KB, HIERARCHY_PLAN)
    assert net.aliases[RISK[1]].source == net.aliases[RISK[2]].source == RISK[0]
    done = net.find("(Done T)", "S2")
    evidence = {RISK[apart[0]]: "low", RISK[apart[1]]: "high"}
    calls = counted_eliminations(monkeypatch)
    monkeypatch.setattr(np, "einsum", _no_products)
    with pytest.raises(WidthExceeded):
        exact_query(net, Query([(done, "yes")], evidence), width_limit=0)
    with pytest.raises(InfeasibleEvidence, match="evidence has probability zero"):
        exact_query(net, Query([(done, "yes")], evidence))
    with pytest.raises(InfeasibleEvidence):
        oracle_enumerate(net, Query([(done, "yes")], evidence))
    assert len(calls) == 2
    for metric in (leads_to_success, plan_success):
        with pytest.raises(ZeroWeight, match="all samples are inconsistent with the evidence"):
            metric(net, plan, mode="mc", samples=100, seed=1, evidence=evidence)
    monkeypatch.undo()
    # pins that agree are one pin on the source
    agree = {RISK[apart[0]]: "high", RISK[apart[1]]: "high"}
    for mode in ("exact", "mc"):
        assert (leads_to_success(net, plan, mode=mode, samples=300, seed=1, evidence=agree)
                == leads_to_success(net, plan, mode=mode, samples=300, seed=1, evidence={RISK[0]: "high"}))


def test_infeasible_evidence_raises_on_every_ask(monkeypatch):
    _kb, _plan, net = build(MOVE_KB, TWO_STEP_PLAN)
    impossible = {net.find("(Loc A)", "S1"): "L2", net.find("(Loc A)", "S2"): "L1"}  # L2 persists
    q = Query(targets=[(net.find("(Loc B)", "S2"), "L1")], evidence=impossible)
    calls = counted_eliminations(monkeypatch)
    for _ in range(2):
        with pytest.raises(InfeasibleEvidence, match="evidence has probability zero"):
            exact_query(net, q)
    assert len(calls) == 1  # the second ask is a hit, and raises too


def test_width_exceeded_raises_on_every_ask_and_is_never_cached(monkeypatch):
    _kb, _plan, net = build(MOVE_KB, TWO_STEP_PLAN)
    q = Query(targets=[(net.find("(Loc B)", "S2"), "L1")])
    calls = counted_eliminations(monkeypatch)
    for _ in range(2):
        with pytest.raises(WidthExceeded):
            exact_query(net, q, width_limit=0)
    assert net.answers == {} and len(calls) == 2
    width = exact_query(net, q).elimination_width
    with pytest.raises(WidthExceeded, match=f"induced width {width} exceeds limit {width - 1}"):
        exact_query(net, q, width_limit=width - 1)  # a hit judges the width it was found at
    assert len(calls) == 3


def test_a_sibling_batch_above_the_cell_guard_runs_the_query_alone(monkeypatch):
    _kb, _plan, reference = build(MOVE_KB, TWO_STEP_PLAN)
    nid = reference.find("(Loc B)", "S2")
    expected = [exact_query(reference, Query(targets=[(nid, state)])) for state in ("L3", "L1")]
    (cells,) = {answer.cells for answer in reference.answers.values()}
    _kb, _plan, net = build(MOVE_KB, TWO_STEP_PLAN)
    calls = counted_eliminations(monkeypatch)
    monkeypatch.setattr(inference, "MAX_FACTOR_CELLS", cells)  # one conjunction fits, three free entries do not
    answers = [exact_query(net, Query(targets=[(nid, state)])) for state in ("L3", "L1")]
    assert [len(batch) for batch in calls] == [2, 2]
    assert len(net.answers) == 2  # each elimination answered only the state it was asked
    assert all(abs(got.probability - want.probability) <= 1e-12 and got.elimination_width == want.elimination_width
               for got, want in zip(answers, expected))
    monkeypatch.setattr(inference, "MAX_FACTOR_CELLS", cells - 1)
    for state in ("L3", "L1"):  # a hit judges the cells of its own elimination
        with pytest.raises(TooLarge, match=f"a factor of {cells} cells, above {cells - 1}"):
            exact_query(net, Query(targets=[(nid, state)]))


def cache_queries(net, rng) -> list:
    """Every state of a few multi-state nodes, without evidence and given one
    node's state of positive probability, and a two-node conjunction each
    way; on a net with an alias of a multi-state node, also every state of
    one of them, and each of those queries given one state of it of positive
    probability. Each query comes with its oracle
    answer, read from one joint of those nodes per evidence."""
    nodes = [nid for nid in sorted(net.nodes, key=net.node_key) if len(net.nodes[nid].states) > 1]
    if not nodes:
        return []
    picked = rng.sample(nodes, min(3, len(nodes)))
    seen = rng.choice(nodes)
    aliases = [nid for nid in sorted(net.aliases, key=net.node_key) if len(net.states_of(nid)) > 1]
    marginal = picked + rng.sample(aliases, 1 if aliases else 0)
    keep = sorted({*marginal, seen}, key=net.node_key)
    joint = joint_distribution(net, keep, bound=math.inf)
    evidences = [{}]
    for nid in [seen] + marginal[len(picked):]:
        evidences.append({nid: rng.choice(sorted({world[keep.index(nid)] for world in joint}))})
    queries = []
    for evidence in evidences:
        if evidence:
            joint = joint_distribution(net, keep, bound=math.inf, evidence=evidence)
        z_e = sum(joint.values())
        asked = [[(nid, state)] for nid in marginal for state in net.states_of(nid)]
        asked.append([(nid, rng.choice(net.nodes[nid].states)) for nid in picked[:2]])
        for targets in asked:
            z_te = sum(p for world, p in joint.items() if all(world[keep.index(nid)] == state for nid, state in targets))
            queries.append((Query(targets, evidence), z_te / z_e))
    rng.shuffle(queries)
    return queries


@pytest.mark.parametrize("generator", [instance_gen.generate, instance_gen.generate_timed])
def test_cached_answers_match_the_oracle_and_one_line_at_a_time(generator):
    compared = siblings = on_copies = 0
    for seed in range(200):
        kb, plan = generator(seed)
        options = BuildOptions(clock_enabled=generator is instance_gen.generate_timed)
        net = build_pe_net(plan, kb, options)
        for q, oracle in cache_queries(net, random.Random(seed)):
            evidence, targets, _reachable = inference._read(net, q)
            key = inference._keyed(net.numbering, targets), inference._keyed(net.numbering, evidence)
            hit = key in net.answers
            got = exact_query(net, q).probability
            assert abs(got - oracle) <= 1e-12, (seed, q)
            assert abs(got - one_line(net, q)) <= 1e-12, (seed, q)
            compared += 1
            siblings += hit
            on_copies += any(nid in net.aliases for nid in [nid for nid, _ in q.targets] + list(q.evidence))
    assert siblings > compared / 3  # a third of the answers or more came from a sibling's elimination
    assert on_copies > compared / 4  # a quarter of the queries or more read an alias


def test_exact_queries_from_many_threads_on_an_empty_cache_give_the_serial_answers():
    inst, plan, net = bench_net("shuttle")
    _inst, _plan, serial = bench_net("shuttle")
    goals = inference._goal_targets(net, plan)
    mid = net.situation_order[len(net.situation_order) // 2]
    seen = {net.find(atom, mid): state for atom, state in plan.goals[:2]}
    queries = [Query([(nid, state)], evidence) for evidence in ({}, seen) for nid, _ in goals
               for state in net.nodes[nid].states]
    queries += [Query(goals[i:i + 3], seen if i % 2 else {}) for i in range(len(goals))]
    queries = queries * 2
    random.Random(5).shuffle(queries)
    expected = [exact_query(serial, q) for q in queries]
    assert not net.answers
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            answers = list(pool.map(lambda q: exact_query(net, q), queries, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert answers == expected
    assert net.answers == serial.answers


# -- Monte Carlo ---------------------------------------------------------------


def test_mc_deterministic_given_seed(two_step):
    _kb, _plan, net = two_step
    q = Query(targets=[(net.find("(Loc B)", "S2"), "L1")], mode="mc", samples=2000, seed=7)
    first = mc_query(net, q)
    second = mc_query(net, q)
    assert first.probability == second.probability
    assert first.standard_error == second.standard_error


def test_mc_answer_pinned(two_step):
    # recorded when (Loc B)@S1 became an alias and stopped owning draws; same seed, same bits
    _kb, _plan, net = two_step
    q = Query(targets=[(net.find("(Loc B)", "S2"), "L1")], mode="mc", samples=2000, seed=7)
    result = mc_query(net, q)
    assert result.probability == 0.886
    assert result.standard_error == 0.007106475919891659


def test_mc_answer_pinned_with_evidence():
    # recorded when sel(b0)@S0 became an alias of (Risk)@S0 and stopped
    # owning draws: evidence on a root and on a non-root node, same seed, same bits
    _kb, _plan, net = build(HIERARCHY_KB, HIERARCHY_PLAN)
    side, done, risk = net.find("(Side T)", "S2"), net.find("(Done T)", "S2"), net.find("(Risk)", "S0")
    evidence = {risk: "high", side: "clean"}
    q = Query(targets=[(done, "yes")], evidence=evidence, mode="mc", samples=3000, seed=5)
    result = mc_query(net, q)
    assert result.probability == 0.49766666666666654
    assert result.standard_error == 0.009128609889710397
    # evidence on a two-parent node, recorded with the two above
    assert len(net.nodes[done].parents) == 2
    q = Query(targets=[(side, "clean")], evidence={risk: "high", done: "yes"}, mode="mc", samples=3000, seed=5)
    result = mc_query(net, q)
    assert result.probability == 0.696
    assert result.standard_error == 0.008398095022086854


def test_mc_on_deterministic_net_is_exact():
    kb, plan = load(MOVE_KB, "initial { (Loc A)=L1 }\ngoal { (Loc A)=L1 }")
    net = build_pe_net(plan, kb)
    q = Query(targets=[(net.find("(Loc A)", "S0"), "L1")], mode="mc", samples=500, seed=1)
    result = mc_query(net, q)
    assert result.probability == 1.0
    assert result.standard_error == 0.0


def test_mc_close_to_exact(two_step):
    _kb, _plan, net = two_step
    target = [(net.find("(Loc B)", "S2"), "L1")]
    exact = exact_query(net, Query(targets=target)).probability
    result = mc_query(net, Query(targets=target, mode="mc", samples=40000, seed=11))
    assert abs(result.probability - exact) <= 4 * result.standard_error + 1e-12


def test_mc_likelihood_weighting_with_evidence(two_step):
    _kb, _plan, net = two_step
    target = [(net.find("(Loc B)", "S2"), "L1")]
    evidence = {net.find("(Loc A)", "S1"): "L2"}
    exact = exact_query(net, Query(targets=target, evidence=evidence)).probability
    result = mc_query(net, Query(targets=target, evidence=evidence, mode="mc", samples=40000, seed=3))
    assert result.standard_error > 0.0
    assert abs(result.probability - exact) <= 4 * result.standard_error + 1e-12


def test_mc_effective_sample_size_without_evidence_is_the_sample_count(two_step):
    _kb, _plan, net = two_step
    q = Query(targets=[(net.find("(Loc B)", "S2"), "L1")], mode="mc", samples=2000, seed=7)
    assert mc_query(net, q).effective_sample_size == 2000


def test_mc_effective_sample_size_is_kish_over_the_weights():
    _kb, _plan, net = build(HIERARCHY_KB, HIERARCHY_PLAN)
    side, done = net.find("(Side T)", "S2"), net.find("(Done T)", "S2")
    q = Query(targets=[(side, "clean")], evidence={done: "yes"}, mode="mc", samples=3000, seed=5)
    _estimate, _se, weights = forward_sampler.forward_sample(net, q)
    ess = mc_query(net, q).effective_sample_size
    assert ess == weights.sum() * weights.sum() / (weights * weights).sum()
    assert 1.0 <= ess < 3000


# -- pruned Monte Carlo against whole-net sampling --------------------------------


def same_bits_as_whole_net_sampling(net, q) -> bool:
    """Assert mc_query gives the reference's bits; False if both find zero weight."""
    try:
        estimate, se, weights = forward_sampler.forward_sample(net, q)
    except ZeroWeight:
        with pytest.raises(ZeroWeight):
            mc_query(net, q)
        return False
    result = mc_query(net, q)
    kish = weights.sum() * weights.sum() / (weights * weights).sum()
    assert (result.probability, result.standard_error, result.effective_sample_size) == (estimate, se, kish), q
    return True


def ancestors(net, roots) -> set:
    """``roots`` and every ancestor, walked over ``Node.parents``."""
    keep, stack = set(roots), list(roots)
    while stack:
        for parent in net.nodes[stack.pop()].parents:
            if parent not in keep:
                keep.add(parent)
                stack.append(parent)
    return keep


def sampled_shapes(net, q) -> set:
    """Which shapes the query's non-evidence ancestors take: "one-state" for a
    node of one state, whose draws mc_query skips, "deterministic" for a node
    of more states with a pick table, whose state mc_query reads without a
    draw, "multi-parent" for a node with two or more parents of more than one
    state each."""
    reachable = all(state in net.nodes[nid].states for nid, state in q.targets)
    read = ancestors(net, [nid for nid, _ in q.targets if reachable] + list(q.evidence))
    shapes = set()
    for nid in read - set(q.evidence):
        node = net.nodes[nid]
        if len(node.states) == 1:
            shapes.add("one-state")
        elif net.numbering.picks[net.numbering.number[nid]] is not None:
            shapes.add("deterministic")
        if sum(len(net.nodes[p].states) > 1 for p in node.parents) >= 2:
            shapes.add("multi-parent")
    return shapes


def differential_queries(net, rng, samples=200):
    """Single, conjunctive and unreachable targets, each with 0, 1 and 2 evidence
    nodes; the first evidence node is outside every target's ancestors when the
    net has one."""
    nodes = sorted(net.nodes, key=net.node_key)

    def pick(candidates):
        nid = rng.choice(candidates)
        return nid, rng.choice(net.nodes[nid].states)

    single = [pick(nodes)]
    conjunction = [pick(nodes) for _ in range(rng.randint(2, 3))]
    unreachable = [(rng.choice(nodes), "no-such-state")]
    for targets in (single, conjunction, unreachable):
        read = ancestors(net, [nid for nid, _ in targets])
        outside = [nid for nid in nodes if nid not in read] or nodes
        seen = dict([pick(outside), pick(nodes)])
        for count in range(3):
            evidence = dict(list(seen.items())[:count])
            yield Query(targets=targets, evidence=evidence, mode="mc", samples=samples, seed=rng.randrange(1000))


def compare_on_generated_nets(generator, samples) -> tuple:
    """Queries compared bit for bit over 60 generated nets, and the sampled shapes seen."""
    compared, shapes = 0, set()
    for seed in range(60):
        kb, plan = generator(seed)
        net = build_pe_net(plan, kb, BuildOptions(clock_enabled=generator is instance_gen.generate_timed))
        for q in differential_queries(net, random.Random(seed), samples):
            compared += same_bits_as_whole_net_sampling(net, q)
            shapes |= sampled_shapes(net, q)
    return compared, shapes


@pytest.mark.parametrize("generator", [instance_gen.generate, instance_gen.generate_timed])
def test_pruned_mc_matches_whole_net_sampling_on_generated_nets(generator):
    compared, shapes = compare_on_generated_nets(generator, samples=200)
    assert compared >= 60 * 9 // 2
    assert "deterministic" in shapes  # the pick tables are on the compared path


@pytest.mark.parametrize("generator", [instance_gen.generate, instance_gen.generate_timed])
def test_pruned_mc_matches_whole_net_sampling_at_one_sample(generator):
    # One sample makes the scalar states of roots and evidence broadcast
    # against arrays of length one, and one-state nodes are skipped among
    # them, as are the draws of the nodes read from their pick tables.
    compared, shapes = compare_on_generated_nets(generator, samples=1)
    assert compared >= 60 * 9 // 2
    assert shapes == {"one-state", "deterministic", "multi-parent"}


@pytest.mark.parametrize("block_doubles", [inference._BLOCK_DOUBLES, 1])
@pytest.mark.parametrize("generator", [instance_gen.generate, instance_gen.generate_timed])
def test_mc_drawing_ahead_on_a_thread_matches_whole_net_sampling(monkeypatch, generator, block_doubles):
    # Every query draws on the worker thread; at one double a block, each
    # block is one row and the two slots take turns on every draw.
    monkeypatch.setattr(inference, "_AHEAD_DRAWS", 0)
    monkeypatch.setattr(inference, "_BLOCK_DOUBLES", block_doubles)
    compared, shapes = compare_on_generated_nets(generator, samples=200)
    assert compared >= 60 * 9 // 2
    assert "deterministic" in shapes


def test_a_shuttle_goal_query_draws_enough_to_draw_ahead_and_keeps_its_bits():
    (inst,) = workloads.generate("shuttle", 1)
    kb, plan = load(inst.kb_text, inst.plan_text)
    net = build_pe_net(plan, kb, BuildOptions(clock_enabled=inst.clock))
    q = Query(targets=inference._goal_targets(net, plan), mode="mc", samples=10000, seed=1)
    drawing = [nid for nid in ancestors(net, [nid for nid, _ in q.targets])
               if len(net.nodes[nid].states) > 1 and net.numbering.picks[net.numbering.number[nid]] is None]
    assert len(drawing) * q.samples >= 2**20
    assert same_bits_as_whole_net_sampling(net, q)


def wide_net(k: int):
    """(Reg)@S0 drawn uniformly over k states, and (Flag)@S1, which a check
    sets to yes with probability 0.9 when (Reg) is in its last state."""
    states = [f"x{i}" for i in range(k)]
    kb_text = f"""
predicate (Reg) kind=primitive states {{ {" ".join(states)} }}
predicate (Flag) kind=primitive states {{ no yes }}
action (Check) level=0 {{ effect (Flag) {{ (Reg)={states[-1]} -> {{ yes:0.9 no:0.1 }} }} }}
"""
    plan_text = f"""
step s1 ag (Check) start=b0 end=b1
initial {{ {" ".join(f"(Reg)={s}:{1 / k!r}" for s in states)} (Flag)=no }}
goal {{ (Flag)=yes }}
"""
    _kb, _plan, net = build(kb_text, plan_text)
    return net, net.find("(Reg)", "S0"), net.find("(Flag)", "S1")


@pytest.mark.parametrize("ahead", [False, True])
@pytest.mark.parametrize("k", [256, 300])
def test_a_node_of_more_states_than_a_byte_counts_keeps_every_state(monkeypatch, k, ahead):
    # 256 states count their draws in bytes, up to 255 columns; 300 states
    # count in intp, and a byte count would wrap their last 44 states.
    if ahead:
        monkeypatch.setattr(inference, "_AHEAD_DRAWS", 0)
    net, reg, flag = wide_net(k)
    numbering = net.numbering
    assert numbering.cdfs[numbering.number[reg]].shape == (k - 1, 1)
    # The child draws, on rows read from (Reg).
    assert numbering.parents[numbering.number[flag]] == (numbering.number[reg],)
    assert numbering.picks[numbering.number[flag]] is None
    last = f"x{k - 1}"
    queries = [([(flag, "yes")], {}), ([(reg, last)], {}), ([(reg, last)], {flag: "yes"})]
    for i, (targets, evidence) in enumerate(queries):
        q = Query(targets=targets, evidence=evidence, mode="mc", samples=3000, seed=i)
        assert same_bits_as_whole_net_sampling(net, q)
        assert mc_query(net, q).probability > 0.0


@pytest.mark.parametrize("workload", ["branchy-queries", "shuttle", "timed-overlap"])
def test_pruned_mc_matches_whole_net_sampling_on_bench_instances(workload):
    # timed-overlap's clocked and elapsed nodes read several multi-state parents.
    for inst in workloads.generate(workload, 1):
        if inst.role == "unsupported":  # a second split, which the build rejects
            continue
        kb, plan = load(inst.kb_text, inst.plan_text)
        net = build_pe_net(plan, kb, BuildOptions(clock_enabled=inst.clock))
        goals = inference._goal_targets(net, plan)
        batch = [(goals, {}), (goals + list(net.selected_path), {})]
        mid = net.situation_order[len(net.situation_order) // 2]
        for atom, _state in plan.goals if inst.queries != "goals" else ():
            nid = net.find(atom, mid)
            batch += [([(nid, state)], {}) for state in net.nodes[nid].states]
            batch.append((goals, {nid: net.nodes[nid].states[0]}))
        for i, (targets, evidence) in enumerate(batch):
            q = Query(targets=targets, evidence=evidence, mode="mc", samples=inst.mc_samples, seed=10 + i)
            assert same_bits_as_whole_net_sampling(net, q)


def _no_generator(*args, **kwargs):
    raise AssertionError("a generator was made")


def test_a_query_that_samples_no_node_makes_no_generator_and_keeps_its_bits(monkeypatch):
    _inst, _plan, net = bench_net("branchy-queries")
    constants = [nid for nid in net.numbering.ids if len(net.nodes[nid].states) == 1]
    multi = next(nid for nid in net.numbering.ids if len(net.nodes[nid].states) > 1)
    seen = {constants[-1]: net.nodes[constants[-1]].states[0]}
    queries = [Query([(nid, net.nodes[nid].states[0])], seen if i % 2 else {}, mode="mc", samples=(1, 7, 1000)[i % 3],
                     seed=i) for i, nid in enumerate(constants)]
    queries += [Query([(multi, "no-such-state"), (constants[0], net.nodes[constants[0]].states[0])], evidence,
                      mode="mc", samples=500, seed=3) for evidence in ({}, seen)]
    expected = [forward_sampler.forward_sample(net, q) for q in queries]
    monkeypatch.setattr(np.random, "PCG64", _no_generator)
    for q, (estimate, se, weights) in zip(queries, expected):
        result = mc_query(net, q)
        kish = weights.sum() * weights.sum() / (weights * weights).sum()
        assert (result.probability, result.standard_error, result.effective_sample_size) == (estimate, se, kish), q
        assert result.sample_count == q.samples and result.estimator == "mc"
    assert [mc_query(net, q).probability for q in queries[-2:]] == [0.0, 0.0]


# -- plan metrics ---------------------------------------------------------------


def test_plan_success_equals_leads_without_contingencies():
    kb, plan = load(MOVE_KB, "step s1 a1 (Move A L1 L2) start=b0 end=b1\ninitial { (Loc A)=L1 }\ngoal { (Loc A)=L2 }")
    net = build_pe_net(plan, kb)
    assert plan_success(net, plan).probability == leads_to_success(net, plan).probability


def test_deterministic_success_is_one():
    kb_text = """
predicate (G) kind=primitive states { no yes }
action (Win) level=0 { effect (G) { * -> { yes:1.0 } } }
"""
    kb, plan = load(kb_text, "step s1 a1 (Win) start=b0 end=b1\ninitial { (G)=no }\ngoal { (G)=yes }")
    net = build_pe_net(plan, kb)
    assert plan_success(net, plan).probability == 1.0


def test_hierarchy_metrics_split_branch_mass():
    kb, plan = load(HIERARCHY_KB, HIERARCHY_PLAN)
    net = build_pe_net(plan, kb)
    lead = leads_to_success(net, plan).probability
    succ = plan_success(net, plan).probability
    assert succ <= lead + 1e-12
    # non-selected branch success mass: Risk=high (0.25) times AltFix success 0.5
    assert abs((lead - succ) - 0.25 * 0.5) <= 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_plan_success_bounded_by_leads(seed):
    kb, plan = instance_gen.generate(200 + seed)
    net = build_pe_net(plan, kb)
    assert plan_success(net, plan).probability <= leads_to_success(net, plan).probability + 1e-12


def test_unreachable_goal_state_scores_zero():
    # L3 never enters (Loc A)'s enumerated states on this plan
    kb, plan = load(MOVE_KB, "step s1 a1 (Move A L1 L2) start=b0 end=b1\ninitial { (Loc A)=L1 }\ngoal { (Loc A)=L3 }")
    net = build_pe_net(plan, kb)
    assert leads_to_success(net, plan).probability == 0.0


def test_exact_query_rejects_a_monte_carlo_query(two_step):
    _kb, _plan, net = two_step
    q = Query(targets=[(net.find("(Loc B)", "S2"), "L1")], mode="mc")
    with pytest.raises(PlanEvalError, match="exact_query called with mode 'mc'"):
        exact_query(net, q)


def test_mc_query_rejects_an_exact_query(two_step):
    _kb, _plan, net = two_step
    q = Query(targets=[(net.find("(Loc B)", "S2"), "L1")], mode="exact", samples=100)
    with pytest.raises(PlanEvalError, match="mc_query called with mode 'exact'"):
        mc_query(net, q)


@pytest.mark.parametrize("metric", [leads_to_success, plan_success])
def test_a_plan_metric_rejects_a_mode_it_does_not_know(two_step, metric):
    _kb, plan, net = two_step
    with pytest.raises(PlanEvalError, match="mc_query called with mode 'exakt'"):
        metric(net, plan, mode="exakt", samples=100)


@pytest.mark.parametrize("samples", [0, -3])
def test_mc_rejects_fewer_than_one_sample(two_step, samples):
    _kb, _plan, net = two_step
    q = Query(targets=[(net.find("(Loc B)", "S2"), "L1")], mode="mc", samples=samples)
    with pytest.raises(PlanEvalError, match="at least one sample"):
        mc_query(net, q)


@pytest.mark.parametrize("samples", [2.5, "10", None, True])
def test_mc_rejects_samples_that_are_not_an_int(two_step, samples):
    _kb, _plan, net = two_step
    q = Query(targets=[(net.find("(Loc B)", "S2"), "L1")], mode="mc", samples=samples)
    with pytest.raises(PlanEvalError, match="whole number"):
        mc_query(net, q)


def _no_arrays(*args, **kwargs):
    raise AssertionError("an array or generator was made before the sample guard")


@pytest.mark.parametrize("seed", [-1, 2.0, None, True])
def test_mc_rejects_a_seed_that_is_not_a_whole_number_of_at_least_zero(two_step, seed, monkeypatch):
    _kb, _plan, net = two_step
    monkeypatch.setattr(np.random, "PCG64", _no_arrays)
    q = Query(targets=[(net.find("(Loc B)", "S2"), "L1")], mode="mc", samples=100, seed=seed)
    with pytest.raises(PlanEvalError, match="seed of at least zero"):
        mc_query(net, q)


def test_mc_sample_guard_trips_before_it_allocates(two_step, monkeypatch):
    _kb, _plan, net = two_step
    for name in ("ones", "zeros", "full", "empty"):
        monkeypatch.setattr(np, name, _no_arrays)
    monkeypatch.setattr(np.random, "PCG64", _no_arrays)
    q = Query(targets=[(net.find("(Loc B)", "S2"), "L1")], mode="mc", samples=inference.MAX_FACTOR_CELLS + 1)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="samples"):
            mc_query(net, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_mc_keeps_only_live_sample_arrays_on_the_shuttle_bench_instance():
    # 336 nodes of 10,000 samples each would hold 27 MB if every array lived
    # to the end of the query; the goal test reads only the final situation.
    (inst,) = workloads.generate("shuttle", 1)
    kb, plan = load(inst.kb_text, inst.plan_text)
    net = build_pe_net(plan, kb, BuildOptions(clock_enabled=inst.clock))
    tracemalloc.start()
    try:
        leads_to_success(net, plan, mode="mc", samples=10000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(net.nodes) == 336
    assert peak < 4_000_000


@pytest.mark.parametrize("engine", [exact_query, mc_query, oracle_enumerate])
def test_target_node_missing_from_the_net_is_a_typed_error(two_step, engine):
    _kb, _plan, net = two_step
    missing = atom_node(GroundAtom("Loc", ("A",)), SituationId(9))
    q = Query(targets=[(missing, "L1")], mode="mc" if engine is mc_query else "exact", samples=100)
    with pytest.raises(PlanEvalError, match="not in the net"):
        engine(net, q)


def test_mc_zero_weight_on_jointly_impossible_evidence():
    from planeval import ZeroWeight
    from test_build import SPREAD_KB, spread_plan

    kb, plan = load(SPREAD_KB, spread_plan(2))
    net = build_pe_net(plan, kb)
    # x4 is reachable only from x2, so pinning x3 upstream zeroes every sample
    evidence = {net.find("(Reg)", "S1"): "x3", net.find("(Reg)", "S2"): "x4"}
    with pytest.raises(ZeroWeight):
        mc_query(net, Query(targets=[(net.find("(Reg)", "S0"), "x1")], evidence=evidence,
                            mode="mc", samples=200, seed=0))


def test_queries_after_finalize_read_no_node_keys_or_names(monkeypatch):
    # After finalize both engines run on node numbers: the elimination order
    # is the rank finalize fixed, so no query sorts by node_key or formats a NodeId, and
    # a NodeId is hashed only to number or check a target or evidence node.
    # Instance 12's net has more nodes than a query may hash.
    kb, plan = instance_gen.generate(12)
    net = build_pe_net(plan, kb)
    nodes = sorted(net.nodes, key=net.node_key)
    pinned, target = nodes[len(nodes) // 2], nodes[-1]
    evidence = {pinned: net.nodes[pinned].states[-1]}
    q = Query(targets=[(target, net.nodes[target].states[0])], evidence=evidence)
    mc = Query(targets=q.targets, evidence=evidence, mode="mc", samples=500, seed=3)
    expected = exact_query(net, q), mc_query(net, mc)

    def forbidden(*args):
        raise AssertionError("a query read a node key or a node name")

    hashes = []
    real_hash = NodeId.__hash__

    def counted_hash(nid):
        hashes.append(nid)
        return real_hash(nid)

    monkeypatch.setattr(NodeId, "__str__", forbidden)
    monkeypatch.setattr(PENet, "node_key", forbidden)
    monkeypatch.setattr(NodeId, "__hash__", counted_hash)
    for engine, query, answer in zip((exact_query, mc_query), (q, mc), expected):
        hashes.clear()
        assert engine(net, query) == answer
        assert len(hashes) <= 5 * (len(query.targets) + len(query.evidence)) < len(net.nodes)
    for metric in (leads_to_success, plan_success):
        for mode in ("exact", "mc"):
            metric(net, plan, mode=mode, samples=500, evidence=evidence)


def test_mc_reads_the_cdfs_finalize_fixed(monkeypatch):
    # finalize fixed every row's CDF, so Monte Carlo sums no table and zeroes no array.
    kb, plan = load(HIERARCHY_KB, HIERARCHY_PLAN)
    net = build_pe_net(plan, kb)
    done, risk = net.find("(Done T)", "S2"), net.find("(Risk)", "S0")
    q = Query(targets=[(done, "yes")], evidence={risk: "high"}, mode="mc", samples=3000, seed=5)
    metrics = (leads_to_success, plan_success)
    expected = [mc_query(net, q)] + [metric(net, plan, mode="mc", samples=500, seed=2) for metric in metrics]

    class NumpyWithoutCdfs:
        # numpy's own generator seeding calls np.zeros, so only the engine's numpy is patched.
        def __getattr__(self, name):
            if name in ("cumsum", "zeros"):
                raise AssertionError(f"a query called np.{name}")
            return getattr(np, name)

    monkeypatch.setattr(inference, "np", NumpyWithoutCdfs())
    answers = [mc_query(net, q)] + [metric(net, plan, mode="mc", samples=500, seed=2) for metric in metrics]
    assert answers == expected


class ZeroDraws:
    """A generator whose every draw is exactly 0.0; skipping still advances its bits."""

    def __init__(self, bit_generator):
        self.bit_generator = bit_generator

    def random(self, out):
        out[...] = 0.0
        return out


class NoDraws(ZeroDraws):
    def random(self, out):
        raise AssertionError("a query drew from the generator")


def numpy_with_generator(generator):
    """numpy as the engine sees it, with ``np.random.Generator`` replaced."""

    class Numpy:
        random = SimpleNamespace(PCG64=np.random.PCG64, Generator=generator)

        def __getattr__(self, name):
            return getattr(np, name)

    return Numpy()


def test_a_draw_of_zero_never_picks_a_state_of_probability_zero(monkeypatch):
    # A draw picks the state whose running sums it reaches, so a draw of 0.0
    # passes every leading state of probability 0.
    monkeypatch.setattr(inference, "np", numpy_with_generator(ZeroDraws))
    sampled = []
    for generator in (instance_gen.generate, instance_gen.generate_timed):
        for seed in range(20):
            kb, plan = generator(seed)
            net = build_pe_net(plan, kb, BuildOptions(clock_enabled=generator is instance_gen.generate_timed))
            # Every draw is the same, so every sample is one assignment of the net.
            at = {}
            for nid, node in net.nodes.items():
                q = [Query([(nid, state)], mode="mc", samples=1) for state in node.states]
                (at[nid],) = [i for i, query in enumerate(q) if mc_query(net, query).probability == 1.0]
            rows = {nid: node.table[tuple(at[p] for p in node.parents)] for nid, node in net.nodes.items()}
            assert all(row[at[nid]] > 0.0 for nid, row in rows.items())
            sampled.append((net.numbering, rows))
    # Some of the rows that start with a zero belong to nodes that draw.
    assert any(len(row) > 1 and row[0] == 0.0 and numbering.picks[numbering.number[nid]] is None
               for numbering, rows in sampled for nid, row in rows.items())


def test_mc_draws_nothing_for_nodes_certain_of_their_state(monkeypatch):
    # (Loc X) takes a third state that (At L1) also reads as NONE, so (At L1) is a node, not an alias
    kb_text = RELIABLE_MOVE_KB.replace("states { L1 L2 }", "states { L1 L2 L3 }").replace(
        "(Loc X)=L2 -> { NONE:1.0 }", "(Loc X)=L2 -> { NONE:1.0 }\n  (Loc X)=L3 -> { NONE:1.0 }")
    kb, plan = load(kb_text, RELIABLE_MOVE_PLAN.replace("(Loc X)=L1 }", "(Loc X)=L1:0.5 (Loc X)=L2:0.3 (Loc X)=L3:0.2 }"))
    net = build_pe_net(plan, kb)
    loc, at = net.find("(Loc X)", "S0"), net.find("(At L1)", "S0")
    assert net.numbering.picks[net.numbering.number[at]] is not None
    q = Query(targets=[(at, "X")], evidence={loc: "L1"}, mode="mc", samples=1000, seed=2)
    expected = mc_query(net, q)
    monkeypatch.setattr(inference, "np", numpy_with_generator(NoDraws))
    answer = mc_query(net, q)
    assert answer == expected
    assert (answer.probability, answer.standard_error) == (1.0, 0.0)


def check_many_threads_give_the_one_thread_answers():
    # A finalized net holds no per-query state, the elimination order
    # included, so concurrent Monte Carlo and exact queries share only
    # read-only arrays and tuples.
    (inst,) = workloads.generate("shuttle", 1)
    kb, plan = load(inst.kb_text, inst.plan_text)
    net = build_pe_net(plan, kb, BuildOptions(clock_enabled=inst.clock))
    goals = inference._goal_targets(net, plan)
    mid = net.situation_order[len(net.situation_order) // 2]
    seen = {net.find(atom, mid): state for atom, state in plan.goals[:2]}
    queries = [Query(targets=goals, mode="mc", samples=2000, seed=seed) for seed in range(16)]
    queries += [Query(targets=goals[i:i + 3], evidence=seen if i % 2 else {}) for i in range(len(goals))]
    rank = net.numbering.rank

    def ask(q):
        return (mc_query if q.mode == "mc" else exact_query)(net, q)

    expected = [ask(q) for q in queries]
    assert {answer.elimination_width for answer in expected} - {None}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(ask, q) for q in queries]
            answers = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert answers == expected
    assert net.numbering.rank is rank


def test_mc_queries_from_many_threads_give_the_one_thread_answers():
    check_many_threads_give_the_one_thread_answers()


def test_mc_queries_drawing_ahead_from_many_threads_give_the_one_thread_answers(monkeypatch):
    # Each Monte Carlo query starts its own draw thread, which hands over
    # blocks of a few rows; none outlives its query.
    monkeypatch.setattr(inference, "_AHEAD_DRAWS", 0)
    monkeypatch.setattr(inference, "_BLOCK_DOUBLES", 3 * 2000)
    before = threading.active_count()
    check_many_threads_give_the_one_thread_answers()
    assert threading.active_count() == before


class DrawFailed(Exception):
    pass


def test_no_draw_thread_outlives_its_query(monkeypatch):
    monkeypatch.setattr(inference, "_AHEAD_DRAWS", 0)
    monkeypatch.setattr(inference, "_BLOCK_DOUBLES", 1)
    before = threading.active_count()
    _kb, _plan, net = build(MOVE_KB, TWO_STEP_PLAN)
    q = Query(targets=[(net.find("(Loc B)", "S2"), "L1")], mode="mc", samples=100, seed=3)
    assert 0.0 < mc_query(net, q).probability < 1.0
    assert threading.active_count() == before

    from test_build import SPREAD_KB, spread_plan
    kb, plan = load(SPREAD_KB, spread_plan(2))
    spread = build_pe_net(plan, kb)
    evidence = {spread.find("(Reg)", "S1"): "x3", spread.find("(Reg)", "S2"): "x4"}
    with pytest.raises(ZeroWeight):
        mc_query(spread, Query(targets=[(spread.find("(Reg)", "S0"), "x1")], evidence=evidence, mode="mc", samples=200))
    assert threading.active_count() == before

    monkeypatch.setattr(inference, "np", numpy_with_generator(NoDraws))
    with pytest.raises(AssertionError, match="drew from the generator"):
        mc_query(net, q)
    assert threading.active_count() == before

    # The caller fails at its third sampled node, while the thread waits for a slot.
    reads = []

    class NumpyFailingAtTheThirdNode:
        random = np.random

        def __getattr__(self, name):
            if name == "intp":
                reads.append(name)
                if len(reads) == 3:
                    raise DrawFailed("the caller failed")
            return getattr(np, name)

    (inst,) = workloads.generate("shuttle", 1)
    kb, plan = load(inst.kb_text, inst.plan_text)
    shuttle = build_pe_net(plan, kb, BuildOptions(clock_enabled=inst.clock))
    monkeypatch.setattr(inference, "np", NumpyFailingAtTheThirdNode())
    with pytest.raises(DrawFailed, match="the caller failed"):
        mc_query(shuttle, Query(targets=inference._goal_targets(shuttle, plan), mode="mc", samples=100))
    assert threading.active_count() == before


def test_an_exception_on_the_draw_thread_reaches_the_caller_unchanged(monkeypatch):
    threads = []

    class DrawsFail(ZeroDraws):
        def random(self, out):
            threads.append(threading.current_thread())
            raise DrawFailed("no draws here")

    monkeypatch.setattr(inference, "_AHEAD_DRAWS", 0)
    monkeypatch.setattr(inference, "np", numpy_with_generator(DrawsFail))
    _kb, _plan, net = build(MOVE_KB, TWO_STEP_PLAN)
    with pytest.raises(DrawFailed, match="no draws here") as caught:
        mc_query(net, Query(targets=[(net.find("(Loc B)", "S2"), "L1")], mode="mc", samples=100))
    assert caught.type is DrawFailed
    assert threads and threading.current_thread() not in threads
    assert not any(thread.is_alive() for thread in threads)


def test_default_branchy_12_answers_exactly_and_agrees_with_mc():
    # Situation order needed width 49 here, the min-degree order a handful;
    # with no-change copies made aliases, no table has more than four axes.
    inst = workloads.branchy(random.Random(0), 12)
    kb, plan = load(inst.kb_text, inst.plan_text)
    net = build_pe_net(plan, kb)
    assert max(node.table.ndim for node in net.nodes.values()) <= 4
    exact = leads_to_success(net, plan)
    assert exact.elimination_width <= 6
    mc = leads_to_success(net, plan, mode="mc", samples=100_000, seed=3)
    assert abs(mc.probability - exact.probability) <= 5 * mc.standard_error


def test_long_vs_chain_goal_query_stays_narrow():
    # The elapsed node reads several clocks; situation order gave width 9 here.
    inst = workloads.generate("timed-overlap", 1)[0]
    assert inst.name == "long-vs-chain2"
    kb, plan = load(inst.kb_text, inst.plan_text)
    net = build_pe_net(plan, kb, BuildOptions(clock_enabled=inst.clock))
    assert leads_to_success(net, plan).elimination_width <= 6
