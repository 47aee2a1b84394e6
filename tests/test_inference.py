"""Inference engines: exact VE, Monte Carlo, enumeration oracle, plan metrics."""

import numpy as np
import pytest

from planeval import (
    Fragment,
    FragmentNode,
    FragmentRow,
    GroundAtom,
    InfeasibleEvidence,
    PENet,
    Query,
    SituationId,
    atom_node,
    finalize,
    paste_onto,
    TooLarge,
    WidthExceeded,
    build_pe_net,
    exact_query,
    leads_to_success,
    mc_query,
    oracle_enumerate,
    plan_success,
    validate_kb,
)
from planeval import inference

import instance_gen
from fixtures import HIERARCHY_KB, HIERARCHY_PLAN, MOVE_KB, TWO_STEP_PLAN, load


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


@pytest.mark.parametrize("seed", range(10))
def test_exact_matches_oracle_random_nets(seed):
    kb, plan = instance_gen.generate(100 + seed)
    assert not validate_kb(kb)
    net = build_pe_net(plan, kb)
    import random

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


def test_wide_bucket_with_many_factors_and_one_state_nodes():
    # One root with 40 observed two-state children and 60 one-state children:
    # the root's bucket holds more factors than one einsum call takes, and
    # the 61-node conjunction has more nodes than einsum has axis labels.
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
    result = exact_query(net, q, width_limit=100)
    assert result.elimination_width == 61
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


# -- Monte Carlo ---------------------------------------------------------------


def test_mc_deterministic_given_seed(two_step):
    _kb, _plan, net = two_step
    q = Query(targets=[(net.find("(Loc B)", "S2"), "L1")], mode="mc", samples=2000, seed=7)
    first = mc_query(net, q)
    second = mc_query(net, q)
    assert first.probability == second.probability
    assert first.standard_error == second.standard_error


def test_mc_answer_pinned(two_step):
    # recorded before MC read the frozen tables; same seed, same bits
    _kb, _plan, net = two_step
    q = Query(targets=[(net.find("(Loc B)", "S2"), "L1")], mode="mc", samples=2000, seed=7)
    result = mc_query(net, q)
    assert result.probability == 0.901
    assert result.standard_error == 0.006678285708173917


def test_mc_answer_pinned_with_evidence():
    # recorded before MC took its row index from np.ravel_multi_index: evidence
    # on a root and on a two-parent node, same seed, same bits
    _kb, _plan, net = build(HIERARCHY_KB, HIERARCHY_PLAN)
    side = net.find("(Side T)", "S2")
    assert len(net.nodes[side].parents) == 2
    evidence = {net.find("(Risk)", "S0"): "high", side: "clean"}
    q = Query(targets=[(net.find("(Done T)", "S2"), "yes")], evidence=evidence, mode="mc", samples=3000, seed=5)
    result = mc_query(net, q)
    assert result.probability == 0.4986666666666666
    assert result.standard_error == 0.009128676834062027


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
