"""Acceptance criteria, one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see per-criterion lines.
"""

import random
import time

import pytest

from planeval import (
    BuildOptions,
    Query,
    build_pe_net,
    canonical_dump,
    exact_query,
    flatten_hierarchy,
    leads_to_success,
    linearize,
    mc_query,
    plan_success,
    validate_kb,
)
from planeval.net import PENet, Fragment, FragmentNode, FragmentRow, SituationId, atom_node, paste_into, paste_onto
from planeval import GroundAtom

import instance_gen
import trajectory_oracle as oracle
from joint_oracle import oracle_enumerate
from fixtures import (
    CONTINGENT_KB,
    HIERARCHY_KB,
    HIERARCHY_PLAN,
    INVERTED_KB,
    MOVE_KB,
    OVERLAP_KB,
    OVERLAP_PLAN,
    RELIABLE_MOVE_KB,
    RELIABLE_MOVE_PLAN,
    TWO_STEP_PLAN,
    contingent_plan,
    load,
    load_kb,
)
from test_build import (
    SPREAD_KB,
    net_assignment_probability,
    shuttle_plan,
    spread_plan,
)
from test_clock import audit_negative_elapsed


def _finish(number, label, started, budget):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"criterion {number} ({label}): PASS in {elapsed:.2f}s")


def test_criterion_1_derived_effect_regression():
    started = time.monotonic()
    kb, plan = load(RELIABLE_MOVE_KB, RELIABLE_MOVE_PLAN)
    net = build_pe_net(plan, kb)
    p_loc = exact_query(net, Query(targets=[(net.find("(Loc X)", "S1"), "L2")])).probability
    p_at = exact_query(net, Query(targets=[(net.find("(At L1)", "S1"), "X")])).probability
    assert abs(p_loc - 1.0) <= 1e-12
    assert abs(p_at - 0.0) <= 1e-12
    diags = validate_kb(load_kb(INVERTED_KB))
    assert any(d.code == "derived-as-consequence" for d in diags)
    _finish(1, "derived-effect regression", started, 1.0)


def test_criterion_2_oracle_equivalence_corpus():
    started = time.monotonic()
    instances = 200
    for seed in range(instances):
        kb, plan = instance_gen.generate(seed)
        assert not validate_kb(kb)
        flat = flatten_hierarchy(plan)
        order = linearize(flat)
        worlds = oracle.enumerate_trajectories(kb, flat, order)
        assert abs(sum(w.prob for w in worlds) - 1.0) <= 1e-9

        net = build_pe_net(plan, kb)

        # full-joint equivalence of the construction pipeline
        atoms = oracle._universe(kb, flat)
        sel_bounds = [g.boundary for g in flat.contingencies]
        keyed = [atom_node(a, sit) for sit in net.situation_order for a in atoms]
        for boundary in sel_bounds:
            keyed.extend(nid for nid in net.nodes if nid.ref == ("sel", boundary))
        for key, expected in oracle.joint(worlds, atoms, len(order), sel_bounds).items():
            assignment = dict(zip(keyed, key))
            assert abs(net_assignment_probability(net, assignment) - expected) <= 1e-9

        # twenty random queries: exact VE against brute-force enumeration
        rng = random.Random(seed)
        nodes = sorted(net.nodes, key=net.node_key)
        reference = max(worlds, key=lambda w: w.prob)
        for _ in range(20):
            targets = []
            for _t in range(rng.randint(1, 2)):
                nid = rng.choice(nodes)
                targets.append((nid, rng.choice(net.nodes[nid].states)))
            evidence = {}
            if rng.random() < 0.4:
                atom = rng.choice(atoms)
                pos = rng.randrange(len(order))
                evidence[atom_node(atom, net.situation_order[pos])] = reference.states[pos][atom]
            q = Query(targets=targets, evidence=evidence)
            a = exact_query(net, q).probability
            b = oracle_enumerate(net, q, bound=float("inf")).probability
            assert abs(a - b) <= 1e-9, (seed, targets, evidence)
    _finish(2, f"oracle equivalence over {instances} instances", started, 300.0)


def test_criterion_3_partial_model_completion():
    started = time.monotonic()
    kb_text = """
predicate (P) kind=primitive states { a b c }
action (Poke) level=0 {
  effect (P) { (P)=a -> { b:1.0 } }
}
persistence (P) {
  b -> { b:0.5 c:0.5 }
}
"""
    plan_text = """
step s1 ag (Poke) start=b0 end=b1
initial { (P)=a:0.5 (P)=b:0.25 (P)=c:0.25 }
goal { (P)=b }
"""
    kb, plan = load(kb_text, plan_text)
    net = build_pe_net(plan, kb)
    node = net.find("(P)", "S1")
    assert net.row_provenance(node, ("a",)) == "action s1"
    assert net.row_provenance(node, ("b",)) == "persistence (P)"
    assert net.row_provenance(node, ("c",)) == "default-persistence"
    # zero IncompleteCPT across a spread of generated instances
    for seed in range(40):
        kb_i, plan_i = instance_gen.generate(1000 + seed)
        net_i = build_pe_net(plan_i, kb_i)  # finalize raises IncompleteCPT on any gap
        assert net_i.finalized
    _finish(3, "partial-model completion by persistence then default", started, 10.0)


def test_criterion_4_contingency_mixture():
    started = time.monotonic()
    singles = {}
    for step_id, action in (("f1", "FixA"), ("f2", "FixB")):
        plan_text = f"""
step {step_id} a1 ({action} m) start=b0 end=b1
initial {{ (S m)=ok (R m)=lo }}
goal {{ (R m)=hi }}
"""
        kb, plan = load(CONTINGENT_KB, plan_text)
        net = build_pe_net(plan, kb)
        nid = net.find("(R m)", "S1")
        singles[step_id] = {
            state: oracle_enumerate(net, Query(targets=[(nid, state)])).probability
            for state in ("lo", "hi")
        }
    for weight in (0.0, 0.2, 0.5, 1.0):
        kb, plan = load(CONTINGENT_KB, contingent_plan(weight))
        net = build_pe_net(plan, kb)
        nid = net.find("(R m)", "S1")
        for state in ("lo", "hi"):
            mixed = weight * singles["f1"][state] + (1.0 - weight) * singles["f2"][state]
            got = exact_query(net, Query(targets=[(nid, state)])).probability
            assert abs(got - mixed) <= 1e-9, (weight, state)
    _finish(4, "contingent selector mixes single-action marginals", started, 10.0)


def test_criterion_5_hierarchy_metrics():
    started = time.monotonic()
    kb, plan = load(HIERARCHY_KB, HIERARCHY_PLAN)
    net = build_pe_net(plan, kb)
    lead = leads_to_success(net, plan).probability
    succ = plan_success(net, plan).probability
    assert succ <= lead + 1e-12
    # oracle-computed non-selected branch success mass
    flat = flatten_hierarchy(plan)
    order = linearize(flat)
    worlds = oracle.enumerate_trajectories(kb, flat, order)
    goal_atom, goal_state = plan.goals[0]
    final = len(order) - 1
    boundary = flat.contingencies[0].boundary
    off_path = sum(
        w.prob for w in worlds
        if w.states[final][goal_atom] == goal_state and w.selections.get(boundary) != "c1"
    )
    assert abs((lead - succ) - off_path) <= 1e-9
    # property across generated contingent instances
    for seed in range(30):
        kb_i, plan_i = instance_gen.generate(2000 + seed)
        net_i = build_pe_net(plan_i, kb_i)
        assert plan_success(net_i, plan_i).probability <= leads_to_success(net_i, plan_i).probability + 1e-12
    _finish(5, "plan-success vs leads-to-success split", started, 30.0)


def test_criterion_6_temporal_splitting():
    started = time.monotonic()
    # durations {2,4} and {1,6}, uniform weights (declared fixture choice)
    kb, plan = load(OVERLAP_KB, OVERLAP_PLAN)
    net = build_pe_net(plan, kb, BuildOptions(clock_enabled=True))
    assert [str(s) for s in net.situation_order] == ["S0", "S2a", "S1", "S2b", "S3"]

    # (a) zero reachable negative-elapsed persistence conditioning
    assert audit_negative_elapsed(net) == []

    # (b) relative-end-time sign from enumerating the duration pairs
    ret = [nid for nid in net.nodes if nid.ref[0] == "ret"][0]
    p_neg = exact_query(net, Query(targets=[(ret, "negative")])).probability
    pairs = [(2, 1), (2, 6), (4, 1), (4, 6)]
    expected = sum(0.25 for d1, d2 in pairs if d2 < d1)
    assert abs(p_neg - expected) <= 1e-9

    # (c) goal marginals against the time-expanded trajectory oracle
    flat = flatten_hierarchy(plan)
    order = linearize(flat)
    marginals, order_stats = oracle.timed_final_marginals(kb, flat, order)
    final = net.situation_order[-1]
    for atom, dist in marginals.items():
        nid = atom_node(atom, final)
        for state in net.states_of(nid):
            got = exact_query(net, Query(targets=[(nid, state)])).probability
            assert abs(got - dist.get(state, 0.0)) <= 1e-9, (str(atom), state)
    assert abs(order_stats[(ret.ref[1], ret.ref[2])]["negative"] - p_neg) <= 1e-9
    _finish(6, "temporal splitting on the overlapping-durations plan", started, 30.0)


def test_criterion_7_linear_growth_and_compaction():
    started = time.monotonic()
    counts = {}
    for length in range(1, 7):
        kb, plan = load(MOVE_KB, shuttle_plan(length))
        counts[length] = len(build_pe_net(plan, kb).nodes)
    slope = counts[2] - counts[1]
    intercept = counts[1] - slope * 2
    for length in range(1, 7):
        assert counts[length] == slope * (length + 1) + intercept, counts
    # the exponential-growth instance keeps every reachable state, merging none
    kb, plan = load(SPREAD_KB, spread_plan(6))
    net = build_pe_net(plan, kb)
    sizes = [len(net.states_of(atom_node(GroundAtom("Reg"), sit))) for sit in net.situation_order]
    assert sizes == [1, 2, 4, 8, 8, 8, 8]
    assert all("OTHER" not in node.states for node in net.nodes.values())
    _finish(7, "affine node growth and exact state sets", started, 30.0)


def test_criterion_8_mc_calibration():
    started = time.monotonic()
    kb, plan = load(MOVE_KB, TWO_STEP_PLAN)
    net = build_pe_net(plan, kb)
    target = [(net.find("(Loc B)", "S2"), "L1")]
    exact = exact_query(net, Query(targets=target)).probability
    misses = 0
    for seed in range(100):
        result = mc_query(net, Query(targets=target, mode="mc", samples=100000, seed=seed))
        if abs(result.probability - exact) > 3 * result.standard_error:
            misses += 1
    assert misses <= 1, f"{misses} of 100 seeds missed the 3-sigma band"
    # identical seed, identical bytes
    one = mc_query(net, Query(targets=target, mode="mc", samples=100000, seed=5))
    two = mc_query(net, Query(targets=target, mode="mc", samples=100000, seed=5))
    assert f"{one.probability:.17g} {one.standard_error:.17g}" == f"{two.probability:.17g} {two.standard_error:.17g}"
    _finish(8, f"MC calibration ({100 - misses}/100 within 3 sigma)", started, 300.0)


def test_criterion_9_determinism_and_paste_laws():
    started = time.monotonic()
    # bit-deterministic construction
    for kb_text, plan_text in ((MOVE_KB, TWO_STEP_PLAN), (HIERARCHY_KB, HIERARCHY_PLAN)):
        kb1, plan1 = load(kb_text, plan_text)
        kb2, plan2 = load(kb_text, plan_text)
        assert canonical_dump(build_pe_net(plan1, kb1)) == canonical_dump(build_pe_net(plan2, kb2))
    # paste laws over random fragments
    s0, s1 = SituationId(0), SituationId(1)
    base_nodes = [
        atom_node(GroundAtom("V", (str(i),)), s0 if i < 2 else s1) for i in range(4)
    ]
    rng = random.Random(42)
    for _round in range(30):
        net = PENet()
        paste_onto(net, Fragment(nodes=[
            FragmentNode(base_nodes[0], "primitive", ["x", "y"]),
            FragmentNode(base_nodes[1], "primitive", ["x", "y"]),
            FragmentNode(base_nodes[2], "primitive", ["x", "y"], [base_nodes[0]]),
            FragmentNode(base_nodes[3], "primitive", ["x", "y"], [base_nodes[1]]),
        ]))
        fragments = []
        for _f in range(3):
            target = rng.choice(base_nodes[2:])
            parent = base_nodes[0] if target == base_nodes[2] else base_nodes[1]
            rows = []
            for state in ("x", "y"):
                if rng.random() < 0.8:
                    p = rng.choice([0.25, 0.5, 1.0])
                    dist = {"x": p, "y": 1.0 - p} if p < 1.0 else {"x": 1.0}
                    rows.append(FragmentRow(target, {parent: state}, dist, f"w{_f}"))
            fragments.append(Fragment(rows=rows))
        for frag in fragments:
            paste_onto(net, frag)
            snap = canonical_dump(net)
            paste_onto(net, frag)
            assert canonical_dump(net) == snap  # paste_onto(paste_onto(n,f),f) == paste_onto(n,f)
        # last-writer-wins at row granularity: the final fragment owns its rows
        last = fragments[-1]
        for row in last.rows:
            node = net.nodes[row.node]
            for combo in node.cpt:
                values = dict(zip(node.parents, combo))
                if all(values[k] == v for k, v in row.condition.items()):
                    assert node.provenance[combo] == row.provenance
        # paste_into adds nothing once rows exist
        snap = canonical_dump(net)
        for frag in fragments:
            paste_into(net, frag)
        assert canonical_dump(net) == snap
    _finish(9, "bit determinism, paste idempotence, last-writer-wins", started, 60.0)
