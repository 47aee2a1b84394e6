"""Clock-time construction and situation splitting."""

import pytest

from planeval import (
    BuildOptions,
    BuildError,
    MissingDuration,
    Query,
    build_pe_net,
    clock_node,
    exact_query,
    flatten_hierarchy,
    joint_distribution,
    linearize,
    split_situations,
)
from planeval.build import make_schedule
from planeval.net import atom_node

import trajectory_oracle as oracle
from fixtures import OVERLAP_KB, OVERLAP_PLAN, load

TIMED_OPTS = BuildOptions(clock_enabled=True)

SEQ_KB = """
predicate (P) kind=primitive states { u v }
action (Tick ?d) level=0 { duration { 3:1.0 } effect (P) { * -> { v:1.0 } } }
action (Coin) level=0 { duration { 1:0.5 2:0.5 } effect (P) { * -> { v:1.0 } } }
"""


def timed_build(kb_text, plan_text, opts=None):
    kb, plan = load(kb_text, plan_text)
    return kb, plan, build_pe_net(plan, kb, opts or BuildOptions(clock_enabled=True))


def clock_marginal(net, token):
    nid = clock_node([s for s in net.situation_order if str(s) == token][0])
    out = {}
    for value in net.nodes[nid].states:
        out[value] = exact_query(net, Query(targets=[(nid, value)])).probability
    return out


def test_single_deterministic_duration():
    _kb, _plan, net = timed_build(SEQ_KB, """
step s1 ag (Tick d) start=b0 end=b1
initial { (P)=u }
goal { (P)=v }
""")
    dist = clock_marginal(net, "S1")
    assert dist == {3: 1.0}


def test_sequential_uniform_durations_convolve():
    _kb, _plan, net = timed_build(SEQ_KB, """
step s1 ag (Coin) start=b0 end=b1
step s2 ag (Coin) start=b1 end=b2
initial { (P)=u }
goal { (P)=v }
""")
    dist = clock_marginal(net, "S2")
    assert abs(dist[2] - 0.25) <= 1e-12
    assert abs(dist[3] - 0.5) <= 1e-12
    assert abs(dist[4] - 0.25) <= 1e-12


def test_missing_duration_raises():
    kb, plan = load("""
predicate (P) kind=primitive states { u v }
action (NoDur) level=0 { effect (P) { * -> { v:1.0 } } }
""", """
step s1 ag (NoDur) start=b0 end=b1
initial { (P)=u }
goal { (P)=v }
""")
    with pytest.raises((MissingDuration, BuildError)):
        build_pe_net(plan, kb, BuildOptions(clock_enabled=True))


TWO_COINS_PLAN = """
step s1 ag (Coin) start=b0 end=b1
step s2 ag (Coin) start=b1 end=b2
initial { (P)=u }
goal { (P)=v }
"""


# The effect covers (P a)'s only reachable state but reads it, so the net
# keeps the elapsed-time persistence rows' clock parents on (P a)@S1.
COVERED_ELAPSED_KB = """
predicate (P ?x) kind=primitive states { u v }
action (Fix ?x) level=0 { duration { 1:0.5 2:0.5 } effect (P ?x) { (P ?x)=u -> { v:1.0 } } }
persistence (P ?x) elapsed { [0,3) [3,inf) } {
  u [0,3) -> { u:0.9 v:0.1 }
  u [3,inf) -> { u:0.5 v:0.5 }
}
"""

COVERED_ELAPSED_PLAN = """
step s1 ag (Fix a) start=b0 end=b1
initial { (P a)=u }
goal { (P a)=v }
"""


def test_clock_cap_buckets_large_sums_into_other():
    _kb, _plan, net = timed_build(SEQ_KB, TWO_COINS_PLAN, BuildOptions(clock_enabled=True, clock_cap=3))
    nid = [n for n in net.nodes if str(n) == "clock@S2"][0]
    assert net.nodes[nid].states == [2, 3, "OTHER"]


# -- overlapping plan: the split -----------------------------------------------


def test_sequential_plan_has_no_split():
    _kb, _plan, net = timed_build(SEQ_KB, """
step s1 ag (Coin) start=b0 end=b1
step s2 ag (Coin) start=b1 end=b2
initial { (P)=u }
goal { (P)=v }
""")
    assert all(sit.sub == "" for sit in net.situation_order)


def test_overlap_splits_second_end_situation():
    _kb, _plan, net = timed_build(OVERLAP_KB, OVERLAP_PLAN)
    assert [str(s) for s in net.situation_order] == ["S0", "S2a", "S1", "S2b", "S3"]
    rets = [nid for nid in net.nodes if nid.ref[0] == "ret"]
    assert len(rets) == 1
    assert net.nodes[rets[0]].states == ["negative", "nonnegative"]


def test_relative_end_time_probability_from_duration_pairs():
    _kb, _plan, net = timed_build(OVERLAP_KB, OVERLAP_PLAN)
    ret = [nid for nid in net.nodes if nid.ref[0] == "ret"][0]
    p_neg = exact_query(net, Query(targets=[(ret, "negative")])).probability
    # uniform duration weights: pairs (2,1) and (4,1) make the later step end first
    expected = 0.25 + 0.25
    assert abs(p_neg - expected) <= 1e-9


def audit_negative_elapsed(net):
    """Jointly reachable negative elapsed time between adjacent situations."""
    violations = []
    for prev, this in zip(net.situation_order, net.situation_order[1:]):
        pair = [clock_node(prev), clock_node(this)]
        if any(nid not in net.nodes for nid in pair):
            continue
        keep = sorted(pair, key=net.node_key)
        joint = joint_distribution(net, keep=keep, bound=float("inf"))
        for combo, prob in joint.items():
            values = dict(zip(keep, combo))
            a, b = values[pair[0]], values[pair[1]]
            if isinstance(a, int) and isinstance(b, int) and b - a < 0 and prob > 1e-15:
                violations.append((str(prev), str(this), a, b, prob))
    return violations


def test_no_reachable_negative_elapsed_after_split():
    _kb, _plan, net = timed_build(OVERLAP_KB, OVERLAP_PLAN)
    assert audit_negative_elapsed(net) == []


def test_split_situations_standalone_reaches_fixed_point():
    kb, plan = load(OVERLAP_KB, OVERLAP_PLAN)
    flat = flatten_hierarchy(plan)
    schedule = make_schedule(flat, kb, TIMED_OPTS, linearize(flat))
    assert all(si.sid.sub == "" for si in schedule.situations)  # not yet split
    split = split_situations(schedule)
    assert [str(si.sid) for si in split.situations] == ["S0", "S2a", "S1", "S2b", "S3"]
    assert split_situations(split) is split  # already a fixed point


def test_split_sign_mass_matches_the_duration_pairs():
    # Second (1 or 6) ends before First (2 or 4) exactly when it takes 1.
    kb_text = OVERLAP_KB.replace("duration { 1:0.5 6:0.5 }", "duration { 1:0.3 6:0.7 }")
    kb, plan = load(kb_text, OVERLAP_PLAN)
    flat = flatten_hierarchy(plan)
    split = split_situations(make_schedule(flat, kb, TIMED_OPTS, linearize(flat)))
    (spec,) = split.splits
    mass = split.sign_mass[spec.ret]
    assert abs(mass["negative"] - 0.3) <= 1e-12
    assert abs(mass["nonnegative"] - 0.7) <= 1e-12


SIGN_RANK_KB = """
predicate (P ?x) kind=primitive states { u v w x }
action (First) level=0 { duration { 2:0.5 4:0.5 } effect (P a) { * -> { u:1.0 } } }
action (Second) level=0 { duration { 1:0.3 6:0.7 } effect (P b) { * -> { v:1.0 } } }
action (Third) level=0 { duration { 1:1.0 } effect (P c) { * -> { v:1.0 } } }
"""

SIGN_RANK_PLAN = """
step a1 agent1 (First) start=b0 end=b1
step a2 agent2 (Second) start=b0 end=b2
step a3 agent2 (Third) start=b2 end=b3
initial { (P a)=u (P b)=u:0.55 (P b)=w:0.4 (P b)=x:0.05 (P c)=u }
goal { (P c)=v }
"""


def test_split_sign_mass_ranks_compaction():
    # At S2a, v comes only from Second's effect gated on the negative sign
    # (mass 0.3), so it ranks below w (0.4) and is compacted into OTHER;
    # a sign mass of 0.5 would keep v and drop w.
    _kb, _plan, net = timed_build(SIGN_RANK_KB, SIGN_RANK_PLAN, BuildOptions(clock_enabled=True, state_cap=3))
    assert net.nodes[net.find("(P b)", "S2a")].states == ["u", "w", "OTHER"]


def test_goal_marginals_match_time_expanded_oracle():
    kb, plan, net = timed_build(OVERLAP_KB, OVERLAP_PLAN)
    flat = flatten_hierarchy(plan)
    order = linearize(flat)
    marginals, order_stats = oracle.timed_final_marginals(kb, flat, order)
    final = net.situation_order[-1]
    for atom, dist in marginals.items():
        node = net.nodes[atom_node(atom, final)]
        for state in node.states:
            p_net = exact_query(net, Query(targets=[(node.id, state)])).probability
            assert abs(p_net - dist.get(state, 0.0)) <= 1e-9, (str(atom), state)
    # the oracle agrees on the end-order probability too
    ret = [nid for nid in net.nodes if nid.ref[0] == "ret"][0]
    earlier, later = ret.ref[1], ret.ref[2]
    p_net = exact_query(net, Query(targets=[(ret, "negative")])).probability
    assert abs(p_net - order_stats[(earlier, later)]["negative"]) <= 1e-9


@pytest.mark.parametrize("seed", range(25))
def test_random_overlap_matches_timed_oracle(seed):
    import instance_gen

    kb, plan = instance_gen.generate_timed(seed)
    net = build_pe_net(plan, kb, BuildOptions(clock_enabled=True))
    assert audit_negative_elapsed(net) == []
    flat = flatten_hierarchy(plan)
    order = linearize(flat)
    marginals, _stats = oracle.timed_final_marginals(kb, flat, order)
    final = net.situation_order[-1]
    for atom, dist in marginals.items():
        node = net.nodes[atom_node(atom, final)]
        for state in node.states:
            got = exact_query(net, Query(targets=[(node.id, state)])).probability
            assert abs(got - dist.get(state, 0.0)) <= 1e-9, (seed, str(atom), state)


def test_elapsed_bucket_rows_used_for_slow_transitions():
    # one long deterministic step: elapsed 3 lands in the [3,inf) bucket
    kb_text = """
predicate (P ?x) kind=primitive states { u v }
action (Slow) level=0 { duration { 3:1.0 } effect (P unrelated) { * -> { v:1.0 } } }
persistence (P ?x) elapsed { [0,3) [3,inf) } {
  u [0,3) -> { u:0.9 v:0.1 }
  u [3,inf) -> { u:0.5 v:0.5 }
}
"""
    plan_text = """
step s1 ag (Slow) start=b0 end=b1
initial { (P unrelated)=u (P q)=u }
goal { (P q)=v }
"""
    kb, plan = load(kb_text, plan_text)
    net = build_pe_net(plan, kb, BuildOptions(clock_enabled=True))
    p = exact_query(net, Query(targets=[(net.find("(P q)", "S1"), "v")])).probability
    assert abs(p - 0.5) <= 1e-12
