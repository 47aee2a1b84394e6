"""Clock-time construction and situation splitting."""

import dataclasses

import pytest

from planeval import (
    BuildOptions,
    BuildError,
    PlanEvalError,
    Query,
    build_pe_net,
    clock_node,
    exact_query,
    flatten_hierarchy,
    inference,
    leads_to_success,
    linearize,
    mc_query,
)
from planeval.build import _apply_split, _scan_time_tree, make_schedule, split_situations
from planeval.errors import MissingDuration
from planeval.model import GroundAtom, format_bucket
from planeval.net import SituationId, atom_node, elapsed_node, ret_node

import duration_worlds
import instance_gen
from joint_oracle import joint_distribution
import trajectory_oracle as oracle
from fixtures import LONG_CHAIN_KB, OVERLAP_KB, OVERLAP_PLAN, load, long_chain_plan

TIMED_OPTS = BuildOptions(clock_enabled=True)

SEQ_KB = """
predicate (P) kind=primitive states { u v }
action (Tick ?d) level=0 { duration { 3:1.0 } effect (P) { * -> { v:1.0 } } }
action (Coin) level=0 { duration { 1:0.5 2:0.5 } effect (P) { * -> { v:1.0 } } }
"""


def timed_build(kb_text, plan_text, opts=None):
    kb, plan = load(kb_text, plan_text)
    return kb, plan, build_pe_net(plan, kb, opts or BuildOptions(clock_enabled=True))


def assert_final_marginals_match_timed_oracle(kb, plan, net, context=None, tol=1e-9):
    """Every final-situation marginal of the net is the timed oracle's within ``tol``."""
    flat = flatten_hierarchy(plan)
    marginals, _stats = oracle.timed_final_marginals(kb, flat, linearize(flat))
    final = net.situation_order[-1]
    for atom, dist in marginals.items():
        nid = atom_node(atom, final)
        for state in net.states_of(nid):
            got = exact_query(net, Query(targets=[(nid, state)])).probability
            assert abs(got - dist.get(state, 0.0)) <= tol, (context, str(atom), state)


def clock_marginal(net, token):
    nid = clock_node([s for s in net.situation_order if str(s) == token][0])
    out = {}
    for value in net.states_of(nid):
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


# The effect covers (P a)'s only reachable state, so (P a)@S1 records no
# persistence rows and reads no elapsed node.
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
    assert split is schedule  # split in place
    assert [str(si.sid) for si in split.situations] == ["S0", "S2a", "S1", "S2b", "S3"]
    assert split.dur_steps == {"a1", "a2"}  # the split's earlier and later steps
    assert split_situations(split) is split  # already a fixed point


def test_split_sign_mass_matches_the_duration_pairs():
    # Second (1 or 6) ends before First (2 or 4) exactly when it takes 1.
    kb_text = OVERLAP_KB.replace("duration { 1:0.5 6:0.5 }", "duration { 1:0.3 6:0.7 }")
    _kb, _plan, net = timed_build(kb_text, OVERLAP_PLAN)
    ret = ret_node("a1", "a2", SituationId(2, "a"))
    assert net.nodes[ret].states == ["negative", "nonnegative"]
    assert abs(exact_query(net, Query(targets=[(ret, "negative")])).probability - 0.3) <= 1e-12


def test_a_start_clock_beyond_the_cap_reads_as_arbitrarily_late():
    # s1_0 (start clock@S1: 3 or OTHER) is the later step and s0_2 (start
    # clock@S2, beyond the cap of 3 in every world) the earlier one. A later
    # start beyond the cap ends no earlier; an earlier start beyond it, with
    # the later one within, ends after the later step.
    kb, plan = instance_gen.generate_agents_timed(72)
    net = build_pe_net(plan, kb, BuildOptions(clock_enabled=True, clock_cap=3))
    node = net.nodes[ret_node("s0_2", "s1_0", SituationId(4, "a"))]
    assert [str(p) for p in node.parents] == ["clock@S1", "dur(s1_0)@S1", "clock@S2", "dur(s0_2)@S2"]
    assert net.nodes[clock_node(SituationId(2))].states == ["OTHER"]
    assert {combo: dict(dist) for combo, dist in node.cpt.items()} == {
        (3, 6, "OTHER", 3): {"negative": 1.0},
        (3, 6, "OTHER", 6): {"negative": 1.0},
        ("OTHER", 6, "OTHER", 3): {"nonnegative": 1.0},
        ("OTHER", 6, "OTHER", 6): {"nonnegative": 1.0},
    }
    # Each of the six steps gives its goal atom v with probability 3/4; the sign is a coin.
    want_goal = instance_gen.AGENT_EFFECT_V ** len(plan.steps)
    for targets, want in [(inference._goal_targets(net, plan), want_goal), ([(node.id, "negative")], 0.5)]:
        assert exact_query(net, Query(targets=targets)).probability == want
        mc = mc_query(net, Query(targets=targets, mode="mc", samples=20000, seed=1))
        assert abs(want - mc.probability) <= 5 * mc.standard_error


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


def test_a_split_sub_situation_keeps_every_state():
    # At S2a, v comes only from Second's effect gated on the negative sign
    # (probability 0.3); otherwise S2a is inactive and (P b) keeps its prior.
    _kb, _plan, net = timed_build(SIGN_RANK_KB, SIGN_RANK_PLAN)
    node = net.nodes[net.find("(P b)", "S2a")]
    assert node.states == ["u", "v", "w", "x"]
    want = {"u": 0.7 * 0.55, "v": 0.3, "w": 0.7 * 0.4, "x": 0.7 * 0.05}
    for state, p in want.items():
        assert abs(exact_query(net, Query(targets=[(node.id, state)])).probability - p) <= 1e-12, state


def test_goal_marginals_match_time_expanded_oracle():
    kb, plan, net = timed_build(OVERLAP_KB, OVERLAP_PLAN)
    flat = flatten_hierarchy(plan)
    order = linearize(flat)
    marginals, order_stats = oracle.timed_final_marginals(kb, flat, order)
    final = net.situation_order[-1]
    for atom, dist in marginals.items():
        nid = atom_node(atom, final)
        for state in net.states_of(nid):
            p_net = exact_query(net, Query(targets=[(nid, state)])).probability
            assert abs(p_net - dist.get(state, 0.0)) <= 1e-9, (str(atom), state)
    # the oracle agrees on the end-order probability too
    ret = [nid for nid in net.nodes if nid.ref[0] == "ret"][0]
    earlier, later = ret.ref[1], ret.ref[2]
    p_net = exact_query(net, Query(targets=[(ret, "negative")])).probability
    assert abs(p_net - order_stats[(earlier, later)]["negative"]) <= 1e-9


@pytest.mark.parametrize("seed", range(25))
def test_random_overlap_matches_timed_oracle(seed):
    kb, plan = instance_gen.generate_timed(seed)
    net = build_pe_net(plan, kb, BuildOptions(clock_enabled=True))
    assert audit_negative_elapsed(net) == []
    assert_final_marginals_match_timed_oracle(kb, plan, net, seed)


# Where the third step's start boundary c0 goes: after e1 or before it (sc
# still follows sb on its agent), or, on an agent of its own, between b0 and
# both ends, where clock@c0 is an alias of clock@S0, so a split of sc against
# a step starting at b0 reads two start clocks that differ as names but
# alias one node.
START_ONLY = {
    "c0-after-e1": ("ag2", [("e1", "c0")]),
    "c0-before-e1": ("ag2", [("c0", "e1")]),
    "c0-after-b0": ("ag3", [("b0", "c0"), ("c0", "e1"), ("c0", "e2")]),
}


def start_only_variant(seed: int, where: str):
    """generate_timed(seed) with its third step moved to start at a boundary
    no step ends, c0, placed as ``START_ONLY[where]`` says; None without a
    third step. No generate_timed plan has such a boundary: its third step
    starts at e2."""
    kb, plan = instance_gen.generate_timed(seed)
    if len(plan.steps) < 3:
        return None
    agent, order = START_ONLY[where]
    steps = [*plan.steps[:2], dataclasses.replace(plan.steps[2], start="c0", agent=agent)]
    return kb, dataclasses.replace(plan, steps=steps, order=order)


@pytest.mark.parametrize("where, compared, second_splits", [
    ("c0-after-e1", 116, 0), ("c0-before-e1", 116, 0), ("c0-after-b0", 48, 68)])
def test_start_only_boundaries_match_timed_oracle(where, compared, second_splits):
    # c0's clock is an alias of the clock before it: no ender moves it.
    seen = {"compared": 0, "second splits": 0}
    for seed in range(200):
        made = start_only_variant(seed, where)
        if made is None:
            continue
        kb, plan = made
        try:
            net = build_pe_net(plan, kb, BuildOptions(clock_enabled=True))
        except BuildError as err:  # three overlapping steps need a second split, which the build refuses
            assert "would need a second split; unsupported" in str(err), (seed, err)
            seen["second splits"] += 1
            continue
        assert any(nid.ref[0] == "clock" for nid in net.aliases), seed
        assert_final_marginals_match_timed_oracle(kb, plan, net, seed)
        seen["compared"] += 1
    assert seen == {"compared": compared, "second splits": second_splits}


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


# -- the split scan against the duration-world enumeration ----------------------


def scan_rounds_agree(kb, plan) -> int:
    """Every split round, the time-tree scan finds the world enumeration's conflict.

    Where splitting reaches a fixed point, each relative-end-time node of the
    built net also has the enumeration's probability for each sign. Returns
    the splits made.
    """
    flat = flatten_hierarchy(plan)
    schedule = make_schedule(flat, kb, TIMED_OPTS, linearize(flat))
    while True:
        want_conflict, want_mass = duration_worlds.scan_worlds(schedule)
        conflict = _scan_time_tree(schedule)
        assert conflict == want_conflict
        if conflict is None:
            break
        try:
            _apply_split(schedule, conflict)
        except PlanEvalError:
            return len(schedule.splits)
    net = build_pe_net(plan, kb, TIMED_OPTS)
    # a relative-end-time node may be an alias, of a duration it relabels
    assert [nid for nid in sorted([*net.nodes, *net.aliases], key=net.node_key) if nid.ref[0] == "ret"] == list(want_mass)
    for ret, by_sign in want_mass.items():
        for sign, want in by_sign.items():
            got = exact_query(net, Query(targets=[(ret, sign)])).probability
            assert abs(got - want) <= 1e-12, (str(ret), sign)
    return len(schedule.splits)


FAN_OUT_PLAN = """
step f0 ag0 (First) start=b0 end=e0
step f1 ag1 (Second) start=b0 end=e1
step f2 ag2 (Third) start=b0 end=e2
initial { (P x1)=u (P x2)=u (P x3)=u (P q)=u }
goal { (P q)=v }
"""


@pytest.mark.parametrize("kb_text, plan_text", [
    (SEQ_KB, TWO_COINS_PLAN),
    (OVERLAP_KB, OVERLAP_PLAN),
    (OVERLAP_KB, FAN_OUT_PLAN),
    (SIGN_RANK_KB, SIGN_RANK_PLAN),
    (COVERED_ELAPSED_KB, COVERED_ELAPSED_PLAN),
])
def test_split_scan_matches_world_enumeration_on_fixtures(kb_text, plan_text):
    scan_rounds_agree(*load(kb_text, plan_text))


def test_split_scan_matches_world_enumeration_on_generated_plans():
    for seed in range(200):
        scan_rounds_agree(*instance_gen.generate_timed(seed))


def test_split_scan_matches_world_enumeration_on_multi_agent_plans():
    splits = [scan_rounds_agree(*instance_gen.generate_agents_timed(seed)) for seed in range(300)]
    assert sum(n >= 2 for n in splits) >= 10  # the family exercises joint sign patterns


def test_clocked_shuttle_of_forty_steps_convolves_its_durations():
    # 4 agents x 10 steps in one total order: 2^40 joint duration worlds,
    # no split, and a final clock that is the sum of all 40 durations.
    kb_text = """
predicate (Loc ?obj) kind=primitive states { L1 L2 }
action (Go ?obj) level=0 { duration { 1:0.375 2:0.625 } effect (Loc ?obj) { (Loc ?obj)=L1 -> { L2:0.9 L1:0.1 } } }
action (Back ?obj) level=0 { duration { 1:0.5 3:0.5 } effect (Loc ?obj) { (Loc ?obj)=L2 -> { L1:0.9 L2:0.1 } } }
"""
    lines, tables = [], []
    for i in range(4):
        for j in range(10):
            action = "Go" if j % 2 == 0 else "Back"
            lines.append(f"step s{i}_{j} a{i} ({action} O{i}) start=b{i}_{j} end=b{i}_{j + 1}")
            tables.append({1: 0.375, 2: 0.625} if j % 2 == 0 else {1: 0.5, 3: 0.5})
        if i < 3:
            lines.append(f"before b{i}_10 b{i + 1}_0")
    lines.append("initial { " + " ".join(f"(Loc O{i})=L1" for i in range(4)) + " }")
    lines.append("goal { (Loc O0)=L1 }")
    kb, plan = load(kb_text, "\n".join(lines) + "\n")
    net = build_pe_net(plan, kb, BuildOptions(clock_enabled=True, clock_cap=120))
    assert all(sit.sub == "" for sit in net.situation_order)
    dist = clock_marginal(net, str(net.situation_order[-1]))
    want = duration_worlds.convolve(tables)
    assert sorted(dist) == sorted(want)
    for value, p in want.items():
        assert abs(dist[value] - p) <= 1e-12, value


# -- elapsed-time persistence: one shared bucket node per situation ------------

# (P ?x) and (Q ?x) share a bucket tiling; (R ?x) has its own.
TWO_TILINGS_KB = """
predicate (P ?x) kind=primitive states { u v }
predicate (Q ?x) kind=primitive states { u v }
predicate (R ?x) kind=primitive states { u v }
action (Coin ?x) level=0 { duration { 1:0.5 4:0.5 } effect (P ?x) { * -> { v:1.0 } } }
persistence (P ?x) elapsed { [0,3) [3,inf) } {
  u [0,3) -> { u:0.9 v:0.1 }
  u [3,inf) -> { u:0.5 v:0.5 }
}
persistence (Q ?x) elapsed { [0,3) [3,inf) } {
  u [3,inf) -> { u:0.25 v:0.75 }
}
persistence (R ?x) elapsed { [0,2) [2,inf) } {
  u [0,2) -> { u:0.8 v:0.2 }
  u [2,inf) -> { u:0.4 v:0.6 }
}
"""

TWO_TILINGS_PLAN = """
step s1 ag1 (Coin a) start=b0 end=b1
step s2 ag1 (Coin b) start=b1 end=b2
initial { (P a)=u (P b)=u (P c)=u (Q c)=u (R c)=u }
goal { (P c)=v }
"""


def bucketed_nets():
    """Clocked nets whose persistence models have elapsed buckets."""
    yield "two-tilings", timed_build(TWO_TILINGS_KB, TWO_TILINGS_PLAN)
    yield "overlap", timed_build(OVERLAP_KB, OVERLAP_PLAN)
    yield "overlap-cap-3", timed_build(OVERLAP_KB, OVERLAP_PLAN, BuildOptions(clock_enabled=True, clock_cap=3))
    yield "long-chain-4", timed_build(LONG_CHAIN_KB, long_chain_plan(4))
    for seed in range(25):
        kb, plan = instance_gen.generate_timed(seed)
        yield f"generate_timed-{seed}", (kb, plan, build_pe_net(plan, kb, TIMED_OPTS))
        # at clock_cap=3 some situations have no clock pair that a bucket takes
        capped = BuildOptions(clock_enabled=True, clock_cap=3)
        yield f"generate_timed-{seed}-cap-3", (kb, plan, build_pe_net(plan, kb, capped))


def read(net, nid):
    """The made node a name reads: its own, or an alias's source."""
    return net.aliases[nid].source if nid in net.aliases else nid


def test_no_primitive_atom_reads_a_clock():
    # except the one an elapsed node of its situation relabels, read in its place
    for name, (_kb, _plan, net) in bucketed_nets():
        relabelled = {alias.source for nid, alias in net.aliases.items() if nid.ref[0] == "elapsed"}
        for nid, node in net.nodes.items():
            if node.kind == "primitive":
                assert set(p for p in node.parents if p.ref[0] == "clock") <= relabelled, (name, str(nid))


def test_each_bucketed_atom_reads_its_situations_one_elapsed_node():
    for name, (kb, _plan, net) in bucketed_nets():
        readers = set()
        for nid, node in net.nodes.items():
            if node.kind != "primitive":
                continue
            model = kb.persistence[nid.atom.name]
            shared = elapsed_node(tuple(model.buckets), nid.sit)
            reachable = net.states_of(shared) if net.node_of(shared) else []
            shared = read(net, shared)  # an alias is read as its source
            elapsed = [p for p in node.parents if p.ref[0] == "elapsed" or p == shared]
            persisted = f"persistence {model.atom}" in node.provenance.values()
            if persisted and any(row.bucket and format_bucket(row.bucket) in reachable for row in model.rows):
                assert elapsed == [shared], (name, str(nid))
            assert elapsed in ([], [shared]), (name, str(nid))
            readers.update(elapsed)
        assert readers or name.endswith("cap-3"), name  # a capped clock may leave every bucket unreached
        for nid, node in net.nodes.items():
            if node.kind == "elapsed":
                assert nid in readers, (name, str(nid))  # no node that nothing reads
                clocks = {read(net, clock_node(net.situation_order[net.position(nid.sit) - 1])),
                          read(net, clock_node(nid.sit))}
                assert node.parents == sorted(clocks, key=net.node_key), (name, str(nid))
                assert set(node.states) - {"none"}, (name, str(nid))


def test_atoms_sharing_a_tiling_share_the_elapsed_node():
    _kb, _plan, net = timed_build(TWO_TILINGS_KB, TWO_TILINGS_PLAN)
    # At S1 the previous clock is 0, so both tilings relabel clock@S1: aliases
    # of it, which each atom reads in their place.
    s1 = SituationId(1)
    for buckets in (((0.0, 2.0), (2.0, float("inf"))), ((0.0, 3.0), (3.0, float("inf")))):
        assert net.aliases[elapsed_node(buckets, s1)].source == clock_node(s1)
    for atom in ("(P c)", "(Q c)", "(R c)"):
        assert clock_node(s1) in net.nodes[net.find(atom, "S1")].parents
    p, q, r = (net.nodes[net.find(atom, "S2")] for atom in ("(P c)", "(Q c)", "(R c)"))
    (p_elapsed,) = [n for n in p.parents if n.ref[0] == "elapsed"]
    (r_elapsed,) = [n for n in r.parents if n.ref[0] == "elapsed"]
    assert [n for n in q.parents if n.ref[0] == "elapsed"] == [p_elapsed]
    assert r_elapsed != p_elapsed
    assert sorted(str(n) for n in net.nodes if n.ref[0] == "elapsed" and str(n.sit) == "S2") == [
        "elapsed([0,2) [2,inf))@S2", "elapsed([0,3) [3,inf))@S2"]


def test_a_bucket_no_clock_pair_reaches_adds_no_state():
    _kb, _plan, net = timed_build("""
predicate (P ?x) kind=primitive states { u v w }
action (Quick) level=0 { duration { 1:1.0 } effect (P unrelated) { * -> { v:1.0 } } }
persistence (P ?x) elapsed { [0,3) [3,inf) } {
  u [0,3) -> { u:0.9 v:0.1 }
  u [3,inf) -> { w:1.0 }
}
""", """
step s1 ag (Quick) start=b0 end=b1
initial { (P unrelated)=u (P q)=u }
goal { (P q)=v }
""")
    node = net.nodes[net.find("(P q)", "S1")]
    assert node.states == ["u", "v"]
    (elapsed,) = [p for p in node.parents if p.ref[0] == "elapsed"]
    assert net.nodes[elapsed].states == ["[0,3)"]


def net_cells(net) -> int:
    return sum(len(node.cpt) * len(node.states) for node in net.nodes.values())


def test_long_chain_table_cells_grow_slower_than_the_cube_of_the_chain():
    # Cells may grow no faster than C^3: doubling the chain at most octuples them.
    small = net_cells(timed_build(LONG_CHAIN_KB, long_chain_plan(4))[2])
    large = net_cells(timed_build(LONG_CHAIN_KB, long_chain_plan(8))[2])
    assert large <= 8 * small, (small, large)


@pytest.mark.parametrize("kb_text, plan_text", [
    (TWO_TILINGS_KB, TWO_TILINGS_PLAN),
    (LONG_CHAIN_KB, long_chain_plan(2)),
    (LONG_CHAIN_KB, long_chain_plan(3)),
    (LONG_CHAIN_KB, long_chain_plan(4)),
], ids=["two-tilings", "long-chain-2", "long-chain-3", "long-chain-4"])
def test_elapsed_buckets_match_timed_oracle(kb_text, plan_text):
    kb, plan, net = timed_build(kb_text, plan_text)
    assert_final_marginals_match_timed_oracle(kb, plan, net)


def overflow_kb(warm: int) -> str:
    return f"""
predicate (P ?x) kind=primitive states {{ u v }}
action (Warm) level=0 {{ duration {{ {warm}:1.0 }} effect (P w) {{ * -> {{ v:1.0 }} }} }}
action (First) level=0 {{ duration {{ 2:0.5 4:0.5 }} effect (P r) {{ * -> {{ v:1.0 }} }} }}
action (Second) level=0 {{ duration {{ 1:0.5 6:0.5 }} effect (P r) {{ * -> {{ u:1.0 }} }} }}
"""


OVERFLOW_PLAN = """
step w ag0 (Warm) start=b00 end=b0
step a1 ag1 (First) start=b0 end=b1
step a2 ag2 (Second) start=b0 end=b2
initial { (P r)=u (P w)=u }
goal { (P r)=v }
"""


@pytest.mark.parametrize("warm,cap", [(4, 64), (4, 5), (4, 3), (70, 64)])
def test_steps_sharing_an_overflowed_start_clock_are_ordered_by_their_durations(warm, cap):
    # First and Second both start when Warm ends, so their end order depends
    # on their durations alone, even when Warm's end clock is past the cap.
    kb, plan, net = timed_build(overflow_kb(warm), OVERFLOW_PLAN, BuildOptions(clock_enabled=True, clock_cap=cap))
    assert [str(s) for s in net.situation_order] == ["S0", "S1", "S3a", "S2", "S3b"]
    start = clock_node(net.situation_order[1])
    assert ("OTHER" in net.nodes[start].states) == (warm > cap)
    flat = flatten_hierarchy(plan)
    marginals, _stats = oracle.timed_final_marginals(kb, flat, linearize(flat))
    want = marginals[GroundAtom("P", ("r",))]["v"]
    assert want == 0.5
    assert abs(leads_to_success(net, plan).probability - want) <= 1e-12


def test_capped_clock_values_fall_into_the_none_bucket():
    # At clock_cap=3, OTHER clock values and negative gaps land in ``none``,
    # which the no-change default fills. The answers were recorded when each
    # atom still read both clocks.
    _kb, _plan, net = timed_build(OVERLAP_KB, OVERLAP_PLAN, BuildOptions(clock_enabled=True, clock_cap=3))
    elapsed = net.nodes[elapsed_node(((0.0, 3.0), (3.0, float("inf"))), net.situation_order[2])]
    assert str(elapsed.id) == "elapsed([0,3) [3,inf))@S1"
    # clock@S1 is an alias of dur(a1)@S0, whose 4 it reads as OTHER; clock@S2a is 0 there
    assert net.aliases[clock_node(SituationId(1))].states == (2, "OTHER")
    assert elapsed.parents[0].ref == ("dur", "a1") and elapsed.cpt[(4, 0)] == {"none": 1.0}
    assert elapsed.states == ["[0,3)", "none"]
    recorded = {"S0": 0.0, "S2a": 0.05, "S1": 0.0975, "S2b": 0.0975, "S3": 0.11775}
    for sit, want in recorded.items():
        got = exact_query(net, Query(targets=[(net.find("(P q)", sit), "v")])).probability
        assert abs(got - want) <= 1e-12, sit


def test_an_elapsed_node_over_an_aliased_clock_reads_only_a_zero_gap():
    # No step ends at c0, so clock@S2 is an alias of clock@S1, whose value is
    # 2 or 4: the elapsed node at S2 pairs each value with itself, so every
    # gap is 0 and (P q) takes its [0,3) persistence row there.
    from test_build import FILL_KB

    plan_text = """
step s1 a1 (First) start=b0 end=b1
step s2 a2 (Quick x2) start=c0 end=c1
before b1 c0
initial { (P x1)=u (P x2)=u (P q)=u:0.5 (P q)=w:0.5 }
goal { (P q)=u }
"""
    kb, plan, net = timed_build(FILL_KB, plan_text)
    s1, s2 = SituationId(1), SituationId(2)
    assert net.aliases[clock_node(s2)].source == clock_node(s1) and net.nodes[clock_node(s1)].states == [2, 4]
    (elapsed,) = [nid for nid in net.nodes if nid.ref[0] == "elapsed" and nid.sit == s2]
    node = net.nodes[elapsed]
    assert node.parents == [clock_node(s1)] and node.states == ["[0,3)"]
    assert_final_marginals_match_timed_oracle(kb, plan, net, tol=1e-12)
