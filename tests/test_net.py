"""PE-net substrate: paste semantics, layering rules, finalize."""

import itertools
import math
import random
import re

import numpy as np
import pytest

from planeval import (
    BuildOptions,
    GroundAtom,
    PENet,
    PlanEvalError,
    TooLarge,
    build_pe_net,
    canonical_dump,
    clock_node,
)
from planeval import net as net_module
from planeval.errors import IncompleteCPT, LayeringViolation
from planeval.net import (
    FillBlock,
    Fragment,
    FragmentNode,
    FragmentRow,
    SituationId,
    atom_node,
    elapsed_node,
    finalize,
    paste_into,
    paste_onto,
    ret_node,
    sel_node,
)

from planeval.net import _MAX_TABLE_DIMS as MAX_TABLE_DIMS

import forward_sampler
import instance_gen

S0 = SituationId(0)
S1 = SituationId(1)

LOC_A0 = atom_node(GroundAtom("Loc", ("A",)), S0)
LOC_A1 = atom_node(GroundAtom("Loc", ("A",)), S1)
LOC_B1 = atom_node(GroundAtom("Loc", ("B",)), S1)


def move_fragment():
    return Fragment(
        nodes=[
            FragmentNode(LOC_A0, "primitive", ["L1", "L2"]),
            FragmentNode(LOC_A1, "primitive", ["L1", "L2"], [LOC_A0]),
        ],
        rows=[
            FragmentRow(LOC_A1, {LOC_A0: "L1"}, {"L2": 0.9, "L1": 0.1}, "action move"),
            FragmentRow(LOC_A1, {LOC_A0: "L2"}, {"L2": 1.0}, "action move"),
        ],
    )


def persistence_fragment(target=LOC_A1, parent=LOC_A0):
    return Fragment(
        nodes=[
            FragmentNode(parent, "primitive", ["L1", "L2"]),
            FragmentNode(target, "primitive", ["L1", "L2"], [parent]),
        ],
        rows=[
            FragmentRow(target, {parent: "L1"}, {"L1": 1.0}, "persistence"),
            FragmentRow(target, {parent: "L2"}, {"L2": 1.0}, "persistence"),
        ],
    )


def test_paste_onto_empty_net_installs_fragment():
    net = PENet()
    paste_onto(net, move_fragment())
    node = net.nodes[LOC_A1]
    assert node.parents == [LOC_A0]
    assert node.cpt[("L1",)] == {"L1": 0.1, "L2": 0.9}
    assert net.row_provenance(LOC_A1, ("L1",)) == "action move"


def test_paste_onto_replaces_conflicting_rows():
    net = PENet()
    paste_onto(net, persistence_fragment())
    paste_onto(net, move_fragment())
    assert net.nodes[LOC_A1].cpt[("L1",)] == {"L1": 0.1, "L2": 0.9}
    assert net.row_provenance(LOC_A1, ("L1",)) == "action move"


def test_paste_into_defers_to_existing_rows():
    net = PENet()
    paste_onto(net, move_fragment())
    paste_into(net, persistence_fragment())
    # the action rows survive untouched
    assert net.nodes[LOC_A1].cpt[("L1",)] == {"L1": 0.1, "L2": 0.9}
    assert net.row_provenance(LOC_A1, ("L1",)) == "action move"


def test_paste_into_fills_missing_nodes():
    net = PENet()
    paste_onto(net, move_fragment())
    frag = persistence_fragment(target=LOC_B1, parent=atom_node(GroundAtom("Loc", ("B",)), S0))
    paste_into(net, frag)
    assert LOC_B1 in net.nodes
    assert net.row_provenance(LOC_B1, ("L1",)) == "persistence"


def test_paste_into_idempotent():
    net = PENet()
    paste_onto(net, move_fragment())
    paste_into(net, persistence_fragment())
    before = canonical_dump(net)
    paste_into(net, persistence_fragment())
    assert canonical_dump(net) == before


def test_paste_onto_idempotent():
    net = PENet()
    paste_onto(net, move_fragment())
    before = canonical_dump(net)
    paste_onto(net, move_fragment())
    assert canonical_dump(net) == before


def test_within_situation_arc_into_primitive_rejected():
    net = PENet()
    derived_same = atom_node(GroundAtom("At", ("L1",)), S1)
    frag = Fragment(
        nodes=[
            FragmentNode(LOC_A0, "primitive", ["L1", "L2"]),
            FragmentNode(derived_same, "derived", ["X", "NONE"], []),
            FragmentNode(LOC_A1, "primitive", ["L1", "L2"], []),
        ],
    )
    paste_onto(net, frag)
    bad = Fragment(nodes=[FragmentNode(LOC_A1, "primitive", ["L1", "L2"], [derived_same])])
    with pytest.raises(LayeringViolation):
        paste_onto(net, bad)


def test_cross_situation_arc_into_derived_rejected():
    # A derived node reads primitive nodes of its own or an earlier
    # situation; one of a later situation, or another derived node, it refuses.
    net = PENet()
    derived0, derived1 = atom_node(GroundAtom("At", ("L1",)), S0), atom_node(GroundAtom("At", ("L1",)), S1)
    frag = Fragment(
        nodes=[
            FragmentNode(LOC_A0, "primitive", ["L1", "L2"]),
            FragmentNode(LOC_A1, "primitive", ["L1", "L2"]),
            FragmentNode(derived0, "derived", ["X", "NONE"], []),
            FragmentNode(derived1, "derived", ["X", "NONE"], []),
        ],
    )
    paste_onto(net, frag)
    for child, parent, match in ((derived0, LOC_A1, "parent follows the child situation"),
                                 (derived1, derived0, "derived nodes take primitive parents only")):
        with pytest.raises(LayeringViolation, match=match):
            paste_onto(net, Fragment(nodes=[FragmentNode(child, "derived", ["X", "NONE"], [parent])]))
        assert net.nodes[child].parents == []


def test_a_derived_node_reads_a_primitive_of_an_earlier_situation():
    # where the same-situation primitive is an alias of an earlier node, the derived node reads that node
    net = PENet()
    derived = atom_node(GroundAtom("At", ("L1",)), S1)
    paste_onto(net, Fragment(nodes=[FragmentNode(LOC_A0, "primitive", ["L1", "L2"]),
                                    FragmentNode(derived, "derived", ["X", "NONE"], [LOC_A0])]))
    assert net.nodes[derived].parents == [LOC_A0]


@pytest.mark.parametrize("registered, child, match", [
    (FragmentNode(atom_node(GroundAtom("At", ("L2",)), S0), "derived", ["X", "NONE"]),
     FragmentNode(atom_node(GroundAtom("At", ("L1",)), S1), "derived", ["X", "NONE"],
                  [atom_node(GroundAtom("At", ("L2",)), S0)]),
     "derived nodes take primitive parents only"),
    (FragmentNode(LOC_A1, "primitive", ["L1", "L2"]), FragmentNode(LOC_A0, "primitive", ["L1", "L2"], [LOC_A1]),
     "parent follows the child situation"),
], ids=["derived-after-its-parent", "primitive-before-its-parent"])
def test_a_refused_arc_registers_no_situation(registered, child, match):
    # The child's situation is new to the net: the arc is judged by where
    # the situation would go, and a refusal leaves the order as it was.
    net = PENet()
    net.ensure_node(registered)
    registered = registered.id
    with pytest.raises(LayeringViolation, match=match):
        net.ensure_node(child)
    assert net.situation_order == [registered.sit]
    assert list(net.nodes) == [registered]
    net.ensure_node(FragmentNode(child.id, "primitive", child.states))  # no arc: the situation goes in
    assert net.situation_order == sorted([registered.sit, child.id.sit])


@pytest.mark.parametrize("gate", [
    FragmentNode(clock_node(S0), "clock", [0, 1]),
    FragmentNode(sel_node("b0", S0), "action-selection", ["f1", "noop"]),
    FragmentNode(ret_node("s1", "s2", S0), "relative-end-time", ["negative", "nonnegative"]),
], ids=lambda spec: spec.kind)
def test_backward_arc_into_gating_node_rejected(gate):
    net = PENet()
    paste_onto(net, Fragment(nodes=[gate, FragmentNode(LOC_A1, "primitive", ["L1", "L2"])]))
    bad = Fragment(nodes=[FragmentNode(gate.id, gate.kind, gate.states, [LOC_A1])])
    with pytest.raises(LayeringViolation):
        paste_onto(net, bad)
    assert net.nodes[gate.id].parents == []


def test_rejected_cycle_arc_leaves_node_unchanged():
    # selection -> primitive and primitive -> selection are both legal
    # same-situation arcs; together they close a cycle.
    sel = sel_node("b1", S1)
    net = PENet()
    paste_onto(net, Fragment(
        nodes=[
            FragmentNode(LOC_A0, "primitive", ["L1", "L2"]),
            FragmentNode(sel, "action-selection", ["g1", "noop"], [LOC_A0]),
            FragmentNode(LOC_A1, "primitive", ["L1", "L2"], [sel]),
        ],
        rows=[FragmentRow(sel, {LOC_A0: "L1"}, {"g1": 1.0}, "selector")],
    ))
    node = net.nodes[sel]
    parents, cpt, provenance = list(node.parents), dict(node.cpt), dict(node.provenance)
    with pytest.raises(PlanEvalError, match="cycle"):
        net.add_parent(node, LOC_A1)
    assert (node.parents, node.cpt, node.provenance) == (parents, cpt, provenance)


def test_row_pinning_an_undeclared_parent_is_rejected_unwritten():
    net = PENet()
    paste_onto(net, move_fragment())
    stray = atom_node(GroundAtom("Loc", ("B",)), S0)
    paste_onto(net, Fragment(nodes=[FragmentNode(stray, "primitive", ["L1", "L2"])]))
    before = canonical_dump(net)
    row = FragmentRow(LOC_A1, {LOC_A0: "L1", stray: "L2"}, {"L1": 1.0}, "stray")
    for paste in (paste_onto, paste_into):
        with pytest.raises(PlanEvalError, match=r"pins \(Loc B\)@S0, which is not one of its parents"):
            paste(net, Fragment(rows=[row]))
    assert canonical_dump(net) == before
    assert net.nodes[LOC_A1].parents == [LOC_A0]


def test_parent_added_after_rows_is_rejected():
    net = PENet()
    paste_onto(net, move_fragment())
    extra = atom_node(GroundAtom("Loc", ("B",)), S0)
    paste_onto(net, Fragment(nodes=[FragmentNode(extra, "primitive", ["L1", "L2"])]))
    node = net.nodes[LOC_A1]
    parents, cpt = list(node.parents), dict(node.cpt)
    with pytest.raises(PlanEvalError, match="already has rows"):
        net.add_parent(node, extra)
    with pytest.raises(PlanEvalError, match="already has rows"):
        paste_onto(net, Fragment(nodes=[FragmentNode(LOC_A1, "primitive", ["L1", "L2"], [extra])]))
    assert (node.parents, node.cpt) == (parents, cpt)


@pytest.mark.parametrize("kind, states", [
    ("primitive", ["L1", "L2", "L3"]),
    ("primitive", ["L2", "L1"]),
    ("derived", ["L1", "L2"]),
])
def test_redeclaration_must_repeat_kind_and_states(kind, states):
    net = PENet()
    paste_onto(net, move_fragment())
    with pytest.raises(PlanEvalError, match="a re-declaration says"):
        net.ensure_node(FragmentNode(LOC_A1, kind, states))
    assert (net.nodes[LOC_A1].kind, net.nodes[LOC_A1].states) == ("primitive", ["L1", "L2"])
    # repeating the shape, even with a known parent, is allowed
    assert net.ensure_node(FragmentNode(LOC_A1, "primitive", ["L1", "L2"], [LOC_A0])) is net.nodes[LOC_A1]


def test_finalize_requires_full_coverage():
    net = PENet()
    frag = move_fragment()
    frag.rows = frag.rows[:1]  # drop the L2 row
    paste_onto(net, frag)
    paste_onto(net, Fragment(rows=[FragmentRow(LOC_A0, {}, {"L1": 0.5, "L2": 0.5}, "prior")]))
    with pytest.raises(IncompleteCPT):
        finalize(net)


def test_finalize_rejects_a_row_that_does_not_sum_to_one():
    net = PENet()
    paste_onto(net, Fragment(nodes=[FragmentNode(LOC_A0, "primitive", ["L1", "L2"])],
                             rows=[FragmentRow(LOC_A0, {}, {"L1": 0.5}, "prior")]))
    with pytest.raises(PlanEvalError, match=r"^row \(Loc A\)@S0\(\) sums to 0.5$"):
        finalize(net)
    assert not net.finalized


def test_finalize_freezes_and_is_idempotent():
    net = PENet()
    paste_onto(net, move_fragment())
    paste_onto(net, Fragment(rows=[FragmentRow(LOC_A0, {}, {"L1": 0.5, "L2": 0.5}, "prior")]))
    finalize(net)
    before = canonical_dump(net)
    assert finalize(net) is net
    assert canonical_dump(net) == before
    with pytest.raises(Exception):
        paste_onto(net, move_fragment())


def test_finalize_freezes_each_cpt_into_a_read_only_table():
    net = PENet()
    paste_onto(net, move_fragment())
    paste_onto(net, Fragment(rows=[FragmentRow(LOC_A0, {}, {"L1": 0.5, "L2": 0.5}, "prior")]))
    assert net.nodes[LOC_A1].table is None
    finalize(net)
    table = net.nodes[LOC_A1].table
    assert table.shape == (2, 2) and table.dtype == np.float64
    assert table.tolist() == [[0.1, 0.9], [0.0, 1.0]]
    with pytest.raises(ValueError):
        table[0, 0] = 0.5
    with pytest.raises(ValueError):
        table.flags.writeable = True
    with pytest.raises(ValueError):
        table.base.flags.writeable = True


@pytest.mark.parametrize("seed", range(60))
def test_table_holds_the_cpt_rows_in_parent_state_order(seed):
    kb, plan = instance_gen.generate(seed)
    net = build_pe_net(plan, kb)
    for node in net.nodes.values():
        pools = [net.nodes[p].states for p in node.parents]
        assert node.table.shape == tuple(len(pool) for pool in pools) + (len(node.states),)
        assert not node.table.flags.writeable
        for combo in itertools.product(*pools):
            dist = node.cpt[combo]
            at = tuple(net.nodes[p].states.index(v) for p, v in zip(node.parents, combo))
            assert node.table[at].tolist() == [dist.get(s, 0.0) for s in node.states]


@pytest.mark.parametrize("timed", [False, True])
@pytest.mark.parametrize("seed", range(60))
def test_finalize_stores_the_topological_order(seed, timed):
    # with the clock on, a gating parent can sort after its same-situation child
    # by key, so the key order alone is not topological
    kb, plan = (instance_gen.generate_timed if timed else instance_gen.generate)(seed)
    net = build_pe_net(plan, kb, BuildOptions(clock_enabled=timed))
    order = net.topological_nodes()
    assert isinstance(order, tuple)
    assert list(order) == forward_sampler.topological_nodes(net)
    assert net.topological_nodes() == order
    node = net.nodes[order[-1]]
    with pytest.raises(PlanEvalError, match="immutable"):
        net.ensure_node(FragmentNode(node.id, node.kind, ["fresh"]))
    with pytest.raises(PlanEvalError, match="immutable"):
        net.add_parent(node, next(nid for nid in order if nid not in node.parents and nid != node.id))
    assert net.topological_nodes() == order


@pytest.mark.parametrize("timed", [False, True])
@pytest.mark.parametrize("seed", range(0, 60, 3))
def test_finalize_numbers_the_nodes_in_key_order(seed, timed):
    kb, plan = (instance_gen.generate_timed if timed else instance_gen.generate)(seed)
    net = build_pe_net(plan, kb, BuildOptions(clock_enabled=timed))
    numbering = net.numbering
    assert numbering.ids == tuple(sorted(net.nodes, key=net.node_key))
    for i, nid in enumerate(numbering.ids):
        node = net.nodes[nid]
        assert numbering.number[nid] == i
        # Only multi-state parents, and the table viewed over them alone.
        multi = [p for p in node.parents if len(net.nodes[p].states) > 1]
        assert numbering.parents[i] == tuple(numbering.number[p] for p in multi)
        table = numbering.tables[i]
        assert table.shape == tuple(len(net.nodes[p].states) for p in multi) + (len(node.states),)
        assert np.shares_memory(table, node.table) and table.base is node.table.base
        assert table.tobytes() == node.table.tobytes()
        assert numbering.sizes[i] == len(node.states)
    assert tuple(numbering.ids[v] for v in numbering.order) == net.topological_nodes()
    placed = set()
    for v in numbering.order:  # the order respects every parent, one-state ones too
        assert placed.issuperset(numbering.number[p] for p in net.nodes[numbering.ids[v]].parents)
        placed.add(v)
    assert placed == set(range(len(net.nodes)))
    # The rank puts the multi-state nodes first, in an order of their own,
    # then the one-state nodes by number.
    ranked = [v for v, k in enumerate(numbering.sizes) if k > 1]
    by_rank = sorted(range(len(net.nodes)), key=numbering.rank.__getitem__)
    assert sorted(numbering.rank) == list(range(len(net.nodes)))
    assert sorted(by_rank[:len(ranked)]) == ranked
    assert by_rank[len(ranked):] == sorted(set(range(len(net.nodes))) - set(ranked))
    for field in (numbering.ids, numbering.parents, numbering.tables, numbering.sizes, numbering.order,
                  numbering.rank, numbering.strides, numbering.cdfs):
        assert type(field) is tuple
    assert all(type(parents) is tuple for parents in numbering.parents)
    for v, (table, k) in enumerate(zip(numbering.tables, numbering.sizes)):
        cdf = numbering.cdfs[v]
        assert cdf.dtype == np.float64 and not cdf.flags.writeable and not cdf.base.flags.writeable
        with pytest.raises(ValueError):
            cdf.base.flags.writeable = True
        expected = np.cumsum(table.reshape(-1, k)[:, :-1], axis=1).T
        assert cdf.shape == expected.shape and cdf.tobytes() == expected.tobytes()
        assert all(column.flags.c_contiguous for column in cdf)
        strides = numbering.strides[v]
        assert type(strides) is tuple and all(type(stride) is int for stride in strides)
        assert len(strides) == len(numbering.parents[v])
        for at in itertools.product(*(range(n) for n in table.shape[:-1])):
            assert sum(i * stride for i, stride in zip(at, strides)) == np.ravel_multi_index(at, table.shape[:-1])
    with pytest.raises(TypeError):
        numbering.number[numbering.ids[0]] = 1
    with pytest.raises(AttributeError):
        numbering.order = ()


@pytest.mark.parametrize("generator", [instance_gen.generate, instance_gen.generate_timed])
def test_picks_hold_the_state_of_every_certain_row(generator):
    seen = {"certain": 0, "uncertain": 0, "one-state": 0}
    for seed in range(60):
        kb, plan = generator(seed)
        net = build_pe_net(plan, kb, BuildOptions(clock_enabled=generator is instance_gen.generate_timed))
        numbering = net.numbering
        assert type(numbering.picks) is tuple and len(numbering.picks) == len(net.nodes)
        for v, (cdf, pick, k) in enumerate(zip(numbering.cdfs, numbering.picks, numbering.sizes)):
            if k == 1 or not np.isin(cdf, (0.0, 1.0)).all():
                assert pick is None
                seen["one-state" if k == 1 else "uncertain"] += 1
                continue
            seen["certain"] += 1
            assert pick.dtype == np.intp and pick.shape == (cdf.shape[1],)
            assert not pick.flags.writeable and not pick.base.flags.writeable
            with pytest.raises(ValueError):
                pick.base.flags.writeable = True
            # The count of zero running sums, and the state every draw in [0, 1) picks.
            assert pick.tolist() == (cdf == 0.0).sum(axis=0).tolist()
            for row, state in enumerate(pick):
                assert net.nodes[numbering.ids[v]].table.reshape(-1, k)[row, state] > 0.0
    assert min(seen.values()) > 0, seen


def copy_sources(net) -> dict:
    """Each node's source, read from the ``Node.cpt`` rows: an identity copy, a
    multi-state node whose only multi-state parent has as many states and
    whose every row is certain of the state at its parent's state's
    position, has its parent's source, and any other node is its own."""
    sources = {}
    for nid in forward_sampler.topological_nodes(net):
        node = net.nodes[nid]
        sources[nid] = nid
        multi = [p for p in node.parents if len(net.nodes[p].states) > 1]
        if len(node.states) > 1 and len(multi) == 1 and len(net.nodes[multi[0]].states) == len(node.states):
            parent_states, at = net.nodes[multi[0]].states, node.parents.index(multi[0])
            if all(row == {node.states[parent_states.index(combo[at])]: 1.0} for combo, row in node.cpt.items()):
                sources[nid] = sources[multi[0]]
    return sources


def relabelled_parent(net, node):
    """The one multi-state parent a multi-state node relabels, read from the
    ``Node.cpt`` rows: each of its states gives a point mass, on a state no
    other gets, and every state of the node is given; None for any other node."""
    multi = [p for p in node.parents if len(net.nodes[p].states) > 1]
    if len(node.states) < 2 or len(multi) != 1:
        return None
    at, given = node.parents.index(multi[0]), {}
    for combo, row in node.cpt.items():
        certain = [state for state, p in row.items() if p == 1.0]
        if len(certain) != 1 or given.setdefault(combo[at], certain[0]) != certain[0]:
            return None
    return multi[0] if sorted(given.values(), key=str) == sorted(node.states, key=str) else None


@pytest.mark.parametrize("generator, semantics", [
    (instance_gen.generate, "gate-effect-only"),
    (instance_gen.generate, "nullify-action"),
    (instance_gen.generate_timed, "gate-effect-only"),
])
def test_no_node_of_the_corpus_is_an_identity_copy(generator, semantics):
    # The build makes an alias of every node whose rows relabel one node's
    # states, in any order, save an atom a derived node reads whose source is
    # not a primitive, since a derived node takes primitive parents only.
    timed = generator is instance_gen.generate_timed
    relabelled = 0
    for seed in range(200):
        kb, plan = generator(seed)
        net = build_pe_net(plan, kb, BuildOptions(during_failure_semantics=semantics, clock_enabled=timed))
        copies = [str(nid) for nid, source in copy_sources(net).items() if source != nid]
        assert not copies, (seed, copies)
        derived_read = {p for node in net.nodes.values() if node.kind == "derived" for p in node.parents}
        relabels = [str(nid) for nid, node in net.nodes.items() if relabelled_parent(net, node) is not None
                    and not (nid in derived_read and net.nodes[relabelled_parent(net, node)].kind != "primitive")]
        assert not relabels, (seed, relabels)
        relabelled += sum(1 for alias in net.aliases.values() if len(alias.states) > 1)
    assert relabelled > 100


def slow_min_degree(net) -> list:
    """The min-degree elimination order of the multi-state nodes, by
    rescanning every node for the fewest neighbours (lower number on a tie)
    at each step."""
    number, sizes = net.numbering.number, net.numbering.sizes
    graph = {v: set() for v, k in enumerate(sizes) if k > 1}
    for nid, node in net.nodes.items():
        if number[nid] in graph:
            family = {number[p] for p in node.parents if sizes[number[p]] > 1} | {number[nid]}
            for v in family:
                graph[v] |= family - {v}
    order = []
    while graph:
        v = min(graph, key=lambda u: (len(graph[u]), u))
        around = graph.pop(v)
        for u in around:
            graph[u] |= around - {u}
            graph[u].discard(v)
        order.append(v)
    return order


@pytest.mark.parametrize("timed", [False, True])
@pytest.mark.parametrize("seed", range(0, 60, 6))
def test_rank_is_the_min_degree_order_of_the_multi_state_moral_graph(seed, timed):
    kb, plan = (instance_gen.generate_timed if timed else instance_gen.generate)(seed)
    net = build_pe_net(plan, kb, BuildOptions(clock_enabled=timed))
    rank = net.numbering.rank
    expected = slow_min_degree(net)
    assert sorted(range(len(rank)), key=rank.__getitem__)[:len(expected)] == expected


def test_one_state_children_marry_no_parents():
    # The roots all feed a one-state node, so they stay apart: R0 and R1 have
    # degree 0 and go first, then the chain R2 -> X. Married, the roots would
    # have degree 2 or more and X, of degree 1, would go first.
    net = PENet()
    roots = [atom_node(GroundAtom("R", (str(i),)), S0) for i in range(3)]
    lone, chained = atom_node(GroundAtom("L", ()), S1), atom_node(GroundAtom("X", ()), S1)
    nodes = [FragmentNode(r, "primitive", ["f", "t"]) for r in roots]
    nodes += [FragmentNode(lone, "primitive", ["on"], roots), FragmentNode(chained, "primitive", ["f", "t"], roots[2:])]
    rows = [FragmentRow(r, {}, {"f": 0.5, "t": 0.5}) for r in roots]
    rows += [FragmentRow(lone, {}, {"on": 1.0}), FragmentRow(chained, {}, {"f": 0.4, "t": 0.6})]
    numbering = finalize(paste_onto(net, Fragment(nodes=nodes, rows=rows))).numbering
    assert numbering.parents[numbering.number[lone]] == (0, 1, 2)
    by_rank = [numbering.ids[v] for v in sorted(range(5), key=numbering.rank.__getitem__)]
    assert by_rank == roots + [chained, lone]


WIDE_CHILD = atom_node(GroundAtom("C", ()), S1)


def _wide_roots(parents: int, states: int) -> tuple:
    """A net of ``parents`` uniform roots of ``states`` states each, and the
    spec of WIDE_CHILD, which reads them all and has no rows."""
    net = PENet()
    labels = [f"s{j}" for j in range(states)]
    roots = [atom_node(GroundAtom("R", (str(i),)), S0) for i in range(parents)]
    nodes = [FragmentNode(r, "primitive", labels) for r in roots]
    rows = [FragmentRow(r, {}, {label: 1.0 / states for label in labels}, "prior") for r in roots]
    paste_onto(net, Fragment(nodes=nodes, rows=rows))
    return net, FragmentNode(WIDE_CHILD, "primitive", ["L1", "L2"], roots)


def _trap_enumeration_and_allocation(monkeypatch):
    def no_rows(*pools, **kwargs):
        raise AssertionError("enumerated rows before the size check")

    def no_arrays(*args, **kwargs):
        raise AssertionError("allocated arrays before the size check")

    monkeypatch.setattr(itertools, "product", no_rows)
    monkeypatch.setattr(np, "zeros", no_arrays)


@pytest.mark.parametrize("parents, states, match", [
    (MAX_TABLE_DIMS, 1, f"{MAX_TABLE_DIMS + 1} dimensions"),
    (25, 2, f"{2 ** 26} cells"),
])
def test_a_node_too_large_for_a_table_is_refused_before_it_is_made(parents, states, match, monkeypatch):
    # The child's situation S1 is new to the net, so a half-made node would
    # also leave S1 behind in the situation order.
    net, child = _wide_roots(parents, states)
    before = (canonical_dump(net), list(net.nodes), list(net.situation_order))
    _trap_enumeration_and_allocation(monkeypatch)
    with pytest.raises(TooLarge, match=match):
        net.ensure_node(child)
    monkeypatch.undo()
    assert (canonical_dump(net), list(net.nodes), list(net.situation_order)) == before
    assert WIDE_CHILD not in net.nodes


@pytest.mark.parametrize("redeclare", [True, False])
def test_a_parent_that_makes_a_node_too_large_leaves_it_as_it_was(redeclare, monkeypatch):
    # The child reads all roots but one, a table of exactly numpy's dimension
    # limit; one more parent passes it.
    net, child = _wide_roots(MAX_TABLE_DIMS, 1)
    *kept, extra = child.parents
    node = net.ensure_node(FragmentNode(WIDE_CHILD, child.kind, child.states, kept))
    arrays = (node.cells, node.totals, node.sources)
    before = (list(node.parents), dict(node.cpt), canonical_dump(net), list(net.situation_order))
    _trap_enumeration_and_allocation(monkeypatch)
    with pytest.raises(TooLarge, match=re.escape(f"node {WIDE_CHILD} needs a table of {MAX_TABLE_DIMS + 1} dimensions")):
        if redeclare:
            net.ensure_node(child)
        else:
            net.add_parent(node, extra)
    monkeypatch.undo()
    assert all(now is then for now, then in zip((node.cells, node.totals, node.sources), arrays))
    assert (list(node.parents), dict(node.cpt), canonical_dump(net), list(net.situation_order)) == before


@pytest.mark.parametrize("parents, states", [(MAX_TABLE_DIMS - 1, 1), (24, 2)])
def test_finalize_reads_the_rows_of_a_table_at_the_size_bounds(parents, states):
    # numpy's dimension limit, and exactly MAX_FACTOR_CELLS cells: the child
    # is made, and its first missing row is reported
    net, child = _wide_roots(parents, states)
    net.ensure_node(child)
    with pytest.raises(IncompleteCPT) as exc:
        finalize(net)
    assert exc.value.node_id == WIDE_CHILD


def test_finalize_judges_coverage_before_it_joins_any_cells(monkeypatch):
    # The child's cells are twice its totals, one per state: an incomplete
    # net raises having joined only the totals.
    net, child = _wide_roots(3, 2)
    net.ensure_node(child)
    joined = []
    real = net_module._joined

    def counted(arrays):
        joined.append(sum(len(array) for array in arrays))
        return real(arrays)

    monkeypatch.setattr(net_module, "_joined", counted)
    with pytest.raises(IncompleteCPT):
        finalize(net)
    rows = sum(node.sources.size for node in net.nodes.values())
    assert joined == [rows]


@pytest.mark.parametrize("written, fault", [
    ("L1", r"^row \(Loc A\)@S1\('L1',\) sums to 0.5$"),
    ("L2", r"^node \(Loc A\)@S1 has no row for parent combination '\(Loc A\)@S0=L1'$"),
])
def test_finalize_reports_the_first_faulty_row_in_number_order(written, fault):
    # One row sums to 0.5 and the other is never written; whichever comes
    # first in the node's rows is the fault reported.
    net = PENet()
    paste_onto(net, Fragment(
        nodes=[FragmentNode(LOC_A0, "primitive", ["L1", "L2"]),
               FragmentNode(LOC_A1, "primitive", ["L1", "L2"], [LOC_A0])],
        rows=[FragmentRow(LOC_A0, {}, {"L1": 0.5, "L2": 0.5}, "prior"),
              FragmentRow(LOC_A1, {LOC_A0: written}, {"L1": 0.5}, "half")],
    ))
    with pytest.raises(PlanEvalError, match=fault) as exc:
        finalize(net)
    assert isinstance(exc.value, IncompleteCPT) == (written == "L2")
    assert not net.finalized


def _random_fragment(rng, nodes):
    target = rng.choice(nodes[1:])
    parent = nodes[0]
    rows = []
    for state in ("L1", "L2"):
        if rng.random() < 0.8:
            p = rng.choice([0.25, 0.5, 0.75, 1.0])
            dist = {"L1": p, "L2": 1.0 - p} if p < 1.0 else {"L1": 1.0}
            rows.append(FragmentRow(target, {parent: state}, dist, f"frag{rng.randrange(100)}"))
    return Fragment(rows=rows)


@pytest.mark.parametrize("seed", range(8))
def test_paste_properties_random_fragments(seed):
    rng = random.Random(seed)
    nodes = [LOC_A0, LOC_A1, LOC_B1]
    base = PENet()
    paste_onto(base, Fragment(nodes=[
        FragmentNode(LOC_A0, "primitive", ["L1", "L2"]),
        FragmentNode(LOC_A1, "primitive", ["L1", "L2"], [LOC_A0]),
        FragmentNode(LOC_B1, "primitive", ["L1", "L2"], [LOC_A0]),
    ]))
    for _ in range(4):
        frag = _random_fragment(rng, nodes)
        if rng.random() < 0.5:
            paste_onto(base, frag)
            again = canonical_dump(base)
            paste_onto(base, frag)
            assert canonical_dump(base) == again
        else:
            paste_into(base, frag)
            again = canonical_dump(base)
            paste_into(base, frag)
            assert canonical_dump(base) == again


def test_paste_onto_last_writer_wins_row_granularity():
    net = PENet()
    paste_onto(net, move_fragment())
    override = Fragment(rows=[FragmentRow(LOC_A1, {LOC_A0: "L1"}, {"L1": 1.0}, "late writer")])
    paste_onto(net, override)
    assert net.nodes[LOC_A1].cpt[("L1",)] == {"L1": 1.0}
    # the other row is untouched
    assert net.nodes[LOC_A1].cpt[("L2",)] == {"L2": 1.0}
    assert net.row_provenance(LOC_A1, ("L2",)) == "action move"


PIN_STATES = ("a", "b", "c")  # a parent has one to three of them, so a pin may name a state it lacks
CHILD = atom_node(GroundAtom("C", ()), S1)


def _random_rows_net(rng):
    """A net of 1-3 roots of 1-3 states and a child reading them all, and
    random rows of the child: (overwrite, row) pairs in paste order, each
    pinning a random subset of the roots on any of ``PIN_STATES``."""
    roots = [atom_node(GroundAtom("R", (str(i),)), S0) for i in range(rng.randint(1, 3))]
    nodes = [FragmentNode(r, "primitive", sorted(rng.sample(PIN_STATES, rng.randint(1, 3)))) for r in roots]
    states = ["x", "y", "z"][:rng.randint(1, 3)]
    nodes.append(FragmentNode(CHILD, "primitive", states, roots))
    net = paste_onto(PENet(), Fragment(nodes=nodes))
    rows = []
    for _ in range(rng.randint(1, 8)):
        pins = {r: rng.choice(PIN_STATES) for r in roots if rng.random() < 0.5}
        dist = {state: rng.choice([0.0, 0.25, 0.5, 1.0]) for state in states}
        rows.append((rng.random() < 0.5, FragmentRow(CHILD, pins, dist, f"row{rng.randrange(4)}")))
    return net, roots, rows


def _reference(net, roots, rows):
    """Per parent-state combination, the distribution and label that win:
    the last onto row that covers it, otherwise the first fill row; a row
    pinning a state its parent lacks covers nothing. Also the labels in the
    order rows that write something first use them."""
    won, labels = {}, [None]
    for combo in itertools.product(*[net.nodes[r].states for r in roots]):
        won[combo] = None
    for overwrite, row in rows:
        covered = [combo for combo in won
                   if all(row.condition.get(r, state) == state for r, state in zip(roots, combo))]
        written = [combo for combo in covered if overwrite or won[combo] is None]
        for combo in written:
            won[combo] = row
        if written and row.provenance not in labels:
            labels.append(row.provenance)
    return {combo: row for combo, row in won.items() if row is not None}, labels


@pytest.mark.parametrize("seed", range(60))
def test_paste_onto_and_into_write_what_a_per_combination_reference_writes(seed):
    rng = random.Random(seed)
    net, roots, rows = _random_rows_net(rng)
    for overwrite, row in rows:
        (paste_onto if overwrite else paste_into)(net, Fragment(rows=[row]))
    won, labels = _reference(net, roots, rows)
    node = net.nodes[CHILD]
    expected_cpt = {combo: {s: p for s, p in sorted(row.distribution.items()) if p != 0.0} for combo, row in won.items()}
    assert dict(node.cpt) == expected_cpt
    assert dict(node.provenance) == {combo: row.provenance for combo, row in won.items()}
    assert net.labels == labels
    # the same table written one full combination at a time
    reference, _roots, _rows = _random_rows_net(random.Random(seed))
    paste_onto(reference, Fragment(rows=[FragmentRow(CHILD, dict(zip(roots, combo)), row.distribution, row.provenance)
                                         for combo, row in won.items()]))
    assert canonical_dump(net) == canonical_dump(reference)


def _block_nets(seed):
    """Two equal nets, each of roots, their twins (the same states, their keys
    in reverse order), a child C over the roots and a child D over the twins,
    both with random rows already written; and a random fill block over a
    random subset of the roots in random order, with the twins in their place."""
    nets = []
    for _ in range(2):
        rng = random.Random(seed)
        net, roots, rows = _random_rows_net(rng)
        twin = {r: atom_node(GroundAtom("T", (str(len(roots) - i),)), S0) for i, r in enumerate(roots)}
        other = atom_node(GroundAtom("D", ()), S1)
        paste_onto(net, Fragment(nodes=[FragmentNode(twin[r], "primitive", net.nodes[r].states) for r in roots]
                                 + [FragmentNode(other, "primitive", net.nodes[CHILD].states, list(twin.values()))]))
        for overwrite, row in rows:
            twin_row = FragmentRow(other, {twin[r]: pin for r, pin in row.condition.items()}, row.distribution, row.provenance)
            (paste_onto if overwrite else paste_into)(net, Fragment(rows=[row, twin_row]))
        nets.append(net)
    axes = rng.sample(roots, rng.randint(0, len(roots)))
    states = net.nodes[CHILD].states
    block_rows = []
    for _ in range(rng.randint(1, 6)):
        pins = tuple(rng.choice(PIN_STATES) if rng.random() < 0.6 else None for _ in axes)
        dist = {state: rng.choice([0.0, 0.5, 1.0]) for state in rng.sample(states, rng.randint(1, len(states)))}
        block_rows.append((pins, dist, f"fill{rng.randrange(3)}"))
    support = {state for pins, dist, _label in block_rows
               if all(pin is None or pin in net.nodes[r].states for pin, r in zip(pins, axes))
               for state, p in dist.items() if p > 0}
    block = FillBlock(tuple(block_rows), tuple(s for s in states if s in support))
    return nets, [(CHILD, tuple(axes), block), (other, tuple(twin[r] for r in axes), block)]


@pytest.mark.parametrize("seed", range(60))
def test_a_fill_block_shared_by_two_nodes_writes_what_paste_into_of_its_rows_writes(seed):
    (filled, pasted), fills = _block_nets(seed)
    filled._fill(fills)
    paste_into(pasted, Fragment(rows=[row for nid, parents, block in fills for row in block.fragment_rows(nid, parents)]))
    assert canonical_dump(filled) == canonical_dump(pasted)


def test_finalize_numbers_nodes_by_their_text_not_their_ref():
    # Two elapsed nodes of one situation: by text "[0,10)" sorts before
    # "[0,3)", by ref tuple (0, 3) sorts before (0, 10). The numbering, and
    # so canonical_dump, follows the text.
    short = elapsed_node(((0, 3), (3, math.inf)), S1)
    long = elapsed_node(((0, 10), (10, math.inf)), S1)
    assert short.ref < long.ref and str(long) < str(short)
    net = PENet()
    nodes = [FragmentNode(nid, "elapsed", ["low", "high"]) for nid in (short, long)]
    rows = [FragmentRow(nid, {}, {"low": 0.5, "high": 0.5}, "elapsed") for nid in (short, long)]
    finalize(paste_onto(net, Fragment(nodes=nodes, rows=rows)))
    assert net.numbering.ids == (long, short)
    assert net.node_key(long) < net.node_key(short)
    dump = canonical_dump(net)
    assert dump.index(f"node {long} ") < dump.index(f"node {short} ")


def test_normalizing_keeps_the_bits_of_a_label_order_sum():
    # In label order (x, y, z) the row sums to 0.9999999999999999; in the
    # declared state order (z, y, x) it would sum to 1.0 and stay unscaled.
    z = atom_node(GroundAtom("Z", ()), S0)
    net = PENet()
    paste_onto(net, Fragment(nodes=[FragmentNode(z, "primitive", ["z", "y", "x"])],
                             rows=[FragmentRow(z, {}, {"x": 0.7, "y": 0.2, "z": 0.1}, "prior")]))
    total = 0.7 + 0.2 + 0.1
    assert total != 0.1 + 0.2 + 0.7
    finalize(net)
    expected = np.array([0.1 / total, 0.2 / total, 0.7 / total])
    assert net.nodes[z].table.tobytes() == expected.tobytes()
    assert net.nodes[z].table.tolist() != [0.1, 0.2, 0.7]
