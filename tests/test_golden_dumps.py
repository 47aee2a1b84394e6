"""Golden canonical_dump digests: refactors of the build pipeline must not move a byte.

``golden_dumps.json`` holds the sha256 of ``canonical_dump`` for every case
below, recorded before the pipeline's internals were reworked. A case whose
build fails records the failing stage instead. Regenerate the file only for a
change that means to alter the net's contents, and say so in the change log;
the script prints the name of every case whose digest it rewrites:

    PYTHONPATH=src:tests python tests/test_golden_dumps.py
"""

import hashlib
import json
import pathlib

import pytest

from planeval import BuildError, BuildOptions, PENet, build_pe_net, canonical_dump, flatten_hierarchy, linearize
from planeval.build import _FILLS, make_schedule, split_situations
from planeval.net import Fragment, finalize, paste_into, paste_onto

import instance_gen
from fixtures import (
    CONTINGENT_KB,
    DURING_KB,
    DURING_PLAN,
    HIERARCHY_KB,
    HIERARCHY_PLAN,
    MOVE_KB,
    OVERLAP_KB,
    OVERLAP_PLAN,
    RELIABLE_MOVE_KB,
    RELIABLE_MOVE_PLAN,
    TWO_STEP_PLAN,
    contingent_plan,
    load,
)
from test_build import SPREAD_KB, spread_plan, workloads  # test_build puts perfbench on the path
from test_clock import COVERED_ELAPSED_KB, COVERED_ELAPSED_PLAN, SEQ_KB, TWO_COINS_PLAN

GOLDEN = pathlib.Path(__file__).with_name("golden_dumps.json")
TIMED = BuildOptions(clock_enabled=True)


def _cases():
    for seed in range(60):
        yield f"generate-{seed}", lambda s=seed: (*instance_gen.generate(s), None)
    for seed in range(25):
        yield f"generate_timed-{seed}", lambda s=seed: (*instance_gen.generate_timed(s), TIMED)
    fixtures = {
        "move-two-step": (MOVE_KB, TWO_STEP_PLAN, None),
        "reliable-move": (RELIABLE_MOVE_KB, RELIABLE_MOVE_PLAN, None),
        "overlap": (OVERLAP_KB, OVERLAP_PLAN, None),
        "overlap-clock": (OVERLAP_KB, OVERLAP_PLAN, TIMED),
        "hierarchy": (HIERARCHY_KB, HIERARCHY_PLAN, None),
        "during": (DURING_KB, DURING_PLAN, None),
        "during-nullify": (DURING_KB, DURING_PLAN, BuildOptions(during_failure_semantics="nullify-action")),
        "contingent-0.2": (CONTINGENT_KB, contingent_plan(0.2), None),
        "contingent-1.0": (CONTINGENT_KB, contingent_plan(1.0), None),
        "spread-6": (SPREAD_KB, spread_plan(6), None),
        "coins-clock-cap-3": (SEQ_KB, TWO_COINS_PLAN, BuildOptions(clock_enabled=True, clock_cap=3)),
        "covered-elapsed-clock": (COVERED_ELAPSED_KB, COVERED_ELAPSED_PLAN, TIMED),
    }
    for name, (kb_text, plan_text, opts) in fixtures.items():
        yield name, lambda k=kb_text, p=plan_text, o=opts: (*load(k, p), o)


def _digest(make) -> str:
    kb, plan, opts = make()
    try:
        net = build_pe_net(plan, kb, opts)
    except BuildError as err:
        return f"BuildError {err.stage}"
    return hashlib.sha256(canonical_dump(net).encode()).hexdigest()


def compute_digests() -> dict:
    return {name: _digest(make) for name, make in _cases()}


def test_canonical_dumps_match_golden_digests():
    expected = json.loads(GOLDEN.read_text())
    actual = compute_digests()
    assert sorted(actual) == sorted(expected)
    changed = [name for name in expected if actual[name] != expected[name]]
    assert not changed, changed


_FILLERS = {"persistence", "default-persistence", "clock-identity"}


def _sweep(kb, plan, opts):
    flat = flatten_hierarchy(plan)
    schedule = split_situations(make_schedule(flat, kb, opts, linearize(flat, opts.tie_break)))
    return schedule, schedule.analyse()


def _contract_faults(name, kb, plan, opts) -> list:
    """Where a built net departs from its sweep: (name, node, fault) for a node whose
    states are not the sweep's or whose parents are not the keys of its
    recorded rows and its fill's axes, or that records gap fillers none of
    which supply a cell, or a fill with KB persistence rows none of which
    supplies one, judged by provenance."""
    try:
        net = build_pe_net(plan, kb, opts)
    except BuildError:
        return []
    schedule, states = _sweep(kb, plan, opts)
    assert sorted(schedule.nodes, key=str) == sorted(net.nodes, key=str), name
    faults = []
    for nid, node in net.nodes.items():
        keys = {key for _kind, rows in schedule.rows[nid] for row in rows for key in row.condition}
        recorded = {kind for kind, _rows in schedule.rows[nid]}
        fill = schedule.fills.get(nid)
        if fill is not None:
            keys.update(fill.parents)
            recorded.update(label.split()[0] for _pins, _dist, label in fill.block.rows)
        supplied = {src.split()[0] for src in node.provenance.values()}
        if node.states != states[nid] or set(node.parents) != keys:
            faults.append((name, str(nid), "shape"))
        if recorded & _FILLERS and not supplied & _FILLERS:
            faults.append((name, str(nid), "idle fillers"))
        if "persistence" in recorded and "persistence" not in supplied:
            faults.append((name, str(nid), "idle persistence"))
    return faults


def test_sweep_states_and_parents_match_the_net():
    """Each node's states are the sweep's, and its parents the keys of its recorded rows and fill.

    Gap fillers are recorded only where they fill a gap: a node recording
    persistence, no-change or clock-identity rows gets at least one of them,
    and one recording KB persistence rows gets at least one of those.
    """
    faults = []
    for name, make in _cases():
        kb, plan, opts = make()
        faults += _contract_faults(name, kb, plan, opts or BuildOptions())
    assert not faults, faults[:10]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_sweep_matches_the_net_on_benchmark_instances(workload):
    faults = []
    for inst in workloads.generate(workload, 41):
        if inst.role == "timed":
            kb, plan = load(inst.kb_text, inst.plan_text)
            faults += _contract_faults(inst.name, kb, plan, BuildOptions(clock_enabled=inst.clock))
    assert not faults, faults[:10]


def test_one_onto_and_one_fill_paste_rebuild_every_net():
    """Onto and fill rows commute: all onto rows in one call, then all fill
    rows in one call, each in sweep order, give ``build_pe_net``'s net. A
    node's fill rows are its recorded ones, then its fill block's."""
    for name, make in _cases():
        kb, plan, opts = make()
        opts = opts or BuildOptions()
        try:
            built = build_pe_net(plan, kb, opts)
        except BuildError:
            continue
        schedule, _states = _sweep(kb, plan, opts)
        net = PENet(situation_order=[si.sid for si in schedule.situations])
        net.aliases = schedule.aliases
        for spec in schedule.nodes.values():
            net.ensure_node(spec)
        onto, fills = [], []
        for nid, entries in schedule.rows.items():
            for kind, rows in entries:
                (fills if kind in _FILLS else onto).extend(rows)
            if nid in schedule.fills:
                fills += schedule.fills[nid].block.fragment_rows(nid, schedule.fills[nid].parents)
        paste_onto(net, Fragment(rows=onto))
        paste_into(net, Fragment(rows=fills))
        assert canonical_dump(finalize(net)) == canonical_dump(built), name


# The corpus digest's parts that read no einsum result, so every numpy gives
# them. A change that means to alter nets or build errors updates these
# lines with its new ``corpus_digest.py --verbose`` output, as it does
# ``golden_dumps.json``; the ``exact`` and ``mc`` parts are left unpinned.
CORPUS_PARTS = [
    "dump 818 cases 0d77e8a55bc73b087776c67a4dea93e686fb71cb054b6f1d010f0b9670b4f8dc",
    "errors 818 cases 0f65108bfbd70758be4b5e325546328235c41d4671ea9c56eea87049c49684d8",
]


def test_the_corpus_digest_keeps_every_net_and_every_build_error(capsys):
    import corpus_digest

    assert corpus_digest.main(["--verbose"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith(("dump ", "errors "))] == CORPUS_PARTS


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    new = compute_digests()
    for name in sorted(new):
        if old.get(name) != new[name]:
            print(f"rewrote {name}")
    GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
