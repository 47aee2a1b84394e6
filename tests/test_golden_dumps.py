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

from planeval import BuildError, BuildOptions, build_pe_net, canonical_dump, flatten_hierarchy, linearize
from planeval.build import make_schedule, split_situations

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
from test_build import SPREAD_KB, spread_plan
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
        "spread-state-cap-4": (SPREAD_KB, spread_plan(6), BuildOptions(state_cap=4)),
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


_FILLERS = ("persistence", "default-persistence", "clock-identity")


def test_sweep_states_and_parents_match_the_net():
    """Each node's states are the sweep's, and its parents the keys of its recorded rows.

    Gap fillers are recorded only where they fill a gap: a node recording
    persistence, no-change or clock-identity rows gets at least one of them.
    """
    mismatched, idle_fillers = [], []
    for name, make in _cases():
        kb, plan, opts = make()
        opts = opts or BuildOptions()
        try:
            net = build_pe_net(plan, kb, opts)
        except BuildError:
            continue
        flat = flatten_hierarchy(plan)
        schedule = split_situations(make_schedule(flat, kb, opts, linearize(flat, opts.tie_break)))
        states = schedule.analyse()
        assert sorted(schedule.rows, key=str) == sorted(net.nodes, key=str), name
        for nid, node in net.nodes.items():
            keys = {key for _kind, _source, rows in schedule.rows[nid] for row in rows for key in row.condition}
            if node.states != states[nid] or set(node.parents) != keys:
                mismatched.append((name, str(nid)))
            recorded = any(kind in _FILLERS for kind, _source, _rows in schedule.rows[nid])
            if recorded and not any(src.split()[0] in _FILLERS for src in node.provenance.values()):
                idle_fillers.append((name, str(nid)))
    assert not mismatched, mismatched[:10]
    assert not idle_fillers, idle_fillers[:10]


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    new = compute_digests()
    for name in sorted(new):
        if old.get(name) != new[name]:
            print(f"rewrote {name}")
    GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
