"""Core model types: instantiation, unification, KB validation."""

import math
import random

import pytest

from planeval import BuildError, GroundAtom, build_pe_net, instantiate, validate_kb
from planeval.errors import ArityMismatch, UnboundVariable
from planeval.model import PROB_TOL, ConditionalRow, PredicateSchema, instantiate_row, unify

from fixtures import INVERTED_KB, MOVE_KB, RELIABLE_MOVE_KB, RELIABLE_MOVE_PLAN, TWO_STEP_PLAN, load, load_kb


def test_instantiate_direct_substitution():
    pattern = GroundAtom("Loc", ("?obj",))
    assert instantiate(pattern, {"?obj": "A"}) == GroundAtom("Loc", ("A",))


def test_instantiate_move_consequence_pattern():
    kb = load_kb(MOVE_KB)
    model = kb.find_action("Move")
    bindings = dict(zip(model.params, ("A", "L1", "L2")))
    target, rows = model.consequences[0]
    assert instantiate(target, bindings) == GroundAtom("Loc", ("A",))
    row = instantiate_row(rows[0], bindings)
    assert row.condition == {GroundAtom("Loc", ("A",)): "L1"}
    assert row.distribution == {"L2": 0.9, "L1": 0.1}


def test_instantiate_missing_binding():
    with pytest.raises(UnboundVariable):
        instantiate(GroundAtom("Loc", ("?obj",)), {})


def test_instantiate_arity_checked_against_schema():
    kb = load_kb(MOVE_KB)
    with pytest.raises(ArityMismatch):
        instantiate(GroundAtom("Loc", ("?a", "?b")), {"?a": "A", "?b": "B"}, kb)


def test_instantiate_injective_for_distinct_bindings():
    pattern = GroundAtom("Loc", ("?a", "?b"))
    rng = random.Random(7)
    constants = [f"c{i}" for i in range(6)]
    seen = {}
    for _ in range(40):
        bindings = {"?a": rng.choice(constants), "?b": rng.choice(constants)}
        ground = instantiate(pattern, bindings)
        key = (bindings["?a"], bindings["?b"])
        if key in seen:
            assert seen[key] == ground
        else:
            assert ground not in seen.values()
            seen[key] = ground


def test_unify_roundtrip():
    pattern = GroundAtom("Loc", ("?obj",))
    ground = GroundAtom("Loc", ("A",))
    assert unify(pattern, ground) == {"?obj": "A"}
    assert unify(pattern, GroundAtom("Other", ("A",))) is None
    repeated = GroundAtom("Pair", ("?x", "?x"))
    assert unify(repeated, GroundAtom("Pair", ("A", "A"))) == {"?x": "A"}
    assert unify(repeated, GroundAtom("Pair", ("A", "B"))) is None


def test_validate_kb_clean_fixture():
    assert validate_kb(load_kb(MOVE_KB)) == []
    assert validate_kb(load_kb(RELIABLE_MOVE_KB)) == []


def test_validate_kb_flags_derived_consequence():
    diags = validate_kb(load_kb(INVERTED_KB))
    assert any(d.code == "derived-as-consequence" for d in diags)


def test_validate_kb_flags_bad_normalization():
    kb = load_kb(MOVE_KB)
    kb.persistence["Loc"].rows[0].distribution = {"L1": 0.5, "L2": 0.4}
    diags = validate_kb(kb)
    assert any(d.code == "normalization" for d in diags)


def test_validate_kb_flags_duplicate_rows():
    kb = load_kb(MOVE_KB)
    target, rows = kb.find_action("Move").consequences[0]
    rows.append(ConditionalRow(dict(rows[0].condition), dict(rows[0].distribution)))
    diags = validate_kb(kb)
    assert any(d.code == "duplicate-row" for d in diags)



@pytest.mark.parametrize("kb_text, plan_text, spoil, code, message", [
    (MOVE_KB, TWO_STEP_PLAN, lambda kb: kb.schemas.update(X=PredicateSchema("X")),
     "empty-states", "predicate X declares no states"),
    (MOVE_KB, TWO_STEP_PLAN, lambda kb: kb.schemas.update(X=PredicateSchema("X", states=("a", "a"))),
     "duplicate-state", "predicate X has duplicate state labels"),
    (MOVE_KB, TWO_STEP_PLAN, lambda kb: setattr(kb.persistence["Loc"].rows[0], "distribution", {"L1": 1.5, "L2": -0.5}),
     "bad-probability", "persistence (Loc ?obj): probability 1.5 outside [0,1]"),
    (MOVE_KB, TWO_STEP_PLAN, lambda kb: setattr(kb.find_action("Move"), "duration", {-1: 0.5, 1: 0.5}),
     "negative-duration", "action Move/0: duration support must be nonnegative"),
    (MOVE_KB, TWO_STEP_PLAN, lambda kb: setattr(kb.persistence["Loc"], "buckets", [(0, 3), (4, math.inf)]),
     "bucket-gap", "persistence (Loc ?obj): elapsed buckets must tile [0,inf) without gaps"),
    (MOVE_KB, TWO_STEP_PLAN, lambda kb: setattr(kb.persistence["Loc"], "buckets", [(0, 3)]),
     "bucket-gap", "persistence (Loc ?obj): elapsed buckets must extend to inf"),
    (MOVE_KB, TWO_STEP_PLAN, lambda kb: setattr(kb.persistence["Loc"].rows[0], "bucket", (0, 3)),
     "unknown-bucket", "persistence (Loc ?obj): row bucket (0, 3) not declared"),
    (RELIABLE_MOVE_KB, RELIABLE_MOVE_PLAN, lambda kb: kb.derived.append(kb.derived[0]),
     "duplicate-derived", "derived (At L1): repeated definition"),
], ids=["empty-states", "duplicate-state", "bad-probability", "negative-duration", "bucket-gap-inside",
        "bucket-gap-at-the-end", "unknown-bucket", "duplicate-derived"])
def test_validate_kb_flags_a_spoiled_kb_and_the_build_stops_there(kb_text, plan_text, spoil, code, message):
    kb, plan = load(kb_text, plan_text)
    spoil(kb)
    diags = validate_kb(kb)
    assert {d.code for d in diags} == {code}
    assert diags[0].message == message
    with pytest.raises(BuildError) as caught:
        build_pe_net(plan, kb)
    assert caught.value.stage == "validate-kb"

def test_validate_kb_is_pure():
    kb = load_kb(INVERTED_KB)
    first = validate_kb(kb)
    second = validate_kb(kb)
    assert [(d.code, d.message) for d in first] == [(d.code, d.message) for d in second]


def test_all_rows_normalized_in_fixture_kbs():
    for text in (MOVE_KB, RELIABLE_MOVE_KB):
        kb = load_kb(text)
        for (name, level), model in kb.actions.items():
            for _atom, rows in model.consequences:
                for row in rows:
                    assert abs(sum(row.distribution.values()) - 1.0) <= PROB_TOL
        for model in kb.persistence.values():
            for row in model.rows:
                assert abs(sum(row.distribution.values()) - 1.0) <= PROB_TOL
