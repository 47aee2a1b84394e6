"""Domain-language parsing, diagnostics, and the canonical printer round trip."""

from planeval import GroundAtom, SourceDocument, parse_kb, parse_plan, validate_kb
from planeval.dsl import print_kb

from fixtures import (
    DURING_KB,
    DURING_ROWS_KB,
    HIERARCHY_KB,
    MOVE_KB,
    OVERLAP_KB,
    RELIABLE_MOVE_KB,
    load,
    load_kb,
)


def test_move_model_parses():
    kb = load_kb(MOVE_KB)
    model = kb.find_action("Move")
    assert model.params == ("?obj", "?from", "?to")
    assert len(model.consequences) == 1
    target, rows = model.consequences[0]
    assert target == GroundAtom("Loc", ("?obj",))
    assert rows[0].distribution == {"?to": 0.9, "?from": 0.1}
    assert kb.persistence["Loc"].rows[0].prev == "L1"


def test_empty_kb_file():
    kb, diags = parse_kb(SourceDocument("", "empty"))
    assert diags == []
    assert not kb.schemas and not kb.actions


def test_comment_only_file():
    kb, diags = parse_kb(SourceDocument("# nothing here\n", "c"))
    assert diags == []


def test_normalization_diagnostic_carries_row_location():
    text = """predicate (Loc ?o) kind=primitive states { L1 L2 }
persistence (Loc ?o) {
  L1 -> { L1:0.5 L2:0.4 }
}
"""
    kb, diags = parse_kb(SourceDocument(text, "bad"))
    diags.extend(validate_kb(kb))
    norm = [d for d in diags if d.code == "normalization"]
    assert norm and norm[0].line == 3  # the offending row, not the model header
    assert norm[0].render("bad").startswith("bad:3:")


def test_syntax_error_recovers_and_reports_position():
    text = """predicate (Loc ?o kind=primitive states { L1 }
predicate (Ok) kind=primitive states { fine }
"""
    kb, diags = parse_kb(SourceDocument(text, "bad"))
    assert any(d.code == "syntax" for d in diags)
    assert "Ok" in kb.schemas  # parsing resumed at the next declaration


def test_two_step_plan_parses():
    kb, plan = load(MOVE_KB, """
step s1 a1 (Move A L1 L2) start=b0 end=b1
step s2 a1 (Move B L3 L1) start=b1 end=b2
initial { (Loc A)=L1 (Loc B)=L3 }
goal { (Loc B)=L1 }
""")
    assert len(plan.steps) == 2
    assert sorted(plan.boundaries()) == ["b0", "b1", "b2"]
    assert plan.contingencies == []


def test_overlapping_plan_leaves_ends_unordered():
    kb, plan = load(OVERLAP_KB, """
step a1 agent1 (First) start=b0 end=b1
step a2 agent2 (Second) start=b0 end=b2
initial { (P x1)=u (P x2)=u }
goal { (P x1)=v }
""")
    constraints = set(plan.constraints())
    assert ("b0", "b1") in constraints and ("b0", "b2") in constraints
    assert ("b1", "b2") not in constraints and ("b2", "b1") not in constraints


def test_cyclic_before_diagnosed():
    kb = load_kb(MOVE_KB)
    plan, diags = parse_plan(SourceDocument("""
step s1 a1 (Move A L1 L2) start=b1 end=b2
before b2 b1
initial { (Loc A)=L1 }
goal { (Loc A)=L2 }
""", "plan"), kb)
    assert any(d.code == "cyclic-order" for d in diags)


def test_unknown_action_diagnosed():
    kb = load_kb(MOVE_KB)
    _plan, diags = parse_plan(SourceDocument("step s1 a1 (Teleport A) start=b0 end=b1\n", "p"), kb)
    assert any(d.code == "unknown-action" for d in diags)


def test_arity_error_diagnosed():
    kb = load_kb(MOVE_KB)
    _plan, diags = parse_plan(SourceDocument("step s1 a1 (Move A L1) start=b0 end=b1\n", "p"), kb)
    assert any(d.code == "arity" for d in diags)


def test_initial_distribution_must_normalize():
    kb = load_kb(MOVE_KB)
    _plan, diags = parse_plan(SourceDocument("""
step s1 a1 (Move A L1 L2) start=b0 end=b1
initial { (Loc A)=L1:0.5 (Loc A)=L2:0.4 }
goal { (Loc A)=L2 }
""", "p"), kb)
    assert any(d.code == "normalization" for d in diags)


def test_parse_print_round_trip():
    for text in (MOVE_KB, DURING_KB, HIERARCHY_KB, OVERLAP_KB, DURING_ROWS_KB, RELIABLE_MOVE_KB):
        kb = load_kb(text)
        printed = print_kb(kb)
        reparsed, diags = parse_kb(SourceDocument(printed, "printed"))
        assert diags == []
        assert reparsed == kb
        # printing is a fixed point
        assert print_kb(reparsed) == printed


def test_during_clauses_round_trip():
    kb = load_kb(DURING_KB)
    model = kb.find_action("Assemble")
    assert len(model.during_conditions) == 1
    cond = model.during_conditions[0]
    assert cond.atom == GroundAtom("Power")
    assert cond.state == "on"
    assert cond.gates == (GroundAtom("Built", ("?x",)),)
    assert len(model.during_effects) == 1


def test_during_effect_row_forms():
    kb = load_kb(DURING_ROWS_KB)
    (target, rows), = kb.find_action("Assemble").during_effects
    assert target == GroundAtom("Noise")
    # `*`, the bare-state shorthand for the row's own atom, and a condition
    assert [row.condition for row in rows] == [{}, {target: "quiet"}, {GroundAtom("Power"): "off"}]


def test_elapsed_buckets_round_trip():
    kb = load_kb(OVERLAP_KB)
    model = kb.persistence["P"]
    assert model.buckets == [(0.0, 3.0), (3.0, float("inf"))]
    assert model.rows[0].bucket == (0.0, 3.0)
