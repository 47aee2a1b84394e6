"""Every parser diagnostic, pinned: one malformed text per report site in dsl.py.

Each entry is a KB or plan text and the exact ``file:line:col: code: message``
lines that parsing it renders. A KB text is parsed alone; a plan text is
parsed against PIN_KB. The ``redefined`` entries are reported where the
repeated declaration starts.
"""

import pytest

from planeval import PlanEvalError, SourceDocument, parse_kb, parse_plan, validate_kb
from planeval.dsl import parse_evidence_spec, parse_marginal_spec

PIN_KB = """predicate (Loc ?obj) kind=primitive states { L1 L2 }
action (Move ?obj ?to) level=0 { effect (Loc ?obj) { * -> { ?to:1.0 } } }
action (Fix ?obj) level=1 { effect (Loc ?obj) { * -> { L1:1.0 } } }
"""

KB_CASES = [
    ('expect-punct', 'predicate Loc kind=primitive states { a }',
     ["k:1:11: syntax: expected '(', found 'Loc'"]),
    ('expect-word', 'predicate () kind=primitive states { a }',
     ["k:1:12: syntax: expected predicate name, found ')'"]),
    ('end-of-file', 'predicate (P',
     ["k:1:13: syntax: expected argument, found ''"]),
    ('number', 'action (A) level=x { }',
     ["k:1:18: syntax: expected a number, found 'x'"]),
    ('level-nan', 'action (A) level=nan { }',
     ["k:1:18: syntax: action level must be an integer, found 'nan'"]),
    ('level-inf', 'action (A) level=inf { }',
     ["k:1:18: syntax: action level must be an integer, found 'inf'"]),
    ('level-fraction', 'action (A) level=1.7 { }',
     ["k:1:18: syntax: action level must be an integer, found '1.7'"]),
    ('integer-key', 'action (A) { duration { x:1.0 } }',
     ["k:1:25: syntax: expected an integer, found 'x'"]),
    ('duplicate-entry', 'action (A) { duration { 1:0.5 1:0.5 } }',
     ['k:1:31: syntax: duplicate entry 1 in distribution']),
    ('bucket-expected', 'persistence (P) elapsed { x } { }',
     ["k:1:27: syntax: expected an elapsed bucket like [0,3), found 'x'"]),
    ('bucket-half-open', 'persistence (P) elapsed { [0,3] } { }',
     ["k:1:27: syntax: elapsed buckets are half-open: [lo,hi), found '[0,3]'"]),
    ('bucket-parts', 'persistence (P) elapsed { [0) } { }',
     ["k:1:27: syntax: malformed bucket '[0)'"]),
    ('bucket-value', 'persistence (P) elapsed { [a,3) } { }',
     ["k:1:27: syntax: malformed bucket '[a,3)'"]),
    ('declaration', 'bogus (P)\npredicate (P) kind=primitive states { a }',
     ["k:1:1: syntax: expected a declaration, found 'bogus'"]),
    ('recovery-skips-plan-keywords', 'predicate (P) kind=primitive states a\nstep s1 a1\npredicate (Q) kind=other states { b }',
     ["k:1:37: syntax: expected '{', found 'a'", "k:3:1: syntax: kind must be primitive or derived, found 'other'"]),
    ('kind-keyword', 'predicate (P) kinds=primitive states { a }',
     ['k:1:20: syntax: expected kind=primitive|derived']),
    ('kind-value', 'predicate (P) kind=other states { a }',
     ["k:1:1: syntax: kind must be primitive or derived, found 'other'"]),
    ('states-keyword', 'predicate (P) kind=primitive stats { a }',
     ['k:1:36: syntax: expected states { ... }']),
    ('redefined-predicate', 'predicate (P) kind=primitive states { a }\npredicate (P) kind=primitive states { b }',
     ['k:2:1: redefined: predicate P already declared']),
    ('parameter', 'action (A x) { }',
     ["k:1:1: parameter: action parameter 'x' must be a ?variable"]),
    ('action-clause', 'action (A) { effects (P) { } }',
     ["k:1:22: syntax: unknown action clause 'effects'"]),
    ('effect-row-arrow', 'action (A) { effect (P) { a -> { b:1.0 } } }',
     ["k:1:27: syntax: expected '->', found 'a'"]),
    ('during-effect-state', 'action (A) { during-effect (N) { = -> { l:1.0 } } }',
     ["k:1:34: syntax: expected state, found '='"]),
    ('during-cond-state', 'action (A) { during-cond (P)=( }',
     ["k:1:30: syntax: expected state, found '('"]),
    ('redefined-action', 'action (A) level=0 {\n  effect (P) { * -> { a:1.0 } }\n}\naction (A) level=0 {\n  during-effect (N) {\n    q -> { l:1.0 }\n    * -> { q:1.0 }\n  }\n}',
     ['k:4:1: redefined: action A level=0 already declared']),
    ('redefined-persistence', 'persistence (P) { a -> { a:1.0 } }\npersistence (P) {\n  a -> { a:1.0 }\n  b -> { b:1.0 }\n}',
     ['k:2:1: redefined: persistence model for P already declared']),
    ('persistence-row-arrow', 'persistence (P) { a [0,3) { a:1.0 } }',
     ["k:1:27: syntax: expected '->', found '{'"]),
    ('from-keyword', 'derived (D) form { (P) } { }',
     ['k:1:18: syntax: expected from { parents }']),
]

PLAN_CASES = [
    ('statement', 'bogus',
     ["p:1:1: syntax: expected a plan statement, found 'bogus'"]),
    ('before-boundary', 'before b0',
     ["p:1:10: syntax: expected boundary, found ''"]),
    ('recovery-skips-kb-keywords', 'step s1 a1 (Move A L1) start b0 end=b1\npredicate (P)\ngoal { (Nope)=x }',
     ["p:1:30: syntax: expected '=', found 'b0'", 'p:3:8: unknown-predicate: goal: (Nope) is not declared']),
    ('unknown-action', 'step s1 a1 (Teleport A) start=b0 end=b1',
     ['p:1:1: unknown-action: "action \'Teleport\' has levels []; a level must be given"']),
    ('arity', 'step s1 a1 (Move A) start=b0 end=b1',
     ['p:1:1: arity: (Move A) has 1 arguments; Move expects 2']),
    ('start-keyword', 'step s1 a1 (Move A L1) begin=b0 end=b1',
     ['p:1:29: syntax: expected start=<boundary>']),
    ('end-keyword', 'step s1 a1 (Move A L1) start=b0 finish=b1',
     ['p:1:39: syntax: expected end=<boundary>']),
    ('span', 'step s1 a1 (Move A L1) start=b0 end=b0',
     ["p:1:1: span: step s1 starts and ends at 'b0'"]),
    ('contingent-at', 'contingent on b0 { * -> noop }',
     ['p:1:15: syntax: expected contingent at <boundary> { ... }']),
    ('contingent-label', 'contingent at b0 { * -> = }',
     ["p:1:25: syntax: expected step id or noop, found '='"]),
    ('expand-unknown-step', 'expand s9 { selected c1 (Move A L1) }',
     ["p:1:1: syntax: expand references unknown step 's9'"]),
    ('selected-or-alt', 'step s1 a1 (Fix A) start=b0 end=b1\nexpand s1 { chosen c1 (Move A L1) }',
     ["p:2:20: syntax: expected 'selected' or 'alt', found 'chosen'"]),
    ('sub-plan-or-action', 'step s1 a1 (Fix A) start=b0 end=b1\nexpand s1 { selected c1 L1 }',
     ['p:2:25: syntax: expected a sub-plan block or an action']),
    ('sub-plan-closing', 'step s1 a1 (Fix A) start=b0 end=b1\nexpand s1 { selected c1 { step w1 a1 (Move A L1) start=b0 end=b1 goal } }',
     ["p:2:66: syntax: expected '}', found 'goal'"]),
    ('cond-needs-a-term', 'step s1 a1 (Fix A) start=b0 end=b1\nexpand s1 { selected c1 (Move A L1) alt c2 (Move A L2) cond=* }',
     ['p:2:63: syntax: cond= needs at least one condition term']),
    ('one-selected', 'step s1 a1 (Fix A) start=b0 end=b1\nexpand s1 { selected c1 (Move A L1) selected c2 (Move A L2) }',
     ['p:2:61: syntax: an expansion can select only one alternative']),
    ('none-selected', 'step s1 a1 (Fix A) start=b0 end=b1\nexpand s1 { alt c1 (Move A L1) }',
     ['p:2:1: syntax: expansion of s1 marks no alternative as selected']),
    ('expansion-unknown-action', 'step s1 a1 (Fix A) start=b0 end=b1\nexpand s1 { selected c1 (Teleport A) }',
     ['p:2:1: unknown-action: "action \'Teleport\' has levels []; a level must be given"']),
    ('initial-number', 'initial { (Loc A)=L1:x }',
     ["p:1:22: syntax: expected a number, found 'x'"]),
    ('unknown-predicate', 'initial { (Nope)=x }',
     ['p:1:11: unknown-predicate: initial: (Nope) is not declared']),
    ('unknown-predicate-in-contingency', 'contingent at b0 { (Nope)=x -> noop }',
     ['p:0:0: unknown-predicate: contingency at b0: (Nope) is not declared']),
    ('goal-arity', 'goal { (Loc)=L1 }',
     ['p:1:8: arity: goal: (Loc) has arity 0, expected 1']),
    ('goal-state', 'goal { (Loc A)=(L1) }',
     ["p:1:16: syntax: expected state, found '('"]),
    ('duplicate-initial', 'initial { (Loc A)=L1 (Loc A)=L1 }',
     ['p:1:22: duplicate: initial state listed twice for (Loc A)=L1']),
    ('normalization', 'initial { (Loc A)=L1:0.5 }',
     ['p:0:0: normalization: initial distribution for (Loc A) sums to 0.5']),
    ('unknown-step', 'contingent at b0 { * -> s9 }',
     ["p:0:0: unknown-step: contingency at b0 references unknown step 's9'"]),
    ('cyclic-order', 'step s1 a1 (Move A L1) start=b1 end=b2\nbefore b2 b1',
     ["p:0:0: cyclic-order: interlock constraints are cyclic around ['b1', 'b2']"]),
    ('plan', 'step big a1 (Fix A) start=b0 end=b2\nstep other a2 (Move A L1) start=b1 end=b3\nexpand big { selected c1 { step w1 a1 (Move A L2) start=b0 end=b3 } }',
     ["p:0:0: plan: sub-step w1 of big references boundary 'b3' outside the expansion interval"]),
]

SPEC_CASES = [
    ('evidence', '(Loc A)=L2', "evidence '(Loc A)=L2' must pin a situation with @S<i>"),
    ('evidence', '(Loc A)@S1', "evidence '(Loc A)@S1' must have the form (Pred args)=state@S<i>"),
    ('evidence', 'Loc A=L2@S1', "'Loc A' is not an atom like (Loc A)"),
    ('marginal', '(Loc A)', "marginal '(Loc A)' must pin a situation with @S<i>"),
    ('marginal', 'Loc A@S1', "'Loc A' is not an atom like (Loc A)"),
    ('marginal', '()@S1', "'()' is not an atom like (Loc A)"),
]


@pytest.mark.parametrize("text, expected", [case[1:] for case in KB_CASES], ids=[case[0] for case in KB_CASES])
def test_kb_diagnostic(text, expected):
    _kb, diags = parse_kb(SourceDocument(text, "k"))
    assert [d.render("k") for d in diags] == expected


@pytest.mark.parametrize("text, expected", [case[1:] for case in PLAN_CASES], ids=[case[0] for case in PLAN_CASES])
def test_plan_diagnostic(text, expected):
    kb, diags = parse_kb(SourceDocument(PIN_KB, "k"))
    assert not diags and not validate_kb(kb)
    _plan, diags = parse_plan(SourceDocument(text, "p"), kb)
    assert [d.render("p") for d in diags] == expected


@pytest.mark.parametrize("kind, text, message", SPEC_CASES)
def test_query_spec_error(kind, text, message):
    parse = parse_evidence_spec if kind == "evidence" else parse_marginal_spec
    with pytest.raises(PlanEvalError) as exc:
        parse(text)
    assert str(exc.value) == message
