"""Shared scenario fixtures, written in the DSL so every test exercises the parser."""

from planeval import SourceDocument, parse_kb, parse_plan, validate_kb

MOVE_KB = """
predicate (Loc ?obj) kind=primitive states { L1 L2 L3 }
action (Move ?obj ?from ?to) level=0 {
  effect (Loc ?obj) {
    (Loc ?obj)=?from -> { ?to:0.9 ?from:0.1 }
  }
}
persistence (Loc ?obj) {
  L1 -> { L1:0.95 L2:0.05 }
}
"""

TWO_STEP_PLAN = """
step s1 a1 (Move A L1 L2) start=b0 end=b1
step s2 a1 (Move B L3 L1) start=b1 end=b2
initial { (Loc A)=L1 (Loc B)=L3 }
goal { (Loc B)=L1 }
"""

RELIABLE_MOVE_KB = """
predicate (Loc ?obj) kind=primitive states { L1 L2 }
predicate (At ?loc) kind=derived states { X NONE }
action (Move ?obj ?from ?to) level=0 {
  effect (Loc ?obj) { (Loc ?obj)=?from -> { ?to:1.0 } }
}
derived (At L1) from { (Loc X) } {
  (Loc X)=L1 -> { X:1.0 }
  (Loc X)=L2 -> { NONE:1.0 }
}
"""

UNMATCHED_DERIVED_KB = """
predicate (Loc ?obj) kind=primitive states { L1 L2 L3 }
predicate (At) kind=derived states { X NONE }
derived (At) from { (Loc A) } { (Loc A)=L3 -> { X:1.0 } }
"""

UNMATCHED_DERIVED_PLAN = """
initial { (Loc A)=L1 }
goal { (At)=X }
"""

RELIABLE_MOVE_PLAN = """
step s1 a1 (Move X L1 L2) start=b0 end=b1
initial { (Loc X)=L1 }
goal { (Loc X)=L2 (At L1)=NONE }
"""

INVERTED_KB = """
predicate (Loc ?obj) kind=derived states { L1 L2 }
predicate (At ?loc) kind=primitive states { X NONE }
action (Move ?obj ?from ?to) level=0 {
  effect (Loc ?obj) { (Loc ?obj)=?from -> { ?to:1.0 } }
}
"""

OVERLAP_KB = """
predicate (P ?x) kind=primitive states { u v }
action (First) level=0 { duration { 2:0.5 4:0.5 } effect (P x1) { * -> { v:1.0 } } }
action (Second) level=0 { duration { 1:0.5 6:0.5 } effect (P x2) { * -> { v:1.0 } } }
action (Third) level=0 { duration { 1:1.0 } effect (P x3) { * -> { v:1.0 } } }
persistence (P ?x) elapsed { [0,3) [3,inf) } {
  u [0,3) -> { u:0.9 v:0.1 }
  u [3,inf) -> { u:0.5 v:0.5 }
}
"""

OVERLAP_PLAN = """
step a1 agent1 (First) start=b0 end=b1
step a2 agent2 (Second) start=b0 end=b2
step a3 agent2 (Third) start=b2 end=b3
initial { (P x1)=u (P x2)=u (P x3)=u (P q)=u }
goal { (P q)=v }
"""

# One long step on agent ag1 overlapping a chain of short steps on agent ag2,
# both from b0, with elapsed-time persistence on every (P ?x): the shape of
# the benchmark's long-vs-chain instances, with fixed probabilities.
LONG_CHAIN_KB = """
predicate (P ?x) kind=primitive states { u v }
action (Long ?x) level=0 { duration { 5:0.5 8:0.5 } effect (P ?x) { * -> { v:0.8 u:0.2 } } }
action (Short ?x) level=0 { duration { 1:0.4 3:0.6 } effect (P ?x) { * -> { v:0.7 u:0.3 } } }
persistence (P ?x) elapsed { [0,3) [3,inf) } {
  u [0,3) -> { u:0.9 v:0.1 }
  u [3,inf) -> { u:0.6 v:0.4 }
}
"""


def long_chain_plan(chain: int) -> str:
    lines = ["step long ag1 (Long x0) start=b0 end=e0"]
    prev = "b0"
    for j in range(chain):
        lines.append(f"step c{j} ag2 (Short x{j + 1}) start={prev} end=c{j}")
        prev = f"c{j}"
    atoms = ["(P q)"] + [f"(P x{j})" for j in range(chain + 1)]
    lines.append("initial { " + " ".join(f"{a}=u" for a in atoms) + " }")
    lines.append("goal { (P x0)=v (P q)=v }")
    return "\n".join(lines) + "\n"


HIERARCHY_KB = """
predicate (Done ?t) kind=primitive states { no yes }
predicate (Side ?t) kind=primitive states { clean dirty }
predicate (Risk) kind=primitive states { low high }
action (BigFix ?t) level=1 {
  effect (Done ?t) { * -> { yes:0.9 no:0.1 } }
  effect (Side ?t) { * -> { dirty:0.3 clean:0.7 } }
}
action (AltFix ?t) level=1 {
  effect (Done ?t) { * -> { yes:0.5 no:0.5 } }
}
action (StepOne ?t) level=0 { effect (Done ?t) { * -> { no:1.0 } } }
action (StepTwo ?t) level=0 { effect (Done ?t) { (Done ?t)=no -> { yes:0.8 no:0.2 } } }
"""

HIERARCHY_PLAN = """
step big a1 (BigFix T) start=b0 end=b9
expand big {
  selected c1 {
    step w1 a1 (StepOne T) start=b0 end=m1
    step w2 a1 (StepTwo T) start=m1 end=b9
  }
  alt c2 (AltFix T) cond=(Risk)=high
}
initial { (Done T)=no (Side T)=clean (Risk)=low:0.75 (Risk)=high:0.25 }
goal { (Done T)=yes }
"""

# The expansion's sub-step reuses the id of the step it expands.
SELF_EXPANDING_PLAN = """
step big a1 (BigFix T) start=b0 end=b9
expand big { selected c1 { step big a1 (StepOne T) start=b0 end=b9 } }
initial { (Done T)=no (Side T)=clean (Risk)=low }
goal { (Done T)=yes }
"""

DURING_KB = """
predicate (Power) kind=primitive states { on off }
predicate (Noise) kind=primitive states { quiet loud }
predicate (Built ?x) kind=primitive states { no yes }
predicate (Mark ?x) kind=primitive states { no yes }
action (Assemble ?x) level=0 {
  effect (Built ?x) { * -> { yes:1.0 } }
  effect (Mark ?x) { * -> { yes:1.0 } }
  during-cond (Power)=on gates (Built ?x)
  during-effect (Noise) { * -> { loud:1.0 } }
}
action (Cut) level=0 {
  effect (Power) { (Power)=on -> { off:0.4 on:0.6 } }
}
"""

DURING_PLAN = """
step asm a1 (Assemble W) start=b0 end=b2
step cut a2 (Cut) start=b0 end=b1
before b1 b2
initial { (Power)=on (Noise)=quiet (Built W)=no (Mark W)=no }
goal { (Built W)=yes }
"""

# During-effect rows of every form: unconditional, the bare-state shorthand
# (``quiet`` is short for ``(Noise)=quiet``) and a condition on another atom;
# where rows overlap the last matching one applies.
DURING_ROWS_KB = """
predicate (Power) kind=primitive states { on off }
predicate (Noise) kind=primitive states { quiet hum loud }
predicate (Built ?x) kind=primitive states { no yes }
action (Assemble ?x) level=0 {
  effect (Built ?x) { * -> { yes:0.9 no:0.1 } }
  during-effect (Noise) {
    * -> { hum:1.0 }
    quiet -> { loud:0.7 quiet:0.3 }
    (Power)=off -> { quiet:0.8 hum:0.2 }
  }
}
action (Cut) level=0 { effect (Power) { (Power)=on -> { off:0.5 on:0.5 } } }
action (Restore) level=0 { effect (Power) { (Power)=off -> { on:0.7 off:0.3 } } }
"""

DURING_ROWS_PLAN = """
step asm a1 (Assemble W) start=b0 end=b3
step cut a2 (Cut) start=b0 end=b1
step restore a2 (Restore) start=b1 end=b2
before b2 b3
initial { (Power)=on (Noise)=quiet:0.6 (Noise)=hum:0.4 (Built W)=no }
goal { (Built W)=yes (Noise)=quiet }
"""

CONTINGENT_KB = """
predicate (S ?x) kind=primitive states { ok bad }
predicate (R ?x) kind=primitive states { lo hi }
action (FixA ?x) level=0 { effect (R ?x) { * -> { hi:0.7 lo:0.3 } } }
action (FixB ?x) level=0 { effect (R ?x) { * -> { hi:0.2 lo:0.8 } } }
"""


def contingent_plan(weight: float) -> str:
    return f"""
step f1 a1 (FixA m) start=b0 end=b1
step f2 a2 (FixB m) start=b0 end=b1
contingent at b0 {{
  (S m)=ok -> {{ f1:{weight} f2:{1.0 - weight} }}
}}
initial {{ (S m)=ok (R m)=lo }}
goal {{ (R m)=hi }}
"""

# Two contingency groups at b0: the schedule rejects the plan.
SHARED_BOUNDARY_PLAN = """
step f1 a1 (FixA m) start=b0 end=b1
step f2 a2 (FixB m) start=b0 end=b1
contingent at b0 { (S m)=ok -> f1 }
contingent at b0 { (S m)=ok -> f2 }
initial { (S m)=ok (R m)=lo }
goal { (R m)=hi }
"""


# A step whose effect is gated on (Power) during it, while another agent
# writes (Power) at every intermediate situation: each write is a node of its
# own, one state each, so the gated node reads one more axis per write.
# s1 and s2 both end at b1; s2's rows, pasted last, overwrite s1's
# everywhere, so (X)@S1 is (Y)@S0 relabelled and s1's coin survives nowhere.
SWAPPED_COPY_KB = """
predicate (X) kind=primitive states { a b }
predicate (Y) kind=primitive states { p q }
action (Scramble) level=0 { effect (X) { * -> { a:0.5 b:0.5 } } }
action (Copy) level=0 { effect (X) { (Y)=p -> { b:1.0 } (Y)=q -> { a:1.0 } } }
"""

SWAPPED_COPY_PLAN = """
step s1 ag1 (Scramble) start=b0 end=b1
step s2 ag2 (Copy) start=b0 end=b1
initial { (X)=a (Y)=p:0.25 (Y)=q:0.75 }
goal { (X)=a }
"""

HELD_KB = """
predicate (Power) kind=primitive states { on off }
predicate (Built) kind=primitive states { no yes }
action (Assemble) level=0 {
  effect (Built) { * -> { yes:0.9 no:0.1 } }
  during-cond (Power)=on gates (Built)
}
action (Hold) level=0 { effect (Power) { * -> { on:1.0 } } }
"""


def held_plan(writes: int) -> str:
    lines = ["step asm a1 (Assemble) start=c0 end=done"]
    lines += [f"step h{i} a2 (Hold) start=c{i} end=c{i + 1}" for i in range(writes)]
    lines += [f"before c{writes} done", "initial { (Power)=on (Built)=no }", "goal { (Built)=yes }"]
    return "\n".join(lines) + "\n"


def load(kb_text: str, plan_text: str):
    kb, kb_diags = parse_kb(SourceDocument(kb_text, "kb"))
    assert not kb_diags, [d.message for d in kb_diags]
    sem = validate_kb(kb)
    assert not sem, [d.message for d in sem]
    plan, plan_diags = parse_plan(SourceDocument(plan_text, "plan"), kb)
    assert not plan_diags, [d.message for d in plan_diags]
    return kb, plan


def load_kb(kb_text: str):
    kb, diags = parse_kb(SourceDocument(kb_text, "kb"))
    assert not diags, [d.message for d in diags]
    return kb
