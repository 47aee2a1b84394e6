"""Command-line surface: subcommands, report format, exit codes, determinism."""

import pytest

from planeval import build_pe_net, export_graph, leads_to_success, plan_success, run_cli

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
    load,
)


@pytest.fixture
def files(tmp_path):
    def write(kb_text, plan_text):
        kb_path = tmp_path / "model.kb"
        plan_path = tmp_path / "mission.plan"
        kb_path.write_text(kb_text)
        plan_path.write_text(plan_text)
        return str(kb_path), str(plan_path)

    return write


def run(capsys, argv):
    code = run_cli(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_reports_goal_probability(files, capsys):
    kb_path, plan_path = files(RELIABLE_MOVE_KB, RELIABLE_MOVE_PLAN)
    code, out, err = run(capsys, ["eval", kb_path, plan_path])
    assert code == 0, err
    assert "leads_to_success = 1.000000" in out
    assert "plan_success = 1.000000" in out


def test_eval_goal_only(files, capsys):
    kb_path, plan_path = files(RELIABLE_MOVE_KB, RELIABLE_MOVE_PLAN)
    code, out, _ = run(capsys, ["eval", kb_path, plan_path, "--goal-only"])
    assert code == 0
    assert "plan_success" not in out


def test_eval_with_evidence_and_marginal(files, capsys):
    kb_path, plan_path = files(MOVE_KB, TWO_STEP_PLAN)
    code, out, err = run(capsys, [
        "eval", kb_path, plan_path,
        "--evidence", "(Loc A)=L2@S1",
        "--marginal", "(Loc A)@S1",
    ])
    assert code == 0, err
    assert "marginal (Loc A)@S1 L2 = 1.000000" in out


def test_eval_mc_byte_deterministic(files, capsys):
    kb_path, plan_path = files(MOVE_KB, TWO_STEP_PLAN)
    code1, out1, _ = run(capsys, ["eval", kb_path, plan_path, "--mc", "5000", "--seed", "7"])
    code2, out2, _ = run(capsys, ["eval", kb_path, plan_path, "--mc", "5000", "--seed", "7"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert "±" in out1


def test_eval_mc_reports_the_api_values(files, capsys):
    kb_path, plan_path = files(HIERARCHY_KB, HIERARCHY_PLAN)
    code, out, err = run(capsys, ["eval", kb_path, plan_path, "--mc", "500", "--seed", "3"])
    assert code == 0, err
    kb, plan = load(HIERARCHY_KB, HIERARCHY_PLAN)
    net = build_pe_net(plan, kb)
    expected = []
    for key, metric in (("leads_to_success", leads_to_success), ("plan_success", plan_success)):
        result = metric(net, plan, mode="mc", samples=500, seed=3)
        expected.append(f"{key} = {result.probability:.6f} ± {result.standard_error:.6f}")
    assert out.splitlines() == expected


def test_build_rejects_invalid_kb_with_exit_1(files, capsys):
    kb_path, plan_path = files(INVERTED_KB, "initial { }\ngoal { }\n")
    code, _out, err = run(capsys, ["build", kb_path, plan_path])
    assert code == 1
    assert "derived-as-consequence" in err
    assert err.splitlines()[0].startswith(kb_path + ":")


def test_parse_diagnostics_carry_file_line_col(files, capsys):
    kb_path, plan_path = files(MOVE_KB, "step s1 a1 (Teleport A) start=b0 end=b1\n")
    code, _out, err = run(capsys, ["eval", kb_path, plan_path])
    assert code == 1
    assert err.startswith(plan_path + ":")


def test_build_out_is_deterministic(files, capsys, tmp_path):
    kb_path, plan_path = files(MOVE_KB, TWO_STEP_PLAN)
    out1 = tmp_path / "net1.txt"
    out2 = tmp_path / "net2.txt"
    assert run(capsys, ["build", kb_path, plan_path, "--out", str(out1)])[0] == 0
    assert run(capsys, ["build", kb_path, plan_path, "--out", str(out2)])[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_export_dot_structure(files, capsys, tmp_path):
    kb_path, plan_path = files(MOVE_KB, TWO_STEP_PLAN)
    dot = tmp_path / "net.dot"
    code, _out, err = run(capsys, ["export", kb_path, plan_path, "--dot-out", str(dot)])
    assert code == 0, err
    text = dot.read_text()
    for cluster in ("cluster_S0", "cluster_S1", "cluster_S2"):
        assert cluster in text
    assert '"(Loc A)@S0" -> "(Loc A)@S1";' in text
    # persistence arc for the object the first action ignores
    assert '"(Loc B)@S0" -> "(Loc B)@S1";' in text


def test_export_same_net_identical_bytes():
    kb, plan = load(MOVE_KB, TWO_STEP_PLAN)
    net = build_pe_net(plan, kb)
    assert export_graph(net) == export_graph(net)
    kb2, plan2 = load(MOVE_KB, TWO_STEP_PLAN)
    assert export_graph(build_pe_net(plan2, kb2)) == export_graph(net)


def test_export_empty_plan_single_cluster(files, capsys, tmp_path):
    kb_path, plan_path = files(MOVE_KB, "initial { (Loc A)=L1 }\ngoal { (Loc A)=L1 }")
    dot = tmp_path / "empty.dot"
    code, _out, _err = run(capsys, ["export", kb_path, plan_path, "--dot-out", str(dot)])
    assert code == 0
    text = dot.read_text()
    assert "cluster_S0" in text and "cluster_S1" not in text


def test_compare_linearizations(files, capsys):
    # untimed overlapping plan: every consistent linearization builds
    kb_path, plan_path = files(OVERLAP_KB, OVERLAP_PLAN)
    code, out, err = run(capsys, ["compare-linearizations", kb_path, plan_path, "--seeds", "2"])
    assert code == 0, err
    assert "linearization[default] leads_to_success =" in out
    assert "linearization[0] leads_to_success =" in out
    assert "linearization[1] leads_to_success =" in out


def test_timed_plan_needing_a_second_split_exit_1(files, capsys):
    # three timed steps fanning out from b0: the first split's sub-situation
    # would need a split of its own
    kb_path, plan_path = files(OVERLAP_KB, """
step f0 ag0 (First) start=b0 end=e0
step f1 ag1 (Second) start=b0 end=e1
step f2 ag2 (Third) start=b0 end=e2
initial { (P x1)=u (P x2)=u (P x3)=u (P q)=u }
goal { (P q)=v }
""")
    code, out, err = run(capsys, ["eval", kb_path, plan_path, "--clock"])
    assert code == 1
    assert out == ""
    assert err.startswith(f"{plan_path}:0:0: build: pipeline stage 'split': ")
    assert "unsupported" in err


def test_infeasible_evidence_exit_2(files, capsys):
    kb_path, plan_path = files(MOVE_KB, TWO_STEP_PLAN)
    code, _out, err = run(capsys, ["eval", kb_path, plan_path, "--evidence", "(Loc B)=L1@S0"])
    assert code == 2
    assert "inference" in err


def test_factor_cell_guard_exit_2(files, capsys, monkeypatch):
    from planeval import inference

    monkeypatch.setattr(inference, "MAX_FACTOR_CELLS", 1)
    kb_path, plan_path = files(MOVE_KB, TWO_STEP_PLAN)
    code, _out, err = run(capsys, ["eval", kb_path, plan_path])
    assert code == 2
    assert "inference: elimination needs a factor of" in err


# -- selection references and same-situation arcs ---------------------------

# FixA's effect reads the selection made at b1, the boundary where it ends.
SEL_EFFECT_KB = """
predicate (S ?x) kind=primitive states { ok bad }
predicate (R ?x) kind=primitive states { lo hi }
action (FixA ?x) level=0 { effect (R ?x) { sel(b1)=g1 -> { hi:0.7 lo:0.3 } } }
action (Idle ?x) level=0 { effect (S ?x) { * -> { ok:1.0 } } }
"""


def sel_effect_plan(selector_condition: str) -> str:
    return f"""
step f1 a1 (FixA m) start=b0 end=b1
step g1 a1 (Idle m) start=b1 end=b2
contingent at b1 {{
  {selector_condition} -> g1
}}
initial {{ (S m)=ok (R m)=lo:0.5 (R m)=hi:0.5 }}
goal {{ (R m)=hi }}
"""


@pytest.mark.parametrize("boundary, first, second", [("b1", "g1", "g2"), ("b0", "f1", "f2")])
def test_selector_reading_its_own_or_a_later_selection_rejected(files, capsys, boundary, first, second):
    kb_path, plan_path = files(CONTINGENT_KB, f"""
step f1 a1 (FixA m) start=b0 end=b1
step f2 a2 (FixB m) start=b0 end=b1
step g1 a3 (FixA m) start=b1 end=b2
step g2 a4 (FixB m) start=b1 end=b2
contingent at b0 {{
  sel({boundary})={first} -> f1
  sel({boundary})={second} -> f2
}}
contingent at b1 {{
  (S m)=ok -> {{ g1:0.5 g2:0.5 }}
}}
initial {{ (S m)=ok (R m)=lo }}
goal {{ (R m)=hi }}
""")
    code, _out, err = run(capsys, ["eval", kb_path, plan_path])
    assert code == 1
    assert err.startswith(f"{plan_path}:0:0: build: pipeline stage 'schedule': ")
    assert f"sel({boundary})" in err
    assert "Traceback" not in err


def test_selector_reading_an_earlier_selection(files, capsys):
    kb_path, plan_path = files(CONTINGENT_KB, """
step f1 a1 (FixA m) start=b0 end=b1
step f2 a2 (FixB m) start=b0 end=b1
step g1 a3 (FixA m) start=b1 end=b2
contingent at b0 {
  (S m)=ok -> { f1:0.45 f2:0.55 }
}
contingent at b1 {
  sel(b0)=f1 -> g1
}
initial { (S m)=ok (R m)=lo }
goal { (R m)=hi }
""")
    code, out, err = run(capsys, ["eval", kb_path, plan_path])
    assert code == 0, err
    # f1 then g1 (0.45 * 0.7); f2 then the noop fallback (0.55 * 0.2)
    assert "leads_to_success = 0.425000" in out


def test_same_situation_cycle_rejected(files, capsys):
    # (R m)@S1 reads sel(b1)@S1, whose selector reads (R m)@S1
    kb_path, plan_path = files(SEL_EFFECT_KB, sel_effect_plan("(R m)=lo"))
    code, _out, err = run(capsys, ["eval", kb_path, plan_path])
    assert code == 1
    assert err.startswith(f"{plan_path}:0:0: build: pipeline stage 'forward': paste created a cycle through ")


def test_same_situation_selection_feeds_primitive(files, capsys):
    kb_path, plan_path = files(SEL_EFFECT_KB, sel_effect_plan("(S m)=ok"))
    code, out, err = run(capsys, ["eval", kb_path, plan_path])
    assert code == 0, err
    assert "leads_to_success = 0.700000" in out


def test_same_situation_selection_adds_an_effect_state(files, capsys):
    # (R m) starts at lo alone, so hi is reachable at S1 only through the
    # effect gated on sel(b1)@S1: the sweep must know the selection first.
    plan = sel_effect_plan("(S m)=ok").replace("(R m)=lo:0.5 (R m)=hi:0.5", "(R m)=lo")
    kb_path, plan_path = files(SEL_EFFECT_KB, plan)
    code, out, err = run(capsys, ["eval", kb_path, plan_path])
    assert code == 0, err
    assert "leads_to_success = 0.700000" in out
