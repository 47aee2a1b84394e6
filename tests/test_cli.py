"""Command-line surface: subcommands, report format, exit codes, determinism."""

import os
import subprocess
import sys

import pytest

import planeval
from planeval import BuildOptions, GroundAtom, build_pe_net, canonical_dump, leads_to_success, plan_success, run_cli
from planeval.dsl import print_kb
from planeval.export import export_graph
from planeval.net import Alias, SituationId, atom_node

from fixtures import (
    CONTINGENT_KB,
    HELD_KB,
    HIERARCHY_KB,
    HIERARCHY_PLAN,
    INVERTED_KB,
    MOVE_KB,
    OVERLAP_KB,
    OVERLAP_PLAN,
    RELIABLE_MOVE_KB,
    RELIABLE_MOVE_PLAN,
    SELF_EXPANDING_PLAN,
    SHARED_BOUNDARY_PLAN,
    SWAPPED_COPY_KB,
    SWAPPED_COPY_PLAN,
    TWO_STEP_PLAN,
    UNMATCHED_DERIVED_KB,
    UNMATCHED_DERIVED_PLAN,
    held_plan,
    load,
)
import instance_gen


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


def test_eval_mc_warns_when_few_samples_carry_weight(files, capsys):
    # At seed 2, 6 of 50 samples agree with the evidence, so the ± of 0 means
    # nothing: the exact answer is 0.9. stdout and the exit code stay as they were.
    kb_path, plan_path = files(MOVE_KB, TWO_STEP_PLAN)
    argv = ["eval", kb_path, plan_path, "--evidence", "(Loc A)=L1@S2", "--seed", "2"]

    def warnings(*keys):
        return [f"warning: {key}: effective sample size 6.0 of 50 samples is below 30; the ± is not to be trusted"
                for key in keys]

    code, out, err = run(capsys, argv + ["--mc", "50"])
    assert (code, out) == (0, "leads_to_success = 1.000000 ± 0.000000\nplan_success = 1.000000 ± 0.000000\n")
    assert err.splitlines() == warnings("leads_to_success", "plan_success")
    code, _out, err = run(capsys, argv + ["--mc", "50", "--goal-only", "--marginal", "(Loc A)@S1"])
    assert code == 0
    assert err.splitlines() == warnings("leads_to_success", "marginal (Loc A)@S1 L1", "marginal (Loc A)@S1 L2")
    assert run(capsys, argv + ["--mc", "500"])[0::2] == (0, "")
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "") and out.startswith("leads_to_success = 0.900000\n")


@pytest.mark.parametrize("value", ["0", "-5", "abc"])
def test_eval_mc_needs_at_least_one_sample(files, capsys, value):
    kb_path, plan_path = files(MOVE_KB, TWO_STEP_PLAN)
    with pytest.raises(SystemExit) as exc:
        run_cli(["eval", kb_path, plan_path, "--mc", value])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "argument --mc" in captured.err
    assert "Traceback" not in captured.err


def test_eval_negative_seed_is_a_usage_error(files, capsys):
    kb_path, plan_path = files(MOVE_KB, TWO_STEP_PLAN)
    with pytest.raises(SystemExit) as exc:
        run_cli(["eval", kb_path, plan_path, "--mc", "100", "--seed", "-1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "argument --seed: must be at least 0, not -1" in captured.err
    assert "Traceback" not in captured.err


def test_eval_exact_and_mc_together_is_a_usage_error(files, capsys):
    kb_path, plan_path = files(MOVE_KB, TWO_STEP_PLAN)
    with pytest.raises(SystemExit) as exc:
        run_cli(["eval", kb_path, plan_path, "--exact", "--mc", "50"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "argument --mc: not allowed with argument --exact" in captured.err


# Every atom keeps its exact states, so there is no state cap to give.
@pytest.mark.parametrize("flag, value, message", [
    ("--clock-cap", "0", "argument --clock-cap: must be at least 2, not 0"),
    ("--state-cap", "1", "unrecognized arguments: --state-cap 1"),
], ids=["--clock-cap-0", "--state-cap-1"])
def test_caps_below_two_are_usage_errors(files, capsys, flag, value, message):
    kb_path, plan_path = files(MOVE_KB, TWO_STEP_PLAN)
    with pytest.raises(SystemExit) as exc:
        run_cli(["build", kb_path, plan_path, flag, value])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage: ")
    assert message in captured.err
    assert ":0:0: build:" not in captured.err  # refused before any build is tried


# (P x)'s prior lists c before a; (P x)@S1 is an alias of (P x)@S0, and s2 is its first writer.
PRIOR_ORDER_KB = """
predicate (P ?x) kind=primitive states { a b c }
action (Set ?x) level=0 { effect (P ?x) { * -> { c:0.5 a:0.5 } } }
"""

PRIOR_ORDER_PLAN = """
step s1 ag (Set y) start=b0 end=b1
step s2 ag (Set x) start=b1 end=b2
initial { (P x)=c:0.5 (P x)=a:0.5 (P y)=a }
goal { (P x)=a }
"""


def test_marginal_states_keep_schema_order_before_and_after_the_first_writer(files, capsys):
    kb, plan = load(PRIOR_ORDER_KB, PRIOR_ORDER_PLAN)
    net = build_pe_net(plan, kb)
    assert [net.node_of(net.find("(P x)", sit)).states for sit in ("S0", "S1", "S2")] == [["a", "c"]] * 3
    kb_path, plan_path = files(PRIOR_ORDER_KB, PRIOR_ORDER_PLAN)
    argv = ["eval", kb_path, plan_path, "--goal-only"]
    for sit in ("S0", "S1", "S2"):
        argv += ["--marginal", f"(P x)@{sit}"]
    code, out, err = run(capsys, argv)
    assert code == 0, err
    printed = [line.split(" = ")[0] for line in out.splitlines() if line.startswith("marginal")]
    assert printed == [f"marginal (P x)@{sit} {state}" for sit in ("S0", "S1", "S2") for state in ("a", "c")]
    # (X)@S1 relabels (Y)@S0, whose p gives b and q gives a: still listed in schema order
    argv = ["eval", *files(SWAPPED_COPY_KB, SWAPPED_COPY_PLAN), "--goal-only", "--marginal", "(X)@S1"]
    code, out, err = run(capsys, argv)
    assert code == 0, err
    printed = [line for line in out.splitlines() if line.startswith("marginal")]
    assert [line.split(" = ")[0] for line in printed] == ["marginal (X)@S1 a", "marginal (X)@S1 b"]
    assert [float(line.split(" = ")[1].split()[0]) for line in printed] == [0.75, 0.25]


# generate(33) as text: (D) is defined from (F2) alone, dt for s0 and df for
# s1, so at every situation it is an alias of (F2) that relabels its states.
RELABELLED_PLAN = """
step t0 a1 (Act0) start=b0 end=b1
step t1 a1 (Act0) start=b1 end=b2
initial { (F0)=s0 (F1)=s0 (F2)=s0:0.25 (F2)=s1:0.75 (F3)=s1 (Q o1)=q0 (Q o2)=q0 }
goal { (F2)=s1 (F1)=s1 (D)=df }
"""


@pytest.mark.parametrize("mode", [[], ["--mc", "20000"]])
def test_eval_marginal_of_an_alias_lists_its_own_states(files, capsys, mode):
    generated_kb, generated_plan = instance_gen.generate(33)
    kb_text = print_kb(generated_kb)
    kb, plan = load(kb_text, RELABELLED_PLAN)
    net = build_pe_net(plan, kb)
    assert canonical_dump(net) == canonical_dump(build_pe_net(generated_plan, generated_kb))
    d1 = atom_node(GroundAtom("D"), SituationId(1))
    assert net.aliases[d1] == Alias(net.find("(F2)", "S1"), ("dt", "df"), ("dt", "df"), ("derived (D)", "derived (D)"))
    code, out, err = run(capsys, ["eval", *files(kb_text, RELABELLED_PLAN), "--marginal", "(D)@S1", *mode])
    assert code == 0, err
    marginals = [line for line in out.splitlines() if line.startswith("marginal")]
    assert [line.split(" = ")[0] for line in marginals] == ["marginal (D)@S1 dt", "marginal (D)@S1 df"]
    # (F2)@S1 is s1 when it starts s1 (0.75) and t0 keeps it (0.75)
    for line, want in zip(marginals, (0.4375, 0.5625)):
        assert abs(float(line.split(" = ")[1].split()[0]) - want) <= (0.02 if mode else 1e-6), line


def test_eval_mc_marginal_of_a_node_missing_from_the_net_exit_1(files, capsys):
    kb_path, plan_path = files(MOVE_KB, TWO_STEP_PLAN)
    code, out, err = run(capsys, ["eval", kb_path, plan_path, "--mc", "100", "--marginal", "(Loc A)@S9"])
    assert code == 1
    assert out == ""  # no report line before every query is resolved
    assert err.startswith(f"{plan_path}:0:0: query: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, spec", [("--marginal", "(Loc B)@S1"), ("--evidence", "(Loc B)=L1@S1")])
def test_eval_query_of_an_unknown_node_names_it_without_quotes(files, capsys, flag, spec):
    kb_path, plan_path = files(RELIABLE_MOVE_KB, RELIABLE_MOVE_PLAN)
    code, out, err = run(capsys, ["eval", kb_path, plan_path, flag, spec])
    assert (code, out) == (1, "")
    assert err == f"{plan_path}:0:0: query: no node (Loc B)@S1 in net\n"


@pytest.mark.parametrize("flag, spec", [
    ("--evidence", "(Loc A)=L1@S1c"),
    ("--evidence", "(Loc A)=L1@Sx"),
    ("--marginal", "(Loc A)@S"),
])
def test_eval_malformed_situation_exit_1(files, capsys, flag, spec):
    kb_path, plan_path = files(MOVE_KB, TWO_STEP_PLAN)
    code, out, err = run(capsys, ["eval", kb_path, plan_path, flag, spec])
    assert code == 1
    assert out == ""
    assert err.startswith(f"{plan_path}:0:0: query: malformed situation ")
    assert "Traceback" not in err


@pytest.mark.parametrize("module", ["planeval", "planeval.cli"])
@pytest.mark.parametrize("extra", [[], ["--marginal", "(Loc A)@S"]])
def test_python_m_runs_the_cli(files, capsys, module, extra):
    kb_path, plan_path = files(MOVE_KB, TWO_STEP_PLAN)
    argv = ["eval", kb_path, plan_path, "--marginal", "(Loc B)@S2"] + extra
    code, out, _err = run(capsys, argv)
    src = os.path.dirname(os.path.dirname(planeval.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", module] + argv, capture_output=True, text=True, env=env,
                          timeout=120)
    assert (proc.returncode, proc.stdout) == (code, out)
    assert code == (1 if extra else 0)
    assert (out == "") == bool(extra)


def test_build_rejects_invalid_kb_with_exit_1(files, capsys):
    kb_path, plan_path = files(INVERTED_KB, "initial { }\ngoal { }\n")
    code, _out, err = run(capsys, ["build", kb_path, plan_path])
    assert code == 1
    assert "derived-as-consequence" in err
    assert err.splitlines()[0].startswith(kb_path + ":")


def test_build_sub_step_reusing_the_expanded_id_exit_1(files, capsys):
    kb_path, plan_path = files(HIERARCHY_KB, SELF_EXPANDING_PLAN)
    code, out, err = run(capsys, ["build", kb_path, plan_path])
    assert code == 1
    assert out == ""
    assert err == f"{plan_path}:0:0: plan: sub-step big of big reuses the id of a step being expanded\n"


def test_build_of_two_contingency_groups_at_one_boundary_exit_1(files, capsys):
    kb_path, plan_path = files(CONTINGENT_KB, SHARED_BOUNDARY_PLAN)
    code, out, err = run(capsys, ["build", kb_path, plan_path])
    assert code == 1
    assert out == ""
    assert err == f"{plan_path}:0:0: build: pipeline stage 'schedule': two contingency groups share boundary 'b0'\n"


@pytest.mark.parametrize("missing", ["kb", "plan"])
def test_missing_input_file_exit_1(files, capsys, tmp_path, missing):
    kb_path, plan_path = files(RELIABLE_MOVE_KB, RELIABLE_MOVE_PLAN)
    absent = str(tmp_path / f"absent.{missing}")
    argv = ["eval", absent, plan_path] if missing == "kb" else ["eval", kb_path, absent]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == f"{absent}:0:0: io: No such file or directory\n"


@pytest.mark.parametrize("binary", ["kb", "plan"])
def test_non_utf8_input_file_exit_1(files, capsys, tmp_path, binary):
    kb_path, plan_path = files(RELIABLE_MOVE_KB, RELIABLE_MOVE_PLAN)
    bad = kb_path if binary == "kb" else plan_path
    with open(bad, "wb") as handle:
        handle.write(b"predicate (G) \xff\xfe states { no yes }\n")
    code, out, err = run(capsys, ["eval", kb_path, plan_path])
    assert (code, out) == (1, "")
    assert err == f"{bad}:0:0: io: not UTF-8: invalid start byte at byte 14\n"


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
    # the object the first action ignores has no node at S1, an alias of
    # (Loc B)@S0, so the second action's node reads (Loc B)@S0
    assert '"(Loc B)@S0" -> "(Loc B)@S2";' in text
    assert '"(Loc B)@S1"' not in text


def test_export_same_net_identical_bytes():
    kb, plan = load(MOVE_KB, TWO_STEP_PLAN)
    net = build_pe_net(plan, kb)
    assert export_graph(net) == export_graph(net)
    kb2, plan2 = load(MOVE_KB, TWO_STEP_PLAN)
    assert export_graph(build_pe_net(plan2, kb2)) == export_graph(net)


def test_export_clocked_net_has_one_node_line_per_node():
    kb, plan = load(OVERLAP_KB, OVERLAP_PLAN)
    net = build_pe_net(plan, kb, BuildOptions(clock_enabled=True))
    lines = [line for line in export_graph(net).splitlines() if "[shape=" in line]
    assert len(lines) == len(net.nodes)
    assert sorted(line.split('"')[1] for line in lines) == sorted(str(nid) for nid in net.nodes)
    assert '    "elapsed([0,3) [3,inf))@S1" [shape=octagon];' in lines


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


AGENTS_TIMED_1_PLAN = """
step s0_0 ag0 (Act0_0 x0_0) start=b0 end=e0_0
step s1_0 ag1 (Act1_0 x1_0) start=b0 end=e1_0
step s1_1 ag1 (Act1_1 x1_1) start=e1_0 end=e1_1
initial { (P x0_0)=u (P x1_0)=u (P x1_1)=u }
goal { (P x0_0)=v (P x1_0)=v (P x1_1)=v }
"""


def test_compare_linearizations_reports_an_order_it_cannot_build_as_n_a(files, capsys):
    # The default order builds; seed 0's would need a second split.
    generated_kb, generated_plan = instance_gen.generate_agents_timed(1)
    kb_text = print_kb(generated_kb)
    kb, plan = load(kb_text, AGENTS_TIMED_1_PLAN)
    assert canonical_dump(build_pe_net(plan, kb, BuildOptions(clock_enabled=True))) == canonical_dump(
        build_pe_net(generated_plan, generated_kb, BuildOptions(clock_enabled=True)))
    kb_path, plan_path = files(kb_text, AGENTS_TIMED_1_PLAN)
    code, out, err = run(capsys, ["compare-linearizations", kb_path, plan_path, "--clock", "--seeds", "1"])
    assert code == 0, err
    assert out.splitlines()[1] == "linearization[0] leads_to_success = n/a"
    assert err.startswith(f"{plan_path}:0:0: build: pipeline stage 'split': ")
    assert "would need a second split" in err


def test_compare_linearizations_parses_the_inputs_once(files, capsys, monkeypatch):
    kb_path, plan_path = files(OVERLAP_KB, OVERLAP_PLAN)
    calls = []

    def counting_parse_plan(*args):
        calls.append(args)
        return planeval.parse_plan(*args)

    monkeypatch.setattr(planeval.cli, "parse_plan", counting_parse_plan)
    code, out, err = run(capsys, ["compare-linearizations", kb_path, plan_path, "--seeds", "3"])
    assert code == 0, err
    assert len(out.splitlines()) == 4  # the default order and three seeded ones
    assert len(calls) == 1


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


def test_table_past_numpys_dimension_limit_exit_1(files, capsys):
    # seventy writes during a gated step give one node more parents than a numpy array has axes
    kb_path, plan_path = files(HELD_KB, held_plan(70))
    code, out, err = run(capsys, ["eval", kb_path, plan_path])
    assert code == 1
    assert out == ""
    assert err.startswith(f"{plan_path}:0:0: build: pipeline stage 'forward': node ")
    assert "dimensions, above" in err


def test_derived_definition_matching_no_reachable_state_exit_1(files, capsys):
    kb_path, plan_path = files(UNMATCHED_DERIVED_KB, UNMATCHED_DERIVED_PLAN)
    code, out, err = run(capsys, ["eval", kb_path, plan_path])
    assert code == 1
    assert out == ""
    assert err.startswith(f"{plan_path}:0:0: build: pipeline stage 'forward': derived definition for (At) ")


def test_infeasible_evidence_exit_2(files, capsys):
    kb_path, plan_path = files(MOVE_KB, TWO_STEP_PLAN)
    code, _out, err = run(capsys, ["eval", kb_path, plan_path, "--evidence", "(Loc B)=L1@S0"])
    assert code == 2
    assert "inference" in err


@pytest.mark.parametrize("engine, message", [([], "evidence has probability zero"),
                                             (["--mc", "100"], "all samples are inconsistent with the evidence")])
def test_evidence_pinning_an_alias_and_its_source_apart_exit_2(files, capsys, engine, message):
    # no step changes (Risk): (Risk)@S1 is an alias of (Risk)@S0, and the two pins disagree
    kb_path, plan_path = files(HIERARCHY_KB, HIERARCHY_PLAN)
    pins = ["eval", kb_path, plan_path, "--evidence", "(Risk)=high@S1", "--evidence"]
    code, out, err = run(capsys, pins + ["(Risk)=low@S0"] + engine)
    assert (code, out, err) == (2, "", f"inference: {message}\n")
    code, out, _err = run(capsys, pins + ["(Risk)=high@S0"] + engine)
    assert code == 0 and out.startswith("leads_to_success = ")


@pytest.mark.parametrize("command", ["eval", "compare-linearizations"])
def test_factor_cell_guard_exit_2(files, capsys, monkeypatch, command):
    from planeval import inference

    monkeypatch.setattr(inference, "MAX_FACTOR_CELLS", 1)
    kb_path, plan_path = files(MOVE_KB, TWO_STEP_PLAN)
    code, out, err = run(capsys, [command, kb_path, plan_path])
    assert code == 2
    assert out == ""
    assert err == "inference: elimination needs a factor of 4 cells, above 1\n"


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
