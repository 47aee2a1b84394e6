"""The package's outer surface: the names its root exports, and what a query,
a net or the CLI reports when it is handed something it cannot use."""

import types

import pytest

import planeval
from planeval import GroundAtom, PENet, PlanEvalError, Query, build_pe_net, exact_query, mc_query, run_cli
from planeval import inference
from planeval.export import export_graph
from planeval.net import FragmentNode, SituationId, atom_node

from fixtures import MOVE_KB, TWO_STEP_PLAN, load
from test_cli import files, run  # noqa: F401 - files is a fixture

# The README's library example, what perfbench drives, and the typed
# failures the README documents; everything else imports from its module.
PUBLIC = {
    "SourceDocument", "parse_kb", "parse_plan", "validate_kb", "build_pe_net", "BuildOptions",
    "leads_to_success", "plan_success", "exact_query", "mc_query", "Query",
    "BuildError", "GroundAtom", "PENet", "Schedule", "canonical_dump", "clock_node",
    "flatten_hierarchy", "linearize", "run_cli", "instantiate",
    "PlanEvalError", "InfeasibleEvidence", "TooLarge", "WidthExceeded", "ZeroWeight",
}


def test_package_root_exports_only_the_public_names():
    exported = {name for name, value in vars(planeval).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC


def _no_elimination(*args, **kwargs):
    raise AssertionError("elimination ran before the targets were checked")


def test_exact_query_checks_its_targets_before_eliminating(monkeypatch):
    kb, plan = load(MOVE_KB, TWO_STEP_PLAN)
    net = build_pe_net(plan, kb)
    monkeypatch.setattr(inference, "_eliminate", _no_elimination)
    missing = atom_node(GroundAtom("Loc", ("A",)), SituationId(9))
    with pytest.raises(PlanEvalError, match="not in the net"):
        exact_query(net, Query(targets=[(missing, "L1")]))


@pytest.mark.parametrize("name, reader", [
    ("topological_nodes", lambda net, _target: net.topological_nodes()),
    ("exact_query", lambda net, target: exact_query(net, Query(targets=[target]))),
    ("mc_query", lambda net, target: mc_query(net, Query(targets=[target], mode="mc", samples=10))),
    ("export_graph", lambda net, _target: export_graph(net)),
], ids=["topological_nodes", "exact_query", "mc_query", "export_graph"])
def test_a_reader_of_the_net_refuses_one_not_finalized(name, reader):
    net = PENet()
    nid = atom_node(GroundAtom("Loc", ("A",)), SituationId(0))
    net.ensure_node(FragmentNode(nid, "primitive", ["L1"]))
    with pytest.raises(PlanEvalError) as caught:
        reader(net, (nid, "L1"))
    assert str(caught.value) == f"{name} requires a finalized net"


def test_compare_linearizations_negative_seeds_is_a_usage_error(files, capsys):
    kb_path, plan_path = files(MOVE_KB, TWO_STEP_PLAN)
    with pytest.raises(SystemExit) as exc:
        run_cli(["compare-linearizations", kb_path, plan_path, "--seeds", "-2"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "argument --seeds: must be at least 0, not -2" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command, flag, name", [("build", "--out", "net.txt"), ("export", "--dot-out", "net.dot")])
def test_output_file_in_a_missing_directory_exit_1(files, capsys, tmp_path, command, flag, name):
    kb_path, plan_path = files(MOVE_KB, TWO_STEP_PLAN)
    target = str(tmp_path / "missing" / name)
    code, out, err = run(capsys, [command, kb_path, plan_path, flag, target])
    assert (code, out) == (1, "")
    assert err == f"{target}:0:0: io: No such file or directory\n"


def test_find_reads_atom_text_like_the_query_specs():
    kb, plan = load(MOVE_KB, TWO_STEP_PLAN)
    net = build_pe_net(plan, kb)
    assert net.find(" ( Loc  A ) ", "S1") == net.find(GroundAtom("Loc", ("A",)), "S1")
    with pytest.raises(PlanEvalError, match="'Loc A' is not an atom like"):
        net.find("Loc A", "S1")
