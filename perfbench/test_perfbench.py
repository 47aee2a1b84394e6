"""Self-tests of the benchmark's own code.

    python3 -m pytest perfbench -q

They check the benchmark, not the program: seeded generation, the closed
form it judges answers by, and the tracer leaving the program as it found it.
"""

import gc
import os
import random
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]

import planeval as pe  # noqa: E402
import pytest  # noqa: E402
import references  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def load(inst):
    kb, diags = pe.parse_kb(pe.SourceDocument(inst.kb_text, "kb"))
    assert not diags and not pe.validate_kb(kb)
    plan, diags = pe.parse_plan(pe.SourceDocument(inst.plan_text, "plan"), kb)
    assert not diags
    return kb, plan


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_reproduces_instance_text(workload):
    first = workloads.generate(workload, 7)
    again = workloads.generate(workload, 7)
    other = workloads.generate(workload, 8)
    assert [(i.kb_text, i.plan_text) for i in first] == [(i.kb_text, i.plan_text) for i in again]
    assert [i.kb_text for i in first] != [i.kb_text for i in other]


@pytest.mark.parametrize("clock", [False, True])
def test_closed_form_equals_exact_query_on_tiny_shuttle(clock):
    inst = workloads.shuttle(random.Random(3), 2, 3, clock=clock)
    kb, plan = load(inst)
    net = pe.build_pe_net(plan, kb, pe.BuildOptions(clock_enabled=clock))
    goals = [(net.find(atom, net.final_situation()), state) for atom, state in plan.goals]
    exact = pe.exact_query(net, pe.Query(targets=goals)).probability
    assert abs(exact - references.shuttle_success(inst.chain)) <= 1e-12
    if clock:
        final = pe.clock_node(net.final_situation())
        want = references.clock_distribution(inst.durations)
        for value in net.nodes[final].states:
            got = pe.exact_query(net, pe.Query(targets=[(final, value)])).probability
            assert abs(got - want[value]) <= 1e-12


def _bindings():
    """Every attribute of every loaded planeval module and of the traced classes."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "planeval" or name.startswith("planeval.")):
            out.update({(name, key): value for key, value in vars(module).items()})
    for cls in (pe.PENet, pe.Schedule):
        out.update({(cls.__qualname__, key): value for key, value in vars(cls).items()})
    return out


def test_traced_run_restores_every_wrapped_attribute():
    inst = workloads.generate("branchy-queries", 1)[0]
    kb, _plan = load(inst)
    before = _bindings()
    tracer = spans.Tracer()
    with tracer:
        assert _bindings() != before
        plan, _diags = pe.parse_plan(pe.SourceDocument(inst.plan_text, "plan"), kb)
        net = pe.build_pe_net(plan, kb)
        pe.leads_to_success(net, plan)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert not tracer.absent
    names = {span[0] for span in tracer.spans}
    # build.py imports paste_onto and validate_kb by name: the spans must still see them
    assert {"net.paste_onto", "model.validate_kb", "build.Schedule.analyse", "inference.exact_query"} <= names
    inside = spans.self_time_by_module(tracer.spans, "build.build_pe_net")
    assert inside["net"] > 0 and inside["build"] > 0


def test_missing_traced_name_is_reported_absent(monkeypatch):
    monkeypatch.setattr(spans, "TRACED", spans.TRACED + (("build", "no_such_stage"),))
    before = _bindings()
    tracer = spans.Tracer()
    with tracer:
        pass
    assert tracer.absent == ["build.no_such_stage"]
    assert all(_bindings()[key] is value for key, value in before.items())


def test_mc_agreement_uses_the_binomial_floor():
    assert run.mc_agrees(0.5, (0.5, 0.0), 1000)
    assert run.mc_agrees(0.01, (0.0, 0.0), 1000)  # no hits in 1000 draws is plausible at p = 0.01
    assert not run.mc_agrees(0.5, (0.6, 0.005), 10000)


def test_calibration_block_runs_no_collection():
    meter = run.Meter()
    starts = []

    def count(phase, _info):
        if phase == "start":
            starts.append(phase)

    # gen 0 past its threshold: with the collector on, the next tracked allocation collects
    gc.disable()
    junk = [[] for _ in range(2 * gc.get_threshold()[0])]
    gc.enable()
    gc.callbacks.append(count)
    try:
        meter._block()
    finally:
        gc.callbacks.remove(count)
    assert not starts and gc.isenabled() and junk


def test_meter_ticks_while_entered_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with run.Meter() as meter:
        meter.time("sleep", lambda: time.sleep(0.2))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.blocks) > 2  # the first block is the one the meter starts from
    scaled, raw = meter.take()
    assert scaled["sleep"] > 0 and 0.1 < raw["sleep"] < 0.3  # raw time leaves the ticks out
