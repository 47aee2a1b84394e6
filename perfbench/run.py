"""planeval benchmark: seeded workloads, end-to-end metrics, checked answers.

    python3 perfbench/run.py --workload shuttle --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
One process, one caller, closed loop: each pass parses every instance's
plan, builds its net and asks its queries, then the next pass starts.  The
run warms up with one pass, measures passes for ``--seconds`` and reports
medians per pass, in seconds at a reference machine speed (see ``Meter``),
then checks the answers against references that do not use the
construction pipeline.  With ``--trace 1`` half the time is measured
untraced and half with spans around every public layer function, and the
per-layer metrics are printed instead of the end-to-end ones.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# Numeric thread pools are pinned before numpy is imported: the benchmark is
# one caller, and on a two-core machine a pool only adds noise.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import math
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")

SETUP_REPEATS = 7
MC_SIGMAS = 5.0  # exact and MC must agree within this many standard errors
EXACT_TOL = 1e-9  # exact answers against closed forms and the oracle

END_TO_END_UNITS = {
    "setup_s": "s", "eval_s": "s", "build_s": "s", "exact_s": "s", "mc_s": "s",
    "peak_rss_mb": "MB", "net_cells": "count",
}

# Fresh interpreter: import planeval, then parse and validate each KB.
SETUP_CHILD = r"""
import sys, time
texts = sys.stdin.read().split("\0")
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import planeval
for text in texts:
    kb, diags = planeval.parse_kb(planeval.SourceDocument(text, "kb"))
    if diags or planeval.validate_kb(kb):
        sys.exit(3)
print(time.perf_counter() - start)
"""


class Meter:
    """Times operations in seconds at a reference machine speed.

    On a shared machine the speed of every program swings together, by
    20-60 % within a second on the two-core Xeon VM this was tuned on.  So
    while a meter is entered, a timer signal every ``TICK_S`` seconds runs a
    fixed pure-Python calibration block of about 1.3 ms, independent of
    planeval, in the benchmark's own thread.  Each tick's interval counts
    ``REFERENCE_S`` over the block's time as many reference seconds, so a
    slow or fast spell of the machine cancels out even inside one long
    operation.  The block allocates no object the garbage collector tracks
    and runs with the collector off, so the program's heap cannot change its
    length and every collection is charged to the operation that caused it.
    Raw times leave out the time spent in the blocks.
    """

    REFERENCE_S = 0.0013  # one calibration block at the reference speed
    TICK_S = 0.025
    # the block's fixed data: shuffled ints, built once, never reallocated
    _KEYS = random.Random(0).sample(range(1 << 20), 1261)

    def __init__(self):
        self.blocks = []  # every calibration block's raw seconds
        self.raw = {}  # kind -> unscaled seconds since the last take
        self.scaled = {}  # kind -> reference seconds since the last take
        self._table = dict.fromkeys(self._KEYS, 0)
        self._buf = list(self._KEYS)
        self._reference = 0.0  # reference seconds up to the last tick
        self._spent = 0.0  # raw seconds spent in ticks
        self._speed = self.REFERENCE_S / self._block()  # reference seconds per raw second
        self._last = time.perf_counter()
        self._previous_handler = None

    def __enter__(self):
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def _block(self) -> float:
        keys, table, buf = self._KEYS, self._table, self._buf
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        out = 0
        for i in range(2700):
            key = keys[i % 1261]
            table[key] = (table[key] + i) & 0xFFFF
            if i % 1000 == 0:
                buf[:] = keys  # same contents, same list: the sort does the same work every time
                buf.sort()
                out += buf[i % 1261]
        elapsed = time.perf_counter() - start
        if enabled:
            gc.enable()
        self.blocks.append(elapsed)
        return elapsed

    def _tick(self, _signum, _frame):
        start = time.perf_counter()
        speed = self.REFERENCE_S / self._block()
        # the interval since the last tick ran at about the mean of the speeds at its two ends
        self._reference += (start - self._last) * (self._speed + speed) / 2
        self._speed = speed
        self._last = time.perf_counter()
        self._spent += self._last - start

    def _now(self) -> tuple:
        """(reference seconds, raw seconds outside ticks) since the meter was made."""
        while True:  # read again if a tick lands between the reads
            ticks = len(self.blocks)
            now = time.perf_counter()
            out = self._reference + (now - self._last) * self._speed, now - self._spent
            if ticks == len(self.blocks):
                return out

    def time(self, kind: str, fn, share: float = 1.0):
        """Run ``fn`` and add ``share`` of its time to ``kind``."""
        reference, raw = self._now()
        result = fn()
        reference_end, raw_end = self._now()
        self.scaled[kind] = self.scaled.get(kind, 0.0) + (reference_end - reference) * share
        self.raw[kind] = self.raw.get(kind, 0.0) + (raw_end - raw) * share
        return result

    def speed(self) -> float:
        """Reference seconds per raw second now, from a median of nine blocks."""
        return self.REFERENCE_S / statistics.median(self._block() for _ in range(9))

    def take(self) -> tuple:
        """Return and reset the (scaled, raw) totals per kind."""
        out = (self.scaled, self.raw)
        self.scaled, self.raw = {}, {}
        return out


class Tally:
    """Operations attempted and failed; a failure is an exception or a wrong answer."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unsupported = 0

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED {what}", file=sys.stderr)

    def error(self, what: str):
        self.attempted += 1
        self.failed += 1
        print(f"perfbench: ERROR {what}\n{traceback.format_exc()}", file=sys.stderr)


def load_program():
    if not os.path.isfile(os.path.join(SRC, "planeval", "__init__.py")):
        sys.exit(f"perfbench: no planeval sources under {SRC}")
    if not os.path.isfile(os.path.join(TESTS, "trajectory_oracle.py")):
        sys.exit(f"perfbench: no trajectory oracle under {TESTS}")
    sys.path[:0] = [SRC, TESTS, HERE]
    import planeval

    if os.path.dirname(os.path.dirname(os.path.abspath(planeval.__file__))) != SRC:
        sys.exit(f"perfbench: imported planeval from {planeval.__file__}, not from {SRC}")
    return planeval


def measure_setup(kb_texts: list) -> float:
    """Median set-up time of fresh interpreters, scaled by the speed around each."""
    meter, times = Meter(), []
    for _ in range(SETUP_REPEATS):
        before = meter.speed()
        out = subprocess.run([sys.executable, "-c", SETUP_CHILD, SRC], input="\0".join(kb_texts),
                             capture_output=True, text=True, timeout=120, env=dict(os.environ))
        if out.returncode != 0:
            sys.exit(f"perfbench: set-up child failed ({out.returncode}): {out.stderr.strip()}")
        times.append(float(out.stdout) * (before + meter.speed()) / 2)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# one pass: plan text -> net -> every answer
# ---------------------------------------------------------------------------


def goal_atoms(plan) -> list:
    return [atom for atom, _state in plan.goals]


def ask(pe, net, plan, inst, meter: Meter) -> dict:
    """Run the instance's query batch; returns {key: (probability, standard error)}."""
    answers = {}

    def timed(key, kind, fn):
        result = meter.time(kind, fn)
        answers[key] = (result.probability, result.standard_error)

    samples = inst.mc_samples
    timed(("lead", "exact"), "exact", lambda: pe.leads_to_success(net, plan))
    timed(("plan", "exact"), "exact", lambda: pe.plan_success(net, plan))
    timed(("lead", "mc"), "mc", lambda: pe.leads_to_success(net, plan, mode="mc", samples=samples, seed=1))
    timed(("plan", "mc"), "mc", lambda: pe.plan_success(net, plan, mode="mc", samples=samples, seed=2))
    if inst.queries == "goals":
        return answers
    order = net.situation_order
    mid, final = order[len(order) // 2], order[-1]
    batch = []
    for sit in order if inst.queries == "batch" else (mid, final):
        for atom in goal_atoms(plan):
            nid = net.find(atom, sit)
            for state in net.nodes[nid].states:
                batch.append((("marginal", str(atom), str(sit), state), [(nid, state)], {}))
    if inst.queries == "batch":
        goals = [(net.find(atom, final), state) for atom, state in plan.goals]
        batch.append((("evidence", "(Side T0)=dirty", str(mid)), goals, {net.find("(Side T0)", mid): "dirty"}))
        batch.append((("evidence", "(Risk)=high", str(mid)), goals, {net.find("(Risk)", mid): "high"}))
    for i, (key, targets, evidence) in enumerate(batch):
        timed(key + ("exact",), "exact", lambda: pe.exact_query(net, pe.Query(targets=targets, evidence=evidence)))
        query = pe.Query(targets=targets, evidence=evidence, mode="mc", samples=samples, seed=10 + i)
        timed(key + ("mc",), "mc", lambda: pe.mc_query(net, query))
    return answers


def run_pass(pe, instances, kbs, tally: Tally, meter: Meter, expected=None, tracer=None, pass_no=0):
    """One closed-loop pass; returns (plans, nets, answers) per instance.

    The meter accumulates parse, build, exact and mc time; their sum is the
    pass's eval time.
    """
    plans, nets, answers = [], [], []
    for idx, (inst, kb) in enumerate(zip(instances, kbs)):
        if tracer is not None:
            tracer.instance = f"{pass_no}:{inst.name}"
        try:
            doc = pe.SourceDocument(inst.plan_text, f"{inst.name}.plan")
            plan, diags = meter.time("parse", lambda: pe.parse_plan(doc, kb))
            if diags:
                raise ValueError("; ".join(d.message for d in diags))
            # the traced run builds once, so per-layer counts are per build
            builds = 1 if tracer is not None else inst.builds
            for _ in range(builds):
                net = meter.time("build", lambda: pe.build_pe_net(plan, kb, pe.BuildOptions(clock_enabled=inst.clock)),
                                 share=1.0 / builds)
            tally.attempted += 1
            got = ask(pe, net, plan, inst, meter)
        except Exception:  # noqa: BLE001 - every failed operation is counted, the run goes on
            tally.error(f"{inst.name}: build or query")
            plans.append(None), nets.append(None), answers.append({})
            continue
        tally.attempted += len(got)
        if expected is not None:
            diff = sorted(k for k in got if got[k] != expected[idx].get(k))
            tally.check(not diff, f"{inst.name}: answers differ from the first pass at {diff[:3]}")
        plans.append(plan), nets.append(net), answers.append(got)
    return plans, nets, answers


def measure(pe, instances, kbs, tally, expected, budget, tracer=None):
    """Passes while the longest pass so far still fits in ``budget`` seconds.

    Returns the reference seconds and the unscaled seconds of each kind of
    operation per pass, with ``eval`` their sum, and every calibration block.
    """
    passes, raw_passes = [], []
    with Meter() as meter:
        start, longest = time.perf_counter(), 0.0
        while not passes or time.perf_counter() - start + longest <= budget:
            began = time.perf_counter()
            gc.collect()  # every pass starts from a collected heap, not from the previous pass's garbage
            measure_pass(pe, instances, kbs, tally, expected, tracer, meter, passes, raw_passes)
            longest = max(longest, time.perf_counter() - began)
    return passes, raw_passes, meter.blocks


def measure_pass(pe, instances, kbs, tally, expected, tracer, meter, passes, raw_passes):
    """One measured pass; appends its reference and raw seconds per kind."""
    if tracer is not None:
        tracer.instance = f"{len(passes)}:kb"
        for inst in instances:  # so the traced run also sees dsl.parse_kb and model.validate_kb
            kb, _diags = pe.parse_kb(pe.SourceDocument(inst.kb_text, f"{inst.name}.kb"))
            pe.validate_kb(kb)
    _plans, nets, _answers = run_pass(pe, instances, kbs, tally, meter, expected, tracer, len(passes))
    scaled, raw = meter.take()
    if tracer is not None:
        for inst, net in zip(instances, nets):
            if net is not None:
                tracer.instance = f"{len(passes)}:{inst.name}"
                pe.canonical_dump(net)
    for totals, out in ((scaled, passes), (raw, raw_passes)):
        out.append({kind: totals.get(kind, 0.0) for kind in ("build", "exact", "mc")})
        out[-1]["eval"] = sum(totals.values())


# ---------------------------------------------------------------------------
# answer checks
# ---------------------------------------------------------------------------


def mc_agrees(exact: float, mc: tuple, samples: int) -> bool:
    estimate, se = mc
    sd = max(se or 0.0, math.sqrt(max(exact * (1.0 - exact), 0.0) / samples))
    return abs(estimate - exact) <= MC_SIGMAS * sd + 1e-12


def check_instance(pe, oracle, inst, kb, plan, net, answers, tally: Tally):
    import references

    name = inst.name
    for key, value in answers.items():
        if key[-1] == "mc":
            exact = answers[key[:-1] + ("exact",)][0]
            tally.check(mc_agrees(exact, value, inst.mc_samples),
                        f"{name}: {key[:-1]} exact {exact:.6f} vs MC {value[0]:.6f} ± {value[1]:.6f}")
    marginals = {}
    for key, (p, _se) in answers.items():
        if key[0] == "marginal" and key[-1] == "exact":
            marginals.setdefault(key[1:3], []).append(p)
    for (atom, sit), ps in marginals.items():
        tally.check(abs(sum(ps) - 1.0) <= EXACT_TOL, f"{name}: marginal of {atom}@{sit} sums to {sum(ps)!r}")

    if inst.chain is not None:
        want = references.shuttle_success(inst.chain)
        for key in (("lead", "exact"), ("plan", "exact")):
            got = answers[key][0]
            tally.check(abs(got - want) <= EXACT_TOL, f"{name}: {key[0]} {got!r} vs closed form {want!r}")
    if inst.durations:
        final = pe.clock_node(net.final_situation())
        want = references.clock_distribution(inst.durations)
        for value in net.nodes[final].states:
            got = pe.exact_query(net, pe.Query(targets=[(final, value)])).probability
            tally.check(abs(got - want.get(value, 0.0)) <= EXACT_TOL,
                        f"{name}: P(final clock = {value}) {got!r} vs convolution {want.get(value, 0.0)!r}")
    flat = pe.flatten_hierarchy(plan)
    order = pe.linearize(flat)
    if inst.oracle == "timed":
        marginals, _stats = oracle.timed_final_marginals(kb, flat, order)
        final = net.final_situation()
        for atom, dist in marginals.items():
            nid = net.find(atom, final)
            for state in net.nodes[nid].states:
                got = pe.exact_query(net, pe.Query(targets=[(nid, state)])).probability
                tally.check(abs(got - dist.get(state, 0.0)) <= EXACT_TOL,
                            f"{name}: P({atom}={state}) {got!r} vs timed oracle {dist.get(state, 0.0)!r}")
    if inst.oracle == "untimed":
        check_branchy(pe, oracle, inst, kb, plan, net, flat, order, answers, tally)

    again = pe.build_pe_net(plan, kb, pe.BuildOptions(clock_enabled=inst.clock))
    tally.check(pe.canonical_dump(again) == pe.canonical_dump(net), f"{name}: two builds dump different bytes")


def check_branchy(pe, oracle, inst, kb, plan, net, flat, order, answers, tally):
    import references

    truth = references.UntimedOracle(oracle, kb, flat, order)
    pos = {str(sit): i for i, sit in enumerate(net.situation_order)}
    final = len(order) - 1
    goals = [(atom, final, state) for atom, state in plan.goals]
    selected = {group.boundary: group.selected for group in flat.contingencies if group.origin == "expansion"}
    wants = {("lead",): truth.probability(goals), ("plan",): truth.probability(goals, selections=selected)}
    for key in answers:
        if key[-1] != "exact":
            continue
        if key[0] == "marginal":
            _kind, atom, sit, state, _mode = key
            atom = next(a for a in goal_atoms(plan) if str(a) == atom)
            wants[key[:-1]] = truth.probability([(atom, pos[sit], state)])
        elif key[0] == "evidence":
            _kind, spec, sit, _mode = key
            text, state = spec.split("=")
            atom = pe.GroundAtom(*_atom_parts(text))
            wants[key[:-1]] = truth.probability(goals, evidence=[(atom, pos[sit], state)])
    for key, want in wants.items():
        got = answers[key + ("exact",)][0]
        tally.check(abs(got - want) <= EXACT_TOL, f"{inst.name}: {key} {got!r} vs trajectory oracle {want!r}")


def _atom_parts(text: str) -> tuple:
    name, *args = text.strip("()").split()
    return name, tuple(args)


def check_unsupported(pe, inst, kb, tally: Tally):
    """A known-unsupported instance must still raise exactly the known error."""
    plan, _diags = pe.parse_plan(pe.SourceDocument(inst.plan_text, f"{inst.name}.plan"), kb)
    try:
        net = pe.build_pe_net(plan, kb, pe.BuildOptions(clock_enabled=inst.clock))
    except pe.BuildError as err:
        tally.check("unsupported" in str(err), f"{inst.name}: unexpected build error {err}")
        tally.unsupported += 1
        return
    # Supported now: its answers must hold up like any other instance's.
    answers = ask(pe, net, plan, inst, Meter())
    tally.attempted += len(answers)
    tally.check(mc_agrees(answers[("lead", "exact")][0], answers[("lead", "mc")], inst.mc_samples),
                f"{inst.name}: leads_to_success exact vs MC")


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------


def run_cli_once(pe, inst, answers, tally):
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        kb_path, plan_path = os.path.join(tmp, "model.kb"), os.path.join(tmp, "mission.plan")
        with open(kb_path, "w") as handle:
            handle.write(inst.kb_text)
        with open(plan_path, "w") as handle:
            handle.write(inst.plan_text)
        argv = ["eval", kb_path, plan_path] + (["--clock"] if inst.clock else [])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = pe.run_cli(argv)
    want = f"leads_to_success = {answers[('lead', 'exact')][0]:.6f}"
    tally.check(code == 0 and want in out.getvalue().splitlines(),
                f"{inst.name}: planeval eval exited {code} with {out.getvalue()!r}, expected {want!r}")


def per_layer(pe, instances, kbs, plans, nets, answers, tally, seconds, untraced_eval):
    """Per-layer metrics from a traced run; ``untraced_eval`` is the scaled untraced eval_s."""
    import spans

    tracer = spans.Tracer()
    with tracer:
        traced_passes, _raw, blocks = measure(pe, instances, kbs, tally, answers, seconds, tracer)
        tracer.instance = "cli"
        run_cli_once(pe, instances[0], answers[0], tally)
        wrapped = tracer.originals()
    tally.check(all(getattr(owner, attr) is original for owner, attr, original in wrapped),
                "a traced attribute was not restored")
    if tracer.absent:
        print(f"perfbench: absent, reported as zero: {' '.join(tracer.absent)}", file=sys.stderr)

    def in_pass(span):
        return span[4].split(":")[0].isdigit()

    summaries = [spans.summarize(tracer.spans, lambda span, n=n: span[4].split(":")[0] == str(n))
                 for n in range(len(traced_passes))]
    every = spans.summarize(tracer.spans, in_pass)
    cli = spans.summarize(tracer.spans, lambda span: span[4] == "cli")

    def med(name, field, extra=False):
        values = [(s.get(name, {}).get("extra", {}) if extra else s.get(name, {})).get(field, 0)
                  for s in summaries]
        return statistics.median(values)

    m = {}
    for name in ("dsl.parse_kb", "dsl.parse_plan", "model.validate_kb", "plan.flatten_hierarchy",
                 "plan.linearize", "build.make_schedule", "build.Schedule.analyse", "build.merge_contingent",
                 "build.attach_during", "build.add_clock", "net.PENet.add_parent", "net.finalize",
                 "net.canonical_dump", "inference.exact_query", "inference.mc_query",
                 "net.PENet.topological_nodes"):
        m[f"{name}.s"] = (med(name, "s"), "s")
    # MC is its only caller in a pass, so it is reported under inference
    m["inference.PENet.topological_nodes.s"] = m.pop("net.PENet.topological_nodes.s")
    for name in ("build.complete_with_persistence", "build.build_pe_net", "build.split_situations",
                 "net.paste_onto", "net.paste_into"):
        m[f"{name}.self_s"] = (med(name, "self_s"), "s")
    for name in ("build.Schedule.analyse", "net.paste_onto", "net.paste_into", "net.PENet.add_parent",
                 "inference.exact_query", "inference.mc_query"):
        m[f"{name}.calls"] = (med(name, "calls"), "count")
    for name in ("net.paste_onto", "net.paste_into"):
        m[f"{name}.rows"] = (med(name, "rows", extra=True), "count")
    exact = every.get("inference.exact_query", {"durations": [0.0], "extra": {}})
    m["inference.exact_query.p50_ms"] = (statistics.median(exact["durations"]) * 1000.0, "ms")
    m["inference.exact.width_max"] = (exact["extra"].get("width", 0), "count")
    mc = every.get("inference.mc_query", {"s": 0.0, "extra": {}})
    m["inference.mc.samples_per_s"] = (mc["extra"].get("samples", 0) / mc["s"] if mc["s"] else 0.0, "1/s")
    m["cli.run_cli.s"] = (cli.get("cli.run_cli", {}).get("s", 0.0), "s")

    flats = [pe.flatten_hierarchy(plan) for plan in plans]
    live = [net for net in nets if net is not None]
    m["dsl.input_bytes"] = (sum(len(i.kb_text) + len(i.plan_text) for i in instances), "bytes")
    m["plan.steps"] = (sum(len(f.steps) for f in flats), "count")
    m["plan.boundaries"] = (sum(len(f.boundaries()) for f in flats), "count")
    m["build.splits"] = (sum(1 for net in live for sit in net.situation_order if sit.sub == "a"), "count")
    nodes = [node for net in live for node in net.nodes.values()]
    m["net.nodes"] = (len(nodes), "count")
    m["net.situations"] = (sum(len(net.situation_order) for net in live), "count")
    m["net.cpt_rows"] = (sum(len(node.cpt) for node in nodes), "count")
    m["net.max_parents"] = (max((len(node.parents) for node in nodes), default=0), "count")
    m["net.max_states"] = (max((len(node.states) for node in nodes), default=0), "count")
    traced_eval = statistics.median(p["eval"] for p in traced_passes)
    m["trace.overhead_frac"] = (traced_eval / untraced_eval - 1.0, "frac")
    # Spans are raw seconds: scale them by the run's median calibration block.
    scale = Meter.REFERENCE_S / statistics.median(blocks)
    rescale = {"s": scale, "ms": scale, "1/s": 1.0 / scale}
    m = {key: (value * rescale.get(unit, 1), unit) for key, (value, unit) in m.items()}

    build_total = every.get("build.build_pe_net", {"s": 0.0})["s"]
    shares = spans.self_time_by_module(tracer.spans, "build.build_pe_net", keep=in_pass)
    print("perfbench: build self-time share by module: " + " ".join(
        f"{mod}={t / build_total:.3f}" for mod, t in sorted(shares.items(), key=lambda kv: -kv[1])),
        file=sys.stderr)
    top = max(((n, e["self_s"]) for n, e in every.items()), key=lambda kv: kv[1])
    print(f"perfbench: largest self time: {top[0]} {top[1]:.3f} s", file=sys.stderr)
    return m


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pe = load_program()
    import trajectory_oracle as oracle
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    generated = workloads.generate(args.workload, args.seed)
    instances = [i for i in generated if i.role == "timed"]
    tally = Tally()
    phase = time.perf_counter()

    def lap(what):
        nonlocal phase
        now = time.perf_counter()
        print(f"perfbench: {what} took {now - phase:.2f} s", file=sys.stderr)
        phase = now

    kbs = {}
    for inst in generated:
        kb, diags = pe.parse_kb(pe.SourceDocument(inst.kb_text, f"{inst.name}.kb"))
        problems = diags + pe.validate_kb(kb)
        if problems:
            sys.exit(f"perfbench: generated KB {inst.name} is invalid: {problems[0].message}")
        kbs[inst.name] = kb
    setup_s = measure_setup(sorted({i.kb_text for i in generated}))
    timed_kbs = [kbs[i.name] for i in instances]
    lap("set-up")
    plans, nets, answers = run_pass(pe, instances, timed_kbs, tally, Meter())
    lap("warm-up pass")
    budget = args.seconds / 2 if args.trace else args.seconds
    passes, raw_passes, blocks = measure(pe, instances, timed_kbs, tally, answers, budget)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lap(f"{len(passes)} measured passes")
    print("perfbench: passes " + json.dumps({key: [p[key] for p in passes] for key in passes[0]})
          + " unscaled " + json.dumps({key: [p[key] for p in raw_passes] for key in passes[0]}), file=sys.stderr)

    measured = {inst.name: (plan, net, got) for inst, plan, net, got in zip(instances, plans, nets, answers)}
    for inst in generated:
        kb = kbs[inst.name]
        try:
            if inst.role == "unsupported":
                check_unsupported(pe, inst, kb, tally)
                continue
            if inst.role == "reference":
                (plan,), (net,), (got,) = run_pass(pe, [inst], [kb], tally, Meter())
            else:
                plan, net, got = measured[inst.name]
            if net is not None:
                check_instance(pe, oracle, inst, kb, plan, net, got, tally)
        except Exception:  # noqa: BLE001 - a crashing check is a failed operation
            tally.error(f"{inst.name}: answer check")
    lap("answer checks")

    median = {key: statistics.median(p[key] for p in passes) for key in passes[0]}
    raw_eval = statistics.median(p["eval"] for p in raw_passes)
    live = [net for net in nets if net is not None]
    end_to_end = {
        "setup_s": setup_s,
        "eval_s": median["eval"],
        "build_s": median["build"],
        "exact_s": median["exact"],
        "mc_s": median["mc"],
        "peak_rss_mb": peak_rss_mb,
        "net_cells": sum(len(node.cpt) * len(node.states) for net in live for node in net.nodes.values()),
    }
    for key, value in end_to_end.items():
        print(f"{args.workload} {key} = {value:.6g} {END_TO_END_UNITS[key]}")
    print(f"{args.workload} unscaled eval_s = {raw_eval:.6g} s; calibration block median "
          f"{statistics.median(blocks):.5f} s, reference {Meter.REFERENCE_S} s")
    print(f"{args.workload} passes = {len(passes)}  ops_failed_frac = {tally.failed / max(tally.attempted, 1):.6g}"
          f"  known_unsupported = {tally.unsupported}")
    metrics = {key: {"value": value, "unit": END_TO_END_UNITS[key]} for key, value in end_to_end.items()}

    if args.trace:
        layer = per_layer(pe, instances, timed_kbs, plans, nets, answers, tally, budget, median["eval"])
        lap("traced run")
        layer["bench.unsupported_ops"] = (tally.unsupported, "count")
        layer["bench.ops_failed_frac"] = (tally.failed / max(tally.attempted, 1), "frac")
        # the untraced half unscaled, so a drift between scaled and raw times shows
        layer["bench.eval_raw_s"] = (raw_eval, "s")
        layer["bench.calibration_block_s"] = (statistics.median(blocks), "s")
        for key, (value, unit) in layer.items():
            print(f"{args.workload} {key} = {value:.6g} {unit}")
        metrics = {key: {"value": value, "unit": unit} for key, (value, unit) in layer.items()}

    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
