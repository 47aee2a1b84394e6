"""Command-line surface: build, eval, export, compare-linearizations.

Exit codes: 0 success, 1 diagnostics (parse/validation/build), 2 inference
errors. All diagnostics go to stderr as ``file:line:col: code: message``;
reports go to stdout as ``key = value [± stderr]`` lines.
"""

from __future__ import annotations

import argparse
import random
import sys

from .build import BuildOptions, build_pe_net
from .dsl import SourceDocument, parse_evidence_spec, parse_kb, parse_marginal_spec, parse_plan
from .errors import (
    BuildError,
    InfeasibleEvidence,
    PlanEvalError,
    TooLarge,
    WidthExceeded,
    ZeroWeight,
)
from .export import export_graph
from .inference import EXACT, MC, _run, leads_to_success, plan_success
from .model import validate_kb
from .net import canonical_dump, parse_situation

INFERENCE_ERRORS = (InfeasibleEvidence, WidthExceeded, ZeroWeight, TooLarge)


def _add_common(sub):
    sub.add_argument("kb", help="knowledge-base file")
    sub.add_argument("plan", help="plan file")
    sub.add_argument("--clock", action="store_true", help="enable clock-time construction")
    sub.add_argument("--state-cap", type=int, default=32)
    sub.add_argument("--clock-cap", type=int, default=64)
    sub.add_argument("--during-semantics", choices=["gate-effect-only", "nullify-action"],
                     default="gate-effect-only")


def _make_parser():
    parser = argparse.ArgumentParser(prog="planeval",
                                     description="Compile plans into plan-evaluation belief networks and query them.")
    subs = parser.add_subparsers(dest="command", required=True)

    build = subs.add_parser("build", help="construct and finalize the net")
    _add_common(build)
    build.add_argument("--out", help="write a canonical net dump to this file")

    ev = subs.add_parser("eval", help="evaluate plan success probabilities")
    _add_common(ev)
    ev.add_argument("--goal-only", action="store_true", help="report leads_to_success only")
    ev.add_argument("--exact", action="store_true", help="force exact inference (default)")
    ev.add_argument("--mc", type=int, metavar="N", help="Monte Carlo with N samples")
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--evidence", action="append", default=[], metavar="(Pred args)=s@Si")
    ev.add_argument("--marginal", action="append", default=[], metavar="(Pred args)@Si")

    ex = subs.add_parser("export", help="emit a graph description of the net")
    _add_common(ex)
    ex.add_argument("--dot-out", required=True)

    cmp_lin = subs.add_parser("compare-linearizations",
                              help="goal probability under alternative linearization tie-breaks")
    _add_common(cmp_lin)
    cmp_lin.add_argument("--seeds", type=int, default=3)
    return parser


def _load(args):
    """Parse and validate both inputs; returns (kb, plan) or None after reporting."""
    ok = True
    with open(args.kb) as handle:
        kb_doc = SourceDocument(handle.read(), args.kb)
    kb, diags = parse_kb(kb_doc)
    diags.extend(validate_kb(kb))
    for d in diags:
        print(d.render(args.kb), file=sys.stderr)
    ok &= not diags
    with open(args.plan) as handle:
        plan_doc = SourceDocument(handle.read(), args.plan)
    if not ok:
        return None
    plan, plan_diags = parse_plan(plan_doc, kb)
    for d in plan_diags:
        print(d.render(args.plan), file=sys.stderr)
    if plan_diags:
        return None
    return kb, plan


def _options(args, tie_break=None) -> BuildOptions:
    return BuildOptions(
        during_failure_semantics=args.during_semantics,
        clock_enabled=args.clock,
        clock_cap=args.clock_cap,
        state_cap=args.state_cap,
        tie_break=tie_break,
    )


def _build(args, tie_break=None):
    loaded = _load(args)
    if loaded is None:
        return None
    kb, plan = loaded
    try:
        net = build_pe_net(plan, kb, _options(args, tie_break))
    except (BuildError, PlanEvalError) as err:
        print(f"{args.plan}:0:0: build: {err}", file=sys.stderr)
        return None
    return kb, plan, net


def _report(key: str, result) -> None:
    if result.standard_error is not None:
        print(f"{key} = {result.probability:.6f} ± {result.standard_error:.6f}")
    else:
        print(f"{key} = {result.probability:.6f}")


def _cmd_build(args) -> int:
    built = _build(args)
    if built is None:
        return 1
    _kb, _plan, net = built
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(canonical_dump(net))
    print(f"nodes = {len(net.nodes)}")
    print(f"situations = {len(net.situation_order)}")
    return 0


def _cmd_eval(args) -> int:
    built = _build(args)
    if built is None:
        return 1
    _kb, plan, net = built
    mode = MC if args.mc else EXACT
    samples = args.mc or 10000
    try:
        evidence = {}
        for spec in args.evidence:
            atom, state, sit = parse_evidence_spec(spec)
            evidence[net.find(atom, sit)] = state
        kwargs = dict(mode=mode, samples=samples, seed=args.seed, evidence=evidence)
        _report("leads_to_success", leads_to_success(net, plan, **kwargs))
        if not args.goal_only:
            _report("plan_success", plan_success(net, plan, **kwargs))
        for spec in args.marginal:
            atom, sit = parse_marginal_spec(spec)
            nid = net.find(atom, sit)
            for state in net.nodes[nid].states:
                result = _run(net, [(nid, state)], evidence, mode, samples, args.seed)
                _report(f"marginal {atom}@{parse_situation(sit)} {state}", result)
    except INFERENCE_ERRORS as err:
        print(f"inference: {err}", file=sys.stderr)
        return 2
    except (PlanEvalError, KeyError) as err:
        print(f"{args.plan}:0:0: query: {err}", file=sys.stderr)
        return 1
    return 0


def _cmd_export(args) -> int:
    built = _build(args)
    if built is None:
        return 1
    _kb, _plan, net = built
    text = export_graph(net)
    with open(args.dot_out, "w") as handle:
        handle.write(text)
    print(f"dot = {args.dot_out}")
    return 0


def _cmd_compare(args) -> int:
    built = _build(args)
    if built is None:
        return 1
    _kb, plan, net = built
    try:
        _report("linearization[default] leads_to_success", leads_to_success(net, plan))
        for seed in range(args.seeds):
            def key(boundary, seed=seed):
                # Rank derived from (seed, boundary) alone: deterministic and
                # independent of the order Kahn's algorithm asks for keys.
                return (random.Random(f"{seed}:{boundary}").random(), boundary)

            shuffled = _build(args, tie_break=key)
            if shuffled is None:
                # an unlucky ordering may be unbuildable (e.g. split cascade);
                # the comparison is an empirical aid, so report and move on
                print(f"linearization[{seed}] leads_to_success = n/a")
                continue
            _kb2, plan2, net2 = shuffled
            _report(f"linearization[{seed}] leads_to_success", leads_to_success(net2, plan2))
    except INFERENCE_ERRORS as err:
        print(f"inference: {err}", file=sys.stderr)
        return 2
    return 0


def run_cli(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    handlers = {
        "build": _cmd_build,
        "eval": _cmd_eval,
        "export": _cmd_export,
        "compare-linearizations": _cmd_compare,
    }
    return handlers[args.command](args)


def main() -> None:
    sys.exit(run_cli())
