"""Command-line surface: build, eval, export, compare-linearizations.

Exit codes: 0 success, 1 diagnostics (parse/validation/build), 2 inference
errors and bad arguments. All diagnostics go to stderr as
``file:line:col: code: message``; reports go to stdout as
``key = value [± stderr]`` lines. A Monte Carlo line whose effective sample
size is below ``MIN_EFFECTIVE_SAMPLES`` adds a ``warning:`` line on stderr.
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
from .net import atom_node, canonical_dump, parse_situation

INFERENCE_ERRORS = (InfeasibleEvidence, WidthExceeded, ZeroWeight, TooLarge)

# A Monte Carlo ± is a normal approximation, which needs about 30 effective samples.
MIN_EFFECTIVE_SAMPLES = 30


def _add_common(sub):
    sub.add_argument("kb", help="knowledge-base file")
    sub.add_argument("plan", help="plan file")
    sub.add_argument("--clock", action="store_true", help="enable clock-time construction")
    sub.add_argument("--clock-cap", type=_at_least(2), default=64)
    sub.add_argument("--during-semantics", choices=["gate-effect-only", "nullify-action"],
                     default="gate-effect-only")


def _at_least(least: int):
    """An argparse type: a whole number of at least ``least``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, not {value}")
        return value

    return parse


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
    mode = ev.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", help="force exact inference (default)")
    mode.add_argument("--mc", type=_at_least(1), metavar="N", help="Monte Carlo with N >= 1 samples")
    ev.add_argument("--seed", type=_at_least(0), default=0, help="Monte Carlo seed, at least 0")
    ev.add_argument("--evidence", action="append", default=[], metavar="(Pred args)=s@Si")
    ev.add_argument("--marginal", action="append", default=[], metavar="(Pred args)@Si")

    ex = subs.add_parser("export", help="emit a graph description of the net")
    _add_common(ex)
    ex.add_argument("--dot-out", required=True)

    cmp_lin = subs.add_parser("compare-linearizations",
                              help="goal probability under alternative linearization tie-breaks")
    _add_common(cmp_lin)
    cmp_lin.add_argument("--seeds", type=_at_least(0), default=3)
    return parser


def _read(path: str):
    """The file as a SourceDocument, or None after reporting why it cannot be read."""
    try:
        with open(path, encoding="utf-8") as handle:
            return SourceDocument(handle.read(), path)
    except OSError as err:
        reason = err.strerror
    except UnicodeDecodeError as err:
        reason = f"not UTF-8: {err.reason} at byte {err.start}"
    print(f"{path}:0:0: io: {reason}", file=sys.stderr)
    return None


def _write(path: str, text: str) -> bool:
    """Write ``text`` to ``path``; False after reporting why it cannot be written."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        print(f"{path}:0:0: io: {err.strerror}", file=sys.stderr)
        return False
    return True


def _load(args):
    """Parse and validate both inputs; returns (kb, plan) or None after reporting."""
    kb_doc = _read(args.kb)
    if kb_doc is None:
        return None
    kb, diags = parse_kb(kb_doc)
    diags.extend(validate_kb(kb))
    for d in diags:
        print(d.render(args.kb), file=sys.stderr)
    plan_doc = _read(args.plan)
    if diags or plan_doc is None:
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
        tie_break=tie_break,
    )


def _build(args, kb, plan, tie_break=None):
    """The finalized net, or None after reporting why it cannot be built."""
    try:
        return build_pe_net(plan, kb, _options(args, tie_break))
    except (BuildError, PlanEvalError) as err:
        print(f"{args.plan}:0:0: build: {err}", file=sys.stderr)
        return None


def _report(key: str, result) -> None:
    if result.standard_error is not None:
        print(f"{key} = {result.probability:.6f} ± {result.standard_error:.6f}")
    else:
        print(f"{key} = {result.probability:.6f}")
    ess = result.effective_sample_size
    if ess is not None and ess < MIN_EFFECTIVE_SAMPLES:
        print(f"warning: {key}: effective sample size {ess:.1f} of {result.sample_count} samples is below "
              f"{MIN_EFFECTIVE_SAMPLES}; the ± is not to be trusted", file=sys.stderr)


def _cmd_build(args, _kb, _plan, net) -> int:
    if args.out and not _write(args.out, canonical_dump(net)):
        return 1
    print(f"nodes = {len(net.nodes)}")
    print(f"situations = {len(net.situation_order)}")
    return 0


def _cmd_eval(args, _kb, plan, net) -> int:
    mode = MC if args.mc else EXACT
    samples = args.mc or 10000
    try:  # every query is resolved before any report line is printed
        evidence = {}
        for spec in args.evidence:
            atom, state, sit = parse_evidence_spec(spec)
            net.find(atom, sit)  # the net names the node, or the spec is refused here
            # Keyed as named: an alias and its source stay two pins, which inference refuses if they disagree.
            evidence[atom_node(atom, parse_situation(sit))] = state
        marginals = []
        for spec in args.marginal:
            atom, sit = parse_marginal_spec(spec)
            net.find(atom, sit)  # as for evidence; then queried as named, since an alias has states of its own
            marginals.append(atom_node(atom, parse_situation(sit)))
    except PlanEvalError as err:
        print(f"{args.plan}:0:0: query: {err}", file=sys.stderr)
        return 1
    try:
        kwargs = dict(mode=mode, samples=samples, seed=args.seed, evidence=evidence)
        _report("leads_to_success", leads_to_success(net, plan, **kwargs))
        if not args.goal_only:
            _report("plan_success", plan_success(net, plan, **kwargs))
        for nid in marginals:
            for state in net.states_of(nid):
                result = _run(net, [(nid, state)], evidence, mode, samples, args.seed)
                _report(f"marginal {nid} {state}", result)
    except INFERENCE_ERRORS as err:
        print(f"inference: {err}", file=sys.stderr)
        return 2
    except PlanEvalError as err:
        print(f"{args.plan}:0:0: query: {err}", file=sys.stderr)
        return 1
    return 0


def _cmd_export(args, _kb, _plan, net) -> int:
    if not _write(args.dot_out, export_graph(net)):
        return 1
    print(f"dot = {args.dot_out}")
    return 0


def _cmd_compare(args, kb, plan, net) -> int:
    try:
        _report("linearization[default] leads_to_success", leads_to_success(net, plan))
        for seed in range(args.seeds):
            def key(boundary, seed=seed):
                # Rank derived from (seed, boundary) alone: deterministic and
                # independent of the order Kahn's algorithm asks for keys.
                return (random.Random(f"{seed}:{boundary}").random(), boundary)

            shuffled = _build(args, kb, plan, tie_break=key)
            if shuffled is None:
                # an unlucky ordering may be unbuildable (e.g. split cascade);
                # the comparison is an empirical aid, so report and move on
                print(f"linearization[{seed}] leads_to_success = n/a")
                continue
            _report(f"linearization[{seed}] leads_to_success", leads_to_success(shuffled, plan))
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
    loaded = _load(args)
    net = _build(args, *loaded) if loaded else None
    if net is None:
        return 1  # _load or _build has reported why
    return handlers[args.command](args, *loaded, net)


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
