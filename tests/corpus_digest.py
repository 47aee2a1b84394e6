"""One digest of what the build and the plan metrics give on a fixed corpus.

The corpus is ``generate(0..199)`` and ``generate_timed(0..199)`` under both
during-failure semantics, plus every instance of the three benchmark
workloads at seeds 1, 5 and 41. For each case the digest reads the
``canonical_dump``, ``net.labels``, both plan metrics exactly and by Monte
Carlo, and, where a build or a query fails, the typed error. A refactor that
means to keep every net and every answer must print the same digest before
and after it:

    PYTHONPATH=src python tests/corpus_digest.py

``--verbose`` also prints one digest per part of each case, as
``<case> <part> <digest>`` lines, and one per part of the whole corpus, as
``<part> <count> cases <digest>`` lines. The parts are ``dump`` (the dump
and the labels), ``exact`` and ``mc`` (each plan metric's answer, or its
failure, by that engine) and ``errors`` (the build error, and the type of
each error a metric raised). So two runs can be diffed to find the first
case that moved and which part of it moved. It also prints the ``nodes``
part, which counts rather than digests: ``<case> nodes <nodes> <no-change>
<relabelling>`` per built case, the nodes the net made and the names it
keeps as aliases of them, those that copy their source's states unchanged
and those that relabel them, and ``nodes <corpus> <count> cases <nodes>
nodes <no-change> no-change aliases <relabelling> relabelling aliases`` per
corpus (``generate`` and ``generate_timed`` per semantics, and each
workload). The counts enter no digest. pytest does not collect this file.
"""

import hashlib
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "perfbench")]

from planeval import BuildError, BuildOptions, PlanEvalError, build_pe_net, canonical_dump  # noqa: E402
from planeval import leads_to_success, plan_success  # noqa: E402

import instance_gen  # noqa: E402
import workloads  # noqa: E402 - the benchmark's instance generators
from fixtures import load  # noqa: E402

SEMANTICS = ("gate-effect-only", "nullify-action")
BENCH_SEEDS = (1, 5, 41)
MC_SAMPLES = 500


def cases():
    """(corpus, name, kb, plan, options) for every case of the corpus, in a fixed order."""
    for semantics in SEMANTICS:
        for seed in range(200):
            yield (f"generate-{semantics}", f"generate-{seed}-{semantics}", *instance_gen.generate(seed),
                   BuildOptions(during_failure_semantics=semantics))
        for seed in range(200):
            yield (f"generate_timed-{semantics}", f"generate_timed-{seed}-{semantics}",
                   *instance_gen.generate_timed(seed),
                   BuildOptions(during_failure_semantics=semantics, clock_enabled=True))
    for workload in workloads.WORKLOADS:
        for seed in BENCH_SEEDS:
            for inst in workloads.generate(workload, seed):
                yield (workload, f"{workload}-{seed}-{inst.name}", *load(inst.kb_text, inst.plan_text),
                       BuildOptions(clock_enabled=inst.clock))


def failure(err: Exception) -> str:
    stage = f" at {err.stage}" if isinstance(err, BuildError) else ""
    return f"{type(err).__name__}{stage}: {err}"


PARTS = ("dump", "exact", "mc", "errors")


def node_counts(net) -> tuple:
    """The nodes a net made, its no-change aliases and its aliases that relabel their source's states."""
    aliases = getattr(net, "aliases", {})  # a net built before the alias table has none
    relabelling = sum(1 for alias in aliases.values()  # an alias of an older net is its source's id alone
                      if hasattr(alias, "keeps") and (not alias.keeps(net.nodes[alias.source].states)
                                                       or set(alias.labels) - {"default-persistence", "clock-identity"}))
    return len(net.nodes), len(aliases) - relabelling, relabelling


def case_lines(kb, plan, opts) -> list:
    """What one case gives: ``(part, line, error)`` triples of its dump,
    labels and metrics, or of its build error, and the net's ``node_counts``,
    None when it does not build. ``error`` is the raised error's
    type, after the metric and its arguments, for a metric that failed, and
    empty otherwise."""
    try:
        net = build_pe_net(plan, kb, opts)
    except PlanEvalError as err:
        return [("errors", failure(err), "")], None
    counts = node_counts(net)
    lines = [("dump", canonical_dump(net), ""), ("dump", repr(net.labels), "")]
    for metric in (leads_to_success, plan_success):
        for part, kwargs in (("exact", {}), ("mc", {"mode": "mc", "samples": MC_SAMPLES, "seed": 3})):
            head = f"{metric.__name__} {kwargs}"
            try:
                result = metric(net, plan, **kwargs)
                lines.append((part, f"{head} {result.probability!r} {result.standard_error!r}", ""))
            except PlanEvalError as err:
                lines.append((part, f"{head} {failure(err)}", f"{head} {type(err).__name__}"))
    return lines, counts


def digest(lines: list) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def main(argv) -> int:
    verbose = "--verbose" in argv
    whole, count = hashlib.sha256(), 0
    by_part = {part: hashlib.sha256() for part in PARTS}
    totals = {}  # corpus -> [cases, nodes, no-change aliases, relabelling aliases]
    for corpus, name, kb, plan, opts in cases():
        lines, counts = case_lines(kb, plan, opts)
        whole.update(f"{name} {digest([line for _, line, _ in lines])}\n".encode())
        count += 1
        total = totals.setdefault(corpus, [0, 0, 0, 0])
        total[0] += 1
        if counts is not None:
            for i, n in enumerate(counts, 1):
                total[i] += n
            if verbose:
                print(name, "nodes", *counts)
        if verbose:
            for part in PARTS:
                own = [line for of, line, _ in lines if of == part]
                if part == "errors":
                    own += [error for _, _, error in lines if error]
                part_digest = digest(own)
                by_part[part].update(f"{name} {part_digest}\n".encode())
                print(name, part, part_digest)
    if verbose:
        for part in PARTS:
            print(f"{part} {count} cases {by_part[part].hexdigest()}")
        for corpus, (cases_, nodes, same, relabelling) in totals.items():
            print(f"nodes {corpus} {cases_} cases {nodes} nodes {same} no-change aliases {relabelling} relabelling aliases")
    print(f"{count} cases {whole.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
