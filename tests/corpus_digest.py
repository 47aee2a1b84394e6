"""One digest of what the build and the plan metrics give on a fixed corpus.

The corpus is ``generate(0..199)`` and ``generate_timed(0..199)`` under both
during-failure semantics, plus every instance of the three benchmark
workloads at seeds 1, 5 and 41. For each case the digest reads the
``canonical_dump``, ``net.labels``, both plan metrics exactly and by Monte
Carlo, and, where a build or a query fails, the typed error. A refactor that
means to keep every net and every answer must print the same digest before
and after it:

    PYTHONPATH=src python tests/corpus_digest.py

``--verbose`` prints one digest per case, so two runs can be diffed to find
the first case that moved. pytest does not collect this file.
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
    """(name, kb, plan, options) for every case of the corpus, in a fixed order."""
    for semantics in SEMANTICS:
        for seed in range(200):
            yield (f"generate-{seed}-{semantics}", *instance_gen.generate(seed),
                   BuildOptions(during_failure_semantics=semantics))
        for seed in range(200):
            yield (f"generate_timed-{seed}-{semantics}", *instance_gen.generate_timed(seed),
                   BuildOptions(during_failure_semantics=semantics, clock_enabled=True))
    for workload in workloads.WORKLOADS:
        for seed in BENCH_SEEDS:
            for inst in workloads.generate(workload, seed):
                yield (f"{workload}-{seed}-{inst.name}", *load(inst.kb_text, inst.plan_text),
                       BuildOptions(clock_enabled=inst.clock))


def failure(err: Exception) -> str:
    stage = f" at {err.stage}" if isinstance(err, BuildError) else ""
    return f"{type(err).__name__}{stage}: {err}"


def case_lines(kb, plan, opts) -> list:
    """What one case gives: its dump, labels and metrics, or its build error."""
    try:
        net = build_pe_net(plan, kb, opts)
    except PlanEvalError as err:
        return [failure(err)]
    lines = [canonical_dump(net), repr(net.labels)]
    for metric in (leads_to_success, plan_success):
        for kwargs in ({}, {"mode": "mc", "samples": MC_SAMPLES, "seed": 3}):
            try:
                result = metric(net, plan, **kwargs)
                lines.append(f"{metric.__name__} {kwargs} {result.probability!r} {result.standard_error!r}")
            except PlanEvalError as err:
                lines.append(f"{metric.__name__} {kwargs} {failure(err)}")
    return lines


def main(argv) -> int:
    verbose = "--verbose" in argv
    whole, count = hashlib.sha256(), 0
    for name, kb, plan, opts in cases():
        digest = hashlib.sha256("\n".join(case_lines(kb, plan, opts)).encode()).hexdigest()
        whole.update(f"{name} {digest}\n".encode())
        count += 1
        if verbose:
            print(name, digest)
    print(f"{count} cases {whole.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
