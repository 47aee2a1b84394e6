"""Scaling report for the shuttle probe family (ungated, one command).

    python3 perfbench/scaling.py

Regenerates the baseline table of the ROADMAP: K agents each shuttling its
own object for N steps, clock off at K=1 N=160, K=4 N=40 and K=8 N=20, and
clock on at K=2 N=9.  For each row it prints the node count and the time to
build the net, to answer ``leads_to_success`` exactly and by Monte Carlo with
10,000 samples, and checks the exact answer against the closed form.  It
takes about a minute on a two-core machine; nothing here is gated.
"""

from __future__ import annotations

import random
import sys
import time

import run  # pins the numeric thread pools and finds the program under src/

ROWS = ((1, 160, False), (4, 40, False), (8, 20, False), (2, 9, True))
MC_SAMPLES = 10000


def main() -> int:
    pe = run.load_program()
    import references
    import workloads

    print("| instance | nodes | build | exact `leads_to_success` | MC 10k | exact = closed form |")
    print("|---|---|---|---|---|---|")
    all_ok = True
    for k, n, clock in ROWS:
        inst = workloads.shuttle(random.Random(f"scaling/{k}/{n}/{clock}"), k, n, clock=clock)
        kb, _diags = pe.parse_kb(pe.SourceDocument(inst.kb_text, "shuttle.kb"))
        plan, _diags = pe.parse_plan(pe.SourceDocument(inst.plan_text, "shuttle.plan"), kb)
        start = time.perf_counter()
        net = pe.build_pe_net(plan, kb, pe.BuildOptions(clock_enabled=clock))
        built = time.perf_counter()
        exact = pe.leads_to_success(net, plan).probability
        answered = time.perf_counter()
        pe.leads_to_success(net, plan, mode="mc", samples=MC_SAMPLES, seed=1)
        sampled = time.perf_counter()
        ok = abs(exact - references.shuttle_success(inst.chain)) <= run.EXACT_TOL
        all_ok &= ok
        print(f"| K={k} N={n}{', clock on' if clock else ''} | {len(net.nodes)} | {built - start:.2f} s"
              f" | {answered - built:.2f} s | {sampled - answered:.2f} s | {'yes' if ok else 'NO'} |", flush=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
