"""Answers the benchmark computes without the construction pipeline.

* ``shuttle_success``: per-object Markov chains solved in closed form from
  the generator's parameters, so it shares no code with the program.
* ``clock_distribution``: the final clock of a sequential timed plan is the
  sum of every step's duration, a plain convolution.
* ``UntimedOracle``: answers queries from the exhaustive trajectories of
  the test suite's trajectory-semantics simulator
  (``tests/trajectory_oracle.py``), so the benchmark runs it only on
  instances small enough to enumerate.
"""

from __future__ import annotations

from planeval import instantiate
from workloads import LOCATIONS


def _step(dist: dict, rows: dict) -> dict:
    """One transition: ``rows`` maps a state to its next-state distribution; absent states stay."""
    out = {s: 0.0 for s in LOCATIONS}
    for state, p in dist.items():
        for nxt, q in rows.get(state, {state: 1.0}).items():
            out[nxt] += p * q
    return out


def shuttle_success(chain: dict) -> float:
    """P(every object ends at its goal location) for a ``workloads.shuttle`` instance.

    Situations follow the plan's total order: agent 0's boundaries, then
    agent 1's, and so on.  Entering an agent's first boundary ends no step,
    so every object persists; entering one of its later boundaries moves
    that agent's object and every other object persists.  A move row covers
    only the ``from`` state; the object's other states fall back to the
    persistence model, and to no change where that is silent too.
    """
    persist = {state: {state: stay, lost: round(1.0 - stay, 2)}
               for state, (lost, stay) in chain["persist"].items()}
    k, n = chain["k"], chain["n"]
    total = 1.0
    for i in range(k):
        dist = dict(chain["start"][f"O{i}"])
        for agent in range(k):
            if agent > 0:
                dist = _step(dist, persist)
            for j in range(n):
                if agent != i:
                    dist = _step(dist, persist)
                    continue
                src, dst = ("L1", "L2") if j % 2 == 0 else ("L2", "L1")
                rows = dict(persist)
                rows[src] = {dst: chain["move"], src: round(1.0 - chain["move"], 2)}
                dist = _step(dist, rows)
        total *= dist[chain["goal"]]
    return total


def clock_distribution(durations: list) -> dict:
    """Distribution of the sum of independent step durations."""
    out = {0: 1.0}
    for dist in durations:
        nxt = {}
        for t, p in out.items():
            for d, q in dist.items():
                nxt[t + d] = nxt.get(t + d, 0.0) + p * q
        out = nxt
    return out


class UntimedOracle:
    """Exhaustive trajectories of a flattened, untimed plan."""

    def __init__(self, oracle, kb, flat_plan, order):
        self.kb = kb
        self.worlds = oracle.enumerate_trajectories(kb, flat_plan, order)
        self._derived = {}

    def _rows(self, atom):
        """Ground rows of a derived atom's definition, last row first (the last match wins)."""
        if atom not in self._derived:
            definition, bindings = self.kb.find_derived(atom)
            self._derived[atom] = [
                ({instantiate(key, bindings): want for key, want in row.condition.items()},
                 next(iter(row.distribution)))  # the benchmark's derived rows are deterministic
                for row in reversed(definition.rows)
            ]
        return self._derived[atom]

    def value(self, world, atom, pos):
        """State of ``atom`` in one world; derived atoms are evaluated from their rows here."""
        states = world.states[pos]
        if atom in states:
            return states[atom]
        for condition, state in self._rows(atom):
            if all(states[key] == want for key, want in condition.items()):
                return state
        raise KeyError(f"no derived row for {atom}")

    def probability(self, targets: list, evidence: list = (), selections: dict = None) -> float:
        """P(targets | evidence) with (atom, pos, state) triples and required selections."""
        both = num = 0.0
        for world in self.worlds:
            if any(self.value(world, a, pos) != s for a, pos, s in evidence):
                continue
            num += world.prob
            if selections and any(world.selections.get(b) != label for b, label in selections.items()):
                continue
            if all(self.value(world, a, pos) == s for a, pos, s in targets):
                both += world.prob
        return both / num
