"""Slow reference for the split scan: enumerate every joint duration world.

``scan_worlds`` visits each world of positive weight, computes every
situation's event time in it, and returns the first situation whose event
time can precede its predecessor's (None if none can), which is what
``build._scan_time_tree`` returns, and each split's weight per sign of its
relative-end-time node, which is that node's marginal in the built net. Its
cost is the product of all steps' duration supports, so it runs only on
small plans.

A world's weight is the product of every step's duration probability, so
a split's mass here is also scaled by the other steps' duration totals; it
matches the net's normalized marginal to rounding only where every duration
table sums to 1 exactly.

``convolve`` is the reference for a totally ordered plan, whose final clock
is the sum of every step's duration.
"""

import itertools

from planeval.build import NEGATIVE, NONNEGATIVE


def duration_worlds(schedule):
    """All joint duration assignments with their probabilities (deterministic order)."""
    steps = [s for s in schedule.plan.steps if s.model.duration is not None]
    pools = [sorted(s.model.duration.items()) for s in steps]
    for combo in itertools.product(*pools):
        weight = 1.0
        assignment = {}
        for step, (dur, prob) in zip(steps, combo):
            assignment[step.id] = dur
            weight *= prob
        yield assignment, weight


def world_times(schedule, assignment):
    """Per-situation event times for one duration world (guarded steps assumed run)."""
    times = [0]
    for si in schedule.situations[1:]:
        enders = schedule.enders_at(si.sid)
        if si.gate is not None:
            spec, sign = si.gate
            if end_sign(schedule, spec, times, assignment) != sign:
                enders = []  # the sub-situation is inactive in this world
        if enders:
            last = enders[-1]
            times.append(times[schedule.position(schedule.start_sit(last))] + assignment[last.id])
        else:
            times.append(times[-1])
    return times


def end_sign(schedule, spec, times, assignment):
    """Sign of the later step's end time minus the earlier step's, in one duration world."""
    end_later = times[schedule.position(schedule.start_sit(spec.later))] + assignment[spec.later.id]
    end_earlier = times[schedule.position(schedule.start_sit(spec.earlier))] + assignment[spec.earlier.id]
    return NEGATIVE if end_later < end_earlier else NONNEGATIVE


def scan_worlds(schedule):
    """First conflicting position and per-split sign mass, by world enumeration."""
    conflict = None
    mass = {spec.ret: {NEGATIVE: 0.0, NONNEGATIVE: 0.0} for spec in schedule.splits}
    for assignment, weight in duration_worlds(schedule):
        if weight <= 0:
            continue
        times = world_times(schedule, assignment)
        for pos in range(1, len(times)):
            if times[pos] < times[pos - 1]:
                if conflict is None or pos < conflict:
                    conflict = pos
                break
        for spec in schedule.splits:
            mass[spec.ret][end_sign(schedule, spec, times, assignment)] += weight
    return conflict, mass


def convolve(tables):
    """Distribution of the sum of independent durations, one {duration: probability} table each."""
    out = {0: 1.0}
    for table in tables:
        summed = {}
        for t, p in out.items():
            for d, q in table.items():
                summed[t + d] = summed.get(t + d, 0.0) + p * q
        out = summed
    return out
