"""Independent trajectory-semantics oracle.

Simulates plan execution world by world, straight from the model definitions:
no PE-net, no paste operations, no CPT machinery. Worlds are enumerated
exhaustively with exact probabilities, so results are ground truth for the
construction + inference pipeline within float accuracy.

Rule precedence per atom and transition (later paste wins, mirrored here by
scan order):

1. during-effect rows of steps strictly spanning the situation
   (later plan step first; within a row list the last matching row),
2. consequence rows of steps ending here, if guards and during-condition
   gates hold (later plan step first; last matching row; predecessors are
   read in the step's start situation),
3. residual rows (first residual, first matching row),
4. knowledge-base persistence rows (first matching row),
5. no-change default.
"""

import itertools
from dataclasses import dataclass, field

from planeval import GroundAtom, instantiate
from planeval.model import SelRef
from planeval.plan import NOOP
from planeval.model import substitute_label


@dataclass
class World:
    states: list  # one dict per situation: GroundAtom -> state (derived cached lazily)
    selections: dict = field(default_factory=dict)  # boundary -> label
    prob: float = 1.0

    def clone(self):
        return World([dict(s) for s in self.states], dict(self.selections), self.prob)


def _universe(kb, plan):
    atoms = {}

    def add(atom):
        if kb.schemas[atom.name].kind == "primitive":
            atoms.setdefault(atom, None)
        else:
            found = kb.find_derived(atom)
            assert found is not None, f"no derived definition for {atom}"
            definition, bindings = found
            for parent in definition.parents:
                atoms.setdefault(instantiate(parent, bindings), None)

    for atom in plan.initial:
        add(atom)
    for atom, _ in plan.goals:
        add(atom)
    for step in plan.steps:
        b = step.bindings
        for pattern in step.model.predecessors:
            add(instantiate(pattern, b))
        for pattern, rows in step.model.consequences:
            add(instantiate(pattern, b))
            for row in rows:
                for key in row.condition:
                    if isinstance(key, GroundAtom):
                        add(instantiate(key, b))
        for cond in step.model.during_conditions:
            add(instantiate(cond.atom, b))
        for pattern, rows in step.model.during_effects:
            add(instantiate(pattern, b))
            for row in rows:
                for key in row.condition:
                    if isinstance(key, GroundAtom):
                        add(instantiate(key, b))
    for group in plan.contingencies:
        for row in group.selector:
            for key in row.condition:
                if isinstance(key, GroundAtom):
                    add(key)
    for res in plan.residuals:
        add(res.atom)
        for row in res.rows:
            for key in row.condition:
                if isinstance(key, GroundAtom):
                    add(key)
    return sorted(atoms, key=GroundAtom.sort_key)


def _resolve_value(kb, world, pos, key):
    """[(world', value)] branches; derived atoms are computed and cached."""
    if isinstance(key, SelRef):
        return [(world, world.selections.get(key.boundary, NOOP))]
    if key in world.states[pos]:
        return [(world, world.states[pos][key])]
    definition, bindings = kb.find_derived(key)
    condition_keys = []
    for row in definition.rows:
        for ckey in row.condition:
            gk = instantiate(ckey, bindings)
            if gk not in condition_keys:
                condition_keys.append(gk)
    values = {gk: world.states[pos][gk] for gk in condition_keys}
    dist = None
    for row in reversed(definition.rows):
        ok = True
        for ckey, state in row.condition.items():
            if values[instantiate(ckey, bindings)] != substitute_label(state, bindings):
                ok = False
                break
        if ok:
            dist = {substitute_label(s, bindings): p for s, p in row.distribution.items()}
            break
    assert dist is not None, f"derived {key} has no matching row at situation {pos}"
    out = []
    for state, p in dist.items():
        if p <= 0:
            continue
        w = world.clone()
        w.states[pos][key] = state
        w.prob *= p
        out.append((w, state))
    return out


def _resolve_many(kb, world, pos, keys):
    branches = [(world, {})]
    for key in keys:
        nxt = []
        for w, values in branches:
            for w2, value in _resolve_value(kb, w, pos, key):
                merged = dict(values)
                merged[key] = value
                nxt.append((w2, merged))
        branches = nxt
    return branches


def _guards_ok(world, guards):
    return all(world.selections.get(sel.boundary) == label for sel, label in guards)


def _gates_ok(kb, world, step, consequence, positions, semantics):
    """All relevant during conditions hold at every intermediate situation."""
    bindings = step.bindings
    lo, hi = positions[step.start], positions[step.end]
    for cond in step.model.during_conditions:
        relevant = cond.gates is None or semantics == "nullify-action"
        if not relevant:
            relevant = consequence in [instantiate(g, bindings) for g in cond.gates]
        if not relevant:
            continue
        atom = instantiate(cond.atom, bindings)
        state = substitute_label(cond.state, bindings)
        for mid in range(lo + 1, hi):
            if world.states[mid].get(atom) != state:
                return False
    return True


def _match_rows(rows, values, reverse):
    ordered = reversed(rows) if reverse else rows
    for row in ordered:
        if all(values[key] == state for key, state in row.condition.items()):
            return row
    return None


def enumerate_trajectories(kb, plan, order, during_semantics="gate-effect-only"):
    """All weighted trajectories of a flattened, untimed plan."""
    atoms = _universe(kb, plan)
    positions = {b: i for i, b in enumerate(order)}

    initial = {}
    for atom in atoms:
        dist = plan.initial.get(atom) or {kb.schemas[atom.name].states[0]: 1.0}
        initial[atom] = {s: p for s, p in dist.items() if p > 0}
    worlds = []
    keys = list(initial)
    for combo in itertools.product(*(sorted(initial[a].items()) for a in keys)):
        prob = 1.0
        assignment = {}
        for atom, (state, p) in zip(keys, combo):
            prob *= p
            assignment[atom] = state
        worlds.append(World([assignment], {}, prob))

    groups = {g.boundary: g for g in plan.contingencies}

    for pos in range(len(order)):
        boundary = order[pos]
        # resolve the contingency group sitting at this boundary
        group = groups.get(boundary)
        if group is not None:
            resolved = []
            for world in worlds:
                cond_keys = []
                for row in group.selector:
                    for key in row.condition:
                        if key not in cond_keys:
                            cond_keys.append(key)
                for w, values in _resolve_many(kb, world, pos, cond_keys):
                    row = _match_rows(group.selector, values, reverse=True)
                    if row is None:
                        default = group.selected if group.origin == "expansion" else NOOP
                        dist = {default: 1.0}
                    else:
                        dist = row.distribution
                    for label, p in dist.items():
                        if p <= 0:
                            continue
                        w2 = w.clone()
                        w2.selections[boundary] = label
                        w2.prob *= p
                        resolved.append(w2)
            worlds = resolved
        if pos + 1 == len(order):
            break
        nxt = order[pos + 1]
        worlds = _transition(kb, plan, worlds, positions, pos, nxt, atoms, during_semantics)
    return worlds


def _transition(kb, plan, worlds, positions, pos, next_boundary, atoms, semantics):
    out = []
    for world in worlds:
        branches = [(world, {})]  # (world, {atom: dist chosen})
        for atom in atoms:
            nxt = []
            for w, dists in branches:
                for w2, dist in _atom_rule(kb, plan, w, positions, pos, next_boundary, atom, semantics):
                    merged = dict(dists)
                    merged[atom] = dist
                    nxt.append((w2, merged))
            branches = nxt
        for w, dists in branches:
            pools = [sorted(dists[a].items()) for a in atoms]
            for combo in itertools.product(*pools):
                prob = w.prob
                assignment = {}
                for atom, (state, p) in zip(atoms, combo):
                    prob *= p
                    assignment[atom] = state
                if prob <= 0:
                    continue
                w2 = World([dict(s) for s in w.states] + [assignment], dict(w.selections), prob)
                out.append(w2)
    return out


def _atom_rule(kb, plan, world, positions, pos, next_boundary, atom, semantics):
    """[(world', distribution)] for one atom's next value (worlds may branch on derived lookups)."""
    next_pos = pos + 1
    # 1. during effects of spanning steps, later step first
    for step in reversed(plan.steps):
        if not step.model.during_effects or not _guards_ok(world, step.guards):
            continue
        if not (positions[step.start] < next_pos < positions[step.end]):
            continue
        bindings = step.bindings
        for pattern, rows in step.model.during_effects:
            if instantiate(pattern, bindings) != atom:
                continue
            ground_rows = []
            cond_keys = []
            for row in rows:
                g = {instantiate(k, bindings): substitute_label(v, bindings) for k, v in row.condition.items()}
                ground_rows.append((g, {substitute_label(s, bindings): p for s, p in row.distribution.items()}))
                for key in g:
                    if key not in cond_keys:
                        cond_keys.append(key)
            results = []
            for w, values in _resolve_many(kb, world, pos, cond_keys):
                hit = None
                for g, dist in reversed(ground_rows):
                    if all(values[k] == v for k, v in g.items()):
                        hit = dist
                        break
                if hit is not None:
                    results.append((w, hit))
            if results:
                return results
    # 2. consequences of ending steps, later step first
    for step in reversed(plan.steps):
        if step.end != next_boundary or not _guards_ok(world, step.guards):
            continue
        bindings = step.bindings
        start_pos = positions[step.start]
        for pattern, rows in step.model.consequences:
            if instantiate(pattern, bindings) != atom:
                continue
            if not _gates_ok(kb, world, step, atom, positions, semantics):
                continue
            ground_rows = []
            cond_keys = []
            for row in rows:
                g = {}
                for k, v in row.condition.items():
                    gk = instantiate(k, bindings) if isinstance(k, GroundAtom) else k
                    g[gk] = substitute_label(v, bindings)
                ground_rows.append((g, {substitute_label(s, bindings): p for s, p in row.distribution.items()}))
                for key in g:
                    if key not in cond_keys:
                        cond_keys.append(key)
            results = []
            for w, values in _resolve_many(kb, world, start_pos, cond_keys):
                hit = None
                for g, dist in reversed(ground_rows):
                    if all(values[k] == v for k, v in g.items()):
                        hit = dist
                        break
                if hit is not None:
                    results.append((w, hit))
            if results:
                return results
    # 3. residual effects (paste-into: first residual, first matching row)
    for res in plan.residuals:
        if res.end != next_boundary or res.atom != atom or not _guards_ok(world, res.guards):
            continue
        start_pos = positions[res.start]
        cond_keys = []
        for row in res.rows:
            for key in row.condition:
                if key not in cond_keys:
                    cond_keys.append(key)
        results = []
        for w, values in _resolve_many(kb, world, start_pos, cond_keys):
            hit = None
            for row in res.rows:
                if all(values[k] == v for k, v in row.condition.items()):
                    hit = row.distribution
                    break
            if hit is not None:
                results.append((w, hit))
        if results:
            return results
    # 4. KB persistence, first matching row (untimed: bucketed rows never match)
    prev = world.states[pos][atom]
    model = kb.persistence.get(atom.name)
    if model is not None:
        for row in model.rows:
            if row.prev == prev and row.bucket is None:
                return [(world, row.distribution)]
    # 5. no-change default
    return [(world, {prev: 1.0})]


# ---------------------------------------------------------------------------
# aggregations
# ---------------------------------------------------------------------------


def marginal(worlds, atom, pos):
    out = {}
    for w in worlds:
        state = w.states[pos][atom]
        out[state] = out.get(state, 0.0) + w.prob
    return out


def selection_marginal(worlds, boundary):
    out = {}
    for w in worlds:
        label = w.selections.get(boundary, NOOP)
        out[label] = out.get(label, 0.0) + w.prob
    return out


def goal_probability(kb, worlds, plan, final_pos):
    total = 0.0
    for w in worlds:
        ok = True
        for atom, state in plan.goals:
            if kb.schemas[atom.name].kind == "primitive":
                value = w.states[final_pos][atom]
            else:
                branches = _resolve_value(kb, w, final_pos, atom)
                # a stochastic derived goal splits the world; fold it in place
                sub = sum(b.prob for b, v in branches if v == state)
                total += sub if ok else 0.0
                ok = None
                break
            if value != state:
                ok = False
                break
        if ok:
            total += w.prob
    return total


def joint(worlds, atoms, n_situations, sel_boundaries):
    """Joint over (atom, situation) values plus selection labels."""
    out = {}
    for w in worlds:
        key = tuple(w.states[pos][atom] for pos in range(n_situations) for atom in atoms)
        key += tuple(w.selections.get(b, NOOP) for b in sel_boundaries)
        out[key] = out.get(key, 0.0) + w.prob
    return out


# ---------------------------------------------------------------------------
# time-expanded oracle (events processed in true temporal order)
# ---------------------------------------------------------------------------


def timed_final_marginals(kb, plan, order):
    """Final-state marginals plus P(later step ends first) per step pair.

    Time model: an action's effects land when it completes (start time plus
    duration), but a follow-on step only starts once its start boundary is
    settled in the committed linear order (the synchronized time: the max of
    the boundary's own completion time and every earlier boundary's settled
    time). Effects are processed in true temporal order; persistence elapsed
    deltas are differences of consecutive effect times. A boundary no step
    ends takes the settled time of the boundary before it.

    Scope guards (enough for the fixtures): no contingencies, residuals, or
    during clauses; steps with conditional consequence rows start at the
    initial boundary.
    """
    assert not plan.contingencies and not plan.residuals
    for step in plan.steps:
        assert not step.model.during_conditions and not step.model.during_effects
        has_conditions = any(row.condition for _a, rows in step.model.consequences for row in rows)
        assert not has_conditions or step.start == order[0]
    base_pos = {b: i for i, b in enumerate(order)}
    atoms = _universe(kb, plan)
    timed_steps = [s for s in plan.steps if s.model.duration is not None]
    # Only the start snapshots of steps with conditional rows are ever read,
    # so worlds that agree on those and on the current state are merged.
    read_starts = {s.start for s in plan.steps
                   if any(row.condition for _a, rows in s.model.consequences for row in rows)}

    initial_pools = []
    for atom in atoms:
        dist = plan.initial.get(atom) or {kb.schemas[atom.name].states[0]: 1.0}
        initial_pools.append(sorted((s, p) for s, p in dist.items() if p > 0))

    duration_pools = [sorted(s.model.duration.items()) for s in timed_steps]

    finals = {}
    order_stats = {}

    for dur_combo in itertools.product(*duration_pools):
        duration = {s.id: d for s, (d, _p) in zip(timed_steps, dur_combo)}
        dprob = 1.0
        for _s, (_d, p) in zip(timed_steps, dur_combo):
            dprob *= p

        raw = {}  # effect time of each boundary
        sync = {}  # settled time: downstream steps start no earlier than this
        settled = 0
        for j, b in enumerate(order):
            enders = [s for s in plan.steps if s.end == b]
            if j == 0:
                raw[b] = 0
            elif enders:
                last = enders[-1]
                raw[b] = sync[last.start] + duration[last.id]
            else:
                raw[b] = settled
            sync[b] = raw[b] if j == 0 else max(raw[b], settled)
            settled = sync[b]
        events = sorted((b for b in order[1:]), key=lambda b: (raw[b], base_pos[b]))

        for a, bstep in itertools.combinations(plan.steps, 2):
            earlier, later = (a, bstep) if base_pos[a.end] < base_pos[bstep.end] else (bstep, a)
            end_later = sync[later.start] + duration[later.id]
            end_earlier = sync[earlier.start] + duration[earlier.id]
            stats = order_stats.setdefault((earlier.id, later.id), {"negative": 0.0, "nonnegative": 0.0})
            stats["negative" if end_later < end_earlier else "nonnegative"] += dprob

        for init_combo in itertools.product(*initial_pools):
            prob = dprob
            initial_state = {}
            for atom, (s, p) in zip(atoms, init_combo):
                prob *= p
                initial_state[atom] = s
            snapshot = {order[0]: dict(initial_state)} if order[0] in read_starts else {}
            worlds = [(dict(initial_state), prob, snapshot)]
            t_prev = 0
            for boundary in events:
                delta = raw[boundary] - t_prev
                t_prev = raw[boundary]
                enders = [s for s in plan.steps if s.end == boundary]
                nxt = {}
                for current, p, snapshots in worlds:
                    pools = []
                    for atom in atoms:
                        owner = None
                        for step in reversed(enders):
                            bindings = step.bindings
                            for pattern, rows in step.model.consequences:
                                if instantiate(pattern, bindings) == atom:
                                    owner = (step, rows, bindings)
                                    break
                            if owner:
                                break
                        dist = None
                        if owner:
                            step, rows, bindings = owner
                            snap = snapshots.get(step.start)
                            for row in reversed(rows):
                                if all(snap[instantiate(k, bindings)] == substitute_label(v, bindings)
                                       for k, v in row.condition.items()):
                                    dist = {substitute_label(s, bindings): pr
                                            for s, pr in row.distribution.items()}
                                    break
                        if dist is None:
                            dist = _persist(kb, atom, current[atom], delta)
                        pools.append(sorted(dist.items()))
                    for combo in itertools.product(*pools):
                        q = p
                        new_state = {}
                        for atom, (s, pr) in zip(atoms, combo):
                            q *= pr
                            new_state[atom] = s
                        if q <= 0:
                            continue
                        snaps = dict(snapshots)
                        if boundary in read_starts:
                            snaps[boundary] = dict(new_state)
                        key = (tuple(new_state.values()),
                               tuple((b, tuple(state.values())) for b, state in snaps.items()))
                        if key in nxt:
                            nxt[key][1] += q
                        else:
                            nxt[key] = [new_state, q, snaps]
                worlds = list(nxt.values())
            for final_state, p, _snaps in worlds:
                key = tuple(final_state[a] for a in atoms)
                finals[key] = finals.get(key, 0.0) + p

    marginals = {}
    for idx, atom in enumerate(atoms):
        dist = {}
        for key, p in finals.items():
            dist[key[idx]] = dist.get(key[idx], 0.0) + p
        marginals[atom] = dist
    return marginals, order_stats


def _persist(kb, atom, prev, delta):
    model = kb.persistence.get(atom.name)
    if model is not None:
        for row in model.rows:
            if row.prev != prev:
                continue
            if row.bucket is None:
                return dict(row.distribution)
            lo, hi = row.bucket
            if lo <= delta < hi:
                return dict(row.distribution)
    return {prev: 1.0}
