"""Deterministic random instances for oracle-equivalence testing.

Instances stay small on purpose: at most ten ground atoms, four states,
three transitions, with partial action rows and occasional contingencies
and derived goals. All probabilities are dyadic rationals so products are
exact in binary floating point.
"""

import random

from planeval.model import (
    ActionModel,
    ConditionalRow,
    DerivedDefinition,
    GroundAtom,
    KnowledgeBase,
    PredicateSchema,
    PersistenceModel,
    PersistenceRow,
)
from planeval.plan import ContingencyGroup, Plan, PlanStep

DYADIC = [0.25, 0.5, 0.75]


def _dyadic_split(rng):
    p = rng.choice(DYADIC)
    return p, 1.0 - p


def generate(seed: int):
    """Returns (kb, plan). Deterministic in the seed."""
    rng = random.Random(seed)

    n_flags = rng.randint(2, 4)
    schemas = {}
    atoms = []
    for i in range(n_flags):
        name = f"F{i}"
        n_states = rng.randint(2, 4)
        states = tuple(f"s{j}" for j in range(n_states))
        schemas[name] = PredicateSchema(name, (), states, "primitive")
        atoms.append(GroundAtom(name))
    # one shared unary schema over two objects, to exercise instantiation
    schemas["Q"] = PredicateSchema("Q", ("?x",), ("q0", "q1"), "primitive")
    for obj in ("o1", "o2"):
        atoms.append(GroundAtom("Q", (obj,)))

    kb = KnowledgeBase(schemas=schemas)

    # noisy persistence on exactly one atom's schema, deterministic elsewhere
    noisy_name = rng.choice(sorted(schemas))
    noisy_schema = schemas[noisy_name]
    rows = []
    for state in noisy_schema.states[: rng.randint(1, len(noisy_schema.states))]:
        p, q = _dyadic_split(rng)
        target = rng.choice(noisy_schema.states)
        if target == state:
            rows.append(PersistenceRow(state, {state: 1.0}))
        else:
            rows.append(PersistenceRow(state, {state: p, target: q}))
    kb.persistence[noisy_name] = PersistenceModel(GroundAtom(noisy_name, noisy_schema.params), rows)

    n_actions = rng.randint(1, 3)
    for i in range(n_actions):
        name = f"Act{i}"
        model = ActionModel(name, (), 0)
        n_cons = rng.randint(1, 2)
        targets = rng.sample(atoms, n_cons)
        seen_targets = set()
        for target in targets:
            schema = schemas[target.name]
            if target.name == "Q":
                # parameterized consequence: self-conditioned pattern
                target = GroundAtom("Q", ("?x",))
                model.params = ("?x",)
                conditioners = [target]
            else:
                conditioners = [target]
                if rng.random() < 0.5:
                    extra = rng.choice([a for a in atoms if a.name not in ("Q", target.name)] or [target])
                    if extra != target:
                        conditioners.append(extra)
            if target in seen_targets:
                continue
            seen_targets.add(target)
            rows = []
            pools = [schemas[c.name].states for c in conditioners]
            combos = [()]
            for pool in pools:
                combos = [c + (s,) for c in combos for s in pool]
            rng.shuffle(combos)
            keep = combos[: max(1, len(combos) // 2)]  # partial on purpose
            for combo in sorted(keep):
                condition = dict(zip(conditioners, combo))
                a, b = _dyadic_split(rng)
                out1, out2 = rng.sample(list(schema.states), 2) if len(schema.states) > 1 else (schema.states[0],) * 2
                dist = {out1: a, out2: b} if out1 != out2 else {out1: 1.0}
                rows.append(ConditionalRow(condition, dist))
            model.consequences.append((target, rows))
        kb.actions[(name, 0)] = model

    # occasionally one derived predicate, referenced from the goals
    derived_goal = None
    if rng.random() < 0.25:
        base = rng.choice([a for a in atoms if a.name != "Q"])
        schema = schemas[base.name]
        kb.schemas["D"] = PredicateSchema("D", (), ("dt", "df"), "derived")
        rows = [ConditionalRow({base: s}, {"dt" if i == 0 else "df": 1.0})
                for i, s in enumerate(schema.states)]
        kb.derived.append(DerivedDefinition(GroundAtom("D"), [base], rows))
        derived_goal = (GroundAtom("D"), rng.choice(["dt", "df"]))

    n_steps = rng.randint(1, 3)
    steps = []
    for i in range(n_steps):
        key = rng.choice(sorted(kb.actions))
        model = kb.actions[key]
        args = ("o1",) if model.params else ()
        if model.params and rng.random() < 0.5:
            args = ("o2",)
        action = GroundAtom(key[0], args)
        steps.append(PlanStep(f"t{i}", "a1", action, model, f"b{i}", f"b{i + 1}"))

    contingencies = []
    if n_steps >= 2 and rng.random() < 0.4:
        # replace the final step with a two-way contingent choice
        last = steps[-1]
        key = rng.choice(sorted(kb.actions))
        rival_model = kb.actions[key]
        rival_args = ("o1",) if rival_model.params else ()
        rival = PlanStep(f"alt{n_steps}", "a2", GroundAtom(key[0], rival_args), rival_model,
                         last.start, last.end)
        steps.append(rival)
        cond_atom = rng.choice([a for a in atoms if a.name != "Q"])
        cond_states = schemas[cond_atom.name].states
        selector = []
        for s in cond_states[: rng.randint(1, len(cond_states))]:
            if rng.random() < 0.5:
                p, q = _dyadic_split(rng)
                selector.append(ConditionalRow({cond_atom: s}, {last.id: p, rival.id: q}))
            else:
                selector.append(ConditionalRow({cond_atom: s}, {rng.choice([last.id, rival.id, "noop"]): 1.0}))
        contingencies.append(ContingencyGroup(last.start, [last.id, rival.id], selector, origin="plain"))

    initial = {}
    noisy_atom = rng.choice(atoms)
    for atom in atoms:
        schema = schemas[atom.name]
        if atom == noisy_atom and len(schema.states) > 1:
            p, q = _dyadic_split(rng)
            s1, s2 = rng.sample(list(schema.states), 2)
            initial[atom] = {s1: p, s2: q}
        else:
            initial[atom] = {rng.choice(schema.states): 1.0}

    goals = []
    for _ in range(rng.randint(1, 2)):
        atom = rng.choice(atoms)
        goals.append((atom, rng.choice(schemas[atom.name].states)))
    if derived_goal is not None:
        goals.append(derived_goal)

    plan = Plan(steps=steps, contingencies=contingencies, initial=initial, goals=goals)
    return kb, plan


def generate_timed(seed: int):
    """Overlapping two-agent timed plans with bucketed persistence."""
    rng = random.Random(seed)
    kb = KnowledgeBase()
    kb.schemas["P"] = PredicateSchema("P", ("?x",), ("u", "v"), "primitive")
    edge = rng.choice([2, 3, 4])
    near, far = rng.choice(DYADIC), rng.choice(DYADIC)
    kb.persistence["P"] = PersistenceModel(
        GroundAtom("P", ("?x",)),
        rows=[
            PersistenceRow("u", {"u": near, "v": 1.0 - near}, (0.0, float(edge))),
            PersistenceRow("u", {"u": far, "v": 1.0 - far}, (float(edge), float("inf"))),
        ],
        buckets=[(0.0, float(edge)), (float(edge), float("inf"))],
    )

    def make_action(name):
        support = sorted(rng.sample(range(1, 7), rng.randint(1, 2)))
        if len(support) == 1:
            duration = {support[0]: 1.0}
        else:
            w = rng.choice(DYADIC)
            duration = {support[0]: w, support[1]: 1.0 - w}
        hit = rng.choice([1.0, 0.75])
        dist = {"v": hit} if hit == 1.0 else {"v": hit, "u": 1.0 - hit}
        model = ActionModel(name, ("?x",), 0, duration=duration)
        model.consequences.append((GroundAtom("P", ("?x",)), [ConditionalRow({}, dist)]))
        kb.actions[(name, 0)] = model
        return model

    first, second, third = make_action("Aa"), make_action("Bb"), make_action("Cc")
    steps = [
        PlanStep("sa", "ag1", GroundAtom("Aa", ("x1",)), first, "b0", "e1"),
        PlanStep("sb", "ag2", GroundAtom("Bb", ("x2",)), second, "b0", "e2"),
    ]
    if rng.random() < 0.6:
        steps.append(PlanStep("sc", "ag2", GroundAtom("Cc", ("x3",)), third, "e2", "e3"))
    initial = {GroundAtom("P", (obj,)): {"u": 1.0} for obj in ("x1", "x2", "x3", "q")}
    goals = [(GroundAtom("P", ("q",)), "v")]
    return kb, Plan(steps=steps, initial=initial, goals=goals)


# Duration tables whose probabilities are dyadic and sum to 1 exactly.
DYADIC_DURATIONS = [(1.0,), (0.5, 0.5), (0.25, 0.75), (0.25, 0.25, 0.5)]


AGENT_EFFECT_V = 0.75  # a constant, so the draws, and every duration and split, do not depend on it


def generate_agents_timed(seed: int):
    """Timed plans of 2-3 agents, each a chain of 1-3 steps.

    Every agent starts at ``b0`` or at a boundary of an earlier agent's
    chain, so situation times share ancestry across agents and a plan may
    need several splits. Duration tables are dyadic and sum to 1 exactly.
    Each step's effect gives its own atom ``v`` with probability
    ``AGENT_EFFECT_V``, and the goal asks for ``v`` on every one of them.
    """
    rng = random.Random(seed)
    kb = KnowledgeBase()
    kb.schemas["P"] = PredicateSchema("P", ("?x",), ("u", "v"), "primitive")
    steps, boundaries = [], ["b0"]
    for agent in range(rng.randint(2, 3)):
        start = rng.choice(boundaries) if rng.random() < 0.3 else "b0"
        for j in range(rng.randint(1, 3)):
            name = f"Act{agent}_{j}"
            probs = rng.choice(DYADIC_DURATIONS)
            support = sorted(rng.sample(range(1, 7), len(probs)))
            model = ActionModel(name, ("?x",), 0, duration=dict(zip(support, probs)))
            effect = {"v": AGENT_EFFECT_V, "u": 1.0 - AGENT_EFFECT_V}
            model.consequences.append((GroundAtom("P", ("?x",)), [ConditionalRow({}, effect)]))
            kb.actions[(name, 0)] = model
            end = f"e{agent}_{j}"
            steps.append(PlanStep(f"s{agent}_{j}", f"ag{agent}", GroundAtom(name, (f"x{agent}_{j}",)),
                                  model, start, end))
            start = end
            boundaries.append(end)
    written = [GroundAtom("P", step.action.args) for step in steps]
    return kb, Plan(steps=steps, initial={atom: {"u": 1.0} for atom in written},
                    goals=[(atom, "v") for atom in written])
