"""Predicate schemas, ground atoms, and the knowledge base of probabilistic models.

State labels are plain strings, except clock/duration values which are ints.
The reserved label ``OTHER`` is the clock's overflow value: every clock value
above the clock cap. No other node merges states into it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ArityMismatch, PlanEvalError, UnboundVariable

Label = str | int  # clock and duration values are ints, every other state label a str
OTHER = "OTHER"

PROB_TOL = 1e-9


def is_variable(symbol) -> bool:
    return isinstance(symbol, str) and symbol.startswith("?")


def label_sort_key(label):
    """Deterministic order for state labels: ints, then strings, OTHER last."""
    if label == OTHER:
        return (2, "")
    if isinstance(label, int):
        return (0, label, "")
    return (1, 0, str(label))


@dataclass
class Diagnostic:
    """A validation or parse problem, with an optional source location."""

    code: str
    message: str
    line: int | None = None
    column: int | None = None

    def render(self, origin: str = "<kb>") -> str:
        return f"{origin}:{self.line or 0}:{self.column or 0}: {self.code}: {self.message}"


@dataclass(frozen=True)
class GroundAtom:
    """A predicate applied to constants, e.g. ``(Loc A)``; args may be ?variables in patterns."""

    name: str
    args: tuple = ()

    def __str__(self):
        if not self.args:
            return f"({self.name})"
        return f"({self.name} {' '.join(str(a) for a in self.args)})"

    @classmethod
    def parse(cls, text: str) -> GroundAtom:
        """The atom written as text, e.g. ``(Loc A)``; surrounding blanks are ignored."""
        text = text.strip()
        parts = text[1:-1].split()
        if not (text.startswith("(") and text.endswith(")") and parts):
            raise PlanEvalError(f"{text!r} is not an atom like (Loc A)")
        return cls(parts[0], tuple(parts[1:]))

    @property
    def is_ground(self) -> bool:
        return not any(is_variable(a) for a in self.args)

    def sort_key(self):
        return (self.name, tuple(str(a) for a in self.args))


@dataclass(frozen=True)
class SelRef:
    """Reference to the action-selection node at a plan boundary, usable as a condition key."""

    boundary: str

    def __str__(self):
        return f"sel({self.boundary})"


@dataclass(frozen=True)
class PredicateSchema:
    name: str
    params: tuple = ()
    states: tuple = ()
    kind: str = "primitive"  # primitive | derived

    @property
    def arity(self) -> int:
        return len(self.params)


@dataclass
class ConditionalRow:
    """One CPT row: a (possibly partial) condition over parent atoms and a distribution.

    Condition keys are GroundAtom patterns (or SelRef); both condition states
    and distribution states may be ?variables until instantiation.
    """

    condition: dict
    distribution: dict
    loc: tuple = field(default=None, compare=False)


@dataclass
class DuringCondition:
    """A proposition required in the situations between a step's start and end.

    ``gates`` restricts which consequence predicates the condition guards;
    None means it guards every consequence of the action.
    """

    atom: GroundAtom
    state: object
    gates: tuple = None


@dataclass
class ActionModel:
    """Probabilistic action model: consequence distributions conditioned on predecessors."""

    name: str
    params: tuple = ()
    level: int = 0
    consequences: list = field(default_factory=list)  # [(GroundAtom, [ConditionalRow, ...])]
    during_conditions: list = field(default_factory=list)
    during_effects: list = field(default_factory=list)  # [(GroundAtom, [ConditionalRow, ...])]
    duration: dict = None  # {ticks: prob} or None
    loc: tuple = field(default=None, compare=False)

    @property
    def predecessors(self) -> list:
        """The atoms the effect rows condition on, in order of first mention."""
        atoms = {}
        for _atom, rows in self.consequences:
            for row in rows:
                for key in row.condition:
                    if isinstance(key, GroundAtom):
                        atoms.setdefault(key, None)
        return list(atoms)


@dataclass
class PersistenceRow:
    prev: object
    distribution: dict
    bucket: tuple = None  # (lo, hi) half-open, or None when not elapsed-conditioned
    loc: tuple = field(default=None, compare=False)


def format_bucket(bucket: tuple) -> str:
    """An elapsed bucket as the model language writes it: ``[0,3)``, ``[3,inf)``."""
    lo, hi = bucket
    hi_text = "inf" if math.isinf(hi) else f"{hi:g}"
    return f"[{lo:g},{hi_text})"


@dataclass
class PersistenceModel:
    """Distribution over a predicate's state given its own state one situation earlier."""

    atom: GroundAtom
    rows: list = field(default_factory=list)
    buckets: list = None  # ordered disjoint half-open intervals covering [0, inf)
    loc: tuple = field(default=None, compare=False)


@dataclass
class DerivedDefinition:
    """Same-situation definition of a derived predicate from primitive parents."""

    atom: GroundAtom
    parents: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    loc: tuple = field(default=None, compare=False)


@dataclass
class KnowledgeBase:
    schemas: dict = field(default_factory=dict)  # name -> PredicateSchema
    actions: dict = field(default_factory=dict)  # (name, level) -> ActionModel
    persistence: dict = field(default_factory=dict)  # predicate name -> PersistenceModel
    derived: list = field(default_factory=list)

    def kind_of(self, atom: GroundAtom) -> str:
        return self.schemas[atom.name].kind

    def action_levels(self, name: str) -> list:
        return sorted(level for (n, level) in self.actions if n == name)

    def find_action(self, name: str, level: int = None) -> ActionModel:
        """Look up an action model; when level is omitted the name must be unambiguous."""
        if level is not None:
            return self.actions[(name, level)]
        levels = self.action_levels(name)
        if len(levels) != 1:
            raise KeyError(f"action {name!r} has levels {levels}; a level must be given")
        return self.actions[(name, levels[0])]

    def find_derived(self, atom: GroundAtom):
        """Return (definition, bindings) for the first definition unifying with atom."""
        for definition in self.derived:
            bindings = unify(definition.atom, atom)
            if bindings is not None:
                return definition, bindings
        return None


def substitute_label(label, bindings):
    if is_variable(label):
        if label not in bindings:
            raise UnboundVariable(f"no binding for state variable {label}")
        return bindings[label]
    return label


def instantiate(pattern: GroundAtom, bindings: dict, kb: KnowledgeBase = None) -> GroundAtom:
    """Replace pattern variables with constants from ``bindings``.

    Raises UnboundVariable if a variable lacks a binding, and ArityMismatch
    when a knowledge base is supplied and the pattern's arity disagrees with
    its schema.
    """
    if kb is not None and pattern.name in kb.schemas:
        schema = kb.schemas[pattern.name]
        if len(pattern.args) != schema.arity:
            raise ArityMismatch(
                f"{pattern} has {len(pattern.args)} args; schema {pattern.name} expects {schema.arity}"
            )
    new_args = []
    for arg in pattern.args:
        if is_variable(arg):
            if arg not in bindings:
                raise UnboundVariable(f"no binding for {arg} in {pattern}")
            new_args.append(bindings[arg])
        else:
            new_args.append(arg)
    return GroundAtom(pattern.name, tuple(new_args))


def instantiate_row(row: ConditionalRow, bindings: dict) -> ConditionalRow:
    condition = {}
    for key, state in row.condition.items():
        if isinstance(key, GroundAtom):
            key = instantiate(key, bindings)
        condition[key] = substitute_label(state, bindings)
    distribution = {}
    for state, prob in row.distribution.items():
        state = substitute_label(state, bindings)
        distribution[state] = distribution.get(state, 0.0) + prob
    return ConditionalRow(condition, distribution)


def unify(pattern: GroundAtom, ground: GroundAtom) -> dict:
    """Bindings mapping pattern variables to ground constants, or None."""
    if pattern.name != ground.name or len(pattern.args) != len(ground.args):
        return None
    bindings = {}
    for pat, con in zip(pattern.args, ground.args):
        if is_variable(pat):
            if bindings.get(pat, con) != con:
                return None
            bindings[pat] = con
        elif pat != con:
            return None
    return bindings


def _check_distribution(dist: dict, where: str, loc, out: list):
    total = 0.0
    for state, prob in dist.items():
        if not (isinstance(prob, (int, float)) and -PROB_TOL <= prob <= 1 + PROB_TOL):
            out.append(Diagnostic("bad-probability", f"{where}: probability {prob!r} outside [0,1]", *(loc or (None, None))))
        total += prob
    if abs(total - 1.0) > PROB_TOL:
        out.append(Diagnostic("normalization", f"{where}: distribution sums to {total:.12g}, not 1", *(loc or (None, None))))


def _check_atom(atom: GroundAtom, kb: KnowledgeBase, where: str, loc, out: list, kind: str = None):
    schema = kb.schemas.get(atom.name)
    if schema is None:
        out.append(Diagnostic("unknown-predicate", f"{where}: {atom} references undeclared predicate", *(loc or (None, None))))
        return
    if len(atom.args) != schema.arity:
        out.append(Diagnostic("arity", f"{where}: {atom} has arity {len(atom.args)}, schema expects {schema.arity}", *(loc or (None, None))))
    if kind is not None and schema.kind != kind:
        out.append(Diagnostic(
            "kind-mismatch",
            f"{where}: {atom} must be {kind}-kind, but schema {atom.name} is {schema.kind}",
            *(loc or (None, None)),
        ))


def validate_kb(kb: KnowledgeBase) -> list:
    """Check every knowledge-base invariant; returns diagnostics (empty when clean).

    Pure: the same knowledge base always yields the same diagnostics.
    """
    out = []
    for schema in kb.schemas.values():
        if not schema.states:
            out.append(Diagnostic("empty-states", f"predicate {schema.name} declares no states"))
        if len(set(schema.states)) != len(schema.states):
            out.append(Diagnostic("duplicate-state", f"predicate {schema.name} has duplicate state labels"))

    for (name, level), action in sorted(kb.actions.items()):
        where = f"action {name}/{level}"
        loc = action.loc
        for atom in action.predecessors:
            _check_atom(atom, kb, f"{where} predecessor", loc, out)
        for atom, rows in action.consequences:
            _check_atom(atom, kb, f"{where} consequence", loc, out)
            schema = kb.schemas.get(atom.name)
            if schema is not None and schema.kind != "primitive":
                out.append(Diagnostic(
                    "derived-as-consequence",
                    f"{where}: consequence {atom} is a derived predicate; consequences must be primitive",
                    *(loc or (None, None)),
                ))
            seen = []
            for row in rows:
                key = tuple(sorted(((str(k), str(v)) for k, v in row.condition.items())))
                if key in seen:
                    out.append(Diagnostic("duplicate-row", f"{where}: {atom} repeats condition {dict(row.condition)}", *((row.loc or loc) or (None, None))))
                seen.append(key)
                _check_distribution(row.distribution, f"{where} effect {atom}", row.loc or loc, out)
        for cond in action.during_conditions:
            _check_atom(cond.atom, kb, f"{where} during-cond", loc, out)
        for atom, rows in action.during_effects:
            _check_atom(atom, kb, f"{where} during-effect", loc, out, kind="primitive")
            for row in rows:
                _check_distribution(row.distribution, f"{where} during-effect {atom}", row.loc or loc, out)
        if action.duration is not None:
            if any(d < 0 for d in action.duration):
                out.append(Diagnostic("negative-duration", f"{where}: duration support must be nonnegative", *(loc or (None, None))))
            _check_distribution(action.duration, f"{where} duration", loc, out)

    for name, model in sorted(kb.persistence.items()):
        where = f"persistence {model.atom}"
        loc = model.loc
        _check_atom(model.atom, kb, where, loc, out)
        if model.buckets is not None:
            cursor = 0.0
            for lo, hi in model.buckets:
                if lo != cursor:
                    out.append(Diagnostic("bucket-gap", f"{where}: elapsed buckets must tile [0,inf) without gaps", *(loc or (None, None))))
                    break
                cursor = hi
            else:
                if not math.isinf(cursor):
                    out.append(Diagnostic("bucket-gap", f"{where}: elapsed buckets must extend to inf", *(loc or (None, None))))
        for row in model.rows:
            row_loc = row.loc or loc
            if row.bucket is not None and (model.buckets is None or row.bucket not in model.buckets):
                out.append(Diagnostic("unknown-bucket", f"{where}: row bucket {row.bucket} not declared", *(row_loc or (None, None))))
            _check_distribution(row.distribution, where, row_loc, out)

    seen_defs = []
    for definition in kb.derived:
        where = f"derived {definition.atom}"
        loc = definition.loc
        _check_atom(definition.atom, kb, where, loc, out, kind="derived")
        key = str(definition.atom)
        if key in seen_defs:
            out.append(Diagnostic("duplicate-derived", f"{where}: repeated definition", *(loc or (None, None))))
        seen_defs.append(key)
        for parent in definition.parents:
            _check_atom(parent, kb, f"{where} parent", loc, out, kind="primitive")
        for row in definition.rows:
            _check_distribution(row.distribution, where, row.loc or loc, out)

    return out
