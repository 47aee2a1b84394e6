"""The model/plan domain language: parsing, diagnostics, canonical printing.

Knowledge-base files declare predicates, action models, persistence models,
and derived definitions::

    predicate (Loc ?obj) kind=primitive states { L1 L2 L3 }
    predicate (At ?loc) kind=derived states { X NONE }

    action (Move ?obj ?from ?to) level=0 {
      duration { 2:0.5 4:0.5 }
      effect (Loc ?obj) {
        (Loc ?obj)=?from -> { ?to:0.9 ?from:0.1 }
      }
      during-cond (Power)=on gates (Loc ?obj)
      during-effect (Noise) {
        quiet -> { loud:1.0 }
        (Power)=off -> { quiet:1.0 }
      }
    }

    persistence (Loc ?obj) elapsed { [0,3) [3,inf) } {
      L1 [0,3) -> { L1:0.9 L2:0.1 }
    }

    derived (At L1) from { (Loc X) } {
      (Loc X)=L1 -> { X:1.0 }
      (Loc X)=L2 -> { NONE:1.0 }
    }

Plan files declare steps, orderings, contingencies, expansions, the initial
state, and goals::

    step s1 a1 (Move A L1 L2) start=b0 end=b1
    before b0 b1
    contingent at b1 { (Loc A)=L2 -> s2  (Loc A)=L1 -> noop }
    expand sC {
      selected c1 { step c1a a1 (Fix X) start=b1 end=b2 }
      alt c2 (Workaround X) cond=(Risk)=high
    }
    initial { (Loc A)=L1 (Loc B)=L3:0.8 (Loc B)=L1:0.2 }
    goal { (Loc B)=L1 }

Effect-row conditions are conjunctions of ``(Pred args)=state`` terms (``*``
for unconditional); ``sel(boundary)=step-id`` conditions reference an earlier
contingency's selection. A during-effect row may instead start with a bare
state of its own atom: ``quiet -> { loud:1.0 }`` above is short for
``(Noise)=quiet -> { loud:1.0 }``. A ``#`` starts a comment.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CyclicOrder, MalformedExpansion, PlanEvalError
from .model import (
    ActionModel,
    ConditionalRow,
    Diagnostic,
    DerivedDefinition,
    DuringCondition,
    GroundAtom,
    KnowledgeBase,
    PersistenceModel,
    PersistenceRow,
    PredicateSchema,
    SelRef,
    format_bucket,
    is_variable,
)
from .plan import (
    ContingencyGroup,
    ExpansionAlternative,
    ExpansionNode,
    Plan,
    PlanStep,
    flatten_hierarchy,
    linearize,
)

@dataclass
class SourceDocument:
    text: str
    origin: str = "<string>"


@dataclass
class Token:
    kind: str  # word | punct | bucket | eof
    text: str
    line: int
    col: int


class ParseError(Exception):
    def __init__(self, message: str, token: Token):
        self.message = message
        self.token = token
        super().__init__(message)


def _tokenize(doc: SourceDocument) -> list:
    tokens = []
    line, col = 1, 1
    text = doc.text
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch in "(){}=:":
            tokens.append(Token("punct", ch, start_line, start_col))
            i += 1
            col += 1
            continue
        if ch == "-" and i + 1 < n and text[i + 1] == ">":
            tokens.append(Token("punct", "->", start_line, start_col))
            i += 2
            col += 2
            continue
        if ch == "[":
            j = i
            while j < n and text[j] not in ")]\n":
                j += 1
            if j < n and text[j] in ")]":
                j += 1
            tokens.append(Token("bucket", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        j = i
        while j < n:
            cj = text[j]
            if cj in "(){}=: \t\r\n#[":
                break
            if cj == "-" and j + 1 < n and text[j + 1] == ">":
                break
            j += 1
        tokens.append(Token("word", text[i:j], start_line, start_col))
        col += j - i
        i = j
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, doc: SourceDocument):
        self.tokens = _tokenize(doc)
        self.pos = 0
        self.diagnostics = []

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect_punct(self, text: str) -> Token:
        tok = self.next()
        if tok.kind != "punct" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok)
        return tok

    def expect_word(self, what: str = "name") -> Token:
        tok = self.next()
        if tok.kind != "word":
            raise ParseError(f"expected {what}, found {tok.text!r}", tok)
        return tok

    def keyword(self, word: str, message: str):
        """Read the word ``word``; any other word is reported, at the token after it."""
        if self.expect_word().text != word:
            raise ParseError(message, self.peek())

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == text

    def at_word(self, text: str = None) -> bool:
        tok = self.peek()
        return tok.kind == "word" and (text is None or tok.text == text)

    def report(self, code: str, message: str, tok: Token):
        self.diagnostics.append(Diagnostic(code, message, tok.line, tok.col))

    def statements(self, table: dict, what: str):
        """Read statements to the end of the input, each by the reader its keyword names.

        A statement that does not parse is reported as ``syntax``; reading
        resumes at the next keyword of ``table`` outside braces.
        """
        while self.peek().kind != "eof":
            tok = self.peek()
            try:
                if tok.text not in table:
                    raise ParseError(f"expected {what}, found {tok.text!r}", tok)
                table[tok.text]()
            except ParseError as err:
                self.report("syntax", err.message, err.token)
                self.next()
                self.recover(table)

    def recover(self, keywords):
        """Skip to the next top-level keyword (brace depth zero) or to the end."""
        depth = 0
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind == "word" and depth == 0 and tok.text in keywords:
                return
            if tok.kind == "punct" and tok.text == "{":
                depth += 1
            elif tok.kind == "punct" and tok.text == "}":
                depth = max(depth - 1, 0)
            self.next()

    # -- shared constructs ---------------------------------------------------

    def braced(self, item) -> list:
        """Read ``{ item … }``; returns what each call of ``item`` read."""
        self.expect_punct("{")
        items = []
        while not self.at_punct("}"):
            items.append(item())
        self.expect_punct("}")
        return items

    def parse_atom(self) -> GroundAtom:
        self.expect_punct("(")
        name = self.expect_word("predicate name").text
        args = []
        while not self.at_punct(")"):
            args.append(self.expect_word("argument").text)
        self.expect_punct(")")
        return GroundAtom(name, tuple(args))

    def parse_number(self) -> float:
        tok = self.expect_word("number")
        try:
            return float(tok.text)
        except ValueError:
            raise ParseError(f"expected a number, found {tok.text!r}", tok)

    def parse_dist(self, int_keys: bool = False) -> dict:
        dist = {}

        def entry():
            key_tok = self.expect_word("state label")
            key = key_tok.text
            if int_keys:
                try:
                    key = int(key)
                except ValueError:
                    raise ParseError(f"expected an integer, found {key!r}", key_tok)
            self.expect_punct(":")
            prob = self.parse_number()
            if key in dist:
                raise ParseError(f"duplicate entry {key!r} in distribution", key_tok)
            dist[key] = prob

        self.braced(entry)
        return dist

    def parse_condition_items(self) -> dict:
        """Zero or more `(Pred args)=state` / `sel(b)=label` terms; `*` means none."""
        condition = {}
        if self.at_word("*"):
            self.next()
            return condition
        while True:
            if self.at_punct("("):
                key = self.parse_atom()
            elif self.at_word("sel"):
                self.next()
                self.expect_punct("(")
                boundary = self.expect_word("boundary").text
                self.expect_punct(")")
                key = SelRef(boundary)
            else:
                break
            self.expect_punct("=")
            condition[key] = self.expect_word("state").text
        return condition

    def parse_rows(self, shorthand_for: GroundAtom = None) -> list:
        """``{ condition -> distribution … }``.

        With ``shorthand_for`` (a during-effect's atom) a row may start with a
        bare state instead, short for ``shorthand_for=state``.
        """

        def row():
            head = self.peek()
            if shorthand_for is None or self.at_punct("(") or self.at_word("*") or self.at_punct("->"):
                condition = self.parse_condition_items()
            else:
                condition = {shorthand_for: self.expect_word("state").text}
            self.expect_punct("->")
            return ConditionalRow(condition, self.parse_dist(), loc=(head.line, head.col))

        return self.braced(row)

    def parse_bucket(self) -> tuple:
        tok = self.next()
        if tok.kind != "bucket":
            raise ParseError(f"expected an elapsed bucket like [0,3), found {tok.text!r}", tok)
        body = tok.text
        if not (body.startswith("[") and body.endswith(")")):
            raise ParseError(f"elapsed buckets are half-open: [lo,hi), found {body!r}", tok)
        try:
            lo, hi = (float(part) for part in body[1:-1].split(","))
        except ValueError:  # a bound that is no number, or not exactly two bounds
            raise ParseError(f"malformed bucket {body!r}", tok)
        return (lo, hi)


# ---------------------------------------------------------------------------
# knowledge-base files
# ---------------------------------------------------------------------------


def parse_kb(doc: SourceDocument):
    """Parse a knowledge-base document; returns (KnowledgeBase, diagnostics)."""
    parser = _Parser(doc)
    kb = KnowledgeBase()
    parser.statements({
        "predicate": lambda: _parse_predicate(parser, kb),
        "action": lambda: _parse_action(parser, kb),
        "persistence": lambda: _parse_persistence(parser, kb),
        "derived": lambda: _parse_derived(parser, kb),
    }, "a declaration")
    return kb, parser.diagnostics


def _parse_predicate(parser: _Parser, kb: KnowledgeBase):
    head = parser.next()
    atom = parser.parse_atom()
    parser.keyword("kind", "expected kind=primitive|derived")
    parser.expect_punct("=")
    kind = parser.expect_word("kind").text
    if kind not in ("primitive", "derived"):
        raise ParseError(f"kind must be primitive or derived, found {kind!r}", head)
    parser.keyword("states", "expected states { ... }")
    states = parser.braced(lambda: parser.expect_word("state label").text)
    if atom.name in kb.schemas:
        parser.report("redefined", f"predicate {atom.name} already declared", head)
        return
    kb.schemas[atom.name] = PredicateSchema(atom.name, tuple(atom.args), tuple(states), kind)


def _parse_action(parser: _Parser, kb: KnowledgeBase):
    head = parser.next()
    atom = parser.parse_atom()
    for arg in atom.args:
        if not is_variable(arg):
            parser.report("parameter", f"action parameter {arg!r} must be a ?variable", head)
    level = 0
    if parser.at_word("level"):
        parser.next()
        parser.expect_punct("=")
        level_tok = parser.peek()
        value = parser.parse_number()
        if not value.is_integer():
            raise ParseError(f"action level must be an integer, found {level_tok.text!r}", level_tok)
        level = int(value)
    model = ActionModel(atom.name, tuple(atom.args), level, loc=(head.line, head.col))

    def clause():
        word = parser.expect_word("action clause").text
        if word == "duration":
            model.duration = parser.parse_dist(int_keys=True)
        elif word == "effect":
            target = parser.parse_atom()
            model.consequences.append((target, parser.parse_rows()))
        elif word == "during-cond":
            cond_atom = parser.parse_atom()
            parser.expect_punct("=")
            state = parser.expect_word("state").text
            gates = None
            if parser.at_word("gates"):
                parser.next()
                gates = []
                while parser.at_punct("("):
                    gates.append(parser.parse_atom())
                gates = tuple(gates)
            model.during_conditions.append(DuringCondition(cond_atom, state, gates))
        elif word == "during-effect":
            target = parser.parse_atom()
            model.during_effects.append((target, parser.parse_rows(shorthand_for=target)))
        else:
            raise ParseError(f"unknown action clause {word!r}", parser.peek())

    parser.braced(clause)
    key = (atom.name, level)
    if key in kb.actions:
        parser.report("redefined", f"action {atom.name} level={level} already declared", head)
        return
    kb.actions[key] = model


def _parse_persistence(parser: _Parser, kb: KnowledgeBase):
    head = parser.next()
    atom = parser.parse_atom()
    buckets = None
    if parser.at_word("elapsed"):
        parser.next()
        buckets = parser.braced(parser.parse_bucket)

    def row():
        row_head = parser.peek()
        prev = parser.expect_word("previous state").text
        bucket = None
        if parser.peek().kind == "bucket":
            bucket = parser.parse_bucket()
        parser.expect_punct("->")
        return PersistenceRow(prev, parser.parse_dist(), bucket, loc=(row_head.line, row_head.col))

    rows = parser.braced(row)
    if atom.name in kb.persistence:
        parser.report("redefined", f"persistence model for {atom.name} already declared", head)
        return
    kb.persistence[atom.name] = PersistenceModel(atom, rows, buckets, loc=(head.line, head.col))


def _parse_derived(parser: _Parser, kb: KnowledgeBase):
    head = parser.next()
    atom = parser.parse_atom()
    parser.keyword("from", "expected from { parents }")
    parents = parser.braced(parser.parse_atom)
    rows = parser.parse_rows()
    kb.derived.append(DerivedDefinition(atom, parents, rows, loc=(head.line, head.col)))


# ---------------------------------------------------------------------------
# plan files
# ---------------------------------------------------------------------------


def parse_plan(doc: SourceDocument, kb: KnowledgeBase):
    """Parse a plan document against a validated KB; returns (Plan, diagnostics)."""
    parser = _Parser(doc)
    plan = Plan()
    known_steps = {}  # every declared step, including expansion sub-steps

    def step():
        found = _parse_step(parser, kb, known_steps)
        if found is not None:
            plan.steps.append(found)

    parser.statements({
        "step": step,
        "before": lambda: _parse_before(parser, plan),
        "contingent": lambda: _parse_contingent(parser, plan),
        "expand": lambda: _parse_expand(parser, kb, plan, known_steps),
        "initial": lambda: _parse_initial(parser, kb, plan),
        "goal": lambda: _parse_goal(parser, kb, plan),
    }, "a plan statement")
    _check_plan(parser, kb, plan)
    return plan, parser.diagnostics


def _resolve_model(parser: _Parser, kb: KnowledgeBase, action: GroundAtom, tok: Token):
    try:
        model = kb.find_action(action.name)
    except KeyError as err:
        parser.report("unknown-action", str(err), tok)
        return None
    if len(action.args) != len(model.params):
        parser.report(
            "arity",
            f"{action} has {len(action.args)} arguments; {action.name} expects {len(model.params)}",
            tok,
        )
        return None
    return model


def _parse_step(parser: _Parser, kb: KnowledgeBase, known_steps: dict) -> PlanStep:
    """Read a step and record it in ``known_steps``; None when its action does not resolve."""
    head = parser.next()
    step_id = parser.expect_word("step id").text
    agent = parser.expect_word("agent").text
    action = parser.parse_atom()
    parser.keyword("start", "expected start=<boundary>")
    parser.expect_punct("=")
    start = parser.expect_word("boundary").text
    parser.keyword("end", "expected end=<boundary>")
    parser.expect_punct("=")
    end = parser.expect_word("boundary").text
    if start == end:
        parser.report("span", f"step {step_id} starts and ends at {start!r}", head)
    model = _resolve_model(parser, kb, action, head)
    if model is None:
        return None
    step = PlanStep(step_id, agent, action, model, start, end)
    known_steps[step_id] = step
    return step


def _parse_before(parser: _Parser, plan: Plan):
    parser.next()
    before = parser.expect_word("boundary").text
    after = parser.expect_word("boundary").text
    plan.order.append((before, after))


def _parse_contingent(parser: _Parser, plan: Plan):
    parser.next()
    parser.keyword("at", "expected contingent at <boundary> { ... }")
    boundary = parser.expect_word("boundary").text
    alternatives = []

    def row():
        condition = parser.parse_condition_items()
        parser.expect_punct("->")
        if parser.at_punct("{"):
            dist = parser.parse_dist()
        else:
            dist = {parser.expect_word("step id or noop").text: 1.0}
        for label in dist:
            if label != "noop" and label not in alternatives:
                alternatives.append(label)
        return ConditionalRow(condition, dist)

    selector = parser.braced(row)
    plan.contingencies.append(ContingencyGroup(boundary, alternatives, selector, origin="plain"))


def _parse_expand(parser: _Parser, kb: KnowledgeBase, plan: Plan, known_steps: dict):
    head = parser.next()
    step_id = parser.expect_word("step id").text
    abstract = known_steps.get(step_id)
    if abstract is None:
        raise ParseError(f"expand references unknown step {step_id!r}", head)
    selected = None

    def sub_step():
        if not parser.at_word("step"):
            parser.expect_punct("}")  # raises: a sub-plan block holds steps only
        return _parse_step(parser, kb, known_steps)

    def alternative():
        nonlocal selected
        word = parser.expect_word("selected|alt").text
        if word not in ("selected", "alt"):
            raise ParseError(f"expected 'selected' or 'alt', found {word!r}", parser.peek())
        label = parser.expect_word("alternative label").text
        if parser.at_punct("{"):
            steps = [sub for sub in parser.braced(sub_step) if sub is not None]
        elif parser.at_punct("("):
            action = parser.parse_atom()
            model = _resolve_model(parser, kb, action, head)
            steps = []
            if model is not None:
                steps.append(PlanStep(label, abstract.agent, action, model, abstract.start, abstract.end))
                known_steps[label] = steps[0]
        else:
            raise ParseError("expected a sub-plan block or an action", parser.peek())
        condition = {}
        if parser.at_word("cond"):
            parser.next()
            parser.expect_punct("=")
            condition = parser.parse_condition_items()
            if not condition:
                raise ParseError("cond= needs at least one condition term", parser.peek())
        if word == "selected":
            if selected is not None:
                raise ParseError("an expansion can select only one alternative", parser.peek())
            selected = label
        return ExpansionAlternative(label, steps, condition)

    alternatives = parser.braced(alternative)
    if selected is None:
        raise ParseError(f"expansion of {step_id} marks no alternative as selected", head)
    plan.expansions.append(ExpansionNode(step_id, alternatives, selected))


def _check_atom(parser: _Parser, kb: KnowledgeBase, atom: GroundAtom, where: str, tok: Token):
    schema = kb.schemas.get(atom.name)
    if schema is None:
        parser.report("unknown-predicate", f"{where}: {atom} is not declared", tok)
        return
    if len(atom.args) != schema.arity:
        parser.report("arity", f"{where}: {atom} has arity {len(atom.args)}, expected {schema.arity}", tok)


def _parse_entries(parser: _Parser, kb: KnowledgeBase, add):
    """Read ``initial|goal { (Pred args)=state … }``, calling add(head token, atom, state) per entry."""
    where = parser.next().text

    def entry():
        head = parser.peek()
        atom = parser.parse_atom()
        _check_atom(parser, kb, atom, where, head)
        parser.expect_punct("=")
        add(head, atom, parser.expect_word("state").text)

    parser.braced(entry)


def _parse_initial(parser: _Parser, kb: KnowledgeBase, plan: Plan):
    def add(head, atom, state):
        prob = 1.0
        if parser.at_punct(":"):
            parser.next()
            prob = parser.parse_number()
        dist = plan.initial.setdefault(atom, {})
        if state in dist:
            parser.report("duplicate", f"initial state listed twice for {atom}={state}", head)
        dist[state] = prob

    _parse_entries(parser, kb, add)


def _parse_goal(parser: _Parser, kb: KnowledgeBase, plan: Plan):
    _parse_entries(parser, kb, lambda _head, atom, state: plan.goals.append((atom, state)))


def _check_plan(parser: _Parser, kb: KnowledgeBase, plan: Plan):
    tok = Token("word", "", 0, 0)  # whole-plan properties have no single location

    for atom, dist in plan.initial.items():
        total = sum(dist.values())
        if abs(total - 1.0) > 1e-9:
            parser.report("normalization", f"initial distribution for {atom} sums to {total:.12g}", tok)
    step_ids = {s.id for s in plan.steps}
    for group in plan.contingencies:
        for label in group.alternatives:
            if label != "noop" and label not in step_ids:
                parser.report("unknown-step", f"contingency at {group.boundary} references unknown step {label!r}", tok)
        for row in group.selector:
            for key in row.condition:
                if isinstance(key, GroundAtom):
                    _check_atom(parser, kb, key, f"contingency at {group.boundary}", tok)
    if parser.diagnostics:
        return
    try:
        linearize(flatten_hierarchy(plan))
    except CyclicOrder as err:
        parser.report("cyclic-order", str(err), tok)
    except (MalformedExpansion, PlanEvalError) as err:
        parser.report("plan", str(err), tok)


# ---------------------------------------------------------------------------
# canonical printer (round-trip partner of parse_kb)
# ---------------------------------------------------------------------------


def _braces(words) -> str:
    return "{ " + " ".join(words) + " }"


def _fmt_dist(dist: dict) -> str:
    return _braces(f"{k}:{float(v)!r}" for k, v in dist.items())


def _fmt_row(row) -> str:
    if isinstance(row, PersistenceRow):
        head = row.prev if row.bucket is None else f"{row.prev} {format_bucket(row.bucket)}"
    elif row.condition:
        head = " ".join(f"{key}={state}" for key, state in row.condition.items())
    else:
        head = "*"
    return f"{head} -> {_fmt_dist(row.distribution)}"


def _fmt_rows(header: str, rows: list, indent: str = "") -> list:
    """The lines of ``header { row … }``, one row a line, indented by ``indent``."""
    return [f"{indent}{header} {{", *(f"{indent}  {_fmt_row(row)}" for row in rows), f"{indent}}}"]


def print_kb(kb: KnowledgeBase) -> str:
    """Canonical text for a knowledge base; parse_kb(print_kb(kb)) == kb."""
    lines = []
    for name in sorted(kb.schemas):
        schema = kb.schemas[name]
        head = GroundAtom(schema.name, schema.params)
        lines.append(f"predicate {head} kind={schema.kind} states {_braces(schema.states)}")
    for (name, level) in sorted(kb.actions):
        model = kb.actions[(name, level)]
        head = GroundAtom(model.name, model.params)
        lines.append(f"action {head} level={level} {{")
        if model.duration is not None:
            lines.append(f"  duration {_fmt_dist(model.duration)}")
        for atom, rows in model.consequences:
            lines.extend(_fmt_rows(f"effect {atom}", rows, "  "))
        for cond in model.during_conditions:
            gates = "" if cond.gates is None else " gates " + " ".join(str(g) for g in cond.gates)
            lines.append(f"  during-cond {cond.atom}={cond.state}{gates}")
        for atom, rows in model.during_effects:
            lines.extend(_fmt_rows(f"during-effect {atom}", rows, "  "))
        lines.append("}")
    for name in sorted(kb.persistence):
        model = kb.persistence[name]
        elapsed = "" if model.buckets is None else " elapsed " + _braces(format_bucket(b) for b in model.buckets)
        lines.extend(_fmt_rows(f"persistence {model.atom}{elapsed}", model.rows))
    for definition in kb.derived:
        parents = _braces(str(p) for p in definition.parents)
        lines.extend(_fmt_rows(f"derived {definition.atom} from {parents}", definition.rows))
    return "\n".join(lines) + "\n"


def parse_evidence_spec(text: str):
    """Parse an evidence argument like ``(Loc A)=L2@S1`` into (atom, state, situation text)."""
    if "@" not in text:
        raise PlanEvalError(f"evidence {text!r} must pin a situation with @S<i>")
    body, sit = text.rsplit("@", 1)
    if "=" not in body:
        raise PlanEvalError(f"evidence {text!r} must have the form (Pred args)=state@S<i>")
    atom_text, state = body.rsplit("=", 1)
    return GroundAtom.parse(atom_text), state.strip(), sit.strip()


def parse_marginal_spec(text: str):
    """Parse a marginal argument like ``(Loc A)@S1`` into (atom, situation text)."""
    if "@" not in text:
        raise PlanEvalError(f"marginal {text!r} must pin a situation with @S<i>")
    body, sit = text.rsplit("@", 1)
    return GroundAtom.parse(body), sit.strip()
