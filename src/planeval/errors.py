"""Exception types shared across the package."""


class PlanEvalError(Exception):
    """Base class for all errors raised by this package."""


class UnboundVariable(PlanEvalError):
    """A pattern variable has no binding."""


class ArityMismatch(PlanEvalError):
    """Argument count does not match the predicate schema."""


class CyclicOrder(PlanEvalError):
    """The ordering constraints contain a cycle."""


class MalformedExpansion(PlanEvalError):
    """A sub-plan escapes its abstract step's boundary interval."""


class LayeringViolation(PlanEvalError):
    """An arc breaks the primitive/derived situation-layering rules."""


class IncompleteCPT(PlanEvalError):
    """A node is missing a row for a reachable parent-state combination."""

    def __init__(self, node_id, combo):
        self.node_id = node_id
        self.combo = combo
        super().__init__(f"node {node_id} has no row for parent combination {combo!r}")


class UnknownConditionNode(PlanEvalError):
    """A contingency selector references a node that does not exist."""


class MissingDuration(PlanEvalError):
    """Clock construction needs a duration distribution that is absent."""


class InfeasibleEvidence(PlanEvalError):
    """The query's evidence has probability zero."""


class WidthExceeded(PlanEvalError):
    """Exact inference would exceed the configured induced-width guard."""

    def __init__(self, width, limit):
        self.width = width
        self.limit = limit
        super().__init__(f"induced width {width} exceeds limit {limit}; use Monte Carlo")


class ZeroWeight(PlanEvalError):
    """Every Monte Carlo sample was inconsistent with the evidence."""


class TooLarge(PlanEvalError):
    """A query would exceed a size bound: joint states, factor cells or samples."""


class BuildError(PlanEvalError):
    """Wraps an error raised inside the construction pipeline with stage context."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"pipeline stage '{stage}': {cause}")
