"""planeval: compile plans into plan-evaluation belief networks and query them."""

from .build import (
    GATE_EFFECT_ONLY,
    NEGATIVE,
    NONNEGATIVE,
    NULLIFY_ACTION,
    BuildOptions,
    Schedule,
    build_pe_net,
    make_schedule,
    split_situations,
)
from .dsl import SourceDocument, parse_kb, parse_plan, print_kb
from .errors import (
    ArityMismatch,
    BuildError,
    CyclicOrder,
    IncompleteCPT,
    InfeasibleEvidence,
    LayeringViolation,
    MalformedExpansion,
    MissingDuration,
    PlanEvalError,
    TooLarge,
    UnboundVariable,
    UnknownConditionNode,
    WidthExceeded,
    ZeroWeight,
)
from .export import export_graph
from .inference import (
    Query,
    QueryResult,
    exact_query,
    joint_distribution,
    leads_to_success,
    mc_query,
    oracle_enumerate,
    plan_success,
)
from .model import (
    OTHER,
    ActionModel,
    ConditionalRow,
    DerivedDefinition,
    Diagnostic,
    DuringCondition,
    GroundAtom,
    KnowledgeBase,
    PersistenceModel,
    PersistenceRow,
    PredicateSchema,
    SelRef,
    instantiate,
    unify,
    validate_kb,
)
from .net import (
    Fragment,
    FragmentNode,
    FragmentRow,
    Node,
    NodeId,
    PENet,
    SituationId,
    atom_node,
    canonical_dump,
    clock_node,
    dur_node,
    finalize,
    parse_situation,
    paste_into,
    paste_onto,
    ret_node,
    sel_node,
)
from .plan import (
    NOOP,
    ContingencyGroup,
    ExpansionAlternative,
    ExpansionNode,
    Plan,
    PlanStep,
    ResidualEffect,
    flatten_hierarchy,
    linearize,
)
from .cli import run_cli

__version__ = "0.1.0"
