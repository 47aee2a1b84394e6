"""planeval: compile plans into plan-evaluation belief networks and query them.

The package root holds the library API the README shows, the typed failures
it documents and the seams ``perfbench/`` drives; everything else is imported
from its defining module (``planeval.net``, ``planeval.model``, ...).
"""

from .build import BuildOptions, Schedule, build_pe_net
from .dsl import SourceDocument, parse_kb, parse_plan
from .errors import BuildError, InfeasibleEvidence, PlanEvalError, TooLarge, WidthExceeded, ZeroWeight
from .inference import Query, exact_query, leads_to_success, mc_query, plan_success
from .model import GroundAtom, instantiate, validate_kb
from .net import PENet, canonical_dump, clock_node
from .plan import flatten_hierarchy, linearize
from .cli import run_cli

__version__ = "0.1.0"
