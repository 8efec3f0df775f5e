"""XPath-subset query layer: parse → plan (cost-based) → execute."""

from .ast import Comparison, Path, Step
from .evaluator import evaluate_naive
from .executor import execute_plan
from .parser import parse_query
from .plan import (
    AncestorWalk,
    FullScan,
    IndexLookup,
    Intersect,
    PlanNode,
    StructuralVerify,
    Union,
    render_plan,
)
from .planner import (
    Explanation,
    build_plan,
    explain,
    query,
    query_columns,
    query_rows,
)

__all__ = [
    "AncestorWalk",
    "Comparison",
    "Explanation",
    "FullScan",
    "IndexLookup",
    "Intersect",
    "Path",
    "PlanNode",
    "Step",
    "StructuralVerify",
    "Union",
    "build_plan",
    "evaluate_naive",
    "execute_plan",
    "explain",
    "parse_query",
    "query",
    "query_columns",
    "query_rows",
    "render_plan",
]
