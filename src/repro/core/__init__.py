"""ACQUIRE core: the paper's primary contribution.

The central entry point is :class:`~repro.core.acquire.Acquire`
(paper Algorithm 4), which combines the Expand phase
(:mod:`repro.core.expand`, Algorithms 1-2) and the Explore phase with
incremental aggregate computation (:mod:`repro.core.explore`,
Algorithm 3 and Equations 5-17).
"""

from repro.core.interval import Interval
from repro.core.aggregates import (
    AVG,
    COUNT,
    MAX,
    MIN,
    SUM,
    AggregateSpec,
    OSPAggregate,
    UserDefinedAggregate,
    get_aggregate,
)
from repro.core.error import (
    AggregateErrorFunction,
    HingeError,
    RelativeError,
    default_error_for,
)
from repro.core.scoring import LInfNorm, LpNorm, Norm, pscore_interval
from repro.core.predicate import (
    Direction,
    JoinPredicate,
    CategoricalPredicate,
    Predicate,
    SelectPredicate,
)
from repro.core.query import AggregateConstraint, ConstraintOp, Query
from repro.core.refined_space import RefinedSpace
from repro.core.expand import LInfLayerTraversal, LpBestFirstTraversal, make_traversal
from repro.core.explore import Explorer, SubAggregateStore
from repro.core.acquire import Acquire, AcquireConfig
from repro.core.result import AcquireResult, RefinedQuery
from repro.core.ontology import OntologyTree
from repro.core.contraction import contract_query

__all__ = [
    "Interval",
    "AggregateSpec",
    "OSPAggregate",
    "UserDefinedAggregate",
    "COUNT",
    "SUM",
    "MIN",
    "MAX",
    "AVG",
    "get_aggregate",
    "AggregateErrorFunction",
    "RelativeError",
    "HingeError",
    "default_error_for",
    "Norm",
    "LpNorm",
    "LInfNorm",
    "pscore_interval",
    "Direction",
    "Predicate",
    "SelectPredicate",
    "JoinPredicate",
    "CategoricalPredicate",
    "Query",
    "AggregateConstraint",
    "ConstraintOp",
    "RefinedSpace",
    "LpBestFirstTraversal",
    "LInfLayerTraversal",
    "make_traversal",
    "Explorer",
    "SubAggregateStore",
    "Acquire",
    "AcquireConfig",
    "AcquireResult",
    "RefinedQuery",
    "OntologyTree",
    "contract_query",
]
