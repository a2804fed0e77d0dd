"""Declarative query layer over GDI transactions (Cypher-lite).

The paper positions GDI as the storage-and-transaction layer *beneath* a
graph-database query front-end (Sections 1, 3); this package is that
front-end.  It follows the classic pipeline of a declarative engine
(*A1: A Distributed In-Memory Graph Database* uses the same shape over
one-sided reads):

1. :mod:`repro.query.lexer` + :mod:`repro.query.parser` — a tokenizer and
   recursive-descent parser for a Cypher-lite pattern language, producing
   the AST of :mod:`repro.query.ast`;
2. :mod:`repro.query.planner` — rule-based rewrites (predicate pushdown
   into GDI DNF :class:`~repro.gdi.constraint.Constraint`\\ s, point
   lookups routed to the DHT, label/property scans routed to
   :class:`~repro.gda.index_impl.ExplicitIndex`) plus cost-based join
   ordering driven by index/label cardinalities and the RMA cost model;
3. :mod:`repro.query.physical` — batched, vectorized operators that run
   inside a single GDI transaction and prefetch whole frontiers through
   the batched RMA read paths (``find_vertices``/``associate_vertices``);
   :mod:`repro.query.shaping` shapes the result rows and, in a
   collective transaction, combines the ranks' shard-local rows;
4. :mod:`repro.query.engine` — the :class:`QueryEngine` facade with a
   plan cache (hits skip parse+plan), ``EXPLAIN``/``PROFILE`` output and
   per-operator RMA counters wired into the trace recorder;
5. :mod:`repro.query.reference` — a naive full-scan interpreter used as a
   correctness oracle by the property-based equivalence suite.
"""

from .ast import Query
from .engine import QueryEngine, QueryResult
from .errors import QueryError, QueryPlanError, QuerySyntaxError
from .parser import parse_query
from .planner import plan_query
from .reference import run_reference

__all__ = [
    "Query",
    "QueryEngine",
    "QueryResult",
    "QueryError",
    "QueryPlanError",
    "QuerySyntaxError",
    "parse_query",
    "plan_query",
    "run_reference",
]
