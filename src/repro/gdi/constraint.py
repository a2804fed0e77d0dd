"""GDI constraints: boolean formulas in disjunctive normal form (DNF).

Constraints (Section 3.6) describe conditions on labels and properties.
They are the query language of explicit indexes and of filtered
neighborhood traversals (e.g. Listing 3's edge-label filter).  A
constraint is a disjunction of conjunctions of atomic conditions:

* :class:`LabelCondition` — a label is present (or absent),
* :class:`PropertyCondition` — a property compares against a value, or
  merely exists/is absent.

Evaluation happens against the decoded label list and property entries of
one vertex or edge.  Multi-entry property types satisfy a comparison if
*any* entry does.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .errors import GdiInvalidArgument
from .types import Datatype, decode_value

__all__ = ["LabelCondition", "PropertyCondition", "Constraint"]


_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _compare(op: str, stored: Any, wanted: Any) -> bool:
    if isinstance(stored, np.ndarray) or isinstance(wanted, np.ndarray):
        if op == "==":
            return bool(np.array_equal(stored, wanted))
        if op == "!=":
            return not np.array_equal(stored, wanted)
        raise GdiInvalidArgument(f"operator {op!r} not defined for arrays")
    try:
        return bool(_OPS[op](stored, wanted))
    except TypeError as exc:
        raise GdiInvalidArgument(
            f"cannot compare {stored!r} {op} {wanted!r}"
        ) from exc


@dataclass(frozen=True)
class LabelCondition:
    """The element carries (``present=True``) or lacks a label."""

    label_id: int
    present: bool = True

    def evaluate(self, labels: Sequence[int], properties, dtype_of) -> bool:
        return (self.label_id in labels) == self.present


@dataclass(frozen=True)
class PropertyCondition:
    """A property of the element compares against a constant.

    ``op`` is one of ``== != < <= > >= exists absent``.  For ``exists`` /
    ``absent`` the ``value`` field is ignored.
    """

    ptype_id: int
    op: str = "exists"
    value: Any = None

    def __post_init__(self) -> None:
        if self.op not in _OPS and self.op not in ("exists", "absent"):
            raise GdiInvalidArgument(f"unknown property operator {self.op!r}")

    def evaluate(
        self,
        labels,
        properties: Sequence[tuple[int, bytes]],
        dtype_of: Callable[[int], Datatype],
    ) -> bool:
        entries = [blob for pid, blob in properties if pid == self.ptype_id]
        if self.op == "exists":
            return bool(entries)
        if self.op == "absent":
            return not entries
        dtype = dtype_of(self.ptype_id)
        return any(
            _compare(self.op, decode_value(dtype, blob), self.value)
            for blob in entries
        )


Condition = LabelCondition | PropertyCondition


@dataclass(frozen=True)
class Constraint:
    """A DNF formula: ``OR`` over conjunctions, each ``AND`` of conditions.

    An empty disjunction is unsatisfiable; an empty conjunction is
    trivially true (so ``Constraint.true()`` matches everything).
    """

    conjunctions: tuple[tuple[Condition, ...], ...]

    # -- construction -----------------------------------------------------
    @classmethod
    def of(cls, *conjunctions: Iterable[Condition]) -> "Constraint":
        return cls(tuple(tuple(c) for c in conjunctions))

    @classmethod
    def true(cls) -> "Constraint":
        return cls(((),))

    @classmethod
    def false(cls) -> "Constraint":
        return cls(())

    @classmethod
    def has_label(cls, label_id: int) -> "Constraint":
        return cls.of([LabelCondition(label_id)])

    @classmethod
    def prop(cls, ptype_id: int, op: str = "exists", value: Any = None) -> "Constraint":
        return cls.of([PropertyCondition(ptype_id, op, value)])

    # -- structural tests -------------------------------------------------
    def is_true(self) -> bool:
        """Trivially satisfied: some conjunction is empty."""
        return any(len(c) == 0 for c in self.conjunctions)

    def is_false(self) -> bool:
        """Unsatisfiable by structure: the disjunction is empty."""
        return not self.conjunctions

    # -- combinators (stay in DNF) ---------------------------------------
    def __or__(self, other: "Constraint") -> "Constraint":
        # Short-circuit the neutral/absorbing elements so planner-built
        # chains (``acc = acc | c``) never accumulate redundant terms.
        if self.is_true() or other.is_true():
            return Constraint.true()
        if self.is_false():
            return other
        if other.is_false():
            return self
        return Constraint(
            _dedupe_conjunctions(self.conjunctions + other.conjunctions)
        )

    def __and__(self, other: "Constraint") -> "Constraint":
        if self.is_false() or other.is_false():
            return Constraint.false()
        if self.is_true():
            return other
        if other.is_true():
            return self
        # DNF distribution; dedupe repeated conditions inside each product
        # conjunction and repeated conjunctions across the disjunction, so
        # ``c & c`` stays at c.n_conditions instead of squaring it.
        combined = tuple(
            _dedupe_conditions(a + b)
            for a in self.conjunctions
            for b in other.conjunctions
        )
        return Constraint(_dedupe_conjunctions(combined))

    def simplify(self) -> "Constraint":
        """Cheap logical simplification, preserving DNF and semantics.

        * drops duplicate conditions within each conjunction,
        * drops conjunctions containing a contradiction (the same label
          required present and absent, or the same property required both
          ``exists`` and ``absent``),
        * drops duplicate conjunctions and conjunctions *absorbed* by a
          subset conjunction (``A or (A and B)`` = ``A``),
        * collapses to :meth:`true`/:meth:`false` when the structure
          allows it.
        """
        kept: list[tuple[Condition, ...]] = []
        for conj in self.conjunctions:
            conj = _dedupe_conditions(conj)
            if _contradictory(conj):
                continue
            if not conj:
                return Constraint.true()
            kept.append(conj)
        # absorption: a conjunction whose condition set contains another
        # conjunction's set is redundant
        sets = [frozenset(c) for c in kept]
        out: list[tuple[Condition, ...]] = []
        for i, conj in enumerate(kept):
            absorbed = any(
                (j != i and sets[j] < sets[i])
                or (j < i and sets[j] == sets[i])
                for j in range(len(kept))
            )
            if not absorbed:
                out.append(conj)
        return Constraint(tuple(out))

    # -- evaluation ---------------------------------------------------------
    def evaluate(
        self,
        labels: Sequence[int],
        properties: Sequence[tuple[int, bytes]],
        dtype_of: Callable[[int], Datatype],
    ) -> bool:
        return any(
            all(cond.evaluate(labels, properties, dtype_of) for cond in conj)
            for conj in self.conjunctions
        )

    @property
    def n_conditions(self) -> int:
        return sum(len(c) for c in self.conjunctions)


def _dedupe_conditions(conj: tuple[Condition, ...]) -> tuple[Condition, ...]:
    """Drop repeated conditions, keeping first-occurrence order."""
    seen: set[Condition] = set()
    out: list[Condition] = []
    for cond in conj:
        if cond not in seen:
            seen.add(cond)
            out.append(cond)
    return tuple(out)


def _dedupe_conjunctions(
    conjunctions: tuple[tuple[Condition, ...], ...]
) -> tuple[tuple[Condition, ...], ...]:
    """Drop repeated conjunctions (as condition *sets*), keeping order."""
    seen: set[frozenset[Condition]] = set()
    out: list[tuple[Condition, ...]] = []
    for conj in conjunctions:
        key = frozenset(conj)
        if key not in seen:
            seen.add(key)
            out.append(conj)
    return tuple(out)


def _contradictory(conj: tuple[Condition, ...]) -> bool:
    """Does the conjunction require a label/property both ways at once?"""
    label_req: dict[int, bool] = {}
    prop_req: dict[int, str] = {}
    for cond in conj:
        if isinstance(cond, LabelCondition):
            prev = label_req.setdefault(cond.label_id, cond.present)
            if prev != cond.present:
                return True
        elif isinstance(cond, PropertyCondition):
            if cond.op in ("exists", "absent"):
                prev = prop_req.setdefault(cond.ptype_id, cond.op)
                if prev != cond.op:
                    return True
            elif cond.op in _OPS:
                # a comparison implies existence
                if prop_req.get(cond.ptype_id) == "absent":
                    return True
                prop_req.setdefault(cond.ptype_id, "exists")
    return False
