"""Condition and expression building blocks for policy trees.

These classes are what :mod:`repro.policy.language` compiles the paper's
policy files into, and they can equally be assembled directly in Python::

    If(Comparison(Variable("User"), "=", Literal("Alice")),
       then=(Return(Decision.GRANT),))

Semantics notes:

* ``Group = Atlas`` and ``Issued_by(Capability) = ESnet`` are *membership*
  tests — the left side evaluates to a set and ``=`` means "contains"
  (matching the obvious reading of the paper's Figure 6 policy files).
* Bare predicate calls like ``Accredited_Physicist(requestor)`` dispatch
  to online predicates registered on the request context (backed by a
  group server in the full testbed).
* ``HasValidCPUResv(RAR)`` and friends check linked reservations through
  the context's online validator — the inter-resource policy dependency
  of Figure 6's Policy File C.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any

from repro.errors import PolicyEvaluationError
from repro.policy.engine import Condition, RequestContext

__all__ = [
    "Expr",
    "Literal",
    "Variable",
    "Call",
    "Comparison",
    "And",
    "Or",
    "Not",
    "PredicateCondition",
    "TrueCondition",
    "is_builtin_call",
]

#: Variables whose value is a set; ``=`` on them means membership.
_SET_VARIABLES = {"Group", "Capability"}

_LINKED_RESV_RE = re.compile(r"^HasValid([A-Za-z]+)Resv$")


def is_builtin_call(name: str) -> bool:
    """True for a call :meth:`Call.evaluate` answers itself; any other
    name is an online predicate the request context must supply."""
    return name in ("Issued_by", "Attribute") or bool(_LINKED_RESV_RE.match(name))


class Expr:
    """Base class for expressions; subclasses implement ``evaluate``."""

    def evaluate(self, ctx: RequestContext) -> Any:  # pragma: no cover - abstract
        raise NotImplementedError

    def describe(self) -> str:  # pragma: no cover - cosmetic default
        return type(self).__name__


@dataclass(frozen=True)
class Literal(Expr):
    value: Any

    def evaluate(self, ctx: RequestContext) -> Any:
        return self.value

    def describe(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Variable(Expr):
    name: str

    def evaluate(self, ctx: RequestContext) -> Any:
        if self.name == "Group":
            return ctx.groups
        if self.name == "Capability":
            return ctx.capabilities
        return ctx.variable(self.name)

    def describe(self) -> str:
        return self.name


@dataclass(frozen=True)
class Call(Expr):
    """A function-call expression: ``Issued_by(Capability)``,
    ``Accredited_Physicist(requestor)``, ``HasValidCPUResv(RAR)``."""

    name: str
    arg: str

    def evaluate(self, ctx: RequestContext) -> Any:
        if self.name == "Issued_by":
            if self.arg != "Capability":
                raise PolicyEvaluationError(
                    f"Issued_by only applies to Capability, got {self.arg!r}"
                )
            return ctx.capability_issuers
        if self.name == "Attribute":
            # Free-form request attribute (e.g. upstream domains' signed
            # additions); absent attributes evaluate to None rather than
            # erroring, so policies can probe optional hints.
            return ctx.attribute(self.arg)
        linked = _LINKED_RESV_RE.match(self.name)
        if linked is not None:
            return ctx.has_valid_linked_reservation(linked.group(1).lower())
        return ctx.call_predicate(self.name)

    def describe(self) -> str:
        return f"{self.name}({self.arg})"


@dataclass(frozen=True)
class Comparison(Condition):
    lhs: Expr
    op: str
    rhs: Expr

    _OPS = ("=", "!=", "<=", ">=", "<", ">")

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise PolicyEvaluationError(f"unknown comparison operator {self.op!r}")

    def holds(self, ctx: RequestContext) -> bool:
        left = self.lhs.evaluate(ctx)
        right = self.rhs.evaluate(ctx)
        if isinstance(left, (frozenset, set)):
            if self.op == "=":
                return right in left
            if self.op == "!=":
                return right not in left
            raise PolicyEvaluationError(
                f"operator {self.op!r} undefined for set-valued {self.lhs.describe()}"
            )
        try:
            if self.op == "=":
                return left == right
            if self.op == "!=":
                return left != right
            if self.op == "<=":
                return left <= right
            if self.op == ">=":
                return left >= right
            if self.op == "<":
                return left < right
            return left > right
        except TypeError as exc:
            raise PolicyEvaluationError(
                f"cannot compare {left!r} {self.op} {right!r}"
            ) from exc

    def describe(self) -> str:
        return f"{self.lhs.describe()} {self.op} {self.rhs.describe()}"


@dataclass(frozen=True)
class And(Condition):
    parts: tuple[Condition, ...]

    def holds(self, ctx: RequestContext) -> bool:
        return all(p.holds(ctx) for p in self.parts)

    def describe(self) -> str:
        return " and ".join(p.describe() for p in self.parts)


@dataclass(frozen=True)
class Or(Condition):
    parts: tuple[Condition, ...]

    def holds(self, ctx: RequestContext) -> bool:
        return any(p.holds(ctx) for p in self.parts)

    def describe(self) -> str:
        return " or ".join(p.describe() for p in self.parts)


@dataclass(frozen=True)
class Not(Condition):
    inner: Condition

    def holds(self, ctx: RequestContext) -> bool:
        return not self.inner.holds(ctx)

    def describe(self) -> str:
        return f"not ({self.inner.describe()})"


@dataclass(frozen=True)
class PredicateCondition(Condition):
    """A bare call used as a condition; truthiness of its value."""

    call: Call

    def holds(self, ctx: RequestContext) -> bool:
        return bool(self.call.evaluate(ctx))

    def describe(self) -> str:
        return self.call.describe()


@dataclass(frozen=True)
class TrueCondition(Condition):
    """Always true (useful for unconditional branches in built trees)."""

    def holds(self, ctx: RequestContext) -> bool:
        return True

    def describe(self) -> str:
        return "true"
