"""Static verifier for policy trees.

The paper's policy files (Figures 1 and 6) are small decision trees, and
small trees accumulate big mistakes: a branch guarded by ``BW <= 10Mb/s``
nested under ``BW > 1Gb/s`` silently never grants, a missing final
``Return`` silently falls back to the engine default, a subtree whose
every leaf is DENY makes its conditions dead weight.  This module
analyzes parsed :class:`~repro.policy.engine.PolicyNode` trees — the
same trees the engine evaluates — and reports five classes of defect:

* **contradiction** — a branch condition that can never hold given the
  conditions on the path to it (or that is self-contradictory);
* **unreachable** — statements after an unconditional ``Return`` (or
  after an ``If``/``Else`` pair in which both arms always return), and
  ``Else`` arms of conditions that are always true on their path;
* **non-exhaustive** — a policy that can fall through without reaching
  a ``Return`` (the engine applies its default, usually DENY, which is
  at best implicit and at worst not what the author meant);
* **always-deny** — an ``If`` subtree in which every reachable verdict
  is DENY, so its conditions never change the outcome;
* **unknown-predicate** — a call that is neither built in
  (``Issued_by``, ``Attribute``, ``HasValid<Kind>Resv``) nor supplied by
  a policy server, so every request that reaches it is denied.

The analysis is conservative: it only derives constraints from
comparisons of a policy variable against a literal (numeric intervals,
string (in)equalities, set memberships, predicate truth), combines them
through ``and``/``not``, and treats everything else as unknown.  A
reported contradiction is therefore a real one; silence is not a proof
of correctness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

from repro.analysis.framework import Severity
from repro.policy.engine import Condition, Decision, If, PolicyNode, Return
from repro.policy.language import parse_policy
from repro.policy.rules import (
    And,
    Call,
    Comparison,
    Literal,
    Not,
    Or,
    PredicateCondition,
    Variable,
    is_builtin_call,
)

__all__ = [
    "PolicyFinding",
    "verify_policy",
    "verify_policy_source",
    "policy_findings_to_json",
]


@dataclass(frozen=True)
class PolicyFinding:
    """One defect in a policy tree."""

    kind: str  # contradiction | unreachable | non-exhaustive | always-deny | unknown-predicate
    message: str
    severity: Severity = Severity.WARNING

    def format(self) -> str:
        return f"{self.kind} {self.severity.value}: {self.message}"


def policy_findings_to_json(findings: Sequence[PolicyFinding]) -> str:
    return json.dumps(
        {
            "findings": [
                {
                    "kind": f.kind,
                    "severity": f.severity.value,
                    "message": f.message,
                }
                for f in findings
            ],
            "count": len(findings),
        },
        indent=2,
        sort_keys=True,
    )


# ---------------------------------------------------------------------------
# constraint environment
# ---------------------------------------------------------------------------

_NUMERIC_OPS = {"<", "<=", ">", ">=", "=", "!="}

#: Flipped operator for `Literal op Variable` normalisation.
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}

#: Negated operator, for Else-branch refinement and `not` handling.
_NEGATE = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "=": "!=", "!=": "="}


@dataclass(frozen=True)
class _Interval:
    """An open/closed numeric interval; the set of values a variable may
    still take on the current path."""

    lo: float = float("-inf")
    hi: float = float("inf")
    lo_open: bool = True
    hi_open: bool = True

    def empty(self) -> bool:
        if self.lo > self.hi:
            return True
        if self.lo == self.hi and (self.lo_open or self.hi_open):
            return True
        return False

    def narrowed(self, op: str, value: float) -> "_Interval":
        iv = self
        if op == "<" and (value < iv.hi or (value == iv.hi and not iv.hi_open)):
            iv = replace(iv, hi=value, hi_open=True)
        elif op == "<=" and value < iv.hi:
            iv = replace(iv, hi=value, hi_open=False)
        elif op == ">" and (value > iv.lo or (value == iv.lo and not iv.lo_open)):
            iv = replace(iv, lo=value, lo_open=True)
        elif op == ">=" and value > iv.lo:
            iv = replace(iv, lo=value, lo_open=False)
        elif op == "=":
            iv = _Interval(value, value, False, False).intersect(iv)
        return iv

    def intersect(self, other: "_Interval") -> "_Interval":
        lo, lo_open = max(
            (self.lo, self.lo_open), (other.lo, other.lo_open)
        )
        hi, hi_open = min(
            (self.hi, not self.hi_open), (other.hi, not other.hi_open)
        )
        return _Interval(lo, hi, lo_open, not hi_open)

    def allows(self, op: str, value: float) -> bool:
        """Could ``var op value`` hold for some var in this interval?"""
        return not self.narrowed(op, value).empty()

    def implies(self, op: str, value: float) -> bool:
        """Does every var in this interval satisfy ``var op value``?"""
        if self.empty():
            return True
        negated = self.narrowed(_NEGATE[op], value)
        if op in ("=", "!="):
            # Equality splits the interval; only a point interval implies =.
            if op == "=":
                return (
                    self.lo == self.hi == value
                    and not self.lo_open
                    and not self.hi_open
                )
            return negated.empty()
        return negated.empty()


@dataclass(frozen=True)
class _Env:
    """Constraints accumulated along one root-to-branch path.

    ``intervals`` — numeric variables; ``equal``/``unequal`` — string
    variables; ``member``/``not_member`` — set-valued expressions keyed by
    their ``describe()`` text; ``truths`` — bare predicate conditions.
    """

    intervals: tuple[tuple[str, _Interval], ...] = ()
    equal: tuple[tuple[str, object], ...] = ()
    unequal: tuple[tuple[str, object], ...] = ()
    member: tuple[tuple[str, object], ...] = ()
    not_member: tuple[tuple[str, object], ...] = ()
    truths: tuple[tuple[str, bool], ...] = ()

    def interval(self, var: str) -> _Interval:
        for name, iv in self.intervals:
            if name == var:
                return iv
        return _Interval()

    def with_interval(self, var: str, iv: _Interval) -> "_Env":
        rest = tuple((n, v) for n, v in self.intervals if n != var)
        return replace(self, intervals=rest + ((var, iv),))


#: Set-valued left-hand sides use membership semantics.
_SET_VARIABLES = frozenset({"Group", "Capability"})


def _atom_parts(cond: Condition) -> tuple[str, str, object] | None:
    """Decompose a comparison into (key, op, literal value) when one side
    is a variable/call and the other a literal; None when not analyzable."""
    if not isinstance(cond, Comparison):
        return None
    lhs, op, rhs = cond.lhs, cond.op, cond.rhs
    if isinstance(rhs, (Variable, Call)) and isinstance(lhs, Literal):
        lhs, rhs = rhs, lhs
        op = _FLIP[op]
    if not isinstance(rhs, Literal):
        return None
    if isinstance(lhs, Variable):
        return lhs.name, op, rhs.value
    if isinstance(lhs, Call):
        return lhs.describe(), op, rhs.value
    return None


def _is_set_key(key: str) -> bool:
    return key in _SET_VARIABLES or key.startswith("Issued_by(")


def _add_atom(env: _Env, cond: Condition, *, negated: bool) -> _Env | None:
    """Refine *env* with one atomic condition; ``None`` = contradiction."""
    if isinstance(cond, Not):
        return _add_atom(env, cond.inner, negated=not negated)
    if isinstance(cond, PredicateCondition):
        key = cond.describe()
        want = not negated
        for name, value in env.truths:
            if name == key and value != want:
                return None
        if any(name == key for name, _ in env.truths):
            return env
        return replace(env, truths=env.truths + ((key, want),))
    parts = _atom_parts(cond)
    if parts is None:
        return env  # unknown atom: no refinement, no contradiction
    key, op, value = parts
    if negated:
        op = _NEGATE[op]
    if _is_set_key(key):
        # `Group = Atlas` means membership; ordering ops are engine errors.
        if op == "=":
            if (key, value) in env.not_member:
                return None
            if (key, value) in env.member:
                return env
            return replace(env, member=env.member + ((key, value),))
        if op == "!=":
            if (key, value) in env.member:
                return None
            if (key, value) in env.not_member:
                return env
            return replace(env, not_member=env.not_member + ((key, value),))
        return env
    if isinstance(value, (int, float)) and op in _NUMERIC_OPS:
        if op == "!=":
            iv = env.interval(key)
            if iv.implies("=", float(value)):
                return None
            return env
        iv = env.interval(key).narrowed(op, float(value))
        if iv.empty():
            return None
        return env.with_interval(key, iv)
    # String (in)equalities.
    if op == "=":
        for name, existing in env.equal:
            if name == key and existing != value:
                return None
        if (key, value) in env.unequal:
            return None
        if (key, value) in env.equal:
            return env
        return replace(env, equal=env.equal + ((key, value),))
    if op == "!=":
        if (key, value) in env.equal:
            return None
        if (key, value) in env.unequal:
            return env
        return replace(env, unequal=env.unequal + ((key, value),))
    return env


def _refine(env: _Env, cond: Condition, *, negated: bool = False) -> _Env | None:
    """Refine *env* assuming *cond* holds (or fails, when *negated*).

    Returns ``None`` when the assumption is impossible.  Conjunctions
    refine through every part; a negated conjunction and any disjunction
    refine only when a single arm remains analyzable (otherwise the env
    is returned unchanged — conservative, never unsound).
    """
    if isinstance(cond, Not):
        return _refine(env, cond.inner, negated=not negated)
    if isinstance(cond, And) and not negated:
        for part in cond.parts:
            result = _refine(env, part)
            if result is None:
                return None
            env = result
        return env
    if isinstance(cond, Or) and negated:
        # not (a or b) == not a and not b
        for part in cond.parts:
            result = _refine(env, part, negated=True)
            if result is None:
                return None
            env = result
        return env
    if isinstance(cond, Or) and not negated:
        # Satisfiable iff some arm is; no refinement unless all but the
        # satisfiable arms are contradictions and exactly one remains.
        viable = [part for part in cond.parts if _refine(env, part) is not None]
        if not viable:
            return None
        if len(viable) == 1:
            return _refine(env, viable[0])
        return env
    if isinstance(cond, And) and negated:
        # not (a and b) is a disjunction of negations: contradiction only
        # when every negated arm is impossible.
        viable = [
            part
            for part in cond.parts
            if _refine(env, part, negated=True) is not None
        ]
        if not viable:
            return None
        if len(viable) == 1:
            return _refine(env, viable[0], negated=True)
        return env
    return _add_atom(env, cond, negated=negated)


def _always_true(env: _Env, cond: Condition) -> bool:
    """Conservatively: does *cond* hold for every state admitted by *env*?"""
    return _refine(env, cond, negated=True) is None


# ---------------------------------------------------------------------------
# tree walk
# ---------------------------------------------------------------------------


def _describe_return(node: Return) -> str:
    return node.reason or f"Return {node.decision.name}"


class _Verifier:
    def __init__(self, name: str):
        self.name = name
        self.findings: list[PolicyFinding] = []

    def add(self, kind: str, message: str,
            severity: Severity = Severity.WARNING) -> None:
        self.findings.append(
            PolicyFinding(kind, f"{self.name}: {message}", severity)
        )

    # -- always-deny ---------------------------------------------------------

    def _verdicts(self, nodes: Sequence[PolicyNode]) -> set[Decision]:
        out: set[Decision] = set()
        for node in nodes:
            if isinstance(node, Return):
                out.add(node.decision)
            elif isinstance(node, If):
                out |= self._verdicts(node.then)
                out |= self._verdicts(node.orelse)
        return out

    def _check_always_deny(self, node: If) -> None:
        verdicts = self._verdicts(node.then) | self._verdicts(node.orelse)
        if verdicts == {Decision.DENY}:
            self.add(
                "always-deny",
                f"every verdict under 'If {node.condition.describe()}' is "
                "DENY; the conditions in this subtree never change the "
                "outcome (the engine default already denies)",
            )

    # -- main walk -----------------------------------------------------------

    def check_block(self, nodes: Sequence[PolicyNode], env: _Env) -> bool:
        """Analyze one statement block; True if it always returns."""
        terminated = False
        for node in nodes:
            if terminated:
                if isinstance(node, Return):
                    what = f"'{_describe_return(node)}'"
                else:
                    what = f"'If {node.condition.describe()}'"
                self.add(
                    "unreachable",
                    f"{what} is unreachable: every earlier path through "
                    "this block already returned",
                )
                continue
            if isinstance(node, Return):
                terminated = True
                continue
            assert isinstance(node, If)
            terminated = self.check_if(node, env)
        return terminated

    def check_if(self, node: If, env: _Env) -> bool:
        cond = node.condition
        then_env = _refine(env, cond)
        if then_env is None:
            self.add(
                "contradiction",
                f"condition '{cond.describe()}' can never hold on this "
                "path; its branch is dead",
            )
            then_terminates = True  # the arm never runs; don't double-report
        else:
            if node.orelse and _always_true(env, cond):
                self.add(
                    "unreachable",
                    f"condition '{cond.describe()}' always holds on this "
                    "path; the Else arm is dead",
                )
            then_terminates = self.check_block(node.then, then_env)
        if node.orelse:
            else_env = _refine(env, cond, negated=True)
            if else_env is None:
                else_terminates = True
            else:
                else_terminates = self.check_block(node.orelse, else_env)
            if then_env is not None:
                self._check_always_deny(node)
            return then_terminates and else_terminates
        if then_env is not None:
            self._check_always_deny(node)
        return False  # no Else: the If may fall through


def _calls(node: object) -> Iterator[Call]:
    """Every call in a policy tree, statement or condition, in order."""
    if isinstance(node, Call):
        yield node
    elif isinstance(node, If):
        yield from _calls(node.condition)
        for child in node.then + node.orelse:
            yield from _calls(child)
    elif isinstance(node, Comparison):
        yield from _calls(node.lhs)
        yield from _calls(node.rhs)
    elif isinstance(node, (And, Or)):
        for part in node.parts:
            yield from _calls(part)
    elif isinstance(node, Not):
        yield from _calls(node.inner)
    elif isinstance(node, PredicateCondition):
        yield node.call


def verify_policy(
    nodes: Sequence[PolicyNode], *, name: str = "policy"
) -> list[PolicyFinding]:
    """Statically verify a parsed policy tree; returns its defects."""
    verifier = _Verifier(name)
    unknown = {
        call.name: call for node in nodes for call in _calls(node)
        if not is_builtin_call(call.name)
    }
    for call in unknown.values():
        verifier.add(
            "unknown-predicate",
            f"'{call.describe()}' names no built-in call (Issued_by, "
            "Attribute, HasValid<Kind>Resv) and no policy server supplies "
            "it; every request that reaches it is denied",
            Severity.ERROR,
        )
    exhaustive = verifier.check_block(tuple(nodes), _Env())
    if not exhaustive:
        verifier.add(
            "non-exhaustive",
            "the policy can fall through without reaching a Return; add "
            "an explicit final 'Return DENY' (the engine default applies "
            "silently otherwise)",
        )
    return verifier.findings


def verify_policy_source(
    source: str, *, name: str = "policy"
) -> list[PolicyFinding]:
    """Parse *source* (the paper's syntax) and verify the resulting tree.

    Raises :class:`~repro.errors.PolicySyntaxError` on parse failure.
    """
    return verify_policy(parse_policy(source), name=name)
