"""The policy decision point: request contexts, decisions, and the engine.

A bandwidth broker forwards each incoming request to its policy server,
which "executes local policy and passes back a result ('yes' or 'no') and
a modified request" (paper §5).  The engine here evaluates a tree of
policy nodes (built by hand or parsed from the paper's policy-file syntax
by :mod:`repro.policy.language`) against a :class:`RequestContext`
assembled from the request parameters, verified assertions, and verified
capability chains.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Callable, Mapping, Sequence

from repro.crypto.dn import DistinguishedName
from repro.errors import PolicyEvaluationError

__all__ = [
    "Decision",
    "RequestContext",
    "PolicyDecision",
    "PolicyNode",
    "Condition",
    "If",
    "Return",
    "PolicyEngine",
]


class Decision(Enum):
    GRANT = "grant"
    DENY = "deny"

    def __bool__(self) -> bool:  # pragma: no cover - guard against misuse
        raise TypeError("Decision must be compared explicitly, not truth-tested")


@dataclass(frozen=True)
class RequestContext:
    """Everything a policy rule may consult.

    The four information classes of paper §4 map onto fields as follows:
    request parameters (``bandwidth_mbps``, ``reservation_type``,
    ``source_domain`` …), authentication information (``user``),
    authorization information (``groups``, ``capabilities``,
    ``capability_issuers`` — all *verified* before being placed here), and
    SLA/SLS information (the free-form ``attributes`` bag, filled by
    upstream domains).
    """

    user: DistinguishedName | None = None
    bandwidth_mbps: float = 0.0
    time_of_day_h: float = 12.0
    reservation_type: str = "network"
    source_domain: str = ""
    destination_domain: str = ""
    available_bandwidth_mbps: float = float("inf")
    cost_offer: float = 0.0
    #: Verified group memberships ("ATLAS experiment", "physicists").
    groups: frozenset[str] = frozenset()
    #: Capability strings from verified delegation chains ("ESnet:member").
    capabilities: frozenset[str] = frozenset()
    #: Communities whose capability chains verified ("ESnet").
    capability_issuers: frozenset[str] = frozenset()
    #: Linked reservations by resource type, e.g. {"cpu": "RES-111"}.
    linked_reservations: tuple[tuple[str, str], ...] = ()
    #: Extra attribute-value pairs (SLS hints, cost offers from upstream).
    attributes: tuple[tuple[str, Any], ...] = ()
    #: Named online predicates, e.g. {"Accredited_Physicist": callable}.
    predicates: Mapping[str, Callable[["RequestContext"], bool]] = field(
        default_factory=dict, compare=False, hash=False
    )
    #: Online validator for linked reservations: (type, handle) -> bool.
    linked_validator: Callable[[str, str], bool] | None = field(
        default=None, compare=False, hash=False
    )

    # -- variable access used by the policy language -----------------------------

    def variable(self, name: str) -> Any:
        """Resolve a policy-language variable name."""
        builtin = {
            "User": self.user.common_name if self.user else None,
            "BW": self.bandwidth_mbps,
            "Time": self.time_of_day_h,
            "Avail_BW": self.available_bandwidth_mbps,
            "Reservation_Type": self.reservation_type,
            "Source_Domain": self.source_domain,
            "Destination_Domain": self.destination_domain,
            "Cost": self.cost_offer,
        }
        if name in builtin:
            return builtin[name]
        for k, v in self.attributes:
            if k == name:
                return v
        raise PolicyEvaluationError(f"unknown policy variable {name!r}")

    def attribute(self, name: str, default: Any = None) -> Any:
        for k, v in self.attributes:
            if k == name:
                return v
        return default

    def linked_reservation(self, kind: str) -> str | None:
        for k, v in self.linked_reservations:
            if k == kind:
                return v
        return None

    def has_valid_linked_reservation(self, kind: str) -> bool:
        """True when a linked reservation of *kind* exists and, if an online
        validator is wired in, validates."""
        handle = self.linked_reservation(kind)
        if handle is None:
            return False
        if self.linked_validator is None:
            return True
        return self.linked_validator(kind, handle)

    def call_predicate(self, name: str) -> bool:
        fn = self.predicates.get(name)
        if fn is None:
            raise PolicyEvaluationError(f"unknown predicate {name!r}")
        return bool(fn(self))

    def with_updates(self, **changes: Any) -> "RequestContext":
        return replace(self, **changes)


@dataclass(frozen=True)
class PolicyDecision:
    """Engine output: the verdict, why, and any request modifications.

    ``modifications`` carries the "modified request" of §5 — constraints a
    domain adds before forwarding downstream (required groups, cost
    offers, traffic-engineering parameters).
    """

    decision: Decision
    reason: str = ""
    modifications: tuple[tuple[str, Any], ...] = ()
    #: Provenance: the id of the ``Return`` node that produced the
    #: verdict (``<policy>/<path>``, e.g. ``gold/1.then.0``; the
    #: fall-off default is ``<policy>/default``).
    matched_rule: str = ""
    #: Every node visited on the way, in evaluation order — ``If``
    #: nodes appear with the branch taken (``…?cond=y``).
    rules_fired: tuple[str, ...] = ()

    @property
    def granted(self) -> bool:
        return self.decision is Decision.GRANT


# -- policy tree ----------------------------------------------------------------


class Condition:
    """Base class for conditions; subclasses implement ``holds``."""

    def holds(self, ctx: RequestContext) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


class PolicyNode:
    """Base class for statements in a policy tree."""


@dataclass(frozen=True)
class Return(PolicyNode):
    decision: Decision
    reason: str = ""


@dataclass(frozen=True)
class If(PolicyNode):
    condition: Condition
    then: tuple[PolicyNode, ...]
    orelse: tuple[PolicyNode, ...] = ()


class PolicyEngine:
    """First-`Return`-reached evaluation over a policy tree.

    Falling off the end yields the default decision — DENY, like the
    paper's policy files which all end in ``Return DENY``.
    """

    def __init__(
        self,
        nodes: Sequence[PolicyNode],
        *,
        default: Decision = Decision.DENY,
        name: str = "policy",
    ) -> None:
        self.nodes = tuple(nodes)
        self.default = default
        self.name = name

    def evaluate(self, ctx: RequestContext) -> PolicyDecision:
        """Evaluate, tracing the node path for decision provenance: the
        returned decision names the ``Return`` node that fired
        (``matched_rule``) and every node visited (``rules_fired``) as
        stable ``<policy>/<index-path>`` ids, so audit records can
        answer "which rule admitted this?" without re-evaluating."""
        trace: list[str] = []
        try:
            result = self._eval_block(self.nodes, ctx, f"{self.name}/", trace)
        except PolicyEvaluationError as exc:
            # The nodes visited up to the failing call, for the record.
            exc.rules_fired = tuple(trace)
            raise
        if result is not None:
            return result
        default_id = f"{self.name}/default"
        trace.append(default_id)
        return PolicyDecision(
            self.default,
            reason=f"{self.name}: default",
            matched_rule=default_id,
            rules_fired=tuple(trace),
        )

    def _eval_block(
        self,
        nodes: Sequence[PolicyNode],
        ctx: RequestContext,
        prefix: str,
        trace: list[str],
    ) -> PolicyDecision | None:
        for index, node in enumerate(nodes):
            node_id = f"{prefix}{index}"
            if isinstance(node, Return):
                trace.append(node_id)
                reason = node.reason or f"{self.name}: explicit {node.decision.value}"
                return PolicyDecision(
                    node.decision,
                    reason=reason,
                    matched_rule=node_id,
                    rules_fired=tuple(trace),
                )
            if isinstance(node, If):
                try:
                    taken = node.condition.holds(ctx)
                except Exception as exc:
                    # A fail-closed denial names this ``If`` (evaluate()).
                    trace.append(f"{node_id}?{node.condition.describe()}=error")
                    if isinstance(exc, PolicyEvaluationError):
                        raise
                    raise PolicyEvaluationError(
                        f"condition {node.condition.describe()} raised: {exc}"
                    ) from exc
                trace.append(
                    f"{node_id}?{node.condition.describe()}"
                    f"={'y' if taken else 'n'}"
                )
                branch = node.then if taken else node.orelse
                branch_prefix = f"{node_id}.{'then' if taken else 'else'}."
                result = self._eval_block(branch, ctx, branch_prefix, trace)
                if result is not None:
                    return result
                continue
            raise PolicyEvaluationError(f"unknown node type {type(node).__name__}")
        return None
