"""The append-only DecisionRecord ledger.

Two layers cooperate to build one record:

* **Pending-check buffer** — verification code deep in the stack
  (:mod:`repro.core.trust`, :mod:`repro.crypto.capability`, the policy
  server) calls :func:`note_check` / :func:`note_retry` /
  :func:`note_recovery` as it works.  The notes accumulate in a
  :mod:`contextvars` buffer, so no call signature in the protocol stack
  had to grow a "ledger" argument.
* **Record finalisation** — the decision points state the decision to
  :func:`repro.obs.decisions.record`, whose :meth:`DecisionLedger.record`
  call drains the pending buffer into an immutable
  :class:`DecisionRecord` and appends it with a monotonically
  increasing sequence number.

Everything no-ops when no ledger is installed: ``note_check`` costs one
``None`` check, and the buffer is only ever created while a ledger is
active (``obs.overhead_ratio`` on the ``chain8_sim_watched`` benchmark
workload measures the enabled overhead).
"""

from __future__ import annotations

import contextlib
import enum
import json
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.obs import events as obs_events
from repro.obs._holder import Holder

__all__ = [
    "RecordKind",
    "CheckRecord",
    "DecisionRecord",
    "DecisionLedger",
    "enable",
    "disable",
    "get_ledger",
    "use_ledger",
    "note_check",
    "note_retry",
    "note_recovery",
    "discard_pending",
    "record_decision",
    "record_revocation",
]


class RecordKind(str, enum.Enum):
    """What kind of decision a record captures."""

    #: A broker admitted the request into its capacity schedule.
    ADMIT = "admit"
    #: A broker (or the signalling engine on its behalf) denied it.
    DENY = "deny"
    #: A granted reservation was claimed (service started).
    CLAIM = "claim"
    #: A reservation was cancelled (user action or unwind release).
    CANCEL = "cancel"
    #: A soft-state lease lapsed and the broker reclaimed capacity.
    EXPIRE = "expire"
    #: An explicit unwind release failed (soft state will reclaim).
    UNWIND_FAILED = "unwind_failed"
    #: Graceful degradation engaged (tunnel -> per-flow signalling).
    FALLBACK = "fallback"
    #: A certificate/credential was revoked at its authority.
    REVOKE = "revoke"
    #: The end-to-end verdict the source domain returned to the user.
    OUTCOME = "outcome"


@dataclass(frozen=True)
class CheckRecord:
    """One certificate / delegation / assertion check inside a decision.

    ``source`` is the provenance of the verdict: ``"fresh"`` for a
    cryptographic verification, ``"authority"`` for a revocation stated
    by its issuer, or ``""`` for non-crypto notes such as retries.
    """

    kind: str
    subject: str = ""
    fingerprint: str = ""
    verdict: str = "ok"
    source: str = "fresh"
    detail: str = ""

    def to_dict(self) -> dict[str, str]:
        return {
            "kind": self.kind,
            "subject": self.subject,
            "fingerprint": self.fingerprint,
            "verdict": self.verdict,
            "source": self.source,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CheckRecord":
        return cls(
            kind=str(data.get("kind", "")),
            subject=str(data.get("subject", "")),
            fingerprint=str(data.get("fingerprint", "")),
            verdict=str(data.get("verdict", "")),
            source=str(data.get("source", "")),
            detail=str(data.get("detail", "")),
        )


@dataclass(frozen=True)
class DecisionRecord:
    """One immutable entry in the ledger."""

    #: Ledger-assigned, strictly increasing.  Revocation ordering and
    #: unwind balancing reason about ``seq``, not wall-clock time.
    seq: int
    kind: RecordKind
    at_time: float
    domain: str = ""
    handle: str = ""
    user: str = ""
    correlation_id: str = ""
    granted: bool = False
    reason: str = ""
    #: Stable machine cause (:class:`repro.obs.events.ReasonCode` value).
    reason_code: str = ""
    rate_mbps: float = 0.0
    window: tuple[float, float] = (0.0, 0.0)
    upstream: str | None = None
    downstream: str | None = None
    #: Policy-rule id that produced the verdict (e.g. ``policy/1.then.0``).
    matched_rule: str = ""
    #: Every rule node visited on the way, in evaluation order.
    rules_fired: tuple[str, ...] = ()
    #: Certificates / delegations / assertions checked for this decision.
    checks: tuple[CheckRecord, ...] = ()
    #: Transient-failure retries absorbed on the way to this decision.
    retries: int = 0
    #: Circuit-breaker state of the inbound link ("closed", "open", ...).
    breaker_state: str = ""
    #: Seconds left on the end-to-end deadline, or None when unbounded.
    deadline_remaining_s: float | None = None
    attributes: tuple[tuple[str, str], ...] = ()

    def attribute(self, name: str, default: str = "") -> str:
        for key, value in self.attributes:
            if key == name:
                return value
        return default

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "kind": self.kind.value,
            "at_time": self.at_time,
            "domain": self.domain,
            "handle": self.handle,
            "user": self.user,
            "correlation_id": self.correlation_id,
            "granted": self.granted,
            "reason": self.reason,
            "reason_code": self.reason_code,
            "rate_mbps": self.rate_mbps,
            "window": list(self.window),
            "upstream": self.upstream,
            "downstream": self.downstream,
            "matched_rule": self.matched_rule,
            "rules_fired": list(self.rules_fired),
            "checks": [c.to_dict() for c in self.checks],
            "retries": self.retries,
            "breaker_state": self.breaker_state,
            "deadline_remaining_s": self.deadline_remaining_s,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "DecisionRecord":
        window = data.get("window") or (0.0, 0.0)
        deadline = data.get("deadline_remaining_s")
        return cls(
            seq=int(data["seq"]),
            kind=RecordKind(data["kind"]),
            at_time=float(data.get("at_time", 0.0)),
            domain=str(data.get("domain", "")),
            handle=str(data.get("handle", "")),
            user=str(data.get("user", "")),
            correlation_id=str(data.get("correlation_id", "")),
            granted=bool(data.get("granted", False)),
            reason=str(data.get("reason", "")),
            reason_code=str(data.get("reason_code", "")),
            rate_mbps=float(data.get("rate_mbps", 0.0)),
            window=(float(window[0]), float(window[1])),
            upstream=data.get("upstream"),
            downstream=data.get("downstream"),
            matched_rule=str(data.get("matched_rule", "")),
            rules_fired=tuple(data.get("rules_fired") or ()),
            checks=tuple(
                CheckRecord.from_dict(c) for c in data.get("checks") or ()
            ),
            retries=int(data.get("retries", 0)),
            breaker_state=str(data.get("breaker_state", "")),
            deadline_remaining_s=(
                None if deadline is None else float(deadline)
            ),
            attributes=tuple(
                sorted((str(k), str(v))
                       for k, v in (data.get("attributes") or {}).items())
            ),
        )


class DecisionLedger:
    """Append-only store of :class:`DecisionRecord`.

    Unlike the event log there is **no eviction**: reconciliation is only
    sound over a complete history, so the ledger holds every record for
    its lifetime (scope it with :class:`use_ledger` per campaign).
    """

    def __init__(self) -> None:
        self._records: list[DecisionRecord] = []

    def record(
        self,
        kind: RecordKind | str,
        /,  # positional-only: an attribute may itself be named ``kind``
        *,
        at_time: float = 0.0,
        domain: str = "",
        handle: str = "",
        user: str = "",
        correlation_id: str | None = None,
        granted: bool = False,
        reason: str = "",
        reason_code: str = "",
        rate_mbps: float = 0.0,
        window: tuple[float, float] = (0.0, 0.0),
        upstream: str | None = None,
        downstream: str | None = None,
        matched_rule: str = "",
        rules_fired: tuple[str, ...] = (),
        checks: tuple[CheckRecord, ...] = (),
        **attributes: object,
    ) -> DecisionRecord:
        """Finalise one decision: drain the pending-check buffer and
        append the assembled record."""
        if correlation_id is None:
            correlation_id = obs_events.current_correlation_id() or ""
        pending = _drain_pending()
        record_checks = (*pending.checks, *checks)
        entry = DecisionRecord(
            seq=len(self._records),
            kind=RecordKind(kind),
            at_time=at_time,
            domain=domain,
            handle=handle,
            user=user,
            correlation_id=correlation_id,
            granted=granted,
            reason=reason,
            reason_code=reason_code,
            rate_mbps=rate_mbps,
            window=window,
            upstream=upstream,
            downstream=downstream,
            matched_rule=matched_rule,
            rules_fired=rules_fired,
            checks=record_checks,
            retries=pending.retries,
            breaker_state=pending.breaker_state,
            deadline_remaining_s=pending.deadline_remaining_s,
            attributes=tuple(
                sorted((k, str(v)) for k, v in attributes.items())
            ),
        )
        self._records.append(entry)
        return entry

    def append(self, record: DecisionRecord) -> DecisionRecord:
        """Append a pre-built record (ledger import), re-sequencing it."""
        entry = DecisionRecord(**{
            **{f: getattr(record, f)
               for f in record.__dataclass_fields__},
            "seq": len(self._records),
        })
        self._records.append(entry)
        return entry

    def records(
        self,
        kind: RecordKind | None = None,
        *,
        domain: str | None = None,
        correlation_id: str | None = None,
        handle: str | None = None,
        user: str | None = None,
    ) -> tuple[DecisionRecord, ...]:
        snapshot = tuple(self._records)
        return tuple(
            r for r in snapshot
            if (kind is None or r.kind is kind)
            and (domain is None or r.domain == domain)
            and (correlation_id is None or r.correlation_id == correlation_id)
            and (handle is None or r.handle == handle)
            and (user is None or r.user == user)
        )

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[DecisionRecord]:
        return iter(tuple(self._records))

    # -- persistence -------------------------------------------------------------

    def to_json(self, *, indent: int | None = 2) -> str:
        snapshot = tuple(self._records)
        return json.dumps(
            {"records": [r.to_dict() for r in snapshot]}, indent=indent
        )

    @classmethod
    def from_json(cls, text: str) -> "DecisionLedger":
        payload = json.loads(text)
        ledger = cls()
        for data in payload.get("records", ()):
            ledger.append(DecisionRecord.from_dict(data))
        return ledger


# ---------------------------------------------------------------------------
# Pending-check buffer (contextvar)
# ---------------------------------------------------------------------------


@dataclass
class _Pending:
    checks: list[CheckRecord] = field(default_factory=list)
    retries: int = 0
    breaker_state: str = ""
    deadline_remaining_s: float | None = None


_EMPTY = _Pending()

_pending: ContextVar[_Pending | None] = ContextVar(
    "repro_audit_pending", default=None
)


def _current_pending() -> _Pending:
    buffer = _pending.get()
    if buffer is None:
        buffer = _Pending()
        _pending.set(buffer)
    return buffer


def _drain_pending() -> _Pending:
    buffer = _pending.get()
    if buffer is None:
        return _EMPTY
    _pending.set(None)
    return buffer


def discard_pending() -> None:
    """Drop any notes left over from an earlier request on this context
    (the signalling engine calls this at the top of every operation, so
    each request starts from a clean buffer)."""
    _pending.set(None)


def note_check(
    kind: str,
    *,
    subject: str = "",
    fingerprint: str = "",
    verdict: str = "ok",
    source: str = "fresh",
    detail: str = "",
) -> None:
    """Note one certificate/delegation/assertion check for the decision
    currently being evaluated.  No-op when the ledger is off."""
    if _holder.active is None:
        return
    _current_pending().checks.append(CheckRecord(
        kind=kind,
        subject=subject,
        fingerprint=fingerprint,
        verdict=verdict,
        source=source,
        detail=detail,
    ))


def note_retry(target: str = "", reason: str = "") -> None:
    """Note one absorbed transient failure (mirrors the RETRY event)."""
    if _holder.active is None:
        return
    buffer = _current_pending()
    buffer.retries += 1
    buffer.checks.append(CheckRecord(
        kind="retry", subject=target, verdict="retried", source="",
        detail=reason,
    ))


def note_recovery(
    *,
    breaker_state: str | None = None,
    deadline_remaining_s: float | None = None,
) -> None:
    """Note the recovery context (breaker state of the inbound link,
    remaining end-to-end deadline) for the decision in flight."""
    if _holder.active is None:
        return
    buffer = _current_pending()
    if breaker_state is not None:
        buffer.breaker_state = breaker_state
    if deadline_remaining_s is not None:
        buffer.deadline_remaining_s = deadline_remaining_s


# ---------------------------------------------------------------------------
# Module-level recording helpers (safe to call with the ledger off)
# ---------------------------------------------------------------------------


def record_decision(
    kind: RecordKind | str, **kwargs: Any
) -> DecisionRecord | None:
    """Append one record to the active ledger, or no-op when off."""
    ledger = get_ledger()
    if ledger is None:
        return None
    return ledger.record(kind, **kwargs)


def record_revocation(
    *,
    fingerprint: str,
    subject: str = "",
    authority: str = "",
    at_time: float = 0.0,
) -> DecisionRecord | None:
    """Record a certificate/credential revocation at its authority."""
    ledger = get_ledger()
    if ledger is None:
        return None
    return ledger.record(
        RecordKind.REVOKE,
        at_time=at_time,
        domain=authority,
        user=subject,
        reason=f"revoked by {authority}" if authority else "revoked",
        checks=(CheckRecord(
            kind="revocation", subject=subject, fingerprint=fingerprint,
            verdict="revoked", source="authority",
        ),),
    )


# ---------------------------------------------------------------------------
# Process-global ledger (disabled by default)
# ---------------------------------------------------------------------------

_holder: Holder[DecisionLedger] = Holder()


def enable(ledger: DecisionLedger | None = None) -> DecisionLedger:
    """Install *ledger* (or a fresh one) as the process-global ledger."""
    ledger = ledger if ledger is not None else DecisionLedger()
    _holder.swap(ledger)
    return ledger


def disable() -> None:
    _holder.swap(None)


def get_ledger() -> DecisionLedger | None:
    """The active global decision ledger, or ``None`` when off."""
    return _holder.active


def use_ledger(
    ledger: DecisionLedger | None = None,
) -> contextlib.AbstractContextManager[DecisionLedger]:
    """Scoped ledger installation (mirror of ``events.use_event_log``)."""
    return _holder.use(ledger if ledger is not None else DecisionLedger())
