"""The append-only decision ledger.

Two layers cooperate to build one record:

* **Pending-check buffer** — verification code deep in the stack
  (:mod:`repro.core.trust`, :mod:`repro.crypto.capability`, the policy
  server) calls :func:`note_check` / :func:`note_retry` /
  :func:`note_recovery` as it works.  The notes accumulate on the
  current :mod:`repro.obs.context`, beside the ledger itself, so no call
  signature in the protocol stack had to grow a "ledger" argument.
* **Record finalisation** — the decision points state the decision to
  :func:`repro.obs.decisions.record`, which drains the pending buffer
  into one immutable :class:`~repro.obs.events.DecisionRecord`,
  sequenced by the ledger, and appends that same object to the event
  log and, for the kinds in :data:`LEDGER_KINDS`, here.

Everything no-ops when no ledger is installed: ``note_check`` costs one
``None`` check, and the buffer is only ever created while a ledger is
active (``obs.overhead_ratio`` on the ``chain8_sim_watched`` benchmark
workload measures the enabled overhead).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
from dataclasses import dataclass, field

from repro.errors import ObservabilityError
from repro.obs import context
from repro.obs.events import (
    CheckRecord, DecisionRecord, RecordKind, RecordStore,
)

__all__ = [
    "LEDGER_KINDS",
    "DecisionLedger",
    "get_ledger",
    "use_ledger",
    "note_check",
    "note_retry",
    "note_recovery",
    "NOTHING_PENDING",
    "drain_pending",
    "discard_pending",
    "record_decision",
]

#: The kinds a ledger keeps: the decisions reconciliation and
#: ``audit --explain`` reason about.  Releases, retries, breaker
#: transitions, faults and alerts are the event log's alone.
LEDGER_KINDS = frozenset({
    RecordKind.ADMIT, RecordKind.DENY, RecordKind.CLAIM, RecordKind.CANCEL,
    RecordKind.EXPIRE, RecordKind.UNWIND_FAILED, RecordKind.FALLBACK,
    RecordKind.REVOKE, RecordKind.OUTCOME,
})


class DecisionLedger(RecordStore):
    """Complete store of the :data:`LEDGER_KINDS` records.

    Unlike the event log there is **no eviction**: reconciliation is only
    sound over a complete history, so the ledger holds every record for
    its lifetime (scope it with :class:`use_ledger` per campaign).
    """

    def __init__(self) -> None:
        self._records: list[DecisionRecord] = []

    def record(self, entry: DecisionRecord) -> DecisionRecord:
        """Append *entry*.  One whose ``seq`` is not the next position
        (an imported or hand-built record) is appended re-sequenced."""
        if entry.seq != len(self._records):
            entry = dataclasses.replace(entry, seq=len(self._records))
        self._records.append(entry)
        return entry

    # -- persistence -------------------------------------------------------------

    def to_json(self, *, indent: int | None = 2) -> str:
        snapshot = tuple(self._records)
        return json.dumps(
            {"records": [r.to_dict() for r in snapshot]}, indent=indent
        )

    @classmethod
    def load(cls, path: str) -> "DecisionLedger":
        with open(path, encoding="utf-8") as stream:
            return cls.from_json(stream.read())

    @classmethod
    def from_json(cls, text: str) -> "DecisionLedger":
        """Inverse of :meth:`to_json`.  Raises
        :class:`~repro.errors.ObservabilityError` naming the record and
        the field that cannot be read."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ObservabilityError(f"ledger: invalid JSON ({exc})") from exc
        if not isinstance(payload, dict) or not isinstance(
            payload.get("records", []), list
        ):
            raise ObservabilityError(
                "ledger: expected an object with a 'records' list"
            )
        ledger = cls()
        for index, data in enumerate(payload.get("records", [])):
            if not isinstance(data, dict):
                raise ObservabilityError(
                    f"ledger record {index}: expected an object, "
                    f"got {type(data).__name__}"
                )
            try:
                ledger.record(DecisionRecord.from_dict(data))
            except ObservabilityError as exc:
                raise ObservabilityError(
                    f"ledger record {index}: {exc}"
                ) from exc
        return ledger


# ---------------------------------------------------------------------------
# Pending-check buffer
# ---------------------------------------------------------------------------


@dataclass
class _Pending:
    checks: list[CheckRecord] = field(default_factory=list)
    retries: int = 0
    breaker_state: str = ""
    deadline_remaining_s: float | None = None


#: What a record takes when no notes were gathered for it.
NOTHING_PENDING = _Pending()


def _noting() -> _Pending | None:
    """The buffer to note into, or ``None`` when the ledger is off."""
    scope = context.current()
    if scope.ledger is None:
        return None
    if scope.pending is None:
        scope.pending = _Pending()
    return scope.pending


def drain_pending() -> _Pending:
    """Take the notes gathered for the decision being recorded."""
    scope = context.current()
    buffer, scope.pending = scope.pending, None
    return NOTHING_PENDING if buffer is None else buffer


def discard_pending() -> None:
    """Drop any notes left over from an earlier request in this context
    (the signalling engine calls this at the top of every operation, so
    each request starts from a clean buffer)."""
    context.current().pending = None


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
    buffer = _noting()
    if buffer is None:
        return
    buffer.checks.append(CheckRecord(
        kind=kind,
        subject=subject,
        fingerprint=fingerprint,
        verdict=verdict,
        source=source,
        detail=detail,
    ))


def note_retry(target: str = "", reason: str = "") -> None:
    """Note one absorbed transient failure (mirrors the RETRY event)."""
    buffer = _noting()
    if buffer is None:
        return
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
    buffer = _noting()
    if buffer is None:
        return
    if breaker_state is not None:
        buffer.breaker_state = breaker_state
    if deadline_remaining_s is not None:
        buffer.deadline_remaining_s = deadline_remaining_s


# ---------------------------------------------------------------------------
# Module-level recording helpers (safe to call with the ledger off)
# ---------------------------------------------------------------------------


def record_decision(entry: DecisionRecord) -> DecisionRecord | None:
    """Append *entry* to the active ledger, or no-op when off."""
    ledger = get_ledger()
    if ledger is None:
        return None
    return ledger.record(entry)


def get_ledger() -> DecisionLedger | None:
    """The current context's decision ledger, or ``None`` when off."""
    return context.current().ledger


def use_ledger(
    ledger: DecisionLedger | None = None,
) -> contextlib.AbstractContextManager[DecisionLedger]:
    """Scoped ledger installation (mirror of ``events.use_event_log``)."""
    return context.use(
        "ledger", ledger if ledger is not None else DecisionLedger()
    )
