"""The one decision writer.

A call site states what was decided and :func:`record` counts it and
builds one :class:`~repro.obs.events.DecisionRecord`, which the event log
and, for its kinds, the audit ledger both keep — the same object, so the
views agree by construction.  :data:`DECISIONS` is the single source for
the record kind and metrics of each decision (``docs/OBSERVABILITY.md``
tabulates it).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, NamedTuple

from repro.obs import context
from repro.obs.audit.ledger import LEDGER_KINDS, NOTHING_PENDING, drain_pending
from repro.obs.events import CheckRecord, DecisionRecord, ReasonCode, RecordKind

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.policy.engine import PolicyDecision

__all__ = ["DECISIONS", "record", "record_revocation"]


class _Metric(NamedTuple):
    name: str
    help: str
    #: Drawn from ``domain``, ``granted`` (true/false), ``result``
    #: (granted/denied) and the call's attributes.
    labels: tuple[str, ...] = ()
    #: The ``measures`` key a counter adds; without one it counts 1.
    measure: str = ""
    #: Observe the measure in a histogram instead.
    histogram: bool = False


class _Kind(NamedTuple):
    kind: RecordKind
    metrics: tuple[_Metric, ...] = ()


_DOMAIN = ("domain",)
_ADMISSIONS = (_Metric(
    "admissions_total", "Local admission attempts, by domain and outcome",
    ("domain", "granted")),)
_OUTCOME = (
    _Metric("reservations_total",
            "End-to-end hop-by-hop reservation attempts", ("result",)),
    _Metric("signalling_messages_total",
            "Signalling messages exchanged by the hop-by-hop protocol",
            measure="messages"),
    _Metric("signalling_bytes_total",
            "Signalling bytes exchanged by the hop-by-hop protocol",
            measure="bytes"),
    _Metric("signalling_latency_seconds",
            "Modelled end-to-end signalling latency per reservation",
            measure="latency_s", histogram=True),
)

#: decision -> record kind, metrics.  Counters follow the decision the
#: caller states: a broker's refusal is an admission attempt
#: ("admit_denied"), the signalling engine's ("deny") is not.
DECISIONS: dict[str, _Kind] = {
    "admit": _Kind(RecordKind.ADMIT, _ADMISSIONS),
    "admit_denied": _Kind(RecordKind.DENY, _ADMISSIONS),
    "deny": _Kind(RecordKind.DENY),
    "claim": _Kind(RecordKind.CLAIM, (_Metric(
        "claims_total", "Reservations claimed (activated)", _DOMAIN),)),
    "cancel": _Kind(RecordKind.CANCEL, (_Metric(
        "cancellations_total", "Reservations cancelled", _DOMAIN),)),
    "expire": _Kind(RecordKind.EXPIRE, (_Metric(
        "soft_state_expirations_total",
        "Reservations reclaimed by soft-state expiry", _DOMAIN),)),
    "release": _Kind(RecordKind.RELEASE, (_Metric(
        "releases_total",
        "Partial-path reservations released after a downstream denial",
        _DOMAIN),)),
    "unwind_failed": _Kind(RecordKind.UNWIND_FAILED, (_Metric(
        "unwind_failures_total",
        "Partial-path releases that failed (left to soft-state expiry)",
        _DOMAIN),)),
    "retry": _Kind(RecordKind.RETRY, (_Metric(
        "signalling_retries_total",
        "Transient-failure retries during hop-by-hop signalling",
        ("target",)),)),
    "breaker": _Kind(RecordKind.BREAKER, (_Metric(
        "breaker_transitions_total",
        "Circuit-breaker state transitions, by link and new state",
        ("link", "to")),)),
    "fault": _Kind(RecordKind.FAULT, (_Metric(
        "faults_injected_total",
        "Faults delivered by the injector, by target kind and kind",
        ("target_kind", "kind")),)),
    "fallback": _Kind(RecordKind.FALLBACK, (_Metric(
        "tunnel_fallbacks_total",
        "Intra-tunnel flows degraded to per-flow signalling", ("tunnel",)),)),
    "revoke": _Kind(RecordKind.REVOKE),
    "outcome": _Kind(RecordKind.OUTCOME, _OUTCOME),
    "outcome_denied": _Kind(RecordKind.OUTCOME, (*_OUTCOME, _Metric(
        "denials_total", "Reservations denied, by denying domain", _DOMAIN))),
}


def record(
    kind: str, /, *, at_time: float = 0.0, domain: str = "", user: str = "",
    handle: str = "", reason: str = "", reason_code: ReasonCode | str = "",
    correlation_id: str = "", granted: bool = False, rate_mbps: float = 0.0,
    window: tuple[float, float] = (0.0, 0.0),
    upstream: str | None = None, downstream: str | None = None,
    decision: PolicyDecision | None = None,
    checks: tuple[CheckRecord, ...] = (),
    measures: Mapping[str, float] | None = None, **attributes: object,
) -> DecisionRecord | None:
    """Write one decision of *kind* (a :data:`DECISIONS` key) to every
    store that is on; with all off, one context read and out.
    Returns the record, or ``None`` when no store keeps it.

    *correlation_id* is only the fallback for a decision taken outside
    any request scope (the sweep passes the id stashed at admission).
    *measures* feed metrics only, *attributes* go to the record and
    supply metric labels.  A record the ledger keeps also takes the
    checks noted for it (:func:`repro.obs.audit.note_check`)."""
    scope = context.current()
    registry, event_log, ledger = scope.registry, scope.event_log, scope.ledger
    if registry is None and event_log is None and ledger is None:
        return None
    row = DECISIONS[kind]
    if registry is not None and row.metrics:
        fields = {
            "domain": domain, "granted": str(granted).lower(),
            "result": "granted" if granted else "denied", **attributes,
        }
        for metric in row.metrics:
            labels = {name: fields[name] for name in metric.labels}
            amount = measures[metric.measure] if measures and metric.measure else 1.0
            if metric.histogram:
                registry.histogram(metric.name, metric.help).observe(amount, **labels)
            else:
                registry.counter(metric.name, metric.help).inc(amount, **labels)
    if ledger is not None and row.kind not in LEDGER_KINDS:
        ledger = None
    if event_log is None and ledger is None:
        return None
    pending = NOTHING_PENDING if ledger is None else drain_pending()
    entry = DecisionRecord(
        row.kind, at_time, seq=-1 if ledger is None else len(ledger),
        domain=domain, handle=handle, user=user,
        correlation_id=scope.correlation_id or correlation_id,
        granted=granted, reason=reason,
        reason_code=(reason_code.value if isinstance(reason_code, ReasonCode)
                     else reason_code),
        rate_mbps=rate_mbps, window=window,
        upstream=upstream, downstream=downstream,
        matched_rule=decision.matched_rule if decision else "",
        rules_fired=decision.rules_fired if decision else (),
        checks=(*pending.checks, *checks), retries=pending.retries,
        breaker_state=pending.breaker_state,
        deadline_remaining_s=pending.deadline_remaining_s,
        attributes=tuple(sorted((k, str(v)) for k, v in attributes.items())),
    )
    if event_log is not None:
        event_log.emit(entry)
    if ledger is not None:
        ledger.record(entry)
    return entry


def record_revocation(
    *, fingerprint: str, subject: str = "", authority: str = "",
    at_time: float = 0.0,
) -> DecisionRecord | None:
    """Record a certificate/credential revocation at its authority."""
    return record(
        "revoke", at_time=at_time, domain=authority, user=subject,
        reason=f"revoked by {authority}" if authority else "revoked",
        checks=(CheckRecord(
            kind="revocation", subject=subject, fingerprint=fingerprint,
            verdict="revoked", source="authority",
        ),),
    )
