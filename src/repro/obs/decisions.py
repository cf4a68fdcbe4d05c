"""The one decision writer.

A call site states what was decided and :func:`record` writes it to every
view that is on, so the decision counters, the event log and the audit
ledger agree by construction.  :data:`DECISIONS` is the single source for
the event kind, ledger record kind and metrics of each decision kind
(``docs/OBSERVABILITY.md`` tabulates it).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, NamedTuple

from repro.obs.audit.ledger import RecordKind, get_ledger
from repro.obs.events import (
    EventKind, ReasonCode, current_correlation_id, get_event_log,
)
from repro.obs.metrics import get_registry

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.policy.engine import PolicyDecision

__all__ = ["DECISIONS", "record"]


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
    event: EventKind | None
    record: RecordKind | None
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

#: decision kind -> event kind, ledger record kind, metrics.  Counters
#: follow the kind the caller states: a broker's refusal is an admission
#: attempt ("admit_denied"), the signalling engine's ("deny") is not.
DECISIONS: dict[str, _Kind] = {
    "admit": _Kind(EventKind.ADMIT, RecordKind.ADMIT, _ADMISSIONS),
    "admit_denied": _Kind(EventKind.DENY, RecordKind.DENY, _ADMISSIONS),
    "deny": _Kind(EventKind.DENY, RecordKind.DENY),
    "trust_failure": _Kind(EventKind.TRUST_FAILURE, RecordKind.DENY),
    "claim": _Kind(EventKind.CLAIM, RecordKind.CLAIM, (_Metric(
        "claims_total", "Reservations claimed (activated)", _DOMAIN),)),
    "cancel": _Kind(EventKind.CANCEL, RecordKind.CANCEL, (_Metric(
        "cancellations_total", "Reservations cancelled", _DOMAIN),)),
    "expire": _Kind(EventKind.EXPIRE, RecordKind.EXPIRE, (_Metric(
        "soft_state_expirations_total",
        "Reservations reclaimed by soft-state expiry", _DOMAIN),)),
    "release": _Kind(EventKind.RELEASE, None, (_Metric(
        "releases_total",
        "Partial-path reservations released after a downstream denial",
        _DOMAIN),)),
    "unwind_failed": _Kind(
        EventKind.UNWIND_FAILED, RecordKind.UNWIND_FAILED, (_Metric(
            "unwind_failures_total",
            "Partial-path releases that failed (left to soft-state expiry)",
            _DOMAIN),)),
    "retry": _Kind(EventKind.RETRY, None, (_Metric(
        "signalling_retries_total",
        "Transient-failure retries during hop-by-hop signalling",
        ("target",)),)),
    "breaker": _Kind(EventKind.BREAKER, None, (_Metric(
        "breaker_transitions_total",
        "Circuit-breaker state transitions, by link and new state",
        ("link", "to")),)),
    "fault": _Kind(EventKind.FAULT, None, (_Metric(
        "faults_injected_total",
        "Faults delivered by the injector, by target kind and kind",
        ("target_kind", "kind")),)),
    "fallback": _Kind(EventKind.FALLBACK, RecordKind.FALLBACK, (_Metric(
        "tunnel_fallbacks_total",
        "Intra-tunnel flows degraded to per-flow signalling", ("tunnel",)),)),
    "outcome": _Kind(None, RecordKind.OUTCOME, _OUTCOME),
    "outcome_denied": _Kind(None, RecordKind.OUTCOME, (*_OUTCOME, _Metric(
        "denials_total", "Reservations denied, by denying domain", _DOMAIN))),
}


def record(
    kind: str, /, *, at_time: float = 0.0, domain: str = "", user: str = "",
    handle: str = "", reason: str = "", reason_code: ReasonCode | str = "",
    correlation_id: str = "", granted: bool = False,
    rate_mbps: float | None = None, window: tuple[float, float] = (0.0, 0.0),
    upstream: str | None = None, downstream: str | None = None,
    decision: PolicyDecision | None = None,
    measures: Mapping[str, float] | None = None, **attributes: object,
) -> None:
    """Write one decision of *kind* (a :data:`DECISIONS` key) to every
    store that is on; with all off, three ``None`` checks and out.

    *correlation_id* is only the fallback for a decision taken outside
    any request scope (the sweep passes the id stashed at admission).
    *rate_mbps* is a ledger field and an event attribute, *measures*
    feed metrics only, *attributes* go to the event and the ledger
    record and supply metric labels."""
    registry, event_log, ledger = get_registry(), get_event_log(), get_ledger()
    if registry is None and event_log is None and ledger is None:
        return
    row = DECISIONS[kind]
    correlation_id = current_correlation_id() or correlation_id
    if isinstance(reason_code, ReasonCode):
        reason_code = reason_code.value
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
    if event_log is not None and row.event is not None:
        event_log.emit(
            row.event, at_time=at_time, domain=domain, user=user,
            handle=handle, reason=reason, reason_code=reason_code,
            correlation_id=correlation_id,
            **(attributes if rate_mbps is None
               else {**attributes, "rate_mbps": rate_mbps}),
        )
    if ledger is not None and row.record is not None:
        ledger.record(
            row.record, at_time=at_time, domain=domain, handle=handle,
            user=user, correlation_id=correlation_id, granted=granted,
            reason=reason, reason_code=reason_code,
            rate_mbps=rate_mbps or 0.0, window=window,
            upstream=upstream, downstream=downstream,
            matched_rule=decision.matched_rule if decision else "",
            rules_fired=decision.rules_fired if decision else (),
            **attributes,
        )
