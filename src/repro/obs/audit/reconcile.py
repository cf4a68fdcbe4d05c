"""Cross-check the decision ledger against the fabric's ground truth.

The ledger claims to be a faithful account of every decision; the
reconciler *proves* it (or produces a violation list) by checking four
families of invariants:

**Ledger-internal** (:func:`reconcile_ledger`):

* ``policy-evaluation`` — no admission without a matching policy
  evaluation: every ADMIT record names the rule that granted it.
* ``provenance-chain`` — every granted outcome has a complete per-hop
  admission chain, one ADMIT per path domain, in travel order; every
  denied outcome with a denying domain has that hop's DENY record.
* ``unwind-balance`` — in any denied run, every hop admission is
  balanced by a cancel, an expiry, or an explicit unwind-failure
  record (soft state reclaims the latter).
* ``claim-provenance`` — nothing is claimed that was never admitted.

**Broker state** (:func:`reconcile_brokers`): a reservation table
holds live rows only, and the ledger's unbalanced ADMIT records are the
same set — every granted/active row has one, every one at a domain is
a row of that domain's table, and every capacity booking is tagged by
one.  A terminal reservation's history is the ledger's alone.

**Accounting** (:func:`reconcile_accounting`): every billing run's
path is fully covered by admissions of the billed signalling run.

Brokers and billing are duck-typed (the module imports nothing from
``repro.bb``/``repro.accounting``), so the reconciler also works on
ledgers imported from JSON long after the testbed is gone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.obs.audit.ledger import DecisionLedger, DecisionRecord, RecordKind

__all__ = [
    "AuditViolation",
    "ReconciliationReport",
    "reconcile",
    "reconcile_ledger",
    "reconcile_brokers",
    "reconcile_accounting",
]

#: Record kinds that balance (tear down) an earlier admission.
_BALANCING = (RecordKind.CANCEL, RecordKind.EXPIRE, RecordKind.UNWIND_FAILED)


@dataclass(frozen=True)
class AuditViolation:
    """One broken invariant."""

    invariant: str
    detail: str
    correlation_id: str = ""
    handle: str = ""

    def render(self) -> str:
        where = self.handle or self.correlation_id
        suffix = f" [{where}]" if where else ""
        return f"{self.invariant}: {self.detail}{suffix}"


@dataclass
class ReconciliationReport:
    """The outcome of one reconciliation pass."""

    violations: list[AuditViolation] = field(default_factory=list)
    checked_records: int = 0
    checked_reservations: int = 0
    checked_bookings: int = 0
    checked_billing_runs: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        lines = [
            "audit reconciliation: "
            + ("OK" if self.ok else f"{len(self.violations)} violation(s)"),
            f"  records checked:      {self.checked_records}",
            f"  reservations checked: {self.checked_reservations}",
            f"  bookings checked:     {self.checked_bookings}",
            f"  billing runs checked: {self.checked_billing_runs}",
        ]
        for violation in self.violations:
            lines.append(f"  VIOLATION {violation.render()}")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "checked_records": self.checked_records,
            "checked_reservations": self.checked_reservations,
            "checked_bookings": self.checked_bookings,
            "checked_billing_runs": self.checked_billing_runs,
            "violations": [
                {
                    "invariant": v.invariant,
                    "detail": v.detail,
                    "correlation_id": v.correlation_id,
                    "handle": v.handle,
                }
                for v in self.violations
            ],
        }


# ---------------------------------------------------------------------------
# Ledger-internal invariants
# ---------------------------------------------------------------------------


def _admits_by_handle(
    records: tuple[DecisionRecord, ...]
) -> dict[str, DecisionRecord]:
    return {
        r.handle: r
        for r in records
        if r.kind is RecordKind.ADMIT and r.handle
    }


def reconcile_ledger(ledger: DecisionLedger) -> list[AuditViolation]:
    violations: list[AuditViolation] = []
    records = tuple(ledger)

    # policy-evaluation: every admission names the rule that granted it.
    for record in records:
        if record.kind is RecordKind.ADMIT and not record.matched_rule:
            violations.append(AuditViolation(
                "policy-evaluation",
                f"admission at {record.domain} (seq {record.seq}) carries "
                "no matched policy rule",
                correlation_id=record.correlation_id,
                handle=record.handle,
            ))

    # claim-provenance: nothing claimed that was never admitted.
    admits = _admits_by_handle(records)
    for record in records:
        if record.kind is RecordKind.CLAIM and record.handle not in admits:
            violations.append(AuditViolation(
                "claim-provenance",
                f"claim of {record.handle} at {record.domain} has no "
                "admission record",
                correlation_id=record.correlation_id,
                handle=record.handle,
            ))

    # provenance-chain + unwind-balance, per correlation.
    by_correlation: dict[str, list[DecisionRecord]] = {}
    for record in records:
        if record.correlation_id:
            by_correlation.setdefault(record.correlation_id, []).append(record)

    for cid, group in by_correlation.items():
        group.sort(key=lambda r: r.seq)
        outcome = next(
            (r for r in group if r.kind is RecordKind.OUTCOME), None
        )
        admitted = [r for r in group if r.kind is RecordKind.ADMIT]
        denied = [r for r in group if r.kind is RecordKind.DENY]

        if outcome is not None and outcome.granted:
            path = tuple(
                p for p in outcome.attribute("path").split(">") if p
            )
            admit_domains = [r.domain for r in admitted]
            for domain in path:
                if domain not in admit_domains:
                    violations.append(AuditViolation(
                        "provenance-chain",
                        f"granted outcome traversed {domain} but the hop "
                        "has no admission record",
                        correlation_id=cid,
                    ))
            on_path = [d for d in admit_domains if d in path]
            if tuple(on_path[: len(path)]) != path[: len(on_path)]:
                violations.append(AuditViolation(
                    "provenance-chain",
                    f"admissions {on_path} out of travel order vs path "
                    f"{list(path)}",
                    correlation_id=cid,
                ))
        if outcome is not None and not outcome.granted and outcome.domain:
            if not any(r.domain == outcome.domain for r in denied):
                violations.append(AuditViolation(
                    "provenance-chain",
                    f"denied outcome blames {outcome.domain} but the hop "
                    "has no denial record",
                    correlation_id=cid,
                ))

        run_denied = denied or (outcome is not None and not outcome.granted)
        if run_denied:
            for admit in admitted:
                balanced = any(
                    r.kind in _BALANCING
                    and r.handle == admit.handle
                    and r.seq > admit.seq
                    for r in group
                )
                if not balanced:
                    violations.append(AuditViolation(
                        "unwind-balance",
                        f"denied run left admission at {admit.domain} "
                        "unbalanced (no cancel/expire/unwind record)",
                        correlation_id=cid,
                        handle=admit.handle,
                    ))
    return violations


# ---------------------------------------------------------------------------
# Broker reservation tables and capacity bookings
# ---------------------------------------------------------------------------


def _live_admissions(
    records: Iterable[DecisionRecord],
) -> dict[str, DecisionRecord]:
    """The ledger's live admissions by handle, in one pass over it: an
    ADMIT adds its handle and a :data:`_BALANCING` record removes it."""
    live: dict[str, DecisionRecord] = {}
    for r in records:
        if r.kind is RecordKind.ADMIT and r.handle:
            live[r.handle] = r
        elif r.kind in _BALANCING:
            live.pop(r.handle, None)
    return live


def reconcile_brokers(
    ledger: DecisionLedger,
    brokers: Mapping[str, Any],
    *,
    report: ReconciliationReport | None = None,
) -> list[AuditViolation]:
    """Check broker reservation tables and bookings against the ledger.

    A table holds live rows only, so the table and the ledger must name
    the same set of reservations: every granted/active row has a live
    admission, every live admission at a domain is a row of its table,
    and every capacity booking is tagged by a live admission.

    *brokers* is duck-typed: each value needs ``.reservations`` (``in``
    and ``all()``) and ``.admission`` with ``resources()`` /
    ``schedule(r).bookings``.
    """
    violations: list[AuditViolation] = []
    live = _live_admissions(ledger)

    for domain, broker in brokers.items():
        table = broker.reservations
        for resv in table.all():
            if report is not None:
                report.checked_reservations += 1
            state = resv.state.value
            if state in ("granted", "active") and resv.handle not in live:
                violations.append(AuditViolation(
                    "table-ledger",
                    f"{domain} holds {resv.handle} {state} but the ledger "
                    "has no live admission for it",
                    handle=resv.handle,
                ))
        for handle, admit in live.items():
            if admit.domain == domain and handle not in table:
                violations.append(AuditViolation(
                    "table-ledger",
                    f"ledger admission at {domain} was never balanced but "
                    "the table does not hold it",
                    correlation_id=admit.correlation_id,
                    handle=handle,
                ))

        for resource in broker.admission.resources():
            for booking in broker.admission.schedule(resource).bookings:
                if report is not None:
                    report.checked_bookings += 1
                tag = booking.tag
                if tag and tag not in live:
                    violations.append(AuditViolation(
                        "booking-ledger",
                        f"capacity booking on {resource} tagged {tag} "
                        "has no live admission in the ledger",
                        handle=tag,
                    ))
    return violations


# ---------------------------------------------------------------------------
# Accounting
# ---------------------------------------------------------------------------


def reconcile_accounting(
    ledger: DecisionLedger,
    billing_runs: Iterable[Any],
    *,
    report: ReconciliationReport | None = None,
) -> list[AuditViolation]:
    """Every billing run bills a signalling run the ledger admitted on
    every domain of the billed path."""
    violations: list[AuditViolation] = []
    for run in billing_runs:
        if report is not None:
            report.checked_billing_runs += 1
        cid = getattr(run, "correlation_id", "") or ""
        if not cid:
            continue  # pre-ISSUE-6 runs carry no correlation id
        admit_domains = {
            r.domain
            for r in ledger.records(RecordKind.ADMIT, correlation_id=cid)
        }
        for domain in run.path:
            if domain not in admit_domains:
                violations.append(AuditViolation(
                    "accounting",
                    f"billing run charges for {domain} but the ledger "
                    "has no admission there",
                    correlation_id=cid,
                ))
    return violations


# ---------------------------------------------------------------------------
# Front door
# ---------------------------------------------------------------------------


def reconcile(
    ledger: DecisionLedger,
    *,
    brokers: Mapping[str, Any] | None = None,
    billing_runs: Iterable[Any] | None = None,
) -> ReconciliationReport:
    """Run every applicable invariant family and return one report."""
    report = ReconciliationReport(checked_records=len(ledger))
    report.violations.extend(reconcile_ledger(ledger))
    if brokers is not None:
        report.violations.extend(
            reconcile_brokers(ledger, brokers, report=report)
        )
    if billing_runs is not None:
        report.violations.extend(
            reconcile_accounting(ledger, billing_runs, report=report)
        )
    return report
