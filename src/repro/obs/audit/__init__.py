"""repro.obs.audit — the decision-provenance ledger (ISSUE 6).

Metrics say *where time went* and the event log *what happened*, lately;
the audit ledger keeps **every decision, and why**.  Every admission,
denial, claim, cancel, expiry, unwind, fallback, revocation and outcome
at every hop is one immutable :class:`DecisionRecord` — the same object
the event log holds — carrying the full evaluation provenance:

* the policy rule ids that fired (:mod:`repro.policy.engine` traces its
  evaluation path and stamps ``matched_rule`` / ``rules_fired``);
* every certificate and delegation chain checked, each with its
  verdict;
* breaker / retry / deadline context from :mod:`repro.core.recovery`;
* the PR-4 correlation id, so per-hop records stitch into one
  end-to-end decision chain (:func:`repro.obs.audit.explain.stitch`).

On top of the ledger sits a reconciliation engine
(:mod:`repro.obs.audit.reconcile`) that cross-checks it against broker
reservation tables, capacity bookings, soft-state leases, and the
accounting ledger, asserting the invariants documented in
``docs/AUDIT.md``.  ``repro audit query/explain/--reconcile`` is the
CLI surface.

Same contract as the other pillars: disabled by default, one ``None``
check when off, scoped installation via :class:`use_ledger`.
"""

from __future__ import annotations

from repro.obs.audit.ledger import (
    LEDGER_KINDS,
    DecisionLedger,
    discard_pending,
    get_ledger,
    note_check,
    note_recovery,
    note_retry,
    record_decision,
    use_ledger,
)
from repro.obs.events import CheckRecord, DecisionRecord, RecordKind
from repro.obs.audit.explain import (
    DecisionChain,
    chain_to_dict,
    render_chain,
    resolve_correlation,
    stitch,
)
from repro.obs.audit.reconcile import (
    AuditViolation,
    ReconciliationReport,
    reconcile,
    reconcile_accounting,
    reconcile_brokers,
    reconcile_ledger,
)

__all__ = [
    "CheckRecord",
    "DecisionRecord",
    "DecisionLedger",
    "RecordKind",
    "LEDGER_KINDS",
    "get_ledger",
    "use_ledger",
    "note_check",
    "note_retry",
    "note_recovery",
    "discard_pending",
    "record_decision",
    "DecisionChain",
    "stitch",
    "resolve_correlation",
    "render_chain",
    "chain_to_dict",
    "AuditViolation",
    "ReconciliationReport",
    "reconcile",
    "reconcile_ledger",
    "reconcile_brokers",
    "reconcile_accounting",
]
