"""Projection the scenario tests assert on.

:func:`decision_rows` projects an audit ledger onto plain comparable
rows, leaving out what is not a decision: the per-attempt
``correlation_id`` and (optionally) check-record ``source`` — a batched
run may answer a sub-verification from the shared batch cache scope
where a sequential run verified fresh; the *verdict* must still match.
"""


def decision_rows(ledger, *, provenance_sources=True):
    """Project a :class:`~repro.obs.audit.ledger.DecisionLedger` onto
    comparable rows (no correlation ids, optionally no cache-vs-fresh
    provenance sources)."""
    rows = []
    for record in ledger.records():
        checks = tuple(
            (
                check.kind,
                check.subject,
                check.verdict,
                check.source if provenance_sources else "",
            )
            for check in record.checks
        )
        rows.append((
            record.kind.value,
            record.at_time,
            record.domain,
            record.handle,
            record.user,
            record.granted,
            record.reason,
            record.reason_code,
            record.rate_mbps,
            record.window,
            record.upstream,
            record.downstream,
            record.matched_rule,
            record.rules_fired,
            record.retries,
            checks,
        ))
    return rows
