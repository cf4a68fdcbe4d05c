"""Projection the scenario tests assert on.

:func:`decision_rows` projects an audit ledger onto plain comparable
rows, leaving out what is not a decision: the per-attempt
``correlation_id``.
"""


def decision_rows(ledger):
    """Project a :class:`~repro.obs.audit.ledger.DecisionLedger` onto
    comparable rows (no correlation ids)."""
    rows = []
    for record in ledger.records():
        checks = tuple(
            (check.kind, check.subject, check.verdict, check.source)
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
