"""What the differential suites share.

:func:`decision_rows` projects an audit ledger onto plain comparable
rows, leaving out what is not a decision: the per-attempt
``correlation_id``.  :func:`subset_violation` is the contract between
the two wire decoders, checked on one buffer.
"""

from repro.core.codec import WireView, from_wire, to_wire
from repro.errors import ReproError

#: What HopByHopProtocol._decode_received catches (a production-decoder
#: error outside this would escape process_ingress as a crash).  It is
#: ReproError, not just WireCodecError, because decoding re-runs
#: protocol-object validators — the fuzz sweep originally caught a
#: crafted res_spec escaping ingress as a ReservationStateError.
INGRESS_CATCHABLE = ReproError

#: The reference decoder leaks builtin errors on crafted input; only its
#: accept/reject verdict (and accepted value) is compared.
REFERENCE_CATCHABLE = (
    ReproError, KeyError, ValueError, TypeError, AttributeError,
    OverflowError,
)


def classify(decode, wire, catchable):
    """``("ok", re-encoded bytes, value)`` or ``("err", exception)``; an
    exception outside *catchable* propagates and fails the test."""
    try:
        value = decode(wire)
        return ("ok", to_wire(value), value)
    except catchable as exc:
        return ("err", exc)


def zero_copy(wire):
    return WireView.parse(wire).materialize()


def subset_violation(wire):
    """Why *wire* breaks production ⊆ reference, or ``None``: what the
    production decoder accepts re-encodes to exactly *wire* and the
    reference accepts it with an equal value; what only the reference
    accepts does not re-encode to itself (it is a second spelling)."""
    old = classify(from_wire, wire, REFERENCE_CATCHABLE)
    new = classify(zero_copy, wire, INGRESS_CATCHABLE)
    if new[0] == "ok":
        if new[1] != wire:
            return "accepted a buffer the encoder does not write"
        if old[0] != "ok" or old[2] != new[2]:
            return f"reference disagrees on an accepted buffer: {old}"
    elif old[0] == "ok" and old[1] == wire:
        return f"refused the encoder's own bytes: {new[1]!r}"
    return None


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
