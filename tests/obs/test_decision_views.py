"""The views of a decision agree.

Every admit / deny / lifecycle / recovery decision is written once
(:func:`repro.obs.decisions.record`); the event log, the audit ledger
and the decision counters are views of that write.  These checks run the
scenario table of ``test_event_coverage`` with all three stores on and
compare the views against each other — no new scenarios.
"""

from collections import Counter

import pytest

from repro.obs import events, metrics
from repro.obs.audit import RecordKind, use_ledger
from repro.obs.events import EventKind

from tests.obs.test_event_coverage import SCENARIOS

#: Ledger record kind -> the event kinds that narrate the same decision.
RECORDED_AND_NARRATED = {
    RecordKind.ADMIT: (EventKind.ADMIT,),
    RecordKind.DENY: (EventKind.DENY, EventKind.TRUST_FAILURE),
    RecordKind.CLAIM: (EventKind.CLAIM,),
    RecordKind.CANCEL: (EventKind.CANCEL,),
    RecordKind.EXPIRE: (EventKind.EXPIRE,),
    RecordKind.UNWIND_FAILED: (EventKind.UNWIND_FAILED,),
    RecordKind.FALLBACK: (EventKind.FALLBACK,),
}

#: Counters whose decision kind maps to exactly one event kind.
ONE_TO_ONE_COUNTERS = {
    "claims_total": EventKind.CLAIM,
    "cancellations_total": EventKind.CANCEL,
    "releases_total": EventKind.RELEASE,
    "unwind_failures_total": EventKind.UNWIND_FAILED,
    "signalling_retries_total": EventKind.RETRY,
    "breaker_transitions_total": EventKind.BREAKER,
    "faults_injected_total": EventKind.FAULT,
    "tunnel_fallbacks_total": EventKind.FALLBACK,
    "soft_state_expirations_total": EventKind.EXPIRE,
}


def _identity(kind, entry):
    """What a record and its event must have in common."""
    return (
        kind, entry.correlation_id, entry.domain, entry.user, entry.handle,
        entry.reason, entry.reason_code,
    )


def _series(registry, name):
    """``{labels: count}`` of counter *name*, empty when never touched."""
    counter = registry.get(name)
    return {} if counter is None else {
        labels: int(value) for labels, value in counter.series().items()
    }


@pytest.fixture(params=list(dict.fromkeys(SCENARIOS.values())),
                ids=lambda scenario: scenario.__name__)
def views(request):
    with metrics.use_registry() as registry, \
            events.use_event_log() as log, use_ledger() as ledger:
        request.param()
    return registry, log, ledger


def test_every_recorded_decision_is_narrated_once_and_conversely(views):
    _, log, ledger = views
    recorded = Counter(
        _identity(record.kind, record)
        for record in ledger if record.kind in RECORDED_AND_NARRATED
    )
    narrated = Counter(
        _identity(record_kind, event)
        for record_kind, event_kinds in RECORDED_AND_NARRATED.items()
        for event_kind in event_kinds
        for event in log.events(event_kind)
    )
    assert recorded == narrated
    assert all(count == 1 for count in recorded.values()), recorded


def test_one_to_one_counters_equal_their_event_counts(views):
    registry, log, _ = views
    counted = {
        name: sum(_series(registry, name).values())
        for name in ONE_TO_ONE_COUNTERS
    }
    narrated = {
        name: len(log.events(kind))
        for name, kind in ONE_TO_ONE_COUNTERS.items()
    }
    assert counted == narrated


def test_admission_counter_equals_the_brokers_own_records(views):
    """A broker's decision carries the handle it minted; the signalling
    engine's denial (dead link, failed trust) carries none and is not
    an admission attempt."""
    registry, _, ledger = views
    recorded = Counter(
        (("domain", record.domain), ("granted", str(record.granted).lower()))
        for record in ledger
        if record.kind in (RecordKind.ADMIT, RecordKind.DENY) and record.handle
    )
    assert _series(registry, "admissions_total") == dict(recorded)


def test_outcome_counters_equal_the_outcome_records(views):
    registry, _, ledger = views
    outcomes = ledger.records(RecordKind.OUTCOME)
    attempts = Counter(
        (("result", "granted" if record.granted else "denied"),)
        for record in outcomes
    )
    denials = Counter(
        (("domain", record.domain),)
        for record in outcomes if not record.granted
    )
    assert _series(registry, "reservations_total") == dict(attempts)
    assert _series(registry, "denials_total") == dict(denials)
