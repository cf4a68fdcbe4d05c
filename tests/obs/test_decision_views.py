"""The views of a decision agree.

Every admit / deny / lifecycle / recovery decision is written once
(:func:`repro.obs.decisions.record`) as one record; the event log and the
audit ledger keep that same object, and the decision counters count it.
These checks run the scenario table of ``test_event_coverage`` with all
three stores on and compare the views against each other — no new
scenarios.
"""

from collections import Counter

import pytest

from repro.obs import events, metrics
from repro.obs.audit import LEDGER_KINDS, RecordKind, use_ledger

from tests.obs.test_event_coverage import SCENARIOS

#: The kinds only the event log keeps.
EVENT_LOG_ONLY = {
    RecordKind.RELEASE, RecordKind.RETRY, RecordKind.BREAKER,
    RecordKind.FAULT, RecordKind.ALERT,
}

#: Counters whose decision kind maps to exactly one record kind.
ONE_TO_ONE_COUNTERS = {
    "claims_total": RecordKind.CLAIM,
    "cancellations_total": RecordKind.CANCEL,
    "releases_total": RecordKind.RELEASE,
    "unwind_failures_total": RecordKind.UNWIND_FAILED,
    "signalling_retries_total": RecordKind.RETRY,
    "breaker_transitions_total": RecordKind.BREAKER,
    "faults_injected_total": RecordKind.FAULT,
    "tunnel_fallbacks_total": RecordKind.FALLBACK,
    "soft_state_expirations_total": RecordKind.EXPIRE,
}


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


def test_the_ledger_keeps_the_event_logs_own_records(views):
    _, log, ledger = views
    kept = [record for record in log if record.kind in LEDGER_KINDS]
    assert len(kept) == len(ledger)
    assert all(mine is theirs for mine, theirs in zip(ledger, kept))
    assert [record.seq for record in ledger] == list(range(len(ledger)))


def test_only_the_event_log_keeps_the_non_decisions(views):
    _, log, _ = views
    assert set(RecordKind) - LEDGER_KINDS == EVENT_LOG_ONLY
    assert {record.kind for record in log} - LEDGER_KINDS <= EVENT_LOG_ONLY
    assert all(record.seq == -1 for record in log
               if record.kind in EVENT_LOG_ONLY)


def test_one_to_one_counters_equal_their_event_counts(views):
    registry, log, _ = views
    counted = {
        name: sum(_series(registry, name).values())
        for name in ONE_TO_ONE_COUNTERS
    }
    narrated = {
        name: len(log.records(kind))
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
