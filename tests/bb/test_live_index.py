"""The reservation table's live index: an admission costs O(live rows).

The table keeps every ended reservation (``all``/``get``/``len`` are the
full history) but answers its live-set queries from the non-terminal
rows alone, so a broker that has seen thousands of reservations end
does not look at any of them to admit the next one.  The equivalence
with the old full-history scans is ``tests/differential/
test_reservation_index.py``; this file counts what is read.
"""

from repro.bb.reservations import Reservation, ReservationState
from repro.core.testbed import build_linear_testbed

PAIRS = 2000


class _Watched(Reservation):
    """A row whose ``state`` reads are counted (the class is swapped in
    on rows that already exist, so the dataclass fields are untouched)."""

    reads = 0

    @property
    def state(self):
        _Watched.reads += 1
        return self.__dict__["state"]

    @state.setter
    def state(self, value):
        self.__dict__["state"] = value


def test_admission_reads_no_ended_reservation():
    """After 2 000 reserve+cancel pairs on a defended A-B-C chain, one
    more admission (every broker's quota count) and its claim (every
    broker's ``_refresh_ingress``) read the state of none of the 2 000
    ended rows each broker still holds."""
    testbed = build_linear_testbed(["A", "B", "C"])
    testbed.arm_defenses()
    user = testbed.add_user("A", "alice")

    def reserve():
        testbed.sim.run(until=testbed.sim.now + 1.0)
        outcome = testbed.reserve(
            user, source="A", destination="C", bandwidth_mbps=1.0,
            start=testbed.sim.now, duration=60.0,
        )
        assert outcome.granted, outcome.denial_reason
        testbed.hop_by_hop.claim(outcome)
        return outcome

    for _ in range(PAIRS):
        testbed.hop_by_hop.cancel(reserve())
    for broker in testbed.brokers.values():
        ended = broker.reservations.all()
        assert len(ended) == PAIRS
        assert all(r.state is ReservationState.CANCELLED for r in ended)
        for row in ended:
            row.__class__ = _Watched

    _Watched.reads = 0
    reserve()
    assert _Watched.reads == 0
    for broker in testbed.brokers.values():
        assert len(broker.reservations) == PAIRS + 1
