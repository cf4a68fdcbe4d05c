"""A broker's state is bounded by its live reservations.

The reservation table holds live rows only, and each row carries its
own capacity bookings, so a reservation that ends leaves nothing behind
in its broker: not a row, not a booking.  However many reservations a
broker has seen end, an admission reads none of them, because none
exists.  The ended reservations' history is the decision ledger's.  The
equivalence with the old full-history scans is ``tests/differential/
test_reservation_index.py``; this file counts what is left.
"""

from repro.core.testbed import build_linear_testbed

PAIRS = 2000
#: One request in this many is followed by one the SLA refuses.
DENY_EVERY = 100


def test_admission_reads_no_ended_reservation():
    """2 000 reserve+cancel pairs plus a denial every 100 on a defended
    A-B-C chain: afterwards every table and every capacity schedule is
    empty, and one more reservation is still granted."""
    testbed = build_linear_testbed(["A", "B", "C"])
    testbed.arm_defenses()
    user = testbed.add_user("A", "alice")

    def reserve(rate_mbps=1.0):
        testbed.sim.run(until=testbed.sim.now + 1.0)
        return testbed.reserve(
            user, source="A", destination="C", bandwidth_mbps=rate_mbps,
            start=testbed.sim.now, duration=60.0,
        )

    for i in range(PAIRS):
        outcome = reserve()
        assert outcome.granted, outcome.denial_reason
        testbed.hop_by_hop.claim(outcome)
        testbed.hop_by_hop.cancel(outcome)
        if i % DENY_EVERY == 0:
            # 500 Mb/s is beyond the 155 Mb/s inter-domain SLA.
            assert not reserve(rate_mbps=500.0).granted

    for domain, broker in testbed.brokers.items():
        assert len(broker.reservations) == 0, domain
        for name in broker.admission.resources():
            assert broker.admission.schedule(name).bookings == (), name
    assert reserve().granted
