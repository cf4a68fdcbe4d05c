"""Differential suite: the reservation table's live index against the
full-history scans it replaced (``tests/bb/_oracle.py``).

Hypothesis drives one table through random create / legal and illegal
``transition`` / ``refresh`` / ``sweep_expired(now)`` sequences.  After
every step, ``in_state`` (every set of live states), ``active_at`` and
the rows ``sweep_expired`` returns must equal the oracle's over
``table.all()``, order included, and so must ``_live_counts`` of a broker
with armed defenses that holds the table.  Tier-1 runs a small budget;
``pytest --full-sweeps`` (the differential CI job) a deep one.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bb.admission import AdmissionController
from repro.bb.broker import BandwidthBroker
from repro.bb.defense import DomainDefense
from repro.bb.policyserver import PolicyServer
from repro.bb.reservations import (
    ReservationRequest,
    ReservationState,
    ReservationTable,
)
from repro.crypto.dn import DN
from repro.errors import ReservationStateError
from repro.policy.language import compile_policy

from tests.bb import _oracle

LIVE = (ReservationState.PENDING, ReservationState.GRANTED,
        ReservationState.ACTIVE)
TERMINAL = (ReservationState.CANCELLED, ReservationState.EXPIRED,
            ReservationState.DENIED)
LIVE_SUBSETS = [
    subset
    for size in range(1, len(LIVE) + 1)
    for subset in itertools.combinations(LIVE, size)
]
OWNERS = (None, *(DN.make("Grid", "DomainA", name) for name in ("Alice", "Bob")))
UPSTREAMS = (None, "A", "C")
PROBES = [float(t) for t in range(0, 18)]


def _budget(request, tier1: int, full: int) -> settings:
    return settings(
        max_examples=full if request.config.getoption("--full-sweeps") else tier1,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


def _broker() -> BandwidthBroker:
    admission = AdmissionController()
    admission.add_resource("intra", 1000.0)
    broker = BandwidthBroker(
        "B",
        policy_server=PolicyServer("B", compile_policy("Return GRANT", name="B")),
        admission=admission,
        scheme="simulated",
    )
    broker.defense = DomainDefense(domain="B")
    return broker


_times = st.integers(min_value=0, max_value=20).map(float)

ops = st.one_of(
    st.tuples(st.just("create"), st.sampled_from(range(len(OWNERS))),
              st.sampled_from(UPSTREAMS),
              st.integers(min_value=0, max_value=12),
              st.integers(min_value=1, max_value=5)),
    st.tuples(st.just("transition"), st.integers(min_value=0, max_value=63),
              st.sampled_from(list(ReservationState))),
    st.tuples(st.just("refresh"), st.integers(min_value=0, max_value=63),
              _times, st.integers(min_value=1, max_value=5).map(float)),
    st.tuples(st.just("sweep"), _times),
)


def _step(table: ReservationTable, op: tuple) -> None:
    kind = op[0]
    rows = table.all()
    if kind == "create":
        _, owner, upstream, start, length = op
        resv = table.create(
            ReservationRequest(
                source_host="h0.A", destination_host="h0.C",
                source_domain="A", destination_domain="C",
                rate_mbps=1.0, start=float(start), end=float(start + length),
            ),
            OWNERS[owner],
        )
        resv.upstream = upstream
    elif kind == "sweep":
        expected = _oracle.lapsed(rows, op[1])
        swept = table.sweep_expired(op[1])
        assert swept == expected
        assert all(r.state is ReservationState.EXPIRED for r in swept)
    elif rows:
        resv = rows[op[1] % len(rows)]
        before = resv.state
        try:
            if kind == "transition":
                table.transition(resv.handle, op[2])
            else:
                table.refresh(resv.handle, now=op[2], ttl_s=op[3])
        except ReservationStateError:
            assert resv.state is before


def _check(table: ReservationTable, broker: BandwidthBroker) -> None:
    rows = table.all()
    for states in LIVE_SUBSETS:
        assert table.in_state(*states) == _oracle.in_state(rows, *states)
    for state in TERMINAL:
        with pytest.raises(ReservationStateError):
            table.in_state(state)
    for when in PROBES:
        assert table.active_at(when) == _oracle.active_at(rows, when)
    for resv in rows:
        assert broker._live_counts(resv) == _oracle.live_counts(rows, resv)
    # The index holds exactly the non-terminal rows, in creation order.
    assert tuple(table._live.values()) == _oracle.in_state(rows, *LIVE)


def test_live_index_matches_full_history_scans(request):
    broker = _broker()

    @_budget(request, tier1=40, full=1500)
    @given(st.lists(ops, max_size=40))
    def check(sequence):
        table = ReservationTable("B")
        broker.reservations = table
        for op in sequence:
            _step(table, op)
            _check(table, broker)

    check()
