"""Differential suite: the live-rows-only reservation table against the
full-history scans it replaced (``tests/bb/_oracle.py``).

Hypothesis drives one table through random create / legal and illegal
``transition`` / ``refresh`` / ``sweep_expired(now)`` sequences, and the
test keeps its own list of every row it creates.  After every step,
``in_state`` (every set of live states), ``active_at`` and the rows
``sweep_expired`` returns must equal the oracle's over that list, order
included, and so must ``_live_counts`` of a broker with armed defenses
that holds the table.  A terminal row must be gone: its handle is not
``in`` the table, ``get`` raises ``UnknownReservationError``,
``is_valid`` is False, and ``len`` is the live count.

A second suite drives a broker with an edge configurator through
admit / claim / cancel / soft-state sweep in random orders, with rates
whose float sums depend on their order.  After every step, each
upstream's provisioned ingress total (summed over the table's index of
ACTIVE rows) must be bit-identical to the creation-order sum over every
row the broker made.  Tier-1 runs a small budget; ``pytest
--full-sweeps`` (the differential CI job) a deep one.
"""

import itertools

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.bb.admission import AdmissionController
from repro.bb.broker import BandwidthBroker
from repro.bb.sla import SLA
from repro.bb.defense import DomainDefense
from repro.bb.policyserver import PolicyServer, VerifiedInfo
from repro.bb.reservations import (
    ReservationRequest,
    ReservationState,
    ReservationTable,
)
from repro.crypto.dn import DN
from repro.errors import ReservationStateError, UnknownReservationError
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


def _step(table: ReservationTable, rows: list, op: tuple) -> None:
    kind = op[0]
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
        rows.append(resv)
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
        except UnknownReservationError:
            assert before in TERMINAL
        except ReservationStateError:
            assert resv.state is before


def _check(
    table: ReservationTable, broker: BandwidthBroker, rows: list
) -> None:
    for states in LIVE_SUBSETS:
        assert table.in_state(*states) == _oracle.in_state(rows, *states)
    for state in TERMINAL:
        with pytest.raises(ReservationStateError):
            table.in_state(state)
    for when in PROBES:
        assert table.active_at(when) == _oracle.active_at(rows, when)
    for resv in rows:
        assert broker._live_counts(resv) == _oracle.live_counts(rows, resv)
    # The table holds exactly the non-terminal rows, in creation order;
    # a terminal row is gone from it.
    live = _oracle.in_state(rows, *LIVE)
    assert table.all() == live
    assert len(table) == len(live)
    for resv in rows:
        if resv.state in TERMINAL:
            assert resv.handle not in table
            with pytest.raises(UnknownReservationError):
                table.get(resv.handle)
            assert not table.is_valid(resv.handle)
        else:
            assert table.get(resv.handle) is resv


def test_live_index_matches_full_history_scans(request):
    broker = _broker()

    @_budget(request, tier1=40, full=1500)
    @given(st.lists(ops, max_size=40))
    def check(sequence):
        table = ReservationTable("B")
        broker.reservations = table
        rows: list = []
        for op in sequence:
            _step(table, rows, op)
            _check(table, broker, rows)

    check()


#: Rates whose float sum depends on the order they are added in.
RATES = (0.1, 0.2, 0.3, 1 / 3, 2 / 3, 7.7, 1e-3, 99.99)
INGRESS = ("A", "B")


class _Configurator:
    def __init__(self):
        self.ingress: dict = {}

    def provision_flow(self, domain, reservation):
        pass

    def teardown_flow(self, domain, reservation):
        pass

    def provision_ingress(self, domain, upstream, service_class, total_rate_mbps):
        self.ingress[upstream, service_class] = total_rate_mbps


def _edge_broker() -> BandwidthBroker:
    admission = AdmissionController()
    admission.add_resource("intra", 1e6)
    for upstream in INGRESS:
        admission.add_resource(f"ingress:{upstream}", 1e6)
    broker = BandwidthBroker(
        "C",
        policy_server=PolicyServer("C", compile_policy("Return GRANT", name="C")),
        admission=admission,
        scheme="simulated",
        soft_state_ttl_s=10.0,
    )
    for upstream in INGRESS:
        broker.register_sla(SLA(upstream, "C"))
    broker.configurator = _Configurator()
    return broker


_admit = st.tuples(st.just("admit"), st.sampled_from(INGRESS),
                  st.sampled_from(RATES))
_claim = st.tuples(st.just("claim"), st.integers(min_value=0, max_value=63))
#: Admits and claims outweigh cancels and clock ticks, so that several
#: rows of one upstream turn active out of their creation order.
edge_ops = st.one_of(
    _admit, _admit, _admit, _claim, _claim,
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("tick"), st.integers(min_value=1, max_value=4)),
)


def test_ingress_totals_match_the_creation_order_scan(request):
    """``_refresh_ingress`` reads ``in_state(ACTIVE)`` from the index;
    the totals it provisions equal, bit for bit, the sums the full scan
    of every created row gives (``_oracle.ingress_total``)."""

    @_budget(request, tier1=40, full=1500)
    @given(st.lists(edge_ops, max_size=50))
    # Activated 0.2, 0.3, 0.1 but created 0.2, 0.1, 0.3: the two orders
    # add up to different floats.
    @example([("admit", "B", 0.2), ("claim", 0), ("admit", "B", 0.1),
              ("admit", "B", 0.3), ("claim", 0), ("claim", 0)])
    def check(sequence):
        broker = _edge_broker()
        rows: list = []
        now = 0.0
        for op in sequence:
            kind = op[0]
            if kind == "admit":
                outcome = broker.admit(
                    ReservationRequest(
                        source_host="h0.A", destination_host="h0.C",
                        source_domain="A", destination_domain="C",
                        rate_mbps=op[2], start=0.0, end=1000.0,
                    ),
                    VerifiedInfo(user=OWNERS[1]), at_time=now, upstream=op[1],
                )
                assert outcome.granted
                rows.append(outcome.reservation)
            elif kind == "tick":
                now += op[1]
                broker.sweep_soft_state(now)
            elif kind == "claim":
                # Newest first (Hypothesis favours small picks), so
                # rows turn active out of their creation order.
                granted = broker.reservations.in_state(ReservationState.GRANTED)
                if granted:
                    broker.claim(granted[-1 - op[1] % len(granted)].handle,
                                 at_time=now)
            elif rows:
                resv = rows[op[1] % len(rows)]
                if resv.handle in broker.reservations:
                    broker.cancel(resv.handle)
            provisioned = broker.configurator.ingress
            for upstream in INGRESS:
                key = (upstream, rows[0].request.service_class) if rows else None
                expected = _oracle.ingress_total(rows, *key) if key else 0.0
                assert provisioned.get(key, 0.0).hex() == expected.hex()

    check()
