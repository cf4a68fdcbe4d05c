"""Tests for reservation objects and tables."""

import pytest

from repro.bb.reservations import (
    ReservationRequest,
    ReservationState,
    ReservationTable,
)
from repro.crypto.dn import DN
from repro.errors import ReservationStateError, UnknownReservationError

ALICE = DN.make("Grid", "DomainA", "Alice")


def req(**kwargs):
    defaults = dict(
        source_host="h0.A",
        destination_host="h0.C",
        source_domain="A",
        destination_domain="C",
        rate_mbps=10.0,
        start=0.0,
        end=3600.0,
    )
    defaults.update(kwargs)
    return ReservationRequest(**defaults)


class TestRequest:
    def test_validation(self):
        with pytest.raises(ReservationStateError):
            req(rate_mbps=0.0)
        with pytest.raises(ReservationStateError):
            req(start=10.0, end=10.0)

    @pytest.mark.parametrize("field", ["rate_mbps", "start", "end"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rate_and_window_refused(self, field, value):
        with pytest.raises(ReservationStateError):
            req(**{field: value})

    def test_duration(self):
        assert req().duration == 3600.0

    def test_cbe_encodable(self):
        from repro.crypto import canonical

        canonical.encode(req().to_cbe())
        canonical.encode(req(cost_ceiling=5.0).to_cbe())

    def test_with_attributes(self):
        r = req(attributes=(("a", 1),))
        r2 = r.with_attributes(b=2, a=3)
        assert dict(r2.attributes) == {"a": 3, "b": 2}
        assert dict(r.attributes) == {"a": 1}

    def test_linked_reservations(self):
        r = req(linked_reservations=(("cpu", "RES-C-1"),))
        assert ("cpu", "RES-C-1") in r.linked_reservations


class TestTable:
    def test_create_and_get(self):
        t = ReservationTable("A")
        r = t.create(req(), ALICE, now=5.0)
        assert r.state is ReservationState.PENDING
        assert r.created_at == 5.0
        assert t.get(r.handle) is r
        assert r.handle in t
        assert len(t) == 1

    def test_handles_unique(self):
        t = ReservationTable("A")
        handles = {t.create(req(), ALICE).handle for _ in range(50)}
        assert len(handles) == 50

    def test_explicit_handle(self):
        t = ReservationTable("A")
        r = t.create(req(), ALICE, handle="RES-X")
        assert r.handle == "RES-X"
        with pytest.raises(ReservationStateError):
            t.create(req(), ALICE, handle="RES-X")

    def test_unknown_handle(self):
        with pytest.raises(UnknownReservationError):
            ReservationTable("A").get("ghost")

    def test_legal_lifecycle(self):
        t = ReservationTable("A")
        r = t.create(req(), ALICE)
        t.transition(r.handle, ReservationState.GRANTED)
        t.transition(r.handle, ReservationState.ACTIVE)
        t.transition(r.handle, ReservationState.CANCELLED)
        assert r.state is ReservationState.CANCELLED

    def test_illegal_transitions(self):
        t = ReservationTable("A")
        r = t.create(req(), ALICE)
        with pytest.raises(ReservationStateError):
            t.transition(r.handle, ReservationState.ACTIVE)  # skip GRANTED
        t.transition(r.handle, ReservationState.DENIED)
        # A terminal row has left the table: its handle is unknown.
        assert r.handle not in t
        with pytest.raises(UnknownReservationError):
            t.transition(r.handle, ReservationState.GRANTED)

    def test_active_at(self):
        t = ReservationTable("A")
        r = t.create(req(start=100.0, end=200.0), ALICE)
        t.transition(r.handle, ReservationState.GRANTED)
        assert not r.active_at(50.0)
        assert r.active_at(100.0)
        assert r.active_at(199.9)
        assert not r.active_at(200.0)
        assert t.active_at(150.0) == (r,)

    def test_is_valid(self):
        t = ReservationTable("A")
        r = t.create(req(start=100.0, end=200.0), ALICE)
        assert not t.is_valid(r.handle)  # PENDING
        t.transition(r.handle, ReservationState.GRANTED)
        assert t.is_valid(r.handle)
        assert not t.is_valid(r.handle, at_time=50.0)
        assert t.is_valid(r.handle, at_time=150.0)
        assert not t.is_valid("ghost")

    def test_in_state(self):
        t = ReservationTable("A")
        r1 = t.create(req(), ALICE)
        r2 = t.create(req(), ALICE)
        t.transition(r1.handle, ReservationState.GRANTED)
        assert t.in_state(ReservationState.GRANTED) == (r1,)
        both = t.in_state(ReservationState.GRANTED, ReservationState.PENDING)
        assert r1 in both and r2 in both and len(both) == 2
        # Only live states can be asked for: ended rows are history.
        t.transition(r2.handle, ReservationState.DENIED)
        for terminal in (ReservationState.CANCELLED, ReservationState.EXPIRED,
                         ReservationState.DENIED):
            with pytest.raises(ReservationStateError, match=terminal.value):
                t.in_state(ReservationState.GRANTED, terminal)
        assert t.in_state(ReservationState.GRANTED,
                          ReservationState.PENDING) == (r1,)
