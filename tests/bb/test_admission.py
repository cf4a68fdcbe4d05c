"""Tests for advance-reservation admission control, including the
capacity-never-exceeded property."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bb.admission import AdmissionController, CapacitySchedule
from repro.errors import AdmissionError, CapacityExceededError
from tests.bb import _oracle

NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestCapacitySchedule:
    def test_simple_booking(self):
        cs = CapacitySchedule("link", 100.0)
        b = cs.book(0.0, 10.0, 40.0)
        assert cs.load_at(5.0) == 40.0
        assert cs.load_at(10.0) == 0.0  # half-open interval
        assert cs.available(0.0, 10.0) == 60.0
        cs.release(b.booking_id)
        assert cs.load_at(5.0) == 0.0

    def test_overlapping_bookings_sum(self):
        cs = CapacitySchedule("link", 100.0)
        cs.book(0.0, 10.0, 40.0)
        cs.book(5.0, 15.0, 40.0)
        assert cs.load_at(7.0) == 80.0
        assert cs.peak_load(0.0, 20.0) == 80.0
        assert cs.available(0.0, 20.0) == 20.0

    def test_rejection_on_overflow(self):
        cs = CapacitySchedule("link", 100.0)
        cs.book(0.0, 10.0, 80.0)
        with pytest.raises(CapacityExceededError):
            cs.book(5.0, 6.0, 30.0)
        # Non-overlapping interval still fits.
        cs.book(10.0, 20.0, 30.0)

    def test_back_to_back_intervals_do_not_conflict(self):
        cs = CapacitySchedule("link", 100.0)
        cs.book(0.0, 10.0, 100.0)
        cs.book(10.0, 20.0, 100.0)  # starts exactly when the first ends

    def test_advance_reservation_future_window(self):
        cs = CapacitySchedule("link", 100.0)
        cs.book(1000.0, 2000.0, 100.0)
        assert cs.available(0.0, 1000.0) == 100.0
        with pytest.raises(CapacityExceededError):
            cs.book(1500.0, 1600.0, 1.0)

    def test_utilization(self):
        cs = CapacitySchedule("link", 100.0)
        cs.book(0.0, 10.0, 25.0)
        assert cs.utilization(5.0) == 0.25

    def test_invalid_parameters(self):
        with pytest.raises(AdmissionError):
            CapacitySchedule("x", 0.0)
        cs = CapacitySchedule("x", 10.0)
        with pytest.raises(AdmissionError):
            cs.book(0.0, 10.0, 0.0)
        with pytest.raises(AdmissionError):
            cs.available(5.0, 5.0)
        with pytest.raises(AdmissionError):
            cs.release(99)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_rate_refused(self, bad):
        """A NaN rate used to be admitted (``nan <= 0`` and ``nan >
        spare`` are both false), after which every load read NaN and
        every later booking fitted."""
        cs = CapacitySchedule("l", 10.0)
        with pytest.raises(AdmissionError):
            cs.book(0.0, 5.0, bad)
        assert cs.bookings == ()
        with pytest.raises(CapacityExceededError):
            cs.book(0.0, 5.0, 11.0)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_window_refused(self, bad):
        """A NaN bound used to create a ghost booking no instant counts."""
        cs = CapacitySchedule("l", 10.0)
        for start, end in ((bad, 5.0), (0.0, bad)):
            with pytest.raises(AdmissionError):
                cs.book(start, end, 9.0)
            with pytest.raises(AdmissionError):
                cs.available(start, end)
        assert cs.bookings == ()

    def test_emptied_schedule_reads_exactly_zero(self):
        """No running total survives a query, so nothing drifts."""
        cs = CapacitySchedule("l", 10.0)
        standing = cs.book(0.0, 10.0, 0.3)
        for cycle in range(2000):
            first = cs.book(cycle % 7, 8.0, 0.1)
            second = cs.book(2.0, 9.0 + cycle % 3, 0.1)
            cs.release(first.booking_id)
            cs.release(second.booking_id)
        assert cs.load_at(5.0) == 0.3
        cs.release(standing.booking_id)
        assert cs.bookings == ()
        for when in (0.0, 2.0, 5.0, 9.5, 20.0):
            assert cs.load_at(when) == 0.0
        assert cs.peak_load(0.0, 20.0) == 0.0

    def test_releasing_one_of_two_identical_bookings(self):
        cs = CapacitySchedule("l", 10.0)
        first = cs.book(1.0, 4.0, 3.3)
        second = cs.book(1.0, 4.0, 3.3)
        cs.release(first.booking_id)
        assert cs.bookings == (second,)
        assert cs.load_at(1.0) == cs.peak_load(0.0, 5.0) == 3.3
        assert cs.load_at(4.0) == 0.0
        cs.release(second.booking_id)
        assert cs.peak_load(0.0, 5.0) == 0.0

    def test_tag_recorded(self):
        cs = CapacitySchedule("x", 10.0)
        b = cs.book(0.0, 1.0, 1.0, tag="RES-1")
        assert b.tag == "RES-1"
        assert cs.bookings == (b,)


class TestAdmissionController:
    def make(self):
        ac = AdmissionController()
        ac.add_resource("intra", 1000.0)
        ac.add_resource("egress:B", 155.0)
        return ac

    def test_resources(self):
        ac = self.make()
        assert set(ac.resources()) == {"intra", "egress:B"}
        with pytest.raises(AdmissionError):
            ac.add_resource("intra", 5.0)
        with pytest.raises(AdmissionError):
            ac.schedule("nope")

    def test_bottleneck_available(self):
        ac = self.make()
        assert ac.available(["intra", "egress:B"], 0.0, 10.0) == 155.0
        with pytest.raises(AdmissionError):
            ac.available([], 0.0, 10.0)

    def test_book_all_success(self):
        ac = self.make()
        bookings = ac.book_all(["intra", "egress:B"], 0.0, 10.0, 100.0, tag="r")
        assert len(bookings) == 2
        assert ac.schedule("intra").load_at(5.0) == 100.0
        assert ac.schedule("egress:B").load_at(5.0) == 100.0
        ac.release_all(bookings)
        assert ac.schedule("intra").load_at(5.0) == 0.0

    def test_book_all_rolls_back_on_failure(self):
        ac = self.make()
        ac.book_all(["egress:B"], 0.0, 10.0, 100.0)
        with pytest.raises(CapacityExceededError):
            ac.book_all(["intra", "egress:B"], 0.0, 10.0, 100.0)
        # intra booking must have been rolled back.
        assert ac.schedule("intra").load_at(5.0) == 0.0


@settings(max_examples=120)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0),  # start
            st.floats(min_value=0.1, max_value=50.0),  # duration
            st.floats(min_value=0.1, max_value=60.0),  # rate
        ),
        max_size=25,
    )
)
def test_capacity_never_exceeded_property(requests):
    """Invariant: whatever mix of bookings is attempted, the admitted load
    never exceeds capacity at any booking boundary."""
    cs = CapacitySchedule("link", 100.0)
    for start, duration, rate in requests:
        try:
            cs.book(start, start + duration, rate)
        except CapacityExceededError:
            pass
    points = {b.start for b in cs.bookings} | {b.end - 1e-9 for b in cs.bookings}
    for p in points:
        assert cs.load_at(p) <= 100.0 + 1e-6


# Times on a small grid so instants are shared, windows sit back to back
# and (start, end, rate) triples repeat; 2.5 is a point no booking
# starts or ends on.  0.1 and 3.3 are not dyadic: their sums round.
# A step is a booking twice as often as a release, so schedules fill.
_TIMES = [0.0, 1.0, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
_WINDOWS = [(a, b) for a in _TIMES for b in _TIMES if a < b]
_RATES = [0.1, 3.3, 0.25, 1.0, 2.5, 4.0]
_BOOK = st.tuples(
    st.sampled_from(range(6)), st.sampled_from(range(1, 4)),
    st.sampled_from(_RATES),
)
_RELEASE = st.integers(min_value=0, max_value=50)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_BOOK, _BOOK, _RELEASE), max_size=20))
def test_boundary_index_matches_brute_force_oracle(steps):
    """The index and the scan it replaced agree after every step of any
    interleaving of book and release: same decision, same loads, same
    peaks, same bookings."""
    capacity = 10.0
    cs = CapacitySchedule("link", capacity)
    live = []
    for step in steps:
        if isinstance(step, int):
            if not live:
                continue
            cs.release(live.pop(step % len(live)).booking_id)
        else:
            start, width, rate = float(step[0]), float(step[1]), step[2]
            spare = capacity - _oracle.peak_load(live, start, start + width)
            if rate > spare + 1e-9:
                with pytest.raises(CapacityExceededError):
                    cs.book(start, start + width, rate)
            else:
                live.append(cs.book(start, start + width, rate))
        assert cs.bookings == tuple(live)
        for when in _TIMES:
            assert cs.load_at(when) == pytest.approx(
                _oracle.load_at(live, when), abs=1e-9
            )
        for window in _WINDOWS:
            assert cs.peak_load(*window) == pytest.approx(
                _oracle.peak_load(live, *window), abs=1e-9
            )
