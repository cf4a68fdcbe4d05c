"""Reservation objects, handles, states, and the per-broker table.

GARA-style reservations are *advance* reservations: a reservation is
GRANTED for a future interval, must be CLAIMED (bound to actual traffic)
to become ACTIVE, and can be MODIFIED or CANCELLED (paper references
[12, 13]).  Each bandwidth broker keeps its own table; the handle is
globally unique so a downstream policy can refer to an upstream
reservation (``CPU_Reservation_ID=111`` in Figure 6).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from operator import attrgetter

from repro.crypto.dn import DistinguishedName
from repro.errors import (
    ReservationStateError,
    UnknownReservationError,
)
from repro.net.packet import DSCP
from repro.obs import context

__all__ = ["ReservationState", "ReservationRequest", "Reservation", "ReservationTable"]


class ReservationState(Enum):
    PENDING = "pending"
    GRANTED = "granted"
    ACTIVE = "active"
    CANCELLED = "cancelled"
    EXPIRED = "expired"
    DENIED = "denied"


#: Legal state transitions.
_TRANSITIONS = {
    ReservationState.PENDING: {
        ReservationState.GRANTED,
        ReservationState.DENIED,
        ReservationState.CANCELLED,
    },
    ReservationState.GRANTED: {
        ReservationState.ACTIVE,
        ReservationState.CANCELLED,
        ReservationState.EXPIRED,
    },
    ReservationState.ACTIVE: {
        ReservationState.CANCELLED,
        ReservationState.EXPIRED,
    },
    ReservationState.CANCELLED: set(),
    ReservationState.EXPIRED: set(),
    ReservationState.DENIED: set(),
}

#: The non-terminal states: a row in one of them is in the table.
_LIVE = frozenset(
    (ReservationState.PENDING, ReservationState.GRANTED, ReservationState.ACTIVE)
)


@dataclass(frozen=True)
class ReservationRequest:
    """What a user asks for: the ``res_spec`` of the paper's notation.

    ``linked_reservations`` carries references to reservations of other
    resource types (the CPU reservation of Figures 5/6); ``cost_ceiling``
    the "cost that the user is willing to accept" (§6.1).
    """

    source_host: str
    destination_host: str
    source_domain: str
    destination_domain: str
    rate_mbps: float
    start: float
    end: float
    service_class: DSCP = DSCP.EF
    burst_bits: float = 100_000.0
    cost_ceiling: float = float("inf")
    linked_reservations: tuple[tuple[str, str], ...] = ()
    #: Free-form attributes added by the user or upstream domains.
    attributes: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate_mbps) and self.rate_mbps > 0):
            raise ReservationStateError("rate must be positive and finite")
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise ReservationStateError("start and end must be finite")
        if self.end <= self.start:
            raise ReservationStateError("end must be after start")

    @property
    def duration(self) -> float:
        return self.end - self.start

    def attribute(self, name: str, default: object = None) -> object:
        for k, v in self.attributes:
            if k == name:
                return v
        return default

    def to_cbe(self) -> dict:
        return {
            "source_host": self.source_host,
            "destination_host": self.destination_host,
            "source_domain": self.source_domain,
            "destination_domain": self.destination_domain,
            "rate_mbps": self.rate_mbps,
            "start": self.start,
            "end": self.end,
            "service_class": int(self.service_class),
            "burst_bits": self.burst_bits,
            "cost_ceiling": "any" if self.cost_ceiling == float("inf")
            else self.cost_ceiling,
            "linked_reservations": [list(p) for p in self.linked_reservations],
            "attributes": {k: v for k, v in self.attributes},
        }

    def with_attributes(self, **extra: object) -> "ReservationRequest":
        """A copy with additional attributes (a domain 'modifying the
        request' before forwarding, §5)."""
        merged = dict(self.attributes)
        merged.update(extra)
        return replace(self, attributes=tuple(sorted(merged.items())))


def _new_handle(domain: str) -> str:
    return f"RES-{domain}-{next(context.current().handles):06d}"


@dataclass
class Reservation:
    """One admitted (or pending) reservation in a broker's table."""

    handle: str
    request: ReservationRequest
    owner: DistinguishedName | None
    state: ReservationState = ReservationState.PENDING
    #: Capacity bookings ``((resource, booking_id), ...)`` backing this
    #: reservation, as ``AdmissionController.book_all`` returns them;
    #: released on cancel/expire.
    bookings: tuple[tuple[str, int], ...] = ()
    #: Why the reservation was denied, when it was.
    denial_reason: str = ""
    created_at: float = 0.0
    #: Neighbouring domains on the reservation's path (None at the ends).
    upstream: str | None = None
    downstream: str | None = None
    #: RSVP-style soft-state lease: when set, the reservation must be
    #: refreshed before this instant or the sweep reclaims it — the
    #: backstop that frees capacity even when an explicit unwind after a
    #: failed hop never arrives.  ``None`` = hard state (no lease).
    expires_at: float | None = None
    #: Correlation ID of the signalling request that admitted this
    #: reservation, stashed so lifecycle events emitted outside the
    #: request scope (the soft-state sweep above all) still join the
    #: originating trace.  Empty when admitted with observability off.
    correlation_id: str = ""
    #: Its place in its table's creation order.
    serial: int = field(default=0, repr=False, compare=False)

    def active_at(self, when: float) -> bool:
        return (
            self.state in (ReservationState.GRANTED, ReservationState.ACTIVE)
            and self.request.start <= when < self.request.end
        )


class ReservationTable:
    """Handle-indexed store of a broker's live reservations, with checked
    state transitions.

    One dict, ``_rows``, holds exactly the non-terminal (pending,
    granted, active) rows, in creation order.  :meth:`create` inserts a
    row, and the one state setter :meth:`_set_state` (used by
    :meth:`transition` and :meth:`sweep_expired`) drops a row the moment
    it turns cancelled, expired or denied; nothing else writes the dict.
    ``get``, ``in``, ``all`` and ``len`` therefore see live rows only,
    and every query costs O(live) however many reservations have ended.
    An ended reservation's history is the decision ledger's, not the
    table's: its handle is unknown here.

    ``_active`` indexes the ACTIVE rows, which the broker re-sums on
    every claim, cancel and expiry; :meth:`_set_state` is its one
    writer too, so ``in_state(ACTIVE)`` reads only active rows.
    """

    def __init__(self, domain: str):
        self.domain = domain
        self._rows: dict[str, Reservation] = {}
        self._active: dict[str, Reservation] = {}
        self._serials = itertools.count()

    def create(
        self,
        request: ReservationRequest,
        owner: DistinguishedName | None,
        *,
        now: float = 0.0,
        handle: str | None = None,
    ) -> Reservation:
        if handle is None:
            handle = _new_handle(self.domain)
        if handle in self._rows:
            raise ReservationStateError(f"duplicate handle {handle!r}")
        resv = Reservation(
            handle, request, owner, created_at=now, serial=next(self._serials),
        )
        self._rows[handle] = resv
        return resv

    def get(self, handle: str) -> Reservation:
        try:
            return self._rows[handle]
        except KeyError:
            raise UnknownReservationError(
                f"no live reservation {handle!r} in domain {self.domain}"
            ) from None

    def __contains__(self, handle: str) -> bool:
        return handle in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def _set_state(self, resv: Reservation, new_state: ReservationState) -> None:
        """The one writer of a row's state: a row that turns terminal
        leaves the table, and only an ACTIVE row is in ``_active``."""
        resv.state = new_state
        if new_state is ReservationState.ACTIVE:
            self._active[resv.handle] = resv
        else:
            self._active.pop(resv.handle, None)
        if new_state not in _LIVE:
            del self._rows[resv.handle]

    def transition(self, handle: str, new_state: ReservationState) -> Reservation:
        resv = self.get(handle)
        if new_state not in _TRANSITIONS[resv.state]:
            raise ReservationStateError(
                f"{handle}: illegal transition {resv.state.value} -> "
                f"{new_state.value}"
            )
        self._set_state(resv, new_state)
        return resv

    def all(self) -> tuple[Reservation, ...]:
        return tuple(self._rows.values())

    def in_state(self, *states: ReservationState) -> tuple[Reservation, ...]:
        """The live rows in any of *states*, in creation order.  Only live
        states (pending, granted, active) can be asked for: a terminal
        state raises :class:`~repro.errors.ReservationStateError`.
        ACTIVE alone is read from its index: rows may turn active in any
        order, so they are put back in creation order, which keeps the
        broker's float sums over them exactly as a scan would add."""
        if not _LIVE.issuperset(states):
            raise ReservationStateError(
                "in_state answers live states only, not "
                + ", ".join(s.value for s in states if s not in _LIVE)
            )
        if set(states) == {ReservationState.ACTIVE}:
            return tuple(sorted(self._active.values(), key=attrgetter("serial")))
        return tuple(r for r in self._rows.values() if r.state in states)

    def active_at(self, when: float) -> tuple[Reservation, ...]:
        return tuple(r for r in self._rows.values() if r.active_at(when))

    def is_valid(self, handle: str, *, at_time: float | None = None) -> bool:
        """Online validity check used by interdomain policy dependencies
        (``HasValidCPUResv``): the handle is held and granted/active."""
        resv = self._rows.get(handle)
        if resv is None:
            return False
        if at_time is not None:
            return resv.active_at(at_time)
        return resv.state in (ReservationState.GRANTED, ReservationState.ACTIVE)

    def refresh(self, handle: str, *, now: float, ttl_s: float) -> Reservation:
        """Renew the soft-state lease of a live reservation (the periodic
        refresh of RSVP-style soft state)."""
        resv = self.get(handle)
        if resv.state not in (
            ReservationState.GRANTED, ReservationState.ACTIVE
        ):
            raise ReservationStateError(
                f"{handle}: cannot refresh a {resv.state.value} reservation"
            )
        resv.expires_at = now + ttl_s
        return resv

    def sweep_expired(self, now: float) -> tuple[Reservation, ...]:
        """Expire live reservations whose soft-state lease has lapsed;
        returns them so the broker can release their capacity bookings."""
        lapsed = tuple(
            resv for resv in self._rows.values()
            if resv.state
            in (ReservationState.GRANTED, ReservationState.ACTIVE)
            and resv.expires_at is not None
            and resv.expires_at <= now
        )
        for resv in lapsed:
            self._set_state(resv, ReservationState.EXPIRED)
        return lapsed
