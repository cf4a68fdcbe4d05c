"""Mutually authenticated channels between principals.

"The direct signalling between peer BBs used in the above description can
easily be secured using SSLv3/TLS" (§6.4).  A :class:`SecureChannel`
models exactly the properties the protocol relies on:

* **mutual authentication at establishment** — each endpoint verifies the
  other's certificate against its trust store (the SLA supplies the peer
  certificate and its issuing CA, so the check is direct trust); failure
  raises :class:`~repro.errors.HandshakeError`;
* **certificate exchange** — after the handshake, each side can ask for
  the peer's certificate (this is how a BB knows the upstream BB's
  certificate to introduce downstream, and how the user's certificate
  becomes available to the source BB);
* **integrity** — messages pass through unmodified unless a test installs
  a tamper hook, in which case downstream signature verification must
  catch the modification;
* **accounting** — message and byte counters plus a configurable one-way
  latency, which the signalling engines aggregate into end-to-end
  signalling latency (benchmark C1).

Endpoints are duck-typed: anything with ``dn``, ``certificate`` and
``truststore`` attributes (brokers, user agents, coordinators) qualifies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.crypto.dn import DistinguishedName
from repro.crypto.x509 import Certificate
from repro.errors import ChannelError, HandshakeError, MessageDroppedError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.injector import FaultInjector

__all__ = ["SecureChannel", "ChannelRegistry", "link_label"]


def _endpoint_label(endpoint: Any) -> str:
    """A short, stable label for one channel endpoint.

    Brokers (anything with a reservation table) are labelled by domain —
    that is how operators and fault plans name peer links; other
    principals (user agents, coordinators) by certificate common name,
    which the testbed keeps unique.
    """
    if hasattr(endpoint, "reservations"):
        return str(getattr(endpoint, "domain", endpoint.dn))
    cn = endpoint.dn.common_name
    return cn if cn else str(endpoint.dn)


def link_label(a: Any, b: Any) -> str:
    """The canonical (order-independent) label of the a<->b link."""
    return "|".join(sorted((_endpoint_label(a), _endpoint_label(b))))


class SecureChannel:
    """A bidirectional authenticated channel between two principals."""

    def __init__(
        self,
        a: Any,
        b: Any,
        *,
        latency_s: float = 0.005,
        at_time: float = 0.0,
    ) -> None:
        if a.certificate is None or b.certificate is None:
            raise HandshakeError("both endpoints need certificates")
        for us, them in ((a, b), (b, a)):
            if not us.truststore.accepts_directly(them.certificate, at_time=at_time):
                raise HandshakeError(
                    f"{us.dn} does not trust the certificate presented by "
                    f"{them.dn} (issuer {them.certificate.issuer})"
                )
        self._ends = {a.dn: a, b.dn: b}
        self._certs = {a.dn: a.certificate, b.dn: b.certificate}
        self.latency_s = latency_s
        #: Stable operator-facing name of this link (fault plans and the
        #: per-link circuit breakers key on it).
        self.link = link_label(a, b)
        self.messages = 0
        self.bytes = 0
        #: Messages lost on the wire (tamper hooks or injected faults).
        self.drops = 0
        #: Optional message transformer simulating an on-path attacker.
        self.tamper_hook: Callable[[Any], Any] | None = None
        #: Optional deterministic fault injector (set registry-wide).
        self.injector: FaultInjector | None = None

    @property
    def endpoints(self) -> tuple[DistinguishedName, ...]:
        return tuple(self._ends)

    def peer_certificate(self, me: DistinguishedName) -> Certificate:
        """The certificate presented by the *other* endpoint — what the SSL
        handshake makes available."""
        others = [dn for dn in self._ends if dn != me]
        if me not in self._ends or not others:
            raise ChannelError(f"{me} is not an endpoint of this channel")
        return self._certs[others[0]]

    def transmit(self, sender: DistinguishedName, message: Any) -> Any:
        """One message crossing the channel; returns what the receiver
        sees (possibly tampered or delayed).

        A dropped message (a tamper hook returning ``None``, or an
        injected DROP fault) never reaches the receiver: it is NOT
        counted in ``messages``/``bytes`` and raises
        :class:`~repro.errors.MessageDroppedError` so the sender's
        timeout/retry machinery sees the loss instead of a silent
        ``None`` flowing downstream.
        """
        return self.transmit_timed(sender, message)[0]

    def transmit_timed(
        self, sender: DistinguishedName, message: Any
    ) -> tuple[Any, float]:
        """:meth:`transmit`, also returning the extra one-way delay this
        delivery suffered from an injected DELAY fault; senders compare
        it to their hop timeout."""
        if sender not in self._ends:
            raise ChannelError(f"{sender} is not an endpoint of this channel")
        delay_s = 0.0
        if self.tamper_hook is not None:
            message = self.tamper_hook(message)
            if message is None:
                self.drops += 1
                raise MessageDroppedError(
                    f"message from {sender} dropped on link {self.link} "
                    "by the tamper hook"
                )
        if self.injector is not None:
            try:
                message, delay_s = self.injector.channel_transmit(
                    self.link, message
                )
            except MessageDroppedError:
                self.drops += 1
                raise
        size = getattr(message, "wire_size", None)
        self.messages += 1
        self.bytes += size() if callable(size) else 0
        return message, delay_s

    def reset_counters(self) -> None:
        self.messages = 0
        self.bytes = 0
        self.drops = 0


class ChannelRegistry:
    """All channels of a testbed, keyed by unordered endpoint-DN pairs."""

    def __init__(self) -> None:
        self._channels: dict[frozenset[DistinguishedName], SecureChannel] = {}
        #: Registry-wide fault injector; seeded into every channel (also
        #: channels opened after it is set).
        self.injector: FaultInjector | None = None

    def set_injector(self, injector: FaultInjector | None) -> None:
        """Attach (or with ``None`` detach) a fault injector to every
        channel, present and future."""
        self.injector = injector
        for channel in self._channels.values():
            channel.injector = injector

    def add(self, channel: SecureChannel) -> None:
        key = frozenset(channel.endpoints)
        channel.injector = self.injector
        self._channels[key] = channel

    def connect(self, a: Any, b: Any, *, latency_s: float = 0.005,
                at_time: float = 0.0) -> SecureChannel:
        """Open (or return the existing) channel between *a* and *b*."""
        key = frozenset({a.dn, b.dn})
        existing = self._channels.get(key)
        if existing is not None:
            return existing
        channel = SecureChannel(a, b, latency_s=latency_s, at_time=at_time)
        channel.injector = self.injector
        self._channels[key] = channel
        return channel

    def between(
        self, a: DistinguishedName, b: DistinguishedName
    ) -> SecureChannel:
        try:
            return self._channels[frozenset({a, b})]
        except KeyError:
            raise ChannelError(
                f"no channel between {a} and {b}"
            ) from None

    def has(self, a: DistinguishedName, b: DistinguishedName) -> bool:
        return frozenset({a, b}) in self._channels

    def all(self) -> tuple[SecureChannel, ...]:
        return tuple(self._channels.values())

    def total_messages(self) -> int:
        return sum(c.messages for c in self.all())

    def total_bytes(self) -> int:
        return sum(c.bytes for c in self.all())

    def reset_counters(self) -> None:
        for c in self.all():
            c.reset_counters()
