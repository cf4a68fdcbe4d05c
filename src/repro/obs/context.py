"""The one runtime context: the four observer stores (``None`` = off),
the request scope, and the id sequences.

``use_registry`` / ``use_tracer`` / ``use_event_log`` / ``use_ledger``
swap one store on the current context for a block; :func:`fresh_context`
installs a new context — new id sequences, only the stores it is given,
no pending notes — so a campaign writes the same ledger whatever ran
before it in the process.  Ids are unique per campaign, not per testbed:
one chaos ledger spans a testbed per trial.  The library runs on one
thread, so the current context is a plain module attribute.
"""

from __future__ import annotations

import contextlib
import itertools
from typing import TYPE_CHECKING, Iterator, TypeVar

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.obs.audit.ledger import DecisionLedger, _Pending
    from repro.obs.events import EventLog
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.spans import Tracer

__all__ = ["Context", "current", "fresh_context", "use"]

_S = TypeVar("_S")


class Context:
    """The observer stores, request scope and id sequences of a campaign."""

    __slots__ = ("registry", "tracer", "event_log", "ledger", "correlation_id",
                 "pending", "handles", "requests", "traces", "packets")

    def __init__(
        self, *, registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None, event_log: EventLog | None = None,
        ledger: DecisionLedger | None = None,
    ) -> None:
        self.registry, self.tracer = registry, tracer
        self.event_log, self.ledger = event_log, ledger
        self.correlation_id: str | None = None
        self.pending: _Pending | None = None  # audit notes for the next record
        self.handles = itertools.count(1)  # RES-<domain>-NNNNNN
        self.requests = itertools.count(1)  # req-NNNNNN
        self.traces = itertools.count(1)  # sweep-NNNNNN (no request)
        self.packets = itertools.count()  # Packet.uid


_current = Context()


def current() -> Context:
    """The context every store read and id draw goes to."""
    return _current


@contextlib.contextmanager
def fresh_context(
    *, registry: MetricsRegistry | None = None, tracer: Tracer | None = None,
    event_log: EventLog | None = None, ledger: DecisionLedger | None = None,
) -> Iterator[Context]:
    """Install a new context holding only the given stores for a ``with``
    block, then restore the one it displaced."""
    global _current
    outer, _current = _current, Context(
        registry=registry, tracer=tracer, event_log=event_log, ledger=ledger,
    )
    try:
        yield _current
    finally:
        _current = outer


@contextlib.contextmanager
def use(slot: str, store: _S) -> Iterator[_S]:
    """Put *store* in the current context's *slot* for a ``with`` block,
    then restore what it displaced on that same context."""
    context = _current
    outer = getattr(context, slot)
    setattr(context, slot, store)
    try:
        yield store
    finally:
        setattr(context, slot, outer)
