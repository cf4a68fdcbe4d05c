"""The one process-global holder behind ``enable`` / ``disable`` /
``get_*`` / ``use_*`` in metrics, events, spans and the audit ledger.
Off (``None``) by default."""

from __future__ import annotations

import contextlib
import threading
from typing import Generic, Iterator, TypeVar

_T = TypeVar("_T")


class Holder(Generic[_T]):
    """An optional shared ``_T``.  ``active`` is a plain attribute: the
    "is it on?" read every instrumented call makes takes no lock and
    allocates nothing.  Installs swap it under the lock, so a scoped
    install restores exactly what it displaced."""

    __slots__ = ("active", "_lock")

    def __init__(self) -> None:
        self.active: _T | None = None
        self._lock = threading.Lock()

    def swap(self, value: _T | None) -> _T | None:
        """Install *value* (``None`` turns it off); returns what was on."""
        with self._lock:
            previous, self.active = self.active, value
        return previous

    @contextlib.contextmanager
    def use(self, value: _T) -> Iterator[_T]:
        """Install *value* for a ``with`` block, then restore."""
        previous = self.swap(value)
        try:
            yield value
        finally:
            self.swap(previous)
