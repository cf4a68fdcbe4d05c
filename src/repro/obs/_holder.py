"""The one process-global holder behind ``enable`` / ``disable`` /
``get_*`` / ``use_*`` in metrics, events, spans and the audit ledger.
Off (``None``) by default."""

from __future__ import annotations

import contextlib
from typing import Generic, Iterator, TypeVar

_T = TypeVar("_T")


class Holder(Generic[_T]):
    """An optional shared ``_T``.  ``active`` is a plain attribute: the
    "is it on?" read every instrumented call makes is one attribute load
    and allocates nothing.  A scoped install restores exactly what it
    displaced."""

    __slots__ = ("active",)

    def __init__(self) -> None:
        self.active: _T | None = None

    def swap(self, value: _T | None) -> _T | None:
        """Install *value* (``None`` turns it off); returns what was on."""
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
