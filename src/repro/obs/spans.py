"""Span-based tracing of signalling requests.

The paper's nested signatures "allow for the tracking of the path taken
by a request as it moves from BB to BB" (§6.4) — structurally, after the
fact, from the envelope.  Spans give the *runtime* view of the same
trajectory: a per-request correlation ID is minted when the user agent
signs ``RAR_U``, and every BB hop records a span (with ``verify`` /
``policy`` / ``admission`` / ``delegation`` / ``forward`` phase children)
whose nesting mirrors the signature envelopes — each hop's span is the
parent of the next hop's, so the root-to-leaf chain of the span tree is
exactly the signer order :func:`repro.core.tracing.trace_request_path`
recovers from the envelope.

Spans carry two time axes:

* **wall clock** (``time.perf_counter``) — what the verification, policy
  evaluation, and delegation crypto actually cost on this machine;
* **simulated latency** (``sim_latency_s`` attribute) — the modelled
  network/processing delay the signalling engines account for.

Like the metrics registry, tracing is disabled by default and free when
off: call sites ask :func:`get_tracer` and skip everything on ``None``.
The tracer and the ids it is keyed by come from :mod:`repro.obs.context`.
"""

from __future__ import annotations

import itertools
import time
from contextlib import AbstractContextManager
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import ObservabilityError
from repro.obs import context

__all__ = [
    "Span",
    "Tracer",
    "get_tracer",
    "use_tracer",
    "mint_correlation_id",
    "mint_trace_id",
    "phase_clock",
]


def phase_clock() -> float:
    """The monotonic clock reading used for span timing.

    Instrumented code that needs a raw "phase started here" timestamp
    (to later hand to :meth:`Tracer.record`) must take it from this
    helper rather than calling ``time.perf_counter()`` directly, so all
    timing flows through the obs layer (lint rule REP110)."""
    return time.perf_counter()


def mint_correlation_id() -> str:
    """A fresh per-request correlation ID, unique within the current
    context (so across tracers, and with tracing off)."""
    return f"req-{next(context.current().requests):06d}"


def mint_trace_id(kind: str) -> str:
    """A trace ID for work outside any request (the soft-state
    ``sweep``), from a sequence of its own: tracing never renumbers
    requests."""
    return f"{kind}-{next(context.current().traces):06d}"


@dataclass
class Span:
    """One timed operation within a trace."""

    name: str
    trace_id: str
    span_id: int
    parent_id: int | None
    attributes: dict[str, object] = field(default_factory=dict)
    status: str = "ok"
    start_wall: float = 0.0
    end_wall: float | None = None

    @property
    def finished(self) -> bool:
        return self.end_wall is not None

    @property
    def wall_duration_s(self) -> float:
        if self.end_wall is None:
            raise ObservabilityError(f"span {self.name!r} is still open")
        return self.end_wall - self.start_wall

    @property
    def sim_latency_s(self) -> float:
        return float(self.attributes.get("sim_latency_s", 0.0))  # type: ignore[arg-type]


class Tracer:
    """Collects spans, grouped by trace (= correlation) ID.

    The instrumentation manages parenting explicitly (a hop span stays
    open from the request leg until the reply passes back through the
    hop), so the API is ``begin``/``end`` rather than a context-manager
    stack; :meth:`record` covers the common already-timed phase case.
    """

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._spans: dict[str, list[Span]] = {}

    # -- recording ---------------------------------------------------------------

    def begin(
        self,
        name: str,
        *,
        trace_id: str,
        parent: Span | None = None,
        parent_span_id: int | None = None,
        start_wall: float | None = None,
        **attributes: object,
    ) -> Span:
        if parent is not None:
            parent_span_id = parent.span_id
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=next(self._ids),
            parent_id=parent_span_id,
            attributes=dict(attributes),
            # A caller that already holds a phase_clock() reading backdates
            # the span to it, so cheap bookkeeping between two instrumented
            # stretches is attributed instead of pooling as self-time.
            start_wall=(
                start_wall if start_wall is not None else time.perf_counter()
            ),
        )
        self._spans.setdefault(trace_id, []).append(span)
        return span

    def end(self, span: Span, *, status: str = "ok", **attributes: object) -> Span:
        span.end_wall = time.perf_counter()
        span.status = status
        span.attributes.update(attributes)
        return span

    def record(
        self,
        name: str,
        *,
        parent: Span,
        start_wall: float,
        status: str = "ok",
        **attributes: object,
    ) -> Span:
        """Record a phase that already ran: span opens at *start_wall*
        (a ``time.perf_counter`` reading) and closes now."""
        span = self.begin(name, trace_id=parent.trace_id, parent=parent,
                          **attributes)
        span.start_wall = start_wall
        return self.end(span, status=status)

    # -- queries -----------------------------------------------------------------

    def traces(self) -> tuple[str, ...]:
        return tuple(self._spans)

    def spans_for(self, trace_id: str) -> tuple[Span, ...]:
        return tuple(self._spans.get(trace_id, ()))

    def latest_trace(self) -> str | None:
        if not self._spans:
            return None
        return next(reversed(self._spans))

    def children_of(self, span: Span) -> tuple[Span, ...]:
        return tuple(
            s for s in self.spans_for(span.trace_id)
            if s.parent_id == span.span_id
        )

    def root(self, trace_id: str) -> Span | None:
        for span in self.spans_for(trace_id):
            if span.parent_id is None:
                return span
        return None

    def hop_chain(self, trace_id: str) -> list[Span]:
        """The root-to-leaf chain of ``hop`` spans in envelope-nesting
        order (source domain first) — the runtime counterpart of
        :func:`repro.core.tracing.trace_request_path`."""
        chain: list[Span] = []
        current = self.root(trace_id)
        while current is not None:
            nested = [s for s in self.children_of(current) if s.name == "hop"]
            if not nested:
                break
            chain.append(nested[0])
            current = nested[0]
        return chain

    def render(self, trace_id: str) -> str:
        """An indented tree of the trace, one span per line."""
        root = self.root(trace_id)
        if root is None:
            return f"(no spans for trace {trace_id})"
        lines: list[str] = []

        def walk(span: Span, prefix: str, is_last: bool, is_root: bool) -> None:
            connector = "" if is_root else ("└─ " if is_last else "├─ ")
            attrs = " ".join(
                f"{k}={v}" for k, v in sorted(span.attributes.items())
            )
            timing = (
                f"wall={span.wall_duration_s * 1e3:.3f}ms"
                if span.finished else "open"
            )
            status = "" if span.status == "ok" else f" [{span.status}]"
            lines.append(
                f"{prefix}{connector}{span.name}{status} {timing}"
                + (f" {attrs}" if attrs else "")
            )
            children = self.children_of(span)
            child_prefix = prefix + ("" if is_root else ("   " if is_last else "│  "))
            for i, child in enumerate(children):
                walk(child, child_prefix, i == len(children) - 1, False)

        lines.append(f"trace {trace_id}")
        walk(root, "", True, True)
        return "\n".join(lines)

    def reset(self) -> None:
        self._spans.clear()

    def __iter__(self) -> Iterator[Span]:
        flat = [s for spans in self._spans.values() for s in spans]
        return iter(flat)


def get_tracer() -> Tracer | None:
    """The current context's tracer, or ``None`` when tracing is off."""
    return context.current().tracer


def use_tracer(tracer: Tracer | None = None) -> AbstractContextManager[Tracer]:
    """Scoped tracer installation (mirror of ``metrics.use_registry``)."""
    return context.use("tracer", tracer if tracer is not None else Tracer())
