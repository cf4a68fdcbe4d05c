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

Spans have one writer, this module.  Instrumented code never holds a
span: it calls :func:`open_span`, :func:`phase` and :func:`close_span`,
which keep the stack of open spans and the *phase mark* (where the phase
now running started) in the tracer, keyed by the correlation id in
scope.  :func:`phase` records the phase that ran since the mark under the
top span and moves the mark; :func:`traceparent` names the top span for
the envelope a sender is about to sign.  Each call reads the context
once and returns at once when no tracer is installed, so the caller
neither checks nor formats anything: attributes are passed as objects
and only a tracer keeps them.  The tracer and the ids it is keyed by
come from :mod:`repro.obs.context`.
"""

from __future__ import annotations

import itertools
import time
from contextlib import AbstractContextManager
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import ObservabilityError
from repro.obs import context
from repro.obs.propagation import TraceContext, format_traceparent

__all__ = [
    "Span",
    "Tracer",
    "get_tracer",
    "use_tracer",
    "mint_correlation_id",
    "mint_trace_id",
    "open_span",
    "close_span",
    "phase",
    "traceparent",
]


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


class _Open:
    """The open spans of one request, innermost last, and the phase mark:
    where the phase now running started."""

    __slots__ = ("stack", "mark")

    def __init__(self) -> None:
        self.stack: list[Span] = []
        self.mark = 0.0


class Tracer:
    """Collects spans, grouped by trace (= correlation) ID.

    A hop span stays open from the request leg until the reply passes
    back through the hop, so the tracer keeps the open spans of each
    request in scope (:func:`open_span` / :func:`close_span`) rather than
    a ``with`` block per span.  :meth:`begin`/:meth:`end`/:meth:`record`
    are the primitives those calls use.
    """

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._spans: dict[str, list[Span]] = {}
        #: Open spans per correlation id in scope (``None``: no request).
        self._open: dict[str | None, _Open] = {}

    # -- recording ---------------------------------------------------------------

    def begin(
        self,
        name: str,
        *,
        trace_id: str,
        parent: Span | None = None,
        start_wall: float | None = None,
        **attributes: object,
    ) -> Span:
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=next(self._ids),
            parent_id=parent.span_id if parent is not None else None,
            attributes=dict(attributes),
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
                          start_wall=start_wall, **attributes)
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
        self._open.clear()

    def __iter__(self) -> Iterator[Span]:
        flat = [s for spans in self._spans.values() for s in spans]
        return iter(flat)


def open_span(
    name: str, /, *, trace: str | None = None, **attributes: object,
) -> None:
    """Open *name* for the request in scope: under its top span, as the
    root of its trace when nothing is open yet, or — given a *trace*
    kind, for work outside any request such as the soft-state sweep — as
    the root of a trace of its own.  It becomes the top span."""
    scope = context.current()
    tracer = scope.tracer
    if tracer is None:
        return
    key = scope.correlation_id
    opened = tracer._open.get(key)
    parent = start = None
    if trace is not None:
        trace_id = mint_trace_id(trace)
    elif opened is not None:
        # A child starts where the last phase ended, so bookkeeping
        # between two phases is attributed instead of pooling as the
        # parent's self-time.
        parent, start = opened.stack[-1], opened.mark
        trace_id = parent.trace_id
    elif key is not None:
        trace_id = key
    else:
        raise ObservabilityError(
            f"span {name!r} opened outside any request or trace"
        )
    if opened is None:
        opened = tracer._open[key] = _Open()
    span = tracer.begin(name, trace_id=trace_id, parent=parent,
                        start_wall=start, **attributes)
    opened.stack.append(span)
    opened.mark = span.start_wall


def close_span(status: str = "ok", /, **attributes: object) -> None:
    """Close the top span of the request in scope with *status*."""
    scope = context.current()
    tracer = scope.tracer
    opened = None if tracer is None else tracer._open.get(scope.correlation_id)
    if opened is None:
        return
    span = tracer.end(opened.stack.pop(), status=status, **attributes)
    if opened.stack:
        opened.mark = span.end_wall  # type: ignore[assignment]
    else:
        del tracer._open[scope.correlation_id]


def phase(name: str, /, status: str = "ok", **attributes: object) -> None:
    """Record the phase that ran since the mark as a child of the top
    span of the request in scope, and move the mark to now.  Nothing is
    recorded while no span is open in scope (unsolicited ingress)."""
    scope = context.current()
    tracer = scope.tracer
    opened = None if tracer is None else tracer._open.get(scope.correlation_id)
    if opened is None:
        return
    span = tracer.record(name, parent=opened.stack[-1],
                         start_wall=opened.mark, status=status, **attributes)
    opened.mark = span.end_wall  # type: ignore[assignment]


def traceparent() -> str | None:
    """The trace context naming the top span of the request in scope, for
    the envelope a sender is about to sign (``None`` with tracing off)."""
    scope = context.current()
    tracer = scope.tracer
    opened = None if tracer is None else tracer._open.get(scope.correlation_id)
    if opened is None:
        return None
    top = opened.stack[-1]
    return format_traceparent(
        TraceContext(trace_id=top.trace_id, span_id=top.span_id)
    )


def get_tracer() -> Tracer | None:
    """The current context's tracer, or ``None`` when tracing is off."""
    return context.current().tracer


def use_tracer(tracer: Tracer | None = None) -> AbstractContextManager[Tracer]:
    """Scoped tracer installation (mirror of ``metrics.use_registry``)."""
    return context.use("tracer", tracer if tracer is not None else Tracer())
