"""The four span calls of ``repro.obs.spans``: the tracer keeps the open
spans and the phase mark of each request in scope; the caller holds
nothing and checks nothing."""

import pytest

from repro.errors import ObservabilityError
from repro.obs import spans
from repro.obs.context import fresh_context
from repro.obs.events import correlation_scope
from repro.obs.propagation import parse_traceparent
from repro.obs.spans import Tracer


def test_without_a_tracer_every_call_is_a_no_op():
    with fresh_context(), correlation_scope("req-x"):
        spans.open_span("reserve", user="u")
        spans.phase("route")
        assert spans.traceparent() is None
        spans.close_span("denied")


def test_phases_tile_the_span_they_hang_under():
    with fresh_context(tracer=Tracer()) as context:
        with correlation_scope("req-1"):
            spans.open_span("reserve")
            spans.phase("route", hops=2)
            spans.open_span("hop", domain="A")
            spans.phase("verify")
            spans.close_span("released", handle="h")
            spans.phase("reply", "error", error="lost")
            spans.close_span()
    root, route, hop, verify, reply = context.tracer.spans_for("req-1")
    assert [s.parent_id for s in (route, hop, reply)] == [root.span_id] * 3
    assert verify.parent_id == hop.span_id
    assert route.attributes == {"hops": 2}
    assert (hop.status, hop.attributes) == (
        "released", {"domain": "A", "handle": "h"}
    )
    assert (reply.status, reply.attributes) == ("error", {"error": "lost"})
    # Each child starts where the previous phase or span ended.
    assert route.start_wall == root.start_wall
    assert hop.start_wall == route.end_wall
    assert verify.start_wall == hop.start_wall
    assert reply.start_wall == hop.end_wall
    assert all(span.finished for span in context.tracer)


def test_traceparent_names_the_top_span():
    with fresh_context(tracer=Tracer()), correlation_scope("req-000007"):
        spans.open_span("reserve")
        spans.open_span("hop")
        carried = parse_traceparent(spans.traceparent())
        spans.close_span()
        spans.close_span()
        assert spans.traceparent() is None
    assert carried.trace_id == "req-000007"
    assert carried.span_id == 2


def test_each_request_in_scope_has_its_own_stack():
    with fresh_context(tracer=Tracer()) as context:
        with correlation_scope("req-outer"):
            spans.open_span("tunnel_fallback")
            with correlation_scope("req-inner"):
                spans.open_span("reserve")
                spans.close_span()
            spans.close_span(link="req-inner")
    outer, inner = context.tracer
    assert (outer.trace_id, inner.trace_id) == ("req-outer", "req-inner")
    assert inner.parent_id is None
    assert outer.attributes == {"link": "req-inner"}


def test_a_trace_of_its_own_outside_any_request():
    with fresh_context(tracer=Tracer()) as context:
        spans.open_span("sweep", trace="sweep", domain="A")
        spans.close_span(reclaimed=0)
        (sweep,) = context.tracer
    assert sweep.trace_id == "sweep-000001"
    assert sweep.finished and sweep.parent_id is None


def test_nothing_open_records_nothing():
    with fresh_context(tracer=Tracer()) as context:
        spans.phase("verify", "error", error="x")
        spans.close_span()
        with pytest.raises(ObservabilityError, match="outside any request"):
            spans.open_span("hop")
    assert list(context.tracer) == []
