"""repro.obs — the fabric's observability substrate (ISSUE 1).

Three pillars, each individually switchable and all off by default:

* :mod:`repro.obs.metrics` — counters, gauges, fixed-bucket histograms
  in a registry, exported by :mod:`repro.obs.export` as
  Prometheus text or JSON;
* :mod:`repro.obs.spans` — span-based tracing with a per-request
  correlation ID minted when the user agent signs ``RAR_U``; the span
  tree nests exactly like the signature envelopes;
* :mod:`repro.obs.events` — the one decision record type
  (``DecisionRecord``, kinds admit / deny / claim / cancel / release /
  ...) and the bounded event log that keeps every kind.

A decision is written once: :mod:`repro.obs.decisions` counts it and
builds one record, which the event log and the :mod:`repro.obs.audit`
ledger (complete, for the decision kinds) both keep — the same object,
so those views agree by construction.  A metric is a decision's count
(a row of ``decisions.DECISIONS``) or a flight-recorder probe's sample
(``telemetry.testbed_probes``); no module outside ``repro.obs`` asks
for the registry.

Layered on top of the pillars (ISSUE 4):

* :mod:`repro.obs.propagation` — W3C-traceparent-style trace context
  carried *inside* the signed RAR envelopes, so every domain's spans
  stitch into one end-to-end trace;
* :mod:`repro.obs.perf` — critical-path attribution of a trace;
* :mod:`repro.obs.slo` — declarative latency/denial/breaker objectives
  evaluated over the registry and event log (``repro slo``; the chaos
  harness attaches verdicts to every run).

Each store is a slot of the one current :mod:`repro.obs.context`.
Instrumented modules pay a ``None`` check per store when observability is
disabled, so the substrate adds no measurable overhead to the signalling
hot paths (benchmark C1 guards this).

Turn everything on at once::

    from repro import obs

    with obs.observed() as (registry, tracer, event_log):
        outcome = testbed.reserve(...)
    print(obs.export.prometheus_text(registry))

See ``docs/OBSERVABILITY.md`` for the metric-name catalogue and span
taxonomy.
"""

from __future__ import annotations

import contextlib
import logging
import sys
from typing import IO, Iterator

from repro.obs import context, events, export, metrics, perf, propagation
from repro.obs import slo, spans
from repro.obs import audit
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Tracer

__all__ = [
    "context",
    "metrics",
    "spans",
    "events",
    "export",
    "perf",
    "propagation",
    "slo",
    "audit",
    "observed",
    "configure_logging",
]


@contextlib.contextmanager
def observed() -> Iterator[tuple[MetricsRegistry, Tracer, EventLog]]:
    """Enable all three pillars in a fresh context for a ``with`` block,
    restoring the previous context afterwards."""
    registry, tracer, event_log = MetricsRegistry(), Tracer(), EventLog()
    with context.fresh_context(
        registry=registry, tracer=tracer, event_log=event_log,
    ):
        yield registry, tracer, event_log


_LOG_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"
_handler: logging.Handler | None = None


class _CurrentStderrHandler(logging.StreamHandler):
    """A stream handler that always writes to the *current*
    ``sys.stderr``.  A plain ``StreamHandler`` captures the stderr
    object at construction; when that object is a test harness's (or
    any redirector's) capture stream, the handler keeps a closed file
    after teardown and every later log record raises.  Late binding
    keeps the handler valid for the life of the process."""

    def __init__(self) -> None:
        logging.Handler.__init__(self)

    @property
    def stream(self) -> IO[str]:
        return sys.stderr

    @stream.setter
    def stream(self, value: IO[str]) -> None:
        # StreamHandler.setStream compatibility; the handler is
        # permanently bound to whatever sys.stderr currently is.
        pass


def configure_logging(
    verbosity: int = 0,
    *,
    stream: IO[str] | None = None,
    fmt: str = _LOG_FORMAT,
) -> logging.Logger:
    """Configure stdlib logging for the ``repro`` package tree.

    *verbosity* follows the CLI convention: 0 → WARNING, 1 (``-v``) →
    INFO, 2+ (``-vv``) → DEBUG.  Only the ``repro`` logger is touched —
    host applications embedding the library keep their own root-logger
    configuration.  Idempotent: repeated calls swap the single managed
    handler instead of stacking duplicates.
    """
    global _handler
    level = (
        logging.WARNING if verbosity <= 0
        else logging.INFO if verbosity == 1
        else logging.DEBUG
    )
    logger = logging.getLogger("repro")
    if _handler is not None:
        logger.removeHandler(_handler)
    _handler = (
        logging.StreamHandler(stream) if stream is not None
        else _CurrentStderrHandler()
    )
    _handler.setFormatter(logging.Formatter(fmt))
    logger.addHandler(_handler)
    logger.setLevel(level)
    logger.propagate = False
    return logger
