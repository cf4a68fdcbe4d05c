"""Concurrent hop-by-hop signalling over a thread pool.

The north star ("a system that serves heavy traffic from millions of
users") needs many *independent* reservations in flight at once:
requests whose paths share no domain have no reason to wait on each
other, while two RARs touching the same domain must serialize so the
admission ledger sees a deterministic order.

:class:`ConcurrentSignaller` drives a batch of reservation jobs through
one :class:`~repro.core.hopbyhop.HopByHopProtocol` on a thread pool with
**per-domain ticket ordering**: at submission each job atomically takes
one ticket per domain on its path, and a worker only starts once every
one of its domains is serving that job's ticket.  The consequences:

* two jobs with a common domain run in exactly submission order with
  respect to that domain — the same order a serial loop would produce,
  so grants/denials and per-domain capacity ledgers are **identical to
  serial execution** (the property suite asserts this);
* jobs with disjoint paths share no ticket queue and proceed in
  parallel;
* deadlock is impossible: a job only ever waits for *earlier* jobs
  (ticket numbers are assigned in one pass, so the waits-for graph is a
  DAG ordered by submission index).

Throughput is reported in **modelled time**, consistent with every
latency figure in this repository (channel ``latency_s`` + per-hop
processing delay on a simulated clock — nothing actually sleeps): the
batch's modelled makespan is the classic greedy schedule where each job
starts when a worker slot *and* all domains on its path are free, and
occupies its domains for its modelled signalling latency.  With
``concurrency=1`` the schedule degenerates to the serial sum, so the
speedup of ``--concurrency 8`` over ``--concurrency 1`` is an honest
statement about the modelled system, not about the GIL.
"""

from __future__ import annotations

import heapq
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.bb.reservations import ReservationRequest
from repro.core.agent import UserAgent
from repro.core.hopbyhop import HopByHopProtocol, SignallingOutcome
from repro.errors import ReproError, SignallingError
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.policy.attributes import SignedAssertion

__all__ = [
    "ReservationJob",
    "BatchResult",
    "ScheduledOutcome",
    "ConcurrentSignaller",
    "run_serial",
]


@dataclass(frozen=True)
class ReservationJob:
    """One independent reservation to signal."""

    user: UserAgent
    request: ReservationRequest
    assertions: tuple[SignedAssertion, ...] = ()
    restrictions: tuple[str, ...] = ()
    deadline_s: float | None = None


@dataclass(frozen=True)
class ScheduledOutcome:
    """A job's protocol outcome plus its slot in the modelled schedule."""

    job: ReservationJob
    #: The protocol outcome, or ``None`` when signalling aborted with an
    #: error (recorded in ``error``) before producing one.
    outcome: SignallingOutcome | None
    error: str
    #: Modelled start/end of this job in the batch schedule (seconds).
    start_s: float
    end_s: float

    @property
    def granted(self) -> bool:
        return self.outcome is not None and self.outcome.granted


@dataclass
class BatchResult:
    """Everything a batch run produced, in submission order."""

    concurrency: int
    scheduled: list[ScheduledOutcome] = field(default_factory=list)

    @property
    def outcomes(self) -> tuple[SignallingOutcome | None, ...]:
        return tuple(s.outcome for s in self.scheduled)

    @property
    def granted_count(self) -> int:
        return sum(1 for s in self.scheduled if s.granted)

    @property
    def makespan_s(self) -> float:
        """Modelled wall time of the whole batch (max job end)."""
        return max((s.end_s for s in self.scheduled), default=0.0)

    @property
    def throughput_rps(self) -> float:
        """Completed reservations per modelled second."""
        makespan = self.makespan_s
        return len(self.scheduled) / makespan if makespan > 0 else 0.0


class ConcurrentSignaller:
    """Drive many reservations through one protocol on a thread pool.

    All mutable protocol/broker state the workers share must be
    lock-safe (it is: brokers, admission schedules, reservation tables,
    channels, breakers and the obs registries all take internal locks);
    the ticket discipline here adds the *ordering* guarantee on top of
    that safety.
    """

    def __init__(
        self,
        protocol: HopByHopProtocol,
        *,
        concurrency: int = 4,
    ) -> None:
        if concurrency < 1:
            raise SignallingError(
                f"concurrency must be >= 1, got {concurrency}"
            )
        self.protocol = protocol
        self.concurrency = concurrency

    # -- ordering ------------------------------------------------------------------

    def _paths(
        self, jobs: Sequence[ReservationJob]
    ) -> list[tuple[str, ...]]:
        return [
            tuple(
                self.protocol.domain_path(
                    job.request.source_domain, job.request.destination_domain
                )
            )
            for job in jobs
        ]

    def run(self, jobs: Sequence[ReservationJob]) -> BatchResult:
        """Signal every job; returns outcomes in submission order.

        Jobs sharing a domain execute in submission order with respect
        to that domain; disjoint jobs overlap.  Worker exceptions are
        captured per job (``ScheduledOutcome.error``), never raised —
        one poisoned request must not sink the batch.
        """
        paths = self._paths(jobs)
        # One ticket per (job, domain), assigned in submission order.
        next_ticket: dict[str, int] = {}
        tickets: list[dict[str, int]] = []
        for path in paths:
            mine: dict[str, int] = {}
            for domain in path:
                mine[domain] = next_ticket.get(domain, 0)
                next_ticket[domain] = mine[domain] + 1
            tickets.append(mine)

        now_serving: dict[str, int] = {d: 0 for d in next_ticket}
        turnstile = threading.Condition()
        results: list[tuple[SignallingOutcome | None, str]] = [
            (None, "") for _ in jobs
        ]

        depth_registry = obs_metrics.get_registry()

        def publish_depths() -> None:
            # Per-domain turnstile depth: tickets issued minus tickets
            # served.  Called with the turnstile held (or before the
            # pool starts), so reads of now_serving are consistent.
            if depth_registry is None:
                return
            gauge = depth_registry.gauge(
                "concurrent_queue_depth",
                "Jobs queued at the per-domain signalling turnstile",
            )
            for domain, issued in next_ticket.items():
                gauge.set(
                    float(issued - now_serving[domain]), domain=domain
                )

        publish_depths()

        def ready(index: int) -> bool:
            return all(
                now_serving[d] == t for d, t in tickets[index].items()
            )

        def work(index: int) -> None:
            job = jobs[index]
            with turnstile:
                turnstile.wait_for(lambda: ready(index))
            try:
                outcome = self.protocol.reserve(
                    job.user,
                    job.request,
                    assertions=job.assertions,
                    restrictions=job.restrictions,
                    deadline_s=job.deadline_s,
                )
                results[index] = (outcome, "")
            except ReproError as exc:
                results[index] = (None, f"{type(exc).__name__}: {exc}")
            finally:
                with turnstile:
                    for domain in tickets[index]:
                        now_serving[domain] += 1
                    publish_depths()
                    turnstile.notify_all()

        tracer = obs_spans.get_tracer()
        span = None
        if tracer is not None:
            span = tracer.begin(
                "concurrent_batch",
                trace_id=obs_spans.mint_correlation_id(),
                jobs=len(jobs),
                concurrency=self.concurrency,
            )
        try:
            with ThreadPoolExecutor(
                max_workers=self.concurrency,
                thread_name_prefix="signaller",
            ) as pool:
                futures = [
                    pool.submit(work, i) for i in range(len(jobs))
                ]
                for future in futures:
                    future.result()
        finally:
            if tracer is not None and span is not None:
                tracer.end(span)

        result = BatchResult(concurrency=self.concurrency)
        self._schedule(jobs, paths, results, into=result)
        registry = obs_metrics.get_registry()
        if registry is not None:
            counter = registry.counter(
                "concurrent_jobs_total",
                "Jobs driven through the concurrent signaller, by result",
            )
            for item in result.scheduled:
                counter.inc(
                    result="granted" if item.granted
                    else ("error" if item.error else "denied")
                )
            registry.histogram(
                "concurrent_batch_makespan_seconds",
                "Modelled makespan of concurrent signalling batches",
            ).observe(result.makespan_s)
        return result

    # -- modelled schedule -----------------------------------------------------------

    def _schedule(
        self,
        jobs: Sequence[ReservationJob],
        paths: Sequence[tuple[str, ...]],
        results: Sequence[tuple[SignallingOutcome | None, str]],
        *,
        into: BatchResult,
    ) -> None:
        """Greedy modelled schedule: a job starts when a worker slot and
        every domain on its path are free, and holds its domains for its
        modelled signalling latency.  ``concurrency=1`` degenerates to
        the serial sum of latencies."""
        worker_free = [0.0] * self.concurrency
        heapq.heapify(worker_free)
        domain_free: dict[str, float] = {}
        for job, path, (outcome, error) in zip(jobs, paths, results):
            latency = outcome.latency_s if outcome is not None else 0.0
            start = heapq.heappop(worker_free)
            for domain in path:
                start = max(start, domain_free.get(domain, 0.0))
            end = start + latency
            heapq.heappush(worker_free, end)
            for domain in path:
                domain_free[domain] = end
            into.scheduled.append(
                ScheduledOutcome(
                    job=job, outcome=outcome, error=error,
                    start_s=start, end_s=end,
                )
            )


def run_serial(
    protocol: HopByHopProtocol, jobs: Sequence[ReservationJob]
) -> BatchResult:
    """Reference serial execution: the same jobs, one at a time.

    Equivalent to ``ConcurrentSignaller(protocol, concurrency=1).run``
    but with no threads at all — the differential baseline the property
    suite compares the concurrent engine against.
    """
    result = BatchResult(concurrency=1)
    clock_s = 0.0
    for job in jobs:
        outcome: SignallingOutcome | None
        try:
            outcome = protocol.reserve(
                job.user,
                job.request,
                assertions=job.assertions,
                restrictions=job.restrictions,
                deadline_s=job.deadline_s,
            )
            error = ""
        except ReproError as exc:
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        latency = outcome.latency_s if outcome is not None else 0.0
        result.scheduled.append(
            ScheduledOutcome(
                job=job, outcome=outcome, error=error,
                start_s=clock_s, end_s=clock_s + latency,
            )
        )
        clock_s += latency
    return result
