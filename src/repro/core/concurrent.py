"""A batch of independent reservations and its modelled schedule.

The north star ("a system that serves heavy traffic from millions of
users") needs many *independent* reservations in flight at once:
requests whose paths share no domain have no reason to wait on each
other, while two RARs touching the same domain must serialize so the
admission ledger sees a deterministic order.

:func:`run_batch` signals the jobs one at a time, in submission order,
through one :class:`~repro.core.hopbyhop.HopByHopProtocol`, so every
grant, denial and capacity ledger is the serial one.  The parallelism is
reported in **modelled time**, consistent with every latency figure in
this repository (channel ``latency_s`` + per-hop processing delay on a
simulated clock — nothing actually sleeps): the batch's makespan is the
classic greedy schedule where each job starts when a worker slot *and*
all domains on its path are free, and occupies its domains for its
modelled signalling latency.  With ``concurrency=1`` the schedule
degenerates to the serial sum, so the speedup of 8 modelled workers
over 1 is a statement about the modelled system, not about threads:
the library runs on one thread, by rule.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Sequence

from repro.bb.reservations import ReservationRequest
from repro.core.agent import UserAgent
from repro.core.hopbyhop import HopByHopProtocol, SignallingOutcome
from repro.errors import ReproError, SignallingError
from repro.obs import spans as obs_spans
from repro.policy.attributes import SignedAssertion

__all__ = [
    "ReservationJob",
    "BatchResult",
    "ScheduledOutcome",
    "run_batch",
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


def run_batch(
    protocol: HopByHopProtocol,
    jobs: Sequence[ReservationJob],
    *,
    concurrency: int = 1,
) -> BatchResult:
    """Signal every job in submission order; place each in the schedule.

    ``concurrency`` is the modelled worker count of the schedule, not a
    number of threads.  Each job's :class:`~repro.errors.ReproError` —
    including routing to an unknown domain — is captured in its
    ``ScheduledOutcome.error``, never raised: one poisoned request must
    not sink the batch.
    """
    if concurrency < 1:
        raise SignallingError(f"concurrency must be >= 1, got {concurrency}")
    paths: list[tuple[str, ...]] = []
    results: list[tuple[SignallingOutcome | None, str]] = []
    tracer = obs_spans.get_tracer()
    span = None
    if tracer is not None:
        span = tracer.begin(
            "concurrent_batch",
            trace_id=obs_spans.mint_trace_id("batch"),
            jobs=len(jobs),
            concurrency=concurrency,
        )
    try:
        for job in jobs:
            request = job.request
            path: tuple[str, ...] = ()
            outcome: SignallingOutcome | None = None
            error = ""
            try:
                path = tuple(protocol.domain_path(
                    request.source_domain, request.destination_domain
                ))
                outcome = protocol.reserve(
                    job.user,
                    request,
                    assertions=job.assertions,
                    restrictions=job.restrictions,
                    deadline_s=job.deadline_s,
                )
            except ReproError as exc:
                # An unroutable job keeps path () and holds no domain.
                error = f"{type(exc).__name__}: {exc}"
            paths.append(path)
            results.append((outcome, error))
    finally:
        if tracer is not None and span is not None:
            tracer.end(span)

    result = BatchResult(concurrency=concurrency)
    _schedule(concurrency, jobs, paths, results, into=result)
    return result


def _schedule(
    concurrency: int,
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
    worker_free = [0.0] * concurrency
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
