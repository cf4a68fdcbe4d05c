"""The runtime fault injector the instrumented subsystems consult.

One :class:`FaultInjector` holds a :class:`~repro.faults.plan.FaultPlan`
and a per-target operation counter.  Instrumented code calls exactly one
method per operation:

* :meth:`channel_transmit` — from ``SecureChannel.transmit``; may drop
  the message (:class:`~repro.errors.MessageDroppedError`), return it
  with extra delay, or corrupt one signed-payload field;
* :meth:`broker_op` — from ``BandwidthBroker`` admit/claim/cancel; may
  raise :class:`~repro.errors.BrokerUnavailableError` (crash window);
* :meth:`policy_op` — from ``PolicyServer`` verify/decide; may raise
  :class:`~repro.errors.PolicyUnavailableError`;
* :meth:`repository_op` — from ``CertificateRepository.lookup``; may
  raise :class:`~repro.errors.RepositoryUnavailableError`.

The injector never imports the subsystems it breaks (corruption is
duck-typed through ``with_tampered_field``), so ``repro.faults`` sits
beside ``repro.core``, not above it.  Every triggered fault is recorded
in :attr:`triggered` and written as one ``fault`` decision
(:func:`repro.obs.decisions.record`), whose row counts it in
``faults_injected_total``.
"""

from __future__ import annotations

import logging
from typing import Any

from repro.errors import (
    BrokerUnavailableError,
    MessageDroppedError,
    PolicyUnavailableError,
    RepositoryUnavailableError,
)
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec, TargetKind
from repro.obs import decisions

__all__ = ["FaultInjector"]

logger = logging.getLogger(__name__)

#: Field flipped by CORRUPT faults.  Changing any signed-payload byte
#: breaks the signature; this one is only consulted *after* signature
#: verification, so the receiver observes the canonical symptom — a
#: :class:`~repro.errors.TamperedMessageError` from ``require_valid`` —
#: rather than a structural parse error.
_CORRUPT_FIELD = "capability_certs"
_CORRUPT_VALUE = "corrupted-by-fault-injection"


class FaultInjector:
    """Deterministic fault delivery against a fixed plan."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        #: Per-(target kind, target) operation counters.
        self._op_counts: dict[tuple[TargetKind, str], int] = {}
        #: Every fault actually delivered, as ``(spec, op_index)``.
        self.triggered: list[tuple[FaultSpec, int]] = []

    # -- bookkeeping -------------------------------------------------------------

    def _next_op(self, target_kind: TargetKind, target: str) -> int:
        key = (target_kind, target)
        op = self._op_counts.get(key, 0)
        self._op_counts[key] = op + 1
        return op

    def _active(
        self, target_kind: TargetKind, target: str, op: int
    ) -> tuple[FaultSpec, ...]:
        return tuple(
            spec for spec in self.plan.for_target(target_kind, target)
            if spec.window_contains(op)
        )

    def _record(self, spec: FaultSpec, op: int) -> None:
        self.triggered.append((spec, op))
        logger.info("fault injected: %s (op %d)", spec.describe(), op)
        decisions.record(
            "fault", reason=spec.describe(), target=spec.target, op=op,
            target_kind=spec.target_kind.value, kind=spec.kind.value,
        )

    def op_count(self, target_kind: TargetKind, target: str) -> int:
        """Operations seen so far against one target (test hook)."""
        return self._op_counts.get((target_kind, target), 0)

    # -- injection points --------------------------------------------------------

    def channel_transmit(self, link: str, message: Any) -> tuple[Any, float]:
        """One message crossing *link*; returns ``(message, extra_delay_s)``
        or raises :class:`~repro.errors.MessageDroppedError`."""
        op = self._next_op(TargetKind.CHANNEL, link)
        delay_s = 0.0
        for spec in self._active(TargetKind.CHANNEL, link, op):
            self._record(spec, op)
            if spec.kind is FaultKind.DROP:
                raise MessageDroppedError(
                    f"fault injection: message lost on link {link} (op {op})"
                )
            if spec.kind is FaultKind.DELAY:
                delay_s += spec.delay_s
            elif spec.kind is FaultKind.CORRUPT:
                tamper = getattr(message, "with_tampered_field", None)
                if callable(tamper):
                    message = tamper(_CORRUPT_FIELD, _CORRUPT_VALUE)
        return message, delay_s

    def broker_op(self, domain: str) -> None:
        """One operation against domain *domain*'s broker."""
        op = self._next_op(TargetKind.BROKER, domain)
        for spec in self._active(TargetKind.BROKER, domain, op):
            self._record(spec, op)
            raise BrokerUnavailableError(
                f"fault injection: bandwidth broker of {domain} is down "
                f"(op {op})"
            )

    def policy_op(self, domain: str) -> None:
        """One query against domain *domain*'s policy server."""
        op = self._next_op(TargetKind.POLICY, domain)
        for spec in self._active(TargetKind.POLICY, domain, op):
            self._record(spec, op)
            what = (
                "timed out" if spec.kind is FaultKind.TIMEOUT
                else "is unavailable"
            )
            raise PolicyUnavailableError(
                f"fault injection: policy server of {domain} {what} (op {op})"
            )

    def repository_op(self, name: str) -> None:
        """One lookup against certificate repository *name*."""
        op = self._next_op(TargetKind.REPOSITORY, name)
        for spec in self._active(TargetKind.REPOSITORY, name, op):
            self._record(spec, op)
            what = (
                "timed out" if spec.kind is FaultKind.TIMEOUT
                else "is unavailable"
            )
            raise RepositoryUnavailableError(
                f"fault injection: certificate repository {name} {what} "
                f"(op {op})"
            )
