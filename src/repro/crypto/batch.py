"""Batched transitive-trust verification — the miss path, amortized.

A :class:`~repro.core.concurrent.ConcurrentSignaller` burst presents the
same shape of work over and over: every RAR in the batch descends from
the same user request, carries the same capability-delegation chain, and
was wrapped by BBs whose certificates repeat across items.  Verified
sequentially with cold caches, each item re-runs the signature math for
every shared layer — the exact O(batch x chain) cost this module removes.

:func:`verify_rar_batch` checks a whole batch in one pass:

* **Dedup by content digest.**  Items whose ``(RAR bytes, verifier,
  peer certificate)`` triple is identical are verified once; duplicates
  reuse the verdict (or its error) outright.
* **Shared sub-verification work.**  All items run under one
  :class:`~repro.crypto.cache.VerificationCaches` scope, so inner-layer
  signatures, introduced-certificate checks and capability-delegation
  links shared *between* distinct RARs are each verified once — the
  signature cache keys on content digest, which is exactly the sharing
  structure of a batch.  When the PR-5 process-global caches are
  enabled, they are used directly and the batch **feeds them in bulk**:
  later single-item traffic hits verdicts this batch established.
* **Per-item isolation.**  A bad RAR rejects alone: its error is
  captured in its :class:`BatchResult`; every other item still verifies
  (and still benefits from the shared work).  Verdict-cache hits are
  re-guarded per item by the PR-5 validity/revocation checks, so a
  revocation landing mid-batch can never be papered over by the memo.

Equivalence with sequential :func:`~repro.core.trust.verify_rar` — same
verdicts, same error types, for every member mix including revoked,
expired and forged signers — is asserted by the Hypothesis property
suite in ``tests/differential/``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.core.envelope import SignedEnvelope
from repro.core.trust import VerifiedRAR, verify_rar
from repro.crypto import cache as verification_cache
from repro.crypto.dn import DistinguishedName
from repro.crypto.truststore import TrustStore
from repro.crypto.x509 import Certificate
from repro.errors import ReproError

__all__ = [
    "BatchItem",
    "BatchResult",
    "verify_rar_batch",
    "use_batch_caches",
]


@dataclass(frozen=True)
class BatchItem:
    """One RAR to verify, with its receiving context."""

    rar: SignedEnvelope
    verifier: DistinguishedName
    peer_certificate: Certificate


@dataclass(frozen=True)
class BatchResult:
    """Outcome for one batch item: exactly one of *verified* / *error*."""

    verified: VerifiedRAR | None
    error: ReproError | None
    #: True when this item's verdict was reused from an identical earlier
    #: item of the same batch (content-digest dedup).
    deduplicated: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    def require(self) -> VerifiedRAR:
        """The verdict, re-raising the item's error if it failed."""
        if self.error is not None:
            raise self.error
        assert self.verified is not None
        return self.verified


def _item_digest(item: BatchItem) -> tuple[bytes, str, str]:
    return (
        verification_cache.digest(item.rar.cbe_bytes()),
        str(item.verifier),
        item.peer_certificate.fingerprint,
    )


def verify_rar_batch(
    items: Sequence[BatchItem],
    *,
    truststore: TrustStore,
    at_time: float = 0.0,
    caches: verification_cache.VerificationCaches | None = None,
) -> list[BatchResult]:
    """Verify every item of a batch in one pass, results in item order.

    The semantics of each individual result are *identical* to calling
    :func:`~repro.core.trust.verify_rar` sequentially with the same
    arguments: the only differences are cost (shared work is done once)
    and that errors are captured per item rather than raised.

    Cache scope, in precedence order: an explicit *caches* argument; the
    process-global PR-5 caches when enabled (the batch then feeds them
    in bulk); otherwise a fresh batch-local cache set that is discarded
    afterwards — dedup within the batch without changing global state.
    """
    if caches is None:
        caches = verification_cache.get_caches()
    scope = (
        verification_cache.use_caches(caches)
        if caches is not None
        else verification_cache.use_caches()
    )
    results: dict[int, BatchResult] = {}
    first_of: dict[tuple[bytes, str, str], int] = {}
    with scope:
        for index, item in enumerate(items):
            key = _item_digest(item)
            earlier = first_of.get(key)
            if earlier is not None:
                prior = results[earlier]
                results[index] = BatchResult(
                    verified=prior.verified,
                    error=prior.error,
                    deduplicated=True,
                )
                continue
            first_of[key] = index
            try:
                verified = verify_rar(
                    item.rar,
                    verifier=item.verifier,
                    peer_certificate=item.peer_certificate,
                    truststore=truststore,
                    at_time=at_time,
                )
            except ReproError as exc:
                results[index] = BatchResult(verified=None, error=exc)
            else:
                results[index] = BatchResult(verified=verified, error=None)
    return [results[i] for i in range(len(items))]


@contextmanager
def use_batch_caches() -> Iterator[verification_cache.VerificationCaches]:
    """Scope for a concurrent signalling burst: share verification work
    across the burst's threads the way :func:`verify_rar_batch` shares it
    across items.

    Joins the PR-5 process caches when they are enabled — the burst then
    feeds them, and installing a scope would only narrow their lifetime
    — and installs a burst-scoped cache set otherwise.
    """
    active = verification_cache.get_caches()
    if active is not None:
        yield active
        return
    with verification_cache.use_caches() as caches:
        yield caches
