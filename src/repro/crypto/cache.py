"""Bounded memoization of the hot verification primitives.

Section 7 of the paper attributes most of the per-hop signalling cost to
public-key operations: every BB re-verifies the whole nested-envelope
chain, the peer introduction, and the seven §6.5 capability checks on
every request, even when the same user reserves over the same path a
thousand times.  This module caches those verdicts without ever letting
a cache hit become a security downgrade:

* **signature cache** — memoizes the *pure math* of one signature check
  (``scheme.verify(key, message, signature)``), keyed by the scheme
  name, the key id, and content digests of the message and signature.
  Signature validity is an immutable function of its inputs, so entries
  are never invalidated (only LRU-evicted) and both verdicts may be
  cached;
* **RAR verdict cache** — memoizes a whole successful transitive-trust
  verification (:func:`repro.core.trust.verify_rar`), keyed by the
  envelope's canonical-bytes digest plus verifier and peer identity.
  The entry carries every certificate the verdict depended on, and the
  caller **re-runs the cheap time- and policy-dependent guards on every
  hit** (validity windows, revocation oracles, direct-trust acceptance,
  depth/scheme policy) — only the expensive signature math is skipped;
* **delegation verdict cache** — same contract for the §6.5 cascaded
  delegation checks; the proof-of-possession check (check 5) involves a
  live nonce and is always re-run by the caller.

Only *positive* verdicts are cached for RARs and delegation chains: a
denial may become a grant when trust is broadened or a clock advances,
and a stale denial served from cache would be wrong (the reverse — a
stale grant — is prevented by the hit-time guards plus the explicit
:meth:`VerificationCaches.invalidate_certificate` hook that
:meth:`repro.crypto.x509.CertificateAuthority.revoke` calls).

The module-global enable/disable/use pattern mirrors ``repro.obs``:
caching is off by default (tier-1 behaviour is bit-for-bit unchanged)
and scoped on explicitly by benchmarks, the concurrent signaller, or a
``use_caches()`` block.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterator

from repro.errors import CryptoError
from repro.obs import metrics as obs_metrics
from repro.obs._holder import Holder

__all__ = [
    "LRUCache",
    "VerificationCaches",
    "enable",
    "disable",
    "get_caches",
    "use_caches",
    "use_batch_caches",
    "notify_revoked",
]


def digest(data: bytes) -> bytes:
    """Content digest used in cache keys (sha256, truncated for compactness)."""
    return hashlib.sha256(data).digest()[:16]


class LRUCache:
    """A thread-safe bounded mapping with least-recently-used eviction.

    ``get`` refreshes recency; ``put`` evicts the oldest entry once
    ``maxsize`` is exceeded.  All operations take the internal lock, so
    concurrent signalling workers can share one instance.
    """

    def __init__(
        self, maxsize: int, *,
        on_evict: Any | None = None,
    ) -> None:
        if maxsize < 1:
            raise CryptoError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.RLock()
        #: Entries evicted by the size bound (the churn regression test
        #: asserts this moves while ``len`` stays pinned at ``maxsize``).
        self.evictions = 0
        #: Called with each size-evicted key, *after* the internal lock
        #: is released (so the callback may take other locks freely).
        self._on_evict = on_evict

    def get(self, key: Hashable) -> Any | None:
        with self._lock:
            if key not in self._data:
                return None
            self._data.move_to_end(key)
            return self._data[key]

    def put(self, key: Hashable, value: Any) -> None:
        evicted: list[Hashable] = []
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                old_key, _ = self._data.popitem(last=False)
                self.evictions += 1
                evicted.append(old_key)
        if self._on_evict is not None:
            for old_key in evicted:
                self._on_evict(old_key)

    def discard(self, key: Hashable) -> bool:
        with self._lock:
            return self._data.pop(key, None) is not None

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def keys(self) -> tuple[Hashable, ...]:
        with self._lock:
            return tuple(self._data)


def _meter(cache: str, result: str) -> None:
    """Count one lookup outcome; free when observability is disabled."""
    registry = obs_metrics.get_registry()
    if registry is None:
        return
    registry.counter(
        "verification_cache_events_total",
        "Verification-cache lookups by cache name and hit/miss/invalidate",
    ).inc(cache=cache, result=result)


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time counters for one run (independent of obs state)."""

    hits: int
    misses: int
    invalidations: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class _StatCell:
    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)


class VerificationCaches:
    """The three verification caches plus the revocation reverse-index.

    Verdict entries register the fingerprints of every certificate they
    depend on; :meth:`invalidate_certificate` (driven by CA revocation)
    drops all dependent verdicts at once.  The signature cache is pure
    math and exempt from invalidation by construction.
    """

    def __init__(
        self,
        *,
        signature_size: int = 4096,
        rar_size: int = 1024,
        delegation_size: int = 1024,
    ) -> None:
        self.signature = LRUCache(signature_size)
        # Verdict stores report size-evictions back so the revocation
        # reverse-index never outlives the entries it points at — a
        # revocation *storm* (10^4 revoke/re-issue cycles) must leave
        # the index bounded by the live entries, not by history.
        self.rar = LRUCache(
            rar_size,
            on_evict=lambda key: self._forget_entry("rar", key),
        )
        self.delegation = LRUCache(
            delegation_size,
            on_evict=lambda key: self._forget_entry("delegation", key),
        )
        self._lock = threading.RLock()
        #: cert fingerprint -> {(cache_name, key), ...} of dependent verdicts.
        self._dependents: dict[str, set[tuple[str, Hashable]]] = {}
        #: (cache_name, key) -> the fingerprints it registered under
        #: (the forward map that makes reverse-index pruning exact).
        self._entry_deps: dict[tuple[str, Hashable], tuple[str, ...]] = {}
        self._stats = {
            "signature": _StatCell(),
            "rar": _StatCell(),
            "delegation": _StatCell(),
        }

    # -- bookkeeping ---------------------------------------------------------------

    def _count(self, cache: str, result: str) -> None:
        cell = self._stats[cache]
        with cell.lock:
            if result == "hit":
                cell.hits += 1
            elif result == "miss":
                cell.misses += 1
            else:
                cell.invalidations += 1
        _meter(cache, result)

    def stats(self, cache: str) -> CacheStats:
        cell = self._stats[cache]
        with cell.lock:
            return CacheStats(cell.hits, cell.misses, cell.invalidations)

    # -- signature math (never invalidated) ----------------------------------------

    def verify_signature(
        self,
        scheme_name: str,
        key_id: str,
        message: bytes,
        signature: bytes,
        verify: Any,
    ) -> bool:
        """Memoized ``scheme.verify``; *verify* is the zero-arg fallback.

        The key binds scheme, key, message digest, and signature digest,
        so a hit can only ever repeat the exact computation it replaces.
        """
        key = (scheme_name, key_id, digest(message), digest(signature))
        cached = self.signature.get(key)
        if cached is not None:
            self._count("signature", "hit")
            return bool(cached[0])
        self._count("signature", "miss")
        result = bool(verify())
        self.signature.put(key, (result,))
        return result

    # -- verdict caches (guarded + invalidatable) ----------------------------------

    def get_verdict(self, cache: str, key: Hashable) -> Any | None:
        store = self.rar if cache == "rar" else self.delegation
        entry = store.get(key)
        self._count(cache, "hit" if entry is not None else "miss")
        return entry

    def put_verdict(
        self, cache: str, key: Hashable, entry: Any,
        dependency_fingerprints: tuple[str, ...],
    ) -> None:
        store = self.rar if cache == "rar" else self.delegation
        with self._lock:
            # Re-registering a key under different dependencies must not
            # leave the old fingerprints pointing at it.
            self._forget_entry(cache, key)
            store.put(key, entry)
            self._entry_deps[(cache, key)] = tuple(dependency_fingerprints)
            for fingerprint in dependency_fingerprints:
                self._dependents.setdefault(fingerprint, set()).add((cache, key))

    def _forget_entry(self, cache: str, key: Hashable) -> None:
        """Erase one verdict's reverse-index registrations (entry gone:
        evicted, invalidated, or about to be overwritten)."""
        with self._lock:
            for fingerprint in self._entry_deps.pop((cache, key), ()):
                dependents = self._dependents.get(fingerprint)
                if dependents is not None:
                    dependents.discard((cache, key))
                    if not dependents:
                        del self._dependents[fingerprint]

    def invalidate_certificate(self, fingerprint: str) -> int:
        """Drop every verdict that depended on *fingerprint*.

        Called by :meth:`CertificateAuthority.revoke`; returns how many
        entries were dropped.  A revoked certificate can therefore never
        admit from cache even before the hit-time revocation guard runs.
        Dropped entries are also erased from every *other* fingerprint's
        dependent set, so storms of revocations cannot grow the index.
        """
        with self._lock:
            dependents = self._dependents.pop(fingerprint, set())
            dropped = 0
            for cache, key in dependents:
                store = self.rar if cache == "rar" else self.delegation
                if store.discard(key):
                    dropped += 1
                    self._count(cache, "invalidate")
                self._forget_entry(cache, key)
        return dropped

    def reverse_index_size(self) -> tuple[int, int]:
        """(fingerprints tracked, total dependent pairs) — both bounded
        by the live verdict entries."""
        with self._lock:
            return (
                len(self._dependents),
                sum(len(deps) for deps in self._dependents.values()),
            )

    def clear(self) -> None:
        with self._lock:
            self.signature.clear()
            self.rar.clear()
            self.delegation.clear()
            self._dependents.clear()
            self._entry_deps.clear()

    def render(self) -> str:
        lines = ["verification caches:"]
        for name, store in (
            ("signature", self.signature),
            ("rar", self.rar),
            ("delegation", self.delegation),
        ):
            stats = self.stats(name)
            lines.append(
                f"  {name:<10s} size={len(store)}/{store.maxsize}"
                f" hits={stats.hits} misses={stats.misses}"
                f" hit_rate={stats.hit_rate:.2%}"
                f" invalidations={stats.invalidations}"
                f" evictions={store.evictions}"
            )
        return "\n".join(lines)


# -- module-global handle (mirrors repro.obs.metrics) ------------------------------

_holder: Holder[VerificationCaches] = Holder()


def enable(
    *,
    signature_size: int = 4096,
    rar_size: int = 1024,
    delegation_size: int = 1024,
) -> VerificationCaches:
    """Install (and return) a fresh process-global cache set."""
    caches = VerificationCaches(
        signature_size=signature_size,
        rar_size=rar_size,
        delegation_size=delegation_size,
    )
    _holder.swap(caches)
    return caches


def disable() -> None:
    _holder.swap(None)


def get_caches() -> VerificationCaches | None:
    """The active cache set, or ``None`` when caching is off (default)."""
    return _holder.active


def use_caches(
    caches: VerificationCaches | None = None,
) -> AbstractContextManager[VerificationCaches]:
    """Scope-install *caches* (or a fresh default set), restoring on exit."""
    return _holder.use(caches if caches is not None else VerificationCaches())


@contextmanager
def use_batch_caches() -> Iterator[VerificationCaches]:
    """Scope for a signalling burst: every RAR in it descends from the
    same users, carries the same capability chains and was wrapped by
    BBs whose certificates repeat, so the burst's verifications share
    one cache set and each common signature, introduction and delegation
    link is checked once — with the hit-time guards re-run per item.

    Joins the process caches when they are enabled — the burst then
    feeds them, and installing a scope would only narrow their lifetime
    — and installs a burst-scoped cache set otherwise.
    """
    active = get_caches()
    if active is not None:
        yield active
        return
    with use_caches() as caches:
        yield caches


def notify_revoked(fingerprint: str) -> None:
    """Revocation hook for issuers: invalidate if caching is active."""
    caches = get_caches()
    if caches is not None:
        caches.invalidate_certificate(fingerprint)
