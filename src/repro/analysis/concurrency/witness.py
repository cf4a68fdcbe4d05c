"""Runtime lock witness: ThreadSanitizer-lite for the test suites.

The static pass (:mod:`~repro.analysis.concurrency.lockgraph`) proves an
*approximation*; this module checks the approximation against reality.
While installed, it monkeypatches :func:`threading.Lock` and
:func:`threading.RLock` so every lock created afterwards is wrapped in a
recorder that notes, per thread, the stack of witness-wrapped locks held
at every acquisition.  That yields the **observed** acquired-while-
holding graph, keyed by lock *creation site* ``(path, line)`` — the same
site the static :class:`~repro.analysis.concurrency.model.LockNode`
carries, so the two graphs can be joined.

Three checks come out of one recording:

* :meth:`LockWitness.inversions` — cycles in the observed graph itself:
  two threads really did acquire the same two locks in opposite orders
  (a deadlock that did not happen only by scheduling luck);
* :meth:`LockWitness.check_against` — observed edges between locks the
  static graph knows must be a subset of the static edges.  An
  unexpected edge means the static call-graph approximation missed an
  acquisition path and the REP120 verdict is weaker than claimed;
* re-entrant acquisition of a wrapped non-reentrant ``Lock`` raises
  immediately instead of deadlocking the suite.

Activation is always opt-in: ``pytest --lock-witness`` (fixture in
``tests/conftest.py``) or ``repro chaos --witness``.  Locks created
*before* :meth:`~LockWitness.install` (module-global locks of already-
imported modules, locks inside the stdlib) are not wrapped and therefore
not observed; the suites create their brokers/registries per test, so
everything the static graph tracks is covered in practice.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.errors import AnalysisError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.concurrency.model import LockOrderGraph

__all__ = ["Site", "LockWitness", "WitnessViolation", "current_witness"]

# The real factories, captured at import so wrappers and the witness's
# own bookkeeping never recurse through the patch.
_REAL_LOCK = threading.Lock
_REAL_RLOCK = threading.RLock

_STDLIB_DIR = threading.__file__.rsplit("/", 1)[0] + "/"


def _is_stdlib(path: str) -> bool:
    return path.startswith(_STDLIB_DIR) or path.startswith("<")


@dataclass(frozen=True)
class Site:
    """A lock creation site — the join key with static lock nodes."""

    path: str
    line: int

    def short(self) -> str:
        return f"{self.path.rsplit('/', 1)[-1]}:{self.line}"


class WitnessViolation(AnalysisError):
    """A non-reentrant lock was re-acquired by its holding thread.

    Raised *instead of* deadlocking the test that did it."""


def _creation_site() -> Site:
    """First stack frame outside this module and :mod:`threading`."""
    import sys

    frame = sys._getframe(2)
    skip = (__file__, threading.__file__)
    while frame is not None and frame.f_code.co_filename in skip:
        frame = frame.f_back
    if frame is None:  # pragma: no cover - only with exotic embedding
        return Site(path="<unknown>", line=0)
    return Site(path=frame.f_code.co_filename, line=frame.f_lineno)


class _WitnessLock:
    """Wrapper recording acquisition order against the witness."""

    __slots__ = ("_inner", "_witness", "site", "reentrant", "_owner", "_depth")

    def __init__(
        self, witness: "LockWitness", site: Site, *, reentrant: bool
    ) -> None:
        self._inner = _REAL_RLOCK() if reentrant else _REAL_LOCK()
        self._witness = witness
        self.site = site
        self.reentrant = reentrant
        self._owner: int | None = None
        self._depth = 0

    # The stdlib lock API surface the codebase uses.

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        me = threading.get_ident()
        if self._owner == me:
            if not self.reentrant:
                raise WitnessViolation(
                    f"non-reentrant lock created at {self.site.short()} "
                    "re-acquired by its holding thread (guaranteed "
                    "self-deadlock)"
                )
            got = self._inner.acquire(blocking, timeout)
            if got:
                self._depth += 1
            return got
        self._witness._before_acquire(self.site)
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._owner = me
            self._depth = 1
            self._witness._did_acquire(self.site)
        return got

    def release(self) -> None:
        me = threading.get_ident()
        outermost = self._owner == me and self._depth == 1
        if outermost:
            # Clear ownership before the real release: the instant the
            # inner lock is free another thread may acquire.
            self._owner = None
            self._depth = 0
        elif self._owner == me:
            self._depth -= 1
        self._inner.release()
        if outermost:
            self._witness._did_release(self.site)

    def locked(self) -> bool:
        return self._inner.locked()

    def _at_fork_reinit(self) -> None:
        # The stdlib re-initialises its module locks after fork.
        self._inner._at_fork_reinit()
        self._owner = None
        self._depth = 0

    # ``threading.Condition`` drives its lock through this private
    # trio; without them it falls back to a try-acquire probe that is
    # wrong for reentrant locks.

    def _is_owned(self) -> bool:
        return self._owner == threading.get_ident()

    def _release_save(self):
        # Full release regardless of recursion depth (Condition.wait).
        depth = self._depth
        self._owner = None
        self._depth = 0
        if hasattr(self._inner, "_release_save"):
            inner_state = self._inner._release_save()
        else:
            self._inner.release()
            inner_state = None
        self._witness._did_release(self.site)
        return (depth, inner_state)

    def _acquire_restore(self, saved) -> None:
        depth, inner_state = saved
        self._witness._before_acquire(self.site)
        if hasattr(self._inner, "_acquire_restore"):
            self._inner._acquire_restore(inner_state)
        else:
            self._inner.acquire()
        self._owner = threading.get_ident()
        self._depth = depth
        self._witness._did_acquire(self.site)

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "RLock" if self.reentrant else "Lock"
        return f"<witnessed {kind} from {self.site.short()}>"


class LockWitness:
    """Records real acquisition orders; one instance per installation.

    Use as a context manager (``with LockWitness() as w:``) or via
    explicit :meth:`install` / :meth:`uninstall`.
    """

    def __init__(self) -> None:
        self._mu = _REAL_LOCK()  # guards the observed-edge map
        #: (held_site, acquired_site) -> occurrence count.
        self._edges: dict[tuple[Site, Site], int] = {}
        self._held = threading.local()
        self._installed = False
        self.locks_created = 0

    # -- installation ------------------------------------------------------------

    def install(self) -> "LockWitness":
        global _ACTIVE
        if self._installed:
            return self
        if _ACTIVE is not None:
            raise AnalysisError("another LockWitness is already installed")
        threading.Lock = self._make_lock          # type: ignore[misc]
        threading.RLock = self._make_rlock        # type: ignore[misc]
        self._installed = True
        _ACTIVE = self
        return self

    def uninstall(self) -> None:
        global _ACTIVE
        if not self._installed:
            return
        threading.Lock = _REAL_LOCK               # type: ignore[misc]
        threading.RLock = _REAL_RLOCK             # type: ignore[misc]
        self._installed = False
        if _ACTIVE is self:
            _ACTIVE = None

    def __enter__(self) -> "LockWitness":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def _make_lock(self):
        site = _creation_site()
        if _is_stdlib(site.path):
            # Library-internal locks (thread pools, loggers) are outside
            # the model; wrapping them only risks tripping on private
            # stdlib lock API and drowning reports in noise.
            return _REAL_LOCK()
        self.locks_created += 1
        return _WitnessLock(self, site, reentrant=False)

    def _make_rlock(self):
        site = _creation_site()
        if _is_stdlib(site.path):
            return _REAL_RLOCK()
        self.locks_created += 1
        return _WitnessLock(self, site, reentrant=True)

    # -- recording ---------------------------------------------------------------

    def _stack(self) -> list[Site]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = self._held.stack = []
        return stack

    def _before_acquire(self, site: Site) -> None:
        stack = self._stack()
        if not stack:
            return
        with self._mu:
            for held in stack:
                if held == site:
                    # Another *instance* from the same declaration site:
                    # same static node, not an ordering edge.
                    continue
                pair = (held, site)
                self._edges[pair] = self._edges.get(pair, 0) + 1

    def _did_acquire(self, site: Site) -> None:
        self._stack().append(site)

    def _did_release(self, site: Site) -> None:
        stack = self._stack()
        # Out-of-order releases are legal (if unusual); remove the
        # innermost matching entry.
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] == site:
                del stack[i]
                return

    # -- queries -----------------------------------------------------------------

    def observed_edges(self) -> Mapping[tuple[Site, Site], int]:
        with self._mu:
            return dict(self._edges)

    def inversions(self) -> list[tuple[Site, ...]]:
        """Cycles actually observed: real opposite-order acquisitions."""
        from repro.analysis.concurrency.model import _tarjan_sccs

        edges = self.observed_edges()
        adj: dict[str, list[str]] = {}
        sites: dict[str, Site] = {}

        def key(s: Site) -> str:
            sites.setdefault(f"{s.path}:{s.line}", s)
            return f"{s.path}:{s.line}"

        nodes: set[str] = set()
        for (src, dst) in edges:
            nodes.add(key(src))
            nodes.add(key(dst))
            adj.setdefault(key(src), []).append(key(dst))
        out: list[tuple[Site, ...]] = []
        for scc in _tarjan_sccs(sorted(nodes), adj):
            if len(scc) > 1:
                out.append(tuple(sites[k] for k in scc))
            elif scc[0] in adj.get(scc[0], ()):
                out.append((sites[scc[0]],))
        return out

    def map_to_static(
        self, graph: "LockOrderGraph"
    ) -> dict[Site, str]:
        """Creation site -> static node key, joining on (path, line)."""
        by_site = {
            (node.path, node.line): node.key for node in graph.nodes()
        }
        mapping: dict[Site, str] = {}
        for (src, dst) in self.observed_edges():
            for site in (src, dst):
                node_key = by_site.get((site.path, site.line))
                if node_key is not None:
                    mapping[site] = node_key
        return mapping

    def check_against(
        self, graph: "LockOrderGraph"
    ) -> list[str]:
        """Discrepancy report (empty == observed behaviour is within the
        static model).

        Every observed edge whose endpoints both map to static nodes
        must exist in the static graph (after alias canonicalization);
        and any observed inversion must correspond to a static cycle —
        if the static pass said "no cycles" and the witness saw one,
        that is the loudest possible finding.
        """
        problems: list[str] = []
        mapping = self.map_to_static(graph)
        canon = graph.aliases.find
        for (src, dst), count in sorted(
            self.observed_edges().items(),
            key=lambda kv: (kv[0][0].path, kv[0][0].line,
                            kv[0][1].path, kv[0][1].line),
        ):
            src_key, dst_key = mapping.get(src), mapping.get(dst)
            if src_key is None or dst_key is None:
                continue  # a lock the static pass does not model
            a, b = canon(src_key), canon(dst_key)
            if a == b:
                continue  # aliases of one runtime lock
            if not graph.has_edge(a, b):
                problems.append(
                    f"observed acquisition order {a} -> {b} "
                    f"({count}x, e.g. {src.short()} held while taking "
                    f"{dst.short()}) is missing from the static "
                    "lock-order graph"
                )
        if self.inversions() and not graph.cycles():
            pretty = "; ".join(
                " -> ".join(s.short() for s in cycle)
                for cycle in self.inversions()
            )
            problems.append(
                f"witness observed opposite-order acquisitions ({pretty}) "
                "but the static graph is acyclic"
            )
        return problems

    def summary(self) -> str:
        edges = self.observed_edges()
        return (
            f"lock witness: {self.locks_created} lock(s) wrapped, "
            f"{len(edges)} observed order edge(s), "
            f"{len(self.inversions())} inversion(s)"
        )


#: The installed witness, if any (pytest fixture / chaos CLI hook).
_ACTIVE: LockWitness | None = None


def current_witness() -> LockWitness | None:
    return _ACTIVE
