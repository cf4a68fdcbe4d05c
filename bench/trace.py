"""Per-layer spans recorded from outside the program.

:class:`LayerTracer` wraps the public entry points of each layer (see
:data:`TARGETS`) so a traced pass can say where a reservation's time went
without any span inside ``src/``.  A wrapper records one span per call —
layer, name, start, end and the span that caused it — and keeps, per
target, the call count and the *self time*: the span's duration minus the
part its child spans cover.  Self times therefore sum to the root spans'
total, and a layer's share is what making that layer free could save.

Aggregates cover every call of the timed phase.  Raw spans are kept only
for the first :data:`KEPT_ROOTS` root operations (a chain8 reservation is
already ~2000 spans) and written out with the result file.

Targets are resolved by dotted name when the tracer is installed.  One
that a refactor moved or deleted is listed in :attr:`LayerTracer.missing`
and reported, never raised: the traced pass must not fail a run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from types import ModuleType
from typing import Any, Callable

__all__ = ["TARGETS", "LAYERS", "LayerTracer"]

#: layer -> dotted names of the public functions that bound it.
TARGETS: dict[str, tuple[str, ...]] = {
    "core.hopbyhop": (
        "repro.core.hopbyhop.HopByHopProtocol.reserve",
        "repro.core.hopbyhop.HopByHopProtocol.cancel",
        "repro.core.hopbyhop.HopByHopProtocol.modify",
        "repro.core.hopbyhop.HopByHopProtocol.refresh",
        "repro.core.hopbyhop.HopByHopProtocol.process_ingress",
    ),
    "core.messages": (
        "repro.core.messages.make_user_rar",
        "repro.core.messages.make_bb_rar",
        "repro.core.messages.make_approval",
        "repro.core.messages.make_denial",
        "repro.core.messages.unwrap_rar_layers",
    ),
    "core.envelope": (
        "repro.core.envelope.seal",
        "repro.core.envelope.SignedEnvelope.verify",
        "repro.core.envelope.SignedEnvelope.cbe_bytes",
        "repro.core.envelope.SignedEnvelope.body_bytes",
    ),
    "core.codec": (
        "repro.core.codec.to_wire",
        "repro.core.codec.from_wire",
        "repro.core.codec.WireView.parse",
        "repro.core.codec.WireView.kind",
        "repro.core.codec.WireView.peek",
        "repro.core.codec.WireView.materialize",
    ),
    "crypto.canonical": (
        "repro.crypto.canonical.encode",
        "repro.crypto.canonical.decode",
        "repro.crypto.canonical.digest",
    ),
    "crypto.keys": (
        "repro.crypto.keys.RSAScheme.sign",
        "repro.crypto.keys.RSAScheme.verify",
        "repro.crypto.keys.SimulatedScheme.sign",
        "repro.crypto.keys.SimulatedScheme.verify",
    ),
    "crypto.x509": (
        "repro.crypto.x509.sign_certificate",
        "repro.crypto.x509.Certificate.verify_signature",
        "repro.crypto.x509.Certificate.tbs_bytes",
        "repro.crypto.x509.Certificate.cbe_bytes",
        "repro.crypto.x509.verify_chain",
    ),
    "core.trust": (
        "repro.core.trust.verify_rar",
        "repro.core.trust.verify_rar_with_repository",
    ),
    "crypto.capability": (
        "repro.crypto.capability.delegate",
        "repro.crypto.capability.verify_delegation_chain",
        "repro.crypto.capability.prove_possession",
        "repro.crypto.capability.check_possession",
    ),
    "core.channel": (
        "repro.core.channel.SecureChannel.transmit",
        "repro.core.channel.SecureChannel.transmit_timed",
    ),
    "bb.broker": (
        "repro.bb.broker.BandwidthBroker.admit",
        "repro.bb.broker.BandwidthBroker.cancel",
        "repro.bb.broker.BandwidthBroker.claim",
        "repro.bb.broker.BandwidthBroker.refresh",
        "repro.bb.broker.BandwidthBroker.check_sla",
        "repro.bb.broker.BandwidthBroker.decide_policy",
    ),
    "bb.policyserver": (
        "repro.bb.policyserver.PolicyServer.verify_credentials",
        "repro.bb.policyserver.PolicyServer.decide",
    ),
    "policy.engine": (
        "repro.policy.engine.PolicyEngine.evaluate",
    ),
    "bb.admission": (
        "repro.bb.admission.AdmissionController.available",
        "repro.bb.admission.AdmissionController.book_all",
        "repro.bb.admission.AdmissionController.release_all",
    ),
    "bb.reservations": (
        "repro.bb.reservations.ReservationTable.create",
        "repro.bb.reservations.ReservationTable.transition",
        "repro.bb.reservations.ReservationTable.in_state",
        "repro.bb.reservations.ReservationTable.refresh",
    ),
    "bb.defense": (
        "repro.bb.defense.DomainDefense.admit_signal",
        "repro.bb.defense.DomainDefense.check_quota",
    ),
    "net.topology": (
        "repro.net.topology.Topology.domain_path",
        "repro.net.topology.Topology.interdomain_links",
        "repro.net.topology.Topology.border_routers",
    ),
    # The four observers, so that what watching costs is a line of the
    # budget and not part of ``core.hopbyhop``'s self time.
    "obs.metrics": (
        "repro.obs.metrics.MetricsRegistry.counter",
        "repro.obs.metrics.MetricsRegistry.gauge",
        "repro.obs.metrics.MetricsRegistry.histogram",
        "repro.obs.metrics.Counter.inc",
        "repro.obs.metrics.Gauge.inc",
        "repro.obs.metrics.Gauge.dec",
        "repro.obs.metrics.Gauge.set",
        "repro.obs.metrics.Histogram.observe",
    ),
    "obs.events": (
        "repro.obs.events.EventLog.emit",
    ),
    "obs.spans": (
        "repro.obs.spans.Tracer.begin",
        "repro.obs.spans.Tracer.end",
        "repro.obs.spans.Tracer.record",
    ),
    "obs.audit": (
        "repro.obs.audit.ledger.DecisionLedger.record",
        "repro.obs.audit.ledger.record_decision",
        "repro.obs.audit.ledger.note_check",
    ),
}

LAYERS: tuple[str, ...] = tuple(TARGETS)

#: Targets whose result length is summed (bytes produced by the encoder).
SIZED_TARGETS = frozenset({"repro.crypto.canonical.encode"})

#: Root operations whose raw spans are kept for the result file.
KEPT_ROOTS = 4

_MARK = "__bench_traced__"


def _resolve(dotted: str) -> tuple[Any, str]:
    """The object that owns the last component of *dotted* (a module or a
    class) and that component's name.  Raises ``LookupError`` when the
    name no longer exists."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner: Any = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:-1]:
                owner = getattr(owner, name)
        except AttributeError as exc:
            raise LookupError(dotted) from exc
        # Defined by the owner itself, not inherited: restoring writes
        # the owner's own attribute back.
        if parts[-1] not in vars(owner):
            raise LookupError(dotted)
        return owner, parts[-1]
    raise LookupError(dotted)


class LayerTracer:
    """Installs the wrappers, aggregates spans, restores on exit.

    Use as a context manager around building *and* driving the testbed
    (bound methods captured while building, such as
    ``topology.domain_path``, must already be wrapped); spans are only
    recorded while :attr:`recording` is true, so set-up and warm-up pass
    through at the cost of one flag test per call.
    """

    def __init__(self, targets: dict[str, tuple[str, ...]] = TARGETS) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        for layer, dotted_names in targets.items():
            for dotted in dotted_names:
                self.names.append(dotted)
                self.layer_of.append(layer)
        self.missing: list[str] = []
        self.recording = False
        self._patched: list[tuple[Any, str, Any]] = []
        self._stack: list[list[int]] = []
        self.reset()

    def reset(self) -> None:
        n = len(self.names)
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.result_bytes = [0] * n
        self.root_ns = 0
        self.roots = 0
        #: (span id, parent id or 0, target index, start ns, end ns, root id)
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self._next_id = 1
        self._stack.clear()

    # -- patching ------------------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()

    def install(self) -> None:
        self.missing = []
        for index, dotted in enumerate(self.names):
            try:
                owner, name = _resolve(dotted)
            except LookupError:
                self.missing.append(dotted)
                continue
            raw = vars(owner)[name]
            sized = dotted in SIZED_TARGETS
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped: Any = type(raw)(self._wrap(raw.__func__, index, sized))
            elif callable(raw):
                wrapped = self._wrap(raw, index, sized)
            else:
                self.missing.append(dotted)
                continue
            self._patch(owner, name, raw, wrapped)
            if isinstance(owner, ModuleType):
                # ``from m import f`` copied the name: patch each copy.
                for module in list(sys.modules.values()):
                    if (
                        module is not owner
                        and getattr(module, "__name__", "").startswith("repro")
                        and vars(module).get(name) is raw
                    ):
                        self._patch(module, name, raw, wrapped)

    def _patch(self, owner: Any, name: str, raw: Any, wrapped: Any) -> None:
        setattr(owner, name, wrapped)
        self._patched.append((owner, name, raw))

    def restore(self) -> None:
        while self._patched:
            owner, name, raw = self._patched.pop()
            setattr(owner, name, raw)
        self.recording = False

    def leftovers(self) -> list[str]:
        """Names that still hold a wrapper (must be empty after
        :meth:`restore`; the self-check asserts it)."""
        found = []
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if hasattr(value, _MARK):
                    found.append(f"{module.__name__}.{name}")
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for attr, member in list(vars(value).items()):
                        func = getattr(member, "__func__", member)
                        if hasattr(func, _MARK):
                            found.append(f"{module.__name__}.{name}.{attr}")
        return found

    def _wrap(self, fn: Callable[..., Any], index: int, sized: bool) -> Callable[..., Any]:
        tracer = self
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.recording:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            # [child ns, span id, root id]
            frame = [0, span_id, stack[0][2] if stack else span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tracer.calls[index] += 1
                tracer.self_ns[index] += duration - frame[0]
                keep = tracer.roots < KEPT_ROOTS
                if stack:
                    stack[-1][0] += duration
                    parent = stack[-1][1]
                else:
                    tracer.root_ns += duration
                    tracer.roots += 1
                    parent = 0
                if keep:
                    tracer.spans.append(
                        (span_id, parent, index, start, end, frame[2])
                    )
            if sized:
                tracer.result_bytes[index] += len(result)
            return result

        functools.update_wrapper(traced, fn)
        setattr(traced, _MARK, True)
        return traced

    # -- reading -------------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """``{layer: {"calls": n, "self_s": seconds}}`` over everything
        recorded since :meth:`reset`."""
        totals = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for index, layer in enumerate(self.layer_of):
            totals[layer]["calls"] += self.calls[index]
            totals[layer]["self_s"] += self.self_ns[index] / 1e9
        return totals

    def target_calls(self, suffix: str) -> int:
        """Calls of every target whose dotted name ends with *suffix*."""
        return sum(
            self.calls[i] for i, name in enumerate(self.names)
            if name.endswith(suffix)
        )

    def missing_layers(self) -> set[str]:
        """Layers none of whose targets resolved."""
        resolved = {
            self.layer_of[i] for i, name in enumerate(self.names)
            if name not in self.missing
        }
        return set(LAYERS) - resolved

    def span_records(self) -> list[dict[str, object]]:
        return [
            {
                "id": span_id, "parent": parent, "root": root,
                "layer": self.layer_of[index], "name": self.names[index],
                "start_ns": start, "end_ns": end,
            }
            for span_id, parent, index, start, end, root in self.spans
        ]
