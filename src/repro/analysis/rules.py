"""The repo-specific lint rules.

Each rule encodes an invariant the reproduction depends on:

* ``REP101`` — simulator-driven code must not read the wall clock;
  certificate windows, token buckets, and reservation intervals are all
  driven by the discrete-event clock, and one ``time.time()`` makes a
  run unreproducible.
* ``REP102`` — stochastic behaviour must come from an injected, seeded
  ``random.Random``; module-level ``random.*`` calls share hidden global
  state across flows and break replay.
* ``REP103`` — ``raise Exception/ValueError/RuntimeError`` hides faults
  from the ``except ReproError`` guards the library promises; use the
  :mod:`repro.errors` hierarchy.
* ``REP104`` — key material must never reach logs or f-strings.
* ``REP105`` — mutable default arguments alias state across calls.
* ``REP106`` — observability is optional by design: metric/tracer
  handles must be fetched once, None-checked, then used, so the
  uninstrumented path stays cheap (the "one-None-check guard").
* ``REP107`` — the strict-typing gate's local proxy: every function in
  ``repro.core``/``repro.crypto``/``repro.policy`` carries complete
  annotations (parameters and return), matching what ``mypy --strict``
  enforces in CI.
* ``REP109`` — every retry loop around channel/broker/policy calls must
  be bounded: a ``while True`` that transmits or re-admits with no
  attempt counter, backoff, or deadline in sight retries a dead peer
  forever (the failure-recovery design is bounded attempts + backoff +
  circuit breaker; see :mod:`repro.core.recovery`).
* ``REP110`` — no raw monotonic timers (``time.perf_counter`` and
  friends) outside :mod:`repro.obs`: hand-rolled ``t0``/``t1`` pairs
  bypass the span clock (``obs_spans.open_span``/``phase``/``close_span``,
  which time what they record), so the cost they measure never reaches a
  trace.  Measuring cost is
  ``bench/``'s job.
* ``REP111`` — every function in the broker/signalling layer that mints
  an admission or denial (``AdmitOutcome(...)``, ``make_denial(...)``)
  must also talk to the decision-provenance recorder
  (:mod:`repro.obs.audit`); a decision path with no recorder call is
  invisible to ``repro audit --reconcile``.
* ``REP112`` — every function in the broker/signalling layer that mints
  a *denial* must attach a :class:`~repro.obs.events.ReasonCode`
  (a ``reason_code=`` keyword, a ``ReasonCode.X`` member, or
  ``reason_code_for(exc)``); an uncoded denial cannot be bucketed by
  the SLO denial-rate machinery, the audit ledger, or an operator
  grepping the event stream.
* ``REP113`` — the telemetry/alert layer
  (:mod:`repro.obs.telemetry`) must not read *any* clock, calendar or
  monotonic: every badge and alert transition is a pure function of
  (recorded frames, supplied ``now``), which is what makes ``repro top --replay``
  reproduce a live incident bit-for-bit.  REP110's ``repro.obs``
  exemption does not extend here.
"""

from __future__ import annotations

import ast

from repro.analysis.framework import Rule, Severity, register

__all__ = [
    "WallClockRule",
    "GlobalRandomRule",
    "BareExceptionRule",
    "SecretExposureRule",
    "MutableDefaultRule",
    "ObsGuardRule",
    "SaltedHashSeedRule",
    "StrictAnnotationsRule",
    "UnboundedRetryRule",
    "RawTimerRule",
    "ProvenanceBypassRule",
    "UncodedDenialRule",
    "TelemetryClockRule",
]

#: Packages whose behaviour must be driven by the simulation clock.
SIMULATION_PACKAGES = ("repro.net", "repro.core", "repro.bb")


def _collect_aliases(tree: ast.AST) -> tuple[dict[str, str], dict[str, str]]:
    """Resolve import aliases: local name -> module, and local name ->
    dotted member ("from time import time" makes ``time`` -> ``time.time``)."""
    modules: dict[str, str] = {}
    members: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                modules[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                members[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return modules, members


class _ImportAwareRule(Rule):
    """A rule that resolves call targets through import aliases."""

    def __init__(self, path: str, module: str) -> None:
        super().__init__(path, module)
        self._modules: dict[str, str] = {}
        self._members: dict[str, str] = {}

    def visit_Module(self, node: ast.Module) -> None:
        self._modules, self._members = _collect_aliases(node)
        self.generic_visit(node)

    def resolve(self, func: ast.expr) -> str | None:
        """Dotted path of a call target, through import aliases."""
        parts: list[str] = []
        while isinstance(func, ast.Attribute):
            parts.append(func.attr)
            func = func.value
        if not isinstance(func, ast.Name):
            return None
        root = func.id
        base = self._members.get(root) or self._modules.get(root) or root
        return ".".join([base, *reversed(parts)])


#: Calendar-clock reads.  Monotonic duration timers (``time.monotonic``,
#: ``time.perf_counter``) are not *this* rule's concern — they cannot
#: express a time of day, so they never feed simulation state — but they
#: are no longer a free-for-all either: REP110 below confines them to
#: :mod:`repro.obs`, where the blessed timing helpers live.
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@register
class WallClockRule(_ImportAwareRule):
    id = "REP101"
    title = "no wall-clock reads in simulator-driven code"
    severity = Severity.ERROR
    packages = SIMULATION_PACKAGES

    def visit_Call(self, node: ast.Call) -> None:
        target = self.resolve(node.func)
        if target in _WALL_CLOCK:
            self.report(
                node,
                f"{target}() reads the wall clock; simulator-driven code "
                "must take the current time from the simulation clock "
                "(sim.now / at_time parameters)",
            )
        self.generic_visit(node)


#: Functions on the shared module-level random state.
_GLOBAL_RANDOM = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gammavariate",
        "gauss", "getrandbits", "lognormvariate", "normalvariate",
        "paretovariate", "randbytes", "randint", "random", "randrange",
        "sample", "seed", "shuffle", "triangular", "uniform",
        "vonmisesvariate", "weibullvariate",
    }
)


@register
class GlobalRandomRule(_ImportAwareRule):
    id = "REP102"
    title = "no module-level random.* calls; inject a seeded random.Random"
    severity = Severity.ERROR
    # The issue scope is the simulator-driven packages, but module-level
    # random state is never acceptable in library code: one call anywhere
    # perturbs every other consumer's stream.  Lint the whole package.
    packages = ("repro",)

    def visit_Call(self, node: ast.Call) -> None:
        target = self.resolve(node.func)
        if target is not None and "." in target:
            mod, _, name = target.rpartition(".")
            if mod == "random" and name in _GLOBAL_RANDOM:
                self.report(
                    node,
                    f"random.{name}() draws from hidden global state; "
                    "thread an injected, seeded random.Random through "
                    "the caller instead",
                )
        self.generic_visit(node)


_GENERIC_EXCEPTIONS = frozenset({"Exception", "ValueError", "RuntimeError"})


@register
class BareExceptionRule(Rule):
    id = "REP103"
    title = "raise repro.errors subclasses, not bare builtin exceptions"
    severity = Severity.ERROR
    packages = ("repro",)

    def visit_Raise(self, node: ast.Raise) -> None:
        exc = node.exc
        name: str | None = None
        if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
            name = exc.func.id
        elif isinstance(exc, ast.Name):
            name = exc.id
        if name in _GENERIC_EXCEPTIONS:
            self.report(
                node,
                f"raise {name} escapes the 'except ReproError' guards; "
                "raise the most specific repro.errors subclass instead "
                "(add one if none fits)",
            )
        self.generic_visit(node)


#: Identifier substrings that indicate key material.
_SECRET_MARKERS = ("private", "secret", "passphrase", "password", "signing_key")

_LOG_METHODS = frozenset(
    {"debug", "info", "warning", "error", "exception", "critical", "log"}
)


def _is_secret_name(ident: str) -> bool:
    lowered = ident.lower()
    return any(marker in lowered for marker in _SECRET_MARKERS)


def _secret_identifiers(node: ast.expr) -> list[str]:
    """Identifiers in *node* whose **rendered value** looks like key
    material.  For an attribute chain only the leaf attribute is the
    rendered value (``private.scheme`` prints a scheme name,
    ``key.private_key`` prints the key), so intermediate names along a
    chain do not count."""
    hits: list[str] = []

    def visit(sub: ast.expr) -> None:
        if isinstance(sub, ast.Attribute):
            if _is_secret_name(sub.attr):
                hits.append(sub.attr)
            base = sub.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if not isinstance(base, ast.Name):
                visit(base)
            return
        if isinstance(sub, ast.Name):
            if _is_secret_name(sub.id):
                hits.append(sub.id)
            return
        for child in ast.iter_child_nodes(sub):
            if isinstance(child, ast.expr):
                visit(child)

    visit(node)
    return hits


@register
class SecretExposureRule(Rule):
    id = "REP104"
    title = "no key material in f-strings or log calls"
    severity = Severity.ERROR
    packages = ("repro",)

    def visit_JoinedStr(self, node: ast.JoinedStr) -> None:
        for value in node.values:
            if isinstance(value, ast.FormattedValue):
                for ident in _secret_identifiers(value.value):
                    self.report(
                        value,
                        f"f-string interpolates {ident!r}, which looks like "
                        "key material; never format secrets into strings",
                    )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _LOG_METHODS:
            for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                if isinstance(arg, ast.JoinedStr):
                    continue  # handled by visit_JoinedStr
                for ident in _secret_identifiers(arg):
                    self.report(
                        node,
                        f"log call passes {ident!r}, which looks like key "
                        "material; log key ids or fingerprints instead",
                    )
        self.generic_visit(node)


@register
class MutableDefaultRule(Rule):
    id = "REP105"
    title = "no mutable default arguments"
    severity = Severity.ERROR
    packages = ("repro",)

    def _check(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        defaults = [
            *node.args.defaults,
            *(d for d in node.args.kw_defaults if d is not None),
        ]
        for default in defaults:
            bad = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in {"list", "dict", "set", "bytearray"}
            )
            if bad:
                self.report(
                    default,
                    f"mutable default argument in {node.name}() is shared "
                    "across calls; default to None (or a frozen type) and "
                    "construct inside the body",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check(node)
        self.generic_visit(node)


_OBS_ACCESSORS = frozenset(
    {"get_registry", "get_tracer", "get_event_log", "get_ledger"}
)


@register
class ObsGuardRule(Rule):
    id = "REP106"
    title = "obs handles: fetch once, None-check, then use"
    severity = Severity.ERROR
    packages = ("repro",)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        value = node.value
        if isinstance(value, ast.Call):
            func = value.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name in _OBS_ACCESSORS:
                self.report(
                    node,
                    f"chained use of {name}() bypasses the one-None-check "
                    "guard; assign the handle to a local, test it against "
                    "None once, then use it",
                )
        self.generic_visit(node)


@register
class SaltedHashSeedRule(_ImportAwareRule):
    id = "REP108"
    title = "no builtin hash() in RNG seeds (salted per process)"
    severity = Severity.ERROR
    packages = ("repro",)

    def visit_Call(self, node: ast.Call) -> None:
        target = self.resolve(node.func)
        is_seed_sink = target == "random.Random" or (
            target is not None and target.rpartition(".")[2] == "seed"
        )
        if is_seed_sink:
            for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                for sub in ast.walk(arg):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Name)
                        and sub.func.id == "hash"
                    ):
                        self.report(
                            sub,
                            "seeding an RNG with builtin hash(): str/bytes "
                            "hashes are salted per process (PYTHONHASHSEED), "
                            "so the seed differs across runs; use "
                            "zlib.crc32/hashlib over the encoded text",
                        )
        self.generic_visit(node)


#: Packages under the ``mypy --strict`` gate (mirrored in pyproject.toml).
STRICT_PACKAGES = ("repro.core", "repro.crypto", "repro.policy")


@register
class StrictAnnotationsRule(Rule):
    id = "REP107"
    title = "strict packages: every def fully annotated"
    severity = Severity.ERROR
    packages = STRICT_PACKAGES

    def _check(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        args = node.args
        ordered = [*args.posonlyargs, *args.args]
        missing: list[str] = []
        for index, arg in enumerate(ordered):
            if index == 0 and arg.arg in {"self", "cls"}:
                continue
            if arg.annotation is None:
                missing.append(arg.arg)
        missing.extend(
            a.arg for a in args.kwonlyargs if a.annotation is None
        )
        if args.vararg is not None and args.vararg.annotation is None:
            missing.append(f"*{args.vararg.arg}")
        if args.kwarg is not None and args.kwarg.annotation is None:
            missing.append(f"**{args.kwarg.arg}")
        if node.returns is None:
            missing.append("return")
        if missing:
            self.report(
                node,
                f"{node.name}() is missing annotations for "
                f"{', '.join(missing)}; this package is under the "
                "mypy --strict gate",
            )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check(node)
        self.generic_visit(node)


#: Method names whose failure typically means "the peer/service did not
#: answer" — the calls retry machinery wraps.
RETRYABLE_CALLS = frozenset(
    {"transmit", "admit", "reserve", "lookup", "decide",
     "verify_credentials"}
)

#: Identifier substrings that signal the loop is actually bounded (an
#: attempt counter, a backoff computation, a deadline budget).
_BOUND_MARKERS = (
    "attempt", "retry", "retries", "tries", "backoff", "max",
    "deadline", "remaining", "budget",
)


@register
class UnboundedRetryRule(Rule):
    id = "REP109"
    title = "retry loops around channel/broker calls must be bounded"
    severity = Severity.ERROR
    packages = ("repro",)

    @staticmethod
    def _is_constant_true(test: ast.expr) -> bool:
        return isinstance(test, ast.Constant) and bool(test.value)

    @staticmethod
    def _retryable_calls(node: ast.While) -> list[str]:
        names = []
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in RETRYABLE_CALLS
            ):
                names.append(sub.func.attr)
        return names

    @staticmethod
    def _has_bound_marker(node: ast.While) -> bool:
        for sub in ast.walk(node):
            idents: list[str] = []
            if isinstance(sub, ast.Name):
                idents.append(sub.id)
            elif isinstance(sub, ast.Attribute):
                idents.append(sub.attr)
            elif isinstance(sub, ast.arg):
                idents.append(sub.arg)
            for ident in idents:
                lowered = ident.lower()
                if any(marker in lowered for marker in _BOUND_MARKERS):
                    return True
        return False

    def visit_While(self, node: ast.While) -> None:
        if self._is_constant_true(node.test):
            calls = self._retryable_calls(node)
            if calls and not self._has_bound_marker(node):
                self.report(
                    node,
                    f"unbounded retry: 'while True' around "
                    f"{', '.join(sorted(set(calls)))}() with no attempt "
                    "counter, backoff, or deadline; bound it with the "
                    "attempt budget repro.core.recovery.MAX_ATTEMPTS (or "
                    "an explicit attempt limit)",
                )
        self.generic_visit(node)


#: Raw monotonic clock reads: legitimate inside repro.obs (the helpers
#: are built on them), a smell everywhere else.
_RAW_TIMERS = frozenset(
    {
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
    }
)


@register
class RawTimerRule(_ImportAwareRule):
    id = "REP110"
    title = "no raw monotonic timers outside repro.obs; use the helpers"
    severity = Severity.ERROR
    packages = ("repro",)

    #: The observability layer implements the span clock (``Tracer`` and
    #: the ``repro.obs.spans`` calls), so the raw clocks are its building
    #: material — exempt.
    EXEMPT_PACKAGES = ("repro.obs",)

    @classmethod
    def applies_to(cls, module: str) -> bool:
        if any(
            module == pkg or module.startswith(pkg + ".")
            for pkg in cls.EXEMPT_PACKAGES
        ):
            return False
        return super().applies_to(module)

    def visit_Call(self, node: ast.Call) -> None:
        target = self.resolve(node.func)
        if target in _RAW_TIMERS:
            self.report(
                node,
                f"{target}() hand-rolls a timer that bypasses the "
                "span clock; mark phases with repro.obs.spans.phase() "
                "(spans with open_span()/close_span()), and measure cost "
                "in bench/",
            )
        self.generic_visit(node)


#: Calls that mint an admission/denial decision.
_DECISION_CONSTRUCTORS = frozenset({"AdmitOutcome", "make_denial"})

#: Call names that prove the function talks to the provenance recorder:
#: the one decision writer (``repro.obs.decisions.record`` — by basename,
#: so a ledger handle's ``.record`` counts too) and its
#: ``record_revocation``, the broker's ``_audit`` that calls it, or the
#: :mod:`repro.obs.audit` ledger helpers.
_PROVENANCE_RECORDERS = frozenset(
    {
        "_audit",
        "record_decision",
        "record_revocation",
        "record",
        "note_check",
        "note_retry",
        "note_recovery",
        "get_ledger",
    }
)


def _call_basename(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


@register
class ProvenanceBypassRule(Rule):
    id = "REP111"
    title = "admissions/denials must reach the decision-provenance ledger"
    severity = Severity.ERROR
    packages = ("repro.bb", "repro.core.hopbyhop")

    def _check_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        decisions: list[ast.Call] = []
        has_recorder = False
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            name = _call_basename(sub)
            if name in _DECISION_CONSTRUCTORS:
                decisions.append(sub)
            elif name in _PROVENANCE_RECORDERS:
                has_recorder = True
        if has_recorder:
            return
        for call in decisions:
            name = _call_basename(call)
            self.report(
                call,
                f"{name}() mints an admission/denial in a function that "
                "never talks to the decision-provenance recorder; state "
                "it once with repro.obs.decisions.record or the decision "
                "is invisible to repro audit --reconcile",
            )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)


#: Evidence that a denial carries a reason code: the broker/audit
#: keyword, the enum itself, or the exception-to-code mapper.
_REASON_CODE_MARKERS = frozenset({"ReasonCode", "reason_code_for"})


def _is_denial_call(node: ast.Call) -> bool:
    """A call that mints a denial: ``make_denial(...)``, an
    ``AdmitOutcome``/``IngressReport`` whose granted/accepted flag is
    literally false, or one passing ``granted=False``/``accepted=False``."""
    name = _call_basename(node)
    if name == "make_denial":
        return True
    if name not in {"AdmitOutcome", "IngressReport"}:
        return False
    if node.args:
        first = node.args[0]
        if isinstance(first, ast.Constant) and first.value is False:
            return True
    for keyword in node.keywords:
        if (
            keyword.arg in {"granted", "accepted"}
            and isinstance(keyword.value, ast.Constant)
            and keyword.value.value is False
        ):
            return True
    return False


@register
class UncodedDenialRule(Rule):
    id = "REP112"
    title = "denial sites must attach a ReasonCode"
    severity = Severity.ERROR
    packages = ("repro.bb", "repro.core.hopbyhop")

    def _check_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        denials: list[ast.Call] = []
        has_reason_code = False
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                if _is_denial_call(sub):
                    denials.append(sub)
                if any(kw.arg == "reason_code" for kw in sub.keywords):
                    has_reason_code = True
                name = _call_basename(sub)
                if name in _REASON_CODE_MARKERS:
                    has_reason_code = True
            elif isinstance(sub, ast.Attribute):
                if isinstance(sub.value, ast.Name) and (
                    sub.value.id == "ReasonCode"
                ):
                    has_reason_code = True
            elif isinstance(sub, ast.Name):
                if sub.id in _REASON_CODE_MARKERS:
                    has_reason_code = True
        if has_reason_code:
            return
        for call in denials:
            name = _call_basename(call)
            self.report(
                call,
                f"{name}() mints a denial in a function that never "
                "attaches a ReasonCode; pass reason_code= (or derive one "
                "with repro.obs.events.reason_code_for) so the denial can "
                "be bucketed by SLOs, audit, and operators",
            )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)


@register
class TelemetryClockRule(_ImportAwareRule):
    id = "REP113"
    title = "no clock reads in telemetry/alert code"
    severity = Severity.ERROR
    #: The replay-identity guarantee: health badges and alert
    #: transitions are pure functions of (recorded frames, supplied
    #: ``now``).  One clock read anywhere in this package and a replayed
    #: recording could diverge from the live incident it captured.
    packages = ("repro.obs.telemetry",)

    def visit_Call(self, node: ast.Call) -> None:
        target = self.resolve(node.func)
        if target in _WALL_CLOCK or target in _RAW_TIMERS:
            self.report(
                node,
                f"{target}() reads a clock inside repro.obs.telemetry; "
                "telemetry is replayable only if every verdict is a pure "
                "function of the recorded frames and the caller-supplied "
                "now — take time from sample timestamps instead",
            )
        self.generic_visit(node)

