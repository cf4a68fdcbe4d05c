"""Command-line interface: drive the testbed without writing Python.

Subcommands:

* ``reserve`` — build a linear testbed and make one end-to-end
  reservation with any of the three signalling approaches;
* ``policy-check`` — parse a policy file in the paper's syntax and
  evaluate it against request parameters given as flags (a policy
  linter/debugger for domain administrators);
* ``attack`` — adversarial scenarios: with no flags, the Figure 4
  misreservation replay on the DiffServ simulator; with ``--persona``,
  a seeded survivability run mixing honest load with one attack persona
  (flood, byzantine-broker, tunnel-squatter) and
  reporting what honest traffic retains with defenses off vs on;
  ``--gate`` exits nonzero on honest-SLO violations, audit
  reconciliation failures or a defenses-on run with no honest request;
* ``workload`` — an offered-load sweep: Poisson reservation arrivals
  against admission on a three-domain chain, with the Erlang-B
  prediction beside the measured acceptance;
* ``metrics`` — run reservations with the observability substrate
  enabled and dump the metrics registry (Prometheus text or JSON);
  ``--diff A.json B.json`` instead diffs two saved JSON snapshots;
* ``trace`` — run one reservation with span tracing enabled, print the
  span tree, and cross-check it against the envelope-derived path;
  ``--critical-path`` prints the latency attribution table instead;
* ``slo`` — run reservations under observability and evaluate the
  declarative SLOs (latency quantiles, denial rate, breaker opens),
  printing per-objective burn rates;
* ``lint`` — run the repo's custom AST lint rules (REP101..REP113) over
  the ``repro`` package (or given paths); ``--select``/``--ignore``
  filter rules.  Exit codes: 0 clean, 1 findings, 2 analyzer crash/usage;
* ``lint-policy`` — statically verify policy files in the paper's
  syntax: unreachable branches, contradictory conditions, non-exhaustive
  chains, always-DENY subtrees;
* ``chaos`` — run the seeded single-fault chaos matrix against fresh
  testbeds and report invariant violations (capacity leaks, stuck
  reservations, unreleased channels), reconcile the campaign's decision
  ledger and judge the default SLOs; exits nonzero on any violation or
  violated objective;
  ``--record`` samples campaign telemetry per trial into an append-only
  ``.tsrec`` and steps the chaos alert profile over it
  (``--fail-on-critical`` gates on zero CRITICAL firings);
* ``top`` — the fleet health dashboard: per-broker health badges,
  utilization sparklines, admission/denial rates, backlog, and the
  alert table; live over a fresh workload, or ``--replay FILE.tsrec``
  over a saved recording (``--follow`` re-renders frame by frame as
  the incident unfolded; ``--fail-on-critical`` / ``--expect-firing``
  are CI gates over the replayed alert stream);
* ``timeline`` — one merged, time-ordered view of obs events, alert
  transitions, audit decision records, and spans, filtered to a
  correlation id or a ``START:END`` window; reads a recording via
  ``--replay`` and/or a saved ledger via ``--ledger``;
* ``audit`` — the decision-provenance ledger: ``query`` its records or
  ``explain`` one reservation's per-hop chain (without ``--ledger``,
  over one fresh reservation), or ``--reconcile --ledger`` a saved
  ledger against the audit invariants.  The seeded campaign that writes
  one is ``chaos --save-ledger``.

``reserve``, ``metrics``, ``trace``, ``slo``, ``top``, ``timeline`` and
``audit explain`` without a saved file share one demo run: a linear
testbed over ``--domains`` and ``--runs`` reservations from the first
domain to the last.

``-v`` / ``-vv`` (before the subcommand) raises logging to INFO / DEBUG.

Examples::

    python -m repro reserve --domains A,B,C --source A --dest C --rate 10
    python -m repro policy-check policy.txt --user Alice --bw 8 --time 14
    python -m repro attack
    python -m repro attack --persona flood --seed 2001 --gate
    python -m repro workload --load 0.5 --horizon 2000
    python -m repro metrics --domains A,B,C --runs 5 --format prom
    python -m repro metrics --diff before.json after.json
    python -m repro -v trace --domains A,B,C,D
    python -m repro trace --domains A,B,C,D --critical-path
    python -m repro slo --runs 20 --spec objectives.json
    python -m repro lint --format json
    python -m repro lint-policy examples/policies/*.policy
    python -m repro chaos --seed 7 --trials 200
    python -m repro chaos --seed 7 --trials 50 --record chaos.tsrec
    python -m repro attack --persona flood --defenses off --record f.tsrec
    python -m repro top --replay f.tsrec --expect-firing
    python -m repro timeline 40:80 --replay f.tsrec
    python -m repro chaos --seed 7 --trials 200 --save-ledger l.json
    python -m repro audit --reconcile --ledger l.json
    python -m repro audit explain --domains A,B,C,D
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Any, Callable, Iterator

from repro.bb.reservations import ReservationRequest
from repro.core.hopbyhop import SignallingOutcome
from repro.core.testbed import build_linear_testbed
from repro.errors import PolicySyntaxError, ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multi-domain QoS reservations (HPDC 2001 reproduction)",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log more (-v: INFO, -vv: DEBUG); logs go to stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    reserve = sub.add_parser("reserve", help="make an end-to-end reservation")
    reserve.add_argument("--domains", default="A,B,C",
                         help="comma-separated chain of domains")
    reserve.add_argument("--source", default=None,
                         help="source domain (default: first)")
    reserve.add_argument("--dest", default=None,
                         help="destination domain (default: last)")
    reserve.add_argument("--rate", type=float, default=10.0,
                         help="bandwidth in Mb/s")
    reserve.add_argument("--duration", type=float, default=3600.0,
                         help="seconds")
    reserve.add_argument("--user", default="Alice")
    reserve.add_argument(
        "--approach", choices=("hop", "agent", "agent-concurrent", "stars"),
        default="hop", help="signalling approach",
    )

    check = sub.add_parser(
        "policy-check",
        help="evaluate a policy file (the paper's syntax) against a request",
    )
    check.add_argument("policy_file", help="path to the policy file, or '-'")
    check.add_argument("--user", default="Alice")
    check.add_argument("--bw", type=float, default=10.0, help="Mb/s")
    check.add_argument("--time", type=float, default=12.0,
                       help="time of day in hours (0-24)")
    check.add_argument("--group", action="append", default=[],
                       help="verified group membership (repeatable)")
    check.add_argument("--capability-issuer", action="append", default=[],
                       help="verified capability community (repeatable)")
    check.add_argument("--linked", action="append", default=[],
                       help="linked reservation as kind=handle (repeatable)")

    attack = sub.add_parser(
        "attack",
        help="adversarial scenarios: the Figure 4 misreservation replay "
             "(no flags) or a survivability run against one attack "
             "persona (--persona)",
    )
    attack.add_argument(
        "--persona", default=None,
        choices=("flood", "byzantine-broker", "tunnel-squatter"),
        help="attack persona for a mixed honest+attack survivability "
             "run; omit for the legacy Figure 4 scenario")
    attack.add_argument("--seed", type=int, default=2001)
    attack.add_argument("--horizon", type=float, default=120.0,
                        help="simulated seconds of mixed load")
    attack.add_argument(
        "--defenses", choices=("off", "on", "both"), default="both",
        help="run with admission-plane defenses off, on, or both "
             "(the off/on pair is the survivability experiment)")
    attack.add_argument(
        "--slo-spec", default=None, metavar="FILE",
        help="JSON SLO spec evaluated over honest traffic "
             "(default: the harness honest SLOs)")
    attack.add_argument("--json", action="store_true",
                        help="emit the report(s) as JSON")
    attack.add_argument(
        "--gate", action="store_true",
        help="exit non-zero unless a defenses-on run offered honest "
             "traffic and it met its SLOs, and every run's audit ledger "
             "reconciles")
    attack.add_argument(
        "--record", default=None, metavar="FILE.tsrec",
        help="flight-record the survivability run (telemetry frames, "
             "events, alert transitions) and report time-to-detect: "
             "attack onset vs the first CRITICAL alert; with "
             "--defenses both the defenses state is suffixed into the "
             "file name")

    workload = sub.add_parser(
        "workload",
        help="offered-load sweep: Poisson reservation arrivals vs admission",
    )
    workload.add_argument("--load", type=float, default=1.0,
                          help="offered load as a multiple of the 100 Mb/s "
                               "bottleneck")
    workload.add_argument("--horizon", type=float, default=6000.0,
                          help="simulated seconds of arrivals")
    workload.add_argument("--seed", type=int, default=11)

    metrics = sub.add_parser(
        "metrics",
        help="run reservations with observability on and dump the registry",
    )
    metrics.add_argument("--domains", default="A,B,C")
    metrics.add_argument("--rate", type=float, default=10.0)
    metrics.add_argument("--duration", type=float, default=3600.0)
    metrics.add_argument("--user", default="Alice")
    metrics.add_argument("--runs", type=int, default=3,
                         help="how many reservations to signal")
    metrics.add_argument("--format", choices=("prom", "json"),
                         default="prom", help="exposition format")
    metrics.add_argument("--diff", nargs=2, metavar=("A.json", "B.json"),
                         default=None,
                         help="diff two saved JSON snapshots and exit "
                              "(runs no reservations; exit 1 when they "
                              "differ)")

    trace = sub.add_parser(
        "trace",
        help="trace one reservation and print its span tree",
    )
    trace.add_argument("--domains", default="A,B,C")
    trace.add_argument("--critical-path", action="store_true",
                       help="attribute end-to-end wall time to named "
                            "hop/phase segments instead of printing the "
                            "span tree")

    slo = sub.add_parser(
        "slo",
        help="run reservations under observability and evaluate the "
             "declarative SLOs; exit 1 when an objective is violated",
    )
    slo.add_argument("--spec", default=None,
                     help="JSON SLO spec file (default: the built-in "
                          "objectives)")
    slo.add_argument("--domains", default="A,B,C")
    slo.add_argument("--rate", type=float, default=10.0)
    slo.add_argument("--duration", type=float, default=3600.0)
    slo.add_argument("--user", default="Alice")
    slo.add_argument("--runs", type=int, default=5,
                     help="how many reservations to signal")
    slo.add_argument("--record", default=None, metavar="FILE.tsrec",
                     help="evaluate the objectives over a saved telemetry "
                          "recording instead of signalling fresh "
                          "reservations (latency quantiles from recorded "
                          "histogram gauges, rates from recorded events "
                          "or counters)")

    lint = sub.add_parser(
        "lint",
        help="run the repo's AST lint rules; nonzero exit on findings",
        description="Run the repo's AST lint rules. Exit codes: "
                    "0 = clean, 1 = findings, 2 = analyzer crash or "
                    "bad usage (unknown rule).",
    )
    lint.add_argument("paths", nargs="*",
                      help="files/directories to lint (default: the "
                           "installed repro package)")
    lint.add_argument("--format", choices=("human", "json"), default="human",
                      help="output format")
    lint.add_argument("--rule", "--select", action="append", default=[],
                      dest="select", metavar="RULE",
                      help="only run this rule id (repeatable)")
    lint.add_argument("--ignore", action="append", default=[],
                      metavar="RULE",
                      help="skip this rule id (repeatable; applied "
                           "after --select)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalog and exit")

    lint_policy = sub.add_parser(
        "lint-policy",
        help="statically verify policy files (unreachable/contradictory/"
             "non-exhaustive/always-DENY)",
    )
    lint_policy.add_argument("policy_files", nargs="+",
                             help="policy files in the paper's syntax")
    lint_policy.add_argument("--format", choices=("human", "json"),
                             default="human", help="output format")

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection matrix; nonzero exit on invariant, "
             "audit or SLO violations",
    )
    chaos.add_argument("--seed", type=int, default=7,
                       help="schedule seed (same seed = same faults)")
    chaos.add_argument("--trials", type=int, default=200,
                       help="number of single-fault trials")
    chaos.add_argument("--show-trials", action="store_true",
                       help="print one line per trial")
    chaos.add_argument("--save-ledger", default=None, metavar="PATH",
                       help="write the campaign's decision ledger JSON "
                            "here (for repro audit --ledger)")
    chaos.add_argument("--record", default=None, metavar="FILE.tsrec",
                       help="flight-record campaign telemetry (one frame "
                            "per trial) and step the chaos alert profile "
                            "over it")
    chaos.add_argument("--fail-on-critical", action="store_true",
                       help="with --record: exit non-zero if any CRITICAL "
                            "alert fired during the campaign (the honest-"
                            "run telemetry gate)")

    top = sub.add_parser(
        "top",
        help="fleet health dashboard (live run or --replay over a "
             "saved .tsrec recording)",
    )
    top.add_argument("--replay", default=None, metavar="FILE.tsrec",
                     help="render a saved recording instead of running a "
                          "fresh workload")
    top.add_argument("--at", type=float, default=None,
                     help="with --replay: render the dashboard at this "
                          "recorded instant (default: the final frame)")
    top.add_argument("--follow", action="store_true",
                     help="re-render the dashboard as samples arrive (the "
                          "incident as it unfolded) instead of only the "
                          "final frame")
    top.add_argument("--interval", type=float, default=10.0,
                     help="with --follow: recorded seconds between "
                          "rendered frames (default: 10)")
    top.add_argument("--domains", default="A,B,C",
                     help="live mode: comma-separated chain of domains")
    top.add_argument("--rate", type=float, default=10.0,
                     help="live mode: bandwidth per reservation, Mb/s")
    top.add_argument("--runs", type=int, default=20,
                     help="live mode: reservations to signal (one "
                          "telemetry frame each)")
    top.add_argument("--user", default="Alice",
                     help="live mode: requesting user")
    top.add_argument("--fail-on-critical", action="store_true",
                     help="exit non-zero if any CRITICAL alert fired "
                          "(telemetry gate for honest recordings)")
    top.add_argument("--expect-firing", action="store_true",
                     help="exit non-zero unless at least one alert fired "
                          "(telemetry gate for attack recordings)")

    timeline = sub.add_parser(
        "timeline",
        help="merged alerts+events+audit+spans timeline for a "
             "correlation id or a START:END window",
    )
    timeline.add_argument(
        "target", nargs="?", default=None,
        help="correlation id, or a START:END window in recorded "
             "seconds (omit for everything)")
    timeline.add_argument("--replay", default=None, metavar="FILE.tsrec",
                          help="read events and alert transitions from "
                               "this recording")
    timeline.add_argument("--ledger", default=None, metavar="PATH",
                          help="also merge decision records from this "
                               "ledger JSON (chaos --save-ledger / "
                               "audit --save)")
    timeline.add_argument("--domains", default="A,B,C",
                          help="live mode (no --replay): domains for the "
                               "demo reservation")

    audit = sub.add_parser(
        "audit",
        help="decision-provenance ledger: query records, explain one "
             "reservation's per-hop chain, or reconcile",
    )
    audit.add_argument("mode", nargs="?", choices=("query", "explain"),
                       help="query records or explain one reservation "
                            "(omit when using --reconcile)")
    audit.add_argument("target", nargs="?",
                       help="explain: reservation handle or correlation id "
                            "(default: the demo reservation just signalled)")
    audit.add_argument("--ledger", default=None, metavar="PATH",
                       help="ledger JSON to read (from chaos --save-ledger "
                            "or audit --save); explain without it signals "
                            "one fresh reservation over --domains")
    audit.add_argument("--reconcile", action="store_true",
                       help="check the audit invariants of the --ledger "
                            "file; exit 1 on violations")
    audit.add_argument("--domains", default="A,B,C,D",
                       help="explain without --ledger: comma-separated "
                            "chain of domains")
    audit.add_argument("--save", default=None, metavar="PATH",
                       help="write the resulting ledger JSON here")
    audit.add_argument("--json", action="store_true", dest="as_json",
                       help="machine-readable output")
    audit.add_argument("--kind", default=None,
                       help="query: filter by record kind (admit, deny, "
                            "claim, cancel, expire, unwind_failed, "
                            "fallback, revoke, outcome)")
    audit.add_argument("--domain", default=None,
                       help="query: filter by domain")
    audit.add_argument("--correlation", default=None,
                       help="query: filter by correlation id")
    audit.add_argument("--user", default=None,
                       help="query: filter by user DN")

    return parser


class _Demo:
    """The live run of the demo subcommands: a linear testbed over
    ``--domains`` with ``--user`` in the ``--source`` domain.  Iterating
    it signals ``--runs`` hop-by-hop reservations of ``--rate`` Mb/s for
    ``--duration`` s to ``--dest`` and yields each outcome as it lands.
    A flag the subcommand does not have takes its default; a bad value
    raises :class:`~repro.errors.ReproError` (exit 2)."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.domains = [d.strip() for d in args.domains.split(",")
                        if d.strip()]
        if not self.domains:
            raise ReproError("need at least one domain")
        self.runs = getattr(args, "runs", 1)
        if self.runs < 1:
            raise ReproError("--runs must be >= 1")
        self.source = getattr(args, "source", None) or self.domains[0]
        self.dest = getattr(args, "dest", None) or self.domains[-1]
        self.rate = getattr(args, "rate", 10.0)
        self.duration = getattr(args, "duration", 3600.0)
        self.testbed = build_linear_testbed(self.domains)
        self.user = self.testbed.add_user(
            self.source, getattr(args, "user", "Alice")
        )

    def __iter__(self) -> Iterator[SignallingOutcome]:
        for _ in range(self.runs):
            yield self.testbed.hop_by_hop.reserve(self.user, self.request())

    def request(self) -> ReservationRequest:
        return self.testbed.make_request(
            source=self.source, destination=self.dest,
            bandwidth_mbps=self.rate, duration=self.duration,
        )


def _load(path: str, load: Callable[[str], Any]) -> Any:
    """``load(path)`` — a saved ledger or ``.tsrec`` recording — or
    ``None``, the error already printed, when the file cannot be read
    or parsed."""
    try:
        return load(path)
    except (OSError, ReproError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None


def cmd_reserve(args: argparse.Namespace) -> int:
    demo = _Demo(args)
    testbed, user = demo.testbed, demo.user
    if args.approach == "hop":
        (outcome,) = demo
        granted, detail = outcome.granted, outcome
    elif args.approach in ("agent", "agent-concurrent"):
        for d in demo.domains:
            if d != demo.source:
                testbed.introduce_user_to(user, d)
        outcome = testbed.end_to_end_agent.reserve(
            user, demo.request(),
            concurrent=args.approach.endswith("concurrent"),
        )
        granted, detail = outcome.complete, outcome
    else:  # stars
        rc = testbed.coordinator(demo.source)
        rc.enroll_user(user)
        outcome = rc.reserve(user, demo.request())
        granted, detail = outcome.complete, outcome

    print(f"approach : {args.approach}")
    print(f"path     : {' -> '.join(detail.path)}")
    print(f"granted  : {granted}")
    if getattr(detail, "handles", None):
        for domain in detail.path:
            handle = detail.handles.get(domain)
            if handle:
                print(f"  {domain}: {handle}")
    reason = getattr(detail, "denial_reason", "") or ""
    failures = getattr(detail, "failures", None)
    if not granted and reason:
        print(f"denied by {detail.denial_domain}: {reason}")
    if not granted and failures:
        for domain, why in failures.items():
            print(f"  {domain}: {why}")
    print(f"messages : {detail.messages}")
    print(f"latency  : {detail.latency_s * 1000:.1f} ms (model)")
    return 0 if granted else 1


def cmd_policy_check(args: argparse.Namespace) -> int:
    from repro.crypto.dn import DN
    from repro.policy.engine import RequestContext
    from repro.policy.language import compile_policy

    if args.policy_file == "-":
        source = sys.stdin.read()
    else:
        try:
            with open(args.policy_file, encoding="utf-8") as fh:
                source = fh.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        engine = compile_policy(source, name=args.policy_file)
    except PolicySyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2

    linked = []
    for item in args.linked:
        kind, _, handle = item.partition("=")
        if not handle:
            print(f"error: --linked expects kind=handle, got {item!r}",
                  file=sys.stderr)
            return 2
        linked.append((kind, handle))
    ctx = RequestContext(
        user=DN.make("Grid", "cli", args.user),
        bandwidth_mbps=args.bw,
        time_of_day_h=args.time,
        reservation_type="Network",
        groups=frozenset(args.group),
        capability_issuers=frozenset(args.capability_issuer),
        linked_reservations=tuple(linked),
    )
    decision = engine.evaluate(ctx)
    print(f"decision : {'GRANT' if decision.granted else 'DENY'}")
    print(f"reason   : {decision.reason}")
    return 0 if decision.granted else 1


def _recorded(path: str | None, run: Callable[[Any], Any]):
    """``run(recorder)`` with a flight recorder streaming to the
    ``.tsrec`` file *path* (``None`` without a path), the file closed
    after; returns ``(result, recorder)``, or ``None`` — error already
    printed — when the file cannot be opened."""
    if path is None:
        return run(None), None
    from repro.obs.telemetry import FlightRecorder, RecordingWriter

    try:
        recorder = FlightRecorder(writer=RecordingWriter.open(path))
    except OSError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None
    try:
        return run(recorder), recorder
    finally:
        recorder.writer.close()


def _gate(
    part, *, when: Callable[[float], str] = lambda t: f"t={t:.1f}s",
    slos: bool = True, fail_on_critical: bool = False,
    expect_firing: bool = False, label: str = "",
) -> int:
    """The one CI gate of ``chaos``, ``attack --gate`` and ``top`` over a
    campaign's report part: print a ``GATE:`` line to stderr for each
    failed check and return how many failed.  A violated SLO (when
    *slos*) and an audit violation always fail; a CRITICAL firing fails
    with *fail_on_critical*, and no firing at all with *expect_firing*.
    *when* renders a transition's time on the command's axis; *label*
    names the run."""
    from repro.obs.telemetry import AlertSeverity

    failures = 0
    critical = part.firings(AlertSeverity.CRITICAL)
    if fail_on_critical and critical:
        for t in critical:
            print(f"GATE: CRITICAL {t.rule}[{t.group}] fired at "
                  f"{when(t.at_time)} (value {t.value:.3f})",
                  file=sys.stderr)
        failures += 1
    if expect_firing and not part.firings():
        print("GATE: expected at least one firing alert, saw none",
              file=sys.stderr)
        failures += 1
    if slos and part.slo_report is not None and not part.slo_report.ok:
        print(f"GATE: SLOs violated{label}: " + "; ".join(
            r.slo.name for r in part.slo_report.failing), file=sys.stderr)
        failures += 1
    audit = part.audit_violations
    if audit:
        print(f"GATE: audit reconciliation{label}: "
              f"{len(audit)} violation(s)", file=sys.stderr)
        for violation in audit:
            print(f"  VIOLATION {violation}", file=sys.stderr)
        failures += 1
    return failures


def _render_detection(report) -> str:
    """The time-to-detect line for a flight-recorded survivability run."""
    onset = (f"{report.attack_onset_s:.1f}s"
             if report.attack_onset_s is not None else "n/a")
    first = (f"{report.first_critical_alert_s:.1f}s"
             if report.first_critical_alert_s is not None
             else "never (no CRITICAL alert)")
    ttd = (f"{report.time_to_detect_s:.1f}s"
           if report.time_to_detect_s is not None else "inf")
    return (f"detection: onset {onset}, first CRITICAL {first}, "
            f"time-to-detect {ttd}, "
            f"{len(report.alert_transitions)} alert transition(s)")


def _render_survivability(report) -> str:
    state = "ON " if report.defenses_on else "OFF"
    lines = [
        f"defenses {state}: honest admission "
        f"{report.honest_admitted}/{report.honest_offered} "
        f"({report.honest_admission_rate * 100:.1f}%), "
        f"p99 latency {report.honest_p99_latency_s:.2f}s, "
        f"{report.breaker_opens} breaker open(s), "
        f"peak victim backlog {report.max_backlog_s:.1f}s",
        f"  attacker: " + ", ".join(
            f"{k}={v}" for k, v in report.attacker.items() if v
        ),
    ]
    if report.defense_rejections:
        lines.append("  defense rejections: " + ", ".join(
            f"{k}={v}" for k, v in sorted(report.defense_rejections.items())
        ))
    if report.slo_report is not None:
        lines.append(
            "  honest SLOs: "
            + ("OK" if report.slo_report.ok else "VIOLATED — " + "; ".join(
                r.slo.name for r in report.slo_report.failing))
        )
    return "\n".join(lines)


def cmd_attack_survivability(args: argparse.Namespace) -> int:
    import json as json_mod

    from repro.errors import SimulationError
    from repro.obs.slo import parse_slo_spec
    from repro.workloads.survivability import (
        SurvivabilitySpec, run_survivability,
    )

    slos = None
    if args.slo_spec is not None:
        try:
            with open(args.slo_spec, encoding="utf-8") as fh:
                slos = tuple(parse_slo_spec(fh.read()))
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        spec = SurvivabilitySpec(
            persona=args.persona, seed=args.seed, horizon_s=args.horizon,
        )
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    modes = {"off": (False,), "on": (True,), "both": (False, True)}
    states = modes[args.defenses]
    record_paths: dict[bool, str] = {}
    if args.record:
        import os.path

        for on in states:
            if len(states) == 1:
                record_paths[on] = args.record
            else:
                root, ext = os.path.splitext(args.record)
                record_paths[on] = f"{root}.{'on' if on else 'off'}" \
                                   f"{ext or '.tsrec'}"
    reports = []
    for on in states:
        recorded = _recorded(
            record_paths.get(on),
            lambda recorder: run_survivability(
                spec, defenses_on=on, slos=slos, recorder=recorder
            ),
        )
        if recorded is None:
            return 2
        reports.append(recorded[0])
    if args.json:
        print(json_mod.dumps([r.to_dict() for r in reports], indent=2))
    else:
        print(f"persona {spec.persona!r}, seed {spec.seed}, "
              f"attack fraction {spec.fraction:.2f}, "
              f"horizon {spec.horizon_s:.0f}s")
        for report in reports:
            print(_render_survivability(report))
            if record_paths:
                print("  " + _render_detection(report))
    for path in record_paths.values():
        print(f"wrote {path}", file=sys.stderr)
    if not args.gate:
        return 0
    # Gate: with defenses on, honest traffic must have been offered and
    # must meet its SLOs; every run's decision ledger must reconcile
    # clean against itself and the run's broker tables and bookings.
    failures = 0
    for report in reports:
        label = f" (defenses {'on' if report.defenses_on else 'off'})"
        failures += _gate(report, slos=report.defenses_on, label=label)
        if report.defenses_on and not report.honest_offered:
            print(f"GATE: no honest request offered{label}",
                  file=sys.stderr)
            failures += 1
    if not any(r.defenses_on for r in reports):
        print("GATE: --gate needs a defenses-on run (--defenses on|both)",
              file=sys.stderr)
        failures += 1
    if failures == 0:
        print("GATE: ok")
    return 1 if failures else 0


def cmd_attack(args: argparse.Namespace) -> int:
    if getattr(args, "persona", None) is not None:
        return cmd_attack_survivability(args)
    from repro.net.flows import FlowSpec
    from repro.net.packet import DSCP
    from repro.net.trafficgen import PoissonSource

    testbed = build_linear_testbed(["A", "B", "C"])
    alice = testbed.add_user("A", "Alice")
    david = testbed.add_user("A", "David")
    for u, ds in ((alice, ("B", "C")), (david, ("B",))):
        for d in ds:
            testbed.introduce_user_to(u, d)
    agent = testbed.end_to_end_agent
    a = agent.reserve(alice, testbed.make_request(
        source="A", destination="C", bandwidth_mbps=10.0,
        attributes=(("flow_id", "alice"),)))
    d = agent.reserve(david, testbed.make_request(
        source="A", destination="C", bandwidth_mbps=10.0,
        source_host="h1.A", destination_host="h1.C",
        attributes=(("flow_id", "david"),)), skip_domains={"C"})
    agent.claim(a)
    agent.claim(d)
    print(f"Alice reserved in {sorted(a.handles)} (complete={a.complete})")
    print(f"David reserved in {sorted(d.handles)} (complete={d.complete})")
    for seed, (fid, src, dst) in enumerate(
        [("alice", "h0.A", "h0.C"), ("david", "h1.A", "h1.C")]
    ):
        PoissonSource(
            testbed.network,
            FlowSpec(fid, src, dst, 10.0, dscp=DSCP.EF),
            rng=random.Random(seed), stop_time=1.0,
        ).start()
    testbed.sim.run()
    for fid in ("alice", "david"):
        st = testbed.network.stats_for(fid)
        print(f"{fid:<6s} loss {st.loss_ratio * 100:5.1f}%  "
              f"goodput {st.goodput_mbps(1.0):5.2f} Mb/s")
    alice_stats = testbed.network.stats_for("alice")
    print("Figure 4 reproduced: the victim with a complete reservation "
          f"lost {alice_stats.loss_ratio * 100:.1f}% of her packets.")
    return 0


def cmd_workload(args: argparse.Namespace) -> int:
    from repro.workloads.analysis import predicted_acceptance
    from repro.workloads.generator import ReservationWorkload, WorkloadSpec

    bottleneck, mean_rate, mean_hold = 100.0, 10.0, 300.0
    arrival = args.load * bottleneck / (mean_rate * mean_hold)
    testbed = build_linear_testbed(
        ["A", "B", "C"], hosts_per_domain=1,
        inter_capacity_mbps=bottleneck,
    )
    spec = WorkloadSpec(
        arrival_rate_per_s=arrival,
        mean_duration_s=mean_hold,
        rate_choices_mbps=(5.0, 10.0, 15.0),
        pairs=(("A", "C"),),
        horizon_s=args.horizon,
    )
    result = ReservationWorkload(
        testbed, spec, rng=random.Random(args.seed)
    ).run()
    predicted = predicted_acceptance(
        arrival_rate_per_s=arrival, mean_duration_s=mean_hold,
        mean_rate_mbps=mean_rate, bottleneck_mbps=bottleneck,
    )
    print(f"offered load      : {args.load:.2f} x {bottleneck:.0f} Mb/s")
    print(f"requests offered  : {result.offered}")
    print(f"requests accepted : {result.accepted}")
    print(f"acceptance ratio  : {result.acceptance_ratio:.2f} "
          f"(Erlang-B predicts {predicted:.2f})")
    print(f"carried fraction  : {result.carried_fraction:.2f}")
    if result.rejected_by_domain:
        print(f"rejections        : {dict(result.rejected_by_domain)}")
    return 0


def _diff_metric_snapshots(path_a: str, path_b: str) -> int:
    import json

    from repro.obs.export import diff_snapshots

    snapshots = []
    for path in (path_a, path_b):
        try:
            with open(path, encoding="utf-8") as fh:
                snapshots.append(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
    lines = diff_snapshots(snapshots[0], snapshots[1])
    if not lines:
        print("no differences")
        return 0
    for line in lines:
        print(line)
    return 1


def cmd_metrics(args: argparse.Namespace) -> int:
    from repro import obs

    if args.diff is not None:
        return _diff_metric_snapshots(*args.diff)
    with obs.observed() as (registry, _tracer, _events):
        granted = sum(outcome.granted for outcome in _Demo(args))
    if args.format == "json":
        print(obs.export.json_text(registry))
    else:
        print(obs.export.prometheus_text(registry), end="")
    print(f"# {granted}/{args.runs} reservations granted",
          file=sys.stderr)
    return 0 if granted else 1


def cmd_trace(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.core.tracing import trace_request_path

    with obs.observed() as (_registry, tracer, _events):
        (outcome,) = _Demo(args)
    trace_id = outcome.correlation_id or tracer.latest_trace()
    if not trace_id:
        print("error: no spans were recorded", file=sys.stderr)
        return 2
    if args.critical_path:
        from repro.obs.perf import analyze_critical_path, render_critical_path

        print(render_critical_path(analyze_critical_path(tracer, trace_id)))
        return 0 if outcome.granted else 1
    print(tracer.render(trace_id))
    hops = tracer.hop_chain(trace_id)
    print(f"hop order : {' -> '.join(str(s.attributes['domain']) for s in hops)}")
    if outcome.final_rar is not None:
        # The RAR at the destination is signed by the user and every BB
        # before the destination; the span chain must name the same BBs
        # in the same order (the destination hop adds no wrapper).
        envelope = trace_request_path(outcome.final_rar)
        signers = [str(dn) for dn in envelope.signers]
        span_bbs = [str(s.attributes["bb"]) for s in hops]
        matches = envelope.consistent and span_bbs[: len(signers) - 1] == signers[1:]
        print(f"envelope  : {' -> '.join(signers)}")
        print(f"span tree matches envelope path: {matches}")
        if not matches:
            return 1
    return 0 if outcome.granted else 1


def cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import lint_paths, registered_rules, render_findings
    from repro.analysis.runner import describe_rules
    from repro.errors import AnalysisError

    if args.list_rules:
        print(describe_rules())
        return 0
    registry = registered_rules()
    unknown = [
        r for r in (*args.select, *args.ignore) if r not in registry
    ]
    if unknown:
        print(f"error: unknown rule(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    paths = [Path(p) for p in args.paths] or None
    selected = set(args.select) or set(registry)
    selected -= set(args.ignore)
    rules = [registry[r] for r in sorted(selected)]
    try:
        findings = lint_paths(paths, rules=rules)
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_findings(findings, output_format=args.format))
    return 1 if findings else 0


def cmd_lint_policy(args: argparse.Namespace) -> int:
    from repro.analysis.policycheck import (
        policy_findings_to_json,
        verify_policy_source,
    )

    all_findings = []
    status = 0
    for path in args.policy_files:
        try:
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            findings = verify_policy_source(source, name=path)
        except PolicySyntaxError as exc:
            print(f"{path}: syntax error: {exc}", file=sys.stderr)
            return 2
        all_findings.extend(findings)
        if findings:
            status = 1
    if args.format == "json":
        print(policy_findings_to_json(all_findings))
    else:
        for finding in all_findings:
            print(finding.format())
        checked = len(args.policy_files)
        print(f"repro lint-policy: {len(all_findings)} finding(s) in "
              f"{checked} file(s)")
    return status


def cmd_slo(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.obs.slo import (
        default_slos, evaluate_slos, evaluate_slos_from_recording,
        parse_slo_spec,
    )

    if args.spec is not None:
        try:
            with open(args.spec, encoding="utf-8") as fh:
                slos = parse_slo_spec(fh.read())
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        slos = default_slos()
    if args.record is not None:
        from repro.obs.telemetry import Recording

        recording = _load(args.record, Recording.load)
        if recording is None:
            return 2
        report = evaluate_slos_from_recording(slos, recording)
        print(f"objectives over {args.record} "
              f"({len(recording.frames)} frame(s), "
              f"t={recording.start:.1f}..{recording.end:.1f}s)")
        print(report.render())
        return 0 if report.ok else 1
    with obs.observed() as (registry, _tracer, event_log):
        for _ in _Demo(args):
            pass
    report = evaluate_slos(slos, registry=registry, event_log=event_log)
    print(report.render())
    return 0 if report.ok else 1


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults import run_chaos
    from repro.obs.telemetry import AlertSeverity

    if args.trials < 1:
        print("error: --trials must be >= 1", file=sys.stderr)
        return 2
    if args.fail_on_critical and not args.record:
        print("error: --fail-on-critical needs --record FILE.tsrec",
              file=sys.stderr)
        return 2
    recorded = _recorded(
        args.record,
        lambda recorder: run_chaos(
            seed=args.seed, trials=args.trials, recorder=recorder
        ),
    )
    if recorded is None:
        return 2
    report, recorder = recorded
    if args.show_trials:
        for trial in report.trials:
            verdict = "granted" if trial.granted else "denied "
            health = "ok" if not (trial.violations or trial.audit_violations) \
                else "VIOLATION"
            print(f"  [{trial.index:4d}] {verdict} inj={trial.injected} "
                  f"retry={trial.retries} {health}  {trial.spec.describe()}")
    if args.save_ledger:
        try:
            with open(args.save_ledger, "w", encoding="utf-8") as fh:
                fh.write(report.ledger.to_json())
        except OSError as exc:
            print(f"error: {args.save_ledger}: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.save_ledger} ({len(report.ledger)} records)")
    if recorder is not None:
        print(f"telemetry: {recorder.frames} frame(s), "
              f"{len(report.alert_transitions)} alert transition(s), "
              f"{len(report.firings(AlertSeverity.CRITICAL))} "
              "critical firing(s)")
        print(f"wrote {args.record}")
    print(report.summary())
    failures = _gate(report, when=lambda t: f"trial {t:.0f}",
                     fail_on_critical=args.fail_on_critical)
    return 1 if report.violations or failures else 0


def _top_gate(args: argparse.Namespace, transitions) -> int:
    from repro.workloads.campaign import CampaignReport

    return _gate(
        CampaignReport(alert_transitions=tuple(transitions)),
        fail_on_critical=args.fail_on_critical,
        expect_firing=args.expect_firing,
    )


def cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.telemetry import (
        AlertEngine, Recording, chaos_rules, default_rules, render_top,
    )

    if args.replay is not None:
        recording = _load(args.replay, Recording.load)
        if recording is None:
            return 2
        if not recording.frames:
            print(f"error: {args.replay} has no telemetry frames",
                  file=sys.stderr)
            return 1
        # Chaos recordings were monitored live by the campaign alert
        # profile; everything else by the fleet profile.  Re-stepping
        # the same rules over the replayed frames reproduces the live
        # incident exactly (the engine reads no clock).
        rules = (chaos_rules()
                 if recording.meta.get("campaign") == "chaos"
                 else default_rules())
        engine = AlertEngine(rules)
        target = args.at if args.at is not None else recording.end
        title = f"repro top — replay {args.replay}"
        next_render = recording.start
        final = None
        for t, snapshot in recording.replay():
            if t > target + 1e-9:
                break
            engine.step(snapshot, t)
            final = (t, snapshot)
            if args.follow and t + 1e-9 >= next_render:
                print(render_top(snapshot, now=t, rules=rules,
                                 alerts=engine.transitions, title=title))
                print()
                next_render = t + max(args.interval, 1e-9)
        if final is None:
            print(f"error: no frames at or before t={target} (the "
                  f"recording starts at t={recording.start})",
                  file=sys.stderr)
            return 2
        t, snapshot = final
        if not args.follow:
            print(render_top(snapshot, now=t, rules=rules,
                             alerts=engine.transitions, title=title))
        interesting = {
            k: recording.meta[k]
            for k in ("campaign", "persona", "seed", "defenses_on",
                      "attack_onset_s", "victim")
            if k in recording.meta
        }
        if interesting:
            print("meta: " + ", ".join(
                f"{k}={v}" for k, v in sorted(interesting.items())))
        return 1 if _top_gate(args, engine.transitions) else 0

    # Live mode: signal --runs reservations under observability, sample
    # a telemetry frame after each, and render the resulting dashboard.
    from repro import obs
    from repro.obs.telemetry import FlightRecorder, testbed_probes

    rules = default_rules()
    engine = AlertEngine(rules)
    recorder = FlightRecorder()
    with obs.observed() as (registry, _tracer, event_log):
        demo = _Demo(args)
        for probe in testbed_probes(demo.testbed):
            recorder.add_probe(probe)
        for index, _ in enumerate(demo, start=1):
            recorder.sample(float(index), registry=registry)
            engine.step(recorder.store, float(index), event_log=event_log)
    print(render_top(recorder.store, now=float(demo.runs), rules=rules,
                     alerts=engine.transitions, domains=demo.domains,
                     title="repro top — live"))
    return 1 if _top_gate(args, engine.transitions) else 0


def cmd_timeline(args: argparse.Namespace) -> int:
    from repro.obs.telemetry import merge_timeline, render_timeline

    correlation = window = None
    if args.target:
        head, sep, tail = args.target.partition(":")
        if sep:
            try:
                window = (float(head), float(tail))
            except ValueError:
                correlation = args.target
        else:
            correlation = args.target
    if window is not None and window[1] < window[0]:
        print(f"error: window {args.target} ends before it starts",
              file=sys.stderr)
        return 2

    records: list[dict] = []
    alerts: list[dict] = []
    spans: Any = ()
    if args.ledger is not None:
        from repro.obs.audit import DecisionLedger

        ledger = _load(args.ledger, DecisionLedger.load)
        if ledger is None:
            return 2
        records = [r.to_dict() for r in ledger]
    if args.replay is not None:
        from repro.obs.telemetry import Recording

        recording = _load(args.replay, Recording.load)
        if recording is None:
            return 2
        records = [*recording.events, *records]
        alerts = recording.alerts
    source = args.replay or args.ledger
    if source is None:
        # Live demo: one reservation under all three pillars, its
        # decision records and spans stitched into a single timeline.
        from repro import obs

        with obs.observed() as (_registry, tracer, event_log):
            (outcome,) = _Demo(args)
        if correlation is None and window is None:
            correlation = outcome.correlation_id
        records = [r.to_dict() for r in event_log]
        spans = tracer.spans_for(correlation) if correlation else ()
        source = "live"
    entries = merge_timeline(
        records=records, alerts=alerts, spans=spans,
        correlation=correlation, window=window,
    )
    scope = correlation or (
        f"{window[0]:.1f}..{window[1]:.1f}s" if window else "all")
    print(render_timeline(entries, title=f"timeline [{scope}] — {source}"))
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    import json as json_mod

    from repro.obs import audit as obs_audit

    def save_ledger(ledger: obs_audit.DecisionLedger) -> bool:
        if not args.save:
            return True
        try:
            with open(args.save, "w", encoding="utf-8") as fh:
                fh.write(ledger.to_json())
        except OSError as exc:
            print(f"error: {args.save}: {exc}", file=sys.stderr)
            return False
        print(f"wrote {args.save} ({len(ledger)} records)", file=sys.stderr)
        return True

    if args.reconcile:
        if args.mode is not None:
            print("error: --reconcile takes no query/explain mode",
                  file=sys.stderr)
            return 2
        if args.ledger is None:
            print("error: --reconcile needs --ledger PATH; the seeded "
                  "campaign writes one: repro chaos --seed 7 --trials 200 "
                  "--save-ledger ledger.json, then repro audit "
                  "--reconcile --ledger ledger.json", file=sys.stderr)
            return 2
        ledger = _load(args.ledger, obs_audit.DecisionLedger.load)
        if ledger is None or not save_ledger(ledger):
            return 2
        report = obs_audit.reconcile(ledger)
        if args.as_json:
            print(json_mod.dumps(report.to_dict(), indent=2))
        else:
            print(report.render())
        return 0 if report.ok else 1

    if args.mode == "query":
        if args.ledger is None:
            print("error: query needs --ledger PATH", file=sys.stderr)
            return 2
        ledger = _load(args.ledger, obs_audit.DecisionLedger.load)
        if ledger is None:
            return 2
        kind = None
        if args.kind is not None:
            kinds = [k for k in obs_audit.RecordKind
                     if k in obs_audit.LEDGER_KINDS]
            kind = next((k for k in kinds if k.value == args.kind.lower()),
                        None)
            if kind is None:
                valid = ", ".join(k.value for k in kinds)
                print(f"error: unknown record kind {args.kind!r} "
                      f"(one of: {valid})", file=sys.stderr)
                return 2
        records = ledger.records(
            kind, domain=args.domain, correlation_id=args.correlation,
            user=args.user,
        )
        if args.as_json:
            print(json_mod.dumps([r.to_dict() for r in records], indent=2))
        else:
            for record in records:
                verdict = "granted" if record.granted else "denied"
                extras = []
                if record.handle:
                    extras.append(record.handle)
                if record.matched_rule:
                    extras.append(f"rule={record.matched_rule}")
                if record.reason_code:
                    extras.append(record.reason_code)
                print(f"[{record.seq:4d}] {record.kind.value:13s} "
                      f"{record.domain or '-':8s} {verdict:7s} "
                      f"{record.correlation_id or '-':12s} "
                      + " ".join(extras))
            print(f"{len(records)} record(s)", file=sys.stderr)
        return 0

    if args.mode == "explain":
        target = args.target
        if args.ledger is not None:
            ledger = _load(args.ledger, obs_audit.DecisionLedger.load)
            if ledger is None:
                return 2
            if target is None:
                print("error: explain --ledger needs a handle or "
                      "correlation id", file=sys.stderr)
                return 2
        else:
            # Live demo: signal one reservation across --domains under a
            # fresh ledger, then explain it.  (audit's --user filters
            # queries; the demo user stays the default.)
            with obs_audit.use_ledger() as ledger:
                (outcome,) = _Demo(argparse.Namespace(domains=args.domains))
            if target is None:
                target = outcome.correlation_id
        if not save_ledger(ledger):
            return 2
        correlation_id = obs_audit.resolve_correlation(ledger, target)
        if correlation_id is None:
            print(f"error: nothing in the ledger matches {target!r}",
                  file=sys.stderr)
            return 1
        chain = obs_audit.stitch(ledger, correlation_id)
        if args.as_json:
            print(json_mod.dumps(obs_audit.chain_to_dict(chain), indent=2))
        else:
            print(obs_audit.render_chain(chain))
        return 0

    print("error: choose a mode (query, explain) or --reconcile",
          file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        from repro.obs import configure_logging

        configure_logging(args.verbose)
    try:
        if args.command == "reserve":
            return cmd_reserve(args)
        if args.command == "policy-check":
            return cmd_policy_check(args)
        if args.command == "attack":
            return cmd_attack(args)
        if args.command == "workload":
            return cmd_workload(args)
        if args.command == "metrics":
            return cmd_metrics(args)
        if args.command == "trace":
            return cmd_trace(args)
        if args.command == "slo":
            return cmd_slo(args)
        if args.command == "lint":
            return cmd_lint(args)
        if args.command == "lint-policy":
            return cmd_lint_policy(args)
        if args.command == "chaos":
            return cmd_chaos(args)
        if args.command == "top":
            return cmd_top(args)
        if args.command == "timeline":
            return cmd_timeline(args)
        if args.command == "audit":
            return cmd_audit(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
