"""Property suite: a ``.tsrec`` replay is the live run's twin.

Hypothesis generates random fleet histories — admission grants and
denials, backlog and utilization gauges, breaker states — samples them
live through the flight recorder into an in-memory recording, then
replays the recording and asserts the offline pass reproduces the live
pass **exactly**: identical health badges (and the breaching rules
behind them) for every domain at every frame, and an identical
alert-transition stream.  This is the determinism contract REP113 (no
clock reads in telemetry code) exists to protect.  A second property
states what deriving the badge from the rules buys: a broker is
CRITICAL iff a CRITICAL rule breaches for it, so the badge and the
pager cannot contradict each other.
"""

import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import (
    AlertEngine,
    AlertSeverity,
    FlightRecorder,
    Recording,
    RecordingWriter,
    broker_health,
    default_rules,
    health_badge,
)

DOMAINS = ("A", "B", "C")

step_strategy = st.fixed_dictionaries({
    domain: st.fixed_dictionaries({
        "granted": st.integers(min_value=0, max_value=3),
        "denied": st.integers(min_value=0, max_value=3),
        "backlog": st.floats(min_value=0.0, max_value=4.0,
                             allow_nan=False, allow_infinity=False),
        "utilization": st.floats(min_value=0.0, max_value=1.2,
                                 allow_nan=False, allow_infinity=False),
    })
    for domain in DOMAINS
})

history_strategy = st.lists(step_strategy, min_size=2, max_size=12)
breaker_strategy = st.lists(
    st.sampled_from([0.0, 1.0, 2.0]), min_size=2, max_size=12
)

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _observe(engine, store, t):
    """One frame's worth of live observations, as plain data."""
    health = broker_health(store, now=t, rules=engine.rules)
    transitions = engine.step(store, t)
    return (
        {
            d: (health_badge(health.get(d, ())),
                [(rule.name, group, value)
                 for rule, group, value in health.get(d, ())])
            for d in DOMAINS
        },
        [tr.to_dict() for tr in transitions],
    )


def _record(history, breakers, on_frame):
    """Drive *history* through registry → flight recorder, calling
    ``on_frame(store, t)`` after each sampled frame; returns the
    recorded stream's text."""
    registry = MetricsRegistry()
    admissions = registry.counter("admissions_total")
    backlog = registry.gauge("work_queue_backlog_s")
    utilization = registry.gauge("domain_utilization")
    breaker = registry.gauge("breaker_state")

    stream = io.StringIO()
    writer = RecordingWriter(stream, meta={"campaign": "prop"})
    recorder = FlightRecorder(writer=writer)

    for index, step in enumerate(history):
        t = float(index + 1)
        for domain, load in step.items():
            for _ in range(load["granted"]):
                admissions.inc(domain=domain, granted="true")
            for _ in range(load["denied"]):
                admissions.inc(domain=domain, granted="false")
            backlog.set(load["backlog"], domain=domain)
            utilization.set(load["utilization"], domain=domain)
        breaker.set(breakers[index % len(breakers)], link="A|B")
        recorder.sample(t, registry=registry)
        on_frame(recorder.store, t)
    writer.close()
    return stream.getvalue()


@given(history=history_strategy, breakers=breaker_strategy)
@SETTINGS
def test_replay_reproduces_live_verdicts_and_alerts(history, breakers):
    live_engine = AlertEngine(default_rules())
    live: list = []
    text = _record(
        history, breakers,
        lambda store, t: live.append(_observe(live_engine, store, t)),
    )

    recording = Recording.parse(text.splitlines())
    assert len(recording.frames) == len(history)

    replay_engine = AlertEngine(default_rules())
    replayed = [
        _observe(replay_engine, store, t)
        for t, store in recording.replay()
    ]

    assert replayed == live


@given(history=history_strategy, breakers=breaker_strategy)
@SETTINGS
def test_badge_is_critical_iff_a_critical_rule_breaches(history, breakers):
    """Stated against ``AlertRule.evaluate`` directly, not through
    ``broker_health``: the badge adds no threshold of its own."""
    rules = default_rules()

    def check(store, t):
        health = broker_health(store, now=t, rules=rules)
        for domain in DOMAINS:
            paged = any(
                breached and domain in group.split("|")
                for rule in rules
                if rule.severity is AlertSeverity.CRITICAL
                for group, (breached, _) in rule.evaluate(store, t).items()
            )
            badge = health_badge(health.get(domain, ()))
            assert (badge == "CRITICAL") == paged

    _record(history, breakers, check)
