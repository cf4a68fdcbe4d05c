"""Telemetry: the flight recorder rides the signalling loop.

Not a paper figure — the cost side of PR 9's observability tentpole.
The monitored loop samples a telemetry frame after every reservation
and steps the alert engine over the growing store; the shape asserted
here is one frame per reservation.  What watching *costs* is
``obs.overhead_ratio`` on the ``chain8_sim_watched`` workload of
``bench/``, which runs the same recorder and probes under the ten-pair
rule.
"""

import pytest

from repro.core.testbed import build_linear_testbed
from repro.obs import metrics as obs_metrics
from repro.obs.telemetry import (
    AlertEngine,
    FlightRecorder,
    default_rules,
)
# Aliased: pytest would otherwise collect the imported name as a test.
from repro.obs.telemetry import testbed_probes as fabric_probes

DOMAINS = ("A", "B", "C", "D")
RESERVATIONS = 30
ROUNDS = 3


def run_scenario(record: bool) -> int:
    """Signal RESERVATIONS end-to-end reservations; with *record*, run
    the full monitored loop (frame sample + alert-engine step per
    reservation).  Returns the frame count (0 when off)."""
    with obs_metrics.use_registry() as registry:
        testbed = build_linear_testbed(list(DOMAINS))
        user = testbed.add_user(DOMAINS[0], "Alice")
        recorder = engine = None
        if record:
            recorder = FlightRecorder()
            for probe in fabric_probes(testbed):
                recorder.add_probe(probe)
            engine = AlertEngine(default_rules())
        for index in range(RESERVATIONS):
            testbed.reserve(
                user, source=DOMAINS[0], destination=DOMAINS[-1],
                bandwidth_mbps=1.0, duration=600.0,
            )
            if recorder is not None:
                now = float(index + 1)
                recorder.sample(now, registry=registry)
                engine.step(recorder.store, now)
    return recorder.frames if recorder is not None else 0


@pytest.mark.parametrize("record", [False, True],
                         ids=["recorder-off", "recorder-on"])
def test_signalling_with_recorder(record, benchmark, report):
    frames = benchmark.pedantic(
        run_scenario, args=(record,), rounds=ROUNDS, iterations=1,
        warmup_rounds=1,
    )
    if record:
        assert frames == RESERVATIONS
    report.append(
        f"telemetry recorder {'on ' if record else 'off'}: "
        f"{RESERVATIONS} reservations, {frames} frame(s)"
    )
