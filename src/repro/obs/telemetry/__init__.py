"""repro.obs.telemetry — the continuous-time telemetry plane (ISSUE 9).

Where the rest of :mod:`repro.obs` is point-in-time (registry
snapshots) or post-hoc (audit ledger, critical-path analysis), this
package watches the fabric *while it runs*:

* :mod:`~repro.obs.telemetry.series` — bounded ring-buffer time series
  with delta-aware (counter-reset-safe) rate derivation;
* :mod:`~repro.obs.telemetry.recorder` — the flight recorder: samples
  the metrics registry and fabric probes on the **simulated clock**
  into frames, optionally streamed to an append-only ``.tsrec`` file
  that replays bit-for-bit;
* :mod:`~repro.obs.telemetry.alerts` — threshold / burn-rate / anomaly
  rules with a pending→firing→resolved lifecycle, each transition
  emitted as an obs event whose correlation id stitches the incident
  into audit DecisionChains; the rules are the only health spec;
* :mod:`~repro.obs.telemetry.dashboard` — the ``repro top`` fleet view,
  whose green/DEGRADED/CRITICAL badge is the worst rule breaching for a
  broker right now, and the ``repro timeline`` merged incident stream.

Determinism contract: nothing in this package reads a wall clock or a
raw timer (lint rule REP113); every function takes modelled time from
the caller, so a replayed recording reproduces identical health badges
and alert transitions — pinned by the Hypothesis property in
``tests/proptest/test_telemetry_props.py``.

See ``docs/TELEMETRY.md`` for the recording schema, the rule → badge
mapping and the burn-rate math.
"""

from __future__ import annotations

from repro.obs.telemetry.alerts import (
    AlertEngine,
    AlertRule,
    AlertSeverity,
    AlertState,
    AlertTransition,
    chaos_rules,
    default_rules,
    denial_burn,
)
from repro.obs.telemetry.dashboard import (
    TimelineEntry,
    broker_health,
    health_badge,
    merge_timeline,
    render_timeline,
    render_top,
    sparkline,
)
from repro.obs.telemetry.recorder import (
    BREAKER_STATE_VALUES,
    HISTOGRAM_QUANTILES,
    TSREC_SCHEMA,
    FlightRecorder,
    Recording,
    RecordingWriter,
    testbed_probes,
)
from repro.obs.telemetry.series import (
    SeriesKey,
    SeriesStore,
    TimeSeries,
    ewm_stats,
    ewma,
)

__all__ = [
    "SeriesKey",
    "TimeSeries",
    "SeriesStore",
    "ewma",
    "ewm_stats",
    "TSREC_SCHEMA",
    "BREAKER_STATE_VALUES",
    "HISTOGRAM_QUANTILES",
    "FlightRecorder",
    "RecordingWriter",
    "Recording",
    "testbed_probes",
    "AlertSeverity",
    "AlertState",
    "AlertRule",
    "AlertTransition",
    "AlertEngine",
    "default_rules",
    "chaos_rules",
    "denial_burn",
    "sparkline",
    "broker_health",
    "health_badge",
    "render_top",
    "TimelineEntry",
    "merge_timeline",
    "render_timeline",
]
