"""repro.obs.perf — performance tooling over the obs substrate (ISSUE 4).

:mod:`repro.obs.perf.critical_path` walks a reservation's span tree
(stitched across domains by the envelope-carried trace context) and
attributes end-to-end latency to named hop/phase segments.
:mod:`repro.obs.perf.bench` holds the machine fingerprint the repo
benchmark (``bench/``) stamps into its results.

See ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

from repro.obs.perf.critical_path import (
    CriticalPathReport,
    Segment,
    analyze_critical_path,
    render_critical_path,
)

__all__ = [
    "CriticalPathReport",
    "Segment",
    "analyze_critical_path",
    "render_critical_path",
]
