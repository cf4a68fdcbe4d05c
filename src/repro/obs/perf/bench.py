"""The machine fingerprint ``bench/run.py`` stamps into its results.

Timing lives in ``bench/`` (see ``bench/README.md`` and
``docs/PERFORMANCE.md``); this module is the one thing it imports from
here, kept under this name because the benchmark's files are frozen.
"""

from __future__ import annotations

import os
import platform

__all__ = ["machine_fingerprint"]


def machine_fingerprint() -> dict[str, object]:
    """Enough about this machine to interpret (not normalise) timings."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count() or 0,
    }
