"""What ``bench/run.py`` takes from ``src/`` to build a result entry."""

from repro.obs.perf.bench import machine_fingerprint


class TestBuildEntry:
    def test_machine_fingerprint_fields(self):
        fp = machine_fingerprint()
        assert fp["python"] and fp["platform"]
        assert fp["cpu_count"] >= 1
