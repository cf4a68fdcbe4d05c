"""Unit tests for the runtime lock witness."""

import threading

import pytest

from repro.analysis.concurrency import analyze_sources
from repro.analysis.concurrency import witness as wmod
from repro.analysis.concurrency.witness import (
    LockWitness,
    WitnessViolation,
    current_witness,
)


@pytest.fixture
def witness():
    """A fresh witness, parking any session-wide one (--lock-witness)."""
    active = current_witness()
    if active is not None:
        active.uninstall()
    w = LockWitness()
    yield w
    w.uninstall()
    if active is not None:
        active.install()


class TestRecording:
    def test_nested_acquisition_records_an_edge(self, witness):
        with witness:
            a = threading.Lock()
            b = threading.Lock()
            with a:
                with b:
                    pass
        edges = witness.observed_edges()
        assert len(edges) == 1
        ((src, dst),) = edges
        assert src.line < dst.line  # a created before b
        assert witness.inversions() == []

    def test_opposite_orders_are_an_inversion(self, witness):
        with witness:
            a = threading.Lock()
            b = threading.Lock()
            with a:
                with b:
                    pass
            with b:
                with a:
                    pass
        assert len(witness.observed_edges()) == 2
        assert len(witness.inversions()) == 1

    def test_same_site_instances_are_one_node(self, witness):
        def make():
            return threading.Lock()

        with witness:
            a, b = make(), make()
            with a:
                with b:
                    pass
                # Same creation site: not an ordering edge, and the
                # re-acquisition is two different instances, so no
                # violation either.
        assert witness.observed_edges() == {}

    def test_plain_lock_reacquire_raises_instead_of_deadlocking(
        self, witness
    ):
        with witness:
            a = threading.Lock()
            with a:
                with pytest.raises(WitnessViolation):
                    a.acquire()

    def test_rlock_reentry_is_silent(self, witness):
        with witness:
            r = threading.RLock()
            with r:
                with r:
                    pass
        assert witness.observed_edges() == {}
        assert witness.inversions() == []

    def test_cross_thread_orders_combine(self, witness):
        with witness:
            a = threading.Lock()
            b = threading.Lock()

            def forward():
                with a:
                    with b:
                        pass

            def backward():
                with b:
                    with a:
                        pass

            t1 = threading.Thread(target=forward)
            t1.start()
            t1.join()
            t2 = threading.Thread(target=backward)
            t2.start()
            t2.join()
        assert len(witness.inversions()) == 1

    def test_stdlib_locks_are_not_wrapped(self, witness):
        with witness:
            created_before = witness.locks_created
            # Condition() creates an RLock inside threading.py.
            threading.Condition()
            # Only the Condition's own creation site (this file) counts.
            assert witness.locks_created <= created_before + 1

    def test_condition_wait_notify_under_witness(self, witness):
        with witness:
            cond = threading.Condition(threading.Lock())
            hits = []

            def waiter():
                with cond:
                    cond.wait(timeout=5)
                    hits.append(1)

            t = threading.Thread(target=waiter)
            t.start()
            # Spin until the waiter holds-and-releases into wait().
            import time
            for _ in range(500):
                with cond:
                    cond.notify()
                if hits:
                    break
                time.sleep(0.002)
            t.join(timeout=5)
        assert hits == [1]

    def test_install_is_exclusive(self, witness):
        with witness:
            with pytest.raises(Exception):
                LockWitness().install()
        assert current_witness() is None


class TestStaticCrossCheck:
    def _graph_for(self, source, path):
        return analyze_sources([("repro.fake.prog", path, source)]).graph

    def test_observed_subset_of_static_is_consistent(
        self, witness, tmp_path
    ):
        source = (
            "import threading\n"
            "\n"
            "class P:\n"
            "    def __init__(self):\n"
            "        self.a = threading.Lock()\n"
            "        self.b = threading.Lock()\n"
            "\n"
            "    def op(self):\n"
            "        with self.a:\n"
            "            with self.b:\n"
            "                pass\n"
        )
        path = tmp_path / "prog.py"
        path.write_text(source)
        graph = self._graph_for(source, str(path))
        namespace = {}
        with witness:
            exec(compile(source, str(path), "exec"), namespace)
            p = namespace["P"]()
            p.op()
        assert witness.map_to_static(graph)  # sites joined by (path, line)
        assert witness.check_against(graph) == []

    def test_unmodelled_order_is_reported(self, witness, tmp_path):
        source = (
            "import threading\n"
            "\n"
            "class P:\n"
            "    def __init__(self):\n"
            "        self.a = threading.Lock()\n"
            "        self.b = threading.Lock()\n"
            "\n"
            "    def op(self):\n"
            "        with self.a:\n"
            "            with self.b:\n"
            "                pass\n"
        )
        path = tmp_path / "prog.py"
        path.write_text(source)
        graph = self._graph_for(source, str(path))
        namespace = {}
        with witness:
            exec(compile(source, str(path), "exec"), namespace)
            p = namespace["P"]()
            # Acquire in the order the static graph does NOT contain.
            with p.b:
                with p.a:
                    pass
        problems = witness.check_against(graph)
        assert len(problems) == 1
        assert "missing from the static lock-order graph" in problems[0]

    def test_locks_outside_the_model_are_ignored(self, witness):
        graph = self._graph_for("x = 1\n", "/fake/empty.py")
        with witness:
            a = threading.Lock()
            b = threading.Lock()
            with a:
                with b:
                    pass
        # Edges between unmapped sites are not discrepancies...
        problems = witness.check_against(graph)
        assert problems == []

    def test_observed_inversion_beats_acyclic_static_graph(self, witness):
        graph = self._graph_for("x = 1\n", "/fake/empty.py")
        with witness:
            a = threading.Lock()
            b = threading.Lock()
            with a:
                with b:
                    pass
            with b:
                with a:
                    pass
        # ...but a real observed inversion is always reported, even for
        # locks the static pass never saw.
        problems = witness.check_against(graph)
        assert len(problems) == 1
        assert "acyclic" in problems[0]

    def test_chaos_slice_observes_only_modelled_orders(self, witness):
        """CI's ``chaos --witness`` slice, small enough for tier-1: the
        cross-check against the real package's graph must not be able
        to fail only where no one looks."""
        from repro.analysis.concurrency import analyze_paths
        from repro.faults.chaos import run_chaos

        with witness:
            run_chaos(seed=7, trials=5, audit=True)
        assert witness.observed_edges()
        assert witness.check_against(analyze_paths(rules=()).graph) == []


def test_uninstall_restores_real_factories():
    before_lock, before_rlock = threading.Lock, threading.RLock
    active = current_witness()
    if active is not None:
        active.uninstall()
    try:
        w = LockWitness()
        w.install()
        w.uninstall()
        assert threading.Lock is wmod._REAL_LOCK
        assert threading.RLock is wmod._REAL_RLOCK
    finally:
        if active is not None:
            active.install()
        else:
            threading.Lock, threading.RLock = before_lock, before_rlock
