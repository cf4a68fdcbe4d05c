"""The concurrency pass on small synthetic programs.

Each fixture isolates one behaviour the analyzer promises:
a real A->B / B->A deadlock (REP120), a re-entrant RLock chain that must
NOT be a false positive, a plain-Lock self-deadlock, an unguarded write
to inferred guarded state (REP121), a noqa'd intentional lock-free read,
an acquisition reached only through the call graph, and constructor
lock-sharing folded by the alias union-find.
"""

import textwrap

from repro.analysis.concurrency import analyze_sources
from repro.analysis.concurrency.guarded import Baseline


def _analyze(source, *, module="repro.fake.prog", baseline=None, **kwargs):
    src = textwrap.dedent(source)
    return analyze_sources(
        [(module, f"/fake/{module.rsplit('.', 1)[-1]}.py", src)],
        baseline=baseline, **kwargs,
    )


DEADLOCK = """
    import threading

    class A:
        def __init__(self):
            self._lock = threading.Lock()

    class B:
        def __init__(self):
            self._lock = threading.Lock()

    class System:
        def __init__(self):
            self.a = A()
            self.b = B()

        def forward(self):
            with self.a._lock:
                with self.b._lock:
                    pass

        def backward(self):
            with self.b._lock:
                with self.a._lock:
                    pass
"""


class TestLockOrderCycles:
    def test_opposite_nesting_is_a_cycle(self):
        report = _analyze(DEADLOCK)
        cycles = report.graph.cycles()
        assert len(cycles) == 1
        assert set(cycles[0]) == {
            "repro.fake.prog.A._lock", "repro.fake.prog.B._lock",
        }
        assert [f.rule for f in report.findings] == ["REP120"]
        assert "potential deadlock" in report.findings[0].message
        # Both directions are reported as witnesses of the one cycle.
        assert "forward" in report.findings[0].message
        assert "backward" in report.findings[0].message

    def test_one_direction_only_is_clean(self):
        one_way = DEADLOCK[: DEADLOCK.index("    def backward")]
        report = _analyze(one_way)
        assert report.graph.cycles() == []
        assert report.clean

    def test_rlock_reentry_is_not_a_cycle(self):
        report = _analyze("""
            import threading

            class R:
                def __init__(self):
                    self._lock = threading.RLock()

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        pass
        """)
        assert report.clean
        assert report.graph.cycles() == []
        # The self-acquisition is recorded as a legal re-entry instead.
        assert "repro.fake.prog.R._lock" in report.graph.reentries

    def test_plain_lock_reentry_is_self_deadlock(self):
        report = _analyze("""
            import threading

            class S:
                def __init__(self):
                    self._lock = threading.Lock()

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        pass
        """)
        assert [f.rule for f in report.findings] == ["REP120"]
        assert "self-deadlock" in report.findings[0].message
        assert report.graph.cycles() == [("repro.fake.prog.S._lock",)]

    def test_call_graph_indirect_acquisition(self):
        report = _analyze("""
            import threading

            class Inner:
                def __init__(self):
                    self._lock = threading.Lock()

                def poke(self):
                    with self._lock:
                        pass

            class Outer:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.inner = Inner()

                def op(self):
                    with self._lock:
                        self.helper()

                def helper(self):
                    self.inner.poke()
        """)
        assert report.graph.has_edge(
            "repro.fake.prog.Outer._lock", "repro.fake.prog.Inner._lock"
        )
        witnesses = report.graph.edges()[
            ("repro.fake.prog.Outer._lock", "repro.fake.prog.Inner._lock")
        ]
        # The edge's witness names the call chain through the helper.
        assert any("helper" in " ".join(w.chain) for w in witnesses)
        assert report.graph.cycles() == []

    def test_tuple_assignment_types_each_element(self):
        # ``a, b = f(), g()`` binds element-wise; a walker that only
        # types single-name targets drops both receivers and the edge.
        report = _analyze("""
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()

                def write(self):
                    with self._lock:
                        pass

            def get_store() -> Store:
                return Store()

            def get_name() -> str:
                return "x"

            class Owner:
                def __init__(self):
                    self._lock = threading.Lock()

                def op(self):
                    with self._lock:
                        name, store = get_name(), get_store()
                        store.write()
        """)
        assert report.graph.has_edge(
            "repro.fake.prog.Owner._lock", "repro.fake.prog.Store._lock"
        )

    def test_depth_bound_cuts_long_chains(self):
        hops = "\n".join(
            f"""
                def hop{i}(self):
                    self.hop{i + 1}()"""
            for i in range(12)
        )
        report = _analyze(f"""
            import threading

            class Inner:
                def __init__(self):
                    self._lock = threading.Lock()

                def poke(self):
                    with self._lock:
                        pass

            class Outer:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.inner = Inner()

                def op(self):
                    with self._lock:
                        self.hop0()
            {hops}

                def hop12(self):
                    self.inner.poke()
        """, max_depth=4)
        assert not report.graph.has_edge(
            "repro.fake.prog.Outer._lock", "repro.fake.prog.Inner._lock"
        )

    def test_constructor_shared_lock_is_unified(self):
        report = _analyze("""
            import threading

            class Shared:
                def __init__(self, lock: threading.RLock):
                    self._lock = lock

                def touch(self):
                    with self._lock:
                        pass

            class Owner:
                def __init__(self):
                    self._lock = threading.RLock()
                    self.shared = Shared(self._lock)

                def op(self):
                    with self._lock:
                        self.shared.touch()
        """)
        canon = report.graph.aliases.find
        assert (canon("repro.fake.prog.Shared._lock")
                == canon("repro.fake.prog.Owner._lock"))
        # One runtime lock: re-entry, not an ordering edge, not a cycle.
        assert report.clean
        assert not report.graph.has_edge(
            "repro.fake.prog.Owner._lock", "repro.fake.prog.Shared._lock"
        )
        assert "repro.fake.prog.Owner._lock" in report.graph.reentries


GUARDED = """
    import threading

    class Counter:
        def __init__(self):
            self._lock = threading.Lock()
            self.count = 0

        def bump(self):
            with self._lock:
                self.count += 1

        def unbump(self):
            with self._lock:
                self.count -= 1

        def sneak(self):
            self.count = 5
"""


class TestGuardedState:
    def test_unguarded_write_is_flagged(self):
        report = _analyze(GUARDED)
        assert [f.rule for f in report.findings] == ["REP121"]
        finding = report.findings[0]
        assert "Counter.count" in finding.message
        assert "written" in finding.message
        assert report.rep121_fingerprints == [
            "repro.fake.prog.Counter.count:"
            "repro.fake.prog.Counter.sneak:rebind"
        ]

    def test_noqa_suppresses_lock_free_read(self):
        report = _analyze(
            GUARDED
            + "\n        def rebump(self):\n"
            + "            with self._lock:\n"
            + "                self.count += 1\n"
            + "\n        def peek(self):\n"
            + "            return self.count  "
            + "# repro: noqa[REP121] monitoring read\n"
        )
        # The write is still flagged; the annotated read is not.
        assert [f.rule for f in report.findings] == ["REP121"]
        assert "written" in report.findings[0].message
        assert report.suppressed == 1

    def test_baseline_filters_known_findings(self):
        baseline = Baseline({
            "REP121": [
                "repro.fake.prog.Counter.count:"
                "repro.fake.prog.Counter.sneak:rebind"
            ],
        })
        report = _analyze(GUARDED, baseline=baseline)
        assert report.clean
        assert report.baselined == 1
        # The fingerprint is still reported for --write-baseline.
        assert report.rep121_fingerprints

    def test_init_accesses_are_exempt(self):
        report = _analyze("""
            import threading

            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.state = 0
                    self.state = 1

                def a(self):
                    with self._lock:
                        self.state += 1

                def b(self):
                    with self._lock:
                        self.state += 1
        """)
        assert report.clean

    def test_read_only_attribute_is_not_guarded_state(self):
        report = _analyze("""
            import threading

            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.config = "x"

                def a(self):
                    with self._lock:
                        print(self.config)

                def b(self):
                    with self._lock:
                        print(self.config)

                def lockfree(self):
                    return self.config
        """)
        # Never written after __init__: cannot race, no finding.
        assert report.clean

    def test_private_method_inherits_callers_lock(self):
        report = _analyze("""
            import threading

            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.state = 0

                def a(self):
                    with self._lock:
                        self._sink()

                def b(self):
                    with self._lock:
                        self._sink()

                def _sink(self):
                    self.state += 1
        """)
        # _sink is only ever called under the lock: its access counts as
        # guarded, so there is nothing to report.
        assert report.clean

    def test_baseline_can_accept_cycles(self):
        report = _analyze(DEADLOCK)
        key = report.cycle_keys[0]
        baselined = _analyze(DEADLOCK, baseline=Baseline({"REP120": [key]}))
        assert baselined.clean
        assert baselined.baselined == 1


class TestRuleSelection:
    def test_rules_filter(self):
        both = _analyze(DEADLOCK + GUARDED.replace("class Counter",
                                                   "class Counter"))
        assert {f.rule for f in both.findings} == {"REP120", "REP121"}
        only_cycles = _analyze(DEADLOCK + GUARDED, rules=("REP120",))
        assert {f.rule for f in only_cycles.findings} == {"REP120"}
        only_guarded = _analyze(DEADLOCK + GUARDED, rules=("REP121",))
        assert {f.rule for f in only_guarded.findings} == {"REP121"}
