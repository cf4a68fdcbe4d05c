"""Tests for the command-line interface."""

import re
import shlex
from pathlib import Path

import pytest

import repro.cli
from repro.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent


class TestReserve:
    def test_hop_by_hop_grant(self, capsys):
        rc = main(["reserve", "--domains", "A,B,C", "--rate", "10"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "granted  : True" in out
        assert "A -> B -> C" in out

    def test_denial_exit_code(self, capsys):
        rc = main(["reserve", "--rate", "500"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "denied by A" in out

    def test_agent_without_trust_denied_then_stars_ok(self, capsys):
        rc = main(["reserve", "--approach", "stars"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "approach : stars" in out

    def test_agent_concurrent(self, capsys):
        rc = main(["reserve", "--approach", "agent-concurrent"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "granted  : True" in out

    def test_explicit_endpoints(self, capsys):
        rc = main([
            "reserve", "--domains", "X,Y,Z", "--source", "Y", "--dest", "Z",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Y -> Z" in out

    def test_empty_domains(self, capsys):
        rc = main(["reserve", "--domains", ","])
        assert rc == 2


class TestPolicyCheck:
    POLICY = (
        "If User = Alice\n"
        "    If BW <= 10Mb/s\n"
        "        Return GRANT\n"
        "Return DENY\n"
    )

    def write(self, tmp_path, text=None):
        path = tmp_path / "policy.txt"
        path.write_text(text if text is not None else self.POLICY)
        return str(path)

    def test_grant(self, tmp_path, capsys):
        rc = main(["policy-check", self.write(tmp_path),
                   "--user", "Alice", "--bw", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "GRANT" in out

    def test_deny(self, tmp_path, capsys):
        rc = main(["policy-check", self.write(tmp_path),
                   "--user", "Bob", "--bw", "8"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "DENY" in out

    def test_groups_and_issuers(self, tmp_path, capsys):
        policy = (
            "If Group = Atlas and Issued_by(Capability) = ESnet\n"
            "    Return GRANT\nReturn DENY"
        )
        rc = main([
            "policy-check", self.write(tmp_path, policy),
            "--group", "Atlas", "--capability-issuer", "ESnet",
        ])
        assert rc == 0

    def test_linked_reservations(self, tmp_path):
        policy = "If HasValidCPUResv(RAR)\n    Return GRANT\nReturn DENY"
        rc = main([
            "policy-check", self.write(tmp_path, policy),
            "--linked", "cpu=CPU-1",
        ])
        assert rc == 0
        rc = main(["policy-check", self.write(tmp_path, policy)])
        assert rc == 1

    def test_bad_linked_syntax(self, tmp_path, capsys):
        rc = main([
            "policy-check", self.write(tmp_path), "--linked", "nonsense",
        ])
        assert rc == 2
        assert "kind=handle" in capsys.readouterr().err

    def test_syntax_error_reported(self, tmp_path, capsys):
        rc = main(["policy-check", self.write(tmp_path, "Gibberish here")])
        assert rc == 2
        assert "syntax error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        rc = main(["policy-check", "/nonexistent/policy.txt"])
        assert rc == 2

    def test_stdin(self, tmp_path, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("Return GRANT"))
        rc = main(["policy-check", "-"])
        assert rc == 0


class TestAttack:
    def test_attack_report(self, capsys):
        rc = main(["attack"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "complete=False" in out
        assert "Figure 4 reproduced" in out


class TestMetrics:
    def test_prometheus_dump(self, capsys):
        rc = main(["metrics", "--domains", "A,B,C", "--runs", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert 'admissions_total{domain="C",granted="true"} 2' in out
        assert 'reservations_total{result="granted"} 2' in out
        assert 'signalling_latency_seconds_bucket{le="+Inf"} 2' in out

    def test_json_dump(self, capsys):
        import json

        rc = main(["metrics", "--runs", "1", "--format", "json"])
        out = capsys.readouterr().out
        assert rc == 0
        snapshot = json.loads(out)
        assert snapshot["reservations_total"]["kind"] == "counter"

    def test_denied_run_exit_code(self, capsys):
        rc = main(["metrics", "--rate", "500", "--runs", "1"])
        out = capsys.readouterr().out
        assert rc == 1
        assert 'reservations_total{result="denied"} 1' in out


class TestTrace:
    def test_span_tree_and_cross_check(self, capsys):
        rc = main(["trace", "--domains", "A,B,C,D"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "trace req-" in out
        assert "hop order : A -> B -> C -> D" in out
        assert "span tree matches envelope path: True" in out
        # One verify phase per hop, depth increasing along the path.
        assert out.count("verify wall=") == 4

    def test_verbose_flag_enables_info_logging(self, capsys):
        rc = main(["-v", "trace", "--domains", "A,B"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "granted" in captured.err  # INFO line from the protocol


class TestWorkload:
    def test_light_load(self, capsys):
        rc = main(["workload", "--load", "0.25", "--horizon", "2000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "acceptance ratio  : 1.00" in out

    def test_heavy_load_reports_rejections(self, capsys):
        rc = main(["workload", "--load", "3.0", "--horizon", "3000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Erlang-B predicts" in out
        assert "rejections" in out


class TestAudit:
    def test_explain_live_demo_four_domains(self, capsys):
        rc = main(["audit", "explain", "--domains", "A,B,C,D"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "decision chain" in out
        assert "A -> B -> C -> D" in out
        assert "rule:" in out
        assert "check:" in out
        assert "[fresh]" in out

    def test_explain_save_then_query_and_reconcile(self, capsys, tmp_path):
        ledger_path = str(tmp_path / "ledger.json")
        rc = main(["audit", "explain", "--save", ledger_path])
        assert rc == 0
        capsys.readouterr()

        rc = main(["audit", "query", "--ledger", ledger_path,
                   "--kind", "admit"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("admit") == 4  # one admission per domain

        rc = main(["audit", "--reconcile", "--ledger", ledger_path])
        out = capsys.readouterr().out
        assert rc == 0
        assert "audit reconciliation: OK" in out

    def test_explain_resolves_handle_from_ledger(self, capsys, tmp_path):
        ledger_path = str(tmp_path / "ledger.json")
        main(["audit", "explain", "--save", ledger_path])
        capsys.readouterr()
        import json

        with open(ledger_path, encoding="utf-8") as fh:
            records = json.load(fh)["records"]
        handle = next(r["handle"] for r in records if r["kind"] == "admit")
        rc = main(["audit", "explain", handle, "--ledger", ledger_path])
        out = capsys.readouterr().out
        assert rc == 0
        assert handle in out

    def test_query_json_output(self, capsys, tmp_path):
        ledger_path = str(tmp_path / "ledger.json")
        main(["audit", "explain", "--save", ledger_path])
        capsys.readouterr()
        import json

        rc = main(["audit", "query", "--ledger", ledger_path, "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        docs = json.loads(out)
        assert docs and all("kind" in d for d in docs)

    def test_reconcile_runs_chaos_campaign(self, capsys, tmp_path):
        """``audit --reconcile`` reads a ledger; without one it names the
        campaign that writes it, and that two-step command reconciles."""
        rc = main(["audit", "--reconcile"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "chaos --seed 7 --trials 200 --save-ledger" in err
        ledger_path = str(tmp_path / "ledger.json")
        assert main(["chaos", "--trials", "5", "--seed", "3",
                     "--save-ledger", ledger_path]) == 0
        capsys.readouterr()
        rc = main(["audit", "--reconcile", "--ledger", ledger_path])
        out = capsys.readouterr().out
        assert rc == 0
        assert "audit reconciliation: OK" in out

    def test_query_ignores_domains(self, capsys, tmp_path):
        """--domains only shapes the live explain demo: a query over a
        saved ledger builds no testbed, so one domain is fine."""
        ledger_path = str(tmp_path / "ledger.json")
        main(["audit", "explain", "--save", ledger_path])
        capsys.readouterr()
        rc = main(["audit", "query", "--ledger", ledger_path,
                   "--domains", "A"])
        capsys.readouterr()
        assert rc == 0

    def test_error_paths(self, capsys):
        assert main(["audit", "query"]) == 2  # no --ledger
        assert main(["audit"]) == 2  # no mode, no --reconcile
        assert main(["audit", "query", "--reconcile"]) == 2
        capsys.readouterr()

    def test_unknown_target_fails(self, capsys, tmp_path):
        ledger_path = str(tmp_path / "ledger.json")
        main(["audit", "explain", "--save", ledger_path])
        capsys.readouterr()
        rc = main(["audit", "explain", "RES-Z-999999",
                   "--ledger", ledger_path])
        assert rc == 1

    def test_bad_kind_rejected(self, capsys, tmp_path):
        ledger_path = str(tmp_path / "ledger.json")
        main(["audit", "explain", "--save", ledger_path])
        capsys.readouterr()
        assert main(["audit", "query", "--ledger", ledger_path,
                     "--kind", "bogus"]) == 2


class TestMalformedLedger:
    """A ledger file that is not one is a usage error naming what is
    wrong with it, never a traceback."""

    @pytest.mark.parametrize("command", [
        ["timeline"], ["audit", "query"],
    ])
    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "expected an object with a 'records' list"),
        ('"x"', "expected an object with a 'records' list"),
        ('{"records": [1]}', "ledger record 0: expected an object"),
        ('{"records": [{}]}', "ledger record 0: missing field 'seq'"),
    ])
    def test_exits_two_with_the_reason(
        self, capsys, tmp_path, command, text, message
    ):
        path = tmp_path / "ledger.json"
        path.write_text(text, encoding="utf-8")
        rc = main([*command, "--ledger", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"error: {path}: " in err
        assert message in err


class TestMalformedRecording:
    """A ``.tsrec`` file that is not one is a usage error naming the
    line that cannot be read, never a traceback."""

    HEADER = '{"schema": "repro-tsrec/1", "meta": {}}'

    @pytest.mark.parametrize("command", [
        ["top", "--replay"], ["slo", "--record"], ["timeline", "--replay"],
    ], ids=["top", "slo", "timeline"])
    @pytest.mark.parametrize("lines, message", [
        (["[1]"], "tsrec line 1: expected an object, got list"),
        ([HEADER, "5"], "tsrec line 2: expected an object, got int"),
        ([HEADER, '{"t":1,"f":{"a":"zz"}}'], "tsrec line 2: ValueError"),
    ], ids=["list-header", "number-line", "non-numeric-value"])
    def test_exits_two_with_the_line(
        self, capsys, tmp_path, command, lines, message
    ):
        path = tmp_path / "bad.tsrec"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc = main([*command, str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"error: {path}: " in err
        assert message in err


class TestArgumentChecks:
    def test_save_ledger_alone_writes_the_ledger(self, capsys, tmp_path):
        """Every campaign keeps its ledger, so ``--save-ledger`` needs no
        other flag."""
        path = tmp_path / "ledger.json"
        rc = main(["chaos", "--trials", "1", "--save-ledger", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"wrote {path}" in out
        assert path.exists()

    @pytest.mark.parametrize("horizon", ["0", "-5"])
    def test_attack_horizon_must_be_positive(self, capsys, horizon):
        rc = main(["attack", "--persona", "flood", "--horizon", horizon,
                   "--defenses", "on", "--gate"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "horizon must be > 0" in err

    def test_top_at_before_the_first_frame(self, capsys, tmp_path):
        recording = tmp_path / "chaos.tsrec"
        assert main(["chaos", "--trials", "2", "--record",
                     str(recording)]) == 0
        capsys.readouterr()
        rc = main(["top", "--replay", str(recording), "--at", "0.5"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "no frames at or before t=0.5" in err

    @pytest.mark.parametrize("command", ["metrics", "slo", "top"])
    @pytest.mark.parametrize("runs", ["0", "-3"])
    def test_runs_below_one_is_a_usage_error(self, capsys, command, runs):
        rc = main([command, "--runs", runs])
        err = capsys.readouterr().err
        assert rc == 2
        assert "--runs must be >= 1" in err

    def test_timeline_window_ending_before_it_starts(self, capsys):
        rc = main(["timeline", "5:1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "ends before it starts" in err


def _documented_command_lines():
    """Every ``python -m repro ...`` command line in the README, the
    docs, the CLI module docstring and the CI workflow, as
    ``(where, argv)``; a line ending in a backslash continues on the
    next.  Lines with a placeholder (``<...>`` or ``...``) are skipped."""
    texts = [
        (path.relative_to(ROOT), path.read_text(encoding="utf-8"))
        for path in [
            ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")),
            ROOT / ".github" / "workflows" / "ci.yml",
        ]
    ]
    texts.append(("repro/cli.py docstring", repro.cli.__doc__))
    command = re.compile(r"^\s*(?:\$ |run: )?python -m repro\b(.*)$")
    found = []
    for where, text in texts:
        logical = ""
        for line in text.splitlines():
            if line.endswith("\\"):
                logical += line[:-1] + " "
                continue
            match = command.match(logical + line)
            logical = ""
            if match is None:
                continue
            rest = match.group(1).split(" #")[0]
            if not re.search(r"<[^>]*>|\.\.\.", rest):
                found.append((f"{where}: python -m repro{rest}",
                              shlex.split(rest)))
    return found


def test_documented_command_lines_parse():
    """A flag removed without a doc edit fails here."""
    lines = _documented_command_lines()
    assert len(lines) > 50
    parser = build_parser()
    unparsed = []
    for where, argv in lines:
        try:
            parser.parse_args(argv)
        except SystemExit:
            unparsed.append(where)
    assert not unparsed, (
        "documented command lines that no longer parse:\n"
        + "\n".join(unparsed)
    )


class TestChaosAudit:
    def test_chaos_audit_flag_and_ledger_save(self, capsys, tmp_path):
        ledger_path = str(tmp_path / "chaos-ledger.json")
        rc = main(["chaos", "--trials", "4", "--seed", "3",
                   "--save-ledger", ledger_path])
        out = capsys.readouterr().out
        assert rc == 0
        assert "audit" in out
        capsys.readouterr()
        rc = main(["audit", "--reconcile", "--ledger", ledger_path])
        out = capsys.readouterr().out
        assert rc == 0
        assert "audit reconciliation: OK" in out


class TestGate:
    """``chaos``, ``attack --gate`` and ``top`` share one gate."""

    def test_chaos_fails_on_a_violated_objective(
        self, capsys, monkeypatch
    ):
        from repro.faults import chaos
        from repro.obs.slo import SLO

        impossible = SLO(name="no-denials", kind="denial_rate",
                         threshold=0.0)
        monkeypatch.setattr(chaos, "default_slos", lambda: (impossible,))
        rc = main(["chaos", "--seed", "7", "--trials", "5"])
        captured = capsys.readouterr()
        assert "violations      : 0" in captured.out
        assert rc == 1
        assert "GATE: SLOs violated: no-denials" in captured.err

    def test_attack_fails_without_honest_traffic(self, capsys):
        """A horizon shorter than the first honest arrival offers no
        honest request: nothing was shown to survive."""
        rc = main(["attack", "--persona", "flood", "--horizon", "0.01",
                   "--defenses", "on", "--gate"])
        captured = capsys.readouterr()
        assert "honest admission 0/0" in captured.out
        assert rc == 1
        assert "GATE: no honest request offered (defenses on)" in \
            captured.err
        assert "GATE: ok" not in captured.out


class TestTelemetryCLI:
    """PR 9 surface: attack --record, top, timeline, chaos/slo --record."""

    def test_attack_record_then_replay_top_and_timeline(
        self, tmp_path, capsys
    ):
        recording = tmp_path / "flood.tsrec"
        main([
            "attack", "--persona", "flood", "--defenses", "off",
            "--horizon", "60", "--record", str(recording),
        ])
        out = capsys.readouterr().out
        assert recording.exists()
        assert "detection" in out
        assert "time-to-detect" in out
        assert "never" not in out  # flood without defenses is caught

    # The replay side: the incident renders and the gates see it.
        rc = main(["top", "--replay", str(recording), "--expect-firing"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "persona=flood" in out
        assert "FIRING" in out or "firing" in out

        rc = main(["top", "--replay", str(recording), "--at", "10"])
        capsys.readouterr()
        assert rc == 0

        # While denial-burn/A is FIRING the badge says so too: the
        # health column is a view of the same rules.
        rc = main(["top", "--replay", str(recording), "--at", "55"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "denial-burn/A FIRING" in out
        row = next(l for l in out.splitlines() if l.startswith("A "))
        assert row.split()[1] == "CRITICAL"
        assert "  A: denial-burn " in out

        rc = main(["timeline", "40:60", "--replay", str(recording)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "alert" in out or "deny" in out

    def test_top_live_renders_fleet(self, capsys):
        rc = main(["top", "--runs", "5", "--domains", "A,B,C"])
        out = capsys.readouterr().out
        assert rc == 0
        for domain in ("A", "B", "C"):
            assert domain in out

    def test_top_missing_recording_is_usage_error(self, capsys):
        rc = main(["top", "--replay", "/nonexistent/x.tsrec"])
        capsys.readouterr()
        assert rc == 2

    def test_timeline_live(self, capsys):
        rc = main(["timeline", "--domains", "A,B,C"])
        out = capsys.readouterr().out
        assert rc == 0
        # Each decision is one record, printed once.
        admits = [line.split(" ADMIT ")[1].split()[0]
                  for line in out.splitlines() if " ADMIT @" in line]
        assert admits == ["@A", "@B", "@C"]

    def test_chaos_record_gates_clean_and_slo_replays(
        self, tmp_path, capsys
    ):
        recording = tmp_path / "chaos.tsrec"
        rc = main([
            "chaos", "--seed", "7", "--trials", "20",
            "--record", str(recording), "--fail-on-critical",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "telemetry:" in out
        assert "0 critical firing(s)" in out
        verdicts = [l.strip() for l in out.splitlines()
                    if l.strip().startswith(("OK ", "FAIL "))]
        assert len(verdicts) == 3

        # The recording read back prints the rows the run printed.
        rc = main(["slo", "--record", str(recording)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "frame" in out
        assert [l.strip() for l in out.splitlines()
                if l.startswith(("OK ", "FAIL "))] == verdicts

    def test_chaos_fail_on_critical_requires_record(self, capsys):
        rc = main(["chaos", "--trials", "5", "--fail-on-critical"])
        capsys.readouterr()
        assert rc == 2
