"""Exit-code contracts of `repro lint` and `repro lint-policy`."""

import json

from repro.cli import main

CLEAN_POLICY = (
    "If BW < 10Mb/s\n"
    "    Return GRANT\n"
    "Return DENY\n"
)

CONTRADICTORY_POLICY = (
    "If BW > 1Gb/s\n"
    "    If BW <= 10Mb/s\n"
    "        Return GRANT\n"
    "Return DENY\n"
)


def _in_fake_package(tmp_path, source):
    """Rules scope by dotted module path, so test files must sit under a
    directory named ``repro`` to count as package code."""
    pkg = tmp_path / "repro" / "net"
    pkg.mkdir(parents=True, exist_ok=True)
    target = pkg / "scratch.py"
    target.write_text(source)
    return target


class TestLint:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = _in_fake_package(
            tmp_path, "def f(x: int) -> int:\n    return x\n"
        )
        rc = main(["lint", str(target)])
        assert rc == 0
        assert "no findings" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        target = _in_fake_package(
            tmp_path, "def f(xs=[]):\n    raise ValueError('x')\n"
        )
        rc = main(["lint", str(target)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "REP105" in out
        assert "REP103" in out

    def test_json_format(self, tmp_path, capsys):
        target = _in_fake_package(tmp_path, "def f(xs=[]):\n    pass\n")
        rc = main(["lint", "--format", "json", str(target)])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert doc["count"] == 1
        assert doc["findings"][0]["rule"] == "REP105"

    def test_rule_filter(self, tmp_path, capsys):
        target = _in_fake_package(
            tmp_path, "def f(xs=[]):\n    raise ValueError('x')\n"
        )
        rc = main(["lint", "--rule", "REP103", str(target)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "REP103" in out
        assert "REP105" not in out

    def test_unknown_rule_exits_two(self, capsys):
        rc = main(["lint", "--rule", "REP999"])
        assert rc == 2

    def test_list_rules(self, capsys):
        rc = main(["lint", "--list-rules"])
        out = capsys.readouterr().out
        assert rc == 0
        for rule_id in ("REP101", "REP107", "REP108"):
            assert rule_id in out

    def test_whole_package_is_clean(self, capsys):
        # The merge gate: the shipped package itself lints clean.
        assert main(["lint"]) == 0


class TestLintPolicy:
    def test_clean_policy_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "ok.policy"
        target.write_text(CLEAN_POLICY)
        rc = main(["lint-policy", str(target)])
        assert rc == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_contradictory_policy_exits_one(self, tmp_path, capsys):
        target = tmp_path / "bad.policy"
        target.write_text(CONTRADICTORY_POLICY)
        rc = main(["lint-policy", str(target)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "contradiction" in out

    def test_unknown_predicate_exits_one(self, tmp_path, capsys):
        target = tmp_path / "pred.policy"
        target.write_text(
            "If Accredited_Physicist(requestor)\n"
            "    Return GRANT\n"
            "Return DENY\n"
        )
        rc = main(["lint-policy", str(target)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "unknown-predicate" in out and "Accredited_Physicist" in out

    def test_syntax_error_exits_two(self, tmp_path, capsys):
        target = tmp_path / "broken.policy"
        target.write_text("If BW <<< oops\n")
        rc = main(["lint-policy", str(target)])
        assert rc == 2

    def test_missing_file_exits_two(self, tmp_path, capsys):
        rc = main(["lint-policy", str(tmp_path / "nope.policy")])
        assert rc == 2

    def test_example_policies_are_clean(self, capsys):
        import glob

        files = sorted(glob.glob("examples/policies/*.policy"))
        assert files, "example policies missing"
        assert main(["lint-policy", *files]) == 0

    def test_json_format(self, tmp_path, capsys):
        target = tmp_path / "bad.policy"
        target.write_text(CONTRADICTORY_POLICY)
        rc = main(["lint-policy", "--format", "json", str(target)])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert doc["count"] == 1
        assert doc["findings"][0]["kind"] == "contradiction"


class TestLintSelectIgnore:
    def test_ignore_drops_rule(self, tmp_path, capsys):
        target = _in_fake_package(
            tmp_path, "def f(xs=[]):\n    raise ValueError('x')\n"
        )
        rc = main(["lint", "--ignore", "REP103", str(target)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "REP105" in out
        assert "REP103" not in out

    def test_select_is_an_alias_of_rule(self, tmp_path, capsys):
        target = _in_fake_package(
            tmp_path, "def f(xs=[]):\n    raise ValueError('x')\n"
        )
        rc = main(["lint", "--select", "REP103", str(target)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "REP103" in out
        assert "REP105" not in out

    def test_unknown_ignore_exits_two(self, capsys):
        assert main(["lint", "--ignore", "REP999"]) == 2

