"""Tests for the ``repro-lint`` rule pack (``repro.analysis``).

Each seeded fixture under ``tests/fixtures/lint/bad/`` violates exactly
one rule; the ``good/`` mirror is the clean counterpart.  Fixture paths
embed a ``repro/<subsystem>/`` prefix so the path-scoped rules engage
exactly as they do on the real tree.
"""

import json
import pathlib
import textwrap

import pytest

from repro.analysis import lint_paths, render_json
from repro.obs.trace import EVENT_FIELDS, EVENT_NAMES
from repro.tools import lint_tool

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures" / "lint"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: fixture file (path under bad/) -> expected (code, line) pairs, in
#: report order.  Line numbers are pinned to the committed fixtures.
EXPECTED_BAD = {
    "repro/core/badsuppress.py": [("DCUP001", 11), ("DCUP008", 11)],
    "repro/core/fsm.py": [("DCUP013", 3), ("DCUP013", 9)],
    "repro/core/fsmdispatch.py": [("DCUP013", 22)],
    "repro/core/tracename.py": [("DCUP003", 14), ("DCUP003", 20)],
    "repro/core/unseeded.py": [("DCUP002", 7), ("DCUP002", 11)],
    "repro/core/wallclock.py": [("DCUP001", 8), ("DCUP001", 9)],
    "repro/net/blocking.py": [("DCUP009", 7), ("DCUP009", 8),
                              ("DCUP009", 9)],
    "repro/net/leaks.py": [("DCUP012", 7), ("DCUP012", 12)],
    "repro/net/unguarded.py": [("DCUP005", 11), ("DCUP005", 12),
                               ("DCUP005", 13)],
    "repro/obs/load.py": [("DCUP005", 10), ("DCUP005", 11)],
    "repro/obs/audit.py": [("DCUP005", 10), ("DCUP005", 11)],
    "repro/server/dispatch.py": [("DCUP007", 7)],
    "repro/sim/affinity.py": [("DCUP011", 15), ("DCUP011", 25),
                              ("DCUP011", 28)],
    "repro/sim/fastreplay.py": [("DCUP006", 7), ("DCUP006", 12)],
    "repro/sim/columnar.py": [("DCUP006", 7), ("DCUP006", 12)],
    "repro/sim/shard.py": [("DCUP006", 5)],
    "repro/sim/unawaited.py": [("DCUP010", 10)],
}


def _by_fixture(findings):
    """Group findings by their path relative to the fixture root."""
    grouped = {}
    for finding in findings:
        parts = pathlib.PurePosixPath(finding.path).parts
        key = "/".join(parts[-3:])
        grouped.setdefault(key, []).append((finding.code, finding.line))
    return grouped


class TestSeededFixtures:
    def test_bad_tree_surfaces_exactly_the_seeded_codes(self):
        findings = lint_paths([FIXTURES / "bad"])
        assert _by_fixture(findings) == EXPECTED_BAD

    def test_good_tree_is_clean(self):
        assert lint_paths([FIXTURES / "good"]) == []

    def test_malformed_suppression_does_not_hide_the_finding(self):
        findings = lint_paths([FIXTURES / "bad" / "repro" / "core"
                               / "badsuppress.py"])
        codes = sorted(f.code for f in findings)
        assert codes == ["DCUP001", "DCUP008"]


class TestRegistryCoverage:
    """DCUP004 is cross-file: it fires only when the scan includes the
    file defining ``EVENT_NAMES`` and some registry name has no emitter
    anywhere in the scanned tree."""

    def _build_tree(self, root, emitted_names):
        obs = root / "repro" / "obs"
        tools = root / "repro" / "tools"
        obs.mkdir(parents=True)
        tools.mkdir(parents=True)
        (obs / "trace.py").write_text("EVENT_NAMES = frozenset()\n")
        lines = ["def emit_all(bus):"]
        for name in sorted(emitted_names):
            fields = ", 0" * len(EVENT_FIELDS[name])
            lines.append(f"    bus.emit({name!r}, None{fields})")
        if len(lines) == 1:
            lines.append("    pass")
        (tools / "emitall.py").write_text("\n".join(lines) + "\n")

    def test_missing_emitter_yields_one_finding(self, tmp_path):
        missing = sorted(EVENT_NAMES)[0]
        self._build_tree(tmp_path, EVENT_NAMES - {missing})
        findings = lint_paths([tmp_path])
        assert len(findings) == 1
        finding = findings[0]
        assert finding.code == "DCUP004"
        assert finding.path.endswith("repro/obs/trace.py")
        assert finding.line == 1
        assert missing in finding.message

    def test_full_coverage_is_clean(self, tmp_path):
        self._build_tree(tmp_path, EVENT_NAMES)
        assert lint_paths([tmp_path]) == []

    def test_no_registry_in_scan_means_no_coverage_claims(self, tmp_path):
        tools = tmp_path / "repro" / "tools"
        tools.mkdir(parents=True)
        (tools / "emitone.py").write_text(
            "def emit_one(bus):\n"
            "    bus.emit('lease.grant', None, 'c', 'n', 'A', 60.0)\n")
        assert lint_paths([tmp_path]) == []


class TestSuppression:
    def test_file_level_suppression_covers_the_whole_file(self, tmp_path):
        core = tmp_path / "repro" / "core"
        core.mkdir(parents=True)
        (core / "clocky.py").write_text(textwrap.dedent("""\
            # repro-lint: disable-file=DCUP001 -- test fixture needs wall time
            import time


            def first():
                return time.time()


            def second():
                return time.time()
            """))
        assert lint_paths([tmp_path]) == []

    def test_line_suppression_only_hides_the_named_code(self, tmp_path):
        core = tmp_path / "repro" / "core"
        core.mkdir(parents=True)
        (core / "mixed.py").write_text(textwrap.dedent("""\
            import random
            import time


            def noisy():
                t = time.time()  # repro-lint: disable=DCUP001 -- deliberate
                return t + random.random()
            """))
        findings = lint_paths([tmp_path])
        assert [f.code for f in findings] == ["DCUP002"]


class TestSelection:
    def test_select_filters_report_not_rule_execution(self):
        findings = lint_paths([FIXTURES / "bad"], select=["DCUP006"])
        assert [f.code for f in findings] == ["DCUP006"] * 5

    def test_select_via_cli(self, capsys):
        rc = lint_tool.main(["check", str(FIXTURES / "bad"),
                             "--select", "DCUP007", "--format", "json"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["findings"][0]["code"] == "DCUP007"


class TestOutputs:
    def test_json_report_is_byte_stable(self):
        findings = lint_paths([FIXTURES / "bad"])
        first = render_json(findings)
        second = render_json(lint_paths([FIXTURES / "bad"]))
        assert first == second
        payload = json.loads(first)
        assert payload["version"] == 1
        assert payload["count"] == len(payload["findings"])
        keys = [(f["path"], f["line"], f["col"], f["code"])
                for f in payload["findings"]]
        assert keys == sorted(keys)

    def test_cli_exit_codes(self, capsys):
        assert lint_tool.main(["check", str(FIXTURES / "bad")]) == 1
        assert lint_tool.main(["check", str(FIXTURES / "good")]) == 0
        out = capsys.readouterr().out
        assert "repro-lint: 0 findings" in out

    def test_rules_catalogue_lists_every_code(self, capsys):
        assert lint_tool.main(["rules"]) == 0
        out = capsys.readouterr().out
        for number in range(1, 14):
            assert f"DCUP{number:03d}" in out


class TestSelfApplication:
    def test_repo_source_tree_lints_clean(self):
        assert lint_paths([SRC / "repro"]) == []


@pytest.mark.parametrize("bad_name", ["DCUP1", "XCUP001", "dcup001"])
def test_invalid_codes_in_directives_are_malformed(tmp_path, bad_name):
    core = tmp_path / "repro" / "core"
    core.mkdir(parents=True)
    (core / "typo.py").write_text(
        f"x = 1  # repro-lint: disable={bad_name} -- oops\n")
    findings = lint_paths([tmp_path])
    assert [f.code for f in findings] == ["DCUP008"]
