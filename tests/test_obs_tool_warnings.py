"""Regression tests: lax-mode unknown-event warnings are deduplicated.

``repro-obs`` warns about event names outside the PROTOCOL.md §9
contract, but each *name* must be reported exactly once per invocation
— not once per record, and not once per trace for subcommands that load
several (``diff``).
"""

import json

from repro.tools import obs_tool


def _write_trace(path, names):
    with open(path, "w") as stream:
        for index, name in enumerate(names):
            stream.write(json.dumps({"t": float(index), "event": name})
                         + "\n")


def test_unknown_name_warned_once_despite_many_records(tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    _write_trace(trace, ["bogus.event"] * 50 + ["lease.grant"])
    assert obs_tool.main(["summarize", str(trace), "--json"]) == 0
    err = capsys.readouterr().err
    assert err.count("bogus.event") == 1


def test_distinct_unknown_names_each_warned_once(tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    _write_trace(trace, ["bogus.event", "other.event", "bogus.event",
                         "other.event", "lease.grant"])
    assert obs_tool.main(["summarize", str(trace), "--json"]) == 0
    err = capsys.readouterr().err
    assert err.count("bogus.event") == 1
    assert err.count("other.event") == 1


def test_diff_warns_once_across_both_traces(tmp_path, capsys):
    trace_a = tmp_path / "a.jsonl"
    trace_b = tmp_path / "b.jsonl"
    _write_trace(trace_a, ["bogus.event", "lease.grant"])
    _write_trace(trace_b, ["bogus.event", "bogus.event", "lease.grant"])
    obs_tool.main(["diff", str(trace_a), str(trace_b)])
    err = capsys.readouterr().err
    assert err.count("bogus.event") == 1


def test_strict_mode_still_rejects_unknown_names(tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    _write_trace(trace, ["bogus.event"])
    # One line and exit code 2, like every unloadable trace — no traceback.
    assert obs_tool.main(["--strict", "summarize", str(trace),
                          "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == \
        "error: trace line 1: unknown event name 'bogus.event'\n"
    assert captured.out == ""
