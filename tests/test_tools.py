"""Tests for the command-line tools."""

import json

import pytest

from repro.obs import TraceBus
from repro.report import format_table, read_csv, write_csv
from repro.tools import (
    leasesim_tool,
    obs_tool,
    probe_tool,
    testbed_tool,
    trace_tool,
)
from repro.traces import load_trace
from tests.conftest import emit_dict


class TestReportHelpers:
    def test_format_table_alignment(self):
        text = format_table(("name", "value"),
                            [("a", 1), ("long-name", 22)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "long-name" in lines[3] or "long-name" in lines[4]

    def test_csv_roundtrip(self, tmp_path):
        path = str(tmp_path / "out.csv")
        assert write_csv(path, ("a", "b"), [(1, 2), (3, 4)]) == 2
        rows = read_csv(path)
        assert rows == [["a", "b"], ["1", "2"], ["3", "4"]]


class TestTraceTool:
    def test_generates_trace_and_catalog(self, tmp_path):
        trace_path = str(tmp_path / "trace.txt")
        catalog_path = str(tmp_path / "catalog.csv")
        rc = trace_tool.main([trace_path, "--days", "0.02",
                              "--rate", "2.0",
                              "--regular-per-tld", "5", "--cdn", "5",
                              "--dyn", "5", "--catalog", catalog_path])
        assert rc == 0
        events = load_trace(trace_path)
        assert events
        assert max(e.time for e in events) <= 0.02 * 86400
        catalog = read_csv(catalog_path)
        assert catalog[0] == ["name", "category", "ttl"]
        assert len(catalog) > 1

    def test_deterministic_for_seed(self, tmp_path):
        a = str(tmp_path / "a.txt")
        b = str(tmp_path / "b.txt")
        argv = ["--days", "0.01", "--rate", "2.0", "--regular-per-tld",
                "3", "--cdn", "3", "--dyn", "3", "--seed", "9"]
        trace_tool.main([a] + argv)
        trace_tool.main([b] + argv)
        assert open(a).read() == open(b).read()


class TestLeasesimTool:
    def test_end_to_end_over_generated_trace(self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.txt")
        catalog_path = str(tmp_path / "catalog.csv")
        curves_path = str(tmp_path / "curves.csv")
        trace_tool.main([trace_path, "--days", "0.1", "--rate", "3.0",
                         "--regular-per-tld", "8", "--cdn", "8",
                         "--dyn", "8", "--catalog", catalog_path])
        rc = leasesim_tool.main([trace_path, "--catalog", catalog_path,
                                 "--output", curves_path,
                                 "--fixed-points", "4",
                                 "--dynamic-points", "4"])
        assert rc == 0
        output = capsys.readouterr().out
        assert "Figure 5 readings" in output
        rows = read_csv(curves_path)
        assert rows[0][0] == "scheme"
        schemes = {row[0] for row in rows[1:]}
        assert schemes == {"fixed", "dynamic"}

    def test_empty_trace_fails(self, tmp_path):
        path = str(tmp_path / "empty.txt")
        open(path, "w").write("# nothing\n")
        assert leasesim_tool.main([path]) == 1

    def test_engines_write_identical_curves(self, tmp_path):
        """--engine fast (default) and --engine reference agree byte for
        byte on the emitted CSV."""
        trace_path = str(tmp_path / "trace.txt")
        trace_tool.main([trace_path, "--days", "0.05", "--rate", "3.0",
                         "--regular-per-tld", "6", "--cdn", "6",
                         "--dyn", "6"])
        fast_csv = str(tmp_path / "fast.csv")
        reference_csv = str(tmp_path / "reference.csv")
        assert leasesim_tool.main([trace_path, "--output", fast_csv,
                                   "--fixed-points", "4",
                                   "--dynamic-points", "4"]) == 0
        assert leasesim_tool.main([trace_path, "--output", reference_csv,
                                   "--engine", "reference",
                                   "--fixed-points", "4",
                                   "--dynamic-points", "4"]) == 0
        assert open(fast_csv).read() == open(reference_csv).read()

    def test_columnar_engine_and_shards_byte_stable(self, tmp_path):
        """--engine columnar matches the fast engine byte for byte, and
        --shards N cannot change a single output byte."""
        trace_path = str(tmp_path / "trace.txt")
        trace_tool.main([trace_path, "--days", "0.05", "--rate", "3.0",
                         "--regular-per-tld", "6", "--cdn", "6",
                         "--dyn", "6"])
        outputs = {}
        for tag, argv in (
                ("fast", ["--engine", "fast"]),
                ("columnar", ["--engine", "columnar"]),
                ("shard4", ["--engine", "columnar", "--shards", "4"])):
            csv_path = str(tmp_path / f"{tag}.csv")
            json_path = str(tmp_path / f"{tag}.json")
            assert leasesim_tool.main(
                [trace_path, "--output", csv_path, "--json", json_path,
                 "--fixed-points", "4", "--dynamic-points", "4"]
                + argv) == 0
            outputs[tag] = (open(csv_path).read(), open(json_path).read())
        assert outputs["fast"][0] == outputs["columnar"][0]
        assert outputs["columnar"] == outputs["shard4"]

    def test_shards_require_columnar_engine(self, tmp_path):
        trace_path = str(tmp_path / "trace.txt")
        trace_tool.main([trace_path, "--days", "0.02"])
        assert leasesim_tool.main([trace_path, "--shards", "2"]) == 1
        assert leasesim_tool.main([trace_path, "--shards", "0",
                                   "--engine", "columnar"]) == 1


class TestLeasesimJson:
    def test_json_matches_csv_numbers(self, tmp_path):
        trace_path = str(tmp_path / "trace.txt")
        trace_tool.main([trace_path, "--days", "0.05", "--rate", "3.0",
                         "--regular-per-tld", "6", "--cdn", "6",
                         "--dyn", "6"])
        csv_path = str(tmp_path / "curves.csv")
        json_path = str(tmp_path / "curves.json")
        assert leasesim_tool.main([trace_path, "--output", csv_path,
                                   "--json", json_path,
                                   "--fixed-points", "4",
                                   "--dynamic-points", "4"]) == 0
        document = json.loads(open(json_path).read())
        csv_rows = read_csv(csv_path)[1:]
        assert len(document["rows"]) == len(csv_rows)
        for json_row, csv_row in zip(document["rows"], csv_rows):
            assert json_row["scheme"] == csv_row[0]
            # Identical precision: the JSON floats round-trip the CSV's
            # formatted strings.
            assert json_row["parameter"] == float(csv_row[1])
            assert json_row["storage_pct"] == float(csv_row[2])
            assert json_row["query_rate_pct"] == float(csv_row[3])
            assert json_row["grants"] == int(csv_row[4])
            assert json_row["upstream"] == int(csv_row[5])
        readings = document["readings"]
        assert set(readings) == {"query_rate_at_storage_1pct",
                                 "storage_at_query_rate_20pct"}

    def test_json_output_is_byte_stable(self, tmp_path):
        trace_path = str(tmp_path / "trace.txt")
        trace_tool.main([trace_path, "--days", "0.03", "--rate", "3.0",
                         "--regular-per-tld", "4", "--cdn", "4",
                         "--dyn", "4"])
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        argv = [trace_path, "--fixed-points", "3", "--dynamic-points", "3"]
        assert leasesim_tool.main(argv + ["--json", a]) == 0
        assert leasesim_tool.main(argv + ["--json", b]) == 0
        assert open(a).read() == open(b).read()


class TestObsTool:
    def make_trace(self, tmp_path, name="trace.jsonl", rtt=0.25):
        bus = TraceBus()
        emit_dict(bus, "change.detected", t=10.0, seq=1,
                  name="www.example.com.")
        emit_dict(bus, "notify.send", t=10.0, seq=1, cache="10.0.0.2:53")
        emit_dict(bus, "notify.ack", t=10.0 + rtt, seq=1, rtt=rtt)
        emit_dict(bus, "lease.grant", t=1.0, cache="10.0.0.2:53",
                  length=60.0)
        emit_dict(bus, "net.deliver", t=10.0, src="a:1", dst="b:53", size=40)
        path = str(tmp_path / name)
        bus.export_jsonl(path)
        return path

    def test_summarize_tables(self, tmp_path, capsys):
        path = self.make_trace(tmp_path)
        assert obs_tool.main(["summarize", path]) == 0
        output = capsys.readouterr().out
        assert "Event counts" in output
        assert "notify.ack" in output
        assert "consistency_window" in output

    def test_summarize_json_to_file(self, tmp_path):
        path = self.make_trace(tmp_path)
        out = str(tmp_path / "summary.json")
        assert obs_tool.main(["summarize", path, "--json",
                              "--output", out]) == 0
        summary = json.loads(open(out).read())
        assert summary["notify"]["acks"] == 1
        assert summary["notify"]["ack_rtt"]["mean"] == 0.25
        assert summary["changes"]["consistency_window"]["sum"] == 0.25
        assert summary["lease"]["grants"] == 1
        assert summary["net"]["delivered"] == 1

    def test_export_csv(self, tmp_path, capsys):
        path = self.make_trace(tmp_path)
        out = str(tmp_path / "events.csv")
        assert obs_tool.main(["export", path, "--output", out]) == 0
        rows = read_csv(out)
        assert rows[0] == ["t", "event", "details"]
        assert len(rows) == 6  # header + 5 events
        assert rows[1][1] == "change.detected"

    def test_diff_identical_and_differing(self, tmp_path, capsys):
        a = self.make_trace(tmp_path, "a.jsonl", rtt=0.25)
        same = self.make_trace(tmp_path, "same.jsonl", rtt=0.25)
        b = self.make_trace(tmp_path, "b.jsonl", rtt=0.5)
        assert obs_tool.main(["diff", a, same]) == 0
        assert "identical" in capsys.readouterr().out
        assert obs_tool.main(["diff", a, b]) == 1
        output = capsys.readouterr().out
        assert "notify.ack_rtt.mean" in output


class TestObsTail:
    """``repro-obs tail``: incremental verdicts over a growing trace."""

    EVENTS = [
        {"t": 0.0, "event": "lease.grant", "cache": "10.0.0.2:53",
         "name": "www.example.com.", "rrtype": "A", "length": 600.0},
        {"t": 10.0, "event": "change.detected", "seq": 1,
         "zone": "example.com.", "name": "www.example.com.",
         "rrtype": "A", "kind": "update"},
        {"t": 10.0, "event": "notify.send", "seq": 1,
         "cache": "10.0.0.2:53", "name": "www.example.com.",
         "rrtype": "A", "id": 101},
        {"t": 10.2, "event": "notify.ack", "seq": 1,
         "cache": "10.0.0.2:53", "name": "www.example.com.",
         "rrtype": "A", "rtt": 0.2},
        {"t": 10.2, "event": "change.settled", "seq": 1, "window": 0.2,
         "acked": 1, "failed": 0},
        {"t": 20.0, "event": "lease.expire", "cache": "10.0.0.2:53",
         "name": "www.example.com.", "rrtype": "A"},
    ]

    def write_trace(self, tmp_path, records=None, name="tail.jsonl"):
        path = tmp_path / name
        lines = "".join(json.dumps(r) + "\n"
                        for r in (self.EVENTS if records is None
                                  else records))
        path.write_text(lines)
        return str(path)

    def test_follower_never_parses_torn_records(self, tmp_path):
        path = tmp_path / "growing.jsonl"
        whole = [json.dumps(r) + "\n" for r in self.EVENTS]
        follower = obs_tool.TraceFollower(str(path))
        # Two complete records plus the first half of a third.
        path.write_text(whole[0] + whole[1] + whole[2][:20])
        assert [name for _t, name, _f in follower.poll()] \
            == ["lease.grant", "change.detected"]
        # Nothing new: the torn record stays buffered, nothing re-read.
        assert follower.poll() == []
        # Completing the torn line plus one more record yields exactly
        # the two unseen events.
        with open(path, "a") as stream:
            stream.write(whole[2][20:] + whole[3])
        assert [name for _t, name, _f in follower.poll()] \
            == ["notify.send", "notify.ack"]

    def test_one_bad_line_is_one_error_line_and_exit_2(self, tmp_path,
                                                       capsys):
        # A complete line that is not a trace record: tail and the
        # batch subcommands share one parser, so both name the line and
        # exit 2 (the follower used to die with a raw AttributeError).
        whole = [json.dumps(r) + "\n" for r in self.EVENTS]
        path = tmp_path / "bad.jsonl"
        path.write_text("".join(whole[:3]) + "\n[1, 2]\n" + whole[3])
        for argv in (["tail", str(path), "--once"],
                     ["summarize", str(path)],
                     ["--strict", "audit", str(path)]):
            assert obs_tool.main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err == \
                "error: trace line 5: not a JSON object\n"
        # The follower counts lines across polls, blank ones included.
        follower = obs_tool.TraceFollower(str(path))
        path.write_text("".join(whole[:2]))
        assert len(follower.poll()) == 2
        with open(path, "a") as stream:
            stream.write("\n3\n")
        with pytest.raises(ValueError, match="^trace line 4: "):
            follower.poll()

    def test_once_on_clean_trace_exits_zero(self, tmp_path, capsys):
        path = self.write_trace(tmp_path)
        assert obs_tool.main(["tail", path, "--once"]) == 0
        output = capsys.readouterr().out
        assert "events=6" in output
        assert "violations=0" in output
        assert "ok" in output

    def test_json_stream_parses_and_carries_verdict(self, tmp_path,
                                                    capsys):
        path = self.write_trace(tmp_path)
        assert obs_tool.main(["tail", path, "--once", "--json"]) == 0
        lines = [json.loads(line) for line
                 in capsys.readouterr().out.splitlines()]
        assert lines[0]["events"] == 6
        assert lines[0]["window_p95"] is not None
        final = lines[-1]
        assert final["ok"] is True
        assert final["peak_tracked_spans"] >= final["tracked_spans"]

    def test_violation_trace_exits_one(self, tmp_path, capsys):
        records = [dict(self.EVENTS[3], t=1.0)]  # orphan ack
        path = self.write_trace(tmp_path, records)
        assert obs_tool.main(["tail", path, "--once"]) == 1
        assert "causality" in capsys.readouterr().out

    def test_growing_file_accumulates_across_polls(self, tmp_path,
                                                   capsys):
        # Regression for the restart-free follow path: feed the same
        # trace in two chunks through one auditor via --idle-exit.
        path = tmp_path / "grow.jsonl"
        whole = [json.dumps(r) + "\n" for r in self.EVENTS]
        path.write_text("".join(whole[:3]))
        follower = obs_tool.TraceFollower(str(path))
        first = follower.poll()
        with open(path, "a") as stream:
            stream.write("".join(whole[3:]))
        second = follower.poll()
        assert len(first) + len(second) == len(self.EVENTS)
        from repro.obs import IncrementalAuditor
        auditor = IncrementalAuditor()
        auditor.feed_many(first)
        assert not auditor.report().ok  # change still open mid-stream
        auditor.feed_many(second)
        assert auditor.report().ok

    def test_strict_rejects_unknown_events(self, tmp_path, capsys):
        records = [{"t": 0.0, "event": "bogus.event"}]
        path = self.write_trace(tmp_path, records)
        assert obs_tool.main(["--strict", "tail", path, "--once"]) == 2
        assert "bogus.event" in capsys.readouterr().err


class TestProbeTool:
    def test_prints_summary_and_writes_csv(self, tmp_path, capsys):
        out = str(tmp_path / "probe.csv")
        rc = probe_tool.main(["--regular-per-tld", "6", "--cdn", "6",
                              "--dyn", "6", "--max-probes", "120",
                              "--output", out])
        assert rc == 0
        output = capsys.readouterr().out
        assert "DNS dynamics" in output
        rows = read_csv(out)
        assert rows[0][0] == "name"
        assert len(rows) == 1 + 6 * 10 + 6 + 6  # header + population


class TestTestbedTool:
    def test_healthy_run_returns_zero(self, capsys):
        rc = testbed_tool.main(["--zones", "12", "--updates", "3"])
        assert rc == 0
        output = capsys.readouterr().out
        assert "testbed validation" in output
        assert "True" in output

    def test_weak_baseline_runs(self, capsys):
        rc = testbed_tool.main(["--zones", "8", "--updates", "2",
                                "--no-dnscup"])
        assert rc == 0
        output = capsys.readouterr().out
        assert "CACHE-UPDATEs sent" not in output
