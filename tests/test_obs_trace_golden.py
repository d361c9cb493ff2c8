"""Golden trace exports: the bus's JSONL bytes are pinned, not just its round trip.

``tests/fixtures/trace_export_golden.json`` holds the SHA-256 and line
count of ``export_jsonl(meta=True)`` for four whole runs — the
500-holder storm of ``test_storm_determinism.py`` (clean at seeds 1 and
3, lossy at seed 1 so ``net.drop`` / ``net.duplicate`` /
``notify.timeout`` appear) and the ``examples/audit_quickstart.py``
scenario — plus ten literal lines covering every event family.  It was
generated from the commit *before* trace records went positional
(``python tests/test_obs_trace_golden.py`` with that commit's ``src``
and the repo root on ``PYTHONPATH`` rewrites it), when ``emit`` took
rendered keyword fields; the positional bus, which renders only at
export, must reproduce every byte.  The same exports then round-trip
through :func:`load_trace_events`, and the schema table the renderer
and the loader share is checked against PROTOCOL.md §9.
"""

import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import pathlib
import re
from unittest import mock

import pytest

from repro.dnslib import Name, RRType
from repro.dnslib import message as message_module
from repro.obs import TraceBus, load_trace_events
from repro.obs import trace as trace_module
from repro.obs.trace import EVENT_NAMES, TRACE_META
from tests import test_storm_determinism as storm

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "fixtures" / "trace_export_golden.json"

WWW = Name.from_text("www.example.com")

#: (event, t, the positional unrendered fields, the rendered keyword
#: fields the parent's ``emit`` was called with): one per literal line.
LITERALS = [
    ("lease.grant", 1.25, (("172.16.0.9", 53), WWW, RRType.A, 3600.0),
     dict(cache="172.16.0.9:53", name="www.example.com.", rrtype="A",
          length=3600.0)),
    ("change.detected", 660.0,
     (3, Name.from_text("example.com"), WWW, RRType.A, "replace"),
     dict(seq=3, zone="example.com.", name="www.example.com.", rrtype="A",
          kind="replace")),
    ("change.settled", 660.5, (3, None, 0, 2),
     dict(seq=3, window=None, acked=0, failed=2)),
    ("notify.retransmit", 660.015,
     (3, ("172.16.0.9", 53), WWW, RRType.A, 4242, 2),
     dict(seq=3, cache="172.16.0.9:53", name="www.example.com.",
          rrtype="A", id=4242, attempt=2)),
    ("notify.ack", 660.0234, (3, ("172.16.0.9", 53), WWW, RRType.A, 0.0234),
     dict(seq=3, cache="172.16.0.9:53", name="www.example.com.",
          rrtype="A", rtt=0.0234)),
    ("net.drop", 660.01, (("10.1.0.1", 53), ("172.16.0.9", 53), 44),
     dict(src="10.1.0.1:53", dst="172.16.0.9:53", size=44)),
    ("renego.refresh", 900.0, (WWW, RRType.AAAA, 7200.0),
     dict(name="www.example.com.", rrtype="AAAA", llt=7200.0)),
    ("push.send", 12.0, (("10.3.0.1", 40001), WWW, RRType.A),
     dict(subscriber="10.3.0.1:40001", name="www.example.com.",
          rrtype="A")),
    ("push.keepalive", 15.0, (7,), dict(count=7)),
    ("load.storm.end", 660.04, ("10.1.0.1:53", 1.5, 100.25, 502, 0.04),
     dict(server="10.1.0.1:53", rate=1.5, peak=100.25, events=502,
          duration=0.04)),
]


def export_text(bus, meta=True):
    out = io.StringIO()
    bus.export_jsonl(out, meta=meta)
    return out.getvalue()


def storm_export(seed, **kwargs):
    """``export_jsonl(meta=True)`` of the observed 500-holder storm."""
    kept = {}

    def keep_bus(obs, now):
        obs.load.detector.close_open(now)
        kept["text"] = export_text(obs.trace)
        return {}

    with mock.patch.object(storm, "SEED", seed), \
            mock.patch.object(storm, "plane_facts", keep_bus):
        storm.run_storm(observed=True, **kwargs)
    return kept["text"]


def quickstart_export(out_dir):
    """The trace ``examples/audit_quickstart.py`` leaves in ``out_dir``."""
    spec = importlib.util.spec_from_file_location(
        "audit_quickstart", ROOT / "examples" / "audit_quickstart.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with contextlib.redirect_stdout(io.StringIO()):
        assert module.main(["audit_quickstart", str(out_dir)]) == 0
    return (pathlib.Path(out_dir) / "trace.jsonl").read_text()


EXPORTS = {
    "storm-clean-seed1": lambda tmp: storm_export(1),
    "storm-clean-seed3": lambda tmp: storm_export(3),
    "storm-lossy-seed1": lambda tmp: storm_export(
        1, loss_rate=0.2, duplicate_rate=0.1),
    "audit-quickstart": quickstart_export,
}


def run_export(name, tmp):
    """One scenario's export, with the process-wide message-id sequence
    restarted so the bytes do not depend on what ran before."""
    with mock.patch.object(message_module, "_id_counter",
                           itertools.count(1)):
        return EXPORTS[name](tmp)


def literal_lines():
    """The ten literal events, exported by whichever bus is imported."""
    bus = TraceBus()
    positional = hasattr(trace_module, "EVENT_FIELDS")
    for event, t, fields, rendered in LITERALS:
        if positional:
            bus.emit(event, t, *fields)
        else:
            bus.emit(event, t=t, **rendered)
    return export_text(bus, meta=False).splitlines()


def digest(text):
    return {"sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "lines": text.count("\n")}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def exports(tmp_path_factory):
    return {name: run_export(name, tmp_path_factory.mktemp(name))
            for name in EXPORTS}


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_export_matches_the_parent_commit(name, exports, golden):
    assert digest(exports[name]) == golden["exports"][name]


def test_the_runs_cover_the_lossy_event_names(exports):
    names = {json.loads(line)["event"]
             for line in exports["storm-lossy-seed1"].splitlines()}
    assert {"net.drop", "net.duplicate", "notify.timeout",
            "trace.meta"} <= names


def test_literal_lines_match_the_parent_commit(golden):
    assert literal_lines() == golden["literals"]
    assert len(golden["literals"]) == 10
    families = {json.loads(line)["event"].split(".")[0]
                for line in golden["literals"]}
    assert families == {name.split(".")[0] for name in EVENT_NAMES}


def reexport(events):
    bus = TraceBus()
    bus.events.extend(events)
    return export_text(bus, meta=False)


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lax"])
@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_loaded_export_reexports_byte_identically(name, strict, exports):
    events = load_trace_events(io.StringIO(exports[name]), strict=strict)
    assert reexport(events) == exports[name]
    assert all(type(fields) is tuple for _t, _name, fields in events)


def test_lax_round_trip_keeps_an_unknown_event_whole(golden):
    text = "\n".join(golden["literals"][:2] + [
        '{"t":2.5,"event":"vendor.custom","zeta":[1,2],"alpha":"x"}',
        '{"t":3.0,"event":"vendor.bare"}']) + "\n"
    events = load_trace_events(io.StringIO(text))
    assert events[2] == (2.5, "vendor.custom",
                         (("alpha", "x"), ("zeta", [1, 2])))
    assert events[3] == (3.0, "vendor.bare", ())
    assert reexport(events) == text.replace(
        '"zeta":[1,2],"alpha":"x"', '"alpha":"x","zeta":[1,2]')
    with pytest.raises(ValueError, match="trace line 3: unknown event"):
        load_trace_events(io.StringIO(text), strict=True)


def test_live_and_loaded_records_are_one_shape(golden):
    bus = TraceBus()
    for event, t, fields, _rendered in LITERALS:
        bus.emit(event, t, *fields)
    loaded = load_trace_events(io.StringIO("\n".join(golden["literals"])))
    for live, (t, name, fields) in zip(bus.events, loaded):
        assert (live[0], live[1]) == (t, name)
        assert len(live[2]) == len(fields) \
            == len(trace_module.EVENT_FIELDS[name])
        assert trace_module.fields_dict(live) == trace_module.fields_dict(
            (t, name, fields))


def protocol_field_table():
    """PROTOCOL.md §9's table: event name -> its field column, in order."""
    section = (ROOT / "PROTOCOL.md").read_text().split("\n## 9.", 1)[1]
    table = {}
    for line in section.split("\n### 9.1", 1)[0].splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) < 3 or not cells[0].startswith("`"):
            continue
        fields = tuple(re.findall(r"`([^`]+)`", cells[1]))
        for event in re.findall(r"`([^`]+)`", cells[0]):
            table[event] = fields
    return table


def test_event_fields_is_the_protocol_table():
    assert set(trace_module.EVENT_FIELDS) == EVENT_NAMES | {TRACE_META}
    assert trace_module.EVENT_FIELDS == protocol_field_table()


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as scratch:
        record = {
            "exports": {name: digest(run_export(name, scratch))
                        for name in sorted(EXPORTS)},
            "literals": literal_lines(),
        }
    FIXTURE.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {len(record['exports'])} export digests and "
          f"{len(record['literals'])} literal lines to {FIXTURE}")
