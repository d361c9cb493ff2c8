"""Tests for leases and the track file."""

import io

import pytest

from repro.core import Lease, LeaseTable, load_track_file, save_track_file
from repro.dnslib import Name, RRType

CACHE_A = ("10.2.0.1", 53)
CACHE_B = ("10.2.0.2", 53)


@pytest.fixture
def table():
    return LeaseTable()


class TestLease:
    def test_expiry(self):
        lease = Lease(CACHE_A, Name.from_text("w.x.com"), RRType.A, 100.0, 50.0)
        assert lease.expires_at == 150.0
        assert lease.is_valid(149.0)
        assert not lease.is_valid(150.0)
        assert lease.remaining(120.0) == 30.0
        assert lease.remaining(200.0) == 0.0


class TestGrantRenewRevoke:
    def test_grant_and_holders(self, table):
        table.grant(CACHE_A, "w.x.com", RRType.A, now=0.0, length=100.0)
        holders = table.holders("w.x.com", RRType.A, now=50.0)
        assert [h.cache for h in holders] == [CACHE_A]

    def test_expired_not_in_holders(self, table):
        table.grant(CACHE_A, "w.x.com", RRType.A, now=0.0, length=100.0)
        assert table.holders("w.x.com", RRType.A, now=100.0) == []

    def test_renewal_updates_existing(self, table):
        table.grant(CACHE_A, "w.x.com", RRType.A, now=0.0, length=100.0)
        table.grant(CACHE_A, "w.x.com", RRType.A, now=50.0, length=100.0)
        assert len(table) == 1
        assert table.stats.renewals == 1
        lease = table.get(CACHE_A, "w.x.com", RRType.A)
        assert lease.expires_at == 150.0

    def test_regrant_after_expiry_counts_as_grant(self, table):
        table.grant(CACHE_A, "w.x.com", RRType.A, now=0.0, length=10.0)
        table.grant(CACHE_A, "w.x.com", RRType.A, now=20.0, length=10.0)
        assert table.stats.grants == 2
        assert table.stats.renewals == 0
        assert table.stats.expirations == 1
        assert len(table) == 1

    def test_multiple_caches_per_record(self, table):
        table.grant(CACHE_A, "w.x.com", RRType.A, now=0.0, length=100.0)
        table.grant(CACHE_B, "w.x.com", RRType.A, now=0.0, length=100.0)
        assert len(table.holders("w.x.com", RRType.A, now=1.0)) == 2

    def test_revoke(self, table):
        table.grant(CACHE_A, "w.x.com", RRType.A, now=0.0, length=100.0)
        assert table.revoke(CACHE_A, "w.x.com", RRType.A)
        assert not table.revoke(CACHE_A, "w.x.com", RRType.A)
        assert len(table) == 0
        assert table.stats.revocations == 1

    def test_nonpositive_length_rejected(self, table):
        with pytest.raises(ValueError):
            table.grant(CACHE_A, "w.x.com", RRType.A, now=0.0, length=0.0)

    def test_leases_of_cache(self, table):
        table.grant(CACHE_A, "a.x.com", RRType.A, now=0.0, length=100.0)
        table.grant(CACHE_A, "b.x.com", RRType.A, now=0.0, length=100.0)
        table.grant(CACHE_B, "a.x.com", RRType.A, now=0.0, length=100.0)
        names = {lease.name.to_text() for lease in table.leases_of(CACHE_A, 1.0)}
        assert names == {"a.x.com.", "b.x.com."}

    def test_leases_of_skips_expired_but_records_stay_tracked(self, table):
        table.grant(CACHE_A, "a.x.com", RRType.A, now=0.0, length=100.0)
        table.grant(CACHE_A, "b.x.com", RRType.A, now=0.0, length=10.0)
        held = table.leases_of(CACHE_A, now=50.0)
        assert [lease.name for lease in held] == [Name.from_text("a.x.com")]
        # Unswept, the expired lease's record is still in the track file.
        assert set(table.tracked_records()) == {
            (Name.from_text("a.x.com"), RRType.A),
            (Name.from_text("b.x.com"), RRType.A)}


class TestCapacity:
    def test_capacity_enforced(self):
        table = LeaseTable(capacity=2)
        assert table.grant(CACHE_A, "a.x.com", RRType.A, 0.0, 100.0)
        assert table.grant(CACHE_A, "b.x.com", RRType.A, 0.0, 100.0)
        assert table.grant(CACHE_A, "c.x.com", RRType.A, 0.0, 100.0) is None

    def test_capacity_reclaims_expired(self):
        table = LeaseTable(capacity=1)
        table.grant(CACHE_A, "a.x.com", RRType.A, 0.0, 10.0)
        # a's lease is dead by now=20; grant should sweep and succeed.
        assert table.grant(CACHE_A, "b.x.com", RRType.A, 20.0, 10.0)

    def test_renewal_exempt_from_capacity(self):
        table = LeaseTable(capacity=1)
        table.grant(CACHE_A, "a.x.com", RRType.A, 0.0, 100.0)
        assert table.grant(CACHE_A, "a.x.com", RRType.A, 1.0, 100.0)

    def test_emergency_sweep_does_not_orphan_new_record(self):
        # Regression: granting a *new* record at capacity triggers an
        # emergency sweep, which used to delete the freshly created
        # (empty) holders dict out from under the grant — the lease then
        # counted against capacity but was invisible to holders().
        table = LeaseTable(capacity=1)
        table.grant(CACHE_A, "a.x.com", RRType.A, 0.0, 10.0)
        lease = table.grant(CACHE_A, "b.x.com", RRType.A, 20.0, 10.0)
        assert lease is not None
        holders = table.holders("b.x.com", RRType.A, now=21.0)
        assert [h.cache for h in holders] == [CACHE_A]
        assert table.active_count(21.0) == 1 == len(table)


class TestSweepAndCounts:
    def test_sweep_removes_expired(self, table):
        table.grant(CACHE_A, "a.x.com", RRType.A, 0.0, 10.0)
        table.grant(CACHE_A, "b.x.com", RRType.A, 0.0, 1000.0)
        assert table.sweep(now=50.0) == 1
        assert len(table) == 1
        assert table.stats.expirations == 1

    def test_active_count_with_now(self, table):
        table.grant(CACHE_A, "a.x.com", RRType.A, 0.0, 10.0)
        table.grant(CACHE_A, "b.x.com", RRType.A, 0.0, 1000.0)
        assert table.active_count() == 2          # unswept
        assert table.active_count(now=50.0) == 1  # time-aware

    def test_peak_active(self, table):
        for index in range(5):
            table.grant(CACHE_A, f"d{index}.x.com", RRType.A, 0.0, 100.0)
        assert table.stats.peak_active == 5

    def test_tracked_records(self, table):
        table.grant(CACHE_A, "a.x.com", RRType.A, 0.0, 100.0)
        table.grant(CACHE_B, "a.x.com", RRType.A, 0.0, 100.0)
        assert len(table.tracked_records()) == 1


class TestTrackFilePersistence:
    def test_roundtrip(self, table):
        table.grant(CACHE_A, "a.x.com", RRType.A, 5.0, 100.0)
        table.grant(CACHE_B, "b.x.com", RRType.NS, 6.0, 200.0)
        buffer = io.StringIO()
        assert save_track_file(table, buffer) == 2
        buffer.seek(0)
        loaded = load_track_file(buffer)
        assert len(loaded) == 2
        lease = loaded.get(CACHE_B, "b.x.com", RRType.NS)
        assert lease is not None
        assert lease.granted_at == 6.0 and lease.length == 200.0

    def test_file_roundtrip(self, table, tmp_path):
        table.grant(CACHE_A, "a.x.com", RRType.A, 5.0, 100.0)
        path = str(tmp_path / "track.db")
        save_track_file(table, path)
        loaded = load_track_file(path)
        assert loaded.get(CACHE_A, "a.x.com", RRType.A) is not None

    def test_header_and_comments_skipped(self):
        text = ("# comment\n\n"
                "10.2.0.1 53 a.x.com. A 5.0 100.0\n")
        loaded = load_track_file(io.StringIO(text))
        assert len(loaded) == 1

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            load_track_file(io.StringIO("only three fields here\n"))
