"""The query service: protocol, snapshot isolation, ingest durability.

Covers the PR-7 subsystem end to end: line-protocol parsing, the
executor's snapshot-isolated reads (a query pinned before an ingest
batch answers bit-identically to the pre-ingest state), the
append-only column extension path (``Mapping.appended``,
``Fleet.changes_since``, ``UnitColumn.extended``, the cache splice, the
store's ``extend_or_save``), WAL group commit + recovery replay, the
two new crash-matrix failpoints, and the live wire behaviour of the
asyncio session layer (including the ColumnCache concurrent-access
regression: two sessions, one mutating ingest).
"""

import asyncio
import os
import re
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro import faults, obs
from repro.errors import InvalidValue, ProtocolError, QueryError
from repro.server.client import ServerClient, ServerError
from repro.server.executor import FleetExecutor
from repro.server.ingest import (
    GroupCommitter,
    IngestRequest,
    commit,
    decode_record,
    encode_record,
    replay_ingest,
)
from repro.server.protocol import (
    err_line,
    ok_line,
    parse_request,
    row_line,
)
from repro.server.session import serve_in_thread
from repro.storage import wal as walmod
from repro.storage.wal import Wal, WalRecord
from repro.temporal.mapping import MovingPoint
from repro.temporal.upoint import UPoint
from repro.vector.cache import Fleet, clear_cache, column_for_versioned
from repro.vector.columns import BBoxColumn, UPointColumn
from repro.vector.store import ColumnStore, clear_store, set_store
from repro.workloads.trajectories import FlightGenerator


@pytest.fixture(autouse=True)
def _clean_slate():
    faults.disarm()
    faults.reset_fired()
    clear_store()
    clear_cache()
    yield
    faults.disarm()
    faults.reset_fired()
    clear_store()
    clear_cache()


def _mappings(n: int, seed: int = 7, legs: int = 3):
    gen = FlightGenerator(seed=seed)
    return [gen.flight(legs=legs) for _ in range(n)]


def _unit(t0, x0, y0, t1, x1, y1, **kw):
    return UPoint.between(t0, (x0, y0), t1, (x1, y1), **kw)


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_query_keeps_sql_verbatim(self):
        req = parse_request("QUERY SELECT id FROM planes;\n")
        assert req.command == "QUERY"
        assert req.sql == "SELECT id FROM planes;"

    def test_lowercase_command_accepted(self):
        assert parse_request("stats").command == "STATS"

    def test_ingest_parses_all_fields(self):
        req = parse_request("INGEST fleet 3 0.0 1 2 5.0 3 4")
        assert (req.fleet, req.obj) == ("fleet", 3)
        assert req.unit == (0.0, 1.0, 2.0, 5.0, 3.0, 4.0)

    def test_snapshot_with_window(self):
        req = parse_request("SNAPSHOT fleet 12.5 0 0 10 10")
        assert req.t == 12.5
        assert req.window == (0.0, 0.0, 10.0, 10.0)

    @pytest.mark.parametrize("line", [
        "",
        "FROB x",
        "QUERY",
        "EXPLAIN   ",
        "INGEST fleet 1 2 3",
        "INGEST fleet -1 0 0 0 1 1 1",
        "INGEST fleet one 0 0 0 1 1 1",
        "INGEST fleet 1 a 0 0 1 1 1",
        "SNAPSHOT fleet",
        "SNAPSHOT fleet 1 2 3",
        "SNAPSHOT fleet 1 9 9 0 0",
        "STATS now",
        "CLOSE please",
    ])
    def test_malformed_lines_raise_protocol_error(self, line):
        with pytest.raises(ProtocolError):
            parse_request(line)

    def test_response_framing_is_single_line(self):
        assert ok_line(rows=2) == "OK rows=2"
        assert row_line(obj=1, x=2.5) == "ROW obj=1\tx=2.5"
        err = err_line(QueryError("no\nsuch\tfleet"))
        assert err == "ERR QueryError no such fleet"
        assert "\n" not in err


# ---------------------------------------------------------------------------
# the append-only mutation path
# ---------------------------------------------------------------------------


class TestMappingAppended:
    def test_tail_append_matches_full_rebuild(self):
        m = _mappings(1)[0]
        u = _unit(1e6, 0, 0, 1e6 + 5, 1, 1)
        grown = m.appended(u)
        rebuilt = MovingPoint(list(m.units) + [u])
        assert len(grown.units) == len(m.units) + 1
        assert [w.interval for w in grown.units] == \
               [w.interval for w in rebuilt.units]
        # The original is untouched: a new slice, never a mutation.
        assert len(m.units) == len(grown.units) - 1

    def test_out_of_order_unit_falls_back_to_full_validation(self):
        a = _unit(0.0, 0, 0, 1.0, 1, 1, rc=False)
        c = _unit(4.0, 2, 2, 5.0, 3, 3)
        m = MovingPoint([a, c])
        b = _unit(2.0, 1, 1, 3.0, 2, 2, rc=False)
        grown = m.appended(b)
        assert [u.interval.s for u in grown.units] == [0.0, 2.0, 4.0]

    def test_overlapping_append_rejected(self):
        m = MovingPoint([_unit(0.0, 0, 0, 4.0, 1, 1)])
        with pytest.raises(InvalidValue):
            m.appended(_unit(2.0, 0, 0, 6.0, 1, 1))


class TestFleetChangelog:
    def test_setitem_is_tracked(self):
        fleet = Fleet(_mappings(4))
        v = fleet.version
        fleet[2] = fleet[2].appended(_unit(1e6, 0, 0, 1e6 + 1, 1, 1))
        assert fleet.changes_since(v) == {2}
        assert fleet.changes_since(fleet.version) == set()

    def test_tail_append_is_tracked(self):
        fleet = Fleet(_mappings(3))
        v = fleet.version
        fleet.append(_mappings(1, seed=9)[0])
        assert fleet.changes_since(v) == {3}

    def test_structural_mutation_forces_rebuild(self):
        fleet = Fleet(_mappings(3))
        v = fleet.version
        del fleet[0]
        assert fleet.changes_since(v) is None

    def test_unknown_versions_force_rebuild(self):
        fleet = Fleet(_mappings(2))
        assert fleet.changes_since(fleet.version + 1) is None
        assert fleet.changes_since(-50) is None


class TestColumnExtended:
    def test_upoint_extension_bit_identical(self):
        mappings = _mappings(5)
        col = UPointColumn.from_mappings(mappings)
        new = list(mappings)
        new[1] = new[1].appended(_unit(1e6, 0, 0, 1e6 + 5, 1, 1))
        new[4] = new[4].appended(_unit(2e6, 3, 3, 2e6 + 5, 4, 4))
        ext = col.extended(new, {1, 4})
        ref = UPointColumn.from_mappings(new)
        for f in ("offsets", "starts", "ends", "lc", "rc",
                  "x0", "x1", "y0", "y1"):
            assert np.array_equal(getattr(ext, f), getattr(ref, f)), f

    def test_bbox_extension_bit_identical(self):
        mappings = _mappings(4)
        col = BBoxColumn.from_mappings(mappings)
        new = list(mappings)
        new[0] = new[0].appended(_unit(1e6, 9, 9, 1e6 + 2, 10, 10))
        ext = col.extended(new, {0})
        ref = BBoxColumn.from_mappings(new)
        for f in ("xmin", "ymin", "tmin", "xmax", "ymax", "tmax"):
            assert np.array_equal(getattr(ext, f), getattr(ref, f)), f

    def test_extension_rejects_unlisted_growth(self):
        mappings = _mappings(3)
        col = UPointColumn.from_mappings(mappings)
        new = list(mappings) + [_mappings(1, seed=5)[0]]
        with pytest.raises(InvalidValue):
            col.extended(new, {0})  # object 3 appeared but is not listed

    def test_cache_splices_forward_on_ingest(self):
        fleet = Fleet(_mappings(4))
        _, before = column_for_versioned(fleet, "upoint")
        obs.reset()
        obs.enable()
        try:
            fleet[2] = fleet[2].appended(_unit(1e6, 0, 0, 1e6 + 5, 1, 1))
            version, after = column_for_versioned(fleet, "upoint")
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
        assert version == fleet.version
        assert counters.get("colcache.extended") == 1
        assert "colcache.invalidations" not in counters
        ref = UPointColumn.from_mappings(list(fleet))
        assert np.array_equal(after.offsets, ref.offsets)
        assert np.array_equal(after.x0, ref.x0)


class TestStoreExtension:
    def test_tail_extension_appends_in_place(self, tmp_path):
        mappings = _mappings(4)
        store = ColumnStore(tmp_path)
        col = UPointColumn.from_mappings(mappings)
        store.save("upoint", col, n_objects=len(mappings))
        new = list(mappings)
        new[3] = new[3].appended(_unit(1e6, 0, 0, 1e6 + 5, 1, 1))
        obs.reset()
        obs.enable()
        try:
            out = store.extend_or_save(
                "upoint", UPointColumn.from_mappings(new), min_changed=3,
                n_objects=len(new),
            )
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
        assert counters.get("colstore.extends") == 1
        assert "colstore.rewrites" not in counters
        ref = UPointColumn.from_mappings(new)
        assert np.array_equal(np.asarray(out.x0), ref.x0)
        store.verify("upoint")
        # A reopened process reads the extended bytes.
        assert np.array_equal(
            np.asarray(ColumnStore(tmp_path).load("upoint").x0), ref.x0
        )

    def test_missing_kind_falls_back_to_full_save(self, tmp_path):
        mappings = _mappings(3)
        store = ColumnStore(tmp_path)
        obs.reset()
        obs.enable()
        try:
            store.extend_or_save(
                "upoint", UPointColumn.from_mappings(mappings),
                min_changed=0, n_objects=len(mappings),
            )
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
        assert counters.get("colstore.rewrites") == 1
        store.verify("upoint")

    def test_pinned_memmap_views_survive_extension(self, tmp_path):
        mappings = _mappings(4)
        set_store(tmp_path)
        fleet = Fleet(mappings)
        _, pinned = column_for_versioned(fleet, "upoint")
        assert pinned.source is not None  # actually memory-mapped
        frozen = np.array(pinned.x0)
        # Tail ingest (pure append) and mid-fleet ingest (rename path).
        fleet[3] = fleet[3].appended(_unit(1e6, 0, 0, 1e6 + 5, 1, 1))
        column_for_versioned(fleet, "upoint")
        fleet[1] = fleet[1].appended(_unit(2e6, 0, 0, 2e6 + 5, 1, 1))
        _, latest = column_for_versioned(fleet, "upoint")
        assert np.array_equal(np.array(pinned.x0), frozen)
        ref = UPointColumn.from_mappings(list(fleet))
        assert np.array_equal(np.asarray(latest.x0), ref.x0)


# ---------------------------------------------------------------------------
# executor: snapshot isolation
# ---------------------------------------------------------------------------


class TestExecutorIsolation:
    def test_pinned_snapshot_is_bit_identical_across_ingest(self):
        ex = FleetExecutor()
        fleet = ex.register_fleet("fleet", _mappings(6))
        t_future = 1e6 + 4.0
        _, rows_before = ex.snapshot_rows("fleet", t_future)
        assert rows_before == []  # nothing defined out there yet

        # A query "starts": its snapshot pins version + members.
        snap = ex.snapshot("fleet")
        pre_column = UPointColumn.from_mappings(list(snap.items))

        # An ingest batch lands while that query is in flight.
        commit(None, ex, [
            IngestRequest("fleet", 0, (1e6, 0, 0, 1e6 + 8, 1, 1)),
            IngestRequest("fleet", 2, (1e6, 5, 5, 1e6 + 8, 6, 6)),
        ])

        # The pinned column still describes the pre-ingest fleet, byte
        # for byte, even though the live fleet moved on.
        col = ex._pinned_column(fleet, snap, "upoint")
        for f in ("offsets", "starts", "x0", "y0"):
            assert np.array_equal(
                np.asarray(getattr(col, f)), getattr(pre_column, f)
            ), f

        # A query started *after* the batch sees every new unit.
        _, rows_after = ex.snapshot_rows("fleet", t_future)
        assert sorted(i for i, _, _ in rows_after) == [0, 2]

    def test_snapshot_rows_window_filter(self):
        ex = FleetExecutor()
        ex.register_fleet("fleet", _mappings(1))
        commit(None, ex, [
            IngestRequest("fleet", 0, (1e6, 0, 0, 1e6 + 10, 0, 0)),
            IngestRequest("fleet", 0, (2e6, 100, 100, 2e6 + 10, 100, 100)),
        ])
        _, hit = ex.snapshot_rows("fleet", 1e6 + 5, window=(-1, -1, 1, 1))
        _, miss = ex.snapshot_rows("fleet", 1e6 + 5, window=(50, 50, 60, 60))
        assert [i for i, _, _ in hit] == [0]
        assert miss == []

    def test_ingest_continuation_closes_left_boundary(self):
        ex = FleetExecutor()
        ex.register_fleet("fleet", [MovingPoint([_unit(0, 0, 0, 10, 1, 1)])])
        # A different heading, so the slices stay distinct units.
        results = commit(
            None, ex, [IngestRequest("fleet", 0, (10, 1, 1, 20, 5, 5))]
        )
        assert results == [2]
        units = ex.fleet("fleet")[0].units
        assert units[1].interval.lc is False  # prior slice owns t=10

    def test_ingest_same_heading_continuation_rejected_as_typed_error(self):
        # Appending a slice that linearly extends the last one violates
        # the mapping's minimality invariant — a typed, per-request
        # rejection, not a server failure.
        ex = FleetExecutor()
        ex.register_fleet("fleet", [MovingPoint([_unit(0, 0, 0, 10, 1, 1)])])
        results = commit(
            None, ex, [IngestRequest("fleet", 0, (10, 1, 1, 20, 2, 2))]
        )
        assert isinstance(results[0], InvalidValue)
        assert len(ex.fleet("fleet")[0].units) == 1

    def test_ingest_past_end_rejected_others_land(self):
        ex = FleetExecutor()
        ex.register_fleet("fleet", _mappings(2))
        results = commit(None, ex, [
            IngestRequest("fleet", 7, (1e6, 0, 0, 1e6 + 1, 1, 1)),
            IngestRequest("fleet", 2, (1e6, 0, 0, 1e6 + 1, 1, 1)),  # append
        ])
        assert isinstance(results[0], InvalidValue)
        assert results[1] == 1
        assert len(ex.fleet("fleet")) == 3

    def test_unknown_fleet_is_a_query_error(self):
        with pytest.raises(QueryError):
            FleetExecutor().snapshot_rows("ghost", 0.0)


# ---------------------------------------------------------------------------
# WAL group commit + replay
# ---------------------------------------------------------------------------


class TestIngestDurability:
    def test_record_round_trip(self):
        req = IngestRequest("fleet", 3, (0.5, 1.0, 2.0, 9.5, 3.0, 4.0))
        scope, payload = encode_record(req)
        assert scope == "fleet:fleet"
        rec = WalRecord(walmod.INGEST, scope, payload)
        assert decode_record(rec) == req

    def test_batch_is_one_sync(self):
        ex = FleetExecutor()
        ex.register_fleet("fleet", _mappings(3))
        wal = Wal()
        batch = [
            IngestRequest("fleet", i, (1e6, 0, 0, 1e6 + 5, 1, 1))
            for i in range(3)
        ]
        obs.reset()
        obs.enable()
        try:
            commit(wal, ex, batch)
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
        assert counters.get("ingest.group_commits") == 1
        assert counters.get("ingest.units") == 3
        assert sum(
            1 for r in wal.records() if r.rec_type == walmod.INGEST
        ) == 3

    def test_replay_restores_exactly_the_durable_prefix(self):
        baseline = _mappings(3)
        ex = FleetExecutor()
        ex.register_fleet("fleet", baseline)
        wal = Wal()
        commit(wal, ex, [IngestRequest("fleet", 1, (1e6, 0, 0, 1e6 + 5, 1, 1))])
        # A buffered-but-unsynced record must not survive "the crash".
        scope, payload = encode_record(
            IngestRequest("fleet", 0, (2e6, 0, 0, 2e6 + 5, 1, 1))
        )
        wal.append(walmod.INGEST, payload, scope=scope)
        wal.crash()

        ex2 = FleetExecutor()
        fleet2 = ex2.register_fleet("fleet", baseline)
        assert replay_ingest(wal, ex2) == 1
        assert [len(m.units) for m in fleet2] == \
               [len(m.units) + (1 if i == 1 else 0)
                for i, m in enumerate(baseline)]

    def test_group_committer_batches_concurrent_submits(self):
        ex = FleetExecutor()
        ex.register_fleet("fleet", _mappings(4))
        wal = Wal()

        async def drive():
            committer = GroupCommitter(wal, ex, max_batch=64, max_delay=0.02)
            results = await asyncio.gather(*[
                committer.submit(IngestRequest(
                    "fleet", i % 4,
                    (1e6 + 20.0 * (i // 4), 0, 0,
                     1e6 + 20.0 * (i // 4) + 10.0, 1, 1),
                ))
                for i in range(12)
            ])
            await committer.stop()
            return results

        obs.reset()
        obs.enable()
        try:
            results = asyncio.run(drive())
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
        assert all(isinstance(r, int) for r in results)
        assert counters.get("ingest.units") == 12
        # Coalesced: far fewer durability barriers than requests.
        assert 1 <= counters.get("ingest.group_commits") < 12

    def test_crash_matrix_covers_both_ingest_failpoints(self):
        from repro.storage.crashmatrix import format_matrix, run_crash_matrix

        for name in ("wal.group_commit_crash", "server.ingest_crash"):
            entries = run_crash_matrix(seed=4, only=name)
            assert len(entries) == 1 and entries[0].ok, \
                format_matrix(entries)

    def test_crash_matrix_should_stop_halts_cleanly(self):
        from repro.storage.crashmatrix import run_crash_matrix

        assert run_crash_matrix(seed=4, should_stop=lambda: True) == []


# ---------------------------------------------------------------------------
# concurrency: two sessions, one mutating ingest
# ---------------------------------------------------------------------------


class TestConcurrency:
    def test_column_cache_concurrent_reads_during_ingest(self):
        """Regression: unlocked cache access could pair a version stamp
        with another version's bytes mid-extension."""
        fleet = Fleet(_mappings(6))
        errors = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    _, col = column_for_versioned(fleet, "upoint")
                    n = len(col.offsets) - 1
                    if n != col.n_objects or len(col.x0) != col.offsets[-1]:
                        errors.append("inconsistent column served")
                except Exception as exc:  # pragma: no cover - the failure
                    errors.append(repr(exc))

        readers = [threading.Thread(target=reader) for _ in range(2)]
        for th in readers:
            th.start()
        try:
            for k in range(60):
                i = k % len(fleet)
                t0 = 1e6 + 20.0 * (k // len(fleet))
                fleet[i] = fleet[i].appended(
                    _unit(t0, 0, 0, t0 + 10.0, 1, 1)
                )
        finally:
            stop.set()
            for th in readers:
                th.join(timeout=10)
        assert errors == []
        _, final = column_for_versioned(fleet, "upoint")
        ref = UPointColumn.from_mappings(list(fleet))
        assert np.array_equal(np.asarray(final.offsets), ref.offsets)

    def test_two_wire_sessions_one_ingesting(self):
        ex = FleetExecutor()
        ex.register_fleet("fleet", _mappings(4))
        run = serve_in_thread(ex)
        errors = []
        try:
            def ingester():
                try:
                    with ServerClient("127.0.0.1", run.port) as c:
                        for k in range(30):
                            t0 = 1e6 + 20.0 * (k // 4)
                            c.ingest("fleet", k % 4,
                                     (t0, 0, 0, t0 + 10.0, 1, 1))
                except Exception as exc:  # pragma: no cover
                    errors.append(repr(exc))

            th = threading.Thread(target=ingester)
            th.start()
            with ServerClient("127.0.0.1", run.port) as c:
                last_version = -1
                while th.is_alive():
                    reply = c.snapshot("fleet", 60.0)
                    version = int(reply.fields["version"])
                    assert version >= last_version
                    last_version = version
            th.join(timeout=20)
        finally:
            run.stop()
        assert errors == []
        assert sum(len(m.units) for m in ex.fleet("fleet")) == \
               sum(len(m.units) for m in _mappings(4)) + 30


# ---------------------------------------------------------------------------
# the wire
# ---------------------------------------------------------------------------


class TestWire:
    @pytest.fixture()
    def server(self):
        ex = FleetExecutor()
        ex.register_fleet("fleet", _mappings(4))
        run = serve_in_thread(ex)
        yield run
        run.stop()

    def test_error_does_not_tear_session_down(self, server):
        with ServerClient("127.0.0.1", server.port) as c:
            with pytest.raises(ServerError, match="unknown command"):
                c.request("FROB 1")
            with pytest.raises(ServerError) as exc_info:
                c.snapshot("ghost", 0.0)
            assert exc_info.value.remote_type == "QueryError"
            assert len(c.snapshot("fleet", 60.0).rows) == 4  # still alive

    def test_query_and_explain_over_the_wire(self, server):
        with ServerClient("127.0.0.1", server.port) as c:
            c.query("CREATE TABLE planes (id string, flight mpoint);")
            c.query("INSERT INTO planes VALUES "
                    "('LH1', 'MPOINT ([0 10] 0 1 0 0)');")
            rows = c.query("SELECT id FROM planes;").rows
            assert rows == [{"id": "LH1"}]
            plan = c.explain("SELECT id FROM planes;")
            assert any(ln.startswith("PLAN") for ln in plan.lines)

    def test_stats_exposes_fleet_and_latency(self, server):
        with ServerClient("127.0.0.1", server.port) as c:
            c.snapshot("fleet", 60.0)
            stats = c.stats()
            assert stats.stat("fleet.fleet.objects") == "4"
            assert stats.stat("query_p50_ms") is not None

    def test_wire_snapshot_isolation_versions(self, server):
        with ServerClient("127.0.0.1", server.port) as c:
            before = c.snapshot("fleet", 1e6 + 5)
            assert before.rows == []
            c.ingest("fleet", 0, (1e6, 0, 0, 1e6 + 10, 1, 1))
            after = c.snapshot("fleet", 1e6 + 5)
            assert int(after.fields["version"]) > \
                   int(before.fields["version"])
            assert len(after.rows) == 1


class TestDeadlineReleasesExecutor:
    #: The Section-2 Q2 self-join: quadratic in |planes|, each pair
    #: paying for a lifted distance and its minimum.
    Q2 = (
        "SELECT p.id AS pid, q.id AS qid FROM planes p, planes q "
        "WHERE p.id < q.id "
        "AND val(initial(atmin(distance(p.flight, q.flight)))) < 500"
    )

    def test_expired_query_stops_holding_the_executor(self):
        """An expired QUERY must stop running, not only answer ERR.

        The script holds the executor lock, so a STATS sent after the
        ``ERR DeadlineExceeded`` would otherwise wait out the whole
        cross product (seconds at 128 planes) instead of answering
        within one outer row of the join.
        """
        ex = FleetExecutor()
        ex.register_fleet("fleet", _mappings(2))
        planes = ex.db.create_relation(
            "planes", [("id", "string"), ("flight", "mpoint")]
        )
        for i, m in enumerate(_mappings(128, seed=11, legs=6)):
            planes.insert([f"F{i:04d}", m])
        running = serve_in_thread(ex)
        try:
            with ServerClient(
                "127.0.0.1", running.port, max_retries=0
            ) as c:
                with pytest.raises(ServerError) as exc_info:
                    c.query(self.Q2, deadline_ms=200.0)
                assert exc_info.value.remote_type == "DeadlineExceeded"
                tic = time.monotonic()
                stats = c.stats()
                waited = time.monotonic() - tic
            assert stats.stat("fleet.fleet.objects") == "2"
        finally:
            running.stop()
        assert waited < 1.0, f"STATS waited {waited:.2f}s behind the query"


# ---------------------------------------------------------------------------
# the serve command: signals, drain, WAL replay across restarts
# ---------------------------------------------------------------------------


class TestServeCommand:
    def _spawn(self, walpath):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath("src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--objects", "3",
             "--wal", str(walpath)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        boot = proc.stdout.readline()
        port = int(re.search(r":(\d+),", boot).group(1))
        return proc, boot, port

    @pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM])
    def test_signal_drains_and_exits_zero(self, tmp_path, sig):
        proc, boot, port = self._spawn(tmp_path / "serve.wal")
        try:
            with ServerClient("127.0.0.1", port) as c:
                c.ingest("fleet", 0, (1e6, 0, 0, 1e6 + 9, 2, 2))
            proc.send_signal(sig)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup only
                proc.kill()
        assert proc.returncode == 0
        assert "drained cleanly" in out
        assert "WAL synced" in out

        # Restart: the ingested unit comes back via WAL replay.
        proc2, boot2, _ = self._spawn(tmp_path / "serve.wal")
        try:
            assert "1 ingested unit(s) replayed" in boot2
            proc2.send_signal(signal.SIGTERM)
            out2, _ = proc2.communicate(timeout=30)
        finally:
            if proc2.poll() is None:  # pragma: no cover - cleanup only
                proc2.kill()
        assert proc2.returncode == 0
