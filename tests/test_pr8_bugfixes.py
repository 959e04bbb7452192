"""Regression tests for the concurrency findings of the MOD007/MOD008
triage (PR 8).

Each test pins one fixed bug:

* ``FleetExecutor._latencies`` was touched with no lock — the
  percentile read and the append were only safe by GIL accident
  (single C calls over float elements), an implementation detail the
  code must not lean on.
* ``QueryServer.stop`` called ``wal.sync()`` (a blocking fsync barrier)
  directly on the event loop.
* ``_write`` pushed whole responses into the transport buffer without
  ever awaiting ``writer.drain()`` — no backpressure, so a slow reader
  let the per-session buffer grow without bound.
"""

import socket
import threading

import pytest

from repro.server.executor import FleetExecutor
from repro.server.session import _WRITE_CHUNK, _write, serve_in_thread
from repro.storage.wal import Wal
from repro.temporal.mapping import MovingPoint
from repro.temporal.upoint import UPoint


def _fleet_members(n):
    return [
        MovingPoint([
            UPoint.between(0.0, (float(i), 0.0), 10.0, (float(i), 10.0))
        ])
        for i in range(n)
    ]


# -- executor: latency window under its micro-lock -------------------------


class TestLatencyThreadSafety:
    def test_percentiles_race_append(self):
        """Concurrent record_latency + latency_percentiles never raises.

        Before the fix ``latency_percentiles`` ran
        ``sorted(self._latencies)`` while sessions appended from other
        threads with no lock — safe on today's GIL build only because
        both happen to be single C calls over float elements.  The test
        pins the *contract* (concurrent use is supported) rather than
        the implementation accident.
        """
        ex = FleetExecutor()
        errors = []
        stop = threading.Event()

        def hammer():
            try:
                while not stop.is_set():
                    ex.record_latency(1.0)
            except BaseException as exc:  # pragma: no cover - bug path
                errors.append(exc)

        writers = [threading.Thread(target=hammer) for _ in range(4)]
        for t in writers:
            t.start()
        try:
            for _ in range(300):
                p50, p99 = ex.latency_percentiles()
                assert p50 >= 0.0 and p99 >= 0.0
        finally:
            stop.set()
            for t in writers:
                t.join()
        assert errors == []


# -- server: wal.sync off the event loop -----------------------------------


class TestWalSyncOffLoop:
    def test_stop_syncs_on_a_worker_thread(self, tmp_path):
        """Every wal.sync() during serve/stop runs off the loop thread.

        Before the fix ``QueryServer.stop`` called ``self._wal.sync()``
        inline in the coroutine — a blocking fsync on the event loop.
        """
        wal = Wal(tmp_path / "server.wal")
        sync_threads = []
        real_sync = wal.sync

        def recording_sync():
            sync_threads.append(threading.current_thread())
            return real_sync()

        wal.sync = recording_sync
        ex = FleetExecutor()
        ex.register_fleet("f", _fleet_members(1))
        running = serve_in_thread(ex, wal=wal)
        try:
            from repro.server.client import ServerClient

            with ServerClient("127.0.0.1", running.port) as client:
                client.ingest("f", 0, (10.0, 0.0, 10.0, 11.0, 1.0, 11.0))
        finally:
            running.stop()
        wal.close()
        assert sync_threads, "expected at least one group-commit sync"
        # The loop thread is the server thread; no sync may run there.
        assert all(t is not running._thread for t in sync_threads), (
            "wal.sync() ran on the event-loop thread"
        )


# -- session: backpressure-aware writes ------------------------------------


class _FakeWriter:
    """Records the write/drain interleaving _write produces."""

    def __init__(self):
        self.events = []

    def write(self, data: bytes) -> None:
        self.events.append(("write", data))

    async def drain(self) -> None:
        self.events.append(("drain", None))


class TestWriteBackpressure:
    def test_write_drains_every_chunk(self):
        writer = _FakeWriter()
        lines = [f"ROW {i}" for i in range(int(_WRITE_CHUNK * 2.5))]
        import asyncio

        asyncio.run(_write(writer, lines))
        kinds = [kind for kind, _ in writer.events]
        # write/drain alternate: no unbounded buffering between drains.
        assert kinds == ["write", "drain"] * 3
        payload = b"".join(
            data for kind, data in writer.events if kind == "write"
        )
        assert payload.decode("utf-8").split("\n")[:-1] == lines

    def test_short_response_single_drain(self):
        writer = _FakeWriter()
        import asyncio

        asyncio.run(_write(writer, ["OK", "END"]))
        assert [k for k, _ in writer.events] == ["write", "drain"]

    def test_slow_reader_still_gets_everything(self):
        """A client that stalls mid-response still receives every row.

        The response (thousands of rows) overflows the kernel socket
        buffers, so the session actually parks in ``drain()`` until the
        reader catches up — the bug shape was unbounded buffering; the
        fixed shape is a paused, then resumed, complete response.
        """
        n = 3000
        ex = FleetExecutor()
        ex.register_fleet("f", _fleet_members(n))
        running = serve_in_thread(ex)
        try:
            sock = socket.create_connection(
                ("127.0.0.1", running.port), timeout=30.0
            )
            try:
                sock.sendall(b"SNAPSHOT f 5.0\n")
                # Stall: give the server time to fill every buffer it
                # is (wrongly) willing to fill before we read a byte.
                import time

                time.sleep(0.3)
                chunks = []
                while True:
                    data = sock.recv(65536)
                    assert data, "connection closed mid-response"
                    chunks.append(data)
                    if b"\nEND\n" in b"".join(chunks[-2:]):
                        break
                body = b"".join(chunks).decode("utf-8")
            finally:
                sock.close()
            rows = [ln for ln in body.splitlines() if ln.startswith("ROW ")]
            assert len(rows) == n
            assert body.splitlines()[-1] == "END"
        finally:
            running.stop()
