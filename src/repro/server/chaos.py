"""The live chaos matrix: degrade a *running* query service, prove recovery.

The storage crash matrix (:mod:`repro.storage.crashmatrix`) kills a
process mid-mutation and checks what recovery finds on disk.  This
module is its live twin: a real :class:`QueryServer` on a real socket,
concurrent query + ingest traffic, and the degradation failpoints fired
*while the service runs* —

* ``server.conn_drop``          — responses vanish after the work is done,
* ``server.slow_client``        — one session's writes stall mid-response,
* ``ingest.dup_send``           — an acked INGEST is delivered twice,
* ``shard.evict_during_query``  — every resident shard is evicted
  mid-scatter,

plus an overload scenario that saturates admission control.  Every
scenario asserts the same resilience contract: client-visible failures
are absorbed by bounded retries, snapshot reads are never torn (a
pinned instant reads byte-identical before, during, and after the
chaos), ingest lands exactly once per sequence token, and the server
recovers to healthy ``STATS`` once the fault is disarmed.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Tuple

from repro import faults, obs
from repro.server.client import ServerClient
from repro.server.executor import FleetExecutor
from repro.server.session import RunningServer, serve_in_thread
from repro.storage.crashmatrix import MatrixEntry, format_matrix
from repro.temporal.mapping import MovingPoint
from repro.temporal.upoint import UPoint

__all__ = ["SCENARIOS", "format_matrix", "run_chaos_matrix"]

#: Fleet served during the chaos runs.
FLEET = "fleet"
N_OBJECTS = 48

#: The torn-read probe instant.  Chaos-time ingest appends units at
#: t >= INGEST_T0 only, so the fleet's state at PROBE_T is immutable
#: for the whole run — any two probes that differ are a torn read.
PROBE_T = 5.0
INGEST_T0 = 1.0e6


def _track(seed: int, idx: int) -> MovingPoint:
    """A deterministic moving point defined across ``PROBE_T``."""
    units = []
    pos = (float((seed + idx) % 89), float((seed * 7 + idx) % 53))
    for k in range(4):
        t0, t1 = k * 3.0, k * 3.0 + 2.5
        nxt = (pos[0] + 1.0 + (seed + idx + k) % 5, pos[1] + 0.5 + k % 3)
        units.append(UPoint.between(t0, pos, t1, nxt, rc=False))
        pos = nxt
    return MovingPoint(units)


def _serve(seed: int, **kwargs: object) -> Tuple[RunningServer, int]:
    """A running server over a fresh deterministic fleet.

    Returns ``(running, baseline_units)`` — the unit total before any
    chaos-time ingest, the anchor for the exactly-once assertion.
    """
    ex = FleetExecutor()
    mappings = [_track(seed, i) for i in range(N_OBJECTS)]
    ex.register_fleet(FLEET, mappings)
    running = serve_in_thread(ex, **kwargs)
    return running, sum(len(m.units) for m in mappings)


def _probe_digest(client: ServerClient) -> Tuple[Tuple[str, str, str], ...]:
    """The wire-level digest of the fleet at the probe instant."""
    reply = client.snapshot(FLEET, PROBE_T)
    return tuple(
        (row.get("obj", ""), row.get("x", ""), row.get("y", ""))
        for row in reply.rows
    )


class _Traffic:
    """Concurrent query + ingest clients hammering one server."""

    def __init__(
        self,
        port: int,
        baseline: Tuple[Tuple[str, str, str], ...],
        clients: int,
        ops: int,
        with_ingest: bool,
        max_retries: int = 10,
    ):
        self.port = port
        self.baseline = baseline
        self.clients = clients
        self.ops = ops
        self.with_ingest = with_ingest
        self.max_retries = max_retries
        self.torn = 0
        self.failures: List[str] = []
        self.ingested = 0
        self._lock = threading.Lock()

    def _client_loop(self, ci: int) -> None:
        torn = 0
        ingested = 0
        errors: List[str] = []
        try:
            client = ServerClient(
                "127.0.0.1", self.port,
                timeout=10.0, request_timeout=10.0,
                max_retries=self.max_retries,
                backoff_base_ms=5.0, backoff_cap_ms=200.0,
            )
        except OSError as exc:
            with self._lock:
                self.failures.append(f"client {ci} failed to connect: {exc}")
            return
        try:
            for k in range(self.ops):
                try:
                    if _probe_digest(client) != self.baseline:
                        torn += 1
                except Exception as exc:
                    errors.append(f"snapshot: {type(exc).__name__}: {exc}")
                if not self.with_ingest:
                    continue
                # Each client owns one object, with strictly increasing
                # times, so ingests never conflict across clients and
                # the per-object unit ordering is always valid.
                t0 = INGEST_T0 + ci * 1.0e4 + k * 10.0
                try:
                    client.ingest(
                        FLEET, ci,
                        (t0, 0.0, 0.0, t0 + 5.0, 1.0, 1.0),
                    )
                    ingested += 1
                except Exception as exc:
                    errors.append(f"ingest: {type(exc).__name__}: {exc}")
        finally:
            try:
                client.close()
            except Exception:
                pass
        with self._lock:
            self.torn += torn
            self.ingested += ingested
            self.failures.extend(errors)

    def run(self) -> None:
        threads = [
            threading.Thread(target=self._client_loop, args=(ci,))
            for ci in range(self.clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()


def _check_recovered(
    port: int, baseline: Tuple[Tuple[str, str, str], ...],
    baseline_units: int, ingested: int,
) -> Optional[str]:
    """Post-chaos health check; ``None`` when the server is healthy.

    All faults are disarmed by the caller; a fresh client must get a
    clean STATS, an untorn probe, and a unit total of exactly baseline
    plus one unit per *successful* ingest — a duplicate that slipped
    past dedup or a retry that double-applied shows up right here.
    """
    try:
        with ServerClient("127.0.0.1", port, timeout=10.0) as client:
            stats = client.stats()
            if _probe_digest(client) != baseline:
                return "post-recovery probe differs from baseline (torn)"
    except Exception as exc:
        return f"post-recovery STATS failed: {type(exc).__name__}: {exc}"
    units = stats.stat(f"fleet.{FLEET}.units")
    expected = baseline_units + ingested
    if units is None or int(units) != expected:
        return (
            f"unit total {units} != baseline {baseline_units} + "
            f"{ingested} acked ingests (lost or duplicated units)"
        )
    return None


#: (clients, ops) for full and ``--quick`` traffic.
_FULL = (4, 10)
_QUICK = (2, 4)


def _traffic_scale(quick: bool) -> Tuple[int, int]:
    return _QUICK if quick else _FULL


def _server_scenario(
    name: str,
    seed: int,
    policy: str,
    quick: bool,
    with_ingest: bool,
    detail_ok: str,
    server_kwargs: Optional[Dict[str, object]] = None,
    check_counters: Optional[Callable[[], Optional[str]]] = None,
) -> MatrixEntry:
    """The common arm → hammer → disarm → verify-recovery loop."""
    clients, ops = _traffic_scale(quick)
    faults.disarm()
    with obs.capture():
        running, baseline_units = _serve(seed, **(server_kwargs or {}))
        try:
            with ServerClient("127.0.0.1", running.port, timeout=10.0) as c:
                baseline = _probe_digest(c)
            if not baseline:
                return MatrixEntry(name, False, False, "empty baseline probe")
            if name in faults.FAILPOINT_NAMES:
                faults.arm(name, policy)
            traffic = _Traffic(
                running.port, baseline, clients, ops, with_ingest
            )
            try:
                traffic.run()
            finally:
                faults.disarm()
            fired = (
                faults.fired(name) > 0
                if name in faults.FAILPOINT_NAMES
                else True
            )
            if not fired:
                return MatrixEntry(name, False, False, "failpoint never fired")
            if traffic.torn:
                return MatrixEntry(
                    name, fired, False,
                    f"{traffic.torn} torn snapshot read(s)",
                )
            if traffic.failures:
                return MatrixEntry(
                    name, fired, False,
                    f"{len(traffic.failures)} unrecovered failure(s): "
                    + traffic.failures[0],
                )
            if check_counters is not None:
                problem = check_counters()
                if problem is not None:
                    return MatrixEntry(name, fired, False, problem)
            problem = _check_recovered(
                running.port, baseline, baseline_units, traffic.ingested
            )
            if problem is not None:
                return MatrixEntry(name, fired, False, problem)
            return MatrixEntry(
                name, fired, True,
                f"{detail_ok}; {clients * ops} probes untorn, "
                f"{traffic.ingested} ingests exactly-once, STATS healthy",
            )
        finally:
            faults.disarm()
            running.stop()


def _conn_drop_scenario(name: str, seed: int, quick: bool) -> MatrixEntry:
    """Responses dropped after the work: retries + dedup must absorb it."""
    return _server_scenario(
        name, seed, policy=f"prob:0.15:{seed}", quick=quick, with_ingest=True,
        detail_ok="dropped responses retried",
    )


def _slow_client_scenario(name: str, seed: int, quick: bool) -> MatrixEntry:
    """Stalled response writes park one session, never the server."""
    return _server_scenario(
        name, seed, policy="every:5", quick=quick, with_ingest=True,
        detail_ok="stalled sessions isolated",
    )


def _dup_send_scenario(name: str, seed: int, quick: bool) -> MatrixEntry:
    """Every other ingest delivered twice: dedup must land each once."""

    def dedup_counted() -> Optional[str]:
        if obs.get("ingest.dedup_hits") < 1:
            return "duplicates sent but ingest.dedup_hits never moved"
        return None

    return _server_scenario(
        name, seed, policy="every:2", quick=quick, with_ingest=True,
        detail_ok="duplicate sends deduplicated",
        check_counters=dedup_counted,
    )


def _overload_scenario(name: str, seed: int, quick: bool) -> MatrixEntry:
    """Admission control under saturation: shed, hint, retry, recover."""

    def shed_counted() -> Optional[str]:
        if obs.get("server.shed") < 1:
            return "server never shed under max_inflight=1 saturation"
        if obs.get("client.retries") < 1:
            return "clients never retried a shed request"
        return None

    return _server_scenario(
        name, seed, policy="", quick=quick, with_ingest=True,
        detail_ok="shed requests retried after backoff",
        server_kwargs={"max_inflight": 1},
        check_counters=shed_counted,
    )


def _shard_evict_scenario(name: str, seed: int, quick: bool) -> MatrixEntry:
    """Evict every resident shard mid-scatter: columns already handed to
    the query must stay readable (eviction drops references, not bytes),
    so a budget-squeezed scatter is still bit-identical to the
    single-process kernel — zero torn reads."""
    import numpy as np

    from repro.shard import ShardManager, ShardedFleet, sharded_window_intervals
    from repro.spatial.bbox import Rect
    from repro.vector.kernels import window_intervals_batch
    from repro.vector.store import _BUILDERS

    faults.disarm()
    n = 96 if quick else 256
    mappings = [_track(seed, i) for i in range(n)]
    rect = Rect(0.0, 0.0, 60.0, 60.0)
    reference = window_intervals_batch(
        _BUILDERS["upoint"](mappings), rect, 0.0, 12.0
    )
    with obs.capture():
        fleet = ShardedFleet(mappings, 4)
        manager = ShardManager(fleet, budget=1)
        # every:2 → the hook between shard s and s+1 alternates, so the
        # scatter crosses live evictions several times per query.
        faults.arm(name, "every:2")
        try:
            first = sharded_window_intervals(manager, rect, 0.0, 12.0)
            second = sharded_window_intervals(manager, rect, 0.0, 12.0)
        finally:
            faults.disarm()
        fired = faults.fired(name) > 0
        if not fired:
            return MatrixEntry(name, False, False, "failpoint never fired")
        evictions = obs.get("shard.evictions")
        if evictions < 1:
            return MatrixEntry(
                name, fired, False,
                "failpoint fired but no shard was ever evicted",
            )
        torn = 0
        for result in (first, second):
            for got, want in zip(result, reference):
                if got.tobytes() != want.tobytes():
                    torn += 1
        if torn:
            return MatrixEntry(
                name, fired, False,
                f"{torn} result array(s) differ from the single-process "
                "kernel (torn read through a mid-scatter eviction)",
            )
    return MatrixEntry(
        name, fired, True,
        f"{evictions} mid-scatter eviction(s), 2 probes bit-identical "
        "to the unsharded kernel",
    )


#: scenario label → runner.  The four failpoint-keyed entries are what
#: the storage crash matrix delegates to for registry coverage; the
#: ``server.overload`` row is chaos-only (no failpoint — saturation is
#: reached with real traffic).
SCENARIOS: Dict[str, Callable[[str, int, bool], MatrixEntry]] = {
    "server.conn_drop": _conn_drop_scenario,
    "server.slow_client": _slow_client_scenario,
    "ingest.dup_send": _dup_send_scenario,
    "server.overload": _overload_scenario,
    "shard.evict_during_query": _shard_evict_scenario,
}


def run_chaos_matrix(
    seed: int = 2026,
    quick: bool = False,
    only: Optional[str] = None,
    should_stop: Optional[Callable[[], bool]] = None,
) -> List[MatrixEntry]:
    """Run the live degradation scenarios; returns the outcomes.

    ``quick`` shrinks the traffic (fewer clients, fewer ops) for smoke
    use in CI; the assertions are identical.  ``should_stop`` is polled
    between scenarios, mirroring the storage matrix.
    """
    entries: List[MatrixEntry] = []
    prior = faults.armed()
    faults.disarm()
    try:
        for name in sorted(SCENARIOS):
            if should_stop is not None and should_stop():
                break
            if only is not None and name != only:
                continue
            entries.append(SCENARIOS[name](name, seed, quick))
    finally:
        faults.disarm()
        for armed_name, policy in prior.items():
            faults.arm(armed_name, policy)
    return entries
