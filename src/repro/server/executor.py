"""Execution state of the query service: fleets, indexes, snapshots.

The executor owns everything the protocol layer must never touch
directly: the live :class:`~repro.vector.cache.Fleet` containers, their
STR-bulk-loaded R-tree indexes, the SQL database, and the mutation lock
that serializes ingest against column builds.  Sessions hand it parsed
requests and get plain Python values back.

Snapshot isolation
------------------
Every read pins a :class:`Snapshot` at start: the fleet's version stamp
plus an immutable tuple of its members.  Ingest never mutates a
``Mapping`` in place — it *replaces* the member with a new mapping that
shares the old unit slices (:meth:`repro.temporal.mapping.Mapping.
appended`) — so a pinned tuple keeps describing exactly the pre-ingest
fleet no matter how far the live fleet moves on.  Columns are pinned by
version: a cached column whose stamp equals the pin is served as-is;
otherwise the column is rebuilt from the pinned members, never from the
moved-on fleet.

Sharded fleets (``register_fleet(..., shards=N)`` or the process-wide
``--shards`` default) pin a shard *vector* of versions: the snapshot's
``version`` is the tuple of per-shard stamps, and an ingest bumps only
the one shard it routes to — so a pinned read over a 16-shard fleet
stays column-served on 15 shards while the 16th rebuilds.  Each sharded
fleet's columns and per-shard R-trees live under a byte-budgeted
:class:`~repro.shard.manager.ShardManager` held in ``_shards``.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro import deadline as deadline_mod
from repro import faults, obs
from repro.analysis import dynlock
from repro.deadline import Deadline
from repro.db.catalog import Database
from repro.db.script import StatementResult, run_script
from repro.errors import InvalidValue, QueryError, StorageError
from repro.index.rtree import RTree3D
from repro.shard.fleet import ShardedFleet, shard_of
from repro.shard.manager import ShardManager
from repro.spatial.bbox import Cube
from repro.temporal.mapping import MovingPoint
from repro.temporal.upoint import UPoint
from repro.vector.cache import _BUILDERS, Fleet, column_for_versioned
from repro.vector.kernels import atinstant_batch

__all__ = ["FleetExecutor", "Snapshot"]

#: Latency samples kept for the p50/p99 gauges (a sliding window).
_LATENCY_WINDOW = 512

#: Idempotency tokens remembered per executor.  Bounded FIFO: a token
#: older than the most recent 64k ingests can no longer collide with a
#: live retry (retries are bounded in time), so evicting it is safe.
_DEDUP_CAPACITY = 65536

#: Rows assembled between deadline checks in ``snapshot_rows``.
_DEADLINE_STRIDE = 4096


class Snapshot:
    """An immutable read view of one fleet, pinned at a version stamp.

    For a :class:`~repro.shard.fleet.ShardedFleet` the stamp is the
    shard *vector* of versions — ingest into one shard moves exactly
    one coordinate, leaving the pins of every sibling shard valid.
    """

    __slots__ = ("version", "items", "_columns")

    def __init__(self, fleet: Any):
        self.version = fleet.version
        self.items: Tuple[Any, ...] = tuple(fleet)
        self._columns: Dict[str, Any] = {}

    def __len__(self) -> int:
        return len(self.items)


class FleetExecutor:
    """Owns fleets, indexes, and the SQL database; executes requests.

    Thread-safe: sessions call in from worker threads while the ingest
    committer applies batches — every state access runs under one
    re-entrant lock, and the computed results (snapshots, columns,
    statement rows) are immutable once returned.  The lock discipline
    is declared in the ``GUARDED_BY`` registry (repro.analysis.rules)
    and enforced by lint rule MOD007; ``_latencies`` sits under its own
    micro-lock so recording a sample from the event loop never waits
    behind an ingest apply holding the main lock.
    """

    def __init__(self, db: Optional[Database] = None):
        self._lock = dynlock.rlock("server.executor")
        self._lat_lock = dynlock.rlock("server.executor.latency")
        self._fleets: Dict[str, Any] = {}
        self._indexes: Dict[str, RTree3D] = {}
        self._shards: Dict[str, ShardManager] = {}
        self._db = db if db is not None else Database("server")
        self._latencies: Deque[float] = deque(maxlen=_LATENCY_WINDOW)
        # Idempotency table: seq token -> the unit count the original
        # apply returned.  Replay repopulates it (tokens ride in the WAL
        # record), so dedup survives restarts.
        self._dedup: "OrderedDict[str, int]" = OrderedDict()

    @property
    def db(self) -> Database:
        return self._db

    # -- fleet registry ---------------------------------------------------

    def register_fleet(
        self,
        name: str,
        mappings: Sequence[MovingPoint],
        index: bool = True,
        shards: Optional[int] = None,
    ) -> Any:
        """Adopt ``mappings`` as the live fleet ``name``.

        Builds the per-unit R-tree via STR bulk loading (the cheap path
        for the initial load; later ingest maintains it with per-batch
        inserts).  Re-registering a name replaces the fleet.

        ``shards`` > 1 partitions the fleet (defaulting to the
        process-wide ``repro.shard.get_shards()``, itself 1 unless the
        CLI's ``--shards`` raised it): columns and per-shard R-trees
        then live under a :class:`ShardManager` with the process-wide
        memory budget, the R-trees STR-bulk-loaded lazily per shard.
        """
        from repro import shard as shardmod

        n_shards = shardmod.get_shards() if shards is None else int(shards)
        fleet: Any = (
            ShardedFleet(mappings, n_shards) if n_shards > 1
            else Fleet(mappings)
        )
        with self._lock:
            self._fleets[name] = fleet
            if isinstance(fleet, ShardedFleet):
                self._indexes.pop(name, None)
                self._shards[name] = ShardManager(
                    fleet,
                    budget=shardmod.get_memory_budget(),
                    indexed=index,
                )
                return fleet
            self._shards.pop(name, None)
            if index:
                entries = [
                    (u.bounding_cube(), i)
                    for i, m in enumerate(fleet)
                    for u in m.units
                ]
                self._indexes[name] = RTree3D.bulk_load(entries)
            else:
                self._indexes.pop(name, None)
        return fleet

    def fleet_names(self) -> List[str]:
        with self._lock:
            return sorted(self._fleets)

    def _fleet(self, name: str) -> Any:
        fleet = self._fleets.get(name)
        if fleet is None:
            raise QueryError(f"no fleet named {name!r}")
        return fleet

    def fleet(self, name: str) -> Any:
        with self._lock:
            return self._fleet(name)

    # -- snapshot-isolated reads ------------------------------------------

    def snapshot(self, name: str) -> Snapshot:
        """Pin an immutable view of fleet ``name`` at its current version."""
        with self._lock:
            return Snapshot(self._fleet(name))

    def _pinned_column(
        self, fleet: Fleet, snap: Snapshot, kind: str
    ) -> Optional[Any]:
        """The ``kind`` column describing exactly ``snap``, or None when
        only the scalar path can evaluate the pinned members.

        Must run under the lock: the shared column cache may build here,
        and a build that interleaved with an ingest apply could pair the
        pinned stamp with post-ingest bytes.
        """
        if kind in snap._columns:
            return snap._columns[kind]
        col: Optional[Any] = None
        try:
            version, candidate = column_for_versioned(fleet, kind)
            if version == snap.version:
                col = candidate
            else:
                # The fleet moved on past the pin: build from the pinned
                # members themselves (immutable, so always consistent).
                col = _BUILDERS[kind](snap.items)
        except (InvalidValue, StorageError):
            col = None
        snap._columns[kind] = col
        return col

    def snapshot_rows(
        self,
        name: str,
        t: float,
        window: Optional[Tuple[float, float, float, float]] = None,
        deadline: Optional[Deadline] = None,
    ) -> Tuple[Snapshot, List[Tuple[int, float, float]]]:
        """Defined positions of fleet ``name`` at instant ``t``.

        Returns ``(snapshot, rows)`` with one ``(object index, x, y)``
        row per member defined at ``t`` — filtered to ``window`` (an
        ``xmin ymin xmax ymax`` rectangle) when given, using the live
        R-tree as a candidate prefilter.  The rows describe the pinned
        snapshot exactly: ingest applied after the pin is invisible.

        ``deadline`` is checked before pinning and again every
        ``_DEADLINE_STRIDE`` rows of assembly, so an expired budget
        surfaces as :class:`~repro.errors.DeadlineExceeded` instead of
        a late answer.
        """
        if deadline is not None:
            deadline.check()
        with self._lock:
            fleet = self._fleet(name)
            snap = Snapshot(fleet)
            manager = self._shards.get(name)
            shard_cols = col = None
            if manager is not None:
                shard_cols = self._pinned_shard_columns(manager, snap)
            else:
                col = self._pinned_column(fleet, snap, "upoint")
            candidates = self._window_candidates(name, t, window, len(snap))
        rows: List[Tuple[int, float, float]] = []
        if shard_cols is not None:
            # Scatter: one kernel run per pinned shard column, global
            # ids mapped back through the shard's id array; gather is a
            # sort into global order (per-shard ids ascend, so this is a
            # merge of sorted runs).
            done = 0
            for gids, scol in shard_cols:
                xs, ys, defined = atinstant_batch(scol, t)
                for j in range(len(gids)):
                    if defined[j]:
                        rows.append(
                            (int(gids[j]), float(xs[j]), float(ys[j]))
                        )
                    done += 1
                    if deadline is not None and done % _DEADLINE_STRIDE == 0:
                        deadline.check()
            rows.sort()
        elif col is not None:
            xs, ys, defined = atinstant_batch(col, t)
            for i in range(len(snap)):
                if defined[i]:
                    rows.append((i, float(xs[i]), float(ys[i])))
                if deadline is not None and i % _DEADLINE_STRIDE == 0:
                    deadline.check()
        else:
            for i, m in enumerate(snap.items):
                p = m.value_at(t)
                if p is not None:
                    rows.append((i, p.x, p.y))
                if deadline is not None and i % _DEADLINE_STRIDE == 0:
                    deadline.check()
        if window is not None:
            xmin, ymin, xmax, ymax = window
            rows = [
                (i, x, y)
                for i, x, y in rows
                if (candidates is None or i in candidates)
                and xmin <= x <= xmax
                and ymin <= y <= ymax
            ]
        return snap, rows

    def _pinned_shard_columns(
        self, manager: ShardManager, snap: Snapshot
    ) -> Optional[List[Tuple[Any, Any]]]:
        """Per-shard ``(global ids, column)`` pairs pinned at ``snap``'s
        shard version vector, or None when only the scalar path can
        evaluate the pinned members.

        Must run under the lock for the same reason as
        :meth:`_pinned_column`; the lock also freezes the shard version
        vector, so every mapped column matches its pin coordinate.
        """
        out: List[Tuple[Any, Any]] = []
        fleet = manager.fleet
        for s in range(fleet.n_shards):
            if len(fleet.shards[s]) == 0:
                continue
            try:
                scol = manager.column(s, "upoint")
            except (InvalidValue, StorageError):
                return None
            if fleet.shards[s].version != snap.version[s]:
                return None  # cannot serve the pin from live columns
            out.append((fleet.globals_of(s), scol))
        return out

    def _window_candidates(
        self,
        name: str,
        t: float,
        window: Optional[Tuple[float, float, float, float]],
        n: int,
    ) -> Optional[set]:
        """Index candidates for a window query, or None (no prefilter).

        The live index is a *superset* of any pinned snapshot (units are
        only ever added), so pruning with it never drops a true hit;
        exactness comes from the per-position refinement above.  Sharded
        fleets prune shard-first through the manager's per-shard trees.
        """
        if window is None:
            return None
        xmin, ymin, xmax, ymax = window
        cube = Cube(xmin, ymin, t, xmax, ymax, t)
        tree = self._indexes.get(name)
        if tree is None:
            manager = self._shards.get(name)
            if manager is not None and manager.indexed:
                return {
                    k for k in manager.window_candidates(cube) if k < n
                }
            return None
        return {int(k) for k in tree.search(cube) if int(k) < n}

    # -- SQL --------------------------------------------------------------

    def query_sql(
        self, sql: str, deadline: Optional[Deadline] = None
    ) -> List[StatementResult]:
        """Run a SQL script against the server's database.

        When a ``deadline`` is given it is checked on entry and bound
        thread-locally for the duration, so nested layers (the script
        runner between statements, the cross product per outer row)
        inherit the budget without the SQL machinery growing a
        parameter — and an expired query releases the lock early.
        """
        if deadline is not None:
            deadline.check()
        with self._lock:
            with deadline_mod.active(deadline):
                return run_script(self._db, sql)

    def explain_sql(
        self, sql: str, deadline: Optional[Deadline] = None
    ) -> str:
        """The plan for a SELECT (EXPLAIN is prepended when missing)."""
        stmt = sql.strip()
        if not stmt.lower().startswith("explain"):
            stmt = f"EXPLAIN {stmt}"
        results = self.query_sql(stmt, deadline=deadline)
        return results[-1].message if results else ""

    # -- ingest apply ------------------------------------------------------

    def apply_units(self, requests: Sequence[Any]) -> List[Any]:
        """Apply one durable ingest batch to the live fleets, in order.

        Each element of ``requests`` is an
        :class:`repro.server.ingest.IngestRequest`; the result list
        carries, positionally, the appended object's new unit count or
        the :class:`InvalidValue` that rejected it (a rejection is
        deterministic, so recovery replay re-derives it).  The
        ``server.ingest_crash`` failpoint fires *inside* the apply loop
        — after the WAL barrier — so the crash matrix can prove that
        recovery resurrects a durable batch the process died applying.
        """
        out: List[Any] = []
        with self._lock:
            for req in requests:
                if faults.active:
                    faults.fail("server.ingest_crash")
                try:
                    out.append(self._apply_one(req))
                except InvalidValue as exc:
                    out.append(exc)
        return out

    def _apply_one(self, req: Any) -> int:
        seq = getattr(req, "seq", "")
        if seq:
            cached = self._dedup.get(seq)
            if cached is not None:
                # A retry of an ingest that already applied (the ack was
                # lost, or the WAL record replayed twice): answer from
                # the table instead of appending a duplicate slice.
                if obs.enabled:
                    obs.add("ingest.dedup_hits")
                return cached
        count = self._append_unit(req)
        if seq:
            self._dedup[seq] = count
            while len(self._dedup) > _DEDUP_CAPACITY:
                self._dedup.popitem(last=False)
        return count

    def _append_unit(self, req: Any) -> int:
        fleet = self._fleet(req.fleet)
        t0, x0, y0, t1, x1, y1 = req.unit
        obj = req.obj
        if obj > len(fleet):
            raise InvalidValue(
                f"object index {obj} past the end of fleet "
                f"{req.fleet!r} ({len(fleet)} objects)"
            )
        prior = fleet[obj] if obj < len(fleet) else None
        lc = True
        if prior is not None and prior.units:
            last = prior.units[-1].interval
            if last.rc and t0 <= last.e:
                # Streaming continuation: the previous slice owns the
                # shared boundary instant, so the new one opens left.
                lc = False
        unit = UPoint.between(t0, (x0, y0), t1, (x1, y1), lc=lc, rc=True)
        if prior is None:
            grown: MovingPoint = MovingPoint([unit])
            fleet.append(grown)
        else:
            grown = prior.appended(unit)
            fleet[obj] = grown
        tree = self._indexes.get(req.fleet)
        if tree is not None:
            tree.insert(unit.bounding_cube(), obj)
        manager = self._shards.get(req.fleet)
        if manager is not None:
            # Ingest touches exactly one shard: the object's home shard
            # gets the tree insert; every other shard's pin stays valid.
            manager.note_insert(
                shard_of(obj, manager.fleet.n_shards),
                unit.bounding_cube(),
                obj,
            )
        if obs.enabled:
            obs.add("ingest.units")
        return len(grown.units)

    # -- latency + stats ---------------------------------------------------

    def record_latency(self, ms: float) -> None:
        """Record one query's wall time (milliseconds).

        Cheap enough to call straight from the event loop: an O(1)
        append under a dedicated lock that is never held across real
        work.  (Bare ``deque.append`` + ``sorted(self._latencies)``
        happens to be safe on today's CPython only because both run as
        single C calls under the GIL with float elements — an
        implementation detail, not a contract; the lock makes the
        invariant explicit and survives free-threaded builds.)
        """
        with self._lat_lock:
            self._latencies.append(ms)

    def latency_percentiles(self) -> Tuple[float, float]:
        """``(p50, p99)`` over the sliding window, in milliseconds."""
        with self._lat_lock:
            lat = sorted(self._latencies)
        if not lat:
            return 0.0, 0.0
        p50 = lat[int(0.50 * (len(lat) - 1))]
        p99 = lat[int(0.99 * (len(lat) - 1))]
        if obs.enabled:
            obs.high_water("server.query_p50_ms", p50)
            obs.high_water("server.query_p99_ms", p99)
        return p50, p99

    def stats(self) -> Dict[str, object]:
        """A flat name → value map for the STATS response."""
        out: Dict[str, object] = {}
        with self._lock:
            for name in sorted(self._fleets):
                fleet = self._fleets[name]
                out[f"fleet.{name}.objects"] = len(fleet)
                out[f"fleet.{name}.units"] = sum(
                    len(m.units) for m in fleet
                )
                version = fleet.version
                if isinstance(version, tuple):
                    # Sharded: report the vector's sum (one ingest still
                    # moves it by exactly one) plus the shard count.
                    out[f"fleet.{name}.version"] = sum(version)
                    out[f"fleet.{name}.shards"] = fleet.n_shards
                else:
                    out[f"fleet.{name}.version"] = version
        p50, p99 = self.latency_percentiles()
        out["query_p50_ms"] = round(p50, 3)
        out["query_p99_ms"] = round(p99, 3)
        if obs.enabled:
            counts = obs.snapshot()["counters"]
            for key in sorted(counts):
                if key.startswith(("server.", "ingest.", "colcache.",
                                   "colstore.", "wal.", "shard.")):
                    out[key] = counts[key]
        return out
