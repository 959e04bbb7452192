"""Span recording for the traced run, from wrappers around layer calls.

Nothing here changes the program: :func:`install` replaces module and
instance attributes of the *server process* with timing wrappers that
call straight through.  Each wrapper records one span — name, start,
end, parent span and request id — into a :class:`Recorder` that the
server process creates and hands back at exit.

The request id lives in a ``contextvars`` variable that
:class:`TracedServer` sets when it starts a request.
``asyncio.to_thread`` copies the context, so spans recorded in executor
threads inherit both the request id and their parent span.  A group
commit runs in the committer task, outside every request: its span gets
request id 0 and is linked to the request ids of the submits it
batches.  Exact counters sit next to the spans, under the same lock.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_span: contextvars.ContextVar[int] = contextvars.ContextVar(
    "svcbench_span", default=0)
_rid: contextvars.ContextVar[int] = contextvars.ContextVar(
    "svcbench_rid", default=0)
_role: contextvars.ContextVar[str] = contextvars.ContextVar(
    "svcbench_role", default="other")

clock = time.perf_counter

#: Span tuple layout: (span id, name, start, end, parent id, request id).
Span = Tuple[int, str, float, float, int, int]


class Recorder:
    """In-memory spans, links and exact counters of one server process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.spans: List[Span] = []
        self.links: Dict[int, List[int]] = {}      # commit span -> rids
        self.requests: Dict[int, Tuple[int, int, str]] = {}  # rid -> key
        self.counts: Dict[str, Dict[int, float]] = {}  # name -> rid -> n
        self.peaks: Dict[str, float] = {}
        # rid -> (framing start, parent span)
        self._frames: Dict[int, Tuple[float, int]] = {}
        # id(IngestRequest) -> (rid, submit time)
        self._submits: Dict[int, Tuple[int, float]] = {}

    def new_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def record(self, sid: int, name: str, t0: float, t1: float,
               parent: int, rid: int) -> None:
        with self._lock:
            self.spans.append((sid, name, t0, t1, parent, rid))

    def add(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name`` of the current request."""
        rid = _rid.get()
        with self._lock:
            per = self.counts.setdefault(name, {})
            per[rid] = per.get(rid, 0) + n

    def total(self, name: str) -> float:
        with self._lock:
            return sum(self.counts.get(name, {}).values())

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            if value > self.peaks.get(name, float("-inf")):
                self.peaks[name] = value

    def open_frame(self) -> None:
        """Mark the start of the current request's response framing."""
        rid = _rid.get()
        with self._lock:
            if rid not in self._frames:
                self._frames[rid] = (clock(), _span.get())

    def close_frame(self) -> None:
        """Record the framing span of the current request, which ends
        where its response write begins."""
        rid = _rid.get()
        t1 = clock()
        with self._lock:
            opened = self._frames.pop(rid, None)
        if opened is not None:
            self.record(self.new_id(), "server.protocol.frame", opened[0],
                        t1, opened[1], rid)

    def note_submit(self, request: Any, t0: float) -> None:
        with self._lock:
            self._submits[id(request)] = (_rid.get(), t0)

    def take_submits(self, requests: List[Any]) -> List[Tuple[int, float]]:
        """``(rid, submit time)`` of each batched request."""
        with self._lock:
            taken = [self._submits.pop(id(r), None) for r in requests]
        return [t for t in taken if t is not None]

    def link(self, sid: int, rids: List[int]) -> None:
        with self._lock:
            self.links[sid] = rids

    def note_request(self, rid: int, key: Tuple[int, int, str]) -> None:
        with self._lock:
            self.requests[rid] = key

    def dump(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "spans": list(self.spans),
                "links": dict(self.links),
                "requests": dict(self.requests),
                "counts": {k: dict(v) for k, v in self.counts.items()},
                "peaks": dict(self.peaks),
            }


def _open(rec: Recorder) -> Tuple[int, int, Any, float]:
    sid = rec.new_id()
    parent = _span.get()
    token = _span.set(sid)
    return sid, parent, token, clock()


def _close(rec: Recorder, name: str, opened: Tuple[int, int, Any, float]
           ) -> float:
    sid, parent, token, t0 = opened
    t1 = clock()
    _span.reset(token)
    rec.record(sid, name, t0, t1, parent, _rid.get())
    return t1


def timed(rec: Recorder, name: str, fn: Callable[..., Any],
          role: Optional[str] = None) -> Callable[..., Any]:
    """``fn`` wrapped in a span; ``role`` tags executor-lock use inside."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        role_token = _role.set(role) if role is not None else None
        opened = _open(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            _close(rec, name, opened)
            if role_token is not None:
                _role.reset(role_token)

    return wrapper


def timed_drain(rec: Recorder, name: str, fn: Callable[..., Any],
                count: Optional[str] = None) -> Callable[..., Any]:
    """A generator function wrapped so its whole production is one span:
    the items are drained inside the span and replayed to the caller."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        opened = _open(rec)
        try:
            items = list(fn(*args, **kwargs))
        finally:
            _close(rec, name, opened)
        if count is not None:
            rec.add(count, len(items))
        return iter(items)

    return wrapper


def timed_async(rec: Recorder, name: str, fn: Callable[..., Any]
                ) -> Callable[..., Any]:
    @functools.wraps(fn)
    async def wrapper(*args: Any, **kwargs: Any) -> Any:
        opened = _open(rec)
        try:
            return await fn(*args, **kwargs)
        finally:
            _close(rec, name, opened)

    return wrapper


class TimedLock:
    """A timing proxy around the executor's re-entrant lock.

    Records the wait for the outermost acquisition as a
    ``server.executor.lock_wait`` span and the hold from outermost
    acquire to outermost release as a counter, both split by the role
    (``read`` or ``ingest``) of the call that takes the lock.
    """

    def __init__(self, inner: Any, rec: Recorder):
        self._inner = inner
        self._rec = rec
        self._local = threading.local()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        depth = getattr(self._local, "depth", 0)
        if depth:
            ok = self._inner.acquire(blocking, timeout)
            if ok:
                self._local.depth = depth + 1
            return ok
        role = _role.get()
        opened = _open(self._rec)
        ok = self._inner.acquire(blocking, timeout)
        t1 = _close(self._rec, f"server.executor.lock_wait.{role}", opened)
        if ok:
            self._local.depth = 1
            self._local.since = t1
            self._local.role = role
        return ok

    def release(self) -> None:
        self._local.depth -= 1
        held = clock() - self._local.since if self._local.depth == 0 else None
        self._inner.release()
        if held is not None:
            self._rec.add(f"lock_hold_s.{self._local.role}", held)

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()


def install(rec: Recorder, executor: Any, wal: Any) -> None:
    """Wrap every layer boundary the per-layer metrics read.

    Call after the fleet is registered (bulk loads stay untraced) and
    before the first request.
    """
    from repro.db import executor as db_executor
    from repro.db import script as db_script
    from repro.db import sql as db_sql
    from repro.index.rtree import RTree3D
    from repro.ops import aggregates, distance
    from repro.server import executor as srv_executor
    from repro.server import ingest as srv_ingest
    from repro.server import protocol, session
    from repro.shard import manager as shard_manager
    from repro.temporal.mapping import MovingPoint
    from repro.vector import cache as vcache

    # -- wire: parse, frame, write --------------------------------------
    protocol.parse_request = timed(
        rec, "server.protocol.parse", protocol.parse_request)

    ok_line = protocol.ok_line

    @functools.wraps(ok_line)
    def framing_ok_line(*args: Any, **kwargs: Any) -> str:
        # The OK header is framed first; the data lines follow without
        # a yield to the loop, up to the response write.
        rec.open_frame()
        return ok_line(*args, **kwargs)

    protocol.ok_line = framing_ok_line
    write = session._write

    @functools.wraps(write)
    async def framed_write(writer: Any, lines: List[str]) -> None:
        rec.close_frame()
        await timed_write(writer, lines)

    timed_write = timed_async(rec, "server.session.write", write)
    session._write = framed_write

    # -- executor: read, pin, column, kernel, lock ----------------------
    executor._lock = TimedLock(executor._lock, rec)
    executor.snapshot_rows = timed(
        rec, "server.executor.snapshot_rows", executor.snapshot_rows, "read")
    executor.query_sql = timed(
        rec, "server.executor.query_sql", executor.query_sql, "read")
    executor.apply_units = timed(
        rec, "server.executor.apply", executor.apply_units, "ingest")
    executor._pinned_column = timed(
        rec, "server.executor.column", executor._pinned_column)
    executor._pinned_shard_columns = timed(
        rec, "server.executor.column", executor._pinned_shard_columns)
    srv_executor.Snapshot = timed(
        rec, "server.executor.pin", srv_executor.Snapshot)
    srv_executor._BUILDERS = {
        kind: timed(rec, "server.executor.column_rebuild", fn)
        for kind, fn in srv_executor._BUILDERS.items()
    }

    kernel = srv_executor.atinstant_batch

    @functools.wraps(kernel)
    def atinstant(col: Any, t: float) -> Any:
        rec.add("vector.kernels.atinstant_rows", col.n_objects)
        return inner_kernel(col, t)

    inner_kernel = timed(rec, "vector.kernels.atinstant", kernel)
    srv_executor.atinstant_batch = atinstant

    # -- column cache: every caller goes through one wrapper ------------
    cfv = timed(rec, "vector.cache.column_for_versioned",
                vcache.column_for_versioned)
    vcache.column_for_versioned = cfv
    srv_executor.column_for_versioned = cfv
    shard_manager.column_for_versioned = cfv
    vcache._BUILDERS = {
        kind: timed(rec, "vector.cache.build", fn)
        for kind, fn in vcache._BUILDERS.items()
    }
    vcache.ColumnCache._try_extend = staticmethod(timed(
        rec, "vector.cache.extend", vcache.ColumnCache._try_extend))

    # -- R-tree -----------------------------------------------------------
    RTree3D.search = timed_drain(
        rec, "index.rtree.search", RTree3D.search,
        count="index.rtree.candidates")
    RTree3D.insert = timed(rec, "index.rtree.insert", RTree3D.insert)

    # -- shard manager ----------------------------------------------------
    SM = shard_manager.ShardManager
    column = SM.column

    @functools.wraps(column)
    def shard_column(self: Any, s: int, kind: str) -> Any:
        out = timed_column(self, s, kind)
        rec.peak("shard.manager.resident_bytes", float(self.resident_bytes))
        return out

    timed_column = timed(rec, "shard.manager.column", column)
    SM.column = shard_column
    SM._map_column = timed(rec, "shard.manager.map", SM._map_column)
    SM.rtree = timed(rec, "shard.manager.rtree", SM.rtree)
    evict_one = SM._evict_one

    @functools.wraps(evict_one)
    def counted_evict(self: Any, s: int, ring_pos: int) -> None:
        rec.add("shard.manager.evictions")
        evict_one(self, s, ring_pos)

    SM._evict_one = counted_evict
    prune = SM.prune

    @functools.wraps(prune)
    def counted_prune(self: Any, cube: Any) -> List[int]:
        keep = prune(self, cube)
        candidates = sum(
            1 for s in range(self.fleet.n_shards) if len(self.fleet.shards[s])
        )
        rec.add("shard.manager.kept", len(keep))
        rec.add("shard.manager.pruned", candidates - len(keep))
        return keep

    SM.prune = counted_prune

    # -- ingest: submit, group commit, WAL --------------------------------
    commit = srv_ingest.commit

    @functools.wraps(commit)
    def traced_commit(wal_: Any, executor_: Any, requests: List[Any]) -> Any:
        opened = _open(rec)
        submits = rec.take_submits(requests)
        rec.link(opened[0], [rid for rid, _ in submits])
        for _, t_submit in submits:
            rec.add("server.ingest.queue_wait_s", opened[3] - t_submit)
        try:
            return commit(wal_, executor_, requests)
        finally:
            _close(rec, "server.ingest.commit", opened)

    srv_ingest.commit = traced_commit
    if wal is not None:
        sync = wal.sync

        @functools.wraps(sync)
        def traced_sync() -> None:
            before = wal.durable_bytes
            inner_sync()
            rec.add("storage.wal.bytes", wal.durable_bytes - before)

        inner_sync = timed(rec, "storage.wal.sync", sync)
        wal.sync = traced_sync

    # -- SQL and the operation algebra ------------------------------------
    srv_executor.run_script = timed(
        rec, "db.script.run", srv_executor.run_script)
    db_sql.parse_query = timed(rec, "db.sql.parse", db_sql.parse_query)
    db_sql.plan_query = timed(rec, "db.sql.plan", db_sql.plan_query)
    execute_statement = db_script.execute_statement

    @functools.wraps(execute_statement)
    def counted_statement(db: Any, statement: str) -> Any:
        before = rec.total("db.executor.pairs")
        result = execute_statement(db, statement)
        if rec.total("db.executor.pairs") != before and result.rows:
            rec.add("db.executor.join_rows", len(result.rows))
        return result

    db_script.execute_statement = counted_statement
    cross_rows = db_executor.CrossProduct.rows

    @functools.wraps(cross_rows)
    def counted_pairs(self: Any) -> Any:
        n = 0
        try:
            for row in cross_rows(self):
                n += 1
                yield row
        finally:
            rec.add("db.executor.pairs", n)

    db_executor.CrossProduct.rows = counted_pairs
    distance.mpoint_distance = timed(
        rec, "ops.distance.mpoint_distance", distance.mpoint_distance)
    distance.refinement_partition = timed_drain(
        rec, "temporal.refinement.partition", distance.refinement_partition)
    aggregates.mreal_atmin = timed(
        rec, "ops.aggregates.atmin", aggregates.mreal_atmin)
    MovingPoint.trajectory = timed(
        rec, "ops.projection.trajectory", MovingPoint.trajectory)


def traced_server_class(rec: Recorder) -> type:
    """A ``QueryServer`` whose requests open a request span and id."""
    from repro.server.session import QueryServer

    class TracedServer(QueryServer):
        def __init__(self, *args: Any, **kwargs: Any):
            super().__init__(*args, **kwargs)
            submit = self._committer.submit

            @functools.wraps(submit)
            async def traced_submit(request: Any) -> int:
                opened = _open(rec)
                rec.note_submit(request, opened[3])
                try:
                    return await submit(request)
                finally:
                    _close(rec, "server.ingest.submit", opened)

            self._committer.submit = traced_submit
            self._ordinals: Dict[int, int] = {}

        async def _serve_line(self, line: str, writer: Any) -> bool:
            port = writer.get_extra_info("peername")[1]
            n = self._ordinals.get(port, 0) + 1
            self._ordinals[port] = n
            rid = rec.new_id()
            rec.note_request(rid, (port, n, line.split(" ", 1)[0].strip()))
            rid_token = _rid.set(rid)
            opened = _open(rec)
            try:
                return await super()._serve_line(line, writer)
            finally:
                _close(rec, "server.request", opened)
                _rid.reset(rid_token)

    return TracedServer
