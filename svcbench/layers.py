"""Per-layer metrics from the spans and counters of one traced phase.

Every time below is a mean in milliseconds *per request of the kind the
layer serves*: per read request (SNAPSHOT or QUERY) for the read path,
per INGEST request or per group commit for the write path.  A layer a
workload never reaches reports 0 and is listed as absent.

Self time is a span's duration minus the part of it its child spans
cover.  Layer accounting takes each request span's direct children —
parse, the executor call, framing, the response write, the ingest
submit — and reports which share of server-side request time they
cover; what they leave uncovered is the session layer's own time
(admission, thread hand-off, loop scheduling) and is reported as the
unattributed remainder.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Sequence, Tuple

import inputs

READ_COMMANDS = ("SNAPSHOT", "QUERY")

#: (name, unit, better, span) of every per-layer metric, in report
#: order.  ``span`` names the span whose presence means the workload
#: reached the metric's layer at all.
PER_LAYER: List[Tuple[str, str, str, str]] = [
    ("server.client.outside_server_ms", "ms", "lower",
     "server.request"),
    ("server.protocol.parse_ms", "ms", "lower",
     "server.protocol.parse"),
    ("server.protocol.frame_ms", "ms", "lower",
     "server.protocol.frame"),
    ("server.protocol.rows_per_req", "rows", "lower",
     "server.protocol.frame"),
    ("server.session.write_ms", "ms", "lower",
     "server.session.write"),
    ("server.executor.lock_wait_ms.read", "ms", "lower",
     "server.executor.lock_wait.read"),
    ("server.executor.lock_wait_ms.ingest", "ms", "lower",
     "server.executor.lock_wait.ingest"),
    ("server.executor.lock_hold_ms.read", "ms", "lower",
     "server.executor.lock_wait.read"),
    ("server.executor.lock_hold_ms.ingest", "ms", "lower",
     "server.executor.lock_wait.ingest"),
    ("server.executor.pin_ms", "ms", "lower",
     "server.executor.pin"),
    ("server.executor.column_ms", "ms", "lower",
     "server.executor.column"),
    ("server.executor.column_rebuilds_per_read", "count", "lower",
     "server.executor.column"),
    ("server.executor.snapshot_rows_ms", "ms", "lower",
     "server.executor.snapshot_rows"),
    ("server.executor.objects_evaluated_per_row", "ratio", "lower",
     "server.executor.snapshot_rows"),
    ("vector.cache.hit_ratio", "ratio", "higher",
     "vector.cache.column_for_versioned"),
    ("vector.cache.build_ms", "ms", "lower",
     "vector.cache.column_for_versioned"),
    ("vector.kernels.atinstant_ms", "ms", "lower",
     "vector.kernels.atinstant"),
    ("vector.kernels.atinstant_rows", "rows", "lower",
     "vector.kernels.atinstant"),
    ("index.rtree.search_ms", "ms", "lower",
     "index.rtree.search"),
    ("index.rtree.candidates_per_row", "ratio", "lower",
     "index.rtree.search"),
    ("index.rtree.insert_ms", "ms", "lower",
     "index.rtree.insert"),
    ("shard.manager.column_ms", "ms", "lower",
     "shard.manager.column"),
    ("shard.manager.rtree_ms", "ms", "lower",
     "shard.manager.rtree"),
    ("shard.manager.maps_per_query", "count", "lower",
     "shard.manager.column"),
    ("shard.manager.hit_ratio", "ratio", "higher",
     "shard.manager.column"),
    ("shard.manager.evictions_per_query", "count", "lower",
     "shard.manager.column"),
    ("shard.manager.resident_bytes_peak", "bytes", "lower",
     "shard.manager.column"),
    ("shard.manager.pruned_ratio", "ratio", "higher",
     "shard.manager.column"),
    ("server.ingest.commit_ms", "ms", "lower",
     "server.ingest.commit"),
    ("server.ingest.batch_units", "units", "higher",
     "server.ingest.commit"),
    ("server.ingest.queue_wait_ms", "ms", "lower",
     "server.ingest.commit"),
    ("server.executor.apply_ms", "ms", "lower",
     "server.executor.apply"),
    ("storage.wal.sync_ms", "ms", "lower",
     "storage.wal.sync"),
    ("storage.wal.syncs_per_unit", "ratio", "lower",
     "storage.wal.sync"),
    ("storage.wal.bytes_per_user_byte", "ratio", "lower",
     "storage.wal.sync"),
    ("db.sql.parse_ms", "ms", "lower",
     "db.sql.parse"),
    ("db.sql.plan_ms", "ms", "lower",
     "db.sql.plan"),
    ("db.script.run_ms", "ms", "lower",
     "db.script.run"),
    ("db.executor.pairs_per_row", "ratio", "lower",
     "db.script.run"),
    ("ops.distance.mpoint_distance_ms", "ms", "lower",
     "ops.distance.mpoint_distance"),
    ("ops.distance.mpoint_distance_calls", "count", "lower",
     "ops.distance.mpoint_distance"),
    ("ops.aggregates.atmin_ms", "ms", "lower",
     "ops.aggregates.atmin"),
    ("temporal.refinement.partition_ms", "ms", "lower",
     "temporal.refinement.partition"),
    ("ops.projection.trajectory_ms", "ms", "lower",
     "ops.projection.trajectory"),
    ("trace.overhead.read_p50_ms", "ms", "lower",
     "server.request"),
    ("trace.overhead.ingest_p50_ms", "ms", "lower",
     "server.ingest.submit"),
    ("trace.accounting.attributed_share", "ratio", "higher",
     "server.request"),
    ("trace.accounting.unattributed_ms", "ms", "lower",
     "server.request"),
    # Exact counts next to the program's own STATS counters, which are
    # lower bounds (unguarded increments may be lost under threads).
    ("vector.cache.hits", "count", "higher",
     "vector.cache.column_for_versioned"),
    ("stats.colcache.hits_lower_bound", "count", "higher",
     "vector.cache.column_for_versioned"),
    ("vector.cache.builds", "count", "lower",
     "vector.cache.column_for_versioned"),
    ("stats.colcache.misses_lower_bound", "count", "lower",
     "vector.cache.column_for_versioned"),
    ("shard.manager.maps", "count", "lower",
     "shard.manager.column"),
    ("stats.shard.maps_lower_bound", "count", "lower",
     "shard.manager.column"),
    ("shard.manager.evictions", "count", "lower",
     "shard.manager.column"),
    ("stats.shard.evictions_lower_bound", "count", "lower",
     "shard.manager.column"),
    ("storage.wal.syncs", "count", "lower",
     "storage.wal.sync"),
    ("stats.wal.syncs_lower_bound", "count", "lower",
     "storage.wal.sync"),
    ("server.ingest.group_commits", "count", "higher",
     "server.ingest.commit"),
    ("stats.ingest.group_commits_lower_bound", "count", "higher",
     "server.ingest.commit"),
]


def _union(intervals: Iterable[Tuple[float, float]], lo: float, hi: float
           ) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def analyse(
    dump: Dict[str, Any],
    client: Dict[str, Any],
    untraced: Dict[str, Any],
    stats_before: Dict[str, float],
    stats_after: Dict[str, float],
) -> Tuple[Dict[str, float], set, List[Tuple[str, float, int]]]:
    """``(metrics, names of metrics whose layer was reached, self-time
    table)`` of one traced phase.

    ``client`` and ``untraced`` are the measured phases' client views:
    ``ports`` of the load connections, ``reads``/``ingests`` as
    ``(latency_s, port, ordinal)`` samples.  The self-time table lists
    ``(span name, ms per read request, spans)``.
    """
    ports = set(client["ports"])
    requests = dump["requests"]
    kinds = {
        rid: cmd for rid, (port, _n, cmd) in requests.items()
        if port in ports and cmd in READ_COMMANDS + ("INGEST",)
    }
    reads = [rid for rid, cmd in kinds.items() if cmd in READ_COMMANDS]
    ingests = [rid for rid, cmd in kinds.items() if cmd == "INGEST"]
    n_reads = max(len(reads), 1)
    n_ingests = max(len(ingests), 1)
    read_set = set(reads)

    # Measured spans: those of load requests, plus the group-commit path
    # (request id 0) while load requests were in flight — the final WAL
    # sync of the shutdown falls outside.
    load = [s for s in dump["spans"]
            if s[5] in kinds and s[1] == "server.request"]
    t_begin = min((s[2] for s in load), default=0.0)
    t_end = max((s[3] for s in load), default=0.0)
    spans = [s for s in dump["spans"]
             if s[5] in kinds or (s[5] == 0 and t_begin <= s[2] <= t_end)]
    children: Dict[int, List[tuple]] = defaultdict(list)
    for s in spans:
        children[s[4]].append(s)
    total: Dict[str, float] = defaultdict(float)   # seconds, read path
    count: Dict[str, int] = defaultdict(int)
    anywhere: Dict[str, float] = defaultdict(float)  # seconds, all spans
    anywhere_n: Dict[str, int] = defaultdict(int)
    self_time: Dict[str, float] = defaultdict(float)
    for s in spans:
        sid, name, t0, t1, _parent, rid = s
        anywhere[name] += t1 - t0
        anywhere_n[name] += 1
        if rid in read_set:
            total[name] += t1 - t0
            count[name] += 1
            covered = _union(((c[2], c[3]) for c in children.get(sid, ())),
                             t0, t1)
            self_time[name] += (t1 - t0) - covered

    def per_read(name: str) -> float:
        return 1000.0 * total[name] / n_reads

    def csum(name: str) -> float:
        """Counter ``name`` over the load requests and the commit path."""
        per = dump["counts"].get(name, {})
        return sum(v for rid, v in per.items() if rid == 0 or rid in kinds)

    def rsum(name: str) -> float:
        """Counter ``name`` over the read requests only."""
        per = dump["counts"].get(name, {})
        return sum(v for rid, v in per.items() if rid in read_set)

    m: Dict[str, float] = {}

    # -- wire --------------------------------------------------------------
    server_ms = {
        (requests[s[5]][0], requests[s[5]][1]): 1000.0 * (s[3] - s[2])
        for s in spans if s[1] == "server.request" and s[5] in read_set
    }
    outside = [
        1000.0 * lat - server_ms[(port, n)]
        for lat, port, n in client["reads"] if (port, n) in server_ms
    ]
    m["server.client.outside_server_ms"] = (
        statistics.fmean(outside) if outside else 0.0)
    m["server.protocol.parse_ms"] = per_read("server.protocol.parse")
    m["server.protocol.frame_ms"] = per_read("server.protocol.frame")
    # Rows returned, as the clients decoded them.
    rows_per_read = (client["read_rows"] / len(client["reads"])
                     if client["reads"] else 0.0)
    m["server.protocol.rows_per_req"] = rows_per_read
    m["server.session.write_ms"] = per_read("server.session.write")

    # -- executor ------------------------------------------------------------
    m["server.executor.lock_wait_ms.read"] = per_read(
        "server.executor.lock_wait.read")
    applies = max(anywhere_n["server.executor.apply"], 1)
    m["server.executor.lock_wait_ms.ingest"] = (
        1000.0 * anywhere["server.executor.lock_wait.ingest"] / applies)
    m["server.executor.lock_hold_ms.read"] = (
        1000.0 * rsum("lock_hold_s.read") / n_reads)
    m["server.executor.lock_hold_ms.ingest"] = (
        1000.0 * csum("lock_hold_s.ingest") / applies)
    m["server.executor.pin_ms"] = per_read("server.executor.pin")
    m["server.executor.column_ms"] = per_read("server.executor.column")
    m["server.executor.column_rebuilds_per_read"] = (
        count["server.executor.column_rebuild"] / n_reads)
    m["server.executor.snapshot_rows_ms"] = per_read(
        "server.executor.snapshot_rows")
    kernel_rows = rsum("vector.kernels.atinstant_rows")
    m["server.executor.objects_evaluated_per_row"] = (
        kernel_rows / n_reads / rows_per_read if rows_per_read else 0.0)

    # -- column cache and kernel ---------------------------------------------
    cfv = [s for s in spans if s[1] == "vector.cache.column_for_versioned"]
    built = {
        s[4] for s in spans
        if s[1] in ("vector.cache.build", "vector.cache.extend")
    }
    hits = sum(1 for s in cfv if s[0] not in built)
    m["vector.cache.hit_ratio"] = hits / len(cfv) if cfv else 0.0
    m["vector.cache.build_ms"] = (
        per_read("vector.cache.build") + per_read("vector.cache.extend"))
    m["vector.kernels.atinstant_ms"] = per_read("vector.kernels.atinstant")
    m["vector.kernels.atinstant_rows"] = (
        kernel_rows / n_reads if count["vector.kernels.atinstant"] else 0.0)

    # -- R-tree ----------------------------------------------------------------
    m["index.rtree.search_ms"] = per_read("index.rtree.search")
    m["index.rtree.candidates_per_row"] = (
        rsum("index.rtree.candidates") / n_reads / rows_per_read
        if rows_per_read else 0.0)
    m["index.rtree.insert_ms"] = (
        1000.0 * anywhere["index.rtree.insert"] / n_ingests
        if ingests else 0.0)

    # -- shard manager -----------------------------------------------------------
    maps = count["shard.manager.map"]
    columns = count["shard.manager.column"]
    m["shard.manager.column_ms"] = per_read("shard.manager.column")
    m["shard.manager.rtree_ms"] = per_read("shard.manager.rtree")
    m["shard.manager.maps_per_query"] = maps / n_reads
    m["shard.manager.hit_ratio"] = (
        (columns - maps) / columns if columns else 0.0)
    m["shard.manager.evictions_per_query"] = (
        rsum("shard.manager.evictions") / n_reads)
    m["shard.manager.resident_bytes_peak"] = dump["peaks"].get(
        "shard.manager.resident_bytes", 0.0)
    kept = rsum("shard.manager.kept")
    pruned = rsum("shard.manager.pruned")
    m["shard.manager.pruned_ratio"] = (
        pruned / (kept + pruned) if kept + pruned else 0.0)

    # -- ingest and WAL --------------------------------------------------------
    # Each group commit is linked to the requests of the units it batched.
    commits = anywhere_n["server.ingest.commit"]
    units = sum(len(dump["links"].get(s[0], ())) for s in spans
                if s[1] == "server.ingest.commit")
    syncs = anywhere_n["storage.wal.sync"]
    m["server.ingest.commit_ms"] = (
        1000.0 * anywhere["server.ingest.commit"] / commits if commits
        else 0.0)
    m["server.ingest.batch_units"] = units / commits if commits else 0.0
    m["server.ingest.queue_wait_ms"] = (
        1000.0 * csum("server.ingest.queue_wait_s") / units
        if units else 0.0)
    m["server.executor.apply_ms"] = (
        1000.0 * anywhere["server.executor.apply"] / applies
        if anywhere_n["server.executor.apply"] else 0.0)
    m["storage.wal.sync_ms"] = (
        1000.0 * anywhere["storage.wal.sync"] / syncs if syncs else 0.0)
    m["storage.wal.syncs_per_unit"] = syncs / units if units else 0.0
    m["storage.wal.bytes_per_user_byte"] = (
        csum("storage.wal.bytes")
        / (units * inputs.USER_BYTES_PER_UNIT) if units else 0.0)

    # -- SQL and the operation algebra --------------------------------------
    m["db.sql.parse_ms"] = per_read("db.sql.parse")
    m["db.sql.plan_ms"] = per_read("db.sql.plan")
    m["db.script.run_ms"] = per_read("db.script.run")
    join_rows = rsum("db.executor.join_rows")
    m["db.executor.pairs_per_row"] = (
        rsum("db.executor.pairs") / join_rows if join_rows else 0.0)
    m["ops.distance.mpoint_distance_ms"] = per_read(
        "ops.distance.mpoint_distance")
    m["ops.distance.mpoint_distance_calls"] = (
        count["ops.distance.mpoint_distance"] / n_reads)
    m["ops.aggregates.atmin_ms"] = per_read("ops.aggregates.atmin")
    m["temporal.refinement.partition_ms"] = per_read(
        "temporal.refinement.partition")
    m["ops.projection.trajectory_ms"] = per_read("ops.projection.trajectory")

    # -- tracing overhead and layer accounting ------------------------------
    def p50_ms(samples: Sequence[tuple]) -> float:
        return 1000.0 * statistics.median(s[0] for s in samples)

    m["trace.overhead.read_p50_ms"] = (
        p50_ms(client["reads"]) - p50_ms(untraced["reads"])
        if client["reads"] and untraced["reads"] else 0.0)
    m["trace.overhead.ingest_p50_ms"] = (
        p50_ms(client["ingests"]) - p50_ms(untraced["ingests"])
        if client["ingests"] and untraced["ingests"] else 0.0)
    req_total = req_covered = 0.0
    n_req = 0
    for s in spans:
        if s[1] != "server.request" or s[5] not in kinds:
            continue
        req_total += s[3] - s[2]
        req_covered += _union(
            ((c[2], c[3]) for c in children.get(s[0], ())), s[2], s[3])
        n_req += 1
    m["trace.accounting.attributed_share"] = (
        req_covered / req_total if req_total else 0.0)
    m["trace.accounting.unattributed_ms"] = (
        1000.0 * (req_total - req_covered) / n_req if n_req else 0.0)

    # -- exact counts beside the program's lower bounds ---------------------
    def stat(name: str) -> float:
        return stats_after.get(name, 0.0) - stats_before.get(name, 0.0)

    m["vector.cache.hits"] = hits
    m["stats.colcache.hits_lower_bound"] = stat("colcache.hits")
    m["vector.cache.builds"] = anywhere_n["vector.cache.build"]
    m["stats.colcache.misses_lower_bound"] = stat("colcache.misses")
    m["shard.manager.maps"] = maps
    m["stats.shard.maps_lower_bound"] = stat("shard.maps")
    m["shard.manager.evictions"] = csum("shard.manager.evictions")
    m["stats.shard.evictions_lower_bound"] = stat("shard.evictions")
    m["storage.wal.syncs"] = syncs
    m["stats.wal.syncs_lower_bound"] = stat("wal.syncs")
    m["server.ingest.group_commits"] = commits
    m["stats.ingest.group_commits_lower_bound"] = stat(
        "ingest.group_commits")

    table = sorted(
        ((name, 1000.0 * self_time[name] / n_reads, count[name])
         for name in self_time),
        key=lambda row: -row[1],
    )
    reached = {name for name, _, _, span in PER_LAYER if anywhere_n[span]}
    return ({name: float(m[name]) for name, _, _, _ in PER_LAYER}, reached,
            table)
