"""Sharded fleets: partitioning, residency budget, scatter-gather, wiring.

Everything here asserts *equivalence first*: the sharded backend must
return bit-identical results to the unsharded vector kernels on every
path (exec entry points, SQL scans, server snapshots), with the memory
budget enforced by CLOCK eviction and recovery scoped to single shards.
"""

import os

import numpy as np
import pytest

from repro import obs
from repro import shard as shardmod
from repro.db import Database
from repro.errors import InvalidValue
from repro.server.executor import FleetExecutor
from repro.shard import (
    ShardManager,
    ShardedFleet,
    shard_of,
    sharded_atinstant,
    sharded_bbox_filter,
    sharded_count_inside,
    sharded_window_intervals,
)
from repro.spatial.bbox import Cube, Rect
from repro.temporal.mapping import MovingPoint
from repro.vector.cache import (
    ColumnCache,
    Fleet,
    clear_cache,
    column_nbytes,
)
from repro.vector.fleet import set_backend
from repro.vector.kernels import atinstant_batch, window_intervals_batch
from repro.vector.store import _BUILDERS, set_store
from repro.workloads.trajectories import random_flights


@pytest.fixture(autouse=True)
def _clean_state():
    """Scalar default, unsharded default, no budget, empty caches."""
    set_backend("scalar")
    shardmod.set_shards(1)
    shardmod.set_memory_budget(None)
    clear_cache()
    yield
    set_backend("scalar")
    shardmod.set_shards(1)
    shardmod.set_memory_budget(None)
    clear_cache()
    set_store(None)


def make_fleet(n=60, seed=11):
    return random_flights(n, seed=seed)


# ---------------------------------------------------------------------------
# Hash partitioning
# ---------------------------------------------------------------------------


class TestShardOf:
    def test_deterministic_and_in_range(self):
        for n_shards in (1, 2, 3, 7):
            for gid in range(200):
                s = shard_of(gid, n_shards)
                assert 0 <= s < n_shards
                assert s == shard_of(gid, n_shards)

    def test_spreads_consecutive_ids(self):
        # The multiplicative hash must not send a consecutive run of
        # ids to one shard (a modulo-by-id layout would round-robin;
        # a constant layout would starve the scatter).
        hits = {shard_of(gid, 4) for gid in range(16)}
        assert len(hits) == 4

    def test_rejects_bad_count(self):
        with pytest.raises(InvalidValue):
            shard_of(3, 0)
        with pytest.raises(InvalidValue):
            ShardedFleet([], n_shards=0)


class TestShardedFleet:
    def test_global_order_matches_list(self):
        mappings = make_fleet(50)
        fleet = ShardedFleet(mappings, 4)
        assert len(fleet) == 50
        assert list(fleet) == list(mappings)
        for i in range(50):
            assert fleet[i] is mappings[i]

    def test_globals_ascending_and_complete(self):
        fleet = ShardedFleet(make_fleet(40), 3)
        seen = []
        for s in range(3):
            gids = fleet.globals_of(s)
            assert gids.dtype == np.int64
            assert np.all(np.diff(gids) > 0)
            seen.extend(int(g) for g in gids)
        assert sorted(seen) == list(range(40))

    def test_append_bumps_exactly_one_coordinate(self):
        mappings = make_fleet(30)
        fleet = ShardedFleet(mappings[:29], 4)
        v0 = fleet.version
        fleet.append(mappings[29])
        v1 = fleet.version
        changed = [s for s in range(4) if v0[s] != v1[s]]
        assert changed == [shard_of(29, 4)]

    def test_setitem_bumps_exactly_one_coordinate(self):
        mappings = make_fleet(30)
        fleet = ShardedFleet(mappings, 4)
        v0 = fleet.version
        fleet[7] = mappings[8]
        v1 = fleet.version
        changed = [s for s in range(4) if v0[s] != v1[s]]
        assert changed == [shard_of(7, 4)]
        assert fleet[7] is mappings[8]

    def test_ingest_routed_counted(self):
        obs.reset()
        obs.enable()
        try:
            ShardedFleet(make_fleet(10), 2)
        finally:
            obs.disable()
        assert obs.get("shard.ingest_routed") == 10

    def test_bounds_union_and_poison(self):
        mappings = make_fleet(20)
        fleet = ShardedFleet(mappings, 2)
        for s in range(2):
            bound = fleet.bounds(s)
            for j, gid in enumerate(fleet.globals_of(s)):
                assert bound.union(mappings[gid].bounding_cube()) == bound
        # A member with no bounding cube poisons its shard for good.
        fleet2 = ShardedFleet([], 1)
        fleet2.append(object())
        fleet2.append(mappings[0])
        assert fleet2.bounds(0) is None


# ---------------------------------------------------------------------------
# Column cache byte budget (satellite: colcache.bytes)
# ---------------------------------------------------------------------------


class TestColumnCacheBudget:
    def test_bytes_accounted_and_evicted(self):
        cache = ColumnCache(budget=1)
        a, b = Fleet(make_fleet(10)), Fleet(make_fleet(10, seed=12))
        cache.get(a, "upoint")
        cache.get(b, "upoint")
        # Budget of one byte: at most one entry can be mid-insertion
        # resident; the eviction loop then drops it too.
        assert cache.resident_bytes <= column_nbytes(cache.get(b, "upoint"))
        assert len(cache) <= 1

    def test_unbudgeted_keeps_entries(self):
        cache = ColumnCache()
        fleets = [Fleet(make_fleet(5, seed=s)) for s in range(4)]
        for f in fleets:
            cache.get(f, "upoint")
        assert len(cache) == 4
        assert cache.resident_bytes == sum(
            column_nbytes(cache.get(f, "upoint")) for f in fleets
        )

    def test_high_water_gauge(self):
        obs.reset()
        obs.enable()
        try:
            cache = ColumnCache()
            fleet = Fleet(make_fleet(8))
            col = cache.get(fleet, "upoint")
            gauge = obs.snapshot()["gauges"].get("colcache.bytes", 0.0)
        finally:
            obs.disable()
        assert gauge >= column_nbytes(col)

    def test_pinned_store_columns_exempt(self, tmp_path):
        set_store(os.fspath(tmp_path))
        cache = ColumnCache(budget=1)
        fleet = Fleet(make_fleet(10))
        col = cache.get(fleet, "upoint")
        assert col.source is not None  # memmap-backed: pinned
        assert cache.resident_bytes == 0
        assert len(cache) == 1  # survives a one-byte budget

    def test_drop_fleet_releases_bytes(self):
        cache = ColumnCache()
        fleet = Fleet(make_fleet(6))
        cache.get(fleet, "upoint")
        cache.get(fleet, "bbox")
        assert cache.resident_bytes > 0
        cache.drop_fleet(fleet)
        assert cache.resident_bytes == 0
        assert len(cache) == 0


# ---------------------------------------------------------------------------
# ShardManager residency
# ---------------------------------------------------------------------------


class TestShardManager:
    def test_budget_evicts_cold_shards(self):
        fleet = ShardedFleet(make_fleet(60), 4)
        manager = ShardManager(fleet, budget=1)
        obs.reset()
        obs.enable()
        try:
            for s in range(4):
                manager.column(s, "upoint")
        finally:
            obs.disable()
        assert obs.get("shard.evictions") >= 3
        assert manager.resident_bytes <= column_nbytes(
            manager.column(0, "upoint")
        )

    def test_unbudgeted_keeps_all_resident(self):
        fleet = ShardedFleet(make_fleet(60), 4)
        manager = ShardManager(fleet)
        for s in range(4):
            manager.column(s, "upoint")
        assert manager.resident_shards() == [0, 1, 2, 3]

    def test_hits_counted_and_version_checked(self):
        mappings = make_fleet(40)
        fleet = ShardedFleet(mappings, 2)
        manager = ShardManager(fleet)
        obs.reset()
        obs.enable()
        try:
            manager.column(0, "upoint")
            manager.column(0, "upoint")
            hits = obs.get("shard.hits")
            # An ingest into shard 0 must invalidate its column.
            gid = int(fleet.globals_of(0)[0])
            fleet[gid] = mappings[gid]
            manager.column(0, "upoint")
            maps = obs.get("shard.maps")
        finally:
            obs.disable()
        assert hits == 1
        assert maps == 2

    def test_process_budget_fallback(self):
        fleet = ShardedFleet(make_fleet(40), 4)
        manager = ShardManager(fleet)  # no explicit budget
        shardmod.set_memory_budget(1)
        for s in range(4):
            manager.column(s, "upoint")
        assert len(manager.resident_shards()) <= 1

    def test_prune_rules_out_disjoint_shards(self):
        fleet = ShardedFleet(make_fleet(40), 4)
        manager = ShardManager(fleet)
        far = Cube(1e9, 1e9, 1e9, 1e9 + 1, 1e9 + 1, 1e9 + 1)
        obs.reset()
        obs.enable()
        try:
            keep = manager.prune(far)
        finally:
            obs.disable()
        assert keep == []
        assert obs.get("shard.pruned") == 4
        assert manager.resident_shards() == []  # no column was mapped

    def test_window_candidates_global_ids(self):
        mappings = make_fleet(40)
        fleet = ShardedFleet(mappings, 3)
        manager = ShardManager(fleet)
        cube = mappings[5].bounding_cube()
        cand = manager.window_candidates(cube)
        assert 5 in cand
        for gid in cand:
            assert mappings[gid].bounding_cube().intersects(cube)

    def test_per_shard_store_directories(self, tmp_path):
        fleet = ShardedFleet(make_fleet(30), 3)
        manager = ShardManager(fleet, root=os.fspath(tmp_path))
        manager.persist()
        dirs = sorted(p for p in os.listdir(tmp_path) if p.startswith("shard_"))
        assert dirs == ["shard_000", "shard_001", "shard_002"]

    def test_verify_and_repair_rebuilds_one_shard(self, tmp_path):
        fleet = ShardedFleet(make_fleet(30), 3)
        manager = ShardManager(fleet, root=os.fspath(tmp_path))
        manager.persist()
        # Corrupt exactly one shard's column payload on disk.
        victim_dir = os.path.join(tmp_path, "shard_001")
        paths = [
            os.path.join(victim_dir, p)
            for p in os.listdir(victim_dir)
            if not p.endswith("manifest.json")
        ]
        target = max(paths, key=os.path.getsize)
        with open(target, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            byte = fh.read(1)
            fh.seek(-1, os.SEEK_END)
            fh.write(bytes([byte[0] ^ 0xFF]))
        obs.reset()
        obs.enable()
        try:
            rebuilt = manager.verify_and_repair()
        finally:
            obs.disable()
        assert rebuilt == [1]
        assert obs.get("shard.rebuilds") == 1
        # The repaired store verifies clean and still serves the column.
        assert manager.verify_and_repair() == []
        col = manager.column(1, "upoint")
        want = _BUILDERS["upoint"](fleet.shards[1])
        assert np.array_equal(col.starts, want.starts)

    def test_total_column_bytes_matches_built(self):
        fleet = ShardedFleet(make_fleet(30), 3)
        manager = ShardManager(fleet)
        built = sum(
            column_nbytes(_BUILDERS["upoint"](fleet.shards[s]))
            for s in range(3)
        )
        assert manager.total_column_bytes() == built


# ---------------------------------------------------------------------------
# Scatter-gather equivalence
# ---------------------------------------------------------------------------


def _manager(n=60, shards=4, seed=11, budget=None):
    mappings = make_fleet(n, seed=seed)
    return mappings, ShardManager(ShardedFleet(mappings, shards), budget=budget)


class TestScatterGatherEquivalence:
    @pytest.mark.parametrize("budget", [None, 1])
    def test_window_intervals_bit_identical(self, budget):
        mappings, manager = _manager(budget=budget)
        col = _BUILDERS["upoint"](mappings)
        cube = mappings[3].bounding_cube()
        rect = Rect(cube.xmin, cube.ymin, cube.xmax, cube.ymax)
        t0, t1 = cube.tmin, cube.tmax
        want = window_intervals_batch(col, rect, t0, t1)
        got = sharded_window_intervals(manager, rect, t0, t1)
        assert len(want[0]) > 0
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("budget", [None, 1])
    def test_atinstant_bit_identical(self, budget):
        mappings, manager = _manager(budget=budget)
        col = _BUILDERS["upoint"](mappings)
        t = mappings[0].units[0].interval.s
        want = atinstant_batch(col, t)
        got = sharded_atinstant(manager, t)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    def test_count_inside_matches_scalar(self):
        from repro.workloads.regions import regular_polygon

        mappings, manager = _manager()
        t = mappings[0].units[0].interval.s
        region = regular_polygon((0.0, 0.0), 1e6, 8)
        want = sum(
            1
            for m in mappings
            if m.value_at(t) is not None
            and region.contains_point(m.value_at(t).vec)
        )
        assert sharded_count_inside(manager, region, t) == want

    def test_bbox_filter_ascending_globals(self):
        mappings, manager = _manager()
        cube = mappings[7].bounding_cube()
        got = sharded_bbox_filter(manager, cube)
        want = [
            i
            for i, m in enumerate(mappings)
            if m.bounding_cube().intersects(cube)
        ]
        assert got == want

    def test_no_match_window_is_dtype_exact_empty(self):
        mappings, manager = _manager()
        got = sharded_window_intervals(
            manager, Rect(1e9, 1e9, 1e9 + 1, 1e9 + 1), 0.0, 1.0
        )
        want = window_intervals_batch(
            _BUILDERS["upoint"](mappings), Rect(1e9, 1e9, 1e9 + 1, 1e9 + 1),
            0.0, 1.0,
        )
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert len(g) == len(w) == 0

    def test_empty_fleet(self):
        manager = ShardManager(ShardedFleet([], 3))
        got = sharded_window_intervals(manager, Rect(0, 0, 1, 1), 0.0, 1.0)
        assert all(len(g) == 0 for g in got)
        x, y, defined = sharded_atinstant(manager, 0.0)
        assert len(x) == len(y) == len(defined) == 0

    def test_scalar_backend_falls_through(self):
        mappings, manager = _manager(n=20, shards=2)
        cube = mappings[3].bounding_cube()
        rect = Rect(cube.xmin, cube.ymin, cube.xmax, cube.ymax)
        want = sharded_window_intervals(manager, rect, cube.tmin, cube.tmax)
        got = sharded_window_intervals(
            manager, rect, cube.tmin, cube.tmax, backend="scalar"
        )
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_scatters_counted(self):
        mappings, manager = _manager(n=20, shards=2)
        obs.reset()
        obs.enable()
        try:
            sharded_atinstant(manager, mappings[0].units[0].interval.s)
        finally:
            obs.disable()
        assert obs.get("shard.scatters") == 1


# ---------------------------------------------------------------------------
# SQL planner wiring
# ---------------------------------------------------------------------------


def planes_db():
    db = Database()
    planes = db.create_relation(
        "planes",
        [("airline", "string"), ("id", "string"), ("flight", "mpoint")],
    )
    planes.insert(
        ["L", "LH1",
         MovingPoint.from_waypoints([(0, (0, 0)), (100, (6000, 0))])]
    )
    planes.insert(
        ["L", "LH2",
         MovingPoint.from_waypoints([(0, (0, 10)), (100, (3000, 10))])]
    )
    planes.insert(
        ["A", "AF1",
         MovingPoint.from_waypoints([(50, (0, 0.2)), (150, (6000, 0.2))])]
    )
    return db


SQL_QUERIES = [
    "SELECT id FROM planes WHERE present(flight, 120)",
    "SELECT id FROM planes WHERE passes_window(flight, 0, 0, 100, 100, 0, 10)",
    "SELECT id FROM planes WHERE passes_window(flight, 0, 0, 100, 100, 0, 10) "
    "AND present(flight, 5)",
]


class TestSqlWiring:
    @pytest.mark.parametrize("sql", SQL_QUERIES)
    def test_sharded_backend_parity(self, sql):
        db = planes_db()
        set_backend("scalar")
        scalar = sorted(r["id"].value for r in db.query(sql))
        set_backend("sharded")
        shardmod.set_shards(2)
        sharded = sorted(r["id"].value for r in db.query(sql))
        assert sharded == scalar

    def test_explain_shows_sharded_scan(self):
        from repro.db.sql import explain

        db = planes_db()
        set_backend("sharded")
        shardmod.set_shards(3)
        plan = explain(db, SQL_QUERIES[0])
        assert "ShardedScan(planes" in plan
        assert "shards=3" in plan
        assert "budget=unbounded" in plan
        shardmod.set_memory_budget(64 * 1024)
        assert "budget=65536" in explain(db, SQL_QUERIES[0])

    def test_budgeted_scan_parity(self):
        db = planes_db()
        set_backend("scalar")
        scalar = sorted(r["id"].value for r in db.query(SQL_QUERIES[1]))
        set_backend("sharded")
        shardmod.set_shards(2)
        shardmod.set_memory_budget(1)
        sharded = sorted(r["id"].value for r in db.query(SQL_QUERIES[1]))
        assert sharded == scalar


# ---------------------------------------------------------------------------
# Server wiring
# ---------------------------------------------------------------------------


class _Req:
    def __init__(self, fleet, obj, unit, seq=""):
        self.fleet = fleet
        self.obj = obj
        self.unit = unit
        self.seq = seq


class TestServerWiring:
    def test_snapshot_parity_with_unsharded(self):
        mappings = make_fleet(50)
        plain = FleetExecutor()
        plain.register_fleet("f", mappings)
        sharded = FleetExecutor()
        fleet = sharded.register_fleet("f", mappings, shards=3)
        assert isinstance(fleet, ShardedFleet)
        t = mappings[0].units[0].interval.s
        _, want = plain.snapshot_rows("f", t)
        _, got = sharded.snapshot_rows("f", t)
        assert got == want
        window = (0.0, 0.0, 5000.0, 5000.0)
        _, want = plain.snapshot_rows("f", t, window=window)
        _, got = sharded.snapshot_rows("f", t, window=window)
        assert got == want

    def test_ingest_touches_exactly_one_shard(self):
        ex = FleetExecutor()
        ex.register_fleet("f", make_fleet(20), shards=4)
        v0 = ex.fleet("f").version
        out = ex.apply_units(
            [_Req("f", 20, (0.0, 1.0, 1.0, 2.0, 3.0, 3.0))]
        )
        assert out == [1]
        v1 = ex.fleet("f").version
        changed = [s for s in range(4) if v0[s] != v1[s]]
        assert changed == [shard_of(20, 4)]
        # The new object is served by the next snapshot.
        _, rows = ex.snapshot_rows("f", 1.0)
        assert any(r[0] == 20 for r in rows)

    def test_snapshot_isolation_across_ingest(self):
        mappings = make_fleet(20)
        ex = FleetExecutor()
        ex.register_fleet("f", mappings, shards=3)
        t = mappings[0].units[0].interval.s
        snap, before = ex.snapshot_rows("f", t)
        ex.apply_units([_Req("f", 20, (t, 9.0, 9.0, t + 1.0, 9.0, 9.0))])
        _, after_pin = ex.snapshot_rows("f", t)
        # The live fleet sees the ingest; the earlier rows are untouched
        # (they were assembled from columns pinned at snap's vector).
        assert any(r[0] == 20 for r in after_pin)
        assert not any(r[0] == 20 for r in before)

    def test_budgeted_server_snapshot(self):
        mappings = make_fleet(30)
        shardmod.set_memory_budget(1)
        ex = FleetExecutor()
        ex.register_fleet("f", mappings, shards=4)
        plain = FleetExecutor()
        plain.register_fleet("f", mappings)
        t = mappings[0].units[0].interval.s
        _, want = plain.snapshot_rows("f", t)
        _, got = ex.snapshot_rows("f", t)
        assert got == want

    def test_stats_reports_shards(self):
        ex = FleetExecutor()
        ex.register_fleet("f", make_fleet(10), shards=2)
        stats = ex.stats()
        assert stats["fleet.f.shards"] == 2
        assert stats["fleet.f.objects"] == 10
        v0 = stats["fleet.f.version"]
        ex.apply_units([_Req("f", 10, (0.0, 0.0, 0.0, 1.0, 1.0, 1.0))])
        assert ex.stats()["fleet.f.version"] == v0 + 1

    def test_process_default_shards(self):
        shardmod.set_shards(3)
        ex = FleetExecutor()
        fleet = ex.register_fleet("f", make_fleet(10))
        assert isinstance(fleet, ShardedFleet)
        assert fleet.n_shards == 3


# ---------------------------------------------------------------------------
# Chaos scenario + CLI flags
# ---------------------------------------------------------------------------


class TestChaosScenario:
    def test_evict_during_query_quick(self):
        from repro.server.chaos import SCENARIOS

        entry = SCENARIOS["shard.evict_during_query"](
            "shard.evict_during_query", 2026, True
        )
        assert entry.fired
        assert entry.ok, entry.detail


class TestCliFlags:
    def test_shards_validation(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["--shards", "0", "info"]) == 2
        assert "--shards" in capsys.readouterr().err

    def test_memory_budget_validation(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["--memory-budget", "64x", "info"]) == 2
        assert "--memory-budget" in capsys.readouterr().err

    def test_parse_bytes_suffixes(self):
        from repro.cli import _parse_bytes

        assert _parse_bytes("512") == 512
        assert _parse_bytes("2k") == 2048
        assert _parse_bytes("64M") == 64 * 1024 ** 2
        assert _parse_bytes("1g") == 1024 ** 3
        with pytest.raises(ValueError):
            _parse_bytes("0")

    def test_flags_arm_process_defaults(self):
        from repro.cli import main as cli_main

        assert (
            cli_main(
                ["--backend", "sharded", "--shards", "2",
                 "--memory-budget", "1k", "snapshot", "--objects", "16"]
            )
            == 0
        )
        assert shardmod.get_shards() == 2
        assert shardmod.get_memory_budget() == 1024


# ---------------------------------------------------------------------------
# 2-shard equivalence smoke (scripts/check.sh runs -k smoke)
# ---------------------------------------------------------------------------


def test_v10_smoke_shard_equivalence():
    """2 shards, tiny budget: window + instant results bit-identical."""
    mappings = make_fleet(24, seed=5)
    manager = ShardManager(ShardedFleet(mappings, 2), budget=1)
    col = _BUILDERS["upoint"](mappings)
    cube = mappings[1].bounding_cube()
    rect = Rect(cube.xmin, cube.ymin, cube.xmax, cube.ymax)
    want = window_intervals_batch(col, rect, cube.tmin, cube.tmax)
    got = sharded_window_intervals(manager, rect, cube.tmin, cube.tmax)
    assert len(want[0]) > 0
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    t = mappings[0].units[0].interval.s
    for g, w in zip(sharded_atinstant(manager, t), atinstant_batch(col, t)):
        assert g.tobytes() == w.tobytes()
