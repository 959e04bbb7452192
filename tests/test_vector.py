"""Unit tests for the columnar vector backend (repro.vector)."""

import numpy as np
import pytest

from repro import obs
from repro.db.catalog import Database
from repro.errors import InvalidValue
from repro.geometry.plumbline import crossings_above, point_in_segset
from repro.ops.window import WindowQueryEngine
from repro.ranges.interval import Interval
from repro.spatial.bbox import Cube, Rect
from repro.spatial.region import Region
from repro.temporal.mapping import MovingPoint, MovingReal
from repro.temporal.upoint import UPoint
from repro.temporal.ureal import UReal
from repro.vector.columns import BBoxColumn, UPointColumn, URealColumn
from repro.vector.fleet import (
    fleet_atinstant,
    fleet_atinstant_real,
    fleet_bbox_filter,
    fleet_count_inside,
    get_backend,
    set_backend,
)
from repro.vector.kernels import (
    atinstant_batch,
    bbox_filter_batch,
    crossings_above_batch,
    inside_prefilter,
    locate_units,
    ureal_atinstant_batch,
)
from repro.workloads.regions import regular_polygon


@pytest.fixture(autouse=True)
def _scalar_default():
    """Every test starts and ends on the scalar default backend."""
    set_backend("scalar")
    yield
    set_backend("scalar")


def make_fleet():
    """A small fleet exercising gaps, ⊥ instants, and open boundaries."""
    a = MovingPoint.from_waypoints([(0, (0, 0)), (10, (10, 0)), (20, (10, 10))])
    # b has a gap (5, 7) and a right-open unit.
    b = MovingPoint(
        [
            UPoint.between(0, (1, 1), 5, (6, 1), rc=False),
            UPoint.between(7, (6, 1), 12, (6, 6), lc=True),
        ]
    )
    c = MovingPoint([])  # empty: ⊥ everywhere
    d = MovingPoint([UPoint.between(3, (2, 2), 4, (3, 3), lc=False, rc=False)])
    return [a, b, c, d]


class TestColumns:
    def test_round_trip(self):
        fleet = make_fleet()
        col = UPointColumn.from_mappings(fleet)
        assert col.n_objects == 4
        assert col.n_units == sum(len(m.units) for m in fleet)
        back = col.to_mappings()
        assert back == fleet

    def test_rejects_non_mpoint(self):
        with pytest.raises(InvalidValue):
            UPointColumn.from_mappings([MovingReal([UReal(Interval(0, 1), 0, 1, 0)])])

    def test_darray_round_trip(self):
        fleet = make_fleet()
        col = UPointColumn.from_mappings(fleet)
        root, units = col.to_darrays()
        assert len(root) == col.n_objects + 1
        assert len(units) == col.n_units
        again = UPointColumn.from_darrays(root, units)
        assert again.to_mappings() == fleet

    def test_ureal_darray_round_trip(self):
        fleet = [
            MovingReal([UReal(Interval(0, 5), 0.0, 1.0, 2.0)]),
            MovingReal(
                [
                    UReal(Interval(0, 2, True, False), 1.0, 0.0, 0.0),
                    UReal(Interval(3, 4), 0.0, 0.0, 9.0, r=True),
                ]
            ),
        ]
        col = URealColumn.from_mappings(fleet)
        root, units = col.to_darrays()
        assert URealColumn.from_darrays(root, units).to_mappings() == fleet

    def test_bbox_column_skips_empty(self):
        fleet = make_fleet()
        col = BBoxColumn.from_mappings(fleet)
        assert len(col) == 3  # the empty mapping contributes no box
        assert 2 not in col.keys

    def test_bbox_per_unit(self):
        fleet = make_fleet()
        col = BBoxColumn.from_mappings(fleet, per_unit=True)
        assert len(col) == sum(len(m.units) for m in fleet)


class TestKernels:
    @pytest.mark.parametrize(
        "t", [0.0, 2.5, 5.0, 6.0, 7.0, 10.0, 12.0, 20.0, 3.0, 3.5, 4.0, -1.0, 99.0]
    )
    def test_atinstant_matches_scalar(self, t):
        fleet = make_fleet()
        col = UPointColumn.from_mappings(fleet)
        xs, ys, defined = atinstant_batch(col, t)
        for i, m in enumerate(fleet):
            p = m.value_at(t)
            if p is None:
                assert not defined[i]
                assert np.isnan(xs[i]) and np.isnan(ys[i])
            else:
                assert defined[i]
                assert xs[i] == p.x and ys[i] == p.y

    def test_locate_units_empty_column(self):
        col = UPointColumn.from_mappings([MovingPoint([]), MovingPoint([])])
        unit, defined = locate_units(col, 1.0)
        assert not defined.any()
        assert len(unit) == 2

    def test_ureal_matches_scalar(self):
        fleet = [
            MovingReal([UReal(Interval(0, 5), 0.5, -1.0, 2.0)]),
            MovingReal(
                [
                    UReal(Interval(0, 2, True, False), 0.0, 1.0, 0.0),
                    UReal(Interval(3, 4), 0.0, 0.0, 9.0, r=True),
                ]
            ),
            MovingReal([]),
        ]
        col = URealColumn.from_mappings(fleet)
        for t in [0.0, 1.0, 2.0, 2.5, 3.0, 3.7, 4.0, 5.0, -2.0]:
            vs, defined = ureal_atinstant_batch(col, t)
            for i, m in enumerate(fleet):
                v = m.value_at(t)
                if v is None:
                    assert not defined[i]
                else:
                    assert defined[i]
                    assert vs[i] == v.value

    def test_ureal_negative_radicand_raises(self):
        # UReal itself refuses such a unit, so build the column directly:
        # the kernel must still guard against corrupt columnar data.
        col = URealColumn(
            [0, 1], [0.0], [1.0], [True], [True], [0.0], [0.0], [-5.0], [True]
        )
        with pytest.raises(InvalidValue):
            ureal_atinstant_batch(col, 0.5)

    def test_bbox_filter_matches_intersects(self):
        fleet = make_fleet()
        col = BBoxColumn.from_mappings(fleet)
        cube = Cube(0, 0, 0, 6, 6, 6)
        mask = bbox_filter_batch(col, cube)
        for key, hit in zip(col.keys, mask):
            assert hit == fleet[key].bounding_cube().intersects(cube)

    def test_crossings_match_scalar(self):
        region = Region.polygon(
            [(0, 0), (10, 0), (10, 10), (0, 10)], holes=[[(4, 4), (6, 4), (5, 6)]]
        )
        segs = list(region.segments())
        pts = [(5.0, 5.0), (1.0, 1.0), (11.0, 5.0), (5.0, 4.5), (0.0, 0.0), (10.0, 5.0)]
        counts = crossings_above_batch(pts, segs)
        for p, n in zip(pts, counts):
            assert n == crossings_above(p, segs)

    def test_inside_prefilter_matches_point_in_segset(self):
        region = Region.polygon(
            [(0, 0), (10, 0), (10, 10), (0, 10)], holes=[[(4, 4), (6, 4), (5, 6)]]
        )
        segs = list(region.segments())
        pts = [(5.0, 5.0), (1.0, 1.0), (11.0, 5.0), (5.0, 4.5), (0.0, 5.0), (10.0, 10.0)]
        inside = inside_prefilter(pts, region)
        for p, got in zip(pts, inside):
            assert bool(got) == point_in_segset(p, segs)


class TestFleet:
    def test_backend_switch(self):
        assert get_backend() == "scalar"
        set_backend("vector")
        assert get_backend() == "vector"
        with pytest.raises(InvalidValue):
            set_backend("simd")

    def test_fleet_atinstant_parity(self):
        fleet = make_fleet()
        for t in [0.0, 3.5, 6.0, 7.0, 12.0, 50.0]:
            assert fleet_atinstant(fleet, t, backend="vector") == fleet_atinstant(
                fleet, t, backend="scalar"
            )

    def test_fleet_atinstant_real_parity(self):
        fleet = [
            MovingReal([UReal(Interval(0, 5), 0.5, -1.0, 2.0)]),
            MovingReal([]),
        ]
        for t in [0.0, 2.0, 5.0, 9.0]:
            assert fleet_atinstant_real(
                fleet, t, backend="vector"
            ) == fleet_atinstant_real(fleet, t, backend="scalar")

    def test_fleet_bbox_filter_parity(self):
        fleet = make_fleet()
        cube = Cube(0, 0, 0, 6, 6, 6)
        assert fleet_bbox_filter(fleet, cube, backend="vector") == fleet_bbox_filter(
            fleet, cube, backend="scalar"
        )

    def test_fleet_count_inside_parity(self):
        fleet = make_fleet()
        region = regular_polygon((5, 2), 6.0, sides=8)
        for t in [0.0, 3.5, 8.0]:
            assert fleet_count_inside(
                fleet, t, region, backend="vector"
            ) == fleet_count_inside(fleet, t, region, backend="scalar")

    def test_mixed_fleet_falls_back_and_counts(self):
        mixed = [
            MovingPoint.from_waypoints([(0, (0, 0)), (1, (1, 1))]),
            MovingReal([UReal(Interval(0, 1), 0, 0, 1)]),  # wrong unit type
        ]
        obs.reset()
        obs.enable()
        try:
            out = fleet_atinstant(mixed, 0.5, backend="vector")
        finally:
            obs.disable()
        assert out[0] is not None
        assert obs.get("vector.fallback_to_scalar") == 1
        assert obs.get("vector.fallback_to_scalar.upoint_column") == 1

    def test_bbox_filter_mixed_fleet_falls_back_and_counts(self):
        # A duck-typed member the column builder rejects but the scalar
        # loop handles (it only needs .units and .bounding_cube()): the
        # vector arm must route through the counted fallback instead of
        # crashing — and both arms must agree.
        class TrajectoryLike:
            def __init__(self, mp):
                self.units = mp.units
                self._mp = mp

            def bounding_cube(self):
                return self._mp.bounding_cube()

        real = MovingPoint.from_waypoints([(0, (0, 0)), (1, (1, 1))])
        duck = TrajectoryLike(
            MovingPoint.from_waypoints([(0, (100, 100)), (1, (101, 101))])
        )
        fleet = [real, duck]
        cube = Cube(0, 0, 0, 2, 2, 2)
        obs.reset()
        obs.enable()
        try:
            out = fleet_bbox_filter(fleet, cube, backend="vector")
        finally:
            obs.disable()
        assert out == fleet_bbox_filter(fleet, cube, backend="scalar") == [0]
        assert obs.get("vector.fallback_to_scalar") == 1
        assert obs.get("vector.fallback_to_scalar.bbox_column") == 1


@pytest.fixture
def planes_db():
    db = Database()
    planes = db.create_relation(
        "planes", [("airline", "string"), ("id", "string"), ("flight", "mpoint")]
    )
    planes.insert(
        ["L", "LH1", MovingPoint.from_waypoints([(0, (0, 0)), (100, (6000, 0))])]
    )
    planes.insert(
        ["L", "LH2", MovingPoint.from_waypoints([(0, (0, 10)), (100, (3000, 10))])]
    )
    planes.insert(
        ["A", "AF1", MovingPoint.from_waypoints([(50, (0, 0.2)), (150, (6000, 0.2))])]
    )
    return db


QUERIES = [
    "SELECT id FROM planes WHERE present(flight, 120)",
    "SELECT id FROM planes WHERE passes_window(flight, 0, 0, 100, 100, 0, 10)",
    "SELECT id FROM planes WHERE passes_window(flight, 0, 0, 100, 100, 0, 10) "
    "AND present(flight, 5)",
    "SELECT id FROM planes WHERE airline = 'L' AND present(flight, 120)",
    "SELECT airline, id FROM planes WHERE length(trajectory(flight)) > 5000",
]


class TestDbWiring:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_backend_parity(self, planes_db, sql):
        set_backend("scalar")
        scalar = sorted(r["id"].value for r in planes_db.query(sql))
        set_backend("vector")
        vector = sorted(r["id"].value for r in planes_db.query(sql))
        set_backend("sharded")
        sharded = sorted(r["id"].value for r in planes_db.query(sql))
        assert scalar == vector == sharded

    def test_batch_select_counts(self, planes_db):
        set_backend("vector")
        obs.reset()
        obs.enable()
        try:
            planes_db.query(QUERIES[0])
        finally:
            obs.disable()
        assert obs.get("vector.batch_select.calls") == 1
        assert obs.get("vector.batch_select.rows") == 3

    def test_non_compilable_predicate_falls_back(self, planes_db):
        set_backend("vector")
        obs.reset()
        obs.enable()
        try:
            planes_db.query(QUERIES[3])
        finally:
            obs.disable()
        assert obs.get("vector.fallback_to_scalar.predicate") == 1

    def test_explain_shows_vector_scan(self, planes_db):
        from repro.db.sql import explain

        set_backend("vector")
        assert "VectorScan(planes" in explain(planes_db, QUERIES[0])
        set_backend("scalar")
        assert "SeqScan(planes" in explain(planes_db, QUERIES[0])


class TestWindowEngine:
    def test_backend_parity(self):
        import random

        rng = random.Random(11)
        eng = WindowQueryEngine()
        for i in range(60):
            t, wps = 0.0, []
            for _ in range(4):
                wps.append((t, (rng.uniform(0, 100), rng.uniform(0, 100))))
                t += rng.uniform(1, 10)
            eng.add(f"o{i}", MovingPoint.from_waypoints(wps))
        for _ in range(10):
            x0, y0 = rng.uniform(0, 80), rng.uniform(0, 80)
            rect = Rect(x0, y0, x0 + rng.uniform(1, 40), y0 + rng.uniform(1, 40))
            t0 = rng.uniform(0, 20)
            t1 = t0 + rng.uniform(0, 15)
            scalar = eng.query(rect, t0, t1, backend="scalar")
            vector = eng.query(rect, t0, t1, backend="vector")
            naive = eng.query_naive(rect, t0, t1)
            assert scalar == vector == naive


class TestCli:
    def test_snapshot_backend_parity(self, capsys):
        from repro.cli import main

        assert main(["snapshot", "--objects", "50"]) == 0
        scalar_out = capsys.readouterr().out
        assert main(["--backend", "vector", "snapshot", "--objects", "50"]) == 0
        vector_out = capsys.readouterr().out
        # Identical except for the backend banner line.
        assert scalar_out.splitlines()[1:] == vector_out.splitlines()[1:]
        assert "backend: vector" in vector_out

    def test_profile_report_survives_failure(self, capsys):
        from repro.cli import main

        with pytest.raises(FileNotFoundError):
            main(["--profile", "run", "/nonexistent/file.sql"])
        out = capsys.readouterr().out
        assert "operation counters (--profile)" in out


class TestBufferObs:
    def test_hits_and_misses_mirrored(self, tmp_path):
        from repro.storage.buffer import BufferPool
        from repro.storage.pages import PageFile

        pf = PageFile(str(tmp_path / "f.pg"), page_size=256)
        pool = BufferPool(pf, capacity=4)
        n = pool.new_page()
        obs.reset()
        obs.enable()
        try:
            pool.pin(n)
            pool.unpin(n)
            pool.pin(n)
            pool.unpin(n)
        finally:
            obs.disable()
        assert pool.stats()["hits"] == 1 and pool.stats()["misses"] == 1
        assert obs.get("buffer.hits") == 1
        assert obs.get("buffer.misses") == 1
