"""Tests for the 3-D R-tree and the per-unit moving object index."""

import random

import pytest

from repro.index.rtree import RTree3D
from repro.index.unitindex import MovingObjectIndex
from repro.ops.window import WindowQueryEngine
from repro.spatial.bbox import Cube, Rect
from repro.temporal.mapping import MovingPoint
from repro.workloads.trajectories import random_flights


def cube_at(x, y, t, size=1.0):
    return Cube(x, y, t, x + size, y + size, t + size)


class TestRTree:
    def test_insert_and_hit(self):
        tree = RTree3D()
        tree.insert(cube_at(0, 0, 0), "a")
        assert tree.search_list(cube_at(0.5, 0.5, 0.5)) == ["a"]

    def test_miss(self):
        tree = RTree3D()
        tree.insert(cube_at(0, 0, 0), "a")
        assert tree.search_list(cube_at(10, 10, 10)) == []

    def test_len(self):
        tree = RTree3D()
        for i in range(20):
            tree.insert(cube_at(i, 0, 0), i)
        assert len(tree) == 20

    def test_splits_grow_height(self):
        tree = RTree3D(max_entries=4)
        for i in range(50):
            tree.insert(cube_at(float(i), 0, 0), i)
        assert tree.height() >= 2
        assert tree.node_count() > 1

    def test_results_match_linear_scan(self):
        rng = random.Random(7)
        tree = RTree3D(max_entries=6)
        entries = []
        for i in range(300):
            c = cube_at(
                rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0, 100),
                size=rng.uniform(0.5, 5.0),
            )
            entries.append((c, i))
            tree.insert(c, i)
        for _ in range(20):
            q = cube_at(
                rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0, 100),
                size=10.0,
            )
            expected = sorted(i for c, i in entries if c.intersects(q))
            assert sorted(tree.search(q)) == expected

    def test_duplicate_cubes_allowed(self):
        tree = RTree3D()
        c = cube_at(0, 0, 0)
        tree.insert(c, "a")
        tree.insert(c, "b")
        assert sorted(tree.search(c)) == ["a", "b"]

    def test_min_fanout_enforced(self):
        import pytest as _pytest

        with _pytest.raises(Exception):
            RTree3D(max_entries=2)


class TestMovingObjectIndex:
    def test_unit_granularity(self):
        idx = MovingObjectIndex()
        mp = MovingPoint.from_waypoints([(0, (0, 0)), (10, (10, 0)), (20, (10, 10))])
        idx.add("obj", mp)
        assert len(idx) == 1
        assert idx.unit_entries == 2

    def test_time_slice_query(self):
        idx = MovingObjectIndex()
        a = MovingPoint.from_waypoints([(0, (0, 0)), (10, (10, 0))])
        b = MovingPoint.from_waypoints([(50, (0, 0)), (60, (10, 0))])
        idx.add("early", a)
        idx.add("late", b)
        got = idx.candidates_at(Rect(0, -1, 10, 1), 5.0)
        assert got == {"early"}

    def test_window_query(self):
        idx = MovingObjectIndex()
        a = MovingPoint.from_waypoints([(0, (0, 0)), (10, (10, 0))])
        idx.add("a", a)
        assert idx.candidates_window(Rect(100, 100, 110, 110), 0.0, 10.0) == set()
        assert idx.candidates_window(Rect(0, 0, 5, 5), 0.0, 10.0) == {"a"}

    def test_candidates_superset_of_truth(self):
        # The index is a filter: every truly matching flight must appear.
        flights = random_flights(30, legs=6, seed=11)
        idx = MovingObjectIndex()
        for i, f in enumerate(flights):
            idx.add(i, f)
        window = Rect(2000, 2000, 5000, 5000)
        t0, t1 = 0.0, 500.0
        candidates = idx.candidates_window(window, t0, t1)
        for i, f in enumerate(flights):
            truly = any(
                window.contains_point(u.vec_at(tc))
                for u in f.units
                for tc in (
                    max(u.interval.s, t0),
                    min(u.interval.e, t1),
                )
                if u.interval.s <= t1 and u.interval.e >= t0
                and u.interval.contains(tc)
            )
            if truly:
                assert i in candidates

    def test_candidates_near(self):
        idx = MovingObjectIndex()
        a = MovingPoint.from_waypoints([(0, (0, 0)), (10, (10, 0))])
        b = MovingPoint.from_waypoints([(0, (0, 2)), (10, (10, 2))])
        far = MovingPoint.from_waypoints([(0, (0, 500)), (10, (10, 500))])
        idx.add("b", b)
        idx.add("far", far)
        assert idx.candidates_near(a, slack=5.0) == {"b"}


class TestWindowEngineBulkLoad:
    def test_add_fleet_matches_incremental(self):
        # STR bulk load and per-object inserts index the same objects,
        # so both engines answer identically.
        items = [(f"f{i}", mp) for i, mp in enumerate(random_flights(20, seed=7))]
        bulk = WindowQueryEngine()
        bulk.add_fleet(items)
        incremental = WindowQueryEngine()
        for key, mp in items:
            incremental.add(key, mp)
        rect = Rect(-500, -500, 500, 500)
        assert bulk.query(rect, 0.0, 80.0) == incremental.query(rect, 0.0, 80.0)
