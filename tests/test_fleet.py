"""Tests for the versioned fleet column cache (repro.vector.cache) and the
fleet helpers of repro.vector.fleet against their scalar oracles."""

import numpy as np
import pytest

from repro import obs
from repro.errors import InvalidValue
from repro.spatial.bbox import Cube
from repro.temporal.mapping import MovingPoint
from repro.vector.cache import Fleet, clear_cache, column_for
from repro.vector.columns import UPointColumn
from repro.vector.fleet import (
    fleet_atinstant,
    fleet_bbox_filter,
    fleet_count_inside,
    scalar_atinstant,
    scalar_bbox_filter,
    scalar_count_inside,
)
from repro.workloads.regions import regular_polygon
from repro.workloads.trajectories import random_flights


@pytest.fixture(autouse=True)
def _empty_cache():
    """Every test starts and ends with an empty column cache."""
    clear_cache()
    yield
    clear_cache()


class TestFleetHelpers:
    def test_fleet_helpers(self):
        # Random multi-leg flights: the columnar helpers answer exactly
        # like the scalar reference loops, for plain and versioned fleets.
        region = regular_polygon((0.0, 0.0), 700.0, 10)
        cube = Cube(-600, -600, 0, 600, 600, 90)
        t = 35.0
        flights = random_flights(25, seed=7)
        for fleet in (flights, Fleet(flights)):
            assert fleet_atinstant(fleet, t) == scalar_atinstant(flights, t)
            assert fleet_bbox_filter(fleet, cube) == \
                scalar_bbox_filter(flights, cube)
            assert fleet_count_inside(fleet, t, region) == \
                scalar_count_inside(flights, t, region)


class TestFleetCache:
    def test_version_bumps_on_mutation(self):
        fleet = Fleet(random_flights(3, seed=7))
        v0 = fleet.version
        fleet.append(MovingPoint([]))
        assert fleet.version > v0
        v1 = fleet.version
        fleet[0] = MovingPoint([])
        assert fleet.version > v1
        v2 = fleet.version
        del fleet[0]
        assert fleet.version > v2
        v3 = fleet.version
        fleet.invalidate()
        assert fleet.version > v3

    def test_hit_miss_invalidation_counters(self):
        fleet = Fleet(random_flights(5, seed=7))
        obs.reset()
        obs.enable()
        try:
            c1 = column_for(fleet, "upoint")
            c2 = column_for(fleet, "upoint")
            assert c1 is c2  # cached instance reused
            fleet.append(MovingPoint([]))
            c3 = column_for(fleet, "upoint")
            assert c3 is not c1
            # A structural rewrite (slice assignment) defeats the
            # changelog, so the stale entry is a full invalidation.
            fleet[:] = list(fleet)[:4]
            c4 = column_for(fleet, "upoint")
            assert c4 is not c3
        finally:
            obs.disable()
        assert obs.get("colcache.misses") == 2
        assert obs.get("colcache.hits") == 1
        # The tail append splices the cached column forward instead of
        # rebuilding it — that is the live-ingest fast path.
        assert obs.get("colcache.extended") == 1
        assert obs.get("colcache.invalidations") == 1

    def test_kinds_cached_independently(self):
        fleet = Fleet(random_flights(4, seed=7))
        obs.reset()
        obs.enable()
        try:
            column_for(fleet, "upoint")
            column_for(fleet, "bbox")
            column_for(fleet, "upoint")
            column_for(fleet, "bbox")
        finally:
            obs.disable()
        assert obs.get("colcache.misses") == 2
        assert obs.get("colcache.hits") == 2

    def test_plain_sequences_bypass_cache(self):
        fleet = random_flights(4, seed=7)
        obs.reset()
        obs.enable()
        try:
            a = column_for(fleet, "upoint")
            b = column_for(fleet, "upoint")
        finally:
            obs.disable()
        assert a is not b
        assert obs.get("colcache.hits") == 0
        assert obs.get("colcache.misses") == 0

    def test_cached_column_equals_fresh(self):
        mappings = random_flights(6, seed=7)
        fleet = Fleet(mappings)
        cached = column_for(fleet, "upoint")
        fresh = UPointColumn.from_mappings(mappings)
        assert np.array_equal(cached.offsets, fresh.offsets)
        assert np.array_equal(cached.starts, fresh.starts)
        assert np.array_equal(cached.x0, fresh.x0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidValue):
            column_for(Fleet(), "matrix")
