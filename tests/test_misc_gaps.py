"""Coverage for smaller API surfaces: int range sets, map_units, config,
region pickling."""

import pytest

from repro.config import feq, fge, fgt, fle, flt, fsign, fzero
from repro.errors import InvalidValue
from repro.ranges.interval import Interval
from repro.ranges.rangeset import RangeSet
from repro.temporal.mapping import MovingInt
from repro.temporal.uconst import ConstUnit
from repro.base.values import IntVal


class TestIntRangeSets:
    def test_discrete_adjacency_rejected_in_canonical_form(self):
        # [1,3] and [4,6] over int are adjacent (no integer between):
        # the canonical representation must merge them.
        with pytest.raises(InvalidValue):
            RangeSet([Interval(1, 3), Interval(4, 6)])

    def test_normalized_merges_discrete_neighbours(self):
        rs = RangeSet.normalized([Interval(1, 3), Interval(4, 6)])
        assert list(rs) == [Interval(1, 6)]

    def test_gap_of_two_stays_split(self):
        rs = RangeSet([Interval(1, 3), Interval(5, 6)])
        assert len(rs) == 2
        assert not rs.contains(4)

    def test_int_set_operations(self):
        a = RangeSet([Interval(0, 10)])
        b = RangeSet([Interval(4, 6)])
        diff = a.difference(b)
        assert diff.contains(3) and not diff.contains(5) and diff.contains(7)


class TestMappingMapUnits:
    def test_map_units_collects_non_none(self):
        m = MovingInt(
            [
                ConstUnit(Interval(0.0, 1.0, True, False), IntVal(1)),
                ConstUnit(Interval(1.0, 2.0, True, True), IntVal(2)),
            ]
        )
        odd = m.map_units(
            lambda u: u if u.value.value % 2 == 1 else None
        )
        assert len(odd) == 1
        assert odd[0].value == IntVal(1)


class TestConfigHelpers:
    def test_comparisons(self):
        assert feq(1.0, 1.0 + 1e-12)
        assert not feq(1.0, 1.001)
        assert fle(1.0, 1.0)
        assert flt(1.0, 2.0) and not flt(1.0, 1.0 + 1e-12)
        assert fge(2.0, 2.0) and fgt(2.0, 1.0)
        assert fzero(1e-12) and not fzero(1e-3)

    def test_fsign(self):
        assert fsign(0.5) == 1
        assert fsign(-0.5) == -1
        assert fsign(1e-12) == 0


class TestRegionPickle:
    def test_region_pickle_round_trip(self):
        # The immutable Cycle/Face/Region classes must survive pickling
        # (and copy/deepcopy) despite their __setattr__ guards.
        import copy
        import pickle

        from repro.workloads.regions import regular_polygon

        region = regular_polygon((3.0, -2.0), 10.0, 7)
        for back in (pickle.loads(pickle.dumps(region)), copy.deepcopy(region)):
            assert back == region
            assert back.contains_point((3.0, -2.0))
            assert not back.contains_point((50.0, 50.0))
