"""Regression tests for the cache-lifecycle bug fixed alongside the
column store: ``ColumnCache`` returned columns validated at *build* time only,
so a fleet mutated between obtaining the column and dispatching a
kernel (even by its own ``__getitem__`` during the build) silently fed
the kernel a stale column — now closed by ``get_versioned`` +
``revalidate`` at use time.
"""

import pytest

from repro import faults, obs
from repro.vector.cache import (
    Fleet,
    clear_cache,
    column_for_versioned,
    revalidate,
)
from repro.vector.fleet import fleet_atinstant, set_backend
from repro.vector.store import clear_store
from repro.workloads.trajectories import random_flights


@pytest.fixture(autouse=True)
def _clean_state():
    faults.disarm()
    faults.reset_fired()
    obs.enable()
    obs.reset()
    clear_cache()
    clear_store()
    set_backend("scalar")
    yield
    faults.disarm()
    faults.reset_fired()
    clear_cache()
    clear_store()
    set_backend("scalar")
    obs.reset()
    obs.disable()


def counters():
    return obs.snapshot()["counters"]


class _SelfMutatingFleet(Fleet):
    """A fleet whose own read path mutates it once, mid-iteration —
    the pathological client the use-time revalidation exists for."""

    __slots__ = ("_armed", "_extra")

    def __init__(self, items, extra):
        super().__init__(items)
        self._armed = True
        self._extra = extra

    def __getitem__(self, i):
        if self._armed and i == 1:
            self._armed = False
            self.append(self._extra)
        return super().__getitem__(i)


class TestCacheUseTimeValidation:
    def test_mutation_between_get_and_use_is_caught(self):
        flights = random_flights(6, seed=5)
        fleet = Fleet(flights[:5])
        version, col = column_for_versioned(fleet, "upoint")
        assert len(col.offsets) == 6  # 5 objects + 1
        fleet.append(flights[5])  # the TOCTOU window
        fresh = revalidate(fleet, "upoint", version, col)
        assert len(fresh.offsets) == len(fleet) + 1
        # The stale column was caught either way: a tail append takes
        # the splice-forward path, anything else a full invalidation.
        counts = counters()
        assert (counts.get("colcache.extended", 0)
                + counts.get("colcache.invalidations", 0)) >= 1

    def test_unchanged_fleet_keeps_column(self):
        fleet = Fleet(random_flights(4, seed=5))
        version, col = column_for_versioned(fleet, "upoint")
        assert revalidate(fleet, "upoint", version, col) is col

    def test_plain_sequences_pass_through(self):
        flights = random_flights(3, seed=5)
        version, col = column_for_versioned(flights, "upoint")
        assert version is None
        assert revalidate(flights, "upoint", version, col) is col

    def test_query_over_self_mutating_fleet_matches_scalar(self):
        flights = random_flights(7, seed=5)
        fleet = _SelfMutatingFleet(flights[:6], flights[6])
        result = fleet_atinstant(fleet, 1.5, backend="vector")
        # By dispatch time the fleet holds all 7 members; the result
        # must describe that final membership, not the stale column
        # built while the mutation was happening.
        assert len(fleet) == 7
        assert len(result) == 7
        scalar = [m.value_at(1.5) for m in list(fleet)]
        for got, want in zip(result, scalar):
            if want is None:
                assert got is None
            else:
                assert got.x == want.x and got.y == want.y
