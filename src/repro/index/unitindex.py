"""An index over the *units* of many moving objects.

Indexing whole trajectories by one large cube is wasteful — the cube of
a long trajectory covers far more space-time than the object does.
Indexing per unit (one cube per slice, exactly the bounding cubes the
Section 4.2 data structures already store) gives much tighter filters.
``MovingObjectIndex`` maintains a 3-D R-tree of per-unit cubes tagged
with the owning object's key.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Optional, Set, Tuple, Union

from repro.base.instant import Instant, as_time
from repro.spatial.bbox import Cube, Rect
from repro.index.rtree import RTree3D
from repro.temporal.mapping import MovingPoint, MovingRegion
from repro.temporal.upoint import UPoint
from repro.temporal.uregion import URegion


class MovingObjectIndex:
    """A per-unit spatio-temporal index over moving points/regions.

    Filtering can run through either backend: the R-tree descent
    (``scalar``) or a columnar sweep over the same per-unit cubes
    (``vector``, :class:`~repro.vector.columns.BBoxColumn`).  Both see
    identical cube sets, so their candidate sets are identical; the
    column is rebuilt lazily after every ``add``.
    """

    def __init__(self, max_entries: int = 8):
        self._tree = RTree3D(max_entries)
        self._count = 0
        self._entries: List[Tuple[Hashable, Cube]] = []
        self._column: Optional[Any] = None

    def __len__(self) -> int:
        """Number of indexed objects (not units)."""
        return self._count

    @property
    def unit_entries(self) -> int:
        """Number of indexed units."""
        return len(self._tree)

    def add(self, key: Hashable, moving: Union[MovingPoint, MovingRegion]) -> None:
        """Index every unit of ``moving`` under ``key``."""
        for u in moving.units:
            assert isinstance(u, (UPoint, URegion))
            cube = u.bounding_cube()
            self._tree.insert(cube, key)
            self._entries.append((key, cube))
        self._count += 1
        self._column = None  # stale: rebuilt on the next vector query

    def bulk_load(
        self,
        items: Iterable[Tuple[Hashable, Union[MovingPoint, MovingRegion]]],
    ) -> None:
        """Index many objects at once via one STR-packed tree build.

        Collects every unit cube of every object and rebuilds the R-tree
        with :meth:`RTree3D.bulk_load` over the existing *and* new
        entries — the candidate sets afterwards are exactly those of
        per-object :meth:`add` calls, at a fraction of the build cost.
        Later incremental :meth:`add` calls keep working on the packed
        tree.
        """
        added = 0
        for key, moving in items:
            for u in moving.units:
                assert isinstance(u, (UPoint, URegion))
                self._entries.append((key, u.bounding_cube()))
            added += 1
        self._tree = RTree3D.bulk_load(
            ((cube, key) for key, cube in self._entries),
            self._tree.max_entries,
        )
        self._count += added
        self._column = None  # stale: rebuilt on the next vector query

    def _unit_column(self):
        """The per-unit cube column (lazily built, invalidated by ``add``)."""
        if self._column is None:
            from repro.vector.columns import BBoxColumn

            self._column = BBoxColumn.from_cubes(self._entries)
        return self._column

    # -- queries -----------------------------------------------------------

    def candidates_in_cube(
        self, cube: Cube, backend: Optional[str] = None
    ) -> Set[Hashable]:
        """Keys of objects with at least one unit cube intersecting ``cube``."""
        from repro.vector.fleet import _resolve

        resolved = _resolve(backend)
        if resolved == "vector":
            return set(self._unit_column().candidates(cube))
        return set(self._tree.search(cube))

    def candidates_at(self, rect: Rect, t: Union[Instant, float]) -> Set[Hashable]:
        """Keys possibly intersecting ``rect`` at instant ``t`` (time slice)."""
        tt = as_time(t)
        return self.candidates_in_cube(
            Cube(rect.xmin, rect.ymin, tt, rect.xmax, rect.ymax, tt)
        )

    def candidates_window(
        self, rect: Rect, t0: Union[Instant, float], t1: Union[Instant, float]
    ) -> Set[Hashable]:
        """Keys possibly intersecting ``rect`` within the time window."""
        return self.candidates_in_cube(
            Cube(rect.xmin, rect.ymin, as_time(t0), rect.xmax, rect.ymax, as_time(t1))
        )

    def candidates_near(
        self, moving: MovingPoint, slack: float
    ) -> Set[Hashable]:
        """Keys whose unit cubes come within ``slack`` of any unit of ``moving``."""
        out: Set[Hashable] = set()
        for u in moving.units:
            assert isinstance(u, UPoint)
            c = u.bounding_cube()
            grown = Cube(
                c.xmin - slack,
                c.ymin - slack,
                c.tmin,
                c.xmax + slack,
                c.ymax + slack,
                c.tmax,
            )
            out.update(self._tree.search(grown))
        return out
