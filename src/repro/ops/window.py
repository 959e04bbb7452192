"""Spatio-temporal window queries: filter and refine.

"Find all objects inside rectangle W during [t0, t1]" is the classic
moving objects query.  The filter step uses the per-unit 3-D R-tree
(:mod:`repro.index`); the refinement step here is *exact*: a linearly
moving point lies inside an axis-aligned rectangle exactly when four
linear inequalities hold, so the time set is an intersection of
intervals computed in closed form per unit — no sampling.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from repro import obs
from repro.config import feq, fle, fzero
from repro.errors import StorageError
from repro.index.unitindex import MovingObjectIndex
from repro.ranges.interval import Interval
from repro.ranges.rangeset import RangeSet
from repro.spatial.bbox import Cube, Rect
from repro.temporal.mapping import MovingPoint
from repro.temporal.upoint import UPoint


def _linear_within(c0: float, c1: float, lo: float, hi: float, t0: float, t1: float):
    """Times in [t0, t1] where ``lo <= c0 + c1·t <= hi`` (None = never)."""
    if fzero(c1):
        return (t0, t1) if fle(lo, c0) and fle(c0, hi) else None
    ta = (lo - c0) / c1
    tb = (hi - c0) / c1
    if ta > tb:  # modlint: disable=MOD001 root ordering swap, not a tolerance decision
        ta, tb = tb, ta
    a, b = max(t0, ta), min(t1, tb)
    # Exact comparison: Interval construction requires s <= e exactly,
    # and a graze within eps was already admitted by the fle bounds.
    if a > b:  # modlint: disable=MOD001 see comment above
        return None
    return (a, b)


def upoint_within_rect_times(u: UPoint, rect: Rect) -> Optional[Interval]:
    """The (single) time interval during which the unit is inside ``rect``.

    A linear motion enters and leaves a convex window at most once, so
    the result is one interval or None.  Closure flags are inherited
    from the unit interval where the window condition extends to its
    end points.
    """
    iv = u.interval
    m = u.motion
    x_span = _linear_within(m.x0, m.x1, rect.xmin, rect.xmax, iv.s, iv.e)
    if x_span is None:
        return None
    y_span = _linear_within(m.y0, m.y1, rect.ymin, rect.ymax, iv.s, iv.e)
    if y_span is None:
        return None
    a = max(x_span[0], y_span[0])
    b = min(x_span[1], y_span[1])
    if a > b:  # modlint: disable=MOD001 Interval requires s <= e exactly; empty window
        return None
    # Closure flags inherit from the unit interval whenever the window
    # condition reaches its end points within tolerance — the entry
    # instant is a computed root and may drift by an ulp from the
    # stored end point.
    lc = iv.lc if feq(a, iv.s) else True
    rc = iv.rc if feq(b, iv.e) else True
    # Exact degenerate check, matching Interval.is_degenerate: a tiny
    # but genuine interval must stay a real interval.
    if a == b and not (lc and rc):  # modlint: disable=MOD001 see comment above
        return None
    return Interval(a, b, lc and True, rc and True)


def mpoint_within_rect_times(mp: MovingPoint, rect: Rect) -> RangeSet[float]:
    """All times at which the moving point lies inside the rectangle."""
    out: List[Interval] = []
    for u in mp.units:
        assert isinstance(u, UPoint)
        iv = upoint_within_rect_times(u, rect)
        if iv is not None:
            out.append(iv)
    return RangeSet.normalized(out)


class WindowQueryEngine:
    """Filter-and-refine window queries over a collection of moving points."""

    def __init__(self) -> None:
        self._index = MovingObjectIndex()
        self._objects: Dict[Hashable, MovingPoint] = {}
        self._loaders: Dict[Hashable, Callable[[], MovingPoint]] = {}

    def add(self, key: Hashable, mp: MovingPoint) -> None:
        """Register a moving point under ``key``."""
        self._index.add(key, mp)
        self._objects[key] = mp

    def add_fleet(
        self, items: Iterable[Tuple[Hashable, MovingPoint]]
    ) -> None:
        """Register many moving points at once.

        The index is built with one STR bulk-load pass
        (:meth:`MovingObjectIndex.bulk_load`) instead of per-object
        inserts — same query answers, packed nodes, a fraction of the
        build time.
        """
        pairs = list(items)
        self._index.bulk_load(pairs)
        for key, mp in pairs:
            self._objects[key] = mp

    def add_lazy(self, key: Hashable, loader: Callable[[], MovingPoint]) -> None:
        """Register a storage-resident moving point under ``key``.

        ``loader`` fetches the value from storage; it is called once now
        to index the bounding cubes and again at refinement time, so a
        value that rots on disk between indexing and querying surfaces
        as a :class:`StorageError` the query can quarantine.
        """
        self._index.add(key, loader())
        self._loaders[key] = loader

    def __len__(self) -> int:
        return len(self._objects) + len(self._loaders)

    def _resolve(self, key: Hashable) -> MovingPoint:
        mp = self._objects.get(key)
        if mp is not None:
            return mp
        return self._loaders[key]()

    def query(
        self,
        rect: Rect,
        t0: float,
        t1: float,
        backend: Optional[str] = None,
        strict: bool = True,
    ) -> List[Tuple[Hashable, RangeSet[float]]]:
        """Objects inside ``rect`` at some instant of [t0, t1], with the
        exact time sets of their presence (restricted to the window).

        The filter step is backend-switched: R-tree descent (scalar) or
        the columnar per-unit cube sweep (vector); both yield the same
        candidate set, and the exact per-unit refinement is shared.
        ``strict=False`` quarantines candidates whose storage
        representation fails to load (skipped, counted under
        ``storage.quarantined``) instead of aborting the query.
        """
        window_times = RangeSet([Interval(t0, t1)])
        results: List[Tuple[Hashable, RangeSet[float]]] = []
        cube = Cube(rect.xmin, rect.ymin, t0, rect.xmax, rect.ymax, t1)
        for key in sorted(
            self._index.candidates_in_cube(cube, backend=backend), key=str
        ):
            if strict:
                mp = self._resolve(key)
            else:
                try:
                    mp = self._resolve(key)
                except StorageError:
                    if obs.enabled:
                        obs.counters.add("storage.quarantined")
                    continue
            times = mpoint_within_rect_times(mp, rect)
            clipped = times.intersection(window_times)
            if clipped:
                results.append((key, clipped))
        return results

    def query_naive(
        self, rect: Rect, t0: float, t1: float
    ) -> List[Tuple[Hashable, RangeSet[float]]]:
        """The same query without the index filter (the ablation baseline)."""
        window_times = RangeSet([Interval(t0, t1)])
        results: List[Tuple[Hashable, RangeSet[float]]] = []
        for key in sorted([*self._objects, *self._loaders], key=str):
            times = mpoint_within_rect_times(self._resolve(key), rect)
            clipped = times.intersection(window_times)
            if clipped:
                results.append((key, clipped))
        return results
