"""Scatter-gather execution over hash-partitioned shards.

Each entry point scatters one operation across a
:class:`~repro.shard.manager.ShardManager`'s shards — running the
ordinary batch kernels (:mod:`repro.vector.kernels`, order-stable and
bit-identical per object) over each shard's column — and gathers the
per-shard outputs back into the exact arrays the unsharded kernel would
have produced:

* Owners come back as *local* positions; rebasing them through the
  shard's ascending global-id array and stably sorting the shard-order
  concatenation by owner restores the unsharded order exactly (each
  owner lives in exactly one shard, and within an owner the kernel's
  time order is already right).  The identity is permutation-free down
  to the bit level — NaN ⊥ lanes, open/closed boundary flags, float
  payloads — and pinned by the hypothesis property in
  ``tests/test_shard_properties.py``.
* Window scatters prune twice before touching unit data: shard-level
  bounding cubes first (:meth:`ShardManager.prune` — no column mapped
  at all), then the shard's bbox column selects candidate objects whose
  units are gathered into a compact sub-column for the kernel.  Both
  filters test against the query cube widened by ``EPSILON`` — the
  window kernel's slab tolerance — so dropped objects are exactly
  those the full kernel would emit no rows for.

Dispatch mirrors :mod:`repro.vector.fleet`: ``_resolve`` maps the
requested backend, batch arms are try-guarded, and failures degrade to
the per-object scalar reference loop under the counted
``shard.fallback.*`` wrapper.  The ``shard.evict_during_query``
failpoint fires between per-shard kernel runs, so the chaos matrix can
evict every resident shard mid-scatter and assert the gathered result
is still bit-identical (columns are immutable; eviction only drops
references).
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

import numpy as np

from repro import faults, obs
from repro.config import EPSILON
from repro.errors import InvalidValue, StorageError
from repro.ranges import Interval, RangeSet
from repro.shard.manager import ShardManager
from repro.spatial.bbox import Cube, Rect
from repro.spatial.region import Region
from repro.vector.columns import UPointColumn
from repro.vector.fleet import _resolve
from repro.vector.kernels import (
    atinstant_batch,
    bbox_filter_batch,
    inside_prefilter,
    window_intervals_batch,
)

IntervalRows = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _shard_fallback(reason: str) -> None:
    if obs.enabled:
        obs.counters.add("shard.fallback")
        obs.counters.add(f"shard.fallback.{reason}")


def _evict_failpoint(manager: ShardManager) -> None:
    """Chaos hook: evict every resident shard mid-scatter when armed."""
    if faults.active and faults.should_fire("shard.evict_during_query"):
        manager.evict_all()


# ---------------------------------------------------------------------------
# Gather helpers
# ---------------------------------------------------------------------------


def _gather_candidates(col: UPointColumn, cand: np.ndarray) -> UPointColumn:
    """A compact sub-column holding ``cand``'s objects, units intact.

    ``cand`` is ascending local object positions; whole objects are
    copied with their unit order preserved, so every kernel run over the
    sub-column emits exactly the rows it would have emitted for those
    objects in the full column (run merging never crosses objects).
    """
    off = col.offsets
    lens = off[cand + 1] - off[cand]
    total = int(lens.sum())
    suboff = np.zeros(len(cand) + 1, dtype=np.int64)
    np.cumsum(lens, out=suboff[1:])
    if total == 0:
        idx = np.empty(0, dtype=np.int64)
    else:
        idx = np.repeat(off[cand] - suboff[:-1], lens) + np.arange(total)
    return UPointColumn(
        suboff,
        col.starts[idx], col.ends[idx], col.lc[idx], col.rc[idx],
        col.x0[idx], col.x1[idx], col.y0[idx], col.y1[idx],
    )


def _count_inside(col: UPointColumn, region: Region, t: float) -> int:
    """Objects of one shard column inside ``region`` at ``t``."""
    x, y, defined = atinstant_batch(col, t)
    if not bool(defined.any()):
        return 0
    pts = np.column_stack([x[defined], y[defined]])
    return int(np.count_nonzero(inside_prefilter(pts, region)))


def _empty_interval_rows() -> IntervalRows:
    """Dtype-exact empty output of ``window_intervals_batch``."""
    return (
        np.empty(0, dtype=np.int64),
        np.empty(0), np.empty(0),
        np.empty(0, dtype=np.bool_), np.empty(0, dtype=np.bool_),
    )


def _gather_intervals(
    parts: List[Tuple[np.ndarray, IntervalRows]]
) -> IntervalRows:
    """Merge per-shard interval rows into global-owner order.

    ``parts`` holds ``(global ids of the owners' shard, local rows)``
    pairs in shard order.  Owners rebase through the ascending global-id
    arrays; a stable sort by owner then interleaves the shards without
    ever reordering two rows of the same owner — the unsharded kernel's
    grouping, reproduced exactly.
    """
    if not parts:
        return _empty_interval_rows()
    owner = np.concatenate([gids[rows[0]] for gids, rows in parts])
    s = np.concatenate([rows[1] for _gids, rows in parts])
    e = np.concatenate([rows[2] for _gids, rows in parts])
    lc = np.concatenate([rows[3] for _gids, rows in parts])
    rc = np.concatenate([rows[4] for _gids, rows in parts])
    order = np.argsort(owner, kind="stable")
    return (
        owner[order].astype(np.int64, copy=False),
        s[order], e[order], lc[order], rc[order],
    )


# ---------------------------------------------------------------------------
# Scatter-gather entry points
# ---------------------------------------------------------------------------


def sharded_atinstant(
    manager: ShardManager,
    t: float,
    backend: Optional[str] = "sharded",
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``atinstant`` over every shard, gathered into global lanes.

    Returns ``(x, y, defined)`` indexed by global object id — NaN in ⊥
    lanes, exactly as ``atinstant_batch`` over the unsharded column.
    """
    fleet = manager.fleet
    resolved = _resolve(backend)
    if resolved == "sharded" or resolved == "vector":
        n = len(fleet)
        x = np.full(n, np.nan)
        y = np.full(n, np.nan)
        defined = np.zeros(n, dtype=np.bool_)
        try:
            for s in range(fleet.n_shards):
                if len(fleet.shards[s]) == 0:
                    continue
                col = manager.column(s, "upoint")
                sx, sy, sd = atinstant_batch(col, t)
                _evict_failpoint(manager)
                gids = fleet.globals_of(s)
                x[gids], y[gids], defined[gids] = sx, sy, sd
        except (InvalidValue, StorageError):
            _shard_fallback("column")
        else:
            if obs.enabled:
                obs.counters.add("shard.scatters")
            return x, y, defined
    xs: List[float] = []
    ys: List[float] = []
    ds: List[bool] = []
    for m in fleet:
        p = m.value_at(t)
        xs.append(np.nan if p is None else float(p.x))
        ys.append(np.nan if p is None else float(p.y))
        ds.append(p is not None)
    return (
        np.asarray(xs), np.asarray(ys), np.asarray(ds, dtype=np.bool_)
    )


def sharded_window_intervals(
    manager: ShardManager,
    rect: Rect,
    t0: float,
    t1: float,
    backend: Optional[str] = "sharded",
) -> IntervalRows:
    """Window-clipped in-rect intervals, scattered and gathered.

    Bit-identical to ``window_intervals_batch`` over the unsharded
    column: shard-level bounds and per-shard bbox candidates only ever
    drop objects that produce no rows, and the gather is a stable
    permutation back to global owner order.
    """
    fleet = manager.fleet
    resolved = _resolve(backend)
    if resolved == "sharded" or resolved == "vector":
        cube = Cube.from_rect(rect, float(t0), float(t1))
        # The window kernel tolerates positions within EPSILON of the
        # slab, so the candidate prefilters must be at least that wide
        # or they drop objects whose rows the kernel would emit.  The
        # kernels themselves still get the exact rect/t0/t1.
        pad = Cube(
            cube.xmin - EPSILON, cube.ymin - EPSILON, cube.tmin - EPSILON,
            cube.xmax + EPSILON, cube.ymax + EPSILON, cube.tmax + EPSILON,
        )
        try:
            parts: List[Tuple[np.ndarray, IntervalRows]] = []
            for s in manager.prune(pad):
                bbox, keys = manager.bbox_keys(s)
                cand = keys[bbox.overlap_mask(pad)]
                _evict_failpoint(manager)
                if cand.size == 0:
                    continue
                col = manager.column(s, "upoint")
                if 2 * int((col.offsets[cand + 1] - col.offsets[cand]).sum()) >= col.n_units:
                    # Broad window: gathering would copy most of the
                    # column anyway — run the kernel over it whole.
                    rows = window_intervals_batch(col, rect, t0, t1)
                    parts.append((fleet.globals_of(s), rows))
                else:
                    sub = _gather_candidates(col, cand)
                    rows = window_intervals_batch(sub, rect, t0, t1)
                    parts.append((fleet.globals_of(s)[cand], rows))
                _evict_failpoint(manager)
        except (InvalidValue, StorageError):
            _shard_fallback("column")
        else:
            if obs.enabled:
                obs.counters.add("shard.scatters")
            return _gather_intervals(parts)
    return _scalar_window_intervals(fleet, rect, t0, t1)


def _scalar_window_intervals(
    fleet: Any, rect: Rect, t0: float, t1: float
) -> IntervalRows:
    """Per-object reference loop (the counted degradation path)."""
    from repro.ops.window import mpoint_within_rect_times

    window = RangeSet([Interval(float(t0), float(t1))])
    owners: List[int] = []
    rows: List[Tuple[float, float, bool, bool]] = []
    for i, m in enumerate(fleet):
        spans = mpoint_within_rect_times(m, rect).intersection(window)
        for iv in spans.intervals:
            owners.append(i)
            rows.append((iv.s, iv.e, iv.lc, iv.rc))
    if not rows:
        return _empty_interval_rows()
    arr = np.asarray(rows, dtype=np.float64)
    return (
        np.asarray(owners, dtype=np.int64),
        arr[:, 0], arr[:, 1],
        arr[:, 2].astype(np.bool_), arr[:, 3].astype(np.bool_),
    )


def sharded_count_inside(
    manager: ShardManager,
    region: Region,
    t: float,
    backend: Optional[str] = "sharded",
) -> int:
    """Snapshot count inside ``region`` at ``t``: per-shard counts sum
    (each object lives in exactly one shard)."""
    fleet = manager.fleet
    resolved = _resolve(backend)
    if resolved == "sharded" or resolved == "vector":
        try:
            total = 0
            for s in range(fleet.n_shards):
                if len(fleet.shards[s]) == 0:
                    continue
                col = manager.column(s, "upoint")
                total += _count_inside(col, region, t)
                _evict_failpoint(manager)
        except (InvalidValue, StorageError):
            _shard_fallback("column")
        else:
            if obs.enabled:
                obs.counters.add("shard.scatters")
            return total
    count = 0
    for m in fleet:
        p = m.value_at(t)
        if p is not None and region.contains_point(p.vec):
            count += 1
    return count


def sharded_bbox_filter(
    manager: ShardManager,
    cube: Cube,
    backend: Optional[str] = "sharded",
) -> List[int]:
    """Global ids of objects whose bounding cube intersects ``cube``,
    ascending — the unsharded ``fleet_bbox_filter`` order."""
    fleet = manager.fleet
    resolved = _resolve(backend)
    if resolved == "sharded" or resolved == "vector":
        try:
            hits: List[np.ndarray] = []
            for s in manager.prune(cube):
                col, keys = manager.bbox_keys(s)
                mask = bbox_filter_batch(col, cube)
                _evict_failpoint(manager)
                hits.append(fleet.globals_of(s)[keys[mask]])
        except (InvalidValue, StorageError):
            _shard_fallback("column")
        else:
            if obs.enabled:
                obs.counters.add("shard.scatters")
            if not hits:
                return []
            merged = np.concatenate(hits)
            merged.sort()
            return [int(g) for g in merged]
    return [
        i
        for i, m in enumerate(fleet)
        if m.units and m.bounding_cube().intersects(cube)
    ]
