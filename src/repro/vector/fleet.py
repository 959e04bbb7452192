"""Fleet-level evaluation through the columnar kernels.

The helpers here are the API the rest of the stack (executor, CLI,
benchmarks) calls: each takes a *fleet* (a sequence of moving values)
and evaluates one operation over all of it through the batched
columnar kernels.  When the columnar path cannot represent the input
(mixed unit types, non-mapping operands) it falls back to the
per-object scalar reference loop and counts the event
(``vector.fallback_to_scalar``).  The ``scalar_*`` loops are that
fallback and, equally, the oracle the equivalence tests compare the
kernels against; both return identical results.

Column construction is routed through :mod:`repro.vector.cache`:
versioned :class:`~repro.vector.cache.Fleet` sequences reuse their
columns across calls (invalidated on mutation), plain sequences are
transcribed per call.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import InvalidValue, StorageError
from repro.spatial.bbox import Cube
from repro.spatial.point import Point
from repro.spatial.region import Region
from repro.temporal.mapping import MovingPoint, MovingReal
from repro.vector.cache import column_for_versioned, revalidate
from repro.vector.kernels import (
    atinstant_batch,
    bbox_filter_batch,
    inside_prefilter,
    ureal_atinstant_batch,
)


def _fallback(reason: str) -> None:
    if obs.enabled:
        obs.counters.add("vector.fallback_to_scalar")
        obs.counters.add(f"vector.fallback_to_scalar.{reason}")


# ---------------------------------------------------------------------------
# Scalar reference loops (the counted fallback and the tests' oracle)
# ---------------------------------------------------------------------------


def scalar_atinstant(
    fleet: Sequence[MovingPoint], t: float
) -> List[Optional[Point]]:
    """Per-object ``atinstant`` reference loop."""
    return [m.value_at(t) for m in fleet]


def scalar_atinstant_real(
    fleet: Sequence[MovingReal], t: float
) -> List[Optional[float]]:
    """Per-object ``atinstant`` reference loop over moving reals."""
    out: List[Optional[float]] = []
    for m in fleet:
        v = m.value_at(t)
        out.append(None if v is None else float(v.value))
    return out


def scalar_bbox_filter(fleet: Sequence[MovingPoint], cube: Cube) -> List[int]:
    """Per-object bounding-cube filter reference loop."""
    return [
        i
        for i, m in enumerate(fleet)
        if m.units and m.bounding_cube().intersects(cube)
    ]


def scalar_count_inside(
    fleet: Sequence[MovingPoint], t: float, region: Region
) -> Tuple[int, List[bool]]:
    """Per-object ``inside`` reference loop."""
    mask = []
    for m in fleet:
        p = m.value_at(t)
        mask.append(bool(p is not None and region.contains_point(p.vec)))
    return sum(mask), mask


# ---------------------------------------------------------------------------
# Fleet operations
# ---------------------------------------------------------------------------


def fleet_atinstant(
    fleet: Sequence[MovingPoint], t: float
) -> List[Optional[Point]]:
    """Position of every moving point at instant ``t`` (None where ⊥)."""
    try:
        version, col = column_for_versioned(fleet, "upoint")
        col = revalidate(fleet, "upoint", version, col)
    except (InvalidValue, StorageError):
        _fallback("upoint_column")
        return scalar_atinstant(fleet, t)
    xs, ys, defined = atinstant_batch(col, t)
    return [
        Point(float(x), float(y)) if d else None
        for x, y, d in zip(xs, ys, defined)
    ]


def fleet_atinstant_real(
    fleet: Sequence[MovingReal], t: float
) -> List[Optional[float]]:
    """Value of every moving real at instant ``t`` (None where ⊥)."""
    try:
        version, col = column_for_versioned(fleet, "ureal")
        col = revalidate(fleet, "ureal", version, col)
    except (InvalidValue, StorageError):
        _fallback("ureal_column")
        return scalar_atinstant_real(fleet, t)
    vs, defined = ureal_atinstant_batch(col, t)
    return [float(v) if d else None for v, d in zip(vs, defined)]


def fleet_bbox_filter(fleet: Sequence[MovingPoint], cube: Cube) -> List[int]:
    """Indices of fleet members whose bounding cube intersects ``cube``.

    The filter half of filter-and-refine: survivors still need the exact
    per-object check (window refinement, R-tree descent, ...).
    """
    try:
        version, col = column_for_versioned(fleet, "bbox")
        col = revalidate(fleet, "bbox", version, col)
    except (InvalidValue, StorageError):
        _fallback("bbox_column")
        return scalar_bbox_filter(fleet, cube)
    mask = bbox_filter_batch(col, cube)
    return [int(k) for k, hit in zip(col.keys, mask) if hit]


def fleet_count_inside(
    fleet: Sequence[MovingPoint], t: float, region: Region
) -> Tuple[int, List[bool]]:
    """How many fleet members are inside ``region`` at instant ``t``?

    Returns ``(count, member_mask)``.  The columnar path snapshots the
    whole fleet with one batched ``atinstant`` and answers membership
    with one batched plumbline call over the defined positions.
    """
    try:
        version, col = column_for_versioned(fleet, "upoint")
        col = revalidate(fleet, "upoint", version, col)
    except (InvalidValue, StorageError):
        _fallback("upoint_column")
        return scalar_count_inside(fleet, t, region)
    xs, ys, defined = atinstant_batch(col, t)
    mask = [False] * len(fleet)
    idx = np.flatnonzero(defined)
    if idx.size:
        pts = np.column_stack([xs[idx], ys[idx]])
        hits = inside_prefilter(pts, region)
        for i, hit in zip(idx, hits):
            mask[int(i)] = bool(hit)
    return sum(mask), mask
