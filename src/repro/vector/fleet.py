"""Fleet-level evaluation with a scalar/vector backend switch.

The helpers here are the API the rest of the stack (executor, CLI,
benchmarks) calls: each takes a *fleet* (a sequence of moving values)
and evaluates one operation over all of it, either through the batched
columnar kernels (``vector``) or through the per-object scalar
reference loop (``scalar``).  Both backends return identical results;
when the columnar path cannot represent the input (mixed unit types,
non-mapping operands) it falls back to scalar and counts the event
(``vector.fallback_to_scalar``).

Column construction is routed through :mod:`repro.vector.cache`:
versioned :class:`~repro.vector.cache.Fleet` sequences reuse their
columns across calls (invalidated on mutation), plain sequences are
transcribed per call.

The process-wide default backend starts at
``repro.config.DEFAULT_BACKEND`` and is flipped by ``set_backend`` (the
CLI's ``--backend`` flag ends up here).  The third backend name,
``"sharded"``, belongs to :mod:`repro.shard` (hash-partitioned fleets
with scatter-gather execution); for the plain-sequence helpers here it
evaluates through the single-process vector kernels — partitioning an
un-partitioned fleet per call would only add copies.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import config, obs
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

BACKENDS = ("scalar", "vector", "sharded")

_backend: str = config.DEFAULT_BACKEND


def set_backend(name: str) -> None:
    """Select the process-wide default backend (see :data:`BACKENDS`)."""
    global _backend
    if name not in BACKENDS:
        raise InvalidValue(f"unknown backend {name!r}; choose from {BACKENDS}")
    _backend = name


def get_backend() -> str:
    """The current process-wide default backend."""
    return _backend


def _resolve(backend: Optional[str]) -> str:
    if backend is None:
        return _backend
    if backend not in BACKENDS:
        raise InvalidValue(f"unknown backend {backend!r}; choose from {BACKENDS}")
    return backend


def _fallback(reason: str) -> None:
    if obs.enabled:
        obs.counters.add("vector.fallback_to_scalar")
        obs.counters.add(f"vector.fallback_to_scalar.{reason}")


# ---------------------------------------------------------------------------
# Fleet operations
# ---------------------------------------------------------------------------


def fleet_atinstant(
    fleet: Sequence[MovingPoint],
    t: float,
    backend: Optional[str] = None,
) -> List[Optional[Point]]:
    """Position of every moving point at instant ``t`` (None where ⊥)."""
    resolved = _resolve(backend)
    if resolved == "vector" or resolved == "sharded":
        try:
            version, col = column_for_versioned(fleet, "upoint")
            col = revalidate(fleet, "upoint", version, col)
        except (InvalidValue, StorageError):
            _fallback("upoint_column")
        else:
            xs, ys, defined = atinstant_batch(col, t)
            return [
                Point(float(x), float(y)) if d else None
                for x, y, d in zip(xs, ys, defined)
            ]
    return [m.value_at(t) for m in fleet]


def fleet_atinstant_real(
    fleet: Sequence[MovingReal],
    t: float,
    backend: Optional[str] = None,
) -> List[Optional[float]]:
    """Value of every moving real at instant ``t`` (None where ⊥)."""
    resolved = _resolve(backend)
    if resolved == "vector" or resolved == "sharded":
        try:
            version, col = column_for_versioned(fleet, "ureal")
            col = revalidate(fleet, "ureal", version, col)
        except (InvalidValue, StorageError):
            _fallback("ureal_column")
        else:
            vs, defined = ureal_atinstant_batch(col, t)
            return [float(v) if d else None for v, d in zip(vs, defined)]
    out: List[Optional[float]] = []
    for m in fleet:
        v = m.value_at(t)
        out.append(None if v is None else float(v.value))
    return out


def fleet_bbox_filter(
    fleet: Sequence[MovingPoint],
    cube: Cube,
    backend: Optional[str] = None,
) -> List[int]:
    """Indices of fleet members whose bounding cube intersects ``cube``.

    The filter half of filter-and-refine: survivors still need the exact
    per-object check (window refinement, R-tree descent, ...).
    """
    resolved = _resolve(backend)
    if resolved == "vector" or resolved == "sharded":
        try:
            version, col = column_for_versioned(fleet, "bbox")
            col = revalidate(fleet, "bbox", version, col)
        except (InvalidValue, StorageError):
            _fallback("bbox_column")
        else:
            mask = bbox_filter_batch(col, cube)
            return [int(k) for k, hit in zip(col.keys, mask) if hit]
    return [
        i
        for i, m in enumerate(fleet)
        if m.units and m.bounding_cube().intersects(cube)
    ]


def fleet_count_inside(
    fleet: Sequence[MovingPoint],
    t: float,
    region: Region,
    backend: Optional[str] = None,
) -> Tuple[int, List[bool]]:
    """How many fleet members are inside ``region`` at instant ``t``?

    Returns ``(count, member_mask)``.  The columnar path snapshots the
    whole fleet with one batched ``atinstant`` and answers membership
    with one batched plumbline call over the defined positions.
    """
    resolved = _resolve(backend)
    if resolved == "vector" or resolved == "sharded":
        try:
            version, col = column_for_versioned(fleet, "upoint")
            col = revalidate(fleet, "upoint", version, col)
        except (InvalidValue, StorageError):
            _fallback("upoint_column")
        else:
            xs, ys, defined = atinstant_batch(col, t)
            mask = [False] * len(fleet)
            idx = np.flatnonzero(defined)
            if idx.size:
                pts = np.column_stack([xs[idx], ys[idx]])
                hits = inside_prefilter(pts, region)
                for i, hit in zip(idx, hits):
                    mask[int(i)] = bool(hit)
            return sum(mask), mask
    mask = []
    for m in fleet:
        p = m.value_at(t)
        mask.append(bool(p is not None and region.contains_point(p.vec)))
    return sum(mask), mask
