"""Columnar unit storage and batched numpy kernels (fleet-scale evaluation).

The paper's sliced representation stores a moving object as an *array of
units* precisely so a DBMS can evaluate operations without interpreting
one unit at a time (Section 4).  This package transcribes that layout
columnar-ly, across *many* objects at once:

* :mod:`repro.vector.columns` — Structure-of-Arrays columns.  A
  :class:`~repro.vector.columns.UPointColumn` holds the interval end
  points, closedness flags, and motion coefficients of every unit of a
  whole fleet in contiguous numpy arrays, with a CSR-style ``offsets``
  array delimiting each object's unit range — the direct columnar
  counterpart of the Section-4 root record (offsets) + database arrays
  (unit fields).
* :mod:`repro.vector.kernels` — batched kernels over those columns:
  ``atinstant_batch`` (simultaneous per-object binary search +
  fused linear/quadratic evaluation), ``bbox_filter_batch`` (vectorized
  3-D bounding-cube overlap, the filter step before the exact
  R-tree/refinement path), and ``inside_prefilter`` (batched plumbline
  crossing counts for N query points against one region).
* :mod:`repro.vector.fleet` — the backend switch (``scalar`` |
  ``vector`` | ``sharded``) and fleet-level convenience wrappers with
  automatic, counted fallback to the scalar reference implementations.
* :mod:`repro.vector.cache` — the columnar cache: versioned
  :class:`~repro.vector.cache.Fleet` sequences reuse built columns
  across queries (``colcache.hits``), invalidated by mutation
  (``colcache.invalidations``).

Every kernel is observable through :mod:`repro.obs` (rows per kernel
call, fallback-to-scalar events) and equivalent to the scalar unit-at-a-
time path — an equivalence the property tests and benchmarks assert.
"""

from __future__ import annotations

from repro.vector.cache import ColumnCache, Fleet, clear_cache, column_for
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
    on_boundary_batch,
    ureal_atinstant_batch,
    window_intervals_batch,
    window_times_batch,
)

__all__ = [
    "BBoxColumn",
    "ColumnCache",
    "Fleet",
    "UPointColumn",
    "URealColumn",
    "atinstant_batch",
    "bbox_filter_batch",
    "clear_cache",
    "column_for",
    "crossings_above_batch",
    "fleet_atinstant",
    "fleet_atinstant_real",
    "fleet_bbox_filter",
    "fleet_count_inside",
    "get_backend",
    "inside_prefilter",
    "locate_units",
    "on_boundary_batch",
    "set_backend",
    "ureal_atinstant_batch",
    "window_intervals_batch",
    "window_times_batch",
]
