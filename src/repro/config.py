"""Numeric configuration shared by the whole library.

All geometric and temporal predicates funnel through the comparison helpers
defined here so that a single, consistent floating point tolerance governs
the entire system.  The tolerance is deliberately absolute rather than
relative: the discrete model of the paper assumes coordinates of bounded
magnitude (map or airspace extents), for which an absolute epsilon gives
predictable, symmetric behaviour.
"""

from __future__ import annotations

import math

#: Absolute tolerance used by all floating point comparisons.
EPSILON: float = 1e-9

#: Default state of the operation-counting observability layer
#: (:mod:`repro.obs`).  Off by default: instrumented hot paths then cost
#: exactly one branch.  Flip at runtime with ``repro.obs.enable()``.
OBS_ENABLED: bool = False

#: Database arrays at most this many bytes are stored inline in the tuple;
#: larger ones are moved to a separate FLOB (large object) file, following
#: the placement strategy of Dieker & Gueting [DG98].
INLINE_THRESHOLD: int = 1024

#: Page size, in bytes, of the storage engine's page manager.  Each page
#: reserves :data:`repro.storage.pages.PAGE_HEADER_SIZE` bytes for the
#: format/version/checksum header; the rest is payload.
PAGE_SIZE: int = 4096

#: How many times the buffer pool retries a transient page-read fault
#: (:class:`repro.errors.TransientIOError`) before giving up.
BUFFER_RETRY_LIMIT: int = 3

#: Base delay, in seconds, of the buffer pool's exponential retry
#: backoff (delay doubles per attempt: base, 2·base, 4·base, ...).
BUFFER_RETRY_BASE_DELAY: float = 0.0005

#: Default evaluation backend for fleet-level operations: ``"scalar"``
#: (per-object reference loops), ``"vector"`` (columnar numpy kernels,
#: :mod:`repro.vector`), or ``"sharded"`` (those same kernels scattered
#: over hash-partitioned shards, :mod:`repro.shard`).  Flip at runtime
#: with ``repro.vector.set_backend`` or the CLI's ``--backend`` flag.
DEFAULT_BACKEND: str = "scalar"

#: Capacity, in columns, of the fleet-identity column cache
#: (:mod:`repro.vector.cache`).  Least-recently-used entries beyond this
#: are dropped.
COLCACHE_CAPACITY: int = 16

#: Byte budget of the fleet-identity column cache: the resident bytes of
#: unpinned (heap-backed) cached columns are held at or under this, LRU
#: entries evicted first.  Memmap-pinned entries are exempt — their
#: pages belong to the OS, and re-opening a store column costs
#: validation, not memory.  High-water tracked as ``colcache.bytes``.
COLCACHE_BYTES: int = 256 * 1024 * 1024

#: Default shard count of :mod:`repro.shard` hash-partitioned fleets.
#: ``1`` means unsharded (every existing path unchanged); the CLI's
#: ``--shards`` flag and ``repro.shard.set_shards`` raise it.
DEFAULT_SHARDS: int = 1

#: Byte budget of a :class:`repro.shard.ShardManager`'s resident column
#: set (``--memory-budget``).  ``None`` means unbounded: shards stay
#: mapped once touched.  With a budget, cold shards are CLOCK-evicted
#: until the mapped bytes fit (high-water: ``shard.resident_bytes``).
SHARD_MEMORY_BUDGET: "int | None" = None


def feq(a: float, b: float, eps: float = EPSILON) -> bool:
    """Return True if ``a`` and ``b`` are equal within tolerance."""
    return abs(a - b) <= eps


def fle(a: float, b: float, eps: float = EPSILON) -> bool:
    """Return True if ``a`` is less than or equal to ``b`` within tolerance."""
    return a <= b + eps


def flt(a: float, b: float, eps: float = EPSILON) -> bool:
    """Return True if ``a`` is strictly less than ``b`` beyond tolerance."""
    return a < b - eps


def fge(a: float, b: float, eps: float = EPSILON) -> bool:
    """Return True if ``a`` is greater than or equal to ``b`` within tolerance."""
    return a >= b - eps


def fgt(a: float, b: float, eps: float = EPSILON) -> bool:
    """Return True if ``a`` is strictly greater than ``b`` beyond tolerance."""
    return a > b + eps


def fzero(a: float, eps: float = EPSILON) -> bool:
    """Return True if ``a`` is zero within tolerance."""
    return abs(a) <= eps


def fsign(a: float, eps: float = EPSILON) -> int:
    """Return the sign of ``a`` under tolerance: -1, 0, or +1."""
    if a > eps:
        return 1
    if a < -eps:
        return -1
    return 0


def is_finite(a: float) -> bool:
    """Return True if ``a`` is a finite real number (not NaN or infinity)."""
    return math.isfinite(a)
