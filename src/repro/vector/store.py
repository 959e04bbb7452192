"""Persistent mmap-backed column store: Section-4 root records on disk.

Section 4 of the paper makes unit records fixed-size and array-packed
precisely so they can live on external storage and be scanned without
deserialization.  This module takes the in-memory fleet columns of
:mod:`repro.vector.columns` the final step: each column kind is one
little-endian file of fixed-size records (``upoint.bin``, ``ureal.bin``,
``bbox.bin``, plus CSR ``offsets.bin`` files — the stacked root
records), with a small header and a CRC-checked JSON manifest tying the
files together.  Because the file payload is byte-identical to the
numpy struct dtypes the batch kernels already consume, a warm process
restart costs one ``np.memmap`` per file instead of a full tuple-store
rebuild — the cold-start rebuild this PR kills.

File layout (all little-endian)::

    <16-byte header> <count × record>
    header = magic b"MODC" | u16 format version | u16 reserved | i64 count

The 16-byte header keeps the payload 8-byte aligned for memmap views.
The manifest (``manifest.json``) records the format version, the fleet
version each column was built from, and per-file record counts, CRCs,
and dtype hashes; the manifest itself carries a CRC over its payload so
a torn manifest write is detected, not misread.

Validation is two-tier, mirroring the page-checksum design of PR 4:

* :meth:`ColumnStore.load` does the *cheap* checks (manifest CRC, header
  magic/version, count and dtype-hash agreement, file size) — enough to
  reject torn writes and stale layouts without touching the payload;
* :meth:`ColumnStore.verify` additionally CRCs the full payload bytes,
  the check ``Database.recover`` runs so a bit-flipped file is
  rebuilt instead of served.

Any failure raises the typed :class:`~repro.errors.CorruptColumnError`;
the store never serves bytes that failed validation.  Callers degrade
through :meth:`ColumnStore.load_or_rebuild`, which rebuilds from the
live mappings (counted under ``colstore.rebuilds``) — the same
quarantine-style "detect, degrade, repair" posture the tuple store
takes for corrupt pages.
"""

from __future__ import annotations

import json
import os
import struct
import weakref
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import faults, obs
from repro.errors import CorruptColumnError, InvalidValue
from repro.vector.columns import BBoxColumn, UPointColumn, URealColumn

__all__ = [
    "COLUMN_KINDS",
    "ColumnStore",
    "MmapSource",
    "clear_store",
    "get_store",
    "set_store",
]

#: Column-file header: magic, format version, reserved, record count.
#: 16 bytes so the record payload starts 8-byte aligned.
HEADER = struct.Struct("<4sHHq")
MAGIC = b"MODC"
FORMAT_VERSION = 1

MANIFEST_NAME = "manifest.json"

#: Per-kind file layout: ordered ``(file name, record dtype)`` pairs.
#: Unit columns persist as (units file, CSR offsets file); the bbox
#: column is a single file of ``(key, cube)`` records.
_LAYOUT: Dict[str, Tuple[Tuple[str, np.dtype], ...]] = {
    "upoint": (
        ("upoint.bin", UPointColumn.UNIT_DTYPE),
        ("offsets.bin", np.dtype("<i8")),
    ),
    "ureal": (
        ("ureal.bin", URealColumn.UNIT_DTYPE),
        ("ureal_offsets.bin", np.dtype("<i8")),
    ),
    "bbox": (
        ("bbox.bin", BBoxColumn.RECORD_DTYPE),
    ),
}

COLUMN_KINDS: Tuple[str, ...] = tuple(sorted(_LAYOUT))


def _dtype_hash(dtype: np.dtype) -> int:
    """CRC32 of the dtype's field description — a layout fingerprint.

    Two processes agree on this iff their in-memory struct layout is
    byte-identical, so a file written by an older field layout is
    rejected before a memmap view can misinterpret it.
    """
    return zlib.crc32(str(dtype.descr).encode("utf-8"))


def _column_records(kind: str, column) -> List[np.ndarray]:
    """The column's persistent representation, one array per file."""
    if kind == "upoint":
        return [column._unit_records(), np.ascontiguousarray(column.offsets, dtype="<i8")]
    if kind == "ureal":
        return [column._unit_records(), np.ascontiguousarray(column.offsets, dtype="<i8")]
    if kind == "bbox":
        return [column._records()]
    raise InvalidValue(f"unknown column kind {kind!r}")


def _column_from_records(kind: str, arrays: Sequence[np.ndarray]):
    """Inverse of :func:`_column_records`: zero-copy column views."""
    if kind == "upoint":
        return UPointColumn.from_records(arrays[1], arrays[0])
    if kind == "ureal":
        return URealColumn.from_records(arrays[1], arrays[0])
    if kind == "bbox":
        return BBoxColumn.from_records(arrays[0])
    raise InvalidValue(f"unknown column kind {kind!r}")


class MmapSource:
    """Identity of the persistent files a memmap-backed column came from.

    Carried on ``column.source`` so downstream layers can tell a
    memory-mapped column from a heap one: the column cache keeps
    memmap-backed entries outside its byte budget (their pages belong
    to the OS).  ``manifest_crc`` pins the exact store generation — a
    rebuild changes the manifest.
    """

    __slots__ = ("root", "kind", "manifest_crc")

    def __init__(self, root: str, kind: str, manifest_crc: int):
        self.root = root
        self.kind = kind
        self.manifest_crc = manifest_crc

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MmapSource({self.root!r}, {self.kind!r}, "
            f"crc={self.manifest_crc:#010x})"
        )


class ColumnStore:
    """One directory of column files plus their CRC-checked manifest."""

    __slots__ = ("root",)

    def __init__(self, root: str):
        self.root = os.fspath(root)

    # -- paths ------------------------------------------------------------

    def path(self, name: str) -> str:
        """Absolute path of one file inside the store directory."""
        return os.path.join(self.root, name)

    def exists(self) -> bool:
        """True when the store directory holds a manifest."""
        return os.path.exists(self.path(MANIFEST_NAME))

    def has(self, kind: str) -> bool:
        """True when the manifest lists column ``kind`` (manifest must
        be readable; a corrupt manifest reads as "nothing stored")."""
        try:
            payload, _crc = self._manifest()
        except CorruptColumnError:
            return False
        return kind in payload["columns"]

    # -- manifest ---------------------------------------------------------

    def _manifest(self) -> Tuple[dict, int]:
        """``(payload, payload_crc)`` of the manifest, CRC-verified."""
        try:
            with open(self.path(MANIFEST_NAME), "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise CorruptColumnError(
                f"column store manifest unreadable: {exc}"
            ) from exc
        try:
            doc = json.loads(raw)
            payload = doc["payload"]
            declared = int(doc["crc32"])
            columns = payload["columns"]
            fmt = int(payload["format"])
        except (ValueError, KeyError, TypeError) as exc:
            raise CorruptColumnError(
                "column store manifest is not valid JSON of the expected shape"
            ) from exc
        actual = zlib.crc32(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        )
        if actual != declared:
            raise CorruptColumnError(
                f"column store manifest CRC mismatch "
                f"(declared {declared:#010x}, computed {actual:#010x})"
            )
        if fmt != FORMAT_VERSION:
            raise CorruptColumnError(
                f"column store format v{fmt} != supported v{FORMAT_VERSION}"
            )
        if not isinstance(columns, dict):
            raise CorruptColumnError("column store manifest: columns not a map")
        return payload, actual

    def manifest(self) -> dict:
        """The manifest payload (raises :class:`CorruptColumnError`)."""
        return self._manifest()[0]

    def fleet_version(self, kind: str) -> Optional[int]:
        """Fleet version column ``kind`` was built from, or None."""
        try:
            payload, _crc = self._manifest()
        except CorruptColumnError:
            return None
        entry = payload["columns"].get(kind)
        if entry is None:
            return None
        v = entry.get("fleet_version")
        return int(v) if v is not None else None

    def _write_manifest(self, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        doc = json.dumps(
            {"crc32": zlib.crc32(body), "payload": payload}, sort_keys=True
        ).encode("utf-8")
        tmp = self.path(MANIFEST_NAME + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(doc)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path(MANIFEST_NAME))

    # -- writing ----------------------------------------------------------

    def save(
        self,
        kind: str,
        column,
        fleet_version: Optional[int] = None,
        n_objects: Optional[int] = None,
    ) -> None:
        """Persist one column kind, then atomically update the manifest.

        Column files are written to temporaries and renamed into place;
        the manifest goes last, so a crash at any point leaves either
        the old consistent generation (manifest not yet replaced ⇒ file
        counts/CRCs disagree with the new files and validation rejects
        them) or the new one.  Failpoints ``colstore.write_crash`` (fires
        between column-file writes) and ``colstore.manifest_crash``
        (fires before the manifest update) let the crash matrix pin
        both torn-store shapes.
        """
        if kind not in _LAYOUT:
            raise InvalidValue(
                f"unknown column kind {kind!r}; expected one of "
                f"{', '.join(COLUMN_KINDS)}"
            )
        arrays = _column_records(kind, column)
        os.makedirs(self.root, exist_ok=True)
        try:
            payload = self._manifest()[0]
        except CorruptColumnError:
            payload = {"format": FORMAT_VERSION, "columns": {}}
        files: Dict[str, dict] = {}
        for (name, dtype), rec in zip(_LAYOUT[kind], arrays):
            if faults.active:
                faults.fail("colstore.write_crash")
            rec = np.ascontiguousarray(rec, dtype=dtype)
            body = rec.tobytes()
            tmp = self.path(name + ".tmp")
            with open(tmp, "wb") as fh:
                fh.write(HEADER.pack(MAGIC, FORMAT_VERSION, 0, len(rec)))
                fh.write(body)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path(name))
            files[name] = {
                "count": len(rec),
                "crc32": zlib.crc32(body),
                "dtype_crc32": _dtype_hash(dtype),
            }
        entry: Dict[str, object] = {"files": files}
        if fleet_version is not None:
            entry["fleet_version"] = int(fleet_version)
        if n_objects is not None:
            entry["n_objects"] = int(n_objects)
        payload["format"] = FORMAT_VERSION
        payload["columns"][kind] = entry
        if faults.active:
            faults.fail("colstore.manifest_crash")
        self._write_manifest(payload)

    def _rewrite_points(self, kind: str, min_changed: int, entry: dict) -> List[int]:
        """Per-file record index from which the stored bytes change when
        every object below ``min_changed`` kept its exact unit rows.

        Objects are contiguous in fleet order in every file, so the
        records of objects ``< min_changed`` are a byte-identical prefix
        of the new file: units files change from the first changed
        object's CSR offset, offsets files from entry ``min_changed+1``
        (the entries up to and including ``min_changed`` are sums over
        unchanged objects), and the bbox file from the first record
        whose key is a changed object.
        """
        if kind == "bbox":
            rec = self._open_file("bbox.bin", BBoxColumn.RECORD_DTYPE,
                                  entry["files"]["bbox.bin"])
            return [int(np.searchsorted(rec["key"], min_changed))]
        offsets_name = _LAYOUT[kind][1][0]
        offs = self._open_file(offsets_name, np.dtype("<i8"),
                               entry["files"][offsets_name])
        old_n = len(offs) - 1
        i = min(min_changed, old_n)
        return [int(offs[i]), min(min_changed + 1, old_n + 1)]

    def extend_or_save(
        self,
        kind: str,
        column,
        min_changed: int,
        fleet_version: Optional[int] = None,
        n_objects: Optional[int] = None,
    ):
        """Grow the stored files in place so they describe ``column``.

        ``column`` is the fleet's current (already spliced) column and
        ``min_changed`` the lowest object index whose mapping changed
        since the stored generation — everything below it is a verified
        byte-identical file prefix, so only the tail from the per-file
        rewrite point is written (payload CRCs updated incrementally
        from the unchanged prefix, counted ``colstore.extends``).  When
        the store holds no usable generation, the fleet shrank, or the
        tail write fails, this degrades to a full :meth:`save` (counted
        ``colstore.rewrites``).  Like :meth:`load_or_rebuild`, the
        result is re-opened from disk so the caller gets a memmap-backed
        column with ``source`` set, or ``column`` itself if even the
        re-open fails.

        Crash safety matches :meth:`save`: per-file writes first
        (``colstore.write_crash`` between files, ``colstore.
        manifest_crash`` before the manifest), CRC manifest last, so a
        torn extension leaves a file whose size or header count
        disagrees with the durable manifest and every reader rejects it
        as :class:`CorruptColumnError` instead of serving torn records.

        Memmap safety: live queries may still hold ``np.memmap`` views
        of the *current* files (pinned snapshots), so stored bytes are
        never mutated in place — a file is either purely appended to
        (existing record range untouched; the old fixed-shape views
        cannot see past their count) or rewritten whole to a temporary
        and renamed over (the old views keep the old inode).
        """
        if kind not in _LAYOUT:
            raise InvalidValue(
                f"unknown column kind {kind!r}; expected one of "
                f"{', '.join(COLUMN_KINDS)}"
            )
        arrays = _column_records(kind, column)
        try:
            done = self._extend_files(kind, arrays, min_changed)
        except (CorruptColumnError, OSError, KeyError, TypeError, ValueError):
            done = None
        if done is None:
            if obs.enabled:
                obs.add("colstore.rewrites")
            self.save(kind, column, fleet_version, n_objects=n_objects)
        else:
            if obs.enabled:
                obs.add("colstore.extends")
            payload, files = done
            entry: Dict[str, object] = {"files": files}
            if fleet_version is not None:
                entry["fleet_version"] = int(fleet_version)
            if n_objects is not None:
                entry["n_objects"] = int(n_objects)
            payload["columns"][kind] = entry
            if faults.active:
                faults.fail("colstore.manifest_crash")
            self._write_manifest(payload)
        try:
            return self._load(kind)
        except CorruptColumnError:
            return column

    def _extend_files(
        self, kind: str, arrays: Sequence[np.ndarray], min_changed: int
    ) -> Optional[Tuple[dict, Dict[str, dict]]]:
        """Tail-write every file of ``kind``; None ⇒ not extendable."""
        payload, _crc = self._manifest()
        entry = payload["columns"].get(kind)
        if entry is None:
            return None
        points = self._rewrite_points(kind, min_changed, entry)
        files: Dict[str, dict] = {}
        for (name, dtype), rec, k in zip(_LAYOUT[kind], arrays, points):
            finfo = entry["files"][name]
            old_count, old_crc = int(finfo["count"]), int(finfo["crc32"])
            if int(finfo["dtype_crc32"]) != _dtype_hash(dtype):
                return None
            rec = np.ascontiguousarray(rec, dtype=dtype)
            if len(rec) < old_count or k > old_count:
                return None  # shrunk or inconsistent: full save instead
            if faults.active:
                faults.fail("colstore.write_crash")
            if k == old_count:
                # Pure append: grow the file past the record range any
                # live memmap view covers, then bump the header count.
                tail = rec[k:].tobytes()
                crc = zlib.crc32(tail, old_crc)
                # modlint: disable=MOD009 deliberate in-place append: only bytes past every pinned view's record range are written, readers are gated by the header count + manifest CRC (fsynced below), and a rename here would orphan live memmaps
                with open(self.path(name), "r+b") as fh:
                    fh.seek(HEADER.size + k * dtype.itemsize)
                    fh.write(tail)
                    fh.truncate(HEADER.size + len(rec) * dtype.itemsize)
                    fh.seek(0)
                    fh.write(HEADER.pack(MAGIC, FORMAT_VERSION, 0, len(rec)))
                    fh.flush()
                    os.fsync(fh.fileno())
            else:
                # Records before old_count changed: whole-file rewrite
                # to a fresh inode so pinned views keep their old bytes.
                body = rec.tobytes()
                crc = zlib.crc32(body)
                tmp = self.path(name + ".tmp")
                with open(tmp, "wb") as fh:
                    fh.write(HEADER.pack(MAGIC, FORMAT_VERSION, 0, len(rec)))
                    fh.write(body)
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, self.path(name))
            files[name] = {
                "count": len(rec),
                "crc32": crc,
                "dtype_crc32": _dtype_hash(dtype),
            }
        return payload, files

    # -- reading ----------------------------------------------------------

    def _open_file(self, name: str, dtype: np.dtype, finfo: dict) -> np.ndarray:
        """Memmap one column file after the cheap validation tier."""
        path = self.path(name)
        declared_dtype = int(finfo["dtype_crc32"])
        if declared_dtype != _dtype_hash(dtype):
            raise CorruptColumnError(
                f"{name}: stored dtype hash {declared_dtype:#010x} does not "
                f"match the in-memory record layout"
            )
        count = int(finfo["count"])
        try:
            with open(path, "rb") as fh:
                head = fh.read(HEADER.size)
        except OSError as exc:
            raise CorruptColumnError(f"{name}: unreadable: {exc}") from exc
        if len(head) != HEADER.size:
            raise CorruptColumnError(f"{name}: truncated header")
        magic, version, _reserved, file_count = HEADER.unpack(head)
        if magic != MAGIC:
            raise CorruptColumnError(f"{name}: bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise CorruptColumnError(
                f"{name}: format v{version} != supported v{FORMAT_VERSION}"
            )
        if file_count != count:
            raise CorruptColumnError(
                f"{name}: header count {file_count} != manifest count {count}"
            )
        expected = HEADER.size + count * dtype.itemsize
        actual = os.path.getsize(path)
        if actual != expected:
            raise CorruptColumnError(
                f"{name}: file size {actual} != expected {expected}"
            )
        if count == 0:
            return np.empty(0, dtype=dtype)
        mm = np.memmap(path, dtype=dtype, mode="r", offset=HEADER.size, shape=(count,))
        if obs.enabled:
            obs.add("colstore.bytes_mapped", count * dtype.itemsize)
        return mm

    def _load(self, kind: str):
        """Memmap-backed column for ``kind`` (cheap validation tier)."""
        payload, crc = self._manifest()
        entry = payload["columns"].get(kind)
        if entry is None:
            raise CorruptColumnError(
                f"column store has no {kind!r} column"
            )
        arrays: List[np.ndarray] = []
        try:
            for name, dtype in _LAYOUT[kind]:
                arrays.append(self._open_file(name, dtype, entry["files"][name]))
        except (KeyError, TypeError) as exc:
            raise CorruptColumnError(
                f"column store manifest entry for {kind!r} is malformed"
            ) from exc
        try:
            col = _column_from_records(kind, arrays)
        except InvalidValue as exc:
            # e.g. an offsets array that does not cover the unit file —
            # internally inconsistent data that passed the cheap checks.
            raise CorruptColumnError(
                f"{kind} column files are mutually inconsistent: {exc}"
            ) from exc
        col.source = MmapSource(self.root, kind, crc)
        if obs.enabled:
            obs.add("colstore.validations")
        return col

    def load(self, kind: str):
        """Open column ``kind`` from disk (counted ``colstore.hits``).

        Raises :class:`CorruptColumnError` when the manifest or any
        backing file fails the cheap validation tier.
        """
        col = self._load(kind)
        if obs.enabled:
            obs.add("colstore.hits")
        return col

    def verify(self, kind: Optional[str] = None) -> None:
        """Full-CRC verification of stored columns (the recovery tier).

        Checks everything :meth:`load` checks plus a CRC over each
        file's payload bytes, so bit flips inside the record payload are
        caught.  Raises :class:`CorruptColumnError` on the first
        failure.
        """
        payload, _crc = self._manifest()
        kinds = [kind] if kind is not None else sorted(payload["columns"])
        for k in kinds:
            entry = payload["columns"].get(k)
            if entry is None:
                raise CorruptColumnError(f"column store has no {k!r} column")
            if k not in _LAYOUT:
                raise CorruptColumnError(f"manifest lists unknown kind {k!r}")
            for name, dtype in _LAYOUT[k]:
                try:
                    finfo = entry["files"][name]
                    declared = int(finfo["crc32"])
                except (KeyError, TypeError, ValueError) as exc:
                    raise CorruptColumnError(
                        f"column store manifest entry for {k!r} is malformed"
                    ) from exc
                self._open_file(name, dtype, finfo)
                with open(self.path(name), "rb") as fh:
                    fh.seek(HEADER.size)
                    actual = zlib.crc32(fh.read())
                if actual != declared:
                    raise CorruptColumnError(
                        f"{name}: payload CRC mismatch "
                        f"(declared {declared:#010x}, computed {actual:#010x})"
                    )
                if obs.enabled:
                    obs.add("colstore.validations")

    # -- the degrade path --------------------------------------------------

    def load_or_rebuild(
        self,
        kind: str,
        mappings: Sequence,
        fleet_version: Optional[int] = None,
        **build_kwargs,
    ):
        """Serve ``kind`` from disk, rebuilding from ``mappings`` if the
        stored column is missing, corrupt, or stale.

        Staleness: when ``fleet_version`` is given and differs from the
        version recorded in the manifest, or the stored object count
        disagrees with ``len(mappings)`` (a store directory re-pointed
        at a different workload), the stored bytes describe another
        fleet and are rebuilt.  Rebuilds are counted under
        ``colstore.rebuilds``; a clean disk serve is a ``colstore.hits``.
        The rebuilt column is persisted and re-opened from disk so the
        caller always gets a memmap-backed column with ``source`` set;
        if even the re-open fails (disk gone), the freshly built
        in-memory column is returned — degraded, never wrong.
        """
        n_objects = len(mappings)
        try:
            col = self._load(kind)
        except CorruptColumnError:
            pass
        else:
            entry = self.manifest()["columns"][kind]
            stored_v = entry.get("fleet_version")
            stored_n = entry.get("n_objects")
            if (fleet_version is None or stored_v == fleet_version) and (
                stored_n is None or stored_n == n_objects
            ):
                if obs.enabled:
                    obs.add("colstore.hits")
                return col
        built = _BUILDERS[kind](mappings, **build_kwargs)
        if obs.enabled:
            obs.add("colstore.rebuilds")
        self.save(kind, built, fleet_version, n_objects=n_objects)
        try:
            return self._load(kind)
        except CorruptColumnError:
            return built


_BUILDERS = {
    "upoint": UPointColumn.from_mappings,
    "ureal": URealColumn.from_mappings,
    "bbox": BBoxColumn.from_mappings,
}


# ---------------------------------------------------------------------------
# Process-wide active store (set by the CLI's --colstore flag)
# ---------------------------------------------------------------------------

_ACTIVE: Optional[str] = None
#: The one fleet the active store serves.  Column files are keyed by
#: kind only, so two different fleets sharing a store directory would
#: overwrite each other's generations; the first fleet to build through
#: the store claims it (weakly — a collected fleet frees the claim).
_BOUND: Optional["weakref.ref"] = None


def set_store(root: Optional[str]) -> None:
    """Select the process-wide column store directory (None disables)."""
    global _ACTIVE, _BOUND
    _ACTIVE = os.fspath(root) if root is not None else None
    _BOUND = None


def get_store() -> Optional[ColumnStore]:
    """The active :class:`ColumnStore`, or None when not configured."""
    if _ACTIVE is None:
        return None
    return ColumnStore(_ACTIVE)


def store_for(fleet) -> Optional[ColumnStore]:
    """The active store, iff it serves ``fleet``.

    The first weak-referenceable fleet to ask claims the store; other
    fleets get None and build in memory, so a shared directory can never
    interleave two fleets' generations.
    """
    global _BOUND
    store = get_store()
    if store is None:
        return None
    try:
        if _BOUND is None or _BOUND() is None:
            _BOUND = weakref.ref(fleet)
            return store
    except TypeError:
        return None  # not weak-referenceable: cannot track its claim
    return store if _BOUND() is fleet else None


def clear_store() -> None:
    """Forget the active store (test teardown)."""
    set_store(None)
