"""Exception hierarchy for the moving objects database library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class InvalidValue(ReproError):
    """A finite representation violates the constraints of its data type.

    Raised by type constructors when the supplied components do not form a
    valid carrier-set element — e.g. a set of segments with collinear
    overlaps offered as a ``line`` value, or a ``mapping`` whose unit
    intervals overlap.
    """


class UndefinedValue(ReproError):
    """An operation was applied to the undefined value (bottom)."""


class TypeMismatch(ReproError):
    """An operation received arguments of the wrong data type."""


class StorageError(ReproError):
    """A failure in the storage engine (pages, arrays, codecs)."""


class CorruptPageError(StorageError):
    """A page read back from disk failed verification.

    Raised by :meth:`repro.storage.pages.PageFile.read_page` when the
    page header's magic/version is wrong or the stored CRC does not
    match the payload — a torn write, a bit flip, or a misdirected
    write.  The message carries the page number; the page is never
    returned as data.
    """


class CorruptRecordError(StorageError):
    """A serialized value failed validation during decoding.

    Raised by the storage codecs (:mod:`repro.storage.records`), the
    database-array deserializer, and the tuple store when a byte string
    is shorter than its declared lengths, an embedded checksum does not
    match, or an offset/index points outside its array.  Decoders raise
    this instead of surfacing bare ``struct.error``/``IndexError`` — and
    never silently return a wrong value.
    """


class CorruptColumnError(StorageError):
    """A persistent column file failed validation when opened or verified.

    Raised by :mod:`repro.vector.store` when a column file's header
    magic/version is wrong, its record count disagrees with the
    CRC-checked manifest, the stored dtype hash does not match the
    in-memory struct layout, or a full-CRC verification pass finds the
    payload bytes corrupted.  The store never serves bytes from a file
    that failed validation; callers degrade to rebuilding the column
    from the tuple store (counted under ``colstore.rebuilds``).
    """


class TransientIOError(StorageError):
    """A read failed in a way that is worth retrying.

    The buffer pool retries these with bounded backoff
    (``buffer.retries``); only after the retry budget is exhausted does
    the error propagate.
    """


class WalError(StorageError):
    """Misuse of the write-ahead log (not a torn tail, which recovery
    tolerates by design)."""


class SimulatedCrash(ReproError):
    """A failpoint simulating the process dying mid-operation.

    Raised by armed :mod:`repro.faults` injection points.  Nothing in
    the library catches it (it is deliberately *not* a
    :class:`StorageError`, so quarantine/retry paths let it through);
    the crash-matrix harness catches it at the top, discards all
    in-memory state, and exercises recovery.
    """


class CatalogError(ReproError):
    """A failure in the database catalog (unknown relation, duplicate name)."""


class QueryError(ReproError):
    """A failure while parsing, planning, or executing a query."""


class DeadlineExceeded(ReproError):
    """A request's deadline expired before the work completed.

    Carried by :class:`repro.deadline.Deadline.check` when a budget set
    with the query service's ``DEADLINE=<ms>`` request attribute runs
    out.  Executors check at chunk boundaries, the SQL layer checks per
    statement and per cross-product row, and the session layer enforces
    a wall-clock backstop — all three surface as this one type, answered
    on the wire as a single ``ERR DeadlineExceeded`` line and counted
    under ``server.timeouts``.
    """


class Overloaded(ReproError):
    """The query service shed a request instead of queueing it.

    Raised by the session layer's admission control when the number of
    in-flight requests is past its bound (or the ingest queue is past
    its watermark).  Carries ``retry_after_ms``, a backoff hint derived
    from the current latency window and queue excess; the hint is also
    embedded in the error text so it crosses the wire inside the
    ``ERR Overloaded`` line.
    """

    def __init__(self, message: str, retry_after_ms: int = 0):
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class ProtocolError(ReproError):
    """A malformed request on the query-service line protocol.

    Raised by :mod:`repro.server.protocol` when a request line names an
    unknown command or carries the wrong number / type of arguments.
    The session layer answers with a single ``ERR`` line and keeps the
    connection open; it never tears the session down for a bad request.
    """


class NotClosed(ReproError):
    """An operation of the abstract model is not closed in the discrete model.

    The paper notes that a few operations (notably ``derivative``) cannot be
    transferred to the discrete representation because the chosen unit
    functions are not closed under them.
    """
