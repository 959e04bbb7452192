"""The crash matrix: arm → mutate → crash → recover → verify, per failpoint.

The acceptance property of the crash-safety work: for *every* failpoint
registered in :mod:`repro.faults`, injecting it mid-mutation and then
running recovery yields a store where

* every committed tuple is readable and equal to what was committed,
* an interrupted append is either fully absent or (when the crash hit
  after the durable COMMIT) fully present — never partial,
* every page in the page file passes checksum verification, and
* injected read-path corruption is *detected* (typed error), never
  silently returned.

Each scenario builds a small store whose ``mpoint`` attribute forces
external FLOB chains (tiny pages, tiny inline threshold), commits a
baseline, checkpoints part of it, then performs one more append with
the failpoint armed.  The simulated crash discards all in-memory state;
recovery gets only the surviving page file and WAL.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import faults
from repro.errors import (
    CorruptPageError,
    ReproError,
    SimulatedCrash,
    StorageError,
)
from repro.storage.pages import PageFile
from repro.storage.tuplestore import TupleStore
from repro.storage.wal import Wal
from repro.temporal.mapping import MovingPoint
from repro.temporal.upoint import UPoint

SCHEMA: List[Tuple[str, str]] = [("name", "string"), ("track", "mpoint")]

#: Store geometry chosen so every mpoint attribute externalizes into a
#: multi-page FLOB chain: small pages, tiny inline threshold.
PAGE_SIZE = 256
INLINE_THRESHOLD = 64
BUFFER_CAPACITY = 8

#: Baseline committed before the failpoint is armed; the checkpoint is
#: taken after the second tuple so replay exercises snapshot + redo.
BASELINE = 3
CHECKPOINT_AFTER = 2


@dataclass
class MatrixEntry:
    """Outcome of one failpoint's scenario."""

    failpoint: str
    fired: bool
    ok: bool
    detail: str


def _track(seed: int, idx: int) -> MovingPoint:
    """A deterministic multi-unit moving point (~ a few hundred bytes)."""
    units = []
    base = float(seed % 97) + idx * 10.0
    pos = (base, base + 1.0)
    for k in range(6):
        t0, t1 = k * 2.0, k * 2.0 + 1.5
        nxt = (pos[0] + 1.0 + (seed + idx + k) % 3, pos[1] + 0.5 + k % 2)
        units.append(UPoint.between(t0, pos, t1, nxt, rc=False))
        pos = nxt
    return MovingPoint(units)


def _fresh(seed: int) -> Tuple[TupleStore, PageFile, Wal]:
    pf = PageFile(page_size=PAGE_SIZE)
    wal = Wal()
    store = TupleStore(
        SCHEMA,
        pf,
        buffer_capacity=BUFFER_CAPACITY,
        inline_threshold=INLINE_THRESHOLD,
        wal=wal,
        wal_scope="rel:matrix",
    )
    for i in range(BASELINE):
        store.append([f"obj{i}", _track(seed, i)])
        if i + 1 == CHECKPOINT_AFTER:
            store.checkpoint()
    return store, pf, wal


def _rows(store: TupleStore) -> List[Tuple[str, int]]:
    """A comparable digest of every tuple: (name, unit count)."""
    return [(row[0].value, len(row[1].units)) for row in store.scan()]


def _verify_recovered(
    pf: PageFile, wal: Wal, seed: int, extra_expected: bool
) -> Tuple[bool, str]:
    """Recover and check the crash-matrix invariants."""
    recovered = TupleStore.recover(
        SCHEMA,
        pf,
        wal,
        wal_scope="rel:matrix",
        buffer_capacity=BUFFER_CAPACITY,
        inline_threshold=INLINE_THRESHOLD,
    )
    rows = _rows(recovered)
    expected = [(f"obj{i}", 6) for i in range(BASELINE)]
    if extra_expected:
        expected = expected + [("extra", 6)]
    if rows != expected:
        return False, f"recovered rows {rows!r} != committed {expected!r}"
    try:
        pf.verify_all()
    except StorageError as exc:
        return False, f"page failed post-recovery checksum sweep: {exc}"
    return True, f"{len(rows)} tuples intact, {pf.page_count} pages verify"


def _write_scenario(name: str, seed: int) -> MatrixEntry:
    """Arm a write/commit-path failpoint, crash one append, recover."""
    faults.disarm()
    store, pf, wal = _fresh(seed)
    faults.arm(name)
    crashed = False
    try:
        store.append(["extra", _track(seed, BASELINE)])
    except SimulatedCrash:
        crashed = True
    except StorageError as exc:
        return MatrixEntry(
            name, faults.fired(name) > 0, False,
            f"append died with {type(exc).__name__}: {exc}",
        )
    finally:
        faults.disarm()
    wal.crash()  # unsynced WAL buffer evaporates with the process
    fired = faults.fired(name) > 0
    # A policy whose site was never reached would make the scenario
    # vacuous — flag it instead of passing silently.
    if not fired:
        return MatrixEntry(name, False, False, "failpoint never fired")
    # Every write-path failpoint kills the append before its COMMIT is
    # durable except commit_crash, which fires after the barrier: there
    # recovery MUST resurrect the interrupted tuple.
    extra = crashed and name == "tuplestore.commit_crash"
    ok, detail = _verify_recovered(pf, wal, seed, extra_expected=extra)
    return MatrixEntry(name, fired, ok, detail)


def _read_retry_scenario(name: str, seed: int) -> MatrixEntry:
    """Arm the transient-read failpoint; the retry loop must absorb it."""
    faults.disarm()
    store, pf, wal = _fresh(seed)
    baseline = _rows(store)
    # Evict everything so the next scan performs physical reads.
    cold = TupleStore.recover(
        SCHEMA, pf, wal, wal_scope="rel:matrix",
        buffer_capacity=BUFFER_CAPACITY, inline_threshold=INLINE_THRESHOLD,
    )
    faults.arm(name, "once")
    try:
        rows = _rows(cold)
    except StorageError as exc:
        return MatrixEntry(
            name, faults.fired(name) > 0, False,
            f"transient fault escaped the retry loop: {exc}",
        )
    finally:
        faults.disarm()
    fired = faults.fired(name) > 0
    if not fired:
        return MatrixEntry(name, False, False, "failpoint never fired")
    if rows != baseline:
        return MatrixEntry(name, fired, False, "retry returned wrong rows")
    return MatrixEntry(name, fired, True, "transient fault retried")


def _read_bitflip_scenario(name: str, seed: int) -> MatrixEntry:
    """A flipped bit on a cold physical read must raise CorruptPageError."""
    faults.disarm()
    store, pf, wal = _fresh(seed)
    cold = TupleStore.recover(
        SCHEMA, pf, wal, wal_scope="rel:matrix",
        buffer_capacity=BUFFER_CAPACITY, inline_threshold=INLINE_THRESHOLD,
    )
    faults.arm(name, "every:1")
    try:
        _rows(cold)
    except CorruptPageError:
        return MatrixEntry(name, True, True, "bit flip detected (typed)")
    except StorageError as exc:
        return MatrixEntry(
            name, faults.fired(name) > 0, True,
            f"bit flip detected as {type(exc).__name__}",
        )
    finally:
        faults.disarm()
    fired = faults.fired(name) > 0
    if not fired:
        return MatrixEntry(name, False, False, "failpoint never fired")
    return MatrixEntry(name, fired, False, "flipped bit read back silently")


def _catalog_scenario(name: str, seed: int) -> MatrixEntry:
    """Crash a catalog create; recovery must not show the half-made DDL."""
    from repro.db.catalog import Database

    faults.disarm()
    wal = Wal()
    db = Database(wal=wal)
    db.create_relation("committed", SCHEMA, materialized=True,
                       inline_threshold=INLINE_THRESHOLD)
    db.relation("committed").insert([f"obj{seed % 10}", _track(seed, 0)])
    faults.arm(name)
    crashed = False
    try:
        db.create_relation("doomed", SCHEMA, materialized=True)
    except SimulatedCrash:
        crashed = True
    finally:
        faults.disarm()
    wal.crash()
    fired = faults.fired(name) > 0
    if not fired or not crashed:
        return MatrixEntry(name, fired, False, "failpoint never fired")
    recovered = Database.recover(wal)
    if "doomed" in recovered:
        return MatrixEntry(name, fired, False,
                           "uncommitted DDL visible after recovery")
    if "committed" not in recovered:
        return MatrixEntry(name, fired, False,
                           "committed relation lost in recovery")
    rows = recovered.relation("committed").rows()
    if len(rows) != 1 or len(rows[0]["track"].units) != 6:
        return MatrixEntry(name, fired, False,
                           "committed tuple damaged by recovery")
    return MatrixEntry(name, fired, True,
                       "DDL atomic: committed survives, doomed absent")


def _colstore_scenario(name: str, seed: int) -> MatrixEntry:
    """Crash a column-store save mid-generation: the prior generation
    must stay intact (or be *detectably* torn — never torn bytes served),
    and ``load_or_rebuild`` must repair to the new fleet."""
    import shutil
    import tempfile

    from repro.vector.store import ColumnStore, _BUILDERS

    faults.disarm()
    mappings = [_track(seed, i) for i in range(4)]
    grown = mappings + [_track(seed, 4)]
    root = tempfile.mkdtemp(prefix="crashmatrix_colstore_")
    try:
        store = ColumnStore(root)
        gen1 = _BUILDERS["upoint"](mappings)
        store.save("upoint", gen1, n_objects=len(mappings))
        faults.arm(name)
        crashed = False
        try:
            store.save("upoint", _BUILDERS["upoint"](grown),
                       n_objects=len(grown))
        except SimulatedCrash:
            crashed = True
        finally:
            faults.disarm()
        fired = faults.fired(name) > 0
        if not fired or not crashed:
            return MatrixEntry(name, fired, False, "failpoint never fired")
        # Atomicity: either the old generation still verifies and reads
        # back byte-identical, or the damage is typed — never silent.
        try:
            store.verify("upoint")
            reread = store.load("upoint")
            if reread.offsets.tobytes() != gen1.offsets.tobytes():
                return MatrixEntry(name, fired, False,
                                   "torn save served as clean bytes")
        except StorageError:
            pass  # detected — acceptable outcome
        repaired = store.load_or_rebuild("upoint", grown)
        if len(repaired.offsets) != len(grown) + 1:
            return MatrixEntry(name, fired, False,
                               "rebuild did not repair to the new fleet")
        store.verify("upoint")
        return MatrixEntry(name, fired, True,
                           "old generation safe; rebuild repaired store")
    finally:
        faults.disarm()
        shutil.rmtree(root, ignore_errors=True)


def _ingest_scenario(name: str, seed: int) -> MatrixEntry:
    """Crash the query service's group-commit path, then recover.

    The two failpoints prove the two sides of the durability barrier:
    ``wal.group_commit_crash`` fires *before* the batched ``sync()``, so
    the crashed batch must be absent after replay; ``server.ingest_crash``
    fires *after* it (mid-apply), so replay must resurrect the batch —
    the ingest-path analog of ``tuplestore.commit_crash``.  Either way
    the columns served after recovery must match a from-scratch build:
    no torn columns."""
    import shutil
    import tempfile

    from repro.server.executor import FleetExecutor
    from repro.server.ingest import IngestRequest, commit, replay_ingest
    from repro.vector.cache import clear_cache, column_for_versioned
    from repro.vector.store import _BUILDERS, clear_store, set_store

    faults.disarm()
    baseline = [_track(seed, i) for i in range(4)]
    root = tempfile.mkdtemp(prefix="crashmatrix_ingest_")
    wal = Wal()
    try:
        clear_cache()
        set_store(root)
        ex = FleetExecutor()
        fleet = ex.register_fleet("fleet", baseline)
        column_for_versioned(fleet, "upoint")  # persist the baseline column
        first = IngestRequest("fleet", 0, (100.0, 0.0, 0.0, 101.5, 1.0, 1.0))
        commit(wal, ex, [first])
        column_for_versioned(fleet, "upoint")  # extend the stored column
        faults.arm(name)
        crashed = False
        second = IngestRequest("fleet", 1, (200.0, 5.0, 5.0, 201.5, 6.0, 6.0))
        try:
            commit(wal, ex, [second])
        except SimulatedCrash:
            crashed = True
        finally:
            faults.disarm()
        wal.crash()  # whatever was buffered dies with the process
        fired = faults.fired(name) > 0
        if not fired or not crashed:
            return MatrixEntry(name, fired, False, "failpoint never fired")
        # "Restart": drop every live object, rebind the store directory,
        # rebuild the boot-time fleet, and replay the durable WAL prefix.
        del ex, fleet
        clear_cache()
        set_store(root)
        ex2 = FleetExecutor()
        fleet2 = ex2.register_fleet("fleet", baseline)
        replayed = replay_ingest(wal, ex2)
        counts = [len(m.units) for m in fleet2]
        expected = [len(m.units) for m in baseline]
        expected[0] += 1  # the first batch was durable before the crash
        durable = name == "server.ingest_crash"
        if durable:
            expected[1] += 1  # synced pre-apply: replay must resurrect it
        if counts != expected:
            return MatrixEntry(
                name, fired, False,
                f"replayed unit counts {counts!r} != expected {expected!r}",
            )
        _, col = column_for_versioned(fleet2, "upoint")
        ref = _BUILDERS["upoint"](list(fleet2))
        if (col.offsets.tobytes() != ref.offsets.tobytes()
                or col.x0.tobytes() != ref.x0.tobytes()):
            return MatrixEntry(name, fired, False,
                               "post-recovery column differs from rebuild")
        detail = ("durable batch resurrected by replay" if durable
                  else "unsynced batch absent after replay")
        return MatrixEntry(name, fired, True,
                           f"{replayed} unit(s) replayed; {detail}")
    finally:
        faults.disarm()
        clear_store()
        clear_cache()
        wal.close()
        shutil.rmtree(root, ignore_errors=True)


def _chaos_scenario(name: str, seed: int) -> MatrixEntry:
    """Delegate a live-degradation failpoint to the chaos matrix.

    The four service failpoints need a running server (or a live fork
    pool), not a store-and-recover cycle; their scenarios live in
    :mod:`repro.server.chaos`.  The matrix still owns registry coverage
    — every registered failpoint must resolve to *some* scenario — so
    this shim runs the chaos scenario at smoke scale.
    """
    from repro.server.chaos import SCENARIOS as CHAOS_SCENARIOS

    return CHAOS_SCENARIOS[name](name, seed, True)


#: failpoint name → scenario runner; one entry per registered failpoint.
SCENARIOS: Dict[str, Callable[[str, int], MatrixEntry]] = {
    "pagefile.write_crash": _write_scenario,
    "pagefile.torn_write": _write_scenario,
    "pagefile.read_transient": _read_retry_scenario,
    "pagefile.read_bitflip": _read_bitflip_scenario,
    "flob.write_crash": _write_scenario,
    "wal.append_crash": _write_scenario,
    "wal.sync_crash": _write_scenario,
    "wal.torn_tail": _write_scenario,
    "tuplestore.commit_crash": _write_scenario,
    "catalog.create_crash": _catalog_scenario,
    "colstore.write_crash": _colstore_scenario,
    "colstore.manifest_crash": _colstore_scenario,
    "wal.group_commit_crash": _ingest_scenario,
    "server.ingest_crash": _ingest_scenario,
    "server.conn_drop": _chaos_scenario,
    "server.slow_client": _chaos_scenario,
    "ingest.dup_send": _chaos_scenario,
    "shard.evict_during_query": _chaos_scenario,
}


def run_crash_matrix(
    seed: int = 2000,
    only: Optional[str] = None,
    should_stop: Optional[Callable[[], bool]] = None,
) -> List[MatrixEntry]:
    """Run every registered failpoint's scenario; returns the outcomes.

    Raises :class:`ReproError` if a failpoint has no scenario (the
    matrix must cover the whole registry — MOD006 keeps the registry
    honest, this check keeps the matrix honest).  ``should_stop`` is
    polled *between* scenarios — a signal handler can set it to stop
    early at a clean boundary, with everything already run reported.
    """
    missing = faults.FAILPOINT_NAMES - set(SCENARIOS)
    if missing:
        raise ReproError(
            f"crash matrix has no scenario for: {', '.join(sorted(missing))}"
        )
    entries: List[MatrixEntry] = []
    prior = faults.armed()
    faults.disarm()
    try:
        for name in sorted(SCENARIOS):
            if should_stop is not None and should_stop():
                break
            if only is not None and name != only:
                continue
            entries.append(SCENARIOS[name](name, seed))
    finally:
        faults.disarm()
        for armed_name, policy in prior.items():
            faults.arm(armed_name, policy)
    return entries


def format_matrix(entries: List[MatrixEntry]) -> str:
    """Render the matrix outcomes as an aligned text table."""
    width = max(len(e.failpoint) for e in entries) if entries else 8
    lines = []
    for e in entries:
        status = "ok" if e.ok else "FAIL"
        lines.append(f"{e.failpoint.ljust(width)}  {status:<4}  {e.detail}")
    passed = sum(1 for e in entries if e.ok)
    lines.append(f"{passed}/{len(entries)} failpoints survived")
    return "\n".join(lines)
