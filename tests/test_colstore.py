"""Persistent column store (:mod:`repro.vector.store`).

Covers the tentpole guarantees of the mmap store:

* round-trip fidelity — the file payload is byte-identical to the
  in-memory column records (a hypothesis property pins the format);
* the corruption matrix — a bit flip in any column file or the
  manifest is detected, and WAL recovery *rebuilds* the store from the
  recovered relation rather than serving the flipped bytes;
* torn writes — every registered ``colstore.*`` failpoint leaves the
  store either at the old consistent generation or detectably torn,
  and ``load_or_rebuild`` repairs both shapes;
* backend parity — query results with a store configured are identical
  across the scalar, vector, and sharded backends.
"""

import os
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults, obs
from repro.db.catalog import Database
from repro.errors import CorruptColumnError, SimulatedCrash
from repro.storage.wal import Wal
from repro.temporal.mapping import MovingPoint
from repro.vector.cache import Fleet, clear_cache
from repro.vector.fleet import fleet_atinstant, set_backend
from repro.vector.kernels import atinstant_batch
from repro.vector.store import (
    COLUMN_KINDS,
    HEADER,
    MANIFEST_NAME,
    _BUILDERS,
    _LAYOUT,
    _column_records,
    ColumnStore,
    clear_store,
    set_store,
)
from repro.workloads.trajectories import random_flights

SCHEMA = [("name", "string"), ("track", "mpoint")]


@pytest.fixture(autouse=True)
def _clean_state():
    faults.disarm()
    faults.reset_fired()
    obs.enable()
    obs.reset()
    clear_store()
    clear_cache()
    set_backend("scalar")
    yield
    faults.disarm()
    faults.reset_fired()
    clear_store()
    clear_cache()
    set_backend("scalar")
    obs.reset()
    obs.disable()


def counters():
    return obs.snapshot()["counters"]


def make_mappings(n=12, seed=7):
    return random_flights(n, legs=3, seed=seed)


def mappings_for(kind, mappings):
    """Kind-appropriate inputs: moving reals are derived values (here,
    distance to the origin), point/bbox kinds take the flights as-is."""
    if kind == "ureal":
        from repro.ops.distance import mpoint_static_distance
        from repro.spatial.point import Point

        return [mpoint_static_distance(m, Point(0.0, 0.0)) for m in mappings]
    return mappings


def save_all(root, mappings):
    store = ColumnStore(os.fspath(root))
    for kind in COLUMN_KINDS:
        src = mappings_for(kind, mappings)
        store.save(kind, _BUILDERS[kind](src), n_objects=len(src))
    return store


def flip_byte(path, offset):
    with open(path, "r+b") as fh:
        fh.seek(offset)
        b = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([b[0] ^ 0xFF]))


#: Every (kind, file name) pair the store writes — the corruption matrix.
ALL_FILES = [
    (kind, name)
    for kind in COLUMN_KINDS
    for name, _dtype in _LAYOUT[kind]
]


class TestRoundTrip:
    @pytest.mark.parametrize("kind", COLUMN_KINDS)
    def test_file_payload_is_in_memory_bytes(self, tmp_path, kind):
        mappings = make_mappings()
        store = save_all(tmp_path, mappings)
        built = _BUILDERS[kind](mappings_for(kind, mappings))
        for (name, dtype), rec in zip(
            _LAYOUT[kind], _column_records(kind, built)
        ):
            with open(store.path(name), "rb") as fh:
                fh.seek(HEADER.size)
                on_disk = fh.read()
            assert on_disk == np.ascontiguousarray(
                rec, dtype=dtype
            ).tobytes()

    @pytest.mark.parametrize("kind", COLUMN_KINDS)
    def test_loaded_column_arrays_bit_identical(self, tmp_path, kind):
        mappings = make_mappings()
        store = save_all(tmp_path, mappings)
        built = _BUILDERS[kind](mappings_for(kind, mappings))
        loaded = store.load(kind)
        for (_name, dtype), built_rec, loaded_rec in zip(
            _LAYOUT[kind],
            _column_records(kind, built),
            _column_records(kind, loaded),
        ):
            assert (
                np.ascontiguousarray(built_rec, dtype=dtype).tobytes()
                == np.ascontiguousarray(loaded_rec, dtype=dtype).tobytes()
            )
        assert loaded.source is not None
        assert loaded.source.kind == kind
        assert counters()["colstore.hits"] == 1

    def test_kernel_results_identical_from_disk(self, tmp_path):
        mappings = make_mappings()
        store = save_all(tmp_path, mappings)
        built = _BUILDERS["upoint"](mappings)
        loaded = store.load("upoint")
        for t in (0.0, 0.5, 1.0, 2.5):
            bx, by, bd = atinstant_batch(built, t)
            lx, ly, ld = atinstant_batch(loaded, t)
            assert bx.tobytes() == lx.tobytes()
            assert by.tobytes() == ly.tobytes()
            assert np.array_equal(bd, ld)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n=st.integers(min_value=1, max_value=8),
    )
    def test_round_trip_property(self, seed, n):
        """Format pin: save→load reproduces the exact record bytes for
        arbitrary workloads, for every column kind."""
        import tempfile

        mappings = random_flights(n, legs=2, seed=seed)
        with tempfile.TemporaryDirectory() as root:
            self._assert_round_trip(root, mappings)

    def _assert_round_trip(self, root, mappings):
        store = ColumnStore(os.fspath(root))
        for kind in COLUMN_KINDS:
            built = _BUILDERS[kind](mappings_for(kind, mappings))
            store.save(kind, built)
            loaded = store.load(kind)
            for (_name, dtype), b, l in zip(
                _LAYOUT[kind],
                _column_records(kind, built),
                _column_records(kind, loaded),
            ):
                assert (
                    np.ascontiguousarray(b, dtype=dtype).tobytes()
                    == np.ascontiguousarray(l, dtype=dtype).tobytes()
                )

    def test_empty_store_round_trip(self, tmp_path):
        store = save_all(tmp_path, [])
        for kind in COLUMN_KINDS:
            col = store.load(kind)
            assert len(getattr(col, "offsets", [0])) >= 0
        store.verify()


class TestValidation:
    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(CorruptColumnError):
            ColumnStore(os.fspath(tmp_path)).load("upoint")

    def test_unknown_kind_raises(self, tmp_path):
        store = save_all(tmp_path, make_mappings())
        with pytest.raises(CorruptColumnError):
            store.load("nope")

    @pytest.mark.parametrize("kind,name", ALL_FILES)
    def test_payload_bitflip_caught_by_verify(self, tmp_path, kind, name):
        store = save_all(tmp_path, make_mappings())
        flip_byte(store.path(name), HEADER.size + 3)
        with pytest.raises(CorruptColumnError):
            store.verify(kind)

    @pytest.mark.parametrize("kind,name", ALL_FILES)
    def test_header_bitflip_caught_by_cheap_load(self, tmp_path, kind, name):
        store = save_all(tmp_path, make_mappings())
        flip_byte(store.path(name), 0)  # magic byte
        with pytest.raises(CorruptColumnError):
            store.load(kind)

    @pytest.mark.parametrize("kind,name", ALL_FILES)
    def test_truncation_caught_by_cheap_load(self, tmp_path, kind, name):
        store = save_all(tmp_path, make_mappings())
        size = os.path.getsize(store.path(name))
        with open(store.path(name), "r+b") as fh:
            fh.truncate(size - 1)
        with pytest.raises(CorruptColumnError):
            store.load(kind)

    def test_manifest_bitflip_caught(self, tmp_path):
        store = save_all(tmp_path, make_mappings())
        flip_byte(store.path(MANIFEST_NAME), 12)
        with pytest.raises(CorruptColumnError):
            store.manifest()
        with pytest.raises(CorruptColumnError):
            store.load("upoint")
        assert not store.has("upoint")

    def test_dtype_hash_mismatch_rejected(self, tmp_path):
        """A manifest claiming a different record layout must be
        rejected before a memmap view can misread the bytes."""
        import json

        store = save_all(tmp_path, make_mappings())
        payload = store.manifest()
        entry = payload["columns"]["upoint"]["files"]["upoint.bin"]
        entry["dtype_crc32"] = (entry["dtype_crc32"] + 1) & 0xFFFFFFFF
        doc = {
            "crc32": zlib.crc32(
                json.dumps(payload, sort_keys=True).encode("utf-8")
            ),
            "payload": payload,
        }
        with open(store.path(MANIFEST_NAME), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
        with pytest.raises(CorruptColumnError):
            store.load("upoint")


class TestLoadOrRebuild:
    def test_corrupt_store_rebuilt_and_counted(self, tmp_path):
        mappings = make_mappings()
        store = save_all(tmp_path, mappings)
        flip_byte(store.path("upoint.bin"), 0)
        obs.reset()
        col = store.load_or_rebuild("upoint", mappings)
        assert counters()["colstore.rebuilds"] == 1
        assert col.source is not None
        store.verify("upoint")

    def test_object_count_mismatch_is_stale(self, tmp_path):
        """A store directory re-pointed at a different workload must
        rebuild, not serve the other workload's columns."""
        store = save_all(tmp_path, make_mappings(12))
        other = make_mappings(5, seed=99)
        obs.reset()
        col = store.load_or_rebuild("upoint", other)
        assert counters()["colstore.rebuilds"] == 1
        assert len(col.offsets) == len(other) + 1

    def test_fleet_version_mismatch_is_stale(self, tmp_path):
        mappings = make_mappings()
        store = ColumnStore(os.fspath(tmp_path))
        store.save(kind="upoint", column=_BUILDERS["upoint"](mappings),
                   fleet_version=3, n_objects=len(mappings))
        obs.reset()
        store.load_or_rebuild("upoint", mappings, fleet_version=4)
        assert counters()["colstore.rebuilds"] == 1
        assert store.fleet_version("upoint") == 4

    def test_clean_store_served_without_rebuild(self, tmp_path):
        mappings = make_mappings()
        store = save_all(tmp_path, mappings)
        obs.reset()
        store.load_or_rebuild("upoint", mappings)
        c = counters()
        assert c.get("colstore.rebuilds", 0) == 0
        assert c["colstore.hits"] == 1


#: (failpoint, policy) matrix: every registered colstore failpoint, at
#: its first and second firing opportunity.
TORN_CASES = [
    ("colstore.write_crash", "once"),
    ("colstore.write_crash", "after:1"),
    ("colstore.manifest_crash", "once"),
]


class TestTornWrites:
    @pytest.mark.parametrize("failpoint,policy", TORN_CASES)
    def test_crash_mid_save_never_serves_torn_bytes(
        self, tmp_path, failpoint, policy
    ):
        mappings = make_mappings()
        store = save_all(tmp_path, mappings)
        before = store.manifest()
        grown = mappings + make_mappings(3, seed=11)
        faults.arm(failpoint, policy)
        with pytest.raises(SimulatedCrash):
            store.save(
                "upoint", _BUILDERS["upoint"](mappings=grown),
                n_objects=len(grown),
            )
        faults.disarm()
        # The manifest still describes the *old* generation: either it
        # validates in full (column files untouched or torn files not
        # yet renamed in) or validation rejects it — never torn bytes
        # served as good.
        try:
            store.verify()
        except CorruptColumnError:
            pass
        else:
            assert store.manifest() == before
        # And the degrade path repairs whichever shape resulted.
        obs.reset()
        col = store.load_or_rebuild("upoint", grown)
        assert len(col.offsets) == len(grown) + 1
        store.verify("upoint")

    @pytest.mark.parametrize("failpoint,policy", TORN_CASES)
    def test_recovery_rebuilds_after_torn_checkpoint(
        self, tmp_path, failpoint, policy
    ):
        """WAL + colstore: a crash during a re-checkpoint leaves the
        COLSTORE record pointing at a generation that no longer
        verifies; recovery must rebuild it from the recovered rows."""
        wal = Wal()
        db = Database(wal=wal)
        rel = db.create_relation(
            "ships", SCHEMA, materialized=True, inline_threshold=64
        )
        for i, m in enumerate(make_mappings(6)):
            rel.insert([f"s{i}", m])
        root = os.fspath(tmp_path / "cols")
        db.checkpoint_columns(root, "ships", "track")
        # Second checkpoint tears: column files may be half-replaced
        # relative to the manifest the WAL checkpoint record pins.
        faults.arm(failpoint, policy)
        with pytest.raises(SimulatedCrash):
            db.checkpoint_columns(root, "ships", "track")
        faults.disarm()
        wal.crash()
        obs.reset()
        recovered = Database.recover(wal)
        store = ColumnStore(root)
        store.verify()  # whatever recovery left must validate in full
        col = store.load("upoint")
        assert len(col.offsets) == len(recovered.relation("ships")) + 1


class TestRecoveryMatrix:
    def _checkpointed_db(self, tmp_path, n=6):
        wal = Wal()
        db = Database(wal=wal)
        rel = db.create_relation(
            "ships", SCHEMA, materialized=True, inline_threshold=64
        )
        for i, m in enumerate(make_mappings(n)):
            rel.insert([f"s{i}", m])
        root = os.fspath(tmp_path / "cols")
        db.checkpoint_columns(root, "ships", "track")
        return wal, db, ColumnStore(root)

    def test_intact_store_not_rebuilt(self, tmp_path):
        wal, _db, store = self._checkpointed_db(tmp_path)
        wal.crash()
        obs.reset()
        Database.recover(wal)
        assert counters().get("colstore.rebuilds", 0) == 0
        store.verify()

    @pytest.mark.parametrize(
        "name", sorted({n for _k, n in ALL_FILES if n != "ureal.bin"
                        and n != "ureal_offsets.bin"}) + [MANIFEST_NAME]
    )
    def test_bitflipped_file_rebuilt_on_recovery(self, tmp_path, name):
        """Flip one byte in each checkpointed file (and the manifest):
        recovery must detect it and rebuild, counted per kind."""
        wal, _db, store = self._checkpointed_db(tmp_path)
        offset = 4 if name == MANIFEST_NAME else HEADER.size + 1
        flip_byte(store.path(name), offset)
        wal.crash()
        obs.reset()
        recovered = Database.recover(wal)
        assert counters()["colstore.rebuilds"] >= 1
        store.verify()  # rebuilt generation is fully valid again
        col = store.load("upoint")
        assert len(col.offsets) == len(recovered.relation("ships")) + 1

    def test_missing_store_directory_degrades(self, tmp_path):
        import shutil

        wal, _db, store = self._checkpointed_db(tmp_path)
        shutil.rmtree(store.root)
        wal.crash()
        recovered = Database.recover(wal)  # must not raise
        # Rebuild from the recovered relation re-created the directory.
        assert ColumnStore(store.root).exists() or not os.path.exists(
            store.root
        )
        assert len(recovered.relation("ships")) == 6


class TestBackendParity:
    def test_query_results_identical_across_backends(self, tmp_path):
        db = Database()
        rel = db.create_relation("planes", [("id", "string"),
                                            ("flight", "mpoint")])
        rel.insert(["LH1", MovingPoint.from_waypoints(
            [(0, (0, 0)), (100, (6000, 0))])])
        rel.insert(["LH2", MovingPoint.from_waypoints(
            [(0, (0, 10)), (100, (3000, 10))])])
        rel.insert(["AF1", MovingPoint.from_waypoints(
            [(50, (0, 0.2)), (150, (6000, 0.2))])])
        sql = "SELECT id FROM planes WHERE present(flight, 120)"
        set_backend("scalar")
        scalar = sorted(r["id"].value for r in db.query(sql))
        set_store(os.fspath(tmp_path))
        for backend in ("vector", "sharded"):
            set_backend(backend)
            clear_cache()
            cold = sorted(r["id"].value for r in db.query(sql))
            warm = sorted(r["id"].value for r in db.query(sql))
            assert cold == warm == scalar

    def test_explain_shows_mmap_scan_only_with_store(self, tmp_path):
        from repro.db.sql import explain

        db = Database()
        db.create_relation("planes", [("id", "string"),
                                      ("flight", "mpoint")])
        set_backend("vector")
        assert "MmapScan" not in explain(
            db, "SELECT id FROM planes WHERE present(flight, 1)"
        )
        set_store(os.fspath(tmp_path))
        plan = explain(db, "SELECT id FROM planes WHERE present(flight, 1)")
        assert "MmapScan(planes" in plan
        assert "planes.flight" in plan

    def test_fleet_helpers_serve_bit_identical_from_store(self, tmp_path):
        mappings = make_mappings(10)
        set_backend("scalar")
        scalar = fleet_atinstant(mappings, 1.5)
        set_store(os.fspath(tmp_path))
        fleet = Fleet(mappings)
        set_backend("vector")
        cold = fleet_atinstant(fleet, 1.5)
        assert counters()["colstore.rebuilds"] == 1
        clear_cache()
        obs.reset()
        warm = fleet_atinstant(fleet, 1.5)
        assert counters()["colstore.hits"] >= 1
        for s, c, w in zip(scalar, cold, warm):
            if s is None:
                assert c is None and w is None
            else:
                assert s.x == c.x == w.x and s.y == c.y == w.y
