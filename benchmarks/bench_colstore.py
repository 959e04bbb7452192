"""V6: persistent column store — the cold start without the rebuild.

Claim under test: with a populated ``--colstore`` directory, a cold
process's first whole-fleet snapshot (validate manifest, memmap the
column files, run the kernel) lands within 2× of a fully warm snapshot
(column already resident), while the pre-store cold path — rebuilding
the columns from the tuple-store rows — costs a large multiple of
either.  The counters prove which path ran: the cold-with-store run
must show ``colstore.hits ≥ 1`` and ``colstore.rebuilds == 0``, and
the kernel's answers stay bit-identical to the scalar reference loop
whether columns came from disk or a fresh transcription.

Runs both as pytest (equivalence + counters asserted; the quick
``smoke`` test is wired into scripts/check.sh) and as a script:
``python benchmarks/bench_colstore.py --json BENCH_colstore.json``.
"""

import json
import shutil
import tempfile
import time

import numpy as np

from bench_vector import build_fleet
from repro import obs
from repro.vector.cache import Fleet, clear_cache, column_for
from repro.vector.columns import UPointColumn
from repro.vector.fleet import fleet_atinstant, scalar_atinstant
from repro.vector.kernels import atinstant_batch
from repro.vector.store import ColumnStore, clear_store, set_store

FLEET_SIZE = 100_000
T = 60.0


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        tic = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - tic)
    return best


def _populate(root, mappings):
    """Prime the store the way a previous process would have: build the
    columns through the cache with the store active."""
    set_store(root)
    fleet = Fleet(mappings)
    clear_cache()
    column_for(fleet, "upoint")
    clear_cache()
    clear_store()
    return ColumnStore(root)


def _simulate_cold_process(root, mappings):
    """A fresh process's state: store configured, nothing resident."""
    set_store(root)  # resets the store→fleet binding too
    clear_cache()
    return Fleet(mappings)


def measure_cold_start(mappings, root) -> dict:
    """Cold-with-store vs warm vs the killed rebuild path, end to end."""
    store = _populate(root, mappings)

    # The old cold start: transcribe the rows into a column, every time.
    rebuild_s = _best_of(
        lambda: fleet_atinstant(list(mappings), T)
    )

    # The new cold start: first query of a fresh process, store active.
    def cold():
        fleet = _simulate_cold_process(root, mappings)
        return fleet_atinstant(fleet, T)

    with obs.capture() as counters:
        cold_result = cold()
        cold_counters = counters.snapshot()["counters"]
    cold_s = _best_of(cold)

    # Fully warm: same fleet, column cached from the previous query.
    fleet = _simulate_cold_process(root, mappings)
    fleet_atinstant(fleet, T)  # prime
    warm_s = _best_of(lambda: fleet_atinstant(fleet, T))

    # Bit-identical answers: mmap-fed kernel vs fresh transcription.
    built = UPointColumn.from_mappings(mappings)
    loaded = store.load("upoint")
    bx, by, bd = atinstant_batch(built, T)
    lx, ly, ld = atinstant_batch(loaded, T)
    kernel_mismatches = (
        int(np.count_nonzero(bd != ld))
        + int(np.count_nonzero(bx[bd & ld] != lx[bd & ld]))
        + int(np.count_nonzero(by[bd & ld] != ly[bd & ld]))
    )

    clear_cache()
    clear_store()
    return {
        "objects": len(mappings),
        "cold_rebuild_s": rebuild_s,
        "cold_mmap_s": cold_s,
        "warm_s": warm_s,
        "cold_vs_warm_ratio": cold_s / warm_s,
        "cold_within_2x_warm": cold_s <= 2.0 * warm_s,
        "rebuild_vs_mmap_speedup": rebuild_s / cold_s,
        "cold_counters": {
            "colstore.hits": cold_counters.get("colstore.hits", 0),
            "colstore.rebuilds": cold_counters.get("colstore.rebuilds", 0),
            "colstore.validations": cold_counters.get(
                "colstore.validations", 0
            ),
            "colstore.bytes_mapped": cold_counters.get(
                "colstore.bytes_mapped", 0
            ),
        },
        "kernel_mismatches": kernel_mismatches,
        "cold_result_len": len(cold_result),
    }


def measure_backend_parity(mappings, root) -> dict:
    """Same snapshot from the scalar loop and from the vector kernels
    over store-served columns; exact float equality, no tolerance."""
    _populate(root, mappings)
    scalar = scalar_atinstant(list(mappings), T)
    fleet = _simulate_cold_process(root, mappings)
    got = fleet_atinstant(fleet, T)
    bad = 0
    for s, g in zip(scalar, got):
        if (s is None) != (g is None):
            bad += 1
        elif s is not None and (s.x != g.x or s.y != g.y):
            bad += 1
    clear_cache()
    clear_store()
    return {"objects": len(mappings), "mismatches": {"vector": bad}}


def run_all(count: int = FLEET_SIZE) -> dict:
    mappings = build_fleet(count)
    root = tempfile.mkdtemp(prefix="bench_colstore_")
    try:
        obs.enable()
        return {
            "fleet_size": count,
            "cold_start": measure_cold_start(mappings, root),
            "backend_parity": measure_backend_parity(mappings, root),
        }
    finally:
        obs.disable()
        shutil.rmtree(root, ignore_errors=True)


# -- pytest entry points ------------------------------------------------------


def test_v6_smoke_cold_start_serves_from_disk():
    """Fast gate for scripts/check.sh: a populated store serves a cold
    process's first query from the memmap (hit, zero rebuilds), answers
    identical to the scalar loop."""
    mappings = build_fleet(300, seed=9)
    root = tempfile.mkdtemp(prefix="smoke_colstore_")
    obs.enable()
    try:
        _populate(root, mappings)
        fleet = _simulate_cold_process(root, mappings)
        with obs.capture() as counters:
            got = fleet_atinstant(fleet, T)
            snap = counters.snapshot()["counters"]
        assert snap.get("colstore.hits", 0) >= 1
        assert snap.get("colstore.rebuilds", 0) == 0
        assert snap.get("colstore.bytes_mapped", 0) > 0
        scalar = scalar_atinstant(list(mappings), T)
        assert len(got) == len(scalar)
        for s, g in zip(scalar, got):
            if s is None:
                assert g is None
            else:
                assert s.x == g.x and s.y == g.y
    finally:
        clear_cache()
        clear_store()
        obs.disable()
        shutil.rmtree(root, ignore_errors=True)


def test_v6_smoke_corrupt_store_rebuilt_not_served():
    """Bit-flip the stored column: the cold query must rebuild (counted)
    and still answer correctly."""
    from repro.vector.store import HEADER

    mappings = build_fleet(100, seed=9)
    root = tempfile.mkdtemp(prefix="smoke_colstore_")
    obs.enable()
    try:
        store = _populate(root, mappings)
        with open(store.path("upoint.bin"), "r+b") as fh:
            fh.seek(HEADER.size + 1)
            b = fh.read(1)
            fh.seek(HEADER.size + 1)
            fh.write(bytes([b[0] ^ 0xFF]))
        # The cheap tier cannot see a payload flip, but the manifest CRC
        # tier catches structural damage; flip the header too so the
        # cold open rejects it outright.
        with open(store.path("upoint.bin"), "r+b") as fh:
            fh.seek(0)
            fh.write(b"XXXX")
        fleet = _simulate_cold_process(root, mappings)
        with obs.capture() as counters:
            got = fleet_atinstant(fleet, T)
            snap = counters.snapshot()["counters"]
        assert snap.get("colstore.rebuilds", 0) >= 1
        scalar = scalar_atinstant(list(mappings), T)
        for s, g in zip(scalar, got):
            if s is None:
                assert g is None
            else:
                assert s.x == g.x and s.y == g.y
    finally:
        clear_cache()
        clear_store()
        obs.disable()
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", default=None, help="write results to this file")
    parser.add_argument("--objects", type=int, default=FLEET_SIZE)
    args = parser.parse_args()

    results = run_all(args.objects)
    c = results["cold_start"]
    print(
        f"fleet: {c['objects']} objects\n"
        f"cold (rebuild)  {c['cold_rebuild_s'] * 1e3:9.2f} ms   "
        f"(the path this PR kills)\n"
        f"cold (mmap)     {c['cold_mmap_s'] * 1e3:9.2f} ms   "
        f"hits={c['cold_counters']['colstore.hits']} "
        f"rebuilds={c['cold_counters']['colstore.rebuilds']} "
        f"mapped={c['cold_counters']['colstore.bytes_mapped']}B\n"
        f"warm            {c['warm_s'] * 1e3:9.2f} ms\n"
        f"cold/warm ratio {c['cold_vs_warm_ratio']:.2f}x "
        f"(within 2x: {c['cold_within_2x_warm']})   "
        f"rebuild/mmap speedup {c['rebuild_vs_mmap_speedup']:.1f}x   "
        f"kernel mismatches {c['kernel_mismatches']}"
    )
    p = results["backend_parity"]
    print(f"backend parity  mismatches {p['mismatches']}")
    assert c["cold_within_2x_warm"], (
        f"cold start {c['cold_vs_warm_ratio']:.2f}x warm exceeds the 2x bound"
    )
    assert c["cold_counters"]["colstore.rebuilds"] == 0
    assert c["cold_counters"]["colstore.hits"] >= 1
    assert c["kernel_mismatches"] == 0
    assert all(v == 0 for v in p["mismatches"].values())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(results, f, indent=2)
        print(f"wrote {args.json}")
