"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``              build the Section-2 ``planes`` relation and run
                      both example queries
``run <script.sql>``  execute a SQL script (CREATE TABLE / INSERT with
                      text-format values / SELECT / EXPLAIN)
``figures [dir]``     render the paper's value-space figures as SVG
``info``              version, type system, and operation inventory
``snapshot``          evaluate a generated fleet at one instant
                      (exercises the ``--backend`` switch fleet-wide)
``crash-matrix``      run every registered failpoint's crash/recovery
                      scenario (:mod:`repro.storage.crashmatrix`)
``chaos-matrix``      degrade a *live* query service — dropped
                      connections, stalled peers, shard evictions,
                      duplicate ingest — and verify it recovers
                      (:mod:`repro.server.chaos`)
``serve``             run the always-on query service
                      (:mod:`repro.server`) until SIGINT/SIGTERM

Global flags: ``--profile`` collects the :mod:`repro.obs` counters and
prints the report even when the command fails; ``--backend`` selects
the scalar reference loops or the columnar numpy kernels
(:mod:`repro.vector`); ``--faults`` arms failpoints
(:mod:`repro.faults`) for the command's duration.

Storage and decode failures (:class:`repro.errors.ReproError`) exit
non-zero with a one-line diagnostic on stderr; pass ``--debug`` to get
the full traceback instead.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, List, Optional


def _format_value(v: Any) -> str:
    from repro.base.instant import Instant
    from repro.base.values import BaseValue

    if isinstance(v, BaseValue):
        return str(v.value) if v.defined else "⊥"
    if isinstance(v, Instant):
        return f"{v.value:g}" if v.defined else "⊥"
    if isinstance(v, float):
        return f"{v:g}"
    return str(v)


def _print_rows(rows: List[dict]) -> None:
    if not rows:
        print("  (no rows)")
        return
    headers = list(rows[0])
    table = [[_format_value(r[h]) for h in headers] for r in rows]
    widths = [
        max(len(h), *(len(row[i]) for row in table)) for i, h in enumerate(headers)
    ]
    print("  " + " | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    print("  " + "-+-".join("-" * w for w in widths))
    for row in table:
        print("  " + " | ".join(c.ljust(w) for c, w in zip(row, widths)))


def cmd_demo(_args: argparse.Namespace) -> int:
    """Build the Section-2 planes relation and run both example queries."""
    from repro.db import Database
    from repro.workloads.trajectories import FlightGenerator

    gen = FlightGenerator(seed=2000)
    db = Database()
    planes = db.create_relation(
        "planes", [("airline", "string"), ("id", "string"), ("flight", "mpoint")]
    )
    airlines = ["Lufthansa", "AirFrance", "KLM"]
    for i in range(18):
        planes.insert([airlines[i % 3], f"{airlines[i % 3][:2].upper()}{i:03d}",
                       gen.flight(legs=6)])
    q1 = ("SELECT airline, id FROM planes "
          "WHERE airline = 'Lufthansa' AND length(trajectory(flight)) > 5000")
    q2 = ("SELECT p.id AS a, q.id AS b FROM planes p, planes q "
          "WHERE p.id < q.id "
          "AND val(initial(atmin(distance(p.flight, q.flight)))) < 500")
    print("Q1:", q1)
    _print_rows(db.query(q1))
    print("\nQ2:", q2)
    _print_rows(db.query(q2))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Execute a SQL script file against a fresh database."""
    from repro.db import Database
    from repro.db.script import run_script

    with open(args.script, "r", encoding="utf-8") as f:
        text = f.read()
    db = Database()
    for result in run_script(db, text):
        first_line = result.statement.strip().splitlines()[0]
        print(f"> {first_line[:76]}")
        if result.rows is not None:
            _print_rows(result.rows)
        elif result.message:
            print(f"  {result.message}")
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    """Render the paper's value-space figures into a directory."""
    import math
    import os

    from repro.io.svg import render_film_strip, render_values
    from repro.spatial.line import Line
    from repro.spatial.region import Region
    from repro.temporal.interpolate import collapse_to_point
    from repro.temporal.mapping import MovingRegion
    from repro.workloads.regions import regular_polygon

    os.makedirs(args.dir, exist_ok=True)

    def write(name: str, svg: str) -> None:
        path = os.path.join(args.dir, name)
        with open(path, "w", encoding="utf-8") as f:
            f.write(svg)
        print(f"  {path}")

    def ring(cx, cy, r, n=10):
        return [
            (cx + r * math.cos(2 * math.pi * k / n),
             cy + r * math.sin(2 * math.pi * k / n))
            for k in range(n)
        ]

    # Figure 2: line values are just segment sets.
    curvy = Line.polyline([(0, 0), (2, 1.5), (4, 1), (6, 2.5), (8, 2)])
    loose = Line(
        [((1, 3), (3, 4)), ((5, 3.2), (6.5, 4.2)), ((2, 4.5), (2.5, 3.2))]
    )
    write("figure2_line.svg", render_values([curvy, loose]))

    # Figure 3: region with holes and an island inside a hole.
    big = Region.polygon(ring(0, 0, 10), holes=[ring(-3, 0, 2), ring(4, 0, 3)])
    island = Region.polygon(ring(4, 0, 1))
    write("figure3_region.svg", render_values([big, island]))

    # Figure 6: a moving region collapsing to a point.
    cone = collapse_to_point(
        0.0, regular_polygon((0, 0), 8, 7), 10.0, (12.0, 2.0)
    )
    write(
        "figure6_uregion.svg",
        render_film_strip(MovingRegion([cone]), frames=5),
    )
    return 0


def cmd_snapshot(args: argparse.Namespace) -> int:
    """Evaluate a generated fleet at one instant, fleet-wide.

    This is the columnar showcase: one ``atinstant`` over every object
    (and one batched point-in-region test) through whichever backend
    ``--backend`` selected.
    """
    from repro.vector.cache import Fleet
    from repro.vector.fleet import fleet_atinstant, fleet_count_inside, get_backend
    from repro.vector.store import get_store
    from repro.workloads.regions import regular_polygon
    from repro.workloads.trajectories import FlightGenerator

    gen = FlightGenerator(seed=args.seed)
    # A versioned Fleet (not a bare list) so the column cache — and the
    # persistent store behind --colstore — can serve repeated queries.
    fleet = Fleet(gen.flight(legs=4) for _ in range(args.objects))
    t0 = min(m.deftime().minimum for m in fleet)
    t1 = max(m.deftime().maximum for m in fleet)
    t = args.instant if args.instant is not None else 0.5 * (t0 + t1)

    positions = fleet_atinstant(fleet, t)
    defined = [p for p in positions if p is not None]
    xs = [p.x for p in defined]
    ys = [p.y for p in defined]
    print(f"backend: {get_backend()}")
    store = get_store()
    if store is not None:
        print(f"colstore: {store.root}")
    print(f"fleet: {len(fleet)} objects over [{t0:g}, {t1:g}]")
    print(f"snapshot at t={t:g}: {len(defined)} defined, "
          f"{len(fleet) - len(defined)} ⊥")
    if defined:
        cx, cy = sum(xs) / len(xs), sum(ys) / len(ys)
        print(f"centroid of defined positions: ({cx:g}, {cy:g})")
        region = regular_polygon((cx, cy), args.radius, sides=12)
        count, _mask = fleet_count_inside(fleet, t, region)
        print(f"inside {args.radius:g}-radius 12-gon around centroid: {count}")
    return 0


def cmd_crash_matrix(args: argparse.Namespace) -> int:
    """Run the arm → crash → recover → verify matrix over all failpoints.

    SIGINT/SIGTERM stop the run at the next scenario boundary (each
    scenario cleans up after itself), report what already ran, and exit
    0 — an interrupted sweep is an answered request, not a failure.
    """
    import signal

    from repro.storage.crashmatrix import format_matrix, run_crash_matrix

    stop_requested = {"flag": False}

    def _request_stop(_signum: int, _frame: object) -> None:
        stop_requested["flag"] = True

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, _request_stop)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    try:
        entries = run_crash_matrix(
            seed=args.seed,
            only=args.only,
            should_stop=lambda: stop_requested["flag"],
        )
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    print(format_matrix(entries))
    if stop_requested["flag"]:
        print(
            f"crash-matrix: interrupted — {len(entries)} scenario(s) "
            "completed, state cleaned up"
        )
        return 0
    return 0 if entries and all(e.ok for e in entries) else 1


def cmd_chaos_matrix(args: argparse.Namespace) -> int:
    """Run the live degradation matrix against a running query service.

    The live twin of ``crash-matrix``: concurrent query + ingest
    traffic over a real socket while connections drop, sessions stall,
    shards are evicted mid-scatter, and ingests are delivered twice.  Same
    interrupt contract: SIGINT/SIGTERM stop at the next scenario
    boundary and report what already ran.
    """
    import signal

    from repro.server.chaos import format_matrix, run_chaos_matrix

    stop_requested = {"flag": False}

    def _request_stop(_signum: int, _frame: object) -> None:
        stop_requested["flag"] = True

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, _request_stop)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    try:
        entries = run_chaos_matrix(
            seed=args.seed,
            quick=args.quick,
            only=args.only,
            should_stop=lambda: stop_requested["flag"],
        )
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    print(format_matrix(entries))
    if stop_requested["flag"]:
        print(
            f"chaos-matrix: interrupted — {len(entries)} scenario(s) "
            "completed, state cleaned up"
        )
        return 0
    return 0 if entries and all(e.ok for e in entries) else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the query service until SIGINT/SIGTERM, then drain and exit.

    Boots a generated fleet, replays any existing WAL (so ingest
    survives restarts), serves the line protocol, and on a termination
    signal drains in-flight requests, commits everything the group
    committer already queued, syncs the WAL, and exits 0 with a
    one-line summary.
    """
    import asyncio
    import signal

    from repro.server.executor import FleetExecutor
    from repro.server.ingest import replay_ingest
    from repro.server.session import QueryServer
    from repro.storage.wal import Wal
    from repro.workloads.trajectories import FlightGenerator

    gen = FlightGenerator(seed=args.seed)
    mappings = [gen.flight(legs=4) for _ in range(args.objects)]
    executor = FleetExecutor()
    executor.register_fleet(args.fleet, mappings)
    wal = Wal(args.wal) if args.wal else None
    replayed = replay_ingest(wal, executor) if wal is not None else 0

    async def _serve() -> None:
        server = QueryServer(
            executor, wal=wal, host=args.host, port=args.port
        )
        await server.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                signal.signal(sig, lambda *_: stop.set())
        boot = f"repro serve: listening on {args.host}:{server.port}, " \
               f"fleet {args.fleet!r} with {len(mappings)} objects"
        if replayed:
            boot += f" ({replayed} ingested unit(s) replayed from WAL)"
        print(boot, flush=True)
        await stop.wait()
        await server.stop()

    asyncio.run(_serve())
    stats = executor.stats()
    units = stats.get(f"fleet.{args.fleet}.units", 0)
    version = stats.get(f"fleet.{args.fleet}.version", 0)
    if wal is not None:
        wal.close()
    print(
        f"repro serve: drained cleanly — fleet {args.fleet!r} at "
        f"version {version} with {units} units"
        + (", WAL synced" if args.wal else "")
    )
    return 0


def cmd_info(_args: argparse.Namespace) -> int:
    """Print version, type-system, and operation inventories."""
    import repro
    from repro.ops.signatures import OPERATIONS
    from repro.typesystem import DISCRETE_SIGNATURE

    print(f"repro {repro.__version__} — moving objects databases (SIGMOD 2000)")
    types = DISCRETE_SIGNATURE.all_types(max_depth=3)
    print(f"\ndiscrete type system: {len(types)} types, e.g.:")
    for t in ("region", "ureal", "mapping(upoint)", "mapping(uregion)"):
        print(f"  {t}")
    print(f"\noperations: {len(OPERATIONS)} registered")
    for op in OPERATIONS[:8]:
        args = " × ".join(op.args)
        print(f"  {op.name}: {args} → {op.result}")
    print(f"  ... and {len(OPERATIONS) - 8} more (see repro.ops.signatures)")
    return 0


def _parse_bytes(spec: str) -> int:
    """A positive byte count, accepting k/m/g binary suffixes."""
    text = spec.strip().lower()
    mult = 1
    if text and text[-1] in "kmg":
        mult = {"k": 1024, "m": 1024 ** 2, "g": 1024 ** 3}[text[-1]]
        text = text[:-1]
    value = int(text) * mult
    if value < 1:
        raise ValueError(spec)
    return value


class _UsageError(Exception):
    """A command line argparse rejected (unknown flag, bad choice, ...)."""


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose errors reach :func:`main` as exceptions,
    so a bad command line gets the same one-line diagnostic and exit
    code 1 as any other failure instead of argparse's usage dump."""

    def error(self, message: str) -> Any:
        raise _UsageError(message)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _Parser(
        prog="repro", description="moving objects databases (SIGMOD 2000 reproduction)"
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="collect operation counters (repro.obs) and print a report "
        "after the command finishes (even when it fails)",
    )
    parser.add_argument(
        "--backend",
        choices=["scalar", "vector", "sharded"],
        default=None,
        help="evaluation backend for fleet-level operations: scalar "
        "reference loops, columnar numpy kernels (repro.vector), or "
        "hash-partitioned shards with scatter-gather execution "
        "(repro.shard)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="hash-partition fleets into N shards by object id "
        "(N >= 1; 1 keeps fleets unsharded, the default); each shard "
        "owns its own columns, store directory, and R-tree",
    )
    parser.add_argument(
        "--memory-budget",
        default=None,
        metavar="BYTES",
        help="resident-byte budget for sharded column residency, with "
        "an optional k/m/g suffix (e.g. 64m); cold shards are "
        "CLOCK-evicted to stay under it (default: unbounded)",
    )
    parser.add_argument(
        "--colstore",
        default=None,
        metavar="DIR",
        help="persistent column store directory (repro.vector.store): "
        "fleet columns are memory-mapped from DIR instead of rebuilt "
        "from scratch on every process start; missing or corrupt files "
        "are rebuilt and re-persisted",
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="arm failpoints for the command, e.g. "
        "'wal.sync_crash' or 'pagefile.torn_write=after:2' "
        "(comma-separated; see repro.faults)",
    )
    parser.add_argument(
        "--debug",
        action="store_true",
        help="let repro errors propagate with a full traceback instead "
        "of the one-line diagnostic",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("demo", help="run the Section-2 example queries").set_defaults(
        fn=cmd_demo
    )
    run_p = sub.add_parser("run", help="execute a SQL script")
    run_p.add_argument("script")
    run_p.set_defaults(fn=cmd_run)
    fig_p = sub.add_parser("figures", help="render the paper figures as SVG")
    fig_p.add_argument("dir", nargs="?", default="figures")
    fig_p.set_defaults(fn=cmd_figures)
    sub.add_parser("info", help="version and inventory").set_defaults(fn=cmd_info)
    snap_p = sub.add_parser(
        "snapshot", help="evaluate a generated fleet at one instant"
    )
    snap_p.add_argument("--objects", type=int, default=1000,
                        help="fleet size (default 1000)")
    snap_p.add_argument("--instant", type=float, default=None,
                        help="query instant (default: midpoint of the "
                        "fleet's combined lifetime)")
    snap_p.add_argument("--radius", type=float, default=2000.0,
                        help="radius of the counting region (default 2000)")
    snap_p.add_argument("--seed", type=int, default=2000,
                        help="fleet generator seed (default 2000)")
    snap_p.set_defaults(fn=cmd_snapshot)
    matrix_p = sub.add_parser(
        "crash-matrix",
        help="run every failpoint's crash/recovery scenario",
    )
    matrix_p.add_argument("--seed", type=int, default=2000,
                          help="workload seed (default 2000)")
    matrix_p.add_argument("--only", default=None, metavar="FAILPOINT",
                          help="run a single failpoint's scenario")
    matrix_p.set_defaults(fn=cmd_crash_matrix)
    chaos_p = sub.add_parser(
        "chaos-matrix",
        help="degrade a live query service and verify it recovers",
    )
    chaos_p.add_argument("--seed", type=int, default=2026,
                         help="workload seed (default 2026)")
    chaos_p.add_argument("--quick", action="store_true",
                         help="smoke scale: fewer clients and ops per "
                         "scenario (same assertions)")
    chaos_p.add_argument("--only", default=None, metavar="SCENARIO",
                         help="run a single scenario (failpoint name or "
                         "server.overload)")
    chaos_p.set_defaults(fn=cmd_chaos_matrix)
    serve_p = sub.add_parser(
        "serve", help="run the always-on query service"
    )
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="listen address (default 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=0,
                         help="listen port (default 0: OS-assigned, "
                         "printed at startup)")
    serve_p.add_argument("--objects", type=int, default=64,
                         help="boot-time fleet size (default 64)")
    serve_p.add_argument("--seed", type=int, default=2000,
                         help="fleet generator seed (default 2000)")
    serve_p.add_argument("--fleet", default="fleet",
                         help="name of the served fleet (default 'fleet')")
    serve_p.add_argument("--wal", default=None, metavar="PATH",
                         help="WAL file for durable ingest; replayed on "
                         "start, synced on shutdown (default: memory-only)")
    serve_p.set_defaults(fn=cmd_serve)
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"repro: usage error: {exc}", file=sys.stderr)
        return 1

    # Argument-level validation, kept to the CLI's one-line diagnostic
    # discipline.
    if args.shards is not None and args.shards < 1:
        print(
            f"repro: InvalidValue: --shards must be >= 1, got {args.shards}",
            file=sys.stderr,
        )
        return 2
    memory_budget = None
    if args.memory_budget is not None:
        try:
            memory_budget = _parse_bytes(args.memory_budget)
        except ValueError:
            print(
                "repro: InvalidValue: --memory-budget must be a positive "
                f"byte count (k/m/g suffix ok), got {args.memory_budget!r}",
                file=sys.stderr,
            )
            return 2
    args.memory_budget_bytes = memory_budget

    from repro.errors import ReproError

    try:
        return _dispatch(args)
    except ReproError as exc:
        # Storage corruption, decode failures, bad fault specs: a
        # one-line diagnostic and a non-zero exit, no traceback.
        # Genuine environment errors (missing files, ...) propagate.
        if args.debug:
            raise
        print(f"repro: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    """Arm flags and run the selected command (profiled or not)."""
    if args.faults:
        from repro import faults

        faults.arm_spec(args.faults)
    if args.backend is not None:
        from repro.vector.fleet import set_backend

        set_backend(args.backend)
    if args.shards is not None:
        from repro import shard

        shard.set_shards(args.shards)
    if getattr(args, "memory_budget_bytes", None) is not None:
        from repro import shard

        shard.set_memory_budget(args.memory_budget_bytes)
    if args.colstore is not None:
        from repro.vector.store import set_store

        set_store(args.colstore)
    if not args.profile:
        return args.fn(args)
    from repro import obs

    obs.reset()
    obs.enable()
    try:
        return args.fn(args)
    finally:
        # The report must survive a failing command — that is the whole
        # point of profiling a crash — so it prints on the way out.
        obs.disable()
        print("\n== operation counters (--profile) ==")
        print(obs.report())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
