"""The query-service benchmark: one command, four wire workloads.

Usage (from the repository root)::

    python3 svcbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Each run generates its inputs from ``--seed`` in this process, starts the
query service (``repro.server``) in a process of its own on those
inputs, drives it over the wire from closed-loop client threads (at most
two, the machine's core count), checks every answer against reference
answers computed here before timing, and prints every metric by name
with its unit.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
same workload twice — once plain, once with timing wrappers installed
in the server process (``spans.py``) — and reports the per-layer
metrics, the tracing overhead and the layer accounting.  See
``svcbench/README.md`` for the workloads, metrics and seeds.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".svcbench_work")

# The program under test is the source tree next to this directory.
sys.path.insert(0, SRC)
try:
    import inputs
    import layers
    import numpy
    import server_main
    from repro.errors import ReproError
    from repro.server.client import ServerClient
    from repro.server.session import QueryServer
except ImportError as exc:
    sys.exit(f"svcbench: cannot import the program from {SRC}: {exc}")

#: Server starts per end-to-end run; ``setup_s`` is their median.
SETUPS = 3
#: Client read deadline: far above any answer time the workloads see.
REQUEST_TIMEOUT_S = 60.0
#: Samples beyond p95 needed before a p95 is reported.
TAIL_SAMPLES = 10

#: (name, unit, better) of the end-to-end metrics every run reports.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("read_mean_ms", "ms", "lower"),
    ("reads_per_s", "1/s", "higher"),
    ("server_rss_mb", "MB", "lower"),
]


# -- the server process ------------------------------------------------------


class ServerProcess:
    """One query-service process fed with the run's generated inputs."""

    def __init__(self, spec: Dict[str, Any]):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server_main.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
        )
        try:
            server_main.write_blob(self.proc.stdin, spec)
            line = self.proc.stdout.readline().decode("ascii", "replace")
        except BrokenPipeError:
            line = ""
        if not line.startswith("READY "):
            self.kill()
            raise RuntimeError(f"server process failed to start: {line!r}")
        self.port = int(line.split()[1])

    def stop(self) -> Dict[str, Any]:
        """Graceful shutdown; returns the process's final report."""
        self.proc.stdin.write(b"STOP\n")
        self.proc.stdin.flush()
        result = server_main.read_blob(self.proc.stdout)
        self.proc.wait(timeout=120)
        self._close()
        return result

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
        self._close()

    def _close(self) -> None:
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                stream.close()


# -- client lanes ------------------------------------------------------------


class Lane:
    """One client connection's samples and failure counts."""

    def __init__(self) -> None:
        self.reads: List[Tuple[float, int, int]] = []    # latency, port, n
        self.ingests: List[Tuple[float, int, int]] = []
        self.read_rows = 0
        self.attempted = 0
        self.failed = 0
        self.ports: List[int] = []   # local port of each connection made
        self.end = 0.0

    def connect(self, port: int) -> Any:
        """A new client connection; its local port keys the samples."""
        client = _connect(port)
        self.ports.append(client._sock.getsockname()[1])
        return client

    @property
    def port(self) -> int:
        return self.ports[-1] if self.ports else 0


def _connect(port: int) -> Any:
    # No retries: every refused, timed-out or dropped request counts as
    # failed instead of being absorbed into a longer latency.
    return ServerClient("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S,
                        max_retries=0)


def run_lanes(
    port: int,
    bodies: List[Callable[[Any, Lane, int], None]],
    seconds: float,
) -> Tuple[List[Lane], float]:
    """Run one closed loop per body for ``seconds``; ``(lanes, elapsed)``.

    A body sends one request on the client it is given and records its
    sample in the lane; it raises :class:`inputs.AnswerMismatch` on a wrong
    answer, which stops every lane.
    """
    lanes = [Lane() for _ in bodies]
    errors: List[BaseException] = []
    stop = threading.Event()
    t_start = [0.0]
    start_gate = threading.Barrier(
        len(bodies) + 1,
        action=lambda: t_start.__setitem__(0, time.perf_counter()))

    def loop(body: Callable[[Any, Lane, int], None], lane: Lane) -> None:
        client = None
        try:
            client = lane.connect(port)
            ordinal = 0
            start_gate.wait()
            deadline = t_start[0] + seconds
            while not stop.is_set() and time.perf_counter() < deadline:
                ordinal += 1
                lane.attempted += 1
                try:
                    body(client, lane, ordinal)
                except inputs.AnswerMismatch:
                    raise
                except (ReproError, OSError):
                    lane.failed += 1
                    client.close()
                    client = lane.connect(port)
                    ordinal = 0
            lane.end = time.perf_counter()
        except BaseException as exc:  # reported by the caller
            errors.append(exc)
            stop.set()
        finally:
            if client is not None:
                client.close()

    threads = [threading.Thread(target=loop, args=(b, lane))
               for b, lane in zip(bodies, lanes)]
    for th in threads:
        th.start()
    try:
        start_gate.wait(timeout=REQUEST_TIMEOUT_S)
    except threading.BrokenBarrierError:
        stop.set()
    for th in threads:
        th.join()
    if errors:
        raise errors[0]
    elapsed = max(lane.end for lane in lanes) - t_start[0]
    return lanes, elapsed


# -- one workload ----------------------------------------------------------


class Bench:
    """Inputs, references and request bodies of one workload and seed."""

    def __init__(self, workload: Any, seed: int):
        self.w = workload
        self.seed = seed
        legs = workload.legs
        mappings = inputs.flights(seed, workload.objects, legs)
        self.mappings = mappings
        offsets, units = inputs.encode(mappings)
        self.initial_units = int(len(units))
        self.budget = (
            inputs.column_bytes(mappings, workload.shards)
            // workload.budget_divisor if workload.budget_divisor else 0)
        self.spec = {
            "read": workload.read, "shards": workload.shards,
            "budget": self.budget, "offsets": offsets, "units": units,
            "wal_path": None, "trace": False,
        }
        if workload.read == "sql":
            self.sql_ref = inputs.sql_reference(
                inputs.planes_database(mappings, "reference"))
            self.pool: List[Any] = []
        else:
            self.pool = inputs.read_requests(
                seed, mappings, windowed=workload.read == "window")
        self.feed: Optional[Any] = None

    # -- request bodies --------------------------------------------------

    def read_once(self, client: Any, lane: Lane, ordinal: int, i: int
                  ) -> None:
        """Send read request ``i`` of the pool, time it, check it."""
        if self.w.read == "sql":
            t0 = time.perf_counter()
            reply = client.query(inputs.SQL_SCRIPT)
            dt = time.perf_counter() - t0
            self.check_sql(reply)
            rows = len(reply.rows)
        else:
            req = self.pool[i % len(self.pool)]
            t0 = time.perf_counter()
            reply = client.snapshot("fleet", req.t, req.window)
            dt = time.perf_counter() - t0
            self.check_snapshot(reply, req)
            rows = req.rows
        lane.reads.append((dt, lane.port, ordinal))
        lane.read_rows += rows

    def check_snapshot(self, reply: Any, req: Any) -> None:
        got = [(r.get("obj"), r.get("x"), r.get("y")) for r in reply.rows]
        if (
            reply.fields.get("rows") != str(req.rows)
            or reply.fields.get("objects") != str(self.w.objects)
            or inputs.rows_digest(got) != req.digest
        ):
            raise inputs.AnswerMismatch(
                f"SNAPSHOT t={req.t!r} window={req.window}: "
                f"{len(got)} rows differ from the {req.rows} expected")

    def check_sql(self, reply: Any) -> None:
        q1 = sorted((r["airline"], r["id"]) for r in reply.rows
                    if "airline" in r)
        q2 = sorted((r["pid"], r["qid"]) for r in reply.rows if "pid" in r)
        if (
            reply.fields.get("statements") != "2"
            or len(q1) + len(q2) != len(reply.rows)
            or (q1, q2) != self.sql_ref
        ):
            raise inputs.AnswerMismatch(
                f"QUERY Q1;Q2: got {len(q1)}+{len(q2)} rows, expected "
                f"{len(self.sql_ref[0])}+{len(self.sql_ref[1])}")

    def ingest_once(self, client: Any, lane: Lane, ordinal: int) -> None:
        assert self.feed is not None
        obj, unit, expect = self.feed.next()
        t0 = time.perf_counter()
        try:
            units = client.ingest("fleet", obj, unit)
        except (ReproError, OSError):
            # The unit may or may not have landed: stop predicting this
            # object's count, and the final unit total.
            self.feed.uncertain.add(obj)
            raise
        dt = time.perf_counter() - t0
        if obj in self.feed.uncertain:
            self.feed.resync(obj, units)
        elif units != expect:
            raise inputs.AnswerMismatch(
                f"INGEST object {obj}: ack {units}, expected {expect}")
        else:
            self.feed.acknowledge(obj)
        lane.ingests.append((dt, lane.port, ordinal))

    def bodies(self) -> List[Callable[[Any, Lane, int], None]]:
        """One closed loop per client; read clients interleave the pool."""
        out: List[Callable[[Any, Lane, int], None]] = []
        for c in range(self.w.read_clients):
            picks = iter(range(c, 1 << 62, self.w.read_clients))

            def body(client: Any, lane: Lane, n: int, _picks=picks) -> None:
                self.read_once(client, lane, n, next(_picks))

            out.append(body)
        out.extend([self.ingest_once] * self.w.ingest_clients)
        return out

    # -- server lifecycle -------------------------------------------------

    def start(self, traced: bool) -> Tuple["ServerProcess", float]:
        """Start a server; ``(process, seconds to first answered read)``."""
        wal_path = None
        if self.w.wal:
            os.makedirs(WORK, exist_ok=True)
            wal_path = os.path.join(WORK, f"ingest-{os.getpid()}.wal")
            if os.path.exists(wal_path):
                os.remove(wal_path)
        spec = dict(self.spec, wal_path=wal_path, trace=traced)
        server = ServerProcess(spec)
        try:
            client = _connect(server.port)
            try:
                self.read_once(client, Lane(), 1, 0)
            finally:
                client.close()
        except BaseException:
            server.kill()
            raise
        return server, time.perf_counter() - server.started

    def stats(self, port: int) -> Dict[str, float]:
        client = _connect(port)
        try:
            reply = client.stats()
        finally:
            client.close()
        out: Dict[str, float] = {}
        for line in reply.lines:
            _, name, value = line.split(" ", 2)
            try:
                out[name] = float(value)
            except ValueError:
                pass
        return out

    def measure(self, server: ServerProcess, seconds: float
                ) -> Dict[str, Any]:
        """One measured phase against a started server."""
        if self.w.ingest_clients:
            self.feed = inputs.IngestFeed(self.seed, self.mappings)
        stats_before = self.stats(server.port)
        lanes, elapsed = run_lanes(server.port, self.bodies(), seconds)
        stats_after = self.stats(server.port)
        if self.w.read != "sql" and self.feed is not None and \
                not self.feed.uncertain:
            want = self.initial_units + self.feed.acked
            got = stats_after.get("fleet.fleet.units")
            if got != want:
                raise inputs.AnswerMismatch(
                    f"STATS units {got}, expected {self.initial_units} "
                    f"initial + {self.feed.acked} acknowledged")
        return {
            "elapsed": elapsed,
            "ports": [p for lane in lanes for p in lane.ports],
            "reads": [s for lane in lanes for s in lane.reads],
            "ingests": [s for lane in lanes for s in lane.ingests],
            "read_rows": sum(lane.read_rows for lane in lanes),
            "attempted": sum(lane.attempted for lane in lanes),
            "failed": sum(lane.failed for lane in lanes),
            "stats_before": stats_before,
            "stats_after": stats_after,
        }


# -- metrics ---------------------------------------------------------------


def percentiles(samples: List[Tuple[float, int, int]]
                ) -> Tuple[float, Optional[float]]:
    """``(p50, p95)`` in ms; p95 is None unless ``TAIL_SAMPLES`` lie
    beyond it."""
    lat = sorted(1000.0 * s[0] for s in samples)
    if not lat:
        return 0.0, None
    p50 = statistics.median(lat)
    if len(lat) * 0.05 < TAIL_SAMPLES:
        return p50, None
    return p50, statistics.quantiles(lat, n=20)[18]


def end_to_end(bench: Bench, phase: Dict[str, Any], setups: List[float],
               rss_kb: float) -> Tuple[Dict[str, float], List[str]]:
    """``(contract metrics, report lines)`` of one measured phase.

    The report names the read metrics after the workload's request
    (``snapshot_mean_ms``, ``window_p50_ms``, ``sql_p95_ms``, ...); the
    contract metrics carry the same numbers under workload-neutral
    names.  The contract's latency is the mean, not the p50: on a
    shared machine the speed drifts in phases of seconds, and the
    median of a run's samples jumps between the phase levels, while
    the mean moves smoothly with the share of the run each phase
    covers.
    """
    elapsed = phase["elapsed"]
    reads, ingests = phase["reads"], phase["ingests"]
    r50, r95 = percentiles(reads)
    r_mean = 1000.0 * statistics.fmean(s[0] for s in reads) if reads else 0.0
    metrics = {
        "setup_s": statistics.median(setups),
        "read_mean_ms": r_mean,
        "reads_per_s": len(reads) / elapsed,
        "server_rss_mb": rss_kb / 1024.0,
    }
    lines: List[str] = []

    def put(name: str, value: Optional[float], unit: str, note: str = ""
            ) -> None:
        shown = f"{value:14.4f}" if value is not None else f"{'n/a':>14}"
        lines.append(f"{name:<22} {shown} {unit:<6} {note}".rstrip())

    no_tail = f"(fewer than {TAIL_SAMPLES} samples beyond p95)"
    put("setup_s", metrics["setup_s"], "s",
        "(median of " + ", ".join(f"{s:.3f}" for s in setups) + ")")
    put(f"{bench.w.read}_mean_ms", r_mean, "ms", f"({len(reads)} samples)")
    put(f"{bench.w.read}_p50_ms", r50, "ms")
    put(f"{bench.w.read}_p95_ms", r95, "ms", "" if r95 else no_tail)
    put("reads_per_s", metrics["reads_per_s"], "1/s")
    if bench.w.ingest_clients:
        i50, i95 = percentiles(ingests)
        put("ingest_p50_ms", i50, "ms", f"({len(ingests)} samples)")
        put("ingest_p95_ms", i95, "ms", "" if i95 else no_tail)
        put("ingest_units_per_s", len(ingests) / elapsed, "1/s")
    put("error_rate", phase["failed"] / max(phase["attempted"], 1), "ratio",
        f"({phase['failed']} of {phase['attempted']} requests)")
    put("server_rss_mb", metrics["server_rss_mb"], "MB")
    return metrics, lines


def stamp(bench: Bench, args: argparse.Namespace) -> Dict[str, Any]:
    """Environment and input stamp of the run."""
    defaults = inspect.signature(QueryServer.__init__).parameters
    w = bench.w
    return {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "objects" if w.read != "sql" else "planes": w.objects,
        "legs": w.legs,
        "units": bench.initial_units,
        "shards": w.shards,
        "memory_budget_bytes": bench.budget,
        "read_clients": w.read_clients,
        "ingest_clients": w.ingest_clients,
        "wal": (
            "fsync per group commit, max_batch="
            f"{defaults['max_batch'].default}, max_delay="
            f"{defaults['max_delay'].default}s" if w.wal else "none"),
        "loop": "closed",
    }


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]),
                      encoding="ascii") as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown"


# -- main --------------------------------------------------------------------


def run(args: argparse.Namespace) -> Tuple[Dict[str, Any], List[str]]:
    bench = Bench(inputs.WORKLOADS[args.workload], args.seed)
    lines = ["stamp " + json.dumps(stamp(bench, args), sort_keys=True)]
    if not args.trace:
        setups: List[float] = []
        server: Optional[ServerProcess] = None
        try:
            for k in range(SETUPS):
                server, seconds = bench.start(traced=False)
                setups.append(seconds)
                if k < SETUPS - 1:
                    server.stop()
                    server = None
            assert server is not None
            phase = bench.measure(server, args.seconds)
            final = server.stop()
            server = None
        finally:
            if server is not None:
                server.kill()
        metrics, report = end_to_end(bench, phase, setups, final["maxrss_kb"])
        lines.extend(report)
        out = {name: {"value": metrics[name], "unit": unit}
               for name, unit, _ in END_TO_END}
        return {"attempted": phase["attempted"], "failed": phase["failed"],
                "metrics": out}, lines

    phases = []
    for traced in (False, True):
        server = None
        try:
            server, _ = bench.start(traced=traced)
            phase = bench.measure(server, args.seconds)
            final = server.stop()
            server = None
        finally:
            if server is not None:
                server.kill()
        phase["final"] = final
        phases.append(phase)
    plain, traced_phase = phases
    metrics, reached, table = layers.analyse(
        traced_phase["final"]["trace"], traced_phase, plain,
        traced_phase["stats_before"], traced_phase["stats_after"])
    for name, unit, _, _ in layers.PER_LAYER:
        note = "" if name in reached else "  (layer not reached)"
        lines.append(f"{name:<44} {metrics[name]:14.4f} {unit}{note}")
    lines.append("self time per read request (ms), by span:")
    for name, ms, n in table:
        lines.append(f"  {name:<42} {ms:12.4f}  ({n} spans)")
    out = {name: {"value": metrics[name], "unit": unit}
           for name, unit, _, _ in layers.PER_LAYER}
    return {
        "attempted": plain["attempted"] + traced_phase["attempted"],
        "failed": plain["failed"] + traced_phase["failed"],
        "metrics": out,
    }, lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = run(args)
    except inputs.AnswerMismatch as exc:
        print(f"svcbench: wrong answer: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for line in lines:
        print(line)
    print(json.dumps({"correct": True, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
