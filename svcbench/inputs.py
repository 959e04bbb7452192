"""Seeded inputs and reference answers for the service benchmark.

Everything the server process receives is made here from ``--seed``:
a fleet of ``FlightGenerator`` flights (or the Section-2 ``planes``
relation), transcribed into two plain numpy arrays so the server can
rebuild bit-identical mappings without unpickling program objects.
The reference answers are computed in the load-generator process from
its own copy of the same flights, before any request is timed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.db.catalog import Database
from repro.ranges.interval import Interval
from repro.temporal.mapping import MovingPoint
from repro.temporal.mseg import MPoint
from repro.temporal.upoint import UPoint
from repro.vector.columns import UPointColumn
from repro.vector.kernels import atinstant_batch
from repro.workloads.trajectories import FlightGenerator

#: Side of the square world ``FlightGenerator`` flies in.
WORLD = 10_000.0
#: Side of a windowed SNAPSHOT's rectangle.
WINDOW = 500.0
#: Read instants are drawn from here: every generated flight departs at
#: t = 0 and the shortest seen lasts about 255 time units, so nearly the
#: whole fleet is defined at each read instant.
READ_T = (1.0, 250.0)
#: Ingested slices start here, after every read instant, so ingest
#: never changes a read answer.
INGEST_T0 = 1.0e6
#: Length of one ingested slice, and the gap before the next one of the
#: same object.
INGEST_LEN = 8.0
INGEST_GAP = 2.0
#: Distinct read requests drawn per run; clients cycle through them.
READ_POOL = 64
#: Objects per read instant whose kernel answer is re-derived with the
#: scalar ``Mapping.value_at`` oracle.
SCALAR_SPOT_CHECKS = 64
#: Bytes of user data in one ingested unit: the object id plus the six
#: coordinates ``t0 x0 y0 t1 x1 y1``, eight bytes each.
USER_BYTES_PER_UNIT = 56

#: The two Section-2 queries of ``benchmarks/bench_queries.py``, sent
#: as one two-statement QUERY request.
Q1 = (
    "SELECT airline, id FROM planes "
    "WHERE airline = ``Lufthansa'' AND length(trajectory(flight)) > 5000"
)
Q2 = (
    "SELECT p.id AS pid, q.id AS qid FROM planes p, planes q "
    "WHERE p.id < q.id "
    "AND val(initial(atmin(distance(p.flight, q.flight)))) < 500"
)
SQL_SCRIPT = f"{Q1}; {Q2}"
AIRLINES = ("Lufthansa", "AirFrance", "KLM")


class AnswerMismatch(Exception):
    """A server answer differs from its reference: the run is incorrect."""


@dataclass(frozen=True)
class Workload:
    """One traffic mix: what the server holds and what the clients send."""

    name: str
    read: str            # "snapshot" | "window" | "sql"
    objects: int         # fleet size, or flights in the planes relation
    legs: int
    read_clients: int
    ingest_clients: int = 0
    shards: int = 1
    budget_divisor: int = 0  # memory budget = column bytes // divisor
    wal: bool = False
    why: str = ""


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "snapshot_full", "snapshot", 10_000, 4, read_clients=2,
            why="whole-fleet answers: wire framing and client decode "
                "dominate; the column cache always hits",
        ),
        Workload(
            "window_ingest", "window", 50_000, 4, read_clients=1,
            ingest_clients=1, wal=True,
            why="windowed reads beside WAL-durable ingest: lock, re-pin "
                "and column splice on every read after a write",
        ),
        Workload(
            "sharded_budget", "window", 2_500, 4, read_clients=1,
            shards=16, budget_divisor=4,
            why="16 shards under a quarter-size memory budget: every "
                "read maps and evicts shard columns",
        ),
        Workload(
            "section2_sql", "sql", 32, 6, read_clients=1,
            why="the paper's Q1;Q2 script: SQL parse, plan, execute and "
                "the lifted distance algebra",
        ),
    )
}


# -- generation and transcription ------------------------------------------


def flights(seed: int, count: int, legs: int) -> List[MovingPoint]:
    """``count`` seeded ``FlightGenerator`` flights of ``legs`` legs."""
    gen = FlightGenerator(seed=seed)
    return [gen.flight(legs=legs) for _ in range(count)]


def encode(mappings: Sequence[MovingPoint]) -> Tuple[np.ndarray, np.ndarray]:
    """``(offsets, units)``: CSR offsets per object and one float64 row
    ``s e lc rc x0 x1 y0 y1`` per unit — the exact stored coefficients."""
    offsets = [0]
    rows: List[Tuple[float, ...]] = []
    for m in mappings:
        for u in m.units:
            iv, mo = u.interval, u.motion
            rows.append((iv.s, iv.e, float(iv.lc), float(iv.rc),
                         mo.x0, mo.x1, mo.y0, mo.y1))
        offsets.append(len(rows))
    return (np.asarray(offsets, dtype=np.int64),
            np.asarray(rows, dtype=np.float64).reshape(-1, 8))


def decode(offsets: np.ndarray, units: np.ndarray) -> List[MovingPoint]:
    """The mappings :func:`encode` transcribed, coefficient for coefficient."""
    rows = units.tolist()
    bounds = offsets.tolist()
    out: List[MovingPoint] = []
    for a, b in zip(bounds, bounds[1:]):
        out.append(MovingPoint([
            UPoint(Interval(r[0], r[1], r[2] == 1.0, r[3] == 1.0),
                   MPoint(r[4], r[5], r[6], r[7]))
            for r in rows[a:b]
        ]))
    return out


def planes_database(
    mappings: Sequence[MovingPoint], name: str = "server"
) -> Database:
    """The Section-2 ``planes(airline, id, flight)`` relation."""
    db = Database(name)
    planes = db.create_relation(
        "planes",
        [("airline", "string"), ("id", "string"), ("flight", "mpoint")],
    )
    for i, m in enumerate(mappings):
        planes.insert([AIRLINES[i % len(AIRLINES)], f"F{i:04d}", m])
    return db


def column_bytes(mappings: Sequence[MovingPoint], shards: int) -> int:
    """Bytes of the fleet's upoint columns over ``shards`` shards: one
    record per unit plus the CSR offsets, as ``ShardManager.
    total_column_bytes`` counts them."""
    n_units = sum(len(m.units) for m in mappings)
    return (n_units * UPointColumn.UNIT_DTYPE.itemsize
            + (len(mappings) + shards) * 8)


# -- read requests and their answers ---------------------------------------


@dataclass(frozen=True)
class ReadRequest:
    """One read request with the digest of its expected rows."""

    t: float
    window: Optional[Tuple[float, float, float, float]]
    rows: int
    digest: bytes


def rows_digest(rows: Sequence[Tuple[str, str, str]]) -> bytes:
    """Digest of ``(obj, x, y)`` wire rows, in answer order."""
    text = "".join(f"{obj}\t{x}\t{y}\n" for obj, x, y in rows)
    return hashlib.blake2b(text.encode("ascii"), digest_size=16).digest()


def read_requests(
    seed: int, mappings: Sequence[MovingPoint], windowed: bool
) -> List[ReadRequest]:
    """``READ_POOL`` seeded read requests with their reference answers.

    Positions come from the vector kernel over an in-process column of
    the same flights; a seeded sample of objects per instant is checked
    against the scalar ``value_at`` oracle bit for bit first, so the
    reference itself rests on the paper's scalar semantics.
    """
    rng = random.Random(seed * 7919 + 17)
    col = UPointColumn.from_mappings(mappings)
    out: List[ReadRequest] = []
    for _ in range(READ_POOL):
        t = rng.uniform(*READ_T)
        window = None
        if windowed:
            x0 = rng.uniform(0.0, WORLD - WINDOW)
            y0 = rng.uniform(0.0, WORLD - WINDOW)
            window = (x0, y0, x0 + WINDOW, y0 + WINDOW)
        xs, ys, defined = atinstant_batch(col, t)
        for i in rng.sample(range(len(mappings)),
                            min(SCALAR_SPOT_CHECKS, len(mappings))):
            p = mappings[i].value_at(t)
            if (p is None) != (not defined[i]) or (
                p is not None and (p.x != xs[i] or p.y != ys[i])
            ):
                raise AnswerMismatch(
                    f"kernel and scalar oracle disagree on object {i} at {t!r}"
                )
        keep = defined.copy()
        if window is not None:
            xmin, ymin, xmax, ymax = window
            keep &= (xs >= xmin) & (xs <= xmax) & (ys >= ymin) & (ys <= ymax)
        idx = np.flatnonzero(keep)
        rows = [(str(int(i)), repr(float(xs[i])), repr(float(ys[i])))
                for i in idx]
        out.append(ReadRequest(t, window, len(rows), rows_digest(rows)))
    return out


def _field(value: object) -> str:
    """A query-result value as the wire carries it."""
    defined = getattr(value, "defined", None)
    if defined is not None and hasattr(value, "value"):
        return str(value.value) if defined else "⊥"  # type: ignore[attr-defined]
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def sql_reference(db: Database) -> Tuple[list, list]:
    """Sorted Q1 and Q2 row sets from ``Database.query``."""
    q1 = sorted((_field(r["airline"]), _field(r["id"])) for r in db.query(Q1))
    q2 = sorted((_field(r["pid"]), _field(r["qid"])) for r in db.query(Q2))
    return q1, q2


# -- the ingest feed --------------------------------------------------------


class IngestFeed:
    """Seeded unit slices at t >= ``INGEST_T0`` with their expected acks.

    Each object's slices follow each other in time, so every slice is a
    valid append; the expected ack is the object's unit count so far
    plus one.  An object whose ingest failed (it may or may not have
    landed) is ``uncertain``: its count is re-learnt from the next ack.
    """

    def __init__(self, seed: int, mappings: Sequence[MovingPoint]):
        self._rng = random.Random(seed * 104729 + 3)
        self._counts = [len(m.units) for m in mappings]
        self._next_t: Dict[int, float] = {}
        self.acked = 0
        self.uncertain: set = set()

    def next(self) -> Tuple[int, Tuple[float, ...], int]:
        """``(obj, (t0, x0, y0, t1, x1, y1), expected ack)``."""
        rng = self._rng
        obj = rng.randrange(len(self._counts))
        t0 = self._next_t.get(obj, INGEST_T0 + rng.uniform(0.0, 1.0))
        t1 = t0 + INGEST_LEN
        self._next_t[obj] = t1 + INGEST_GAP
        unit = (t0, rng.uniform(0.0, WORLD), rng.uniform(0.0, WORLD),
                t1, rng.uniform(0.0, WORLD), rng.uniform(0.0, WORLD))
        return obj, unit, self._counts[obj] + 1

    def acknowledge(self, obj: int) -> None:
        self._counts[obj] += 1
        self.acked += 1

    def resync(self, obj: int, units: int) -> None:
        self._counts[obj] = units
        self.acked += 1
