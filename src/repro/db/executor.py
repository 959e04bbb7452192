"""Pull-based query execution operators.

A tiny Volcano-style pipeline: every operator yields rows (dicts keyed
by possibly-qualified column names).  The planner in :mod:`repro.db.sql`
composes scans, a cross product for multi-relation FROM clauses, a
selection, and a projection — all the Section-2 queries need.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import deadline
from repro.db.expressions import Expr, Row
from repro.db.relation import Relation
from repro.errors import QueryError


class Operator:
    """Base class of executable plan nodes."""

    def rows(self) -> Iterator[Row]:
        raise NotImplementedError

    def execute(self) -> List[Row]:
        """Materialize the operator's output."""
        return list(self.rows())


class SeqScan(Operator):
    """Scan one relation, qualifying column names with the alias.

    ``strict=False`` quarantines tuples whose storage representation
    fails verification (skipped, counted under ``storage.quarantined``)
    instead of aborting the whole query.
    """

    def __init__(
        self,
        relation: Relation,
        alias: Optional[str] = None,
        strict: bool = True,
    ):
        self.relation = relation
        self.alias = alias or relation.name
        self.strict = strict

    def rows(self) -> Iterator[Row]:
        for row in self.relation.scan(strict=self.strict):
            yield {f"{self.alias}.{k}": v for k, v in row.items()}


class VectorScan(SeqScan):
    """A scan that additionally exposes its moving-point attribute as a
    columnar batch (Section-4 layout, :mod:`repro.vector.columns`).

    Behaves exactly like :class:`SeqScan` when iterated; on top of that
    it materializes the relation once and caches the attribute's
    :class:`~repro.vector.columns.UPointColumn` and per-mapping
    :class:`~repro.vector.columns.BBoxColumn`, so a parent
    :class:`Select` whose predicate compiles to a batch kernel can
    evaluate it fleet-wide in one call.
    """

    def __init__(self, relation: Relation, alias: Optional[str] = None,
                 attr: Optional[str] = None, strict: bool = True):
        super().__init__(relation, alias, strict)
        self.attr = attr
        self._rows: Optional[List[Row]] = None
        self._mappings: Optional[List[Any]] = None
        self._column: Any = None
        self._bbox_column: Any = None

    def materialized_rows(self) -> List[Row]:
        """The qualified rows, scanned once and cached."""
        if self._rows is None:
            self._rows = [
                {f"{self.alias}.{k}": v for k, v in row.items()}
                for row in self.relation.scan(strict=self.strict)
            ]
        return self._rows

    def mappings(self) -> List[Any]:
        """The moving-point attribute values, aligned with the rows."""
        if self._mappings is None:
            if self.attr is None:
                raise QueryError(f"VectorScan over {self.alias!r} has no "
                                 "moving-point attribute")
            key = f"{self.alias}.{self.attr}"
            self._mappings = [row[key] for row in self.materialized_rows()]
        return self._mappings

    def column(self):
        """The attribute's unit column (built lazily, cached)."""
        if self._column is None:
            from repro.vector.columns import UPointColumn

            self._column = UPointColumn.from_mappings(self.mappings())
        return self._column

    def bbox_column(self):
        """Per-mapping bounding cubes of the attribute (lazily, cached)."""
        if self._bbox_column is None:
            from repro.vector.columns import BBoxColumn

            self._bbox_column = BBoxColumn.from_mappings(self.mappings())
        return self._bbox_column

    def rows(self) -> Iterator[Row]:
        return iter(self.materialized_rows())


class MmapScan(VectorScan):
    """A :class:`VectorScan` whose columns come from the persistent
    column store (:mod:`repro.vector.store`) instead of a per-process
    transcription of the tuple store.

    Row output is identical; only the column acquisition differs: an
    intact store generation is served as ``np.memmap`` views (the
    cold-start path this operator exists for, counted under
    ``colstore.hits``), a missing/corrupt/stale one is rebuilt from the
    scanned mappings and re-persisted (``colstore.rebuilds``).
    """

    def __init__(self, relation: Relation, alias: Optional[str] = None,
                 attr: Optional[str] = None, strict: bool = True,
                 store_root: Optional[str] = None):
        super().__init__(relation, alias, attr, strict)
        self.store_root = store_root

    def _store_column(self, kind: str) -> Any:
        from repro.errors import CorruptColumnError, StorageError
        from repro.vector.store import ColumnStore

        if self.store_root is None:
            return None
        store = ColumnStore(self.store_root)
        # Serve straight from disk when the stored generation matches
        # the relation's cardinality — without materializing the rows,
        # which is the whole cold-start saving.  Any mismatch falls
        # through to the validating load-or-rebuild over the scanned
        # mappings.
        try:
            entry = store.manifest()["columns"].get(kind)
            if entry is not None and entry.get("n_objects") == len(self.relation):
                return store.load(kind)
        except CorruptColumnError:
            pass
        try:
            return store.load_or_rebuild(kind, self.mappings())
        except (OSError, StorageError):
            return None  # degraded: in-memory transcription below

    def column(self):
        if self._column is None:
            self._column = self._store_column("upoint")
        if self._column is None:
            return super().column()
        return self._column

    def bbox_column(self):
        if self._bbox_column is None:
            self._bbox_column = self._store_column("bbox")
        if self._bbox_column is None:
            return super().bbox_column()
        return self._bbox_column


class ShardedScan(VectorScan):
    """A :class:`VectorScan` hash-partitioned into fleet shards, batch
    predicates answered by scatter-gather (:mod:`repro.shard`).

    Row output is identical; the difference is physical: the attribute's
    mappings are partitioned by object id into ``n_shards`` shard
    fleets, each with its own columns held under a byte-budgeted
    :class:`~repro.shard.manager.ShardManager` — window predicates prune
    whole shards by their bounding cubes before any column is mapped,
    and the per-shard kernel outputs gather back bit-identical to the
    unsharded batch (the ``tests/test_shard_properties.py`` identity).
    """

    #: Batch predicates route through the scatter-gather executor.
    sharded = True

    def __init__(self, relation: Relation, alias: Optional[str] = None,
                 attr: Optional[str] = None, strict: bool = True,
                 shards: int = 2, memory_budget: Optional[int] = None):
        super().__init__(relation, alias, attr, strict)
        self.n_shards = max(1, int(shards))
        self.memory_budget = memory_budget
        self._manager: Any = None

    def manager(self):
        """The scan's shard manager (partitioned lazily, cached)."""
        if self._manager is None:
            from repro.shard.fleet import ShardedFleet
            from repro.shard.manager import ShardManager

            self._manager = ShardManager(
                ShardedFleet(self.mappings(), self.n_shards),
                budget=self.memory_budget,
            )
        return self._manager

    def present_mask(self, t: float) -> Any:
        """Definedness of every object at ``t``, scattered per shard."""
        from repro.shard.exec import sharded_atinstant

        _x, _y, defined = sharded_atinstant(self.manager(), t)
        return defined

    def window_mask(self, rect: Any, t0: float, t1: float) -> Any:
        """Objects inside ``rect`` during ``[t0, t1]``, via the pruned
        scatter-gather window kernel."""
        import numpy as np

        from repro.shard.exec import sharded_window_intervals

        owners = sharded_window_intervals(self.manager(), rect, t0, t1)[0]
        mask = np.zeros(len(self.mappings()), dtype=bool)
        mask[owners] = True
        return mask


class CrossProduct(Operator):
    """Nested-loop cross product of two inputs (the spatio-temporal join
    of Section 2 is a cross product plus a lifted selection).

    The thread's active deadline (:func:`repro.deadline.current`) is
    checked once per left row, so a quadratic join above an expensive
    lifted predicate stops soon after its budget runs out.
    """

    def __init__(self, left: Operator, right: Operator):
        self.left = left
        self.right = right

    def rows(self) -> Iterator[Row]:
        dl = deadline.current()
        right_rows = self.right.execute()
        for lrow in self.left.rows():
            if dl is not None:
                dl.check()
            for rrow in right_rows:
                merged = dict(lrow)
                overlap = set(merged) & set(rrow)
                if overlap:
                    raise QueryError(f"ambiguous columns in join: {sorted(overlap)}")
                merged.update(rrow)
                yield merged


class HashJoin(Operator):
    """Equi-join: build a hash table on the right input's key expression."""

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_key: Expr,
        right_key: Expr,
    ):
        self.left = left
        self.right = right
        self.left_key = left_key
        self.right_key = right_key

    def rows(self) -> Iterator[Row]:
        from repro.db.expressions import _unwrap

        table: Dict[Any, List[Row]] = {}
        for rrow in self.right.rows():
            key = _unwrap(self.right_key.eval(rrow))
            table.setdefault(key, []).append(rrow)
        for lrow in self.left.rows():
            key = _unwrap(self.left_key.eval(lrow))
            for rrow in table.get(key, ()):
                merged = dict(lrow)
                overlap = set(merged) & set(rrow)
                if overlap:
                    raise QueryError(
                        f"ambiguous columns in join: {sorted(overlap)}"
                    )
                merged.update(rrow)
                yield merged


class Select(Operator):
    """Filter rows by a boolean expression.

    When the child is a :class:`VectorScan` and the predicate compiles
    to a batch kernel (see ``compile_batch_predicate``), the filter runs
    fleet-wide in one mask evaluation instead of once per row; a
    non-compilable predicate over a VectorScan falls back to the scalar
    row loop and counts the event.
    """

    def __init__(self, child: Operator, predicate: Expr):
        self.child = child
        self.predicate = predicate

    def rows(self) -> Iterator[Row]:
        if isinstance(self.child, VectorScan) and self.child.attr is not None:
            from repro import obs
            from repro.db.expressions import compile_batch_predicate

            compiled = compile_batch_predicate(
                self.predicate, self.child.alias, self.child.attr
            )
            if compiled is not None:
                mask = compiled(self.child)
                if obs.enabled:
                    obs.counters.add("vector.batch_select.calls")
                    obs.counters.add("vector.batch_select.rows", len(mask))
                for row, hit in zip(self.child.materialized_rows(), mask):
                    if hit:
                        yield row
                return
            if obs.enabled:
                obs.counters.add("vector.fallback_to_scalar")
                obs.counters.add("vector.fallback_to_scalar.predicate")
        for row in self.child.rows():
            if self.predicate.eval(row):
                yield row


class Project(Operator):
    """Evaluate output expressions, producing named result columns."""

    def __init__(self, child: Operator, outputs: Sequence[Tuple[str, Expr]]):
        self.child = child
        self.outputs = list(outputs)

    def rows(self) -> Iterator[Row]:
        for row in self.child.rows():
            yield {name: expr.eval(row) for name, expr in self.outputs}


class Sort(Operator):
    """Sort rows by a list of (expression, descending) keys."""

    def __init__(self, child: Operator, keys: Sequence[Tuple[Expr, bool]]):
        self.child = child
        self.keys = list(keys)

    def rows(self) -> Iterator[Row]:
        materialized = self.child.execute()
        # Stable multi-key sort: apply keys last-to-first.
        from repro.db.expressions import _unwrap

        for expr, descending in reversed(self.keys):
            materialized.sort(
                key=lambda row: _unwrap(expr.eval(row)), reverse=descending
            )
        return iter(materialized)


_AGGREGATES = {
    "count": lambda vals: len(vals),
    "min": lambda vals: min(vals),
    "max": lambda vals: max(vals),
    "sum": lambda vals: sum(vals),
    "avg": lambda vals: sum(vals) / len(vals) if vals else None,
}


class Aggregate(Operator):
    """Grouped aggregation.

    ``groups`` are expressions whose values partition the input; each
    output column is either a group expression or an aggregate
    ``(name, func, argument-expression)``.  With no group expressions
    the whole input forms one group (global aggregates).
    """

    def __init__(
        self,
        child: Operator,
        groups: Sequence[Tuple[str, Expr]],
        aggregates: Sequence[Tuple[str, str, Optional[Expr]]],
    ):
        self.child = child
        self.groups = list(groups)
        self.aggregates = list(aggregates)

    def rows(self) -> Iterator[Row]:
        from repro.db.expressions import _unwrap

        buckets: Dict[tuple, List[Row]] = {}
        order: List[tuple] = []
        for row in self.child.rows():
            key = tuple(_unwrap(expr.eval(row)) for _name, expr in self.groups)
            if key not in buckets:
                buckets[key] = []
                order.append(key)
            buckets[key].append(row)
        if not self.groups and not buckets:
            buckets[()] = []
            order.append(())
        for key in order:
            members = buckets[key]
            out: Row = {
                name: value for (name, _e), value in zip(self.groups, key)
            }
            for name, func, arg in self.aggregates:
                fn = _AGGREGATES.get(func)
                if fn is None:
                    raise QueryError(f"unknown aggregate {func!r}")
                if func == "count" and arg is None:
                    out[name] = len(members)
                    continue
                if arg is None:
                    raise QueryError(f"aggregate {func} needs an argument")
                vals = [_unwrap(arg.eval(row)) for row in members]
                vals = [v for v in vals if v is not None]
                out[name] = fn(vals) if vals or func == "count" else None
            yield out


class Distinct(Operator):
    """Remove duplicate rows (SELECT DISTINCT)."""

    def __init__(self, child: Operator):
        self.child = child

    def rows(self) -> Iterator[Row]:
        seen: set = set()
        for row in self.child.rows():
            try:
                key = tuple(sorted((k, v) for k, v in row.items()))
                hash(key)
            except TypeError:
                key = tuple(sorted((k, repr(v)) for k, v in row.items()))
            if key in seen:
                continue
            seen.add(key)
            yield row


class Limit(Operator):
    """Stop after ``n`` rows."""

    def __init__(self, child: Operator, n: int):
        self.child = child
        self.n = n

    def rows(self) -> Iterator[Row]:
        count = 0
        for row in self.child.rows():
            if count >= self.n:
                return
            yield row
            count += 1


class IndexFilteredProduct(Operator):
    """Cross product pre-filtered by a 3-D R-tree over bounding cubes.

    For each left row, only the right rows whose moving-attribute
    bounding cubes come within ``slack`` of the left one's are paired —
    the candidate set a spatio-temporal join index produces.  The
    remaining predicate still runs afterwards, so results equal the
    plain cross product's (an ablation the benchmarks measure).
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_attr: str,
        right_attr: str,
        slack: float = 0.0,
    ):
        self.left = left
        self.right = right
        self.left_attr = left_attr
        self.right_attr = right_attr
        self.slack = slack

    def rows(self) -> Iterator[Row]:
        from repro.index.rtree import RTree3D
        from repro.spatial.bbox import Cube

        right_rows = self.right.execute()
        tree = RTree3D()
        for idx, rrow in enumerate(right_rows):
            mv = rrow[self.right_attr]
            if not mv:
                continue
            tree.insert(mv.bounding_cube(), idx)
        for lrow in self.left.rows():
            mv = lrow[self.left_attr]
            if not mv:
                continue
            c = mv.bounding_cube()
            probe = Cube(
                c.xmin - self.slack,
                c.ymin - self.slack,
                c.tmin,
                c.xmax + self.slack,
                c.ymax + self.slack,
                c.tmax,
            )
            for idx in tree.search(probe):
                merged = dict(lrow)
                merged.update(right_rows[idx])
                yield merged
