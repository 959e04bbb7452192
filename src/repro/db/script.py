"""SQL script execution: DDL + DML + queries against one database.

Extends the query subset with the statements a self-contained script
needs::

    CREATE TABLE planes (airline string, id string, flight mpoint);
    INSERT INTO planes VALUES ('LH', 'LH123', 'MPOINT ([0 10] 0 1 0 0)');
    SELECT id FROM planes WHERE length(trajectory(flight)) > 5;
    EXPLAIN SELECT ...;

Attribute values in ``INSERT`` are string literals holding either plain
scalars or the :mod:`repro.io.text` format for spatio-temporal types;
numbers may be written bare.  Statements are separated by semicolons;
``--`` starts a line comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro import deadline
from repro.db.catalog import Database
from repro.db.sql import explain, run_query
from repro.errors import QueryError

_CREATE_RE = re.compile(
    r"^\s*create\s+table\s+(?P<name>[A-Za-z_]\w*)\s*\((?P<cols>.*)\)\s*$",
    re.IGNORECASE | re.DOTALL,
)
_INSERT_RE = re.compile(
    r"^\s*insert\s+into\s+(?P<name>[A-Za-z_]\w*)\s+values\s*\((?P<vals>.*)\)\s*$",
    re.IGNORECASE | re.DOTALL,
)
_DROP_RE = re.compile(
    r"^\s*drop\s+table\s+(?P<name>[A-Za-z_]\w*)\s*$", re.IGNORECASE
)
_EXPLAIN_RE = re.compile(r"^\s*explain\s+(?P<query>select\b.*)$", re.IGNORECASE | re.DOTALL)


@dataclass
class StatementResult:
    """Outcome of one statement: a message or result rows."""

    statement: str
    rows: Optional[List[dict]] = None
    message: str = ""


def split_statements(script: str) -> List[str]:
    """Split a script into statements on semicolons, honouring quotes."""
    statements: List[str] = []
    current: List[str] = []
    in_quote: Optional[str] = None
    for raw_line in script.splitlines():
        line = raw_line
        if in_quote is None:
            # Strip -- comments only outside quoted strings.
            cut = _comment_start(line)
            if cut is not None:
                line = line[:cut]
        for ch in line:
            if in_quote is not None:
                current.append(ch)
                if ch == in_quote:
                    in_quote = None
                continue
            if ch in ("'", '"'):
                in_quote = ch
                current.append(ch)
            elif ch == ";":
                stmt = "".join(current).strip()
                if stmt:
                    statements.append(stmt)
                current = []
            else:
                current.append(ch)
        current.append("\n")
    tail = "".join(current).strip()
    if tail:
        statements.append(tail)
    return statements


def _comment_start(line: str) -> Optional[int]:
    in_quote: Optional[str] = None
    i = 0
    while i < len(line) - 1:
        ch = line[i]
        if in_quote is not None:
            if ch == in_quote:
                in_quote = None
        elif ch in ("'", '"'):
            in_quote = ch
        elif ch == "-" and line[i + 1] == "-":
            return i
        i += 1
    return None


def _split_top_level(text: str, sep: str = ",") -> List[str]:
    """Split on ``sep`` outside parentheses and quotes."""
    parts: List[str] = []
    depth = 0
    in_quote: Optional[str] = None
    current: List[str] = []
    for ch in text:
        if in_quote is not None:
            current.append(ch)
            if ch == in_quote:
                in_quote = None
            continue
        if ch in ("'", '"'):
            in_quote = ch
            current.append(ch)
        elif ch == "(":
            depth += 1
            current.append(ch)
        elif ch == ")":
            depth -= 1
            current.append(ch)
        elif ch == sep and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    last = "".join(current).strip()
    if last:
        parts.append(last)
    return parts


def _parse_value_literal(text: str) -> str:
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in ("'", '"'):
        return text[1:-1]
    return text


def execute_statement(db: Database, statement: str) -> StatementResult:
    """Execute one statement against ``db``."""
    m = _CREATE_RE.match(statement)
    if m:
        columns: List[Tuple[str, str]] = []
        for col in _split_top_level(m.group("cols")):
            pieces = col.split()
            if len(pieces) != 2:
                raise QueryError(f"bad column definition {col!r}")
            columns.append((pieces[0], pieces[1].lower()))
        db.create_relation(m.group("name"), columns)
        return StatementResult(statement, message=f"created {m.group('name')}")
    m = _INSERT_RE.match(statement)
    if m:
        rel = db.relation(m.group("name"))
        values = [_parse_value_literal(v) for v in _split_top_level(m.group("vals"))]
        rel.insert_text(values)
        return StatementResult(statement, message=f"inserted 1 row into {rel.name}")
    m = _DROP_RE.match(statement)
    if m:
        db.drop_relation(m.group("name"))
        return StatementResult(statement, message=f"dropped {m.group('name')}")
    m = _EXPLAIN_RE.match(statement)
    if m:
        return StatementResult(statement, message=explain(db, m.group("query")))
    if re.match(r"^\s*select\b", statement, re.IGNORECASE):
        return StatementResult(statement, rows=run_query(db, statement))
    raise QueryError(f"unrecognized statement: {statement[:60]!r}")


def run_script(db: Database, script: str) -> List[StatementResult]:
    """Execute every statement of a script in order.

    The thread's active deadline (:func:`repro.deadline.current`) is
    checked before each statement: an expired script raises
    :class:`~repro.errors.DeadlineExceeded` instead of running on.
    """
    dl = deadline.current()
    results: List[StatementResult] = []
    for stmt in split_statements(script):
        if dl is not None:
            dl.check()
        results.append(execute_statement(db, stmt))
    return results
