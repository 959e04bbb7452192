"""Request deadlines: monotone budgets that propagate across layers.

A :class:`Deadline` is an absolute expiry on the monotonic clock.  The
query service creates one per request from the wire-level
``DEADLINE=<ms>`` attribute; the executor checks it at chunk boundaries
(:meth:`Deadline.check` raises the typed
:class:`~repro.errors.DeadlineExceeded`), and the SQL layer checks it
before every script statement and once per outer row of a cross
product, so an expired query stops holding the executor lock.

Propagation is *monotone*: :meth:`Deadline.child` derives a sub-budget
that can never outlive its parent (``child(b).remaining_ms() <=
min(b, parent.remaining_ms())``), so a layer handing work downward can
only tighten the budget, never extend it.

The active deadline travels through layers that do not know about each
other (query service → script runner → SQL operators) via a
thread-local: the owning layer wraps its work in ``with
deadline.active(dl):`` and any nested layer reads :func:`current`.
Thread-local — not a contextvar — because the query service runs
executor work in ``asyncio.to_thread`` workers and the whole query runs
on that one thread; nothing awaits while a deadline is active.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.errors import DeadlineExceeded, InvalidValue

__all__ = ["Deadline", "active", "current"]


class Deadline:
    """An absolute expiry on the monotonic clock, held as a budget."""

    __slots__ = ("expires_at", "budget_ms")

    def __init__(self, expires_at: float, budget_ms: float):
        self.expires_at = expires_at
        self.budget_ms = budget_ms

    @classmethod
    def after(cls, budget_ms: float) -> "Deadline":
        """A deadline ``budget_ms`` milliseconds from now."""
        budget_ms = float(budget_ms)
        if budget_ms <= 0:
            raise InvalidValue(
                f"deadline budget must be > 0 ms, got {budget_ms!r}"
            )
        return cls(time.monotonic() + budget_ms / 1000.0, budget_ms)

    def remaining_s(self) -> float:
        """Seconds left; never negative (an expired deadline reads 0)."""
        return max(0.0, self.expires_at - time.monotonic())

    def remaining_ms(self) -> float:
        return self.remaining_s() * 1000.0

    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def check(self) -> None:
        """Raise :class:`DeadlineExceeded` when the budget has run out.

        The cooperative cancellation point: cheap enough to call at
        every chunk boundary (one clock read and a compare).
        """
        if self.expired():
            raise DeadlineExceeded(
                f"request deadline of {self.budget_ms:g}ms exceeded"
            )

    def child(self, budget_ms: float) -> "Deadline":
        """A sub-budget clamped to this deadline (monotone propagation).

        The child's expiry is ``min(parent expiry, now + budget_ms)``:
        a layer can tighten the budget for a downstream call but never
        extend it past what its own caller granted.
        """
        own = Deadline.after(budget_ms)
        if own.expires_at <= self.expires_at:
            return own
        return Deadline(self.expires_at, self.budget_ms)


_local = threading.local()


def current() -> Optional[Deadline]:
    """The deadline active on this thread, if any."""
    return getattr(_local, "deadline", None)


class active:
    """Bind a deadline to the current thread for a block.

    ``active(None)`` is a no-op so call sites need no branching; nesting
    restores the outer deadline on exit.  The inner deadline is bound
    as-is — callers that want the monotone clamp derive it with
    :meth:`Deadline.child` first.
    """

    __slots__ = ("_deadline", "_prev")

    def __init__(self, deadline: Optional[Deadline]):
        self._deadline = deadline
        self._prev: Optional[Deadline] = None

    def __enter__(self) -> Optional[Deadline]:
        self._prev = current()
        if self._deadline is not None:
            _local.deadline = self._deadline
        return self._deadline

    def __exit__(self, *exc: object) -> None:
        if self._deadline is not None:
            _local.deadline = self._prev
