"""Update sequences and lifespans (§6.1).

An update sequence is an ordered list of :class:`Update` events, each
the insertion or deletion of a tuple into a logical *stream* (a base
relation; self-join copies fan out inside the engines). A tuple's
*lifespan* is ``[t+, t-]``; FIFO sequences (sliding windows) and
insertion-only sequences are the two restricted classes the paper's
theory rewards (Lemmas 6.9/6.10).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator


@dataclass(frozen=True)
class Update:
    """One stream event: ``+t`` or ``-t`` on logical relation ``stream``."""

    stream: str
    tuple: tuple
    is_insert: bool

    @property
    def sign(self) -> int:
        return 1 if self.is_insert else -1


@dataclass
class Lifespan:
    """A tuple plus its interval ``[start, end]`` (±inf allowed)."""

    stream: str
    tuple: tuple
    start: float
    end: float


@dataclass
class UpdateSequence:
    """An ordered update sequence with lifespan bookkeeping."""

    updates: list[Update] = field(default_factory=list)

    def __iter__(self) -> Iterator[Update]:
        return iter(self.updates)

    def __len__(self) -> int:
        return len(self.updates)

    def lifespans(self) -> list[Lifespan]:
        """Reconstruct per-tuple lifespans from the event order.

        Repeated insert/delete of equal tuples become distinct
        lifespans (§6.1). Tuples never deleted get ``end=+inf``;
        tuples deleted but never inserted get ``start=-inf``.
        """
        open_: dict[tuple, list[Lifespan]] = {}
        out: list[Lifespan] = []
        for i, u in enumerate(self.updates):
            k = (u.stream, u.tuple)
            if u.is_insert:
                ls = Lifespan(u.stream, u.tuple, float(i), float("inf"))
                open_.setdefault(k, []).append(ls)
                out.append(ls)
            else:
                if open_.get(k):
                    open_[k].pop(0).end = float(i)
                else:
                    out.append(Lifespan(u.stream, u.tuple, float("-inf"), float(i)))
        return out

    @property
    def is_insertion_only(self) -> bool:
        return all(u.is_insert for u in self.updates)

    @property
    def is_fifo(self) -> bool:
        """FIFO: insertion order == deletion order, per stream-agnostic
        global timestamps (Def. in §6.1: t1+ < t2+ ⇒ t1- < t2-)."""
        spans = sorted(
            (ls for ls in self.lifespans()), key=lambda s: s.start
        )
        ends = [s.end for s in spans]
        return all(a <= b for a, b in zip(ends, ends[1:]))


def from_lifespans(spans: Iterable[tuple[str, tuple, float, float]]) -> UpdateSequence:
    """Build an event sequence from ``(stream, tuple, t+, t-)`` rows.

    Events are ordered by timestamp; insertions precede deletions at
    equal timestamps. Infinite endpoints suppress the matching event.
    """
    evs: list[tuple[float, int, Update]] = []
    for stream, t, s, e in spans:
        if s != float("-inf"):
            evs.append((s, 0, Update(stream, t, True)))
        if e != float("inf"):
            evs.append((e, 1, Update(stream, t, False)))
    evs.sort(key=lambda x: (x[0], x[1]))
    return UpdateSequence([u for _, _, u in evs])


def fifo_window_sequence(
    rows: Iterable[tuple[str, tuple]], w: int
) -> UpdateSequence:
    """Count-based sliding window: row ``i`` lives over ``[i, i+w]``.

    This is the paper's graph-stream construction ("we assign a
    distinct integer t_e to each edge e, with lifespan [t_e, t_e+w]").
    """
    return from_lifespans(
        (stream, t, float(i), float(i + w)) for i, (stream, t) in enumerate(rows)
    )


def insertion_only_sequence(rows: Iterable[tuple[str, tuple]]) -> UpdateSequence:
    return UpdateSequence(
        [Update(stream, t, True) for stream, t in rows]
    )


def time_window_sequence(
    rows: Iterable[tuple[str, tuple, float]], w: float
) -> UpdateSequence:
    """Time-based window (SNB streams): lifespan ``[ts, ts+w]``."""
    return from_lifespans((stream, t, ts, ts + w) for stream, t, ts in rows)
