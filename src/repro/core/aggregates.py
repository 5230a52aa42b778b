"""Aggregations and projections-with-duplicates over delta streams.

§7.3 equips the plan with commutative-ring annotations; §7.1 handles
acyclic-but-non-free-connex queries by extending the output attributes
and deduplicating at enumeration. Both are realized here as *consumers*
of the exact delta stream of an extended free-connex query:

- :class:`DistinctConsumer` maintains derivation counts for a projected
  output and emits set-semantics deltas of the projection (§7.1).
- :class:`RingAggregator` maintains GROUP BY aggregates (ring ⊕ over a
  per-result weight ⊗, eqs. (10)–(12) folded to the output level) and
  :class:`DistinctCountAggregator` the COUNT(DISTINCT …) form used by
  SNB Q4.

The weight of a result must be computable from its output attributes
(true for COUNT, COUNT(DISTINCT) and SUM over output expressions —
every aggregate in the paper's benchmark). SUM over attributes that are
projected away would need the in-plan annotations of §7.3; we document
this restriction in DESIGN.md.
"""
from __future__ import annotations

from collections import Counter
from typing import Callable

from repro.cq.query import CQ


class DistinctConsumer:
    """Project a delta stream to a sub-output with set semantics.

    ``positions`` are the indices of the kept attributes within the
    inner query's output tuple. Derivation counting makes a projected
    tuple appear exactly when its first support arrives and disappear
    with its last (§7.1).
    """

    def __init__(self, inner: CQ, keep: tuple[str, ...]) -> None:
        self.positions = tuple(inner.output.index(a) for a in keep)
        self.keep = keep
        self.counts: Counter = Counter()

    def feed(self, deltas: list[tuple[int, tuple]]) -> list[tuple[int, tuple]]:
        out: list[tuple[int, tuple]] = []
        for sign, t in deltas:
            p = tuple(t[i] for i in self.positions)
            before = self.counts[p]
            self.counts[p] += sign
            after = self.counts[p]
            if before == 0 and after > 0:
                out.append((1, p))
            elif before > 0 and after == 0:
                out.append((-1, p))
                del self.counts[p]
        return out

    def result(self) -> set[tuple]:
        return {p for p, c in self.counts.items() if c > 0}


class RingAggregator:
    """GROUP BY aggregation over a delta stream (§7.3, output level).

    ``group`` selects the grouping attributes; ``weight`` maps a result
    tuple to its ring element (e.g. ``lambda t: 1`` for COUNT(*),
    ``lambda t: t[i] * t[j]`` for SUM of an output expression). The
    ring is (numbers, +, ·) — additive inverses support deletions.
    """

    def __init__(
        self,
        inner: CQ,
        group: tuple[str, ...],
        weight: Callable[[tuple], float],
    ) -> None:
        self.positions = tuple(inner.output.index(a) for a in group)
        self.weight = weight
        self.sums: dict[tuple, float] = {}
        self.support: Counter = Counter()

    def feed(self, deltas: list[tuple[int, tuple]]) -> None:
        for sign, t in deltas:
            g = tuple(t[i] for i in self.positions)
            self.sums[g] = self.sums.get(g, 0) + sign * self.weight(t)
            self.support[g] += sign
            if self.support[g] == 0:
                del self.support[g], self.sums[g]

    def result(self) -> dict[tuple, float]:
        return dict(self.sums)


class DistinctCountAggregator:
    """COUNT(DISTINCT d) GROUP BY g — the SNB Q4 aggregate.

    A :class:`DistinctConsumer` over ``(*group, d)`` turns the delta
    stream into the appearance (+1) and disappearance (-1) of distinct
    pairs; their crossings are counted per group.
    """

    def __init__(self, inner: CQ, group: tuple[str, ...], distinct: str) -> None:
        self.pairs = DistinctConsumer(inner, (*group, distinct))
        self.counts: Counter = Counter()

    def feed(self, deltas: list[tuple[int, tuple]]) -> None:
        for sign, p in self.pairs.feed(deltas):
            g = p[:-1]
            self.counts[g] += sign
            if not self.counts[g]:
                del self.counts[g]

    def result(self) -> dict[tuple, int]:
        return dict(self.counts)
