"""Standard change propagation (the Fig. 1(a) strategy) — Flink/Trill proxy.

A left-deep plan over the query's atoms materializes every intermediate
join view ``V_i = R_1 ⋈ … ⋈ R_i`` as a bag (tuple → multiplicity) with
hash indexes on the join attributes. An update to ``R_j`` joins its
delta against the materialized prefix view and the suffix relations —
the polynomial space/time behaviour the paper ascribes to Flink SQL and
Trill: space is dominated by the intermediate views (quadratic for
4-Hop) and update cost by the intermediate delta sizes. Indexes keep
per-update cost proportional to the *delta join output*, not view
scans, so the comparison against CROWN is fair.

``delta_only=True`` models Trill (Table 1: delta enumeration, no full
enumeration); the default models Flink SQL.
"""
from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable

from repro.cq.query import CQ
from repro.streams.sequences import Update

YDict = dict[str, object]


class StandardCPEngine:
    """Tuple-at-a-time standard change propagation over a left-deep plan."""

    def __init__(
        self,
        cq: CQ,
        order: list[str] | None = None,
        delta_only: bool = False,
        post_filter: Callable[[YDict], bool] | None = None,
        max_view_rows: int | None = None,
    ) -> None:
        self.cq = cq
        self.delta_only = delta_only
        self.post_filter = post_filter
        self.max_view_rows = max_view_rows
        names = [r.name for r in cq.relations]
        self.order = list(order) if order is not None else names
        assert sorted(self.order) == sorted(names)
        self.rels = {r.name: r for r in cq.relations}
        self.base: dict[str, set] = {n: set() for n in names}
        # prefix attribute lists; shared (join) attrs at each position
        self.prefix_attrs: list[tuple[str, ...]] = []
        attrs: list[str] = []
        self.shared: list[tuple[str, ...]] = [()]
        for j, n in enumerate(self.order):
            if j > 0:
                self.shared.append(
                    tuple(a for a in self.rels[n].attrs if a in attrs)
                )
            for a in self.rels[n].attrs:
                if a not in attrs:
                    attrs.append(a)
            self.prefix_attrs.append(tuple(attrs))
        # views[i]: bag of prefix-join tuples over prefix_attrs[i], i>=1
        self.views: list[Counter] = [Counter() for _ in self.order]
        # pview_idx[j]: rows of V_{j-1} keyed by shared[j] (probe side of
        # an update to R_{order[j]}); base_idx[j]: R_{order[j]} keyed by
        # shared[j] (build side of the suffix delta joins).
        self.pview_idx: list[dict[tuple, set]] = [dict() for _ in self.order]
        self.base_idx: list[dict[tuple, set]] = [dict() for _ in self.order]
        self.result_bag: Counter = Counter()
        self.stats = {"updates": 0, "deltas": 0, "view_rows_touched": 0}

    # -- index helpers --------------------------------------------------
    def _prefix_key(self, j: int, row: dict) -> tuple:
        return tuple(row[a] for a in self.shared[j])

    def _view_add(self, i: int, key: tuple, row: dict, m: int) -> None:
        v = self.views[i]
        before = v[key]
        v[key] += m
        self.stats["view_rows_touched"] += 1
        after = v[key]
        if after == 0:
            del v[key]
        j = i + 1
        if j < len(self.order):
            idxkey = self._prefix_key(j, row)
            idx = self.pview_idx[j]
            if before <= 0 < after:
                idx.setdefault(idxkey, set()).add(key)
            elif after <= 0 < before:
                s = idx.get(idxkey)
                if s:
                    s.discard(key)
                    if not s:
                        del idx[idxkey]

    # -- update processing ---------------------------------------------
    def apply(self, u: Update) -> list[tuple[int, tuple]]:
        out: list[tuple[int, tuple]] = []
        for atom in self.cq.atoms_of_stream(u.stream):
            if any(not p(u.tuple) for p in self.cq.selections_on(atom.name)):
                continue
            out.extend(self._apply_atom(atom.name, u.tuple, u.is_insert))
        self.stats["updates"] += 1
        self.stats["deltas"] += len(out)
        return out

    def run(self, seq: Iterable[Update]) -> list[tuple[int, tuple]]:
        out: list[tuple[int, tuple]] = []
        for u in seq:
            out.extend(self.apply(u))
        return out

    def _apply_atom(self, rel: str, t: tuple, is_insert: bool) -> list[tuple[int, tuple]]:
        if is_insert and t in self.base[rel]:
            return []
        if not is_insert and t not in self.base[rel]:
            return []
        j = self.order.index(rel)
        sign = 1 if is_insert else -1
        r = self.rels[rel]
        tdict = dict(zip(r.attrs, t))
        # Δ prefix view at level j: V_{j-1} ⋈ {t} via the prefix index
        if j == 0:
            delta: list[tuple[dict, int]] = [(tdict, 1)]
        else:
            delta = []
            pattrs = self.prefix_attrs[j - 1]
            k = tuple(tdict[a] for a in self.shared[j])
            for key in self.pview_idx[j].get(k, set()).copy():
                m = self.views[j - 1][key]
                row = dict(zip(pattrs, key))
                row.update(tdict)
                delta.append((row, m))
        # keep base + its index in sync before suffix joins
        if is_insert:
            self.base[rel].add(t)
            if j > 0:
                self.base_idx[j].setdefault(
                    tuple(tdict[a] for a in self.shared[j]), set()
                ).add(t)
        else:
            self.base[rel].remove(t)
            if j > 0:
                bk = tuple(tdict[a] for a in self.shared[j])
                s = self.base_idx[j].get(bk)
                if s:
                    s.discard(t)
                    if not s:
                        del self.base_idx[j][bk]
        # propagate through views j..n-1 (views[0] mirrors R_{order[0]}
        # so that pview_idx[1] stays consistent)
        for i in range(j, len(self.order)):
            if i > j:
                delta = self._join_delta(delta, i)
            attrs = self.prefix_attrs[i]
            for row, m in delta:
                self._view_add(i, tuple(row[a] for a in attrs), row, sign * m)
            if (
                self.max_view_rows is not None
                and len(self.views[i]) > self.max_view_rows
            ):
                raise MemoryError(
                    f"standard CP view {i} exceeded {self.max_view_rows} rows"
                )
        # project and emit set-semantics output deltas
        out: list[tuple[int, tuple]] = []
        for row, m in delta:
            if self.post_filter and not self.post_filter(row):
                continue
            key = tuple(row[a] for a in self.cq.output)
            before = self.result_bag[key]
            self.result_bag[key] += sign * m
            after = self.result_bag[key]
            if before <= 0 < after:
                out.append((1, key))
            elif after <= 0 < before:
                out.append((-1, key))
            if self.result_bag[key] == 0:
                del self.result_bag[key]
        return out

    def _join_delta(self, delta: list[tuple[dict, int]], i: int) -> list[tuple[dict, int]]:
        """Join a prefix delta with base relation at position ``i``."""
        rel = self.rels[self.order[i]]
        out: list[tuple[dict, int]] = []
        for row, m in delta:
            k = tuple(row[a] for a in self.shared[i])
            for t in self.base_idx[i].get(k, ()):
                r2 = dict(row)
                r2.update(zip(rel.attrs, t))
                out.append((r2, m))
        return out

    # -- enumeration ----------------------------------------------------
    def full_result_set(self) -> set[tuple]:
        if self.delta_only:
            raise NotImplementedError("Trill proxy: no full enumeration (Table 1)")
        return {t for t, m in self.result_bag.items() if m > 0}

    def space(self) -> int:
        total = sum(len(s) for s in self.base.values())
        total += sum(len(v) for v in self.views)
        total += len(self.result_bag)
        return total

    def capabilities(self) -> dict[str, object]:
        if self.delta_only:
            return {
                "system": "Trill",
                "distributed": False,
                "full_enumeration": False,
                "delta_enumeration": True,
                "updates": "arbitrary",
                "internal": "standard change propagation",
            }
        return {
            "system": "Flink",
            "distributed": True,
            "full_enumeration": True,
            "delta_enumeration": False,
            "updates": "FIFO",
            "internal": "standard change propagation",
        }
