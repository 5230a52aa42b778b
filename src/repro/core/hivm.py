"""First-order higher-order IVM — the DBToaster proxy (§2, [4]).

For every atom ``R_i`` we materialize the *delta query*
``M_i = ⋈_{j≠i} R_j`` as a bag with a hash index on the attributes
shared with ``R_i``. An update ``t`` to ``R_i`` then answers
``ΔQ = π_y({t} ⋈ M_i)`` by a single index lookup — HIVM's signature
fast path — while every *other* ``M_j`` must be maintained by joining
the update across the remaining relations, which is where HIVM keeps
the polynomial space/time blowup the paper measures (the paper: "HIVM
still uses super-linear space", no update-time guarantee).

DBToaster materializes deltas recursively; one level is enough to
reproduce the experimental shape (huge auxiliary views, data-dependent
update cost) without replicating its compiler.
"""
from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable

from repro.cq.query import CQ
from repro.streams.sequences import Update

YDict = dict[str, object]


class FirstOrderHIVMEngine:
    """Tuple-at-a-time first-order HIVM over all atoms of a CQ."""

    def __init__(
        self,
        cq: CQ,
        post_filter: Callable[[YDict], bool] | None = None,
        max_view_rows: int | None = None,
    ) -> None:
        self.cq = cq
        self.post_filter = post_filter
        self.max_view_rows = max_view_rows
        self.names = [r.name for r in cq.relations]
        self.rels = {r.name: r for r in cq.relations}
        self.base: dict[str, set] = {n: set() for n in self.names}
        # per-atom auxiliary view M_i over the union of the other atoms'
        # attributes, plus join orders and persistent base indexes
        self.m_attrs: dict[str, tuple[str, ...]] = {}
        self.m_view: dict[str, Counter] = {}
        self.m_idx: dict[str, dict[tuple, set]] = {}
        self.m_shared: dict[str, tuple[str, ...]] = {}
        self.join_orders: dict[tuple[str, str], list[tuple[str, tuple[str, ...]]]] = {}
        self.base_idx: dict[tuple[str, tuple[str, ...]], dict[tuple, set]] = {}
        for i in self.names:
            others = [n for n in self.names if n != i]
            attrs: list[str] = []
            for n in others:
                for a in self.rels[n].attrs:
                    if a not in attrs:
                        attrs.append(a)
            self.m_attrs[i] = tuple(attrs)
            self.m_view[i] = Counter()
            self.m_idx[i] = {}
            self.m_shared[i] = tuple(
                a for a in self.rels[i].attrs if a in attrs
            )
            for k in others:
                # join order for ΔM_i under an update to R_k
                seen = list(self.rels[k].attrs)
                plan: list[tuple[str, tuple[str, ...]]] = []
                rest = [n for n in others if n != k]
                # greedy: always join a relation sharing an attr if any
                while rest:
                    pick = next(
                        (n for n in rest if any(a in seen for a in self.rels[n].attrs)),
                        rest[0],
                    )
                    shared = tuple(a for a in self.rels[pick].attrs if a in seen)
                    plan.append((pick, shared))
                    for a in self.rels[pick].attrs:
                        if a not in seen:
                            seen.append(a)
                    rest.remove(pick)
                self.join_orders[(i, k)] = plan
                for n, shared in plan:
                    self.base_idx.setdefault((n, shared), {})
        self.result_bag: Counter = Counter()
        self.stats = {"updates": 0, "deltas": 0, "view_rows_touched": 0}

    # -- base maintenance ----------------------------------------------
    def _base_update(self, rel: str, t: tuple, add: bool) -> None:
        r = self.rels[rel]
        td = dict(zip(r.attrs, t))
        if add:
            self.base[rel].add(t)
        else:
            self.base[rel].remove(t)
        for (n, shared), idx in self.base_idx.items():
            if n != rel:
                continue
            k = tuple(td[a] for a in shared)
            if add:
                idx.setdefault(k, set()).add(t)
            else:
                s = idx.get(k)
                if s:
                    s.discard(t)
                    if not s:
                        del idx[k]

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
        sign = 1 if is_insert else -1
        r = self.rels[rel]
        td = dict(zip(r.attrs, t))
        # fast path: ΔQ = {t} ⋈ M_rel via the index on shared attrs
        k = tuple(td[a] for a in self.m_shared[rel])
        delta_rows: list[tuple[dict, int]] = []
        mattrs = self.m_attrs[rel]
        for key in self.m_idx[rel].get(k, set()).copy():
            m = self.m_view[rel][key]
            row = dict(zip(mattrs, key))
            row.update(td)
            delta_rows.append((row, m))
        if not self.names[1:]:
            delta_rows = [(td, 1)]
        # maintain every other M_i (the expensive HIVM part)
        for i in self.names:
            if i == rel:
                continue
            dm: list[tuple[dict, int]] = [(td, 1)]
            for n, shared in self.join_orders[(i, rel)]:
                idx = self.base_idx[(n, shared)]
                nxt: list[tuple[dict, int]] = []
                rn = self.rels[n]
                for row, m in dm:
                    kk = tuple(row[a] for a in shared)
                    for t2 in idx.get(kk, ()):
                        r2 = dict(row)
                        r2.update(zip(rn.attrs, t2))
                        nxt.append((r2, m))
                dm = nxt
                if not dm:
                    break
            v, vidx = self.m_view[i], self.m_idx[i]
            ish = self.m_shared[i]
            for row, m in dm:
                key = tuple(row[a] for a in self.m_attrs[i])
                before = v[key]
                v[key] += sign * m
                self.stats["view_rows_touched"] += 1
                after = v[key]
                if after == 0:
                    del v[key]
                ik = tuple(row[a] for a in ish)
                if before <= 0 < after:
                    vidx.setdefault(ik, set()).add(key)
                elif after <= 0 < before:
                    s = vidx.get(ik)
                    if s:
                        s.discard(key)
                        if not s:
                            del vidx[ik]
            if self.max_view_rows is not None and len(v) > self.max_view_rows:
                raise MemoryError(f"HIVM view M_{i} exceeded {self.max_view_rows} rows")
        self._base_update(rel, t, is_insert)
        # project & emit set-semantics deltas
        out: list[tuple[int, tuple]] = []
        for row, m in delta_rows:
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

    def full_result_set(self) -> set[tuple]:
        return {t for t, m in self.result_bag.items() if m > 0}

    def space(self) -> int:
        total = sum(len(s) for s in self.base.values())
        total += sum(len(v) for v in self.m_view.values())
        total += len(self.result_bag)
        return total

    def capabilities(self) -> dict[str, object]:
        return {
            "system": "DBToaster",
            "distributed": False,
            "full_enumeration": True,
            "delta_enumeration": False,
            "updates": "arbitrary",
            "internal": "HIVM",
        }
