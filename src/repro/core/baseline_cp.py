"""Join-based change propagation: the two baselines CROWN is compared with.

Both materialize joins of the query's atoms as bag views (row →
multiplicity), each over the union of its atoms' attributes in query
order. They differ only in which joins they keep:

- standard change propagation (Fig. 1(a); the Flink SQL and Trill
  proxies) keeps the prefixes ``R_1 ⋈ … ⋈ R_i`` of a left-deep plan;
- first-order HIVM (§2; the DBToaster proxy, Ahmad et al., PVLDB 2012)
  keeps every atom but one, ``M_i = ⋈_{j≠i} R_j``, so an update to
  ``R_i`` finds ``ΔQ = {t} ⋈ M_i`` by one index probe.

For an update ``t`` to atom ``j``, each view ``V`` that holds ``j`` gets
its ΔV, in list order, and then the query itself does. ``view_plan``
fixes, once per query, where each ΔV starts: from a ΔV′ already
computed for this update (``j ∈ V′ ⊆ V``), or from ``{t} ⋈ W`` for the
largest non-empty view ``W ⊆ V∖{j}``, probed through an index on the
attributes ``W`` shares with ``j``, whichever covers more of V's atoms.
V's remaining atoms are then joined from base-relation indexes,
greedily: next is the first remaining atom, in query order, that shares
an attribute with the rows so far, or else the first one.

Space is dominated by the views (quadratic for 4-Hop), update cost by
the delta sizes. The indexes keep an update's cost proportional to its
delta-join output, not to view scans, so the comparison against CROWN
is fair. ``repro.spark.baseline_cp`` runs the same plan on DataFrames.
"""
from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, NamedTuple

from repro.cq.query import CQ
from repro.streams.sequences import Update

YDict = dict[str, object]


class Step(NamedTuple):
    """How one ΔV is found for an update ``t`` to an atom: from the delta
    of the earlier step ``after``, or from ``{t} ⋈ views[probe]`` on the
    attributes ``on`` (``{t}`` alone when both are None); then ``joins``,
    ``(atom, attributes it shares with the rows so far)``, in order."""

    view: int | None  # index into the view list; None for the query
    after: int | None
    probe: int | None
    on: tuple[str, ...]
    joins: tuple[tuple[str, tuple[str, ...]], ...]


def attrs_of(cq: CQ, atoms: Iterable[str]) -> tuple[str, ...]:
    """The union of ``atoms``' attributes, in query order."""
    atoms, out = set(atoms), []
    for r in cq.relations:
        if r.name in atoms:
            out += [a for a in r.attrs if a not in out]
    return tuple(out)


def prefixes(cq: CQ) -> list[frozenset[str]]:
    """Standard change propagation's views: the left-deep plan's prefixes."""
    names = [r.name for r in cq.relations]
    return [frozenset(names[:i]) for i in range(1, len(names) + 1)]


def all_but_one(cq: CQ) -> list[frozenset[str]]:
    """First-order HIVM's views: per atom, the join of all the others."""
    names = frozenset(r.name for r in cq.relations)
    return [names - {r.name} for r in cq.relations]


def view_plan(cq: CQ, views: list[frozenset[str]]) -> dict[str, list[Step]]:
    """Per atom, the steps of an update to it: one per view that holds
    the atom, in list order, then one for the query."""
    rels = {r.name: r for r in cq.relations}
    plan: dict[str, list[Step]] = {}
    for j in rels:
        steps: list[Step] = []
        covers: list[frozenset[str]] = []
        for i, v in [(i, v) for i, v in enumerate(views) if j in v] + [(None, frozenset(rels))]:
            after = max((k for k, c in enumerate(covers) if c <= v),
                        key=lambda k: len(covers[k]), default=None)
            probe = max((k for k, w in enumerate(views) if w and w <= v - {j}),
                        key=lambda k: len(views[k]), default=None)
            by_probe = {j} | (views[probe] if probe is not None else set())
            if after is not None and len(covers[after]) >= len(by_probe):
                probe, have = None, covers[after]
            else:
                after, have = None, by_probe
            on = () if probe is None else tuple(
                a for a in rels[j].attrs if a in attrs_of(cq, views[probe]))
            seen = set(attrs_of(cq, have))
            rest = [n for n in rels if n in v and n not in have]
            joins = []
            while rest:
                n = next((x for x in rest if seen.intersection(rels[x].attrs)), rest[0])
                rest.remove(n)
                joins.append((n, tuple(a for a in rels[n].attrs if a in seen)))
                seen.update(rels[n].attrs)
            steps.append(Step(i, after, probe, on, tuple(joins)))
            covers.append(v)
        plan[j] = steps
    return plan


class _ViewEngine:
    """Tuple-at-a-time maintenance of the bag views over the atom sets
    ``views`` by ``view_plan``, with set-semantics output deltas.

    Base relations are sets of the atom tuples that ``cq.admits``.
    """

    def __init__(
        self,
        cq: CQ,
        views: list[frozenset[str]],
        post_filter: Callable[[YDict], bool] | None,
        max_view_rows: int | None,
    ) -> None:
        self.cq = cq
        self.post_filter = post_filter
        self.max_view_rows = max_view_rows
        self.view_attrs = [attrs_of(cq, v) for v in views]
        self.views: list[Counter] = [Counter() for _ in views]
        self.base: dict[str, set] = {r.name: set() for r in cq.relations}
        self.result_bag: Counter = Counter()
        self.stats = {"updates": 0, "deltas": 0, "view_rows_touched": 0}
        # per view, its index on each probe key: key -> view rows; per
        # atom, its index on each join key: key -> atom tuples
        self._view_idx: list[dict[tuple, dict]] = [{} for _ in views]
        self._base_idx: dict[str, dict[tuple, dict]] = {n: {} for n in self.base}
        rels = {r.name: r for r in cq.relations}
        self._atoms = {}
        for j, steps in view_plan(cq, views).items():
            compiled = []
            for s in steps:
                probe = None if s.probe is None else (
                    self.views[s.probe], self.view_attrs[s.probe], s.on,
                    self._view_idx[s.probe].setdefault(s.on, {}))
                joins = [(rels[n].attrs, on, self._base_idx[n].setdefault(on, {}))
                         for n, on in s.joins]
                compiled.append((s.view, s.after, probe, joins))
            self._atoms[j] = (rels[j].attrs, compiled)

    def apply(self, u: Update) -> list[tuple[int, tuple]]:
        out: list[tuple[int, tuple]] = []
        t = u.tuple
        for atom in self.cq.atoms_of_stream(u.stream):
            if self.cq.admits(atom.name)(t):
                out.extend(self._apply_atom(atom.name, t, u.is_insert))
        self.stats["updates"] += 1
        self.stats["deltas"] += len(out)
        return out

    def run(self, seq: Iterable[Update]) -> list[tuple[int, tuple]]:
        out: list[tuple[int, tuple]] = []
        for u in seq:
            out.extend(self.apply(u))
        return out

    def _apply_atom(self, rel: str, t: tuple, is_insert: bool) -> list[tuple[int, tuple]]:
        base = self.base[rel]
        if (t in base) == is_insert:
            return []
        attrs, steps = self._atoms[rel]
        sign = 1 if is_insert else -1
        td = dict(zip(attrs, t))
        # a step's probe view and joined atoms exclude ``rel``, so no
        # step reads state that this update changes
        deltas: list[list[tuple[dict, int]]] = []
        for view, after, probe, joins in steps:
            if after is not None:
                rows = deltas[after]
            elif probe is None:
                rows = [(td, 1)]
            else:
                v, vattrs, on, idx = probe
                rows = []
                for key in idx.get(tuple(td[a] for a in on), ()):
                    row = dict(zip(vattrs, key))
                    row.update(td)
                    rows.append((row, v[key]))
            for natts, on, idx in joins:
                nxt = []
                for row, m in rows:
                    for t2 in idx.get(tuple(row[a] for a in on), ()):
                        r2 = dict(row)
                        r2.update(zip(natts, t2))
                        nxt.append((r2, m))
                rows = nxt
            deltas.append(rows)
            if view is not None:
                self._fold(view, rows, sign)
        if is_insert:
            base.add(t)
        else:
            base.remove(t)
        for on, idx in self._base_idx[rel].items():
            _index(idx, tuple(td[a] for a in on), t, is_insert)
        return self._emit(deltas[-1], sign)

    def _fold(self, i: int, rows: list[tuple[dict, int]], sign: int) -> None:
        v, attrs, idxs = self.views[i], self.view_attrs[i], self._view_idx[i].items()
        for row, m in rows:
            key = tuple(row[a] for a in attrs)
            before = v[key]
            after = before + sign * m
            if after:
                v[key] = after
            else:
                del v[key]
            if (before > 0) != (after > 0):
                for on, idx in idxs:
                    _index(idx, tuple(row[a] for a in on), key, after > 0)
        self.stats["view_rows_touched"] += len(rows)
        if self.max_view_rows is not None and len(v) > self.max_view_rows:
            raise MemoryError(f"view {i} over {self.view_attrs[i]} exceeded "
                              f"{self.max_view_rows} rows")

    def _emit(self, rows: list[tuple[dict, int]], sign: int) -> list[tuple[int, tuple]]:
        """Project ΔQ onto the output; emit the tuples whose multiplicity
        crossed 0."""
        out: list[tuple[int, tuple]] = []
        bag, keep = self.result_bag, self.post_filter
        for row, m in rows:
            if keep is not None and not keep(row):
                continue
            key = tuple(row[a] for a in self.cq.output)
            before = bag[key]
            after = before + sign * m
            if after:
                bag[key] = after
            else:
                del bag[key]
            if before <= 0 < after:
                out.append((1, key))
            elif after <= 0 < before:
                out.append((-1, key))
        return out

    def full_result_set(self) -> set[tuple]:
        return {t for t, m in self.result_bag.items() if m > 0}

    def space(self) -> int:
        total = sum(len(s) for s in self.base.values())
        total += sum(len(v) for v in self.views)
        return total + len(self.result_bag)


def _index(idx: dict, k: tuple, x: object, add: bool) -> None:
    if add:
        idx.setdefault(k, set()).add(x)
    else:
        s = idx[k]
        s.discard(x)
        if not s:
            del idx[k]


class StandardCPEngine(_ViewEngine):
    """Standard change propagation over a left-deep plan: the Flink SQL
    and Trill proxies of Table 1 and Figs. 7, 8, 11 and 12."""

    def __init__(
        self,
        cq: CQ,
        post_filter: Callable[[YDict], bool] | None = None,
        max_view_rows: int | None = None,
    ) -> None:
        super().__init__(cq, prefixes(cq), post_filter, max_view_rows)


class FirstOrderHIVMEngine(_ViewEngine):
    """First-order HIVM: every atom but one is materialized, per atom.

    DBToaster materializes deltas recursively; one level is enough to
    reproduce the experimental shape (huge auxiliary views, data-dependent
    update cost) without replicating its compiler.
    """

    def __init__(
        self,
        cq: CQ,
        post_filter: Callable[[YDict], bool] | None = None,
        max_view_rows: int | None = None,
    ) -> None:
        super().__init__(cq, all_but_one(cq), post_filter, max_view_rows)
