"""SparkCrown: micro-batch change propagation without joins (DataFrame API).

The tuple-at-a-time algorithms of §4 vectorize per micro-batch.

State. Every node of the free-connex generalized join tree keeps one
checkpointed frame: its attribute columns plus a row kind ``_k`` and a
value ``_v``.

- ``ROW``: a tuple of R_e, ``_v`` = 1 if it is in the semi-join view
  V_s, else 0. A generalized node's R_e is virtual (the union of its
  defining children's V_p's, Example 4.2), so it keeps its V_s rows only.
- ``VP``: the counted V_p = π_key V_s: one row per key, ``_v`` = the
  number of V_s tuples that carry it (derivation counting, §4, at batch
  granularity). The node's other attribute columns are null.
- ``DELTA``: the V_s delta d of the last batch that changed the node,
  ``_v`` = its sign.

Maintenance. A batch (one event per tuple) is pushed through the atom
selections and propagated bottom-up. A node is re-evaluated only on its
*candidates*: the batch's own tuples and the stored tuples under a
child's changed key. What is batch-sized lives on the driver: the
batch's tuples, each node's d, the V_p keys whose count crossed 0 and
the tuples that climb to the root. A membership test against such a
list is a literal predicate compiled on the driver — ``IN`` for one
column, tuple ``IN`` for several, ``TRUE``/``FALSE`` for none. A key
from another node (a child's key or V_p entry) holding a NULL matches
nothing, as in a join; a node's own tuple holding one matches its
stored copy (``<=>``). Only a list longer than
``LITERAL_KEYS`` (a bulk load) is joined against instead, as a
broadcast frame.

Per touched node, one collect fetches what the candidates need: the
stored rows under the literal keys, the children's V_p entries and the
node's own V_p counts. Where a candidate's key is not among the
literals (it sits under a child's key that does not cover it), a second
collect fetches those entries for the candidates the first one found.
The driver then decides each candidate's old and new membership
(formulae (3)/(4)) and moves the V_p counts by d; the keys whose count
crosses 0 drive the parent. The node's next frame is its rows outside
the literal keys plus the new rows, written on the driver; its
checkpoint is the node's last action. No state frame is shuffled and no
two views are ever joined.

Output. ΔQ comes from one seeded Yannakakis pass (top-down joins, Lemma
5.1/5.3 — output-proportional) over old ∪ new V_s. The tuples of d are
climbed to the root on the driver — each node's fetch also brings its
stored tuples under a child's climbing tuples — and seed the pass. Each
row carries old/new derivation weights (``_o``, ``_n``): a row of the
new V_s counts (1, 1) and a row of d (−sign, 0), so a tuple's weights
sum to its old and new membership. The joins multiply weights,
projections sum them, and an output tuple's sign is
[Σ _n > 0] − [Σ _o > 0]; only non-zero signs are kept. The returned
frame is lazy: materializing it is the batch's last action.

This is the foreachBatch-equivalent of a Structured Streaming job,
driven synchronously for deterministic tests (DESIGN.md § layering).
"""
from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from functools import reduce

from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.cq.join_tree import JoinTree, checked_tree
from repro.cq.query import CQ
from repro.spark.state import (
    anti, checkpoint, empty_df, local_frame, selection_filters, semi,
)

# row kinds of a node frame (column ``_k``)
ROW, VP, DELTA = 0, 1, 2
# tags of a node's fetched rows (column ``_k`` of a fetch); a child's
# V_p entries carry the child's index
OWN_ROW, OWN_VP = -1, -2
# A literal list longer than this is joined against as a broadcast
# frame. Filtering a 20K-row frame (local[4], median of 5) took, literal
# vs broadcast: 1 column, 1,000 keys 64 vs 96 ms, 10,000 keys 227 vs
# 184 ms; 2 columns (tuple IN), 300 keys 90 vs 111 ms, 1,000 keys 158 vs
# 112 ms, 10,000 keys 1,048 vs 162 ms.
LITERAL_KEYS = 500

Keys = dict[tuple[str, ...], set[tuple]]  # column tuple -> its literal keys


def _union(frames: list[DataFrame]) -> DataFrame:
    return reduce(DataFrame.unionByName, frames)


def _quoted(cols: Iterable[str]) -> list[str]:
    return [f"`{c}`" for c in cols]


def _sum_weights(df: DataFrame) -> DataFrame:
    """Project away duplicates, summing their derivation weights."""
    rest = [c for c in df.columns if c not in ("_o", "_n")]
    return df.groupBy(*rest).agg(F.expr("sum(_o) AS _o"), F.expr("sum(_n) AS _n"))


def _proj(src: Sequence[str], cols: Sequence[str]) -> Callable[[tuple], tuple]:
    """Maps a tuple over ``src`` to its values on ``cols``."""
    idx = [list(src).index(c) for c in cols]
    return lambda t: tuple(t[i] for i in idx)


def _non_null(keys: Iterable[tuple]) -> set[tuple]:
    """The keys that can match another node's rows: as in a join, a
    NULL matches nothing."""
    return {k for k in keys if None not in k}


def _member(cols: Sequence[str], keys: list[tuple]) -> str:
    """SQL for "the row's ``cols`` are one of ``keys``". A key holding a
    NULL matches a NULL there (``<=>``). It is never NULL, so its
    negation keeps the rows it does not match, as an anti-join does."""
    plain = [k for k in keys if None not in k]
    terms = []
    if len(cols) == 1 and plain:
        terms.append(f"coalesce(`{cols[0]}` IN ({', '.join(f'{k[0]}L' for k in plain)}), false)")
    elif plain:
        lits = ", ".join("(" + ", ".join(f"{v}L" for v in k) + ")" for k in plain)
        terms.append(f"({', '.join(_quoted(cols))}) IN ({lits})")
    terms += [
        "(" + " AND ".join(f"`{c}` <=> {'NULL' if v is None else f'{v}L'}"
                           for c, v in zip(cols, k)) + ")"
        for k in keys if None in k
    ]
    return terms[0] if len(terms) == 1 else f"({' OR '.join(terms)})"


@dataclass
class _NodeState:
    name: str
    attrs: list[str]
    key: list[str]
    children: list[str]
    is_gen: bool
    frame: DataFrame  # checkpointed; see the module docstring
    keys: set[tuple] = field(default_factory=set)  # V_p keys that crossed 0 last

    def kind(self, k: int) -> DataFrame:
        return self.frame.filter(f"_k = {k}")

    def rows(self) -> DataFrame:
        return self.kind(ROW).select(*self.attrs, "_v")

    def vs(self) -> DataFrame:
        return self.kind(ROW).filter("_v = 1").select(self.attrs)

    def counts(self) -> DataFrame:
        return self.kind(VP).select(*self.key, "_v")

    def vp(self) -> DataFrame:
        return self.counts().withColumnRenamed("_v", "cnt")

    def changed_keys(self) -> DataFrame:
        """The V_p keys whose count crossed 0 in the last batch that
        touched the node."""
        return local_frame(self.frame.sparkSession, list(self.keys), self.key)

    def weighted(self, with_delta: bool) -> DataFrame:
        """V_s with old/new derivation weights. With this batch's V_s
        delta, its rows are added, so that each tuple's weights sum to
        its old and new membership."""
        cols = _quoted(self.attrs)
        out = self.vs().selectExpr(*cols, "1 AS _o", "1 AS _n")
        if with_delta:
            out = out.unionByName(self.kind(DELTA).selectExpr(*cols, "-_v AS _o", "0 AS _n"))
        return out

    def tagged(self, kind: int, df: DataFrame) -> DataFrame:
        """``df`` (some attribute columns and ``_v``) as rows of ``kind``,
        null-padded to the frame's columns."""
        have = set(df.columns)
        return df.selectExpr(
            *[f"`{a}`" if a in have else f"CAST(NULL AS BIGINT) AS `{a}`" for a in self.attrs],
            f"CAST({kind} AS BIGINT) AS _k",
            "CAST(_v AS BIGINT) AS _v",
        )


@dataclass
class _Change:
    """A node's batch results, on the driver (tuples in attribute order,
    keys in key order)."""
    d: dict[tuple, int]  # V_s delta: tuple -> ±1
    keys: set[tuple]  # V_p keys whose count crossed 0
    affected: set[tuple]  # d and the tuples above a child's affected ones


class SparkCrown:
    """Micro-batch CROWN over Spark DataFrames.

    ``stats`` describes the last batch: for each node it re-evaluated,
    the number of candidates, of V_s delta tuples and of V_p keys whose
    count crossed 0.
    """

    def __init__(
        self,
        spark: SparkSession,
        cq: CQ,
        tree: JoinTree | None = None,
        post_filter: Column | None = None,
        atom_filters: dict[str, Column] | None = None,
    ) -> None:
        self.spark = spark
        self.cq = cq
        self.tree = checked_tree(cq, tree)
        self.post_filter = post_filter
        # a passed map replaces the filters compiled from ``cq.where``
        self.atom_filters = atom_filters if atom_filters is not None else selection_filters(cq)
        self.nodes: dict[str, _NodeState] = {}
        for name in self.tree.postorder():
            tn = self.tree.node(name)
            attrs = list(tn.attrs)
            self.nodes[name] = _NodeState(
                name=name,
                attrs=attrs,
                key=list(self.tree.key(name)),
                children=list(tn.children),
                is_gen=tn.is_generalized,
                frame=empty_df(spark, attrs + ["_k", "_v"]),
            )
        # a node frame is a union of pieces; coalescing it before the
        # checkpoint keeps its partition count from growing per batch
        self.partitions = spark.sparkContext.defaultParallelism
        self.batches = 0
        self.stats: dict[str, dict[str, int]] = {}

    # ------------------------------------------------------------------
    def process_batch(
        self, stream_deltas: dict[str, DataFrame]
    ) -> DataFrame:
        """Apply one batch; return the signed output delta frame.

        ``stream_deltas[stream]`` carries a ``sign`` column (±1) plus
        the stream's value columns, already compacted: one event per
        tuple, the last one in the batch.
        """
        self.stats = {}
        done: dict[str, _Change] = {}  # nodes with affected tuples
        for name in self.tree.postorder():
            batch = self._batch(name, stream_deltas)
            kids = {c: done[c] for c in self.nodes[name].children if c in done}
            if not batch and not kids:
                continue
            change = self._maintain(self.nodes[name], batch, kids)
            if change.affected:
                done[name] = change
        self.batches += 1
        if self.tree.root not in done:
            return empty_df(self.spark, list(self.cq.output) + ["sign"])
        return self._output_delta(done)

    def _batch(self, name: str, stream_deltas: dict[str, DataFrame]) -> dict[tuple, int]:
        """The batch's tuples of a relation node, after the atom's
        selection, with their signs. A batch built from local data (a
        ``LocalRelation``) is filtered and collected without a Spark job."""
        tn = self.tree.node(name)
        if tn.relation is None:
            return {}
        atom = self.cq.relation(tn.relation)
        sd = stream_deltas.get(atom.stream)
        if sd is None:
            return {}
        out = sd.toDF("sign", *self.nodes[name].attrs)
        flt = self.atom_filters.get(atom.name)
        if flt is not None:
            out = out.filter(flt)
        return {tuple(r[1:]): r[0] for r in out.collect()}

    def _filter(self, df: DataFrame, cols: Sequence[str], keys: Iterable[tuple],
                keep: bool) -> DataFrame:
        """The rows of ``df`` whose ``cols`` are (``keep``) or are not
        among the driver-side ``keys``. A NULL in a key matches a NULL:
        a node's own tuples are matched against their stored copies.
        Keys from another node go through ``_non_null`` first."""
        keys = list(keys)
        if not cols or not keys:
            return df if bool(keys) == keep else df.filter("false")
        if len(keys) <= LITERAL_KEYS:
            pred = _member(cols, keys)
            return df.filter(pred if keep else f"NOT {pred}")
        small = local_frame(self.spark, keys, list(cols))
        if all(None not in k for k in keys):
            return (semi if keep else anti)(df, small, list(cols))
        small = small.toDF(*(f"_{c}" for c in cols))
        on = reduce(Column.__and__, (df[c].eqNullSafe(small[f"_{c}"]) for c in cols))
        return df.join(F.broadcast(small), on, "left_semi" if keep else "left_anti")

    def _fetch(self, node: _NodeState, pieces: list[tuple[int, DataFrame]]
               ) -> dict[int, dict[tuple, int]]:
        """One action for ``pieces`` (tag, frame of some of the node's
        attribute columns and ``_v``): per tag, each row (null-padded to
        the node's attributes) and its ``_v``."""
        out: dict[int, dict[tuple, int]] = defaultdict(dict)
        if pieces:
            n = len(node.attrs)
            for r in _union([node.tagged(tag, df) for tag, df in pieces]).collect():
                out[r[n]][tuple(r[:n])] = r[n + 1]
        return out

    def _maintain(self, node: _NodeState, batch: dict[tuple, int],
                  kids: dict[str, _Change]) -> _Change:
        """Re-evaluate ``node`` on its candidates, write its next frame,
        and return its delta, crossed keys and affected tuples."""
        attrs, full, root = node.attrs, set(node.attrs), node.name == self.tree.root
        children = [self.nodes[c] for c in node.children]
        # the candidates: the tuples under some literal keys, per column
        # tuple
        cand_keys: Keys = defaultdict(set)
        if batch:
            cand_keys[tuple(attrs)] |= set(batch)
        for c in children:
            if c.name in kids:
                cand_keys[tuple(c.key)] |= _non_null(kids[c.name].keys)
        # stored rows are also fetched under a child's affected tuples,
        # to climb them
        row_keys: Keys = defaultdict(set, {cols: set(ks) for cols, ks in cand_keys.items()})
        for c in children:
            if c.name in kids and set(c.key) != full:
                up = _proj(c.attrs, c.key)
                row_keys[tuple(c.key)] |= _non_null(map(up, kids[c.name].affected))

        # the V_p entries the candidates need: each child's, and the
        # node's own counts but at the root
        frames = {i: (c.counts(), c.key) for i, c in enumerate(children)}
        if not root:
            frames[OWN_VP] = (node.counts(), node.key)
        pieces = [(OWN_ROW, self._filter(node.rows(), cols, ks, True))
                  for cols, ks in row_keys.items()]
        late = []
        for tag, (df, key) in frames.items() if cand_keys else ():
            if set(key) == full:
                lits = list(cand_keys.items())
            elif all(set(key) <= set(cols) for cols in cand_keys):
                lits = [(key, {_proj(cols, key)(k) for cols, ks in cand_keys.items() for k in ks})]
            else:
                late.append(tag)
                continue
            # a child's V_p belongs to another node: there a NULL matches nothing
            pieces += [(tag, self._filter(df, cols, ks if tag == OWN_VP else _non_null(ks), True))
                       for cols, ks in lits]
        got = self._fetch(node, pieces)

        stored = got[OWN_ROW]
        tests = [(_proj(attrs, cols), ks) for cols, ks in cand_keys.items()]
        was = {t: v for t, v in stored.items() if any(p(t) in ks for p, ks in tests)}
        cands = set(batch) | set(was)
        if node.is_gen:
            # R_e is virtual: the defining children's V_p tuples
            cands |= {t for i, c in enumerate(children) if set(c.key) == full for t in got[i]}
        if late and cands:
            pieces = []
            for tag in late:
                df, key = frames[tag]
                lit = set(map(_proj(attrs, key), cands))
                lit = lit if tag == OWN_VP else _non_null(lit)
                pieces.append((tag, self._filter(df, key, lit, True)))
            got.update(self._fetch(node, pieces))
        projs = [_proj(attrs, c.key) for c in children]
        held = [(p, set(map(p, got[i]))) for i, p in enumerate(projs)]

        # formulae (3)/(4): in the new V_s iff in R_e and every child's
        # V_p holds the tuple's key
        d, new_rows = {}, {}
        for t in cands:
            alive = all(p(t) in hit for p, hit in held)
            sign = batch.get(t, 0)
            in_rel = alive if node.is_gen else sign > 0 or (sign == 0 and t in was)
            new, old = int(in_rel and alive), was.get(t, 0)
            if in_rel:
                new_rows[t] = new
            if new != old:
                d[t] = new - old

        keys: set[tuple] = set()
        counts: dict[tuple, int] = {}
        if d and not root:
            to_key = _proj(attrs, node.key)
            before = {to_key(t): v for t, v in got[OWN_VP].items()}
            moved = Counter()
            for t, s in d.items():
                moved[to_key(t)] += s
            for k, m in moved.items():
                counts[k] = before.get(k, 0) + m
                if (before.get(k, 0) > 0) != (counts[k] > 0):
                    keys.add(k)
        if d or any(new_rows.get(t) != was.get(t) for t in cands):
            self._write(node, cand_keys, new_rows, counts, d)
        node.keys = keys
        self.stats[node.name] = {"candidates": len(cands), "delta": len(d),
                                 "changed_keys": len(keys)}

        affected = set(d)
        for c in children:
            if c.name not in kids:
                continue
            if set(c.key) == full:
                down = _proj(c.attrs, attrs)
                affected |= {down(t) for t in kids[c.name].affected}
            else:
                up, ks = _proj(attrs, c.key), row_keys[tuple(c.key)]
                affected |= {t for t, v in stored.items() if v == 1 and up(t) in ks}
        return _Change(d, keys, affected)

    def _write(self, node: _NodeState, cand_keys: Keys, new_rows: dict[tuple, int],
               counts: dict[tuple, int], d: dict[tuple, int]) -> None:
        """Checkpoint the node's next frame: its rows outside the
        candidates' keys and its V_p outside the moved keys, then the
        candidates' new rows, the moved counts and d, from the driver."""
        kept = node.kind(ROW)
        for cols, ks in cand_keys.items():
            kept = self._filter(kept, cols, ks, False)
        parts = [kept]
        pad = [None] * (len(node.attrs) - len(node.key))
        lit = [(*t, ROW, v) for t, v in new_rows.items()] + [(*t, DELTA, s) for t, s in d.items()]
        if counts:
            parts.append(self._filter(node.kind(VP), node.key, counts, False))
            order = node.key + [a for a in node.attrs if a not in node.key]
            to_attrs = _proj(order, node.attrs)
            lit += [(*to_attrs(k + tuple(pad)), VP, n) for k, n in counts.items() if n > 0]
        elif node.name != self.tree.root:
            parts.append(node.kind(VP))
        if lit:
            parts.append(local_frame(self.spark, lit, node.attrs + ["_k", "_v"]))
        node.frame = checkpoint(_union(parts).coalesce(self.partitions))

    # ------------------------------------------------------------------
    def _output_delta(self, done: dict[str, _Change]) -> DataFrame:
        """ΔQ of the batch: the weighted enumeration seeded at the root
        tuples above a changed V_s tuple. A superset of the affected
        tuples is safe: unchanged outputs get sign 0."""
        u = {name: node.weighted(name in done and bool(done[name].d))
             for name, node in self.nodes.items()}
        root = self.tree.root
        seeded = self._filter(u[root], self.nodes[root].attrs, done[root].affected, True)
        out = self._enumerate(u, seeded, delta=True).selectExpr(
            *_quoted(self.cq.output), "CAST(_n > 0 AS BIGINT) - CAST(_o > 0 AS BIGINT) AS sign"
        ).filter("sign != 0")
        if self.post_filter is not None:
            out = out.filter(self.post_filter)
        return out

    def _enumerate(
        self, u: dict[str, DataFrame], acc: DataFrame, delta: bool
    ) -> DataFrame:
        """Yannakakis top-down join of the weighted V_s frames ``u`` from
        the root rows ``acc``, projected to y with summed weights.

        Output-proportional by Lemma 5.1 (no dangling tuples anywhere).
        For a ``delta`` pass ``acc`` is delta-sized and is broadcast.
        """
        y = set(self.cq.output)
        for name in self.tree.preorder()[1:]:
            node = self.nodes[name]
            keep = sorted(set(node.key) | (set(node.attrs) & (y | self._below_keys(name))))
            side = u[name].selectExpr(*_quoted(keep), "_o AS _o2", "_n AS _n2")
            acc = side.join(F.broadcast(acc) if delta else acc, node.key or None, "inner")
            rest = [c for c in acc.columns if c not in ("_o", "_n", "_o2", "_n2")]
            acc = acc.selectExpr(*_quoted(rest), "_o * _o2 AS _o", "_n * _n2 AS _n")
            if len(keep) < len(node.attrs):
                acc = _sum_weights(acc)
        return _sum_weights(acc.select(*self.cq.output, "_o", "_n"))

    def _below_keys(self, name: str) -> set[str]:
        """Attrs of ``name`` needed as join keys by its children."""
        need: set[str] = set()
        for c in self.tree.node(name).children:
            need |= set(self.nodes[c].key)
        return need

    def full_result(self) -> DataFrame:
        u = {name: node.weighted(False) for name, node in self.nodes.items()}
        out = self._enumerate(u, u[self.tree.root], delta=False).select(*self.cq.output)
        if self.post_filter is not None:
            out = out.filter(self.post_filter)
        return out

    def state_rows(self) -> int:
        """Every stored row — R_e (V_s is a flag on it), the counted V_p
        and the last V_s delta — which stays linear in |D| (Lemma 4.1)."""
        return sum(s.frame.count() for s in self.nodes.values())
