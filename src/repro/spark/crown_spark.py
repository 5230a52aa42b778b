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

Output. ΔQ is enumerated on the driver, top-down from the root tuples
above a changed V_s tuple (Lemma 5.1/5.3: output-proportional). The
tuples of d are climbed to the root while the nodes are maintained —
each node's fetch also brings its stored tuples under a child's
climbing tuples — and seed the pass. One collect per tree depth fetches
the weighted rows it needs: the root's rows under the seeds together
with depth 1's rows under the seeds' keys, then each deeper node's rows
under the keys of the partial results joined so far. A row of V_s
counts (1, 1) as old/new derivation weights and a row of d (−sign, 0),
so a tuple's weights sum to its old and new membership; d counts only
at a node it changed in this batch, since a node keeps the d of the
last batch that changed it. The driver joins level by level on the
node keys, multiplies the weights, sums them per output tuple, and
keeps the non-zero signs [Σ _n > 0] − [Σ _o > 0]. The result is a local
frame: collecting it runs no Spark job. ``full_result`` is state-sized
and stays a Spark plan of top-down joins.

This is the foreachBatch-equivalent of a Structured Streaming job,
driven synchronously for deterministic tests (DESIGN.md § layering).
"""
from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Callable, Hashable, Iterable, Sequence
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


def _summed(rows: Iterable[tuple[tuple, int, int]]) -> dict[tuple, tuple[int, int]]:
    """Each distinct tuple of ``rows`` (tuple, old weight, new weight)
    with its summed weights; tuples whose sums are both 0 are dropped."""
    out: dict[tuple, list[int]] = defaultdict(lambda: [0, 0])
    for t, o, n in rows:
        w = out[t]
        w[0] += o
        w[1] += n
    return {t: (o, n) for t, (o, n) in out.items() if o or n}


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
        # ΔQ's fetches: the nodes one tree depth at a time, the root with
        # depth 1
        levels = [[self.tree.root]]
        while kids := [c for n in levels[-1] for c in self.nodes[n].children]:
            levels.append(kids)
        self.fetches = [sum(levels[:2], []), *levels[2:]]
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
        batches = self._batches(stream_deltas)
        done: dict[str, _Change] = {}  # nodes with affected tuples
        for name in self.tree.postorder():
            batch = batches.get(name, {})
            kids = {c: done[c] for c in self.nodes[name].children if c in done}
            if not batch and not kids:
                continue
            change = self._maintain(self.nodes[name], batch, kids)
            if change.affected:
                done[name] = change
        self.batches += 1
        return self._output_delta(done)

    def _batches(self, stream_deltas: dict[str, DataFrame]) -> dict[str, dict[tuple, int]]:
        """Each relation node's tuples of the batch, after its atom's
        selection, with their signs. Each stream frame is collected once,
        without a Spark job if it is built from local data (a
        ``LocalRelation``); an atom's selection then filters those rows
        as a local frame, which runs no job either."""
        rows: dict[str, list[tuple]] = {}
        out: dict[str, dict[tuple, int]] = {}
        for atom in self.cq.relations:
            if atom.stream not in stream_deltas:
                continue
            name = self.tree.relation_node(atom.name)
            if atom.stream not in rows:
                rows[atom.stream] = [tuple(r) for r in stream_deltas[atom.stream].collect()]
            got = rows[atom.stream]
            flt = self.atom_filters.get(atom.name)
            if flt is not None and got:
                cols = ["sign", *self.nodes[name].attrs]
                got = local_frame(self.spark, got, cols).filter(flt).collect()
            out[name] = {tuple(r[1:]): r[0] for r in got}
        return out

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

    @staticmethod
    def _fetch(pieces: list[tuple[Hashable, Sequence[str], DataFrame]]
               ) -> dict[Hashable, dict[tuple, int]]:
        """One action for ``pieces`` (tag, columns, frame of some of those
        columns and ``_v``): per tag, each row on its columns (NULL where
        the frame has none) and its ``_v``."""
        out: dict[Hashable, dict[tuple, int]] = defaultdict(dict)
        if not pieces:
            return out
        widths = {tag: len(cols) for tag, cols, _ in pieces}
        tags, width = list(widths), max(widths.values())
        frames = []
        for tag, cols, df in pieces:
            have = set(df.columns)
            frames.append(df.selectExpr(
                *[f"`{a}` AS _c{i}" if a in have else f"CAST(NULL AS BIGINT) AS _c{i}"
                  for i, a in enumerate(cols)],
                *[f"CAST(NULL AS BIGINT) AS _c{i}" for i in range(len(cols), width)],
                f"{tags.index(tag)}L AS _t", "CAST(_v AS BIGINT) AS _v",
            ))
        for r in _union(frames).collect():
            tag = tags[r[width]]
            out[tag][tuple(r[:widths[tag]])] = r[width + 1]
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
        pieces = [(OWN_ROW, attrs, self._filter(node.rows(), cols, ks, True))
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
            pieces += [(tag, attrs, self._filter(df, cols, ks if tag == OWN_VP else _non_null(ks),
                                                 True))
                       for cols, ks in lits]
        got = self._fetch(pieces)

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
                pieces.append((tag, attrs, self._filter(df, key, lit, True)))
            got.update(self._fetch(pieces))
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
        """ΔQ of the batch as a local frame: the weighted top-down join,
        on the driver, from the root tuples above a changed V_s tuple. A
        superset of the affected tuples is safe: unchanged outputs get
        sign 0."""
        y = self.cq.output
        root = self.nodes[self.tree.root]
        # the partial results over ``cols`` and their weights; first, the
        # seeds, under whose keys depth 1 is fetched with the root
        cols, acc = list(root.attrs), done[root.name].affected if root.name in done else {}
        later = sum(self.fetches, [])  # the nodes not yet joined
        for names in self.fetches:
            if not acc:
                break
            pieces = []
            for name in names:
                node = self.nodes[name]
                if node is root:  # its own tuples: a NULL matches a NULL
                    pieces.append(self._weighted_rows(node, cols, acc, done))
                else:
                    keys = _non_null(map(_proj(cols, node.key), acc))
                    pieces.append(self._weighted_rows(node, node.key, keys, done))
            got = self._fetch(pieces)
            for name in names:
                node = self.nodes[name]
                later.remove(name)
                if node is root:
                    acc = self._weights(got, node, cols)
                    continue
                # keep y and the keys of the nodes still to join
                need = set(y).union(*(self.nodes[n].key for n in later))
                extra = [a for a in node.attrs if a in need and a not in node.key]
                side: dict[tuple, list] = defaultdict(list)
                for t, w in self._weights(got, node, node.key + extra).items():
                    side[t[:len(node.key)]].append((t[len(node.key):], w))
                on, kept = _proj(cols, node.key), [c for c in cols if c in need]
                keep = _proj(cols, kept)
                acc = _summed((keep(t) + rest, o * o2, n * n2) for t, (o, n) in acc.items()
                              for rest, (o2, n2) in side.get(on(t), ()))
                cols = kept + extra
        rows = []
        if acc:  # else the pass stopped early, and ``cols`` may lack y
            to_y = _proj(cols, y)
            out = _summed((to_y(t), o, n) for t, (o, n) in acc.items())
            rows = [(*t, (n > 0) - (o > 0)) for t, (o, n) in out.items() if (n > 0) != (o > 0)]
        frame = local_frame(self.spark, rows, [*y, "sign"])
        return frame if self.post_filter is None else frame.filter(self.post_filter)

    def _weighted_rows(self, node: _NodeState, cols: Sequence[str], keys: Iterable[tuple],
                       done: dict[str, _Change]) -> tuple[str, list[str], DataFrame]:
        """A ``_fetch`` piece: the node's V_s rows and, if the batch
        changed it, its d rows, whose ``cols`` are among ``keys``; each
        row on the node's attributes and its kind ``_k``."""
        kinds = f"_k = {ROW} AND _v = 1"
        if node.name in done and done[node.name].d:
            kinds += f" OR _k = {DELTA}"
        rows = self._filter(node.frame.filter(kinds), cols, keys, True)
        return node.name, [*node.attrs, "_k"], rows

    @staticmethod
    def _weights(got: dict[Hashable, dict[tuple, int]], node: _NodeState,
                 cols: Sequence[str]) -> dict[tuple, tuple[int, int]]:
        """The node's fetched rows projected onto ``cols``, with summed
        old/new derivation weights: a V_s row counts (1, 1), a row of d
        (−sign, 0)."""
        to = _proj(node.attrs, cols)
        return _summed((to(t[:-1]), 1, 1) if t[-1] == ROW else (to(t[:-1]), -v, 0)
                       for t, v in got[node.name].items())

    def _below_keys(self, name: str) -> set[str]:
        """Attrs of ``name`` needed as join keys by its children."""
        need: set[str] = set()
        for c in self.tree.node(name).children:
            need |= set(self.nodes[c].key)
        return need

    def full_result(self) -> DataFrame:
        """Q(D): the Yannakakis top-down join of the V_s frames, a Spark
        plan, as it is state-sized. Output-proportional by Lemma 5.1 (no
        dangling tuples anywhere)."""
        y = set(self.cq.output)
        acc = self.nodes[self.tree.root].vs()
        for name in self.tree.preorder()[1:]:
            node = self.nodes[name]
            keep = sorted(set(node.key) | (set(node.attrs) & (y | self._below_keys(name))))
            side = node.vs().selectExpr(*_quoted(keep))
            if len(keep) < len(node.attrs):
                side = side.distinct()
            acc = side.join(acc, node.key or None, "inner")
        out = acc.selectExpr(*_quoted(self.cq.output)).distinct()
        if self.post_filter is not None:
            out = out.filter(self.post_filter)
        return out

    def state_rows(self) -> int:
        """Every stored row — R_e (V_s is a flag on it), the counted V_p
        and the last V_s delta — which stays linear in |D| (Lemma 4.1)."""
        return sum(s.frame.count() for s in self.nodes.values())
