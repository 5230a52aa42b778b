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
- ``KEYS``: the V_p keys whose count crossed 0 in the last batch that
  touched the node.

Maintenance. A batch (one event per tuple) is pushed through the atom
selections and propagated bottom-up. A node is re-evaluated only on its
*candidates*: the batch's own tuples and the stored tuples under a
child's changed key. One union and group-by gives every candidate a
flag per membership test — in the old R_e, in the old V_s, and how many
children hold its key in their V_p (formulae (3)/(4)). This candidate
status is checkpointed; the V_s delta d is its rows whose membership
flipped. The node's next frame is then derived from it — untouched rows
are kept, candidates replaced — and a group-by of d moves the V_p
counts; the keys that cross 0 drive the parent. Every join broadcasts
its delta-sized side, so no state frame is shuffled and no two views
are ever joined. The two checkpoints are the only actions per touched
node; no emptiness test runs.

Output. ΔQ comes from one seeded Yannakakis pass (top-down joins, Lemma
5.1/5.3 — output-proportional) over old ∪ new V_s. The tuples of d are
climbed to the root, where they seed the pass. Each row carries old/new
derivation weights (``_o``, ``_n``): a row of the new V_s counts (1, 1)
and a row of d (−sign, 0), so a tuple's weights sum to its old and new
membership. The joins multiply weights, projections sum them, and an
output tuple's sign is [Σ _n > 0] − [Σ _o > 0]; only non-zero signs are
kept. The returned frame is lazy: materializing it is the batch's last
action.

This is the foreachBatch-equivalent of a Structured Streaming job,
driven synchronously for deterministic tests (DESIGN.md § layering).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.cq.join_tree import JoinTree, best_tree
from repro.cq.query import CQ
from repro.spark.state import anti, checkpoint, empty_df, selection_filters, semi

# row kinds of a node frame (column ``_k``)
ROW, VP, KEYS = 0, 1, 2


def _union(frames: list[DataFrame]) -> DataFrame:
    return reduce(DataFrame.unionByName, frames)


def _quoted(cols: list[str]) -> list[str]:
    return [f"`{c}`" for c in cols]


def _sum_weights(df: DataFrame) -> DataFrame:
    """Project away duplicates, summing their derivation weights."""
    rest = [c for c in df.columns if c not in ("_o", "_n")]
    return df.groupBy(*rest).agg(F.expr("sum(_o) AS _o"), F.expr("sum(_n) AS _n"))


@dataclass
class _NodeState:
    name: str
    attrs: list[str]
    key: list[str]
    children: list[str]
    def_children: list[str]
    is_gen: bool
    frame: DataFrame  # checkpointed; see the module docstring

    def kind(self, k: int) -> DataFrame:
        return self.frame.filter(f"_k = {k}")

    def rows(self) -> DataFrame:
        return self.kind(ROW).select(*self.attrs, "_v")

    def vs(self) -> DataFrame:
        return self.kind(ROW).filter("_v = 1").select(self.attrs)

    def vp(self) -> DataFrame:
        return self.kind(VP).selectExpr(*_quoted(self.key), "_v AS cnt")

    def changed_keys(self) -> DataFrame:
        return self.kind(KEYS).select(self.key)

    def weighted(self, d: DataFrame | None) -> DataFrame:
        """V_s with old/new derivation weights. With this batch's V_s
        delta ``d``, its rows are added, so that each tuple's weights sum
        to its old and new membership."""
        cols = _quoted(self.attrs)
        out = self.vs().selectExpr(*cols, "1 AS _o", "1 AS _n")
        if d is not None:
            out = out.unionByName(d.selectExpr(*cols, "-sign AS _o", "0 AS _n"))
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


class SparkCrown:
    """Micro-batch CROWN over Spark DataFrames."""

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
        self.tree = tree if tree is not None else best_tree(cq)
        if not self.tree.is_free_connex_tree():
            raise ValueError("tree is not a valid free-connex join tree")
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
                def_children=list(self.tree.defining_children(name)),
                is_gen=tn.is_generalized,
                frame=empty_df(spark, attrs + ["_k", "_v"]),
            )
        # a node frame is a union of pieces; coalescing it before the
        # checkpoint keeps its partition count from growing per batch
        self.partitions = spark.sparkContext.defaultParallelism
        self.batches = 0

    # ------------------------------------------------------------------
    def process_batch(
        self, stream_deltas: dict[str, DataFrame]
    ) -> DataFrame:
        """Apply one batch; return the signed output delta frame.

        ``stream_deltas[stream]`` carries a ``sign`` column (±1) plus
        the stream's value columns, already compacted: one event per
        tuple, the last one in the batch.
        """
        deltas: dict[str, DataFrame] = {}  # V_s delta of each touched node
        for name in self.tree.postorder():
            node = self.nodes[name]
            rel_delta = self._rel_delta(name, stream_deltas)
            changed = [self.nodes[c] for c in node.children if c in deltas]
            if rel_delta is None and not changed:
                continue
            rows = node.rows()
            status = checkpoint(self._status(node, rows, rel_delta, changed))
            d = status.filter("_n != _o").selectExpr(*_quoted(node.attrs), "_n - _o AS sign")
            frame = self._next_frame(node, rows, status, d)
            node.frame = checkpoint(frame.coalesce(self.partitions))
            deltas[name] = d
        self.batches += 1
        if not deltas:
            return empty_df(self.spark, list(self.cq.output) + ["sign"])
        return self._output_delta(deltas)

    def _rel_delta(
        self, name: str, stream_deltas: dict[str, DataFrame]
    ) -> DataFrame | None:
        """The batch's (sign, attrs…) rows for a relation node, after
        the atom's selection; None if the batch does not feed it."""
        tn = self.tree.node(name)
        if tn.relation is None:
            return None
        atom = self.cq.relation(tn.relation)
        sd = stream_deltas.get(atom.stream)
        if sd is None:
            return None
        out = sd.toDF("sign", *self.nodes[name].attrs)
        flt = self.atom_filters.get(atom.name)
        return out.filter(flt) if flt is not None else out

    def _under(self, node: _NodeState, rows: DataFrame, child: _NodeState) -> DataFrame:
        """The node's tuples whose key to ``child`` changed this batch."""
        keys = child.changed_keys()
        if not node.is_gen:
            return semi(rows, keys, child.key)
        if child.name in node.def_children:
            return keys
        # R_e of a generalized node: its defining children's (new) V_p keys
        return _union([
            semi(self.nodes[d].vp(), keys, child.key) for d in node.def_children
        ])

    def _status(
        self,
        node: _NodeState,
        rows: DataFrame,
        rel_delta: DataFrame | None,
        changed: list[_NodeState],
    ) -> DataFrame:
        """Each candidate's membership, old and new: (attrs…, in_rel,
        _o = in the old V_s, _n = in the new V_s)."""
        attrs = node.attrs
        cols = _quoted(attrs)
        cand = [self._under(node, rows, c).selectExpr(*cols, "0 AS _i") for c in changed]
        if rel_delta is not None:
            cand.append(rel_delta.selectExpr(*cols, "sign AS _i"))
        cand = _union(cand)
        # one row per test a candidate passes: _i = its event's sign,
        # _r / _w = in the old R_e / V_s, _s = a child's V_p holds its key
        tests = [
            cand.selectExpr(*cols, "_i", "0 AS _r", "0 AS _w", "0 AS _s"),
            semi(rows, cand, attrs).selectExpr(*cols, "0 AS _i", "1 AS _r", "_v AS _w", "0 AS _s"),
        ]
        later = []
        for c in node.children:
            child = self.nodes[c]
            if set(child.key) == set(attrs):
                tests.append(semi(child.vp(), cand, attrs).selectExpr(
                    *cols, "0 AS _i", "0 AS _r", "0 AS _w", "1 AS _s"
                ))
            else:
                later.append(child)
        flags = _union(tests).groupBy(*attrs).agg(
            F.expr("sum(_i) AS _i"), F.expr("max(_r) AS _r"), F.expr("max(_w) AS _w"),
            F.expr("sum(_s) AS _s"),
        )
        # a child keyed on fewer attributes is probed with the
        # candidates' keys, and its hits are joined back
        for child in later:
            hits = semi(child.vp(), cand, child.key).selectExpr(*_quoted(child.key), "1 AS _h")
            flags = flags.join(F.broadcast(hits), child.key or None, "left").selectExpr(
                *cols, "_i", "_r", "_w", "_s + coalesce(_h, 0) AS _s"
            )
        alive = f"_s = {len(node.children)}"
        if node.is_gen:
            # all children hold the key, so a defining child does: in R_e
            in_rel = alive
        else:
            in_rel = "(_i > 0 OR (_i = 0 AND _r = 1))"
            alive = f"{in_rel} AND {alive}"
        return flags.selectExpr(
            *cols, f"{in_rel} AS in_rel", f"CAST({alive} AS BIGINT) AS _n", "CAST(_w AS BIGINT) AS _o"
        )

    def _next_frame(
        self, node: _NodeState, rows: DataFrame, status: DataFrame, d: DataFrame
    ) -> DataFrame:
        """The node's stored rows with the candidates' new membership, and
        for a non-root node its counted V_p moved by the V_s delta ``d``."""
        cols = _quoted(node.attrs)
        parts = [
            node.tagged(ROW, anti(rows, status, node.attrs)),
            node.tagged(ROW, status.filter("in_rel").selectExpr(*cols, "_n AS _v")),
        ]
        if node.name == self.tree.root:
            return _union(parts)
        key = node.key
        old = node.vp()
        counts = _union([
            d.selectExpr(*_quoted(key), "sign AS _d", "0 AS cnt"),
            semi(old, d, key).selectExpr(*_quoted(key), "0 AS _d", "cnt"),
        ]).groupBy(*key).agg(F.expr("sum(cnt) AS was"), F.expr("sum(cnt) + sum(_d) AS _v"))
        return _union(parts + [
            node.tagged(VP, anti(old, d, key).withColumnRenamed("cnt", "_v")),
            node.tagged(VP, counts.filter("_v > 0")),
            node.tagged(KEYS, counts.filter("(was > 0) != (_v > 0)")),
        ])

    # ------------------------------------------------------------------
    def _output_delta(self, deltas: dict[str, DataFrame]) -> DataFrame:
        """ΔQ of the batch: the weighted enumeration seeded at the root
        tuples above a changed V_s tuple."""
        u = {name: node.weighted(deltas.get(name)) for name, node in self.nodes.items()}
        # touched nodes are closed upwards (a touched child touches its
        # parent), so the climb reaches the root. A superset of the
        # affected tuples is safe: unchanged outputs get sign 0.
        affected: dict[str, DataFrame] = {}
        for name in self.tree.postorder():
            if name not in deltas:
                continue
            node = self.nodes[name]
            up = [deltas[name].select(node.attrs)]
            by_key: dict[tuple[str, ...], list[DataFrame]] = {}
            for c in node.children:
                if c in affected:
                    key = tuple(self.nodes[c].key)
                    by_key.setdefault(key, []).append(affected[c].select(*key))
            for key, keys in by_key.items():
                if set(key) == set(node.attrs):
                    up.append(_union(keys))
                else:
                    up.append(semi(u[name].select(node.attrs), _union(keys), list(key)))
            affected[name] = _union(up)
        root = self.tree.root
        seeded = semi(u[root], affected[root], self.nodes[root].attrs)
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
        u = {name: node.weighted(None) for name, node in self.nodes.items()}
        out = self._enumerate(u, u[self.tree.root], delta=False).select(*self.cq.output)
        if self.post_filter is not None:
            out = out.filter(self.post_filter)
        return out

    def state_rows(self) -> int:
        """Every stored row — R_e (V_s is a flag on it), the counted V_p
        and the last changed keys — which stays linear in |D| (Lemma 4.1)."""
        return sum(s.frame.count() for s in self.nodes.values())
