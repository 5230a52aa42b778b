"""SparkCrown: the batch core (``repro.core.batch``) over one Spark
state frame.

State. One checkpointed frame holds the whole tree: a node index ``_n``
(its place in postorder), the query's attribute columns (NULL where the
node lacks one), a row kind ``_k`` and a value ``_v``.

Fetch. One filter of the state frame, an OR of one term ``_n = i AND
_k = k AND <membership>`` per piece: one scan of one checkpoint, so one
Spark job of one task per partition. A membership test against a
batch-sized key list, of any length, is a literal predicate compiled on
the driver: ``IN`` for one column, tuple ``IN`` for several,
``TRUE``/``FALSE`` for none; keys holding NULL in the same places are
one term, ``IS NULL`` there and ``IN`` over the other columns. Before
the first commit the state is empty, and a fetch runs no job.

Commit. One checkpoint: the state outside every dropped piece, plus one
local frame of all new rows and counts. The first commit plans the same
way, although the state is empty: checkpointing the new rows alone
moved about 0.3 s of first-time planning into the first two warm
batches (perfbench's hop3_full stream, ``local[4]``).
No state frame is shuffled.

``process_batch`` collects each stream frame once and returns ΔQ as a
local frame, whose collect runs no job. A warm hop3_full batch runs 7
Spark jobs: 3 rounds, 1 late fetch, 1 checkpoint and 2 ΔQ fetches.
``actions`` counts the last batch's by kind: ``fetch``, ``checkpoint``
and ``enumerate`` (the fetches after the checkpoint). ``full_result``
is state-sized and stays a Spark plan of top-down joins. This is the
foreachBatch-equivalent of a Structured Streaming job, driven
synchronously for deterministic tests (DESIGN.md § layering).
"""
from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Iterable, Sequence

from pyspark.sql import Column, DataFrame, SparkSession

from repro.core.batch import ROW, VP, VS, BatchCrown, Got, Piece, columns
from repro.cq.join_tree import JoinTree
from repro.cq.query import CQ
from repro.spark.state import (
    checkpoint, collect_streams, empty_df, local_frame, selection_filters,
)

KIND_SQL = {ROW: f"_k = {ROW}", VP: f"_k = {VP}", VS: f"_k = {ROW} AND _v = 1"}


def _quoted(cols: Iterable[str]) -> list[str]:
    return [f"`{c}`" for c in cols]


def _in(cols: Sequence[str], keys: list[tuple]) -> str:
    """SQL for "the row's ``cols`` are one of ``keys``", never NULL:
    ``IN`` for one column, tuple ``IN`` (which compares null-safely) for
    several. The keys hold no NULL: ``_member`` tests a key's NULL
    places apart, with ``IS NULL``."""
    if len(cols) == 1:
        return f"coalesce(`{cols[0]}` IN ({', '.join(f'{k[0]}L' for k in keys)}), false)"
    lits = ", ".join("(" + ", ".join(f"{v}L" for v in k) + ")" for k in keys)
    return f"({', '.join(_quoted(cols))}) IN ({lits})"


def _member(cols: Sequence[str], keys: list[tuple]) -> str:
    """SQL for "the row's ``cols`` are one of ``keys``". A key holding a
    NULL matches a NULL there. The keys holding NULL in the same places
    are one term, so a bulk of them stays one ``IN`` list, which Spark
    tests against a hash set; one term per key overflows the generated
    code. It is never NULL, so its negation keeps the rows it does not
    match, as an anti-join does."""
    groups: dict[tuple[int, ...], list[tuple]] = defaultdict(list)
    for k in keys:
        groups[tuple(i for i, v in enumerate(k) if v is None)].append(k)
    terms = []
    for nulls, ks in groups.items():
        rest = [i for i in range(len(cols)) if i not in nulls]
        conds = [f"`{cols[i]}` IS NULL" for i in nulls]
        if rest:
            conds.append(_in([cols[i] for i in rest], [tuple(k[i] for i in rest) for k in ks]))
        terms.append(" AND ".join(conds))
    if len(terms) == 1:
        return terms[0]
    return "(" + " OR ".join(f"({t})" for t in terms) + ")"


class SparkCrown:
    """Micro-batch CROWN: the batch core ``core`` (with the last batch's
    ``stats``) over this store. ``atom_filters``, if given, must be the
    query's selections as Spark columns; they are only checked, as the
    core admits atom tuples through ``cq.admits``."""

    def __init__(self, spark: SparkSession, cq: CQ, tree: JoinTree | None = None,
                 atom_filters: dict[str, Column] | None = None) -> None:
        want = {rel: str(col) for rel, col in selection_filters(cq).items()}
        if atom_filters is not None and {r: str(c) for r, c in atom_filters.items()} != want:
            raise ValueError(f"atom_filters are not the selections of {cq.name}: {want}")
        self.spark = spark
        self.cq = cq
        self.core = BatchCrown(cq, tree, self)
        self.tree = self.core.tree
        self.names = self.tree.postorder()  # by ``_n``
        self.index = {name: i for i, name in enumerate(self.names)}
        self.cols = list(dict.fromkeys(a for n in self.names for a in self.tree.node(n).attrs))
        # (node, kind) -> the places of the node's columns of that kind in
        # a state row
        self.slots = {(n, k): [1 + self.cols.index(c) for c in columns(self.tree, n, k)]
                      for n in self.names for k in (ROW, VP)}
        self.state = empty_df(spark, ["_n", *self.cols, "_k", "_v"])
        self.cold = True  # no commit yet: the state is empty
        # the state frame is a union of pieces; coalescing it before the
        # checkpoint keeps its partition count from growing per batch
        self.partitions = spark.sparkContext.defaultParallelism
        self.actions: Counter[str] = Counter()

    def process_batch(self, stream_deltas: dict[str, DataFrame]) -> DataFrame:
        """Apply one batch; return the signed output delta frame.

        ``stream_deltas[stream]`` carries a ``sign`` column (±1) plus
        the stream's value columns, one event per tuple. Each frame is
        collected once: with no job if it is a ``LocalRelation``.
        """
        self.actions = Counter()
        rows = self.core.process_batch(collect_streams(self.cq, stream_deltas))
        return local_frame(self.spark, rows, [*self.cq.output, "sign"])

    # ------------------------------------------------------------------
    def _term(self, piece: Piece) -> str:
        name, kind, cols, keys = piece
        term = f"_n = {self.index[name]} AND {KIND_SQL[kind]}"
        return f"({term} AND {_member(cols, list(keys))})" if cols else f"({term})"

    def _where(self, pieces: list[Piece]) -> str:
        """SQL for "a state row that one of ``pieces`` matches", an OR of
        their terms; empty if none can match a row."""
        return " OR ".join(self._term(p) for p in pieces if p[3])

    def fetch(self, pieces: list[Piece]) -> Got:
        """One Spark action for ``pieces``, a scan of the state frame:
        per (node, stored kind), each matched row on the node's columns
        of that kind, with its ``_v``."""
        out: Got = defaultdict(dict)
        if self.cold or not (where := self._where(pieces)):
            return out
        for r in self.state.filter(where).collect():
            name, k = self.names[r[0]], r[-2]
            out[(name, k)][tuple(r[i] for i in self.slots[(name, k)])] = r[-1]
        self.actions["enumerate" if self.actions["checkpoint"] else "fetch"] += 1
        return out

    def commit(self, drop: list[Piece], add: Got) -> None:
        """Write the batch: the state outside ``drop``, then all of
        ``add`` as one local frame, checkpointed."""
        rows = []
        for (name, kind), got in add.items():
            for t, v in got.items():
                row = [None] * len(self.cols)
                for i, x in zip(self.slots[(name, kind)], t):
                    row[i - 1] = x
                rows.append((self.index[name], *row, kind, v))
        kept = self.state.filter(f"NOT ({where})") if (where := self._where(drop)) else self.state
        if rows:
            kept = kept.unionByName(local_frame(self.spark, rows, self.state.columns))
        self.state = checkpoint(kept.coalesce(self.partitions))
        self.cold = False
        self.actions["checkpoint"] += 1

    # ------------------------------------------------------------------
    def full_result(self) -> DataFrame:
        """Q(D): the Yannakakis top-down join of the V_s frames, a Spark
        plan, as it is state-sized. Output-proportional by Lemma 5.1 (no
        dangling tuples anywhere)."""
        y = set(self.cq.output)

        def vs(name: str, cols: list[str]) -> DataFrame:
            return self.state.filter(self._term((name, VS, (), {()}))).selectExpr(*_quoted(cols))

        acc = vs(self.tree.root, list(self.tree.node(self.tree.root).attrs))
        for name in self.tree.preorder()[1:]:
            attrs, key = self.tree.node(name).attrs, self.tree.key(name)
            below = {a for c in self.tree.node(name).children for a in self.tree.key(c)}
            keep = sorted(set(key) | (set(attrs) & (y | below)))
            side = vs(name, keep)
            if len(keep) < len(attrs):
                side = side.distinct()
            acc = side.join(acc, list(key) or None, "inner")
        return acc.selectExpr(*_quoted(self.cq.output)).distinct()

    def state_rows(self) -> int:
        """Every stored row, R_e and the counted V_p: linear in |D|
        (Lemma 4.1). One count of the state frame."""
        return self.state.count()

