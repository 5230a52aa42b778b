"""SparkCrown: micro-batch change propagation without joins (DataFrame API).

The tuple-at-a-time algorithms of §4 vectorize per micro-batch.

State. The whole tree's state is one checkpointed frame: a node index
``_n``, the query's attribute columns (NULL where the node does not
have the attribute), a row kind ``_k`` and a value ``_v``.

- ``ROW``: a tuple of the node's R_e, ``_v`` = 1 if it is in the
  semi-join view V_s, else 0. A generalized node's R_e is virtual (the
  union of its defining children's V_p's, Example 4.2), so it keeps its
  V_s rows only.
- ``VP``: the counted V_p = π_key V_s: one row per key, ``_v`` = the
  number of V_s tuples that carry it (derivation counting, §4, at batch
  granularity). The node's other attribute columns are null.

Maintenance. A batch (one event per tuple) is pushed through the atom
selections and propagated bottom-up in rounds. A round holds every
touched node whose touched children are done; for hop3_full's tree
these are {G1, G3}, then {G2}, then the root. A node is re-evaluated
only on its *candidates*: the batch's own tuples and the stored tuples
under a child's changed key. What is batch-sized lives on the driver:
the batch's tuples, each node's V_s delta d, the V_p keys whose count
crossed 0 and the tuples that climb to the root. A membership test
against such a list, of any length, is a literal predicate compiled
on the driver — ``IN`` for one column, tuple ``IN`` for several,
``TRUE``/``FALSE`` for none. A key from another node (a child's key or
V_p entry) holding a NULL matches nothing, as in a join; a node's own
tuple holding one matches its stored copy: the keys holding NULL in
the same places are one term, ``IS NULL`` there and ``IN`` over the
other columns.

A round's fetch is one filter of the state frame, an OR of one term
``_n = i AND _k = k AND <membership>`` per piece; a node's pieces are
its stored rows under the literal keys, its own V_p counts and its
children's V_p entries. That is one scan of one checkpoint: one Spark
job of one task per partition. The rows come back tagged by
``(_n, _k)``. Where a candidate's key is not among the literals (it
sits under a child's key that does not cover it), a second, late fetch
in the round brings those entries for the candidates the first one
found. Every fetch reads the checkpoint of the batch's start, and the
driver overlays what the batch's earlier rounds rewrote. The driver
decides each candidate's old and new membership (formulae (3)/(4)) and
moves the V_p counts by d; the keys whose count crosses 0 drive the
parent. After the last round, one checkpoint writes the batch: the old
state outside every rewritten key, plus one local frame of all new rows
and counts. No state frame is shuffled and no two views are ever
joined.

Output. ΔQ is enumerated on the driver, top-down from the root tuples
above a changed V_s tuple (Lemma 5.1/5.3: output-proportional). The
tuples of d are climbed to the root while the nodes are maintained —
each node's fetch also brings its stored tuples under a child's
climbing tuples — and seed the pass. One fetch per tree depth brings
the V_s rows it needs, from the new checkpoint: the root's rows under
the seeds together with depth 1's rows under the seeds' keys, then each
deeper node's rows under the keys of the partial results joined so
far. A V_s row counts (1, 1) as old/new derivation weights and a tuple
of the node's d, which stays on the driver, (−sign, 0), so a tuple's
weights sum to its old and new membership. The driver joins level by
level on the node keys, multiplies the weights, sums them per output
tuple, and keeps the non-zero signs [Σ _n > 0] − [Σ _o > 0]. The result
is a local frame: collecting it runs no Spark job. ``full_result`` is
state-sized and stays a Spark plan of top-down joins.

A warm hop3_full batch thus runs 7 Spark jobs: 3 rounds, 1 late fetch,
1 checkpoint and 2 ΔQ fetches. ``actions`` counts the last batch's.

This is the foreachBatch-equivalent of a Structured Streaming job,
driven synchronously for deterministic tests (DESIGN.md § layering).
"""
from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Callable, Generator, Iterable, Sequence
from dataclasses import dataclass, field

from pyspark.sql import Column, DataFrame, SparkSession

from repro.cq.join_tree import JoinTree, checked_tree
from repro.cq.query import CQ
from repro.spark.state import checkpoint, empty_df, local_frame, selection_filters

# row kinds of the state frame (column ``_k``)
ROW, VP = 0, 1
# a kind that is only fetched: the ROW rows in V_s
VS = 2
KIND_SQL = {ROW: f"_k = {ROW}", VP: f"_k = {VP}", VS: f"_k = {ROW} AND _v = 1"}

Keys = dict[tuple[str, ...], set[tuple]]  # column tuple -> its literal keys
# (node, kind, columns, keys): the node's rows of that kind whose columns
# are among the keys
Piece = tuple[str, int, tuple[str, ...], set[tuple]]
# a fetch's rows: (node, stored kind) -> each row on the node's columns
# of that kind -> its ``_v``
Got = dict[tuple[str, int], dict[tuple, int]]


def _quoted(cols: Iterable[str]) -> list[str]:
    return [f"`{c}`" for c in cols]


def _stored(kind: int) -> int:
    return ROW if kind == VS else kind


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


def _in(cols: Sequence[str], keys: list[tuple]) -> str:
    """SQL for "the row's ``cols`` are one of the NULL-free ``keys``",
    never NULL: ``IN`` for one column, tuple ``IN`` (which compares
    null-safely) for several."""
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


@dataclass
class _NodeState:
    name: str
    index: int  # its ``_n`` in the state frame
    attrs: list[str]
    key: list[str]
    children: list[str]
    is_gen: bool
    crown: SparkCrown = field(repr=False)
    # kind -> the places of the node's columns of that kind in a state row
    slots: dict[int, list[int]] = field(default_factory=dict)
    keys: set[tuple] = field(default_factory=set)  # V_p keys that crossed 0 last

    def cols(self, kind: int) -> list[str]:
        """The columns of the node's rows of ``kind``."""
        return self.key if kind == VP else self.attrs

    def kind(self, k: int) -> DataFrame:
        return self.crown.state.filter(f"_n = {self.index} AND _k = {k}")

    def rows(self) -> DataFrame:
        return self.kind(ROW).select(*self.attrs, "_v")

    def vs(self) -> DataFrame:
        return self.kind(ROW).filter("_v = 1").select(self.attrs)

    def counts(self) -> DataFrame:
        return self.kind(VP).select(*self.key, "_v")


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
    count crossed 0. ``actions`` counts the last batch's Spark actions
    by kind: ``fetch`` (maintenance rounds), ``checkpoint`` and
    ``enumerate`` (ΔQ's fetches).
    """

    def __init__(
        self,
        spark: SparkSession,
        cq: CQ,
        tree: JoinTree | None = None,
        atom_filters: dict[str, Column] | None = None,
    ) -> None:
        self.spark = spark
        self.cq = cq
        self.tree = checked_tree(cq, tree)
        # a passed map replaces the filters compiled from ``cq.where``
        self.atom_filters = atom_filters if atom_filters is not None else selection_filters(cq)
        self.nodes: dict[str, _NodeState] = {}
        for i, name in enumerate(self.tree.postorder()):
            tn = self.tree.node(name)
            self.nodes[name] = _NodeState(
                name=name,
                index=i,
                attrs=list(tn.attrs),
                key=list(self.tree.key(name)),
                children=list(tn.children),
                is_gen=tn.is_generalized,
                crown=self,
            )
        self.by_index = list(self.nodes.values())
        self.cols = list(dict.fromkeys(a for n in self.by_index for a in n.attrs))
        for node in self.by_index:
            node.slots = {k: [1 + self.cols.index(c) for c in node.cols(k)] for k in (ROW, VP)}
        self.state = empty_df(spark, ["_n", *self.cols, "_k", "_v"])
        # the state frame is a union of pieces; coalescing it before the
        # checkpoint keeps its partition count from growing per batch
        self.partitions = spark.sparkContext.defaultParallelism
        # what the batch's rounds rewrote so far: the rows that give way,
        # and the new rows per (node, kind)
        self._drop: list[Piece] = []
        self._add: Got = defaultdict(dict)
        # ΔQ's fetches: the nodes one tree depth at a time, the root with
        # depth 1
        levels = [[self.tree.root]]
        while kids := [c for n in levels[-1] for c in self.nodes[n].children]:
            levels.append(kids)
        self.fetches = [sum(levels[:2], []), *levels[2:]]
        self.stats: dict[str, dict[str, int]] = {}
        self.actions: Counter[str] = Counter()

    # ------------------------------------------------------------------
    def process_batch(
        self, stream_deltas: dict[str, DataFrame]
    ) -> DataFrame:
        """Apply one batch; return the signed output delta frame.

        ``stream_deltas[stream]`` carries a ``sign`` column (±1) plus
        the stream's value columns, already compacted: one event per
        tuple, the last one in the batch.
        """
        self.stats, self.actions = {}, Counter()
        batches = {n: b for n, b in self._batches(stream_deltas).items() if b}
        # the nodes the batch may touch: its relation nodes and their
        # ancestors, bottom-up
        up: set[str] = set()
        for name in batches:
            while name is not None and name not in up:
                up.add(name)
                name = self.tree.node(name).parent
        left = [n for n in self.tree.postorder() if n in up]
        done: dict[str, _Change] = {}  # nodes with affected tuples
        while left:
            ready = [n for n in left if not set(self.nodes[n].children) & set(left)]
            left = [n for n in left if n not in ready]
            steps = {}
            for name in ready:
                kids = {c: done[c] for c in self.nodes[name].children if c in done}
                if name in batches or kids:
                    steps[name] = self._maintain(self.nodes[name], batches.get(name, {}), kids)
            done.update((n, ch) for n, ch in self._round(steps).items() if ch.affected)
        self._checkpoint()
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

    # ------------------------------------------------------------------
    # pieces: SQL terms and their driver-side twins

    def _term(self, piece: Piece) -> str:
        name, kind, cols, keys = piece
        term = f"_n = {self.nodes[name].index} AND {KIND_SQL[kind]}"
        return f"({term} AND {_member(cols, list(keys))})" if cols else f"({term})"

    def _matcher(self, piece: Piece) -> Callable[[tuple, int], bool]:
        """``piece`` as a test of one of its node's rows (a tuple on the
        node's columns, and its ``_v``): the driver's twin of its term."""
        name, kind, cols, keys = piece
        to = _proj(self.nodes[name].cols(kind), cols)
        return lambda t, v: (kind != VS or v == 1) and to(t) in keys

    def _where(self, pieces: list[Piece]) -> str:
        """SQL for "a state row that one of ``pieces`` matches", an OR of
        their terms; empty if none can match a row."""
        return " OR ".join(self._term(p) for p in pieces if p[3])

    def _fetch(self, pieces: list[Piece], action: str) -> Got:
        """One Spark action for ``pieces``, a scan of the state frame:
        per (node, stored kind), each matched row on the node's columns
        of that kind, with its ``_v``. The rows that the batch's earlier
        rounds rewrote are overlaid from the driver."""
        out: Got = defaultdict(dict)
        if where := self._where(pieces):
            for r in self.state.filter(where).collect():
                node, k = self.by_index[r[0]], r[-2]
                out[(node.name, k)][tuple(r[i] for i in node.slots[k])] = r[-1]
            self.actions[action] += 1
        for tag in {(p[0], _stored(p[1])) for p in pieces}:
            drops = [self._matcher(p) for p in self._drop if (p[0], p[1]) == tag]
            if not drops:
                continue
            wants = [self._matcher(p) for p in pieces if (p[0], _stored(p[1])) == tag]
            rows = out[tag]
            for t in [t for t, v in rows.items() if any(m(t, v) for m in drops)]:
                del rows[t]
            rows.update((t, v) for t, v in self._add[tag].items() if any(m(t, v) for m in wants))
        return out

    # ------------------------------------------------------------------
    def _round(self, steps: dict[str, Generator[list[Piece], Got, _Change]]
               ) -> dict[str, _Change]:
        """Run the nodes' maintenance side by side: at each step, what
        every node asks for is one fetch."""
        out: dict[str, _Change] = {}
        got: Got = defaultdict(dict)
        asks = {n: next(g) for n, g in steps.items()}
        while asks:
            got.update(self._fetch([p for ps in asks.values() for p in ps], "fetch"))
            later = {}
            for n in asks:
                try:
                    later[n] = steps[n].send(got)
                except StopIteration as stop:
                    out[n] = stop.value
            asks = later
        return out

    def _maintain(self, node: _NodeState, batch: dict[tuple, int], kids: dict[str, _Change]
                  ) -> Generator[list[Piece], Got, _Change]:
        """Re-evaluate ``node`` on its candidates, stage its rewrite for
        the batch's checkpoint, and return its delta, crossed keys and
        affected tuples. It yields the pieces it needs fetched, and is
        sent the round's fetched rows."""
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

        # the V_p entries the candidates need: each child's, where a NULL
        # matches nothing, and the node's own but at the root
        vps = [(c, _non_null) for c in children] + ([] if root else [(node, set)])
        pieces = [(node.name, ROW, cols, ks) for cols, ks in row_keys.items()]
        late = []
        for v, sure in vps if cand_keys else ():
            if set(v.key) == full:
                lits = list(cand_keys.items())
            elif all(set(v.key) <= set(cols) for cols in cand_keys):
                lits = [(tuple(v.key),
                         {_proj(cols, v.key)(k) for cols, ks in cand_keys.items() for k in ks})]
            else:
                late.append((v, sure))
                continue
            pieces += [(v.name, VP, cols, sure(ks)) for cols, ks in lits]
        got = yield pieces

        stored = got[(node.name, ROW)]
        tests = [(_proj(attrs, cols), ks) for cols, ks in cand_keys.items()]
        was = {t: v for t, v in stored.items() if any(p(t) in ks for p, ks in tests)}
        cands = set(batch) | set(was)
        if node.is_gen:
            # R_e is virtual: the defining children's V_p tuples
            cands |= {_proj(c.key, attrs)(k) for c in children if set(c.key) == full
                      for k in got[(c.name, VP)]}
        if late and cands:
            got = yield [(v.name, VP, tuple(v.key), sure(set(map(_proj(attrs, v.key), cands))))
                         for v, sure in late]
        held = [(_proj(attrs, c.key), set(got[(c.name, VP)])) for c in children]

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
            before = got[(node.name, VP)]
            moved = Counter()
            for t, s in d.items():
                moved[to_key(t)] += s
            for k, m in moved.items():
                counts[k] = before.get(k, 0) + m
                if (before.get(k, 0) > 0) != (counts[k] > 0):
                    keys.add(k)
        if d or any(new_rows.get(t) != was.get(t) for t in cands):
            self._stage(node, cand_keys, new_rows, counts)
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

    def _stage(self, node: _NodeState, cand_keys: Keys, new_rows: dict[tuple, int],
               counts: dict[tuple, int]) -> None:
        """Queue the node's rewrite for the batch's checkpoint: its rows
        under the candidates' keys and its V_p under the moved keys give
        way to the candidates' new rows and the moved counts."""
        self._drop += [(node.name, ROW, cols, ks) for cols, ks in cand_keys.items()]
        self._add[(node.name, ROW)].update(new_rows)
        if counts:
            self._drop.append((node.name, VP, tuple(node.key), set(counts)))
            self._add[(node.name, VP)].update((k, n) for k, n in counts.items() if n > 0)

    def _checkpoint(self) -> None:
        """Write the batch: the state outside every rewritten key, then
        all new rows and counts as one local frame, checkpointed."""
        if not self._drop:
            return
        kept = self.state
        if where := self._where(self._drop):
            kept = kept.filter(f"NOT ({where})")
        rows = []
        for (name, kind), got in self._add.items():
            node = self.nodes[name]
            for t, v in got.items():
                row = [None] * len(self.cols)
                for i, x in zip(node.slots[kind], t):
                    row[i - 1] = x
                rows.append((node.index, *row, kind, v))
        if rows:
            kept = kept.unionByName(local_frame(self.spark, rows, self.state.columns))
        self.state = checkpoint(kept.coalesce(self.partitions))
        self.actions["checkpoint"] += 1
        self._drop, self._add = [], defaultdict(dict)

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
            pieces = {}
            for name in names:
                node = self.nodes[name]
                if node is root:  # its own tuples: a NULL matches a NULL
                    pieces[name] = (name, VS, tuple(cols), set(acc))
                else:
                    keys = _non_null(map(_proj(cols, node.key), acc))
                    pieces[name] = (name, VS, tuple(node.key), keys)
            got = self._fetch(list(pieces.values()), "enumerate")
            for name in names:
                node = self.nodes[name]
                later.remove(name)
                if node is root:
                    acc = self._weights(got, pieces[name], done, cols)
                    continue
                # keep y and the keys of the nodes still to join
                need = set(y).union(*(self.nodes[n].key for n in later))
                extra = [a for a in node.attrs if a in need and a not in node.key]
                side: dict[tuple, list] = defaultdict(list)
                for t, w in self._weights(got, pieces[name], done, node.key + extra).items():
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
        return local_frame(self.spark, rows, [*y, "sign"])

    def _weights(self, got: Got, piece: Piece, done: dict[str, _Change],
                 cols: Sequence[str]) -> dict[tuple, tuple[int, int]]:
        """The node's V_s rows that ``piece`` fetched, and the tuples of
        its d that the piece matches, projected onto ``cols``, with
        summed old/new derivation weights: a V_s row counts (1, 1), a
        tuple of d (−sign, 0)."""
        name, _, on, keys = piece
        node = self.nodes[name]
        to = _proj(node.attrs, cols)
        rows = [(to(t), 1, 1) for t in got[(name, ROW)]]
        if name in done:
            hit = self._matcher((name, ROW, on, keys))
            rows += [(to(t), -s, 0) for t, s in done[name].d.items() if hit(t, s)]
        return _summed(rows)

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
        return acc.selectExpr(*_quoted(self.cq.output)).distinct()

    def state_rows(self) -> int:
        """Every stored row — R_e (V_s is a flag on it) and the counted
        V_p — which stays linear in |D| (Lemma 4.1). One count of the
        state frame."""
        return self.state.count()
