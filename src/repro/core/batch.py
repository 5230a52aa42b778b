"""BatchCrown: micro-batch change propagation without joins, over a
store.

The tuple-at-a-time algorithms of §4 vectorize per micro-batch. The
algorithm runs here, on dicts; a store keeps the state and answers
``fetch(pieces) -> Got``, the rows as of the last commit, and
``commit(drop, add)``, which writes one batch. ``DictStore`` keeps it in
dicts; ``repro.spark.crown_spark`` in one checkpointed Spark frame.

State. Per node, ``ROW``s: its R_e, valued 1 if the tuple is in the
semi-join view V_s, else 0 (a generalized node's R_e is virtual, the
union of its defining children's V_p's, Example 4.2, so it keeps its
V_s rows only); and ``VP``s: the counted V_p = π_key V_s, one row per
key valued by the number of V_s tuples that carry it (derivation
counting at batch granularity). A piece ``(node, kind, cols, keys)``
names the node's rows of that kind whose ``cols`` are among the literal
``keys`` (kind ``VS``: the ROWs in V_s). Keys match null-safely, a NULL
equal to a NULL: only the atom tuples that ``CQ.admits`` are stored, so
no row or key holds a NULL on a join attribute, and a NULL elsewhere
(an attribute of one atom that a tree key carries) is a plain value.

Maintenance. A batch (one event per tuple) keeps the atom tuples that
the query admits and is propagated bottom-up in rounds. A round holds
every touched node whose touched children are done; for hop3_full's
tree these are {G1, G3}, {G2}, the root. A node is re-evaluated only on its
candidates: the batch's own tuples and the stored tuples under a
child's changed key. A round's asks are one fetch: each node's rows
under its candidates' keys, its own V_p counts and its children's V_p
entries; a late fetch brings the entries a candidate's key needs when
no literal covers it. Fetches read the batch's starting state, with
what earlier rounds rewrote overlaid. The driver decides each
candidate's old and new membership (formulae (3)/(4)) and moves the V_p
counts by d; the keys whose count crosses 0 drive the parent. One
commit writes the batch. No two views are ever joined.

Output. ΔQ is enumerated top-down from the root tuples above a changed
V_s tuple (Lemmas 5.1/5.3: output-proportional), which the tuples of d
climb to while the nodes are maintained. One fetch per tree depth (the
root with depth 1) brings the V_s rows under the keys of the partial
results joined so far. A V_s row weighs (1, 1) as old/new derivations,
a tuple of the node's d (−sign, 0); the driver joins level by level,
multiplies and sums the weights, and keeps the signs
[Σ new > 0] − [Σ old > 0] ≠ 0.

``stats``: per node the last batch re-evaluated, its candidates, |d|
and crossed V_p keys.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Callable, Generator, Iterable, Sequence
from dataclasses import dataclass, field

from repro.cq.join_tree import JoinTree, checked_tree
from repro.cq.query import CQ

ROW, VP, VS = 0, 1, 2  # row kinds; VS, the ROWs in V_s, is only fetched

Keys = dict[tuple[str, ...], set[tuple]]  # column tuple -> its literal keys
Piece = tuple[str, int, tuple[str, ...], set[tuple]]  # (node, kind, columns, keys)
# (node, stored kind) -> each row on the node's columns of that kind -> its value
Got = dict[tuple[str, int], dict[tuple, int]]


def stored(kind: int) -> int:
    return ROW if kind == VS else kind


def columns(tree: JoinTree, name: str, kind: int) -> list[str]:
    """The columns of the node's rows of ``kind``."""
    return list(tree.key(name) if kind == VP else tree.node(name).attrs)


def matcher(tree: JoinTree, piece: Piece) -> Callable[[tuple, int], bool]:
    """``piece`` as a test of one of its node's rows: a tuple on the
    node's columns of the piece's kind, and its value."""
    name, kind, cols, keys = piece
    to = _proj(columns(tree, name, kind), cols)
    return lambda t, v: (kind != VS or v == 1) and to(t) in keys


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


class DictStore:
    """The state in driver-side dicts, keyed like ``Got``."""

    def __init__(self, tree: JoinTree, rows: Got | None = None) -> None:
        self.tree = tree
        self.rows: Got = defaultdict(dict, rows or {})

    def fetch(self, pieces: list[Piece]) -> Got:
        hits = defaultdict(list)
        for p in pieces:
            hits[(p[0], stored(p[1]))].append(matcher(self.tree, p))
        return defaultdict(dict, {tag: {t: v for t, v in self.rows[tag].items()
                                        if any(h(t, v) for h in hs)} for tag, hs in hits.items()})

    def commit(self, drop: list[Piece], add: Got) -> None:
        for p in drop:
            hit, rows = matcher(self.tree, p), self.rows.get((p[0], stored(p[1])), {})
            for t in [t for t, v in rows.items() if hit(t, v)]:
                del rows[t]
        for tag, rows in add.items():
            self.rows[tag].update(rows)


@dataclass
class _Node:
    name: str
    attrs: list[str]
    key: list[str]
    children: list[str]
    is_gen: bool
    keys: set[tuple] = field(default_factory=set)  # V_p keys that crossed 0 last


@dataclass
class _Change:
    """A node's batch results, tuples in attribute order."""
    d: dict[tuple, int]  # V_s delta: tuple -> ±1
    keys: set[tuple]  # V_p keys whose count crossed 0
    affected: set[tuple]  # d and the tuples above a child's affected ones


class BatchCrown:
    """Micro-batch CROWN over ``store`` (a ``DictStore`` if none)."""

    def __init__(self, cq: CQ, tree: JoinTree | None = None, store=None) -> None:
        self.cq = cq
        self.tree = checked_tree(cq, tree)
        self.store = store if store is not None else DictStore(self.tree)
        self.nodes = {n: _Node(n, columns(self.tree, n, ROW), columns(self.tree, n, VP),
                               list(self.tree.node(n).children), self.tree.node(n).is_generalized)
                      for n in self.tree.postorder()}
        # what the batch's rounds rewrote so far: the rows that give way,
        # and the new rows per (node, kind)
        self._drop: list[Piece] = []
        self._add: Got = defaultdict(dict)
        # ΔQ's fetches: the nodes one tree depth at a time, the root with depth 1
        levels = [[self.tree.root]]
        while kids := [c for n in levels[-1] for c in self.nodes[n].children]:
            levels.append(kids)
        self.fetches = [sum(levels[:2], []), *levels[2:]]
        self.stats: dict[str, dict[str, int]] = {}

    def process_batch(self, streams: dict[str, list[tuple]]) -> list[tuple]:
        """Apply one batch, ``streams[stream]``'s rows ``(sign, *t)``, one
        event per tuple; return ΔQ as rows ``(*y, sign)``."""
        self.stats = {}
        batches = {n: b for n, b in self._batches(streams).items() if b}
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
        if self._drop:
            self.store.commit(self._drop, self._add)
            self._drop, self._add = [], defaultdict(dict)
        return self._output_delta(done)

    def _batches(self, streams: dict[str, list[tuple]]) -> dict[str, dict[tuple, int]]:
        """Each relation node's tuples of the batch that its atom admits,
        with their signs."""
        out: dict[str, dict[tuple, int]] = {}
        for atom in self.cq.relations:
            if atom.stream in streams:
                admit = self.cq.admits(atom.name)
                out[self.tree.relation_node(atom.name)] = {
                    tuple(r[1:]): r[0] for r in streams[atom.stream] if admit(r[1:])
                }
        return out

    def _fetch(self, pieces: list[Piece]) -> Got:
        """The store's rows for ``pieces``, with the batch's rewrite so far
        (limited to the pieces) committed onto them."""
        got = DictStore(self.tree, self.store.fetch(pieces))
        got.commit(self._drop, DictStore(self.tree, self._add).fetch(pieces))
        return got.rows

    # ------------------------------------------------------------------
    def _round(self, steps: dict[str, Generator[list[Piece], Got, _Change]]
               ) -> dict[str, _Change]:
        """Run the nodes' maintenance side by side: at each step, what
        every node asks for is one fetch."""
        out: dict[str, _Change] = {}
        got: Got = defaultdict(dict)
        asks = {n: next(g) for n, g in steps.items()}
        while asks:
            got.update(self._fetch([p for ps in asks.values() for p in ps]))
            later = {}
            for n in asks:
                try:
                    later[n] = steps[n].send(got)
                except StopIteration as stop:
                    out[n] = stop.value
            asks = later
        return out

    def _maintain(self, node: _Node, batch: dict[tuple, int], kids: dict[str, _Change]
                  ) -> Generator[list[Piece], Got, _Change]:
        """Re-evaluate ``node`` on its candidates, stage its rewrite for
        the batch's commit, and return its delta, crossed keys and
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
                cand_keys[tuple(c.key)] |= kids[c.name].keys
        # stored rows are also fetched under a child's affected tuples,
        # to climb them
        row_keys: Keys = defaultdict(set, {cols: set(ks) for cols, ks in cand_keys.items()})
        for c in children:
            if c.name in kids and set(c.key) != full:
                up = _proj(c.attrs, c.key)
                row_keys[tuple(c.key)] |= set(map(up, kids[c.name].affected))

        # the V_p entries the candidates need: each child's, and the
        # node's own but at the root
        vps = children + ([] if root else [node])
        pieces = [(node.name, ROW, cols, ks) for cols, ks in row_keys.items()]
        late = []
        for v in vps if cand_keys else ():
            if set(v.key) == full:
                lits = list(cand_keys.items())
            elif all(set(v.key) <= set(cols) for cols in cand_keys):
                lits = [(tuple(v.key),
                         {_proj(cols, v.key)(k) for cols, ks in cand_keys.items() for k in ks})]
            else:
                late.append(v)
                continue
            pieces += [(v.name, VP, cols, ks) for cols, ks in lits]
        got = yield pieces

        stored_rows = got[(node.name, ROW)]
        tests = [(_proj(attrs, cols), ks) for cols, ks in cand_keys.items()]
        was = {t: v for t, v in stored_rows.items() if any(p(t) in ks for p, ks in tests)}
        cands = set(batch) | set(was)
        if node.is_gen:
            # R_e is virtual: the defining children's V_p tuples
            cands |= {_proj(c.key, attrs)(k) for c in children if set(c.key) == full
                      for k in got[(c.name, VP)]}
        if late and cands:
            got = yield [(v.name, VP, tuple(v.key), set(map(_proj(attrs, v.key), cands)))
                         for v in late]
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
                affected |= {t for t, v in stored_rows.items() if v == 1 and up(t) in ks}
        return _Change(d, keys, affected)

    def _stage(self, node: _Node, cand_keys: Keys, new_rows: dict[tuple, int],
               counts: dict[tuple, int]) -> None:
        """Queue the node's rewrite for the batch's commit: its rows
        under the candidates' keys and its V_p under the moved keys give
        way to the candidates' new rows and the moved counts."""
        self._drop += [(node.name, ROW, cols, ks) for cols, ks in cand_keys.items()]
        self._add[(node.name, ROW)].update(new_rows)
        if counts:
            self._drop.append((node.name, VP, tuple(node.key), set(counts)))
            self._add[(node.name, VP)].update((k, n) for k, n in counts.items() if n > 0)

    # ------------------------------------------------------------------
    def _output_delta(self, done: dict[str, _Change]) -> list[tuple]:
        """ΔQ of the batch: the weighted top-down join from the root
        tuples above a changed V_s tuple. A superset of the affected
        tuples is safe: unchanged outputs get sign 0."""
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
                on = cols if name == root.name else self.nodes[name].key
                pieces[name] = (name, VS, tuple(on), set(map(_proj(cols, on), acc)))
            got = self._fetch(list(pieces.values()))
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
        if not acc:  # else the pass stopped early, and ``cols`` may lack y
            return []
        to_y = _proj(cols, y)
        out = _summed((to_y(t), o, n) for t, (o, n) in acc.items())
        return [(*t, (n > 0) - (o > 0)) for t, (o, n) in out.items() if (n > 0) != (o > 0)]

    def _weights(self, got: Got, piece: Piece, done: dict[str, _Change],
                 cols: Sequence[str]) -> dict[tuple, tuple[int, int]]:
        """The node's V_s rows that ``piece`` fetched, and the tuples of
        its d that the piece matches, projected onto ``cols``, with
        summed old/new derivation weights: a V_s row counts (1, 1), a
        tuple of d (−sign, 0)."""
        name, _, on, keys = piece
        to = _proj(self.nodes[name].attrs, cols)
        rows = [(to(t), 1, 1) for t in got[(name, ROW)]]
        if name in done:
            hit = matcher(self.tree, (name, ROW, on, keys))
            rows += [(to(t), -s, 0) for t, s in done[name].d.items() if hit(t, s)]
        return _summed(rows)
