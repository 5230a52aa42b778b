"""CROWN: change propagation without joins (§4–§5 of the paper).

``CrownEngine`` maintains, for every node ``e`` of a free-connex
generalized join tree:

- the relation ``R_e`` (real for input relations, virtual for
  generalized nodes) with a *derivation counter* per tuple — the number
  of children ``e_i`` whose projection view contains ``t[key(e_i)]``;
- the semi-join view ``V_s(R_e)`` = tuples whose counter equals the
  number of children (Algorithms 2–4: R-/S-/P-UPDATE);
- the projection view ``V_p(R_e) = π_key(e) V_s(R_e)`` via grouped hash
  indexes (derivation counting);
- the live view ``V_l(R_e) = π_{e∩y} Q(D)`` (Lemma 5.5), used for
  witness detection (Def. 5.6) and the delta-enumeration chains.
  After each update only the live nodes below a witness can change;
  their candidate values are read off the delta's factors: the S-chain
  partials and the per-key child rows.

Per update the engine emits the exact delta ``ΔQ(D, t)`` (Algorithm 6)
and supports full enumeration (Algorithm 5). Both run as loop nests
generated per query and tree at construction: one function per witness
plan, per FullEnum(e, key) and for the full enumeration, each reading
columns by position and the node dicts it binds as its globals
(``_Source``), compiled under a file name that names the query and the
plan, e.g. ``<crown 4hop_full G1>``.

Inserts and deletes share one signed walk up the atom's path to the
root (``_propagate``, d = ±1): it moves every counter at once and reads
each V_s crossing off V_s as it was before the update. Enumeration and
V_l upkeep read V_s and V_l only, never a counter, so V_s moves before
an insert's delta is enumerated and after a deletion's ("delta
enumeration upon a deletion is done before the tuple deletion").

Design notes (see DESIGN.md § semantic decisions): witnesses use
``Δ(π_y V_s)`` via projection refcounts; witness checks and S-chains
exclude the current update's own Δ values at every chain node, which
realizes the "highest changed node claims the result" disjointness
argument of Lemma 5.7 for insertions and deletions alike. The same
exclusion keeps every chain value live across the update, so V_l
upkeep is limited to the witness node's subtree.
"""
from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, Iterator

from repro.cq.join_tree import JoinTree, checked_tree
from repro.cq.query import CQ
from repro.streams.sequences import Update


def _getter(pos: Iterable[int]) -> Callable[[tuple], tuple]:
    """Compiled projection ``t -> tuple(t[i] for i in pos)``."""
    pos = tuple(pos)
    if len(pos) > 1:
        return itemgetter(*pos)
    # a slice keeps the tuple shape where itemgetter(i) would unwrap it
    return itemgetter(slice(pos[0], pos[0] + 1) if pos else slice(0, 0))


class _Source:
    """The source of one generated function, ``fn``. Columns are read by
    position only (``v1[0]``), and every object the code reads is bound
    in its globals under a generated name, so no attribute, relation or
    node name enters the source."""

    def __init__(self, params: str) -> None:
        self.lines = [f"def fn({params}):"]
        self.env: dict[str, object] = {"E": ()}
        self.depth = 1
        self.cols: dict[str, str] = {}  # attribute -> an expression holding it
        self.rows: list[tuple[str, tuple[str, ...]]] = []  # bound (variable, layout)

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def open(self, text: str) -> None:
        self.line(text)
        self.depth += 1

    def bind(self, value: object) -> str:
        name = f"g{len(self.env)}"
        self.env[name] = value
        return name

    def row(self, var: str, layout: tuple[str, ...]) -> None:
        """From here on, ``var`` holds a tuple laid out as ``layout``."""
        self.rows.append((var, layout))
        for i, a in enumerate(layout):
            self.cols.setdefault(a, f"{var}[{i}]")

    def tup(self, attrs: Iterable[str]) -> str:
        """The tuple of ``attrs``: a bound row itself if it has exactly
        that layout, else a tuple display of its columns."""
        attrs = tuple(attrs)
        for var, layout in self.rows:
            if layout == attrs:
                return var
        return "(" + "".join(f"{self.cols[a]}, " for a in attrs) + ")"

    def read(self, var: str, layout: tuple[str, ...], attrs: Iterable[str]) -> str:
        """``tup(attrs)`` with ``var`` bound for this expression only."""
        cols, rows = dict(self.cols), list(self.rows)
        self.row(var, layout)
        try:
            return self.tup(attrs)
        finally:
            self.cols, self.rows = cols, rows

    def build(self, filename: str) -> Callable:
        exec(compile("\n".join(self.lines) + "\n", filename, "exec"), self.env)
        # popped, so the function is no part of its own globals: no
        # reference cycle keeps a dropped engine's state alive
        return self.env.pop("fn")


class _Node:
    """Mutable per-node state (views, counters, hash indexes). ``sat``
    and ``up_idx`` are set by ``CrownEngine._compile``."""

    def __init__(self, tree: JoinTree, name: str, y: frozenset[str]) -> None:
        tn = tree.node(name)
        self.name = name
        self.attrs: tuple[str, ...] = tn.attrs
        self.is_gen = tn.is_generalized
        self.parent: str | None = tn.parent
        self.children: tuple[str, ...] = tn.children
        self.is_root = tn.parent is None

        def pos_of(sub: Iterable[str]) -> tuple[int, ...]:
            return tuple(self.attrs.index(a) for a in sub)

        key = tree.key(name)
        self.key_get = _getter(pos_of(key))
        self.y_attrs = tuple(sorted(set(self.attrs) & y))
        self.y_get = _getter(pos_of(self.y_attrs))
        self.boundary = bool(set(self.attrs) - y)
        # extra output attrs beyond the parent key (Algorithm 5 line 2/3)
        self.extra_y = bool(set(self.y_attrs) - set(key))
        self.key_y_attrs = tuple(a for a in key if a in y)
        self.key_y_get = _getter(self.y_attrs.index(a) for a in self.key_y_attrs)
        # child c -> projection of t / of a y-value onto key(c)
        self.ck_get: dict[str, Callable[[tuple], tuple]] = {}
        self.cky_get: dict[str, Callable[[tuple], tuple]] = {}
        for c in self.children:
            self.ck_get[c] = _getter(pos_of(tree.key(c)))
            self.cky_get[c] = _getter(self.y_attrs.index(a) for a in tree.key(c) if a in y)
        self.def_children = frozenset(tree.defining_children(name))
        # dynamic state
        self.tuples: dict[tuple, int] = {}
        self.def_pres: dict[tuple, int] = {}  # defining-support refcounts
        self.child_index: dict[str, dict[tuple, set]] = (
            {c: {} for c in self.children if c not in self.def_children}
            if self.children
            else {}
        )
        # (child index, projection) per counted (non-defining) child
        self.cidx = [
            (self.child_index[c], self.ck_get[c]) for c in self.child_index
        ]
        self.vs_by_key: dict[tuple, set] = {}
        self.vs_yproj: dict[tuple, int] = {}
        self.needs_kyproj = self.boundary and self.extra_y
        self.vs_key_yproj: dict[tuple, dict[tuple, int]] = {}
        self.live_maintained = bool(self.children) and (
            bool(self.y_attrs) or not self.attrs
        )
        self.live: set | None = set() if self.live_maintained else None
        self.live_idx: dict[str, dict[tuple, set]] = (
            {c: {} for c in self.children} if self.live_maintained else {}
        )

    @property
    def n_children(self) -> int:
        return len(self.children)

    def vs_move(self, ts: list[tuple], d: int) -> None:
        """Move ``ts`` into (d = 1) or out of (d = -1) V_s and its
        indexes: V_p's groups and the π_y refcounts."""
        for t in ts:
            kv, yv = self.key_get(t), self.y_get(t)
            if d > 0:
                self.vs_by_key.setdefault(kv, set()).add(t)
            else:
                s = self.vs_by_key[kv]
                s.discard(t)
                if not s:
                    del self.vs_by_key[kv]
            _count(self.vs_yproj, yv, d)
            if self.needs_kyproj:
                ky = self.vs_key_yproj.setdefault(kv, {})
                _count(ky, yv, d)
                if not ky:
                    del self.vs_key_yproj[kv]


def _count(counts: dict, k: object, d: int) -> None:
    """``counts[k] += d``, dropping ``k`` at zero."""
    c = counts.get(k, 0) + d
    if c:
        counts[k] = c
    else:
        del counts[k]


class CrownEngine:
    """The paper's framework: join-free change propagation + enumeration.

    Results are plain tuples throughout. Every projection is an
    ``operator.itemgetter``, and every enumeration (FullEnum per node,
    each witness plan, ``enumerate_full``) is one loop nest of Python
    source generated and compiled once, at construction (``_compile``).

    Parameters
    ----------
    cq : the (free-connex) conjunctive query.
    tree : a free-connex generalized join tree; ``best_tree(cq)`` when
        omitted (§6.3 heuristic).
    post_filter : optional predicate over a result dict keyed by output
        attribute, applied at emission only (selections over output
        attrs, e.g. SNB Q3's ``<>``); internal views maintain the
        unfiltered query.
    emit_deltas : when False, ``apply`` skips witness detection and
        delta enumeration (pure maintenance mode, used by the
        enclosureness experiments and for bulk loading).

    ``stats`` counts ``updates`` and emitted ``deltas``, the
    ``counter_changes`` of propagation, the ``witnesses`` (S-chain
    partials that survive, one per result group enumerated) and the
    ``noop_updates`` dropped by set semantics (per atom).
    """

    def __init__(
        self,
        cq: CQ,
        tree: JoinTree | None = None,
        post_filter: Callable[[dict[str, object]], bool] | None = None,
        emit_deltas: bool = True,
    ) -> None:
        self.cq = cq
        self.tree = checked_tree(cq, tree)
        self.emit_deltas = emit_deltas
        y = cq.output_set
        self.nodes: dict[str, _Node] = {
            n: _Node(self.tree, n, y) for n in self.tree.nodes
        }
        # per atom: its tree node and its admission rule; per stream: its atoms
        self._atoms = {
            r.name: (self.nodes[self.tree.relation_node(r.name)], cq.admits(r.name))
            for r in cq.relations
        }
        self._stream_atoms: dict[str, list] = {}
        for r in cq.relations:
            self._stream_atoms.setdefault(r.stream, []).append(self._atoms[r.name])
        # post_filter over a result tuple; no closure over self, so no cycle
        names = cq.output
        self._keep = None if post_filter is None else (
            lambda r: post_filter(dict(zip(names, r))))
        self._compile()
        self.stats = {"counter_changes": 0, "updates": 0, "deltas": 0,
                      "witnesses": 0, "noop_updates": 0}

    def _compile(self) -> None:
        """Generate, once, the Python source of every enumeration loop
        nest and ``exec`` it with the node dicts it reads bound as its
        globals (``_Source``):

        - per non-root node that is no boundary and has enumerated
          children, its part FullEnum(e, key) (Algorithm 5): its V_s
          tuples under the key, each joined with its children's parts,
          as flat rows whose columns ``rows`` names (the key's columns,
          known to the caller, left out). A boundary node's part is its
          stored π_y rows per key, a leaf's its V_s tuples per key; a
          child that adds no column to its key is left out (its part is
          non-empty by the V_s invariant);
        - per witness node (the root, and each node with output attrs
          under a live parent), a kernel (Algorithm 6, Def. 5.6): the
          S-chain to the root, one ``for`` per step that skips the
          update's own Δ values at the step's node; on each surviving
          partial (a witness, counted) the V_l adds read off it; the
          parts of the children joined onto the chain, those feeding
          V_l read once per distinct (child, key); then one loop per
          part, appending ``(sign, row)`` in ``cq.output`` order;
        - ``enumerate_full``'s generator, the root kernel's loop nest
          over all of π_y V_s(root).
        """
        nodes, tree, out = self.nodes, self.tree, self.cq.output
        preorder = [nodes[name] for name in tree.preorder()]
        order = {n.name: i for i, n in enumerate(preorder)}
        # per node: (part, rows) -- a stored dict or a compiled FullEnum,
        # and the columns of its rows -- or None when it adds no column
        parts: dict[str, tuple | None] = {}
        for n in reversed(preorder):  # children first
            n.sat = [(nodes[c].vs_by_key, n.ck_get[c]) for c in n.children]
            if n.boundary:
                parts[n.name] = (n.vs_key_yproj, n.y_attrs) if n.extra_y else None
                continue
            if n.is_root:
                continue  # no parent reads it; see enumerate_full's generator
            kids = self._kids(n, parts)
            if not kids:
                parts[n.name] = (n.vs_by_key, n.attrs)
                continue
            key = set(tree.key(n.name))
            rows = tuple(dict.fromkeys(
                a for a in sum((k[2] for k in kids), ()) + n.attrs if a not in key))
            if not rows:
                parts[n.name] = None
                continue
            src = _Source("kv")
            src.line("out = []")
            src.line("add = out.append")
            src.open(f"for t in {src.bind(n.vs_by_key)}.get(kv, E):")
            src.row("t", n.attrs)
            self._nest(src, kids, order, rows, "add({})", "out += {}")
            src.depth = 1
            src.line("return out")
            parts[n.name] = (src.build(self._label(f"FullEnum {n.name}")), rows)
        root = preorder[0]
        src = _Source("")
        src.open(f"for v0 in {src.bind(root.vs_yproj)}:")
        src.row("v0", root.y_attrs)
        self._nest(src, self._kids(root, parts), order, out, "yield {}", "yield from {}")
        self._full = src.build(self._label("enumerate_full"))
        # live nodes root-first (deletion check is top-down)
        self._live_nodes = [n for n in preorder if n.live_maintained]
        live_at = {n.name: i for i, n in enumerate(self._live_nodes)}
        self._wplans: dict[str, Callable] = {}
        for n in preorder:
            parent = nodes[n.parent] if n.parent else None
            up = parent is not None and parent.live is not None
            n.up_idx = parent.live_idx[n.name] if up else None
            if not n.is_root and not (up and n.y_attrs):
                continue
            path = [nodes[p] for p in tree.path_to_root(n.name)]
            chain = list(zip(path, path[1:]))
            head = n.y_attrs + sum((f.y_attrs for _, f in chain), ())
            # the enumerated children joined onto the chain; a boundary
            # node's subtree adds only e∩y, already in the chain
            own = [] if n.boundary else self._kids(n, parts)
            kids = own + [k for prev, f in chain if not f.boundary
                          for k in self._kids(f, parts) if k[0] is not prev]
            # V_l getters: only the live nodes of n's subtree can change
            # (DESIGN.md), each read from the head or from one of n's own
            # enumerated children
            heads: list[tuple[int, tuple]] = []
            for m in tree.subtree(n.name):
                if m not in live_at:
                    continue
                ya = nodes[m].y_attrs
                if set(ya) <= set(head):
                    heads.append((live_at[m], ya))
                    continue
                kid = next((k for k in own
                            if set(ya) <= set(tree.key(k[0].name)) | set(k[2])), None)
                if kid is None:
                    raise ValueError(
                        f"live node {m}: y-attributes {ya} are in neither the "
                        f"witness plan head {head} of {n.name} nor one child's rows"
                    )
                kid[3].append((live_at[m], ya))
            src = _Source("ys, ch, out, sign, L, seen")
            for i in sorted({i for i, _ in heads} | {i for k in kids for i, _ in k[3]}):
                src.line(f"L{i} = L[{i}]")
            src.line("add = out.append")
            src.line("nw = 0")
            for j, (_, f) in enumerate(chain, 1):
                src.line(f"X{j} = ch.get({src.bind(f.name)}, E)")
            src.open("for v0 in ys:")
            src.row("v0", n.y_attrs)
            for j, (prev, f) in enumerate(chain, 1):
                idx = src.bind(f.live_idx[prev.name])
                src.open(f"for v{j} in {idx}.get({src.tup(prev.key_y_attrs)}, E):")
                src.line(f"if v{j} in X{j}: continue")
                src.row(f"v{j}", f.y_attrs)
            src.line("nw += 1")
            for i, ya in heads:
                src.line(f"L{i}.add({src.tup(ya)})")
            self._nest(src, kids, order, out, "add((sign, {}))", None)
            src.depth = 1
            src.line("return nw")
            self._wplans[n.name] = src.build(self._label(n.name))

    def _label(self, what: str) -> str:
        """The file name a generated function is compiled under, so that
        profiles and tracebacks name its query and plan."""
        return f"<crown {self.cq.name} {what}>"

    def _kids(self, n: _Node, parts: dict[str, tuple | None]) -> list[list]:
        """``[child, part, rows, V_l getters]`` per child of ``n`` that
        adds columns to its key."""
        return [[self.nodes[c], *parts[c], []] for c in n.children if parts[c] is not None]

    def _nest(self, src: _Source, kids: list[list], order: dict[str, int],
              cols: tuple[str, ...], emit: str, whole: str | None) -> None:
        """Into ``src``, at rows already bound: each kid's part under its
        key (feeding the kid's V_l getters once per distinct key, through
        ``seen``), then one loop per part; the innermost line is ``emit``
        of the row of ``cols``, or ``whole`` of the last part when that
        row is the last part's row itself."""
        for j, (c, part, rows, getters) in enumerate(kids):
            k = src.tup(self.tree.key(c.name))
            if getters and not k.isidentifier():
                src.line(f"k{j} = {k}")
                k = f"k{j}"
            g = src.bind(part)
            src.line(f"p{j} = {g}({k})" if callable(part) else f"p{j} = {g}.get({k}, E)")
            if getters:
                src.open(f"if ({order[c.name]}, {k}) not in seen:")
                src.line(f"seen.add(({order[c.name]}, {k}))")
                for i, ya in getters:
                    e = src.read("r", rows, ya)
                    src.line(f"L{i}.update(p{j})" if e == "r"
                             else f"L{i}.update([{e} for r in p{j}])")
                src.depth -= 1
        for j, (_, _, rows, _) in enumerate(kids):
            src.row(f"r{j}", rows)
            if whole and j == len(kids) - 1 and src.tup(cols) == f"r{j}":
                src.line(whole.format(f"p{j}"))
                return
            src.open(f"for r{j} in p{j}:")
        src.line(emit.format(src.tup(cols)))

    # ------------------------------------------------------------------
    # update entry points
    # ------------------------------------------------------------------
    def apply(self, u: Update) -> list[tuple[int, tuple]]:
        """Process one update; return the delta as ``[(±1, y-tuple)]``."""
        out: list[tuple[int, tuple]] = []
        t = u.tuple
        for node, admit in self._stream_atoms.get(u.stream, ()):
            if admit(t):
                out.extend(self._apply_atom(node, t, u.is_insert))
        self.stats["updates"] += 1
        self.stats["deltas"] += len(out)
        return out

    def apply_atom(self, rel: str, t: tuple, is_insert: bool) -> list[tuple[int, tuple]]:
        """Atom-level update (used by the HyperCube-partitioned engine,
        which dispatches each self-join copy independently)."""
        node, admit = self._atoms[rel]
        if not admit(t):
            return []
        out = self._apply_atom(node, t, is_insert)
        self.stats["updates"] += 1
        self.stats["deltas"] += len(out)
        return out

    def run(self, seq: Iterable[Update]) -> list[tuple[int, tuple]]:
        out: list[tuple[int, tuple]] = []
        for u in seq:
            out.extend(self.apply(u))
        return out

    def bulk_load(self, db: dict[str, Iterable[tuple]]) -> None:
        """Load initial data (insertion-only, deltas suppressed), then
        rebuild live views from one full enumeration (O(|Q(D)|))."""
        keep = self.emit_deltas
        self.emit_deltas = False
        for stream, rows in db.items():
            for t in rows:
                self.apply(Update(stream, tuple(t), True))
        self.emit_deltas = keep
        if self.emit_deltas:
            self.rebuild_live()

    def _apply_atom(self, node: _Node, t: tuple, is_insert: bool) -> list[tuple[int, tuple]]:
        if (t in node.tuples) == is_insert:
            self.stats["noop_updates"] += 1
            return []  # set semantics: non-effective update
        d = 1 if is_insert else -1
        changes, moves = self._propagate(node, t, d)
        # enumeration and V_l upkeep read V_s, never the counters: V_s
        # moves before enumerating an insert and after enumerating a
        # deletion ("delta enumeration upon a deletion is done before the
        # tuple deletion")
        if is_insert:
            for n, ts in moves:
                n.vs_move(ts, 1)
        emit = self.emit_deltas and bool(changes)
        out, lives = self._collect_deltas(changes, d) if emit else ([], None)
        if not is_insert:
            for n, ts in moves:
                n.vs_move(ts, -1)
        if lives is not None:
            (self._live_insert if is_insert else self._live_delete)(lives)
        keep = self._keep
        return out if keep is None else [r for r in out if keep(r[1])]

    # ------------------------------------------------------------------
    # propagation (Algorithms 2–4, level-wise along the path to root)
    # ------------------------------------------------------------------
    def _propagate(self, node: _Node, t: tuple, d: int
                   ) -> tuple[dict[str, set], list[tuple[_Node, list]]]:
        """R-/S-/P-UPDATE for inserting (d = 1) or deleting (d = -1) ``t``
        at ``node``, in one walk up the path to the root. Every counter
        moves at once; V_s does not, so each crossing is read off V_s as
        it was before the update. Returns each changed node's Δ(π_y V_s)
        values and, per level, the tuples that cross V_s."""
        changes: dict[str, set] = {}
        moves: list[tuple[_Node, list]] = []
        stats = self.stats
        # R-UPDATE (Algorithm 4): a new tuple counts its satisfied children
        if d > 0:
            cnt = node.tuples[t] = self._child_sat_count(node, t)
            self._index(node, t)
        else:
            cnt = node.tuples.pop(t)
            self._unindex(node, t)
        stats["counter_changes"] += 1
        movers = [t] if cnt == node.n_children else []
        while movers:
            moves.append((node, movers))
            # a π_y value or V_p key crosses iff none of its V_s tuples
            # were there (insert) or all of them leave (delete)
            ycnt: dict[tuple, int] = {}
            kcnt: dict[tuple, int] = {}
            for t2 in movers:
                yv, kv = node.y_get(t2), node.key_get(t2)
                ycnt[yv] = ycnt.get(yv, 0) + 1
                kcnt[kv] = kcnt.get(kv, 0) + 1
            vs_y, vs_k = node.vs_yproj, node.vs_by_key
            y_d = {yv for yv, c in ycnt.items() if vs_y.get(yv, 0) == (c if d < 0 else 0)}
            if y_d:
                changes[node.name] = y_d
            if node.is_root:
                break
            vp_d = [kv for kv, c in kcnt.items() if len(vs_k.get(kv, ())) == (c if d < 0 else 0)]
            child, node = node, self.nodes[node.parent]
            # a tuple crosses iff its counter was n - 1 (insert) or n (delete)
            cross = node.n_children - (d > 0)
            tuples, movers = node.tuples, []
            if child.name in node.def_children:
                # P-UPDATE from a defining child of a generalized node:
                # the child's V_p keys are candidate tuples of the virtual
                # relation R_e (intersection counting, eq. (4),
                # generalized to mixed-key children)
                pres = node.def_pres
                for kv in vp_d:
                    if kv in pres:
                        old = tuples[kv]
                        pres[kv] += d
                        if pres[kv]:
                            tuples[kv] = old + d
                        else:  # last defining support gone: the candidate vanishes
                            del pres[kv], tuples[kv]
                            self._unindex(node, kv)
                    else:  # a new candidate: its other children's support, + 1 for this child
                        pres[kv] = 1
                        old = self._child_sat_count(node, kv)
                        tuples[kv] = old + 1
                        self._index(node, kv)
                    stats["counter_changes"] += 1
                    if old == cross:
                        movers.append(kv)
            else:
                # P-UPDATE (Algorithm 3): move the counters of matching tuples
                idx = node.child_index[child.name]
                for kv in vp_d:
                    for t2 in idx.get(kv, ()):
                        old = tuples[t2]
                        tuples[t2] = old + d
                        stats["counter_changes"] += 1
                        if old == cross:
                            movers.append(t2)
        return changes, moves

    @staticmethod
    def _child_sat_count(node: _Node, t: tuple) -> int:
        """#children c with t[key(c)] ∈ V_p(c) (Algorithm 4 lines 3–5)."""
        cnt = 0
        for vp, g in node.sat:
            if g(t) in vp:
                cnt += 1
        return cnt

    @staticmethod
    def _index(node: _Node, t: tuple) -> None:
        for idx, g in node.cidx:
            idx.setdefault(g(t), set()).add(t)

    @staticmethod
    def _unindex(node: _Node, t: tuple) -> None:
        for idx, g in node.cidx:
            kv = g(t)
            s = idx[kv]
            s.discard(t)
            if not s:
                del idx[kv]

    # ------------------------------------------------------------------
    # witnesses (Def. 5.6) and delta enumeration (Algorithm 6)
    # ------------------------------------------------------------------
    def _collect_deltas(self, changes: dict[str, set], sign: int
                        ) -> tuple[list[tuple[int, tuple]], list[set]]:
        """Every ``(sign, result)`` claimed by a witness, results in
        ``cq.output`` order, and per live node (``_live_nodes`` order)
        the V_l values those results project onto, read from the
        results' factors: a plan's head getters act once per partial,
        its child getters once per distinct child key.

        A Δ(π_y V_s) value is a witness iff its first S-chain step joins
        a parent live value outside this update's own Δ values, so the
        S-chain walk is the witness check. Each chain step excludes the
        update's Δ values at that node (disjointness, Lemma 5.7). The
        root's plan has no chain: each of its Δ values is a witness."""
        out: list[tuple[int, tuple]] = []
        lives: list[set] = [set() for _ in self._live_nodes]
        seen: set[tuple] = set()  # (child, key) pairs already read for V_l
        witnesses = 0
        for name, ys in changes.items():
            kernel = self._wplans.get(name)
            if kernel is not None:
                witnesses += kernel(ys, changes, out, sign, lives, seen)
        self.stats["witnesses"] += witnesses
        return out, lives

    # ------------------------------------------------------------------
    # full enumeration (Algorithm 5)
    # ------------------------------------------------------------------
    def enumerate_full(self) -> Iterator[tuple]:
        """Constant-delay full enumeration of Q(D) (Lemma 5.3): the
        generated loop nest over π_y V_s(root), which reads the live
        state, so drain it before the next update."""
        rows = self._full()
        return rows if self._keep is None else filter(self._keep, rows)

    def full_result_set(self) -> set[tuple]:
        return set(self.enumerate_full())

    # ------------------------------------------------------------------
    # live views (Lemma 5.5), maintained after each delta enumeration
    # from the candidate sets ``_collect_deltas`` read off the witness
    # plans' factors: only nodes in a witness node's subtree get any
    # ------------------------------------------------------------------
    def _live_insert(self, lives: list[set]) -> None:
        for node, cand in zip(self._live_nodes, lives):
            if not cand:
                continue
            new = cand - node.live
            node.live |= new
            for c, idx in node.live_idx.items():
                g = node.cky_get[c]
                for lv in new:
                    idx.setdefault(g(lv), set()).add(lv)

    def _live_delete(self, lives: list[set]) -> None:
        # top-down: parent live views settle before children are checked
        for node, cand in zip(self._live_nodes, lives):
            if not cand:
                continue
            up, vs_y, kyg = node.up_idx, node.vs_yproj, node.key_y_get
            gone = [
                lv for lv in cand & node.live
                if lv not in vs_y or (up is not None and not up.get(kyg(lv)))
            ]
            node.live.difference_update(gone)
            for c, idx in node.live_idx.items():
                g = node.cky_get[c]
                for lv in gone:
                    jv = g(lv)
                    s = idx[jv]
                    s.discard(lv)
                    if not s:
                        del idx[jv]

    def rebuild_live(self) -> None:
        """Recompute every live view: the root's witness plan, run over
        all of π_y V_s(root), reads V_l off the whole of Q(D)."""
        for node in self._live_nodes:
            node.live.clear()
            for idx in node.live_idx.values():
                idx.clear()
        lives: list[set] = [set() for _ in self._live_nodes]
        root = self.tree.root
        self._wplans[root](self.nodes[root].vs_yproj.keys(), {}, [], 1, lives, set())
        self._live_insert(lives)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def space(self) -> int:
        """Total stored entries across all views/indexes (Lemma 4.1)."""
        total = 0
        for n in self.nodes.values():
            total += len(n.tuples)
            total += sum(len(s) for idx in n.child_index.values() for s in idx.values())
            total += sum(len(s) for s in n.vs_by_key.values())
            total += len(n.vs_yproj)
            total += sum(len(d) for d in n.vs_key_yproj.values())
            if n.live is not None:
                total += len(n.live)
        return total
