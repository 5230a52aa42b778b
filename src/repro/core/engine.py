"""CROWN: change propagation without joins (§4–§5 of the paper).

``CrownEngine`` maintains, for every node ``e`` of a free-connex
generalized join tree:

- the relation ``R_e`` (real for input relations, virtual for
  generalized nodes) with a *derivation counter* per tuple — the number
  of children ``e_i`` whose projection view contains ``t[key(e_i)]``;
- the semi-join view ``V_s(R_e)`` = tuples whose counter equals the
  number of children (Algorithms 2–4: R-/S-/P-UPDATE);
- the projection view ``V_p(R_e) = π_key(e) V_s(R_e)`` via grouped hash
  indexes (derivation counting), below the root only: no node reads
  the root's;
- the live view ``V_l(R_e) = π_{e∩y} Q(D)`` (Lemma 5.5), held only as
  its groupings ``live_idx``, one per key∩y layout of the children,
  which the witness kernels' S-chains walk (Def. 5.6). It is the
  semi-join of π_y V_s down the tree: V_l(root) = π_y V_s(root), and a
  live node's V_l holds the values of its π_y V_s whose key(e)∩y group
  is live in its parent.

Every index is tied to a key layout, not to a child: children with one
layout share one grouping, which each trigger writes once.

Per update the engine emits the exact delta ``ΔQ(D, t)`` (Algorithm 6)
and supports full enumeration (Algorithm 5). Both, and maintenance, run
as Python generated per query and tree at construction (``_Source``):
per atom and sign a *trigger*, and a loop nest per witness plan, per
FullEnum(e, key) and for the full enumeration. Each reads columns by
position, binds the node dicts it reads as its globals, and is compiled
once per source under a file name that names the query and the plan,
e.g. ``<crown 4hop_full trigger G1 +1>`` or ``<crown 4hop_full G1>``.

An atom's path to the root is fixed, so its trigger resolves every
per-level decision when it is written: R-UPDATE, then per level the
crossing test and the counted or defining-child P-UPDATE, each mover
carried with its key and π_y value into its V_s move; then direct calls
to the witness kernels of the changed nodes, and V_l upkeep. Crossings
are read off V_s as it was before the update. Enumeration reads V_s and
V_l only, never a counter, so V_s moves before an insert's delta is
enumerated and after a deletion's ("delta enumeration upon a deletion
is done before the tuple deletion"). V_l upkeep follows, top-down from
the Δ(π_y V_s) values of the path and the parent groups that appear or
vanish, whether or not deltas are emitted.

Design notes (see DESIGN.md § semantic decisions): witnesses use
``Δ(π_y V_s)`` via projection refcounts; witness checks and S-chains
exclude the current update's own Δ values at every chain node, which
realizes the "highest changed node claims the result" disjointness
argument of Lemma 5.7 for insertions and deletions alike.
"""
from __future__ import annotations

from functools import lru_cache
from types import CodeType
from typing import Callable, Iterable, Iterator

from repro.cq.join_tree import JoinTree, checked_tree
from repro.cq.query import CQ
from repro.streams.sequences import Update


def _proj(var: str, layout: tuple[str, ...], attrs: Iterable[str]) -> str:
    """Source of the tuple of ``attrs`` read by position off ``var``, a
    row laid out as ``layout``: ``var`` itself when it is that tuple."""
    attrs = tuple(attrs)
    if attrs == layout:
        return var
    return "(" + "".join(f"{var}[{layout.index(a)}], " for a in attrs) + ")"


@lru_cache(maxsize=1024)
def _code(text: str, filename: str) -> CodeType:
    """The compiled code of a generated source. The source names no
    object, so it is the same for every engine on one query and tree."""
    return compile(text, filename, "exec")


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

    def group(self, idx: str, key: str, x: str, new: str = "") -> None:
        """Add ``x`` to the set of the grouped index ``idx`` under ``key``;
        ``new`` runs when the group appears."""
        self.line(f"s = {idx}.get({key})")
        self.line(f"if s is None: {idx}[{key}] = {{{x}}}{new}")
        self.line(f"else: s.add({x})")

    def ungroup(self, idx: str, key: str, x: str, gone: str = "") -> None:
        """Remove ``x`` from that set, dropping the set once empty;
        ``gone`` runs when the group vanishes."""
        self.line(f"s = {idx}[{key}]")
        self.line(f"if len(s) > 1: s.remove({x})")
        self.line(f"else: del {idx}[{key}]{gone}")

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

    def build(self, filename: str) -> Callable:
        exec(_code("\n".join(self.lines) + "\n", filename), self.env)
        # popped, so the function is no part of its own globals: no
        # reference cycle keeps a dropped engine's state alive
        return self.env.pop("fn")


class _Node:
    """Mutable per-node state (views, counters, hash indexes), read and
    written by the code ``CrownEngine._compile`` generates."""

    def __init__(self, tree: JoinTree, name: str, y: frozenset[str]) -> None:
        tn = tree.node(name)
        self.name = name
        self.attrs: tuple[str, ...] = tn.attrs
        self.is_gen = tn.is_generalized
        self.parent: str | None = tn.parent
        self.children: tuple[str, ...] = tn.children
        self.n_children = len(self.children)
        self.is_root = tn.parent is None
        key = tree.key(name)
        self.y_attrs = tuple(sorted(set(self.attrs) & y))  # a π_y value's layout
        self.boundary = bool(set(self.attrs) - y)
        # extra output attrs beyond the parent key (Algorithm 5 line 2/3)
        self.extra_y = bool(set(self.y_attrs) - set(key))
        self.key_y_attrs = tuple(a for a in key if a in y)
        self.def_children = frozenset(tree.defining_children(name))
        self.counted = tuple(c for c in self.children if c not in self.def_children)
        # dynamic state
        self.tuples: dict[tuple, int] = {}
        self.def_pres: dict[tuple, int] = {}  # defining-support refcounts
        # per key layout of the counted children: a key -> the tuples under it
        self.child_index: dict[tuple[str, ...], dict[tuple, set]] = {
            tree.key(c): {} for c in self.counted}
        # V_s grouped by key (V_p) and its π_y refcounts, also per key;
        # the root keeps neither grouping, since no node reads V_p(root)
        self.vs_by_key: dict[tuple, set] = {}
        self.vs_yproj: dict[tuple, int] = {}
        self.needs_kyproj = self.boundary and self.extra_y and not self.is_root
        self.vs_key_yproj: dict[tuple, dict[tuple, int]] = {}
        self.live_maintained = bool(self.children) and (
            bool(self.y_attrs) or not self.attrs
        )
        # V_l, held only as its groupings: per key∩y layout of the
        # children, a key∩y value -> the V_l values under it
        self.live_idx: dict[tuple[str, ...], dict[tuple, set]] = {
            tuple(a for a in tree.key(c) if a in y): {} for c in self.children
        } if self.live_maintained else {}


class CrownEngine:
    """The paper's framework: join-free change propagation + enumeration.

    Results are plain tuples throughout. Every update runs one generated
    trigger per admitted atom, which also keeps the live views, and
    every enumeration (FullEnum per node, each witness plan,
    ``enumerate_full``) is one generated loop nest that only reads, all
    written and compiled once, at construction (``_compile``).

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
        enclosureness experiments and for bulk loading). The live views
        are kept either way, so it may be switched on at any time.

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
        # post_filter over a result tuple; no closure over self, so no cycle
        names = cq.output
        self._keep = None if post_filter is None else (
            lambda r: post_filter(dict(zip(names, r))))
        self.stats = {"counter_changes": 0, "updates": 0, "deltas": 0,
                      "witnesses": 0, "noop_updates": 0}
        # moved by every update; a running enumerate_full raises once it moves
        self._version = [0]
        self._compile()
        # per atom: its admission rule and its (insert, delete) triggers;
        # per stream: its atoms
        self._atoms = {r.name: (cq.admits(r.name), self._triggers[r.name])
                       for r in cq.relations}
        self._stream_atoms: dict[str, list] = {}
        for r in cq.relations:
            self._stream_atoms.setdefault(r.stream, []).append(self._atoms[r.name])

    def _compile(self) -> None:
        """Generate, once, the Python source of every enumeration loop
        nest and of every trigger, and ``exec`` it with the node dicts it
        reads bound as its globals (``_Source``):

        - per non-root node that is no boundary and has enumerated
          children, its part FullEnum(e, key) (Algorithm 5): its V_s
          tuples under the key, each joined with its children's parts,
          as flat rows whose columns ``rows`` names (the key's columns,
          known to the caller, left out). A boundary node's part is its
          stored π_y rows per key, a leaf's its V_s tuples per key; a
          child that adds no column to its key is left out (its part is
          non-empty by the V_s invariant);
        - per witness node (the root, and each node with output attrs
          under a live parent), a kernel ``fn(ys, X1, ..., out, sign)``
          (Algorithm 6, Def. 5.6): the S-chain to the root, one ``for``
          per step that skips the update's own Δ values at the step's
          node (``X_j``); each surviving partial (a witness, counted)
          joined with the parts of the children off the chain, then
          one loop per part, appending ``(sign, row)`` in ``cq.output``
          order. A kernel only reads;
        - ``enumerate_full``'s generator, the root kernel's loop nest
          over all of π_y V_s(root), which raises once an update moves
          ``_version`` under it;
        - per atom and sign, its trigger (``_trigger``), which also
          keeps the live views (``_live``).
        """
        nodes, tree, out = self.nodes, self.tree, self.cq.output
        preorder = [nodes[name] for name in tree.preorder()]
        # per node: (part, rows) -- a stored dict or a compiled FullEnum,
        # and the columns of its rows -- or None when it adds no column
        parts: dict[str, tuple | None] = {}
        for n in reversed(preorder):  # children first
            if n.is_root:
                continue  # no parent reads it; see enumerate_full's generator
            if n.boundary:
                parts[n.name] = (n.vs_key_yproj, n.y_attrs) if n.extra_y else None
                continue
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
            self._nest(src, kids, rows, "add({})", "out += {}")
            src.depth = 1
            src.line("return out")
            parts[n.name] = (src.build(self._label(f"FullEnum {n.name}")), rows)
        root = preorder[0]
        src = _Source("")
        version = src.bind(self._version)
        moved = f"if {version}[0] != ver: raise RuntimeError('updated during enumerate_full')"
        src.line(f"ver = {version}[0]")
        src.open(f"for v0 in {src.bind(root.vs_yproj)}:")
        src.line(moved)
        src.row("v0", root.y_attrs)
        self._nest(src, self._kids(root, parts), out, "yield {}", "yield from {}")
        src.depth = 1
        src.line(moved)
        self._full = src.build(self._label("enumerate_full"))
        # live nodes root-first, so a parent's groups settle before its
        # children read them; each non-root one has a live parent (Def. 3.2)
        self._live_nodes = [n for n in preorder if n.live_maintained]
        self._wplans: dict[str, Callable] = {}
        for n in preorder:
            if not n.is_root and not (nodes[n.parent].live_maintained and n.y_attrs):
                continue
            path = [nodes[p] for p in tree.path_to_root(n.name)]
            chain = list(zip(path, path[1:]))
            # the enumerated children joined onto the chain; a boundary
            # node's subtree adds only e∩y, already in the chain
            kids = ([] if n.boundary else self._kids(n, parts)) + [
                k for prev, f in chain if not f.boundary
                for k in self._kids(f, parts) if k[0] is not prev]
            xs = "".join(f"X{j}, " for j in range(1, len(path)))
            src = _Source(f"ys, {xs}out, sign")
            src.line("add = out.append")
            src.line("nw = 0")
            src.open("for v0 in ys:")
            src.row("v0", n.y_attrs)
            for j, (prev, f) in enumerate(chain, 1):
                idx = src.bind(f.live_idx[prev.key_y_attrs])
                src.open(f"for v{j} in {idx}.get({src.tup(prev.key_y_attrs)}, E):")
                src.line(f"if v{j} in X{j}: continue")
                src.row(f"v{j}", f.y_attrs)
            src.line("nw += 1")
            self._nest(src, kids, out, "add((sign, {}))", None)
            src.depth = 1
            src.line("return nw")
            self._wplans[n.name] = src.build(self._label(n.name))
        # per atom, its (insert, delete) V_l upkeep and triggers; with no
        # live root there is no live node
        rels = [r.name for r in self.cq.relations]
        self._vl = ({r: (self._live(r, 1), self._live(r, -1)) for r in rels}
                    if self._live_nodes else {})
        self._triggers = {r: (self._trigger(r, 1), self._trigger(r, -1)) for r in rels}

    def _path(self, rel: str) -> list[_Node]:
        """The nodes from atom ``rel``'s node up to the root."""
        return [self.nodes[p] for p in self.tree.path_to_root(self.tree.relation_node(rel))]

    def _label(self, what: str) -> str:
        """The file name a generated function is compiled under, so that
        profiles and tracebacks name its query and plan."""
        return f"<crown {self.cq.name} {what}>"

    def _kids(self, n: _Node, parts: dict[str, tuple | None]) -> list[tuple]:
        """``(child, part, rows)`` per child of ``n`` that adds columns to
        its key."""
        return [(self.nodes[c], *parts[c]) for c in n.children if parts[c] is not None]

    def _nest(self, src: _Source, kids: list[tuple], cols: tuple[str, ...],
              emit: str, whole: str | None) -> None:
        """Into ``src``, at rows already bound: each kid's part under its
        key, then one loop per part; the innermost line is ``emit`` of the
        row of ``cols``, or ``whole`` of the last part when that row is
        the last part's row itself."""
        for j, (c, part, _) in enumerate(kids):
            k, g = src.tup(self.tree.key(c.name)), src.bind(part)
            src.line(f"p{j} = {g}({k})" if callable(part) else f"p{j} = {g}.get({k}, E)")
        for j, (_, _, rows) in enumerate(kids):
            src.row(f"r{j}", rows)
            if whole and j == len(kids) - 1 and src.tup(cols) == f"r{j}":
                src.line(whole.format(f"p{j}"))
                return
            src.open(f"for r{j} in p{j}:")
        src.line(emit.format(src.tup(cols)))

    # ------------------------------------------------------------------
    # triggers: propagation (Algorithms 2–4), V_s moves, witness dispatch
    # (Def. 5.6, Algorithm 6) and V_l upkeep (Lemma 5.5) per atom and sign
    # ------------------------------------------------------------------
    def _trigger(self, rel: str, d: int) -> Callable:
        """``fn(t, out, emit)``: insert (d = 1) or delete (d = -1) ``t`` at
        atom ``rel``'s node. A no-op under set semantics is counted and
        dropped; then R-UPDATE, and per level of the path to the root the
        crossing test (``_crossing``) and the parent's P-UPDATE
        (``_pupdate``). When ``emit`` and a node with a witness kernel
        changed, the kernels append to ``out``; a deletion then moves
        V_s; last, V_l is kept (``_live``)."""
        tree, path = self.tree, self._path(rel)
        top, n = len(path) - 1, path[0]
        src = _Source("t, out, emit")
        stats, tuples = src.bind(self.stats), src.bind(n.tuples)
        noop = f"t in {tuples}" if d > 0 else f"t not in {tuples}"
        src.line(f"if {noop}: {stats}['noop_updates'] += 1; return")
        # R-UPDATE (Algorithm 4): a new tuple counts its satisfied children
        src.line(f"c = {tuples}[t] = 0{self._sat(src, n, 't', n.children)}" if d > 0
                 else f"c = {tuples}.pop(t)")
        self._index(src, n, "t", d)
        # t is not in V_s: nothing crosses
        src.line(f"if c != {n.n_children}: {stats}['counter_changes'] += 1; return")
        src.line("cc = 1")
        # the D{j} (and a deletion's M{j}) of levels the walk may not reach
        later = [f"{v}{j}" for v in ("DM" if d < 0 else "D") for j in range(1, top + 1)]
        if later:
            src.line(" = ".join(later) + " = E")
        key = tree.key(n.name)
        src.line(f"k0 = {_proj('t', n.attrs, key)}")
        src.line(f"y0 = {'k0' if n.y_attrs == key else _proj('t', n.attrs, n.y_attrs)}")
        for j, n in enumerate(path):
            keys = self._crossing(src, n, j, j == top, d)
            if j < top:
                self._pupdate(src, n, path[j + 1], j + 1, keys, d)
        src.depth = 1
        src.line(f"{stats}['counter_changes'] += cc")
        # a kernel per changed path node, with the Δ sets above it as its
        # S-chain exclusions; the root always has one
        calls = [(self._wplans[n.name], [f"D{i}" for i in range(j, top + 1)])
                 for j, n in enumerate(path) if n.name in self._wplans]
        src.open(f"if emit and ({' or '.join(args[0] for _, args in calls)}):")
        src.line("nw = 0")
        for kernel, args in calls:
            src.line(f"if {args[0]}: nw += {src.bind(kernel)}({', '.join(args)}, out, {d})")
        src.line(f"{stats}['witnesses'] += nw")
        src.depth = 1
        if d < 0:
            for j, n in enumerate(path):
                self._vs_out(src, n, j)
        if self._vl:  # the live path nodes' Δ values, once any is not empty
            ds = [f"D{j}" for j, n in enumerate(path) if n.live_maintained]
            upkeep = src.bind(self._vl[rel][d < 0])
            src.line(f"if {' or '.join(ds)}: {upkeep}({', '.join(ds)})")
        return src.build(self._label(f"trigger {rel} {d:+d}"))

    def _sat(self, src: _Source, n: _Node, var: str, children: Iterable[str]) -> str:
        """`` + (var[key(c)] in V_p(c))`` per child c in ``children`` of
        ``n``, whose tuple ``var`` is (Algorithm 4 lines 3–5)."""
        return "".join(f" + ({_proj(var, n.attrs, self.tree.key(c))} in "
                       f"{src.bind(self.nodes[c].vs_by_key)})" for c in children)

    def _index(self, src: _Source, n: _Node, var: str, d: int) -> None:
        """Add (d = 1) or remove (d = -1) ``n``'s tuple ``var`` in its
        ``child_index`` groupings."""
        for layout, idx in n.child_index.items():
            key = _proj(var, n.attrs, layout)
            (src.group if d > 0 else src.ungroup)(src.bind(idx), key, var)

    def _crossing(self, src: _Source, n: _Node, j: int, top: bool, d: int) -> str | None:
        """At level ``j`` (node ``n``), whose movers are ``(t, k0, y0)``
        (level 0) or the ``(t2, k, y)`` of ``M{j}``: ``D{j}``, the π_y
        values that cross V_s, read off V_s as it was before the update;
        an insert moves V_s as it goes, so each value and key crosses at
        its first mover. Returns the V_p keys that cross, ``k0`` or
        ``K{j}``, with the block that has any of them open; None at the
        root, whose V_p no node reads, so it is not kept."""
        vy, vk = src.bind(n.vs_yproj), None if top else src.bind(n.vs_by_key)
        if d > 0:  # a π_y value or V_p key crosses iff it had no V_s tuple
            t, k, y = ("t", "k0", "y0") if j == 0 else ("t2", "k", "y")
            if j:
                src.line(f"D{j} = set()" if top else f"D{j}, K{j} = set(), []")
                src.open(f"for t2, k, y in M{j}:")
            src.line(f"n = {vy}.get({y}, 0)")
            src.line(f"{vy}[{y}] = n + 1")
            src.line("D0 = E if n else {y0}" if j == 0 else f"if not n: D{j}.add(y)")
            if n.needs_kyproj:
                src.line(f"ky = {src.bind(n.vs_key_yproj)}.setdefault({k}, {{}})")
                src.line(f"ky[{y}] = ky.get({y}, 0) + 1")
            if top:
                return None
            src.line(f"s = {vk}.get({k})")
            src.line(f"if s is not None: s.add({t})")
            src.open("else:")
            src.line(f"{vk}[{k}] = {{{t}}}")
            if j == 0:
                return "k0"
            src.line(f"K{j}.append(k)")
            src.depth -= 2
        elif j == 0:  # a deletion: iff all its V_s tuples move
            src.line(f"D0 = {{y0}} if {vy}[y0] == 1 else E")
            if not top:
                src.open(f"if len({vk}[k0]) == 1:")
            return "k0"
        else:
            src.line("yc, kc = {}, {}")
            src.open(f"for t2, k, y in M{j}:")
            src.line("yc[y] = yc.get(y, 0) + 1")
            src.line("kc[k] = kc.get(k, 0) + 1")
            src.depth -= 1
            src.line(f"D{j} = {{y for y, n in yc.items() if {vy}[y] == n}}")
            if not top:
                src.line(f"K{j} = [k for k, n in kc.items() if len({vk}[k]) == n]")
        if top:
            return None
        src.open(f"if K{j}:")
        return f"K{j}"

    def _pupdate(self, src: _Source, child: _Node, f: _Node, j: int, keys: str, d: int) -> None:
        """P-UPDATE of ``f`` from its path child ``child``, whose V_p keys
        ``keys`` (``k0`` or a list) cross: into ``M{j}`` goes each tuple
        of ``f`` whose counter was n - 1 (insert) or n (delete), with its
        key and π_y value; then the block that has any is open."""
        tuples, cross, base = src.bind(f.tuples), f.n_children - (d > 0), src.depth
        kv = "k0" if keys == "k0" else "kv"
        src.line(f"M{j} = []")
        if kv == "kv":
            src.open(f"for kv in {keys}:")
        t = kv
        if child.name in f.def_children:
            # from a defining child of a generalized node: the child's V_p
            # keys are candidate tuples of the virtual relation R_e
            # (intersection counting, eq. (4), generalized to mixed-key
            # children)
            pres = src.bind(f.def_pres)
            src.line("cc += 1")
            if d > 0:
                # a new candidate (p = 0): its counted children's support
                # (no other defining child holds it), + 1 for this child
                src.line(f"p = {pres}.get({kv}, 0)")
                src.line(f"{pres}[{kv}] = p + 1")
                src.line(f"old = {tuples}[{kv}] if p else 0{self._sat(src, f, kv, f.counted)}")
                src.line(f"{tuples}[{kv}] = old + 1")
                if f.counted:
                    src.open("if not p:")
                    self._index(src, f, kv, 1)
                    src.depth -= 1
            else:
                src.line(f"p, old = {pres}[{kv}], {tuples}[{kv}]")
                src.line(f"if p > 1: {pres}[{kv}], {tuples}[{kv}] = p - 1, old - 1")
                src.open("else:")  # last defining support gone: the candidate vanishes
                src.line(f"del {pres}[{kv}], {tuples}[{kv}]")
                self._index(src, f, kv, -1)
                src.depth -= 1
        else:
            # Algorithm 3: move the counters of the tuples under the key
            t = "t2"
            src.line(f"s = {src.bind(f.child_index[self.tree.key(child.name)])}.get({kv}, E)")
            src.line("cc += len(s)")
            src.open("for t2 in s:")
            src.line(f"old = {tuples}[t2]")
            src.line(f"{tuples}[t2] = old {'+' if d > 0 else '-'} 1")
        key, y = _proj(t, f.attrs, self.tree.key(f.name)), _proj(t, f.attrs, f.y_attrs)
        src.line(f"if old == {cross}: M{j}.append(({t}, {key}, {y}))")
        src.depth = base
        src.open(f"if M{j}:")

    def _vs_out(self, src: _Source, n: _Node, j: int) -> None:
        """A deletion's V_s move at level ``j`` (node ``n``): its movers
        leave V_p's groups (none at the root) and the π_y refcounts."""
        t, k, y = ("t", "k0", "y0") if j == 0 else ("t2", "k", "y")
        if j:
            src.open(f"for t2, k, y in M{j}:")
        vy = src.bind(n.vs_yproj)
        if not n.is_root:
            src.ungroup(src.bind(n.vs_by_key), k, t)
        src.line(f"n = {vy}[{y}]")
        src.line(f"if n > 1: {vy}[{y}] = n - 1")
        src.line(f"else: del {vy}[{y}]")
        if n.needs_kyproj:
            kyproj = src.bind(n.vs_key_yproj)
            src.line(f"ky = {kyproj}[{k}]")
            src.line(f"n = ky[{y}]")
            src.line(f"if n > 1: ky[{y}] = n - 1")
            src.line(f"elif len(ky) > 1: del ky[{y}]")
            src.line(f"else: del {kyproj}[{k}]")
        src.depth = 1

    def _live(self, rel: str, d: int) -> Callable:
        """``fn(D{j}, ...)``, atom ``rel``'s V_l upkeep (Lemma 5.5) for an
        insert (d = 1) or deletion (d = -1), given the Δ(π_y V_s) values
        of its live path nodes once V_s has moved. Per live node
        root-first, by one rule: V_l(root) = π_y V_s(root), and a live
        node's V_l holds the values of its π_y V_s whose key∩y group is
        live in its parent (DESIGN.md argues it exact). An insert adds
        the node's ``D{j}`` values that pass the parent test, a deletion
        drops those that were live; and each adds or drops its π_y V_s
        values under each group that appeared or vanished in the parent
        grouping it reads (``G{i}``, one list per such grouping, filled
        as the parent moves). Like the kernels, it reads V_s and V_l
        only."""
        nodes, lives, path = self.nodes, self._live_nodes, self._path(rel)
        level = {n.name: j for j, n in enumerate(path)}
        gs: dict[tuple, str] = {}  # (parent, layout) -> its list's name
        for n in lives:
            if not n.is_root:
                gs.setdefault((n.parent, n.key_y_attrs), f"G{len(gs)}")
        src = _Source(", ".join(f"D{j}" for j, n in enumerate(path) if n.live_maintained))
        if gs:
            src.line(" = ".join(gs.values()) + " = E")
        base = src.depth
        for n in lives:
            j = level.get(n.name)
            if n.is_root:
                src.line(f"A = D{j}")
            else:
                up = gs[n.parent, n.key_y_attrs]
                if j is None:
                    src.open(f"if {up}:")
                    src.line("A = set()")
                elif d > 0:
                    idx = src.bind(nodes[n.parent].live_idx[n.key_y_attrs])
                    g = _proj("v", n.y_attrs, n.key_y_attrs)
                    src.line(f"A = {{v for v in D{j} if {g} in {idx}}}")
                else:  # those that were live: in any one of its V_l groupings
                    layout, idx = next(iter(n.live_idx.items()))
                    g = _proj("v", n.y_attrs, layout)
                    src.line(f"A = {{v for v in D{j} if v in {src.bind(idx)}.get({g}, E)}}")
                src.open(f"for g in {up}:")
                self._under(src, n)
                src.depth -= 1
            src.open("if A:")
            marks = {layout: gs[n.name, layout] for layout in n.live_idx if (n.name, layout) in gs}
            for name in marks.values():
                src.line(f"{name} = []")
            src.open("for v in A:")
            for layout, idx in n.live_idx.items():
                k, mark = _proj("v", n.y_attrs, layout), ""
                if layout in marks:
                    if not k.isidentifier():
                        src.line(f"k = {k}")
                        k = "k"
                    mark = f"; {marks[layout]}.append({k})"
                (src.group if d > 0 else src.ungroup)(src.bind(idx), k, "v", mark)
            src.depth = base
        return src.build(self._label(f"live {rel} {d:+d}"))

    def _under(self, src: _Source, n: _Node) -> None:
        """Into ``A``, the values of π_y V_s(n) under its parent's group
        ``g``, laid out as key(n)∩y. Output attrs of n beyond its key
        imply key(n) ⊆ y (Def. 3.2), so there ``g`` is the whole key,
        read off ``vs_key_yproj`` at a boundary node and off ``vs_by_key``
        elsewhere; otherwise ``g`` fixes the one value."""
        if not n.extra_y:
            src.line(f"v = {_proj('g', n.key_y_attrs, n.y_attrs)}")
            src.line(f"if v in {src.bind(n.vs_yproj)}: A.add(v)")
        elif n.needs_kyproj:
            src.line(f"A.update({src.bind(n.vs_key_yproj)}.get(g, E))")
        else:
            y, vs = _proj("t", n.attrs, n.y_attrs), f"{src.bind(n.vs_by_key)}.get(g, E)"
            src.line(f"A.update({vs})" if y == "t" else f"A.update([{y} for t in {vs}])")

    # ------------------------------------------------------------------
    # update entry points
    # ------------------------------------------------------------------
    def apply(self, u: Update) -> list[tuple[int, tuple]]:
        """Process one update; return the delta as ``[(±1, y-tuple)]``."""
        out: list[tuple[int, tuple]] = []
        t, emit, delete = u.tuple, self.emit_deltas, not u.is_insert
        for admit, triggers in self._stream_atoms.get(u.stream, ()):
            if admit(t):
                triggers[delete](t, out, emit)
        return self._emitted(out)

    def apply_atom(self, rel: str, t: tuple, is_insert: bool) -> list[tuple[int, tuple]]:
        """Atom-level update (used by the HyperCube-partitioned engine,
        which dispatches each self-join copy independently)."""
        admit, triggers = self._atoms[rel]
        if not admit(t):
            return []
        out: list[tuple[int, tuple]] = []
        triggers[not is_insert](t, out, self.emit_deltas)
        return self._emitted(out)

    def _emitted(self, out: list[tuple[int, tuple]]) -> list[tuple[int, tuple]]:
        """An update's delta after ``post_filter``, counted in ``stats``."""
        self._version[0] += 1
        if self._keep is not None:
            out = [r for r in out if self._keep(r[1])]
        self.stats["updates"] += 1
        self.stats["deltas"] += len(out)
        return out

    def run(self, seq: Iterable[Update]) -> list[tuple[int, tuple]]:
        out: list[tuple[int, tuple]] = []
        for u in seq:
            out.extend(self.apply(u))
        return out

    def bulk_load(self, db: dict[str, Iterable[tuple]]) -> None:
        """Load initial data: inserts with deltas suppressed. The triggers
        keep V_l either way, and an insert-only load only grows it, so
        the load is linear in its input."""
        keep = self.emit_deltas
        self.emit_deltas = False
        for stream, rows in db.items():
            for t in rows:
                self.apply(Update(stream, tuple(t), True))
        self.emit_deltas = keep

    # ------------------------------------------------------------------
    # full enumeration (Algorithm 5)
    # ------------------------------------------------------------------
    def enumerate_full(self) -> Iterator[tuple]:
        """Constant-delay full enumeration of Q(D) (Lemma 5.3): the
        generated loop nest over π_y V_s(root), which reads the live
        state, so drain it before the next update; it raises
        ``RuntimeError`` if an update came first."""
        rows = self._full()
        return rows if self._keep is None else filter(self._keep, rows)

    def full_result_set(self) -> set[tuple]:
        return set(self.enumerate_full())

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def space(self) -> int:
        """Total stored entries across all views and indexes (Lemma 4.1),
        each counted once: the tuples with their counters, the π_y
        refcounts, and every grouping's members."""
        total = 0
        for n in self.nodes.values():
            total += len(n.tuples) + len(n.vs_yproj)
            for idx in (*n.child_index.values(), n.vs_by_key, n.vs_key_yproj,
                        *n.live_idx.values()):
                total += sum(map(len, idx.values()))
        return total
