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
and supports full enumeration (Algorithm 5). Deletions are two-phase:
a non-mutating *probe* computes every view change, the delta is
enumerated against the pre-deletion state ("delta enumeration upon a
deletion is done before the tuple deletion"), then the probe's journal
is applied.

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


class _Node:
    """Mutable per-node state (views, counters, hash indexes). The
    enumeration fields (``layout``, ``enum_children``, ``rows_by_key``,
    ``sat``, ``up_idx``) are set by ``CrownEngine._compile``."""

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

    def in_vs(self, t: tuple) -> bool:
        return self.tuples.get(t, -1) == self.n_children

    # -- V_s index bookkeeping (S-UPDATE's derivation counting) --------
    def _vs_add(self, t: tuple) -> tuple[tuple | None, tuple | None]:
        """Add ``t`` to V_s indexes; return (new V_p key, new π_y value)."""
        kv = self.key_get(t)
        s = self.vs_by_key.setdefault(kv, set())
        s.add(t)
        new_vp = kv if (len(s) == 1 and not self.is_root) else None
        yv = self.y_get(t)
        c = self.vs_yproj.get(yv, 0) + 1
        self.vs_yproj[yv] = c
        new_y = yv if c == 1 else None
        if self.needs_kyproj:
            d = self.vs_key_yproj.setdefault(kv, {})
            d[yv] = d.get(yv, 0) + 1
        return new_vp, new_y

    def _vs_remove(self, t: tuple) -> None:
        kv = self.key_get(t)
        s = self.vs_by_key[kv]
        s.discard(t)
        if not s:
            del self.vs_by_key[kv]
        yv = self.y_get(t)
        c = self.vs_yproj[yv] - 1
        if c:
            self.vs_yproj[yv] = c
        else:
            del self.vs_yproj[yv]
        if self.needs_kyproj:
            d = self.vs_key_yproj[kv] if kv in self.vs_key_yproj else None
            if d is not None:
                d[yv] -= 1
                if not d[yv]:
                    del d[yv]
                if not d:
                    del self.vs_key_yproj[kv]


class CrownEngine:
    """The paper's framework: join-free change propagation + enumeration.

    Results are plain tuples throughout: every projection, each node's
    enumeration layout and every witness plan is compiled once, at
    construction, into ``operator.itemgetter``s.

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
        self.post_filter = post_filter
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
        self._compile()
        self.stats = {"counter_changes": 0, "updates": 0, "deltas": 0}

    def _compile(self) -> None:
        """Plan-time positional layouts. ``node.layout`` names the columns
        of ``_enum_key(node, ·)``'s tuples. A witness plan, for the root
        and for each node with output attrs under a live parent, is
        ``(chain, kids, out_get, heads)``: the S-chain steps to the root,
        the enumerated children joined onto the chain's partial (each
        with the V_l getters it feeds), the map of a result into
        ``cq.output`` order, and the V_l getters read off the partial."""
        out, nodes = self.cq.output, self.nodes

        def into(layout: tuple[str, ...], attrs: Iterable[str]) -> Callable:
            return _getter(layout.index(a) for a in attrs)

        preorder = [nodes[name] for name in self.tree.preorder()]
        for n in reversed(preorder):  # children first
            n.sat = [(nodes[c].vs_by_key, n.ck_get[c]) for c in n.children]
            # a boundary child without extra output attrs yields only ()
            # (its key is in V_p by the V_s invariant): drop it here
            n.enum_children = [
                (nodes[c], n.ck_get[c]) for c in n.children if nodes[c].layout
            ]
            if n.boundary:
                n.layout = n.y_attrs if n.extra_y else ()
            else:
                n.layout = n.attrs + sum((c.layout for c, _ in n.enum_children), ())
            # key -> rows, when a node's rows are stored ones (Algorithm 5
            # line 3, or a leaf of the product); None when it must recurse
            n.rows_by_key = (
                n.vs_key_yproj if n.boundary else None if n.enum_children else n.vs_by_key
            )
        self._root_out = into(preorder[0].layout, out)
        # live nodes root-first (deletion check is top-down)
        self._live_nodes = [n for n in preorder if n.live_maintained]
        live_at = {n.name: i for i, n in enumerate(self._live_nodes)}
        self._wplans: dict[str, tuple] = {}
        for n in preorder:
            parent = nodes[n.parent] if n.parent else None
            up = parent is not None and parent.live is not None
            n.up_idx = parent.live_idx[n.name] if up else None
            if not n.is_root and not (up and n.y_attrs):
                continue
            path = [nodes[p] for p in self.tree.path_to_root(n.name)]
            layout, chain, kids = n.y_attrs, [], []
            for prev, f in zip(path, path[1:]):
                chain.append((f.name, f.live_idx[prev.name], into(layout, prev.key_y_attrs)))
                layout += f.y_attrs
            head = layout
            for prev, f in zip([None] + path, path):
                if f.boundary:
                    continue  # the subtree contributes only e∩y, already in the chain
                for c, _ in f.enum_children:
                    if c is not prev:
                        kids.append((c, into(layout, self.tree.key(c.name)), []))
                        layout += c.layout
            # V_l getters: only the live nodes of n's subtree can change
            # (DESIGN.md), each read from the head or from one of n's own
            # enumerated children (the first kids when n is no boundary)
            own = [] if n.boundary else kids[: len(n.enum_children)]
            heads: list[tuple[int, Callable]] = []
            for m in self.tree.subtree(n.name):
                if m not in live_at:
                    continue
                ya = nodes[m].y_attrs
                if set(ya) <= set(head):
                    heads.append((live_at[m], into(head, ya)))
                    continue
                kid = next((k for k in own if set(ya) <= set(k[0].layout)), None)
                if kid is None:
                    raise ValueError(
                        f"live node {m}: y-attributes {ya} are in neither the "
                        f"witness plan head {head} of {n.name} nor one child's rows"
                    )
                kid[2].append((live_at[m], into(kid[0].layout, ya)))
            self._wplans[n.name] = (chain, kids, into(layout, out), heads)

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
            return []  # set semantics: non-effective update
        if is_insert:
            changes = self._insert_propagate(node, t)
            results, lives = self._collect_deltas(changes) if self.emit_deltas else ([], [])
            self._live_insert(lives)
        else:
            changes, plan = self._delete_probe(node, t)
            results, lives = self._collect_deltas(changes) if self.emit_deltas else ([], [])
            self._delete_apply(plan)
            self._live_delete(lives)
        sign = 1 if is_insert else -1
        return [(sign, r) for r in self._filtered(results)]

    def _filtered(self, rows: Iterable[tuple]) -> Iterable[tuple]:
        """Apply ``post_filter``; its result dict is built only when set."""
        if self.post_filter is None:
            return rows
        names, keep = self.cq.output, self.post_filter
        return (r for r in rows if keep(dict(zip(names, r))))

    # ------------------------------------------------------------------
    # propagation (Algorithms 2–4, level-wise along the path to root)
    # ------------------------------------------------------------------
    def _insert_propagate(self, node: _Node, t: tuple) -> dict[str, set]:
        """R-/S-/P-UPDATE for an insert; returns each changed node's
        Δ(π_y V_s) values."""
        changes: dict[str, set] = {}
        # R-UPDATE (Algorithm 4): count satisfied children
        cnt = self._child_sat_count(node, t)
        for idx, g in node.cidx:
            idx.setdefault(g(t), set()).add(t)
        node.tuples[t] = cnt
        self.stats["counter_changes"] += 1
        entering: list[tuple] = [t] if cnt == node.n_children else []
        while True:
            y_d, vp_d = set(), set()
            for t2 in entering:
                new_vp, new_y = node._vs_add(t2)
                if new_vp is not None:
                    vp_d.add(new_vp)
                if new_y is not None:
                    y_d.add(new_y)
            if y_d:
                changes[node.name] = y_d
            if node.is_root or not vp_d:
                break
            child, node = node, self.nodes[node.parent]
            entering = []
            if child.name in node.def_children:
                # P-UPDATE from a defining child of a generalized node:
                # the child's new V_p keys are candidate tuples of the
                # virtual relation R_e (intersection counting, eq. (4),
                # generalized to mixed-key children)
                for kv in vp_d:
                    if kv in node.def_pres:
                        node.def_pres[kv] += 1
                        c2 = node.tuples[kv] + 1
                        node.tuples[kv] = c2
                        self.stats["counter_changes"] += 1
                        if c2 == node.n_children:
                            entering.append(kv)
                    else:
                        node.def_pres[kv] = 1
                        c2 = self._child_sat_count(node, kv)
                        node.tuples[kv] = c2
                        self.stats["counter_changes"] += 1
                        for idx, g in node.cidx:
                            idx.setdefault(g(kv), set()).add(kv)
                        if c2 == node.n_children:
                            entering.append(kv)
            else:
                # P-UPDATE (Algorithm 3): bump counters of matching tuples
                idx = node.child_index[child.name]
                for kv in vp_d:
                    for t2 in idx.get(kv, ()):
                        c2 = node.tuples[t2] + 1
                        node.tuples[t2] = c2
                        self.stats["counter_changes"] += 1
                        if c2 == node.n_children:
                            entering.append(t2)
        return changes

    @staticmethod
    def _child_sat_count(node: _Node, t: tuple) -> int:
        """#children c with t[key(c)] ∈ V_p(c) (Algorithm 4 lines 3–5)."""
        cnt = 0
        for vp, g in node.sat:
            if g(t) in vp:
                cnt += 1
        return cnt

    def _delete_probe(
        self, node: _Node, t: tuple
    ) -> tuple[dict[str, set], list]:
        """Non-mutating pass: each changed node's Δ(π_y V_s) values (as
        ``_insert_propagate``) + an apply plan."""
        changes: dict[str, set] = {}
        plan: list[dict] = []
        leaving: set = {t} if node.in_vs(t) else set()
        child_name: str | None = None
        vp_below: set = set()
        while True:
            # a π_y value / V_p key goes when all of its V_s tuples leave
            ycnt: dict[tuple, int] = {}
            kcnt: dict[tuple, int] = {}
            for t2 in leaving:
                yv, kv = node.y_get(t2), node.key_get(t2)
                ycnt[yv] = ycnt.get(yv, 0) + 1
                kcnt[kv] = kcnt.get(kv, 0) + 1
            y_d = {yv for yv, c in ycnt.items() if node.vs_yproj.get(yv, 0) == c}
            vp_d = set() if node.is_root else {
                kv for kv, c in kcnt.items() if len(node.vs_by_key.get(kv, ())) == c
            }
            if y_d:
                changes[node.name] = y_d
            plan.append(
                {
                    "node": node.name,
                    "child": child_name,
                    "vp_below": vp_below,
                    "leaving": set(leaving),
                    "removed": t if child_name is None else None,
                }
            )
            if node.is_root or not vp_d:
                break
            child_name, vp_below = node.name, vp_d
            node = self.nodes[node.parent]
            leaving = set()
            if child_name in node.def_children:
                for kv in vp_d:
                    if node.tuples.get(kv, -1) == node.n_children:
                        leaving.add(kv)
            else:
                idx = node.child_index[child_name]
                for kv in vp_d:
                    for t2 in idx.get(kv, ()):
                        if node.tuples[t2] == node.n_children:
                            leaving.add(t2)
        return changes, plan

    def _delete_apply(self, plan: list[dict]) -> None:
        for lvl in plan:
            node = self.nodes[lvl["node"]]
            if lvl["removed"] is not None:
                t = lvl["removed"]
                del node.tuples[t]
                self.stats["counter_changes"] += 1
                self._unindex(node, t)
            else:
                if lvl["child"] in node.def_children:
                    for kv in lvl["vp_below"]:
                        node.tuples[kv] -= 1
                        self.stats["counter_changes"] += 1
                        node.def_pres[kv] -= 1
                        if node.def_pres[kv] == 0:
                            # last defining support gone: candidate vanishes
                            del node.def_pres[kv]
                            del node.tuples[kv]
                            self._unindex(node, kv)
                else:
                    idx = node.child_index[lvl["child"]]
                    for kv in lvl["vp_below"]:
                        for t2 in idx.get(kv, ()):
                            node.tuples[t2] -= 1
                            self.stats["counter_changes"] += 1
            for t2 in lvl["leaving"]:
                node._vs_remove(t2)

    @staticmethod
    def _unindex(node: _Node, t: tuple) -> None:
        for idx, g in node.cidx:
            kv = g(t)
            s = idx.get(kv)
            if s is not None:
                s.discard(t)
                if not s:
                    del idx[kv]

    # ------------------------------------------------------------------
    # witnesses (Def. 5.6) and delta enumeration (Algorithm 6)
    # ------------------------------------------------------------------
    def _collect_deltas(self, changes: dict[str, set]) -> tuple[list[tuple], list[set]]:
        """Every result claimed by a witness, in ``cq.output`` order, and
        per live node (``_live_nodes`` order) the V_l values those
        results project onto, read from the results' factors: a plan's
        head getters act once per partial, its child getters once per
        distinct child key.

        A Δ(π_y V_s) value is a witness iff its first S-chain step joins
        a parent live value outside this update's own Δ values, so the
        S-chain walk is the witness check. Each chain step excludes the
        update's Δ values at that node (disjointness, Lemma 5.7). The
        root's plan has no chain: each of its Δ values is a witness."""
        out: list[tuple] = []
        lives: list[set] = [set() for _ in self._live_nodes]
        seen: set[tuple] = set()  # (child, key) pairs already read for V_l
        for name, ys in changes.items():
            plan = self._wplans.get(name)
            if plan is None:
                continue
            chain, kids, out_get, heads = plan
            steps = [(idx, jget, changes.get(f, ())) for f, idx, jget in chain]
            for yv in ys:
                partials = [yv]
                for idx, jget, excl in steps:
                    partials = [
                        p + lv for p in partials
                        for lv in idx.get(jget(p), ()) if lv not in excl
                    ]
                for q in partials:
                    for i, get in heads:
                        lives[i].add(get(q))
                    rows = [q]
                    for c, g, lg in kids:
                        k = g(q)
                        part = self._enum_key(c, k)
                        if lg and (c, k) not in seen:
                            seen.add((c, k))
                            for i, get in lg:
                                lives[i].update(map(get, part))
                        rows = [r + x for r in rows for x in part]
                    out.extend(map(out_get, rows))
        return out, lives

    # ------------------------------------------------------------------
    # full enumeration (Algorithm 5)
    # ------------------------------------------------------------------
    def _enum_tuple(self, node: _Node, t: tuple) -> list[tuple]:
        """Join results of the subtree at ``node`` containing V_s tuple
        ``t`` (requires ``node``'s attrs ⊆ y), laid out as ``node.layout``."""
        rows = [t]
        for c, g in node.enum_children:
            part = self._enum_key(c, g(t))
            rows = [r + x for r in rows for x in part]
        return rows

    def _enum_key(self, node: _Node, kv: tuple) -> Iterable[tuple]:
        """FullEnum(T, e, t[key(e)]): results of the subtree at ``node``
        joining a parent V_s tuple whose key projection is ``kv``.
        Invariant: the caller's tuple is in the parent's V_s, hence
        ``kv ∈ V_p`` here. Algorithm 5 line 2 (a boundary node without
        extra output attrs) is pruned at plan time."""
        if node.rows_by_key is not None:
            return node.rows_by_key.get(kv, ())
        out: list[tuple] = []
        for t in node.vs_by_key.get(kv, ()):
            out.extend(self._enum_tuple(node, t))
        return out

    def enumerate_full(self) -> Iterator[tuple]:
        """Constant-delay full enumeration of Q(D) (Lemma 5.3)."""
        yield from self._filtered(self._enum_all())

    def _enum_all(self) -> Iterator[tuple]:
        root = self.nodes[self.tree.root]
        for t in list(root.vs_by_key.get((), ())):
            yield from map(self._root_out, self._enum_tuple(root, t))

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
        root = self.tree.root
        self._live_insert(self._collect_deltas({root: self.nodes[root].vs_yproj.keys()})[1])

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
