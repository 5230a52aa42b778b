"""Generalized join trees (Defs. 3.1–3.3) and plan selection (§6.3).

A *generalized join tree* has one node per input relation plus
optional *generalized relations* (virtual nodes over a subset of some
relation's attributes) that must all sit above every relation node and
be subsets of their children. A query is free-connex iff it has such a
tree whose root is contained in the output attributes and where no
non-output attribute "tops out" above an output attribute (Def. 3.2).

Tree search: queries here are small (≤ 7 atoms after GHD bagging), so
we enumerate all parent assignments over the relation nodes, attach
the admissible generalized roots, add the recursive common-attribute
cap construction from the proof of Lemma 6.8, and keep every candidate
that passes full validation. ``best_tree`` then applies the paper's
plan-optimization heuristic ``min Σ d(e)·N(e)``.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.cq.query import CQ, Relation

_TOP = "__TOP__"


@dataclass
class TreeNode:
    """One node of a generalized join tree."""

    name: str
    attrs: tuple[str, ...]
    relation: str | None  # input-relation name, or None for generalized
    parent: str | None = None
    children: tuple[str, ...] = ()

    @property
    def is_generalized(self) -> bool:
        return self.relation is None

    @property
    def attr_set(self) -> frozenset[str]:
        return frozenset(self.attrs)


@dataclass
class JoinTree:
    """A rooted generalized join tree for a :class:`CQ`."""

    cq: CQ
    nodes: dict[str, TreeNode]
    root: str

    # -- basic accessors ------------------------------------------------
    def node(self, name: str) -> TreeNode:
        return self.nodes[name]

    def parent(self, name: str) -> TreeNode | None:
        p = self.nodes[name].parent
        return self.nodes[p] if p is not None else None

    def key(self, name: str) -> tuple[str, ...]:
        """``key(e) = e ∩ p(e)``, sorted; empty at the root."""
        n = self.nodes[name]
        if n.parent is None:
            return ()
        return tuple(sorted(n.attr_set & self.nodes[n.parent].attr_set))

    def defining_children(self, name: str) -> tuple[str, ...]:
        """The children of a generalized node whose attributes contain
        its own: the union of their V_p's is its virtual relation R_e
        (Example 4.2 generalized; see DESIGN.md). The other children act
        as counter-based semi-join filters. Empty for a relation node."""
        n = self.nodes[name]
        if not n.is_generalized:
            return ()
        return tuple(c for c in n.children if n.attr_set <= self.nodes[c].attr_set)

    def path_to_root(self, name: str) -> list[str]:
        out, cur = [], name
        while cur is not None:
            out.append(cur)
            cur = self.nodes[cur].parent
        return out

    def subtree(self, name: str) -> list[str]:
        out, stack = [], [name]
        while stack:
            cur = stack.pop()
            out.append(cur)
            stack.extend(self.nodes[cur].children)
        return out

    def preorder(self) -> list[str]:
        """Every node, each before its descendants; the root first."""
        return self.subtree(self.root)

    def postorder(self) -> list[str]:
        out: list[str] = []

        def rec(n: str) -> None:
            for c in self.nodes[n].children:
                rec(c)
            out.append(n)

        rec(self.root)
        return out

    def relation_node(self, relation: str) -> str:
        for n in self.nodes.values():
            if n.relation == relation:
                return n.name
        raise KeyError(relation)

    def top(self, attr: str) -> str:
        """Highest node containing ``attr`` (unique by connectivity)."""
        best, best_depth = None, None
        for n in self.nodes.values():
            if attr in n.attr_set:
                d = len(self.path_to_root(n.name))
                if best_depth is None or d < best_depth:
                    best, best_depth = n.name, d
        if best is None:
            raise KeyError(attr)
        return best

    @property
    def height(self) -> int:
        """Max #relation nodes on a leaf-to-root path (generalized
        relations are not counted), per §3.2."""

        def rec(n: str) -> int:
            me = 0 if self.nodes[n].is_generalized else 1
            kids = self.nodes[n].children
            return me + (max(rec(c) for c in kids) if kids else 0)

        return rec(self.root)

    def depth_relations(self, name: str) -> int:
        """``d(e)`` of §6.3: #relation nodes strictly above ``name``."""
        return sum(
            1
            for a in self.path_to_root(name)[1:]
            if not self.nodes[a].is_generalized
        )

    # -- validation -----------------------------------------------------
    def errors(self) -> list[str]:
        """All violations of Def. 3.1 + rootedness; empty iff valid."""
        errs: list[str] = []
        rels = {n.relation for n in self.nodes.values() if n.relation}
        want = {r.name for r in self.cq.relations}
        if rels != want:
            errs.append(f"relations in tree {rels} != query {want}")
        # tree-ness
        seen = set(self.subtree(self.root))
        if seen != set(self.nodes):
            errs.append("not a single rooted tree")
            return errs
        for n in self.nodes.values():
            for c in n.children:
                if self.nodes[c].parent != n.name:
                    errs.append(f"parent/child mismatch at {c}")
        # (1) leaves are input relations
        for n in self.nodes.values():
            if not n.children and n.is_generalized:
                errs.append(f"generalized leaf {n.name}")
        # (2) connectivity per attribute
        for attr in self.cq.all_attrs:
            holders = [n.name for n in self.nodes.values() if attr in n.attr_set]
            top = min(holders, key=lambda h: len(self.path_to_root(h)))
            reach = {top}
            frontier = [top]
            while frontier:
                cur = frontier.pop()
                for c in self.nodes[cur].children:
                    if attr in self.nodes[c].attr_set:
                        reach.add(c)
                        frontier.append(c)
            if set(holders) - reach:
                errs.append(f"attr {attr} not connected: {holders}")
        # (3)+(4) [see DESIGN.md]: every generalized node must have at
        # least one defining child. This is the laxer reading needed for
        # mid-tree generalized nodes (e.g. the SNB Q2 plan), under which
        # Def. 3.2 stays equivalent to the hypergraph definition of
        # free-connex.
        for n in self.nodes.values():
            if n.is_generalized and not self.defining_children(n.name):
                errs.append(f"generalized {n.name} has no defining child")
        # generalized attrs must come from some input relation (Def 3.1:
        # a generalized relation is derived from an input relation)
        for n in self.nodes.values():
            if n.is_generalized and not any(
                n.attr_set <= r.attr_set for r in self.cq.relations
            ):
                errs.append(f"generalized {n.name} not ⊆ any relation")
        return errs

    def is_valid(self) -> bool:
        return not self.errors()

    def is_free_connex_tree(self) -> bool:
        """Def. 3.2 against ``cq.output``."""
        if not self.is_valid():
            return False
        y = self.cq.output_set
        if not self.nodes[self.root].attr_set <= y:
            return False
        non_out = self.cq.all_attrs - y
        tops_out = {self.top(x) for x in y & self.cq.all_attrs}
        for x2 in non_out:
            t2 = self.top(x2)
            desc = set(self.subtree(t2)) - {t2}
            if desc & tops_out:
                return False
        return True

    def signature(self) -> tuple:
        """Canonical hashable form for dedup."""

        def rec(n: str) -> tuple:
            node = self.nodes[n]
            kids = tuple(sorted(rec(c) for c in node.children))
            return (tuple(sorted(node.attrs)), node.relation or "", kids)

        return rec(self.root)


# ---------------------------------------------------------------------------
# classification tests (GYO)
# ---------------------------------------------------------------------------

def _gyo_acyclic(edges: list[frozenset[str]]) -> bool:
    """GYO reduction: repeatedly remove ears; acyclic iff all removed."""
    edges = [e for e in edges if e]
    changed = True
    while changed and len(edges) > 1:
        changed = False
        for i, e in enumerate(edges):
            others = edges[:i] + edges[i + 1 :]
            # e is an ear if all attrs shared with others fit in one other
            shared = {a for a in e if any(a in o for o in others)}
            if any(shared <= o for o in others):
                edges = others
                changed = True
                break
    return len(edges) <= 1


def is_acyclic(cq: CQ) -> bool:
    return _gyo_acyclic(cq.hyperedges())


def is_free_connex(cq: CQ) -> bool:
    """Free-connex ⇔ both H and H + y-hyperedge are acyclic (§3.2)."""
    return is_acyclic(cq) and _gyo_acyclic(
        cq.hyperedges() + [frozenset(cq.output)]
    )


def is_q_hierarchical(cq: CQ) -> bool:
    """Def. 3.3, literally."""
    attrs = sorted(cq.all_attrs)
    at = {x: {r.name for r in cq.relations if x in r.attr_set} for x in attrs}
    y = cq.output_set
    for x1, x2 in itertools.combinations(attrs, 2):
        if not (at[x1] <= at[x2] or at[x2] <= at[x1] or not (at[x1] & at[x2])):
            return False
    for x1 in attrs:
        for x2 in attrs:
            if x1 in y and at[x1] < at[x2] and x2 not in y:
                return False
    return True


# ---------------------------------------------------------------------------
# tree construction
# ---------------------------------------------------------------------------

def _mk_tree(
    cq: CQ,
    parent_of: dict[str, str | None],
    generalized: dict[str, tuple[frozenset[str], str | None]],
) -> JoinTree | None:
    """Assemble a JoinTree from relation-parent map + generalized nodes.

    ``generalized``: name -> (attrs, parent-name-or-None). Returns None
    if the structure is not a single rooted tree.
    """
    nodes: dict[str, TreeNode] = {}
    for r in cq.relations:
        nodes[r.name] = TreeNode(r.name, r.attrs, r.name, parent_of.get(r.name))
    for gname, (gattrs, gparent) in generalized.items():
        nodes[gname] = TreeNode(gname, tuple(sorted(gattrs)), None, gparent)
    roots = [n.name for n in nodes.values() if n.parent is None]
    if len(roots) != 1:
        return None
    for n in nodes.values():
        if n.parent is not None and n.parent not in nodes:
            return None
    kids: dict[str, list[str]] = {n: [] for n in nodes}
    for n in nodes.values():
        if n.parent is not None:
            kids[n.parent].append(n.name)
    for n in nodes.values():
        n.children = tuple(sorted(kids[n.name]))
    return JoinTree(cq, nodes, roots[0])


def _canonicalize_root(tree: JoinTree) -> JoinTree | None:
    """Ensure root ⊆ y by capping with a generalized root [root ∩ y].

    Def. 3.2 requires ``r ⊆ y``; the paper adds e.g. ``[x1]`` on top in
    §6.2. No-op when the root already qualifies. A Boolean query (y = ∅)
    gets the empty root ``[]``.
    """
    cq = tree.cq
    y = cq.output_set
    rnode = tree.nodes[tree.root]
    if rnode.attr_set <= y:
        return tree
    g = rnode.attr_set & y
    parent_of = {
        n.relation: n.parent
        for n in tree.nodes.values()
        if n.relation is not None
    }
    generalized = {
        n.name: (n.attr_set, n.parent)
        for n in tree.nodes.values()
        if n.is_generalized
    }
    gname = _fresh_gname(g, set(tree.nodes))
    if rnode.relation is not None:
        parent_of[rnode.relation] = gname
    else:
        generalized[rnode.name] = (rnode.attr_set, gname)
    generalized[gname] = (g, None)
    return _mk_tree(cq, parent_of, generalized)


def _fresh_gname(attrs: frozenset[str], taken: set[str]) -> str:
    base = "[" + ",".join(sorted(attrs)) + "]"
    name = base
    i = 1
    while name in taken:
        name = f"{base}#{i}"
        i += 1
    return name


def _qh_cap_tree(cq: CQ) -> JoinTree | None:
    """Recursive common-attribute construction (proof of Lemma 6.8).

    Produces a cap of generalized nodes with all relations as leaves;
    height 1 whenever the query is q-hierarchical.
    """
    parent_of: dict[str, str | None] = {}
    generalized: dict[str, tuple[frozenset[str], str | None]] = {}
    counter = itertools.count()

    def build(rels: list[Relation], removed: frozenset[str], parent: str | None) -> None:
        if len(rels) == 1:
            parent_of[rels[0].name] = parent
            return
        comps = _components([r.attr_set - removed for r in rels], rels)
        if len(comps) == 1:
            common = frozenset.intersection(*(r.attr_set - removed for r in rels))
            gattrs = frozenset.intersection(*(r.attr_set for r in rels))
            if not common:
                # connected but no common attribute: hang all under parent
                # (only reachable for non-q-hierarchical inputs; the
                # resulting tree will simply fail validation)
                for r in rels:
                    parent_of[r.name] = parent
                return
            gname = _fresh_gname(gattrs, set(generalized)) + f"@{next(counter)}"
            generalized[gname] = (gattrs, parent)
            build(rels, removed | common, gname)
        else:
            if parent is None:
                gname = _fresh_gname(frozenset(), set(generalized))
                generalized[gname] = (frozenset(), None)
                parent = gname
            for comp in comps:
                build(comp, removed, parent)

    build(list(cq.relations), frozenset(), None)
    # drop single-child generalized chains with identical attrs
    t = _mk_tree(cq, parent_of, generalized)
    return t


def _components(attr_sets: list[frozenset[str]], rels: list[Relation]) -> list[list[Relation]]:
    n = len(rels)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if attr_sets[i] & attr_sets[j]:
                parent[find(i)] = find(j)
    groups: dict[int, list[Relation]] = {}
    for i, r in enumerate(rels):
        groups.setdefault(find(i), []).append(r)
    return list(groups.values())


_TREE_CACHE: dict[tuple, list[JoinTree]] = {}


def free_connex_trees(cq: CQ, max_atoms: int = 7) -> list[JoinTree]:
    """All (deduped) valid free-connex generalized join trees of ``cq``.

    Exhaustive over parent assignments of *units* for small queries,
    where each relation participates either whole or *split* — replaced
    in the tree by a generalized proxy ``π_g(R)`` (g = the attributes
    visible to the rest of the query and the output) with ``R`` demoted
    to a leaf below it. Splitting is what lets e.g. SNB Q2 reach its
    height-2 plan ([c] → [m,c] → message_tag → tag). Admissible single
    generalized roots and the Lemma-6.8 cap construction are added on
    top. Raises ``ValueError`` when the query is not free-connex.
    """
    key = (tuple((r.name, r.attrs) for r in cq.relations), cq.output)
    if key in _TREE_CACHE:
        return _TREE_CACHE[key]
    if not is_free_connex(cq):
        raise ValueError(
            f"{cq.name} is not free-connex; use GHD bagging (repro.cq.ghd) "
            "or extend the output attributes (§7.1)"
        )
    rels = list(cq.relations)
    if len(rels) > max_atoms:
        raise ValueError(f"{cq.name}: too many atoms for exhaustive search")
    y = cq.output_set
    out: list[JoinTree] = []
    seen: set[tuple] = set()

    def consider(t: JoinTree | None) -> None:
        if t is None:
            return
        t2 = _canonicalize_root(t)
        if t2 is None or not t2.is_valid() or not t2.is_free_connex_tree():
            return
        sig = t2.signature()
        if sig not in seen:
            seen.add(sig)
            out.append(t2)

    names = [r.name for r in rels]
    connected = len(_components([r.attr_set for r in rels], rels)) == 1
    # proxy attributes: what the rest of the query (or the output) can see
    split_attrs: dict[str, frozenset[str]] = {}
    for r in rels:
        others: set[str] = set()
        for r2 in rels:
            if r2.name != r.name:
                others |= set(r2.attrs)
        g = r.attr_set & (y | others)
        if g and g != r.attr_set:
            split_attrs[r.name] = frozenset(g)
    split_opts = [[False, True] if n in split_attrs else [False] for n in names]

    for mask in itertools.product(*split_opts):
        split = {n for n, s in zip(names, mask) if s}
        unit_attrs = {
            n: (split_attrs[n] if n in split else cq.relation(n).attr_set)
            for n in names
        }

        def build(parent_map: dict[str, str | None], cap: frozenset[str] | None):
            parent_of: dict[str, str | None] = {}
            generalized: dict[str, tuple[frozenset[str], str | None]] = {}
            cap_name = None
            if cap is not None:
                cap_name = _fresh_gname(cap, set(names))
                generalized[cap_name] = (cap, None)
            anchor = {
                n: (_fresh_gname(unit_attrs[n], set(names) | set(generalized)) + f"~{n}"
                    if n in split else n)
                for n in names
            }
            for n, p in parent_map.items():
                target = anchor[p] if p is not None else cap_name
                if n in split:
                    generalized[anchor[n]] = (unit_attrs[n], target)
                    parent_of[n] = anchor[n]
                else:
                    parent_of[n] = target
            return _mk_tree(cq, parent_of, generalized)

        # parent choices, pruned to attribute-sharing edges for
        # connected queries
        choices = []
        for n in names:
            opts = [_TOP]
            for p in names:
                if p == n:
                    continue
                if not connected or (unit_attrs[n] & unit_attrs[p]):
                    opts.append(p)
            choices.append(opts)
        for combo in itertools.product(*choices):
            parent_map = {
                n: (None if p == _TOP else p) for n, p in zip(names, combo)
            }
            tops = [n for n, p in parent_map.items() if p is None]
            if len(tops) == 1:
                consider(build(parent_map, None))
                continue
            if len(tops) > 3:
                continue  # wide caps add nothing at our query sizes
            # multiple top subtrees need a generalized root g with
            # cross-subtree attrs ⊆ g ⊆ (∩ top unit attrs) ∩ y
            subtree_of: dict[str, int] = {}
            for i, top in enumerate(tops):
                stack = [top]
                while stack:
                    cur = stack.pop()
                    subtree_of[cur] = i
                    stack.extend(n for n, p in parent_map.items() if p == cur)
            if len(subtree_of) != len(names):
                continue
            attrs_by_sub: dict[int, set[str]] = {}
            for r in rels:
                attrs_by_sub.setdefault(subtree_of[r.name], set()).update(r.attrs)
            cross: set[str] = set()
            for i, j in itertools.combinations(sorted(attrs_by_sub), 2):
                cross |= attrs_by_sub[i] & attrs_by_sub[j]
            cap = frozenset.intersection(*(unit_attrs[t] for t in tops)) & y
            if not frozenset(cross) <= cap:
                continue
            for g in {frozenset(cross), cap}:
                consider(build(parent_map, g))
    consider(_qh_cap_tree(cq))
    if not out:
        raise ValueError(f"no free-connex join tree found for {cq.name}")
    _TREE_CACHE[key] = out
    return out


def best_tree(cq: CQ) -> JoinTree:
    """§6.3 plan optimization: pick the tree minimizing ``Σ d(e)·N(e)``,
    with every relation's update count ``N(e)`` taken as equal. Ties
    break on height, then node count, then a deterministic signature.
    """

    def cost(t: JoinTree) -> tuple:
        s = sum(t.depth_relations(n.name) for n in t.nodes.values() if n.relation is not None)
        return (s, t.height, len(t.nodes), repr(t.signature()))

    return min(free_connex_trees(cq), key=cost)


def checked_tree(cq: CQ, tree: JoinTree | None = None) -> JoinTree:
    """``tree`` (``best_tree(cq)`` when None), checked to be a
    free-connex join tree of ``cq``'s relations and output. An engine
    calls it when it is built, so a bad tree fails there, not inside a
    Spark task."""
    tree = tree if tree is not None else best_tree(cq)
    if (
        tuple((r.name, r.attrs) for r in tree.cq.relations)
        != tuple((r.name, r.attrs) for r in cq.relations)
        or set(tree.cq.output) != set(cq.output)
    ):
        raise ValueError("tree was built for a different query/output")
    if not tree.is_free_connex_tree():
        raise ValueError("tree is not a valid free-connex join tree")
    return tree
