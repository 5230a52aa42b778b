"""Cyclic queries via Generalized Hypertree Decompositions (§7.1).

A GHD groups atoms into *bags*; each bag's join is maintained with
standard change propagation (the paper: "we can use standard change
propagation within each bag, and apply our framework across the
bags"). Bag deltas feed a CROWN engine whose query treats each bag as
one base relation, so the across-bag propagation is join-free and the
overall plan matches Fig. 5(b): e.g. dumbbell = triangle-bag ⋈ G4 ⋈
triangle-bag with O(N²) space / O(N) update instead of O(N³)
(Theorem 7.1 / Lemma 7.2 with the standard-CP bag maintainer).
"""
from __future__ import annotations

from typing import Iterable

from repro.core.baseline_cp import StandardCPEngine
from repro.core.engine import CrownEngine
from repro.cq.join_tree import JoinTree, best_tree
from repro.cq.query import CQ, Relation, Selection
from repro.streams.sequences import Update


class Bag:
    """One GHD bag: a full-join subquery maintained by standard CP,
    with its atoms' selections (``where``) applied inside the bag."""

    def __init__(
        self, name: str, atoms: Iterable[Relation], where: tuple[tuple[str, Selection], ...] = ()
    ) -> None:
        self.name = name
        self.atoms = tuple(atoms)
        attrs: list[str] = []
        for a in self.atoms:
            for x in a.attrs:
                if x not in attrs:
                    attrs.append(x)
        self.attrs = tuple(attrs)
        self.cq = CQ(self.atoms, self.attrs, name=f"bag_{name}", where=where)
        self.engine = StandardCPEngine(self.cq)

    def apply(self, u: Update) -> list[tuple[int, tuple]]:
        """Feed a base update; return set-semantics bag-view deltas."""
        if not self.cq.atoms_of_stream(u.stream):
            return []
        return self.engine.apply(u)


class GHDEngine:
    """CROWN across bags, standard CP inside bags (§7.1).

    ``bags`` maps bag name → atom names of ``cq`` grouped into that
    bag; atoms not listed stay direct CROWN relations. The across-bag
    query must be free-connex after bagging.
    """

    def __init__(
        self,
        cq: CQ,
        bags: dict[str, tuple[str, ...]],
        tree: JoinTree | None = None,
        post_filter=None,
    ) -> None:
        self.cq = cq
        bagged: set[str] = set()
        self.bags: list[Bag] = []
        for bname, atom_names in bags.items():
            atoms = [cq.relation(n) for n in atom_names]
            where = tuple((rel, s) for rel, s in cq.where if rel in atom_names)
            self.bags.append(Bag(bname, atoms, where))
            bagged.update(atom_names)
        outer_rels: list[Relation] = [
            Relation(b.name, b.attrs, stream=b.name) for b in self.bags
        ]
        outer_rels += [r for r in cq.relations if r.name not in bagged]
        outer_where = tuple((rel, s) for rel, s in cq.where if rel not in bagged)
        self.outer_cq = CQ(
            tuple(outer_rels), cq.output, name=f"{cq.name}_ghd", where=outer_where
        )
        self.crown = CrownEngine(
            self.outer_cq,
            tree if tree is not None else best_tree(self.outer_cq),
            post_filter=post_filter,
        )
        self.stats = {"updates": 0, "deltas": 0}

    def apply(self, u: Update) -> list[tuple[int, tuple]]:
        out: list[tuple[int, tuple]] = []
        # direct atoms of the outer query fed by this stream
        if self.outer_cq.atoms_of_stream(u.stream):
            out.extend(self.crown.apply(u))
        # bag-level deltas, re-played as updates to the bag relations
        for bag in self.bags:
            for sign, t in bag.apply(u):
                out.extend(self.crown.apply(Update(bag.name, t, sign > 0)))
        self.stats["updates"] += 1
        self.stats["deltas"] += len(out)
        return out

    def run(self, seq: Iterable[Update]) -> list[tuple[int, tuple]]:
        out: list[tuple[int, tuple]] = []
        for u in seq:
            out.extend(self.apply(u))
        return out

    def full_result_set(self) -> set[tuple]:
        return self.crown.full_result_set()

    def space(self) -> int:
        return self.crown.space() + sum(b.engine.space() for b in self.bags)


def dumbbell_ghd(cq: CQ, post_filter=None) -> GHDEngine:
    """The Fig. 5 decomposition: two triangle bags bridged by G4."""
    return GHDEngine(
        cq,
        bags={
            "B1": ("G1", "G2", "G3"),
            "B2": ("G5", "G6", "G7"),
        },
        post_filter=post_filter,
    )
