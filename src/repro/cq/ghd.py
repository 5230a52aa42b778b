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

from repro.core.baseline_cp import StandardCPEngine, attrs_of
from repro.core.engine import CrownEngine
from repro.cq.query import CQ, Relation
from repro.streams.sequences import Update


class GHDEngine:
    """CROWN across bags, standard CP inside bags (§7.1).

    ``bags`` maps bag name → atom names of ``cq`` grouped into that
    bag; atoms not listed stay direct CROWN relations. The across-bag
    query must be free-connex after bagging.
    """

    def __init__(self, cq: CQ, bags: dict[str, tuple[str, ...]]) -> None:
        self.cq = cq
        bagged: set[str] = set()
        # per bag: its name and its full join's StandardCPEngine, with
        # its atoms' selections applied inside the bag
        self.bags: list[tuple[str, StandardCPEngine]] = []
        for bname, atom_names in bags.items():
            atoms = tuple(cq.relation(n) for n in atom_names)
            where = tuple((rel, s) for rel, s in cq.where if rel in atom_names)
            bcq = CQ(atoms, attrs_of(cq, atom_names), f"bag_{bname}", where)
            self.bags.append((bname, StandardCPEngine(bcq)))
            bagged.update(atom_names)
        outer_rels = [Relation(name, eng.cq.output, stream=name) for name, eng in self.bags]
        outer_rels += [r for r in cq.relations if r.name not in bagged]
        outer_where = tuple((rel, s) for rel, s in cq.where if rel not in bagged)
        self.outer_cq = CQ(tuple(outer_rels), cq.output, f"{cq.name}_ghd", outer_where)
        self.crown = CrownEngine(self.outer_cq)
        self.stats = {"updates": 0, "deltas": 0}

    def apply(self, u: Update) -> list[tuple[int, tuple]]:
        out: list[tuple[int, tuple]] = []
        # direct atoms of the outer query fed by this stream
        if self.outer_cq.atoms_of_stream(u.stream):
            out.extend(self.crown.apply(u))
        # bag-level deltas, re-played as updates to the bag relations
        for name, eng in self.bags:
            for sign, t in eng.apply(u):
                out.extend(self.crown.apply(Update(name, t, sign > 0)))
        self.stats["updates"] += 1
        self.stats["deltas"] += len(out)
        return out

    def full_result_set(self) -> set[tuple]:
        return self.crown.full_result_set()

    def space(self) -> int:
        return self.crown.space() + sum(eng.space() for _, eng in self.bags)


def dumbbell_ghd(cq: CQ) -> GHDEngine:
    """The Fig. 5 decomposition: two triangle bags bridged by G4."""
    return GHDEngine(cq, {"B1": ("G1", "G2", "G3"), "B2": ("G5", "G6", "G7")})
