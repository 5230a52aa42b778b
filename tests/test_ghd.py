"""Cyclic queries via GHD (§7.1): bags + CROWN across bags."""
import random

import pytest

from repro.bench.queries import dumbbell_full, dumbbell_proj
from repro.core.naive import evaluate
from repro.cq.ghd import Bag, GHDEngine, dumbbell_ghd
from repro.cq.query import CQ, Relation, Selection
from repro.streams.sequences import Update
from tests._util import selected_db


def triangle_atoms():
    return (
        Relation("G1", ("x", "y"), stream="G"),
        Relation("G2", ("y", "z"), stream="G"),
        Relation("G3", ("z", "x"), stream="G"),
    )


class TestBag:
    def test_triangle_bag_deltas(self):
        bag = Bag("B", triangle_atoms())
        rng = random.Random(0)
        db = set()
        cur = set()
        cq = bag.cq
        for step in range(300):
            t = (rng.randrange(4), rng.randrange(4))
            ins = t not in db if rng.random() < 0.7 else False
            if not ins and t not in db:
                continue
            (db.add if ins else db.discard)(t)
            deltas = bag.apply(Update("G", t, ins))
            new = evaluate(cq, {r.name: set(db) for r in cq.relations})
            assert {x for s, x in deltas if s > 0} == new - cur, step
            assert {x for s, x in deltas if s < 0} == cur - new, step
            cur = new

    def test_bag_ignores_foreign_stream(self):
        bag = Bag("B", triangle_atoms())
        assert bag.apply(Update("H", (1, 2), True)) == []


def dumbbell_g1_even() -> CQ:
    """The dumbbell with a selection on a bagged atom (G1)."""
    cq = dumbbell_full().cq
    return CQ(cq.relations, cq.output, "dumbbell_g1_even", (("G1", Selection("x1", "%", 2)),))


class TestDumbbell:
    @pytest.mark.parametrize(
        "cq", [dumbbell_full().cq, dumbbell_proj().cq, dumbbell_g1_even()], ids=lambda cq: cq.name
    )
    def test_dumbbell_deltas_vs_naive(self, cq):
        eng = dumbbell_ghd(cq)
        rng = random.Random(3)
        db = set()
        cur = set()
        for step in range(350):
            t = (rng.randrange(4), rng.randrange(4))
            ins = t not in db if rng.random() < 0.75 else False
            if not ins and t not in db:
                continue
            (db.add if ins else db.discard)(t)
            deltas = eng.apply(Update("G", t, ins))
            new = evaluate(cq, selected_db(cq, {"G": db}))
            assert {x for s, x in deltas if s > 0} == new - cur, step
            assert {x for s, x in deltas if s < 0} == cur - new, step
            assert eng.full_result_set() == new
            cur = new

    def test_outer_query_is_free_connex(self):
        eng = dumbbell_ghd(dumbbell_full().cq)
        assert eng.crown.tree.is_free_connex_tree()

    def test_space_quadratic_not_cubic(self):
        """Lemma 7.2-flavoured check: bag state is bounded by the bag
        join sizes (≤ N^1.5 triangles here), far below the N³ of the
        standard plan's 5-relation prefix views."""
        cq = dumbbell_full().cq
        eng = dumbbell_ghd(cq)
        n = 8
        edges = [(i, (i + 1) % n) for i in range(n)]
        edges += [(i, (i + 2) % n) for i in range(n)]
        for e in edges:
            eng.apply(Update("G", e, True))
        assert eng.space() < 50 * len(edges) ** 2

    def test_direct_atom_updates_flow_through_crown(self):
        cq = dumbbell_full().cq
        eng = dumbbell_ghd(cq)
        # build two triangles and the bridge; the bridge (G4) is a
        # direct (unbagged) atom of the outer query
        for e in [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 4), (3, 4)]:
            eng.apply(Update("G", e, True))
        assert len(eng.full_result_set()) >= 1
