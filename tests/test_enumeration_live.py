"""Full enumeration (Algorithm 5) and live views (Lemma 5.5)."""
import pytest

from repro.bench.queries import GRAPH_QUERIES
from repro.core.engine import CrownEngine
from repro.cq.join_tree import free_connex_trees
from repro.cq.query import CQ, Relation
from repro.streams.sequences import Update
from tests._util import (
    check_counters, check_live, expected_result, output_orders, query_in_order, random_updates,
)


@pytest.mark.parametrize("name,reverse", output_orders(GRAPH_QUERIES))
def test_full_enumeration_matches_naive(name, reverse):
    bq = GRAPH_QUERIES[name]()
    cq = query_in_order(bq.cq, reverse)
    arity = {"G": 2, "V1": 1, "V2": 1} if name == "2comb" else {"G": 2}
    eng = CrownEngine(cq, post_filter=bq.post_filter)
    dbs = {s: set() for s in arity}
    for s, t, ins in random_updates(arity, 250, dom=6, seed=2):
        (dbs[s].add if ins else dbs[s].discard)(t)
        eng.apply(Update(s, t, ins))
    assert eng.full_result_set() == expected_result(cq, dbs, bq.post_filter)


def test_enumeration_no_duplicates():
    bq = GRAPH_QUERIES["4hop_proj"]()
    eng = CrownEngine(bq.cq)
    for s, t, ins in random_updates({"G": 2}, 200, dom=5, seed=3):
        eng.apply(Update(s, t, ins))
    results = list(eng.enumerate_full())
    assert len(results) == len(set(results))


def test_enumeration_is_restartable():
    bq = GRAPH_QUERIES["3hop_proj"]()
    eng = CrownEngine(bq.cq)
    for s, t, ins in random_updates({"G": 2}, 150, dom=5, seed=4):
        eng.apply(Update(s, t, ins))
    assert set(eng.enumerate_full()) == set(eng.enumerate_full())


def test_update_during_enumeration_raises():
    """``enumerate_full`` reads the live state: on random hop3_full
    states, one update after the first row (even a no-op one) makes the
    rest of the read raise ``RuntimeError`` rather than return a set
    that is neither Q(D) nor Q(D'). A drained read followed by an update
    still works, and so does the read after it."""
    cq = GRAPH_QUERIES["3hop_full"]().cq
    raised = 0
    for seed in range(200):
        eng = CrownEngine(cq)
        dbs = {"G": set()}
        ups = list(random_updates({"G": 2}, 40, dom=5, seed=seed))
        for s, t, ins in ups[:-1]:
            (dbs[s].add if ins else dbs[s].discard)(t)
            eng.apply(Update(s, t, ins))
        assert set(eng.enumerate_full()) == expected_result(cq, dbs), f"seed {seed}"
        rows = eng.enumerate_full()
        if next(rows, None) is None:
            continue
        s, t, ins = ups[-1]
        eng.apply(Update(s, t, ins))
        with pytest.raises(RuntimeError):
            list(rows)
        raised += 1
        (dbs[s].add if ins else dbs[s].discard)(t)
        assert set(eng.enumerate_full()) == expected_result(cq, dbs), f"seed {seed}"
    assert raised > 100


ARITY = {"2comb": {"G": 2, "V1": 1, "V2": 1}}


class TestLiveViews:
    @pytest.mark.parametrize("name", sorted(GRAPH_QUERIES))
    def test_live_view_invariant(self, name):
        """Every live view of every free-connex tree after every update.
        Only the live nodes in a witness node's subtree are updated, so a
        tree whose other live views would change shows here. Every
        counter, index and V_s view is checked against a from-scratch
        recomputation too."""
        bq = GRAPH_QUERIES[name]()
        arity = ARITY.get(name, {"G": 2})
        engines = [CrownEngine(bq.cq, tree, post_filter=bq.post_filter)
                   for tree in free_connex_trees(bq.cq)]
        dbs = {s: set() for s in arity}
        for step, (s, t, ins) in enumerate(random_updates(arity, 200, dom=4, seed=5)):
            (dbs[s].add if ins else dbs[s].discard)(t)
            q = expected_result(bq.cq, dbs)  # live views ignore post_filter
            for i, eng in enumerate(engines):
                eng.apply(Update(s, t, ins))
                what = f"{name} tree {i} step {step}"
                check_live(eng, q, what)
                check_counters(eng, dbs, what)

    def test_rebuild_live_equals_incremental(self):
        """``rebuild_live`` (the root's witness plan over V_s(root)) and
        ``bulk_load`` give the live views that incremental upkeep gives,
        on every tree of 4hop_proj and 2comb."""
        for name in ("4hop_proj", "2comb"):
            bq = GRAPH_QUERIES[name]()
            arity = ARITY.get(name, {"G": 2})
            for i, tree in enumerate(free_connex_trees(bq.cq)):
                eng = CrownEngine(bq.cq, tree)
                dbs = {s: set() for s in arity}
                for s, t, ins in random_updates(arity, 200, dom=4, seed=6):
                    (dbs[s].add if ins else dbs[s].discard)(t)
                    eng.apply(Update(s, t, ins))
                q = expected_result(bq.cq, dbs)
                check_live(eng, q, f"{name} tree {i} incremental")
                eng.rebuild_live()
                check_live(eng, q, f"{name} tree {i} rebuilt")
                loaded = CrownEngine(bq.cq, tree)
                loaded.bulk_load(dbs)
                check_live(loaded, q, f"{name} tree {i} bulk_load")
                assert loaded.space() == eng.space()


class TestNonFreeConnex:
    def test_distinct_consumer_over_extended_output(self):
        """§7.1: π_{x1,x3}(R1 ⋈ R2) is not free-connex; run the extended
        query (adding x2) and deduplicate with DistinctConsumer."""
        from repro.core.aggregates import DistinctConsumer

        inner = CQ(
            (Relation("R1", ("x1", "x2")), Relation("R2", ("x2", "x3"))),
            output=("x1", "x2", "x3"),
            name="ext",
        )
        eng = CrownEngine(inner)
        dc = DistinctConsumer(inner, keep=("x1", "x3"))
        dbs = {"R1": set(), "R2": set()}
        cur = set()
        for s, t, ins in random_updates({"R1": 2, "R2": 2}, 300, dom=4, seed=7):
            (dbs[s].add if ins else dbs[s].discard)(t)
            out = dc.feed(eng.apply(Update(s, t, ins)))
            new = {(a, c) for a, b, c in expected_result(inner, dbs)}
            assert {t2 for sg, t2 in out if sg > 0} == new - cur
            assert {t2 for sg, t2 in out if sg < 0} == cur - new
            cur = new
        assert dc.result() == cur
