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
        """Every live view of every free-connex tree after every update,
        with deltas emitted and without: the triggers keep V_l either
        way. Every counter, index and V_s view is checked against a
        from-scratch recomputation too."""
        bq = GRAPH_QUERIES[name]()
        arity = ARITY.get(name, {"G": 2})
        engines = [CrownEngine(bq.cq, tree, post_filter=bq.post_filter, emit_deltas=emit)
                   for tree in free_connex_trees(bq.cq) for emit in (True, False)]
        dbs = {s: set() for s in arity}
        for step, (s, t, ins) in enumerate(random_updates(arity, 200, dom=4, seed=5)):
            (dbs[s].add if ins else dbs[s].discard)(t)
            q = expected_result(bq.cq, dbs)  # live views ignore post_filter
            for i, eng in enumerate(engines):
                eng.apply(Update(s, t, ins))
                what = f"{name} engine {i} step {step}"
                check_live(eng, q, what)
                check_counters(eng, dbs, what)

    def test_bulk_load_equals_incremental(self):
        """``bulk_load`` (inserts with deltas off) gives the live views
        and the space that incremental upkeep gives, on every tree of
        4hop_proj, 4hop_full and 2comb, and the deltas of the updates
        after it are exact."""
        for name in ("4hop_proj", "4hop_full", "2comb"):
            bq = GRAPH_QUERIES[name]()
            arity = ARITY.get(name, {"G": 2})
            ups = list(random_updates(arity, 240, dom=4, seed=6))
            for i, tree in enumerate(free_connex_trees(bq.cq)):
                eng = CrownEngine(bq.cq, tree)
                dbs = {s: set() for s in arity}
                for s, t, ins in ups[:200]:
                    (dbs[s].add if ins else dbs[s].discard)(t)
                    eng.apply(Update(s, t, ins))
                q = expected_result(bq.cq, dbs)
                check_live(eng, q, f"{name} tree {i} incremental")
                loaded = CrownEngine(bq.cq, tree)
                loaded.bulk_load(dbs)
                check_live(loaded, q, f"{name} tree {i} bulk_load")
                assert loaded.space() == eng.space()
                for step, (s, t, ins) in enumerate(ups[200:]):
                    (dbs[s].add if ins else dbs[s].discard)(t)
                    new = expected_result(bq.cq, dbs)
                    assert sorted(loaded.apply(Update(s, t, ins))) == sorted(
                        [(1, r) for r in new - q] + [(-1, r) for r in q - new]
                    ), f"{name} tree {i} step {step} after bulk_load"
                    q = new

    @pytest.mark.parametrize("name", ["3hop_full", "4hop_proj"])
    def test_emission_switched_on_mid_stream(self, name):
        """An engine built with ``emit_deltas=False`` and switched on at
        update 150 emits the exact deltas from there on, on every tree:
        the live views its kernels read were kept while it was off."""
        bq = GRAPH_QUERIES[name]()
        for i, tree in enumerate(free_connex_trees(bq.cq)):
            eng = CrownEngine(bq.cq, tree, post_filter=bq.post_filter, emit_deltas=False)
            dbs = {"G": set()}
            cur: set = set()
            for step, (s, t, ins) in enumerate(random_updates({"G": 2}, 300, dom=5, seed=i)):
                eng.emit_deltas = step >= 150
                (dbs[s].add if ins else dbs[s].discard)(t)
                got = eng.apply(Update(s, t, ins))
                new = expected_result(bq.cq, dbs, bq.post_filter)
                want = [(1, r) for r in new - cur] + [(-1, r) for r in cur - new]
                assert sorted(got) == (sorted(want) if eng.emit_deltas else []), (
                    f"{name} tree {i} step {step}")
                cur = new
            assert eng.stats["deltas"] > 0, f"{name} tree {i}"

    def test_deletion_drops_value_whose_tuples_all_move(self):
        """A deletion that moves every V_s tuple of a π_y value out at path
        level 1 drops that value from the node's V_l: on every tree where
        R(a, b, c, e) sits above S(c), deleting S(5) moves R's
        (1, 2, 5, 7) and (1, 2, 5, 8), the two tuples of its value
        (1, 2, 5), out of V_s at once. The value crosses because its V_s
        count equals its number of movers, not 1."""
        cq = CQ((Relation("R", ("a", "b", "c", "e")), Relation("S", ("c",))),
                output=("a", "b", "c"), name="two movers")
        steps = [("R", (1, 2, 5, 7), True), ("R", (1, 2, 5, 8), True), ("R", (3, 2, 6, 7), True),
                 ("S", (5,), True), ("S", (6,), True), ("S", (5,), False), ("S", (5,), True),
                 ("R", (1, 2, 5, 7), False), ("S", (5,), False)]
        trees = [t for t in free_connex_trees(cq) if "S" in t.subtree(t.relation_node("R"))]
        assert trees
        for i, tree in enumerate(trees):
            eng = CrownEngine(cq, tree)
            dbs: dict[str, set] = {"R": set(), "S": set()}
            cur: set = set()
            for step, (s, t, ins) in enumerate(steps):
                (dbs[s].add if ins else dbs[s].discard)(t)
                got = eng.apply(Update(s, t, ins))
                new = expected_result(cq, dbs)
                what = f"tree {i} step {step}"
                assert sorted(got) == sorted(
                    [(1, r) for r in new - cur] + [(-1, r) for r in cur - new]), what
                check_live(eng, new, what)
                cur = new


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
