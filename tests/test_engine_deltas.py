"""Exhaustive randomized delta checks: CROWN vs brute force (§5.2).

Every benchmark query shape × several seeds × mixed insert/delete
streams; each update's emitted delta is compared to Q(D±t) − Q(D)
recomputed from scratch, and witness disjointness (no duplicate
deltas) is asserted inside the fuzzer.
"""
import pytest

from repro.bench.queries import GRAPH_QUERIES, SNB_QUERIES
from repro.core.engine import CrownEngine
from repro.core.naive import evaluate
from repro.cq.join_tree import best_tree, free_connex_trees
from repro.cq.query import CQ, Relation
from repro.streams.sequences import Update
from tests._util import (
    check_counters, check_live, expected_result, fuzz_engine_vs_naive, output_orders,
    query_in_order, random_updates,
)

GRAPH_ARITY = {"G": 2}
COMB_ARITY = {"G": 2, "V1": 1, "V2": 1}


def snb_tuple_maker(rng, stream):
    if stream == "message":
        return (
            rng.randrange(6),
            rng.randrange(6),
            None if rng.random() < 0.6 else rng.randrange(6),
        )
    if stream == "person":
        return (rng.randrange(6), f"fn{rng.randrange(3)}", f"ln{rng.randrange(3)}")
    if stream == "tag":
        return (rng.randrange(6), f"tag{rng.randrange(6)}")
    if stream == "knows":
        return (rng.randrange(8), rng.randrange(8))
    if stream == "message_tag":
        return (rng.randrange(6), rng.randrange(6))
    raise KeyError(stream)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name,reverse", output_orders(GRAPH_QUERIES))
def test_graph_query_deltas(name, reverse, seed):
    bq = GRAPH_QUERIES[name]()
    cq = query_in_order(bq.cq, reverse)
    arity = COMB_ARITY if name == "2comb" else GRAPH_ARITY
    dom = 8 if "4hop" in name else 5
    fuzz_engine_vs_naive(
        lambda: CrownEngine(cq, post_filter=bq.post_filter),
        cq,
        arity,
        steps=300,
        dom=dom,
        seed=seed,
        post_filter=bq.post_filter,
    )


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("name", sorted(SNB_QUERIES))
def test_snb_query_deltas(name, seed):
    bq = SNB_QUERIES[name]()
    used = sorted({r.stream for r in bq.cq.relations})
    fuzz_engine_vs_naive(
        lambda: CrownEngine(bq.cq, post_filter=bq.post_filter),
        bq.cq,
        {s: 0 for s in used},
        steps=300,
        seed=seed,
        post_filter=bq.post_filter,
        tuple_maker=snb_tuple_maker,
    )


@pytest.mark.parametrize("name", ["3hop_proj", "4hop_proj"])
def test_every_tree_gives_same_deltas(name):
    """The delta stream is plan-independent: every valid free-connex
    tree of the query yields identical deltas."""
    bq = GRAPH_QUERIES[name]()
    trees = free_connex_trees(bq.cq)[:6]
    for i, tree in enumerate(trees):
        fuzz_engine_vs_naive(
            lambda: CrownEngine(bq.cq, tree, post_filter=bq.post_filter),
            bq.cq,
            GRAPH_ARITY,
            steps=150,
            dom=4,
            seed=100 + i,
            post_filter=bq.post_filter,
        )


def test_snb_q2_counters_on_every_tree():
    """``check_snb_state`` on every SNB Q2 tree. Most of them put a
    generalized node mid-tree with a defining and a counted child, so
    propagation makes and drops candidates of its virtual relation."""
    assert len(free_connex_trees(SNB_QUERIES["snb_q2"]().cq)) == 16
    check_snb_state("snb_q2")


def test_snb_q1_counters_on_every_tree():
    """``check_snb_state`` on every SNB Q1 tree. Of the benchmark queries
    only Q1 has trees with a boundary node that holds output attributes
    beyond its key, whose π_y rows per key (``vs_key_yproj``) are its
    enumerated part."""
    cq = SNB_QUERIES["snb_q1"]().cq
    trees = free_connex_trees(cq)
    assert sum(CrownEngine(cq, t).nodes[n].needs_kyproj for t in trees for n in t.nodes) > 0
    check_snb_state("snb_q1")


def check_snb_state(name: str) -> None:
    """On every tree of SNB query ``name`` (no post-filter), after every
    update: deltas against the naive oracle, every live view
    (``check_live``), and every counter, index and V_s view recomputed
    from scratch (``check_counters``), with deltas emitted and without."""
    cq = SNB_QUERIES[name]().cq
    streams = {r.stream: 0 for r in cq.relations}
    for i, tree in enumerate(free_connex_trees(cq)):
        eng, quiet = CrownEngine(cq, tree), CrownEngine(cq, tree, emit_deltas=False)
        dbs: dict[str, set] = {s: set() for s in streams}
        cur: set = set()
        updates = random_updates(streams, 200, seed=i, tuple_maker=snb_tuple_maker)
        for step, (s, t, ins) in enumerate(updates):
            what = f"{name} tree {i} step {step}"
            (dbs[s].add if ins else dbs[s].discard)(t)
            got = eng.apply(Update(s, t, ins))
            assert quiet.apply(Update(s, t, ins)) == [], what
            new = expected_result(cq, dbs)
            assert sorted(got) == sorted(
                [(1, r) for r in new - cur] + [(-1, r) for r in cur - new]), what
            for e in (eng, quiet):
                check_live(e, new, what)
                check_counters(e, dbs, what)
            cur = new
        assert eng.stats["deltas"] > 0, f"tree {i}"


_R, _S, _T = Relation("R", ("A", "B")), Relation("S", ("B", "C")), Relation("T", ("C", "D"))
BOOLEAN_QUERIES = [CQ((_R,), (), "R"), CQ((_R, _S), (), "RS"), CQ((_R, _S, _T), (), "RST")]


@pytest.mark.parametrize("cq", BOOLEAN_QUERIES, ids=lambda cq: cq.name)
def test_boolean_query_deltas(cq):
    """y = ∅: every tree (its root capped with []) emits (+1, ()) and
    (−1, ()) exactly when Q(D) becomes true and false."""
    arity = {r.name: len(r.attrs) for r in cq.relations}
    for i, tree in enumerate(free_connex_trees(cq)):
        fuzz_engine_vs_naive(
            lambda: CrownEngine(cq, tree), cq, arity, steps=150, dom=3, seed=i, check_full=10
        )


def test_null_join_attribute_matches_nothing():
    """As in SQL: on R(A,B) ⋈ S(B,C), R (1, NULL) and S (NULL, 7) join
    nothing, in CrownEngine, in its shard form (``apply_atom``, as
    PartitionedCrown drives it), in the naive oracle and in DuckDB. A
    NULL on an attribute that joins nothing (R's A) is a plain value."""
    import duckdb

    cq = CQ((_R, _S), ("A", "B", "C"), "RS")
    db = {"R": [(1, None), (None, 5)], "S": [(None, 7), (5, 7)]}
    want = {(None, 5, 7)}
    eng, shard = CrownEngine(cq), CrownEngine(cq)
    for rel in ("R", "S"):
        for t in db[rel]:
            eng.apply(Update(rel, t, True))
            shard.apply_atom(rel, t, True)
    assert eng.full_result_set() == shard.full_result_set() == want
    assert evaluate(cq, {rel: set(ts) for rel, ts in db.items()}) == want
    con = duckdb.connect()
    try:
        got = con.execute(
            "SELECT R.A, R.B, S.C FROM (VALUES (1, NULL), (NULL, 5)) R(A, B)"
            " JOIN (VALUES (NULL, 7), (5, 7)) S(B, C) ON R.B = S.B"
        ).fetchall()
    finally:
        con.close()
    assert set(got) == want
    # deleting a tuple that was never stored is a no-op
    assert eng.apply(Update("R", (1, None), False)) == []
    assert shard.apply_atom("S", (None, 7), False) == []
    assert eng.apply(Update("R", (None, 5), False)) == [(-1, (None, 5, 7))]


@pytest.mark.parametrize("name", ["4hop_full", "3hop_full"])
def test_apply_atom_equals_apply(name):
    """``apply_atom``, as ``PartitionedCrown``'s shards drive it, fed each
    admitted atom of every update in ``cq.relations`` order, gives
    ``apply``'s deltas, ``enumerate_full`` and ``stats`` on every tree
    (self-join atoms included); its ``updates`` counts atom calls."""
    cq = GRAPH_QUERIES[name]().cq
    for i, tree in enumerate(free_connex_trees(cq)):
        eng, shard = CrownEngine(cq, tree), CrownEngine(cq, tree)
        calls = 0
        for step, (s, t, ins) in enumerate(random_updates(GRAPH_ARITY, 150, dom=5, seed=i)):
            what = f"{name} tree {i} step {step}"
            want = eng.apply(Update(s, t, ins))
            got = []
            for r in cq.relations:
                if r.stream == s and cq.admits(r.name)(t):
                    got += shard.apply_atom(r.name, t, ins)
                    calls += 1
            assert got == want, what
            assert list(shard.enumerate_full()) == list(eng.enumerate_full()), what
        assert eng.stats["deltas"] > 0 and eng.stats["noop_updates"] > 0
        assert shard.stats == {**eng.stats, "updates": calls}, f"{name} tree {i}"


@pytest.mark.parametrize("seed", range(3))
def test_insertion_only_then_deletion_only(seed):
    """Insert a full phase then delete everything: Q must return to ∅
    and the signed delta stream must telescope to zero."""
    from collections import Counter

    bq = GRAPH_QUERIES["4hop_proj"]()
    eng = CrownEngine(bq.cq)
    import random

    rng = random.Random(seed)
    edges = {(rng.randrange(6), rng.randrange(6)) for _ in range(60)}
    net = Counter()
    for e in sorted(edges):
        for s, t in eng.apply(Update("G", e, True)):
            net[t] += s
    assert eng.full_result_set() == {t for t, c in net.items() if c == 1}
    for e in sorted(edges):
        for s, t in eng.apply(Update("G", e, False)):
            net[t] += s
    assert eng.full_result_set() == set()
    assert all(c == 0 for c in net.values())


def test_fifo_window_stream_deltas():
    """Sliding-window (FIFO) stream on 3-hop: spot-check final state."""
    from repro.streams.sequences import fifo_window_sequence

    bq = GRAPH_QUERIES["3hop_full"]()
    import random

    rng = random.Random(0)
    rows = [("G", (rng.randrange(6), rng.randrange(6))) for _ in range(120)]
    # dedupe rows (set semantics: repeated inserts are no-ops anyway)
    seen, uniq = set(), []
    for s, t in rows:
        if t not in seen:
            seen.add(t)
            uniq.append((s, t))
    seq = fifo_window_sequence(uniq, w=25)
    eng = CrownEngine(bq.cq, post_filter=bq.post_filter)
    dbs = {"G": set()}
    cur = set()
    for u in seq:
        (dbs["G"].add if u.is_insert else dbs["G"].discard)(u.tuple)
        deltas = eng.apply(u)
        new = expected_result(bq.cq, dbs, bq.post_filter)
        assert {t for s, t in deltas if s > 0} == new - cur
        assert {t for s, t in deltas if s < 0} == cur - new
        cur = new
