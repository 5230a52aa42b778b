"""SparkCrown (micro-batch join-free maintenance) — correctness against
the tuple engine and the DuckDB oracle."""
import random
import zlib
from collections import Counter

import pandas as pd
import pytest

from repro.bench.queries import hop3_full, hop3_proj, star
from repro.core.engine import CrownEngine
from repro.cq.join_tree import best_tree, free_connex_trees
from repro.cq.query import CQ, Relation
from repro.oracle import assert_equivalent
from repro.spark.crown_spark import SparkCrown, _member
from repro.spark.state import local_frame
from repro.streams.sequences import Update
from repro.synth_data import graph_edges_pdf
from tests._util import jobs_of
from tests.test_engine_deltas import BOOLEAN_QUERIES


def batched_graph_events(n_batches=3, per_batch=35, dom=12, seed=0):
    rng = random.Random(seed)
    live = set()
    batches = []
    for _ in range(n_batches):
        events = {}
        for _ in range(per_batch):
            if live and rng.random() < 0.3:
                t = rng.choice(sorted(live))
                live.discard(t)
                events[t] = -1
            else:
                t = (rng.randrange(dom), rng.randrange(dom))
                if t in live:
                    continue
                live.add(t)
                events[t] = 1
        batches.append([(s, a, b) for (a, b), s in events.items()])
    return batches


@pytest.mark.parametrize("factory", [hop3_full, hop3_proj, star], ids=lambda f: f.__name__)
def test_batch_deltas_match_core_engine(spark, factory):
    cq = factory().cq
    sc = SparkCrown(spark, cq, best_tree(cq))
    core = CrownEngine(cq)
    for batch in batched_graph_events(seed=zlib.crc32(cq.name.encode()) % 100):
        _check_batch(spark, sc, core, batch)
    _check_full_result(sc, core)


def test_full_result_vs_duckdb_oracle(spark):
    """End-state result equality via the DuckDB oracle on synthetic
    graph data (3-hop full join with the 10% endpoint filter)."""
    bq = hop3_full()
    cq = bq.cq
    g = graph_edges_pdf(sf=0.002, seed=5)
    sc = SparkCrown(spark, cq)
    sd = spark.createDataFrame(
        g.assign(sign=1)[["sign", "src", "dst"]]
    )
    sc.process_batch({"G": sd})
    assert_equivalent(sc.full_result(), bq.sql, G=g)


def test_state_stays_linear(spark):
    bq = hop3_proj()
    n = 25
    edges = [(i, 0) for i in range(1, n + 1)] + [(0, n + j) for j in range(1, n + 1)]
    sc = SparkCrown(spark, bq.cq)
    sd = spark.createDataFrame(
        pd.DataFrame([(1, a, b) for a, b in edges], columns=["sign", "a", "b"])
    )
    sc.process_batch({"G": sd})
    # |G1 ⋈ G2| = n² = 625, but CROWN state is linear in |G| (Lemma 4.1)
    assert sc.state_rows() < 20 * len(edges)


def test_empty_batch_is_noop(spark):
    bq = hop3_proj()
    sc = SparkCrown(spark, bq.cq)
    out = sc.process_batch({})
    assert out.count() == 0


def _check_batch(spark, sc, core, batch):
    """Feed one batch of graph edges ``(sign, a, b)`` to ``sc`` and ``core``."""
    _check_events(spark, sc, core, [("G", s, (a, b)) for s, a, b in batch])


def _check_events(spark, sc, core, events):
    """Feed one batch of ``(stream, sign, tuple)`` events, one per tuple,
    to ``sc`` and ``core``: its delta set must equal the core engine's
    net delta, ``sc.actions`` counts every job the batch ran, and
    collecting the delta runs no Spark job."""
    net = Counter()
    for stream, sign, t in events:
        for sg, out in core.apply(Update(stream, t, sign > 0)):
            net[out] += sg
    arity = {r.stream: len(r.attrs) for r in sc.cq.relations}
    frames = {
        stream: local_frame(spark, [(sg, *t) for st, sg, t in events if st == stream],
                            ["sign", *(f"v{i}" for i in range(n))])
        for stream, n in arity.items()
    }
    out, jobs, *_ = jobs_of(spark, lambda: sc.process_batch(frames))
    assert sum(sc.actions.values()) == jobs
    assert out.columns == [*sc.cq.output, "sign"]
    rows, jobs, *_ = jobs_of(spark, out.collect)
    assert jobs == 0
    got = {tuple(r[x] for x in sc.cq.output): r["sign"] for r in rows}
    assert len(got) == len(rows)
    assert got == {t: (1 if c > 0 else -1) for t, c in net.items() if c != 0}


def _check_full_result(sc, core):
    assert {tuple(r) for r in sc.full_result().collect()} == core.full_result_set()


def test_counted_vp_edge_cases(spark):
    """Counted V_p (derivation counting at batch granularity): a key
    changes only when its count crosses 0."""
    cq = hop3_proj().cq
    sc = SparkCrown(spark, cq)
    core = CrownEngine(cq, sc.tree)
    g2 = sc.nodes["G2"]  # key B; (2, 3) and (2, 4) share B = 2
    batches = [
        [(1, 1, 2), (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 5)],
        [(-1, 2, 3)],  # one of the two tuples under B = 2 leaves V_s
        [(1, 2, 3)],  # ... and comes back in the next batch
        [(-1, 2, 3), (-1, 2, 4)],  # both leave: the count crosses 0
    ]
    seen = []
    for batch in batches:
        _check_batch(spark, sc, core, batch)
        count = {r["B"]: r["_v"] for r in g2.counts().collect()}.get(2, 0)
        changed = (2,) in g2.keys
        seen.append((count, changed))
    assert seen == [(2, True), (1, False), (2, False), (0, True)]
    _check_full_result(sc, core)


def test_stats_count_crossed_keys(spark):
    """``stats`` reads the last batch's per-node counts off the driver:
    a V_p count that moves but does not cross 0 changes no key."""
    cq = hop3_proj().cq
    sc = SparkCrown(spark, cq)
    core = CrownEngine(cq, sc.tree)
    batches = [
        [(1, 1, 2), (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 5)],
        [(-1, 2, 3)],  # B = 2: 2 -> 1
        [(1, 2, 3)],  # B = 2: 1 -> 2
        # B = 2: 2 -> 0; and G3 loses C = 2, so G2's (1, 2) leaves V_s
        # and B = 1 goes 1 -> 0
        [(-1, 2, 3), (-1, 2, 4)],
    ]
    seen = []
    for batch in batches:
        _check_batch(spark, sc, core, batch)
        seen.append(sc.stats["G2"])
        assert seen[-1]["changed_keys"] == len(sc.nodes["G2"].keys)
    assert [s["changed_keys"] for s in seen[1:]] == [0, 0, 2]
    assert [s["delta"] for s in seen[1:]] == [1, 1, 3]
    assert all(s["candidates"] >= s["delta"] for s in seen)


TWO_GENERALIZED = [
    t for t in free_connex_trees(hop3_proj().cq)
    if sum(n.is_generalized for n in t.nodes.values()) == 2
]


@pytest.mark.parametrize("tree", TWO_GENERALIZED, ids=lambda t: "+".join(sorted(t.nodes)))
def test_generalized_trees_match_core_engine(spark, tree):
    """Generalized nodes (virtual R_e) and children keyed on fewer
    attributes than their parent, on every hop3_proj tree with two
    generalized nodes."""
    cq = hop3_proj().cq
    sc = SparkCrown(spark, cq, tree)
    core = CrownEngine(cq, tree)
    for batch in batched_graph_events(n_batches=2, per_batch=20, dom=8, seed=len(tree.nodes)):
        _check_batch(spark, sc, core, batch)
    _check_full_result(sc, core)


# A warm hop3_full batch runs 7 Spark jobs: 3 maintenance rounds
# ({G1, G3}, {G2}, the root), 1 late fetch at G2, 1 checkpoint and 2 ΔQ
# fetches, each one scan of the one state frame, so one task per
# partition. With a checkpointed frame per node and one scan per fetched
# piece it ran 11 jobs and 76 tasks; with the enumeration as a Spark
# plan of broadcast joins 14 jobs, with a broadcast semi-join per
# membership test 36, and with per-node full-state work (re-deriving
# V_p, diffing two enumerations) 100-126.
WARM_BATCH_JOBS = 7


def test_warm_batch_job_budget(spark):
    cq = hop3_full().cq
    sc = SparkCrown(spark, cq, best_tree(cq))
    cold, warm = (
        spark.createDataFrame(pd.DataFrame(b, columns=["sign", "a", "b"]))
        for b in batched_graph_events(n_batches=2, per_batch=25, seed=3)
    )
    sc.process_batch({"G": cold}).collect()
    _, jobs, _, tasks = jobs_of(spark, lambda: sc.process_batch({"G": warm}).collect())
    assert 0 < jobs <= WARM_BATCH_JOBS
    # one scan of a state frame of ``partitions`` partitions per job: a
    # fetch that scans once per piece runs more
    assert tasks <= jobs * sc.partitions
    assert sum(sc.actions.values()) == jobs
    assert sc.actions["checkpoint"] == 1


R_S = CQ((Relation("R", ("A", "B")), Relation("S", ("B", "C"))), ("A", "B", "C"), name="r_s")


@pytest.mark.parametrize("bulk", [0, 300], ids=["literal", "bulk"])
@pytest.mark.parametrize("tree", free_connex_trees(R_S), ids=lambda t: t.root)
def test_tuples_holding_null_are_deleted(spark, tree, bulk):
    """A batch tuple holding a NULL finds its stored copy, so deleting
    it emits its deltas and removes the row, and a re-insert stores it
    once; as a join key, a NULL still matches nothing. The bulk case
    adds 2 × ``bulk`` R tuples holding a NULL in one column or the
    other, some of which join S, so each batch tests R's rows against
    one literal list of over 600 keys."""
    extra = [(None, b) for b in range(100, 100 + bulk)] + [(a, None) for a in range(100, 100 + bulk)]
    sc = SparkCrown(spark, R_S, tree)
    core = CrownEngine(R_S, tree)
    batches = [
        [("R", 1, (None, 5)), ("S", 1, (5, 7)), ("R", 1, (1, None)),
         *(("S", 1, (b, 7)) for b in range(100, 100 + bulk, 50)), *(("R", 1, t) for t in extra)],
        [("R", -1, (None, 5)), ("R", -1, (1, None)), *(("R", -1, t) for t in extra)],
        [("R", 1, (1, None)), *(("R", 1, t) for t in extra)],
    ]
    for batch in batches:
        _check_events(spark, sc, core, batch)
    _check_full_result(sc, core)
    r = sc.nodes[tree.relation_node("R")]
    kept = [(1, None), *extra]
    assert Counter(tuple(row)[:2] for row in r.rows().collect()) == Counter(kept)
    # R is a leaf unless it is the root: its V_p counts the tuples per B
    want = Counter() if tree.root == "R" else Counter(b for _, b in kept)
    assert Counter(tuple(row) for row in r.counts().collect()) == Counter(want.items())


def test_member_groups_keys_by_their_nulls():
    """Keys holding a NULL in the same places are one term, however many
    there are; NULL-free keys are one ``IN`` or tuple ``IN``."""
    many = ", ".join(f"{b}L" for b in range(1000))
    assert _member(["A", "B"], [(None, b) for b in range(1000)]) == (
        f"`A` IS NULL AND coalesce(`B` IN ({many}), false)")
    assert _member(["A"], [(1,), (2,)]) == "coalesce(`A` IN (1L, 2L), false)"
    assert _member(["A", "B"], [(1, 2), (3, 4)]) == "(`A`, `B`) IN ((1L, 2L), (3L, 4L))"
    assert _member(["A", "B"], [(1, 2), (None, 3), (None, None), (None, 4)]) == (
        "(((`A`, `B`) IN ((1L, 2L))) OR (`A` IS NULL AND coalesce(`B` IN (3L, 4L), false))"
        " OR (`A` IS NULL AND `B` IS NULL))")


@pytest.mark.parametrize("cq", BOOLEAN_QUERIES, ids=lambda cq: cq.name)
def test_boolean_queries_match_core_engine(spark, cq):
    """y = ∅, on every tree (its root capped with []): ΔQ is (+1) or (−1)
    exactly when Q(D) becomes true or false, in a frame of one column."""
    rng = random.Random(zlib.crc32(cq.name.encode()))
    streams = sorted({r.stream for r in cq.relations})
    for tree in free_connex_trees(cq):
        sc = SparkCrown(spark, cq, tree)
        core = CrownEngine(cq, tree)
        live = set()
        for _ in range(3):
            events = {}
            for _ in range(6):
                e = (rng.choice(streams), (rng.randrange(2), rng.randrange(2)))
                events[e] = -1 if e in live else 1
            live ^= set(events)
            _check_events(spark, sc, core, [(st, sg, t) for (st, t), sg in events.items()])
        _check_full_result(sc, core)


def test_stream_frame_is_collected_once(spark):
    """The three atoms of hop3_full's self-join share one collect of the
    stream: one job for a frame parallelized from a list, none for one
    built from pandas."""
    cq = hop3_full().cq
    sc = SparkCrown(spark, cq, best_tree(cq))
    edges = [(1, 1, 2), (1, 2, 3), (1, 3, 10), (-1, 4, 5)]
    listed = spark.createDataFrame(edges, "sign long, a long, b long")
    pandas = spark.createDataFrame(pd.DataFrame(edges, columns=["sign", "a", "b"]))
    want = {
        sc.tree.relation_node(r.name): {
            (a, b): s for s, a, b in edges if all(p((a, b)) for p in cq.selections_on(r.name))
        }
        for r in cq.relations
    }
    assert len({len(b) for b in want.values()}) == 2  # one atom's selection drops edges
    for frame, n in ((listed, 1), (pandas, 0)):
        got, jobs, *_ = jobs_of(spark, lambda: sc._batches({"G": frame}))
        assert (got, jobs) == (want, n)
