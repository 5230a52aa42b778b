"""SparkCrown (micro-batch join-free maintenance) — correctness against
the tuple engine and the DuckDB oracle."""
import random
from collections import Counter

import pandas as pd
import pytest

from repro.bench.queries import hop3_full, hop3_proj, star
from repro.core.engine import CrownEngine
from repro.cq.join_tree import best_tree, free_connex_trees
from repro.cq.query import CQ, Relation
from repro.oracle import assert_equivalent
from repro.spark import crown_spark
from repro.spark.crown_spark import SparkCrown
from repro.spark.state import anti, local_frame, semi
from repro.streams.sequences import Update
from repro.synth_data import graph_edges_pdf
from tests._util import jobs_of


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
    for batch in batched_graph_events(seed=hash(cq.name) % 100):
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
    """Feed one batch to ``sc`` and ``core``; its delta set must equal
    the core engine's net delta."""
    net = Counter()
    for s, a, b in batch:
        for sg, t in core.apply(Update("G", (a, b), s > 0)):
            net[t] += sg
    sd = spark.createDataFrame(pd.DataFrame(batch, columns=["sign", "a", "b"]))
    rows = sc.process_batch({"G": sd}).collect()
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
        count = {r["B"]: r["cnt"] for r in g2.vp().collect()}.get(2, 0)
        changed = (2,) in {tuple(r) for r in g2.changed_keys().collect()}
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
        assert seen[-1]["changed_keys"] == sc.nodes["G2"].changed_keys().count()
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


def test_empty_key_semi_anti_are_lazy(spark):
    """With no key columns, semi/anti ask whether the other frame has a
    row when the plan runs, not while it is built."""
    df = spark.range(3).toDF("a")
    none = df.filter("a < 0")
    plans, jobs, _ = jobs_of(spark, lambda: [
        semi(df, df, []), semi(df, none, []), anti(df, df, []), anti(df, none, []),
    ])
    assert jobs == 0
    assert [p.count() for p in plans] == [3, 0, 0, 3]


# A warm hop3_full batch runs about 14 Spark jobs: per touched node one
# or two collects and one checkpoint, then the seeded enumeration. With
# a broadcast semi-join per membership test it ran 36, and with
# per-node full-state work (re-deriving V_p, diffing two enumerations)
# 100-126.
WARM_BATCH_JOBS = 20


def test_warm_batch_job_budget(spark):
    cq = hop3_full().cq
    sc = SparkCrown(spark, cq, best_tree(cq))
    cold, warm = (
        spark.createDataFrame(pd.DataFrame(b, columns=["sign", "a", "b"]))
        for b in batched_graph_events(n_batches=2, per_batch=25, seed=3)
    )
    sc.process_batch({"G": cold}).collect()
    _, jobs, _ = jobs_of(spark, lambda: sc.process_batch({"G": warm}).collect())
    assert 0 < jobs <= WARM_BATCH_JOBS


@pytest.mark.parametrize("factory", [hop3_full, hop3_proj, star], ids=lambda f: f.__name__)
def test_broadcast_fallback_matches_core_engine(spark, monkeypatch, factory):
    """With the literal-list limit at 0, every membership test takes the
    broadcast semi/anti-join path; the deltas stay the same."""
    joins = []

    def spy(fn):
        def call(*args, **kw):
            joins.append(fn.__name__)
            return fn(*args, **kw)
        return call

    monkeypatch.setattr(crown_spark, "LITERAL_KEYS", 0)
    monkeypatch.setattr(crown_spark, "semi", spy(semi))
    monkeypatch.setattr(crown_spark, "anti", spy(anti))
    cq = factory().cq
    sc = SparkCrown(spark, cq, best_tree(cq))
    core = CrownEngine(cq, sc.tree)
    for batch in batched_graph_events(seed=hash(cq.name) % 100):
        _check_batch(spark, sc, core, batch)
    _check_full_result(sc, core)
    assert {"semi", "anti"} <= set(joins)


R_S = CQ((Relation("R", ("A", "B")), Relation("S", ("B", "C"))), ("A", "B", "C"), name="r_s")


@pytest.mark.parametrize("limit", [crown_spark.LITERAL_KEYS, 0], ids=["literal", "broadcast"])
@pytest.mark.parametrize("tree", free_connex_trees(R_S), ids=lambda t: t.root)
def test_tuples_holding_null_are_deleted(spark, monkeypatch, tree, limit):
    """A batch tuple holding a NULL finds its stored copy, so deleting
    it emits its deltas and removes the row, and a re-insert stores it
    once; as a join key, a NULL still matches nothing."""
    monkeypatch.setattr(crown_spark, "LITERAL_KEYS", limit)
    sc = SparkCrown(spark, R_S, tree)
    core = CrownEngine(R_S, tree)
    batches = [
        [("R", 1, (None, 5)), ("S", 1, (5, 7)), ("R", 1, (1, None))],
        [("R", -1, (None, 5)), ("R", -1, (1, None))],
        [("R", 1, (1, None))],
    ]
    for batch in batches:
        net = Counter()
        for stream, sign, t in batch:
            for sg, out in core.apply(Update(stream, t, sign > 0)):
                net[out] += sg
        frames = {
            rel.name: local_frame(spark, [(sg, *t) for st, sg, t in batch if st == rel.name],
                                  ["sign", *rel.attrs])
            for rel in R_S.relations
        }
        rows = sc.process_batch(frames).collect()
        assert {(r["A"], r["B"], r["C"]): r["sign"] for r in rows} == {
            t: (1 if c > 0 else -1) for t, c in net.items() if c != 0
        }
    _check_full_result(sc, core)
    r = sc.nodes[tree.relation_node("R")]
    assert [tuple(row)[:2] for row in r.rows().collect()] == [(1, None)]
    assert [tuple(row) for row in r.counts().collect()] == ([] if tree.root == "R" else [(None, 1)])
