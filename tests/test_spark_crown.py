"""SparkCrown (micro-batch join-free maintenance) — correctness against
the tuple engine and the DuckDB oracle."""
import random
import zlib

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.bench.queries import hop3_full, hop3_proj, star
from repro.core.batch import ROW, VP, VS, DictStore
from repro.core.engine import CrownEngine
from repro.cq.join_tree import best_tree, free_connex_trees
from repro.cq.query import CQ, Relation
from repro.oracle import assert_equivalent
from repro.spark.crown_spark import SparkCrown, _member
from repro.spark.state import local_frame
from repro.synth_data import graph_edges_pdf
from tests._util import jobs_of
from tests.test_batch_crown import (
    MSG_KNOWS, NULL_RO_BATCHES, R_S, batched_graph_events, check_null_rows, check_vp_counts,
    check_vp_stats, net_delta, null_batches, vp_steps, whole,
)
from tests.test_engine_deltas import BOOLEAN_QUERIES


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
    assert got == net_delta(core, events)


def _check_full_result(sc, core):
    assert {tuple(r) for r in sc.full_result().collect()} == core.full_result_set()


def test_counted_vp_edge_cases(spark):
    """Counted V_p (derivation counting at batch granularity): a key
    changes only when its count crosses 0."""
    cq = hop3_proj().cq
    sc = SparkCrown(spark, cq)
    core = CrownEngine(cq, sc.tree)
    check_vp_counts(vp_steps(lambda b: _check_batch(spark, sc, core, b), sc.core, sc))
    _check_full_result(sc, core)


def test_stats_count_crossed_keys(spark):
    """``stats`` reads the last batch's per-node counts off the driver:
    a V_p count that moves but does not cross 0 changes no key."""
    cq = hop3_proj().cq
    sc = SparkCrown(spark, cq)
    core = CrownEngine(cq, sc.tree)
    check_vp_stats(vp_steps(lambda b: _check_batch(spark, sc, core, b), sc.core, sc))


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
    # the cold batch fetches nothing from the empty state
    _, jobs, *_ = jobs_of(spark, lambda: sc.process_batch({"G": cold}).collect())
    assert sc.actions["fetch"] == 0 and sum(sc.actions.values()) == jobs
    _, jobs, _, tasks = jobs_of(spark, lambda: sc.process_batch({"G": warm}).collect())
    assert 0 < jobs <= WARM_BATCH_JOBS
    # one scan of a state frame of ``partitions`` partitions per job: a
    # fetch that scans once per piece runs more
    assert tasks <= jobs * sc.partitions
    assert sum(sc.actions.values()) == jobs
    assert sc.actions["checkpoint"] == 1


@pytest.mark.parametrize("bulk", [0, 300], ids=["literal", "bulk"])
@pytest.mark.parametrize("tree", free_connex_trees(R_S), ids=lambda t: t.root)
def test_tuples_holding_null_are_deleted(spark, tree, bulk):
    """A batch tuple holding a NULL finds its stored copy, so deleting
    it emits its deltas and removes the row, and a re-insert stores it
    once; as a join key, a NULL still matches nothing. In the bulk case
    each batch tests R's rows against one literal list of over 600 keys."""
    batches, kept = null_batches(bulk)
    sc = SparkCrown(spark, R_S, tree)
    core = CrownEngine(R_S, tree)
    for batch in batches:
        _check_events(spark, sc, core, batch)
    _check_full_result(sc, core)
    check_null_rows(sc, tree, kept)
    # no row is stored twice
    assert sc.state_rows() == sum(len(whole(sc, n, k)) for n in tree.nodes for k in (ROW, VP))


def test_null_in_a_non_join_key_attribute_is_a_value(spark):
    """On the tree rooted at [c,ro] above message (key (c, ro)), a
    message whose ``ro`` is NULL gives the result (2, NULL)."""
    tree = next(t for t in free_connex_trees(MSG_KNOWS)
                if t.root == "[c,ro]" and t.node("knows").parent == "message")
    sc, core = SparkCrown(spark, MSG_KNOWS, tree), CrownEngine(MSG_KNOWS, tree)
    for batch in NULL_RO_BATCHES:
        _check_events(spark, sc, core, batch)
    _check_full_result(sc, core)


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
    built from pandas, besides the engine's own actions."""
    cq = hop3_full().cq
    edges = [(1, 1, 2), (1, 2, 3), (1, 3, 10), (-1, 4, 5)]
    listed = spark.createDataFrame(edges, "sign long, a long, b long")
    pandas = spark.createDataFrame(pd.DataFrame(edges, columns=["sign", "a", "b"]))
    for frame, n in ((listed, 1), (pandas, 0)):
        sc = SparkCrown(spark, cq, best_tree(cq))
        out, jobs, *_ = jobs_of(spark, lambda: sc.process_batch({"G": frame}))
        assert jobs == n + sum(sc.actions.values())
        assert [tuple(r) for r in out.collect()] == [(1, 2, 3, 10, 1)]


def test_atom_filters_are_checked_not_applied(spark):
    """``atom_filters`` must spell the query's own selections; the core
    applies the compiled ones."""
    cq = hop3_full().cq
    SparkCrown(spark, cq, atom_filters={"G3": F.col("D") % 10 == 0})
    for wrong in ({"G3": F.col("D") % 5 == 0}, {"G1": F.col("B") % 10 == 0}, {}):
        with pytest.raises(ValueError):
            SparkCrown(spark, cq, atom_filters=wrong)


# R(A, B, C) ⋈ S(B, C, D): two-column V_p keys on either side
R3_S3 = CQ((Relation("R", ("A", "B", "C")), Relation("S", ("B", "C", "D"))),
           ("A", "B", "C", "D"), name="r3_s3")


@pytest.mark.parametrize("cq", [R_S, R3_S3], ids=lambda cq: cq.name)
def test_sql_terms_agree_with_matcher(spark, cq):
    """The Spark store's SQL terms (``_term``/``_member``) and the dict
    store's ``matcher`` are one predicate: on the same state, with
    NULL-holding rows, random pieces of every kind fetch the same rows,
    and a commit drops the same ones."""
    rng = random.Random(zlib.crc32(cq.name.encode()))
    tree = best_tree(cq)
    sc, ds = SparkCrown(spark, cq, tree), DictStore(tree)
    def val():
        return rng.choice([None, 0, 1, 2, 3])

    def cols(name, kind):
        return tree.key(name) if kind == VP else tree.node(name).attrs

    def rows():
        return {(n, k): {tuple(val() for _ in cols(n, k)): rng.randrange(2 if k == ROW else 4)
                         for _ in range(12)} for n in tree.nodes for k in (ROW, VP)}

    def pieces():
        out = []
        for _ in range(rng.randrange(1, 4)):
            n, k = rng.choice(sorted(tree.nodes)), rng.choice([ROW, VP, VS])
            c = tuple(rng.sample(list(cols(n, k)), rng.randrange(len(cols(n, k)) + 1)))
            keys = {tuple(val() for _ in c) for _ in range(rng.randrange(4))}
            out.append((n, k, c, keys))
        return out

    def same(pcs):
        spark_got, dict_got = sc.fetch(pcs), ds.fetch(pcs)
        assert {t: r for t, r in spark_got.items() if r} == {t: r for t, r in dict_got.items() if r}

    first = rows()
    for store in (sc, ds):
        store.commit([], first)
    for _ in range(25):
        same(pieces())
    same([(n, k, (), {()}) for n in tree.nodes for k in (ROW, VP, VS)])
    drop = pieces()
    # the new rows sit under the dropped pieces, or are new to the state
    hit = ds.fetch(drop)
    add = {t: {r: 1 - v if t[1] == ROW else v + 1 for r, v in got.items()} for t, got in hit.items()}
    for t, got in rows().items():
        add.setdefault(t, {}).update((r, v) for r, v in got.items() if r not in first[t])
    for store in (sc, ds):
        store.commit(drop, add)
    for _ in range(25):
        same(pieces())
    same([(n, k, (), {()}) for n in tree.nodes for k in (ROW, VP, VS)])
    assert sc.state_rows() == sum(len(r) for r in ds.rows.values())
