"""Spark baselines (standard CP, first-order HIVM) vs oracle/engines."""
import pandas as pd
import pytest

from repro.bench.queries import hop3_full, hop3_proj, star
from repro.core.engine import CrownEngine
from repro.oracle import assert_equivalent
from repro.spark.baseline_cp import SparkFirstOrderHIVM, SparkStandardCP
from repro.spark.crown_spark import SparkCrown
from repro.spark.state import local_frame
from repro.streams.sequences import Update
from repro.synth_data import graph_edges_pdf
from tests._util import jobs_of
from tests.test_batch_crown import R_S
from tests.test_spark_crown import batched_graph_events


@pytest.mark.parametrize("engine_cls", [SparkCrown, SparkStandardCP, SparkFirstOrderHIVM])
def test_engines_apply_the_query_selections(spark, engine_cls):
    """Built from the query alone, each Spark engine applies hop3_full's
    FILTER OVER (D % 10 = 0): of the two 3-hop paths, only the one
    ending in 10 is a result."""
    cq = hop3_full().cq
    core = CrownEngine(cq)
    edges = [(1, 2), (2, 3), (3, 4), (3, 10)]
    want = {t for e in edges for _, t in core.apply(Update("G", e, True))}
    sd = spark.createDataFrame(pd.DataFrame([(1, *e) for e in edges], columns=["sign", "a", "b"]))
    rows = engine_cls(spark, cq).process_batch({"G": sd}).collect()
    assert want == {(1, 2, 3, 10)}
    assert {(r["sign"], *(r[x] for x in cq.output)) for r in rows} == {(1, 1, 2, 3, 10)}


@pytest.mark.parametrize("engine_cls", [SparkCrown, SparkStandardCP, SparkFirstOrderHIVM])
def test_tuples_holding_null_are_deleted(spark, engine_cls):
    """A batch tuple holding a NULL finds its stored copy, so deleting it
    retracts its results, while a NULL join attribute matches nothing."""
    eng = engine_cls(spark, R_S)

    def batch(r, s):
        cols = ["sign", "v0", "v1"]
        frames = {"R": local_frame(spark, r, cols), "S": local_frame(spark, s, cols)}
        return {tuple(row) for row in eng.process_batch(frames).collect()}

    assert batch([(1, None, 1), (1, 2, None)], [(1, 1, 2), (1, None, 3)]) == {(None, 1, 2, 1)}
    assert batch([(-1, None, 1)], []) == {(None, 1, 2, -1)}
    assert eng.full_result().collect() == []


@pytest.mark.parametrize("engine_cls", [SparkStandardCP, SparkFirstOrderHIVM])
def test_batch_deltas_match_core(spark, engine_cls):
    from collections import Counter

    bq = hop3_full()
    cq = bq.cq
    eng = engine_cls(spark, cq)
    core = CrownEngine(cq)
    for batch in batched_graph_events(n_batches=3, per_batch=30, seed=11):
        net = Counter()
        for s, a, b in batch:
            for sg, t in core.apply(Update("G", (a, b), s > 0)):
                net[t] += sg
        sd = spark.createDataFrame(pd.DataFrame(batch, columns=["sign", "a", "b"]))
        rows = eng.process_batch({"G": sd}).collect()
        got_p = {tuple(r[x] for x in cq.output) for r in rows if r["sign"] > 0}
        got_m = {tuple(r[x] for x in cq.output) for r in rows if r["sign"] < 0}
        assert got_p == {t for t, c in net.items() if c > 0}
        assert got_m == {t for t, c in net.items() if c < 0}


def test_spark_cp_vs_duckdb(spark):
    bq = hop3_full()
    g = graph_edges_pdf(sf=0.002, seed=6)
    eng = SparkStandardCP(spark, bq.cq)
    eng.process_batch(
        {"G": spark.createDataFrame(g.assign(sign=1)[["sign", "src", "dst"]])}
    )
    assert_equivalent(eng.full_result(), bq.sql, G=g)


def test_spark_cp_state_superlinear(spark):
    """The baseline materializes the quadratic intermediate view —
    exactly what Fig. 12 attributes its slowdown to."""
    bq = hop3_proj()
    n = 25
    edges = [(i, 0) for i in range(1, n + 1)] + [(0, n + j) for j in range(1, n + 1)]
    cp = SparkStandardCP(spark, bq.cq)
    crown = SparkCrown(spark, bq.cq)
    sd = pd.DataFrame([(1, a, b) for a, b in edges], columns=["sign", "a", "b"])
    cp.process_batch({"G": spark.createDataFrame(sd)})
    crown.process_batch({"G": spark.createDataFrame(sd)})
    assert cp.state_rows() > n * n  # the n² view is materialized
    assert crown.state_rows() < 20 * len(edges)


def test_hivm_vs_duckdb(spark):
    bq = hop3_proj()
    g = graph_edges_pdf(sf=0.001, seed=8)
    eng = SparkFirstOrderHIVM(spark, bq.cq)
    eng.process_batch(
        {"G": spark.createDataFrame(g.assign(sign=1)[["sign", "src", "dst"]])}
    )
    assert_equivalent(eng.full_result(), bq.sql, G=g)


class _Forgetful:
    """A status tracker that has lost the info on the odd stage ids, as
    Spark's status store does once it holds more than
    ``spark.ui.retainedStages`` (skipped stages go first): after about
    2,000 stages of the Spark baselines, ``getStageInfo`` returns None
    for some of a new batch's stages."""

    def __init__(self, tracker):
        self.tracker = tracker

    def __getattr__(self, name):
        return getattr(self.tracker, name)

    def getStageInfo(self, stage_id):
        return None if stage_id % 2 else self.tracker.getStageInfo(stage_id)


@pytest.mark.parametrize("engine_cls", [SparkStandardCP, SparkFirstOrderHIVM])
def test_jobs_of_counts_the_baselines_jobs(spark, engine_cls, monkeypatch):
    """``tests._util.jobs_of`` counts a baseline batch's Spark jobs,
    stages and tasks, and skips the stages the status tracker has no
    info on."""
    eng = engine_cls(spark, star().cq)
    ctx = spark.sparkContext
    tracker = ctx.statusTracker
    cold, warm = (local_frame(spark, b, ["sign", "a", "b"])
                  for b in batched_graph_events(n_batches=2, per_batch=30, seed=11))
    _, jobs, stages, tasks = jobs_of(spark, lambda: eng.process_batch({"G": cold}).collect())
    assert 0 < jobs <= stages <= tasks
    monkeypatch.setattr(ctx, "statusTracker", lambda: _Forgetful(tracker()))
    _, jobs, stages, tasks = jobs_of(spark, lambda: eng.process_batch({"G": warm}).collect())
    assert 0 < jobs and stages <= tasks
