"""Fig. 10 — distributed runtime vs parallelism p (Spark).

HyperCube-partitioned CROWN on the 4-Hop join-project stream for
p ∈ {1, 2, 4}; the Spark micro-batch baselines (Flink proxy /
DBToaster-Spark proxy) process the same stream in batches. Paper
shape: CROWN scales near-linearly for small p and outruns both
baselines by orders of magnitude.
"""
import pytest

from repro.bench.harness import stream_pdf
from repro.bench.queries import hop4_proj
from repro.cq.join_tree import best_tree
from repro.spark.partitioned import PartitionedCrown

N_EVENTS = 1200
DOM = 60


@pytest.mark.parametrize("p", [1, 2, 4])
def test_fig10_partitioned_crown(benchmark, spark, p):
    bq = hop4_proj()
    tree = best_tree(bq.cq)
    updates = stream_pdf(N_EVENTS, DOM)

    def once():
        pc = PartitionedCrown(spark, bq.cq, p=p, tree=tree)
        return pc.run_stream(updates)

    res = benchmark.pedantic(once, rounds=1, iterations=1)
    benchmark.extra_info.update(
        shards=len(res),
        max_shard_ms=round(res.millis.max(), 1),
        total_deltas=int(res.deltas.sum()),
    )


@pytest.mark.parametrize("engine", ["spark_cp", "spark_hivm"])
def test_fig10_spark_baselines(benchmark, spark, engine):
    from repro.spark.baseline_cp import SparkStandardCP
    from repro.spark.hivm_spark import SparkFirstOrderHIVM

    bq = hop4_proj()
    updates = stream_pdf(400, DOM)
    n_batches = 4
    chunks = [
        updates.iloc[i * len(updates) // n_batches : (i + 1) * len(updates) // n_batches]
        for i in range(n_batches)
    ]

    def once():
        eng = (
            SparkStandardCP(spark, bq.cq)
            if engine == "spark_cp"
            else SparkFirstOrderHIVM(spark, bq.cq)
        )
        total = 0
        for ch in chunks:
            sd = spark.createDataFrame(ch[["sign", "v0", "v1"]])
            total += eng.process_batch({"G": sd}).count()
        return total

    deltas = benchmark.pedantic(once, rounds=1, iterations=1)
    benchmark.extra_info.update(deltas=int(deltas), batches=n_batches)
