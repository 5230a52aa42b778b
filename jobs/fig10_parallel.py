"""Fig. 10 — distributed runtime vs parallelism p (Spark).

HyperCube-partitioned CROWN on the 4-Hop join-project stream for
p ∈ {1, 2, 4, 8}, plus the Spark micro-batch baselines (Flink proxy /
DBToaster-Spark proxy) on the same stream.
"""
import time

import _common as common

from repro.bench.harness import print_table, stream_pdf
from repro.bench.queries import hop4_proj
from repro.cq.join_tree import best_tree


def main() -> None:
    args = common.std_parser(__doc__).parse_args()
    spark = common.get_spark("fig10")
    n = 1500 if args.quick else 6000
    dom = 80 if args.quick else 200
    updates = stream_pdf(n, dom)
    bq = hop4_proj()
    tree = best_tree(bq.cq)
    rows = []
    from repro.spark.partitioned import PartitionedCrown

    for p in ([1, 4] if args.quick else [1, 2, 4, 8]):
        pc = PartitionedCrown(spark, bq.cq, p=p, tree=tree)
        t0 = time.perf_counter()
        res = pc.run_stream(updates)
        secs = time.perf_counter() - t0
        rows.append(
            {
                "engine": f"crown(p={p})",
                "seconds": round(secs, 2),
                "max_shard_ms": round(res.millis.max(), 1),
                "deltas": int(res.deltas.sum()),
            }
        )
    # Spark micro-batch baselines on a prefix of the same stream
    from repro.spark.baseline_cp import SparkStandardCP
    from repro.spark.hivm_spark import SparkFirstOrderHIVM

    nb = 300 if args.quick else 1000
    chunk = updates.head(nb)
    batches = [chunk.iloc[i::4] for i in range(4)]
    for name, engine in (
        ("spark_cp(flink)", SparkStandardCP),
        ("spark_hivm(dbtoaster)", SparkFirstOrderHIVM),
    ):
        eng = engine(spark, bq.cq)
        t0 = time.perf_counter()
        deltas = 0
        for b in batches:
            sd = spark.createDataFrame(b[["sign", "v0", "v1"]])
            deltas += eng.process_batch({"G": sd}).count()
        secs = time.perf_counter() - t0
        rows.append(
            {
                "engine": name,
                "seconds": round(secs, 2),
                "max_shard_ms": "-",
                "deltas": deltas,
                "note": f"first {nb} events only",
            }
        )
    print_table(
        f"Fig. 10: 4hop_proj distributed, {n} events (baselines: {nb})",
        rows,
        ["engine", "seconds", "max_shard_ms", "deltas", "note"],
    )
    spark.stop()


if __name__ == "__main__":
    main()
