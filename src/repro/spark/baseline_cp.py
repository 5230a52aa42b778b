"""Micro-batch join-based change propagation on Spark: the Flink-SQL
(standard CP) and DBToaster-Spark (first-order HIVM, [32]) proxies.

Both run ``repro.core.baseline_cp.view_plan`` at batch granularity. Each
view is a DataFrame bag with a multiplicity column ``__m``. Each stream
frame is collected once per batch; an atom's delta is a local frame of
the stream's rows that ``cq.admits`` for the atom. Per batch and per
updated atom, the atom's effective delta takes each plan step as a
**view ⋈ delta** or base-relation join (a cross join where no attribute
is shared; first-order HIVM really does materialize such products), and
is folded into the step's view and then into the result bag. Space and
per-batch work scale with the view and delta-join sizes: the polynomial
behaviour CROWN avoids.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.baseline_cp import all_but_one, attrs_of, prefixes, view_plan
from repro.cq.query import CQ
from repro.spark.state import (
    checkpoint, collect_streams, effective, empty_df, fold_bag, local_frame, same_rows, set_delta,
)


def _bag(spark: SparkSession, cols: list[str]) -> DataFrame:
    return empty_df(spark, cols).withColumn("__m", F.lit(0)).limit(0)


def _join(df: DataFrame, other: DataFrame, on: tuple[str, ...]) -> DataFrame:
    return df.join(other, on=list(on), how="inner") if on else df.crossJoin(other)


class _SparkViews:
    """Batch maintenance of the bag views over the atom sets ``views``."""

    def __init__(self, spark: SparkSession, cq: CQ, views: list[frozenset[str]]) -> None:
        self.spark = spark
        self.cq = cq
        self.rels = {r.name: r for r in cq.relations}
        self.plan = view_plan(cq, views)
        self.view_attrs = [list(attrs_of(cq, v)) for v in views]
        self.base: dict[str, DataFrame] = {
            n: empty_df(spark, list(r.attrs)) for n, r in self.rels.items()
        }
        self.views: list[DataFrame] = [_bag(spark, attrs) for attrs in self.view_attrs]
        self.result = _bag(spark, list(cq.output))

    def process_batch(self, stream_deltas: dict[str, DataFrame]) -> DataFrame:
        """Apply one (compacted) batch; return signed output delta."""
        out = list(self.cq.output)
        result_old = self.result
        streams = collect_streams(self.cq, stream_deltas)
        for atom, rel in self.rels.items():
            admit = self.cq.admits(atom)
            rows = [r for r in streams.get(rel.stream, ()) if admit(r[1:])]
            if not rows:
                continue
            acols = list(rel.attrs)
            d = local_frame(self.spark, rows, ["sign", *acols])
            ins, dels = effective(d, self.base[atom], acols)
            eff = ins.withColumn("__m", F.lit(1)).unionByName(dels.withColumn("__m", F.lit(-1)))
            deltas: list[DataFrame] = []
            for step in self.plan[atom]:
                if step.after is not None:
                    dv = deltas[step.after]
                elif step.probe is None:
                    dv = eff
                else:
                    view = self.views[step.probe].withColumnRenamed("__m", "__mv")
                    dv = (_join(eff, view, step.on)
                          .withColumn("__m", F.col("__m") * F.col("__mv")).drop("__mv"))
                for n, on in step.joins:
                    dv = _join(dv, self.base[n], on)
                deltas.append(dv)
                if step.view is not None:
                    self.views[step.view] = fold_bag(
                        self.views[step.view], dv, self.view_attrs[step.view])
            rd = deltas[-1].groupBy(out).agg(F.sum("__m").alias("__m"))
            self.result = fold_bag(self.result, rd, out)
            kept = same_rows(self.base[atom], dels, acols, "left_anti")
            self.base[atom] = checkpoint(kept.unionByName(ins))
        return set_delta(result_old, self.result, out)

    def full_result(self) -> DataFrame:
        return self.result.filter(F.col("__m") > 0).select(list(self.cq.output))

    def state_rows(self) -> int:
        total = sum(df.count() for df in self.base.values())
        total += sum(v.count() for v in self.views)
        return total + self.result.count()


class SparkStandardCP(_SparkViews):
    """Batch standard change propagation over a left-deep plan."""

    def __init__(self, spark: SparkSession, cq: CQ) -> None:
        super().__init__(spark, cq, prefixes(cq))


class SparkFirstOrderHIVM(_SparkViews):
    """Batch first-order HIVM: every atom but one is materialized, per atom."""

    def __init__(self, spark: SparkSession, cq: CQ) -> None:
        super().__init__(spark, cq, all_but_one(cq))
