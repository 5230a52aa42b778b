"""Micro-batch standard change propagation on Spark — Flink-SQL proxy.

Materializes the left-deep intermediate join views as DataFrames with a
multiplicity column and propagates batch deltas through **view ⋈ delta
joins** (Fig. 1(a)): per batch and per updated atom, the prefix view is
joined with the atom's delta and the result is joined across the suffix
relations, then folded into every downstream view. Space and per-batch
work scale with the intermediate view / delta-join sizes — the
polynomial behaviour CROWN avoids. ``delta_only=True`` is the Trill
proxy (delta output, no full materialized result needed).
"""
from __future__ import annotations

from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.cq.query import CQ
from repro.spark.state import (
    checkpoint, effective, empty_df, fold_bag, selection_filters, set_delta,
)


class SparkStandardCP:
    """Batch standard change propagation over a left-deep plan."""

    def __init__(
        self,
        spark: SparkSession,
        cq: CQ,
        delta_only: bool = False,
        post_filter: Column | None = None,
    ) -> None:
        self.spark = spark
        self.cq = cq
        self.delta_only = delta_only
        self.post_filter = post_filter
        self.atom_filters = selection_filters(cq)
        names = [r.name for r in cq.relations]
        self.order = names
        self.rels = {r.name: r for r in cq.relations}
        # base relations and prefix views (with multiplicity __m)
        self.base: dict[str, DataFrame] = {
            n: empty_df(spark, list(self.rels[n].attrs)) for n in names
        }
        self.prefix_attrs: list[list[str]] = []
        attrs: list[str] = []
        for n in self.order:
            for a in self.rels[n].attrs:
                if a not in attrs:
                    attrs.append(a)
            self.prefix_attrs.append(list(attrs))
        self.views: list[DataFrame] = [
            empty_df(spark, self.prefix_attrs[i]).withColumn("__m", F.lit(0)).limit(0)
            for i in range(len(self.order))
        ]
        # result bag over output attrs
        self.result = (
            empty_df(spark, list(cq.output)).withColumn("__m", F.lit(0)).limit(0)
        )
        self.batches = 0

    def _atom_delta(self, atom: str, sd: DataFrame) -> DataFrame:
        rel = self.rels[atom]
        d = sd.toDF("sign", *rel.attrs)
        flt = self.atom_filters.get(atom)
        if flt is not None:
            d = d.filter(flt)
        return d

    def process_batch(self, stream_deltas: dict[str, DataFrame]) -> DataFrame:
        """Apply one (compacted) batch; return signed output delta."""
        result_old = self.result
        for atom_pos, atom in enumerate(self.order):
            rel = self.rels[atom]
            sd = stream_deltas.get(rel.stream)
            if sd is None:
                continue
            d = self._atom_delta(atom, sd)
            if d.isEmpty():
                continue
            acols = list(rel.attrs)
            ins, dels = effective(d, self.base[atom], acols)
            d = ins.withColumn("sign", F.lit(1)).unionByName(
                dels.withColumn("sign", F.lit(-1))
            )
            # Δ prefix view at this atom's position
            j = atom_pos
            dj = d.withColumn("__m", F.col("sign")).drop("sign")
            if j > 0:
                prev = self.views[j - 1].withColumnRenamed("__m", "__mp")
                shared = [a for a in rel.attrs if a in self.prefix_attrs[j - 1]]
                dj = (
                    dj.join(prev, on=shared, how="inner")
                    .withColumn("__m", F.col("__m") * F.col("__mp"))
                    .drop("__mp")
                )
            # base update for this atom (set semantics)
            nb = self.base[atom].join(dels, on=acols, how="left_anti")
            nb = nb.unionByName(ins)
            self.base[atom] = checkpoint(nb)
            # propagate the delta through the suffix joins and views
            delta = dj
            for i in range(j, len(self.order)):
                if i > j:
                    nxt = self.rels[self.order[i]]
                    shared = [
                        a for a in nxt.attrs if a in self.prefix_attrs[i - 1]
                    ]
                    delta = delta.join(
                        self.base[self.order[i]], on=shared, how="inner"
                    )
                self.views[i] = fold_bag(self.views[i], delta, self.prefix_attrs[i])
            # fold into the result bag
            rd = delta.groupBy(list(self.cq.output)).agg(
                F.sum("__m").alias("__m")
            )
            if self.post_filter is not None:
                rd = rd.filter(self.post_filter)
            self.result = fold_bag(self.result, rd, list(self.cq.output))
        self.batches += 1
        return set_delta(result_old, self.result, list(self.cq.output))

    def full_result(self) -> DataFrame:
        if self.delta_only:
            raise NotImplementedError("Trill proxy: no full enumeration")
        return self.result.filter(F.col("__m") > 0).select(list(self.cq.output))

    def state_rows(self) -> int:
        total = sum(df.count() for df in self.base.values())
        total += sum(v.count() for v in self.views)
        total += self.result.count()
        return total
