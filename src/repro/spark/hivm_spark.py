"""Batch first-order HIVM on Spark — the DBToaster-Spark proxy ([32]).

Per atom ``R_i`` a materialized delta-query view ``M_i = ⋈_{j≠i} R_j``
(bag, ``__m`` column). A batch delta to ``R_i`` answers
``ΔQ = ΔR_i ⋈ M_i`` with one join (HIVM's fast path), while every
other ``M_j`` is maintained by joining the delta across the remaining
base relations — reproducing HIVM's super-linear auxiliary state and
data-dependent maintenance cost at batch granularity.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.cq.query import CQ
from repro.spark.state import (
    checkpoint, effective, empty_df, fold_bag, selection_filters, set_delta,
)


class SparkFirstOrderHIVM:
    def __init__(self, spark: SparkSession, cq: CQ) -> None:
        self.cq = cq
        self.atom_filters = selection_filters(cq)
        self.names = [r.name for r in cq.relations]
        self.rels = {r.name: r for r in cq.relations}
        self.base: dict[str, DataFrame] = {
            n: empty_df(spark, list(self.rels[n].attrs)) for n in self.names
        }
        self.m_attrs: dict[str, list[str]] = {}
        self.m_view: dict[str, DataFrame] = {}
        for i in self.names:
            attrs: list[str] = []
            for n in self.names:
                if n == i:
                    continue
                for a in self.rels[n].attrs:
                    if a not in attrs:
                        attrs.append(a)
            self.m_attrs[i] = attrs
            self.m_view[i] = (
                empty_df(spark, attrs).withColumn("__m", F.lit(0)).limit(0)
            )
        self.result = (
            empty_df(spark, list(cq.output)).withColumn("__m", F.lit(0)).limit(0)
        )

    def process_batch(self, stream_deltas: dict[str, DataFrame]) -> DataFrame:
        result_old = self.result
        for atom in self.names:
            rel = self.rels[atom]
            sd = stream_deltas.get(rel.stream)
            if sd is None:
                continue
            d = sd.toDF("sign", *rel.attrs)
            flt = self.atom_filters.get(atom)
            if flt is not None:
                d = d.filter(flt)
            if d.isEmpty():
                continue
            acols = list(rel.attrs)
            ins, dels = effective(d, self.base[atom], acols)
            eff = ins.withColumn("__m", F.lit(1)).unionByName(
                dels.withColumn("__m", F.lit(-1))
            )
            # fast path: ΔQ = ΔR ⋈ M_atom
            m = self.m_view[atom].withColumnRenamed("__m", "__mm")
            shared = [a for a in rel.attrs if a in self.m_attrs[atom]]
            if len(self.names) == 1:
                dq = eff
            else:
                dq = (
                    eff.join(m, on=shared, how="inner")
                    .withColumn("__m", F.col("__m") * F.col("__mm"))
                    .drop("__mm")
                )
            rd = dq.groupBy(list(self.cq.output)).agg(F.sum("__m").alias("__m"))
            self.result = fold_bag(self.result, rd, list(self.cq.output))
            # maintain the other auxiliary views (the expensive part);
            # greedy join order, cross join when no attr is shared —
            # first-order HIVM really does materialize such products
            for i in self.names:
                if i == atom:
                    continue
                dm = eff
                seen = set(rel.attrs)
                rest = [n for n in self.names if n not in (i, atom)]
                while rest:
                    n = next(
                        (x for x in rest if set(self.rels[x].attrs) & seen),
                        rest[0],
                    )
                    rest.remove(n)
                    shared_n = [a for a in self.rels[n].attrs if a in seen]
                    if shared_n:
                        dm = dm.join(self.base[n], on=shared_n, how="inner")
                    else:
                        dm = dm.crossJoin(self.base[n])
                    seen |= set(self.rels[n].attrs)
                self.m_view[i] = fold_bag(self.m_view[i], dm, self.m_attrs[i])
            # base update
            nb = self.base[atom].join(dels, on=acols, how="left_anti")
            self.base[atom] = checkpoint(nb.unionByName(ins))
        return set_delta(result_old, self.result, list(self.cq.output))

    def full_result(self) -> DataFrame:
        return self.result.filter(F.col("__m") > 0).select(list(self.cq.output))

    def state_rows(self) -> int:
        total = sum(df.count() for df in self.base.values())
        total += sum(v.count() for v in self.m_view.values())
        return total + self.result.count()
