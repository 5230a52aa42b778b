"""Shared DataFrame helpers for the micro-batch engines.

Micro-batch view state lives in plain DataFrames. Each batch derives
new state frames from old ones (immutable — the pre/post pair is what
batch delta computation diffs), then eagerly ``localCheckpoint``s the
survivors so lineage does not grow across batches (the Structured
Streaming state-store equivalent for a synchronous driver loop).
"""
from __future__ import annotations

import pyarrow as pa
from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.cq.query import CQ


def empty_df(spark: SparkSession, cols: list[str]) -> DataFrame:
    """Empty long-typed frame with the given columns (join keys are
    synthetic integer ids throughout the benchmarks; string payloads
    are encoded upstream).

    It is backed by an empty RDD, like the checkpointed frames that
    replace it, not by an empty local relation: Catalyst folds the
    latter out of the first batch's plans, and those one-off plans ran
    about three times slower than the warm ones (SparkCrown, hop3_proj).
    """
    schema = ", ".join(f"`{c}` long" for c in cols)
    return spark.createDataFrame(spark.sparkContext.emptyRDD(), schema)


def local_frame(spark: SparkSession, rows: list[tuple], cols: list[str]) -> DataFrame:
    """Long-typed frame of driver-side ``rows`` (None is NULL).

    It goes in through Arrow as a ``LocalRelation``, which needs no job
    and no Python worker to read. The same rows parallelized from a
    Python list made a 5K-row checkpoint that included them take ~650 ms
    instead of ~150 ms (local[4]).
    """
    columns = list(zip(*rows)) if rows else [()] * len(cols)
    arrays = [pa.array(c, pa.int64()) for c in columns]
    return spark.createDataFrame(pa.Table.from_arrays(arrays, names=list(cols)))


def checkpoint(df: DataFrame) -> DataFrame:
    """Eager localCheckpoint: truncate lineage, keep the data cached."""
    return df.localCheckpoint(eager=True)


def _probe(small: DataFrame, on: list[str]) -> DataFrame:
    """The broadcast side of a semi/anti-join. With no key columns it is
    at most one row of no columns, so the join only asks whether
    ``small`` has a row, lazily, when the plan runs."""
    return F.broadcast(small if on else small.limit(1).select())


def semi(df: DataFrame, small: DataFrame, on: list[str]) -> DataFrame:
    """Rows of ``df`` with a match in the delta-sized ``small`` on
    ``on``. ``small`` is broadcast, so ``df`` is scanned, not shuffled."""
    return df.join(_probe(small, on), on=on or None, how="left_semi")


def anti(df: DataFrame, small: DataFrame, on: list[str]) -> DataFrame:
    """Rows of ``df`` without a match in the delta-sized ``small``."""
    return df.join(_probe(small, on), on=on or None, how="left_anti")


def selection_filters(cq: CQ) -> dict[str, Column]:
    """Each atom's §7.2 selections (``cq.where``) as one Spark filter
    over the atom's attribute columns."""
    out: dict[str, Column] = {}
    for rel, sel in cq.where:
        col = sel.column()
        out[rel] = out[rel] & col if rel in out else col
    return out
