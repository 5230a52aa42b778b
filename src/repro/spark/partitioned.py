"""HyperCube-partitioned CROWN — the distributed mode (§8.1).

The paper dispatches tuples "in a load-balanced fashion … borrowing
from massively parallel algorithms, such as HyperCube". For a
free-connex tree with root attributes ``g``, every query result has a
``g``-value, so sharding the stream by ``hash(g) mod p`` and
replicating atoms that do not contain ``g`` yields ``p`` independent
CROWN instances whose delta streams are provably disjoint and whose
union is exactly the global delta stream. A tree whose root has no
attributes cannot be split this way; all of its atoms go to shard 0.

Spark mapping: the driver routes every row once (``dispatch_plan``),
then ships each shard's sub-stream to one task of a single
``parallelize(…).mapPartitions`` stage. The task replays it through a
:class:`CrownEngine`, the stateful operator (DESIGN.md § layering).
Rows are already routed, so the stage needs no shuffle.
"""
from __future__ import annotations

import json
import time
import zlib

import pandas as pd
from pyspark.sql import SparkSession

from repro.cq.join_tree import JoinTree, checked_tree
from repro.cq.query import CQ


def _stable_hash(vals: tuple) -> int:
    """Deterministic across executors (unlike str hash)."""
    return zlib.crc32(repr(vals).encode())


def dispatch_plan(
    cq: CQ, tree: JoinTree, updates: pd.DataFrame, p: int
) -> pd.DataFrame:
    """Explode a stream (seq, stream, sign, v0..vk) into per-atom rows
    routed to partitions: atoms containing the root attributes hash on
    them; others are replicated to every partition. Rows come sorted by
    (pid, seq, atom position in ``cq.relations``), the replay order."""
    root_attrs = tree.node(tree.root).attrs
    vcols = [c for c in updates.columns if c.startswith("v")]
    frames = []
    for pos, atom in enumerate(cq.relations):
        sub = updates[updates.stream == atom.stream]
        rows = sub[["seq", "sign", *vcols]].assign(atom=atom.name, pos=pos)
        if not root_attrs:
            frames.append(rows.assign(pid=0))
        elif set(root_attrs) <= atom.attr_set:
            cols = [sub[vcols[atom.attrs.index(a)]].tolist() for a in root_attrs]
            keys = list(zip(*cols))
            pid_of = {k: _stable_hash(k) % p for k in set(keys)}
            frames.append(rows.assign(pid=[pid_of[k] for k in keys]))
        else:
            frames.extend(rows.assign(pid=pid) for pid in range(p))
    plan = pd.concat(frames, ignore_index=True).sort_values(
        ["pid", "seq", "pos"], kind="stable"
    )
    return plan[["pid", "seq", "atom", "sign", *vcols]].reset_index(drop=True)


class PartitionedCrown:
    """p independent CROWN shards behind one Spark job."""

    def __init__(
        self, spark: SparkSession, cq: CQ, p: int, tree: JoinTree | None = None
    ) -> None:
        self.spark = spark
        self.cq = cq
        self.p = p
        self.tree = checked_tree(cq, tree)

    def run_stream(
        self, updates: pd.DataFrame, collect_deltas: bool = False
    ) -> pd.DataFrame:
        """Replay a full update stream distributed; returns one row per
        non-empty shard: pid, updates, deltas, millis and ``payload``, the
        shard's deltas in emission order as JSON (``""`` unless
        ``collect_deltas``).

        ``updates`` columns: seq, stream, sign, v0..vk.
        """
        plan = dispatch_plan(self.cq, self.tree, updates, self.p)
        cq, tree = self.cq, self.tree
        arity = {r.name: len(r.attrs) for r in cq.relations}
        vals = zip(*(plan[c].tolist() for c in plan.columns if c.startswith("v")))
        rows = [
            (atom, sign > 0, v[: arity[atom]])
            for atom, sign, v in zip(plan.atom.tolist(), plan.sign.tolist(), vals)
        ]
        # the plan is sorted by pid: shard i is rows[bounds[i]:bounds[i + 1]]
        bounds = plan.pid.searchsorted(range(self.p + 1)).tolist()
        work = [
            (pid, rows[lo:hi])
            for pid, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
            if lo < hi
        ]

        def run_shard(part):  # pragma: no cover - runs on a Spark worker
            from repro.core.engine import CrownEngine

            for pid, shard in part:
                eng = CrownEngine(cq, tree)
                n_delta, payload = 0, []
                t0 = time.perf_counter()
                for atom, is_insert, t in shard:
                    deltas = eng.apply_atom(atom, t, is_insert)
                    n_delta += len(deltas)
                    if collect_deltas:
                        payload.extend(deltas)
                ms = (time.perf_counter() - t0) * 1000
                yield pid, len(shard), n_delta, ms, (
                    json.dumps(payload) if collect_deltas else ""
                )

        sc = self.spark.sparkContext
        out = sc.parallelize(work, max(len(work), 1)).mapPartitions(run_shard)
        return pd.DataFrame(
            out.collect(), columns=["pid", "updates", "deltas", "millis", "payload"]
        )
