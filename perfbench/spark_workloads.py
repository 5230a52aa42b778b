"""Spark workloads: sharded ``PartitionedCrown`` and micro-batch ``SparkCrown``.

One caller drives each engine in a closed loop; the next call is sent
when the previous one has returned with its result materialized. The
first call of a run is cold and counts as set-up. Each call runs under
its own Spark job group, so its jobs and stages are counted from outside
the engine. The gate compares every call's deltas with a single-process
``CrownEngine`` fed the same events; the tuple engine's per-layer
numbers on these workloads come from that reference replay.
"""
from __future__ import annotations

import importlib
import json
import math
import resource
import sys
import warnings
from collections import Counter

import pandas as pd

from perfbench.core import (
    CALIBRATION_REF_S, CALL_CALIBRATIONS, ROOT, JobCounter, Report, Tracer, calibration, clock,
    median, peak_rss_mb, spark_running,
)
from perfbench.tuple_workloads import (
    SETUP_REPEATS, Setup, engine_layers, setup, timed_pass, verify_checkpoints,
)
from repro.bench.harness import graph_stream
from repro.bench.queries import BenchQuery, hop3_full, hop4_proj
from repro.core.engine import CrownEngine
from repro.streams.sequences import Update, UpdateSequence

# applyInPandas warns on every call that run_shard has no type hints
warnings.filterwarnings("ignore", message="Cannot infer the eval type", category=UserWarning)

# fig10's stream (reports/fig10.txt: 6000 events, 242,850 deltas at seed 3)
PARTITIONED = {"events": 6000, "dom": 200, "p": 4, "checkpoints": 3}
# a FIFO window over the synthetic graph: the first ``preload`` events
# (inserts only) form the cold first batch, then steady batches of
# ``batch`` events, about half inserts and half deletes
SPARKCROWN = {"sf": 0.001, "window": 100, "preload": 100, "batch": 25, "checkpoints": 3}
# A warm SparkCrown batch takes ~10 s on a 4-vCPU Xeon VM; a run times
# ceil(seconds / BATCH_S) warm batches (at least 2), a count set by
# --seconds alone, so the same batches are timed however fast the
# program is.
BATCH_S = 10.0


def fig10_stream(n: int, dom: int, seed: int) -> pd.DataFrame:
    """The Fig. 10 job's insert/delete stream, taken from the job itself
    (``jobs/fig10_parallel.stream_pdf``) so the two cannot drift."""
    jobs = str(ROOT / "jobs")
    if jobs not in sys.path:
        sys.path.insert(0, jobs)
    return importlib.import_module("fig10_parallel").stream_pdf(n, dom, seed=seed)


def atom_filters(cq):
    """The benchmark queries' FILTER OVER selections as Spark columns
    (``attrs[1] % 10 == 0`` on the filtered atom, as in repro.bench.queries)."""
    from pyspark.sql import functions as F

    return {rel: F.col(cq.relation(rel).attrs[1]) % 10 == 0 for rel, _ in cq.selections}


def reference(bq: BenchQuery, tree, seq: UpdateSequence, params: dict, report: Report,
              tracer: Tracer, collect: list | None = None) -> None:
    """The single-process CrownEngine replay that every Spark call is
    checked against, itself gated like the tuple workloads; in traced
    runs it also gives the tuple engine's per-layer numbers."""
    with tracer.span("reference.replay"):
        ref = timed_pass(CrownEngine(bq.cq, tree), seq, Tracer(tracer.run_id, False),
                         checkpoints=params["checkpoints"], collect=collect)
    report.ops(len(ref.counts), ref.bad_updates, "reference: deltas inconsistent with net")
    report.ops(len(ref.checks), ref.bad_reads, "reference: read differs from net of deltas")
    verify_checkpoints(bq, ref, report, "reference")
    if report.trace:
        engine_layers(report, tracer, bq, tree, seq, ref, [ref], ref.apply_s)


def _jvm_rss(report: Report) -> None:
    """The JVM's peak RSS (it holds SparkCrown's state and runs the
    shard workers), read once it has ended. It is printed but not gated,
    as ``peak_rss_mb`` is the driver's alone: the JVM's peak is set by
    when it collects its garbage and moved 10-16% between seeds."""
    report.extra["jvm_peak_rss_mb"] = (peak_rss_mb(resource.RUSAGE_CHILDREN), "MB", 1)


def _timed_calls(call, seconds: float, minimum: int = 2) -> list:
    """Closed loop of engine calls until ``seconds`` are spent."""
    out = []
    start = clock()
    while len(out) < minimum or clock() - start < seconds:
        out.append(call(len(out)))
    return out


def _calibrations() -> list[float]:
    return [calibration() for _ in range(CALL_CALIBRATIONS)]


def _ref_s(secs: float, cal: list[float]) -> float:
    """A call's seconds at the calibration's reference speed, from the
    calibration loops run right before and right after it."""
    return secs * CALIBRATION_REF_S * len(cal) / sum(cal)


def _spark_metrics(report: Report, st: Setup, calls: list, traced: list, startup_s: float,
                   session_s: float, warm_s: float) -> None:
    """End-to-end numbers of the timed calls (the cold call is set-up);
    in traced runs, the Spark-side per-layer numbers."""
    secs = [c["s"] for c in calls]
    rates = [c["n"] / c["ref_s"] for c in calls]
    report.e2e["setup_s"] = (startup_s + session_s + st.plan_s + st.repeat_s + warm_s, "s",
                             SETUP_REPEATS)
    report.e2e["updates_per_s"] = (median(rates), "1/s", len(calls))
    x = report.extra
    x["updates_per_s_wall"] = (median([c["n"] / c["s"] for c in calls]), "1/s", len(calls))
    cal = [v for c in calls for v in c["cal"]]
    if cal:
        x["calibration_ms"] = (1e3 * median(cal), "ms", len(cal))
    x["batch_p50_s"] = (median(secs), "s", len(calls))
    if not report.trace:
        return
    layer = report.layer
    layer["cq.best_tree_ms"] = (1e3 * st.plan_s, "ms", 1)
    layer["input.generate_s"] = (st.generate_s, "s", SETUP_REPEATS)
    both = calls + traced
    layer["spark.jobs_per_call"] = (median([c["jobs"] for c in both]), "count", len(both))
    layer["spark.stages_per_call"] = (median([c["stages"] for c in both]), "count", len(both))
    t_rate = median([c["n"] / c["ref_s"] for c in traced])
    layer["trace.overhead_frac"] = (1 - t_rate / median(rates), "frac", len(traced))


# ---------------------------------------------------------------------------
# partitioned-4hop-p4
# ---------------------------------------------------------------------------

def partitioned_4hop_p4(seed, seconds, report, tracer, startup_s, expected, params=None):
    with spark_running(tracer) as (spark, session_s):
        _partitioned(spark, session_s, seed, seconds, report, tracer, startup_s, expected,
                     params or PARTITIONED)
    _jvm_rss(report)


def _partitioned(spark, session_s, seed, seconds, report, tracer, startup_s, expected, params):
    from repro.spark.partitioned import PartitionedCrown, dispatch_plan

    p = params["p"]
    jobs = JobCounter(spark)
    bq = hop4_proj()
    st = setup(bq, lambda: fig10_stream(params["events"], params["dom"], seed),
               lambda tree: PartitionedCrown(spark, bq.cq, p=p, tree=tree), tracer)
    tree, updates, pc = st.tree, st.inputs, st.engine
    n_events = len(updates)
    with tracer.span("partitioned.warmup"):
        s = clock()
        warm = pc.run_stream(updates, collect_deltas=True)
        warm_s = clock() - s

    def call(i, label="partitioned.run_stream"):
        cal = _calibrations()
        with jobs.group() as box, tracer.span(label):
            s = clock()
            res = pc.run_stream(updates)
            secs = clock() - s
        cal += _calibrations()
        return {"s": secs, "ref_s": _ref_s(secs, cal), "cal": cal, "n": n_events, "res": res,
                **box}

    if report.trace:
        calls = _timed_calls(call, seconds / 2)
        traced = _timed_calls(lambda i: call(i, "partitioned.run_stream.traced"), seconds / 2)
    else:
        calls, traced = _timed_calls(call, seconds), []
    report.e2e["peak_rss_mb"] = (peak_rss_mb(), "MB", 1)

    # ---- gate: exact deltas of the cold call, totals of every call
    seq = UpdateSequence([
        Update("G", (int(r.v0), int(r.v1)), r.sign > 0) for r in updates.itertuples(index=False)
    ])
    exp: list = []
    reference(bq, tree, seq, params, report, tracer, collect=exp)
    got = Counter()
    for payload in warm.payload:
        for sg, v in json.loads(payload):
            got[(sg, tuple(v))] += 1
    report.op(got == Counter(exp), "cold call: shard deltas differ from single-process replay")
    with tracer.span("partitioned.dispatch_plan"):
        s = clock()
        plan = dispatch_plan(bq.cq, tree, updates, p)
        dispatch_s = clock() - s
    for c in calls + traced:
        res = c["res"]
        report.op(
            int(res.deltas.sum()) == len(exp) and int(res.updates.sum()) == len(plan),
            f"call: {int(res.deltas.sum())} deltas / {int(res.updates.sum())} rows, "
            f"expected {len(exp)} / {len(plan)}",
        )
    if expected is not None:
        report.op(expected == {"events": n_events, "deltas": len(exp)},
                  f"input drift: expected {expected}, got events={n_events} deltas={len(exp)}")

    _spark_metrics(report, st, calls, traced, startup_s, session_s, warm_s)
    x = report.extra
    atoms = len(bq.cq.atoms_of_stream("G"))
    shard_max = [c["res"].millis.max() for c in calls]
    shard_mean = [c["res"].millis.mean() for c in calls]
    ups = calls[0]["res"].updates
    x["partitioned.dispatch_s"] = (dispatch_s, "s", 1)
    x["partitioned.replication"] = (len(plan) / (n_events * atoms), "ratio", len(plan))
    x["partitioned.shard_ms_max"] = (median(shard_max), "ms", len(calls))
    x["partitioned.shard_ms_mean"] = (median(shard_mean), "ms", len(calls))
    x["partitioned.shard_skew"] = (ups.max() / ups.mean(), "ratio", len(ups))
    x["partitioned.spark_overhead_s"] = (
        median([c["s"] - dispatch_s - m / 1e3 for c, m in zip(calls, shard_max)]), "s", len(calls)
    )
    x["partitioned.cold_call_s"] = (warm_s, "s", 1)
    x["events"] = (n_events, "count", 1)
    x["expected_deltas"] = (len(exp), "count", 1)


# ---------------------------------------------------------------------------
# sparkcrown-3hop-batches
# ---------------------------------------------------------------------------

def _batches(seq: UpdateSequence, preload: int, size: int) -> list[list[Update]]:
    """The preload, then consecutive batches of ``size`` events."""
    ev = seq.updates
    return [ev[:preload]] + [ev[i:i + size] for i in range(preload, len(ev), size)]


def _batch_frame(spark, batch: list[Update]):
    """One event per tuple (the last one wins), as process_batch expects."""
    last = {u.tuple: (1 if u.is_insert else -1) for u in batch}
    rows = [(s, a, b) for (a, b), s in last.items()]
    return spark.createDataFrame(pd.DataFrame(rows, columns=["sign", "a", "b"]))


def _batch_nets(bq, tree, batches) -> list[Counter]:
    """Per-batch net delta of a CrownEngine fed the same events."""
    eng = CrownEngine(bq.cq, tree)
    nets = []
    for b in batches:
        net = Counter()
        for u in b:
            for sg, t in eng.apply(u):
                net[t] += sg
        nets.append(net)
    return nets


def net_size(nets: list[Counter]) -> int:
    return sum(c != 0 for net in nets for c in net.values())


def _same(rows, net: Counter, output) -> bool:
    plus = {tuple(r[a] for a in output) for r in rows if r["sign"] > 0}
    minus = {tuple(r[a] for a in output) for r in rows if r["sign"] < 0}
    exp_p = {t for t, c in net.items() if c > 0}
    exp_m = {t for t, c in net.items() if c < 0}
    return plus == exp_p and minus == exp_m and len(rows) == len(exp_p) + len(exp_m)


def timed_batches(seconds: float, trace: bool, available: int) -> tuple[int, int]:
    """How many warm batches a run times untraced and traced. Raises
    when the stream (``available`` batches, the cold one included) is
    too short for them."""
    k = max(2, math.ceil(seconds / BATCH_S))
    plain, traced = (max(2, math.ceil(k / 2)),) * 2 if trace else (k, 0)
    if 1 + plain + traced > available:
        raise RuntimeError(
            f"sparkcrown: {seconds} s times {plain + traced} warm batches after the cold "
            f"one, but the stream has only {available} batches; lengthen the stream "
            "or lower --seconds")
    return plain, traced


def sparkcrown_3hop_batches(seed, seconds, report, tracer, startup_s, expected, params=None):
    with spark_running(tracer) as (spark, session_s):
        _sparkcrown(spark, session_s, seed, seconds, report, tracer, startup_s, expected,
                    params or SPARKCROWN)
    _jvm_rss(report)


def _sparkcrown(spark, session_s, seed, seconds, report, tracer, startup_s, expected, params):
    from repro.spark.crown_spark import SparkCrown

    jobs = JobCounter(spark)
    bq = hop3_full()
    flt = atom_filters(bq.cq)

    def make_input():
        seq = graph_stream(sf=params["sf"], window=params["window"], seed=seed)
        return seq, _batches(seq, params["preload"], params["batch"])

    st = setup(bq, make_input, lambda tree: SparkCrown(spark, bq.cq, tree, atom_filters=flt),
               tracer)
    tree, (seq, batches), sc = st.tree, st.inputs, st.engine
    output = list(bq.cq.output)
    n_plain, n_traced = timed_batches(seconds, report.trace, len(batches))

    def call(i, label="sparkcrown.process_batch"):
        sdf = _batch_frame(spark, batches[i])
        with jobs.group() as box, tracer.span(label):
            s = clock()
            with tracer.span("sparkcrown.process"):
                out = sc.process_batch({"G": sdf})
            p = clock()
            with tracer.span("sparkcrown.collect"):
                rows = out.collect()
            e = clock()
        # not calibrated: it widened the spread (see perfbench.core.BLOCK_S)
        return {"s": e - s, "ref_s": e - s, "cal": [], "process_s": p - s,
                "collect_s": e - p, "n": len(batches[i]), "rows": rows, **box}

    with tracer.span("sparkcrown.warmup"):
        s = clock()
        warm = call(0, "sparkcrown.warmup_batch")
        warm_s = clock() - s
    calls = [call(1 + i) for i in range(n_plain)]
    traced = [call(1 + n_plain + i, "sparkcrown.process_batch.traced") for i in range(n_traced)]
    done = [warm] + calls + traced
    report.e2e["peak_rss_mb"] = (peak_rss_mb(), "MB", 1)

    # ---- gate: each batch's delta set equals the reference's net delta
    nets = _batch_nets(bq, tree, batches)
    for i, c in enumerate(done):
        report.op(_same(c["rows"], nets[i], output),
                  f"batch {i}: delta set differs from the CrownEngine net delta")
    n_deltas = net_size(nets)
    if expected is not None:
        report.op(expected == {"events": len(seq), "deltas": n_deltas},
                  f"input drift: expected {expected}, got events={len(seq)} deltas={n_deltas}")
    reference(bq, tree, seq, params, report, tracer)

    _spark_metrics(report, st, calls, traced, startup_s, session_s, warm_s)
    x = report.extra
    x["sparkcrown.ms_per_job"] = (median([1e3 * c["s"] / max(1, c["jobs"]) for c in calls]),
                                 "ms", len(calls))
    x["sparkcrown.process_s"] = (median([c["process_s"] for c in calls]), "s", len(calls))
    x["sparkcrown.collect_s"] = (median([c["collect_s"] for c in calls]), "s", len(calls))
    x["sparkcrown.cold_batch_s"] = (warm_s, "s", 1)
    x["events"] = (len(seq), "count", 1)
    x["expected_deltas"] = (n_deltas, "count", 1)
    print("  sparkcrown jobs per batch: " + " ".join(str(c["jobs"]) for c in done))
