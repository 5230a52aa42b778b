"""Write perfbench/MANIFEST.json: why each workload exists, which layer
metric should move which end-to-end metric on which workload, the
machine, and the exact input event and delta counts for seeds 1-10.

    python3 perfbench/make_manifest.py

The counts come from single-process CrownEngine replays (no Spark). A
run whose seed is listed fails its gate when its input or delta count
differs, so generator drift shows up as a failed operation.
"""
import json
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.core import (  # noqa: E402
    BLOCK_S, CALIBRATION_REF_S, CALL_CALIBRATIONS, SHUFFLE_PARTITIONS, Tracer, machine,
)
from perfbench.spark_workloads import (  # noqa: E402
    BATCH_S, PARTITIONED, SPARKCROWN, _batch_nets, _batches, fig10_stream, net_size,
)
from perfbench.tuple_workloads import HOP4, SNB, _hop4_input, _snb_input, timed_pass  # noqa: E402
from repro.bench.harness import graph_stream  # noqa: E402
from repro.bench.queries import hop3_full, hop4_full, hop4_proj, snb_q1  # noqa: E402
from repro.core.engine import CrownEngine  # noqa: E402
from repro.cq.join_tree import best_tree  # noqa: E402
from repro.streams.sequences import Update, UpdateSequence  # noqa: E402

SEEDS = range(1, 11)

CALIBRATED_REPLAY = (
    f"stream length / median seconds of a replay through a fresh engine, at a "
    f"reference machine speed: the timed calls are summed in blocks of about "
    f"{BLOCK_S} s, and each block is scaled by {CALIBRATION_REF_S} s / the time of "
    f"a fixed calibration loop run right after it. The median wall-clock pass rate "
    f"is printed as updates_per_s_wall and the median calibration time as "
    f"calibration_ms."
)

CALIBRATED_CALL = (
    f"each call is scaled by {CALIBRATION_REF_S} s / the mean time of "
    f"{CALL_CALIBRATIONS} calibration loops run right before and "
    f"{CALL_CALIBRATIONS} right after it. The median wall-clock rate is printed as "
    f"updates_per_s_wall."
)

WORKLOADS = {
    "crown-4hop-window": {
        "why": "Output-heavy: CrownEngine on 4hop_full over a FIFO count-window of "
               "graph_stream, half inserts and half deletes, ~36 deltas per update; "
               "most replay time is witnesses, delta enumeration, live views and "
               "emission, little is maintenance.",
        "measured": "engine.output_share 0.90 at these sizes (seed 1, traced run, "
                    "4-vCPU Xeon VM): a replay with emit_deltas=False takes 0.29 s of "
                    "a 2.9 s replay.",
        "input": {"generator": "repro.bench.harness.graph_stream", **HOP4},
        "updates_per_s": CALIBRATED_REPLAY,
    },
    "crown-snb-q1-mixed": {
        "why": "Writes beside reads: CrownEngine on snb_q1 over snb_stream with a "
               "drained enumerate_full() every read_every updates; maintenance and "
               "per-update fixed cost are a large share of update time, CROWN trails "
               "the standard-CP proxy here, and a write-path gain that costs "
               "Algorithm 5 reads shows in updates_per_s.",
        "measured": "read_every is set from the read share of timed time, "
                    "read_s / (apply_s + read_s): 0.22 at a read every 2,500 updates, "
                    "0.38 at 1,000 and 0.46 at 700 (seed 1, 4-vCPU Xeon VM; a read "
                    "drains ~2.6K rows in ~25 ms). At 600 the reads take about half, "
                    "so doubling the read cost lowers updates_per_s by about a third, "
                    "more than its 0.25 bound. Each run prints read_share.",
        "input": {"generator": "repro.bench.harness.snb_stream", **SNB},
        "updates_per_s": CALIBRATED_REPLAY,
    },
    "partitioned-4hop-p4": {
        "why": "Sharded Spark: PartitionedCrown p=4 on the Fig. 10 hop4_proj "
               "insert/delete stream; exercises driver dispatch, shuffle, "
               "applyInPandas, per-shard engines and collection. Most call time is "
               "outside the shard engines; the slowest shard sets the rest.",
        "input": {"generator": "jobs/fig10_parallel.stream_pdf", **PARTITIONED},
        "updates_per_s": "median over the timed warm run_stream calls of events / "
                         "call seconds at the reference machine speed: " + CALIBRATED_CALL,
    },
    "sparkcrown-3hop-batches": {
        "why": "The only SparkCrown workload: hop3_full over a FIFO graph window, "
               "a cold preload batch then steady ~25-event micro-batches; batch time "
               "is roughly Spark jobs per batch x ms per job. The tuple engine does "
               "no timed work here (it is the reference).",
        "input": {"generator": "repro.bench.harness.graph_stream", **SPARKCROWN,
                  "timed_batches": "ceil(seconds / batch_s), at least 2, after the cold preload batch",
                  "batch_s": BATCH_S},
        "updates_per_s": "median over the timed warm batches of events / batch "
                         "seconds, not calibrated: the calibration loops run around "
                         "each batch widened the spread over ten seeds from 0.08 "
                         "to 0.27",
    },
}

# metric -> (layer, end-to-end metric it should move, workloads, in the JSON line)
LAYER_MAP = [
    ("cq.best_tree_ms", "repro.cq (best_tree)", "setup_s", "all", True),
    ("input.generate_s", "repro.synth_data, repro.streams, repro.bench.harness",
     "setup_s", "all (crown-snb-q1-mixed: ~1 s)", True),
    ("engine.apply_insert_p50_us", "repro.core.engine (CrownEngine.apply)",
     "updates_per_s (update_p50_us)", "crown-*", True),
    ("engine.apply_delete_p50_us", "repro.core.engine (CrownEngine.apply)",
     "updates_per_s (update_p50_us)", "crown-*", True),
    ("engine.maintain_s", "repro.core.engine (emit_deltas=False replay)",
     "updates_per_s", "crown-snb-q1-mixed; near zero on crown-4hop-window", True),
    ("engine.output_s", "repro.core.engine", "updates_per_s", "crown-4hop-window", True),
    ("engine.output_share", "repro.core.engine", "updates_per_s", "crown-4hop-window", True),
    ("engine.us_per_delta", "repro.core.engine", "updates_per_s",
     "crown-4hop-window (cost tracks output size)", True),
    ("engine.counter_changes_per_update", "repro.core.engine (stats)",
     "none: exact count, O(lambda_T); must not move under output-path changes", "all", True),
    ("engine.deltas_per_update", "repro.core.engine (stats)", "none: exact count, a check",
     "all", True),
    ("engine.emitting_update_frac", "repro.core.engine", "updates_per_s (update_p50_us)",
     "crown-snb-q1-mixed", True),
    ("engine.state_rows_max", "repro.core.engine (space())", "peak_rss_mb", "crown-*", True),
    ("engine.read_ns_per_row", "repro.core.engine (enumerate_full)", "updates_per_s",
     "crown-snb-q1-mixed (reads are in its timed loop; constant delay, Lemma 5.3)", True),
    ("spark.jobs_per_call", "repro.spark (job group + statusTracker)", "updates_per_s (batch_p50_s)",
     "partitioned-4hop-p4 (partitioned.jobs_per_call), sparkcrown-3hop-batches "
     "(sparkcrown.jobs_per_batch); 0 on tuple workloads", True),
    ("spark.stages_per_call", "repro.spark (job group + statusTracker)", "updates_per_s (batch_p50_s)",
     "partitioned-4hop-p4, sparkcrown-3hop-batches (sparkcrown.stages_per_batch); "
     "0 on tuple workloads", True),
    ("trace.overhead_frac", "benchmark tracing", "none", "all", True),
    ("cp_ref.update_us", "repro.core.baseline_cp (reference, not gated)", "none",
     "crown-snb-q1-mixed", False),
    ("partitioned.dispatch_s", "repro.spark.partitioned (dispatch_plan)", "updates_per_s (batch_p50_s)",
     "partitioned-4hop-p4", False),
    ("partitioned.replication", "repro.spark.partitioned", "updates_per_s (batch_p50_s)",
     "partitioned-4hop-p4", False),
    ("partitioned.shard_ms_max", "repro.spark.partitioned", "updates_per_s (batch_p50_s)",
     "partitioned-4hop-p4", False),
    ("partitioned.shard_ms_mean", "repro.spark.partitioned", "updates_per_s (batch_p50_s)",
     "partitioned-4hop-p4", False),
    ("partitioned.shard_skew", "repro.spark.partitioned", "updates_per_s (batch_p50_s)",
     "partitioned-4hop-p4 (the slowest shard sets the time)", False),
    ("partitioned.spark_overhead_s", "repro.spark.partitioned", "updates_per_s (batch_p50_s)",
     "partitioned-4hop-p4", False),
    ("sparkcrown.ms_per_job", "repro.spark.crown_spark, repro.spark.state",
     "updates_per_s (batch_p50_s)", "sparkcrown-3hop-batches", False),
    ("sparkcrown.process_s", "repro.spark.crown_spark (process_batch)", "updates_per_s (batch_p50_s)",
     "sparkcrown-3hop-batches", False),
    ("sparkcrown.collect_s", "repro.spark.crown_spark (materializing the returned frame)",
     "updates_per_s (batch_p50_s)", "sparkcrown-3hop-batches", False),
]


def _replay_deltas(cq, seq: UpdateSequence) -> int:
    return timed_pass(CrownEngine(cq, best_tree(cq)), seq, Tracer("manifest", False)).deltas


def expected_counts(seed: int) -> dict:
    out = {}
    seq = _hop4_input(HOP4, seed)
    out["crown-4hop-window"] = {"events": len(seq), "deltas": _replay_deltas(hop4_full().cq, seq)}
    seq = _snb_input(SNB, seed)
    out["crown-snb-q1-mixed"] = {"events": len(seq), "deltas": _replay_deltas(snb_q1().cq, seq)}
    pdf = fig10_stream(PARTITIONED["events"], PARTITIONED["dom"], seed)
    seq = UpdateSequence([Update("G", (int(r.v0), int(r.v1)), r.sign > 0)
                          for r in pdf.itertuples(index=False)])
    out["partitioned-4hop-p4"] = {"events": len(seq), "deltas": _replay_deltas(hop4_proj().cq, seq)}
    bq = hop3_full()
    seq = graph_stream(sf=SPARKCROWN["sf"], window=SPARKCROWN["window"], seed=seed)
    nets = _batch_nets(bq, best_tree(bq.cq),
                       _batches(seq, SPARKCROWN["preload"], SPARKCROWN["batch"]))
    out["sparkcrown-3hop-batches"] = {"events": len(seq), "deltas": net_size(nets)}
    return out


def main() -> None:
    counts = {seed: expected_counts(seed) for seed in SEEDS}
    cpu = ""
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    manifest = {
        "machine": {**machine(), "cpu": cpu, "platform": platform.platform(),
                    "spark_master": "local[4]", "shuffle_partitions": SHUFFLE_PARTITIONS},
        "closed_loop": "one caller; the next update, read or batch is sent when the "
                       "previous call has returned; no extra client threads",
        "workloads": {
            name: {**w, "expected": {str(s): counts[s][name] for s in SEEDS}}
            for name, w in WORKLOADS.items()
        },
        "layer_map": [
            {"metric": m, "layer": layer, "moves": moves, "workloads": wl, "in_json": j}
            for m, layer, moves, wl, j in LAYER_MAP
        ],
    }
    with open(ROOT / "perfbench" / "MANIFEST.json", "w") as f:
        json.dump(manifest, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
