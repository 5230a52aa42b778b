"""Workload registry: name -> function, plus the shared run wrapper."""
from __future__ import annotations

import json

from perfbench.core import OUT, ROOT, Report, Tracer
from perfbench.spark_workloads import partitioned_4hop_p4, sparkcrown_3hop_batches
from perfbench.tuple_workloads import crown_4hop_window, crown_snb_q1_mixed

WORKLOADS = {
    "crown-4hop-window": crown_4hop_window,
    "crown-snb-q1-mixed": crown_snb_q1_mixed,
    "partitioned-4hop-p4": partitioned_4hop_p4,
    "sparkcrown-3hop-batches": sparkcrown_3hop_batches,
}


def load_json(name: str) -> dict:
    with open(ROOT / name) as f:
        return json.load(f)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 startup_s: float = 0.0, params: dict | None = None) -> dict:
    """Run one workload; return the result object of the last output line.

    ``params`` overrides the workload's input sizes (the benchmark's own
    tests run every workload at a tiny scale); the per-seed expected
    counts of the manifest are checked only at the default sizes.
    """
    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    spec = load_json("BENCHMARK.json")
    manifest = load_json("perfbench/MANIFEST.json")
    expected = None
    if params is None:
        expected = manifest["workloads"][name]["expected"].get(str(seed))
    report = Report(name, seed, trace)
    tracer = Tracer(f"{name}-seed{seed}", trace)
    WORKLOADS[name](seed, seconds, report, tracer, startup_s, expected, params)
    if trace:
        for span, secs in sorted(tracer.self_times().items()):
            report.extra[f"self_s.{span}"] = (secs, "s", sum(s[0] == span for s in tracer.spans))
        tracer.dump(OUT / f"trace-{name}-seed{seed}.json")
    return report.emit(spec)
