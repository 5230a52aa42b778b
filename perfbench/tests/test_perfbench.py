"""The benchmark's own tests: every workload at a tiny scale passes its
correctness gate, a corrupted delta is caught, and the benchmark refuses
to run without the program's source.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import tuple_workloads  # noqa: E402
from perfbench.core import CALIBRATION_REF_S, Tracer  # noqa: E402
from perfbench.spark_workloads import BATCH_S  # noqa: E402
from perfbench.workloads import load_json, run_workload  # noqa: E402
from repro.bench.harness import graph_stream  # noqa: E402
from repro.bench.queries import hop4_full  # noqa: E402
from repro.core.engine import CrownEngine  # noqa: E402
from repro.cq.join_tree import best_tree  # noqa: E402

TINY = {
    "crown-4hop-window": {"sf": 0.001, "window": 60, "checkpoints": 3},
    "crown-snb-q1-mixed": {"sf": 0.01, "read_every": 150, "checkpoints": 3},
    "partitioned-4hop-p4": {"events": 150, "dom": 12, "p": 4, "checkpoints": 3},
    "sparkcrown-3hop-batches": {"sf": 0.0004, "window": 30, "preload": 30, "batch": 10,
                                "checkpoints": 3},
}
SPEC = load_json("BENCHMARK.json")


def _names(kind):
    return {m["name"] for m in SPEC[kind]}


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_passes_its_gate(name, trace):
    res = run_workload(name, seed=1, seconds=0.01, trace=trace, params=TINY[name])
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] > 0
    assert set(res["metrics"]) == _names("per_layer" if trace else "end_to_end")


def test_corrupted_delta_is_counted(monkeypatch):
    """Flip the sign of one emitted delta: the gate must count it."""
    real_apply = CrownEngine.apply
    state = {"emitting": 0}

    def corrupt(self, u):
        out = real_apply(self, u)
        if out:
            state["emitting"] += 1
            if state["emitting"] == 5:
                sign, t = out[0]
                out[0] = (-sign, t)
        return out

    monkeypatch.setattr(CrownEngine, "apply", corrupt)
    res = run_workload("crown-4hop-window", seed=1, seconds=0.01, trace=False,
                       params=TINY["crown-4hop-window"])
    assert not res["correct"]
    assert res["failed"] / res["attempted"] > 0


def test_calibration_scales_block_times(monkeypatch):
    """On a machine where the calibration loop takes twice its reference
    time, a replay counts half its wall-clock time."""
    monkeypatch.setattr(tuple_workloads, "calibration", lambda: 2 * CALIBRATION_REF_S)
    bq = hop4_full()
    seq = graph_stream(sf=0.001, window=60, seed=1)
    p = tuple_workloads.timed_pass(CrownEngine(bq.cq, best_tree(bq.cq)), seq,
                                   Tracer("t", False), read_every=50)
    assert p.reads and len(p.calibrations) >= 1
    assert p.ref_s == pytest.approx((p.apply_s + p.read_s) / 2)


def test_sparkcrown_times_a_fixed_number_of_batches():
    """The stream has 4 batches (cold + 3): a run timing 3 warm batches
    uses all of them; a run asking for one batch more is refused with a
    clear error instead of running past the end of the stream."""
    params = {**TINY["sparkcrown-3hop-batches"], "batch": 124}
    res = run_workload("sparkcrown-3hop-batches", seed=1, seconds=3 * BATCH_S, trace=False,
                       params=params)
    assert res["correct"] and res["failed"] == 0
    with pytest.raises(RuntimeError, match="has only 4 batches"):
        run_workload("sparkcrown-3hop-batches", seed=1, seconds=4 * BATCH_S, trace=False,
                     params=params)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    p = subprocess.run(
        cmd + ["--workload", "crown-4hop-window", "--seed", "1", "--seconds", "1",
               "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
