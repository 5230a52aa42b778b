"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The seed makes the inputs; the program
sees only the generated inputs. ``--trace 0`` measures the end-to-end
metrics of BENCHMARK.json; ``--trace 1`` records a span around every
call into a layer and reports the per-layer metrics instead. The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. A human-readable
report, with every metric's unit and sample count and the workload's
correctness-gate result, precedes it. Summaries and traces are written
under ``perfbench/out/``.

Workloads, their reasons and the layer -> metric -> workload map are in
``perfbench/MANIFEST.json``.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.workloads import run_workload

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          startup_s=time.perf_counter() - T0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
