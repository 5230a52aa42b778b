"""Fig. 9 — maintenance cost vs enclosureness λ (output disabled)."""
import _common as common

from repro.bench.harness import print_table
from repro.bench.queries import r2_under_r1, thm67
from repro.core.enclosure import enclosureness, nested_sequence
from repro.core.engine import CrownEngine
import time


def main() -> None:
    args = common.std_parser(__doc__).parse_args()
    lambdas = [1, 4, 16] if args.quick else [1, 2, 4, 8, 16, 32, 64]
    cq = thm67()
    tree = r2_under_r1(cq)
    rows = []
    for lam in lambdas:
        seq = nested_sequence("R1", "R2", lam, scale=8)
        measured = enclosureness(seq)
        eng = CrownEngine(cq, tree, emit_deltas=False)
        t0 = time.perf_counter()
        eng.run(seq)
        secs = time.perf_counter() - t0
        rows.append(
            {
                "lambda": lam,
                "measured_lambda": round(measured, 2),
                "updates": eng.stats["updates"],
                "counter_changes_per_update": round(
                    eng.stats["counter_changes"] / max(1, eng.stats["updates"]), 2
                ),
                "us_per_update": round(1e6 * secs / max(1, eng.stats["updates"]), 2),
            }
        )
    print_table(
        "Fig. 9: CROWN maintenance cost vs enclosureness (Thm 6.7 query)",
        rows,
        [
            "lambda",
            "measured_lambda",
            "updates",
            "counter_changes_per_update",
            "us_per_update",
        ],
    )


if __name__ == "__main__":
    main()
