"""Fig. 8 — average per-update processing time vs SNB scale factor."""
import _common as common

from repro.bench.harness import make_engine, print_table, run_engine, snb_stream
from repro.bench.queries import snb_q1

ENGINES = ["crown", "flink_cp", "dbtoaster_hivm"]


def main() -> None:
    args = common.std_parser(__doc__).parse_args()
    sfs = [0.01, 0.02] if args.quick else [0.01, 0.02, 0.05, 0.1, 0.2]
    bq = snb_q1()
    rows = []
    for sf in sfs:
        seq = snb_stream(sf=sf, window_days=90)
        row = {"sf": sf, "updates": len(seq)}
        for name in ENGINES:
            res = run_engine(make_engine(name, bq), seq, time_limit_s=args.time_limit)
            row[name] = res.cell(per_update=True)
        rows.append(row)
    print_table(
        "Fig. 8: avg processing time per update vs scale factor (SNB Q1)",
        rows,
        ["sf", "updates", *ENGINES],
    )


if __name__ == "__main__":
    main()
