"""Fig. 12 — runtime vs selectivity of the last-hop filter (3-Hop and
4-Hop join-project)."""
import _common as common

from repro.bench.harness import graph_stream, make_engine, print_table, run_engine
from repro.bench.queries import hop3_full, hop4_proj, keep_pct

ENGINES = ["crown", "flink_cp", "dbtoaster_hivm"]


def main() -> None:
    args = common.std_parser(__doc__).parse_args()
    sf = 0.004 if args.quick else 0.01
    window = 500 if args.quick else 1500
    pcts = [1, 10, 100] if args.quick else [1, 5, 20, 100]
    seq = graph_stream(sf=sf, window=window)
    for base in (hop3_full(), hop4_proj()):
        qname = base.cq.name
        rows = []
        for pct in pcts:
            bq = keep_pct(base, pct)
            row = {"keep_pct": pct}
            for name in ENGINES:
                res = run_engine(make_engine(name, bq), seq, time_limit_s=args.time_limit)
                row[name] = res.cell()
                if name == "crown":
                    row["deltas"] = res.deltas
            rows.append(row)
        print_table(
            f"Fig. 12: {qname} runtime vs filter selectivity (sf={sf}, w={window})",
            rows,
            ["keep_pct", "deltas", *ENGINES],
        )


if __name__ == "__main__":
    main()
