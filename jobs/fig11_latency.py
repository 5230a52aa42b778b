"""Fig. 11 — per-update delta latency: CROWN vs Trill proxy."""
import _common as common

from repro.bench.harness import graph_stream, make_engine, print_table, run_engine
from repro.bench.queries import hop3_full


def main() -> None:
    args = common.std_parser(__doc__).parse_args()
    sf = 0.004 if args.quick else 0.01
    window = 500 if args.quick else 1500
    bq = hop3_full()
    # sliding window (bounded state) and cash-register (insertion-only:
    # the baseline's views grow for the whole stream — the regime where
    # the paper's Trill latency keeps climbing)
    modes = (
        ("window", graph_stream(sf=sf, window=window)),
        ("cash-register", graph_stream(sf=sf, window=None)),
    )
    rows = []
    for mode, seq in modes:
        for name in ("crown", "trill_delta"):
            res = run_engine(
                make_engine(name, bq), seq, record_latency=True, time_limit_s=args.time_limit
            )
            lat = res.latencies
            q = len(lat) // 4
            first = sum(lat[:q]) / max(1, q)
            last = sum(lat[-q:]) / max(1, q)
            rows.append(
                {
                    "mode": mode,
                    "engine": name,
                    "avg_ms": round(res.avg_latency_ms, 4),
                    "p99_ms": round(res.p99_latency_ms, 4),
                    "q1_avg_ms": round(first, 4),
                    "q4_avg_ms": round(last, 4),
                    "trend": "growing" if last > 3 * first + 1e-3 else "stable",
                }
            )
    print_table(
        f"Fig. 11: delta-enumeration latency (3hop_full, sf={sf}, w={window})",
        rows,
        ["mode", "engine", "avg_ms", "p99_ms", "q1_avg_ms", "q4_avg_ms", "trend"],
    )


if __name__ == "__main__":
    main()
