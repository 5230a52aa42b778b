"""Fig. 7 — total processing time of each query on each engine
(centralized, FIFO window streams).

Engines: CROWN, Flink proxy (standard CP, full view), DBToaster proxy
(first-order HIVM), Trill proxy (standard CP, delta only). A row shows
total seconds; `FAIL(...)` marks a time-limit/OOM-guard abort (the
paper's missing bars).
"""
import _common as common

from repro.bench.harness import (
    ENGINES, graph_stream, make_engine, print_table, run_engine, snb_stream, vertex_rows,
)
from repro.bench.queries import GRAPH_QUERIES, SNB_QUERIES, dumbbell_full, dumbbell_proj
from repro.core.aggregates import DistinctCountAggregator
from repro.streams.sequences import Update
from repro.synth_data import graph_edges_pdf


def main() -> None:
    parser = common.std_parser(__doc__)
    parser.add_argument("--queries", default="", help="comma list to run")
    args = parser.parse_args()
    sf = 0.004 if args.quick else 0.01
    window = 400 if args.quick else 1500
    snb_sf = 0.01 if args.quick else 0.02
    max_rows = 5_000_000
    queries = dict(GRAPH_QUERIES)
    queries["dumbbell_full"] = dumbbell_full
    queries["dumbbell_proj"] = dumbbell_proj
    only = {q for q in args.queries.split(",") if q}
    if only:
        queries = {k: v for k, v in queries.items() if k in only}
    rows = []
    for qname, factory in queries.items():
        bq = factory()
        if bq.cyclic:
            # the dumbbell's full-join output explodes on the dense
            # graph; the paper's runs use smaller effective windows
            seq = graph_stream(sf=sf / 2, window=window // 2)
        else:
            seq = graph_stream(sf=sf, window=window)
        row = {"query": qname, "updates": len(seq)}
        for ename in ENGINES:
            # on a cyclic query the baselines run the flat 7-way plan;
            # cap them tighter
            eng = make_engine(ename, bq, 2_000_000 if bq.cyclic else max_rows)
            if qname == "2comb":
                # unary endpoint relations preloaded (all vertices)
                for _, (v,) in vertex_rows(graph_edges_pdf(sf=sf)):
                    eng.apply(Update("V1", (v,), True))
                    eng.apply(Update("V2", (v,), True))
            res = run_engine(eng, seq, time_limit_s=args.time_limit)
            row[ename] = res.cell()
        rows.append(row)
    for qname, factory in ({} if only else SNB_QUERIES).items():
        bq = factory()
        seq = snb_stream(sf=snb_sf, window_days=90)
        row = {"query": qname, "updates": len(seq)}
        for ename in ENGINES:
            eng = make_engine(ename, bq, max_rows)
            # Q4's COUNT(DISTINCT), folded from each engine's own deltas
            consumer = (
                DistinctCountAggregator(bq.cq, ("tname", "t"), "m") if qname == "snb_q4" else None
            )
            res = run_engine(eng, seq, time_limit_s=args.time_limit, consumer=consumer)
            row[ename] = res.cell()
        rows.append(row)
    print_table(
        f"Fig. 7: total processing time (graph sf={sf}, w={window}; snb sf={snb_sf})",
        rows,
        ["query", "updates", *ENGINES],
    )


if __name__ == "__main__":
    main()
