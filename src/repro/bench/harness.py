"""Timing harness and workload builders for the §8 experiments.

Builds FIFO window streams from the synthetic graph / SNB-lite tables
(the paper's constructions: count-window ``[t_e, t_e+w]`` for edges,
time-window ``t- = t+ + w days`` for SNB), builds each tuple engine the
figures compare (``make_engine``) and runs it over them, recording
wall-clock and per-update latency.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

import pandas as pd

from repro.bench.queries import BenchQuery
from repro.core.baseline_cp import FirstOrderHIVMEngine, StandardCPEngine
from repro.core.engine import CrownEngine
from repro.cq.ghd import dumbbell_ghd
from repro.streams.sequences import (
    UpdateSequence,
    fifo_window_sequence,
    insertion_only_sequence,
    time_window_sequence,
)
from repro.synth_data import graph_edges_pdf, snb_tables_pdf

# SNB stream column orders must match the atom attribute orders in
# repro.bench.queries (positional mapping stream → atom).
SNB_STREAM_COLS = {
    "person": ["p_personid", "p_firstname", "p_lastname"],
    "knows": ["k_person1id", "k_person2id"],
    "tag": ["t_tagid", "t_name"],
    "message": ["m_messageid", "m_creatorid", "m_c_replyof"],
    "message_tag": ["mt_messageid", "mt_tagid"],
}
SNB_TS_COL = {"knows": "k_ts", "message": "m_ts", "message_tag": "mt_ts"}


def graph_stream(*, sf: float = 0.01, window: int | None = None, seed: int = 7) -> UpdateSequence:
    """FIFO count-window stream (or insertion-only when window=None)."""
    pdf = graph_edges_pdf(sf=sf, seed=seed)
    rows = [("G", (int(r.src), int(r.dst))) for r in pdf.itertuples(index=False)]
    if window is None:
        return insertion_only_sequence(rows)
    return fifo_window_sequence(rows, window)


def stream_pdf(n, dom, seed=3):
    """The Fig. 10 stream: ``n`` inserts and deletes of edges over
    ``dom`` vertices, as columns seq, stream, sign, v0, v1."""
    rng = random.Random(seed)
    rows, live, seq = [], set(), 0
    while len(rows) < n:
        if live and rng.random() < 0.35:
            t = rng.choice(sorted(live))
            live.discard(t)
            sign = -1
        else:
            t = (rng.randrange(dom), rng.randrange(dom))
            if t in live:
                continue
            live.add(t)
            sign = 1
        rows.append((seq, "G", sign, t[0], t[1]))
        seq += 1
    return pd.DataFrame(rows, columns=["seq", "stream", "sign", "v0", "v1"])


def compacted_batches(pdf: pd.DataFrame, n: int) -> list[pd.DataFrame]:
    """``pdf``'s events (a ``stream_pdf`` frame) in ``n`` contiguous
    batches, each holding one event per tuple, its last in the batch:
    applied in order with set semantics, they leave the stream's final
    tuples."""
    size = -(-len(pdf) // n)
    return [pdf.iloc[i:i + size].drop_duplicates(["stream", "v0", "v1"], keep="last")
            for i in range(0, len(pdf), size)]


def vertex_rows(pdf: pd.DataFrame) -> list[tuple[str, tuple]]:
    verts = sorted(set(pdf.src) | set(pdf.dst))
    return [("V", (int(v),)) for v in verts]


def snb_stream(*, sf: float = 0.01, window_days: float = 60.0, seed: int = 11) -> UpdateSequence:
    """Time-window FIFO stream over the dynamic SNB relations; static
    relations (person, tag) are insertion-only preloads at t=-inf."""
    tables = snb_tables_pdf(sf=sf, seed=seed)
    rows: list[tuple[str, tuple, float]] = []
    for stream in ("knows", "message", "message_tag"):
        cols = SNB_STREAM_COLS[stream]
        ts = SNB_TS_COL[stream]
        for r in tables[stream].itertuples(index=False):
            vals = []
            for c in cols:
                v = getattr(r, c)
                if isinstance(v, float) and pd.isna(v):
                    v = None
                elif isinstance(v, float) and c.endswith("id"):
                    v = int(v)
                vals.append(int(v) if isinstance(v, (int,)) else v)
            rows.append((stream, tuple(vals), float(getattr(r, ts))))
    seq = time_window_sequence(rows, window_days)
    static: list = []
    for stream in ("person", "tag"):
        for r in tables[stream].itertuples(index=False):
            vals = tuple(
                int(v) if isinstance(v, (int, float)) and not isinstance(v, str) else v
                for v in r
            )
            static.append((stream, vals))
    pre = insertion_only_sequence(static)
    return UpdateSequence(pre.updates + seq.updates)


# the tuple engines of Table 1 and Figs. 7/8/11/12, in the paper's order:
# CROWN, the Flink proxy (standard CP), the DBToaster proxy (first-order
# HIVM) and the Trill proxy (standard CP, whose output Table 1 lists as
# the delta stream only; it runs the same engine as the Flink proxy)
ENGINES = ("crown", "flink_cp", "dbtoaster_hivm", "trill_delta")

# Table 1: each engine's row, the features of the system it stands for
TABLE1 = {
    "crown": {"system": "CROWN", "distributed": True, "full_enumeration": True,
              "delta_enumeration": True, "updates": "arbitrary", "internal": "this paper"},
    "flink_cp": {"system": "Flink", "distributed": True, "full_enumeration": True,
                 "delta_enumeration": False, "updates": "FIFO",
                 "internal": "standard change propagation"},
    "dbtoaster_hivm": {"system": "DBToaster", "distributed": False, "full_enumeration": True,
                       "delta_enumeration": False, "updates": "arbitrary", "internal": "HIVM"},
    "trill_delta": {"system": "Trill", "distributed": False, "full_enumeration": False,
                    "delta_enumeration": True, "updates": "arbitrary",
                    "internal": "standard change propagation"},
}


def make_engine(name: str, bq: BenchQuery, max_view_rows: int | None = None):
    """A fresh tuple engine ``name`` (one of ``ENGINES``) for ``bq``.

    CROWN runs a cyclic query on its GHD (Fig. 5). ``max_view_rows``
    caps a baseline's materialized views (the OOM guard); CROWN's state
    is linear and needs no cap.
    """
    if name == "crown":
        if bq.cyclic:
            return dumbbell_ghd(bq.cq, post_filter=bq.post_filter)
        return CrownEngine(bq.cq, post_filter=bq.post_filter)
    if name == "dbtoaster_hivm":
        return FirstOrderHIVMEngine(bq.cq, post_filter=bq.post_filter, max_view_rows=max_view_rows)
    if name in ("flink_cp", "trill_delta"):
        return StandardCPEngine(bq.cq, post_filter=bq.post_filter, max_view_rows=max_view_rows)
    raise KeyError(name)


@dataclass
class RunResult:
    updates: int = 0
    deltas: int = 0
    seconds: float = 0.0
    avg_latency_ms: float = 0.0
    p99_latency_ms: float = 0.0
    failed: str = ""
    latencies: list = field(default_factory=list, repr=False)

    @property
    def avg_update_us(self) -> float:
        return 1e6 * self.seconds / max(1, self.updates)

    def cell(self, per_update: bool = False) -> str:
        """The run's job-table cell: ``FAIL(<reason>)`` for an aborted
        run (the paper's missing bars), else total seconds, or µs per
        update with ``per_update``."""
        if self.failed:
            return f"FAIL({self.failed.split(':')[0]})"
        return f"{self.avg_update_us:.1f}us" if per_update else f"{self.seconds:.2f}s"


def run_engine(
    engine,
    seq: UpdateSequence,
    time_limit_s: float | None = None,
    record_latency: bool = False,
    consumer=None,
) -> RunResult:
    """Replay ``seq`` through ``engine.apply``; optional delta consumer."""
    res = RunResult()
    lat: list[float] = []
    t0 = time.perf_counter()
    try:
        for u in seq:
            s = time.perf_counter() if record_latency else 0.0
            deltas = engine.apply(u)
            if record_latency:
                lat.append((time.perf_counter() - s) * 1000)
            if consumer is not None:
                consumer.feed(deltas)
            res.updates += 1
            res.deltas += len(deltas)
            if time_limit_s is not None and time.perf_counter() - t0 > time_limit_s:
                res.failed = "time_limit"
                break
    except MemoryError as e:
        res.failed = f"oom_guard: {e}"
    res.seconds = time.perf_counter() - t0
    if lat:
        lat_sorted = sorted(lat)
        res.avg_latency_ms = sum(lat) / len(lat)
        res.p99_latency_ms = lat_sorted[int(0.99 * (len(lat_sorted) - 1))]
        res.latencies = lat
    return res


def print_table(title: str, rows: list[dict], cols: list[str]) -> None:
    """Fixed-width table for job output and EXPERIMENTS.md."""
    widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) for c in cols}
    lines = [title, " | ".join(c.ljust(widths[c]) for c in cols)]
    lines.append("-+-".join("-" * widths[c] for c in cols))
    for r in rows:
        lines.append(" | ".join(str(r.get(c, "")).ljust(widths[c]) for c in cols))
    print("\n".join(lines), flush=True)
