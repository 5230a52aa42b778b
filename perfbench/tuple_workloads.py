"""CrownEngine workloads: the 4-hop FIFO count-window and SNB Q1 with reads.

One caller drives the engine in a closed loop: the next update (or read)
is sent when the previous call has returned. A *pass* replays the whole
generated stream through a fresh engine; a run makes whole passes until
its time is spent. Correctness checks run outside the timed calls.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from perfbench.core import (
    BLOCK_S, CALIBRATION_REF_S, NetDeltas, Report, Tracer, calibration, clock, median,
    peak_rss_mb, percentile,
)
from repro.bench.harness import graph_stream, snb_stream
from repro.bench.queries import BenchQuery, hop4_full, snb_q1
from repro.core.baseline_cp import StandardCPEngine
from repro.core.engine import CrownEngine
from repro.core.naive import evaluate
from repro.cq.join_tree import best_tree
from repro.streams.sequences import UpdateSequence

SETUP_REPEATS = 3

# Sizes keep one 4-hop pass at ~3 s on a 4-vCPU Xeon VM, so a run makes
# several passes and reports their median (the 4-hop stream at sf=0.01,
# w=1000 takes ~15 s per pass there). The 4-hop pass stays output-heavy:
# ~36 deltas per update, engine.output_share ~0.90 (seed 1).
HOP4 = {"sf": 0.006, "window": 400, "checkpoints": 3}
# SNB reads are sized from their measured cost: at a drained read every
# 600 updates (~2.6K rows, ~25 ms each) the reads take about half of the
# timed time (read_share 0.46 at 700, 0.38 at 1000, 0.22 at 2500; seed 1),
# so doubling the read cost or the write cost lowers updates_per_s by
# about a third, more than the metric's bound.
SNB = {"sf": 0.1, "read_every": 600, "checkpoints": 3}


def selected_db(bq: BenchQuery, live: dict[str, set]) -> dict[str, set]:
    """Per-atom database: each atom sees its stream, with its selections."""
    cq = bq.cq
    db = {}
    for r in cq.relations:
        preds = [p for rel, p in cq.selections if rel == r.name]
        db[r.name] = {t for t in live.get(r.stream, ()) if all(p(t) for p in preds)}
    return db


def expected_rows(bq: BenchQuery, live: dict[str, set]) -> set:
    """``Q(D)`` on the live database by brute force (repro.core.naive)."""
    rows = evaluate(bq.cq, selected_db(bq, live))
    if bq.post_filter is not None:
        rows = {t for t in rows if bq.post_filter(dict(zip(bq.cq.output, t)))}
    return rows


@dataclass
class Pass:
    """Timings, delta counts and checkpoint snapshots of one replay."""

    apply_s: float = 0.0
    read_s: float = 0.0
    deltas: int = 0
    lat: list[float] = field(default_factory=list)
    # seconds of the timed calls at the calibration's reference speed
    # (see perfbench.core.BLOCK_S), and the calibration times taken
    ref_s: float = 0.0
    calibrations: list[float] = field(default_factory=list)
    counts: list[int] = field(default_factory=list)
    reads: list[tuple[float, int]] = field(default_factory=list)
    bad_updates: int = 0
    bad_reads: int = 0
    # (rows read, live database, read seconds, engine.space()) per checkpoint
    checks: list[tuple[set, dict, float, int]] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    # per-pass summaries, set by ``summarize``
    p50: float = 0.0
    p99: float = 0.0
    ins_p50: float = 0.0
    del_p50: float = 0.0
    same_counts: bool = True

    def summarize(self, flags: list[bool], first: Pass | None) -> None:
        """Latency percentiles of this pass, all and split by
        ``Update.is_insert``. Given the run's ``first`` pass, the
        per-update lists are compared with its lists and dropped, so a
        run's memory does not grow with the number of passes."""
        self.p50, self.p99 = percentile(self.lat, 0.5), percentile(self.lat, 0.99)
        self.ins_p50 = percentile([v for v, f in zip(self.lat, flags) if f], 0.5)
        self.del_p50 = percentile([v for v, f in zip(self.lat, flags) if not f], 0.5)
        if first is not None:
            self.same_counts = self.counts == first.counts
            self.lat, self.counts = [], []


def timed_pass(engine, seq: UpdateSequence, tracer: Tracer, read_every: int = 0,
               checkpoints: int = 0, collect: list | None = None,
               first: Pass | None = None) -> Pass:
    """Replay ``seq`` through ``engine.apply``; every ``read_every``
    updates drain ``enumerate_full()``. Each call is timed until its
    result is returned (and, for reads, fully drained); each delta list
    and read is then checked against the running net of the deltas.

    With ``checkpoints``, the pass also snapshots, at that many evenly
    spaced points (the last is the end of the stream), the live database
    and an untimed full read, for ``verify_checkpoints``; ``collect``,
    when given, receives every delta. ``first`` is passed on to
    ``Pass.summarize``.
    """
    res = Pass()
    net = NetDeltas()
    traced = tracer.enabled
    n = len(seq)
    marks = {max(1, (k * n) // checkpoints) for k in range(1, checkpoints + 1)}
    live: dict[str, set] = {}
    block = 0.0
    for i, u in enumerate(seq.updates, 1):
        s = clock()
        d = engine.apply(u)
        e = clock()
        res.lat.append(e - s)
        block += e - s
        if traced:
            tracer.record("engine.apply", s, e)
        res.counts.append(len(d))
        if not net.feed(d):
            res.bad_updates += 1
        if read_every and i % read_every == 0:
            s = clock()
            rows = list(engine.enumerate_full())
            e = clock()
            if traced:
                tracer.record("engine.enumerate_full", s, e)
            res.reads.append((e - s, len(rows)))
            res.read_s += e - s
            block += e - s
            if set(rows) != net.live or len(rows) != len(net.live):
                res.bad_reads += 1
        if marks:
            if collect is not None:
                collect.extend(d)
            rel = live.setdefault(u.stream, set())
            (rel.add if u.is_insert else rel.discard)(u.tuple)
            if i in marks:
                s = clock()
                rows = list(engine.enumerate_full())
                read_s = clock() - s
                got = set(rows)
                if got != net.live or len(rows) != len(got):
                    res.bad_reads += 1
                res.checks.append(
                    (got, {k: set(v) for k, v in live.items()}, read_s, engine.space())
                )
        if block >= BLOCK_S or i == n:
            c = calibration()
            res.calibrations.append(c)
            res.ref_s += block * CALIBRATION_REF_S / c
            block = 0.0
    res.apply_s = sum(res.lat)
    res.deltas = sum(res.counts)
    res.stats = dict(engine.stats)
    res.summarize([u.is_insert for u in seq.updates], first)
    return res


def ref_time(passes: list[Pass]) -> float:
    """Median seconds of one replay at the calibration's reference speed."""
    return median([p.ref_s for p in passes])


def verify_checkpoints(bq: BenchQuery, p: Pass, report: Report, what: str) -> None:
    """The full gate, after the timed calls: at every checkpoint the full
    read (already compared with the net of the deltas) must equal the
    naive evaluator on the live database with the atom selections."""
    for k, (rows, live, _, _) in enumerate(p.checks):
        report.op(rows == expected_rows(bq, live),
                  f"{what} checkpoint {k}: enumerate_full differs from naive evaluation")


def engine_layers(report: Report, tracer: Tracer, bq: BenchQuery, tree,
                  seq: UpdateSequence, ref: Pass, timed: list[Pass], full_s: float) -> None:
    """The tuple engine's per-layer numbers on ``seq``: ``ref`` is the
    checkpointed pass (exact counts, state size), ``timed`` the passes
    whose insert and delete medians and reads give the per-layer call
    and per-row read costs, ``full_s`` the apply time of one replay."""
    with tracer.span("engine.maintain_replay"):
        m = CrownEngine(bq.cq, tree, post_filter=bq.post_filter, emit_deltas=False)
        s = clock()
        for u in seq.updates:
            m.apply(u)
        maintain_s = clock() - s
    n_ins = sum(u.is_insert for u in seq.updates)
    reads = [r for p in timed for r in p.reads] or [(c[2], len(c[0])) for c in ref.checks]
    n, st, layer = len(seq), ref.stats, report.layer
    layer["engine.apply_insert_p50_us"] = (
        1e6 * median([p.ins_p50 for p in timed]), "us", n_ins * len(timed))
    layer["engine.apply_delete_p50_us"] = (
        1e6 * median([p.del_p50 for p in timed]), "us", (n - n_ins) * len(timed))
    layer["engine.maintain_s"] = (maintain_s, "s", 1)
    layer["engine.output_s"] = (full_s - maintain_s, "s", 1)
    layer["engine.output_share"] = ((full_s - maintain_s) / full_s, "frac", 1)
    layer["engine.us_per_delta"] = (1e6 * full_s / max(1, ref.deltas), "us", ref.deltas)
    layer["engine.counter_changes_per_update"] = (
        st["counter_changes"] / st["updates"], "count", st["updates"])
    layer["engine.deltas_per_update"] = (st["deltas"] / st["updates"], "count", st["updates"])
    layer["engine.emitting_update_frac"] = (sum(c > 0 for c in ref.counts) / n, "frac", n)
    layer["engine.state_rows_max"] = (max(c[3] for c in ref.checks), "rows", len(ref.checks))
    layer["engine.read_ns_per_row"] = (
        1e9 * sum(r[0] for r in reads) / max(1, sum(r[1] for r in reads)), "ns", len(reads))


@dataclass
class Setup:
    """What a run builds before its first timed call."""

    tree: object
    inputs: object
    engine: object
    plan_s: float  # best_tree, cold, once
    generate_s: float  # median input generation
    repeat_s: float  # median of generation + engine construction


def setup(bq: BenchQuery, make_input, construct, tracer: Tracer) -> Setup:
    """Plan once (cold), then generate the input and build the engine
    with ``construct(tree)`` ``SETUP_REPEATS`` times."""
    with tracer.span("cq.best_tree"):
        s = clock()
        tree = best_tree(bq.cq)
        plan_s = clock() - s
    gen, total = [], []
    for _ in range(SETUP_REPEATS):
        with tracer.span("input.generate"):
            s = clock()
            inputs = make_input()
            gen.append(clock() - s)
        with tracer.span("engine.construct"):
            engine = construct(tree)
        total.append(clock() - s)
    return Setup(tree, inputs, engine, plan_s, median(gen), median(total))


def _passes(make_engine, seq, tracer, seconds, read_every, label, checkpoints=0,
            first=None):
    """Whole passes until ``seconds`` of wall time are spent (at least
    one). Without ``first``, the first of them takes the checkpoint
    snapshots and keeps its per-update lists; the others keep only their
    summaries."""
    out = []
    start = clock()
    with tracer.span(label):
        while not out or clock() - start < seconds:
            cp = 0 if out or first else checkpoints
            out.append(timed_pass(make_engine(), seq, tracer, read_every, cp,
                                  first=first or (out[0] if out else None)))
    return out


def run_crown(bq_factory, make_input, params: dict, seed: int,
              seconds: float, report: Report, tracer: Tracer, startup_s: float,
              expected: dict | None, with_cp_ref: bool) -> None:
    read_every = params.get("read_every", 0)
    bq = bq_factory()
    st = setup(bq, lambda: make_input(params, seed),
               lambda tree: CrownEngine(bq.cq, tree, post_filter=bq.post_filter), tracer)
    tree, seq = st.tree, st.inputs

    def make_engine(emit=True):
        return CrownEngine(bq.cq, tree, post_filter=bq.post_filter, emit_deltas=emit)

    quiet = Tracer(tracer.run_id, False)
    cps = params["checkpoints"]
    if report.trace:
        plain = _passes(make_engine, seq, quiet, seconds / 2, read_every, "replay", cps)
        traced = _passes(make_engine, seq, tracer, seconds / 2, read_every, "replay.traced",
                         first=plain[0])
    else:
        plain = _passes(make_engine, seq, quiet, seconds, read_every, "replay", cps)
        traced = []
    rss = peak_rss_mb()
    ref = plain[0]
    for p in plain + traced:
        report.ops(len(seq), p.bad_updates, "update deltas inconsistent with net")
        report.ops(len(p.reads) + len(p.checks), p.bad_reads, "read differs from net of deltas")
        report.op(p.same_counts, "per-update delta counts differ between passes")

    verify_checkpoints(bq, ref, report, "replay")
    if expected is not None:
        report.op(
            expected == {"events": len(seq), "deltas": ref.deltas},
            f"input drift: expected {expected}, got events={len(seq)} deltas={ref.deltas}",
        )

    # The rate is taken at the calibration's reference speed (see
    # perfbench.core.BLOCK_S): the median pass rate, printed as
    # updates_per_s_wall, moved by up to 48% between runs of one input.
    n = len(seq)
    read_lat = [r[0] for p in plain for r in p.reads]
    ups = [n / (p.apply_s + p.read_s) for p in plain]
    report.e2e["setup_s"] = (startup_s + st.plan_s + st.repeat_s, "s", SETUP_REPEATS)
    report.e2e["updates_per_s"] = (n / ref_time(plain), "1/s", len(plain))
    report.e2e["peak_rss_mb"] = (rss, "MB", 1)
    x = report.extra
    x["updates_per_s_wall"] = (median(ups), "1/s", len(plain))
    cal = [c for p in plain for c in p.calibrations]
    x["calibration_ms"] = (1e3 * median(cal), "ms", len(cal))
    x["update_p50_us"] = (1e6 * median([p.p50 for p in plain]), "us", n * len(plain))
    x["update_p99_us"] = (1e6 * median([p.p99 for p in plain]), "us", n * len(plain))
    x["deltas_per_s"] = (median([p.deltas / p.apply_s for p in plain]), "1/s", len(plain))
    reads = [r for p in plain for r in p.reads]
    if reads:
        x["read_p50_ms"] = (1e3 * percentile(read_lat, 0.5), "ms", len(reads))
        x["read_rows_p50"] = (percentile([r[1] for r in reads], 0.5), "rows", len(reads))
        x["read_share"] = (median([p.read_s / (p.apply_s + p.read_s) for p in plain]), "frac",
                           len(plain))
    if not report.trace:
        return

    # ---- per-layer numbers (traced run only)
    layer = report.layer
    engine_layers(report, tracer, bq, tree, seq, ref, traced,
                  median([p.apply_s for p in plain]))
    layer["cq.best_tree_ms"] = (1e3 * st.plan_s, "ms", 1)
    layer["input.generate_s"] = (st.generate_s, "s", SETUP_REPEATS)
    layer["spark.jobs_per_call"] = (0, "count", 0)
    layer["spark.stages_per_call"] = (0, "count", 0)
    layer["trace.overhead_frac"] = (1 - ref_time(plain) / ref_time(traced), "frac",
                                    len(traced))
    if with_cp_ref:
        with tracer.span("cp_ref.replay"):
            cp = StandardCPEngine(bq.cq, post_filter=bq.post_filter)
            s = clock()
            for u in seq.updates:
                cp.apply(u)
            x["cp_ref.update_us"] = (1e6 * (clock() - s) / n, "us", n)


def _hop4_input(params: dict, seed: int) -> UpdateSequence:
    return graph_stream(sf=params["sf"], window=params["window"], seed=seed)


def _snb_input(params: dict, seed: int) -> UpdateSequence:
    return snb_stream(sf=params["sf"], seed=seed)


def crown_4hop_window(seed, seconds, report, tracer, startup_s, expected, params=None):
    run_crown(hop4_full, _hop4_input, params or HOP4, seed,
              seconds, report, tracer, startup_s, expected, with_cp_ref=False)


def crown_snb_q1_mixed(seed, seconds, report, tracer, startup_s, expected, params=None):
    run_crown(snb_q1, _snb_input, params or SNB, seed,
              seconds, report, tracer, startup_s, expected, with_cp_ref=True)
