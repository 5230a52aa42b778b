"""Aggregation consumers (§7.3) and SNB Q4's COUNT(DISTINCT)."""
from repro.bench.queries import snb_q4_inner
from repro.core.aggregates import (
    DistinctConsumer,
    DistinctCountAggregator,
    RingAggregator,
)
from repro.core.engine import CrownEngine
from repro.cq.query import CQ, Relation
from repro.streams.sequences import Update
from tests._util import expected_result, random_updates
from tests.test_engine_deltas import snb_tuple_maker


def two_hop():
    return CQ(
        (Relation("R", ("A", "B")), Relation("S", ("B", "C"))),
        output=("A", "B", "C"),
        name="agg_base",
    )


class TestRingAggregator:
    def test_count_star_group_by(self):
        cq = two_hop()
        eng = CrownEngine(cq)
        agg = RingAggregator(cq, group=("B",), weight=lambda t: 1)
        dbs = {"R": set(), "S": set()}
        for s, t, ins in random_updates({"R": 2, "S": 2}, 300, dom=4, seed=0):
            (dbs[s].add if ins else dbs[s].discard)(t)
            agg.feed(eng.apply(Update(s, t, ins)))
            expect = {}
            for a, b, c in expected_result(cq, dbs):
                expect[(b,)] = expect.get((b,), 0) + 1
            assert agg.result() == expect

    def test_sum_of_output_expression(self):
        cq = two_hop()
        eng = CrownEngine(cq)
        # SUM(A*C) GROUP BY B — ring ⊗ over output attributes
        agg = RingAggregator(cq, group=("B",), weight=lambda t: t[0] * t[2])
        dbs = {"R": set(), "S": set()}
        for s, t, ins in random_updates({"R": 2, "S": 2}, 300, dom=4, seed=1):
            (dbs[s].add if ins else dbs[s].discard)(t)
            agg.feed(eng.apply(Update(s, t, ins)))
        expect = {}
        for a, b, c in expected_result(cq, dbs):
            expect[(b,)] = expect.get((b,), 0) + a * c
        expect = {k: v for k, v in expect.items()}
        got = agg.result()
        # groups with zero-sum but live support are kept; align on support
        assert {k: v for k, v in got.items()} == {
            k: v for k, v in expect.items()
        }

    def test_deletions_restore_zero(self):
        cq = two_hop()
        eng = CrownEngine(cq)
        agg = RingAggregator(cq, group=(), weight=lambda t: 1)
        eng_updates = [("R", (1, 2), True), ("S", (2, 3), True)]
        for s, t, ins in eng_updates:
            agg.feed(eng.apply(Update(s, t, ins)))
        assert agg.result() == {(): 1}
        for s, t, _ in reversed(eng_updates):
            agg.feed(eng.apply(Update(s, t, False)))
        assert agg.result() == {}


class TestDistinctCount:
    def test_snb_q4_count_distinct(self):
        bq = snb_q4_inner()
        cq = bq.cq
        eng = CrownEngine(cq)
        agg = DistinctCountAggregator(cq, group=("tname", "t"), distinct="m")
        dbs = {s: set() for s in {r.stream for r in cq.relations}}
        for s, t, ins in random_updates(
            {s: 0 for s in dbs}, 400, seed=2, tuple_maker=snb_tuple_maker
        ):
            (dbs[s].add if ins else dbs[s].discard)(t)
            agg.feed(eng.apply(Update(s, t, ins)))
        expect: dict = {}
        for tname, tid, m in expected_result(cq, dbs):
            expect.setdefault((tname, tid), set()).add(m)
        assert agg.result() == {k: len(v) for k, v in expect.items()}

    def test_count_distinct_tracks_deletions(self):
        bq = snb_q4_inner()
        eng = CrownEngine(bq.cq)
        agg = DistinctCountAggregator(bq.cq, group=("tname", "t"), distinct="m")
        ups = [
            ("knows", (10, 2), True),  # k_person1id=10 passes %10 filter
            ("message", (5, 2, None), True),
            ("message_tag", (5, 7), True),
            ("tag", (7, "tagX"), True),
        ]
        for s, t, ins in ups:
            agg.feed(eng.apply(Update(s, t, ins)))
        assert agg.result() == {("tagX", 7): 1}
        agg.feed(eng.apply(Update("message", (5, 2, None), False)))
        assert agg.result() == {}


class TestDistinctConsumerUnit:
    def test_projection_counts(self):
        cq = two_hop()
        dc = DistinctConsumer(cq, keep=("A",))
        out = dc.feed([(1, (1, 2, 3)), (1, (1, 2, 4))])
        assert out == [(1, (1,))]
        out = dc.feed([(-1, (1, 2, 3))])
        assert out == []
        out = dc.feed([(-1, (1, 2, 4))])
        assert out == [(-1, (1,))]
        assert dc.result() == set()


class TestAgainstDuckDB:
    def test_sum_aggregate_vs_duckdb_snb(self):
        """SNB-lite: SUM(m_ts) per tag over message ⋈ message_tag through
        CROWN + ring aggregation, cross-checked with DuckDB."""
        import duckdb

        from repro.synth_data import snb_tables_pdf

        t = snb_tables_pdf(sf=0.01, seed=5)
        msg, mt = t["message"], t["message_tag"]
        cq = CQ(
            (
                Relation("message", ("m", "ts")),
                Relation("message_tag", ("m", "t")),
            ),
            output=("m", "ts", "t"),
            name="snb_sum",
        )
        eng = CrownEngine(cq)
        agg = RingAggregator(cq, group=("t",), weight=lambda r: r[1])
        for r in msg.itertuples(index=False):
            agg.feed(eng.apply(Update("message", (int(r.m_messageid), float(r.m_ts)), True)))
        for r in mt.itertuples(index=False):
            agg.feed(
                eng.apply(Update("message_tag", (int(r.mt_messageid), int(r.mt_tagid)), True))
            )
        con = duckdb.connect()
        con.register("message", msg)
        con.register("message_tag", mt)
        # NOTE: the CQ is set-semantics over (m, ts, t), so the DuckDB
        # side aggregates over DISTINCT tuples identically
        expect = {
            (row[0],): row[1]
            for row in con.execute(
                """
                SELECT t, SUM(ts) FROM (
                  SELECT DISTINCT m_messageid AS m, m_ts AS ts, mt_tagid AS t
                  FROM message JOIN message_tag ON m_messageid = mt_messageid
                ) GROUP BY t
                """
            ).fetchall()
        }
        con.close()
        assert expect
        got = {k: round(v, 6) for k, v in agg.result().items()}
        assert got == {k: round(v, 6) for k, v in expect.items()}
