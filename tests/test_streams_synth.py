"""Update-sequence substrate and synthetic data generators."""
import numpy as np
import pytest

from repro.bench.harness import compacted_batches, stream_pdf
from repro.streams.sequences import (
    Update,
    fifo_window_sequence,
    from_lifespans,
    insertion_only_sequence,
    time_window_sequence,
)
from repro.synth_data import graph_edges_pdf, snb_tables_pdf


class TestSequences:
    def test_fifo_window_event_counts(self):
        rows = [("G", (i, i + 1)) for i in range(10)]
        seq = fifo_window_sequence(rows, w=3)
        ins = sum(1 for u in seq if u.is_insert)
        dels = sum(1 for u in seq if not u.is_insert)
        assert ins == 10 and dels == 10

    def test_window_order_interleaves(self):
        rows = [("G", (i, i)) for i in range(5)]
        seq = fifo_window_sequence(rows, w=2)
        # tuple 0 must be deleted right after tuple 2 is inserted
        kinds = [(u.tuple[0], u.is_insert) for u in seq]
        assert kinds.index((0, False)) > kinds.index((2, True))

    def test_insertion_only(self):
        seq = insertion_only_sequence([("G", (1, 2)), ("G", (3, 4))])
        assert seq.is_insertion_only and len(seq) == 2

    def test_time_window(self):
        seq = time_window_sequence([("S", (1,), 0.0), ("S", (2,), 5.0)], w=2.0)
        assert [u.is_insert for u in seq] == [True, False, True, False]

    def test_lifespan_reinsertion_distinct(self):
        seq = from_lifespans(
            [("R", (1,), 0.0, 1.0), ("R", (1,), 2.0, 3.0)]
        )
        spans = seq.lifespans()
        assert len(spans) == 2

    def test_update_sign(self):
        assert Update("R", (1,), True).sign == 1
        assert Update("R", (1,), False).sign == -1

    def test_infinite_endpoints_suppress_events(self):
        seq = from_lifespans([("R", (1,), float("-inf"), 4.0)])
        assert len(seq) == 1 and not seq.updates[0].is_insert


class TestFig10Batches:
    @pytest.mark.parametrize("n,dom,prefix", [(1500, 80, 300), (6000, 200, 1000)],
                             ids=["quick", "full"])
    def test_replay_gives_the_stream_end(self, n, dom, prefix):
        """The Fig. 10 baselines' batches: one event per tuple each, and
        replayed in order they leave the edges the stream leaves."""
        events = stream_pdf(n, dom).head(prefix)
        want, got = set(), set()
        for sign, a, b in events[["sign", "v0", "v1"]].itertuples(index=False):
            (want.add if sign > 0 else want.discard)((a, b))
        for batch in compacted_batches(events, 4):
            edges = list(zip(batch.v0, batch.v1))
            assert len(set(edges)) == len(edges)
            for sign, e in zip(batch.sign, edges):
                (got.add if sign > 0 else got.discard)(e)
        assert got == want


class TestGraphGenerator:
    def test_deterministic(self):
        a = graph_edges_pdf(sf=0.005, seed=3)
        b = graph_edges_pdf(sf=0.005, seed=3)
        assert a.equals(b)

    def test_no_self_loops_or_duplicates(self):
        g = graph_edges_pdf(sf=0.005)
        assert (g.src != g.dst).all()
        assert not g.duplicated().any()

    def test_degree_skew(self):
        g = graph_edges_pdf(sf=0.01)
        deg = g.src.value_counts()
        # power-law endpoints: the top node dominates the median
        assert deg.iloc[0] > 10 * max(1, int(deg.median()))

    def test_scale_factor_controls_size(self):
        small = graph_edges_pdf(sf=0.002)
        big = graph_edges_pdf(sf=0.01)
        assert len(big) > 2 * len(small)


class TestSNBGenerator:
    def test_schema(self):
        t = snb_tables_pdf(sf=0.01)
        assert set(t) == {"person", "knows", "tag", "message", "message_tag"}
        assert list(t["message"].columns) == [
            "m_messageid",
            "m_creatorid",
            "m_c_replyof",
            "m_ts",
        ]

    def test_fk_ranges(self):
        t = snb_tables_pdf(sf=0.01)
        assert t["knows"].k_person1id.max() <= len(t["person"])
        assert t["message_tag"].mt_tagid.max() <= len(t["tag"])

    def test_replyof_nulls(self):
        t = snb_tables_pdf(sf=0.02)
        frac = t["message"].m_c_replyof.isna().mean()
        assert 0.5 < frac < 0.9

    def test_timestamps_sorted(self):
        t = snb_tables_pdf(sf=0.01)
        ts = t["message"].m_ts.to_numpy()
        assert (np.diff(ts) >= 0).all()

    def test_deterministic(self):
        a = snb_tables_pdf(sf=0.01, seed=5)["knows"]
        b = snb_tables_pdf(sf=0.01, seed=5)["knows"]
        assert a.equals(b)
