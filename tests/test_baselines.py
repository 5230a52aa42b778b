"""Baseline engines (standard CP ≈ Flink/Trill, first-order HIVM ≈
DBToaster): correctness vs brute force, Table 1 capabilities, and the
space blowup CROWN avoids."""
import pytest

from repro.bench.harness import ENGINES, graph_stream, make_engine
from repro.bench.queries import GRAPH_QUERIES, hop3_proj, star
from repro.core.baseline_cp import FirstOrderHIVMEngine, StandardCPEngine
from repro.core.engine import CrownEngine
from repro.streams.sequences import Update
from tests._util import fuzz_engine_vs_naive, random_updates
from tests.test_batch_crown import R_S

ARITY = {"2comb": {"G": 2, "V1": 1, "V2": 1}}


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("name", sorted(GRAPH_QUERIES))
def test_standard_cp_deltas(name, seed):
    bq = GRAPH_QUERIES[name]()
    fuzz_engine_vs_naive(
        lambda: StandardCPEngine(bq.cq, post_filter=bq.post_filter),
        bq.cq,
        ARITY.get(name, {"G": 2}),
        steps=250,
        dom=6,
        seed=seed,
        post_filter=bq.post_filter,
    )


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("name", ["3hop_full", "3hop_proj", "4hop_proj", "star"])
def test_hivm_deltas(name, seed):
    bq = GRAPH_QUERIES[name]()
    fuzz_engine_vs_naive(
        lambda: FirstOrderHIVMEngine(bq.cq, post_filter=bq.post_filter),
        bq.cq,
        {"G": 2},
        steps=200,
        dom=5,
        seed=seed,
        post_filter=bq.post_filter,
    )


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("engine_cls", [StandardCPEngine, FirstOrderHIVMEngine])
def test_null_join_attributes_match_nothing(engine_cls, seed):
    """As in SQL, ``CrownEngine`` and ``naive.evaluate``, a NULL join
    attribute matches nothing: R(1, NULL) and S(NULL, 2) give no result,
    and deleting a tuple that holds a NULL is a no-op or an exact delete."""
    eng = engine_cls(R_S)
    assert eng.apply(Update("R", (1, None), True)) == []
    assert eng.apply(Update("S", (None, 2), True)) == []
    fuzz_engine_vs_naive(
        lambda: engine_cls(R_S),
        R_S,
        {"R": 2, "S": 2},
        steps=300,
        seed=seed,
        tuple_maker=lambda rng, s: tuple(
            None if rng.random() < 0.3 else rng.randrange(3) for _ in range(2)
        ),
    )


@pytest.mark.parametrize("engine_cls", [StandardCPEngine, FirstOrderHIVMEngine])
@pytest.mark.parametrize("factory,want", [
    (hop3_proj, {StandardCPEngine: (809, 44027, 1992), FirstOrderHIVMEngine: (809, 296094, 24011)}),
    (star, {StandardCPEngine: (15224, 25858, 1473), FirstOrderHIVMEngine: (15224, 11134, 1195)}),
], ids=["3hop_proj", "star"])
def test_exact_work(factory, want, engine_cls):
    """Exact deltas, view rows touched and space on a fixed FIFO-window
    stream: a change to how the views are maintained must leave the
    work of both plans as it is."""
    bq = factory()
    eng = engine_cls(bq.cq, post_filter=bq.post_filter)
    eng.run(graph_stream(sf=0.002, window=150, seed=1).updates[:1000])
    deltas, touched, space = want[engine_cls]
    assert eng.stats == {"updates": 1000, "deltas": deltas, "view_rows_touched": touched}
    assert eng.space() == space


def test_cp_full_result_readable():
    bq = GRAPH_QUERIES["3hop_full"]()
    eng, dbs, cur = fuzz_engine_vs_naive(
        lambda: StandardCPEngine(bq.cq),
        bq.cq,
        {"G": 2},
        steps=150,
        dom=5,
        seed=9,
    )
    assert eng.full_result_set() == cur


def test_trill_proxy_rejects_full_enumeration():
    bq = GRAPH_QUERIES["3hop_full"]()
    eng = StandardCPEngine(bq.cq, delta_only=True)
    with pytest.raises(NotImplementedError):
        eng.full_result_set()


def test_hivm_full_result_readable():
    bq = GRAPH_QUERIES["3hop_proj"]()
    eng, dbs, cur = fuzz_engine_vs_naive(
        lambda: FirstOrderHIVMEngine(bq.cq),
        bq.cq,
        {"G": 2},
        steps=150,
        dom=5,
        seed=10,
    )
    assert eng.full_result_set() == cur


class TestSpaceBlowup:
    """The paper's core claim: CROWN's state stays linear while
    standard CP / HIVM materialize polynomially large views."""

    def _bipartite_edges(self, n):
        # star hub: n in-edges × n out-edges ⇒ |G1 ⋈ G2| = n²
        edges = [(i, 0) for i in range(1, n + 1)]
        edges += [(0, n + j) for j in range(1, n + 1)]
        return edges

    def test_cp_view_blowup_vs_crown(self):
        from repro.bench.queries import hop3_proj

        bq = hop3_proj()
        n = 60
        edges = self._bipartite_edges(n)
        crown = CrownEngine(bq.cq)
        cp = StandardCPEngine(bq.cq)
        for e in edges:
            crown.apply(Update("G", e, True))
            cp.apply(Update("G", e, True))
        # CP's first intermediate view alone holds n² rows while all of
        # CROWN's state stays linear in the edge count
        assert len(cp.views[1]) == n * n
        assert crown.space() < 40 * len(edges)
        assert cp.space() > 2 * crown.space()

    def test_cp_oom_guard_trips(self):
        from repro.bench.queries import hop3_proj

        bq = hop3_proj()
        cp = StandardCPEngine(bq.cq, max_view_rows=50)
        with pytest.raises(MemoryError):
            for e in self._bipartite_edges(20):
                cp.apply(Update("G", e, True))

    def test_hivm_oom_guard_trips(self):
        from repro.bench.queries import hop3_proj

        bq = hop3_proj()
        hv = FirstOrderHIVMEngine(bq.cq, max_view_rows=50)
        with pytest.raises(MemoryError):
            for e in self._bipartite_edges(20):
                hv.apply(Update("G", e, True))


class TestTable1:
    """The feature matrix of Table 1, asserted programmatically."""

    def test_crown_row(self):
        row = CrownEngine.capabilities()
        assert row["full_enumeration"] and row["delta_enumeration"]
        assert row["updates"] == "arbitrary" and row["distributed"]

    def test_flink_row(self):
        bq = GRAPH_QUERIES["3hop_full"]()
        row = StandardCPEngine(bq.cq).capabilities()
        assert row["full_enumeration"] and not row["delta_enumeration"]
        assert row["internal"] == "standard change propagation"

    def test_trill_row(self):
        bq = GRAPH_QUERIES["3hop_full"]()
        row = StandardCPEngine(bq.cq, delta_only=True).capabilities()
        assert row["delta_enumeration"] and not row["full_enumeration"]
        assert not row["distributed"]

    def test_dbtoaster_row(self):
        bq = GRAPH_QUERIES["3hop_full"]()
        row = FirstOrderHIVMEngine(bq.cq).capabilities()
        assert row["internal"] == "HIVM" and row["updates"] == "arbitrary"

    def test_only_crown_supports_both_enumeration_modes(self):
        bq = GRAPH_QUERIES["3hop_full"]()
        rows = [make_engine(name, bq).capabilities() for name in ENGINES]
        assert [r["system"] for r in rows] == ["CROWN", "Flink", "DBToaster", "Trill"]
        assert [r["full_enumeration"] for r in rows] == [True, True, True, False]
        assert [r["delta_enumeration"] for r in rows] == [True, False, False, True]
