"""Baseline engines (standard CP ≈ Flink/Trill, first-order HIVM ≈
DBToaster): correctness vs brute force, Table 1 capabilities, and the
space blowup CROWN avoids."""
import pytest

import random

from repro.bench.harness import ENGINES, TABLE1, graph_stream
from repro.bench.queries import GRAPH_QUERIES, hop3_proj, star
from repro.core.baseline_cp import FirstOrderHIVMEngine, StandardCPEngine
from repro.core.batch import BatchCrown
from repro.core.engine import CrownEngine
from repro.cq.query import CQ, Relation, Selection
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


# R(A, B) ⋈ S(B, C) ⋈ T(C, D) with T's selection D % 2 = 0; the tuples
# that ``admits`` rejects: a NULL join attribute, or a failed selection
R_S_T = CQ((Relation("R", ("A", "B")), Relation("S", ("B", "C")), Relation("T", ("C", "D"))),
           ("A", "B", "C"), name="r_s_t", where=(("T", Selection("D", "%", 2)),))
REJECTED = [("R", (1, None)), ("S", (None, 2)), ("S", (1, None)), ("T", (None, 2)),
            ("T", (1, 3)), ("T", (1, None))]


def admission_stream(seed=0, steps=120):
    """Random updates of tuples that R_S_T admits (A may be NULL, a plain
    value), with each rejected tuple inserted, deleted and re-inserted."""
    rng = random.Random(seed)
    values = {"R": ([None, 0, 1, 2], [0, 1, 2]), "S": ([0, 1, 2], [0, 1, 2]),
              "T": ([0, 1, 2], [0, 2, 4])}
    live, out = set(), []
    for _ in range(steps):
        s = rng.choice(sorted(values))
        t = tuple(rng.choice(v) for v in values[s])
        out.append(Update(s, t, (s, t) not in live))
        live ^= {(s, t)}
    q = steps // 4
    rejected = [[Update(s, t, ins) for s, t in REJECTED] for ins in (True, False, True)]
    return (out[:q] + rejected[0] + out[q:2 * q] + rejected[1] + out[2 * q:3 * q]
            + rejected[2] + out[3 * q:])


def _stored(bc):
    return {tag: rows for tag, rows in bc.store.rows.items() if rows}


def _process(bc, u):
    return bc.process_batch({u.stream: [(1 if u.is_insert else -1, *u.tuple)]})


# each engine with its update call and its state: ``space()``, or the
# batch core's stored rows (one batch per update)
EVERY_ENGINE = pytest.mark.parametrize("make,apply,state", [
    (CrownEngine, CrownEngine.apply, CrownEngine.space),
    (StandardCPEngine, StandardCPEngine.apply, StandardCPEngine.space),
    (FirstOrderHIVMEngine, FirstOrderHIVMEngine.apply, FirstOrderHIVMEngine.space),
    (BatchCrown, _process, _stored),
], ids=["crown", "standard_cp", "hivm", "batch_crown"])


@EVERY_ENGINE
def test_rejected_tuples_change_nothing(make, apply, state):
    """Every engine admits atom tuples through ``cq.admits``: on a stream
    holding rejected tuples it gives the deltas and the state that it
    gives on the same stream without them, update by update."""
    full, clean = make(R_S_T), make(R_S_T)
    deltas = 0
    for u in admission_stream():
        got = apply(full, u)
        if (u.stream, u.tuple) in REJECTED:
            assert not got
        else:
            assert got == apply(clean, u)
            deltas += len(got)
        assert state(full) == state(clean)
    assert deltas > 0


@EVERY_ENGINE
def test_wrong_arity_tuples_fail_loudly(make, apply, state):
    """A tuple longer or shorter than its atom raises ``ValueError``
    naming the atom, and is not stored: on R(A, B) ⋈ S(B, C), y = (B,),
    S (2,) would otherwise join R (1, 2), and R (1, 2, 9) be stored."""
    cq = CQ((Relation("R", ("A", "B")), Relation("S", ("B", "C"))), ("B",), name="r_s_b")
    eng = make(cq)
    apply(eng, Update("R", (1, 2), True))
    before = state(eng)
    for u in (Update("S", (2,), True), Update("R", (1, 2, 9), True), Update("R", (1,), False)):
        with pytest.raises(ValueError, match=rf"atom {u.stream}\("):
            apply(eng, u)
        assert state(eng) == before
    assert apply(eng, Update("S", (2, 3), True))  # the right arity still joins


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
    """The feature matrix of Table 1 (``harness.TABLE1``), asserted
    programmatically."""

    def test_crown_row(self):
        row = TABLE1["crown"]
        assert row["full_enumeration"] and row["delta_enumeration"]
        assert row["updates"] == "arbitrary" and row["distributed"]

    def test_flink_row(self):
        row = TABLE1["flink_cp"]
        assert row["full_enumeration"] and not row["delta_enumeration"]
        assert row["internal"] == "standard change propagation"

    def test_trill_row(self):
        row = TABLE1["trill_delta"]
        assert row["delta_enumeration"] and not row["full_enumeration"]
        assert not row["distributed"]

    def test_dbtoaster_row(self):
        row = TABLE1["dbtoaster_hivm"]
        assert row["internal"] == "HIVM" and row["updates"] == "arbitrary"

    def test_only_crown_supports_both_enumeration_modes(self):
        rows = [TABLE1[name] for name in ENGINES]
        assert [r["system"] for r in rows] == ["CROWN", "Flink", "DBToaster", "Trill"]
        assert [r["full_enumeration"] for r in rows] == [True, True, True, False]
        assert [r["delta_enumeration"] for r in rows] == [True, False, False, True]
