"""CrownEngine fundamentals: views, invariants, worked examples (§4)."""
import pytest

from repro.core.engine import CrownEngine
from repro.core.naive import evaluate, witnessed
from repro.cq.join_tree import best_tree, free_connex_trees
from repro.cq.query import CQ, Relation, Selection
from repro.streams.sequences import Update
from tests._util import random_updates, selected_db


def two_hop(output=("A", "B", "C")):
    return CQ(
        (Relation("R", ("A", "B")), Relation("S", ("B", "C"))),
        output=output,
        name="two_hop",
    )


class TestBasics:
    def test_single_insert_no_match(self):
        eng = CrownEngine(two_hop())
        assert eng.apply(Update("R", (1, 2), True)) == []
        assert eng.full_result_set() == set()

    def test_join_produces_delta(self):
        eng = CrownEngine(two_hop())
        eng.apply(Update("R", (1, 2), True))
        deltas = eng.apply(Update("S", (2, 3), True))
        assert deltas == [(1, (1, 2, 3))]
        assert eng.full_result_set() == {(1, 2, 3)}

    def test_delete_produces_negative_delta(self):
        eng = CrownEngine(two_hop())
        eng.apply(Update("R", (1, 2), True))
        eng.apply(Update("S", (2, 3), True))
        deltas = eng.apply(Update("R", (1, 2), False))
        assert deltas == [(-1, (1, 2, 3))]
        assert eng.full_result_set() == set()

    def test_reinsert_is_noop(self):
        eng = CrownEngine(two_hop())
        eng.apply(Update("R", (1, 2), True))
        assert eng.apply(Update("R", (1, 2), True)) == []

    def test_delete_absent_is_noop(self):
        eng = CrownEngine(two_hop())
        assert eng.apply(Update("R", (9, 9), False)) == []

    def test_projection_dedup_single_delta(self):
        # two supports for the same projected tuple → one +delta, and a
        # -delta only when the last support dies
        cq = two_hop(output=("B",))
        eng = CrownEngine(cq)
        eng.apply(Update("R", (1, 2), True))
        assert eng.apply(Update("S", (2, 3), True)) == [(1, (2,))]
        assert eng.apply(Update("S", (2, 4), True)) == []
        assert eng.apply(Update("S", (2, 3), False)) == []
        assert eng.apply(Update("S", (2, 4), False)) == [(-1, (2,))]

    def test_self_join_copies_both_updated(self):
        cq = CQ(
            (
                Relation("G1", ("A", "B"), stream="G"),
                Relation("G2", ("B", "C"), stream="G"),
            ),
            output=("A", "B", "C"),
        )
        eng = CrownEngine(cq)
        # single edge (1,1) is a self-loop path A=1,B=1,C=1
        deltas = eng.apply(Update("G", (1, 1), True))
        assert deltas == [(1, (1, 1, 1))]

    def test_selection_discards_update(self):
        cq = CQ(
            (Relation("R", ("A", "B")), Relation("S", ("B", "C"))),
            output=("A", "B", "C"),
            where=(("S", Selection("C", "%", 2)),),
        )
        eng = CrownEngine(cq)
        eng.apply(Update("R", (1, 2), True))
        assert eng.apply(Update("S", (2, 3), True)) == []  # filtered out
        assert eng.apply(Update("S", (2, 4), True)) == [(1, (1, 2, 4))]

    def test_post_filter_on_emission(self):
        cq = two_hop()
        eng = CrownEngine(cq, post_filter=lambda r: r["A"] != r["C"])
        eng.apply(Update("R", (1, 2), True))
        assert eng.apply(Update("S", (2, 1), True)) == []  # A == C filtered
        assert eng.apply(Update("S", (2, 5), True)) == [(1, (1, 2, 5))]

    def test_bulk_load(self):
        eng = CrownEngine(two_hop())
        eng.bulk_load({"R": [(1, 2), (5, 2)], "S": [(2, 3)]})
        assert eng.full_result_set() == {(1, 2, 3), (5, 2, 3)}
        # deltas continue correctly after a bulk load
        deltas = eng.apply(Update("S", (2, 9), True))
        assert set(deltas) == {(1, (1, 2, 9)), (1, (5, 2, 9))}

    def test_invalid_tree_rejected(self):
        cq = two_hop()
        other = CQ(
            (Relation("R", ("A", "B")), Relation("S", ("B", "C"))),
            output=("A",),
            name="proj_a",
        )
        tree = best_tree(other)  # tree for a different output set
        with pytest.raises(ValueError):
            CrownEngine(cq, tree)


class TestLemma51:
    """V_s(R_e) = π_e(join of the subtree at e) — Lemma 5.1."""

    @pytest.mark.parametrize("seed", range(4))
    def test_vs_views_match_subtree_joins(self, seed):
        from repro.bench.queries import hop4_proj

        bq = hop4_proj()
        cq = bq.cq
        tree = best_tree(cq)
        eng = CrownEngine(cq, tree)
        dbs = {"G": set()}
        for s, t, ins in random_updates({"G": 2}, 250, dom=5, seed=seed):
            (dbs[s].add if ins else dbs[s].discard)(t)
            eng.apply(Update(s, t, ins))
        # check every node's V_s against a brute-force subtree join
        db = selected_db(cq, dbs)
        for name in tree.postorder():
            node = tree.node(name)
            sub_rels = [
                tree.node(n).relation
                for n in tree.subtree(name)
                if tree.node(n).relation
            ]
            sub_cq = CQ(
                tuple(cq.relation(r) for r in sub_rels),
                output=node.attrs,
                name="sub",
            )
            expect = evaluate(sub_cq, db)
            st = eng.nodes[name]
            # V_s: grouped by key below the root; at the root, which
            # keeps no V_p, the tuples whose counter is full
            got = ({t for t, c in st.tuples.items() if c == st.n_children} if st.is_root
                   else {t for s in st.vs_by_key.values() for t in s})
            assert got == expect, name


class TestSpace:
    def test_linear_space_lemma41(self):
        # space grows linearly in |D| (Lemma 4.1): inserting N edges
        # into 4-hop keeps state ≤ c·N even though |Q| is polynomial
        from repro.bench.queries import hop4_proj

        cq = hop4_proj().cq
        eng = CrownEngine(cq, emit_deltas=False)
        n = 0
        for s, t, ins in random_updates({"G": 2}, 400, dom=12, seed=1, insert_bias=1.0):
            if ins:
                eng.apply(Update(s, t, ins))
                n += 1
        # 4 atoms × (tuples + child indexes + vs + vp + yproj + live…)
        assert eng.space() <= 40 * n

    def test_space_shrinks_on_delete(self):
        eng = CrownEngine(two_hop())
        eng.apply(Update("R", (1, 2), True))
        eng.apply(Update("S", (2, 3), True))
        s1 = eng.space()
        eng.apply(Update("R", (1, 2), False))
        eng.apply(Update("S", (2, 3), False))
        assert eng.space() < s1

    @pytest.mark.parametrize("name", ["4hop_full", "snb_q1"])
    def test_one_grouping_per_layout(self, name):
        """Each index is stored once: the counted children of one key
        layout share one ``child_index`` grouping and the children of
        one key∩y layout one V_l grouping; the root keeps no V_p; and
        ``space()`` equals a recount from the views' definitions, in
        which each grouping holds its node's tuples (or V_l) once."""
        from repro.bench.harness import graph_stream, snb_stream
        from repro.bench.queries import hop4_full, snb_q1

        bq, seq = ((hop4_full(), graph_stream(sf=0.001, window=60, seed=1))
                   if name == "4hop_full" else (snb_q1(), snb_stream(sf=0.01, seed=1)))
        eng = CrownEngine(bq.cq, best_tree(bq.cq))
        shared = 0
        for n in eng.nodes.values():
            counted = [c for c in n.children if c not in n.def_children]
            assert set(n.child_index) == {eng.tree.key(c) for c in counted}, n.name
            shared += len(counted) - len(n.child_index)
            if n.live_maintained:
                assert set(n.live_idx) == {eng.nodes[c].key_y_attrs for c in n.children}
                shared += len(n.children) - len(n.live_idx)
        assert shared > 0  # the best tree has children that share a layout

        out = bq.cq.output

        def recount() -> int:
            q = eng.full_result_set()
            total = 0
            for n in eng.nodes.values():
                vs = [t for t, c in n.tuples.items() if c == n.n_children]
                ky = [n.attrs.index(a) for a in (*eng.tree.key(n.name), *n.y_attrs)]
                total += len(n.tuples) * (1 + len(n.child_index))
                total += len(vs) * (not n.is_root) + len(n.vs_yproj)
                total += len({tuple(t[i] for i in ky) for t in vs}) * n.needs_kyproj
                live = {tuple(r[out.index(a)] for a in n.y_attrs) for r in q}
                total += len(live) * len(n.live_idx)
            return total

        peak = 0
        for i, u in enumerate(seq.updates):
            eng.apply(u)
            if i % 50 == 0 or i == len(seq) - 1:
                assert eng.nodes[eng.tree.root].vs_by_key == {}
                assert eng.space() == recount(), i
                peak = max(peak, eng.space())
        assert peak > 0


class TestWitnessQueries:
    def test_witnessed_helper(self):
        cq = two_hop()
        db = {"R": {(1, 2), (4, 2)}, "S": {(2, 3)}}
        assert witnessed(cq, db, "S", (2, 3)) == {(1, 2, 3), (4, 2, 3)}

    def test_delta_equals_witness_for_full_join(self):
        # §3.1: for a full join query ΔQ(D, t) = Q(D ⋉ t)
        cq = two_hop()
        eng = CrownEngine(cq)
        eng.apply(Update("R", (1, 2), True))
        eng.apply(Update("R", (4, 2), True))
        deltas = eng.apply(Update("S", (2, 3), True))
        db = {"R": {(1, 2), (4, 2)}, "S": {(2, 3)}}
        assert {t for _, t in deltas} == witnessed(cq, db, "S", (2, 3))
