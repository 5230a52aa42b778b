"""Join trees and query classification (§3.2, §4.1, §6.3)."""
import pytest

from repro.bench.queries import (
    GRAPH_QUERIES,
    SNB_QUERIES,
    comb2,
    dumbbell_full,
    hop3_full,
    hop3_proj,
    hop4_proj,
    snb_q2,
    star,
)
from repro.core.engine import CrownEngine
from repro.cq.join_tree import (
    JoinTree,
    TreeNode,
    best_tree,
    free_connex_trees,
    is_acyclic,
    is_free_connex,
    is_q_hierarchical,
)
from repro.cq.query import CQ, Relation

R1 = Relation("R1", ("x1", "x2"))
R2 = Relation("R2", ("x2", "x3"))


def q1(output):
    return CQ((R1, R2), output=tuple(output), name="Q1")


class TestClassification:
    def test_two_path_acyclic(self):
        assert is_acyclic(q1(("x1", "x2", "x3")))

    def test_triangle_cyclic(self):
        tri = CQ(
            (
                Relation("A", ("x", "y")),
                Relation("B", ("y", "z")),
                Relation("C", ("z", "x")),
            ),
            output=("x", "y", "z"),
        )
        assert not is_acyclic(tri)

    def test_dumbbell_cyclic(self):
        assert not is_acyclic(dumbbell_full().cq)

    def test_full_acyclic_is_free_connex(self):
        assert is_free_connex(q1(("x1", "x2", "x3")))

    def test_paper_q1_prime_x2_free_connex(self):
        # §3.2: π_{x2} R1 ⋈ R2 is free-connex
        assert is_free_connex(q1(("x2",)))

    def test_paper_q1_x1_free_connex(self):
        assert is_free_connex(q1(("x1",)))

    def test_paper_q1_x1x3_not_free_connex(self):
        # §3.2: output (x1, x3) makes it non-free-connex
        assert is_acyclic(q1(("x1", "x3")))
        assert not is_free_connex(q1(("x1", "x3")))

    def test_star_q_hierarchical(self):
        assert is_q_hierarchical(star().cq)

    def test_hop3_not_q_hierarchical(self):
        assert not is_q_hierarchical(hop3_full().cq)

    def test_q_hier_violation_output_condition(self):
        # x1 ∈ y, E_{x1} ⊊ E_{x2}, x2 ∉ y violates Def. 3.3(2)
        cq = CQ(
            (Relation("R", ("x1", "x2")), Relation("S", ("x2",))),
            output=("x1",),
        )
        assert not is_q_hierarchical(cq)

    @pytest.mark.parametrize("name,factory", sorted(GRAPH_QUERIES.items()))
    def test_graph_queries_classified(self, name, factory):
        cq = factory().cq
        if name.startswith("dumbbell"):
            assert not is_acyclic(cq)
        else:
            assert is_free_connex(cq)

    @pytest.mark.parametrize("name,factory", sorted(SNB_QUERIES.items()))
    def test_snb_queries_free_connex(self, name, factory):
        assert is_free_connex(factory().cq)


class TestTreeConstruction:
    def test_fig2_heights(self):
        # Fig. 2: π_{x2} has trees of height 2 (rooted at a relation)
        # and a generalized height-1 tree [x2]
        trees = free_connex_trees(q1(("x2",)))
        heights = {t.height for t in trees}
        assert 1 in heights and 2 in heights

    def test_fig2_output_x1_min_height_2(self):
        # §3.2: with output x1 there is no height-1 free-connex tree
        trees = free_connex_trees(q1(("x1",)))
        assert min(t.height for t in trees) == 2

    def test_fig1_4hop_height2(self):
        # §6: the Fig. 1 query has a height-2 generalized tree ([x3])
        t = best_tree(hop4_proj().cq)
        assert t.height == 2
        root = t.node(t.root)
        assert root.is_generalized and root.attrs == ("C",)

    def test_star_height1(self):
        assert best_tree(star().cq).height == 1

    def test_2comb_height3(self):
        # the Theorem-6.2 hard shape: best tree has height 3
        assert best_tree(comb2().cq).height == 3

    def test_snb_q2_height2(self):
        # §8.1: SNB Q2 has a height-2 generalized tree (via the
        # mid-tree proxy [c,m] above message)
        assert best_tree(snb_q2().cq).height == 2

    def test_hop3_full_height2(self):
        assert best_tree(hop3_full().cq).height == 2

    @pytest.mark.parametrize(
        "factory",
        [hop3_full, hop4_proj, star, comb2, snb_q2],
        ids=lambda f: f.__name__,
    )
    def test_all_trees_valid_and_free_connex(self, factory):
        cq = factory().cq
        for t in free_connex_trees(cq):
            assert t.errors() == []
            assert t.is_free_connex_tree()
            # canonicalization: root contained in output attrs
            assert t.node(t.root).attr_set <= cq.output_set

    def test_not_free_connex_raises(self):
        with pytest.raises(ValueError):
            free_connex_trees(q1(("x1", "x3")))

    def test_cyclic_raises(self):
        with pytest.raises(ValueError):
            free_connex_trees(dumbbell_full().cq)

    def test_key_connectivity(self):
        t = best_tree(hop4_proj().cq)
        for name in t.nodes:
            if name != t.root:
                key = t.key(name)
                assert set(key) <= t.node(t.parent(name).name).attr_set

    def test_postorder_root_last(self):
        t = best_tree(hop3_full().cq)
        assert t.postorder()[-1] == t.root

    def test_subtree_and_path(self):
        t = best_tree(hop4_proj().cq)
        leaf = next(n for n in t.nodes if not t.node(n).children)
        path = t.path_to_root(leaf)
        assert path[0] == leaf and path[-1] == t.root
        assert leaf in t.subtree(path[1])


class TestPlanOptimization:
    def test_best_tree_weights_shift_depth(self):
        # §6.3: the pick minimizes Σ d(e)·N(e). hop3_full's three atoms
        # read one stream, so every N(e) is the same and the pick is the
        # tree of least total depth
        cq = hop3_full().cq
        t = best_tree(cq)
        cost_any = sum(
            t.depth_relations(t.relation_node(r.name)) for r in cq.relations
        )
        assert cost_any <= 4  # height-2 tree: depths sum to ≤ 4

    def test_best_tree_deterministic(self):
        t1 = best_tree(hop4_proj().cq)
        t2 = best_tree(hop4_proj().cq)
        assert t1.signature() == t2.signature()

    def test_heuristic_prefers_low_height(self):
        assert best_tree(star().cq).height == 1


def test_engines_reject_bad_trees_when_built(spark):
    """A tree that is not free-connex for the query, or that belongs to
    another query, fails in each engine's constructor; ``best_tree``
    rejects a cyclic query."""
    from repro.spark.crown_spark import SparkCrown
    from repro.spark.partitioned import PartitionedCrown

    cq = hop3_proj().cq  # y = (B, C): a root of (A, B) is not ⊆ y
    chain = JoinTree(cq, {
        "G1": TreeNode("G1", ("A", "B"), "G1", None, ("G2",)),
        "G2": TreeNode("G2", ("B", "C"), "G2", "G1", ("G3",)),
        "G3": TreeNode("G3", ("C", "D"), "G3", "G2"),
    }, "G1")
    assert chain.is_valid() and not chain.is_free_connex_tree()
    other = best_tree(hop3_full().cq)
    for tree in (chain, other):
        for build in (
            lambda: CrownEngine(cq, tree),
            lambda: SparkCrown(spark, cq, tree),
            lambda: PartitionedCrown(spark, cq, p=2, tree=tree),
        ):
            with pytest.raises(ValueError):
                build()
    tri = CQ(
        (Relation("A", ("x", "y")), Relation("B", ("y", "z")), Relation("C", ("z", "x"))),
        output=("x", "y", "z"),
    )
    with pytest.raises(ValueError):
        best_tree(tri)
