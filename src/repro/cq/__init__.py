"""Conjunctive-query substrate: queries, generalized join trees, GHDs."""
from repro.cq.query import CQ, Relation, Selection
from repro.cq.join_tree import (
    JoinTree,
    TreeNode,
    best_tree,
    free_connex_trees,
    is_acyclic,
    is_free_connex,
    is_q_hierarchical,
)

__all__ = [
    "CQ",
    "Relation",
    "Selection",
    "JoinTree",
    "TreeNode",
    "best_tree",
    "free_connex_trees",
    "is_acyclic",
    "is_free_connex",
    "is_q_hierarchical",
]
