"""Update-cost behaviour (§6): counter changes track enclosureness.

Theorem 6.6 says the amortized update cost under a tree T is O(λ_T).
We measure the engine's own counter-change instrumentation (the paper's
cost accounting — Lemma C.1) on sequences with dialled λ.
"""
import pytest

from repro.bench.harness import graph_stream, make_engine
from repro.bench.queries import hop3_full, hop4_full, r2_under_r1, star, thm67
from repro.core.enclosure import nested_sequence, tree_enclosureness
from repro.core.engine import CrownEngine
from repro.cq.join_tree import best_tree, free_connex_trees
from repro.streams.sequences import fifo_window_sequence


def counters_per_update(cq, tree, seq):
    eng = CrownEngine(cq, tree, emit_deltas=False)
    eng.run(seq)
    return eng.stats["counter_changes"] / max(1, eng.stats["updates"])


class TestLambdaScaling:
    def test_cost_scales_with_lambda(self):
        cq = thm67()
        tree = r2_under_r1(cq)
        costs = []
        for lam in (1, 2, 4, 8, 16):
            seq = nested_sequence("R1", "R2", lam)
            costs.append(counters_per_update(cq, tree, seq))
        # per-update counter changes grow ~linearly in λ (Theorem 6.6)
        assert costs[-1] > 4 * costs[0]
        assert all(b >= a * 0.9 for a, b in zip(costs, costs[1:]))

    def test_cost_constant_for_fifo_height2(self):
        # Lemma 6.9: FIFO + height-2 tree ⇒ λ_T = 1 ⇒ O(1)/update
        bq = hop3_full()
        tree = best_tree(bq.cq)
        rows, seen = [], set()
        for i in range(400):
            t = (i % 23, (i * 7 + 3) % 23)
            if t not in seen:
                seen.add(t)
                rows.append(("G", t))
        small = fifo_window_sequence(rows[:100], 30)
        large = fifo_window_sequence(rows, 30)
        c_small = counters_per_update(bq.cq, tree, small)
        c_large = counters_per_update(bq.cq, tree, large)
        # amortized cost does not grow with the stream length
        assert c_large < 2 * c_small + 5

    def test_cost_constant_insertion_only(self):
        # Lemma 6.10 / Theorem 6.11: insertion-only ⇒ O(1) amortized
        from repro.streams.sequences import insertion_only_sequence

        bq = hop3_full()
        rows = [("G", ((i * 5) % 29, (i * 11 + 1) % 29)) for i in range(300)]
        rows = list(dict.fromkeys(rows))
        seq = insertion_only_sequence(rows)
        cost = counters_per_update(bq.cq, best_tree(bq.cq), seq)
        assert cost < 25  # small constant, independent of n

    def test_qhierarchical_constant_arbitrary_updates(self):
        # Berkholz et al. recovery: q-hierarchical queries cost O(1)
        # per update even on adversarial (nested) sequences
        from repro.streams.sequences import from_lifespans

        bq = star()
        tree = best_tree(bq.cq)
        assert tree.height == 1
        k = 16
        rows = [("G", (p, 0), 0.0, float(2 * k + 1)) for p in range(k)]
        rows += [("G", (0, 9), 2 * i + 0.5, 2 * i + 1.5) for i in range(k)]
        seq = from_lifespans(rows)
        cost = counters_per_update(bq.cq, tree, seq)
        assert cost < 20


class TestPlanChoiceMatters:
    def test_example_612_flavour(self):
        """Example 6.5/6.12: on the same sequence the height-1 tree is
        O(1)/update while the bad rooted tree pays Θ(λ)."""
        cq = thm67().with_output(("x2",))
        t_flat = next(t for t in free_connex_trees(cq) if t.height == 1)
        t_deep = r2_under_r1(cq)  # height 2: R1 is capped with [x2]
        assert t_deep.height == 2
        seq = nested_sequence("R1", "R2", 12)
        c_flat = counters_per_update(cq, t_flat, seq)
        c_deep = counters_per_update(cq, t_deep, seq)
        assert c_deep > 3 * c_flat
        # and λ_T predicts it
        assert tree_enclosureness(seq, cq, t_flat) == 1.0
        assert tree_enclosureness(seq, cq, t_deep) > 4


def test_hop4_window_exact_stats():
    """Exact counter work (the O(λ_T) maintenance cost), witnesses (S-chain
    partials that survive, Def. 5.6), no-op updates and delta count on a
    fixed 4-hop FIFO stream: a change to how results are produced must
    leave them as they are."""
    bq = hop4_full()
    eng = CrownEngine(bq.cq, post_filter=bq.post_filter)
    eng.run(graph_stream(sf=0.002, window=150, seed=1))
    assert eng.stats == {"counter_changes": 7982, "updates": 2000, "deltas": 14104,
                         "witnesses": 3025, "noop_updates": 0}


def per_update_by_quarter(eng, seq, stat):
    """``eng.stats[stat]`` per update in each quarter of ``seq``."""
    q = len(seq) // 4
    out, before = [], 0
    for i, u in enumerate(seq, 1):
        eng.apply(u)
        if i % q == 0:
            out.append((eng.stats[stat] - before) / q)
            before = eng.stats[stat]
    return out


def test_fig11_shape_on_insertion_only_stream():
    """Fig. 11's shape in work, not time: on an insertion-only stream
    CROWN's counter changes per update stay flat, while the Trill
    proxy's view rows touched per update keep growing with its
    materialized join views."""
    bq = hop3_full()
    seq = graph_stream(sf=0.004, window=None)
    assert len(seq) == 2000
    crown = per_update_by_quarter(make_engine("crown", bq), seq, "counter_changes")
    trill = per_update_by_quarter(make_engine("trill_delta", bq), seq, "view_rows_touched")
    assert crown[-1] <= 1.25 * crown[0]
    assert trill[-1] >= 3 * trill[0]
