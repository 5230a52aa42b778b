"""Enclosureness of update sequences (§6: Defs. 6.1, 6.3, 6.4).

``enclosureness`` implements the original time-only measure λ of [37]
(Def. 6.1); ``tree_enclosureness`` the paper's join-tree-specific λ_T
(Def. 6.4) built on *effective lifespans* (Def. 6.3). λ_T(t) selects,
per descendant tuple, one of its two effective lifespans — an interval
scheduling problem with a 2-interval job choice; we use greedy-by-end
over one pool that holds both intervals of every descendant tuple,
taking at most one interval per tuple, which is exact on every
sequence class used in tests (FIFO, insertion-only, nested
constructions, OuMv) and a lower bound in general.

Also ships the constructions the paper uses: the OuMv hard sequence of
Theorem 6.2 and nested sequences with a dialled-in λ for the Fig. 9
sweep.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.cq.join_tree import JoinTree
from repro.cq.query import CQ
from repro.streams.sequences import Lifespan, UpdateSequence, from_lifespans

INF = float("inf")


def _max_disjoint_contained(
    intervals: list[tuple[float, float, int]], lo: float, hi: float
) -> int:
    """Greedy max #pairwise-disjoint intervals ⊆ [lo, hi].

    ``intervals`` are (start, end, job_id) sorted by end; at most one
    interval per job id is taken.
    """
    count, cur, used = 0, None, set()
    for s, e, j in intervals:
        if e > hi or j in used:
            continue
        if s >= lo and (cur is None or s > cur):
            count += 1
            cur = e
            used.add(j)
    return count


def enclosureness(seq: UpdateSequence) -> float:
    """λ of Def. 6.1 over the reconstructed lifespans of ``seq``."""
    spans = seq.lifespans()
    ordered = sorted(
        ((ls.start, ls.end, i) for i, ls in enumerate(spans)), key=lambda x: x[1]
    )
    total = 0.0
    for ls in spans:
        cands = [
            (s, e, j)
            for s, e, j in ordered
            if s > ls.start and e < ls.end  # strictly contained (⊊)
        ]
        total += _max_disjoint_contained(cands, ls.start, ls.end)
    return max(total / max(1, len(spans)), 1.0)


@dataclass
class _NodeSpans:
    desc_del: list[float]  # sorted deletion times in strict descendants
    desc_ins: list[float]  # sorted insertion times in strict descendants


def tree_enclosureness(seq: UpdateSequence, cq: CQ, tree: JoinTree) -> float:
    """λ_T of Def. 6.4 (greedy; see module docstring)."""
    spans = seq.lifespans()
    # lifespans per atom node (self-join streams fan out to every copy)
    by_node: dict[str, list[Lifespan]] = {}
    for ls in spans:
        for atom in cq.atoms_of_stream(ls.stream):
            by_node.setdefault(tree.relation_node(atom.name), []).append(ls)
    # effective lifespans per node: need, for each node e, the sorted
    # insertion/deletion times over strict descendants of e
    node_spans: dict[str, _NodeSpans] = {}
    for name in tree.nodes:
        desc = [d for d in tree.subtree(name) if d != name]
        dels: list[float] = []
        inss: list[float] = []
        for d in desc:
            for ls in by_node.get(d, ()):
                if ls.end != INF:
                    dels.append(ls.end)
                if ls.start != -INF:
                    inss.append(ls.start)
        node_spans[name] = _NodeSpans(sorted(dels), sorted(inss))

    def effective(name: str, ls: Lifespan) -> tuple[tuple[float, float], tuple[float, float]]:
        ns = node_spans[name]
        # Î: end moved to first descendant deletion after t+
        i = bisect.bisect_right(ns.desc_del, ls.start)
        hat_end = min(ls.end, ns.desc_del[i]) if i < len(ns.desc_del) else ls.end
        # Ǐ: start moved to last descendant insertion before t-
        j = bisect.bisect_left(ns.desc_ins, ls.end) - 1
        chk_start = max(ls.start, ns.desc_ins[j]) if j >= 0 else ls.start
        return (ls.start, hat_end), (chk_start, ls.end)

    # candidate effective intervals of every tuple, tagged by node+job
    eff: dict[str, list[tuple[float, float, int]]] = {}
    job = 0
    eff_all: list[tuple[str, float, float, int]] = []
    for name, lst in by_node.items():
        for ls in lst:
            hat, chk = effective(name, ls)
            eff_all.append((name, hat[0], hat[1], job))
            eff_all.append((name, chk[0], chk[1], job))
            job += 1

    # strict-descendant candidate pool per node
    desc_pool: dict[str, list[tuple[float, float, int]]] = {}
    for name in tree.nodes:
        desc = set(tree.subtree(name)) - {name}
        pool = [
            (s, e, j) for n2, s, e, j in eff_all if n2 in desc
        ]
        pool.sort(key=lambda x: (x[1], x[0]))
        desc_pool[name] = pool

    total, count = 0.0, 0
    for name, lst in by_node.items():
        pool = desc_pool[name]
        for ls in lst:
            total += _max_disjoint_contained(pool, ls.start, ls.end)
            count += 1
    return max(total / max(1, count), 1.0)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def oumv_sequence(n: int) -> UpdateSequence:
    """The FIFO hard sequence from the proof of Theorem 6.2.

    Encodes OuMv over the 5-atom path query
    ``R1(x1) ⋈ R2(x1,x2) ⋈ R3(x2,x3) ⋈ R4(x3,x4) ⋈ R5(x4)``:
    matrix entries live in R3 with lifespan [-k, k]; vector tuples get
    lifespan 2k each round. Matrix and vector entries are 1 with
    probability 1/2 (seed 0). Its enclosureness is Θ(n).
    """
    import numpy as np

    g = np.random.default_rng(0)
    k = n * n
    rows: list[tuple[str, tuple, float, float]] = []
    m = g.random((n, n)) < 0.5
    for i in range(n):
        for j in range(n):
            if m[i, j]:
                rows.append(("R3", (i, j), float(-k), float(k)))
    for i in range(n):
        rows.append(("R1", (i,), float(i - 2 * k), float(i)))
        rows.append(("R5", (i,), float(i - 2 * k), float(i)))
    for r in range(n):
        v = g.random(n) < 0.5
        u = g.random(n) < 0.5
        for j in range(n):
            if v[j]:
                rows.append(("R2", (r, j), float(r), float(r + 2 * k)))
            if u[j]:
                rows.append(("R4", (j, r), float(r), float(r + 2 * k)))
    return from_lifespans(rows)


def nested_sequence(
    parent_stream: str,
    child_stream: str,
    lam: int,
    scale: int = 2,
) -> UpdateSequence:
    """Sequence with enclosureness exactly ``lam`` (for scale=2).

    ``m = k = scale·lam`` long-lived parent tuples ``(p, 0)`` all span
    the horizon; one child tuple ``(0,)`` is inserted and deleted
    ``k`` times inside it (disjoint re-lifespans, §6.1). Every parent
    then has per-tuple enclosureness ``k`` and the sequence average is
    ``m·k/(m+k) = lam`` — §6.1's "many big but ephemeral changes"
    worst case, dialled. On the query π_{x1}(R1(x1,x2) ⋈ R2(x2)) each
    child event drives a P-UPDATE through all ``m`` parents, so the
    engine's update cost tracks λ (Theorem 6.6 / Fig. 9).
    """
    m = k = max(1, scale * lam)
    rows: list[tuple[str, tuple, float, float]] = []
    for p in range(m):
        rows.append((parent_stream, (p, 0), 0.0, float(2 * k + 1)))
    for i in range(k):
        rows.append((child_stream, (0,), 2 * i + 0.5, 2 * i + 1.5))
    return from_lifespans(rows)
