"""Random free-connex conjunctive queries: ``CrownEngine`` against
``naive.evaluate`` on a few sampled trees of each, with deltas emitted
and without, every live view and counter checked after every update.

The benchmark queries have no live node under a live parent whose key
holds a non-output attribute; random queries of up to four atoms do,
and there the triggers' V_l upkeep reads a parent group that fixes the
child's value (Def. 3.2)."""
import random

from repro.core.engine import CrownEngine
from repro.cq.join_tree import free_connex_trees, is_free_connex
from repro.cq.query import CQ, Relation
from repro.streams.sequences import Update
from tests._util import check_counters, check_live, expected_result, random_updates


def random_cq(rng: random.Random, name: str) -> CQ:
    """A free-connex query of 2–4 atoms, each over 1–3 of five
    attributes, whose output keeps each attribute with probability 1/2
    (so it may be empty)."""
    while True:
        rels = tuple(Relation(f"R{i}", tuple(rng.sample("abcde", rng.randint(1, 3))))
                     for i in range(rng.randint(2, 4)))
        attrs = sorted({a for r in rels for a in r.attrs})
        cq = CQ(rels, tuple(a for a in attrs if rng.random() < 0.5), name)
        if is_free_connex(cq):
            return cq


def test_random_free_connex_queries():
    """60 random queries, two sampled trees each, 60 random updates over
    a domain of 3: the emitting engine's deltas equal naive's, the other
    engine emits none, and both pass ``check_live`` and
    ``check_counters`` after every update."""
    rng = random.Random(18)
    off_key = 0  # live nodes under a live parent with key(c) ⊄ y
    for q in range(60):
        cq = random_cq(rng, f"random {q}")
        arity = {r.name: len(r.attrs) for r in cq.relations}
        trees = free_connex_trees(cq)
        for k, tree in enumerate(rng.sample(trees, min(2, len(trees)))):
            on, off = CrownEngine(cq, tree), CrownEngine(cq, tree, emit_deltas=False)
            off_key += sum(not n.is_root and not set(tree.key(n.name)) <= cq.output_set
                           for n in on._live_nodes)
            dbs: dict[str, set] = {s: set() for s in arity}
            cur: set = set()
            for step, (s, t, ins) in enumerate(random_updates(arity, 60, dom=3, seed=q)):
                what = f"{cq.relations} -> {cq.output}, tree {k}, step {step}"
                (dbs[s].add if ins else dbs[s].discard)(t)
                got = on.apply(Update(s, t, ins))
                new = expected_result(cq, dbs)
                assert sorted(got) == sorted(
                    [(1, r) for r in new - cur] + [(-1, r) for r in cur - new]), what
                assert off.apply(Update(s, t, ins)) == [], what
                for eng in (on, off):
                    check_live(eng, new, what)
                    check_counters(eng, dbs, what)
                cur = new
    assert off_key > 0
