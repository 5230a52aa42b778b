"""HyperCube-partitioned CROWN: shard-union == single-engine stream."""
import json
import random
from collections import Counter

import pandas as pd
import pytest

from repro.bench.queries import hop3_full, hop4_proj
from repro.core.engine import CrownEngine
from repro.cq.join_tree import JoinTree, TreeNode, best_tree
from repro.cq.query import CQ, Relation
from repro.spark.partitioned import PartitionedCrown, dispatch_plan
from repro.streams.sequences import Update
from tests._util import jobs_of


def make_stream(n=250, dom=10, seed=7):
    rng = random.Random(seed)
    rows, live, seq = [], set(), 0
    for _ in range(n):
        if live and rng.random() < 0.3:
            t = rng.choice(sorted(live))
            live.discard(t)
            sign = -1
        else:
            t = (rng.randrange(dom), rng.randrange(dom))
            if t in live:
                continue
            live.add(t)
            sign = 1
        rows.append((seq, "G", sign, t[0], t[1]))
        seq += 1
    return pd.DataFrame(rows, columns=["seq", "stream", "sign", "v0", "v1"])


def expected_deltas(cq, updates, tree=None):
    eng = CrownEngine(cq, tree or best_tree(cq))
    exp = Counter()
    for r in updates.itertuples(index=False):
        for s, d in eng.apply(Update(r.stream, (r.v0, r.v1), r.sign > 0)):
            exp[(s, d)] += 1
    return exp


def payload_counter(res):
    got = Counter()
    for payload in res.payload:
        for s, v in json.loads(payload):
            got[(s, tuple(v))] += 1
    return got


@pytest.mark.parametrize(
    "p, dom",
    # dom=2: only 2 distinct root values, so at most 2 of 8 shards emit
    [pytest.param(1, 10, id="1"), pytest.param(4, 10, id="4"),
     pytest.param(8, 2, id="8-two-root-values")],
)
def test_partitioned_matches_single(spark, p, dom):
    bq = hop4_proj()
    updates = make_stream(dom=dom)
    exp = expected_deltas(bq.cq, updates)
    pc = PartitionedCrown(spark, bq.cq, p=p, tree=best_tree(bq.cq))
    res = pc.run_stream(updates, collect_deltas=True)
    assert payload_counter(res) == exp
    assert len(res) <= p
    bare = pc.run_stream(updates)
    assert (bare.payload == "").all()
    assert bare.pid.tolist() == res.pid.tolist()
    assert bare.updates.tolist() == res.updates.tolist()
    assert bare.deltas.tolist() == res.deltas.tolist()


def test_run_stream_is_one_job_one_stage(spark):
    bq = hop4_proj()
    pc = PartitionedCrown(spark, bq.cq, p=4, tree=best_tree(bq.cq))
    updates = make_stream(n=40)
    pc.run_stream(updates)  # the first call starts the workers
    res, jobs, stages, _ = jobs_of(spark, lambda: pc.run_stream(updates))
    assert (jobs, stages) == (1, 1)
    assert len(res) == 4


def test_shard_replays_plan_in_order(spark):
    """Each shard emits exactly the delta list of a local replay of its
    rows, in dispatch_plan's (seq, atom position) order."""
    bq = hop4_proj()
    tree = best_tree(bq.cq)
    updates = make_stream()
    plan = dispatch_plan(bq.cq, tree, updates, p=4)
    pos = {r.name: i for i, r in enumerate(bq.cq.relations)}
    order = list(zip(plan.pid, plan.seq, plan.atom.map(pos)))
    assert order == sorted(order)
    res = PartitionedCrown(spark, bq.cq, p=4, tree=tree).run_stream(updates, True)
    for pid, payload in zip(res.pid, res.payload):
        eng = CrownEngine(bq.cq, tree)
        exp = []
        for r in plan[plan.pid == pid].itertuples(index=False):
            exp += eng.apply_atom(r.atom, (r.v0, r.v1), r.sign > 0)
        assert json.loads(payload) == [[s, list(v)] for s, v in exp]


def test_empty_root_key_routes_to_shard_0(spark):
    """A root with no attributes gives no hash key: every atom goes to
    shard 0 once, instead of to all p shards."""
    cq = CQ(
        (Relation("R", ("A", "B"), stream="R"), Relation("S", ("C", "D"), stream="S")),
        output=("A", "B", "C", "D"),
        name="cross",
    )
    tree = JoinTree(cq, {
        "[]": TreeNode("[]", (), None, None, ("R", "S")),
        "R": TreeNode("R", ("A", "B"), "R", "[]"),
        "S": TreeNode("S", ("C", "D"), "S", "[]"),
    }, "[]")
    assert not tree.errors()
    updates = make_stream(n=60, dom=4)
    updates["stream"] = ["R" if v % 2 else "S" for v in updates.v0]
    plan = dispatch_plan(cq, tree, updates, p=4)
    assert len(plan) == len(updates) and (plan.pid == 0).all()
    res = PartitionedCrown(spark, cq, p=4, tree=tree).run_stream(updates, True)
    assert res.pid.tolist() == [0]
    assert payload_counter(res) == expected_deltas(cq, updates, tree)


def test_dispatch_replicates_non_root_atoms(spark):
    bq = hop4_proj()
    tree = best_tree(bq.cq)
    updates = make_stream(n=20)
    plan = dispatch_plan(bq.cq, tree, updates, p=4)
    # root is [C]: G2/G3 contain C → hashed once; G1/G4 → replicated ×4
    per_atom = plan.groupby("atom").size()
    n_events = len(updates)
    assert per_atom["G1"] == 4 * n_events and per_atom["G4"] == 4 * n_events
    assert per_atom["G2"] == n_events and per_atom["G3"] == n_events


def test_dispatch_shards_are_disjoint_on_root_attr(spark):
    bq = hop3_full()
    tree = best_tree(bq.cq)
    updates = make_stream(n=40)
    plan = dispatch_plan(bq.cq, tree, updates, p=4)
    root_attrs = tree.node(tree.root).attrs
    for atom in plan.atom.unique():
        atom_rel = bq.cq.relation(atom)
        if not set(root_attrs) <= set(atom_rel.attrs):
            continue
        sub = plan[plan.atom == atom]
        key_cols = [f"v{atom_rel.attrs.index(a)}" for a in root_attrs]
        # every root-key value lands on exactly one partition
        assert (sub.groupby(key_cols).pid.nunique() == 1).all()
