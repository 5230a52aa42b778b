"""BatchCrown on the dict store: the micro-batch algorithm of §4 with no
JVM. Every batch's ΔQ must equal CrownEngine's net delta for the same
events, on every free-connex tree, or the set delta of
``naive.evaluate``."""
import random
import subprocess
import sys
import zlib
from collections import Counter, defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.queries import hop3_full, hop3_proj, star
from repro.core.batch import ROW, VP, BatchCrown
from repro.core.engine import CrownEngine
from repro.cq.join_tree import free_connex_trees
from repro.cq.query import CQ, Relation
from repro.streams.sequences import Update
from tests._util import expected_result
from tests.test_engine_deltas import BOOLEAN_QUERIES

R_S = CQ((Relation("R", ("A", "B")), Relation("S", ("B", "C"))), ("A", "B", "C"), name="r_s")


def batched_graph_events(n_batches=3, per_batch=35, dom=12, seed=0):
    """Batches of graph edge events ``(sign, a, b)``, one per edge, each
    a valid insert or delete of the edge."""
    rng = random.Random(seed)
    live = set()
    batches = []
    for _ in range(n_batches):
        events = {}
        for _ in range(per_batch):
            if live and rng.random() < 0.3:
                t = rng.choice(sorted(live))
                live.discard(t)
                events[t] = -1
            else:
                t = (rng.randrange(dom), rng.randrange(dom))
                if t in live:
                    continue
                live.add(t)
                events[t] = 1
        batches.append([(s, a, b) for (a, b), s in events.items()])
    return batches


def graph_events(batch):
    return [("G", s, (a, b)) for s, a, b in batch]


def net_delta(engine, events) -> dict[tuple, int]:
    """The signed set delta that ``engine`` (tuple-at-a-time) emits over
    ``events``, ``(stream, sign, tuple)``."""
    net = Counter()
    for stream, sign, t in events:
        for sg, out in engine.apply(Update(stream, t, sign > 0)):
            net[out] += sg
    return {t: (1 if c > 0 else -1) for t, c in net.items() if c != 0}


def check_events(bc, core, events) -> dict[tuple, int]:
    """Feed one batch of events, one per tuple, to ``bc`` and ``core``:
    its ΔQ rows must be distinct and equal the core engine's net delta."""
    streams = defaultdict(list)
    for stream, sign, t in events:
        streams[stream].append((sign, *t))
    rows = bc.process_batch(dict(streams))
    got = {tuple(r[:-1]): r[-1] for r in rows}
    assert len(got) == len(rows)
    assert got == net_delta(core, events)
    return got


def whole(store, name, kind) -> dict[tuple, int]:
    """Every stored row of one node and kind, with its value."""
    return dict(store.fetch([(name, kind, (), {()})])[(name, kind)])


# hop3_proj, default tree: G2 has key B; (2, 3) and (2, 4) share B = 2
VP_BATCHES = [
    [(1, 1, 2), (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 5)],
    [(-1, 2, 3)],  # B = 2: 2 -> 1; one of the two tuples leaves V_s
    [(1, 2, 3)],  # B = 2: 1 -> 2; it comes back in the next batch
    # B = 2: 2 -> 0; and G3 loses C = 2, so G2's (1, 2) leaves V_s and
    # B = 1 goes 1 -> 0
    [(-1, 2, 3), (-1, 2, 4)],
]


def vp_steps(feed, crown, store):
    """Run ``VP_BATCHES`` through ``feed``; per batch, G2's V_p count of
    B = 2, whether that key crossed 0, and G2's ``stats``."""
    seen = []
    for batch in VP_BATCHES:
        feed(batch)
        count = whole(store, "G2", VP).get((2,), 0)
        seen.append((count, (2,) in crown.nodes["G2"].keys, crown.stats["G2"]))
        assert seen[-1][2]["changed_keys"] == len(crown.nodes["G2"].keys)
    return seen


def check_vp_counts(seen):
    """Counted V_p (derivation counting at batch granularity): a key
    changes only when its count crosses 0."""
    assert [(count, crossed) for count, crossed, _ in seen] == [
        (2, True), (1, False), (2, False), (0, True)]


def check_vp_stats(seen):
    """A V_p count that moves but does not cross 0 changes no key."""
    stats = [s for *_, s in seen]
    assert [s["changed_keys"] for s in stats[1:]] == [0, 0, 2]
    assert [s["delta"] for s in stats[1:]] == [1, 1, 3]
    assert all(s["candidates"] >= s["delta"] for s in stats)


def null_batches(bulk):
    """R_S batches whose R tuples hold NULLs: insert, delete, re-insert
    one of them. The bulk case adds 2 × ``bulk`` R tuples holding a NULL
    in one column or the other, and S tuples that some of them join.
    Returns the batches and R's tuples left at the end."""
    extra = [(None, b) for b in range(100, 100 + bulk)] + [(a, None) for a in range(100, 100 + bulk)]
    batches = [
        [("R", 1, (None, 5)), ("S", 1, (5, 7)), ("R", 1, (1, None)),
         *(("S", 1, (b, 7)) for b in range(100, 100 + bulk, 50)), *(("R", 1, t) for t in extra)],
        [("R", -1, (None, 5)), ("R", -1, (1, None)), *(("R", -1, t) for t in extra)],
        [("R", 1, (1, None)), *(("R", 1, t) for t in extra)],
    ]
    return batches, [(1, None), *extra]


def check_null_rows(store, tree, kept):
    """R's stored rows are those of ``kept`` that R_S admits, the ones
    whose join attribute B is not NULL; R is a leaf unless it is the
    root, so its V_p counts the tuples per B."""
    r = tree.relation_node("R")
    kept = [t for t in kept if t[1] is not None]
    assert set(whole(store, r, ROW)) == set(kept)
    want = Counter() if tree.root == "R" else Counter(b for _, b in kept)
    assert whole(store, r, VP) == {(b,): n for b, n in want.items()}


# ---------------------------------------------------------------------------

@pytest.mark.parametrize("factory", [hop3_full, hop3_proj, star], ids=lambda f: f.__name__)
def test_every_tree_matches_core_engine(factory):
    cq = factory().cq
    for i, tree in enumerate(free_connex_trees(cq)):
        bc, core = BatchCrown(cq, tree), CrownEngine(cq, tree)
        result: set = set()
        for batch in batched_graph_events(n_batches=4, seed=zlib.crc32(cq.name.encode()) + i):
            for t, sign in check_events(bc, core, graph_events(batch)).items():
                (result.add if sign > 0 else result.discard)(t)
        assert result == core.full_result_set()


@pytest.mark.parametrize("bulk", [0, 300], ids=["literal", "bulk"])
@pytest.mark.parametrize("tree", free_connex_trees(R_S), ids=lambda t: t.root)
def test_tuples_holding_null_are_deleted(tree, bulk):
    batches, kept = null_batches(bulk)
    bc, core = BatchCrown(R_S, tree), CrownEngine(R_S, tree)
    for batch in batches:
        check_events(bc, core, batch)
    check_null_rows(bc.store, tree, kept)


# message(m, c, ro) ⋈ knows(a, c) with y = (c, ro): ``ro``, the attribute
# of one atom, is in a tree key of most trees, so a message whose ``ro``
# is NULL is a plain result row (2, NULL) that every tree must give
MSG_KNOWS = CQ((Relation("message", ("m", "c", "ro")), Relation("knows", ("a", "c"))),
               ("c", "ro"), name="msg_knows")
NULL_RO_BATCHES = [
    [("message", 1, (1, 2, None)), ("message", 1, (3, 2, 7)), ("knows", 1, (9, 2)),
     ("message", 1, (4, 5, None))],
    [("knows", 1, (8, 5)), ("message", -1, (3, 2, 7))],
    [("knows", -1, (9, 2)), ("message", 1, (5, 2, None))],
    [("knows", 1, (9, 2)), ("message", -1, (1, 2, None))],
    [("message", -1, (5, 2, None)), ("knows", -1, (8, 5))],
]


@pytest.mark.parametrize("i", range(len(free_connex_trees(MSG_KNOWS))))
def test_null_in_a_non_join_key_attribute_is_a_value(i):
    tree = free_connex_trees(MSG_KNOWS)[i]
    bc, core = BatchCrown(MSG_KNOWS, tree), CrownEngine(MSG_KNOWS, tree)
    for batch in NULL_RO_BATCHES:
        check_events(bc, core, batch)
    assert core.full_result_set() == set()


@pytest.mark.parametrize("cq", BOOLEAN_QUERIES, ids=lambda cq: cq.name)
def test_boolean_queries_match_core_engine(cq):
    rng = random.Random(zlib.crc32(cq.name.encode()))
    streams = sorted({r.stream for r in cq.relations})
    for tree in free_connex_trees(cq):
        bc, core = BatchCrown(cq, tree), CrownEngine(cq, tree)
        live = set()
        for _ in range(5):
            events = {}
            for _ in range(6):
                e = (rng.choice(streams), (rng.randrange(2), rng.randrange(2)))
                events[e] = -1 if e in live else 1
            live ^= set(events)
            check_events(bc, core, [(s, sg, t) for (s, t), sg in events.items()])


def test_counted_vp_and_stats():
    cq = hop3_proj().cq
    bc = BatchCrown(cq)
    core = CrownEngine(cq, bc.tree)
    seen = vp_steps(lambda b: check_events(bc, core, graph_events(b)), bc, bc.store)
    check_vp_counts(seen)
    check_vp_stats(seen)


def test_selections_apply_per_atom():
    """hop3_full's three atoms share the stream; only G3's tuples pass
    its selection (D % 10 = 0)."""
    cq = hop3_full().cq
    bc = BatchCrown(cq)
    edges = [(1, 1, 2), (1, 2, 3), (1, 3, 10), (-1, 4, 5)]
    all_ = {(a, b): s for s, a, b in edges}
    assert bc._batches({"G": edges}) == {
        bc.tree.relation_node("G1"): all_, bc.tree.relation_node("G2"): all_,
        bc.tree.relation_node("G3"): {(3, 10): 1},
    }


edge = st.tuples(st.sampled_from([0, 1, 2, 10]), st.sampled_from([0, 1, 2, 10]))
batch = st.dictionaries(edge, st.sampled_from([1, -1]), max_size=8)


@pytest.mark.parametrize("factory", [hop3_proj, hop3_full], ids=lambda f: f.__name__)
@settings(max_examples=40, deadline=None)
@given(batches=st.lists(batch, max_size=6))
def test_random_batches_give_the_set_delta(factory, batches):
    """Random compacted batches, including inserts of stored edges and
    deletes of absent ones: each ΔQ is Q(D') − Q(D) as signed rows."""
    cq = factory().cq
    bc = BatchCrown(cq)
    db: set = set()
    cur = expected_result(cq, {"G": db})
    for events in batches:
        for t, sign in events.items():
            (db.add if sign > 0 else db.discard)(t)
        rows = bc.process_batch({"G": [(s, *t) for t, s in events.items()]})
        new = expected_result(cq, {"G": db})
        assert sorted(rows) == sorted([(*t, 1) for t in new - cur] + [(*t, -1) for t in cur - new])
        cur = new


def test_core_imports_no_pyspark():
    """The batch core, the tuple engine, the baselines' view plan, the
    GHD engine, the data generators and the workload builders run
    without a JVM: importing them, and running a batch, loads no
    ``pyspark`` module."""
    code = (
        "import sys; from repro.core.batch import BatchCrown; import repro.core.engine; "
        "import repro.core.baseline_cp, repro.cq.ghd, repro.synth_data, repro.bench.harness; "
        "from repro.bench.queries import hop3_full; "
        "assert BatchCrown(hop3_full().cq).process_batch({'G': [(1, 1, 2), (1, 2, 3), (1, 3, 10)]})"
        " == [(1, 2, 3, 10, 1)]; "
        "print(sorted(m for m in sys.modules if m.startswith('pyspark')))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "[]"
