"""Shared test helpers: randomized streams and the naive-oracle fuzzer."""
from __future__ import annotations

import random
import uuid
from collections import Counter

import pytest

from repro.core.naive import evaluate
from repro.cq.query import CQ
from repro.streams.sequences import Update


def output_orders(names) -> list:
    """``(name, reverse)`` params: each query with its own output order,
    then with ``cq.output`` reversed (ids ``<name>`` and ``<name>-reversed``)."""
    names = sorted(names)
    return [pytest.param(n, False, id=n) for n in names] + [
        pytest.param(n, True, id=f"{n}-reversed") for n in names
    ]


def query_in_order(cq: CQ, reverse: bool) -> CQ:
    return cq.with_output(reversed(cq.output)) if reverse else cq


def selected_db(cq: CQ, stream_db: dict[str, set]) -> dict[str, set]:
    """Per-atom database: fan out streams to copies, apply selections."""
    db = {}
    for r in cq.relations:
        base = set(stream_db.get(r.stream, set()))
        sel = cq.selections_on(r.name)
        db[r.name] = {t for t in base if all(p(t) for p in sel)}
    return db


def expected_result(cq: CQ, stream_db: dict[str, set], post_filter=None) -> set:
    out = evaluate(cq, selected_db(cq, stream_db))
    if post_filter is not None:
        names = cq.output
        out = {t for t in out if post_filter(dict(zip(names, t)))}
    return out


def check_live(eng, q: set, what: str) -> None:
    """V_l(R_e) = π_{e∩y} Q(D) at every live node (Lemma 5.5): each of
    its groupings, one per key(c) ∩ y layout of its children, is
    π_{e∩y} Q(D) grouped by that layout."""
    out = eng.cq.output
    for node in eng._live_nodes:
        pos = [out.index(a) for a in node.y_attrs]
        expect = {tuple(r[i] for i in pos) for r in q}
        layouts = {eng.nodes[c].key_y_attrs for c in node.children}
        assert set(node.live_idx) == layouts, f"{what}: live_idx layouts({node.name})"
        for layout, idx in node.live_idx.items():
            groups = _grouped(expect, _cols(node.y_attrs, layout))
            assert idx == groups, f"{what}: live_idx({node.name}, {layout})"


def check_counters(eng, dbs: dict[str, set], what: str) -> None:
    """Every node's propagation state recomputed bottom-up from the live
    stream database ``dbs``: R_e (an atom's admitted tuples, or for a
    generalized node the union of its defining children's V_p), each
    derivation counter, ``def_pres``, the ``child_index`` grouping of each
    key layout of the counted children, and the V_s indexes
    ``vs_by_key`` (empty at the root, which keeps no V_p), ``vs_yproj``
    and ``vs_key_yproj``."""
    atom_of = {eng.tree.relation_node(r.name): r for r in eng.cq.relations}
    vp: dict[str, set] = {}
    for name in reversed(eng.tree.preorder()):  # children first
        n = eng.nodes[name]
        if n.is_gen:
            rel = set().union(*(vp[c] for c in n.def_children))
        else:
            r = atom_of[name]
            assert r.attrs == n.attrs, f"{what}: attrs({name})"
            admit = eng.cq.admits(r.name)
            rel = {t for t in dbs.get(r.stream, ()) if admit(t)}
        ck = {c: _cols(n.attrs, eng.tree.key(c)) for c in n.children}
        key, yv = _cols(n.attrs, eng.tree.key(name)), _cols(n.attrs, n.y_attrs)
        counts = {t: sum(ck[c](t) in vp[c] for c in n.children) for t in rel}
        assert n.tuples == counts, f"{what}: counters({name})"
        pres = {t: sum(t in vp[c] for c in n.def_children) for t in rel} if n.is_gen else {}
        assert n.def_pres == pres, f"{what}: def_pres({name})"
        layouts = {eng.tree.key(c) for c in n.children if c not in n.def_children}
        assert set(n.child_index) == layouts, f"{what}: child_index layouts({name})"
        for layout, idx in n.child_index.items():
            groups = _grouped(rel, _cols(n.attrs, layout))
            assert idx == groups, f"{what}: child_index({name}, {layout})"
        vs = {t for t, k in counts.items() if k == n.n_children}
        by_key = {} if n.is_root else _grouped(vs, key)
        assert n.vs_by_key == by_key, f"{what}: vs_by_key({name})"
        assert n.vs_yproj == Counter(map(yv, vs)), f"{what}: vs_yproj({name})"
        kyproj = {kv: Counter(map(yv, ts)) for kv, ts in _grouped(vs, key).items()}
        assert n.vs_key_yproj == (kyproj if n.needs_kyproj else {}), f"{what}: vs_key_yproj({name})"
        vp[name] = set(map(key, vs))


def _cols(layout: tuple, attrs):
    """The projection of a tuple laid out as ``layout`` onto ``attrs``."""
    pos = [layout.index(a) for a in attrs]
    return lambda t: tuple(t[i] for i in pos)


def _grouped(ts, key) -> dict:
    groups: dict = {}
    for t in ts:
        groups.setdefault(key(t), set()).add(t)
    return groups


def random_updates(
    streams_arity: dict[str, int],
    steps: int,
    dom: int = 5,
    seed: int = 0,
    insert_bias: float = 0.7,
    tuple_maker=None,
):
    """Yield (stream, tuple, is_insert) mixing inserts and deletes."""
    rng = random.Random(seed)
    dbs: dict[str, set] = {s: set() for s in streams_arity}
    for _ in range(steps):
        s = rng.choice(sorted(streams_arity))
        if tuple_maker is not None:
            t = tuple_maker(rng, s)
        else:
            t = tuple(rng.randrange(dom) for _ in range(streams_arity[s]))
        ins = (t not in dbs[s]) if rng.random() < insert_bias else rng.random() < 0.5
        (dbs[s].add if ins else dbs[s].discard)(t)
        yield s, t, ins


def fuzz_engine_vs_naive(
    make_engine,
    cq: CQ,
    streams_arity: dict[str, int],
    steps: int = 300,
    dom: int = 5,
    seed: int = 0,
    post_filter=None,
    tuple_maker=None,
    check_full=None,
):
    """Drive an engine with random updates; assert every delta against
    brute-force recomputation. Returns the engine for further checks."""
    eng = make_engine()
    dbs: dict[str, set] = {s: set() for s in streams_arity}
    cur: set = set()
    for step, (s, t, ins) in enumerate(
        random_updates(streams_arity, steps, dom, seed, tuple_maker=tuple_maker)
    ):
        (dbs[s].add if ins else dbs[s].discard)(t)
        deltas = eng.apply(Update(s, t, ins))
        new = expected_result(cq, dbs, post_filter)
        got_add = {x for sg, x in deltas if sg > 0}
        got_del = {x for sg, x in deltas if sg < 0}
        assert len(deltas) == len(got_add) + len(got_del), (
            f"{cq.name} step {step}: duplicate deltas {deltas}"
        )
        assert got_add == new - cur, (
            f"{cq.name} step {step} {s} {t} ins={ins}: "
            f"+got {sorted(got_add)} expected {sorted(new - cur)}"
        )
        assert got_del == cur - new, (
            f"{cq.name} step {step} {s} {t} ins={ins}: "
            f"-got {sorted(got_del)} expected {sorted(cur - new)}"
        )
        if check_full is not None and step % check_full == 0:
            assert check_full_result(eng) == new, f"{cq.name} step {step}: full mismatch"
        cur = new
    return eng, dbs, cur


def check_full_result(eng) -> set:
    return eng.full_result_set()


def jobs_of(spark, fn):
    """``fn()`` with the number of Spark jobs, stages and tasks it ran,
    read from the status tracker under a job group of its own. The tasks
    are the sum of ``numTasks`` over each job's stages. A job or stage
    that the tracker has no info on (it returns None, as for some of the
    Spark baselines' stages) is skipped. The group name is fresh per
    call: one built from ``id(fn)`` is reused once ``fn`` is freed, and
    the status tracker would add the earlier call's jobs."""
    ctx = spark.sparkContext
    group = f"jobs-of-{uuid.uuid4().hex}"
    ctx.setJobGroup(group, group)
    try:
        out = fn()
    finally:
        ctx.setLocalProperty("spark.jobGroup.id", None)
        ctx.setLocalProperty("spark.job.description", None)
    # the status tracker is fed asynchronously by the listener bus
    ctx._jsc.sc().listenerBus().waitUntilEmpty()
    tracker = ctx.statusTracker()
    jobs = [j for j in map(tracker.getJobInfo, tracker.getJobIdsForGroup(group))
            if j is not None]
    stages = [s for j in jobs for s in map(tracker.getStageInfo, j.stageIds) if s is not None]
    return out, len(jobs), len(stages), sum(s.numTasks for s in stages)
