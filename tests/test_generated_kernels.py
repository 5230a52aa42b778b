"""``CrownEngine``'s generated enumeration code (``_compile``): names
that are no Python identifiers, one engine's kernels bound to its own
state only, no reference cycle, no counter state read, and the file
names that profiles and tracebacks show."""
import gc
import weakref
from types import FunctionType

from repro.bench.queries import GRAPH_QUERIES, SNB_QUERIES
from repro.core.engine import CrownEngine
from repro.cq.join_tree import free_connex_trees
from repro.cq.query import CQ, Relation
from repro.streams.sequences import Update
from tests._util import check_live, expected_result, random_updates

# relation and attribute names that are keywords, hold dots, spaces,
# quotes or backslashes: none may reach the generated source
ODD = CQ(
    (
        Relation("class", ("m.id", "a b")),
        Relation("it's", ("a b", 'q"x')),
        Relation("lambda", ('q"x', "def")),
        Relation("a b", ("a b", "back\\slash")),
    ),
    output=('q"x', "m.id", "a b"),
    name="odd names",
)
ARITY = {r.name: len(r.attrs) for r in ODD.relations}


def test_odd_names_on_every_tree():
    """Deltas, ``enumerate_full``, the live views and the no-op count on
    every free-connex tree against ``naive.evaluate``. A second engine
    built from the same query and tree, never fed, stays empty: a kernel
    bound to another engine's dicts would show there."""
    trees = free_connex_trees(ODD)
    assert len(trees) > 1
    for i, tree in enumerate(trees):
        eng, idle = CrownEngine(ODD, tree), CrownEngine(ODD, tree)
        dbs = {s: set() for s in ARITY}
        cur: set = set()
        noops = 0
        for step, (s, t, ins) in enumerate(random_updates(ARITY, 120, dom=3, seed=i)):
            noops += (t in dbs[s]) == ins
            (dbs[s].add if ins else dbs[s].discard)(t)
            deltas = eng.apply(Update(s, t, ins))
            new = expected_result(ODD, dbs)
            what = f"tree {i} step {step}"
            assert sorted(deltas) == sorted(
                [(1, r) for r in new - cur] + [(-1, r) for r in cur - new]), what
            rows = list(eng.enumerate_full())
            assert len(rows) == len(new) and set(rows) == new, what
            check_live(eng, new, what)
            cur = new
        assert eng.stats["deltas"] > 0 and eng.stats["witnesses"] > 0, f"tree {i}"
        assert eng.stats["noop_updates"] == noops > 0
        assert list(idle.enumerate_full()) == []
        assert all(not n.live for n in idle._live_nodes)
        idle.rebuild_live()
        assert all(not n.live for n in idle._live_nodes)


def test_dropped_engine_is_freed_without_gc():
    """No reference cycle runs through an engine, its ``_Node``s or its
    generated functions (a function in its own globals would be one, and
    would keep the node dicts it reads), so all of them go with the
    engine's last reference even when the cyclic collector is off."""
    bq = GRAPH_QUERIES["4hop_full"]()
    was = gc.isenabled()
    gc.disable()
    try:
        eng = CrownEngine(bq.cq, post_filter=lambda r: r["A"] != r["E"])
        for s, t, ins in random_updates({"G": 2}, 200, dom=5, seed=1):
            eng.apply(Update(s, t, ins))
        assert list(eng.enumerate_full())
        kernels = [*eng._wplans.values(), eng._full]
        kernels += [f for k in kernels for f in k.__globals__.values()
                    if isinstance(f, FunctionType)]
        refs = [weakref.ref(x) for x in [eng, *eng.nodes.values(), *kernels]]
        del eng, kernels
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        if was:
            gc.enable()


def test_kernels_are_named_by_query_and_plan():
    """Each generated function is compiled under a file name that names
    the query and the plan, for cProfile, traces and tracebacks."""
    bq = GRAPH_QUERIES["4hop_full"]()
    eng = CrownEngine(bq.cq)
    names = {name: k.__code__.co_filename for name, k in eng._wplans.items()}
    assert names == {n: f"<crown 4hop_full {n}>" for n in eng.nodes}
    assert eng._full.__code__.co_filename == "<crown 4hop_full enumerate_full>"


def test_kernels_read_no_counters():
    """Propagation moves every counter before a deletion's delta is
    enumerated against the V_s of before the deletion. That is sound
    only while enumeration reads no counter state: no generated function
    (witness plans, ``enumerate_full`` and the FullEnum parts bound in
    them) holds a node's ``tuples``, ``def_pres`` or ``child_index``
    dicts, on any tree of any graph or SNB query or of ODD."""
    queries = [q().cq for q in (*GRAPH_QUERIES.values(), *SNB_QUERIES.values())] + [ODD]
    parts = 0
    for cq in queries:
        for i, tree in enumerate(free_connex_trees(cq)):
            eng = CrownEngine(cq, tree)
            counters = {id(d) for n in eng.nodes.values()
                        for d in (n.tuples, n.def_pres, n.child_index, *n.child_index.values())}
            todo, done = [*eng._wplans.values(), eng._full], set()
            while todo:
                fn = todo.pop()
                if fn in done:
                    continue
                done.add(fn)
                for name, v in fn.__globals__.items():
                    assert id(v) not in counters, f"{fn.__code__.co_filename} tree {i}: {name}"
                    if isinstance(v, FunctionType):
                        todo.append(v)
            parts += sum("FullEnum" in fn.__code__.co_filename for fn in done)
    assert parts > 0
