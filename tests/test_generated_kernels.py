"""``CrownEngine``'s generated code (``_compile``): names that are no
Python identifiers, one engine's triggers, kernels and V_l upkeep bound
to its own state only, no reference cycle, no counter state read by
enumeration or V_l upkeep, the file names that profiles and tracebacks
show, kernels that only read, and one compile per source."""
import gc
import weakref
from types import FunctionType

from repro.bench.queries import GRAPH_QUERIES, SNB_QUERIES
from repro.core import engine
from repro.core.engine import CrownEngine
from repro.cq.join_tree import best_tree, free_connex_trees
from repro.cq.query import CQ, Relation
from repro.streams.sequences import Update
from tests._util import check_counters, check_live, expected_result, random_updates

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
    """Deltas, ``enumerate_full``, the live views, every counter and
    index (``check_counters``) and the no-op count on every free-connex
    tree against ``naive.evaluate``. A second engine built from the same
    query and tree, never fed, stays empty: a kernel bound to another
    engine's dicts would show there."""
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
            check_counters(eng, dbs, what)
            cur = new
        assert eng.stats["deltas"] > 0 and eng.stats["witnesses"] > 0, f"tree {i}"
        assert eng.stats["noop_updates"] == noops > 0
        assert list(idle.enumerate_full()) == []
        assert all(not idx for n in idle._live_nodes for idx in n.live_idx.values())


def triggers(eng) -> list:
    return [f for pair in eng._triggers.values() for f in pair]


def upkeep(eng) -> list:
    """Every atom's V_l upkeep, insert and delete."""
    return [f for pair in eng._vl.values() for f in pair]


def test_dropped_engine_is_freed_without_gc():
    """No reference cycle runs through an engine, its ``_Node``s or its
    generated functions, triggers included (a function in its own
    globals would be one, and would keep the node dicts it reads; so
    would a trigger that bound the engine or one of its bound methods),
    so all of them go with the engine's last reference even when the
    cyclic collector is off."""
    bq = GRAPH_QUERIES["4hop_full"]()
    was = gc.isenabled()
    gc.disable()
    try:
        eng = CrownEngine(bq.cq, post_filter=lambda r: r["A"] != r["E"])
        for s, t, ins in random_updates({"G": 2}, 200, dom=5, seed=1):
            eng.apply(Update(s, t, ins))
        assert list(eng.enumerate_full())
        kernels = [*eng._wplans.values(), eng._full, *upkeep(eng), *triggers(eng)]
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
    the query and the plan, for cProfile, traces and tracebacks: one
    trigger and one V_l upkeep per atom and sign. No kernel binds a
    trigger or V_l upkeep, and each kernel's parameters are its Δ set,
    its S-chain exclusions ``X_j``, ``out`` and ``sign``: no V_l
    candidate set."""
    bq = GRAPH_QUERIES["4hop_full"]()
    eng = CrownEngine(bq.cq)
    names = {name: k.__code__.co_filename for name, k in eng._wplans.items()}
    assert names == {n: f"<crown 4hop_full {n}>" for n in eng.nodes}
    assert eng._full.__code__.co_filename == "<crown 4hop_full enumerate_full>"
    for what, fns in (("trigger", eng._triggers), ("live", eng._vl)):
        names = {(rel, sign): f.__code__.co_filename
                 for rel, pair in fns.items() for sign, f in zip("+-", pair)}
        assert names == {(r, s): f"<crown 4hop_full {what} {r} {s}1>"
                         for r in ("G1", "G2", "G3", "G4") for s in "+-"}
    bound = {id(v) for k in [*eng._wplans.values(), eng._full]
             for v in k.__globals__.values()}
    assert not bound & set(map(id, triggers(eng) + upkeep(eng)))
    for name, k in eng._wplans.items():
        code = k.__code__
        xs = tuple(f"X{j}" for j in range(1, len(eng.tree.path_to_root(name))))
        assert code.co_varnames[:code.co_argcount] == ("ys", *xs, "out", "sign"), name


def test_code_is_compiled_once_per_source(monkeypatch):
    """A second engine on the same query and tree calls no ``compile``:
    every function's code object is the first engine's, under the same
    file name, bound to the second engine's own dicts. A new query does
    compile."""
    cq = GRAPH_QUERIES["4hop_full"]().cq
    tree = best_tree(cq)

    def generated(eng) -> list:
        return [*eng._wplans.values(), eng._full, *upkeep(eng), *triggers(eng)]

    first = CrownEngine(cq, tree)
    compiled = []
    monkeypatch.setattr(engine, "compile", lambda *a: compiled.append(a[1]) or compile(*a),
                        raising=False)
    second = CrownEngine(cq, tree)
    assert compiled == []
    for f, g in zip(generated(first), generated(second), strict=True):
        assert f.__code__ is g.__code__ and f.__globals__ is not g.__globals__
    CrownEngine(cq.with_output(reversed(cq.output)), tree)
    assert compiled


def test_kernels_read_no_counters():
    """Propagation moves every counter before a deletion's delta is
    enumerated against the V_s of before the deletion. That is sound
    only while enumeration reads no counter state: no generated function
    (witness plans, ``enumerate_full`` and the FullEnum parts bound in
    them) holds a node's ``tuples``, ``def_pres`` or ``child_index``
    dicts, on any tree of any graph or SNB query or of ODD. Nor does any
    V_l upkeep, which keeps V_l from V_s and V_l alone."""
    queries = [q().cq for q in (*GRAPH_QUERIES.values(), *SNB_QUERIES.values())] + [ODD]
    parts = lives = 0
    for cq in queries:
        for i, tree in enumerate(free_connex_trees(cq)):
            eng = CrownEngine(cq, tree)
            counters = {id(d) for n in eng.nodes.values()
                        for d in (n.tuples, n.def_pres, n.child_index, *n.child_index.values())}
            todo, done = [*eng._wplans.values(), eng._full, *upkeep(eng)], set()
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
            lives += len(upkeep(eng))
    assert parts > 0 and lives > 0
