"""CQ/Relation substrate (§3.1) and atom selections (§7.2)."""
from collections import Counter

import pytest

from repro.bench.queries import GRAPH_QUERIES, SNB_QUERIES
from repro.cq.query import CQ, Relation, Selection


def test_relation_attrs():
    r = Relation("R", ("a", "b"))
    assert r.attr_set == {"a", "b"}
    assert r.stream == "R"


def test_relation_custom_stream():
    r = Relation("G1", ("a", "b"), stream="G")
    assert r.stream == "G"


def test_relation_duplicate_attr_rejected():
    with pytest.raises(ValueError):
        Relation("R", ("a", "a"))


def test_cq_full_join_flag():
    cq = CQ((Relation("R", ("a", "b")),), output=("a", "b"))
    assert cq.is_full


def test_cq_join_project_flag():
    cq = CQ((Relation("R", ("a", "b")),), output=("a",))
    assert not cq.is_full


def test_cq_output_must_exist():
    with pytest.raises(ValueError):
        CQ((Relation("R", ("a",)),), output=("z",))


def test_cq_distinct_names_required():
    with pytest.raises(ValueError):
        CQ((Relation("R", ("a",)), Relation("R", ("b",))), output=("a",))


def test_atoms_of_stream_self_join():
    cq = CQ(
        (
            Relation("G1", ("a", "b"), stream="G"),
            Relation("G2", ("b", "c"), stream="G"),
            Relation("S", ("c",)),
        ),
        output=("a", "b", "c"),
    )
    assert [r.name for r in cq.atoms_of_stream("G")] == ["G1", "G2"]
    assert [r.name for r in cq.atoms_of_stream("S")] == ["S"]


def test_all_attrs_union():
    cq = CQ(
        (Relation("R", ("a", "b")), Relation("S", ("b", "c"))), output=("a",)
    )
    assert cq.all_attrs == {"a", "b", "c"}


def test_with_output():
    cq = CQ((Relation("R", ("a", "b")),), output=("a", "b"))
    cq2 = cq.with_output(("a",))
    assert cq2.output == ("a",) and cq.output == ("a", "b")


def test_hyperedges():
    cq = CQ(
        (Relation("R", ("a", "b")), Relation("S", ("b", "c"))), output=("a",)
    )
    assert cq.hyperedges() == [frozenset({"a", "b"}), frozenset({"b", "c"})]


def test_relation_lookup():
    cq = CQ((Relation("R", ("a",)),), output=("a",))
    assert cq.relation("R").attrs == ("a",)
    with pytest.raises(KeyError):
        cq.relation("X")


def test_selection_must_fit_its_atom():
    with pytest.raises(ValueError):
        CQ((Relation("R", ("a",)),), ("a",), where=(("R", Selection("b", "%", 2)),))
    with pytest.raises(ValueError):
        Selection("a", "%", 0)
    with pytest.raises(ValueError):
        Selection("a", "is null", 1)


def test_admits_drops_null_join_attributes_and_failed_selections():
    """``admits`` rejects a NULL on an attribute shared with another
    atom, and a tuple that fails a selection; a NULL elsewhere is a
    plain value."""
    cq = CQ((Relation("message", ("m", "c", "ro")), Relation("knows", ("a", "c"))), ("c",),
            where=(("message", Selection("ro", "is null")), ("knows", Selection("a", "%", 2)),
                   ("knows", Selection("a", "%", 3))))
    message, knows = cq.admits("message"), cq.admits("knows")
    assert message((1, 2, None)) and message((None, 2, None))
    assert not message((1, None, None)) and not message((1, 2, 3))
    assert knows((6, 2)) and not knows((6, None)) and not knows((None, 2))
    assert not knows((4, 2)) and not knows((3, 2))


# NULL, multiples of 10 (a negative one too) and non-multiples
SPEC_VALUES = [None, 0, 7, 10, -10, -7, 25, 30]


def test_selections_compile_alike_for_tuples_and_spark(spark):
    """Each benchmark query's selections keep the same rows as tuple
    predicates and as Spark filters. The other attributes of a row take
    values the selection treats differently, so a predicate that reads
    the wrong column is caught."""
    from repro.spark.state import selection_filters

    for factory in [*GRAPH_QUERIES.values(), *SNB_QUERIES.values()]:
        cq = factory().cq
        filters = selection_filters(cq)
        for rel, sel in cq.where:
            attrs = cq.relation(rel).attrs
            rows = [
                tuple(v if a == sel.attr else w for a in attrs)
                for v in SPEC_VALUES for w in (None, 3, 10)
            ]
            df = spark.createDataFrame(rows, ", ".join(f"`{a}` long" for a in attrs))
            kept = Counter(tuple(r) for r in df.filter(filters[rel]).collect())
            want = Counter(t for t in rows if all(p(t) for p in cq.selections_on(rel)))
            assert kept == want, (cq.name, rel)
            assert 0 < len(want) < len(rows)
