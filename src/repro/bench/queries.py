"""The paper's benchmark queries (§8.1, Appendix D) as :class:`CQ` objects.

Graph queries are self-joins of a single edge stream ``G(src, dst)``;
attribute names follow the paper (A, B, C, …). ``FILTER OVER (x)``
keeps 10% of the designated endpoint values via ``Selection(x, "%", 10)``
pushed to the filtered atom (§7.2). Each entry also carries the DuckDB
SQL used by the oracle for end-state result checks; that SQL is written
by hand, so it stays an independent reference.

SNB queries run over the SNB-lite schema (repro.synth_data.snb_tables_pdf)
with unified join-attribute names; ``m_c_replyof IS NULL`` is an atom
selection, SNB Q3's ``<>`` a post-filter over output attributes, and
SNB Q4's COUNT(DISTINCT) an extended-output query plus the
DistinctCountAggregator (§7.1/§7.3; see DESIGN.md).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.cq.join_tree import JoinTree, free_connex_trees
from repro.cq.query import CQ, Relation, Selection


@dataclass
class BenchQuery:
    """A benchmark query: the CQ, its oracle SQL, an emission-time
    filter over output attributes (SNB Q3's ``<>``), and whether it is
    cyclic (run through a GHD)."""

    cq: CQ
    sql: str
    post_filter: Callable | None = None
    cyclic: bool = False


# ---------------------------------------------------------------------------
# graph pattern queries (Nguyen et al. benchmark, adapted to updates)
# ---------------------------------------------------------------------------

def hop3_full() -> BenchQuery:
    cq = CQ(
        (
            Relation("G1", ("A", "B"), stream="G"),
            Relation("G2", ("B", "C"), stream="G"),
            Relation("G3", ("C", "D"), stream="G"),
        ),
        output=("A", "B", "C", "D"),
        name="3hop_full",
        where=(("G3", Selection("D", "%", 10)),),  # FILTER OVER (G3.dst)
    )
    sql = """
        SELECT G1.src AS A, G1.dst AS B, G2.dst AS C, G3.dst AS D
        FROM G G1, G G2, G G3
        WHERE G1.dst = G2.src AND G2.dst = G3.src AND G3.dst % 10 = 0
    """
    return BenchQuery(cq, sql)


def hop3_proj() -> BenchQuery:
    cq = CQ(
        (
            Relation("G1", ("A", "B"), stream="G"),
            Relation("G2", ("B", "C"), stream="G"),
            Relation("G3", ("C", "D"), stream="G"),
        ),
        output=("B", "C"),
        name="3hop_proj",
    )
    sql = """
        SELECT DISTINCT G2.src AS B, G2.dst AS C
        FROM G G1, G G2, G G3
        WHERE G1.dst = G2.src AND G2.dst = G3.src
    """
    return BenchQuery(cq, sql)


def hop4_full() -> BenchQuery:
    cq = CQ(
        (
            Relation("G1", ("A", "B"), stream="G"),
            Relation("G2", ("B", "C"), stream="G"),
            Relation("G3", ("C", "D"), stream="G"),
            Relation("G4", ("D", "E"), stream="G"),
        ),
        output=("A", "B", "C", "D", "E"),
        name="4hop_full",
        where=(("G4", Selection("E", "%", 10)),),
    )
    sql = """
        SELECT G1.src AS A, G1.dst AS B, G2.dst AS C, G3.dst AS D, G4.dst AS E
        FROM G G1, G G2, G G3, G G4
        WHERE G1.dst = G2.src AND G2.dst = G3.src AND G3.dst = G4.src
          AND G4.dst % 10 = 0
    """
    return BenchQuery(cq, sql)


def hop4_proj() -> BenchQuery:
    """4-Hop with projection — the paper's Fig. 1 query (y = x1..x4)."""
    cq = CQ(
        (
            Relation("G1", ("A", "B"), stream="G"),
            Relation("G2", ("B", "C"), stream="G"),
            Relation("G3", ("C", "D"), stream="G"),
            Relation("G4", ("D", "E"), stream="G"),
        ),
        output=("A", "B", "C", "D"),
        name="4hop_proj",
        where=(("G4", Selection("E", "%", 10)),),
    )
    sql = """
        SELECT DISTINCT G1.src AS A, G1.dst AS B, G2.dst AS C, G3.dst AS D
        FROM G G1, G G2, G G3, G G4
        WHERE G1.dst = G2.src AND G2.dst = G3.src AND G3.dst = G4.src
          AND G4.dst % 10 = 0
    """
    return BenchQuery(cq, sql)


def star() -> BenchQuery:
    """3-branch star on src — q-hierarchical (height-1 tree)."""
    cq = CQ(
        (
            Relation("G1", ("A", "B"), stream="G"),
            Relation("G2", ("A", "C"), stream="G"),
            Relation("G3", ("A", "D"), stream="G"),
        ),
        output=("A", "B", "C", "D"),
        name="star",
        where=(("G3", Selection("D", "%", 10)),),
    )
    sql = """
        SELECT G1.src AS A, G1.dst AS B, G2.dst AS C, G3.dst AS D
        FROM G G1, G G2, G G3
        WHERE G1.src = G2.src AND G2.src = G3.src AND G3.dst % 10 = 0
    """
    return BenchQuery(cq, sql)


def comb2() -> BenchQuery:
    """2-Comb: 3-hop path plus unary endpoint relations V1, V2.

    Height-3 tree (this is the Theorem-6.2 hard shape): the paper lists
    it among the queries without a height-2 generalized join tree.
    """
    cq = CQ(
        (
            Relation("V1", ("A",), stream="V1"),
            Relation("G1", ("A", "B"), stream="G"),
            Relation("G2", ("B", "C"), stream="G"),
            Relation("G3", ("C", "D"), stream="G"),
            Relation("V2", ("D",), stream="V2"),
        ),
        output=("A", "B", "C", "D"),
        name="2comb",
    )
    sql = """
        SELECT G1.src AS A, G1.dst AS B, G2.dst AS C, G3.dst AS D
        FROM G G1, G G2, G G3, V1, V2
        WHERE G1.dst = G2.src AND G2.dst = G3.src
          AND V1.v = G1.src AND V2.v = G3.dst
    """
    return BenchQuery(cq, sql)


def dumbbell_full() -> BenchQuery:
    """Dumbbell (Fig. 5): two triangles bridged by an edge — cyclic,
    handled by the GHD engine (repro.cq.ghd)."""
    cq = CQ(
        (
            Relation("G1", ("x1", "x2"), stream="G"),
            Relation("G2", ("x2", "x3"), stream="G"),
            Relation("G3", ("x3", "x1"), stream="G"),
            Relation("G4", ("x3", "x4"), stream="G"),
            Relation("G5", ("x4", "x5"), stream="G"),
            Relation("G6", ("x5", "x6"), stream="G"),
            Relation("G7", ("x6", "x4"), stream="G"),
        ),
        output=("x1", "x2", "x3", "x4", "x5", "x6"),
        name="dumbbell_full",
    )
    sql = """
        SELECT G1.src AS x1, G2.src AS x2, G3.src AS x3,
               G5.src AS x4, G6.src AS x5, G7.src AS x6
        FROM G G1, G G2, G G3, G G4, G G5, G G6, G G7
        WHERE G1.dst = G2.src AND G2.dst = G3.src AND G3.dst = G1.src
          AND G5.dst = G6.src AND G6.dst = G7.src AND G7.dst = G5.src
          AND G4.src = G3.src AND G4.dst = G5.src
    """
    return BenchQuery(cq, sql, cyclic=True)


def dumbbell_proj() -> BenchQuery:
    cq = dumbbell_full().cq.with_output(("x3", "x4"))
    cq = CQ(cq.relations, cq.output, "dumbbell_proj", cq.where)
    sql = """
        SELECT DISTINCT G4.src AS x3, G4.dst AS x4
        FROM G G1, G G2, G G3, G G4, G G5, G G6, G G7
        WHERE G1.dst = G2.src AND G2.dst = G3.src AND G3.dst = G1.src
          AND G5.dst = G6.src AND G6.dst = G7.src AND G7.dst = G5.src
          AND G4.src = G3.src AND G4.dst = G5.src
    """
    return BenchQuery(cq, sql, cyclic=True)


# ---------------------------------------------------------------------------
# LDBC-SNB-lite analytical queries
# ---------------------------------------------------------------------------

NOT_REPLY = Selection("ro", "is null")  # m_c_replyof IS NULL


def snb_q1() -> BenchQuery:
    cq = CQ(
        (
            Relation("person", ("p", "fn", "ln")),
            Relation("message", ("m", "p", "ro")),
            Relation("knows", ("k1", "p")),
        ),
        output=("p", "fn", "ln", "m", "k1"),
        name="snb_q1",
    )
    sql = """
        SELECT p_personid AS p, p_firstname AS fn, p_lastname AS ln,
               m_messageid AS m, k_person1id AS k1
        FROM person, message, knows
        WHERE p_personid = m_creatorid AND k_person2id = p_personid
    """
    return BenchQuery(cq, sql)


def snb_q2() -> BenchQuery:
    cq = CQ(
        (
            Relation("knows1", ("a", "b"), stream="knows"),
            Relation("knows2", ("b", "c"), stream="knows"),
            Relation("message", ("m", "c", "ro")),
            Relation("message_tag", ("m", "t")),
            Relation("tag", ("t", "tname")),
        ),
        output=("a", "b", "c", "t", "m"),
        name="snb_q2",
        where=(("message", NOT_REPLY), ("knows1", Selection("a", "%", 10))),
    )
    sql = """
        SELECT k1.k_person1id AS a, k1.k_person2id AS b, k2.k_person2id AS c,
               mt_tagid AS t, m_messageid AS m
        FROM tag, message, message_tag, knows k1, knows k2
        WHERE m_messageid = mt_messageid AND mt_tagid = t_tagid
          AND k1.k_person2id = k2.k_person1id AND m_creatorid = k2.k_person2id
          AND m_c_replyof IS NULL AND k1.k_person1id % 10 = 0
    """
    return BenchQuery(cq, sql)


def snb_q3() -> BenchQuery:
    base = snb_q2()
    cq = CQ(
        base.cq.relations, base.cq.output, "snb_q3", base.cq.where
    )
    sql = base.sql + " AND k2.k_person2id <> k1.k_person1id"
    # <> is an emission-time selection over output attrs
    return BenchQuery(cq, sql, post_filter=lambda r: r["c"] != r["a"])


def snb_q4_inner() -> BenchQuery:
    """SNB Q4's inner free-connex query: output extended with m
    (§7.1); COUNT(DISTINCT m) GROUP BY (tname, t) is computed by
    DistinctCountAggregator over the delta stream."""
    cq = CQ(
        (
            Relation("knows", ("a", "c")),
            Relation("message", ("m", "c", "ro")),
            Relation("message_tag", ("m", "t")),
            Relation("tag", ("t", "tname")),
        ),
        output=("tname", "t", "m"),
        name="snb_q4_inner",
        where=(("message", NOT_REPLY), ("knows", Selection("a", "%", 10))),
    )
    sql = """
        SELECT DISTINCT t_name AS tname, t_tagid AS t, m_messageid AS m
        FROM tag, message, message_tag, knows
        WHERE m_messageid = mt_messageid AND mt_tagid = t_tagid
          AND m_creatorid = k_person2id AND m_c_replyof IS NULL
          AND k_person1id % 10 = 0
    """
    return BenchQuery(cq, sql)


SNB_Q4_SQL = """
    SELECT t_name AS tname, t_tagid AS t, COUNT(DISTINCT m_messageid) AS cnt
    FROM tag, message, message_tag, knows
    WHERE m_messageid = mt_messageid AND mt_tagid = t_tagid
      AND m_creatorid = k_person2id AND m_c_replyof IS NULL
      AND k_person1id % 10 = 0
    GROUP BY t_name, t_tagid
"""


GRAPH_QUERIES = {
    "3hop_full": hop3_full,
    "3hop_proj": hop3_proj,
    "4hop_full": hop4_full,
    "4hop_proj": hop4_proj,
    "star": star,
    "2comb": comb2,
}

SNB_QUERIES = {
    "snb_q1": snb_q1,
    "snb_q2": snb_q2,
    "snb_q3": snb_q3,
    "snb_q4": snb_q4_inner,
}


# ---------------------------------------------------------------------------
# the §6 lower-bound query and the Fig. 12 selectivity sweep
# ---------------------------------------------------------------------------

def thm67() -> CQ:
    """π_{x1}(R1(x1,x2) ⋈ R2(x2)) — the lower-bound query of Thm. 6.7."""
    return CQ(
        (Relation("R1", ("x1", "x2")), Relation("R2", ("x2",))),
        output=("x1",),
        name="thm67",
    )


def r2_under_r1(cq: CQ) -> JoinTree:
    """The first free-connex tree of ``cq`` with R2 below R1: child churn
    then drives P-UPDATEs through every parent (the Θ(λ) plan)."""
    return next(
        t for t in free_connex_trees(cq) if "R2" in t.subtree(t.relation_node("R1"))
    )


def keep_pct(bq: BenchQuery, pct: int) -> BenchQuery:
    """Fig. 12: ``bq`` with its FILTER OVER selection widened to keep
    about ``pct`` percent of the filtered endpoint values."""
    cq = bq.cq
    ((atom, sel),) = cq.where
    mod = max(1, round(100 / pct))
    where = ((atom, Selection(sel.attr, "%", mod)),)
    return replace(
        bq,
        cq=CQ(cq.relations, cq.output, f"{cq.name}_keep{pct}", where),
        sql=bq.sql.replace(f"% {sel.const} = 0", f"% {mod} = 0"),
    )
