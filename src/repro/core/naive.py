"""Brute-force CQ evaluation — the internal correctness oracle.

Used by tests to validate every delta the CROWN engine emits:
``ΔQ(D, t) = Q(D ± t) − Q(D)`` recomputed from scratch on small data.
Hash-join based, so quadratic blowups only hurt at oracle scale.
"""
from __future__ import annotations

from repro.cq.query import CQ


Row = dict[str, object]


def evaluate(cq: CQ, db: dict[str, set[tuple]]) -> set[tuple]:
    """``Q(D)`` as a set of output tuples (ordered by ``cq.output``).

    ``db`` maps relation *name* → set of tuples aligned to that
    relation's attribute order. Set semantics throughout.
    """
    partial: list[Row] = [{}]
    for rel in cq.relations:
        rows = db.get(rel.name, set())
        # build hash index on the shared attributes with `partial`
        if not partial:
            return set()
        shared = [a for a in rel.attrs if a in partial[0]]
        idx: dict[tuple, list[tuple]] = {}
        for t in rows:
            d = dict(zip(rel.attrs, t))
            k = tuple(d[a] for a in shared)
            if None not in k:  # as in SQL, a NULL joins nothing
                idx.setdefault(k, []).append(t)
        nxt: list[Row] = []
        for row in partial:
            k = tuple(row[a] for a in shared)
            for t in idx.get(k, []):
                merged = dict(row)
                merged.update(zip(rel.attrs, t))
                nxt.append(merged)
        partial = nxt
    return {tuple(r[a] for a in cq.output) for r in partial}


def witnessed(cq: CQ, db: dict[str, set[tuple]], rel: str, t: tuple) -> set[tuple]:
    """``Q(D ⋉ t)`` — results witnessed by tuple ``t ∈ R_rel`` (§3.1)."""
    db2 = {k: (v if k != rel else {t}) for k, v in db.items()}
    db2.setdefault(rel, {t})
    return evaluate(cq, db2)
