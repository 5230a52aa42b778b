"""Conjunctive queries (§3.1).

A CQ is ``π_y (R_1(e_1) ⋈ … ⋈ R_n(e_n))`` over named attributes.
Relations inside one :class:`CQ` must have distinct *names* (self-joins
are modelled as distinct copies of the same logical stream, per §3.1:
"we consider them as two identical copies of R, and for any update to
R, we apply the update to both copies").
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable


@dataclass(frozen=True)
class Relation:
    """One atom ``R(e)``: a name plus an ordered tuple of attributes.

    ``stream`` names the logical input stream feeding this atom; two
    atoms sharing a ``stream`` are copies of the same relation
    (self-join). Defaults to ``name``.
    """

    name: str
    attrs: tuple[str, ...]
    stream: str | None = None

    def __post_init__(self) -> None:
        if len(set(self.attrs)) != len(self.attrs):
            raise ValueError(f"duplicate attribute in {self.name}{self.attrs}")
        if self.stream is None:
            object.__setattr__(self, "stream", self.name)

    @property
    def attr_set(self) -> frozenset[str]:
        return frozenset(self.attrs)


@dataclass(frozen=True)
class Selection:
    """A §7.2 atom selection ``attr op const``, pushed to the update stream.

    ``op`` is ``"%"`` (keep ``attr % const == 0``; FILTER OVER and the
    Fig. 12 sweep) or ``"is null"`` (keep ``attr IS NULL``; SNB's
    ``m_c_replyof``). A NULL attribute fails ``"%"``, as in SQL.
    """

    attr: str
    op: str
    const: int | None = None

    def __post_init__(self) -> None:
        modulus = self.op == "%" and isinstance(self.const, int) and self.const >= 1
        if not (modulus or (self.op == "is null" and self.const is None)):
            raise ValueError(f"unsupported selection: {self.attr} {self.op} {self.const!r}")

    def predicate(self, pos: int) -> Callable[[tuple], bool]:
        """The predicate over an atom tuple holding ``attr`` at ``pos``."""
        if self.op == "is null":
            return lambda t: t[pos] is None
        m = self.const
        return lambda t: t[pos] is not None and t[pos] % m == 0

    def column(self):
        """The same predicate as a Spark ``Column`` over ``attr``."""
        from pyspark.sql import functions as F

        c = F.col(self.attr)
        return c.isNull() if self.op == "is null" else c % self.const == 0


@dataclass(frozen=True)
class CQ:
    """A conjunctive query: atoms plus output attributes ``y``.

    ``output`` is ordered — enumeration and delta emission use this
    order. ``where`` holds ``(relation name, Selection)`` pairs, applied
    to incoming tuples of that relation (§7.2: selections cost O(1)
    and are pushed to the update stream). Each is bound once, at
    construction, to its atom's attribute position, and folded into the
    atom's admission rule (``admits``).
    """

    relations: tuple[Relation, ...]
    output: tuple[str, ...]
    name: str = "Q"
    where: tuple[tuple[str, Selection], ...] = ()
    _preds: dict[str, tuple[Callable[[tuple], bool], ...]] = field(
        init=False, repr=False, compare=False
    )
    _admits: dict[str, Callable[[tuple], bool]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = [r.name for r in self.relations]
        if len(set(names)) != len(names):
            raise ValueError(f"relation names must be distinct: {names}")
        missing = set(self.output) - self.all_attrs
        if missing:
            raise ValueError(f"output attrs {missing} not in any relation")
        preds: dict[str, tuple] = {}
        for rel, sel in self.where:
            attrs = self.relation(rel).attrs
            if sel.attr not in attrs:
                raise ValueError(f"selection on {sel.attr}: not an attribute of {rel}{attrs}")
            preds[rel] = preds.get(rel, ()) + (sel.predicate(attrs.index(sel.attr)),)
        object.__setattr__(self, "_preds", preds)
        seen = Counter(a for r in self.relations for a in r.attrs)
        object.__setattr__(self, "_admits", {
            r.name: _admitter(r, tuple(i for i, a in enumerate(r.attrs) if seen[a] > 1),
                              preds.get(r.name, ()))
            for r in self.relations
        })

    @property
    def all_attrs(self) -> frozenset[str]:
        return frozenset(a for r in self.relations for a in r.attrs)

    @property
    def output_set(self) -> frozenset[str]:
        return frozenset(self.output)

    @property
    def is_full(self) -> bool:
        """A full join query outputs every attribute (§3.1)."""
        return self.output_set == self.all_attrs

    def relation(self, name: str) -> Relation:
        for r in self.relations:
            if r.name == name:
                return r
        raise KeyError(name)

    @property
    def selections(self) -> tuple[tuple[str, Callable[[tuple], bool]], ...]:
        """Every compiled selection as ``(relation name, p)``, where
        ``p(atom tuple)`` is the predicate."""
        return tuple((rel, p) for rel, ps in self._preds.items() for p in ps)

    def selections_on(self, rel: str) -> tuple[Callable[[tuple], bool], ...]:
        """The compiled selections of one atom (empty when it has none)."""
        return self._preds.get(rel, ())

    def admits(self, rel: str) -> Callable[[tuple], bool]:
        """The predicate "a tuple of atom ``rel`` exists for the query at
        all": False when the tuple holds a NULL on an attribute shared
        with another atom (a NULL joins nothing, as in SQL) or fails one
        of the atom's selections. Every engine stores and propagates only the
        tuples it admits, so a rejected insert and its delete are both
        no-ops. A tuple whose length is not the atom's arity raises
        ``ValueError``."""
        return self._admits[rel]

    def atoms_of_stream(self, stream: str) -> list[Relation]:
        """All copies fed by one logical stream (self-join fan-out)."""
        return [r for r in self.relations if r.stream == stream]

    def hyperedges(self) -> list[frozenset[str]]:
        return [r.attr_set for r in self.relations]

    def with_output(self, output: Iterable[str]) -> "CQ":
        return CQ(self.relations, tuple(output), self.name, self.where)


def _admitter(atom: Relation, joins: tuple[int, ...], preds: tuple[Callable[[tuple], bool], ...]
              ) -> Callable[[tuple], bool]:
    """The admission rule of ``atom``, whose join attributes sit at
    ``joins`` and whose compiled selections are ``preds``; an atom with
    no selection gets the shorter lambda, as it is called per update. A
    tuple of the wrong arity raises ``ValueError``: it cannot be stored
    as a tuple of the atom, and a shorter one would silently join."""
    n = len(atom.attrs)

    def wrong(t: tuple) -> bool:
        raise ValueError(f"atom {atom.name}{atom.attrs} takes {n} values, got {len(t)}: {t!r}")

    if not preds:
        return lambda t: (len(t) == n or wrong(t)) and (
            None not in t or all(t[i] is not None for i in joins))
    sel = preds[0] if len(preds) == 1 else (lambda t: all(p(t) for p in preds))
    return lambda t: (len(t) == n or wrong(t)) and (
        None not in t or all(t[i] is not None for i in joins)) and sel(t)
