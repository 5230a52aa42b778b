"""Fig. 9 — maintenance cost vs enclosureness λ.

Nested sequences with dialled λ on the Theorem-6.7 query
π_{x1}(R1(x1,x2) ⋈ R2(x2)); output disabled as in the paper. The shape
to reproduce: cost grows ~linearly with λ.
"""
import pytest

from repro.bench.queries import r2_under_r1, thm67
from repro.core.enclosure import nested_sequence
from repro.core.engine import CrownEngine

LAMBDAS = [1, 4, 16, 64]


@pytest.mark.parametrize("lam", LAMBDAS)
def test_fig9_lambda(benchmark, lam):
    cq = thm67()
    tree = r2_under_r1(cq)
    seq = list(nested_sequence("R1", "R2", lam, scale=4))

    def once():
        eng = CrownEngine(cq, tree, emit_deltas=False)
        eng.run(seq)
        return eng

    eng = benchmark.pedantic(once, rounds=2, iterations=1)
    benchmark.extra_info.update(
        updates=eng.stats["updates"],
        counter_changes=eng.stats["counter_changes"],
        per_update=round(
            eng.stats["counter_changes"] / max(1, eng.stats["updates"]), 2
        ),
    )
