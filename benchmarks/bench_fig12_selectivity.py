"""Fig. 12 — runtime vs selectivity of the last-hop filter.

3-Hop with FILTER OVER (G3.dst) at varying keep-fractions. Paper
shape: CROWN's cost tracks input+output size (falls with selectivity);
standard CP / HIVM stay pinned to |G1 ⋈ G2|, which the filter does not
shrink.
"""
import pytest

from repro.bench.harness import graph_stream, run_engine
from repro.bench.queries import hop3_full, keep_pct
from repro.core.baseline_cp import StandardCPEngine
from repro.core.engine import CrownEngine
from repro.core.hivm import FirstOrderHIVMEngine

KEEP = [1, 10, 50]  # percent of endpoint values kept


@pytest.mark.parametrize("engine", ["crown", "flink_cp", "dbtoaster_hivm"])
@pytest.mark.parametrize("pct", KEEP)
def test_fig12_selectivity(benchmark, pct, engine):
    cq = keep_pct(hop3_full(), pct)
    seq = graph_stream(sf=0.004, window=500)

    def once():
        eng = {
            "crown": lambda: CrownEngine(cq),
            "flink_cp": lambda: StandardCPEngine(cq),
            "dbtoaster_hivm": lambda: FirstOrderHIVMEngine(cq),
        }[engine]()
        return run_engine(eng, seq, engine, cq.name)

    res = benchmark.pedantic(once, rounds=1, iterations=1)
    benchmark.extra_info.update(deltas=res.deltas, space=res.space_rows)
