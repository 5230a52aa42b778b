"""Table 1 — query-processing engine feature matrix (regenerated)."""
import _common  # noqa: F401  (sys.path setup)

from repro.bench.harness import ENGINES, make_engine, print_table
from repro.bench.queries import hop4_proj


def main() -> None:
    bq = hop4_proj()
    rows = [make_engine(name, bq).capabilities() for name in ENGINES]
    for r in rows:
        for k in ("distributed", "full_enumeration", "delta_enumeration"):
            r[k] = "yes" if r[k] else "no"
    print_table(
        "Table 1: engine features",
        rows,
        ["system", "distributed", "full_enumeration", "delta_enumeration", "updates", "internal"],
    )


if __name__ == "__main__":
    main()
