"""Table 1 — query-processing engine feature matrix (regenerated)."""
import _common  # noqa: F401  (sys.path setup)

from repro.bench.harness import ENGINES, TABLE1, print_table


def main() -> None:
    rows = [dict(TABLE1[name]) for name in ENGINES]
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
