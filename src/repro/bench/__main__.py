"""Run one evaluation table and print its rows.

Usage: python -m repro.bench <table> [args]

    table4 [n_tuples]          paper Table IV, dataset properties (default 20000)
    e1 [webkit|meteo|both]     Fig. 11, W_UO windows, NJ vs TA
    e2 [webkit|meteo|both]     Fig. 12, negating windows, NJ vs TA
    e3 [webkit|meteo|both]     Fig. 13, TP left outer join, NJ vs TA
    e4 [webkit|meteo|both]     Fig. 14, NJ left outer join breakdown
    e5                         Fig. 15, NJ scalability

The workload argument defaults to ``both``.
"""
from __future__ import annotations

import sys

from ..session import spark_session
from .experiments import (
    table4_dataset_stats,
    table_e1_wuo,
    table_e2_negating,
    table_e3_left_outer_join,
    table_e4_breakdown,
    table_e5_scalability,
)

TABLES = {
    "table4": table4_dataset_stats,
    "e1": table_e1_wuo,
    "e2": table_e2_negating,
    "e3": table_e3_left_outer_join,
    "e4": table_e4_breakdown,
    "e5": table_e5_scalability,
}


def run(spark, table: str, args: list[str]) -> None:
    """Run ``table`` with its command-line ``args``."""
    fn = TABLES[table]
    if table == "table4":
        fn(spark, *map(int, args))
    elif table == "e5":
        fn(spark)
    else:
        which = args[0] if args else "both"
        for kind in ("webkit", "meteo") if which == "both" else (which,):
            fn(spark, kind)


def main(argv: list[str]) -> int:
    if not argv or argv[0] not in TABLES:
        print(__doc__, file=sys.stderr)
        return 2
    spark = spark_session(f"repro-{argv[0]}")
    spark.sparkContext.setLogLevel("ERROR")
    try:
        run(spark, argv[0], argv[1:])
    finally:
        spark.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
