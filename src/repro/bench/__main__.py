"""Run one evaluation table and print its rows.

Usage: python -m repro.bench <table> [args]

    table4 [n_tuples]          paper Table IV, dataset properties (default 20000)
    e1 [webkit|meteo|both]     Fig. 11, W_UO windows, NJ vs TA
    e2 [webkit|meteo|both]     Fig. 12, negating windows, NJ vs TA
    e3 [webkit|meteo|both]     Fig. 13, TP left outer join, NJ vs TA
    e4 [webkit|meteo|both]     Fig. 14, NJ left outer join breakdown
    e5                         Fig. 15, NJ scalability

The workload argument defaults to ``both``. Bad arguments print this
usage and exit with status 2 before Spark starts.
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
    warmup,
)

TABLES = {
    "table4": table4_dataset_stats,
    "e1": table_e1_wuo,
    "e2": table_e2_negating,
    "e3": table_e3_left_outer_join,
    "e4": table_e4_breakdown,
    "e5": table_e5_scalability,
}


KINDS = {"webkit": ("webkit",), "meteo": ("meteo",), "both": ("webkit", "meteo")}


def calls(table: str, args: list[str]) -> list[tuple] | None:
    """The arguments after the session that ``table`` runs with, one
    tuple per call, for its command-line ``args``; None if ``table`` or
    ``args`` are not valid."""
    if table == "table4":
        if not args:
            return [()]
        if len(args) == 1 and args[0].isdecimal() and int(args[0]) > 0:
            return [(int(args[0]),)]
    elif table == "e5":
        if not args:
            return [()]
    elif table in TABLES and len(args) <= 1:
        kinds = KINDS.get(args[0] if args else "both")
        if kinds:
            return [(kind,) for kind in kinds]
    return None


def run(spark, table: str, args: list[str]) -> None:
    """Run ``table`` with its command-line ``args``, checked by :func:`calls`."""
    for call in calls(table, args):
        TABLES[table](spark, *call)


def main(argv: list[str]) -> int:
    if not argv or calls(argv[0], argv[1:]) is None:
        print(__doc__, file=sys.stderr)
        return 2
    spark = spark_session(f"repro-{argv[0]}")
    spark.sparkContext.setLogLevel("ERROR")
    try:
        warmup(spark)
        run(spark, argv[0], argv[1:])
    finally:
        spark.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
