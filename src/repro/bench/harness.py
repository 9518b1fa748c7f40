"""Timing harness for the evaluation tables.

Wall-clock timing of DataFrame pipelines, forced by a write to Spark's
``noop`` sink, and aligned table printing so ``python -m repro.bench
<table>`` emits the same rows the paper's figures plot. Inputs are
cached (``.cache()`` + materialize) before timing so a measurement
covers the operator under test, not the synthetic generator.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from pyspark.sql import DataFrame, Observation, functions as F


def materialize(df: DataFrame) -> DataFrame:
    """Cache ``df`` and force computation so later timings exclude it."""
    df = df.cache()
    df.count()
    return df


def time_action(build, *, runs: int = 1) -> tuple[float, int]:
    """Lower-median wall-clock seconds (and rows) of writing ``build()``
    to the ``noop`` sink, which evaluates every column, where a
    ``count()`` lets Catalyst prune the columns it does not need.

    An ``Observation`` counts the rows on the way. ``build`` must return
    a fresh DataFrame each call so Spark cannot reuse a cached result.
    """
    times = []
    for _ in range(runs):
        obs = Observation()
        t0 = time.perf_counter()
        df = build().observe(obs, F.count(F.lit(1)).alias("rows"))
        df.write.format("noop").mode("overwrite").save()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[(len(times) - 1) // 2], obs.get["rows"]


@dataclass
class Table:
    """An aligned, Markdown-ish results table accumulated row by row.

    Rows are printed as they are added, after :meth:`header`, so every
    column's width is fixed up front: at least ``width`` characters and
    the length of its name. A cell wider than that shifts the rest of
    its line.
    """

    title: str
    columns: list[str]
    width: int = 10
    rows: list[list[str]] = field(default_factory=list)

    def add(self, *values) -> None:
        formatted = [
            f"{v:.3f}" if isinstance(v, float) else str(v) for v in values
        ]
        self.rows.append(formatted)
        print(self._format_row(formatted))

    def _widths(self) -> list[int]:
        return [max(len(c), self.width) for c in self.columns]

    def _format_row(self, row: list[str]) -> str:
        return " | ".join(c.rjust(w) for c, w in zip(row, self._widths()))

    def header(self) -> str:
        rule = "-+-".join("-" * w for w in self._widths())
        return f"\n== {self.title} ==\n{self._format_row(self.columns)}\n{rule}"
