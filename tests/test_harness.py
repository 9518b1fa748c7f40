"""Tests for the bench harness utilities."""
import pytest
from pyspark.errors import PySparkException
from pyspark.sql import functions as F

from repro.bench import experiments
from repro.bench.dataset_stats import STAT_ROWS
from repro.bench.harness import Table, materialize, time_action


def test_table_accumulates_and_renders():
    t = Table("demo", ["a", "bbb"])
    t.add(1, 2.5)
    t.add(10, 0.125)
    assert "demo" in t.header()
    assert t.rows == [["1", "2.500"], ["10", "0.125"]]


def test_table_right_aligns_columns():
    t = Table("demo", ["x"])
    t.add(5)
    t.add(12345)
    assert t.rows == [["5"], ["12345"]]
    assert t.header().splitlines()[-2] == "         x"


def _offsets(printed: str) -> set[tuple[int, ...]]:
    """The column separator offsets of each printed table line."""
    lines = [ln for ln in printed.splitlines() if ln and not ln.startswith("== ")]
    return {tuple(i for i, ch in enumerate(ln) if ch in "|+") for ln in lines}


def test_every_printed_line_has_the_same_column_offsets(capsys, monkeypatch):
    """The header, the rule and every row, printed as they come, line
    up: a row wider than the column names, and Table IV's longest
    property label."""
    t = Table("demo", ["n", "nj_s"])
    print(t.header())
    t.add(2000, 0.5)
    t.add(24000, 12.25)
    assert len(_offsets(capsys.readouterr().out)) == 1

    monkeypatch.setattr(experiments, "_inputs", lambda spark, kind, n: (None,) * 3)
    monkeypatch.setattr(
        experiments, "dataset_stats", lambda r: {p: 19.149 for p in STAT_ROWS}
    )
    experiments.table4_dataset_stats("spark")
    printed = capsys.readouterr().out
    assert "avg_tuples_per_point |" in printed
    assert len(_offsets(printed)) == 1


def test_time_action_counts_and_times(spark):
    df = spark.range(1000)
    secs, rows = time_action(lambda: df, runs=1)
    assert rows == 1000 and secs > 0


def test_time_action_median_of_runs(spark):
    df = spark.range(10)
    secs, rows = time_action(lambda: df, runs=3)
    assert rows == 10 and secs > 0


def test_time_action_evaluates_every_column(spark):
    """The timed action computes every column, so a column that fails
    fails the timing: a ``count()`` would prune it and time nothing."""
    with pytest.raises(PySparkException, match="boom"):
        time_action(
            lambda: spark.range(3).select(F.expr("raise_error('boom')").alias("x"))
        )


def test_materialize_returns_cached_df(spark):
    df = materialize(spark.range(50))
    assert df.is_cached
    assert df.count() == 50
    df.unpersist()
