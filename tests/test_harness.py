"""Tests for the bench harness utilities."""
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
    assert t.header().splitlines()[-2] == "    x"


def test_time_action_counts_and_times(spark):
    df = spark.range(1000)
    secs, rows = time_action(lambda: df, runs=1)
    assert rows == 1000 and secs > 0


def test_time_action_median_of_runs(spark):
    df = spark.range(10)
    secs, rows = time_action(lambda: df, runs=3)
    assert rows == 10 and secs > 0


def test_materialize_returns_cached_df(spark):
    df = materialize(spark.range(50))
    assert df.is_cached
    assert df.count() == 50
    df.unpersist()
