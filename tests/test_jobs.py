"""Smoke tests: every experiment function runs end-to-end (tiny sizes).

``python -m repro.bench <table>`` is a thin argv dispatcher around
these functions; running the functions in-process exercises the same
code paths without paying a Spark start-up per table.
"""
from types import SimpleNamespace

import pytest

from repro.bench import __main__ as bench_main, experiments
from repro.bench.experiments import (
    table4_dataset_stats,
    table_e1_wuo,
    table_e2_negating,
    table_e3_left_outer_join,
    table_e4_breakdown,
    table_e5_scalability,
)

TINY = (60,)


def test_table4_runs(spark):
    t = table4_dataset_stats(spark, n=200)
    assert len(t.rows) == 9  # one row per Table IV property
    assert t.rows[0][0] == "cardinality"


@pytest.mark.parametrize("kind", ["webkit", "meteo"])
def test_e1_runs(spark, kind):
    t = table_e1_wuo(spark, kind, sizes=TINY)
    assert len(t.rows) == 1
    assert int(t.rows[0][0]) == TINY[0]


@pytest.mark.parametrize("kind", ["webkit", "meteo"])
def test_e2_runs(spark, kind):
    t = table_e2_negating(spark, kind, sizes=TINY)
    assert len(t.rows) == 1


@pytest.mark.parametrize("kind", ["webkit", "meteo"])
def test_e3_runs(spark, kind):
    t = table_e3_left_outer_join(spark, kind, sizes=TINY)
    assert len(t.rows) == 1
    assert int(t.rows[0][4]) > 0  # produced output rows


@pytest.mark.parametrize("kind", ["webkit", "meteo"])
def test_e4_runs_and_percentages_sum(spark, kind):
    t = table_e4_breakdown(spark, kind, sizes=TINY)
    clj, wuo_pct, wn_pct = (float(x) for x in t.rows[0][2:5])
    assert clj + wuo_pct + wn_pct == pytest.approx(100.0, abs=0.1)


def test_e2_prints_no_negative_or_infinite_wn(monkeypatch, capsys):
    """Where all-windows times faster than W_UO, the difference is noise:
    NJ-WN and TA/NJ-WN read ``n/a``, not 0 ms and ``inf``."""
    cached = SimpleNamespace(unpersist=lambda: None)
    monkeypatch.setattr(experiments, "_inputs", lambda spark, kind, n: (cached,) * 3)
    for name in ("all_windows", "wuo", "ta_nu"):
        monkeypatch.setattr(experiments, name, lambda r, s, theta, name=name: name)
    secs = {"all_windows": 0.9, "wuo": 1.0, "ta_nu": 2.0}
    monkeypatch.setattr(
        experiments, "time_action", lambda build, runs: (secs[build()], 5)
    )
    t = table_e2_negating("spark", "webkit", sizes=TINY)
    assert t.rows == [["60", "n/a", "900", "2000", "2.222", "n/a"]]
    assert "inf" not in capsys.readouterr().out


def test_e5_runs(spark):
    t = table_e5_scalability(spark, sizes_webkit=(60,), sizes_meteo=(60,))
    assert [r[0] for r in t.rows] == ["webkit", "meteo"]


def test_every_table_dispatches(monkeypatch):
    """``python -m repro.bench <table>`` reaches each table's function
    with its arguments (no Spark: the functions are stubbed)."""
    calls = []
    for name in bench_main.TABLES:
        monkeypatch.setitem(
            bench_main.TABLES, name, lambda *a, name=name: calls.append((name, a))
        )
    for name in bench_main.TABLES:
        bench_main.run("spark", name, [])
    bench_main.run("spark", "table4", ["200"])
    bench_main.run("spark", "e1", ["meteo"])
    assert calls == [
        ("table4", ("spark",)),
        *[(e, ("spark", kind)) for e in ("e1", "e2", "e3", "e4")
          for kind in ("webkit", "meteo")],
        ("e5", ("spark",)),
        ("table4", ("spark", 200)),
        ("e1", ("spark", "meteo")),
    ]
    assert bench_main.main(["nope"]) == 2


@pytest.mark.parametrize(
    "argv",
    [[], ["nope"], ["e1", "foo"], ["e1", "webkit", "meteo"], ["table4", "abc"],
     ["table4", "0"], ["e5", "x"]],
    ids=lambda argv: " ".join(argv) or "none",
)
def test_bad_arguments_fail_before_spark_starts(monkeypatch, capsys, argv):
    """Bad arguments print the usage and exit with 2 without starting a
    session, instead of failing after Spark and the warm-up joins ran."""

    def no_session(app):
        raise AssertionError(f"started a session for {argv}")

    monkeypatch.setattr(bench_main, "spark_session", no_session)
    assert bench_main.main(argv) == 2
    assert "Usage: python -m repro.bench" in capsys.readouterr().err
