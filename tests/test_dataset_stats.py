"""Tests for the Table IV dataset statistics (checked against DuckDB)."""
import pytest

from repro.bench.dataset_stats import concurrency_profile, dataset_stats
from repro.synth_data import webkit_lite_pdf
from oracle import assert_equivalent
from util import paper_a, paper_b


@pytest.fixture()
def a_df(spark):
    return spark.createDataFrame(paper_a())


def test_stats_on_paper_relation_a(a_df):
    s = dataset_stats(a_df)
    assert s["cardinality"] == 2
    assert s["time_range"] == 10 - 2
    assert s["min_duration"] == 3
    assert s["max_duration"] == 6
    assert s["avg_duration"] == pytest.approx(4.5)
    assert s["num_facts"] == 2
    assert s["distinct_points"] == 4  # {2, 8, 7, 10}
    assert s["max_tuples_per_point"] == 2  # a1 and a2 overlap in [7,8)


def test_avg_tuples_per_point_weighted(a_df):
    # live counts: [2,7)->1 (5 points), [7,8)->2 (1), [8,10)->1 (2)
    s = dataset_stats(a_df)
    assert s["avg_tuples_per_point"] == pytest.approx((5 * 1 + 1 * 2 + 2 * 1) / 8)


def test_concurrency_profile_rows(a_df):
    prof = {(r["t"], r["next_t"]): r["live"] for r in concurrency_profile(a_df).collect()}
    assert prof == {(2, 7): 1, (7, 8): 2, (8, 10): 1}


def test_concurrency_profile_against_oracle(spark):
    """The sweep profile equals a brute-force DuckDB per-point count."""
    pdf = webkit_lite_pdf(120, seed=3)
    df = spark.createDataFrame(pdf)
    prof = concurrency_profile(df)
    # expand elementary intervals to time points and compare with a
    # direct per-point count from DuckDB
    from pyspark.sql import functions as F

    per_point = prof.select(
        F.explode(F.sequence(F.col("t"), F.col("next_t") - 1)).alias("t"),
        F.col("live").cast("long").alias("live"),
    ).where(F.col("live") > 0)
    assert_equivalent(
        per_point,
        """
        WITH points AS (SELECT unnest(range(ts, te)) AS t FROM r)
        SELECT t, count(*) AS live FROM points GROUP BY t
        """,
        r=pdf,
    )


def test_stats_against_oracle_base_aggregates(spark):
    pdf = webkit_lite_pdf(150, seed=5)
    df = spark.createDataFrame(pdf)
    s = dataset_stats(df)
    from pyspark.sql import functions as F

    got = spark.createDataFrame(
        [
            (
                s["cardinality"],
                s["min_duration"],
                s["max_duration"],
                float(s["avg_duration"]),
                s["num_facts"],
                s["distinct_points"],
            )
        ],
        "cardinality long, min_d long, max_d long, avg_d double, num_facts long,"
        " distinct_points long",
    )
    assert_equivalent(
        got,
        """
        SELECT count(*) AS cardinality,
               min(te - ts) AS min_d,
               max(te - ts) AS max_d,
               avg(te - ts) AS avg_d,
               count(DISTINCT file_path) AS num_facts,
               (SELECT count(DISTINCT t)
                FROM (SELECT ts AS t FROM r UNION ALL SELECT te FROM r)) AS distinct_points
        FROM r
        """,
        r=pdf,
    )
