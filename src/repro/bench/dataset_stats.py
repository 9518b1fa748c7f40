"""Dataset property statistics — paper Table IV.

Computes, for a TP relation, the properties the paper reports for the
WebKit and Meteo datasets: cardinality, time range, min/max/avg tuple
duration, number of distinct facts, number of distinct interval
boundary points, and the max/avg number of tuples valid per time
point.

The per-time-point tuple counts are computed without expanding time
points: each tuple contributes a ``+1`` event at ``ts`` and a ``-1``
event at ``te``; a running sum over the event timeline (a window
aggregate over a global sort) gives the number of valid tuples in
every elementary interval, and the max/average follow by weighting
each elementary interval with its length — a join-aggregation-sort
pipeline that stays in Catalyst end to end.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Window, functions as F

from ..tp.model import fact_columns

STAT_ROWS = (
    "cardinality",
    "time_range",
    "min_duration",
    "max_duration",
    "avg_duration",
    "num_facts",
    "distinct_points",
    "max_tuples_per_point",
    "avg_tuples_per_point",
)


def concurrency_profile(df: DataFrame) -> DataFrame:
    """Elementary intervals of the event timeline with their live count.

    Returns ``(t, next_t, live)``: between ``t`` (inclusive) and
    ``next_t`` (exclusive) exactly ``live`` tuples of ``df`` are valid.
    """
    events = df.select(F.col("ts").alias("t"), F.lit(1).alias("delta")).unionAll(
        df.select(F.col("te").alias("t"), F.lit(-1).alias("delta"))
    )
    per_point = events.groupBy("t").agg(F.sum("delta").alias("delta"))
    w = Window.orderBy("t").rowsBetween(Window.unboundedPreceding, 0)
    profile = per_point.select(
        "t",
        F.sum("delta").over(w).alias("live"),
        F.lead("t").over(Window.orderBy("t")).alias("next_t"),
    )
    return profile.where(F.col("next_t").isNotNull()).select("t", "next_t", "live")


def dataset_stats(df: DataFrame) -> dict[str, float]:
    """The Table IV property block for one TP relation."""
    facts = fact_columns(df)
    base = df.agg(
        F.count(F.lit(1)).alias("cardinality"),
        (F.max("te") - F.min("ts")).alias("time_range"),
        F.min(F.col("te") - F.col("ts")).alias("min_duration"),
        F.max(F.col("te") - F.col("ts")).alias("max_duration"),
        F.avg(F.col("te") - F.col("ts")).alias("avg_duration"),
        F.count_distinct(*[F.col(c) for c in facts]).alias("num_facts"),
    ).first()
    prof = concurrency_profile(df)
    conc = prof.agg(
        F.count(F.lit(1)).alias("intervals"),
        F.max("live").alias("max_live"),
        (
            F.sum(F.col("live") * (F.col("next_t") - F.col("t")))
            / F.sum(
                F.when(F.col("live") > 0, F.col("next_t") - F.col("t")).otherwise(
                    F.lit(0)
                )
            )
        ).alias("avg_live"),
    ).first()
    return {
        "cardinality": int(base["cardinality"]),
        "time_range": int(base["time_range"]),
        "min_duration": int(base["min_duration"]),
        "max_duration": int(base["max_duration"]),
        "avg_duration": float(base["avg_duration"]),
        "num_facts": int(base["num_facts"]),
        # the profile has one row per distinct point but the last
        "distinct_points": int(conc["intervals"]) + 1,
        "max_tuples_per_point": int(conc["max_live"]),
        "avg_tuples_per_point": float(conc["avg_live"]),
    }
