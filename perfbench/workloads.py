"""The benchmark's workloads, their inputs and the output check.

Each workload is one ``negation_join(r, s, θ, op)`` call on inputs that
``repro.synth_data.tp_workload`` builds from the seed. Why each one is
in the benchmark is written in ``README.md`` next to this file.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame, Observation, SparkSession, functions as F

from repro.baselines.alignment import ta_negation_join
from repro.core.negation_joins import negation_join
from repro.core.reference import reference_negation_join
from repro.synth_data import tp_workload, tp_workload_pdf


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # synth_data workload kind: "webkit" or "meteo"
    n: int  # tuples per side
    op: str  # negation_join op
    n_check: int  # tuples per side of the reduced instance checked for output


WORKLOADS = {
    w.name: w
    for w in (
        Workload("webkit-left", "webkit", 160_000, "left", 200),
        Workload("meteo-left", "meteo", 16_000, "left", 100),
        Workload("webkit-full", "webkit", 160_000, "full", 200),
    )
}

# The reduced instance is a few hundred tuples; one shuffle partition
# runs each stage, and TA's many stages, as one task instead of dozens.
CHECK_SHUFFLE_PARTITIONS = "1"

# p is summed as round(p * 1e9) in int64 so that the digest is exact and
# does not depend on the order in which Spark adds partial sums.
P_SCALE = 1e9


def build_inputs(spark: SparkSession, w: Workload, n: int, seed: int):
    """Generate ``(r, s, θ)`` from the seed and cache both relations."""
    r, s, theta = tp_workload(spark, w.kind, n, seed=seed)
    r, s = r.cache(), s.cache()
    r.count(), s.count()
    return r, s, theta


def force(df: DataFrame) -> None:
    """Run the whole plan of ``df`` and discard its rows."""
    df.write.format("noop").mode("overwrite").save()


def run_with_digest(df: DataFrame) -> dict[str, int]:
    """Force ``df`` like a timed run and return its output digest.

    The digest is the row count, Σ p (scaled to integers), Σ (te − ts),
    the count of output tuples per window kind, which the lineage shape
    gives: ``r`` unmatched, ``r & s`` overlapping, ``r & ~…`` negating,
    and the most s tuples negated in one window, the LAWA_N active set
    (``max_negated``). The values are collected by ``Observation`` while
    the rows stream into the ``noop`` sink.
    """
    negating = F.col("lineage").contains("~")
    overlapping = ~negating & F.col("lineage").contains(" & ")
    obs = Observation("digest")
    force(
        df.observe(
            obs,
            F.count(F.lit(1)).alias("rows"),
            F.sum(F.round(F.col("p") * P_SCALE).cast("long")).alias("p_sum_e9"),
            F.sum(F.col("te") - F.col("ts")).alias("duration_sum"),
            F.sum(overlapping.cast("long")).alias("kind_o"),
            F.sum(negating.cast("long")).alias("kind_n"),
            F.max(
                F.when(negating, F.size(F.split("lineage", r" \| ")))
            ).alias("max_negated"),
        )
    )
    d = {k: int(v or 0) for k, v in obs.get.items()}
    d["kind_u"] = d["rows"] - d["kind_o"] - d["kind_n"]
    return d


def ta_mismatch(spark: SparkSession, w: Workload, seed: int) -> int:
    """Rows that NJ and the TA baseline disagree on, reduced instance.

    Both ``exceptAll`` directions are counted; 0 means the two operators
    return the same multiset of tuples. p is compared at 9 decimals
    because the two operators multiply probabilities in different
    orders.
    """
    partitions = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", CHECK_SHUFFLE_PARTITIONS)
    r, s, theta = build_inputs(spark, w, w.n_check, seed)
    nj = negation_join(r, s, theta, w.op).withColumn("p", F.round("p", 9)).cache()
    ta = ta_negation_join(r, s, theta, w.op).withColumn("p", F.round("p", 9)).cache()
    mismatch = nj.exceptAll(ta).count() + ta.exceptAll(nj).count()
    for df in (nj, ta, r, s):
        df.unpersist()
    spark.conf.set("spark.sql.shuffle.partitions", partitions)
    return mismatch


def _multiset(pdf: pd.DataFrame) -> Counter:
    """The rows of ``pdf`` as a multiset; nulls become None and p is
    rounded to 9 decimals, as in the TA check."""
    pdf = pdf.assign(p=pdf["p"].round(9)).astype(object)
    return Counter(
        tuple(None if pd.isna(v) else v for v in row)
        for row in pdf.itertuples(index=False)
    )


def reference_mismatch(spark: SparkSession, w: Workload, seed: int) -> int:
    """Rows that NJ and the snapshot reference disagree on, reduced instance.

    ``repro.core.reference`` computes the join per time point in pandas,
    with no windows, sweeps or joins, so it shares no code path with NJ
    beyond the lineage and probability functions. Both multiset
    differences are counted; 0 means the same tuples.
    """
    r_pdf, s_pdf, theta = tp_workload_pdf(w.kind, w.n_check, seed=seed)
    partitions = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", CHECK_SHUFFLE_PARTITIONS)
    try:
        r, s = spark.createDataFrame(r_pdf), spark.createDataFrame(s_pdf)
        nj = negation_join(r, s, theta, w.op).toPandas()
    finally:
        spark.conf.set("spark.sql.shuffle.partitions", partitions)
    ref = reference_negation_join(r_pdf, s_pdf, theta, w.op)
    if list(nj.columns) != list(ref.columns):
        return len(nj) + len(ref)
    got, want = _multiset(nj), _multiset(ref)
    return sum(((got - want) + (want - got)).values())
