"""Synthetic temporal-probabilistic relations at a configurable size.

Stand-ins for the paper's WebKit and Meteo workloads. Generators are
deterministic in ``seed`` so the reference implementation and the
DuckDB oracle see identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import SparkSession


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Temporal-probabilistic workloads (ICDE'19 outer/anti join reproduction)
# ---------------------------------------------------------------------------
#
# The paper evaluates on two real datasets we cannot download (WebKit
# SVN history; Meteo Swiss measurements). The generators below build
# synthetic equivalents that preserve the properties the evaluation
# turns on — see DESIGN.md §4 for the substitution argument:
#
# - webkit_lite: many distinct facts (~0.32·n), θ = fact equality →
#   highly selective equi-join (PostgreSQL picked a merge join; Spark
#   plans a SortMergeJoin);
# - meteo_lite: 80 stations × 4 metrics = 320 fact series over a
#   shared time range, θ = same metric ∧ different station → weakly
#   selective join with dozens of valid matching tuples per output
#   interval (PostgreSQL fell back to a nested loop).
#
# Each relation is a chain of adjacent intervals per fact (as in both
# real datasets: "periods while unchanged" / merged measurement runs),
# which guarantees duplicate-freeness by construction. The second
# relation of each workload pair re-chains the same facts from shifted
# start points, mirroring the paper's shifted-interval copies.


def _chain_intervals(pdf: pd.DataFrame, starts: np.ndarray, key: str) -> pd.DataFrame:
    """Lay out each fact's tuples as an adjacent interval chain.

    ``starts`` holds one chain start per distinct ``key`` value;
    ``pdf['dur']`` the tuple durations. Returns ``pdf`` with int64
    ``ts``/``te`` columns added, duplicate-free per fact.
    """
    pdf = pdf.sort_values([key]).reset_index(drop=True)
    offset = pdf.groupby(key)["dur"].cumsum() - pdf["dur"]
    pdf["ts"] = (starts[pdf[key].to_numpy()] + offset).astype("int64")
    pdf["te"] = (pdf["ts"] + pdf["dur"]).astype("int64")
    return pdf.drop(columns=["dur"])


def webkit_lite_pdf(n: int, *, seed: int = 0, lid_prefix: str = "a",
                    shift: float = 0.0) -> pd.DataFrame:
    """WebKit-like TP relation: ~0.32·n facts, skewed durations.

    Schema: ``(file_path, lid, ts, te, p)``. ``shift`` displaces every
    chain start by ``shift``·(time range) on average — used to build
    the paper's "second relation" with the same facts and interval
    lengths but shifted positions.
    """
    g = _rng(seed)
    n_facts = max(1, int(n * 0.32))
    fact = g.integers(0, n_facts, n)
    dur = np.maximum(1, g.lognormal(3.0, 1.5, n)).astype("int64")
    time_range = max(10, 3 * n)
    starts = g.integers(0, time_range, n_facts)
    if shift:
        starts = starts + g.integers(0, max(1, int(shift * time_range)), n_facts)
    pdf = pd.DataFrame({"file_path": fact, "dur": dur})
    pdf = _chain_intervals(pdf, starts, "file_path")
    pdf["file_path"] = "f" + pdf["file_path"].astype(str)
    pdf["lid"] = [f"{lid_prefix}{i}" for i in range(len(pdf))]
    pdf["p"] = (0.5 + 0.5 * g.random(len(pdf))).round(6)
    return pdf[["file_path", "lid", "ts", "te", "p"]]


METEO_STATIONS, METEO_METRICS = 80, 4


def meteo_lite_pdf(n: int, *, seed: int = 0, lid_prefix: str = "a",
                   shift: float = 0.0) -> pd.DataFrame:
    """Meteo-like TP relation: few fact series over a shared range.

    Schema: ``(station_id, value_id, lid, ts, te, p)``. The joint time
    range is ~0.3·n so that a tuple θ-matches (same metric, different
    station) a few dozen overlapping tuples — the low-selectivity
    regime that blows up the paper's Meteo runtimes.
    """
    g = _rng(seed)
    n_series = METEO_STATIONS * METEO_METRICS
    series = g.integers(0, n_series, n)
    dur = np.maximum(1, g.lognormal(2.5, 1.0, n)).astype("int64")
    chain_span = max(1.0, (n / n_series) * 20.0)
    time_range = max(10, int(5 * chain_span))
    starts = g.integers(0, time_range, n_series)
    if shift:
        starts = starts + g.integers(0, max(1, int(shift * time_range)), n_series)
    pdf = pd.DataFrame({"series": series, "dur": dur})
    pdf = _chain_intervals(pdf, starts, "series")
    pdf["station_id"] = (pdf["series"] // METEO_METRICS).astype("int64")
    pdf["value_id"] = (pdf["series"] % METEO_METRICS).astype("int64")
    pdf["lid"] = [f"{lid_prefix}{i}" for i in range(len(pdf))]
    pdf["p"] = (0.5 + 0.5 * g.random(len(pdf))).round(6)
    return pdf[["station_id", "value_id", "lid", "ts", "te", "p"]]


def tp_workload(spark: SparkSession, kind: str, n: int, *, seed: int = 0):
    """Build the (r, s, θ) triple of a paper workload at size ``n``.

    ``kind`` is ``"webkit"`` or ``"meteo"``. Both relations have ``n``
    tuples; ``s`` is the shifted re-chaining of the same facts.
    Returns ``(r, s, theta)`` with Spark DataFrames.
    """
    r_pdf, s_pdf, theta = tp_workload_pdf(kind, n, seed=seed)
    return spark.createDataFrame(r_pdf), spark.createDataFrame(s_pdf), theta


def tp_workload_pdf(kind: str, n: int, *, seed: int = 0):
    """Pandas variant of :func:`tp_workload` (for oracle/reference use)."""
    from repro.core.theta import Theta

    if kind == "webkit":
        r = webkit_lite_pdf(n, seed=seed, lid_prefix="a")
        s = webkit_lite_pdf(n, seed=seed + 1000, lid_prefix="b", shift=0.3)
        theta = Theta.equi("file_path")
    elif kind == "meteo":
        r = meteo_lite_pdf(n, seed=seed, lid_prefix="a")
        s = meteo_lite_pdf(n, seed=seed + 1000, lid_prefix="b", shift=0.3)
        theta = Theta.of(
            ("value_id", "=", "value_id"), ("station_id", "!=", "station_id")
        )
    else:
        raise ValueError(f"unknown workload kind {kind!r}")
    return r, s, theta
