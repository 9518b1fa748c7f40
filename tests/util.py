"""Shared helpers for the test suite."""
from __future__ import annotations

import re

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.synth_data import _chain_intervals
from repro.tp.model import TP_COLS, fact_columns

# ---------------------------------------------------------------------------
# TP relations from rows, and their validation
# ---------------------------------------------------------------------------


def tp_pdf(rows, fact_cols: list[str]) -> pd.DataFrame:
    """Build a pandas TP relation from ``(fact..., lid, ts, te, p)`` rows."""
    cols = list(fact_cols) + list(TP_COLS)
    pdf = pd.DataFrame(list(rows), columns=cols)
    pdf["ts"] = pdf["ts"].astype("int64")
    pdf["te"] = pdf["te"].astype("int64")
    pdf["p"] = pdf["p"].astype("float64")
    return pdf


def tp_relation(spark: SparkSession, rows, fact_cols: list[str]) -> DataFrame:
    """Build a Spark TP relation from ``(fact..., lid, ts, te, p)`` rows:
    fact columns followed by the TP annotation columns."""
    return spark.createDataFrame(tp_pdf(rows, fact_cols))


def validate_tp_pdf(pdf: pd.DataFrame) -> None:
    """Raise ``ValueError`` unless ``pdf`` is a well-formed TP relation.

    Checks schema presence, interval sanity (``ts < te``), probability
    domain ``(0, 1]``, lid uniqueness, and duplicate-freeness: the
    intervals of any two tuples with the same fact must not overlap
    (paper Section III).
    """
    for c in TP_COLS:
        if c not in pdf.columns:
            raise ValueError(f"missing TP column {c!r}")
    if (pdf["ts"] >= pdf["te"]).any():
        bad = pdf[pdf["ts"] >= pdf["te"]]
        raise ValueError(f"empty/inverted intervals:\n{bad}")
    if ((pdf["p"] <= 0) | (pdf["p"] > 1)).any():
        raise ValueError("probabilities must lie in (0, 1]")
    if pdf["lid"].duplicated().any():
        dups = pdf.loc[pdf["lid"].duplicated(), "lid"].tolist()
        raise ValueError(f"duplicate base-tuple ids: {dups}")
    facts = fact_columns(pdf)
    if facts:
        ordered = pdf.sort_values(facts + ["ts"])
        same_fact = (
            (ordered[facts] == ordered[facts].shift()).all(axis=1)
            if len(facts) > 1
            else ordered[facts[0]].eq(ordered[facts[0]].shift())
        )
        overlaps = same_fact & (ordered["ts"] < ordered["te"].shift())
        if overlaps.any():
            raise ValueError(
                "relation is not duplicate-free: overlapping intervals "
                f"for equal facts\n{ordered[overlaps]}"
            )


# ---------------------------------------------------------------------------
# small random TP relations for property tests
# ---------------------------------------------------------------------------

def random_tp_pdf(n: int, *, n_facts: int = 3, t_max: int = 30,
                  seed: int = 0, lid_prefix: str = "a",
                  null_frac: float = 0.0) -> pd.DataFrame:
    """Small random TP relation for property tests (single fact column).

    Per-fact chains with random gaps, so intervals may be adjacent,
    disjoint, or absent — duplicate-free by construction. With
    ``null_frac`` > 0, about that share of the ``k`` values is null (a
    θ key that matches nothing, so null-keyed tuples may overlap); the
    other columns, and all columns at the default 0, are the same as
    without it.
    """
    g = np.random.default_rng(seed)
    fact = g.integers(0, n_facts, n)
    dur = g.integers(1, max(2, t_max // 4), n)
    gap = g.integers(0, max(1, t_max // 4), n)
    # each tuple owns a slot of dur+gap in its fact's chain and is
    # valid over the first dur time points of it, leaving random holes
    pdf = pd.DataFrame({"k": fact, "dur": dur + gap, "valid": dur})
    starts = g.integers(0, t_max, n_facts)
    pdf = _chain_intervals(pdf, starts, "k")
    pdf["te"] = (pdf["ts"] + pdf["valid"]).astype("int64")
    pdf = pdf.drop(columns=["valid"])
    pdf["k"] = "k" + pdf["k"].astype(str)
    pdf["lid"] = [f"{lid_prefix}{i}" for i in range(len(pdf))]
    pdf["p"] = (0.05 + 0.9 * g.random(len(pdf))).round(4)
    if null_frac:
        pdf["k"] = pdf["k"].where(g.random(len(pdf)) >= null_frac, None)
    return pdf[["k", "lid", "ts", "te", "p"]]


# ---------------------------------------------------------------------------
# the paper's running example (Fig. 1a)
# ---------------------------------------------------------------------------

def paper_a() -> pd.DataFrame:
    return tp_pdf(
        [("Ann", "ZAK", "a1", 2, 8, 0.7), ("Jim", "WEN", "a2", 7, 10, 0.8)],
        ["name", "loc"],
    )


def paper_b() -> pd.DataFrame:
    return tp_pdf(
        [
            ("hotel3", "SOR", "b1", 1, 4, 0.9),
            ("hotel2", "ZAK", "b2", 5, 8, 0.6),
            ("hotel1", "ZAK", "b3", 4, 6, 0.7),
        ],
        ["hotel", "loc"],
    )


# ---------------------------------------------------------------------------
# canonical row sets for frame comparison
# ---------------------------------------------------------------------------

def _cell(v):
    if isinstance(v, (list, tuple)) or type(v).__name__ == "ndarray":
        return tuple(_cell(x) for x in v)
    if v is None or (isinstance(v, float) and v != v):
        return "·"
    return v


def norm(records) -> list[tuple]:
    """Normalize+sort plain tuples the same way :func:`rows` does."""
    normalized = [tuple(_cell(v) for v in r) for r in records]
    return sorted(normalized, key=lambda r: tuple(map(str, r)))


def rows(df, round_p: int = 9) -> list[tuple]:
    """Canonical sorted row tuples of a Spark or pandas DataFrame.

    NaN/None are normalized to the marker '·', array cells to tuples,
    and probabilities are rounded so float association order does not
    break equality. Sorting is by stringified cells so heterogeneous
    columns (nulls vs ints) stay comparable.
    """
    pdf = df.toPandas() if hasattr(df, "toPandas") else df.copy()
    if "p" in pdf.columns:
        pdf["p"] = pdf["p"].astype(float).round(round_p)
    return norm(map(tuple, pdf.itertuples(index=False)))


# ---------------------------------------------------------------------------
# brute-force window expectations (independent of the sweeps under test)
# ---------------------------------------------------------------------------

def expected_gaps(r_ts: int, r_te: int, overlaps: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Maximal subintervals of [r_ts, r_te) covered by no overlap."""
    covered = set()
    for o_ts, o_te in overlaps:
        covered.update(range(o_ts, o_te))
    gaps, start = [], None
    for t in range(r_ts, r_te):
        if t not in covered:
            if start is None:
                start = t
        elif start is not None:
            gaps.append((start, t))
            start = None
    if start is not None:
        gaps.append((start, r_te))
    return gaps


def expected_negating(
    overlaps: list[tuple[int, int, str]]
) -> list[tuple[int, int, tuple[str, ...]]]:
    """Maximal intervals with a constant non-empty active lid set."""
    if not overlaps:
        return []
    lo = min(o[0] for o in overlaps)
    hi = max(o[1] for o in overlaps)
    out: list[tuple[int, int, tuple[str, ...]]] = []
    run_start, run_set = None, None
    for t in range(lo, hi + 1):
        active = tuple(sorted(l for o_ts, o_te, l in overlaps if o_ts <= t < o_te))
        if active != run_set or t == hi:
            if run_set:
                out.append((run_start, t, run_set))
            run_start, run_set = t, active
    return out


# ---------------------------------------------------------------------------
# executed plans
# ---------------------------------------------------------------------------

def plan_nodes(df) -> list[list[str]]:
    """``[name, rest of the line]`` per node of the executed plan."""
    plan = df._jdf.queryExecution().executedPlan()
    return [
        re.sub(r"^[\s:|+-]*(\*\(\d+\)\s*)?", "", line).split(" ", 1)
        for line in plan.toString().splitlines()
    ]


def joins(nodes) -> list[list[str]]:
    return [n for n in nodes if n[0].endswith("Join") or n[0] == "CartesianProduct"]
