"""winit: the conventional θ∧overlap left outer join (paper §VI-A).

The overlapping windows of ``r`` with respect to ``s`` are computed by
ONE conventional left outer join ``r ⟕_{θ ∧ θo} s`` with the overlap
predicate ``θo : r.T ∩ s.T ≠ ∅`` — this is the single expensive node
of the NJ query tree (paper Fig. 10a) and is delegated entirely to
Catalyst, which plans it as a sort-merge join when θ has equality
terms (the WebKit workload) or a broadcast/loop join otherwise (the
Meteo workload), just as PostgreSQL's optimizer does in the paper.

Result schema (paper Fig. 5): for each r fact column ``c`` a column
``r_c``, plus ``r_lid``, ``r_p``, ``r_ts``, ``r_te`` (the tuple of the
positive relation), and for each s fact column ``c`` a column ``s_c``,
plus ``s_lid``, ``s_p`` (the matched negative tuple, null when ``r``
matched nothing), and the overlap interval ``[o_ts, o_te)``. A row
without a match is the one with a null ``s_lid`` (inputs with a null
lid are rejected); its ``o_ts``/``o_te`` hold the filler ``-1`` so the
interval columns stay non-null int64 through Arrow, but that value is
never read as "no match": a real overlap may start at -1.

NJ's full outer join uses :func:`full_winit` instead: one
``r ⟗_{θ ∧ θo} s`` whose rows feed both of its sweeps (r against s and
s against r) in the same winit roles, tagged by ``side``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, functions as F

from ..tp.model import TP_COLS, fact_columns
from .theta import Theta

NO_OVERLAP = -1  # filler o_ts/o_te of unmatched winit rows (null s_lid)


def prefixed(df: DataFrame, prefix: str) -> DataFrame:
    """Rename every column of ``df`` with ``prefix`` (join hygiene)."""
    return df.select(*(F.col(c).alias(prefix + c) for c in df.columns))


def winit_columns(r_facts: list[str], s_facts: list[str]) -> list[str]:
    """The column order of a winit DataFrame for the given fact columns."""
    return (
        [f"r_{c}" for c in r_facts]
        + ["r_lid", "r_p", "r_ts", "r_te"]
        + [f"s_{c}" for c in s_facts]
        + ["s_lid", "s_p", "o_ts", "o_te"]
    )


def _overlap_join(r: DataFrame, s: DataFrame, theta: Theta, how: str) -> DataFrame:
    """``r`` joined with ``s`` on θ ∧ overlap (``how``: "left" or
    "full"), every column prefixed by its side."""
    rr, ss = prefixed(r, "r_"), prefixed(s, "s_")
    cond = (
        theta.spark_condition(rr, ss, "r_", "s_")
        & (rr["r_ts"] < ss["s_te"])
        & (ss["s_ts"] < rr["r_te"])
    )
    return rr.join(ss, cond, how)


def _overlap(matched) -> list:
    """The ``o_ts``/``o_te`` columns of a joined row: the intersection
    of the two intervals, or the filler when ``matched`` is false."""
    return [
        F.when(matched, F.greatest("r_ts", "s_ts"))
        .otherwise(F.lit(NO_OVERLAP))
        .cast("long")
        .alias("o_ts"),
        F.when(matched, F.least("r_te", "s_te"))
        .otherwise(F.lit(NO_OVERLAP))
        .cast("long")
        .alias("o_te"),
    ]


def winit(r: DataFrame, s: DataFrame, theta: Theta) -> DataFrame:
    """``r ⟕_{θ ∧ θo} s`` — overlapping windows plus the unmatched
    windows of r tuples that overlap/match no s tuple at all.

    Exactly one Catalyst join; every downstream window set is derived
    from this result without touching ``r`` or ``s`` again (the core
    efficiency claim of the NJ approach).
    """
    r_facts, s_facts = fact_columns(r), fact_columns(s)
    joined = _overlap_join(r, s, theta, "left")
    return joined.select(
        *[joined[f"r_{c}"] for c in r_facts],
        "r_lid",
        "r_p",
        "r_ts",
        "r_te",
        *[joined[f"s_{c}"] for c in s_facts],
        "s_lid",
        "s_p",
        *_overlap(joined["s_lid"].isNotNull()),
    )


def full_winit(r: DataFrame, s: DataFrame, theta: Theta) -> DataFrame:
    """``r ⟗_{θ ∧ θo} s`` as the winit rows of both halves of the full
    outer join: r's groups against s, and s's groups against r.

    One Catalyst join, then one row per side a joined row holds, tagged
    ``side``: 0 for the r group (r positive, s negative), 1 for the s
    group (s positive, r negative). A matched pair yields both rows; an
    unmatched r or s tuple one row with the ``NO_OVERLAP`` filler.
    ``r_lid``/``r_p``/``r_ts``/``r_te`` hold the positive tuple and
    ``s_lid``/``s_p`` the negative one, as in :func:`winit`; the fact
    columns stay ``r_<c>``/``s_<c>`` on both sides.
    """
    r_facts, s_facts = fact_columns(r), fact_columns(s)
    joined = _overlap_join(r, s, theta, "full")
    has_r, has_s = joined["r_lid"].isNotNull(), joined["s_lid"].isNotNull()
    side = F.explode(
        F.array_compact(F.array(F.when(has_r, F.lit(0)), F.when(has_s, F.lit(1))))
    )
    x = joined.select("*", *_overlap(has_r & has_s), side.alias("side"))
    r_positive = F.col("side") == 0

    def positive(c: str):
        return F.when(r_positive, F.col(f"r_{c}")).otherwise(F.col(f"s_{c}"))

    def negative(c: str):
        return F.when(r_positive, F.col(f"s_{c}")).otherwise(F.col(f"r_{c}"))

    return x.select(
        "side",
        *[f"r_{c}" for c in r_facts],
        *[positive(c).alias(f"r_{c}") for c in ("lid", "p", "ts", "te")],
        *[f"s_{c}" for c in s_facts],
        negative("lid").alias("s_lid"),
        negative("p").alias("s_p"),
        "o_ts",
        "o_te",
    )
