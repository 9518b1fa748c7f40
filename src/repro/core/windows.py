"""winit: the conventional θ∧overlap outer join (paper §VI-A).

The overlapping windows of ``r`` with respect to ``s`` are computed by
ONE conventional outer join of ``r`` and ``s`` on θ and the overlap
predicate ``θo : r.T ∩ s.T ≠ ∅`` — this is the single expensive node
of the NJ query tree (paper Fig. 10a) and is delegated entirely to
Catalyst, which plans it as a sort-merge join when θ has an equality
term and as a broadcast nested loop join only when it has none, as
PostgreSQL's optimizer chooses merge or nested loop join in the paper.
Both workloads plan a sort-merge join: WebKit's key, ``file_path``,
has about 0.32·n distinct values, while Meteo's, ``value_id``, has 4,
so its join tests every same-key pair.

Result schema (paper Fig. 5): ``r_lid``, ``r_p``, ``r_ts``, ``r_te``
hold the tuple of the positive relation and ``s_lid``, ``s_p`` the
matched negative tuple (null when the positive tuple matched nothing),
plus the overlap interval ``[o_ts, o_te)``. For each r fact column
``c`` there is a column ``r_c`` and for each s fact column a column
``s_c``, whichever side is positive. A row without a match is the one
with a null ``s_lid`` (inputs with a null lid are rejected); its
``o_ts``/``o_te`` hold the filler ``-1`` so the interval columns stay
non-null int64 through Arrow, but that value is never read as "no
match": a real overlap may start at -1.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, functions as F

from ..tp.model import fact_columns
from .theta import Theta

NO_OVERLAP = -1  # filler o_ts/o_te of unmatched winit rows (null s_lid)


def prefixed(df: DataFrame, prefix: str) -> DataFrame:
    """Rename every column of ``df`` with ``prefix`` (join hygiene)."""
    return df.select(*(F.col(c).alias(prefix + c) for c in df.columns))


def _overlap_join(r: DataFrame, s: DataFrame, theta: Theta, how: str) -> DataFrame:
    """``r`` joined with ``s`` on θ ∧ overlap (``how``: "left", "right"
    or "full"), every column prefixed by its side."""
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


def winit(r: DataFrame, s: DataFrame, theta: Theta, how: str = "left") -> DataFrame:
    """The winit rows of one θ∧overlap outer join of ``r`` and ``s``.

    - ``"left"``: ``r ⟕_{θ ∧ θo} s``, r positive — the overlapping
      windows of r plus one row for each r tuple that matches nothing.
    - ``"right"``: ``r ⟖_{θ ∧ θo} s``, s positive.
    - ``"full"``: ``r ⟗_{θ ∧ θo} s``, one row per side a joined row
      holds, tagged ``side``: 0 for the r group (r positive), 1 for
      the s group (s positive). A matched pair yields both rows.

    Exactly one Catalyst join; every downstream window set is derived
    from this result without touching ``r`` or ``s`` again (the core
    efficiency claim of the NJ approach).
    """
    r_facts, s_facts = fact_columns(r), fact_columns(s)
    joined = _overlap_join(r, s, theta, how)
    has_r, has_s = joined["r_lid"].isNotNull(), joined["s_lid"].isNotNull()
    if how == "full":
        side = F.explode(
            F.array_compact(F.array(F.when(has_r, F.lit(0)), F.when(has_s, F.lit(1))))
        )
        x = joined.select("*", *_overlap(has_r & has_s), side.alias("side"))
    else:
        x = joined.select("*", *_overlap(has_s if how == "left" else has_r))

    def role(c: str, positive: bool):
        """The column of the positive (or the negative) tuple's ``c``."""
        a, b = (f"r_{c}", f"s_{c}") if positive else (f"s_{c}", f"r_{c}")
        if how == "full":
            return F.when(F.col("side") == 0, F.col(a)).otherwise(F.col(b))
        return F.col(a if how == "left" else b)

    return x.select(
        *(["side"] if how == "full" else []),
        *[f"r_{c}" for c in r_facts],
        *[role(c, True).alias(f"r_{c}") for c in ("lid", "p", "ts", "te")],
        *[f"s_{c}" for c in s_facts],
        role("lid", False).alias("s_lid"),
        role("p", False).alias("s_p"),
        "o_ts",
        "o_te",
    )
