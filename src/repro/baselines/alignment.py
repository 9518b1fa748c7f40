"""Temporal Alignment (TA) baseline — Dignös et al., adapted to TP.

The paper's only comparator (Section VII): TP joins with negation
computed via the interval-adjustment operators of temporal alignment —
``align Φ(r, s, θ)`` (split r's intervals into per-match intersections
plus uncovered gaps) and ``normalize N(r, s, θ)`` (split r's intervals
at every boundary of a matching s tuple) — composed by TP-aware
reduction rules (paper Fig. 10b/10c):

- ``W_O ∪ W_U``: align BOTH relations, then join the aligned fragment
  relations on θ ∧ fragment-interval equality (Fig. 10b). The join
  carries the original intervals and requires the fragment to equal
  the exact intersection of the two original tuples, which makes the
  fragment join produce precisely the overlapping windows; left-join
  nulls are the unmatched windows.
- ``W_N ∪ W_U``: normalize k by m, normalize m by the result (m must
  be adjusted "both using relation k and itself", paper §VII-A), join
  the two fragment relations on θ ∧ fragment containment, and
  aggregate the m-lineages per k fragment into the λs disjunction
  (Fig. 10c).
- TP left outer join: the duplicate-eliminating union of both trees —
  the unmatched windows are computed twice and must be deduplicated.

Cost structure faithfully reproduced from the paper: every Φ/N node is
itself "based on a conventional left-outer join" at winit scale, so TA
executes the expensive θ∧overlap join two to four times plus extra
fragment joins and a dedup union, whereas NJ executes it exactly once.
Each operator's splitting step runs in the same pass as the NJ sweeps
(:func:`repro.core.stream.map_group_frames`): frames of whole r-tuple
groups, which TA splits one group at a time in plain Python
(:func:`_fragments`), sharing no window code with NJ's columnar kernel
— only its null-flag codec for integral facts. TA's right and full
outer joins are composed from its anti and left joins, as in the paper:
the right join is the left join of the swapped arguments, and the full
join adds to the left join the anti join of s by r. NJ makes one
θ∧overlap join for each of its four joins instead. NJ's sweeps run as
one columnar kernel per frame while TA's splits loop over groups, so a
comparison measures that difference on top of the *plan shape*.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, functions as F
from pyspark.sql.types import LongType, StructField, StructType

from ..core import columnar
from ..core.lawa_u import KIND_NEGATING, KIND_OVERLAPPING, KIND_UNMATCHED
from ..core.negation_joins import _checked
from ..core.stream import map_group_frames
from ..core.theta import Theta
from ..core.windows import winit
from ..tp.model import fact_columns

# ---------------------------------------------------------------------------
# the Φ (align) and N (normalize) operators
# ---------------------------------------------------------------------------


def _fragment_schema(tp_df: DataFrame) -> StructType:
    """Fragments keep the tuple's attributes, lineage, probability and
    ORIGINAL interval, and add the fragment interval ``[f_ts, f_te)``."""
    keep = {f.name: f for f in tp_df.schema.fields}
    fields = [keep[c] for c in fact_columns(tp_df)]
    fields += [keep["lid"], keep["p"]]
    fields += [
        StructField("orig_ts", LongType(), False),
        StructField("orig_te", LongType(), False),
        StructField("f_ts", LongType(), False),
        StructField("f_te", LongType(), False),
    ]
    return StructType(fields)


def _fragments(
    r_ts: int, r_te: int, o_ts: list[int], o_te: list[int], mode: str
) -> list[tuple[int, int]]:
    """The fragments ``(f_ts, f_te)`` of the tuple ``[r_ts, r_te)``
    whose matches overlap it on ``[o_ts[i], o_te[i])`` (none: one
    fragment, the whole interval).

    ``mode``: ``"align"`` gives the distinct per-match intersections
    plus the uncovered gaps; ``"normalize"`` the elementary fragments
    between all boundary points of the matches.
    """
    if mode == "normalize":
        points = sorted({r_ts, r_te, *o_ts, *o_te})
        return list(zip(points, points[1:]))
    frags = []
    cursor = r_ts
    for ts, te in sorted(zip(o_ts, o_te)):
        if cursor < ts:
            frags.append((cursor, ts))
            cursor = ts
        frags.append((ts, te))
        cursor = max(cursor, te)
    if cursor < r_te:
        frags.append((cursor, r_te))
    return list(dict.fromkeys(frags))


def _fragment_pass(
    target: DataFrame, ref: DataFrame, theta: Theta, mode: str
) -> DataFrame:
    """Shared driver of Φ and N: one winit-scale join, then
    :func:`_fragments` for every group of the target's tuples."""
    facts = [f"r_{c}" for c in fact_columns(target)]
    x = winit(target, ref, theta).select(
        *facts, "r_lid", "r_p", "r_ts", "r_te", "s_lid", "o_ts", "o_te"
    )

    def split(frame: pd.DataFrame) -> pd.DataFrame:
        lid = frame["r_lid"].to_numpy()
        r_ts, r_te = frame["r_ts"].tolist(), frame["r_te"].tolist()
        o_ts, o_te = frame["o_ts"].tolist(), frame["o_te"].tolist()
        matched = frame["s_lid"].notna().tolist()
        first = np.flatnonzero(np.append(True, lid[1:] != lid[:-1])).tolist()
        head, f_ts, f_te = [], [], []
        for a, b in zip(first, first[1:] + [len(frame)]):
            b = b if matched[a] else a  # a null-match row: no matches
            for ts, te in _fragments(r_ts[a], r_te[a], o_ts[a:b], o_te[a:b], mode):
                head.append(a)
                f_ts.append(ts)
                f_te.append(te)
        head = np.array(head, np.int64)
        out = {c[2:]: columnar.take(frame, c, head) for c in facts}
        for c, col in (("lid", "r_lid"), ("p", "r_p"),
                       ("orig_ts", "r_ts"), ("orig_te", "r_te")):
            out[c] = frame[col].to_numpy()[head]
        out["f_ts"], out["f_te"] = f_ts, f_te
        return pd.DataFrame(out)

    return map_group_frames(
        columnar.carry_integral_nulls(x, facts), split, _fragment_schema(target)
    )


def align(r: DataFrame, s: DataFrame, theta: Theta) -> DataFrame:
    """Φ(r; s, θ): r's tuples split into match intersections + gaps."""
    return _fragment_pass(r, s, theta, "align")


def normalize(r: DataFrame, s: DataFrame, theta: Theta) -> DataFrame:
    """N(r; s, θ): r's tuples split at every matching s boundary."""
    return _fragment_pass(r, s, theta, "normalize")


def _as_tp(fragments: DataFrame, facts: list[str]) -> DataFrame:
    """View a fragment relation as a TP relation (fragment = interval).

    Fragment lids are not unique (one per fragment of the same tuple),
    which is fine for use as a normalization *reference* relation.
    """
    return fragments.select(
        *facts,
        "lid",
        F.col("f_ts").alias("ts"),
        F.col("f_te").alias("te"),
        "p",
    )


# ---------------------------------------------------------------------------
# the reduction trees (paper Fig. 10b / 10c)
# ---------------------------------------------------------------------------


def ta_wuo(r: DataFrame, s: DataFrame, theta: Theta) -> DataFrame:
    """W_O ∪ W_U via the Fig. 10b tree: Φ(r,s) ⟕_{θ ∧ T=T} Φ(s,r).

    Output schema matches :func:`repro.core.negation_joins.wuo` so the
    two approaches can be checked for identical results.
    """
    r_facts, s_facts = fact_columns(r), fact_columns(s)
    ar = align(r, s, theta)  # winit-scale join #1
    as_ = align(s, r, theta.swapped())  # winit-scale join #2
    lhs = ar.select(
        *[F.col(c).alias(f"r_{c}") for c in r_facts],
        F.col("lid").alias("r_lid"),
        F.col("p").alias("r_p"),
        F.col("orig_ts").alias("r_orig_ts"),
        F.col("orig_te").alias("r_orig_te"),
        F.col("f_ts").alias("w_ts"),
        F.col("f_te").alias("w_te"),
    )
    rhs = as_.select(
        *[F.col(c).alias(f"s_{c}") for c in s_facts],
        F.col("lid").alias("s_lid"),
        F.col("p").alias("s_p"),
        F.col("orig_ts").alias("s_orig_ts"),
        F.col("orig_te").alias("s_orig_te"),
        F.col("f_ts").alias("sf_ts"),
        F.col("f_te").alias("sf_te"),
    )
    cond = (
        theta.spark_condition(lhs, rhs, "r_", "s_")
        & (lhs["w_ts"] == rhs["sf_ts"])
        & (lhs["w_te"] == rhs["sf_te"])
        # fragment must be the exact intersection of the two originals
        & (F.greatest(lhs["r_orig_ts"], rhs["s_orig_ts"]) == lhs["w_ts"])
        & (F.least(lhs["r_orig_te"], rhs["s_orig_te"]) == lhs["w_te"])
    )
    j = lhs.join(rhs, cond, "left")  # fragment join #3
    matched = j["s_lid"].isNotNull()
    return j.select(
        *[f"r_{c}" for c in r_facts],
        "r_lid",
        "r_p",
        "w_ts",
        "w_te",
        *[f"s_{c}" for c in s_facts],
        F.when(matched, F.array("s_lid"))
        .otherwise(F.array().cast("array<string>"))
        .alias("s_lids"),
        F.when(matched, F.array("s_p"))
        .otherwise(F.array().cast("array<double>"))
        .alias("s_ps"),
        F.when(matched, F.lit(KIND_OVERLAPPING))
        .otherwise(F.lit(KIND_UNMATCHED))
        .alias("kind"),
    )


def ta_nu(r: DataFrame, s: DataFrame, theta: Theta) -> DataFrame:
    """W_N ∪ W_U via the Fig. 10c tree.

    ``X1 = N(r, s, θ)``; ``X2 = N(s, X1, θ⁻¹)`` (s adjusted by r *and*
    transitively by s itself through X1's boundaries); then an inner
    join of X2 fragments contained in X1 fragments with a disjunction
    aggregation of the s lineages per r fragment.
    """
    r_facts, s_facts = fact_columns(r), fact_columns(s)
    x1 = normalize(r, s, theta)  # winit-scale join #1
    x2 = normalize(s, _as_tp(x1, r_facts), theta.swapped())  # join #2
    lhs = x1.select(
        *[F.col(c).alias(f"r_{c}") for c in r_facts],
        F.col("lid").alias("r_lid"),
        F.col("p").alias("r_p"),
        F.col("f_ts").alias("w_ts"),
        F.col("f_te").alias("w_te"),
    )
    rhs = x2.select(
        *[F.col(c).alias(f"s_{c}") for c in s_facts],
        F.col("lid").alias("s_lid"),
        F.col("p").alias("s_p"),
        F.col("f_ts").alias("sf_ts"),
        F.col("f_te").alias("sf_te"),
    )
    cond = (
        theta.spark_condition(lhs, rhs, "r_", "s_")
        & (rhs["sf_ts"] >= lhs["w_ts"])
        & (rhs["sf_te"] <= lhs["w_te"])
        & (rhs["sf_ts"] < rhs["sf_te"])
    )
    j = lhs.join(rhs, cond, "left")  # fragment join #3
    grouped = j.groupBy(
        *[f"r_{c}" for c in r_facts], "r_lid", "r_p", "w_ts", "w_te"
    ).agg(
        F.sort_array(
            F.array_distinct(
                F.filter(F.collect_list(F.struct("s_lid", "s_p")), lambda x: x["s_lid"].isNotNull())
            )
        ).alias("s_pairs")
    )
    has_neg = F.size("s_pairs") > 0
    return grouped.select(
        *[f"r_{c}" for c in r_facts],
        "r_lid",
        "r_p",
        "w_ts",
        "w_te",
        *[F.lit(None).cast(t).alias(f"s_{c}") for c, t in _s_fact_types(s)],
        F.transform("s_pairs", lambda x: x["s_lid"]).alias("s_lids"),
        F.transform("s_pairs", lambda x: x["s_p"]).alias("s_ps"),
        F.when(has_neg, F.lit(KIND_NEGATING))
        .otherwise(F.lit(KIND_UNMATCHED))
        .alias("kind"),
    )


def _s_fact_types(s: DataFrame) -> list[tuple[str, object]]:
    types = {f.name: f.dataType for f in s.schema.fields}
    return [(c, types[c]) for c in fact_columns(s)]


# ---------------------------------------------------------------------------
# TP joins with negation via TA
# ---------------------------------------------------------------------------


def ta_windows(r: DataFrame, s: DataFrame, theta: Theta) -> DataFrame:
    """All three window sets via TA: union of both trees + dedup.

    The unmatched windows come out of BOTH subtrees (paper: "leading
    to the unmatched windows being computed twice"), so a duplicate-
    eliminating union is required — one of TA's structural overheads.
    """
    wuo_part = ta_wuo(r, s, theta)
    nu_part = ta_nu(r, s, theta)
    unioned = wuo_part.unionByName(nu_part)
    dups = unioned.where(F.col("kind") == KIND_UNMATCHED).dropDuplicates(
        ["r_lid", "w_ts", "w_te"]
    )
    return unioned.where(F.col("kind") != KIND_UNMATCHED).unionByName(dups)


def finalize_windows(windows: DataFrame, r: DataFrame, s: DataFrame, op: str) -> DataFrame:
    """Windows → TP join output tuples (lineage concatenation + prob).

    Spark-native equivalent of Algorithm 3 lines 10-17, used by the TA
    pipeline (NJ finalizes inside its sweep pass). Output schema
    matches :func:`repro.core.negation_joins.negation_join`.
    """
    r_facts, s_facts = fact_columns(r), fact_columns(s)
    w = windows
    if op == "anti":
        w = w.where(F.col("kind") != KIND_OVERLAPPING)
    is_u = F.col("kind") == KIND_UNMATCHED
    is_o = F.col("kind") == KIND_OVERLAPPING
    sorted_lids = F.sort_array("s_lids")
    lineage = (
        F.when(is_u, F.col("r_lid"))
        .when(is_o, F.concat("r_lid", F.lit(" & "), F.col("s_lids")[0]))
        .when(
            F.size("s_lids") == 1,
            F.concat("r_lid", F.lit(" & ~"), F.col("s_lids")[0]),
        )
        .otherwise(
            F.concat(
                "r_lid",
                F.lit(" & ~("),
                F.array_join(sorted_lids, " | "),
                F.lit(")"),
            )
        )
    )
    p = (
        F.when(is_u, F.col("r_p"))
        .when(is_o, F.col("r_p") * F.col("s_ps")[0])
        .otherwise(
            F.col("r_p")
            * F.aggregate(
                "s_ps", F.lit(1.0), lambda acc, x: acc * (F.lit(1.0) - x)
            )
        )
    )
    if op == "anti":
        out_facts = [F.col(f"r_{c}").alias(c) for c in r_facts]
    else:
        out_facts = [F.col(f"r_{c}") for c in r_facts] + [
            F.col(f"s_{c}") for c in s_facts
        ]
    return w.select(
        *out_facts,
        lineage.alias("lineage"),
        F.col("w_ts").alias("ts"),
        F.col("w_te").alias("te"),
        p.alias("p"),
    )


def ta_negation_join(r: DataFrame, s: DataFrame, theta: Theta, op: str) -> DataFrame:
    """The TP join with negation, computed by the TA baseline.

    Accepts the inputs :func:`repro.core.negation_joins.negation_join`
    accepts and raises the same errors for the others. The right outer
    join is the left join of the swapped arguments with its sides
    renamed back; the full outer join adds to the left join the anti
    join of s by r — Algorithm 3 line 18 re-runs with swapped arguments
    and op = anti so overlapping windows are not emitted twice.
    """
    r, s = _checked(r, s, op)
    if op in ("anti", "left"):
        return _ta_join(r, s, theta, op)
    r_facts, s_facts = fact_columns(r), fact_columns(s)
    if op == "right":
        swapped = _ta_join(s, r, theta.swapped(), "left")
        return swapped.select(
            *[F.col(f"s_{c}").alias(f"r_{c}") for c in r_facts],
            *[F.col(f"r_{c}").alias(f"s_{c}") for c in s_facts],
            "lineage",
            "ts",
            "te",
            "p",
        )
    left = _ta_join(r, s, theta, "left")
    right_only = _ta_join(s, r, theta.swapped(), "anti")
    left_types = {f.name: f.dataType for f in left.schema.fields}
    promoted = right_only.select(
        *[
            F.lit(None).cast(left_types[f"r_{c}"]).alias(f"r_{c}")
            for c in r_facts
        ],
        *[F.col(c).alias(f"s_{c}") for c in s_facts],
        "lineage",
        "ts",
        "te",
        "p",
    )
    return left.unionByName(promoted)


def _ta_join(r: DataFrame, s: DataFrame, theta: Theta, op: str) -> DataFrame:
    """TA's anti join (Fig. 10c tree) or left join (both trees)."""
    windows = ta_nu(r, s, theta) if op == "anti" else ta_windows(r, s, theta)
    return finalize_windows(windows, r, s, op)
