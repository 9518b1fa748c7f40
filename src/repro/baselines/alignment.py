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
- TP left outer join: one duplicate-eliminating union (SQL ``UNION``)
  of both trees, computed once — the unmatched windows come out of
  both trees and are deduplicated.

Cost structure faithfully reproduced from the paper: every Φ/N node is
itself "based on a conventional left-outer join" at winit scale. TA's
anti join (the Fig. 10c tree, which reads N(r, s) twice) runs 3
winit-scale joins plus 1 fragment join, its left join 5 plus 2 and the
union; NJ runs the expensive θ∧overlap join exactly once.
Each operator's splitting step runs in the same pass as the NJ sweeps
(:func:`repro.core.stream.map_group_frames`): frames of whole r-tuple
groups, which TA splits one group at a time in plain Python
(:func:`_fragments`), sharing no window code with NJ's columnar kernel
— only its check that each group holds one tuple. TA's right and full
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


def _fragments(
    r_ts: int, r_te: int, o_ts: list[int], o_te: list[int], mode: str
) -> list[tuple[int, int]]:
    """The fragments ``(w_ts, w_te)`` of the tuple ``[r_ts, r_te)``
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
    :func:`_fragments` for every group of the target's tuples, after
    NJ's check that each group holds one target tuple
    (:func:`repro.core.columnar.check_groups`). A fragment keeps winit's
    positive columns — ``r_<c>``, ``r_lid``, ``r_p`` and the ORIGINAL
    interval ``[r_ts, r_te)`` — and adds ``[w_ts, w_te)``."""
    target_facts = fact_columns(target)
    keep = [f"r_{c}" for c in target_facts] + ["r_lid", "r_p", "r_ts", "r_te"]
    x = winit(target, ref, theta).select(*keep, "s_lid", "o_ts", "o_te")

    def split(frame: pd.DataFrame) -> pd.DataFrame:
        lid = frame["r_lid"].to_numpy()
        r_ts, r_te = frame["r_ts"].tolist(), frame["r_te"].tolist()
        o_ts, o_te = frame["o_ts"].tolist(), frame["o_te"].tolist()
        matched = frame["s_lid"].notna().to_numpy()
        new_group = np.append(True, lid[1:] != lid[:-1])
        columnar.check_groups(frame, new_group, matched, target_facts)
        first = np.flatnonzero(new_group).tolist()
        head, w_ts, w_te = [], [], []
        for a, b in zip(first, first[1:] + [len(frame)]):
            b = b if matched[a] else a  # a null-match row: no matches
            for ts, te in _fragments(r_ts[a], r_te[a], o_ts[a:b], o_te[a:b], mode):
                head.append(a)
                w_ts.append(ts)
                w_te.append(te)
        head = np.array(head, np.int64)
        out = {c: frame[c].array.take(head) for c in keep}
        out["w_ts"], out["w_te"] = w_ts, w_te
        return pd.DataFrame(out)

    schema = StructType(
        [x.schema[c] for c in keep]
        + [StructField(c, LongType(), False) for c in ("w_ts", "w_te")]
    )
    return map_group_frames(x, split, schema)


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
        *[F.col(f"r_{c}").alias(c) for c in facts],
        F.col("r_lid").alias("lid"),
        F.col("w_ts").alias("ts"),
        F.col("w_te").alias("te"),
        F.col("r_p").alias("p"),
    )


def _as_negative(fragments: DataFrame) -> DataFrame:
    """A fragment relation on the negative side of a fragment join:
    ``r_<x>`` renamed ``s_<x>`` and ``[w_ts, w_te)`` ``[sw_ts, sw_te)``."""
    return fragments.select(
        *[
            F.col(c).alias(f"s{c}" if c in ("w_ts", "w_te") else f"s_{c[2:]}")
            for c in fragments.columns
        ]
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
    lhs = align(r, s, theta)  # winit-scale join #1
    rhs = _as_negative(align(s, r, theta.swapped()))  # winit-scale join #2
    cond = (
        theta.spark_condition(lhs, rhs, "r_", "s_")
        & (lhs["w_ts"] == rhs["sw_ts"])
        & (lhs["w_te"] == rhs["sw_te"])
        # fragment must be the exact intersection of the two originals
        & (F.greatest(lhs["r_ts"], rhs["s_ts"]) == lhs["w_ts"])
        & (F.least(lhs["r_te"], rhs["s_te"]) == lhs["w_te"])
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
    x1 = normalize(r, s, theta)  # winit-scale joins #1 and #2: read twice
    x2 = normalize(s, _as_tp(x1, r_facts), theta.swapped())  # join #3
    rhs = _as_negative(x2)
    cond = (
        theta.spark_condition(x1, rhs, "r_", "s_")
        & (rhs["sw_ts"] >= x1["w_ts"])
        & (rhs["sw_te"] <= x1["w_te"])
        & (rhs["sw_ts"] < rhs["sw_te"])
    )
    j = x1.join(rhs, cond, "left")  # fragment join #4
    window = [*[f"r_{c}" for c in r_facts], "r_lid", "r_p", "w_ts", "w_te"]
    grouped = j.groupBy(*window).agg(
        F.sort_array(
            F.array_distinct(
                F.filter(F.collect_list(F.struct("s_lid", "s_p")), lambda x: x["s_lid"].isNotNull())
            )
        ).alias("s_pairs")
    )
    has_neg = F.size("s_pairs") > 0
    return grouped.select(
        *window,
        *[F.lit(None).cast(rhs.schema[f"s_{c}"].dataType).alias(f"s_{c}") for c in s_facts],
        F.transform("s_pairs", lambda x: x["s_lid"]).alias("s_lids"),
        F.transform("s_pairs", lambda x: x["s_p"]).alias("s_ps"),
        F.when(has_neg, F.lit(KIND_NEGATING))
        .otherwise(F.lit(KIND_UNMATCHED))
        .alias("kind"),
    )


# ---------------------------------------------------------------------------
# TP joins with negation via TA
# ---------------------------------------------------------------------------


def ta_windows(r: DataFrame, s: DataFrame, theta: Theta) -> DataFrame:
    """All three window sets via TA: the duplicate-eliminating union
    (SQL ``UNION``) of both trees.

    The unmatched windows come out of BOTH trees (paper: "leading to the
    unmatched windows being computed twice") as identical rows. No other
    row repeats: a group that repeats a winit row fails
    (:func:`repro.core.columnar.check_groups`).
    """
    return ta_wuo(r, s, theta).unionByName(ta_nu(r, s, theta)).dropDuplicates()


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
                F.array_join("s_lids", " | "),
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
    promoted = right_only.select(
        *[F.col(c).alias(f"s_{c}") for c in s_facts], "lineage", "ts", "te", "p"
    )
    return left.unionByName(promoted, allowMissingColumns=True)


def _ta_join(r: DataFrame, s: DataFrame, theta: Theta, op: str) -> DataFrame:
    """TA's anti join (Fig. 10c tree) or left join (both trees)."""
    windows = ta_nu(r, s, theta) if op == "anti" else ta_windows(r, s, theta)
    return finalize_windows(windows, r, s, op)
