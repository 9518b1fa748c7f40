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
Each operator's splitting step runs after the same repartition and
sort as the NJ sweeps, one group at a time in Python
(:func:`repro.core.stream.map_groups`), and the right and full outer
joins are composed from TA's anti and left joins by
:func:`repro.core.negation_joins.compose`, which also builds NJ's right
outer join; NJ's full outer join makes one θ∧overlap join instead of
TA's left and anti joins. NJ's sweeps run as
a columnar kernel over whole batches of groups while TA's splits stay
row-at-a-time, so a comparison measures that difference on top of the
*plan shape*.
"""
from __future__ import annotations

from typing import Iterator

from pyspark.sql import DataFrame, functions as F
from pyspark.sql.types import LongType, StructField, StructType

from ..core.lawa_u import KIND_NEGATING, KIND_OVERLAPPING, KIND_UNMATCHED
from ..core.negation_joins import _validate, compose
from ..core.stream import map_groups
from ..core.theta import Theta
from ..core.windows import NO_OVERLAP, winit
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


def _fragment_pass(
    target: DataFrame, ref: DataFrame, theta: Theta, mode: str
) -> DataFrame:
    """Shared driver of Φ and N: one winit-scale join + a group split.

    ``mode``: ``"align"`` emits per-match intersections plus uncovered
    gaps (distinct intervals per tuple); ``"normalize"`` emits the
    elementary fragments between all boundary points of the matching
    ref tuples.
    """
    facts = fact_columns(target)

    def split(group: list[dict]) -> Iterator[dict]:
        head = group[0]
        r_ts, r_te = head["r_ts"], head["r_te"]
        if len(group) == 1 and head["o_ts"] == NO_OVERLAP:
            frags = [(r_ts, r_te)]
        elif mode == "align":
            group.sort(key=lambda m: (m["o_ts"], m["o_te"]))
            frags_set = set()
            order: list[tuple[int, int]] = []
            cursor = r_ts
            for m in group:
                if cursor < m["o_ts"]:
                    frag = (cursor, m["o_ts"])
                    if frag not in frags_set:
                        frags_set.add(frag)
                        order.append(frag)
                    cursor = m["o_ts"]
                frag = (m["o_ts"], m["o_te"])
                if frag not in frags_set:
                    frags_set.add(frag)
                    order.append(frag)
                cursor = max(cursor, m["o_te"])
            if cursor < r_te:
                order.append((cursor, r_te))
            frags = order
        else:  # normalize: elementary fragments of the boundary set
            points = {r_ts, r_te}
            for m in group:
                points.add(m["o_ts"])
                points.add(m["o_te"])
            sorted_points = sorted(points)
            frags = list(zip(sorted_points, sorted_points[1:]))
        base = {c: head[f"r_{c}"] for c in facts}
        base["lid"] = head["r_lid"]
        base["p"] = head["r_p"]
        base["orig_ts"] = r_ts
        base["orig_te"] = r_te
        for f_ts, f_te in frags:
            yield {**base, "f_ts": f_ts, "f_te": f_te}

    return map_groups(winit(target, ref, theta), split, _fragment_schema(target))


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
    accepts and raises the same ``ValueError`` for the others.
    """
    _validate(r, s, op)
    return compose(_ta_join, r, s, theta, op)


def _ta_join(r: DataFrame, s: DataFrame, theta: Theta, op: str) -> DataFrame:
    """TA's anti join (Fig. 10c tree) or left join (both trees)."""
    windows = ta_nu(r, s, theta) if op == "anti" else ta_windows(r, s, theta)
    return finalize_windows(windows, r, s, op)
