"""NegationJoins — TP outer and anti joins as a DataFrame operator.

Paper Algorithm 3, ported to distributed dataflow. The plan of the NJ
approach (paper Fig. 10a) is, for every entry point:

1. ``winit`` — ONE Catalyst θ∧overlap outer join
   (:func:`repro.core.windows.winit`): ``r ⟕ s`` for the anti and left
   joins and the window sets, ``r ⟖ s`` for the right join, ``r ⟗ s``
   for the full join;
2. :func:`repro.core.stream.map_group_frames`: repartition by the
   group key (``r_lid``, the positive tuple's lid), sort each partition
   by ``(r_lid, o_ts, o_te, s_lid)`` — the distributed equivalent of
   Algorithm 3 line 2 — and make one ``mapInPandas`` pass. Each Arrow
   batch is cut after its last complete group, and one columnar kernel
   (:func:`repro.core.columnar.join_sweep`, or
   :func:`repro.core.columnar.sweep` for window rows) runs LAWA_U,
   (when requested) LAWA_N and finalize over all groups of the frame at
   once, without materializing more than one batch plus one group.

The right join's groups are s's tuples against r. The full join's
winit rows hold every r group against s and every s group against r,
tagged by ``side``; the kernel runs the left join over the r groups and
the anti join of s by r over the s groups — what Algorithm 3 line 18
computes with a second run on swapped arguments.

The row-at-a-time generators :func:`repro.core.lawa_u.sweep_group`,
:func:`repro.core.lawa_n.sweep_group` and :func:`_finalize` (one window
to one output tuple) are the specification of that kernel: they follow
the paper's algorithms line by line, and the property tests compare the
kernel with them.

Entry points mirror the stages the paper benchmarks separately:

- :func:`wuo` — unmatched + overlapping windows (paper Fig. 11);
- :func:`all_windows` — adds negating windows (paper Fig. 12);
- :func:`negation_join` — the TP join result for ``op`` in
  ``{"anti", "left", "right", "full"}`` (paper Fig. 13).

Output schemas:

- window DataFrames carry the r side as ``r_<fact>``, ``r_lid``,
  ``r_p``, the window interval ``[w_ts, w_te)``, the s side as
  ``s_<fact>`` (null except for overlapping windows), the decoupled
  negative lineage as ``s_lids``/``s_ps`` arrays, and ``kind`` in
  ``{"U","O","N"}``;
- ``negation_join(..., "anti")`` returns r's fact columns under their
  original names plus ``lineage``, ``ts``, ``te``, ``p``;
- outer joins return fact columns prefixed ``r_``/``s_`` (the two
  sides may share column names, e.g. WebKit's ``file_path``) plus
  ``lineage``, ``ts``, ``te``, ``p``.
"""
from __future__ import annotations

from functools import partial

from pyspark.sql import DataFrame, functions as F
from pyspark.sql.types import (
    ArrayType,
    DoubleType,
    FloatType,
    IntegralType,
    LongType,
    StringType,
    StructField,
    StructType,
)

from ..lineage.formula import conjunction_lineage, negation_lineage
from ..lineage.probability import negation_probability
from ..tp.model import fact_columns
from . import columnar, lawa_u
from .stream import map_group_frames
from .theta import Theta
from .windows import winit

OPS = ("anti", "left", "right", "full")


# ---------------------------------------------------------------------------
# input checks and schemas
# ---------------------------------------------------------------------------

_TP_TYPES = {
    "lid": ((StringType,), "a string"),
    "ts": ((IntegralType,), "an integer"),
    "te": ((IntegralType,), "an integer"),
    "p": ((DoubleType, FloatType), "a double or float"),
}


def _checked(
    r: DataFrame, s: DataFrame, op: str | None
) -> tuple[DataFrame, DataFrame]:
    """``r`` and ``s`` with a null ``lid``/``ts``/``te``/``p`` or an
    empty or inverted interval failing the query, naming the side
    (:func:`_guarded`).

    Raises ``ValueError`` at the call for inputs that cannot make a
    valid plan: ``op`` not one of :data:`OPS`, a missing or mistyped
    ``lid``/``ts``/``te``/``p``, or a fact column that clashes with an
    output column of ``op`` (None: the window DataFrames of :func:`wuo`
    and :func:`all_windows`). NJ and the TA baseline share these checks.
    """
    if op is not None and op not in OPS:
        raise ValueError(f"op must be one of {OPS}, got {op!r}")
    for side, df in (("r", r), ("s", s)):
        types = {f.name: f.dataType for f in df.schema.fields}
        for c, (ok, want) in _TP_TYPES.items():
            if c not in types:
                raise ValueError(f"{side} has no column {c!r}")
            if not isinstance(types[c], ok):
                raise ValueError(
                    f"column {c!r} of {side} must be {want}, "
                    f"got {types[c].simpleString()}"
                )
    # anti output carries the positive side's facts unprefixed. TA's
    # full join adds the anti join of s by r, which would clash
    # on an s fact 'lineage'; NJ's one-pass full join would not, but both
    # operators accept the same inputs.
    positive = {"anti": ("r", r), "full": ("s", s)}.get(op)
    if positive and "lineage" in fact_columns(positive[1]):
        raise ValueError(
            f"fact column 'lineage' of {positive[0]} clashes with the "
            f"output column 'lineage' of the {op} join"
        )
    if op is None:
        for c in ("lids", "ps"):
            if c in fact_columns(s):
                raise ValueError(
                    f"fact column {c!r} of s clashes with the window "
                    f"column 's_{c}'"
                )
    return _guarded(r, "r"), _guarded(s, "s")


def _guarded(df: DataFrame, side: str) -> DataFrame:
    """``df`` with a null ``lid``/``ts``/``te``/``p`` raising
    "<side> has a null '<column>'" and a tuple with ``ts >= te``
    raising "<side> has a tuple with ts >= te".

    A null lid would read as "no match" in the winit rows, and a null
    interval or probability has no TP meaning. An empty or inverted
    interval would make windows outside every tuple's interval. The
    interval check sits on ``te`` and names a null ``ts`` itself, since
    Spark may evaluate ``te`` before ``ts``. The trailing literal is
    never reached, but it makes the column non-nullable, so Spark drops
    the null checks from the θ∧overlap join condition, which it
    evaluates for every pair of rows under one equality key (a nullable
    guard cost meteo-left's join about 0.4 s on 4 vCPUs). Each guard is
    one SQL expression, which the driver builds faster than the same
    guard made of ``functions`` calls.
    """
    fields = {f.name: f for f in df.schema.fields}

    def fail(c: str) -> str:
        return f"raise_error(\"{side} has a null '{c}'\")"

    def guard(c: str):
        if c == "te":
            value = (
                f"CASE WHEN ts < te THEN te WHEN ts IS NULL THEN {fail('ts')} "
                f"WHEN te IS NULL THEN {fail('te')} "
                f"ELSE raise_error(\"{side} has a tuple with ts >= te\") END"
            )
        elif c in _TP_TYPES and fields[c].nullable:
            value = f"{c}, {fail(c)}"
        else:
            return F.col(c)
        return F.expr(
            f"coalesce({value}, CAST(0 AS {fields[c].dataType.simpleString()}))"
        ).alias(c)

    return df.select(*[guard(c) for c in df.columns])


def _window_schema(winit_schema: StructType, s_facts: list[str]) -> StructType:
    """Schema of a window DataFrame, derived from the winit schema."""
    by_name = {f.name: f for f in winit_schema.fields}
    fields: list[StructField] = []
    for f in winit_schema.fields:
        if f.name.startswith("r_") and f.name not in ("r_ts", "r_te"):
            fields.append(f)
    fields += [
        StructField("w_ts", LongType(), False),
        StructField("w_te", LongType(), False),
    ]
    for c in s_facts:
        sf = by_name[f"s_{c}"]
        fields.append(StructField(sf.name, sf.dataType, True))
    fields += [
        StructField("s_lids", ArrayType(StringType(), False), False),
        StructField("s_ps", ArrayType(DoubleType(), False), False),
        StructField("kind", StringType(), False),
    ]
    return StructType(fields)


def _join_schema(
    winit_schema: StructType, r_facts: list[str], s_facts: list[str], op: str
) -> StructType:
    by_name = {f.name: f for f in winit_schema.fields}
    fields: list[StructField] = []
    if op == "anti":
        for c in r_facts:
            rf = by_name[f"r_{c}"]
            fields.append(StructField(c, rf.dataType, True))
    else:
        for c in r_facts:
            fields.append(StructField(f"r_{c}", by_name[f"r_{c}"].dataType, True))
        for c in s_facts:
            fields.append(StructField(f"s_{c}", by_name[f"s_{c}"].dataType, True))
    fields += [
        StructField("lineage", StringType(), False),
        StructField("ts", LongType(), False),
        StructField("te", LongType(), False),
        StructField("p", DoubleType(), False),
    ]
    return StructType(fields)


# ---------------------------------------------------------------------------
# finalize (the specification) and the sweep pass
# ---------------------------------------------------------------------------

def _finalize(
    w: dict, head: dict, r_fact_cols: list[str], s_fact_cols: list[str], op: str
) -> dict | None:
    """Turn one window into one TP output tuple (Alg. 3 lines 10-17).

    Applies the per-window-kind lineage-concatenation function and the
    exact probability valuation under tuple independence. The columnar
    kernel (:func:`repro.core.columnar.join_sweep`) is tested against it.
    """
    kind = w["kind"]
    if kind == lawa_u.KIND_OVERLAPPING and op == "anti":
        return None  # anti join keeps only windows with negation
    r_lid, r_p = head["r_lid"], head["r_p"]
    if kind == lawa_u.KIND_UNMATCHED:
        lineage, p = r_lid, r_p
    elif kind == lawa_u.KIND_NEGATING:
        lineage = negation_lineage(r_lid, w["s_lids"])
        p = negation_probability(r_p, w["s_ps"])
    else:
        lineage = conjunction_lineage(r_lid, w["s_lids"][0])
        p = r_p * w["s_ps"][0]
    if op == "anti":
        rec = {c: head[f"r_{c}"] for c in r_fact_cols}
    else:
        rec = {f"r_{c}": head[f"r_{c}"] for c in r_fact_cols}
        s_row = w["s_row"]
        for c in s_fact_cols:
            rec[f"s_{c}"] = s_row[f"s_{c}"] if s_row else None
    rec["lineage"] = lineage
    rec["ts"] = w["w_ts"]
    rec["te"] = w["w_te"]
    rec["p"] = p
    return rec


def _run_sweeps(
    r: DataFrame, s: DataFrame, theta: Theta, op: str | None, with_negating: bool = True
) -> DataFrame:
    """One θ∧overlap join and one :func:`map_group_frames` pass running
    the columnar kernel over every group of its winit rows.

    With ``op`` None the pass emits window rows (LAWA_N only when
    ``with_negating``); otherwise the TP join tuples of ``op``, from
    the winit rows of the join type of ``op``: a right join sweeps the
    groups of s, a full join the groups of both sides.
    """
    r_facts, s_facts = fact_columns(r), fact_columns(s)
    x = winit(r, s, theta, op if op in ("right", "full") else "left")
    if op is None:
        kernel = partial(
            columnar.sweep, r_facts=r_facts, s_facts=s_facts, with_negating=with_negating
        )
        schema = _window_schema(x.schema, s_facts)
    else:
        kernel = partial(columnar.join_sweep, r_facts=r_facts, s_facts=s_facts, op=op)
        schema = _join_schema(x.schema, r_facts, s_facts, op)
    facts = [f"r_{c}" for c in r_facts] + [f"s_{c}" for c in s_facts]
    return map_group_frames(columnar.carry_integral_nulls(x, facts), kernel, schema)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def wuo(r: DataFrame, s: DataFrame, theta: Theta) -> DataFrame:
    """Unmatched + overlapping windows of r w.r.t. s (paper W_UO)."""
    r, s = _checked(r, s, None)
    return _run_sweeps(r, s, theta, None, with_negating=False)


def all_windows(r: DataFrame, s: DataFrame, theta: Theta) -> DataFrame:
    """All three window sets of r w.r.t. s, computed in one pipeline."""
    r, s = _checked(r, s, None)
    return _run_sweeps(r, s, theta, None)


def negation_join(r: DataFrame, s: DataFrame, theta: Theta, op: str) -> DataFrame:
    """The TP join with negation ``op`` of r and s under θ.

    ``op``: ``"anti"`` (r ▷ s), ``"left"`` (r ⟕ s), ``"right"``
    (r ⟖ s) or ``"full"`` (r ⟗ s) — all with TP semantics: snapshot
    reducibility and change preservation (paper Section III).
    Raises ``ValueError`` for an unknown ``op``, a missing or mistyped
    ``lid``/``ts``/``te``/``p`` column or a fact column that clashes
    with an output column. A null ``lid``/``ts``/``te``/``p`` or a
    tuple with ``ts >= te`` fails the query when it runs.
    """
    r, s = _checked(r, s, op)
    return _run_sweeps(r, s, theta, op)
