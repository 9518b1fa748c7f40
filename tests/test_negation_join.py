"""End-to-end tests for the NJ operator: golden paper results, the
snapshot reference, invariants, and the DuckDB probability oracle."""
from functools import partial

import pandas as pd
import pytest
from hypothesis import given, settings, strategies as st
from py4j.protocol import Py4JJavaError
from pyspark.errors import PythonException, SparkRuntimeException

from repro.baselines.alignment import ta_negation_join
from repro.core.negation_joins import all_windows, negation_join, wuo
from repro.core.reference import reference_negation_join
from repro.core.theta import Theta
from repro.synth_data import tp_workload_pdf
from oracle import assert_equivalent, expand_df, theta_sql
from util import (
    joins,
    norm,
    paper_a,
    paper_b,
    plan_nodes,
    random_tp_pdf,
    rows,
    tp_pdf,
    validate_tp_pdf,
)

THETA = Theta.of(("loc", "=", "loc"))


@pytest.fixture()
def ab(spark):
    return spark.createDataFrame(paper_a()), spark.createDataFrame(paper_b())


class TestPaperGolden:
    def test_anti_join_matches_fig3(self, ab):
        a, b = ab
        got = rows(negation_join(a, b, THETA, "anti"))
        assert got == norm(
            [
                ("Ann", "ZAK", "a1", 2, 4, 0.7),
                ("Ann", "ZAK", "a1 & ~b3", 4, 5, 0.21),
                ("Ann", "ZAK", "a1 & ~(b2 | b3)", 5, 6, 0.084),
                ("Ann", "ZAK", "a1 & ~b2", 6, 8, 0.28),
                ("Jim", "WEN", "a2", 7, 10, 0.8),
            ]
        )

    def test_left_outer_join_matches_fig1b(self, ab):
        a, b = ab
        got = rows(negation_join(a, b, THETA, "left"))
        assert got == norm(
            [
                ("Ann", "ZAK", None, None, "a1", 2, 4, 0.70),
                ("Ann", "ZAK", "hotel1", "ZAK", "a1 & b3", 4, 6, 0.49),
                ("Ann", "ZAK", "hotel2", "ZAK", "a1 & b2", 5, 8, 0.42),
                ("Ann", "ZAK", None, None, "a1 & ~b3", 4, 5, 0.21),
                ("Ann", "ZAK", None, None, "a1 & ~(b2 | b3)", 5, 6, 0.084),
                ("Ann", "ZAK", None, None, "a1 & ~b2", 6, 8, 0.28),
                ("Jim", "WEN", None, None, "a2", 7, 10, 0.80),
            ]
        )

    def test_right_outer_join_mirrors_left_of_swapped(self, ab):
        a, b = ab
        got = rows(
            negation_join(a, b, THETA, "right").select(
                "s_hotel", "s_loc", "r_name", "lineage", "ts", "te", "p"
            )
        )
        expected = rows(
            negation_join(b, a, THETA.swapped(), "left").select(
                "r_hotel", "r_loc", "s_name", "lineage", "ts", "te", "p"
            )
        )
        assert got == expected

    def test_full_outer_join(self, ab):
        a, b = ab
        got = rows(
            negation_join(a, b, THETA, "full").select(
                "r_name", "s_hotel", "lineage", "ts", "te", "p"
            )
        )
        assert got == norm(
            [
                ("Ann", None, "a1", 2, 4, 0.70),
                ("Ann", "hotel1", "a1 & b3", 4, 6, 0.49),
                ("Ann", "hotel2", "a1 & b2", 5, 8, 0.42),
                ("Ann", None, "a1 & ~b3", 4, 5, 0.21),
                ("Ann", None, "a1 & ~(b2 | b3)", 5, 6, 0.084),
                ("Ann", None, "a1 & ~b2", 6, 8, 0.28),
                ("Jim", None, "a2", 7, 10, 0.80),
                (None, "hotel3", "b1", 1, 4, 0.9),
                (None, "hotel1", "b3 & ~a1", 4, 6, 0.21),
                (None, "hotel2", "b2 & ~a1", 5, 8, 0.18),
            ]
        )

    def test_rejects_unknown_op(self, ab):
        a, b = ab
        with pytest.raises(ValueError):
            negation_join(a, b, THETA, "inner")


JOIN_TYPES = {"anti": "LeftOuter", "left": "LeftOuter", "right": "RightOuter",
              "full": "FullOuter"}


@pytest.mark.parametrize("op, passes", [("anti", 1), ("left", 1), ("right", 1), ("full", 1)])
def test_plan_has_one_join_per_sweep_pass(ab, op, passes):
    """Each sweep pass costs exactly one θ∧overlap join and one shuffle
    by r_lid (paper Fig. 10a). Every op makes one pass: the right join
    sweeps the s groups of one r ⟖ s join, the full join both sides of
    one r ⟗ s join, with no union."""
    a, b = ab
    nodes = plan_nodes(negation_join(a, b, THETA, op))
    names = [n[0] for n in nodes]
    assert len(joins(nodes)) == passes
    assert all(f" {JOIN_TYPES[op]}, " in rest for _, rest in joins(nodes))
    assert names.count("MapInPandas") == passes
    assert sum(
        n[0] == "Exchange" and n[1].startswith("hashpartitioning(r_lid#")
        for n in nodes
    ) == passes
    assert "Union" not in names


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("op", ["anti", "left", "right", "full"])
def test_matches_snapshot_reference(spark, seed, op):
    """NJ ≡ the brute-force per-time-point possible-worlds semantics."""
    r_pdf = random_tp_pdf(7, n_facts=3, t_max=25, seed=seed, lid_prefix="a")
    s_pdf = random_tp_pdf(7, n_facts=3, t_max=25, seed=seed + 100, lid_prefix="b")
    theta = Theta.equi("k")
    got = rows(negation_join(
        spark.createDataFrame(r_pdf), spark.createDataFrame(s_pdf), theta, op
    ))
    ref = reference_negation_join(r_pdf, s_pdf, theta, op)
    assert got == rows(ref)


@pytest.mark.parametrize("op", ["anti", "left", "right", "full"])
def test_matches_snapshot_reference_with_null_keys(spark, op):
    """NJ ≡ the reference when some θ keys of both sides are null."""
    r_pdf = random_tp_pdf(9, t_max=25, seed=7, lid_prefix="a", null_frac=0.3)
    s_pdf = random_tp_pdf(9, t_max=25, seed=8, lid_prefix="b", null_frac=0.3)
    assert r_pdf["k"].isna().any() and s_pdf["k"].isna().any()
    schema = "k string, lid string, ts long, te long, p double"
    theta = Theta.equi("k")
    got = rows(negation_join(
        spark.createDataFrame(r_pdf, schema), spark.createDataFrame(s_pdf, schema),
        theta, op,
    ))
    assert got == rows(reference_negation_join(r_pdf, s_pdf, theta, op))


FULL_SHAPES = {  # id: (θ, r lid prefix, s lid prefix, r rows, s rows, join node)
    "equi-theta": (Theta.equi("k"), "a", "b", 7, 7, "SortMergeJoin"),
    "no-theta": (Theta.of(), "a", "b", 7, 7, "BroadcastNestedLoopJoin"),
    "less-than-theta": (Theta.of(("k", "<", "k")), "a", "b", 7, 7, "BroadcastNestedLoopJoin"),
    "not-equal-theta": (Theta.of(("k", "!=", "k")), "a", "b", 7, 7, "BroadcastNestedLoopJoin"),
    "empty-r": (Theta.equi("k"), "a", "b", 0, 7, "SortMergeJoin"),
    "empty-s": (Theta.equi("k"), "a", "b", 7, 0, "SortMergeJoin"),
    "both-empty": (Theta.equi("k"), "a", "b", 0, 0, "SortMergeJoin"),
    "shared-lids": (Theta.equi("k"), "a", "a", 7, 7, "SortMergeJoin"),
}


@pytest.mark.parametrize("case", FULL_SHAPES.values(), ids=FULL_SHAPES.keys())
def test_full_join_shapes(spark, case):
    """NJ's full outer join ≡ the reference ≡ TA for θ with and without
    an equality term, empty inputs, and r and s tuples that share lids
    (an r group and an s group under one ``r_lid``). The plan holds one
    full outer join: a sort-merge join with an equality term in θ, a
    nested-loop join without one."""
    theta, r_prefix, s_prefix, n_r, n_s, join = case
    r_pdf = random_tp_pdf(7, t_max=25, seed=3, lid_prefix=r_prefix).iloc[:n_r]
    s_pdf = random_tp_pdf(7, t_max=25, seed=4, lid_prefix=s_prefix).iloc[:n_s]
    schema = "k string, lid string, ts long, te long, p double"
    r = spark.createDataFrame(r_pdf, schema)
    s = spark.createDataFrame(s_pdf, schema)
    nj = negation_join(r, s, theta, "full")
    [(name, rest)] = joins(plan_nodes(nj))
    assert name == join and "FullOuter" in rest
    ref = rows(reference_negation_join(r_pdf, s_pdf, theta, "full"))
    assert rows(nj) == ref
    assert rows(ta_negation_join(r, s, theta, "full")) == ref


def test_full_join_shared_lid_groups_interleave(spark):
    """r's a1 against s and s's a1 against r share ``r_lid`` = a1 and
    their overlaps interleave in time (o_ts 0, 3, 8 and 3, 4); the full
    join still sweeps them as two groups."""
    r_pdf = tp_pdf([("x", "a1", 0, 10, 0.5), ("x", "a2", 4, 6, 0.6)], ["k"])
    s_pdf = tp_pdf(
        [("x", "a1", 3, 8, 0.4), ("x", "b1", 0, 2, 0.7), ("x", "b2", 8, 10, 0.8)],
        ["k"],
    )
    theta = Theta.equi("k")
    got = negation_join(
        spark.createDataFrame(r_pdf), spark.createDataFrame(s_pdf), theta, "full"
    )
    assert rows(got) == rows(reference_negation_join(r_pdf, s_pdf, theta, "full"))


@pytest.mark.parametrize("kind, n", [("webkit", 60), ("meteo", 60)])
def test_matches_reference_on_workloads(spark, kind, n):
    r_pdf, s_pdf, theta = tp_workload_pdf(kind, n, seed=11)
    got = rows(negation_join(
        spark.createDataFrame(r_pdf), spark.createDataFrame(s_pdf), theta, "left"
    ))
    assert got == rows(reference_negation_join(r_pdf, s_pdf, theta, "left"))


@pytest.mark.parametrize("op", ["anti", "left", "right", "full"])
def test_null_theta_keys_never_match(spark, op):
    """A null θ key matches nothing (SQL semantics) in NJ, TA and the
    reference alike, so every output tuple is an unmatched base tuple."""
    r_pdf = tp_pdf([(None, "a1", 0, 5, 0.5)], ["k"])
    s_pdf = tp_pdf([(None, "b1", 1, 3, 0.4)], ["k"])
    schema = "k string, lid string, ts long, te long, p double"
    r = spark.createDataFrame(r_pdf, schema)
    s = spark.createDataFrame(s_pdf, schema)
    theta = Theta.equi("k")
    ref = rows(reference_negation_join(r_pdf, s_pdf, theta, op))
    assert all(row[-4] in ("a1", "b1") for row in ref)
    assert rows(negation_join(r, s, theta, op)) == ref
    assert rows(ta_negation_join(r, s, theta, op)) == ref


TP = "lid string, ts long, te long, p double"
OK = f"k string, {TP}"
BAD_INPUTS = {  # id: (call, r schema, s schema, the column the error names)
    "anti-r-fact-lineage": ("anti", f"lineage string, {OK}", OK, "lineage"),
    "full-s-fact-lineage": ("full", OK, f"lineage string, {OK}", "lineage"),
    "wuo-s-fact-lids": ("wuo", OK, f"lids string, {OK}", "s_lids"),
    "windows-s-fact-ps": ("all", OK, f"ps long, {OK}", "s_ps"),
    "missing-p": ("left", "k string, lid string, ts long, te long", OK, "'p'"),
    "missing-lid": ("wuo", OK, "k string, ts long, te long, p double", "'lid'"),
    "lid-long": ("left", "k string, lid long, ts long, te long, p double", OK, "'lid'"),
    "ts-string": ("anti", OK, "k string, lid string, ts string, te long, p double", "'ts'"),
    "te-double": ("right", "k string, lid string, ts long, te double, p double", OK, "'te'"),
    "p-string": ("all", OK, "k string, lid string, ts long, te long, p string", "'p'"),
    "unknown-op": ("inner", OK, OK, "op must be one of"),
}


@pytest.mark.parametrize("case", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_rejects_bad_input_when_called(spark, case):
    """Bad schemas fail at the call with the column named, not inside a
    Python worker at action time — in NJ and in the TA baseline."""
    call, r_schema, s_schema, column = case
    r = spark.createDataFrame([], r_schema)
    s = spark.createDataFrame([], s_schema)
    theta = Theta.equi("k")
    runs = {"wuo": [wuo], "all": [all_windows]}.get(call) or [
        partial(join, op=call) for join in (negation_join, ta_negation_join)
    ]
    for run in runs:
        with pytest.raises(ValueError, match=column):
            run(r, s, theta)


def text_facts(rows, fact_cols: list[str], integral: str) -> pd.DataFrame:
    """``rows`` as a pandas TP relation with the ``integral`` fact as
    text, so the reference copies it exactly, nulls included."""
    pdf = tp_pdf(rows, fact_cols)
    i = fact_cols.index(integral)
    pdf[integral] = [None if row[i] is None else str(row[i]) for row in rows]
    return pdf


def as_text(out, columns, integral: set[str]) -> pd.DataFrame:
    """Collected rows as a frame of ``columns``, the ``integral`` ones
    as text, to compare with a reference built by :func:`text_facts`."""
    got = pd.DataFrame([row.asDict() for row in out], columns=columns, dtype=object)
    for c in integral & set(columns):
        got[c] = got[c].map(lambda v: None if v is None else str(v))
    return got


@pytest.mark.parametrize("op", ["anti", "left", "right", "full"])
def test_int64_facts_beyond_2_53_are_exact(spark, op):
    """Integral facts survive the Python passes of NJ and TA exactly,
    also in a column that holds nulls (pandas would carry such a column
    as float64)."""
    big = 2**60 + 1
    r_rows = [
        ("x", big, "a1", 0, 10, 0.5),
        ("y", big + 2, "a2", 0, 5, 0.6),
        ("x", None, "a3", 2, 8, 0.3),
    ]
    s_rows = [
        ("x", big + 4, "b1", 3, 6, 0.4),
        ("z", -big, "b2", 1, 4, 0.7),
        ("y", None, "b3", 1, 3, 0.2),
    ]
    r = spark.createDataFrame(r_rows, f"k string, v long, {TP}")
    s = spark.createDataFrame(s_rows, f"k string, w long, {TP}")
    theta = Theta.equi("k")
    ref = reference_negation_join(
        text_facts(r_rows, ["k", "v"], "v"), text_facts(s_rows, ["k", "w"], "w"),
        theta, op,
    )
    column, value = ("v", big) if op == "anti" else ("s_w", big + 4)
    for join in (negation_join, ta_negation_join):
        out = join(r, s, theta, op).collect()
        assert value in {row[column] for row in out}
        got = as_text(out, ref.columns, {"v", "r_v", "s_w"})
        assert rows(got) == rows(ref), join.__name__


@pytest.mark.parametrize("op", ["anti", "left", "right", "full"])
def test_negative_time_points(spark, op):
    """An overlap that starts at -1 is a real match: the unmatched winit
    row is told by its null ``s_lid``, not by its ``o_ts``/``o_te``
    filler -1. NJ ≡ TA ≡ the reference."""
    r_pdf = tp_pdf([("x", "a1", -5, 3, 0.5)], ["k"])
    s_pdf = tp_pdf([("x", "b1", -1, 2, 0.4)], ["k"])
    r, s = spark.createDataFrame(r_pdf), spark.createDataFrame(s_pdf)
    theta = Theta.equi("k")
    ref = rows(reference_negation_join(r_pdf, s_pdf, theta, op))
    assert any(row[-3] == -1 for row in ref)
    assert rows(negation_join(r, s, theta, op)) == ref
    assert rows(ta_negation_join(r, s, theta, op)) == ref


@pytest.mark.parametrize("side", ["r", "s"])
@pytest.mark.parametrize("column", ["lid", "ts", "te", "p"])
def test_null_tp_value_fails_naming_side_and_column(spark, side, column):
    """A null lid, ts, te or p fails the query with a message that
    names the side and the column, in NJ and in TA, instead of coming
    back as a wrong row."""
    good = {"r": ("x", "a1", 0, 10, 0.5), "s": ("x", "b1", 3, 6, 0.4)}
    bad = list(good[side])
    bad[1 + ["lid", "ts", "te", "p"].index(column)] = None
    data = {k: [v] for k, v in good.items()}
    data[side].append(tuple(bad))
    r = spark.createDataFrame(data["r"], OK)
    s = spark.createDataFrame(data["s"], OK)
    # the JVM error reaches Python converted or as the raw Java error
    raised = (SparkRuntimeException, Py4JJavaError)
    for join in (negation_join, ta_negation_join):
        with pytest.raises(raised, match=f"{side} has a null '{column}'"):
            join(r, s, Theta.equi("k"), "left").collect()


@pytest.mark.parametrize("side", ["r", "s"])
@pytest.mark.parametrize("ts, te", [(5, 5), (7, 3)], ids=["empty", "inverted"])
def test_empty_or_inverted_interval_fails_naming_side(spark, side, ts, te):
    """A tuple with ts >= te fails the query with a message that names
    the side, in NJ and in TA, instead of coming back as windows outside
    every tuple's interval or crashing inside the sweep."""
    good = {"r": ("x", "a1", 0, 10, 0.5), "s": ("x", "b1", 0, 10, 0.4)}
    data = {k: [v] for k, v in good.items()}
    data[side].append(("x", f"{side}9", ts, te, 0.5))
    r = spark.createDataFrame(data["r"], OK)
    s = spark.createDataFrame(data["s"], OK)
    raised = (SparkRuntimeException, Py4JJavaError)
    for join in (negation_join, ta_negation_join):
        with pytest.raises(raised, match=f"{side} has a tuple with ts >= te"):
            join(r, s, Theta.equi("k"), "left").collect()


@pytest.mark.parametrize("side", ["r", "s"])
@pytest.mark.parametrize("p", [0.0, 1.5, float("nan")], ids=["zero", "above-one", "nan"])
def test_p_outside_unit_interval_fails_naming_side(spark, side, p):
    """A tuple with p outside (0, 1], NaN included, fails the query with
    a message that names the side, in NJ and in TA, instead of coming
    back as an impossible probability or an opaque JVM error."""
    data = {"r": ("x", "a1", 0, 10, 0.5), "s": ("x", "b1", 2, 4, 0.4)}
    data[side] = (*data[side][:4], p)
    r = spark.createDataFrame([data["r"]], OK)
    s = spark.createDataFrame([data["s"]], OK)
    raised = (SparkRuntimeException, Py4JJavaError)
    for join in (negation_join, ta_negation_join):
        with pytest.raises(raised, match=rf"{side} has a tuple with p outside \(0, 1\]"):
            join(r, s, Theta.equi("k"), "left").collect()


SHARED_LIDS = {  # id: (r rows, s rows, the shared lid); θ is empty
    # two tuples share a lid, and the other relation's tuple overlaps both
    "r-tuples-differ": (
        [("x", "a1", 0, 10, 0.5), ("y", "a1", 5, 30, 0.6)], [("x", "b1", 2, 8, 0.4)], "a1",
    ),
    "s-tuples-differ": (
        [("x", "a1", 2, 8, 0.4)], [("x", "b1", 0, 10, 0.5), ("y", "b1", 5, 30, 0.6)], "b1",
    ),
    # equal intervals and p, different facts: the winit rows repeat
    "r-facts-differ": (
        [("x", "a1", 0, 10, 0.5), ("y", "a1", 0, 10, 0.5)], [("x", "b1", 2, 4, 0.4)], "a1",
    ),
    "s-facts-differ": (
        [("x", "a1", 2, 4, 0.4)], [("x", "b1", 0, 10, 0.5), ("y", "b1", 0, 10, 0.5)], "b1",
    ),
}


@pytest.mark.parametrize("op", ["anti", "left", "right", "full"])
@pytest.mark.parametrize("case", SHARED_LIDS.values(), ids=SHARED_LIDS.keys())
def test_shared_lid_fails_naming_it(spark, case, op):
    """Two tuples of one relation with one lid fail the query with a
    message that names the lid, in NJ and (left join) in TA, instead of
    being swept as one tuple. The tuple of the other relation overlaps
    both, so their rows meet in one group whichever side is positive."""
    r_rows, s_rows, lid = case
    r = spark.createDataFrame(r_rows, OK)
    s = spark.createDataFrame(s_rows, OK)
    operators = [negation_join] + ([ta_negation_join] if op == "left" else [])
    # TA's failing stages reach Python as one raw Java error
    raised = (PythonException, Py4JJavaError)
    for join in operators:
        with pytest.raises(raised, match=f"share the lid .*'{lid}'"):
            join(r, s, Theta.of(), op).collect()


def test_shared_lid_beyond_2_53_fails(spark):
    """Two r tuples a1 whose int64 θ key differs only beyond 2^53 (so
    as float64 they would be equal) each overlap one s tuple. a1's
    group disagrees on ``r_k``, so the anti, left and full joins fail
    naming it. The right join's groups are b1's and b2's, each holding
    one a1 row, so it runs and returns their 4 tuples: a lid shared by
    two negative tuples that no positive tuple overlaps together is not
    caught (see ``negation_joins._checked``)."""
    big = 2**60
    schema = f"k long, {TP}"
    r = spark.createDataFrame(
        [(big, "a1", 0, 10, 0.5), (big + 1, "a1", 0, 10, 0.5)], schema
    )
    s = spark.createDataFrame(
        [(big, "b1", 2, 4, 0.4), (big + 1, "b2", 5, 7, 0.7)], schema
    )
    theta = Theta.equi("k")
    for op in ("anti", "left", "full"):
        with pytest.raises((PythonException, Py4JJavaError), match="share the lid 'a1'"):
            negation_join(r, s, theta, op).collect()
    assert len(negation_join(r, s, theta, "right").collect()) == 4


@pytest.mark.parametrize("op", ["anti", "left", "right", "full"])
def test_null_flags_stay_out_of_the_shuffle(spark, op):
    """A nullable int64 fact crosses into pandas as its value plus a
    null flag. The flag is made between the ``Sort`` and the
    ``MapInPandas``, so the ``r_lid`` exchange does not carry it."""
    r = spark.createDataFrame([("x", 1, "a1", 0, 10, 0.5)], f"k string, v long, {TP}")
    s = spark.createDataFrame([("x", None, "b1", 2, 4, 0.4)], f"k string, w long, {TP}")
    nodes = plan_nodes(negation_join(r, s, Theta.equi("k"), op))
    names = [n[0] for n in nodes]
    at = names.index("MapInPandas")
    assert names[at + 1 : at + 4] == ["Project", "Sort", "Exchange"]
    assert nodes[at + 3][1].startswith("hashpartitioning(r_lid#")
    assert "AS null_r_v#" in nodes[at + 1][1] and "AS null_s_w#" in nodes[at + 1][1]
    assert not any("null_r_v" in rest or "null_s_w" in rest for _, rest in nodes[at + 2 :])


THETAS = [  # with an equality term, with only < or !=, empty
    Theta.equi("k"), Theta.of(("k", "<", "k")), Theta.of(("k", "!=", "k")), Theta.of(),
]


@st.composite
def tp_inputs(draw):
    """Two duplicate-free TP relations of at most 6 tuples each, as
    rows ``(k, v, lid, ts, te, p)``, and a θ.

    Times start at a random offset that is often negative; θ keys and
    the int64 fact ``v`` may be null; s may reuse r's lids."""
    offset = draw(st.integers(-20, 5))
    big = 2**60 + 1

    def relation(prefix: str) -> list[tuple]:
        tuples: list[tuple] = []
        for i in range(draw(st.integers(0, 6))):
            k = draw(st.sampled_from(["x", "y", None]))
            v = draw(st.sampled_from([None, big, -3]))
            ts = offset + draw(st.integers(0, 12))
            te = ts + draw(st.integers(1, 6))
            if not any((k, v) == t[:2] and ts < t[4] and t[3] < te for t in tuples):
                p = draw(st.sampled_from([1.0, 0.5, 0.25, 0.9]))
                tuples.append((k, v, f"{prefix}{i}", ts, te, p))
        return tuples

    r_rows = relation("a")
    s_rows = relation(draw(st.sampled_from(["a", "b"])))
    return r_rows, s_rows, draw(st.sampled_from(THETAS))


@pytest.mark.parametrize("op", ["anti", "left", "right", "full"])
@settings(max_examples=4, deadline=None)
@given(case=tp_inputs())
def test_nj_equals_ta_equals_reference(spark, op, case):
    """NJ ≡ TA ≡ the snapshot reference on random small inputs: θ with
    and without an equality term, negative times, null θ keys and null
    int64 facts beyond 2^53, empty relations and shared lids."""
    r_rows, s_rows, theta = case
    schema = f"k string, v long, {TP}"
    r = spark.createDataFrame(r_rows, schema)
    s = spark.createDataFrame(s_rows, schema)
    ref = reference_negation_join(
        text_facts(r_rows, ["k", "v"], "v"), text_facts(s_rows, ["k", "v"], "v"),
        theta, op,
    )
    want = rows(ref)
    for join in (negation_join, ta_negation_join):
        got = as_text(join(r, s, theta, op).collect(), ref.columns, {"v", "r_v", "s_v"})
        assert rows(got) == want, join.__name__


class TestOracle:
    """Per-(fact, time point) probabilities checked against DuckDB.

    The expected probability at each time point follows from tuple
    independence: P = p_r · Π(1 − p_s) over the valid θ-matching
    negative tuples (anti / null-padded rows), and P = p_r · p_s for
    matched rows — both expressible as plain SQL over time point
    expansions, evaluated by an independent engine.
    """

    def test_anti_join_probabilities(self, spark):
        r_pdf, s_pdf, theta = tp_workload_pdf("webkit", 80, seed=5)
        r, s = spark.createDataFrame(r_pdf), spark.createDataFrame(s_pdf)
        res = expand_df(
            negation_join(r, s, theta, "anti").select("file_path", "ts", "te", "p")
        )
        assert_equivalent(
            res,
            f"""
            WITH rt AS (SELECT *, unnest(range(ts, te)) AS t FROM r),
                 st AS (SELECT *, unnest(range(ts, te)) AS t FROM s)
            SELECT rt.file_path, rt.t AS t,
                   rt.p * coalesce(product(1.0 - st.p), 1.0) AS p
            FROM rt LEFT JOIN st
              ON {theta_sql(theta, 'rt', 'st')} AND rt.t = st.t
            GROUP BY rt.file_path, rt.t, rt.p
            """,
            r=r_pdf,
            s=s_pdf,
        )

    def test_anti_join_probabilities_meteo(self, spark):
        r_pdf, s_pdf, theta = tp_workload_pdf("meteo", 60, seed=9)
        r, s = spark.createDataFrame(r_pdf), spark.createDataFrame(s_pdf)
        res = expand_df(
            negation_join(r, s, theta, "anti").select(
                "station_id", "value_id", "ts", "te", "p"
            )
        )
        assert_equivalent(
            res,
            f"""
            WITH rt AS (SELECT *, unnest(range(ts, te)) AS t FROM r),
                 st AS (SELECT *, unnest(range(ts, te)) AS t FROM s)
            SELECT rt.station_id, rt.value_id, rt.t AS t,
                   rt.p * coalesce(product(1.0 - st.p), 1.0) AS p
            FROM rt LEFT JOIN st
              ON {theta_sql(theta, 'rt', 'st')} AND rt.t = st.t
            GROUP BY rt.station_id, rt.value_id, rt.t, rt.p
            """,
            r=r_pdf,
            s=s_pdf,
        )

    def test_left_join_matched_probabilities(self, spark):
        r_pdf, s_pdf, theta = tp_workload_pdf("webkit", 80, seed=5)
        r, s = spark.createDataFrame(r_pdf), spark.createDataFrame(s_pdf)
        left = negation_join(r, s, theta, "left")
        matched = expand_df(
            left.where(left["s_file_path"].isNotNull()).select(
                "r_file_path", "s_file_path", "ts", "te", "p"
            )
        )
        assert_equivalent(
            matched,
            f"""
            WITH rt AS (SELECT *, unnest(range(ts, te)) AS t FROM r),
                 st AS (SELECT *, unnest(range(ts, te)) AS t FROM s)
            SELECT rt.file_path AS r_file_path, st.file_path AS s_file_path,
                   rt.t AS t, rt.p * st.p AS p
            FROM rt JOIN st
              ON {theta_sql(theta, 'rt', 'st')} AND rt.t = st.t
            """,
            r=r_pdf,
            s=s_pdf,
        )

    def test_left_join_null_side_equals_anti_probabilities(self, spark):
        r_pdf, s_pdf, theta = tp_workload_pdf("webkit", 80, seed=5)
        r, s = spark.createDataFrame(r_pdf), spark.createDataFrame(s_pdf)
        left = negation_join(r, s, theta, "left")
        null_side = rows(
            left.where(left["s_file_path"].isNull()).select(
                "r_file_path", "lineage", "ts", "te", "p"
            )
        )
        anti = rows(
            negation_join(r, s, theta, "anti").select(
                "file_path", "lineage", "ts", "te", "p"
            )
        )
        assert null_side == anti


class TestInvariants:
    @pytest.mark.parametrize("kind", ["webkit", "meteo"])
    def test_anti_output_is_valid_tp_relation(self, spark, kind):
        r_pdf, s_pdf, theta = tp_workload_pdf(kind, 50, seed=2)
        r, s = spark.createDataFrame(r_pdf), spark.createDataFrame(s_pdf)
        out = negation_join(r, s, theta, "anti").toPandas()
        # lineage is part of the output identity: duplicate-freeness
        # means no overlapping intervals for equal (fact, lineage)
        out["lid"] = [f"o{i}" for i in range(len(out))]
        validate_tp_pdf(out)

    def test_anti_tiles_positive_relation_exactly(self, spark):
        """Anti-join intervals per r tuple tile its original interval."""
        r_pdf, s_pdf, theta = tp_workload_pdf("webkit", 50, seed=4)
        r, s = spark.createDataFrame(r_pdf), spark.createDataFrame(s_pdf)
        out = negation_join(r, s, theta, "anti").toPandas()
        out["r_lid"] = out["lineage"].str.split(" &").str[0]
        covered = out.groupby("r_lid").apply(
            lambda g: sum(g["te"] - g["ts"]), include_groups=False
        )
        expect = dict(zip(r_pdf["lid"], r_pdf["te"] - r_pdf["ts"]))
        for lid, length in covered.items():
            assert expect[lid] == length

    def test_probabilities_in_unit_interval(self, spark):
        r_pdf, s_pdf, theta = tp_workload_pdf("meteo", 50, seed=2)
        r, s = spark.createDataFrame(r_pdf), spark.createDataFrame(s_pdf)
        out = negation_join(r, s, theta, "left").toPandas()
        assert ((out["p"] >= 0) & (out["p"] <= 1)).all()
        assert (out["ts"] < out["te"]).all()

    def test_empty_negative_relation_passes_positive_through(self, spark):
        r_pdf = random_tp_pdf(5, seed=1, lid_prefix="a")
        s_pdf = random_tp_pdf(5, seed=2, lid_prefix="b")
        s_pdf = s_pdf[s_pdf["k"] == "__nothing__"]  # empty
        r = spark.createDataFrame(r_pdf)
        s = spark.createDataFrame(
            s_pdf, schema="k string, lid string, ts long, te long, p double"
        )
        out = negation_join(r, s, Theta.equi("k"), "anti")
        got = rows(out.select("k", "lineage", "ts", "te", "p"))
        expected = rows(r_pdf.rename(columns={"lid": "lineage"})[
            ["k", "lineage", "ts", "te", "p"]
        ])
        assert got == expected
