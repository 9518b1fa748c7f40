"""Tests for the Temporal Alignment baseline (operators + joins)."""
import pytest

from repro.baselines.alignment import (
    align,
    normalize,
    ta_negation_join,
    ta_windows,
    ta_wuo,
)
from repro.core.negation_joins import all_windows, negation_join, wuo
from repro.core.theta import Theta
from repro.synth_data import tp_workload_pdf
from util import joins, norm, paper_a, paper_b, plan_nodes, random_tp_pdf, rows, tp_relation

THETA = Theta.of(("loc", "=", "loc"))


@pytest.fixture()
def ab(spark):
    return spark.createDataFrame(paper_a()), spark.createDataFrame(paper_b())


class TestOperators:
    def test_align_paper_example(self, ab):
        """Φ(a; b): a1 splits into gap [2,4) + intersections [4,6), [5,8);
        a2 stays whole (no match)."""
        a, b = ab
        got = rows(align(a, b, THETA).select("r_lid", "w_ts", "w_te"))
        assert got == norm(
            [("a1", 2, 4), ("a1", 4, 6), ("a1", 5, 8), ("a2", 7, 10)]
        )

    def test_align_deduplicates_equal_fragments(self, spark):
        """Two matches with the same intersection yield one fragment."""
        r = tp_relation(spark, [(1, "u", "a0", 0, 10, 0.5)], ["k", "sub"])
        s = tp_relation(
            spark,
            [(1, "x", "b0", 2, 6, 0.5), (1, "y", "b1", 2, 6, 0.5)],
            ["k", "sub"],
        )
        got = rows(align(r, s, Theta.equi("k")).select("r_lid", "w_ts", "w_te"))
        assert got == norm([("a0", 0, 2), ("a0", 2, 6), ("a0", 6, 10)])

    def test_normalize_paper_example(self, ab):
        """N(a; b): a1 splits at all boundaries of b3 [4,6) and b2 [5,8)."""
        a, b = ab
        got = rows(normalize(a, b, THETA).select("r_lid", "w_ts", "w_te"))
        assert got == norm(
            [
                ("a1", 2, 4),
                ("a1", 4, 5),
                ("a1", 5, 6),
                ("a1", 6, 8),
                ("a2", 7, 10),
            ]
        )

    def test_fragments_keep_original_interval(self, ab):
        a, b = ab
        for row in align(a, b, THETA).collect():
            assert row["r_ts"] <= row["w_ts"] < row["w_te"] <= row["r_te"]


class TestWindowEquivalence:
    @pytest.mark.parametrize("kind, n", [("webkit", 60), ("meteo", 50)])
    def test_ta_wuo_equals_nj_wuo(self, spark, kind, n):
        r_pdf, s_pdf, theta = tp_workload_pdf(kind, n, seed=13)
        r, s = spark.createDataFrame(r_pdf), spark.createDataFrame(s_pdf)
        cols = ["r_lid", "w_ts", "w_te", "kind", "s_lids"]
        assert rows(ta_wuo(r, s, theta).select(cols)) == rows(
            wuo(r, s, theta).select(cols)
        )

    @pytest.mark.parametrize("kind, n", [("webkit", 60), ("meteo", 50)])
    def test_ta_windows_equals_nj_windows(self, spark, kind, n):
        r_pdf, s_pdf, theta = tp_workload_pdf(kind, n, seed=13)
        r, s = spark.createDataFrame(r_pdf), spark.createDataFrame(s_pdf)
        cols = ["r_lid", "w_ts", "w_te", "kind", "s_lids"]
        assert rows(ta_windows(r, s, theta).select(cols)) == rows(
            all_windows(r, s, theta).select(cols)
        )


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("op", ["anti", "left", "right", "full"])
def test_ta_join_equals_nj_join(spark, seed, op):
    """The baseline and the paper's approach compute identical results."""
    r_pdf = random_tp_pdf(7, n_facts=3, t_max=25, seed=seed, lid_prefix="a")
    s_pdf = random_tp_pdf(7, n_facts=3, t_max=25, seed=seed + 100, lid_prefix="b")
    theta = Theta.equi("k")
    r, s = spark.createDataFrame(r_pdf), spark.createDataFrame(s_pdf)
    assert rows(ta_negation_join(r, s, theta, op)) == rows(
        negation_join(r, s, theta, op)
    )


@pytest.mark.parametrize("kind", ["webkit", "meteo"])
def test_ta_join_equals_nj_join_on_workloads(spark, kind):
    r_pdf, s_pdf, theta = tp_workload_pdf(kind, 50, seed=21)
    r, s = spark.createDataFrame(r_pdf), spark.createDataFrame(s_pdf)
    for op in ("anti", "left"):
        assert rows(ta_negation_join(r, s, theta, op)) == rows(
            negation_join(r, s, theta, op)
        )


def test_ta_rejects_unknown_op(ab):
    a, b = ab
    with pytest.raises(ValueError):
        ta_negation_join(a, b, THETA, "inner")


@pytest.mark.parametrize(
    "op, n_joins, n_passes",
    [("anti", 4, 3), ("left", 7, 5), ("right", 7, 5), ("full", 11, 8)],
)
def test_plan_shape(ab, op, n_joins, n_passes):
    """TA's executed plan keeps its joins and Python passes (counted on
    the paper example): the anti join is the Fig. 10c tree, the left
    join adds the Fig. 10b tree, right swaps the left join and full adds
    the anti join of s by r. NJ's advantage in the paper's cost argument
    is these joins against its one."""
    a, b = ab
    nodes = plan_nodes(ta_negation_join(a, b, THETA, op))
    assert len(joins(nodes)) == n_joins
    assert [n[0] for n in nodes].count("MapInPandas") == n_passes
