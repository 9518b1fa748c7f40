"""Tests for winit and the window-set operators on Spark (incl. oracle)."""
import pytest

from repro.core.negation_joins import all_windows, wuo
from repro.core.theta import Theta
from repro.core.windows import NO_OVERLAP, winit
from repro.synth_data import tp_workload_pdf
from oracle import assert_equivalent, theta_sql
from util import norm, paper_a, paper_b, rows

THETA = Theta.of(("loc", "=", "loc"))


@pytest.fixture()
def ab(spark):
    return spark.createDataFrame(paper_a()), spark.createDataFrame(paper_b())


def test_winit_matches_paper_fig5(ab):
    """The relation X of paper Fig. 5 (overlap join of a and b)."""
    a, b = ab
    got = rows(
        winit(a, b, THETA).select(
            "r_lid", "s_lid", "o_ts", "o_te", "r_ts", "r_te"
        )
    )
    assert got == norm(
        [
            ("a1", "b3", 4, 6, 2, 8),
            ("a1", "b2", 5, 8, 2, 8),
            ("a2", None, NO_OVERLAP, NO_OVERLAP, 7, 10),
        ]
    )


def test_winit_schema_prefixes(ab):
    a, b = ab
    cols = winit(a, b, THETA).columns
    assert cols == [
        "r_name", "r_loc", "r_lid", "r_p", "r_ts", "r_te",
        "s_hotel", "s_loc", "s_lid", "s_p", "o_ts", "o_te",
    ]


@pytest.mark.parametrize("kind, n", [("webkit", 150), ("meteo", 120)])
def test_winit_against_duckdb_oracle(spark, kind, n):
    """winit ≡ a DuckDB left join with the same θ∧overlap predicate."""
    r_pdf, s_pdf, theta = tp_workload_pdf(kind, n, seed=7)
    r, s = spark.createDataFrame(r_pdf), spark.createDataFrame(s_pdf)
    x = winit(r, s, theta).select("r_lid", "s_lid", "o_ts", "o_te")
    facts = theta_sql(theta, "r", "s")
    assert_equivalent(
        x,
        f"""
        SELECT r.lid AS r_lid, s.lid AS s_lid,
               CASE WHEN s.lid IS NULL THEN -1
                    ELSE greatest(r.ts, s.ts) END AS o_ts,
               CASE WHEN s.lid IS NULL THEN -1
                    ELSE least(r.te, s.te) END AS o_te
        FROM r LEFT JOIN s
          ON {facts} AND r.ts < s.te AND s.ts < r.te
        """,
        r=r_pdf,
        s=s_pdf,
    )


def test_wuo_matches_paper_fig2ab(ab):
    """Unmatched (Fig. 2a) + overlapping (Fig. 2b) windows of a vs b."""
    a, b = ab
    got = rows(
        wuo(a, b, THETA).select("r_lid", "w_ts", "w_te", "kind", "s_lids")
    )
    assert got == norm(
        [
            ("a1", 2, 4, "U", ()),
            ("a2", 7, 10, "U", ()),
            ("a1", 4, 6, "O", ("b3",)),
            ("a1", 5, 8, "O", ("b2",)),
        ]
    )


def test_all_windows_matches_paper_fig2(ab):
    """All three window sets w1..w7 of paper Fig. 2."""
    a, b = ab
    got = rows(
        all_windows(a, b, THETA).select("r_lid", "w_ts", "w_te", "kind", "s_lids")
    )
    assert got == norm(
        [
            ("a1", 2, 4, "U", ()),          # w1
            ("a2", 7, 10, "U", ()),         # w2
            ("a1", 4, 6, "O", ("b3",)),     # w3
            ("a1", 5, 8, "O", ("b2",)),     # w4
            ("a1", 4, 5, "N", ("b3",)),     # w5
            ("a1", 5, 6, "N", ("b2", "b3")),  # w6
            ("a1", 6, 8, "N", ("b2",)),     # w7
        ]
    )


def test_all_windows_overlapping_carry_s_facts(ab):
    a, b = ab
    o = all_windows(a, b, THETA).where("kind = 'O'").collect()
    assert {r["s_hotel"] for r in o} == {"hotel1", "hotel2"}
    assert all(r["s_loc"] == "ZAK" for r in o)


def test_window_sets_are_disjoint_and_typed(spark):
    r_pdf, s_pdf, theta = tp_workload_pdf("webkit", 80, seed=3)
    r, s = spark.createDataFrame(r_pdf), spark.createDataFrame(s_pdf)
    w = all_windows(r, s, theta).collect()
    for row in w:
        assert row["kind"] in ("U", "O", "N")
        assert row["w_ts"] < row["w_te"]
        if row["kind"] == "U":
            assert row["s_lids"] == []
        elif row["kind"] == "O":
            assert len(row["s_lids"]) == 1
        else:
            assert len(row["s_lids"]) >= 1
            assert row["s_lids"] == sorted(row["s_lids"])
