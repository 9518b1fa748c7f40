"""Self-consistency tests for the snapshot reference implementation.

The reference is the semantic oracle of the suite, so it gets its own
scrutiny: probabilities re-derived from lineage strings by possible-
worlds enumeration, interval maximality, and the structural relations
between the four operations.
"""
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.reference import reference_negation_join
from repro.core.theta import Theta
from util import paper_a, paper_b, random_tp_pdf, rows
from worlds import probability_enumerate

THETA_K = Theta.equi("k")
THETA_LOC = Theta.of(("loc", "=", "loc"))


def all_probs(*pdfs):
    out = {}
    for pdf in pdfs:
        out.update(dict(zip(pdf["lid"], pdf["p"])))
    return out


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("op", ["anti", "left"])
def test_probability_consistent_with_lineage(seed, op):
    """Each output row's p equals the possible-worlds valuation of its
    own lineage string — lineage and probability cannot drift apart."""
    r = random_tp_pdf(6, n_facts=2, t_max=20, seed=seed, lid_prefix="a")
    s = random_tp_pdf(6, n_facts=2, t_max=20, seed=seed + 30, lid_prefix="b")
    probs = all_probs(r, s)
    out = reference_negation_join(r, s, THETA_K, op)
    for _, row in out.iterrows():
        assert row["p"] == pytest.approx(
            probability_enumerate(row["lineage"], probs)
        )


@pytest.mark.parametrize("seed", range(6))
def test_intervals_maximal_per_fact_and_lineage(seed):
    """Change preservation: no two output rows with equal fact and
    lineage may be adjacent or overlapping."""
    r = random_tp_pdf(6, n_facts=2, t_max=20, seed=seed, lid_prefix="a")
    s = random_tp_pdf(6, n_facts=2, t_max=20, seed=seed + 30, lid_prefix="b")
    out = reference_negation_join(r, s, THETA_K, "left")
    for _, grp in out.groupby(["r_k", "lineage"], dropna=False):
        grp = grp.sort_values("ts")
        assert (grp["ts"].shift(-1).dropna() > grp["te"].iloc[:-1]).all()


@pytest.mark.parametrize("seed", range(6))
def test_left_is_anti_plus_matches(seed):
    r = random_tp_pdf(6, n_facts=2, t_max=20, seed=seed, lid_prefix="a")
    s = random_tp_pdf(6, n_facts=2, t_max=20, seed=seed + 30, lid_prefix="b")
    left = reference_negation_join(r, s, THETA_K, "left")
    anti = reference_negation_join(r, s, THETA_K, "anti")
    null_side = left[left["s_k"].isna()][["r_k", "lineage", "ts", "te", "p"]]
    null_side = null_side.rename(columns={"r_k": "k"})
    assert rows(null_side) == rows(anti[["k", "lineage", "ts", "te", "p"]])


@pytest.mark.parametrize("seed", range(4))
def test_full_is_union_of_left_and_right_anti(seed):
    r = random_tp_pdf(5, n_facts=2, t_max=18, seed=seed, lid_prefix="a")
    s = random_tp_pdf(5, n_facts=2, t_max=18, seed=seed + 30, lid_prefix="b")
    full = reference_negation_join(r, s, THETA_K, "full")
    left = reference_negation_join(r, s, THETA_K, "left")
    s_anti = reference_negation_join(s, r, THETA_K.swapped(), "anti")
    assert len(full) == len(left) + len(s_anti)


def test_right_join_of_paper_example():
    out = reference_negation_join(paper_a(), paper_b(), THETA_LOC, "right")
    assert list(out.columns) == [
        "r_name", "r_loc", "s_hotel", "s_loc", "lineage", "ts", "te", "p",
    ]
    b1 = out[out["lineage"] == "b1"]
    assert len(b1) == 1 and b1.iloc[0]["ts"] == 1 and b1.iloc[0]["te"] == 4


def test_anti_with_no_matches_copies_positive():
    r = random_tp_pdf(5, n_facts=2, t_max=15, seed=0, lid_prefix="a")
    s = r.copy()
    s["k"] = "other"  # no fact ever matches
    s["lid"] = ["b" + str(i) for i in range(len(s))]
    out = reference_negation_join(r, s, THETA_K, "anti")
    assert rows(out[["k", "ts", "te", "p"]]) == rows(r[["k", "ts", "te", "p"]])
    assert (out["lineage"] == r.sort_values("lid")["lid"].sort_values().values).any()


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_output_probability_bounded_by_positive_tuple(data):
    seed = data.draw(st.integers(0, 10_000))
    r = random_tp_pdf(5, n_facts=2, t_max=15, seed=seed, lid_prefix="a")
    s = random_tp_pdf(5, n_facts=2, t_max=15, seed=seed + 1, lid_prefix="b")
    out = reference_negation_join(r, s, THETA_K, "anti")
    p_by_lid = dict(zip(r["lid"], r["p"]))
    for _, row in out.iterrows():
        r_lid = row["lineage"].split(" &")[0]
        assert row["p"] <= p_by_lid[r_lid] + 1e-12
