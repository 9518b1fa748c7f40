"""Tests for the θ-condition abstraction."""
import pytest

from repro.core.theta import Theta
from oracle import theta_sql


def test_of_and_equi_builders():
    assert Theta.equi("loc").terms == (("loc", "=", "loc"),)
    t = Theta.of(("value_id", "=", "value_id"), ("station_id", "!=", "station_id"))
    assert len(t.terms) == 2


def test_rejects_unknown_operator():
    with pytest.raises(ValueError):
        Theta.of(("a", "~", "b"))


@pytest.mark.parametrize(
    "op, flipped",
    [("=", "="), ("!=", "!="), ("<", ">"), (">", "<"), ("<=", ">="), (">=", "<=")],
)
def test_swapped_flips_operators_and_sides(op, flipped):
    t = Theta.of(("x", op, "y")).swapped()
    assert t.terms == (("y", flipped, "x"),)


def test_swapped_is_involution():
    t = Theta.of(("a", "<", "b"), ("c", "!=", "d"))
    assert t.swapped().swapped() == t


@pytest.mark.parametrize(
    "op, l, r, expected",
    [
        ("=", 1, 1, True),
        ("=", 1, 2, False),
        ("!=", 1, 2, True),
        ("<", 1, 2, True),
        ("<=", 2, 2, True),
        (">", 1, 2, False),
        (">=", 2, 2, True),
    ],
)
def test_matches_python_semantics(op, l, r, expected):
    t = Theta.of(("x", op, "y"))
    assert t.matches({"x": l}, {"y": r}) is expected


def test_matches_is_conjunction():
    t = Theta.of(("a", "=", "a"), ("b", "!=", "b"))
    assert t.matches({"a": 1, "b": 2}, {"a": 1, "b": 3})
    assert not t.matches({"a": 1, "b": 2}, {"a": 1, "b": 2})
    assert not t.matches({"a": 1, "b": 2}, {"a": 9, "b": 3})


def test_empty_theta_matches_everything():
    assert Theta.of().matches({}, {})
    assert theta_sql(Theta.of(), "l", "r") == "TRUE"


def test_sql_rendering():
    t = Theta.of(("value_id", "=", "value_id"), ("station_id", "!=", "station_id"))
    assert (
        theta_sql(t, "l", "r")
        == "l.value_id = r.value_id AND l.station_id <> r.station_id"
    )


def test_spark_condition_filters_pairs(spark):
    l = spark.createDataFrame([(1, 10), (2, 20)], ["k", "v"])
    r = spark.createDataFrame([(1, 30), (3, 40)], ["k", "w"])
    t = Theta.equi("k")
    out = l.join(r, t.spark_condition(l, r), "inner").collect()
    assert len(out) == 1 and out[0]["v"] == 10 and out[0]["w"] == 30


def test_spark_condition_with_prefixes(spark):
    l = spark.createDataFrame([(1,)], ["r_k"])
    r = spark.createDataFrame([(1,), (2,)], ["s_k"])
    t = Theta.equi("k")
    assert l.join(r, t.spark_condition(l, r, "r_", "s_"), "inner").count() == 1


def test_spark_condition_inequality(spark):
    l = spark.createDataFrame([(1, 7)], ["m", "st"])
    r = spark.createDataFrame([(1, 7), (1, 8), (2, 9)], ["m", "st"])
    t = Theta.of(("m", "=", "m"), ("st", "!=", "st"))
    out = l.join(r, t.spark_condition(l, r), "inner").collect()
    assert len(out) == 1
