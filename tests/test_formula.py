"""Unit tests for the lineage formula AST and its serialization."""
import pytest

from repro.lineage import conjunction_lineage, negation_lineage
from worlds import And, Not, Or, Var, parse, serialize


@pytest.mark.parametrize(
    "text",
    [
        "a1",
        "~a1",
        "~~a1",
        "a1 & b2",
        "a1 | b2",
        "a1 & b2 & c3",
        "a1 | b2 | c3",
        "a1 & ~b2",
        "a1 & ~(b2 | b3)",
        "(a1 | b2) & c3",
        "~(a1 & b2)",
        "a1 & (b2 | ~c3) & ~d4",
        "a:17 & ~(b:3 | b:5)",
        "x_1 | y.2",
    ],
)
def test_parse_serialize_roundtrip(text):
    assert serialize(parse(text)) == text


@pytest.mark.parametrize(
    "text, canonical",
    [
        ("(a1)", "a1"),
        ("((a1 & b2))", "a1 & b2"),
        ("a1 & (b2 & c3)", "a1 & b2 & c3"),
        ("a1 | (b2 | c3)", "a1 | b2 | c3"),
        ("~( a1 )", "~a1"),
    ],
)
def test_parse_normalizes_redundant_parens(text, canonical):
    assert serialize(parse(text)) == canonical


@pytest.mark.parametrize("bad", ["", "&", "a1 &", "& a1", "a1 b2", "(a1", "a1)", "a1 ~ b2", "a1 && b2"])
def test_parse_rejects_bad_syntax(bad):
    with pytest.raises(ValueError):
        parse(bad)


def test_and_or_flatten_on_construction():
    f = And([And([Var("a"), Var("b")]), Var("c")])
    assert len(f.children) == 3
    g = Or([Var("a"), Or([Var("b"), Var("c")])])
    assert len(g.children) == 3


@pytest.mark.parametrize("cls", [And, Or])
def test_connectives_require_two_children(cls):
    with pytest.raises(ValueError):
        cls([Var("a")])


def test_variables():
    f = parse("a1 & ~(b2 | b3) & a1")
    assert f.variables() == {"a1", "b2", "b3"}


@pytest.mark.parametrize(
    "text, assignment, expected",
    [
        ("a", {"a": True}, True),
        ("~a", {"a": True}, False),
        ("a & b", {"a": True, "b": False}, False),
        ("a | b", {"a": False, "b": True}, True),
        ("a & ~(b | c)", {"a": True, "b": False, "c": False}, True),
        ("a & ~(b | c)", {"a": True, "b": True, "c": False}, False),
        ("a & ~(b | c)", {"a": False, "b": False, "c": False}, False),
    ],
)
def test_evaluate(text, assignment, expected):
    assert parse(text).evaluate(assignment) is expected


def test_operator_overloads_build_same_trees():
    assert serialize(Var("a") & Var("b")) == "a & b"
    assert serialize(Var("a") | Var("b")) == "a | b"
    assert serialize(~Var("a")) == "~a"
    assert serialize(Var("a") & ~(Var("b") | Var("c"))) == "a & ~(b | c)"


def test_negation_lineage_single_is_unparenthesized():
    # matches the paper's rendering a1 ∧ ¬b3
    assert negation_lineage("a1", ["b3"]) == "a1 & ~b3"


def test_negation_lineage_many_sorts_disjuncts():
    assert negation_lineage("a1", ["b3", "b2"]) == "a1 & ~(b2 | b3)"


def test_negation_lineage_requires_negatives():
    with pytest.raises(ValueError):
        negation_lineage("a1", [])


def test_conjunction_lineage():
    assert conjunction_lineage("a1", "b3") == "a1 & b3"


def test_repr_and_str():
    f = parse("a & ~b")
    assert str(f) == "a & ~b"
    assert "a & ~b" in repr(f)
