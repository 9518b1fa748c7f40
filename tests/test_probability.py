"""The closed-form negation probability against the possible-worlds
valuation of its lineage."""
import pytest
from hypothesis import given, settings, strategies as st

from repro.lineage import negation_probability
from worlds import probability_enumerate

PROBS = {"a": 0.7, "b": 0.6, "c": 0.9, "d": 0.25}


def test_enumeration_handles_repeated_variables():
    # a & ~a is unsatisfiable; a | a has probability p(a)
    assert probability_enumerate("a & ~a", PROBS) == pytest.approx(0.0)
    assert probability_enumerate("a | a", PROBS) == pytest.approx(0.7)


@pytest.mark.parametrize(
    "p_r, s_ps, expected",
    [
        (0.7, [], 0.7),
        (0.7, [0.7], 0.21),
        (0.7, [0.7, 0.6], 0.084),
        (0.7, [0.6], 0.28),
        (0.5, [1.0], 0.0),  # a matching tuple with p=1 forces probability 0
    ],
)
def test_negation_probability_closed_form(p_r, s_ps, expected):
    # the paper's Fig. 3 probabilities are the first four cases
    assert negation_probability(p_r, s_ps) == pytest.approx(expected)


@settings(max_examples=60, deadline=None)
@given(
    ps=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=5),
    p_r=st.floats(min_value=0.01, max_value=1.0),
)
def test_negation_probability_equals_formula_valuation(ps, p_r):
    probs = {"r": p_r, **{f"s{i}": p for i, p in enumerate(ps)}}
    if len(ps) == 1:
        text = "r & ~s0"
    else:
        text = "r & ~(" + " | ".join(f"s{i}" for i in range(len(ps))) + ")"
    assert negation_probability(p_r, ps) == pytest.approx(
        probability_enumerate(text, probs)
    )

