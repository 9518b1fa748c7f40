"""Tests for TP relation conventions and validation."""
import pandas as pd
import pytest

from repro.tp.model import TP_COLS, fact_columns
from util import paper_a, paper_b, tp_pdf, validate_tp_pdf


def test_fact_columns_excludes_annotations():
    assert fact_columns(paper_a()) == ["name", "loc"]
    assert fact_columns(paper_b()) == ["hotel", "loc"]


def test_tp_pdf_types():
    pdf = paper_a()
    assert pdf["ts"].dtype == "int64"
    assert pdf["te"].dtype == "int64"
    assert pdf["p"].dtype == "float64"


def test_tp_pdf_column_order():
    assert list(paper_a().columns) == ["name", "loc"] + list(TP_COLS)


@pytest.mark.parametrize("pdf", [paper_a(), paper_b()])
def test_paper_relations_are_valid(pdf):
    validate_tp_pdf(pdf)


def test_validate_rejects_missing_column():
    with pytest.raises(ValueError, match="missing TP column"):
        validate_tp_pdf(paper_a().drop(columns=["p"]))


def test_validate_rejects_empty_interval():
    pdf = tp_pdf([("x", "a1", 5, 5, 0.5)], ["k"])
    with pytest.raises(ValueError, match="intervals"):
        validate_tp_pdf(pdf)


def test_validate_rejects_inverted_interval():
    pdf = tp_pdf([("x", "a1", 7, 3, 0.5)], ["k"])
    with pytest.raises(ValueError, match="intervals"):
        validate_tp_pdf(pdf)


@pytest.mark.parametrize("p", [0.0, -0.3, 1.5])
def test_validate_rejects_bad_probability(p):
    pdf = tp_pdf([("x", "a1", 0, 5, p)], ["k"])
    with pytest.raises(ValueError, match="probabilities"):
        validate_tp_pdf(pdf)


def test_validate_rejects_duplicate_lids():
    pdf = tp_pdf([("x", "a1", 0, 5, 0.5), ("y", "a1", 0, 5, 0.5)], ["k"])
    with pytest.raises(ValueError, match="duplicate base-tuple ids"):
        validate_tp_pdf(pdf)


def test_validate_rejects_overlapping_same_fact():
    pdf = tp_pdf([("x", "a1", 0, 5, 0.5), ("x", "a2", 3, 8, 0.5)], ["k"])
    with pytest.raises(ValueError, match="duplicate-free"):
        validate_tp_pdf(pdf)


def test_validate_accepts_adjacent_same_fact():
    validate_tp_pdf(tp_pdf([("x", "a1", 0, 5, 0.5), ("x", "a2", 5, 8, 0.5)], ["k"]))


def test_validate_accepts_overlap_across_facts():
    validate_tp_pdf(tp_pdf([("x", "a1", 0, 5, 0.5), ("y", "a2", 2, 8, 0.5)], ["k"]))

