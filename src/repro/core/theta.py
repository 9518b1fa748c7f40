"""θ-conditions on the non-temporal attributes of two TP relations.

The paper's joins take a general predicate θ between the fact columns
of the positive and negative relation (e.g. ``a.Loc = b.Loc`` for the
running example; ``same Value_ID ∧ different Station_ID`` for the
Meteo workload). A :class:`Theta` is a small declarative conjunction
of column comparisons that can be rendered two ways:

- a Spark ``Column`` for the conventional θ∧overlap join (NJ and TA);
- a pure-Python pairwise predicate for the reference implementation.

Equality comparisons are listed first so Catalyst can extract them as
equi-join keys (SortMergeJoin) and plan the residual comparisons as
filters — mirroring how PostgreSQL's optimizer picks merge join vs
nested loop depending on θ's selectivity (paper Section VII-A).
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd
from pyspark.sql import Column, DataFrame, functions as F

_OPS = {"=", "!=", "<", "<=", ">", ">="}

_PY_OPS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Theta:
    """Conjunction of ``(left_col, op, right_col)`` fact comparisons.

    An empty ``terms`` tuple is the always-true θ (pure overlap join).
    """

    terms: tuple[tuple[str, str, str], ...]

    def __post_init__(self) -> None:
        for left, op, right in self.terms:
            if op not in _OPS:
                raise ValueError(f"unsupported θ operator {op!r}")

    @staticmethod
    def of(*terms: tuple[str, str, str]) -> "Theta":
        return Theta(tuple(terms))

    @staticmethod
    def equi(*cols: str) -> "Theta":
        """Equality on the named columns of both relations."""
        return Theta(tuple((c, "=", c) for c in cols))

    def swapped(self) -> "Theta":
        """θ with the roles of the two relations exchanged.

        Needed wherever the TA baseline or the snapshot reference runs
        with s as the positive relation: the right outer join (the left
        join of the swapped arguments) and the full outer join, which
        re-runs the anti join with the arguments reversed (paper
        Algorithm 3, line 18). NJ never swaps θ: its right and full
        joins evaluate θ once, in one r ⟖ s or r ⟗ s join.
        """
        flip = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "=", "!=": "!="}
        return Theta(tuple((r, flip[op], l) for l, op, r in self.terms))

    def spark_condition(
        self,
        left: DataFrame,
        right: DataFrame,
        lprefix: str = "",
        rprefix: str = "",
    ) -> Column:
        """The θ predicate as a Spark Column over two DataFrames.

        ``lprefix``/``rprefix`` are prepended to the column names, for
        join inputs whose fact columns were disambiguated by prefixing.
        """
        cond = F.lit(True)
        for lcol, op, rcol in self.terms:
            a, b = left[lprefix + lcol], right[rprefix + rcol]
            term = {
                "=": a == b,
                "!=": a != b,
                "<": a < b,
                "<=": a <= b,
                ">": a > b,
                ">=": a >= b,
            }[op]
            cond = cond & term
        return cond

    def matches(self, left_row: dict, right_row: dict) -> bool:
        """Pure-Python evaluation for the reference implementation.

        A term with a null or NaN operand is false, as in SQL (and so
        in Spark and DuckDB).
        """
        return all(
            not pd.isna(a := left_row[lcol])
            and not pd.isna(b := right_row[rcol])
            and _PY_OPS[op](a, b)
            for lcol, op, rcol in self.terms
        )
