"""TP relation conventions.

A temporal-probabilistic relation (paper Section III) is represented
as a DataFrame (Spark or pandas) with:

- *fact columns* — any number of ordinary attribute columns (the fact
  ``F``);
- ``lid`` (string) — the base-tuple identifier, an independent Boolean
  random variable; unique within a database;
- ``ts``, ``te`` (int64) — the half-open validity interval ``[ts, te)``
  over a finite ordered domain of integer time points;
- ``p`` (float64) — the probability that the tuple is true at each
  time point of its interval (and it is false with ``1-p`` there, and
  always false outside the interval).

``TP_COLS`` are reserved; everything else in a relation is fact.
"""
from __future__ import annotations

TP_COLS = ("lid", "ts", "te", "p")


def fact_columns(df) -> list[str]:
    """The fact (non-TP-annotation) columns of a TP relation, in order."""
    return [c for c in df.columns if c not in TP_COLS]
