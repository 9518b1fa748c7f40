"""Lineage and probability of the TP join tuples.

A lineage expression (paper Section III) is a Boolean formula over
base-tuple identifiers, which are independent Boolean random
variables. The TP joins with negation only produce three shapes, one
per window set (paper Section V):

- unmatched:    ``r``
- overlapping:  ``r & s``
- negating:     ``r & ~(s1 | s2 | ...)``

Each shape is read-once, so its probability has a closed form under
tuple independence (paper Table II): ``p_r``, ``p_r·p_s`` and
``p_r·Π(1 − p_si)``. These functions render the lineage text and value
the negating shape for the row-at-a-time finalize and the snapshot
reference; NJ's columnar kernel computes the same text and products
with Arrow and numpy.
"""
from __future__ import annotations


def negation_lineage(r_lid: str, s_lids: list[str]) -> str:
    """Serialize the negating-window lineage ``r & ~(s1 | s2 | ...)``.

    ``s_lids`` are sorted for a deterministic, canonical rendering —
    disjunction order carries no meaning (paper: within a group "the
    order of tuples with equal starting points does not matter").
    """
    if not s_lids:
        raise ValueError("negating lineage requires >= 1 negative tuple")
    inner = " | ".join(sorted(s_lids))
    if len(s_lids) == 1:
        return f"{r_lid} & ~{inner}"
    return f"{r_lid} & ~({inner})"


def conjunction_lineage(r_lid: str, s_lid: str) -> str:
    """Serialize the overlapping-window lineage ``r & s``."""
    return f"{r_lid} & {s_lid}"


def negation_probability(p_r: float, s_ps: list[float]) -> float:
    """Probability of a negating window: ``p_r · Π(1 − p_si)``.

    Closed form of ``P(r & ~(s1 | ... | sk))`` under independence.
    """
    out = p_r
    for p in s_ps:
        out *= 1.0 - p
    return out
