"""Brute-force snapshot-semantics reference for TP joins with negation.

Computes the TP join per time point, directly from the definitions of
TP snapshot reducibility and TP change preservation (paper Section
III/IV), with no windows, sweeps, or joins — the semantic ground truth
the optimized operators are tested against on small inputs.

Per time point ``t`` and tuple ``p̃`` of the positive relation valid
at ``t`` with matching valid negative tuples ``S``:

- ``S = ∅``  → output atom ``(p̃.F, -, λ=p̃, p=p̃.p)``;
- ``S ≠ ∅`` → the negating atom
  ``(p̃.F, -, λ=p̃ ∧ ¬(∨S), p=p̃.p·Π(1-s.p))`` and, for non-anti ops,
  one matched atom ``(p̃.F, s.F, λ=p̃∧s, p=p̃.p·s.p)`` per ``s ∈ S``.

Atoms are then coalesced into maximal intervals over consecutive time
points with equal facts and equivalent lineages (change preservation).
Lineage equivalence is string equality of the canonical serialization
(s-lineage disjunctions sorted), which is sound and complete for the
read-once shapes these operators produce.

Output column names and order match
:func:`repro.core.negation_joins.negation_join` exactly so results can
be compared frame-to-frame.
"""
from __future__ import annotations

import pandas as pd

from ..lineage import conjunction_lineage, negation_lineage, negation_probability
from ..tp.model import fact_columns
from .theta import Theta


def _atoms_one_side(
    r_pdf: pd.DataFrame,
    s_pdf: pd.DataFrame,
    theta: Theta,
    *,
    with_matches: bool,
) -> list[tuple]:
    """Per-time-point output atoms of r (positive) vs s (negative).

    Each atom is ``(t, r_fact_tuple, s_fact_tuple | None, lineage, p)``.
    """
    r_facts, s_facts = fact_columns(r_pdf), fact_columns(s_pdf)
    r_rows = r_pdf.to_dict("records")
    s_rows = s_pdf.to_dict("records")
    atoms: list[tuple] = []
    for r in r_rows:
        for t in range(r["ts"], r["te"]):
            matches = [
                s
                for s in s_rows
                if s["ts"] <= t < s["te"] and theta.matches(r, s)
            ]
            rf = tuple(r[c] for c in r_facts)
            if not matches:
                atoms.append((t, rf, None, r["lid"], r["p"]))
            else:
                lin = negation_lineage(r["lid"], [s["lid"] for s in matches])
                p = negation_probability(r["p"], [s["p"] for s in matches])
                atoms.append((t, rf, None, lin, p))
                if with_matches:
                    for s in matches:
                        sf = tuple(s[c] for c in s_facts)
                        atoms.append(
                            (
                                t,
                                rf,
                                sf,
                                conjunction_lineage(r["lid"], s["lid"]),
                                r["p"] * s["p"],
                            )
                        )
    return atoms


def _coalesce(atoms: list[tuple]) -> list[tuple]:
    """Merge consecutive time points with equal facts and lineage.

    Returns ``(r_fact, s_fact, lineage, ts, te, p)`` rows with maximal
    intervals (TP change preservation).
    """
    by_key: dict[tuple, list[tuple[int, float]]] = {}
    for t, rf, sf, lin, p in atoms:
        by_key.setdefault((rf, sf, lin), []).append((t, p))
    out: list[tuple] = []
    for (rf, sf, lin), points in by_key.items():
        points.sort()
        run_start = prev = None
        for t, p in points:
            if prev is not None and t == prev + 1:
                prev = t
                continue
            if prev is not None:
                out.append((rf, sf, lin, run_start, prev + 1, run_p))
            run_start = prev = t
            run_p = p
        out.append((rf, sf, lin, run_start, prev + 1, run_p))
    return out


def reference_negation_join(
    r_pdf: pd.DataFrame, s_pdf: pd.DataFrame, theta: Theta, op: str
) -> pd.DataFrame:
    """TP join with negation, computed per snapshot. Small inputs only."""
    r_facts, s_facts = fact_columns(r_pdf), fact_columns(s_pdf)
    if op == "right":
        out = reference_negation_join(s_pdf, r_pdf, theta.swapped(), "left")
        renamed = out.rename(
            columns={
                **{f"r_{c}": f"_s_{c}" for c in s_facts},
                **{f"s_{c}": f"_r_{c}" for c in r_facts},
            }
        )
        renamed.columns = [c.lstrip("_") if c.startswith("_") else c for c in renamed.columns]
        cols = (
            [f"r_{c}" for c in r_facts]
            + [f"s_{c}" for c in s_facts]
            + ["lineage", "ts", "te", "p"]
        )
        return renamed[cols]

    atoms = _atoms_one_side(r_pdf, s_pdf, theta, with_matches=(op != "anti"))
    rows = _coalesce(atoms)
    if op == "full":
        s_atoms = _atoms_one_side(s_pdf, r_pdf, theta.swapped(), with_matches=False)
        rows += [
            (None, rf, lin, ts, te, p)  # s-side facts land in the s_ columns
            for (rf, _sf, lin, ts, te, p) in _coalesce(s_atoms)
        ]

    records = []
    for rf, sf, lin, ts, te, p in rows:
        rec = {}
        if op == "anti":
            for i, c in enumerate(r_facts):
                rec[c] = rf[i]
        else:
            for i, c in enumerate(r_facts):
                rec[f"r_{c}"] = rf[i] if rf is not None else None
            for i, c in enumerate(s_facts):
                rec[f"s_{c}"] = sf[i] if sf is not None else None
        rec.update(lineage=lin, ts=ts, te=te, p=p)
        records.append(rec)
    if op == "anti":
        cols = r_facts + ["lineage", "ts", "te", "p"]
    else:
        cols = (
            [f"r_{c}" for c in r_facts]
            + [f"s_{c}" for c in s_facts]
            + ["lineage", "ts", "te", "p"]
        )
    return pd.DataFrame(records, columns=cols)
