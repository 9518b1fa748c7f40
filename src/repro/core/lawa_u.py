"""LAWA_U — Lineage-Aware Window Advancer for unmatched windows.

Paper Algorithm 1. Input: the winit rows of ONE r-tuple group (one
tuple of the positive relation together with all its θ-matching
overlapping s tuples, or a single null-match row), sorted by the
overlap start ``o_ts``. Output: the group's unmatched AND overlapping
windows in nondecreasing order of their start point — LAWA_U copies
overlapping windows through and fills the gaps of the r interval with
unmatched windows, exactly once each, in a single pass.

The paper formulates the sweep as a resumable ``status`` machine with
five boundary cases (Fig. 6); this implementation is the equivalent
single-cursor generator. Mapping to the paper's cases, with ``cursor``
playing the role of ``prevWindTe``/``windTs``:

- Case 1 (``cursor == wind.Os``): the next window is the overlapping
  window itself → copy, advance cursor to ``wind.Oe``.
- Case 2 (``cursor < wind.Os``): an unmatched gap precedes the next
  overlapping window → emit ``[cursor, wind.Os)``.
- Case 3 (cursor at an overlap end, another window of the same group
  follows): the gap ends at the next window's start — covered by
  Case 2 on the following iteration here.
- Case 4 (cursor at an overlap end, group exhausted): trailing gap
  ``[cursor, r_te)``.
- Case 5 (null-match row from the conventional left join, the one row
  whose ``s_lid`` is null): the whole r interval is one unmatched
  window.

Windows are plain dicts ``{w_ts, w_te, kind, s_row, s_lids, s_ps}``
with ``kind`` in ``{"U", "O"}``; the caller supplies the r-side
context (fact, lid, p) when materializing output rows.

This generator is the specification: NJ's Spark pass runs the columnar
kernel :mod:`repro.core.columnar`, which the property tests compare
with it.
"""
from __future__ import annotations

from typing import Iterator

KIND_UNMATCHED = "U"
KIND_OVERLAPPING = "O"
KIND_NEGATING = "N"


def _unmatched(w_ts: int, w_te: int) -> dict:
    return {
        "w_ts": w_ts,
        "w_te": w_te,
        "kind": KIND_UNMATCHED,
        "s_row": None,
        "s_lids": [],
        "s_ps": [],
    }


def sweep_group(r_ts: int, r_te: int, matches: list[dict]) -> Iterator[dict]:
    """All unmatched + overlapping windows of one r-tuple group.

    ``matches`` are the winit rows of the group sorted by ``o_ts``
    (ties broken arbitrarily — paper: "the order of tuples with equal
    starting points does not matter"). A single row with a null
    ``s_lid`` denotes the null-extended row of the conventional left
    join (r matched nothing); its ``o_ts``/``o_te`` are a filler, and
    a real overlap may start at any time point, negative ones too.
    """
    if len(matches) == 1 and matches[0]["s_lid"] is None:
        yield _unmatched(r_ts, r_te)  # Case 5
        return
    cursor = r_ts
    for m in matches:
        o_ts, o_te = m["o_ts"], m["o_te"]
        if m["s_lid"] is None:
            raise ValueError(
                "null-match winit row mixed with real matches in one group"
            )
        if cursor < o_ts:
            yield _unmatched(cursor, o_ts)  # Cases 2 and 3
            cursor = o_ts
        yield {  # Case 1: copy the overlapping window through
            "w_ts": o_ts,
            "w_te": o_te,
            "kind": KIND_OVERLAPPING,
            "s_row": m,
            "s_lids": [m["s_lid"]],
            "s_ps": [m["s_p"]],
        }
        if o_te > cursor:
            cursor = o_te
    if cursor < r_te:
        yield _unmatched(cursor, r_te)  # Case 4
