"""LAWA_N — Lineage-Aware Window Advancer for negating windows.

Paper Algorithm 2. Input: the unmatched + overlapping windows of one
r-tuple group as produced by LAWA_U, in nondecreasing start order.
Output: the same windows copied through (Alg. 2 line 9), interleaved
in start order with the group's negating windows.

A negating window spans a maximal subinterval of the r tuple during
which the *set* of valid θ-matching s tuples is constant and
non-empty; its ``λs`` is the disjunction of their lineages (paper
Table II). The paper advances a priority queue of ``(Te, λs)`` pairs
so that "a window is created when there is a change in the tuples of
relation s that are valid, either because a tuple ends or a new tuple
begins". This implementation realizes exactly that event partition: a
heap of end points plus an active-tuple map, keyed on the overlapping
windows' start events; every elementary interval whose active set is
non-empty becomes one negating window. Maximality (TP change
preservation) is automatic — base-tuple ids are unique, so the active
*set* necessarily changes at every event point.

This generator is the specification: NJ's Spark pass runs the columnar
kernel :mod:`repro.core.columnar`, which the property tests compare
with it.
"""
from __future__ import annotations

import heapq
from typing import Iterable, Iterator

from .lawa_u import KIND_NEGATING, KIND_OVERLAPPING


def _negating(w_ts: int, w_te: int, active: dict[str, float]) -> dict:
    lids = sorted(active)
    return {
        "w_ts": w_ts,
        "w_te": w_te,
        "kind": KIND_NEGATING,
        "s_row": None,
        "s_lids": lids,
        "s_ps": [active[l] for l in lids],
    }


def sweep_group(windows: Iterable[dict]) -> Iterator[dict]:
    """Copy a group's LAWA_U windows through and add negating windows.

    ``windows`` must be in nondecreasing ``w_ts`` order (the order
    LAWA_U emits). Negating windows are interleaved so the combined
    output stays sorted by ``w_ts`` — the pipelined property paper
    Algorithm 3 relies on.
    """
    active: dict[str, float] = {}  # s_lid -> p of currently valid s tuples
    ends: list[tuple[int, str]] = []  # heap of (Te, s_lid) — the paper's PQ
    cursor = 0  # start of the next elementary interval; valid iff active

    def drain(limit: int | None) -> Iterator[dict]:
        """Handle every end event at time <= limit (all if None).

        Emits the negating window that closes at each end point, then
        retires the ended tuple from the active set.
        """
        nonlocal cursor
        while ends and (limit is None or ends[0][0] <= limit):
            t, lid = heapq.heappop(ends)
            if cursor < t:  # several tuples ending at t: emit once
                yield _negating(cursor, t, active)
            cursor = t
            del active[lid]

    for w in windows:
        # negating windows closing before this window starts are emitted
        # first, keeping the output stream sorted by w_ts (paper Alg. 2
        # lines 24-28: drain the PQ "regardless of whether wind belongs
        # in the same or a different group")
        yield from drain(w["w_ts"])
        if w["kind"] == KIND_OVERLAPPING:
            start = w["w_ts"]
            if active and cursor < start:
                # a new s tuple begins: cut the running interval here
                yield _negating(cursor, start, active)
            cursor = start
            lid, p = w["s_lids"][0], w["s_ps"][0]
            active[lid] = p
            heapq.heappush(ends, (w["w_te"], lid))
        yield w  # copy every LAWA_U window through (paper line 9)
    yield from drain(None)
