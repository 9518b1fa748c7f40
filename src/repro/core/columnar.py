"""Columnar LAWA_U, LAWA_N and finalize over complete winit groups.

NJ's Spark pass (:func:`repro.core.stream.map_group_frames`) hands the
kernel pandas frames of the winit join, sorted by
``(r_lid, o_ts, o_te, s_lid)`` and cut so that each frame holds whole
groups, one positive tuple each. One call computes every window of
every group in the frame with numpy and Arrow array operations, then
renders the windows as window rows (:func:`sweep`) or as finalized TP
join tuples (:func:`join_sweep`, for all four joins). The row-at-a-time
generators are the specification: :func:`repro.core.lawa_u.sweep_group`,
:func:`repro.core.lawa_n.sweep_group` and
:func:`repro.core.negation_joins._finalize`. The property tests in
``tests/test_columnar.py`` hold this kernel to them.

- **LAWA_U.** The rows of a group arrive sorted by ``o_ts``. The gap
  before a row is ``[max(r_ts, running max of o_te over the earlier
  rows of its group), o_ts)`` when that is non-empty; the trailing gap
  ends at ``r_te``; a null-match row (null ``s_lid``) is one unmatched
  window over the whole r interval. Every matched row is an
  overlapping window.
- **LAWA_N.** A group's distinct event points (``o_ts ∪ o_te``) cut
  its r interval into elementary intervals. A row covers a contiguous
  run of them, so ``np.repeat`` expands rows into ``(interval, s row)``
  entries; sorted by ``(interval, s_lid)``, every interval with at
  least one entry is one negating window and its entries are the
  window's s tuples.
- **Finalize.** Lineage ``r``, ``r & s``, ``r & ~s`` or
  ``r & ~(s1 | s2 …)`` is built by Arrow string kernels, and p is
  ``r_p``, ``r_p·s_p`` or ``r_p·Π(1−p_i)``, multiplied in the same
  order as the specification.

Integral fact columns reach the kernel null-free, as the value (nulls
replaced by 0) plus a boolean :func:`null_flag` column; pandas would
otherwise turn an integral column with nulls into float64 and round
values beyond 2^53. :func:`carry_integral_nulls` does the Spark side,
and the kernel restores the nulls in its output.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from pyspark.sql import DataFrame, functions as F
from pyspark.sql.types import IntegralType

from .lawa_u import KIND_NEGATING, KIND_OVERLAPPING, KIND_UNMATCHED


def null_flag(column: str) -> str:
    """The boolean column that carries the nulls of integral ``column``.

    winit columns all start with ``r_``, ``s_`` or ``o_``, so the flag
    cannot collide with one of them.
    """
    return f"null_{column}"


def carry_integral_nulls(x: DataFrame, columns: list[str]) -> DataFrame:
    """Replace each nullable integral column of ``columns`` in ``x`` by
    its value with nulls as 0, and add its :func:`null_flag` column."""
    fields = {f.name: f for f in x.schema.fields}
    integral = [
        c for c in columns
        if isinstance(fields[c].dataType, IntegralType) and fields[c].nullable
    ]
    if not integral:
        return x
    return x.select(
        *[
            F.coalesce(F.col(c), F.lit(0).cast(fields[c].dataType)).alias(c)
            if c in integral
            else F.col(c)
            for c in x.columns
        ],
        *[F.col(c).isNull().alias(null_flag(c)) for c in integral],
    )


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Block:
    """The windows of one kind, one entry per window.

    ``head`` is the frame row of the window's r tuple (the first row of
    its group), ``src`` the frame row whose s facts the window carries
    (the matched row of an overlapping window, -1 otherwise), and the s
    tuples of window ``i`` are the frame rows
    ``members[offsets[i]:offsets[i + 1]]``, sorted by ``s_lid``.
    """

    head: np.ndarray
    src: np.ndarray
    ts: np.ndarray
    te: np.ndarray
    offsets: np.ndarray
    members: np.ndarray

    def __len__(self) -> int:
        return len(self.head)


def _block(head, ts, te, src=None, offsets=None, members=None) -> Block:
    n = len(head)
    return Block(
        head=head,
        src=np.full(n, -1, np.int64) if src is None else src,
        ts=ts,
        te=te,
        offsets=np.zeros(n + 1, np.int64) if offsets is None else offsets,
        members=np.empty(0, np.int64) if members is None else members,
    )


def _starts(values: np.ndarray) -> np.ndarray:
    """True where a run of equal consecutive values starts."""
    new = np.ones(len(values), bool)
    if len(values) > 1:
        new[1:] = values[1:] != values[:-1]
    return new


def _windows(frame: pd.DataFrame, with_negating: bool) -> dict[str, Block]:
    """The LAWA_U (and, if ``with_negating``, LAWA_N) windows of every
    group of ``frame``, by kind. A group is a run of one ``r_lid`` and,
    in the full outer join's rows, one ``side``."""
    n = len(frame)
    new_group = _starts(frame["r_lid"].to_numpy())
    if "side" in frame.columns:
        new_group |= _starts(frame["side"].to_numpy())
    group = np.cumsum(new_group) - 1
    first = np.flatnonzero(new_group)
    last = np.append(first[1:], n) - 1
    head = first[group]
    r_ts = frame["r_ts"].to_numpy(np.int64)
    r_te = frame["r_te"].to_numpy(np.int64)
    o_ts = frame["o_ts"].to_numpy(np.int64)
    o_te = frame["o_te"].to_numpy(np.int64)
    null = frame["s_lid"].isna().to_numpy()
    if (null & (first != last)[group]).any():
        raise ValueError("null-match winit row mixed with real matches in one group")
    matched = ~null

    # Running max of o_te within each group. Ranks in (group, o_te)
    # order grow from one group to the next, so a plain running max of
    # the ranks restarts at every group.
    order = np.lexsort((o_te, group))
    rank = np.empty(n, np.int64)
    rank[order] = np.arange(n)
    upto = o_te[order[np.maximum.accumulate(rank)]]
    cursor = np.where(new_group, r_ts, np.roll(upto, 1))

    gap = matched & (cursor < o_ts)
    tail = last[matched[last] & (upto[last] < r_te[last])]
    lone = np.flatnonzero(null)
    unmatched = _block(
        head=np.concatenate([lone, head[gap], tail]),
        ts=np.concatenate([r_ts[lone], cursor[gap], upto[tail]]),
        te=np.concatenate([r_te[lone], o_ts[gap], r_te[tail]]),
    )
    rows = np.flatnonzero(matched)
    overlapping = _block(
        head=head[rows],
        ts=o_ts[rows],
        te=o_te[rows],
        src=rows,
        offsets=np.arange(len(rows) + 1),
        members=rows,
    )
    out = {KIND_UNMATCHED: unmatched, KIND_OVERLAPPING: overlapping}
    if with_negating:
        out[KIND_NEGATING] = _negating(
            frame, rows, group[rows], o_ts[rows], o_te[rows], first
        )
    return out


def _negating(
    frame: pd.DataFrame,
    rows: np.ndarray,
    group: np.ndarray,
    o_ts: np.ndarray,
    o_te: np.ndarray,
    first: np.ndarray,
) -> Block:
    """LAWA_N over the matched ``rows`` of the frame; ``group``,
    ``o_ts`` and ``o_te`` are given for those rows, ``first`` is the
    first frame row of each group."""
    m = len(rows)
    if m == 0:
        empty = np.empty(0, np.int64)
        return _block(empty, empty, empty)
    # distinct event points per group, numbered in (group, time) order
    pt_group = np.concatenate([group, group])
    pt_time = np.concatenate([o_ts, o_te])
    order = np.lexsort((pt_time, pt_group))
    new_point = _starts(pt_group[order]) | _starts(pt_time[order])
    point = np.empty(2 * m, np.int64)
    point[order] = np.cumsum(new_point) - 1
    at = pt_time[order][new_point]
    point_group = pt_group[order][new_point]
    # Rows in (group, s_lid) order, expanded into one entry per covered
    # elementary interval; a stable sort by interval keeps s_lid order.
    lid = pa.array(frame["s_lid"].to_numpy()[rows], pa.string())
    by_lid = pc.sort_indices(
        pa.table({"g": group, "lid": lid}),
        sort_keys=[("g", "ascending"), ("lid", "ascending")],
    ).to_numpy()
    start = point[:m][by_lid]
    count = point[m:][by_lid] - start
    total = int(count.sum())
    offset = np.cumsum(count) - count
    interval = np.repeat(start - offset, count) + np.arange(total)
    entry = np.repeat(rows[by_lid], count)
    perm = np.argsort(interval, kind="stable")
    per_interval = np.bincount(interval, minlength=len(at))
    live = np.flatnonzero(per_interval)
    return _block(
        head=first[point_group[live]],
        ts=at[live],
        te=at[live + 1],
        offsets=np.concatenate([[0], np.cumsum(per_interval[live])]),
        members=entry[perm],
    )


# ---------------------------------------------------------------------------
# finalize
# ---------------------------------------------------------------------------

def _concat(blocks: list[Block]) -> Block:
    shift = np.cumsum([0] + [len(b.members) for b in blocks[:-1]])
    return Block(
        head=np.concatenate([b.head for b in blocks]),
        src=np.concatenate([b.src for b in blocks]),
        ts=np.concatenate([b.ts for b in blocks]),
        te=np.concatenate([b.te for b in blocks]),
        offsets=np.concatenate(
            [[0]] + [b.offsets[1:] + k for b, k in zip(blocks, shift)]
        ),
        members=np.concatenate([b.members for b in blocks]),
    )


def take(frame: pd.DataFrame, column: str, rows: np.ndarray):
    """``frame[column]`` at ``rows`` as a pandas array; row -1 is null.

    An integral column carried by :func:`carry_integral_nulls` comes
    back as a nullable ``IntegerArray`` with its nulls restored.
    """
    flag = null_flag(column)
    if flag in frame.columns:
        at = np.maximum(rows, 0)
        return pd.arrays.IntegerArray(
            frame[column].to_numpy()[at], frame[flag].to_numpy()[at] | (rows < 0)
        )
    return frame[column].array.take(rows, allow_fill=True)


def _lists(offsets: np.ndarray, values: pa.Array) -> pa.ListArray:
    return pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), values)


def _lineage(kind: str, b: Block, r_lid: pa.Array, s_lid: pa.Array) -> pa.Array:
    lam_r = r_lid.take(b.head)
    if kind == KIND_UNMATCHED:
        return lam_r
    if kind == KIND_OVERLAPPING:
        return pc.binary_join_element_wise(lam_r, s_lid.take(b.src), " & ")
    lids = _lists(b.offsets, s_lid.take(b.members))
    single = pa.array(np.diff(b.offsets) == 1)
    return pc.binary_join_element_wise(
        lam_r,
        pc.if_else(single, " & ~", " & ~("),
        pc.binary_join(lids, " | "),
        pc.if_else(single, "", ")"),
        "",
    )


def _probability(kind: str, b: Block, r_p: np.ndarray, s_p: np.ndarray) -> np.ndarray:
    p_r = r_p[b.head]
    if kind == KIND_UNMATCHED:
        return p_r
    if kind == KIND_OVERLAPPING:
        return p_r * s_p[b.src]
    if not len(b):
        return p_r
    # r_p·(1−p_1)·(1−p_2)… left to right, as negation_probability does
    factors = np.insert(1.0 - s_p[b.members], b.offsets[:-1], p_r)
    return np.multiply.reduceat(factors, b.offsets[:-1] + np.arange(len(b)))


def _join_tuples(
    frame: pd.DataFrame, by_kind: dict[str, Block], w: Block, facts: dict
) -> pd.DataFrame:
    """The finalized TP join tuples of the windows ``w`` (``by_kind``
    concatenated): the ``facts`` columns, then lineage, ts, te and p."""
    r_p = frame["r_p"].to_numpy(np.float64)
    s_p = frame["s_p"].to_numpy(np.float64)
    r_lid = pa.array(frame["r_lid"].to_numpy(), pa.string())
    s_lid = pa.array(frame["s_lid"].to_numpy(), pa.string())
    out = dict(facts)
    out["lineage"] = pa.concat_arrays(
        [_lineage(k, b, r_lid, s_lid) for k, b in by_kind.items()]
    ).to_pandas()
    out["ts"], out["te"] = w.ts, w.te
    out["p"] = np.concatenate(
        [_probability(k, b, r_p, s_p) for k, b in by_kind.items()]
    )
    return pd.DataFrame(out)


def sweep(
    frame: pd.DataFrame, r_facts: list[str], s_facts: list[str], with_negating: bool
) -> pd.DataFrame:
    """Every window of the complete groups in ``frame``, as rows of the
    window schema of :func:`repro.core.negation_joins.wuo`."""
    by_kind = _windows(frame, with_negating)
    w = _concat(list(by_kind.values()))
    out: dict[str, object] = {f"r_{c}": take(frame, f"r_{c}", w.head) for c in r_facts}
    out["r_lid"] = frame["r_lid"].to_numpy()[w.head]
    out["r_p"] = frame["r_p"].to_numpy(np.float64)[w.head]
    out["w_ts"], out["w_te"] = w.ts, w.te
    for c in s_facts:
        out[f"s_{c}"] = take(frame, f"s_{c}", w.src)
    s_p = frame["s_p"].to_numpy(np.float64)
    s_lid = pa.array(frame["s_lid"].to_numpy(), pa.string())
    out["s_lids"] = _lists(w.offsets, s_lid.take(w.members)).to_pandas()
    out["s_ps"] = _lists(w.offsets, pa.array(s_p[w.members])).to_pandas()
    out["kind"] = np.repeat(list(by_kind), [len(b) for b in by_kind.values()])
    return pd.DataFrame(out)


def join_sweep(
    frame: pd.DataFrame, r_facts: list[str], s_facts: list[str], op: str
) -> pd.DataFrame:
    """The TP join tuples of ``op`` over the complete groups in ``frame``.

    ``frame`` holds rows of :func:`repro.core.windows.winit` for the
    join type of ``op``. A group whose positive tuple is s (``side`` 1,
    or every group of a right join) is the anti join ``s ▷ r`` in a
    full join and the left join ``s ⟕ r`` in a right join; every other
    group is ``r ▷ s`` or ``r ⟕ s``. Overlapping windows are kept in
    the outer joins' left-join groups only. A window takes the positive
    tuple's facts from its group's head row and the negative tuple's
    from its matched row, which only an overlapping window has; the
    anti join names r's facts without the ``r_`` prefix.
    """
    if "side" in frame.columns:
        s_positive = frame["side"].to_numpy() == 1
    else:
        s_positive = np.full(len(frame), op == "right")
    by_kind = _windows(frame, True)
    o = by_kind[KIND_OVERLAPPING]
    keep = (s_positive[o.src] == (op == "right")) & (op != "anti")
    by_kind[KIND_OVERLAPPING] = _block(
        head=o.head[keep],
        ts=o.ts[keep],
        te=o.te[keep],
        src=o.src[keep],
        offsets=np.arange(keep.sum() + 1),
        members=o.src[keep],
    )
    w = _concat(list(by_kind.values()))
    of_s = s_positive[w.head]
    r_rows = np.where(of_s, w.src, w.head)
    facts = {
        (c if op == "anti" else f"r_{c}"): take(frame, f"r_{c}", r_rows)
        for c in r_facts
    }
    if op != "anti":
        s_rows = np.where(of_s, w.head, w.src)
        facts.update({f"s_{c}": take(frame, f"s_{c}", s_rows) for c in s_facts})
    return _join_tuples(frame, by_kind, w, facts)
