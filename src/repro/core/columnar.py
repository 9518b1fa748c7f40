"""Columnar LAWA_U, LAWA_N and finalize over complete winit groups.

NJ's Spark pass (:func:`repro.core.stream.map_group_frames`) hands the
kernel pandas frames of the winit join, sorted by
``(r_lid, o_ts, o_te, s_lid)`` and cut so that each frame holds whole
groups, one positive tuple each. One call computes every window of
every group in the frame with numpy and Arrow array operations into
one window table (:class:`Windows`), then renders it as window rows
(:func:`sweep`) or as finalized TP join tuples (:func:`join_sweep`, for
all four joins). The row-at-a-time generators are the specification:
:func:`repro.core.lawa_u.sweep_group`,
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
- **Finalize.** One Arrow string join builds every lineage from
  ``r``, a connector chosen by kind (``""``, ``" & "``, ``" & ~"`` or
  ``" & ~("``), the members' lids joined by ``" | "`` and a closing
  ``")"`` or ``""``: ``r``, ``r & s``, ``r & ~s`` or
  ``r & ~(s1 | s2 …)``. One ``np.multiply.reduceat`` gives p as
  ``r_p`` times a factor per member, ``s_p`` in an overlapping window
  and ``1 − s_p`` in a negating one, in the specification's order.

Groups are keyed by lid, so each must hold one positive tuple:
:func:`check_groups` fails the frame, naming the lid, where two tuples
of one relation share it and their rows meet in one group.

Nullable integral facts arrive as exact pandas ``Int64`` columns, and
the kernel moves every fact column with ``Series.array.take``, which
keeps them exact; row -1 there is null.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .lawa_u import KIND_NEGATING, KIND_OVERLAPPING, KIND_UNMATCHED


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

_KINDS = np.array([KIND_UNMATCHED, KIND_OVERLAPPING, KIND_NEGATING])
_U, _O, _N = range(3)  # codes into _KINDS


@dataclass(frozen=True)
class Windows:
    """Every window of a frame, one entry per window.

    ``kind`` is the window's code into :data:`_KINDS`, ``head`` the frame
    row of its r tuple (a row of its group), and ``src`` the frame row
    whose s facts it carries (the matched row of an overlapping window,
    -1 otherwise). Its s tuples are the frame rows
    ``members[offsets[i]:offsets[i + 1]]``, sorted by ``s_lid``: none
    for an unmatched window, the matched row for an overlapping one and
    the active s tuples for a negating one.
    """

    kind: np.ndarray
    head: np.ndarray
    src: np.ndarray
    ts: np.ndarray
    te: np.ndarray
    offsets: np.ndarray
    members: np.ndarray

    def __len__(self) -> int:
        return len(self.head)

    def where(self, keep: np.ndarray) -> Windows:
        """The windows where ``keep`` is true, with their members."""
        count = np.diff(self.offsets)[keep]
        return Windows(
            kind=self.kind[keep],
            head=self.head[keep],
            src=self.src[keep],
            ts=self.ts[keep],
            te=self.te[keep],
            offsets=np.concatenate([[0], np.cumsum(count)]),
            members=self.members[_runs(self.offsets[:-1][keep], count)],
        )


def _runs(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The integers ``start[i], start[i] + 1, …`` (``count[i]`` of them)
    for every ``i``, concatenated."""
    before = np.cumsum(count) - count
    return np.repeat(start - before, count) + np.arange(int(count.sum()))


def _starts(values: np.ndarray) -> np.ndarray:
    """True where a run of equal consecutive values starts."""
    new = np.ones(len(values), bool)
    if len(values) > 1:
        new[1:] = values[1:] != values[:-1]
    return new


def _shared_lid(why: str, *lids: np.ndarray) -> None:
    """Raise ``ValueError`` if ``lids`` are not empty: two tuples of one
    relation share the first lid, or one of the first lids of several
    arrays."""
    if len(lids[0]):
        names = " or the lid ".join(repr(a[0]) for a in lids)
        raise ValueError(f"two tuples of one relation share the lid {names}: {why}")


def _differs(values, rows: np.ndarray) -> np.ndarray:
    """Whether ``values`` (a column's ``.values``) at ``rows`` differ
    from the row before; two nulls are equal."""
    a, b = values[rows], values[rows - 1]
    out = a != b
    if isinstance(out, pd.arrays.BooleanArray):  # Int64: NA where a null meets a value
        out = out.to_numpy(bool, na_value=True)
    if out.any():
        out &= ~(pd.isna(a) & pd.isna(b))
    return out


def check_groups(
    frame: pd.DataFrame,
    new_group: np.ndarray,
    matched: np.ndarray,
    r_facts: Sequence[str],
    s_facts: Sequence[str] = (),
    s_positive: np.ndarray | None = None,
) -> None:
    """Raise ``ValueError`` (:func:`_shared_lid`) when a group of
    ``frame``, whose first row is where ``new_group`` is true, holds the
    rows of more than one positive tuple: a null-match row (not
    ``matched``) shares the group with another row, or the rows disagree
    on ``r_ts``, ``r_te``, ``r_p`` or the positive tuple's facts, which
    are ``r_<c>`` for ``c`` in ``r_facts``, or ``s_<c>`` for ``c`` in
    ``s_facts`` in the rows where ``s_positive``. A row that repeats the
    ``(o_ts, o_te, s_lid)`` of the row before it fails too, naming both
    lids: it comes from two equal positive tuples or from two negative
    tuples with one lid.
    """
    inner = np.flatnonzero(~new_group)  # every row but a group's first
    r_lid, s_lid = frame["r_lid"].to_numpy(), frame["s_lid"].to_numpy()
    _shared_lid(
        "a null-match winit row shares its group with other rows",
        r_lid[inner[~matched[inner] | ~matched[inner - 1]]],
    )
    s_rows = np.zeros(len(inner), bool) if s_positive is None else s_positive[inner]
    columns = [(c, None) for c in ("r_ts", "r_te", "r_p")]
    columns += [(f"r_{c}", ~s_rows) for c in r_facts]
    columns += [(f"s_{c}", s_rows) for c in s_facts]
    for c, where in columns:
        rows = inner if where is None else inner[where]
        _shared_lid(
            f"its group's rows disagree on {c}",
            r_lid[rows[_differs(frame[c].values, rows)]],
        )
    o_ts, o_te = frame["o_ts"].to_numpy(), frame["o_te"].to_numpy()
    same = (o_ts[inner] == o_ts[inner - 1]) & (o_te[inner] == o_te[inner - 1])
    # a null s_lid in a group of several rows has failed above
    same[same] = s_lid[inner[same]] == s_lid[inner[same] - 1]
    _shared_lid("its group repeats a winit row", r_lid[inner[same]], s_lid[inner[same]])


def _windows(
    frame: pd.DataFrame,
    with_negating: bool,
    r_facts: Sequence[str],
    s_facts: Sequence[str] = (),
    s_positive: np.ndarray | None = None,
) -> Windows:
    """The LAWA_U (and, if ``with_negating``, LAWA_N) windows of every
    group of ``frame``: the unmatched, then the overlapping, then the
    negating ones. A group is a run of one ``r_lid`` and, in the full
    outer join's rows, one ``side``. The groups are checked by
    :func:`check_groups` with the other arguments."""
    n = len(frame)
    new_group = _starts(frame["r_lid"].to_numpy())
    if "side" in frame.columns:
        new_group |= _starts(frame["side"].to_numpy())
    matched = frame["s_lid"].notna().to_numpy()
    check_groups(frame, new_group, matched, r_facts, s_facts, s_positive)
    group = np.cumsum(new_group) - 1
    first = np.flatnonzero(new_group)
    last = np.append(first[1:], n) - 1
    head = first[group]
    r_ts = frame["r_ts"].to_numpy(np.int64)
    r_te = frame["r_te"].to_numpy(np.int64)
    o_ts = frame["o_ts"].to_numpy(np.int64)
    o_te = frame["o_te"].to_numpy(np.int64)

    # running max of o_te within each group
    upto = pd.Series(o_te).groupby(group, sort=False).cummax().to_numpy()
    cursor = np.where(new_group, r_ts, np.roll(upto, 1))
    lone = np.flatnonzero(~matched)
    gap = np.flatnonzero(matched & (cursor < o_ts))
    tail = last[matched[last] & (upto[last] < r_te[last])]
    rows = np.flatnonzero(matched)
    if with_negating:
        n_head, n_ts, n_te, n_count, n_members = _negating(
            frame, rows, group[rows], o_ts[rows], o_te[rows], first
        )
    else:
        n_head = n_ts = n_te = n_count = n_members = np.empty(0, np.int64)
    n_u = len(lone) + len(gap) + len(tail)
    count = np.concatenate([np.zeros(n_u, np.int64), np.ones(len(rows), np.int64), n_count])
    return Windows(
        kind=np.repeat([_U, _O, _N], [n_u, len(rows), len(n_head)]),
        head=np.concatenate([lone, head[gap], tail, head[rows], n_head]),
        src=np.concatenate([np.full(n_u, -1), rows, np.full(len(n_head), -1)]),
        ts=np.concatenate([r_ts[lone], cursor[gap], upto[tail], o_ts[rows], n_ts]),
        te=np.concatenate([r_te[lone], o_ts[gap], r_te[tail], o_te[rows], n_te]),
        offsets=np.concatenate([[0], np.cumsum(count)]),
        members=np.concatenate([rows, n_members]),
    )


def _negating(
    frame: pd.DataFrame,
    rows: np.ndarray,
    group: np.ndarray,
    o_ts: np.ndarray,
    o_te: np.ndarray,
    first: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """LAWA_N over the matched ``rows`` of the frame; ``group``,
    ``o_ts`` and ``o_te`` are given for those rows, ``first`` is the
    first frame row of each group. Returns the negating windows' head,
    ts, te, member count and members."""
    m = len(rows)
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
    lid, by_group = lid.take(by_lid), group[by_lid]
    twice = pc.equal(lid[1:], lid[:-1]).to_numpy(zero_copy_only=False)
    _shared_lid(
        "one positive tuple overlaps two negative tuples with it",
        lid.take(np.flatnonzero(twice & (by_group[1:] == by_group[:-1]))).to_pylist(),
    )
    start = point[:m][by_lid]
    count = point[m:][by_lid] - start
    interval = _runs(start, count)
    entry = np.repeat(rows[by_lid], count)
    per_interval = np.bincount(interval, minlength=len(at))
    live = np.flatnonzero(per_interval)
    return (
        first[point_group[live]],
        at[live],
        at[live + 1],
        per_interval[live],
        entry[np.argsort(interval, kind="stable")],
    )


# ---------------------------------------------------------------------------
# finalize
# ---------------------------------------------------------------------------

# The text after λr, by code: the window's kind, plus 1 for a negating
# window of several members, which alone takes the closing ")".
_CONNECTORS = pa.array(["", " & ", " & ~", " & ~("])
_CLOSINGS = pa.array(["", ")"])


def _lists(offsets: np.ndarray, values: pa.Array) -> pa.ListArray:
    return pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), values)


def _lineage(w: Windows, r_lid: pa.Array, s_lid: pa.Array) -> pa.Array:
    """``λr``, ``λr & λs``, ``λr & ~λs`` or ``λr & ~(λs1 | λs2 …)``."""
    several = (np.diff(w.offsets) > 1).astype(np.int8)  # negating windows only
    return pc.binary_join_element_wise(
        r_lid.take(w.head),
        _CONNECTORS.take(w.kind + several),
        pc.binary_join(_lists(w.offsets, s_lid.take(w.members)), " | "),
        _CLOSINGS.take(several),
        "",
    )


def _probability(w: Windows, r_p: np.ndarray, s_p: np.ndarray) -> np.ndarray:
    """``r_p·Π factor`` per window, left to right as
    ``negation_probability`` multiplies: the factor of a member is
    ``s_p``, or ``1 − s_p`` in a negating window."""
    negated = np.repeat(w.kind == _N, np.diff(w.offsets))
    p = s_p[w.members]
    factors = np.insert(np.where(negated, 1.0 - p, p), w.offsets[:-1], r_p[w.head])
    return np.multiply.reduceat(factors, w.offsets[:-1] + np.arange(len(w)))


def sweep(
    frame: pd.DataFrame, r_facts: list[str], s_facts: list[str], with_negating: bool
) -> pd.DataFrame:
    """Every window of the complete groups in ``frame``, as rows of the
    window schema of :func:`repro.core.negation_joins.wuo`."""
    w = _windows(frame, with_negating, r_facts)
    out: dict[str, object] = {
        f"r_{c}": frame[f"r_{c}"].array.take(w.head) for c in r_facts
    }
    out["r_lid"] = frame["r_lid"].to_numpy()[w.head]
    out["r_p"] = frame["r_p"].to_numpy(np.float64)[w.head]
    out["w_ts"], out["w_te"] = w.ts, w.te
    for c in s_facts:
        out[f"s_{c}"] = frame[f"s_{c}"].array.take(w.src, allow_fill=True)
    s_p = frame["s_p"].to_numpy(np.float64)
    s_lid = pa.array(frame["s_lid"].to_numpy(), pa.string())
    out["s_lids"] = _lists(w.offsets, s_lid.take(w.members)).to_pandas()
    out["s_ps"] = _lists(w.offsets, pa.array(s_p[w.members])).to_pandas()
    out["kind"] = _KINDS[w.kind]
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
    w = _windows(frame, True, r_facts, s_facts, s_positive)
    # src is -1 outside the overlapping windows, where its row is not read
    kept = (s_positive[w.src] == (op == "right")) & (op != "anti")
    w = w.where((w.kind != _O) | kept)
    of_s = s_positive[w.head]
    r_rows = np.where(of_s, w.src, w.head)
    out = {
        (c if op == "anti" else f"r_{c}"):
            frame[f"r_{c}"].array.take(r_rows, allow_fill=True)
        for c in r_facts
    }
    if op != "anti":
        s_rows = np.where(of_s, w.head, w.src)
        out.update(
            {f"s_{c}": frame[f"s_{c}"].array.take(s_rows, allow_fill=True) for c in s_facts}
        )
    r_lid = pa.array(frame["r_lid"].to_numpy(), pa.string())
    s_lid = pa.array(frame["s_lid"].to_numpy(), pa.string())
    out["lineage"] = _lineage(w, r_lid, s_lid).to_pandas()
    out["ts"], out["te"] = w.ts, w.te
    r_p = frame["r_p"].to_numpy(np.float64)
    out["p"] = _probability(w, r_p, frame["s_p"].to_numpy(np.float64))
    return pd.DataFrame(out)
