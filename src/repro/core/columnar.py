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

- **Event sweep (LAWA_U and LAWA_N).** A group's distinct event
  points, its ``r_ts`` and ``r_te`` and each matched row's ``o_ts``
  and ``o_te``, cut its r interval into elementary intervals; a
  null-match row (null ``s_lid``) adds none. The coverage of an
  interval, the number of rows whose overlap holds it, is a running
  sum of +1 at each ``o_ts`` and −1 at each ``o_te``. An uncovered
  interval is an unmatched window: the point after it is an ``o_ts``
  or ``r_te``, so it is a maximal gap. A covered interval is a
  negating window: a row covers a contiguous run of intervals, so
  ``np.repeat`` expands rows into ``(interval, s row)`` entries, and
  sorted by ``(interval, s_lid)`` the entries are the windows' s
  tuples. Every matched row is an overlapping window.
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
    """Every window of a frame, one entry per window: the unmatched and
    negating windows, one per elementary interval in (group, time)
    order, then the overlapping ones.

    ``kind`` is the window's code into :data:`_KINDS`, ``head`` the frame
    row of its r tuple (the first row of its group), and ``src`` the
    frame row whose s facts it carries (the matched row of an
    overlapping window, -1 otherwise). Its s tuples are the frame rows
    ``members[offsets[i]:offsets[i + 1]]``, sorted by ``s_lid``: none
    for an unmatched window, the matched row for an overlapping one and
    the rows covering the interval for a negating one.
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
    overlapping: np.ndarray | None = None,
) -> Windows:
    """The unmatched, negating (if ``with_negating``) and overlapping
    windows of every group of ``frame``, from one event sweep. A group
    is a run of one ``r_lid`` and, in the full outer join's rows, one
    ``side``. The overlapping windows are the matched rows where the
    row mask ``overlapping`` holds (None: every matched row). The
    groups are checked by :func:`check_groups` with the other
    arguments."""
    new_group = _starts(frame["r_lid"].to_numpy())
    if "side" in frame.columns:
        new_group |= _starts(frame["side"].to_numpy())
    matched = frame["s_lid"].notna().to_numpy()
    check_groups(frame, new_group, matched, r_facts, s_facts, s_positive)
    group = np.cumsum(new_group) - 1
    first = np.flatnonzero(new_group)
    rows = np.flatnonzero(matched)
    row_group = group[rows]
    r_ts, r_te, o_ts, o_te = (
        frame[c].to_numpy(np.int64) for c in ("r_ts", "r_te", "o_ts", "o_te")
    )

    # Event points, numbered in (group, time) order: each group's r_ts
    # and r_te (delta 0) and each matched row's o_ts (+1) and o_te (−1).
    g, m = len(first), len(rows)
    pt_group = np.concatenate([np.arange(g), np.arange(g), row_group, row_group])
    pt_time = np.concatenate([r_ts[first], r_te[first], o_ts[rows], o_te[rows]])
    delta = np.repeat([0, 1, -1], [2 * g, m, m])
    order = np.lexsort((pt_time, pt_group))
    new_point = _starts(pt_group[order]) | _starts(pt_time[order])
    point = np.empty(len(order), np.int64)
    point[order] = np.cumsum(new_point) - 1
    at_first = np.flatnonzero(new_point)
    at, at_group = pt_time[order][at_first], pt_group[order][at_first]
    # Elementary interval i is [at[i], at[i + 1]); it is inside a group
    # unless at[i] is its group's last point, where the coverage is
    # back to 0, so the running sum starts each group at 0.
    covers = np.cumsum(np.add.reduceat(delta[order], at_first))
    inside = np.append(at_group[1:] == at_group[:-1], False)
    cut = np.flatnonzero(inside if with_negating else inside & (covers == 0))

    if with_negating:
        # Rows in (group, s_lid) order, expanded into one entry per
        # covered interval; a stable sort by interval keeps s_lid order.
        lid = pa.array(frame["s_lid"].to_numpy()[rows], pa.string())
        by_lid = pc.sort_indices(
            pa.table({"g": row_group, "lid": lid}),
            sort_keys=[("g", "ascending"), ("lid", "ascending")],
        ).to_numpy()
        lid, by_group = lid.take(by_lid), row_group[by_lid]
        twice = pc.equal(lid[1:], lid[:-1]).to_numpy(zero_copy_only=False)
        _shared_lid(
            "one positive tuple overlaps two negative tuples with it",
            lid.take(np.flatnonzero(twice & (by_group[1:] == by_group[:-1]))).to_pylist(),
        )
        start = point[2 * g:2 * g + m][by_lid]
        count = point[2 * g + m:][by_lid] - start
        interval = _runs(start, count)
        members = np.repeat(rows[by_lid], count)[np.argsort(interval, kind="stable")]
    else:
        members = np.empty(0, np.int64)
    o_rows = rows if overlapping is None else np.flatnonzero(matched & overlapping)
    count = np.concatenate([covers[cut], np.ones(len(o_rows), np.int64)])
    return Windows(
        kind=np.concatenate([np.where(covers[cut] > 0, _N, _U), np.full(len(o_rows), _O)]),
        head=np.concatenate([first[at_group[cut]], first[group[o_rows]]]),
        src=np.concatenate([np.full(len(cut), -1), o_rows]),
        ts=np.concatenate([at[cut], o_ts[o_rows]]),
        te=np.concatenate([at[cut + 1], o_te[o_rows]]),
        offsets=np.concatenate([[0], np.cumsum(count)]),
        members=np.concatenate([members, o_rows]),
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
    kept = (s_positive == (op == "right")) & (op != "anti")
    w = _windows(frame, True, r_facts, s_facts, s_positive, overlapping=kept)
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
