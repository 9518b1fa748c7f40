"""Streaming group iteration over sorted Arrow batches.

The LAWA sweeps (and the TA baseline's align/normalize) process the
winit join result by r-tuple group, in sorted order, with state bounded
by one group (TA) or one Arrow batch plus one group (NJ) — the paper's
pipelined executor model. Spark's ``mapInPandas`` hands each partition to Python as an
iterator of Arrow-sized pandas batches; a group never spans partitions
(we repartition by the group key first) but can span batches.
:func:`_by_group` is the one place that distributes a winit DataFrame
for such a pass, and two passes use it:

- :func:`map_group_frames` (NJ): :func:`group_frames` cuts the batch
  stream into frames of complete groups, and a columnar kernel
  (:func:`repro.core.columnar.sweep`) turns each frame into one output
  frame;
- :func:`map_groups` (TA): :func:`iter_groups` re-chunks the batch
  stream into one list of records per group, and :func:`chunked`
  renders the output rows.

:func:`iter_groups` and :func:`chunked` are also the row-at-a-time
specification that NJ's kernel is tested against.
"""
from __future__ import annotations

from typing import Callable, Iterable, Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.types import StructType


def iter_groups(
    batches: Iterator[pd.DataFrame], key: str
) -> Iterator[tuple[object, list[dict]]]:
    """Yield ``(key_value, records)`` per contiguous group of rows.

    ``batches`` must already be sorted by ``key`` within the stream
    (``sortWithinPartitions`` upstream). Records are plain dicts —
    the sweeps are row-at-a-time algorithms, not vectorizable ones.
    """
    current_key: object = None
    current: list[dict] = []
    started = False
    for batch in batches:
        if batch.empty:
            continue
        for rec in batch.to_dict("records"):
            k = rec[key]
            if not started:
                current_key, started = k, True
            elif k != current_key:
                yield current_key, current
                current_key, current = k, []
            current.append(rec)
    if started:
        yield current_key, current


def group_frames(
    batches: Iterator[pd.DataFrame], key: str
) -> Iterator[pd.DataFrame]:
    """Re-cut a sorted batch stream into frames of complete groups.

    Each batch is cut after its last ``key`` change. Only the unfinished
    trailing group is carried into the next batch, so a frame holds at
    most one batch plus the rest of one group, never a whole partition.
    """
    pending: list[pd.DataFrame] = []
    pending_key: object = None
    for batch in batches:
        if batch.empty:
            continue
        keys = batch[key].to_numpy()
        changes = np.flatnonzero(keys[1:] != keys[:-1])
        cut = int(changes[-1]) + 1 if len(changes) else 0
        if cut == 0 and pending and keys[0] == pending_key:
            pending.append(batch)
            continue
        done = pending + [batch.iloc[:cut]] if cut else pending
        if done:
            yield pd.concat(done, ignore_index=True) if len(done) > 1 else done[0]
        pending, pending_key = [batch.iloc[cut:]], keys[-1]
    if pending:
        yield pd.concat(pending, ignore_index=True) if len(pending) > 1 else pending[0]


def chunked(rows: list[dict], columns: list[str], size: int = 4096):
    """Render output rows as pandas DataFrames of bounded size.

    Keeps the Arrow writer fed with reasonably sized batches instead of
    one giant frame per partition.
    """
    for i in range(0, len(rows), size):
        chunk = rows[i : i + size]
        yield pd.DataFrame(chunk, columns=columns)


def _by_group(x: DataFrame) -> DataFrame:
    """``x`` repartitioned by ``r_lid`` and each partition sorted by
    ``(r_lid, o_ts, o_te, s_lid)``.

    The rows of NJ's full outer join (:func:`repro.core.windows.full_winit`)
    also sort by ``side`` right after ``r_lid``, so that where an r tuple
    and an s tuple share a lid, their two groups are contiguous runs.
    ``r_lid`` stays the first key: Spark's sort compares a prefix of the
    first key before whole rows, and a 0/1 ``side`` prefix would leave
    nearly every comparison to the whole row.
    """
    keys = ["r_lid", "o_ts", "o_te", "s_lid"]
    if "side" in x.columns:
        keys.insert(1, "side")
    return x.repartition("r_lid").sortWithinPartitions(*keys)


def map_group_frames(
    x: DataFrame, fn: Callable[[pd.DataFrame], pd.DataFrame], schema: StructType
) -> DataFrame:
    """Run ``fn`` over frames of complete r-tuple groups of the winit
    DataFrame ``x`` (see :func:`group_frames`), in one ``mapInPandas``
    pass. ``fn`` returns one output frame with the ``schema`` columns."""

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for frame in group_frames(batches, "r_lid"):
            out = fn(frame)
            if len(out):
                yield out

    return _by_group(x).mapInPandas(run, schema)


def map_groups(
    x: DataFrame, fn: Callable[[list[dict]], Iterable[dict]], schema: StructType
) -> DataFrame:
    """Run ``fn`` over every r-tuple group of the winit DataFrame ``x``.

    Makes one ``mapInPandas`` pass over :func:`_by_group`: each
    group's records go to ``fn``, whose output rows (dicts keyed
    by the ``schema`` field names) are buffered up to 8192 rows and
    emitted as pandas batches.
    """
    columns = [f.name for f in schema.fields]

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        rows: list[dict] = []
        for _, group in iter_groups(batches, "r_lid"):
            rows.extend(fn(group))
            if len(rows) >= 8192:
                yield from chunked(rows, columns)
                rows = []
        yield from chunked(rows, columns)

    return _by_group(x).mapInPandas(run, schema)
