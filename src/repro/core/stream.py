"""Streaming group iteration over sorted Arrow batches.

The LAWA sweeps (and the TA baseline's align/normalize) process the
winit join result one positive tuple's group at a time, in sorted order, with state bounded
by one Arrow batch plus one group — the paper's pipelined executor
model. Spark's ``mapInPandas`` hands each partition to Python as an
iterator of Arrow-sized pandas batches; a group never spans partitions
(we repartition by the group key first) but can span batches.
:func:`map_group_frames` is the one pass that distributes a winit
DataFrame this way: :func:`group_frames` cuts the batch stream into
frames of complete groups, and a frame → frame function (NJ's columnar
kernel in :mod:`repro.core.columnar`, TA's align/normalize split)
turns each frame into one output frame.

:func:`iter_groups` and :func:`chunked` are the row-at-a-time
specification that NJ's kernel is tested against: one list of records
per group in, output rows rendered as bounded frames out.
"""
from __future__ import annotations

from typing import Callable, Iterator

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


def map_group_frames(
    x: DataFrame, fn: Callable[[pd.DataFrame], pd.DataFrame], schema: StructType
) -> DataFrame:
    """Run ``fn`` over frames of complete r-tuple groups of the winit
    DataFrame ``x`` (see :func:`group_frames`), in one ``mapInPandas``
    pass. ``fn`` returns one output frame with the ``schema`` columns.

    ``x`` is repartitioned by ``r_lid``, the positive tuple's lid, and
    each partition sorted by ``(r_lid, o_ts, o_te, s_lid)``. The rows
    of NJ's full outer join (``winit(..., how="full")``) also sort by
    ``side`` right after ``r_lid``, so that where an r tuple and an s
    tuple share a lid, their two groups are contiguous runs. ``r_lid``
    stays the first key: Spark's sort compares a prefix of the first key
    before whole rows, and a 0/1 ``side`` prefix would leave nearly
    every comparison to the whole row.
    """
    keys = ["r_lid", "o_ts", "o_te", "s_lid"]
    if "side" in x.columns:
        keys.insert(1, "side")

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for frame in group_frames(batches, "r_lid"):
            out = fn(frame)
            if len(out):
                yield out

    return x.repartition("r_lid").sortWithinPartitions(*keys).mapInPandas(run, schema)
