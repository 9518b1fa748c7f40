"""Streaming group iteration over sorted Arrow batches.

The LAWA sweeps (and the TA baseline's align/normalize) process the
winit join result one r-tuple group at a time, in sorted order, with
state that never exceeds one group — the paper's pipelined executor
model. :func:`map_groups` is the one place that distributes a winit
DataFrame for such a pass: Spark's ``mapInPandas`` hands each partition
to Python as an iterator of Arrow-sized pandas batches; a group never
spans partitions (we repartition by the group key first) but can span
batches, so :func:`iter_groups` re-chunks the batch stream into
complete groups and :func:`chunked` renders the output rows.
"""
from __future__ import annotations

from typing import Callable, Iterable, Iterator

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


def chunked(rows: list[dict], columns: list[str], size: int = 4096):
    """Render output rows as pandas DataFrames of bounded size.

    Keeps the Arrow writer fed with reasonably sized batches instead of
    one giant frame per partition.
    """
    for i in range(0, len(rows), size):
        chunk = rows[i : i + size]
        yield pd.DataFrame(chunk, columns=columns)


def map_groups(
    x: DataFrame, fn: Callable[[list[dict]], Iterable[dict]], schema: StructType
) -> DataFrame:
    """Run ``fn`` over every r-tuple group of the winit DataFrame ``x``.

    Repartitions by ``r_lid``, sorts each partition by
    ``(r_lid, o_ts, o_te, s_lid)`` and makes one ``mapInPandas`` pass:
    each group's records go to ``fn``, whose output rows (dicts keyed
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

    grouped = x.repartition("r_lid").sortWithinPartitions(
        "r_lid", "o_ts", "o_te", "s_lid"
    )
    return grouped.mapInPandas(run, schema)
