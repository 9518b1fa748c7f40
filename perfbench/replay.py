"""In-process replay of NJ's Python layers, one timer per public call.

The ``mapInPandas`` sweep runs inside Spark's Python workers, where the
benchmark cannot place timers without editing the operator. Instead the
benchmark collects the same input the workers see, the θ∧overlap join
``winit(r, s, θ)`` sorted by r-tuple group, and feeds it through the
same public functions in the order ``negation_join`` calls them:

    Arrow batch → pandas → stream.iter_groups → per-group sort
    → lawa_u.sweep_group → lawa_n.sweep_group → finalize
    (negation_lineage, conjunction_lineage, negation_probability)
    → stream.chunked → Arrow batch

Finalize is the operator's own per-window function, so that the replay
times the code the workers run. The rest mirrors the body of
``negation_joins._sweep_partition``: its group sort key, the order of
the sweeps and its 8192-row output buffer. When that function changes,
this replay must change with it.

Each stage is run to completion per group, so its time is its own and
not that of the stage it pulls from. The replay is single-threaded;
its sum is compared with the workers' summed Python time
(``sweep.py_run_s``) as ``trace.replay_share``.
"""
from __future__ import annotations

import time
from collections import Counter

import pyarrow as pa
from pyspark.sql import DataFrame
from pyspark.sql.pandas.types import to_arrow_schema

from repro.core import lawa_n, lawa_u
from repro.core.negation_joins import _finalize, negation_join
from repro.core.stream import chunked, iter_groups
from repro.core.windows import winit
from repro.tp.model import fact_columns

# the output buffer of negation_joins._sweep_partition
OUTPUT_BUFFER_ROWS = 8_192


class Replay:
    """Accumulates per-layer times and counts over one or more passes."""

    def __init__(self):
        self.t = Counter()  # seconds per layer
        self.n = Counter()  # counts
        self.peak = Counter()  # maxima

    def metrics(self) -> dict[str, float]:
        t, n, peak = self.t, self.n, self.peak
        return {
            "arrow.decode_s": t["decode"],
            "stream.iter_groups_s": t["groups"],
            "stream.groups": n["groups"],
            "stream.max_group_rows": peak["group_rows"],
            "negation_joins.group_sort_s": t["group_sort"],
            "lawa_u.s": t["lawa_u"],
            "lawa_u.windows_u": n["U"],
            "lawa_u.windows_o": n["O"],
            "lawa_n.s": t["lawa_n"],
            "lawa_n.windows_n": n["N"],
            "lawa_n.max_active": peak["active"],
            "finalize.s": t["finalize"],
            "finalize.rows": n["rows"],
            "stream.chunked_s": t["chunked"],
            "arrow.encode_s": t["encode"],
            "replay.total_s": sum(t.values()),
        }

    def run(self, r: DataFrame, s: DataFrame, theta, op: str) -> Counter:
        """Replay one sweep pass of ``negation_join`` for ``op`` in
        {"left", "anti"}; returns the finalized rows per window kind."""
        r_facts, s_facts = fact_columns(r), fact_columns(s)
        schema = to_arrow_schema(negation_join(r, s, theta, op).schema)
        table = winit(r, s, theta).toArrow().sort_by(
            [(c, "ascending") for c in ("r_lid", "o_ts", "o_te", "s_lid")]
        )
        out_kinds: Counter = Counter()
        rows: list[dict] = []

        def flush():
            t0 = time.perf_counter()
            frames = list(chunked(rows, schema.names))
            t1 = time.perf_counter()
            for f in frames:
                pa.RecordBatch.from_pandas(f, schema=schema, preserve_index=False)
            t2 = time.perf_counter()
            self.t["chunked"] += t1 - t0
            self.t["encode"] += t2 - t1
            rows.clear()

        batch_rows = int(
            r.sparkSession.conf.get("spark.sql.execution.arrow.maxRecordsPerBatch")
        )
        t0 = time.perf_counter()
        batches = [b.to_pandas() for b in table.to_batches(batch_rows)]
        self.t["decode"] += time.perf_counter() - t0

        groups = iter_groups(iter(batches), "r_lid")
        while True:
            t0 = time.perf_counter()
            item = next(groups, None)
            if item is None:
                self.t["groups"] += time.perf_counter() - t0
                break
            _, group = item
            t_sort = time.perf_counter()
            group.sort(key=lambda m: (m["o_ts"], m["o_te"], m["s_lid"] or ""))
            t1 = time.perf_counter()
            head = group[0]
            windows = list(lawa_u.sweep_group(head["r_ts"], head["r_te"], group))
            t2 = time.perf_counter()
            windows = list(lawa_n.sweep_group(windows))
            t3 = time.perf_counter()
            for w in windows:
                rec = _finalize(w, head, r_facts, s_facts, op)
                if rec is not None:
                    rows.append(rec)
                    out_kinds[w["kind"]] += 1
            t4 = time.perf_counter()
            self.t["groups"] += t_sort - t0
            self.t["group_sort"] += t1 - t_sort
            self.t["lawa_u"] += t2 - t1
            self.t["lawa_n"] += t3 - t2
            self.t["finalize"] += t4 - t3
            self.n["groups"] += 1
            self.peak["group_rows"] = max(self.peak["group_rows"], len(group))
            for w in windows:
                self.n[w["kind"]] += 1
                if w["kind"] == lawa_u.KIND_NEGATING:
                    self.peak["active"] = max(self.peak["active"], len(w["s_lids"]))
            if len(rows) >= OUTPUT_BUFFER_ROWS:
                flush()
        if rows:
            flush()
        self.n["rows"] += sum(out_kinds.values())
        return out_kinds

