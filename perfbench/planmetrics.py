"""Per-operator SQL metrics of one query, read from Spark's status store.

Spark keeps, for every SQL execution, the final (post-AQE) plan graph
and each operator's metrics as display strings such as
``"total (min, med, max (stageId: taskId))\\n2.8 s (625 ms, 671 ms,
810 ms (stage 43.0: task 79))"``. This module parses those strings and
maps the operators of a ``negation_join`` plan onto its layers:

- the θ∧overlap join (CLJ): every ``*Join`` node and the exchanges
  below it;
- the grouping shuffle and sort: the first exchange and the sort below
  each ``MapInPandas`` node;
- the Arrow/Python boundary: the ``MapInPandas`` nodes themselves.

Counts are exact. Times and sizes have the precision Spark prints them
with, one decimal of the unit shown (0.1 s, 0.1 MiB), which is enough for
a layer's share.
"""
from __future__ import annotations

import re
import time
from collections import defaultdict

_TIME_UNITS = {"ms": 1e-3, "s": 1.0, "m": 60.0, "h": 3600.0}
_SIZE_UNITS = {
    "B": 1, "KiB": 1 << 10, "MiB": 1 << 20, "GiB": 1 << 30, "TiB": 1 << 40,
}
_VALUE = re.compile(r"^\s*([0-9][0-9,]*(?:\.[0-9]+)?)\s*([A-Za-z]*)\s*$")
_STAGE = re.compile(r"\(stage (\d+)\.\d+: task \d+\)")


def _number(text: str) -> float:
    m = _VALUE.match(text)
    if m is None:
        raise ValueError(f"cannot parse Spark metric value {text!r}")
    value, unit = float(m.group(1).replace(",", "")), m.group(2)
    if not unit:
        return value
    if unit in _TIME_UNITS:
        return value * _TIME_UNITS[unit]
    return value * _SIZE_UNITS[unit]


def parse(text: str) -> dict:
    """``{"total", "max", "stage"}`` of one metric display string.

    A metric of one task, or a plain sum, prints only its total; ``max``
    is then the total and ``stage`` is None. Times are seconds, sizes
    bytes.
    """
    if "\n" not in text:
        v = _number(text)
        return {"total": v, "max": v, "stage": None}
    line = text.split("\n", 1)[1]
    total, rest = line.split(" (", 1)
    peak = rest.split(", ")[-1].split(" (")[0]  # "810 ms (stage 4.0: task 7))"
    stage = _STAGE.search(line)
    return {
        "total": _number(total),
        "max": _number(peak),
        "stage": int(stage.group(1)) if stage else None,
    }


class PlanMetrics:
    """The operators of one finished SQL execution and their metrics."""

    def __init__(self, store, execution_id: int):
        values = store.executionMetrics(execution_id)
        graph = store.planGraph(execution_id)
        self.name: dict[int, str] = {}
        self.metrics: dict[int, dict[str, dict]] = {}
        it = graph.allNodes().iterator()
        while it.hasNext():
            node = it.next()
            nid = node.id()
            self.name[nid] = node.name()
            found = {}
            mit = node.metrics().iterator()
            while mit.hasNext():
                m = mit.next()
                v = values.get(m.accumulatorId())
                if v.isDefined():
                    found[m.name()] = parse(v.get())
            self.metrics[nid] = found
        self.children: dict[int, list[int]] = defaultdict(list)
        eit = graph.edges().iterator()
        while eit.hasNext():
            e = eit.next()  # rows flow from fromId (child) to toId (parent)
            self.children[e.toId()].append(e.fromId())

    def nodes(self, predicate) -> list[int]:
        return sorted(n for n, name in self.name.items() if predicate(name))

    def below(self, nid: int, name: str) -> list[int]:
        """The nearest nodes called ``name`` under ``nid``."""
        found, todo = [], list(self.children[nid])
        while todo:
            c = todo.pop()
            if self.name[c] == name:
                found.append(c)
            else:
                todo.extend(self.children[c])
        return found

    def total(self, nids, metric: str) -> float:
        return sum(
            self.metrics[n][metric]["total"]
            for n in nids
            if metric in self.metrics[n]
        )

    def peak(self, nids, metric: str) -> float:
        return max(
            (self.metrics[n][metric]["max"] for n in nids
             if metric in self.metrics[n]),
            default=0.0,
        )

    def parents(self, nid: int) -> list[int]:
        return [p for p, cs in self.children.items() if nid in cs]


def last_execution(store, timeout_s: float = 60.0) -> int:
    """Id of the newest SQL execution, once its metrics are final.

    The status store is filled by a listener thread, so it can lag the
    action that just returned; wait until the execution has ended and
    its metric values are aggregated.
    """
    deadline = time.monotonic() + timeout_s
    while True:
        n = store.executionsCount()
        if n:
            ex = store.executionsList(n - 1, 1).head()
            if ex.completionTime().isDefined() and ex.metricValues() is not None:
                return ex.executionId()
        if time.monotonic() > deadline:
            raise TimeoutError("Spark status store did not finish the execution")
        time.sleep(0.005)


def _is_join(name: str) -> bool:
    return name.endswith("Join") or name == "CartesianProduct"


def _is_sweep(name: str) -> bool:
    return name == "MapInPandas"


def output_counts(store) -> dict[str, int]:
    """Exact row counts of the newest execution, for the per-run check.

    ``rows`` is what the sweeps returned; ``clj_rows`` what the
    θ∧overlap joins returned.
    """
    pm = PlanMetrics(store, last_execution(store))
    joins, sweeps = pm.nodes(_is_join), pm.nodes(_is_sweep)
    return {
        "rows": int(pm.total(sweeps, "number of output rows")),
        "clj_rows": int(pm.total(joins, "number of output rows")),
    }


def layer_metrics(store, status_tracker) -> dict[str, float]:
    """The Spark-side per-layer metrics of the newest execution."""
    pm = PlanMetrics(store, last_execution(store))
    joins, sweeps = pm.nodes(_is_join), pm.nodes(_is_sweep)
    clj_exchanges = [e for j in joins for e in pm.below(j, "Exchange")]
    group_sorts = [so for m in sweeps for so in pm.below(m, "Sort")]
    group_exchanges = [e for m in sweeps for e in pm.below(m, "Exchange")]
    # AQE coalesces the grouping shuffle; its reader holds the final
    # partition count. Without AQE the exchange itself does.
    readers = [
        p for e in group_exchanges for p in pm.parents(e)
        if pm.name[p] == "AQEShuffleRead"
    ]
    stages = {
        pm.metrics[m]["time to run Python workers"]["stage"] for m in sweeps
    }
    tasks = 0
    for st in stages:
        info = status_tracker.getStageInfo(st) if st is not None else None
        tasks += info.numTasks if info is not None else 1
    return {
        "clj.rows": pm.total(joins, "number of output rows"),
        "clj.shuffle_bytes": pm.total(clj_exchanges, "shuffle bytes written"),
        "clj.plan_joins": len(joins),
        "group.shuffle_records": pm.total(group_exchanges, "shuffle records written"),
        "group.shuffle_bytes": pm.total(group_exchanges, "shuffle bytes written"),
        "group.partitions": pm.total(readers or group_exchanges, "number of partitions"),
        "group.sort_s": pm.total(group_sorts, "sort time"),
        "group.spill_bytes": pm.total(group_sorts, "spill size"),
        "sweep.tasks": tasks,
        "sweep.py_run_s": pm.total(sweeps, "time to run Python workers"),
        "sweep.py_init_s": pm.total(sweeps, "time to initialize Python workers"),
        "sweep.py_start_s": pm.total(sweeps, "time to start Python workers"),
        "sweep.max_task_s": pm.peak(sweeps, "time to run Python workers"),
        "sweep.py_bytes_out": pm.total(sweeps, "data returned from Python workers"),
    }
