"""The evaluation-section experiments (paper Figs. 11-15 + Table IV).

Each ``table_*`` function runs one experiment sweep and returns a
:class:`repro.bench.harness.Table` whose rows are the numbers behind
the corresponding paper figure. ``python -m repro.bench <table>`` runs
one of them.

Scale note (DESIGN.md §4): the paper sweeps 20K-200K (and up to 2M)
tuples against a C implementation inside PostgreSQL; this reproduction
sweeps proportionally smaller sizes because the TA baseline is
super-quadratic on the meteo workload by design — the very effect the
paper demonstrates. The comparisons NJ-vs-TA at equal input are what
the tables assert.
"""
from __future__ import annotations

from functools import partial

from pyspark.sql import SparkSession

from ..baselines.alignment import ta_negation_join, ta_nu, ta_wuo
from ..core.negation_joins import all_windows, negation_join, wuo
from ..core.windows import winit
from ..synth_data import tp_workload
from .dataset_stats import STAT_ROWS, dataset_stats
from .harness import Table, materialize, time_action

SIZES = {"webkit": (2_000, 4_000, 8_000, 16_000), "meteo": (500, 1_000, 2_000, 4_000)}
SCALE_WEBKIT = (5_000, 10_000, 20_000, 40_000)
SCALE_METEO = (1_000, 2_000, 4_000, 8_000)
RUNS = 2  # timed runs per cell of every table


def _inputs(spark: SparkSession, kind: str, n: int):
    r, s, theta = tp_workload(spark, kind, n)
    return materialize(r), materialize(s), theta


_NJ_LEFT = partial(negation_join, op="left")
_TA_LEFT = partial(ta_negation_join, op="left")


def warmup(spark: SparkSession) -> None:
    """Run both pipelines once on a tiny input before any timing.

    The first Spark action of a session pays JVM/codegen/Arrow
    initialization that would otherwise land entirely on the first
    sweep row (visible as a 3-5x outlier there).
    """
    r, s, theta = tp_workload(spark, "webkit", 50)
    for op in (_NJ_LEFT, _TA_LEFT):
        time_action(partial(op, r, s, theta))


def _sweep(spark, title, columns, points, cells, row) -> Table:
    """Time each of ``cells``, a name → operator ``(r, s, θ) → DataFrame``
    map, on the cached inputs of each ``(kind, n)`` of ``points``, and
    print the row ``row(kind, n, timed)`` makes of the cells' timings,
    ``timed = {name: (seconds, rows)}``.
    """
    t = Table(title, columns)
    print(t.header())
    for kind, n in points:
        r, s, theta = _inputs(spark, kind, n)
        timed = {
            name: time_action(partial(op, r, s, theta), runs=RUNS)
            for name, op in cells.items()
        }
        t.add(*row(kind, n, timed))
        r.unpersist(), s.unpersist()
    return t


def _fig(table: str, fig: int, what: str, kind: str) -> str:
    return f"{table} (Fig. {fig}{'a' if kind == 'webkit' else 'b'}) — {what}, {kind}"


def _nj_vs_ta(kind, n, timed):
    (nj_s, nj_rows), (ta_s, _) = timed["nj"], timed["ta"]
    return n, round(nj_s * 1e3), round(ta_s * 1e3), ta_s / nj_s, nj_rows


def table4_dataset_stats(spark: SparkSession, n: int = 20_000) -> Table:
    """Paper Table IV: properties of the (synthetic) datasets."""
    t = Table(
        "Table IV — dataset properties (webkit-lite / meteo-lite)",
        ["property", "webkit_lite", "meteo_lite"],
        width=max(map(len, STAT_ROWS)),
    )
    print(t.header())
    stats = {}
    for kind in ("webkit", "meteo"):
        stats[kind] = dataset_stats(tp_workload(spark, kind, n)[0])
    for prop in stats["webkit"]:
        t.add(prop, stats["webkit"][prop], stats["meteo"][prop])
    return t


def table_e1_wuo(spark: SparkSession, kind: str, sizes=None) -> Table:
    """Paper Fig. 11: runtime of W_UO (overlapping+unmatched windows)."""
    return _sweep(
        spark,
        _fig("E1", 11, "W_UO windows", kind),
        ["n_tuples", "nj_ms", "ta_ms", "ta/nj", "nj_rows"],
        [(kind, n) for n in sizes or SIZES[kind]],
        {"nj": wuo, "ta": ta_wuo},
        _nj_vs_ta,
    )


def table_e2_negating(spark: SparkSession, kind: str, sizes=None) -> Table:
    """Paper Fig. 12: runtime of negating windows.

    NJ-WN is the incremental cost of LAWA_N on top of W_UO (measured as
    the difference all-windows minus W_UO, as the paper reports both
    including and excluding the prerequisite); NJ-WUON includes it; TA
    computes W_N ∪ W_U from scratch via the Fig. 10c tree. NJ-WN and
    TA/NJ-WN read ``n/a`` where all-windows does not time slower than W_UO.
    """

    def row(kind, n, timed):
        wuon_s, wuo_s, ta_s = (timed[c][0] for c in ("wuon", "wuo", "ta"))
        wn_s = wuon_s - wuo_s
        return (
            n,
            round(wn_s * 1e3) if wn_s > 0 else "n/a",
            round(wuon_s * 1e3),
            round(ta_s * 1e3),
            ta_s / wuon_s,
            ta_s / wn_s if wn_s > 0 else "n/a",
        )

    return _sweep(
        spark,
        _fig("E2", 12, "negating windows", kind),
        ["n_tuples", "nj_wn_ms", "nj_wuon_ms", "ta_ms", "ta/nj_wuon", "ta/nj_wn"],
        [(kind, n) for n in sizes or SIZES[kind]],
        {"wuon": all_windows, "wuo": wuo, "ta": ta_nu},
        row,
    )


def table_e3_left_outer_join(spark: SparkSession, kind: str, sizes=None) -> Table:
    """Paper Fig. 13: TP left outer join runtime, NJ vs TA."""
    return _sweep(
        spark,
        _fig("E3", 13, "TP left outer join", kind),
        ["n_tuples", "nj_ms", "ta_ms", "ta/nj", "out_rows"],
        [(kind, n) for n in sizes or SIZES[kind]],
        {"nj": _NJ_LEFT, "ta": _TA_LEFT},
        _nj_vs_ta,
    )


def table_e4_breakdown(spark: SparkSession, kind: str, sizes=None) -> Table:
    """Paper Fig. 14: runtime breakdown of the NJ left outer join.

    CLJ is the conventional θ∧overlap left join (winit); W_UO adds
    LAWA_U; the full join (NJ) adds LAWA_N + finalization. Percentages
    are of the full NJ runtime, mirroring the stacked bars.
    """

    def row(kind, n, timed):
        clj_s, wuo_s, nj_s = (timed[c][0] for c in ("clj", "wuo", "nj"))
        # pipeline prefixes can only grow; clamp out measurement noise
        # so the three shares always partition 100%
        clj_s = min(clj_s, nj_s)
        wuo_s = min(max(wuo_s, clj_s), nj_s)
        clj_pct = 100.0 * clj_s / nj_s
        wuo_pct = 100.0 * (wuo_s - clj_s) / nj_s
        return n, round(nj_s * 1e3), clj_pct, wuo_pct, 100.0 - clj_pct - wuo_pct

    return _sweep(
        spark,
        _fig("E4", 14, "NJ runtime breakdown", kind),
        ["n_tuples", "nj_ms", "clj_%", "wuo_%", "wn_%"],
        [(kind, n) for n in sizes or SIZES[kind]],
        {"clj": winit, "wuo": wuo, "nj": _NJ_LEFT},
        row,
    )


def table_e5_scalability(
    spark: SparkSession, sizes_webkit=None, sizes_meteo=None
) -> Table:
    """Paper Fig. 15: NJ-only scalability on larger inputs."""

    def row(kind, n, timed):
        nj_s, rows = timed["nj"]
        return kind, n, round(nj_s * 1e3), rows

    return _sweep(
        spark,
        "E5 (Fig. 15) — NJ scalability, TP left outer join",
        ["workload", "n_tuples", "nj_ms", "out_rows"],
        [("webkit", n) for n in sizes_webkit or SCALE_WEBKIT]
        + [("meteo", n) for n in sizes_meteo or SCALE_METEO],
        {"nj": _NJ_LEFT},
        row,
    )
