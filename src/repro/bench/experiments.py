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

from pyspark.sql import SparkSession

from ..baselines.alignment import ta_negation_join, ta_nu, ta_wuo
from ..core.negation_joins import all_windows, negation_join, wuo
from ..core.windows import winit
from ..synth_data import tp_workload
from .dataset_stats import STAT_ROWS, dataset_stats
from .harness import Table, materialize, time_action

WEBKIT_SIZES = (2_000, 4_000, 8_000, 16_000)
METEO_SIZES = (500, 1_000, 2_000, 4_000)
SCALE_WEBKIT = (5_000, 10_000, 20_000, 40_000)
SCALE_METEO = (1_000, 2_000, 4_000, 8_000)


def _inputs(spark: SparkSession, kind: str, n: int, seed: int = 0):
    r, s, theta = tp_workload(spark, kind, n, seed=seed)
    return materialize(r), materialize(s), theta


_WARM = set()


def _warmup(spark: SparkSession) -> None:
    """Run both pipelines once on a tiny input before any timing.

    The first Spark action of a session pays JVM/codegen/Arrow
    initialization that would otherwise land entirely on the first
    sweep row (visible as a 3-5x outlier there).
    """
    if id(spark) in _WARM:
        return
    _WARM.add(id(spark))
    r, s, theta = tp_workload(spark, "webkit", 50)
    negation_join(r, s, theta, "left").count()
    ta_negation_join(r, s, theta, "left").count()


def _sizes(kind: str, sizes) -> tuple[int, ...]:
    if sizes is not None:
        return tuple(sizes)
    return WEBKIT_SIZES if kind == "webkit" else METEO_SIZES


def table4_dataset_stats(spark: SparkSession, n: int = 20_000) -> Table:
    """Paper Table IV: properties of the (synthetic) datasets."""
    _warmup(spark)
    t = Table(
        "Table IV — dataset properties (webkit-lite / meteo-lite)",
        ["property", "webkit_lite", "meteo_lite"],
        width=max(map(len, STAT_ROWS)),
    )
    print(t.header())
    stats = {}
    for kind in ("webkit", "meteo"):
        r, _, _ = _inputs(spark, kind, n)
        stats[kind] = dataset_stats(r)
    for prop in stats["webkit"]:
        t.add(prop, stats["webkit"][prop], stats["meteo"][prop])
    return t


def table_e1_wuo(
    spark: SparkSession, kind: str, sizes=None, runs: int = 2
) -> Table:
    """Paper Fig. 11: runtime of W_UO (overlapping+unmatched windows)."""
    _warmup(spark)
    t = Table(
        f"E1 (Fig. 11{'a' if kind == 'webkit' else 'b'}) — W_UO windows, {kind}",
        ["n_tuples", "nj_ms", "ta_ms", "ta/nj", "nj_rows"],
    )
    print(t.header())
    for n in _sizes(kind, sizes):
        r, s, theta = _inputs(spark, kind, n)
        nj_s, nj_rows = time_action(lambda: wuo(r, s, theta), runs=runs)
        ta_s, _ = time_action(lambda: ta_wuo(r, s, theta), runs=runs)
        t.add(n, round(nj_s * 1e3), round(ta_s * 1e3), ta_s / nj_s, nj_rows)
        r.unpersist(), s.unpersist()
    return t


def table_e2_negating(
    spark: SparkSession, kind: str, sizes=None, runs: int = 2
) -> Table:
    """Paper Fig. 12: runtime of negating windows.

    NJ-WN is the incremental cost of LAWA_N on top of W_UO (measured as
    the difference all-windows minus W_UO, as the paper reports both
    including and excluding the prerequisite); NJ-WUON includes it; TA
    computes W_N ∪ W_U from scratch via the Fig. 10c tree.
    """
    _warmup(spark)
    t = Table(
        f"E2 (Fig. 12{'a' if kind == 'webkit' else 'b'}) — negating windows, {kind}",
        ["n_tuples", "nj_wn_ms", "nj_wuon_ms", "ta_ms", "ta/nj_wuon", "ta/nj_wn"],
    )
    print(t.header())
    for n in _sizes(kind, sizes):
        r, s, theta = _inputs(spark, kind, n)
        wuon_s, _ = time_action(lambda: all_windows(r, s, theta), runs=runs)
        base_s, _ = time_action(lambda: wuo(r, s, theta), runs=runs)
        ta_s, _ = time_action(lambda: ta_nu(r, s, theta), runs=runs)
        wn_s = max(wuon_s - base_s, 0.0)
        t.add(
            n,
            round(wn_s * 1e3),
            round(wuon_s * 1e3),
            round(ta_s * 1e3),
            ta_s / wuon_s,
            ta_s / wn_s if wn_s > 0 else float('inf'),
        )
        r.unpersist(), s.unpersist()
    return t


def table_e3_left_outer_join(
    spark: SparkSession, kind: str, sizes=None, runs: int = 2
) -> Table:
    """Paper Fig. 13: TP left outer join runtime, NJ vs TA."""
    _warmup(spark)
    t = Table(
        f"E3 (Fig. 13{'a' if kind == 'webkit' else 'b'}) — TP left outer join, {kind}",
        ["n_tuples", "nj_ms", "ta_ms", "ta/nj", "out_rows"],
    )
    print(t.header())
    for n in _sizes(kind, sizes):
        r, s, theta = _inputs(spark, kind, n)
        nj_s, nj_rows = time_action(
            lambda: negation_join(r, s, theta, "left"), runs=runs
        )
        ta_s, _ = time_action(
            lambda: ta_negation_join(r, s, theta, "left"), runs=runs
        )
        t.add(n, round(nj_s * 1e3), round(ta_s * 1e3), ta_s / nj_s, nj_rows)
        r.unpersist(), s.unpersist()
    return t


def table_e4_breakdown(
    spark: SparkSession, kind: str, sizes=None, runs: int = 2
) -> Table:
    """Paper Fig. 14: runtime breakdown of the NJ left outer join.

    CLJ is the conventional θ∧overlap left join (winit); W_UO adds
    LAWA_U; the full join (NJ) adds LAWA_N + finalization. Percentages
    are of the full NJ runtime, mirroring the stacked bars.
    """
    _warmup(spark)
    t = Table(
        f"E4 (Fig. 14{'a' if kind == 'webkit' else 'b'}) — NJ runtime breakdown, {kind}",
        ["n_tuples", "nj_ms", "clj_%", "wuo_%", "wn_%"],
    )
    print(t.header())
    for n in _sizes(kind, sizes):
        r, s, theta = _inputs(spark, kind, n)
        clj_s, _ = time_action(lambda: winit(r, s, theta), runs=runs)
        wuo_s, _ = time_action(lambda: wuo(r, s, theta), runs=runs)
        nj_s, _ = time_action(
            lambda: negation_join(r, s, theta, "left"), runs=runs
        )
        # pipeline prefixes can only grow; clamp out measurement noise
        # so the three shares always partition 100%
        clj_s = min(clj_s, nj_s)
        wuo_s = min(max(wuo_s, clj_s), nj_s)
        clj_pct = 100.0 * clj_s / nj_s
        wuo_pct = 100.0 * (wuo_s - clj_s) / nj_s
        wn_pct = 100.0 - clj_pct - wuo_pct
        t.add(n, round(nj_s * 1e3), clj_pct, wuo_pct, wn_pct)
        r.unpersist(), s.unpersist()
    return t


def table_e5_scalability(
    spark: SparkSession, sizes_webkit=None, sizes_meteo=None, runs: int = 1
) -> Table:
    """Paper Fig. 15: NJ-only scalability on larger inputs."""
    _warmup(spark)
    t = Table(
        "E5 (Fig. 15) — NJ scalability, TP left outer join",
        ["workload", "n_tuples", "nj_ms", "out_rows"],
    )
    print(t.header())
    for kind, sizes in (
        ("webkit", sizes_webkit or SCALE_WEBKIT),
        ("meteo", sizes_meteo or SCALE_METEO),
    ):
        for n in sizes:
            r, s, theta = _inputs(spark, kind, n)
            nj_s, rows = time_action(
                lambda: negation_join(r, s, theta, "left"), runs=runs
            )
            t.add(kind, n, round(nj_s * 1e3), rows)
            r.unpersist(), s.unpersist()
    return t
