"""One benchmark run: output check, set-up, timed loop and tracing.

Imported by ``run.py`` once the environment points at the checkout.
"""
from __future__ import annotations

import statistics
import sys
import time
import traceback
from pathlib import Path

from planmetrics import layer_metrics, output_counts
from replay import Replay
from repro.core.negation_joins import negation_join
from repro.core.windows import winit
from workloads import (
    Workload,
    build_inputs,
    force,
    reference_mismatch,
    run_with_digest,
    ta_mismatch,
)

SETUP_ROUNDS = 2  # each builds and caches the inputs and runs NJ once
MIN_SAMPLES = 3  # timed runs made even when the time is up
TRACED_RUNS = 2  # two, for the determinism self-check
CLJ_RUNS = 3
# The replay's summed Python time over the workers' summed Python time
# (trace.replay_share) is expected in this range; outside it, the
# replay no longer stands for what the workers do.
REPLAY_SHARE_BOUND = (0.4, 1.25)
# Spark-side counts that must repeat exactly between traced runs; the
# output digest, with its window counts, must repeat too
DETERMINISTIC = ("clj.rows", "clj.plan_joins", "group.shuffle_records")


def python_workers_peak_rss_mb(jvm_pid: int) -> float:
    """Largest ``VmHWM`` among the Python processes the JVM started."""
    parent: dict[int, int] = {}
    for d in Path("/proc").iterdir():
        if d.name.isdigit():
            try:
                stat = (d / "stat").read_text()
            except OSError:  # the process has exited
                continue
            parent[int(d.name)] = int(stat.rsplit(")", 1)[1].split()[1])
    peak = 0.0
    for pid in parent:
        p = parent.get(pid)
        while p is not None and p != jvm_pid:
            p = parent.get(p)
        if p != jvm_pid:
            continue
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        if not status.startswith("Name:\tpython"):
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                peak = max(peak, int(line.split()[1]) / 1024)
    return peak


class Bench:
    """The state of one run: session, inputs, digest and problems found."""

    def __init__(self, spark, w: Workload, seed: int):
        self.spark, self.w, self.seed = spark, w, seed
        self.store = spark._jsparkSession.sharedState().statusStore()
        self.jvm_pid = spark.sparkContext._gateway.proc.pid
        self.problems: list[str] = []
        self.rss_mb = 0.0

    def nj(self):
        return negation_join(self.r, self.s, self.theta, self.w.op)

    def check_against_reference(self) -> float:
        """Compare NJ with the snapshot reference on the reduced instance;
        returns seconds."""
        t0 = time.perf_counter()
        mismatch = reference_mismatch(self.spark, self.w, self.seed)
        if mismatch:
            self.problems.append(
                f"NJ and the snapshot reference differ on {mismatch} rows "
                f"at n={self.w.n_check}"
            )
        return time.perf_counter() - t0

    def check_against_ta(self) -> float:
        """Compare NJ with TA on the reduced instance; returns seconds."""
        t0 = time.perf_counter()
        mismatch = ta_mismatch(self.spark, self.w, self.seed)
        if mismatch:
            self.problems.append(
                f"NJ and TA differ on {mismatch} rows at n={self.w.n_check}"
            )
        return time.perf_counter() - t0

    def set_up(self) -> list[float]:
        """Build the inputs and run NJ once, ``SETUP_ROUNDS`` times.

        Returns each round's seconds. Every round's output digest must be
        the same; the last round's row counts, read from Spark, are what
        each timed run must match. The rounds are also the JVM's JIT
        warm-up.
        """
        rounds, digests = [], []
        self.r = None
        for _ in range(SETUP_ROUNDS):
            t0 = time.perf_counter()
            if self.r is not None:
                self.r.unpersist(), self.s.unpersist()
            self.r, self.s, self.theta = build_inputs(
                self.spark, self.w, self.w.n, self.seed
            )
            digests.append(run_with_digest(self.nj()))
            rounds.append(time.perf_counter() - t0)
        self.digest = digests[0]
        if any(d != self.digest for d in digests):
            self.problems.append(f"output digest differs between set-up runs: {digests}")
        self.expected = output_counts(self.store)
        if self.expected["rows"] != self.digest["rows"]:
            self.problems.append(f"sweep rows {self.expected} != digest {self.digest}")
        return rounds

    def timed_loop(self, seconds: float):
        """NJ runs, one at a time, for ``seconds``.

        Returns the wall times of the runs whose row counts matched the
        digest, and the number of runs attempted and failed.
        """
        samples: list[float] = []
        attempted = failed = 0
        self.rss_mb = python_workers_peak_rss_mb(self.jvm_pid)
        deadline = time.perf_counter() + seconds
        while len(samples) < MIN_SAMPLES or time.perf_counter() < deadline:
            if failed > 2 * MIN_SAMPLES:
                break  # broken, not slow
            attempted += 1
            try:
                t0 = time.perf_counter()
                force(self.nj())
                dt = time.perf_counter() - t0
                got = output_counts(self.store)
            except Exception:  # a failed run is counted, not fatal
                traceback.print_exc()
                failed += 1
                continue
            self.rss_mb = max(self.rss_mb, python_workers_peak_rss_mb(self.jvm_pid))
            if got != self.expected:
                print(f"run {attempted}: {got} != {self.expected}", file=sys.stderr)
                failed += 1
                continue
            samples.append(dt)
        return samples, attempted, failed

    def trace(self, join_s: float) -> dict[str, float]:
        """Spark's per-operator metrics of NJ runs, the θ∧overlap join
        timed alone, and the replay of the Python layers."""
        tracker = self.spark.sparkContext.statusTracker()
        traced, walls = [], []
        for i in range(TRACED_RUNS):
            t0 = time.perf_counter()
            d = run_with_digest(self.nj())
            traced.append(layer_metrics(self.store, tracker))
            walls.append(time.perf_counter() - t0)
            if d != self.digest:
                self.problems.append(f"traced run {i + 1}: digest {d} != {self.digest}")
        for k in DETERMINISTIC:
            if len({t[k] for t in traced}) != 1:
                self.problems.append(
                    f"{k} differs between traced runs: {[t[k] for t in traced]}"
                )

        clj = []
        for _ in range(CLJ_RUNS):
            t0 = time.perf_counter()
            force(winit(self.r, self.s, self.theta))
            clj.append(time.perf_counter() - t0)

        replay = Replay()
        kinds = replay.run(self.r, self.s, self.theta, "left")
        if self.w.op == "full":  # plus the anti pass of s against r
            kinds += replay.run(self.s, self.r, self.theta.swapped(), "anti")
        got = {
            "kind_u": kinds["U"],
            "kind_o": kinds["O"],
            "kind_n": kinds["N"],
            "max_negated": replay.peak["active"],
        }
        want = {k: self.digest[k] for k in got}
        if got != want:
            self.problems.append(f"replayed windows {got} != Spark output {want}")

        m = dict(traced[-1])
        m["clj.wall_s"] = statistics.median(clj)
        m.update(replay.metrics())
        m["trace.replay_share"] = m["replay.total_s"] / m["sweep.py_run_s"]
        lo, hi = REPLAY_SHARE_BOUND
        if not lo <= m["trace.replay_share"] <= hi:
            print(f"warning: trace.replay_share {m['trace.replay_share']:.2f} "
                  f"is outside {REPLAY_SHARE_BOUND}", file=sys.stderr)
        m["trace.overhead_s"] = statistics.median(walls) - join_s
        if m["sweep.py_start_s"] > 0:
            print(f"note: Python workers were re-forked "
                  f"(sweep.py_start_s = {m['sweep.py_start_s']})", file=sys.stderr)
        return m
