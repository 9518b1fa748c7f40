"""One-command benchmark of the NJ operator, ``negation_join``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload webkit-left --seed 1 --seconds 10 --trace 0

The load is one closed-loop client: this process issues one
``negation_join(r, s, θ, op)`` at a time, forced by a ``noop`` write, on
``local[k]`` Spark with k = min(4, nproc). ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` then runs the traced steps and reports
the per-layer metrics. The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. The line
before it holds the settings, versions, samples and output digest, which
are also written to ``.bench_build/perfbench/<workload>-seed<n>-trace<t>.json``.

README.md next to this file describes the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"
CORES = min(4, os.cpu_count() or 1)
DRIVER_MEMORY = "2g"
# the session settings of the test fixture (conftest.py)
SESSION_CONF = {
    "spark.sql.shuffle.partitions": "64",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
}


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description="NJ benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def prepare_environment() -> None:
    """Point Spark, the JVM and Python at this checkout only.

    Runs before pyspark is imported: the JVM reads its launch arguments
    from ``PYSPARK_SUBMIT_ARGS``, and the Python workers import ``repro``
    through ``PYTHONPATH``.
    """
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = src
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{CORES}] --driver-memory {DRIVER_MEMORY} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.local.dir={WORK / 'spark-local'} "
        f"--conf spark.sql.warehouse.dir={WORK / 'warehouse'} "
        "pyspark-shell"
    )


def start_spark():
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName("perfbench")
        .config(map=SESSION_CONF)
        .getOrCreate()
    )


def stop_spark(spark) -> None:
    """Stop Spark and wait until the JVM, and with it the Python
    workers it forked, has exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    proc = gateway.proc
    gateway.shutdown()
    proc.stdin.close()  # the JVM exits when its stdin closes
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def environment(spark) -> dict:
    import pandas
    import pyarrow
    import pyspark

    return {
        "spark": pyspark.__version__,
        "pyarrow": pyarrow.__version__,
        "pandas": pandas.__version__,
        "python": sys.version.split()[0],
        "java": spark.sparkContext._jvm.java.lang.System.getProperty("java.version"),
        "nproc": os.cpu_count(),
        "master": spark.sparkContext.master,
        "driver_memory": DRIVER_MEMORY,
        "session_conf": SESSION_CONF,
    }


def main() -> int:
    args = parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no NJ source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    prepare_environment()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    spark = start_spark()
    session_s = time.perf_counter() - t0
    try:
        from bench import Bench

        bench = Bench(spark, w, args.seed)
        rounds = bench.set_up()
        samples, attempted, failed = bench.timed_loop(args.seconds)
        reference_s = bench.check_against_reference()
        if not samples:
            print(f"all {attempted} timed runs failed", file=sys.stderr)
            return 1
        join_s = statistics.median(samples)
        values = {
            "join_s": join_s,
            "tuples_per_s": 2 * w.n / join_s,
            "setup_s": session_s + statistics.median(rounds),
            "py_worker_peak_rss_mb": bench.rss_mb,
        }
        check_s = None
        if args.trace:
            values.update(bench.trace(join_s))
            check_s = bench.check_against_ta()
        env = environment(spark)
    finally:
        stop_spark(spark)

    # BENCHMARK.json names the metrics each mode reports, with their units
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": units[m["name"]]}
        for m in wanted
    }
    ordered = sorted(samples)
    record = {
        "workload": w.name,
        "seed": args.seed,
        "tuples_per_side": w.n,
        "op": w.op,
        "environment": env,
        "samples": len(samples),
        "join_s_samples": samples,
        # the highest percentile with ten samples beyond it, if any
        "join_s_tail": ordered[-11] if len(ordered) > 10 else None,
        "fail_frac": failed / attempted,
        "session_s": session_s,
        "setup_rounds_s": rounds,
        "reference_check_s": reference_s,
        "ta_check_s": check_s,
        "check_n": w.n_check,
        "digest": bench.digest,
        "problems": bench.problems,
        "values": values,
    }
    out = WORK / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    for p in bench.problems:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({k: v for k, v in record.items() if k != "values"}))
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
