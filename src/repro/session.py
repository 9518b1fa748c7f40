"""The local SparkSession shared by the test suite and the bench jobs.

Master and driver memory go into ``PYSPARK_SUBMIT_ARGS``, which Spark
reads when it launches the JVM, so :func:`spark_session` must run
before any other code in the process creates a SparkContext. Settings
honoured after launch (shuffle partitions, Arrow, broadcast threshold)
go through the builder.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def _driver_mem() -> str:
    """~75% of the container's memory limit, for the Spark driver JVM.

    Precedence: SPARK_DRIVER_MEM env (explicit override) > cgroup v2/v1
    limit > 48g fallback.

    The cgroup read is best-effort: a sandboxed kernel's sysfs emulation
    may not pass the host limit through. An unbounded value (cgroup-v1's
    ~9.2e18 "unlimited" sentinel, or a missing limit) is treated as
    absent so the JVM is never handed an impossible heap.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    for p in (
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    ):
        try:
            raw = open(p).read().strip()
            if not raw or raw == "max":
                continue
            gib = int(raw) / (1 << 30)
            if not (1 <= gib <= 1024):  # v1 "unlimited" → ~8.6e9 GiB
                continue
            os.environ["_SPARK_DRIVER_MEM_SRC"] = f"cgroup:{p}={raw}"
            return f"{max(1, int(gib * 0.75))}g"
        except (OSError, ValueError):
            continue
    os.environ["_SPARK_DRIVER_MEM_SRC"] = "fallback"
    return "48g"


def spark_session(app: str) -> SparkSession:
    """A local SparkSession named ``app`` with the repo's settings.

    ``SPARK_MASTER`` (default ``local[*]``), ``SPARK_DRIVER_MEM`` and
    ``SPARK_SHUFFLE_PARTITIONS`` (default 64) override the defaults.
    Broadcast joins are disabled so the θ∧overlap join exercises the
    shuffle path; a query that wants a broadcast join sets the
    threshold back for itself.
    """
    os.environ.setdefault("SPARK_DRIVER_MEM", _driver_mem())
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "pyspark-shell",
    )
    return (
        SparkSession.builder.appName(app)
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
