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
    """~75% of the memory the driver may use, for the Spark driver JVM.

    ``SPARK_DRIVER_MEM`` overrides it. Otherwise the base is the smaller
    of physical memory and the cgroup v2/v1 limit. A limit that is not
    a number ("max") or above physical memory (cgroup-v1's ~9.2e18
    "unlimited" value) leaves physical memory as the base.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    base = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    src = f"physical={base}"
    for p in (
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    ):
        try:
            with open(p) as f:
                raw = f.read().strip()
        except OSError:
            continue
        if raw.isdigit() and int(raw) < base:
            base, src = int(raw), f"cgroup:{p}={raw}"
    os.environ["_SPARK_DRIVER_MEM_SRC"] = src
    return f"{max(1, int(base * 0.75 / (1 << 30)))}g"


def spark_session(app: str) -> SparkSession:
    """A local SparkSession named ``app`` with the repo's settings.

    ``SPARK_MASTER`` (default ``local[*]``) and ``SPARK_DRIVER_MEM`` are
    deployment settings. Shuffles use 64 partitions, the value the
    benchmark's session pins (``perfbench/run.py``). Broadcast joins are
    disabled so the θ∧overlap join exercises the shuffle path; a query
    that wants a broadcast join sets the threshold back for itself.
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
        .config("spark.sql.shuffle.partitions", 64)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
