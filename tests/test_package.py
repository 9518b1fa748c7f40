"""The package boundary: what a plain install and the benchmark import.

Each check runs in a fresh interpreter, so that modules the suite has
already imported do not hide a missing one.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(code: str) -> None:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def test_every_module_imports_without_test_dependencies():
    """``duckdb`` and ``hypothesis`` are only in the ``test`` extra, so
    no module under ``src/repro`` may import them."""
    run(
        "import importlib, pkgutil, sys\n"
        "for name in ('duckdb', 'hypothesis'):\n"
        "    sys.modules[name] = None\n"
        "import repro\n"
        "for m in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    importlib.import_module(m.name)\n"
    )


def test_benchmark_modules_import():
    """Every name the benchmark imports from ``repro`` still exists.
    Importing starts no Spark session."""
    run(
        f"import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
        "import bench, replay, workloads\n"
        "from pyspark import SparkContext\n"
        "assert SparkContext._active_spark_context is None\n"
    )
