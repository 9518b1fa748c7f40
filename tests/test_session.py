"""The Spark driver memory that `spark_session` derives."""
import io

import pytest

from repro import session

GIB = 1 << 30
PAGE = 4096


@pytest.fixture()
def machine(monkeypatch):
    """Set physical memory and the cgroup limit files ``_driver_mem`` reads."""
    monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)
    monkeypatch.setenv("_SPARK_DRIVER_MEM_SRC", "")

    def set(physical: int, limits: dict[str, str]):
        pages = {"SC_PHYS_PAGES": physical // PAGE, "SC_PAGE_SIZE": PAGE}
        monkeypatch.setattr(session.os, "sysconf", pages.__getitem__)

        def read(path):
            if path not in limits:
                raise FileNotFoundError(path)
            return io.StringIO(limits[path])

        monkeypatch.setattr(session, "open", read, raising=False)

    return set


def test_unlimited_cgroup_uses_physical_memory(machine):
    machine(16 * GIB, {"/sys/fs/cgroup/memory/memory.limit_in_bytes": "9223372036854771712\n"})
    assert session._driver_mem() == "12g"
    assert session.os.environ["_SPARK_DRIVER_MEM_SRC"].startswith("physical")


def test_cgroup_v2_max_uses_physical_memory(machine):
    machine(8 * GIB, {"/sys/fs/cgroup/memory.max": "max\n"})
    assert session._driver_mem() == "6g"


def test_cgroup_limit_below_physical_memory_wins(machine):
    machine(16 * GIB, {"/sys/fs/cgroup/memory.max": f"{4 * GIB}\n"})
    assert session._driver_mem() == "3g"
    assert "memory.max" in session.os.environ["_SPARK_DRIVER_MEM_SRC"]

