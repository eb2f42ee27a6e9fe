"""Every benchmark task runs against this tree and passes its own gate."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"

# The saddle field has two zeros by design; bench/run.py ignores the same warning.
pytestmark = pytest.mark.filterwarnings("ignore:found an even number of zeros")


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)  # dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("name", ["long_horizon", "ensemble", "envelopes"])
def test_every_task_passes_its_check(name, tmp_path, monkeypatch):
    workloads = load_workloads(monkeypatch)
    assert name in workloads.WORKLOADS
    wl = workloads.build(name, 1, tmp_path)
    assert wl.tasks
    for task in wl.tasks:
        assert task.check(task.run()) is None, task.kind
