"""Each benchmark workload runs one small pass against the source tree and
every one of its checks passes, so a change to the package that the
benchmark depends on fails here rather than only when the benchmark runs."""

import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads"), importlib.import_module("spans")


@pytest.mark.parametrize("name", NAMES)
def test_workload_small_pass_checks(perfbench, name):
    workloads, spans = perfbench
    assert list(workloads.WORKLOADS) == NAMES
    w = workloads.WORKLOADS[name]
    spec, inp = w.make_inputs(5, "small")
    inp["spec"] = spec
    ans = w.run_pass(inp, spans.NullTracer(), [])
    results = w.check(inp, ans, {})
    assert results
    assert [n for n, ok in results if not ok] == []
