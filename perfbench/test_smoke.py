"""Smoke test of the benchmark harness: a one-group version of each
workload, untraced and traced, must pass its golden check and report every
metric that BENCHMARK.json names, with that metric's unit.

    python3 -m pytest perfbench/test_smoke.py

It takes about a minute; most of it is one witness_3840 command per mode.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_names_what_the_harness_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_one_group_workload_reports_every_metric(workload, trace, capsys):
    result = run.run_workload(workload, seed=7, seconds=0, trace=trace, smoke=True)
    assert result.attempted >= 1
    assert result.failed == 0, result.lines
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result.metrics) == {m["name"] for m in expected}
    for metric in expected:
        line = next(ln for ln in result.lines if ln.split()[0] == metric["name"])
        assert line.split()[-1] == metric["unit"]
