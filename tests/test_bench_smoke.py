"""The benchmark runs end to end on every workload and ends in its JSON line.

A short run of `perfbench/run.py` per workload: the last line of stdout
must be strict JSON (no NaN or Infinity), count no failed op, and carry
every end-to-end metric that BENCHMARK.json declares, as a finite number.
The traced run (--trace 1) must carry every per-layer metric, which it
drops when a call that `perfbench/layers.HOOKS` names is gone from the
library.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _refuse(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


def _run(workload: str, trace: int) -> dict:
    """The last stdout line of a short benchmark run, checked as strict JSON
    with no failed op."""
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", "1", "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.rstrip("\n").rsplit("\n", 1)[-1]
    record = json.loads(last, parse_constant=_refuse)
    assert record["correct"] is True and record["failed"] == 0, record
    assert record["attempted"] > 0
    return record


def _assert_finite(record: dict, metrics: list) -> None:
    for metric in metrics:
        value = record["metrics"][metric["name"]]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), \
            (metric["name"], value)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_last_line_is_strict_json(workload):
    _assert_finite(_run(workload, 0), SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_carries_every_layer_metric(workload):
    _assert_finite(_run(workload, 1), SPEC["per_layer"])


def test_trace_hooks_all_resolve():
    # a hooked call renamed or removed in the library is skipped by the
    # tracer, and the metrics built on it vanish from the traced run
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from layers import HOOKS
        from tracer import Tracer
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    tracer = Tracer(None)
    try:
        tracer.install(HOOKS)
        assert not tracer.missing, sorted(tracer.missing)
    finally:
        tracer.uninstall()
