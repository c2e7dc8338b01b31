"""The benchmark runs end to end on every workload and ends in its JSON line.

A short run of `perfbench/run.py` per workload: the last line of stdout
must be strict JSON (no NaN or Infinity), count no failed op, and carry
every end-to-end metric that BENCHMARK.json declares, as a finite number.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _refuse(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_benchmark_last_line_is_strict_json(workload):
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", "1", "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.rstrip("\n").rsplit("\n", 1)[-1]
    record = json.loads(last, parse_constant=_refuse)
    assert record["correct"] is True and record["failed"] == 0, record
    assert record["attempted"] > 0
    for metric in SPEC["end_to_end"]:
        value = record["metrics"][metric["name"]]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), \
            (metric["name"], value)
