"""Smoke test of the benchmark's traced path: `bench/run.py --trace 1` must
exit 0 and end in one strict-JSON result line, as the benchmark reads it."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def _reject(constant):
    raise ValueError(f"non-finite number {constant} in the result line")


@pytest.mark.parametrize("workload", ["family", "reach", "compare"])
def test_traced_run_ends_in_a_result(workload):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--trace", "1", "--seconds", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.strip().splitlines()[-1]
    result = json.loads(last, parse_constant=_reject)
    assert result["correct"] is True and result["failed"] == 0
    assert "engine.query.s" in result["metrics"]
