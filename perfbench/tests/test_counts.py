"""Exact-count check for the traced run.

Two traced runs of one seed must report identical machine-independent
counts, and each must pass its own checks, which include the traced digests
matching the untraced ones.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
EXACT_SUFFIXES = (".calls", "fields.reduce.cells", "stepmodule.hom_basis.unknowns",
                  "stepmodule.restrict_extend.points")


def traced_run(workload, seed):
    proc = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", ["decompose", "certify", "compare"])
def test_traced_counts_repeat_exactly(workload):
    first = traced_run(workload, 3)
    second = traced_run(workload, 3)
    exact = sorted(k for k in first if k.endswith(EXACT_SUFFIXES))
    assert len(exact) > 30
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    assert first[f"{workload}.{workload}.calls" if workload == "decompose"
                 else "metric.verify.calls"] > 0
