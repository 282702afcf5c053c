"""The benchmark harness's workloads, run unchanged against the package.

perfbench/workloads.py reads `len(result.windows)`, `result.windows[k]`,
`estimate_initial_state(..., subsample=)` and `report.verdicts` of the
library, and the CLI's artifacts; a change that stops serving it fails here,
not only in a benchmark run. Each workload gets one set-up and two checked
operations.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, PERFBENCH)
    try:
        import workloads
        yield workloads
    finally:
        sys.path.remove(PERFBENCH)


@pytest.mark.parametrize("name", ["repro-paper", "probe-sweep", "replay-detect"])
def test_workload_ops_pass_their_checks(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name](seed=1, tmp=str(tmp_path))
    workload.setup(0)
    for i in range(2):
        verified, problems = workload.check(i, workload.op(i))
        assert problems == []
        assert verified == workloads.K
