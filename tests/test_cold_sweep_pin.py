"""The bytes of the cold-sweep benchmark's seed-1 reports are pinned.

Twenty-one of its jobs fail a law, so this digest also pins the exact
residuals of failing laws, which no golden report covers.  The batch is built
by the benchmark's own job list and runner, imported read-only.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402

COLD_SWEEP_SEED_1 = "05c17a2f9a9e874c93506bae0db8248d208198cdcd96515a9e3009f483a8f28c"


def test_the_cold_sweep_seed_1_reports_are_pinned():
    batches = run.Batches(workloads.batch("cold-sweep", 1), examples=False)
    batches.run_once()
    assert batches.failed == 0
    assert batches.law_fail_count == 21
    assert batches.workload_digest == COLD_SWEEP_SEED_1
