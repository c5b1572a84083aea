"""The bytes of the benchmark's seed-1 reports are pinned, for each workload.

Twenty-one of the cold-sweep jobs fail a law, so that digest also pins the
exact residuals of failing laws, which no golden report covers.  The
oscillator-full and group-full digests pin the budget-800 reports of the
built-in examples, every law of which passes.  Each batch is built by the
benchmark's own job list and runner, imported read-only.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402

COLD_SWEEP_SEED_1 = "05c17a2f9a9e874c93506bae0db8248d208198cdcd96515a9e3009f483a8f28c"
OSCILLATOR_FULL_SEED_1 = "60427ca3fc98f4fd923b4823dfae76051922d0e97e507d7fff1e8a81e0046a93"
GROUP_FULL_SEED_1 = "76203ed6aa4d92f047387919fc91f1d5c248e88c26e06e2f62531b3307e7d14e"


def test_the_cold_sweep_seed_1_reports_are_pinned():
    batches = run.Batches(workloads.batch("cold-sweep", 1), examples=False)
    batches.run_once()
    assert batches.failed == 0
    assert batches.law_fail_count == 21
    assert batches.workload_digest == COLD_SWEEP_SEED_1


def _examples_digest(workload: str) -> str:
    batches = run.Batches(workloads.batch(workload, 1), examples=True)
    batches.run_once()
    assert batches.failed == 0
    assert batches.examples_pass
    assert batches.law_fail_count == 0
    return batches.workload_digest


def test_the_oscillator_full_seed_1_reports_are_pinned():
    assert _examples_digest("oscillator-full") == OSCILLATOR_FULL_SEED_1


def test_the_group_full_seed_1_reports_are_pinned():
    assert _examples_digest("group-full") == GROUP_FULL_SEED_1
