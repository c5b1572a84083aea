"""The bytes of the benchmark's seed-1 and seed-2 reports are pinned, for each workload.

Twenty-one of the seed-1 cold-sweep jobs fail a law, and twenty-three of the
seed-2 ones, so those digests also pin the exact residuals of failing laws,
which no golden report covers.  The oscillator-full and group-full digests
pin the budget-800 reports of the built-in examples, every law of which
passes.  Each batch is built by the benchmark's own job list and runner,
imported read-only.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402

COLD_SWEEP_SEED_1 = "05c17a2f9a9e874c93506bae0db8248d208198cdcd96515a9e3009f483a8f28c"
OSCILLATOR_FULL_SEED_1 = "60427ca3fc98f4fd923b4823dfae76051922d0e97e507d7fff1e8a81e0046a93"
GROUP_FULL_SEED_1 = "76203ed6aa4d92f047387919fc91f1d5c248e88c26e06e2f62531b3307e7d14e"
COLD_SWEEP_SEED_2 = "e1fa9b5f9d763074ab8f601803b43f8a8d59bf1288542334ee4e3a211da585bd"
OSCILLATOR_FULL_SEED_2 = "8b6800a6c9bcdb4701190a265dadaef89fe94f72472d98f0b7c58055f12ddc80"
GROUP_FULL_SEED_2 = "da25ba56569af3480f505c9961e87979b5c9d4c56c39e66bb4bb170b54406fb9"


def _cold_sweep_digest(seed: int, law_fail_count: int) -> str:
    batches = run.Batches(workloads.batch("cold-sweep", seed), examples=False)
    batches.run_once()
    assert batches.failed == 0
    assert batches.law_fail_count == law_fail_count
    return batches.workload_digest


def test_the_cold_sweep_seed_1_reports_are_pinned():
    assert _cold_sweep_digest(1, 21) == COLD_SWEEP_SEED_1


def test_the_cold_sweep_seed_2_reports_are_pinned():
    assert _cold_sweep_digest(2, 23) == COLD_SWEEP_SEED_2


def _examples_digest(workload: str, seed: int) -> str:
    batches = run.Batches(workloads.batch(workload, seed), examples=True)
    batches.run_once()
    assert batches.failed == 0
    assert batches.examples_pass
    assert batches.law_fail_count == 0
    return batches.workload_digest


def test_the_oscillator_full_seed_1_reports_are_pinned():
    assert _examples_digest("oscillator-full", 1) == OSCILLATOR_FULL_SEED_1


def test_the_oscillator_full_seed_2_reports_are_pinned():
    assert _examples_digest("oscillator-full", 2) == OSCILLATOR_FULL_SEED_2


def test_the_group_full_seed_1_reports_are_pinned():
    assert _examples_digest("group-full", 1) == GROUP_FULL_SEED_1


def test_the_group_full_seed_2_reports_are_pinned():
    assert _examples_digest("group-full", 2) == GROUP_FULL_SEED_2
