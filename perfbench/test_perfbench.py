"""Tests of the benchmark itself: determinism of counts, tracer coverage and cost.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import inspect
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run

run.load_program()

import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads(run.SPEC.read_text())
SMALL_BUDGET = 12


def small_batch(workload: str, seed: int) -> list[dict]:
    """The workload's batch, cut to a size a unit test can afford."""
    jobs = workloads.batch(workload, seed)[:12]
    for raw in jobs:
        raw["sample_budget"] = min(raw["sample_budget"], SMALL_BUDGET)
    return jobs


def traced_pass(jobs: list[dict]):
    batches = run.Batches(jobs, examples=False)
    tr = tracer.Tracer()
    with tr:
        results = batches.run_once(after_job=tr.end_job)
    return tr, run.layer_metrics(tr, results, 0.0, batches.law_fail_count)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly_for_a_fixed_seed(workload):
    jobs = small_batch(workload, seed=5)
    first, m1 = traced_pass(jobs)
    second, m2 = traced_pass(jobs)
    counted = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes", "ratio")]
    assert any(name.endswith(".calls") for name in counted)
    for name in counted:
        assert m1[name] == m2[name], name
    assert first.names == second.names
    assert first.calls == second.calls
    assert sum(first.calls) > 0


def public_bindings():
    """Every (namespace, attribute, function) binding of a traced public function."""
    defined = {f"hopfdeform.{m}" for m in tracer.MODULES}
    out = []
    for key, mod in sorted(sys.modules.items()):
        if key != "hopfdeform" and not key.startswith("hopfdeform."):
            continue
        for attr, value in vars(mod).items():
            if (
                inspect.isfunction(value)
                and value.__module__ in defined
                and not value.__name__.startswith("_")
                and getattr(sys.modules[value.__module__], value.__name__, None) is value
            ):
                out.append((mod, attr, value))
    return out


def test_tracer_wraps_each_function_in_every_namespace_that_binds_it():
    from hopfdeform import cli, convolution, core, deformation

    bindings = public_bindings()
    assert (deformation, "conv_exp", convolution.conv_exp) in bindings
    with tracer.Tracer():
        for mod, attr, original in bindings:
            current = getattr(mod, attr)
            assert current is not original, f"{mod.__name__}.{attr}"
            assert current.__wrapped__ is original, f"{mod.__name__}.{attr}"
        assert deformation.conv_exp is convolution.conv_exp
        assert cli.check_deformation_axioms is deformation.check_deformation_axioms
        assert convolution.Cochain.value.__wrapped__ is not None
        assert core.Element.__init__.__wrapped__ is not None
    for mod, attr, original in bindings:
        assert getattr(mod, attr) is original, f"{mod.__name__}.{attr} not restored"
    assert not hasattr(convolution.Cochain.value, "__wrapped__")


def test_spans_agree_with_the_aggregates(tmp_path):
    batches = run.Batches(small_batch("group-full", seed=2)[:1], examples=False)
    tr = tracer.Tracer()
    with tr:
        batches.run_once()
    assert tr.spans_dropped == 0
    tr.write(tmp_path / "t")
    header, (names, parents, starts, ends) = tracer.read_spans(tmp_path / "t")
    n = len(header["names"])
    span_self, calls, children = [0.0] * n, [0] * n, [0] * n
    for i in range(len(names)):
        calls[names[i]] += 1
        span_self[names[i]] += ends[i] - starts[i]
        p = parents[i]
        if p >= 0:
            assert starts[p] <= starts[i] <= ends[i] <= ends[p]
            span_self[names[p]] -= ends[i] - starts[i]
            children[names[p]] += 1
    for i, name in enumerate(header["names"]):
        agg = header["per_name"][name]
        assert agg["calls"] == calls[i], name
        # the aggregates differ from the spans by the wrapper's cost alone:
        # a little per traced child and per call
        taken_out = span_self[i] - agg["self_s"]
        assert -1e-9 <= taken_out <= (children[i] + calls[i]) * 1e-4 + 0.01, name


def test_wrapper_cost_is_taken_out_of_the_callers_times():
    def leaf():
        return sum(range(20))

    def caller(fn):
        for _ in range(20_000):
            fn()

    def bare_s():
        t0 = time.perf_counter()
        caller(leaf)
        return time.perf_counter() - t0

    bare = statistics.median(bare_s() for _ in range(3))
    tr = tracer.Tracer()
    tr.outer_cost, tr.inner_cost = tracer.calibrate()
    tr._wrap(caller, "caller")(tr._wrap(leaf, "leaf"))
    raw = tr.span_end[0] - tr.span_start[0]
    # the wrappers cost several times the leaves, and most of that cost is
    # taken out of the caller's inclusive and self time
    wrappers = raw - bare
    assert wrappers > 2 * bare
    assert tr.stats("caller")["s"] < bare + 0.35 * wrappers
    assert tr.stats("caller")["self_s"] < 0.35 * wrappers
    assert tr.stats("leaf")["calls"] == 20_000


def test_host_speed_samples_are_left_out_of_the_clock_and_scale_the_times():
    with hostspeed.HostSpeed() as speed:
        w0, t0, mark = time.perf_counter(), speed.clock(), speed.mark()
        while time.perf_counter() - w0 < 0.3:
            hostspeed.kernel()
        wall, clock = time.perf_counter() - w0, speed.clock() - t0
        factor = speed.factor(mark)
        batches = run.Batches(small_batch("cold-sweep", seed=3)[:2], examples=False, speed=speed)
        batches.run_once()
        with speed.paused():
            paused_at = speed.mark()
            time.sleep(0.05)
            assert speed.mark() == paused_at
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.ratios) >= 10
    assert 0.0 < wall - clock <= speed.spent
    assert 0.1 < factor < 10
    # an interval with too few samples of its own is scaled by the last ones
    short = speed.factor(len(speed.ratios))
    assert short == pytest.approx(statistics.fmean(speed.ratios[-hostspeed.MIN_SAMPLES:]))
    for times in batches.job_s + [batches.batch_s]:
        assert all(t > 0 and 0.1 < f < 10 for t, f in times)
    # a set-up probe samples the host inside the fresh interpreter
    probe_s, probe_factor = run.setup_probe(small_batch("cold-sweep", seed=3)[0])
    assert probe_s > 0 and 0.1 < probe_factor < 10
    unsampled = run.Batches(small_batch("cold-sweep", seed=3)[:1], examples=False)
    unsampled.run_once()
    assert unsampled.batch_s[0][1] == 1.0


def test_tracing_leaves_reports_unchanged():
    jobs = small_batch("cold-sweep", seed=4)
    plain = [text for _, text, _ in run.Batches(jobs, examples=False).run_once()]
    traced = run.Batches(jobs, examples=False)
    with tracer.Tracer():
        texts = [text for _, text, _ in traced.run_once()]
    assert texts == plain


def test_golden_gate_and_examples_pass():
    assert run.golden_gate()
    batches = run.Batches(small_batch("group-full", seed=1), examples=True)
    batches.run_once()
    batches.run_once()
    assert batches.examples_pass and batches.failed == 0 and batches.mismatched == 0


def test_same_seed_same_batch_and_law_failures_kept():
    assert workloads.batch("cold-sweep", 9) == workloads.batch("cold-sweep", 9)
    assert workloads.batch("cold-sweep", 9) != workloads.batch("cold-sweep", 10)
    jobs = workloads.batch("cold-sweep", 9)
    kinds = {raw["cocycle"]["type"] for raw in jobs}
    assert kinds == {"zd_matrix", "primitive_bilinear"}
    assert {raw["command"] for raw in jobs} == set(workloads.COLD_COMMANDS)


def test_tail_is_the_largest_sample_with_ten_beyond_it():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
