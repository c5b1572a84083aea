"""hopfdeform benchmark: verification jobs in a closed loop, one process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout that holds ``src/hopfdeform`` and ``tests``.  The seed
makes the workload's batch of job configs (see ``workloads.py``).  Each job
is ``RunConfig.from_dict`` + ``cli.run_config`` + ``cli.report_json``, and
the next job starts only after the previous one ends.

``--trace 0`` repeats the batch until ``--seconds`` have passed, with
fresh-interpreter set-up probes between batches, and prints the end-to-end
metrics.  Their times are scaled to the reference host speed by the host's
speed sampled during each measured interval (see ``hostspeed.py``).
``--trace 1`` runs the batch once untraced and once under the tracer, prints
the per-layer metrics and the tracing overhead, and writes the trace to
``.bench_out/``.  Both first pass the correctness gate:
the golden config reproduces the golden report byte for byte, every job
built from a built-in example passes, and every repeat of a job gives the
same report bytes.  The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import copy
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
GOLDEN_CONFIG = ROOT / "tests" / "data" / "zd_matrix_small.json"
GOLDEN_REPORT = ROOT / "tests" / "golden" / "zd_matrix_small.report.json"
SPEC = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 15
TAIL_BEYOND = 10
DOCUMENTED = ("pass", "law-failed", "config-error", "capability-error")


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def load_program():
    """Import hopfdeform from this checkout's ``src`` and nowhere else."""
    for path in (SRC / "hopfdeform" / "__init__.py", GOLDEN_CONFIG, GOLDEN_REPORT, SPEC):
        if not path.is_file():
            raise SetupError(f"missing {path.relative_to(ROOT)}: run from a full checkout")
    sys.path.insert(0, str(SRC))
    import hopfdeform

    if Path(hopfdeform.__file__).resolve().parent != SRC / "hopfdeform":
        raise SetupError(f"imported hopfdeform from {hopfdeform.__file__}, not from {SRC}")
    sys.path.insert(0, str(HERE))


def run_job(raw: dict):
    """One job: returns (outcome, report text, Report or None)."""
    from hopfdeform import cli, config, core

    try:
        cfg = config.RunConfig.from_dict(raw)
        report = cli.run_config(cfg)
        text = cli.report_json(cfg, report)
    except config.ConfigError as exc:
        return "config-error", f"configuration error: {exc}\n", None
    except core.CapabilityMissingError as exc:
        return "capability-error", f"capability error: {exc}\n", None
    except Exception:  # a traceback is an outcome outside the documented ones
        return "traceback", traceback.format_exc(), None
    return ("pass" if report.overall_pass else "law-failed"), text, report


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Batches:
    """Runs a batch of jobs repeatedly and checks each repeat against the first.

    With a ``HostSpeed``, each job and batch time is kept with the host's
    speed factor over it; without one, the factor is 1.
    """

    def __init__(self, jobs: list[dict], examples: bool, speed=None):
        self.jobs = jobs
        self.examples = examples
        self.speed = speed
        self.clock = speed.clock if speed else time.perf_counter
        self.first: list = [None] * len(jobs)
        self.job_s: list[list[tuple[float, float]]] = [[] for _ in jobs]
        self.batch_s: list[tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.outcomes: Counter = Counter()

    def run_once(self, after_job=None) -> list:
        """One pass over the batch; returns (outcome, text, report) per job."""
        results = []
        b0, batch_mark = self.clock(), self.mark()
        for i, raw in enumerate(self.jobs):
            fresh = copy.deepcopy(raw)
            t0, mark = self.clock(), self.mark()
            outcome, text, report = run_job(fresh)
            self.job_s[i].append((self.clock() - t0, self.factor(mark)))
            if after_job is not None:
                after_job()
            self.attempted += 1
            key = (outcome, digest(text))
            if self.first[i] is None:
                self.first[i] = key
            elif self.first[i] != key:
                self.mismatched += 1
                outcome = "mismatch"
            if outcome not in DOCUMENTED:
                self.failed += 1
            self.outcomes[outcome] += 1
            results.append((outcome, text, report))
        self.batch_s.append((self.clock() - b0, self.factor(batch_mark)))
        return results

    def mark(self) -> int:
        return self.speed.mark() if self.speed else 0

    def factor(self, mark: int) -> float:
        return self.speed.factor(mark) if self.speed else 1.0

    @property
    def law_fail_count(self) -> int:
        return sum(1 for key in self.first if key is not None and key[0] == "law-failed")

    @property
    def examples_pass(self) -> bool:
        return not self.examples or all(key[0] == "pass" for key in self.first)

    @property
    def workload_digest(self) -> str:
        return digest("".join(key[1] for key in self.first))


def golden_gate() -> bool:
    from hopfdeform import cli, config

    cfg = config.load_config(str(GOLDEN_CONFIG))
    text = cli.report_json(cfg, cli.run_config(cfg))
    return text.encode("utf-8") == GOLDEN_REPORT.read_bytes()


def setup_probe(raw: dict) -> tuple[float, float]:
    """Spawn-to-ready time of one fresh interpreter that builds ``raw``.

    Returned with its speed factor: the interpreter samples the host's speed
    while it imports and builds, and only that part of the time is scaled.
    Process start before it stays as measured.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), json.dumps(raw)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=60)
    word, *numbers = line.split()
    if code != 0 or word != b"ready":
        raise SetupError(f"set-up probe failed with exit code {code}")
    factor, sampled_s = map(float, numbers)
    total = t1 - t0
    return total, (total - sampled_s + sampled_s * factor) / total


def timed_run(batches: Batches, raw: dict, seconds: float) -> list[tuple[float, float]]:
    """Repeat the batch for ``seconds``, with set-up probes spread through the run.

    Probe k is due ``k / SETUP_PROBES`` of the way into the run, for k from
    1, and runs at the first gap between batches after that, so the probes
    sample the host's speed over the whole run rather than one moment of it.
    Returns each probe's time with the host's speed factor inside it; one
    untimed probe first fills the page cache.  ``batches`` must sample the
    host's speed.
    """
    # this process only waits for a probe, so it takes no samples meanwhile
    speed = batches.speed
    with speed.paused():
        setup_probe(raw)
    setup_s = []
    start = batches.clock()
    while True:
        elapsed = batches.clock() - start
        due = min(SETUP_PROBES, int(elapsed * SETUP_PROBES / seconds)) - len(setup_s)
        with speed.paused():
            setup_s.extend(setup_probe(raw) for _ in range(due))
        if elapsed >= seconds and len(setup_s) == SETUP_PROBES:
            return setup_s
        batches.run_once()


def tail(samples: list[float]):
    """The largest sample with TAIL_BEYOND samples above it, as (value, percentile).

    With too few samples for that, the maximum is returned at percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def times(samples: list[tuple[float, float]], scale: bool) -> list[float]:
    """The times of (time, speed factor) samples, scaled or as measured."""
    return [t * f if scale else t for t, f in samples]


def end_to_end(batches: Batches, setup_s: list[tuple[float, float]]) -> tuple[dict, dict]:
    """Values of the end-to-end metrics, and a note on how each was taken.

    Times are scaled to the reference host speed; the notes give the
    unscaled values too.
    """
    # one sample per distinct job, its median over the repeats: the repeats
    # only fill the run, and the median keeps host noise out of the tail
    def job_stats(scale):
        per_job = [statistics.median(times(s, scale)) for s in batches.job_s]
        return (statistics.median(per_job),) + tail(per_job)

    p50, job_tail, pct = job_stats(True)
    raw_p50, raw_tail, _ = job_stats(False)
    n = len(batches.jobs)
    repeats = f"each the median of its {len(batches.batch_s)} repeats"
    values = {
        "wall_s": statistics.median(times(batches.batch_s, True)),
        "job_s.p50": p50,
        "job_s.tail": job_tail,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(times(setup_s, True)),
    }
    unscaled = {
        "wall_s": statistics.median(times(batches.batch_s, False)),
        "job_s.p50": raw_p50,
        "job_s.tail": raw_tail,
        "setup_s": statistics.median(times(setup_s, False)),
    }
    notes = {
        "wall_s": f"median of {len(batches.batch_s)} batches of {n} jobs",
        "job_s.p50": f"median of {n} jobs, {repeats}",
        "job_s.tail": (
            f"p{pct:.1f} of {n} jobs, {TAIL_BEYOND} beyond it, {repeats}" if n > TAIL_BEYOND
            else f"max of {n} jobs, {repeats}: fewer than {TAIL_BEYOND + 1} jobs"
        ),
        "peak_rss_mb": "ru_maxrss of the benchmark process",
        "setup_s": f"median of {len(setup_s)} fresh interpreters to the first run_config, "
        "spread through the run",
    }
    for name, value in unscaled.items():
        notes[name] += f"; {value:.6f} s unscaled"
    return values, notes


def layer_metrics(tr, results: list, overhead_s: float, law_fail_count: int) -> dict:
    """Values of the per-layer metrics from one traced pass."""
    def stat(name, field):
        return tr.stats(name)[field]

    reports = [report for _, _, report in results if report is not None]
    values = {
        "conv_exp.calls.closed_form_grouplike": tr.tags["closed_form_grouplike"],
        "conv_exp.calls.degree_truncated": tr.tags["degree_truncated"],
        "conv_exp.calls.zero_functional": tr.tags["zero_functional"],
        "conv_exp.self_s": stat("convolution.conv_exp", "self_s"),
        "plan_conv_exp.calls": stat("convolution.plan_conv_exp", "calls"),
        "conv_power.calls": stat("convolution.conv_power", "calls"),
        "tuple_comul_terms.calls": stat("convolution.tuple_comul_terms", "calls"),
        "tuple_comul_terms.distinct_frac": tr.distinct_frac("convolution.tuple_comul_terms"),
        "Cochain.value.calls": stat("convolution.Cochain.value", "calls"),
        "Cochain.value.distinct_frac": tr.distinct_frac("convolution.Cochain.value"),
        "LinMap.value.calls": stat("convolution.LinMap.value", "calls"),
        "LinMap.value.distinct_frac": tr.distinct_frac("convolution.LinMap.value"),
        "deformed_mul_pair.calls": stat("deformation.deformed_mul_pair", "calls"),
        "deformed_mul_pair.self_s": stat("deformation.deformed_mul_pair", "self_s"),
        "deformed_mul_pair.distinct_frac": tr.distinct_frac("deformation.deformed_mul_pair"),
        "deformed_mul.calls": stat("deformation.deformed_mul", "calls"),
        "deformed_mul.s": stat("deformation.deformed_mul", "s"),
        "deformed_antipode.calls": stat("deformation.deformed_antipode", "calls"),
        "sigma_functional.s": stat("deformation.sigma_functional", "s"),
        "check_deformation_axioms.s": stat("deformation.check_deformation_axioms", "s"),
        "check_hopf_deformation.s": stat("deformation.check_hopf_deformation", "s"),
        "split_cocommutative.s": stat("deformation.split_cocommutative", "s"),
        "check_trivial_deformation.s": stat("deformation.check_trivial_deformation", "s"),
        "star_deformation_check.s": stat("deformation.star_deformation_check", "s"),
        "mul.calls": stat("core.mul", "calls"),
        "mul.self_s": stat("core.mul", "self_s"),
        "comul.calls": stat("core.comul", "calls"),
        "comul.self_s": stat("core.comul", "self_s"),
        "tensor_mul.self_s": stat("core.tensor_mul", "self_s"),
        "Element.calls": stat("core.Element", "calls"),
        "check_structure.s": stat("core.check_structure", "s"),
        "basis_rule.evals": tr.counters["basis_rule.evals"],
        "cocycle.evals": tr.counters["cocycle.evals"],
        "validate_generator.s": stat("cohomology.validate_generator", "s"),
        "commuting_residual.s": stat("cohomology.commuting_residual", "s"),
        "cocycle_residual.s": stat("cohomology.cocycle_residual", "s"),
        "hermitian_residual.s": stat("cohomology.hermitian_residual", "s"),
        "config.build.s": sum(
            stat(f"config.{fn}", "s") for fn in ("build_instance", "build_cocycle", "build_witness")
        ),
        "sampling.element.calls": stat("sampling.ElementSampler.element", "calls"),
        "sampling.element.self_s": stat("sampling.ElementSampler.element", "self_s"),
        "cli.run_config.s": stat("cli.run_config", "s"),
        "cli.report_json.s": stat("cli.report_json", "s"),
        "cli.report_json.bytes": sum(len(text.encode("utf-8")) for _, text, r in results if r is not None),
        "report.samples": sum(res.samples for report in reports for res in report.results),
        "law_fail_count": law_fail_count,
        "trace.overhead_s": overhead_s,
    }
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        load_program()
    except (SetupError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    spec = json.loads(SPEC.read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    jobs = workloads.batch(args.workload, args.seed)
    golden_ok = golden_gate()
    examples = args.workload in workloads.EXAMPLE_WORKLOADS
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs per batch "
          f"({why[args.workload]})")

    if args.trace:
        from tracer import Tracer

        batches = Batches(jobs, examples)
        t0 = time.perf_counter()
        batches.run_once()
        untraced_s = time.perf_counter() - t0
        tr = Tracer()
        t0 = time.perf_counter()
        with tr:
            results = batches.run_once(after_job=tr.end_job)
        traced_s = time.perf_counter() - t0
        stem = OUT_DIR / f"trace-{args.workload}"
        tr.write(stem)
        values = layer_metrics(tr, results, traced_s - untraced_s, batches.law_fail_count)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        for name, metric in metrics.items():
            print(f"  {name:<38} {metric['value']:>16.6f} {metric['unit']}")
        print(f"  tracing: untraced {untraced_s:.3f} s, traced {traced_s:.3f} s; wrapper cost "
              f"{tr.outer_cost * 1e9:.0f} ns outside and {tr.inner_cost * 1e9:.0f} ns inside "
              f"a span, taken out of .s and .self_s; cli.run_config.s "
              f"{values['cli.run_config.s']:.3f} s against {untraced_s:.3f} s for the untraced batch")
        print(f"  spans: {tr.spans_recorded} kept, {tr.spans_dropped} dropped; "
              f"written to {stem.relative_to(ROOT)}.json/.spans")
    else:
        from hostspeed import HostSpeed

        with HostSpeed() as speed:
            batches = Batches(jobs, examples, speed)
            setup_s = timed_run(batches, jobs[0], args.seconds)
        values, notes = end_to_end(batches, setup_s)
        factors = [f for _, f in batches.batch_s]
        print(f"  host speed: {len(speed.ratios)} samples; batch factors "
              f"{min(factors):.3f} to {max(factors):.3f} of the reference speed")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        for name, metric in metrics.items():
            print(f"  {name:<12} {metric['value']:>12.6f} {metric['unit']:<3} ({notes[name]})")

    failed_frac = batches.failed / batches.attempted
    correct = golden_ok and batches.examples_pass and batches.failed == 0
    print(f"  failed_frac {failed_frac:.6f} ({batches.failed}/{batches.attempted} jobs outside "
          f"{', '.join(DOCUMENTED)}); outcomes {dict(sorted(batches.outcomes.items()))}")
    print(f"  law_fail_count {batches.law_fail_count} of {len(jobs)} jobs per batch")
    print(f"  report digest {batches.workload_digest}")
    print(f"gate: golden {'ok' if golden_ok else 'MISMATCH'}; built-in examples "
          f"{'pass' if batches.examples_pass else 'FAIL'}; repeats "
          f"{'identical' if not batches.mismatched else f'{batches.mismatched} differ'}")
    print(json.dumps({
        "correct": correct,
        "attempted": batches.attempted,
        "failed": batches.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
