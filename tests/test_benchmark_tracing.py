"""The benchmark's per-layer metrics read names that the program still calls.

The tracer in ``perfbench/`` finds functions by module and name.  After a
rename or a move, a layer metric would silently read 0; this test fails
instead.
"""
import sys
from pathlib import Path

from hopfdeform.registry import example_config, example_names

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402
import tracer  # noqa: E402

# no built-in example is a finite instance; this job takes the finite strategy
H4_ZERO = {
    "instance": {"type": "sweedler_h4"},
    "cocycle": {"type": "zero"},
    "command": "full-report",
    "sample_budget": 10,
    "t_grid": [-1.0, 0.0, 1.0],
}


def test_every_traced_name_of_a_layer_metric_is_called():
    jobs = []
    for name in example_names():
        raw = example_config(name)
        raw["sample_budget"] = 10
        jobs.append(raw)
    jobs.append(H4_ZERO)
    batches = run.Batches(jobs, examples=True)
    tr = tracer.Tracer()
    with tr:
        results = batches.run_once(after_job=tr.end_job)
    assert batches.examples_pass

    read = []
    stats = tr.stats
    tr.stats = lambda name: read.append(name) or stats(name)
    run.layer_metrics(tr, results, 0.0, batches.law_fail_count)
    assert "convolution.conv_exp" in read
    uncalled = sorted({name for name in read if stats(name)["calls"] == 0})
    assert uncalled == []

    assert all(tr.tags[s] > 0 for s in tracer.STRATEGIES.values()), dict(tr.tags)
