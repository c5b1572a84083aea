"""Job lists for the hopfdeform benchmark workloads.

A workload turns the benchmark seed into a batch: an ordered list of raw
run configurations (the JSON-shaped dicts that ``RunConfig.from_dict``
reads).  A job receives nothing but its config, and the same seed always
gives the same batch.
"""
from __future__ import annotations

import copy
import random

from hopfdeform.registry import example_config

FULL_BUDGET = 800
COLD_REPEATS = 2
COLD_BUDGET = 16
COLD_COMMANDS = ("validate", "deform", "antipode", "split", "full-report")

def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"hopfdeform-bench:{workload}:{seed}")


def _example(name: str, rng: random.Random) -> dict:
    """A built-in example at the full budget, with one extra tabulated key pair.

    The sample stream stays the example's own, so the cost of the job does
    not depend on the benchmark seed; the seed draws the extra pair.
    """
    raw = example_config(name)
    raw["command"] = "full-report"
    raw["sample_budget"] = FULL_BUDGET
    if raw["instance"]["type"] == "group_algebra_zd":
        key = lambda: [rng.randint(-2, 2) for _ in range(raw["instance"]["d"])]  # noqa: E731
    else:
        key = lambda: [rng.randint(0, 2) for _ in raw["instance"]["generators"]]  # noqa: E731
    raw["tabulate"].append([key(), key()])
    return raw


def oscillator_full(seed: int) -> list[dict]:
    rng = _rng("oscillator-full", seed)
    return [_example("oscillator", rng)]


def group_full(seed: int) -> list[dict]:
    rng = _rng("group-full", seed)
    return [_example(name, rng) for name in ("z-cubic", "zd-matrix", "group-hermitian")]


def _entry(rng: random.Random) -> list:
    return [round(rng.uniform(-1.0, 1.0), 3), 0.0]


def _zd_matrix_job(rng: random.Random, d: int, bound: int) -> dict:
    key = lambda: [rng.randint(-bound, bound) for _ in range(d)]  # noqa: E731
    return {
        "instance": {"type": "group_algebra_zd", "d": d},
        "cocycle": {
            "type": "zd_matrix",
            "matrix": [[_entry(rng) for _ in range(d)] for _ in range(d)],
        },
        "sampler": {"coord_bound": bound, "max_degree": 4, "max_support": 3},
        "tabulate": [[key(), key()]],
    }


def _primitive_bilinear_job(rng: random.Random, n: int) -> dict:
    key = lambda: [rng.randint(0, 2) for _ in range(n)]  # noqa: E731
    return {
        "instance": {"type": "symmetric_star", "generators": [f"g{i + 1}" for i in range(n)]},
        "cocycle": {
            "type": "primitive_bilinear",
            "matrix": [[_entry(rng) for _ in range(n)] for _ in range(n)],
        },
        "sampler": {"coord_bound": 1, "max_degree": 2, "max_support": 3},
        "tabulate": [[key(), key()]],
    }


def cold_sweep(seed: int) -> list[dict]:
    """Random generators at a small budget; law failures are kept, not filtered.

    Half the jobs are zd_matrix cocycles (every d in 1..3 and coord_bound in
    1..2), half primitive_bilinear pairings (2 or 3 generators), each with
    every command that applies, in equal numbers.  The seed draws the
    entries, tabulated keys, sample seeds and job order, so the mix of job
    kinds, and with it most of the batch's cost, is the same for every seed.
    """
    rng = _rng("cold-sweep", seed)
    kinds = [("zd", d, bound) for d in (1, 2, 3) for bound in (1, 2)]
    kinds += [("pb", n, None) for n in (2, 3) for _ in range(3)]
    jobs = []
    for _ in range(COLD_REPEATS):
        for kind, size, bound in kinds:
            for command in COLD_COMMANDS:
                if kind == "zd":
                    raw = _zd_matrix_job(rng, size, bound)
                else:
                    raw = _primitive_bilinear_job(rng, size)
                raw["command"] = command
                raw["sample_budget"] = COLD_BUDGET
                raw["seed"] = rng.randrange(1, 2**31)
                jobs.append(raw)
    rng.shuffle(jobs)
    return jobs


# workloads whose jobs are built-in examples, which must all pass
EXAMPLE_WORKLOADS = ("oscillator-full", "group-full")

WORKLOADS = {
    "oscillator-full": oscillator_full,
    "group-full": group_full,
    "cold-sweep": cold_sweep,
}


def batch(workload: str, seed: int) -> list[dict]:
    return copy.deepcopy(WORKLOADS[workload](seed))
