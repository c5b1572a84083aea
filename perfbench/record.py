"""Record a point of the benchmark trajectory.

    python3 perfbench/record.py --label NAME

Runs ``run.py`` untraced once per seed 1-10 on each workload of
``BENCHMARK.json``, then traced twice on seed 1, and appends to
``perfbench/trajectory.json`` the median, quartiles and spread (quartile
distance over median) of every end-to-end metric, the traced per-layer values, whether every count
repeated exactly between the two traced runs, and the git SHA, Python
version, CPU count and CPU model of the machine.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.json"
SEEDS = list(range(1, 11))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{' '.join(cmd)} failed its gate:\n{proc.stdout}")
    digest = next(line.split()[-1] for line in lines if line.strip().startswith("report digest"))
    return result, digest


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    seconds = spec["run_seconds"]

    entry = {
        "label": args.label,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "run_seconds": seconds,
        "seeds": SEEDS,
        "workloads": {},
    }
    for workload in [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {}
        for seed in SEEDS:
            result, _ = run_once(workload, seed, seconds, 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        traced = [run_once(workload, SEEDS[0], seconds, 1) for _ in range(2)]
        (first, digest), (second, _) = traced
        counts = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bytes", "ratio")]
        entry["workloads"][workload] = {
            "end_to_end": {name: summarize(v) for name, v in values.items()},
            "per_layer": {name: m["value"] for name, m in first["metrics"].items()},
            "counts_repeat": all(
                first["metrics"][n]["value"] == second["metrics"][n]["value"] for n in counts
            ),
            "report_digest_first_seed": digest,
        }
        for name, s in entry["workloads"][workload]["end_to_end"].items():
            print(f"  {workload} {name}: median {s['median']:.6g} spread {s['spread']:.4f}")
    trajectory = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    trajectory.append(entry)
    TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
