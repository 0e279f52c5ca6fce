"""Run-to-run spread of the end-to-end metrics, and the baseline record.

    python3 bench/spread.py --workload scan --seeds 0-9 [--baseline]

Runs bench/run.py once per seed (trace 0, BENCHMARK.json's run_seconds)
and prints, per end-to-end metric, the median, the quartiles and the
inter-quartile distance as a share of the median next to a third of the
metric's bound.  --baseline stores the figures with the environment in
bench/baseline.json under the workload's name.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {name: [] for name in bounds}
    seeds = _seeds(args.seeds)
    envs = []
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: exit {proc.returncode}, failed {result['failed']}", file=sys.stderr)
            return 1
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        with open(os.path.join(HERE, "results", f"{args.workload}-seed{seed}-trace0.json")) as fh:
            envs.append(json.load(fh)["env"])
        print(f"seed {seed}: " + ", ".join(f"{k} {v[-1]:.4f}" for k, v in values.items()), flush=True)

    stats = {}
    steady = True
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median
        stats[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": vals}
        ok = name == "setup_s" or spread < bounds[name] / 3
        steady &= ok
        print(f"{name:<12} median {median:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
              f"spread {spread:.4f}  bound/3 {bounds[name] / 3:.4f}  {'ok' if ok else 'WIDE'}")

    if args.baseline:
        path = os.path.join(HERE, "baseline.json")
        baseline = {}
        if os.path.exists(path):
            with open(path) as fh:
                baseline = json.load(fh)
        env = dict(envs[0], seed=seeds, passes=[e["passes"] for e in envs])
        baseline[args.workload] = {"env": env, "metrics": stats}
        with open(path, "w") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
