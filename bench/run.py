"""weylrack benchmark.

    python3 bench/run.py --workload scan|lemmas|graded|all --seed N
        --seconds S --trace 0|1 [--mutate digest|output] [--write-reference]

Load shape: a closed loop with one client.  Each pass of a workload is a
fresh interpreter (bench/worker.py) that calls weylrack.cli.main for the
workload's commands one after another, with numpy/BLAS threads pinned to
one, so process-global caches start cold as they do for a CLI user.
Passes repeat until --seconds have gone by (at least one); metrics are
medians over passes.  Set-up time is sampled in extra interpreters that
only set up.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same plain
passes, then one traced pass, and prints the per-layer metrics.  The last
stdout line is the result JSON; a full record with the environment goes
to bench/results/.  Any unit that fails the gate (see workloads.py) makes
the exit code 1.  --mutate corrupts a reference digest or one output byte
as a negative control for the gate; it must fail.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0
END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "ops": "count"}
PER_LAYER = {name: unit for name, unit, _, _ in tracing.PER_LAYER}


class ChildFailed(RuntimeError):
    pass


def _spawn(workload: str, seed: int, workdir: str, deadline: float, extra: list) -> tuple:
    """Start one worker; (seconds from spawn to ready, its result line)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", workdir] + extra
    env = dict(os.environ, **THREADS)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest, _ = proc.communicate()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise ChildFailed(f"worker {' '.join(cmd[2:])} exited {proc.returncode}")
    lines = rest.strip().splitlines()
    if "--setup-only" in extra:
        return setup, None
    if not lines:
        raise ChildFailed(f"worker {' '.join(cmd[2:])} printed no result")
    return setup, json.loads(lines[-1])


def _quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def measure(workload: str, seed: int, seconds: float, trace: bool, mutate: str | None) -> dict:
    """All passes of one run of a workload; the raw samples."""
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = os.path.join(HERE, ".work", f"{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    extra = ["--mutate", mutate] if mutate else []
    try:
        setups = [_spawn(workload, seed, workdir, deadline, ["--setup-only"])[0]
                  for _ in range(SETUP_SAMPLES)]
        passes = []
        start = time.monotonic()
        while not passes or time.monotonic() - start < seconds:
            setup, result = _spawn(workload, seed, workdir, deadline, extra)
            setups.append(setup)
            passes.append(result)
        traced = None
        if trace:
            spans = os.path.join(HERE, "results", f"spans-{workload}-seed{seed}.jsonl")
            os.makedirs(os.path.dirname(spans), exist_ok=True)
            traced = _spawn(workload, seed, workdir, deadline, extra + ["--trace", spans])[1]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"setups": setups, "passes": passes, "traced": traced}


def summarize(raw: dict, trace: bool) -> dict:
    passes = raw["passes"]
    every = passes + ([raw["traced"]] if raw["traced"] else [])
    failures = [(uid, u["error"]) for p in every for uid, u in p["units"].items() if u["error"]]
    samples = {
        "wall_s": [p["wall_s"] for p in passes],
        "setup_s": raw["setups"],
        "cpu_s": [p["cpu_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "ops": [len(p["units"]) for p in passes],
    }
    if not trace:
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    else:
        layers = raw["traced"]["layers"]
        values = {name: layers.get(name, 0) for name in PER_LAYER}
        for label in tracing.COMMANDS:
            times = [p["cmd_s"][label] for p in passes if label in p["cmd_s"]]
            values[f"cli.cmd.{label}_s"] = statistics.median(times) if times else 0.0
        values["trace.overhead_s"] = raw["traced"]["wall_s"] - statistics.median(samples["wall_s"])
        values["trace.coverage"] = layers["trace.coverage"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    return {
        "correct": not failures,
        "attempted": sum(len(p["units"]) for p in every),
        "failed": len(failures),
        "metrics": metrics,
        "_samples": samples,
        "_failures": failures,
    }


def environment(seed: int, runs: int, numpy_version: str) -> dict:
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "weylrack")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "seed": seed,
        "passes": runs,
        "threads": THREADS,
    }


def write_record(workload: str, seed: int, trace: bool, raw: dict, summary: dict) -> str:
    env = environment(seed, len(raw["passes"]), raw["passes"][0]["numpy"])
    record = {
        "workload": workload,
        "trace": int(trace),
        "env": env,
        "metrics": summary["metrics"],
        "quartiles": {k: _quartiles(v) for k, v in summary["_samples"].items()},
        "samples": summary["_samples"],
        "cmd_s": [p["cmd_s"] for p in raw["passes"]],
        "failures": summary["_failures"][:50],
        "errors": [p["errors"] for p in raw["passes"] if p["errors"]],
    }
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    return path


def write_reference(seed: int, passes: list) -> None:
    """Record this seed's unit digests; refuses units that break an invariant."""
    units = passes[0]["units"]
    bad = [uid for uid, u in units.items() if u["digest"] is None
           or (u["error"] and u["error"] != "digest differs from reference")]
    if bad:
        raise SystemExit(f"not recording a reference: units {bad[:5]} break invariants")
    path = os.path.join(HERE, "reference.json")
    with open(path) as fh:
        ref = json.load(fh)
    ref["seeds"].setdefault(str(seed), {}).update({uid: u["digest"] for uid, u in units.items()})
    ref["seeds"][str(seed)] = dict(sorted(ref["seeds"][str(seed)].items()))
    with open(path, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _check_declared() -> None:
    """BENCHMARK.json and this benchmark must name the same metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = ({m["name"]: m["unit"] for m in spec["end_to_end"]},
                {m["name"]: m["unit"] for m in spec["per_layer"]},
                [w["name"] for w in spec["workloads"]])
    if declared != (END_TO_END, PER_LAYER, list(WORKLOADS)):
        raise SystemExit("BENCHMARK.json does not match the metrics and workloads in bench/")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--mutate", choices=["digest", "output"])
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "weylrack", "cli.py")):
        print(f"no weylrack sources under {ROOT}/src", file=sys.stderr)
        return 2
    _check_declared()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for workload in names:
        try:
            raw = measure(workload, args.seed, args.seconds, bool(args.trace), args.mutate)
        except ChildFailed as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 1
        summary = summarize(raw, bool(args.trace))
        path = write_record(workload, args.seed, bool(args.trace), raw, summary)
        if args.write_reference:
            write_reference(args.seed, raw["passes"])
        out = sys.stdout if args.workload == "all" else sys.stderr
        print(f"== {workload} seed {args.seed}: {len(raw['passes'])} passes; "
              f"failed_ops {summary['failed']} of {summary['attempted']} units; record {os.path.relpath(path, ROOT)}",
              file=out)
        if not raw["passes"][0]["reference"]:
            print(f"   no recorded digests for seed {args.seed}: invariants only", file=out)
        for uid, error in summary["_failures"][:10]:
            print(f"   FAIL {uid}: {error}", file=out)
        for p in raw["passes"]:
            for label, error in p["errors"].items():
                print(f"   ERROR {label}: {error}", file=sys.stderr)
        for name, m in summary["metrics"].items():
            print(f"   {name:<48} {m['value']:>16.6f} {m['unit']}", file=out)
        results[workload] = {k: v for k, v in summary.items() if not k.startswith("_")}

    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
