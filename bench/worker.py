"""One pass of a workload in a fresh interpreter.

Started by run.py, never imported.  It imports weylrack.cli from the
checkout's ``src``, prints ``ready`` once set up, runs the workload's
commands in-process through ``weylrack.cli.main`` (the timed section),
then checks every output unit and prints one JSON result line.

    python3 bench/worker.py --workload scan --seed 0 --workdir DIR
        [--setup-only] [--trace SPANS.jsonl] [--mutate digest|output]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _run_command(cli, argv: list, out: str, tracer, label: str) -> str | None:
    """Run one command; the error text, or None when it exited 0."""
    rec = tracer.open(f"cli.cmd.{label}") if tracer else None
    try:
        with contextlib.redirect_stdout(sys.stderr):
            rc = cli.main(argv + ["--out", out])
        return None if rc == 0 else f"exit code {rc}"
    except SystemExit as exc:
        return f"SystemExit {exc.code}"
    except Exception:  # a crashed command fails its units; keep running
        return traceback.format_exc(limit=3)
    finally:
        if rec is not None:
            tracer.close(rec)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace")
    parser.add_argument("--mutate", choices=["digest", "output"])
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    from weylrack import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"weylrack imported from {cli.__file__}, not {SRC}")
    sys.path.insert(0, HERE)
    import workloads

    cmds = [
        (label, argv, os.path.join(args.workdir, f"{label}.json"))
        for label, argv in workloads.commands(args.workload, args.seed)
    ]
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        tracing.install(tracer)

    # -- timed section: the workload's cli.main calls, back to back --------
    seconds, errors = {}, {}
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    for label, argv, out in cmds:
        start = time.perf_counter()
        errors[label] = _run_command(cli, argv, out, tracer, label)
        seconds[label] = time.perf_counter() - start
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    # -- end of timed section ---------------------------------------------

    result = {
        "wall_s": sum(seconds.values()),
        "cpu_s": (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
        "cmd_s": seconds,
        "errors": {k: v for k, v in errors.items() if v},
    }

    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)["seeds"].get(str(args.seed))
    if args.mutate == "digest":
        if reference is None:
            raise SystemExit(f"--mutate digest needs a seed with recorded digests, not {args.seed}")
        uid = min(u for u in reference if u.startswith(cmds[0][0]))
        reference = dict(reference, **{uid: "0" * 64})
    if args.mutate == "output" and not errors[cmds[0][0]]:
        with open(cmds[0][2], "r+b") as fh:
            byte = fh.read(1)
            fh.seek(0)
            fh.write(bytes([byte[0] ^ 0x01]))

    units = {}
    for label, _, out in cmds:
        raw = None
        if not errors[label]:
            with open(out, "rb") as fh:
                raw = fh.read()
        units.update(workloads.gate(label, raw, reference))
    result["units"] = units
    result["reference"] = reference is not None

    if tracer is not None:
        metrics = tracer.metrics()
        cmd_total = sum(seconds.values())
        metrics["trace.coverage"] = metrics.pop("trace.covered", 0.0) / cmd_total
        result["layers"] = metrics
        tracer.write_jsonl(args.trace)

    import numpy

    result["numpy"] = numpy.__version__
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
