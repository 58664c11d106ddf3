"""Benchmark of frbl: one workload, one seed, one measurement.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--smoke`` runs one short round on small inputs (used by the benchmark's
own test).

How load is applied: one caller in a closed loop, one round of every
verdict of the workload in a fixed interleaved order, an untimed warm-up
of every distinct verdict once, then whole timed rounds until about
``--seconds`` have passed and enough verdicts are held for the tail
percentile.  Each output is checked right after its verdict, outside the
verdict's timed interval, against computations made apart from the
program.
"""

import os

# One BLAS thread, set before numpy loads: with OpenBLAS's default threading
# on two cores the same small pinv took ~1.5 ms in some processes and ~120 ms
# in others.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import Failure  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 3       # fresh interpreters per run for setup_s
SETUP_TIMEOUT_S = 60.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one short round on small inputs")
    return p.parse_args(argv)


def cold_start(argv):
    """Wall time from spawning a fresh interpreter until its first command returns.

    Returns (seconds, import seconds).  Both clocks are CLOCK_MONOTONIC,
    which is shared between processes.  The command's answer is checked in
    the timed phase, where a wrong one counts as a failed verdict.
    """
    code = (
        "import time, sys, io, json, contextlib\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "t0 = time.monotonic()\n"
        "import frbl.cli\n"
        "t1 = time.monotonic()\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    frbl.cli.main({argv!r})\n"
        "print(json.dumps({'import_s': t1 - t0, 'done': time.monotonic()}))\n"
    )
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S, env=os.environ.copy(), cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report["done"] - start, report["import_s"]


def execute(verdict, cli):
    """One verdict; returns (rc, stdout, stderr) for a command, the result for a ladder."""
    if verdict.argv is None:
        return verdict.call()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(verdict.argv)
    return rc, out.getvalue(), err.getvalue()


def judge(verdict, result):
    """None when the verdict passed, else the Failure."""
    try:
        if isinstance(result, Exception):
            raise Failure("raised", f"{type(result).__name__}: {result}")
        if verdict.argv is None:
            verdict.check(result)
        else:
            verdict.check(*result)
    except Failure as exc:
        return exc
    except (AttributeError, KeyError, TypeError, ValueError) as exc:  # fields missing or mistyped
        return Failure("parse", f"malformed output: {type(exc).__name__}: {exc}")
    return None


def run_round(verdicts, cli, tracer, times, failures):
    """Time every verdict of one round, checking each output right after it."""
    for verdict in verdicts:
        start = time.perf_counter()
        try:
            if tracer is None:
                result = execute(verdict, cli)
            else:
                result = tracer.run(f"verdict.{verdict.kind}", execute, verdict, cli)
        except Exception as exc:  # a raising verdict counts as failed, the run goes on
            result = exc
        times.append(time.perf_counter() - start)
        failure = judge(verdict, result)
        if failure is not None:
            failures.append((verdict.label, failure))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "frbl" / "__init__.py").is_file():
        print(f"error: no frbl sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.BUILDERS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.BUILDERS)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work) -> int:
    rng = np.random.default_rng(args.seed)
    workload = workloads.BUILDERS[args.workload](rng, workloads.Inputs(work), args.smoke)

    # Set-up: fresh interpreters replay the first command of the round.
    probes = [cold_start(workload.verdicts[0].argv)
              for _ in range(1 if args.smoke else SETUP_PROBES)]

    import frbl.cli as cli

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    times: list[float] = []
    failures: list = []
    if not args.smoke:
        run_round(workload.warmup_verdicts(), cli, tracer, [], [])  # untimed
    if tracer is not None:
        tracer.reset()

    # Whole rounds until --seconds have passed, but no round that would end
    # more than half a round past them, so the run's length stays near
    # --seconds however long a round is; never fewer verdicts than the tail
    # percentile needs.
    need = 0 if args.smoke else workload.min_verdicts
    rounds = 0
    start = last = time.perf_counter()
    while True:
        run_round(workload.verdicts, cli, tracer, times, failures)
        rounds += 1
        now = time.perf_counter()
        round_s, last = now - last, now
        if args.smoke or (now - start + round_s / 2 >= args.seconds and len(times) >= need):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    failed = len(failures)
    correct = not any(f.kind in ("check", "exit") for _, f in failures)
    for label, failure in failures[:10]:
        print(f"failed verdict {label}: {failure}", file=sys.stderr)

    per_round = len(workload.verdicts)
    first_warm = statistics.median(times[::per_round])
    cold = statistics.median(p[0] for p in probes)
    end_to_end = {
        "setup_s": (cold - first_warm, "s"),
        "verdicts_per_s": (len(times) / sum(times), "1/s"),
        "verdict_s.p50": (float(np.median(times)), "s"),
        "verdict_s.tail": (float(np.quantile(times, workload.tail_q)), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"{args.workload} seed={args.seed}: {rounds} rounds, {len(times)} verdicts, "
          f"tail = p{workload.tail_q * 100:g} of {len(times)} samples", file=sys.stderr)

    if tracer is None:
        metrics = end_to_end
    else:
        import_s = statistics.median(p[1] for p in probes)
        layer = tracing.per_layer(tracer, rounds, import_s)
        metrics = {name: (layer[name], unit) for name, unit in tracing.PER_LAYER}
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl", {
            "workload": args.workload, "seed": args.seed, "rounds": rounds,
            "verdicts": len(times), "tail_q": workload.tail_q,
            "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        })

    print(json.dumps({
        "correct": correct,
        "attempted": len(times),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
