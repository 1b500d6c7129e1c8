"""Worker for the cli_oneshot workload.

    python bench/oneshot.py SEED SECONDS TRACE

Each op is one `python -m exactmath.cli ...` process, run one at a time
(a closed loop with one client).  run.py starts this worker with the
environment every child inherits: PYTHONPATH at the checkout's src/, a
fixed PYTHONHASHSEED, and bytecode written to a cache the benchmark owns.
With TRACE=1 the worker also times the CLI's own layers in-process over
the same argv list.  The last stdout line is a JSON report for run.py.
"""

import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate
import workloads
from spans import Tracer, untraced

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile
CALIBRATE_EVERY = 3  # a calibration child costs about as much as an op


def run_cli(op):
    """One CLI process; returns (seconds, exit code, stdout, stderr)."""
    start = perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "exactmath.cli", *op.args["argv"]],
                              input=op.args["stdin"] or "", capture_output=True,
                              text=True, timeout=60, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        return perf_counter() - start, None, "", f"timeout: {exc}"
    return perf_counter() - start, proc.returncode, proc.stdout, proc.stderr


def run_rounds(rounds, seconds, min_ops=MIN_OPS):
    """Closed loop over whole rounds; a calibration child follows every
    CALIBRATE_EVERY-th op."""
    samples, failures, calibration = [], [], []
    codes = {"0": 0, "1": 0, "2": 0, "traceback": 0}
    r = 0
    while sum(samples) / 1000 < seconds or len(samples) < min_ops:
        for op in rounds[r % len(rounds)]:
            elapsed, code, out, err = run_cli(op)
            samples.append(1000 * elapsed)
            if str(code) in codes:
                codes[str(code)] += 1
            if "Traceback" in err:
                codes["traceback"] += 1
            if not workloads.check_cli(op, code, out, err):
                failures.append({"kind": op.kind, "module": op.module, "code": code,
                                 "got": (out + err)[-200:]})
            if len(samples) % CALIBRATE_EVERY == 0:
                calibration.append(calibrate.child_sample())
        r += 1
    return samples, failures, codes, calibration


def cli_layers(rounds):
    """Median ms per argv of build_parser, parse_args and dispatch, timed
    in-process; also the cost of recording spans around those calls."""
    from exactmath import cli

    def one(op, tr):
        stdin = io.StringIO(op.args["stdin"] or "")
        argv = op.args["argv"]
        times = []
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            start = perf_counter()
            parser = tr("cli.build_parser", cli.build_parser)
            times.append(perf_counter())
            try:
                tr("cli.parse_args", parser.parse_args, argv)
            except SystemExit:
                pass
            times.append(perf_counter())
            sys.stdin, saved = stdin, sys.stdin
            try:
                tr("cli.dispatch", cli.dispatch, argv)
            except (Exception, SystemExit):  # the known defects raise here
                pass
            finally:
                sys.stdin = saved
            times.append(perf_counter())
        return times[0] - start, times[1] - times[0], times[2] - times[1]

    build, parse, dispatch = [], [], []
    cost = {"plain": 0.0, "traced": 0.0}
    for _ in range(3):
        for mode, tr in (("plain", untraced), ("traced", Tracer())):
            for op in rounds[0]:
                b, p, d = one(op, tr)
                cost[mode] += b + p + d
                if mode == "plain":
                    build.append(1000 * b)
                    parse.append(1000 * p)
                    dispatch.append(1000 * d)
    handler = [d - b - p for b, p, d in zip(build, parse, dispatch)]
    return {
        "cli.build_parser_ms": statistics.median(build),
        "cli.parse_args_ms": statistics.median(parse),
        "cli.dispatch_ms": statistics.median(dispatch),
        "cli.handler_render_ms": statistics.median(handler),
        "trace.overhead_share": cost["traced"] / cost["plain"] - 1,
    }


def main(argv):
    seed, seconds, trace = int(argv[0]), float(argv[1]), argv[2] == "1"
    rounds = workloads.rounds("cli_oneshot", seed)
    report = {}
    if trace:
        report["layers"] = cli_layers(rounds)
    samples, failures, codes, calibration = run_rounds(rounds, seconds)
    report.update(samples=samples, failures=failures, codes=codes,
                  speed_factor=calibrate.speed_factor(calibration, calibrate.REFERENCE_CHILD_MS),
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
