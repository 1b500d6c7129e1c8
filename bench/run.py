"""exactmath benchmark: one command for every workload and metric.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all          # every workload, a table

Run it from anywhere inside a checkout; it measures the checkout's own
src/exactmath and writes only under <checkout>/.bench_build.  With
--trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 it holds the per-layer metrics instead.  See
bench/README.md for the workloads, the metrics and the baseline.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate
import oneshot
import workloads
from spans import FUNCTIONS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build"
PYCACHE = WORK / "pycache"
SETUPS = 5  # set-up repeats; setup_s is their median
SETUP_CALIBRATION = 10  # calibration samples before, between and after set-ups
DEADLINE = 170.0  # seconds; a run must end well within 180

MODULES = ("cli", "matrices", "systems", "logic", "sets", "relations", "algstruct", "arith")
IMPORTED = ("exactmath", "exactmath.algstruct", "exactmath.arith", "exactmath.cli",
            "exactmath.combin", "exactmath.complexn", "exactmath.errors",
            "exactmath.geometry", "exactmath.logic", "exactmath.matrices",
            "exactmath.parsing", "exactmath.ratio", "exactmath.rationals",
            "exactmath.relations", "exactmath.sets", "exactmath.systems")

END_TO_END = {"op_ms_p50": "ms", "op_ms_p90": "ms", "ops_per_s": "1/s",
              "pass_share": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units():
    units = {}
    for name in FUNCTIONS:
        units.update({f"{name}.calls": "count", f"{name}.busy_ms": "ms",
                      f"{name}.ms_p50": "ms"})
    units.update({f"{module}.fails": "count" for module in MODULES})
    units.update({"interp.start_ms": "ms", "import.total_ms": "ms", "import.stdlib_ms": "ms"})
    units.update({f"import.self_ms.{module}": "ms" for module in IMPORTED})
    units.update({f"cli.{layer}_ms": "ms"
                  for layer in ("build_parser", "parse_args", "dispatch", "handler_render")})
    units.update({"cli.exit.0": "count", "cli.exit.1": "count", "cli.exit.2": "count",
                  "cli.traceback": "count", "trace.overhead_share": "ratio",
                  "cli.op_ms_p50": "ms", "cli.layers_sum_ms": "ms",
                  "cli.unexplained_ms": "ms"})
    return units


PER_LAYER = per_layer_units()


def child_env():
    """Environment of every process that runs exactmath: the checkout's
    src/ only, a fixed hash seed, and bytecode cached where the benchmark
    owns it (the installed-user case), never inside src/."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(PYCACHE))
    return env


def python(*args, timeout=60):
    return subprocess.run([sys.executable, *args], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)


def setup_once(workload, seed):
    """Seconds from an empty bytecode cache to the first op being ready:
    compile and import, input generation, and a warm-up op."""
    shutil.rmtree(PYCACHE, ignore_errors=True)
    start = perf_counter()
    if workload == "cli_oneshot":
        probe = python("-c", "import exactmath.cli; print(exactmath.cli.__file__)")
        if probe.returncode != 0 or ROOT / "src" not in Path(probe.stdout.strip()).parents:
            sys.exit(f"exactmath.cli did not import from {ROOT / 'src'}: {probe.stderr}")
        oneshot.run_cli(workloads.rounds(workload, seed)[0][0])
    else:
        proc = python(str(HERE / "inprocess.py"), workload, str(seed), "0", "0", "--setup-only")
        if proc.returncode != 0:
            sys.exit(f"{workload} worker failed during set-up:\n{proc.stderr[-2000:]}")
    return perf_counter() - start


def setup_time(workload, seed):
    """Median of SETUPS set-ups, each scaled to the reference machine speed
    by the calibration samples taken just before and just after it."""
    scaled = []
    before = [calibrate.sample() for _ in range(SETUP_CALIBRATION)]
    for _ in range(SETUPS):
        seconds = setup_once(workload, seed)
        after = [calibrate.sample() for _ in range(SETUP_CALIBRATION)]
        scaled.append(seconds * calibrate.speed_factor(before + after))
        before = after
    return statistics.median(scaled)


def importtime(code, repeats=5):
    """Per-module self import time in ms, one dict per run of `code`."""
    runs = []
    for _ in range(repeats):
        proc = python("-X", "importtime", "-c", code)
        selfs = {}
        for line in proc.stderr.splitlines():
            if line.startswith("import time:") and "|" in line and "self" not in line:
                own, _, name = line[len("import time:"):].split("|")
                selfs[name.strip()] = selfs.get(name.strip(), 0) + int(own) / 1000
        runs.append(selfs)
    return runs


def process_layers():
    """interp.start_ms and the import.* split, from fresh interpreters."""
    starts = []
    for _ in range(10):
        start = perf_counter()
        python("-c", "pass")
        starts.append(1000 * (perf_counter() - start))
    startup = set().union(*importtime("pass", repeats=2))
    totals, stdlib, own = [], [], {module: [] for module in IMPORTED}
    for selfs in importtime("import exactmath.cli"):
        added = {name: ms for name, ms in selfs.items() if name not in startup}
        totals.append(sum(added.values()))
        stdlib.append(sum(ms for name, ms in added.items() if name not in IMPORTED))
        for module in IMPORTED:
            own[module].append(added.get(module, 0.0))
    metrics = {"interp.start_ms": statistics.median(starts),
               "import.total_ms": statistics.median(totals),
               "import.stdlib_ms": statistics.median(stdlib)}
    metrics.update({f"import.self_ms.{m}": statistics.median(v) for m, v in own.items()})
    return metrics


def run_workload(workload, seed, seconds, trace):
    """Set up SETUPS times, run the timed worker once, return the result."""
    began = perf_counter()
    WORK.mkdir(exist_ok=True)
    setup_s = setup_time(workload, seed)
    process = process_layers() if trace else {}
    if workload == "cli_oneshot":
        cmd = [str(HERE / "oneshot.py"), str(seed), str(seconds), str(int(trace))]
    else:
        cmd = [str(HERE / "inprocess.py"), workload, str(seed), str(seconds), str(int(trace))]
    proc = python(*cmd, timeout=max(1.0, DEADLINE - (perf_counter() - began)))
    if proc.returncode != 0:
        sys.exit(f"{workload} worker failed:\n{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    by_kind = {}
    for failure in report["failures"]:
        by_kind.setdefault(failure["kind"], []).append(failure)
    for kind, failures in by_kind.items():
        tag = "known defect" if kind in workloads.KNOWN_DEFECTS else "FAIL"
        print(f"{tag}: {workload} {kind} x{len(failures)}: {failures[0]}", file=sys.stderr)
    return summarise(report, setup_s, process, trace)


def summarise(report, setup_s, process, trace):
    """The result object from a worker report: end-to-end metrics, or with
    ``trace`` the per-layer metrics (every name, 0 where a layer is unused).
    End-to-end times are scaled to the reference machine speed by the
    worker's calibration samples; per-layer times are raw.  Failures of the
    known defects keep ``correct`` true; any other failure makes it false."""
    samples, failures = report["samples"], report["failures"]
    attempted, failed = len(samples), len(failures)
    result = {
        "correct": all(f["kind"] in workloads.KNOWN_DEFECTS for f in failures),
        "attempted": attempted,
        "failed": failed,
    }
    if not trace:
        factor = report["speed_factor"]
        result["raw"] = {"op_ms_p50": statistics.median(samples),
                         "op_ms_p90": statistics.quantiles(samples, n=10)[-1],
                         "ops_per_s": attempted / (sum(samples) / 1000),
                         "speed_factor": factor}
        values = {
            "op_ms_p50": result["raw"]["op_ms_p50"] * factor,
            "op_ms_p90": result["raw"]["op_ms_p90"] * factor,
            "ops_per_s": result["raw"]["ops_per_s"] / factor,
            "pass_share": 1 - failed / attempted,
            "setup_s": setup_s,
            "peak_rss_mb": report["peak_rss_mb"],
        }
        result["metrics"] = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        return result
    layers = dict.fromkeys(PER_LAYER, 0)
    layers.update(process)
    layers.update(report.get("layers", {}))
    for failure in failures:
        layers[f"{failure['module']}.fails"] += 1
    if "codes" in report:  # cli_oneshot
        layers.update({f"cli.exit.{c}": report["codes"][c] for c in ("0", "1", "2")})
        layers["cli.traceback"] = report["codes"]["traceback"]
        layers["cli.op_ms_p50"] = statistics.median(samples)
        layers["cli.layers_sum_ms"] = sum(layers[k] for k in (
            "interp.start_ms", "import.total_ms", "cli.build_parser_ms",
            "cli.parse_args_ms", "cli.handler_render_ms"))
        layers["cli.unexplained_ms"] = layers["cli.op_ms_p50"] - layers["cli.layers_sum_ms"]
    result["metrics"] = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in layers.items()}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "exactmath" / "__init__.py").is_file():
        sys.exit(f"no exactmath sources under {ROOT / 'src'}; run inside a checkout")
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        results[name] = result
        share = result["failed"] / result["attempted"]
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}"
              f" (fail_share {share:.4f}), correct {result['correct']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
        for metric, value in result.pop("raw", {}).items():
            print(f"  raw {metric} = {value:.6g}")
    print(json.dumps(results[names[0]] if len(names) == 1 else results))


if __name__ == "__main__":
    main()
