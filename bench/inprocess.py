"""Worker for the in-process workloads (linalg_regular, linalg_degenerate,
discrete_enum).

    python bench/inprocess.py WORKLOAD SEED SECONDS TRACE [--setup-only]

run.py starts it with PYTHONPATH pointing at the checkout's src/.  One op is
one user task: parse the literal, run the kernel, str() the result.  After
set-up (import, input generation, one warm-up op per op name) it runs the
timed loop, unless --setup-only; its last stdout line is a JSON report for
run.py.
"""

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from exactmath import algstruct, arith, logic, matrices, parsing, sets, relations, systems

import calibrate
import workloads
from spans import Tracer, function_metrics, untraced

ROOT = Path(__file__).resolve().parent.parent


def matrix(tr, text):
    return tr("matrices.Matrix.from_string", matrices.Matrix.from_string, text)


def linear_system(tr, args):
    return systems.LinearSystem(matrix(tr, args["a"]), matrix(tr, args["b"]).col(0))


def formula(tr, text):
    return tr("logic.parse_formula", logic.parse_formula, text)


def finset(tr, text):
    return tr("parsing.parse_set", parsing.parse_set, text)


def relation(tr, text, on):
    return tr("parsing.parse_relation", parsing.parse_relation, text, on, on)


def magma(text):
    lines = [line.split() for line in text.splitlines()]
    return algstruct.Magma(tuple(lines[0]), tuple(tuple(row) for row in lines[1:]))


def rel_compose(tr, a):
    on = finset(tr, a["on"])
    first, second = relation(tr, a["relation"], on), relation(tr, a["other"], on)
    return tr("relations.rel_compose", relations.rel_compose, first, second)


RUNNERS = {
    "det": lambda tr, a: tr("matrices.det", matrices.det, matrix(tr, a["a"]),
                            a.get("method", "elimination")),
    "inverse": lambda tr, a: tr("matrices.inverse", matrices.inverse, matrix(tr, a["a"])),
    "adjugate": lambda tr, a: tr("matrices.adjugate", matrices.adjugate, matrix(tr, a["a"])),
    "rank": lambda tr, a: tr("matrices.rank", matrices.rank, matrix(tr, a["a"])),
    "solveq": lambda tr, a: tr("matrices.solve_matrix_equation",
                               matrices.solve_matrix_equation, "left_AX_eq_B",
                               matrix(tr, a["a"]), matrix(tr, a["b"])),
    "gauss": lambda tr, a: tr("systems.solve_gauss", systems.solve_gauss,
                              linear_system(tr, a)),
    "cramer": lambda tr, a: tr("systems.solve_cramer", systems.solve_cramer,
                               linear_system(tr, a)),
    "invmethod": lambda tr, a: tr("systems.solve_inverse_method",
                                  systems.solve_inverse_method, linear_system(tr, a)),
    "sys_classify": lambda tr, a: tr("systems.classify", systems.classify,
                                     linear_system(tr, a)),
    "homogeneous": lambda tr, a: tr("systems.homogeneous_analysis",
                                    systems.homogeneous_analysis, matrix(tr, a["a"])),
    "truth_table": lambda tr, a: tr("logic.truth_table", logic.truth_table,
                                    formula(tr, a["formula"])),
    "logic_classify": lambda tr, a: tr("logic.classify", logic.classify,
                                       formula(tr, a["formula"])),
    "equivalent": lambda tr, a: tr("logic.equivalent", logic.equivalent,
                                   formula(tr, a["formula"]), formula(tr, a["other"])),
    "classify_structure": lambda tr, a: tr("algstruct.classify_structure",
                                           algstruct.classify_structure, magma(a["table"])),
    "powerset": lambda tr, a: tr("sets.powerset", sets.powerset, finset(tr, a["a"])),
    "cartesian": lambda tr, a: tr("sets.cartesian", sets.cartesian,
                                  finset(tr, a["a"]), finset(tr, a["b"])),
    "rel_properties": lambda tr, a: tr("relations.rel_properties", relations.rel_properties,
                                       relation(tr, a["relation"], finset(tr, a["on"]))),
    "equivalence_analysis": lambda tr, a: tr("relations.equivalence_analysis",
                                             relations.equivalence_analysis,
                                             relation(tr, a["relation"], finset(tr, a["on"]))),
    "rel_compose": rel_compose,
    "factorize": lambda tr, a: tr("arith.factorize", arith.factorize, int(a["n"])),
    "is_prime": lambda tr, a: tr("arith.is_prime", arith.is_prime, int(a["n"])),
}


def render(result):
    if isinstance(result, (list, tuple)):
        return "\n".join(str(x) for x in result)
    if isinstance(result, dict):
        return "\n".join(f"{key}: {value}" for key, value in result.items())
    return str(result)


def perform(op, tr):
    result = RUNNERS[op.name](tr, op.args)
    tr("render.str", render, result)
    return result


def execute(op, tr):
    """Run one op; return (seconds, result or raised exception)."""
    start = perf_counter()
    try:
        outcome = tr("op", perform, op, tr)
    except Exception as exc:  # the oracle decides whether this class was expected
        outcome = exc
    return perf_counter() - start, outcome


def run_rounds(rounds, seconds, tr, max_ops=None):
    """Closed loop over whole rounds until ``seconds`` of op time are spent
    (or ``max_ops`` ops are done).  Oracles and a calibration sample run
    after each op, outside its timed span."""
    samples, failures, calibration = [], [], []
    spent = 0.0
    r = 0
    while spent < seconds if max_ops is None else len(samples) < max_ops:
        for op in rounds[r % len(rounds)]:
            elapsed, outcome = execute(op, tr)
            samples.append(1000 * elapsed)
            spent += elapsed
            if not workloads.check_inprocess(op, outcome):
                failures.append({"kind": op.kind, "module": op.module,
                                 "got": repr(outcome)[:200]})
            calibration.append(calibrate.sample())
        r += 1
    return samples, failures, spent, calibration


def main(argv):
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    src = ROOT / "src"
    if src not in Path(matrices.__file__).resolve().parents:
        sys.exit(f"exactmath was imported from {matrices.__file__}, not from {src}")
    rounds = workloads.rounds(workload, seed)
    warmed = set()
    for op in rounds[0]:
        if op.name not in warmed:
            warmed.add(op.name)
            execute(op, untraced)
    if "--setup-only" in argv:
        return
    report = {}
    if trace:
        # Each round twice, untraced then traced; the time ratio is the
        # tracing cost.  Metrics come from the traced passes.
        tracer, plain_s, traced_s, samples, failures, r = Tracer(), 0.0, 0.0, [], [], 0
        while plain_s < seconds / 2:
            one = [rounds[r % len(rounds)]]
            plain_s += run_rounds(one, 0, untraced, max_ops=len(one[0]))[2]
            traced, failed, spent, _ = run_rounds(one, 0, tracer, max_ops=len(one[0]))
            samples += traced
            failures += failed
            traced_s += spent
            r += 1
        tracer.write(ROOT / ".bench_build" / f"spans-{workload}-{seed}.json")
        report["layers"] = function_metrics(tracer.spans)
        report["layers"]["trace.overhead_share"] = traced_s / plain_s - 1
    else:
        samples, failures, _, calibration = run_rounds(rounds, seconds, untraced)
        report["speed_factor"] = calibrate.speed_factor(calibration)
    report.update(samples=samples, failures=failures,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
