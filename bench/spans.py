"""Spans recorded around the benchmark's calls into exactmath.

A span is [name, start, end, parent index, op id].  Spans stay in memory
during the run and are written to disk once, at the end.  A span's self
time is its duration minus the part of it that its child spans cover.
"""

import json
import statistics
from time import perf_counter

# Public functions timed by the traced run, as "<module>.<function>".
# render.str is the benchmark's str() of each result.
FUNCTIONS = (
    "matrices.Matrix.from_string", "matrices.det", "matrices.inverse",
    "matrices.adjugate", "matrices.rank", "matrices.solve_matrix_equation",
    "systems.solve_gauss", "systems.solve_cramer", "systems.solve_inverse_method",
    "systems.classify", "systems.homogeneous_analysis",
    "logic.parse_formula", "logic.truth_table", "logic.classify", "logic.equivalent",
    "algstruct.classify_structure", "sets.powerset", "sets.cartesian",
    "parsing.parse_set", "parsing.parse_relation",
    "relations.rel_properties", "relations.equivalence_analysis",
    "relations.rel_compose", "arith.factorize", "arith.is_prime",
    "render.str",
)


def untraced(name, fn, *args):
    return fn(*args)


class Tracer:
    """Callable like ``untraced`` that also records a span per call."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = 0

    def __call__(self, name, fn, *args):
        if not self.stack:  # a root span starts the next op
            self.op_id += 1
        span = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.op_id]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args)
        finally:
            span[2] = perf_counter()
            self.stack.pop()

    def write(self, path):
        with open(path, "w") as out:
            json.dump(self.spans, out)


def self_times(spans):
    """Self time in seconds of every span, indexed like ``spans``."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    result = []
    for span, kids in zip(spans, children):
        covered, reach = 0.0, span[1]
        for start, end in sorted(kids):
            start, end = max(start, reach), min(end, span[2])
            if end > start:
                covered += end - start
                reach = end
        result.append(span[2] - span[1] - covered)
    return result


def function_metrics(spans):
    """<F>.calls, <F>.busy_ms (summed self time) and <F>.ms_p50 for FUNCTIONS."""
    durations = {name: [] for name in FUNCTIONS}
    busy = dict.fromkeys(FUNCTIONS, 0.0)
    for span, own in zip(spans, self_times(spans)):
        if span[0] in durations:
            durations[span[0]].append(1000 * (span[2] - span[1]))
            busy[span[0]] += 1000 * own
    metrics = {}
    for name in FUNCTIONS:
        metrics[f"{name}.calls"] = len(durations[name])
        metrics[f"{name}.busy_ms"] = busy[name]
        metrics[f"{name}.ms_p50"] = statistics.median(durations[name]) if durations[name] else 0.0
    return metrics
