"""Machine-speed calibration for the time metrics.

The benchmark runs on shared virtual machines whose speed drifts by about
±20% between 20-second windows, for any code.  Every worker therefore
times a fixed piece of plain-Python work (``work``, which never touches
exactmath) between its ops, and scales its time metrics by
``speed_factor``: the result is the time the run would have taken on a
machine on which that work takes the reference time.  A change to
exactmath moves the scaled figures in the same proportion as raw times; a
slower or faster machine moves the op times and the calibration together.

In-process workloads time ``work()`` in their own process.  The CLI
workload times a fresh interpreter that runs ``work()`` once (this file as
a script), because what drifts there is process start as much as
bytecode speed, and a parent that has just reaped a child runs ``work()``
slower than usual.
"""

import sys
from fractions import Fraction
from time import perf_counter

# Mean times on the 2-vCPU Xeon VM of bench/README.md, so that the scaled
# figures read as milliseconds at that machine's usual speed.
REFERENCE_MS = 5.0  # one work() in a warm process
REFERENCE_CHILD_MS = 115.0  # `python calibrate.py`, from spawn to exit


def _eliminate(n=8):
    """Determinant of a fixed rational matrix by Fraction elimination."""
    rows = [[Fraction((3 * i + 7 * j) % 11 - 5, 1 + (i + 2 * j) % 4) + 9 * (i == j)
             for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for k in range(n):
        pivot = next(i for i in range(k, n) if rows[i][k] != 0)
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, n):
            factor = rows[i][k] / rows[k][k]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[k])]
    return det


def _enumerate(n=9):
    """Integer table, associativity over all triples, subsets as frozensets."""
    table = {(a, b): (a * b + a) % n for a in range(n) for b in range(n)}
    associative = sum(table[table[a, b], c] == table[a, table[b, c]]
                      for a in range(n) for b in range(n) for c in range(n))
    subsets = {frozenset(i for i in range(8) if mask >> i & 1) for mask in range(256)}
    return associative + sum(len(s) for s in subsets)


def _text():
    """Render and re-parse numbers, as literal parsers and str() do."""
    text = "; ".join(str(Fraction(i, 7)) for i in range(-100, 100))
    return sum(Fraction(part) for part in text.split("; "))


def work():
    return _eliminate(), _enumerate(), _text()


EXPECTED = work()


def sample():
    """Milliseconds of one ``work()``; raises if the result ever changes."""
    start = perf_counter()
    result = work()
    elapsed = perf_counter() - start
    if result != EXPECTED:
        raise RuntimeError(f"calibration result changed: {result} != {EXPECTED}")
    return 1000 * elapsed


def child_sample():
    """Milliseconds of a fresh interpreter that runs ``work()`` once."""
    import subprocess  # here, so that the child itself does not import it

    start = perf_counter()
    subprocess.run([sys.executable, __file__], check=True, timeout=60)
    return 1000 * (perf_counter() - start)


def speed_factor(samples_ms, reference_ms=REFERENCE_MS):
    """Multiplier that turns a time measured next to these calibration
    samples into the time on the reference machine."""
    return reference_ms * len(samples_ms) / sum(samples_ms)
