"""Differential check of the command line: run the same argvs through two
revisions of exactmath and print every argv whose exit code, stdout or
stderr differ.  Standard library and git only:

    python tools/diffcli.py [BASE] [--seed S] [--count N]

BASE (default HEAD) is extracted with `git archive` into a temporary
directory; the change is the working tree's src/.  For every entry of
cli.COMMANDS, N argvs are drawn (seeded) from literal pools for each
operand grammar (tools/argvs.py); matrices and systems are generated
(rational, rank-deficient, rectangular and some of 11-14 rows; consistent
and inconsistent right-hand sides), and about 30% of the argvs carry
--json.  Each side runs all argvs in one child process through
cli.dispatch, with stdin holding STDIN and an alarm of ALARM_S seconds per
argv (an alarm cannot stop one long big-int operation, so the pools keep
operands moderate).  Exit status 1 if any argv differs.
"""

import argparse
import collections
import contextlib
import io
import json
import os
import random
import shlex
import signal
import subprocess
import sys
import tarfile
import tempfile
from fractions import Fraction
from pathlib import Path

from argvs import (ARITY, COMPLEX, FORMULAS, LINES, MEMBERS, PERCENTS, PLANES, RELATIONS, SETS,
                   TABLES, VEC3, WEIGHTS)

ROOT = Path(__file__).resolve().parent.parent
STDIN = "1 2; 3 4"  # what a '-' operand reads
ALARM_S = 10
JSON_SHARE = 0.3

# -- literal pools, one per operand grammar ---------------------------------

RATIONALS = ["0", "1", "-1", "2", "3", "-4", "1/2", "-2/3", "5/4", "7/3", "-1/6", "10", "0.5"]
INTS = ["-3", "-1", "0", "1", "2", "3", "5", "7", "12"]
BIG_INTS = ["360", "1001", "65537", "600851475143", "1000000000039", "9" * 30]
COEFFS = RATIONALS + ["1001/1000", "-999/1000", "9" * 60, "1/" + "7" * 40, "3/2", "2/3"]
EXPONENTS = ["0", "1", "2", "-2", "1/2", "2/3", "-1"]
MALFORMED_MATRICES = ["1 2; 3", "", "x", "-", "1 2 |", "1/0"]

# per (group, op, operand) or (group, operand) or operand: a list of values
POOLS = {
    ("nt", "a"): INTS + BIG_INTS, ("nt", "b"): INTS + BIG_INTS,
    ("nt", "n"): INTS + BIG_INTS, ("nt", "base"): ["2", "8", "10", "16", "36", "1", "37"],
    ("nt", "digits"): ["101", "zz", "7f", "0", "-1", "12", ""],
    ("comb", "fact", "n"): INTS + ["20", "1500", "1501"],
    ("comb", "binom", "n"): INTS + ["50", "10000", "20000"],
    ("comb", "binom", "k"): INTS + ["25", "5000", "10000"],
    ("comb", "n"): INTS + ["100", "2000", "9000", "14000"],
    ("comb", "sum", "n"): INTS + ["100", "1" + "0" * 30],
    ("comb", "c1"): COEFFS, ("comb", "c2"): COEFFS,
    ("comb", "e1"): EXPONENTS, ("comb", "e2"): EXPONENTS,
    "formula": FORMULAS, "other": FORMULAS,
    ("set", "a"): SETS, ("set", "b"): SETS,
    "relation": RELATIONS, ("rel", "other"): RELATIONS, "--on": SETS,
    "table": TABLES, "--addmod": ["0", "1", "2", "5", "6", "65"],
    "--mulmod": ["-1", "1", "2", "5", "6", "12"],
    ("cx", "z"): COMPLEX, "z1": COMPLEX, "z2": COMPLEX,
    ("cx", "pow", "n"): ["-3", "0", "1", "2", "5", "20"],
    ("cx", "roots", "n"): ["0", "1", "2", "3", "5", "8"],
    ("geo", "a"): VEC3, ("geo", "b"): VEC3,
    ("mix", "parts"): MEMBERS, ("mix", "total"): RATIONALS,
    "weights": WEIGHTS,
    "--g": PERCENTS, "--i": PERCENTS, "--p": PERCENTS, "--start": PERCENTS,
    "--final": PERCENTS, "deltas": PERCENTS, "s1": PERCENTS, "s2": PERCENTS,
    "target": PERCENTS, "values": PERCENTS,
}
# geo line/relate/dist kinds: the pools of their two parts
KIND_PARTS = {"points": (VEC3, VEC3), "planes": (PLANES, PLANES), "lines": (LINES, LINES),
              "lineplane": (LINES, PLANES), "pointplane": (VEC3, PLANES),
              "pointline": (VEC3, LINES)}


# -- generated operands ------------------------------------------------------

def entry(rng):
    return Fraction(rng.choice(RATIONALS)) if rng.random() < 0.65 else Fraction(0)


def matrix_rows(rng, m=None, n=None):
    """An m x n matrix, often square; about a third are rank-deficient, with
    a row that is a combination of two others.  One in twenty has 11-14
    rows, so that row labels pass X and elimination takes many steps."""
    if not m:
        small = rng.choice([1, 2, 3, 3, 4, 4, 5, 5, 6, 7])
        m = rng.randint(11, 14) if rng.random() < 0.05 else small
    n = n or (m if rng.random() < 0.6 else rng.randint(1, 5))
    rows = [[entry(rng) for _ in range(n)] for _ in range(m)]
    if m >= 2 and rng.random() < 0.35:
        i, j, k = (rng.randrange(m) for _ in range(3))
        s, t = entry(rng), entry(rng)
        rows[i] = [s * x + t * y for x, y in zip(rows[j], rows[k])]
    return rows


def text(rows):
    return "; ".join(" ".join(map(str, row)) for row in rows)


def matrix(rng, m=None, n=None):
    if rng.random() < 0.04:
        return rng.choice(MALFORMED_MATRICES)
    return text(matrix_rows(rng, m, n))


def system(rng, augmented):
    """A|b, with b = A x for a random x half the time (a consistent system)."""
    rows = matrix_rows(rng)
    if rng.random() < 0.5:
        x = [entry(rng) for _ in rows[0]]
        b = [sum(map(Fraction.__mul__, row, x)) for row in rows]
    else:
        b = [entry(rng) for _ in range(len(rows) + (rng.random() < 0.05))]
    if augmented:
        return text(row + [rhs] for row, rhs in zip(rows, b))
    return f"{text(rows)} | {' '.join(map(str, b))}"


def shape(literal):
    """(rows, columns) of a generated matrix literal."""
    rows = (STDIN if literal == "-" else literal).split(";")
    return len(rows), len(rows[0].split())


def operands(rng, command, name, options, drawn):
    """The values of one operand of command, given those drawn before it."""
    group, op = command.group, command.op
    if options.get("choices"):
        return [rng.choice(list(options["choices"]))]
    if group == "mat" and name == "b":
        if op == "solveq":
            n = shape(drawn["a"][0])[1]
            m_b, n_b = (n, None) if drawn["side"] == ["left"] else (None, n)
            return [matrix(rng, m_b, n_b)]
        matop = drawn["matop"][0]
        if matop == "transpose" and rng.random() < 0.9:
            return []
        if matop == "scale":
            return [rng.choice(RATIONALS + ["-"])]
        m, n = shape(drawn["a"][0])
        return [matrix(rng, n if matop == "mul" else m, None if matop == "mul" else n)]
    if group == "mat" or (group, op, name) == ("sys", "homogeneous", "system"):
        return [matrix(rng, rng.randint(1, 4) if op == "solveq" else None)]
    if group == "sys":
        return [system(rng, "--augmented" in drawn)]
    if (group, op) == ("set", "venn3"):
        if "census" not in drawn:  # from seven region sizes, so most censuses are consistent
            f, e, nj, fe, enj, fnj, fenj = (rng.randint(0, 5) for _ in range(7))
            drawn["census"] = {"total": f + e + nj + fe + enj + fnj + fenj,
                               "f": f + fe + fnj + fenj, "e": e + fe + enj + fenj,
                               "fe": fe + fenj, "enj": enj + fenj, "fnj": fnj + fenj,
                               "fenj": fenj}
        return [str(drawn["census"][name] + rng.choice([0] * 9 + [1, -2]))]
    if group == "geo" and name in ("parts", "points"):
        kind = drawn["kind"][0]
        if kind in ("three", "normal"):
            count = (3 if kind == "three" else 2) + (rng.random() < 0.05)
            return [rng.choice(VEC3) for _ in range(count)]
        return [rng.choice(pool) for pool in KIND_PARTS[kind]]
    if (group, op, name) == ("comb", "term", "k"):
        n = drawn["n"][0]
        n = int(n) if n.lstrip("-").isdigit() else 0
        return [str(rng.choice([rng.randint(0, max(n, 0)), -1, n + 1, n // 2]))]
    pool = (POOLS.get((group, op, name)) or POOLS.get((group, name)) or POOLS.get(name)
            or (INTS if options.get("type") is int else RATIONALS))
    low, high = ARITY.get(options.get("nargs"), (options.get("nargs"),) * 2)
    return [rng.choice(pool) for _ in range(rng.randint(low, high))]


def draw_argv(rng, command):
    argv = ["--json"] if rng.random() < JSON_SHARE else []
    argv += [command.group, command.op]
    flags = {names[0] for names, options in command.args
             if options.get("action") == "store_true" and rng.random() < 0.5}
    drawn = dict.fromkeys(flags)
    for names, options in command.args:
        name = names[0]
        if options.get("action") == "store_true":
            argv += [name] if name in flags else []
            continue
        if name.startswith("--") and rng.random() < 0.5:
            continue
        values = drawn[name] = operands(rng, command, name, options, drawn)
        argv += [name, *values] if name.startswith("--") else values
    return argv


def draw(commands, seed, count):
    rng = random.Random(seed)
    return [draw_argv(rng, command) for command in commands for _ in range(count)]


# -- running a side ----------------------------------------------------------

class _Timeout(BaseException):
    pass


def _alarm(signum, frame):
    raise _Timeout


def child(src):
    """Read a JSON list of argvs on stdin; write [code, stdout, stderr] for
    each as JSON on stdout.  A traceback's code is its exception's type and
    message, a run past the alarm's is "timeout"."""
    sys.path.insert(0, src)
    from exactmath.cli import dispatch

    argvs = json.load(sys.stdin)
    signal.signal(signal.SIGALRM, _alarm)
    results = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        sys.stdin = io.StringIO(STDIN)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                signal.alarm(ALARM_S)
                try:
                    code = dispatch(argv)
                finally:
                    signal.alarm(0)
        except SystemExit as exc:
            code = exc.code
        except _Timeout:
            code = "timeout"
        except Exception as exc:  # a traceback is a result to compare
            code = f"traceback {type(exc).__name__}: {exc}"[:500]
        results.append([code, out.getvalue(), err.getvalue()])
    json.dump(results, sys.__stdout__)


def extract(rev, into):
    """src/ of git revision rev, unpacked under the directory into."""
    data = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        # the "data" filter exists from Python 3.12, 3.11.4 and 3.10.12
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return str(Path(into) / "src")


def start(src, argvs):
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    proc = subprocess.Popen([sys.executable, __file__, "--child", src], env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    proc.stdin.write(json.dumps(argvs))
    proc.stdin.close()
    return proc


def finish(proc):
    results = json.load(proc.stdout)
    if proc.wait():
        raise RuntimeError(f"the child process exited {proc.returncode}")
    return results


def show(value, limit=300):
    value = repr(value)
    return value if len(value) <= limit else f"{value[:limit]}... ({len(value)} characters)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="?", default="HEAD", help="git revision (default HEAD)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=200, help="argvs per command")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.child)
        return 0
    sys.path.insert(0, str(ROOT / "src"))
    from exactmath.cli import COMMANDS

    argvs = draw(COMMANDS, args.seed, args.count)
    with tempfile.TemporaryDirectory() as tmp:
        base = extract(args.base, Path(tmp) / "base")
        procs = [start(base, argvs), start(str(ROOT / "src"), argvs)]
        before, after = map(finish, procs)
    differ = 0
    for argv, old, new in zip(argvs, before, after):
        if old != new:
            differ += 1
            print(f"@ {shlex.join(argv)[:300]}")
            for sign, (code, out, err) in zip("-+", (old, new)):
                print(f"{sign} exit {code}  stdout {show(out)}  stderr {show(err)}")
    groups = collections.Counter(argv[argv[0] == "--json"] for argv in argvs)
    codes = collections.Counter(str(code) for code, _, _ in after)
    print(f"{len(argvs)} argvs ({', '.join(f'{g} {n}' for g, n in groups.items())}); "
          f"exit codes of the change: {dict(codes)}; {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
