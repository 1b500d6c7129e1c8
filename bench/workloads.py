"""Seeded inputs and independent oracles for the four benchmark workloads.

Nothing here imports exactmath: inputs are built from constructions whose
answer is known (triangular factors with a chosen diagonal, full-rank
factors of a chosen rank, formulas of a chosen classification, products of
chosen primes), and every check recomputes what it needs with plain
``fractions``/``math``.

A workload is a list of rounds.  Every round holds the same ops in the same
order with the same sizes; only the values differ, by seed and by round.
The timed loop runs whole rounds, so the op mix of a run never depends on
where the clock stopped.
"""

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

VARIANTS = 8  # distinct value sets per op; round r uses variant r % VARIANTS


@dataclass
class Op:
    kind: str     # what the op does and at which size; the same for every seed
    name: str     # selects the runner (worker.RUNNERS / CLI) and the oracle
    module: str   # the layer charged when the op fails
    args: dict    # literal inputs handed to the program
    expect: dict = field(default_factory=dict)  # what the oracle knows


# -- exact linear algebra on plain lists -------------------------------------

def matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def matvec(a, x):
    return [sum(c * v for c, v in zip(row, x)) for row in a]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def is_zero(rows):
    return all(x == 0 for row in rows for x in row)


def lit(rows):
    """Matrix literal "a b; c d" as the program reads it."""
    return "; ".join(" ".join(str(x) for x in row) for row in rows)


def permutation_sign(perm):
    sign, seen = 1, set()
    for start in range(len(perm)):
        if start in seen:
            continue
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i = perm[i]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def regular(rng, n):
    """Integer n x n matrix P·L·U with a known determinant."""
    lower = [[1 if i == j else (rng.randint(-2, 2) if j < i else 0)
              for j in range(n)] for i in range(n)]
    diag = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n)]
    upper = [[diag[i] if i == j else (rng.randint(-4, 4) if j > i else 0)
              for j in range(n)] for i in range(n)]
    lu = matmul(lower, upper)
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [lu[p] for p in perm]
    return rows, permutation_sign(perm) * math.prod(diag)


def small_rational(rng):
    return Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))


def deficient(rng, m, n, r):
    """m x n matrix of rank exactly r, as B·C with B holding I_r on the rows
    in ``basis_rows`` and C holding I_r on r of its columns.  Every other
    row of the product is a combination of the basis rows."""
    basis_rows = sorted(rng.sample(range(m), r))
    b = []
    for i in range(m):
        if i in basis_rows:
            b.append([int(k == basis_rows.index(i)) for k in range(r)])
        else:
            b.append([rng.randint(-2, 2) for _ in range(r)])
    basis_cols = sorted(rng.sample(range(n), r))
    c = [[Fraction(int(basis_cols.index(j) == k)) if j in basis_cols
          else small_rational(rng) for j in range(n)] for k in range(r)]
    dependent = [i for i in range(m) if i not in basis_rows]
    # multiply in integers over the common denominator 6: Fractions are slow
    product = matmul(b, [[int(6 * x) for x in row] for row in c])
    return [[Fraction(x, 6) for x in row] for row in product], dependent


# -- linalg_regular ----------------------------------------------------------

def linalg_regular(rng):
    ops = []

    def square(kind, name, module, n, **extra):
        rows, det = regular(rng, n)
        ops.append(Op(f"{kind}.n{n}", name, module, {"a": lit(rows), **extra},
                      {"a": rows, "det": det}))

    def system(kind, name, n):
        rows, _ = regular(rng, n)
        b = [rng.randint(-9, 9) for _ in range(n)]
        ops.append(Op(f"{kind}.n{n}", name, "systems",
                      {"a": lit(rows), "b": lit([[x] for x in b])},
                      {"a": rows, "b": b, "n": n}))

    for n in (8, 8, 16, 16, 24, 32):
        square("det", "det", "matrices", n)
    for n in (6, 8, 10):
        square("inverse", "inverse", "matrices", n)
    for n in (6, 10):
        rows, _ = regular(rng, n)
        rhs = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(n)]
        ops.append(Op(f"solveq.n{n}", "solveq", "matrices",
                      {"a": lit(rows), "b": lit(rhs)}, {"a": rows, "b": rhs}))
    for n in (12, 16, 24):
        system("gauss", "gauss", n)
    for n in (8, 12, 16):
        system("cramer", "cramer", n)
    for n in (6, 8):
        system("invmethod", "invmethod", n)
    for n in (12, 16, 24, 32):
        system("classify", "sys_classify", n)
    return ops


# -- linalg_degenerate -------------------------------------------------------

def dense_singular(rng, n):
    """n x n matrix of rank n - 1: a regular matrix with one row replaced by
    a rational combination of two others."""
    rows, _ = regular(rng, n)
    k, i, j = rng.sample(range(n), 3)
    a, b = small_rational(rng) or 1, small_rational(rng) or 1  # keeps row k dense
    rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    return rows


def linalg_degenerate(rng):
    ops = []

    def shaped(m, n, r):
        return f"{m}x{n}r{r}"

    for m, n, r in ((12, 16, 8), (20, 28, 12), (28, 20, 14), (32, 40, 16)):
        rows, _ = deficient(rng, m, n, r)
        ops.append(Op(f"rank.{shaped(m, n, r)}", "rank", "matrices",
                      {"a": lit(rows)}, {"a": rows, "r": r}))

    def system(kind, name, m, n, r, consistent):
        rows, dependent = deficient(rng, m, n, r)
        x0 = [rng.randint(-3, 3) for _ in range(n)]
        b = matvec(rows, x0)
        if not consistent:
            b[rng.choice(dependent)] += 1
        ops.append(Op(f"{kind}.{shaped(m, n, r)}", name, "systems",
                      {"a": lit(rows), "b": lit([[x] for x in b])},
                      {"a": rows, "b": b, "r": r, "n": n,
                       "consistent": consistent}))

    system("classify_infinite", "sys_classify", 16, 20, 10, True)
    system("classify_infinite", "sys_classify", 24, 30, 15, True)
    system("classify_inconsistent", "sys_classify", 20, 16, 10, False)
    system("classify_inconsistent", "sys_classify", 30, 24, 15, False)
    system("gauss_parametric", "gauss", 20, 28, 12, True)
    system("gauss_inconsistent", "gauss", 24, 20, 12, False)
    for m, n, r in ((16, 24, 10), (12, 12, 8)):
        rows, _ = deficient(rng, m, n, r)
        ops.append(Op(f"homogeneous.{shaped(m, n, r)}", "homogeneous", "systems",
                      {"a": lit(rows)}, {"a": rows, "r": r, "n": n}))
    rows = dense_singular(rng, 6)
    ops.append(Op("adjugate.6x6r5", "adjugate", "matrices",
                  {"a": lit(rows)}, {"a": rows, "r": 5, "n": 6}))
    rows, _ = deficient(rng, 7, 7, 5)
    ops.append(Op("adjugate.7x7r5", "adjugate", "matrices",
                  {"a": lit(rows)}, {"a": rows, "r": 5, "n": 7}))
    for n, method in ((3, "sarrus3"), (6, "laplace"), (7, "laplace")):
        rows = dense_singular(rng, n)
        ops.append(Op(f"det_{method}.{shaped(n, n, n - 1)}", "det", "matrices",
                      {"a": lit(rows), "method": method}, {"a": rows, "det": 0}))
    for n in (8, 12):
        ops.append(Op(f"inverse_singular.n{n}", "inverse", "matrices",
                      {"a": lit(dense_singular(rng, n))}, {"raises": "Singular"}))
    b = [rng.randint(-9, 9) for _ in range(12)]
    ops.append(Op("cramer_singular.n12", "cramer", "systems",
                  {"a": lit(dense_singular(rng, 12)), "b": lit([[x] for x in b])},
                  {"raises": "SingularSystem"}))
    return ops


# -- discrete_enum -----------------------------------------------------------

BINARY = {"and": "&", "or": "|", "xor": "^", "imp": "->", "iff": "<->"}


def random_formula(rng, atoms, extra):
    """Random tree in which every atom occurs at least once.  The counts of
    leaves, negations and each connective are fixed by len(atoms) and
    ``extra``, so only the shape and the names vary with the seed."""
    leaves = [("atom", a) for a in atoms]
    leaves += [("atom", rng.choice(atoms)) for _ in range(extra)]
    rng.shuffle(leaves)
    negated = set(rng.sample(range(len(leaves)), len(leaves) * 3 // 10))
    nodes = [("not", leaf) if i in negated else leaf for i, leaf in enumerate(leaves)]
    connectives = [("and", "or", "and", "or", "xor", "imp", "iff")[i % 7]
                   for i in range(len(nodes) - 1)]
    rng.shuffle(connectives)
    for op in connectives:
        i = rng.randrange(len(nodes) - 1)
        nodes[i:i + 2] = [(op, nodes[i], nodes[i + 1])]
    return nodes[0]


def rewrite(f):
    """An equivalent formula with a different shape (De Morgan and friends)."""
    tag = f[0]
    if tag == "atom":
        return f
    if tag == "not":
        return ("not", rewrite(f[1]))
    left, right = rewrite(f[1]), rewrite(f[2])
    if tag == "and":
        return ("not", ("or", ("not", left), ("not", right)))
    if tag == "or":
        return ("not", ("and", ("not", left), ("not", right)))
    if tag == "imp":
        return ("or", ("not", left), right)
    if tag == "xor":
        return ("not", ("iff", left, right))
    return ("iff", left, right)


def formula_text(f):
    if f[0] == "atom":
        return f[1]
    if f[0] == "not":
        return "!" + formula_text(f[1])
    return f"({formula_text(f[1])} {BINARY[f[0]]} {formula_text(f[2])})"


def evaluate(f, env):
    tag = f[0]
    if tag == "atom":
        return env[f[1]]
    if tag == "not":
        return not evaluate(f[1], env)
    a, b = evaluate(f[1], env), evaluate(f[2], env)
    return {"and": a and b, "or": a or b, "xor": a != b,
            "imp": (not a) or b, "iff": a == b}[tag]


def atom_order(f, seen=None):
    seen = [] if seen is None else seen
    if f[0] == "atom":
        if f[1] not in seen:
            seen.append(f[1])
    else:
        for child in f[1:]:
            atom_order(child, seen)
    return seen


def classified_formula(rng, k, verdict):
    atoms = [f"p{i}" for i in range(k)]
    if verdict == "contingent":  # x0 ^ H flips with x0 whatever H is
        return ("xor", ("atom", atoms[0]), random_formula(rng, atoms[1:], k))
    g = random_formula(rng, atoms, k)
    if verdict == "tautology":
        return ("iff", g, rewrite(g))
    return ("and", g, ("not", rewrite(g)))  # contradiction


def prime_between(rng, lo, hi):
    while True:
        n = rng.randrange(lo, hi) | 1
        if miller_rabin(n):
            return n


def miller_rabin(n):
    """Deterministic for n < 3.3e24 with the first 13 prime bases."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def set_lit(elements):
    return "{" + ", ".join(str(e) for e in elements) + "}"


def rel_lit(pairs):
    return "{" + ", ".join(f"({a}, {b})" for a, b in pairs) + "}"


def partition(rng, elements, blocks):
    """Shuffled elements cut into ``blocks`` blocks of near-equal size."""
    elements = list(elements)
    rng.shuffle(elements)
    return [elements[i::blocks] for i in range(blocks)]


def equivalence_pairs(blocks):
    return [(a, b) for block in blocks for a in block for b in block]


def table_lit(carrier, op):
    lines = [" ".join(map(str, carrier))]
    lines += [" ".join(str(op(a, b)) for b in carrier) for a in carrier]
    return "\n".join(lines)


def discrete_enum(rng):
    ops = []
    for k, verdict in ((10, "tautology"), (12, "contingent"), (14, "contingent")):
        f = classified_formula(rng, k, verdict)
        ops.append(Op(f"truth_table.k{k}", "truth_table", "logic",
                      {"formula": formula_text(f)}, {"tree": f}))
    for k, verdict in ((12, "tautology"), (13, "contradiction"), (14, "contingent")):
        f = classified_formula(rng, k, verdict)
        ops.append(Op(f"logic_classify_{verdict}.k{k}", "logic_classify", "logic",
                      {"formula": formula_text(f)}, {"verdict": verdict}))
    for k, same in ((10, True), (11, False)):
        atoms = [f"p{i}" for i in range(k)]
        f = random_formula(rng, atoms, k)
        g = rewrite(f) if same else ("xor", f, ("atom", rng.choice(atoms)))
        ops.append(Op(f"equivalent_{str(same).lower()}.k{k}", "equivalent", "logic",
                      {"formula": formula_text(f), "other": formula_text(g)},
                      {"equivalent": same}))
    for n, law in ((24, "add"), (45, "add"), (30, "mul"), (45, "sub")):
        carrier = list(range(n))
        rng.shuffle(carrier)
        op = {"add": lambda a, b: (a + b) % n, "mul": lambda a, b: (a * b) % n,
              "sub": lambda a, b: (a - b) % n}[law]
        ops.append(Op(f"classify_structure_{law}.n{n}", "classify_structure",
                      "algstruct", {"table": table_lit(carrier, op)}, {"law": law}))
    for k in (8, 10, 12, 14):
        elements = rng.sample(range(-99, 100), k)
        ops.append(Op(f"powerset.k{k}", "powerset", "sets",
                      {"a": set_lit(elements)}, {"elements": elements}))
    for m, n in ((20, 30), (40, 50)):
        a, b = rng.sample(range(-99, 100), m), rng.sample(range(-99, 100), n)
        ops.append(Op(f"cartesian.{m}x{n}", "cartesian", "sets",
                      {"a": set_lit(a), "b": set_lit(b)}, {"a": a, "b": b}))
    for n, blocks in ((40, 5), (60, 8)):
        carrier = rng.sample(range(1000), n)
        blocks = partition(rng, carrier, blocks)
        ops.append(Op(f"rel_properties_equivalence.n{n}", "rel_properties", "relations",
                      {"relation": rel_lit(equivalence_pairs(blocks)), "on": set_lit(carrier)},
                      {"props": {"reflexive": True, "antireflexive": False, "symmetric": True,
                                 "antisymmetric": False, "transitive": True}}))
    chain = rng.sample(range(1000), 40)
    ops.append(Op("rel_properties_order.n40", "rel_properties", "relations",
                  {"relation": rel_lit([(a, b) for i, a in enumerate(chain)
                                        for b in chain[i + 1:]]),
                   "on": set_lit(chain)},
                  {"props": {"reflexive": False, "antireflexive": True, "symmetric": False,
                             "antisymmetric": True, "transitive": True}}))
    carrier = rng.sample(range(1000), 80)
    blocks = partition(rng, carrier, 10)
    ops.append(Op("equivalence_analysis.n80", "equivalence_analysis", "relations",
                  {"relation": rel_lit(equivalence_pairs(blocks)), "on": set_lit(carrier)},
                  {"blocks": blocks}))
    carrier = rng.sample(range(1000), 50)
    pairs = equivalence_pairs(partition(rng, carrier, 6))
    ops.append(Op("rel_compose_equivalence.n50", "rel_compose", "relations",
                  {"relation": rel_lit(pairs), "other": rel_lit(pairs),
                   "on": set_lit(carrier)}, {"pairs": pairs}))
    carrier = rng.sample(range(1000), 80)
    f = {a: rng.choice(carrier) for a in carrier}
    g = {a: rng.choice(carrier) for a in carrier}
    ops.append(Op("rel_compose_function.n80", "rel_compose", "relations",
                  {"relation": rel_lit(f.items()), "other": rel_lit(g.items()),
                   "on": set_lit(carrier)},
                  {"pairs": [(a, g[f[a]]) for a in carrier]}))
    p, q = prime_between(rng, 9 * 10**5, 10**6), prime_between(rng, 9 * 10**5, 10**6)
    ops.append(Op("factorize_semiprime.1e12", "factorize", "arith",
                  {"n": str(p * q)}, {"factors": sorted([(p, 1), (q, 1)])}))
    small = [(2, rng.randint(3, 12)), (3, rng.randint(1, 6)), (7, rng.randint(1, 4))]
    big = prime_between(rng, 10**4, 10**5)
    ops.append(Op("factorize_smooth", "factorize", "arith",
                  {"n": str(math.prod(p ** e for p, e in small) * big)},
                  {"factors": small + [(big, 1)]}))
    ops.append(Op("is_prime_prime.1e12", "is_prime", "arith",
                  {"n": str(prime_between(rng, 9 * 10**11, 10**12))}, {"prime": True}))
    p, q = prime_between(rng, 9 * 10**5, 10**6), prime_between(rng, 9 * 10**5, 10**6)
    ops.append(Op("is_prime_semiprime.1e12", "is_prime", "arith",
                  {"n": str(p * q)}, {"prime": False}))
    return ops


# -- cli_oneshot -------------------------------------------------------------

# argv that end in a traceback at the time this benchmark was written; the
# intended behaviour is a usage/parse error (exit 2) without a traceback.
KNOWN_DEFECTS = ("mat_scale_missing_scalar", "geo_plane_one_point",
                 "nt_frombase_bad_digit")


def complex_lit(re, im):
    # spaced "a + bi": argparse would take an unspaced "-1/2+3i" for an option
    return f"{re} {'-' if im < 0 else '+'} {abs(im)}i"


def cli_op(kind, argv, code=0, stdin=None, **expect):
    return Op(kind, kind, "cli", {"argv": argv, "stdin": stdin},
              {"code": code, **expect})


def cli_oneshot(rng):
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    factors = sorted((p, rng.randint(1, 3)) for p in rng.sample(primes, 3))
    n, k = rng.randint(10, 40), rng.randint(2, 8)
    atoms = [f"p{i}" for i in range(6)]
    verdict = rng.choice(("tautology", "contradiction", "contingent"))
    elements = rng.sample(range(-20, 21), 4)
    rel_carrier = rng.sample(range(1, 30), 6)
    blocks = partition(rng, rel_carrier, 3)
    mod = rng.randint(5, 12)
    z1, z2 = (small_rational(rng), small_rational(rng)), (rng.randint(-5, 5), rng.randint(-5, 5))
    det_rows, det = regular(rng, 4)
    gauss_rows, _ = regular(rng, 3)
    gauss_b = [rng.randint(-9, 9) for _ in range(3)]
    u, v = [rng.randint(-9, 9) for _ in range(3)], [rng.randint(-9, 9) for _ in range(3)]
    total, weights = rng.randint(10, 500), [rng.randint(1, 9) for _ in range(3)]
    inv_rows, _ = regular(rng, 3)
    rank_rows, _ = deficient(rng, 4, 5, 2)
    singular, _ = deficient(rng, 3, 3, 2)
    table_formula = random_formula(rng, atoms[:4], 3)
    return [
        cli_op("nt_factor", ["nt", "factor", str(math.prod(p ** e for p, e in factors))],
               factors=factors),
        cli_op("comb_binom", ["comb", "binom", str(n), str(k)], value=math.comb(n, k)),
        cli_op("logic_classify", ["logic", "classify",
                                  formula_text(classified_formula(rng, 6, verdict))],
               verdict=verdict),
        cli_op("set_power", ["set", "power", set_lit(elements)], elements=elements),
        cli_op("rel_props", ["rel", "props", rel_lit(equivalence_pairs(blocks)),
                             "--on", set_lit(rel_carrier)]),
        cli_op("alg_classify", ["alg", "classify", "--addmod", str(mod)]),
        cli_op("cx_arith_json", ["--json", "cx", "arith", "mul",
                                 complex_lit(*z1), complex_lit(*z2)],
               re=z1[0] * z2[0] - z1[1] * z2[1], im=z1[0] * z2[1] + z1[1] * z2[0]),
        cli_op("mat_det", ["mat", "det", lit(det_rows)], det=det),
        cli_op("sys_gauss", ["sys", "gauss", f"{lit(gauss_rows)} | {lit([gauss_b])}"],
               a=gauss_rows, b=gauss_b),
        cli_op("geo_vec", ["geo", "vec", str(tuple(u)), str(tuple(v))],
               dot=sum(x * y for x, y in zip(u, v))),
        cli_op("mix_split", ["mix", "split", str(total), ":".join(map(str, weights))],
               total=total, weights=weights),
        cli_op("mat_inverse_json", ["--json", "mat", "inverse", lit(inv_rows)], a=inv_rows),
        cli_op("mat_rank_stdin", ["mat", "rank", "-"], stdin=lit(rank_rows), r=2),
        cli_op("logic_table_stdin", ["logic", "table", "-"],
               stdin=formula_text(table_formula), tree=table_formula),
        cli_op("mat_inverse_singular", ["mat", "inverse", lit(singular)], code=1),
        cli_op("mat_det_malformed", ["mat", "det", lit(det_rows).rsplit(" ", 1)[0] + " x"],
               code=2),
        cli_op("mat_scale_missing_scalar", ["mat", "arith", "scale", lit(det_rows)], code=2),
        cli_op("geo_plane_one_point", ["geo", "plane", "three", str(tuple(u))], code=2),
        cli_op("nt_frombase_bad_digit", ["nt", "frombase", "zz", "16"], code=2),
    ]


WORKLOADS = {
    "cli_oneshot": cli_oneshot,
    "linalg_regular": linalg_regular,
    "linalg_degenerate": linalg_degenerate,
    "discrete_enum": discrete_enum,
}


def rounds(workload, seed):
    """VARIANTS rounds of ops; the same seed always gives the same rounds."""
    rng = random.Random(f"{workload}:{seed}")
    return [WORKLOADS[workload](rng) for _ in range(VARIANTS)]


# -- oracles -----------------------------------------------------------------
# Each takes (op, result) for an op that returned and answers whether the
# result is right.  Ops that must raise are checked by class name instead.

def frac_rows(matrix):
    return [list(row) for row in matrix.entries]


def check_det(op, d):
    return d == op.expect["det"]


def check_inverse(op, m):
    a = op.expect["a"]
    return matmul(a, frac_rows(m)) == identity(len(a))


def check_solveq(op, m):
    return matmul(op.expect["a"], frac_rows(m)) == op.expect["b"]


def solves(op, x):
    return matvec(op.expect["a"], x) == list(op.expect["b"])


def check_unique(op, sol):
    return type(sol).__name__ == "Unique" and solves(op, sol.values)


def check_gauss(op, sol):
    e = op.expect
    if "r" not in e:
        return check_unique(op, sol)
    if not e["consistent"]:
        return type(sol).__name__ == "Inconsistent"
    return (type(sol).__name__ == "Parametric" and solves(op, sol.particular)
            and len(sol.directions) == e["n"] - e["r"]
            and all(not any(matvec(e["a"], d)) for d in sol.directions))


def check_sys_classify(op, report):
    e = op.expect
    if "r" not in e:
        return (report.verdict, report.rank_a, report.rank_ab) == ("unique", e["n"], e["n"])
    if e["consistent"]:
        return (report.verdict, report.rank_a, report.rank_ab) == ("infinite", e["r"], e["r"])
    return (report.verdict, report.rank_a, report.rank_ab) == ("inconsistent", e["r"], e["r"] + 1)


def check_rank(op, report):
    r = op.expect["r"]
    echelon = frac_rows(report.echelon)
    return (report.rank == r and len(report.pivot_cols) == r
            and is_zero(echelon[r:]) and all(any(row) for row in echelon[:r]))


def check_homogeneous(op, info):
    e = op.expect
    sol = info["solutions"]
    return (info["trivial_only"] is False and type(sol).__name__ == "Parametric"
            and len(sol.directions) == e["n"] - e["r"] and not any(sol.particular)
            and all(not any(matvec(e["a"], d)) for d in sol.directions))


def check_adjugate(op, m):
    a, adj = op.expect["a"], frac_rows(m)
    return (is_zero(matmul(a, adj)) and is_zero(matmul(adj, a))
            and is_zero(adj) == (op.expect["r"] < op.expect["n"] - 1))


def check_truth_table(op, table):
    tree = op.expect["tree"]
    atoms = atom_order(tree)
    if list(table.atoms) != atoms or len(table.rows) != 2 ** len(atoms):
        return False
    rng = random.Random(len(table.rows))
    for mask in [0, len(table.rows) - 1] + rng.sample(range(len(table.rows)), 62):
        values, result = table.rows[mask]
        expected = tuple(not (mask >> (len(atoms) - 1 - i)) & 1 for i in range(len(atoms)))
        if values != expected or result != evaluate(tree, dict(zip(atoms, values))):
            return False
    return True


def check_logic_classify(op, verdict):
    return verdict.value == op.expect["verdict"]


def check_equivalent(op, flag):
    return flag is op.expect["equivalent"]


def check_classify_structure(op, info):
    law = op.expect["law"]
    if law == "add":
        want = ("abelian_group", True, True, "0", True)
    elif law == "mul":
        want = ("monoid", True, True, "1", False)
    else:
        want = ("magma", False, False, None, False)
    return (info["class"].value, info["associative"], info["commutative"],
            info["neutral"], info["all_invertible"]) == want


def check_powerset(op, subsets):
    elements = set(op.expect["elements"])
    seen = {frozenset(s.elements) for s in subsets}
    return (len(subsets) == len(seen) == 2 ** len(elements)
            and all(s <= elements for s in seen))


def check_cartesian(op, pairs):
    want = {(x, y) for x in op.expect["a"] for y in op.expect["b"]}
    return len(pairs) == len(want) and set(pairs) == want


def check_rel_properties(op, props):
    return props == op.expect["props"]


def check_equivalence_analysis(op, info):
    want = sorted(sorted(block) for block in op.expect["blocks"])
    return (info["is_equivalence"] is True
            and sorted(sorted(c.elements) for c in info["classes"]) == want)


def check_rel_compose(op, rel):
    return set(rel.pairs) == set(op.expect["pairs"])


def check_factorize(op, factors):
    want = op.expect["factors"]
    return ([tuple(f) for f in factors] == sorted(want)
            and all(miller_rabin(p) for p, _ in factors))


def check_is_prime(op, flag):
    return flag is op.expect["prime"]


CHECKS = {
    "det": check_det, "inverse": check_inverse, "solveq": check_solveq,
    "gauss": check_gauss, "cramer": check_unique, "invmethod": check_unique,
    "sys_classify": check_sys_classify, "rank": check_rank,
    "homogeneous": check_homogeneous, "adjugate": check_adjugate,
    "truth_table": check_truth_table, "logic_classify": check_logic_classify,
    "equivalent": check_equivalent, "classify_structure": check_classify_structure,
    "powerset": check_powerset, "cartesian": check_cartesian,
    "rel_properties": check_rel_properties,
    "equivalence_analysis": check_equivalence_analysis,
    "rel_compose": check_rel_compose, "factorize": check_factorize,
    "is_prime": check_is_prime,
}


def check_inprocess(op, outcome):
    """outcome is the returned result or the raised exception."""
    raises = op.expect.get("raises")
    if isinstance(outcome, Exception):
        return raises is not None and type(outcome).__name__ == raises
    return raises is None and CHECKS[op.name](op, outcome)


# -- CLI oracles (stdout text or --json payloads) -----------------------------

def num(obj):
    return Fraction(obj["num"], obj["den"])


def cli_stdout_ok(op, out):
    e = op.expect
    lines = out.strip().splitlines()
    kind = op.name
    if kind == "nt_factor":
        parsed = [tuple(map(int, t.split("^"))) if "^" in t else (int(t), 1)
                  for t in out.strip().split(" * ")]
        return parsed == e["factors"]
    if kind == "comb_binom":
        return out.strip() == str(e["value"])
    if kind == "logic_classify":
        return out.strip() == e["verdict"]
    if kind == "set_power":
        want = set(e["elements"])
        subsets = {frozenset(int(x) for x in line.strip("{}").split(", ") if x)
                   for line in lines}
        return (len(lines) == len(subsets) == 2 ** len(want)
                and all(s <= want for s in subsets))
    if kind == "rel_props":
        return lines == ["reflexive: true", "antireflexive: false", "symmetric: true",
                         "antisymmetric: false", "transitive: true",
                         "equivalence: true", "partial_order: false"]
    if kind == "alg_classify":
        return lines[0] == "class: abelian_group" and "neutral: 0" in lines
    if kind == "cx_arith_json":
        result = json.loads(out)["result"]
        return num(result["re"]) == e["re"] and num(result["im"]) == e["im"]
    if kind == "mat_det":
        return Fraction(out.strip()) == e["det"]
    if kind == "sys_gauss":
        x = [Fraction(part.split(" = ")[1]) for part in out.strip().split(", ")]
        return matvec(e["a"], x) == e["b"]
    if kind == "geo_vec":
        return lines[0] == f"dot = {e['dot']}"
    if kind == "mix_split":
        parts = [Fraction(p) for p in out.strip().split(", ")]
        unit = Fraction(e["total"], sum(e["weights"]))
        return parts == [unit * w for w in e["weights"]]
    if kind == "mat_inverse_json":
        inv = [[num(x) for x in row] for row in json.loads(out)["matrix"]]
        return matmul(e["a"], inv) == identity(len(e["a"]))
    if kind == "mat_rank_stdin":
        return lines[0] == f"rank = {e['r']}"
    if kind == "logic_table_stdin":
        tree = e["tree"]
        atoms = atom_order(tree)
        rows = lines[2:]
        if lines[0] != " ".join(atoms) + " | *" or len(rows) != 2 ** len(atoms):
            return False
        for row in rows:
            cells, result = row.split(" | ")
            values = [c == "T" for c in cells.split()]
            if evaluate(tree, dict(zip(atoms, values))) != (result == "T"):
                return False
        return True
    return True  # error ops: the exit code is the whole answer


def check_cli(op, code, out, err):
    if code != op.expect["code"] or "Traceback" in err:
        return False
    try:
        return cli_stdout_ok(op, out)
    except (ValueError, TypeError, KeyError, IndexError, ZeroDivisionError):
        return False
