"""Command-line front end for the kernel.

Subcommand tree: nt, comb, logic, set, rel, alg, cx, mat, sys, geo, mix.
Results go to stdout (plain text mirroring the usual written notation, or a
stable JSON schema with exact rationals as {"num", "den"} pairs under
--json); diagnostics go to stderr.  Exit codes: 0 success, 1 domain error,
2 parse/usage error.  A result that cannot be printed, past the float range
or Python's int/str digit limit, is a domain error; dispatch decides that in
one place, for every command.  A literal '-' operand, integers excepted, is
replaced by stdin, and a negative number, fraction or percent is an operand,
not an option.

Every subcommand is one entry of COMMANDS; the argument parser and the
dispatch are both built from that table.  A run builds the ops of its own
group only and imports the kernel modules when a handler first uses them,
so it loads just what its command needs.  The grammar of each literal lives
with its type (Matrix.from_string, LinearSystem.from_string,
Magma.from_string, the parsing and ratio parsers), and sums are printed by
rationals.signed_sum; the handlers here only pick the parser for each
operand and lay out the result.
"""

import argparse
import collections.abc
import dataclasses
import importlib
import json
import math
import operator
import re
import sys
from enum import Enum
from fractions import Fraction

from .errors import KernelError, OutOfDomain, ParseError, TooLarge
from .rationals import parse_rational, signed_sum


class _Module:
    """A kernel module, imported when one of its attributes is first read."""

    def __init__(self, name):
        self._name = f"{__package__}.{name}"

    def __getattr__(self, attribute):
        return getattr(importlib.import_module(self._name), attribute)


(algstruct, arith, combin, complexn, geometry, logic, matrices, parsing, ratio, relations,
 sets, systems) = map(_Module, ("algstruct", "arith", "combin", "complexn", "geometry", "logic",
                                "matrices", "parsing", "ratio", "relations", "sets", "systems"))

# -- rendering -------------------------------------------------------------


# JSON forms of the kernel values that are not encoded as their fields, and
# the solution kinds, which are their fields plus a "kind" tag; both keyed by
# type name, so that no kernel module is imported to recognise a value
_JSON_FORMS = {
    "Matrix": lambda m: m.entries,
    "Vec3": lambda v: v.components(),
    "FinSet": lambda s: s.elements,
    "Relation": lambda r: {"source": r.source, "target": r.target,
                           "pairs": sorted(([a, b] for a, b in r.pairs), key=repr)},
}
_SOLUTION_KINDS = {"Unique", "Inconsistent", "Parametric"}


def to_jsonable(obj):
    """JSON form of a kernel value.  json.dumps calls this for every object
    it cannot encode itself, then encodes the result in turn.  A dataclass
    not named here is encoded as its fields."""
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator}
    if isinstance(obj, Enum):
        return obj.value
    name = type(obj).__name__
    if name in _JSON_FORMS:
        return _JSON_FORMS[name](obj)
    fields = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if name in _SOLUTION_KINDS:
        fields["kind"] = name.lower()
    return fields


def dump_json(payload) -> str:
    return json.dumps(payload, default=to_jsonable, sort_keys=True, separators=(",", ":"))


def fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def fmt_list(values) -> str:
    return ", ".join(fmt(v) for v in values)


def fmt_polar(p) -> str:
    degrees = math.degrees(p.theta)
    return f"r = {p.r:.10g}, theta = {p.theta:.10g} rad ({degrees:.10g} deg)"


def fmt_solution(solution) -> str:
    if isinstance(solution, systems.Inconsistent):
        return "inconsistent"
    if isinstance(solution, systems.Unique):
        return ", ".join(f"x{i + 1} = {v}"
                         for i, v in enumerate(solution.values))
    lines = []
    for i, base in enumerate(solution.particular):  # x_i = sum of d_i * t_j, then base
        terms = [(d[i], f"t{j + 1}") for j, d in enumerate(solution.directions)]
        lines.append(f"x{i + 1} = {signed_sum([*terms, (base, '')], '*')}")
    lines.append("free columns: " + ", ".join(str(c + 1) for c in solution.free_cols))
    return "\n".join(lines)


def fmt_distance(result) -> str:
    return f"d = {fmt(result['d'])} (d^2 = {fmt(result['d_sq'])})"


def fmt_position(kind: str, result) -> str:
    """A mutual-position report: the kind, then whichever measures it has."""
    lines = [f"kind: {kind}"]
    for key, label in (("angle", "angle = "), ("intersection", "line: "),
                       ("point", "point: "), ("sin_angle", "sin angle = ")):
        if result.get(key) is not None:
            lines.append(label + fmt(result[key]))
    if "d_sq" in result:
        lines.append(fmt_distance(result))
    return "\n".join(lines)


# -- input helpers ---------------------------------------------------------


def read_stdin(value):
    """The value, with stdin in place of a literal '-' (or of each '-' in
    a list)."""
    if isinstance(value, list):
        return [read_stdin(v) for v in value]
    return sys.stdin.read() if value == "-" else value


def parse_magma(args):
    if args.addmod is not None:
        return algstruct.mod_add_table(args.addmod)
    if args.mulmod is not None:
        return algstruct.mod_mul_table(args.mulmod)
    if not args.table:
        raise ParseError("give a table (or --addmod/--mulmod N)")
    return algstruct.Magma.from_string(args.table)


def _opt_rat(value):
    return None if value is None else ratio.parse_percent(value)


def _system(args):
    return systems.LinearSystem.from_string(args.system, args.augmented)


# geo line/relate/dist: kind -> (parser of part 1, parser of part 2, kernel),
# named in parsing and geometry
_GEO = {
    "line": {
        "points": ("parse_vec3", "parse_vec3", "line_two_points"),
        "planes": ("parse_plane", "parse_plane", "line_plane_intersection_line"),
    },
    "relate": {
        "planes": ("parse_plane", "parse_plane", "planes_relation"),
        "lines": ("parse_line", "parse_line", "lines_relation"),
        "lineplane": ("parse_line", "parse_plane", "line_plane_relation"),
    },
    "dist": {
        "pointplane": ("parse_vec3", "parse_plane", "point_plane_distance"),
        "pointline": ("parse_vec3", "parse_line", "point_line_distance"),
        "lines": ("parse_line", "parse_line", "lines_relation"),
    },
}


def _geo(args):
    first, second, kernel = _GEO[args.op][args.kind]
    return getattr(geometry, kernel)(getattr(parsing, first)(args.parts[0]),
                                     getattr(parsing, second)(args.parts[1]))


# -- command handlers ------------------------------------------------------
# Each takes the parsed arguments and returns (text, payload).


def single(key, value, render=fmt):
    """A result that is one value: its rendering, and {key: value}."""
    return render(value), {key: value}


def itself(value):
    """A kernel object whose fields are the payload."""
    return str(value), value


def _gcd(args):
    g, trace = arith.gcd(args.a, args.b)
    return fmt(g), {"gcd": g, "trace": trace}


def _factor(args):
    factors = arith.factorize(args.n)
    text = " * ".join(f"{p}^{m}" if m > 1 else str(p) for p, m in factors)
    return text, {"factors": factors}


def _tobase(args):
    digits = arith.to_base(args.n, args.base)
    return str(digits), {"base": digits.base, "digits": digits.coeffs}


def _frombase(args):
    try:
        coeffs = tuple(int(ch, 16) for ch in args.digits)
    except ValueError:
        raise ParseError(f"not a digit string (0-9, a-f): {args.digits!r}") from None
    return single("value", arith.from_base(arith.Digits(args.base, coeffs)))


def _divmod(args):
    q, r = arith.divmod_euclid(args.a, args.b)
    return f"q = {q}, r = {r}", {"q": q, "r": r}


def _binomial(args):
    """The c1, e1, c2, e2 of (c1*x^e1 + c2*x^e2)^n."""
    return [parse_rational(t) for t in (args.c1, args.e1, args.c2, args.e2)]


def _set_op(args):
    a, b = parsing.parse_set(args.a), parsing.parse_set(args.b)
    if args.setop == "complement":
        return single("result", sets.complement(a, b))
    return single("result", sets.set_ops(a, b, args.setop))


def _venn3(args):
    regions, nj = sets.three_set_counts(
        args.total, args.f, args.e, args.fe, args.enj, args.fnj, args.fenj)
    lines = [f"third set: {nj}"]
    lines += [f"{name}: {count}" for name, count in sorted(regions.items())]
    return "\n".join(lines), {"third_set": nj, "regions": regions}


def _endorelation(args):
    on = parsing.parse_set(args.on) if args.on else None
    return parsing.parse_relation(args.relation, source=on, target=on)


def _rel_props(args):
    props = relations.rel_properties(_endorelation(args))
    props["equivalence"] = (props["reflexive"] and props["symmetric"]
                            and props["transitive"])
    props["partial_order"] = (props["reflexive"] and props["antisymmetric"]
                              and props["transitive"])
    return "\n".join(f"{name}: {fmt(flag)}" for name, flag in props.items()), props


def _rel_classes(args):
    analysis = relations.equivalence_analysis(_endorelation(args))
    if not analysis["is_equivalence"]:
        return "not an equivalence relation", {"is_equivalence": False}
    classes = analysis["classes"]
    return "\n".join(str(c) for c in classes), {"is_equivalence": True, "classes": classes}


def _pairs(rel):
    return str(rel), {"pairs": to_jsonable(rel)["pairs"]}


def _rel_compose(args):
    first, second = parsing.parse_relation(args.relation), parsing.parse_relation(args.other)
    # align the intermediate sets so composition is defined
    middle = sets.set_ops(first.range(), second.domain(), "union")
    return _pairs(relations.rel_compose(relations.Relation(first.source, middle, first.pairs),
                                        relations.Relation(middle, second.target, second.pairs)))


def _alg_classify(args):
    info = algstruct.classify_structure(parse_magma(args))
    lines = [f"class: {info['class'].value}"]
    lines += [f"{key}: {fmt(info[key])}"
              for key in ("closed", "associative", "commutative", "all_invertible")]
    lines.append(f"neutral: {info['neutral'] if info['neutral'] is not None else 'none'}")
    return "\n".join(lines), info


def _cx_pow(args):
    p = complexn.pow_int(complexn.to_polar(parsing.parse_complex(args.z)), args.n)
    x, y = complexn.from_polar(p)
    return f"{fmt_polar(p)}\nxy = ({x:.10g}, {y:.10g})", {"polar": p, "xy": [x, y]}


# cx arith and mat arith: choice -> operator
_ARITH = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
          "div": operator.truediv}


def _matrix_op(args):
    a = matrices.Matrix.from_string(args.a)
    if args.matop == "transpose":
        return single("matrix", matrices.transpose(a))
    if args.b is None:
        raise ParseError(f"{args.matop} needs a second operand")
    if args.matop == "scale":
        return single("matrix", matrices.scale(parse_rational(args.b), a))
    kernel = matrices.matmul if args.matop == "mul" else _ARITH[args.matop]
    return single("matrix", kernel(a, matrices.Matrix.from_string(args.b)))


def _rank(args):
    report = matrices.rank(matrices.Matrix.from_string(args.a))
    ops = "; ".join(report.op_log) or "none"
    return f"rank = {report.rank}\n{report.echelon}\nops: {ops}", report


def _homogeneous(args):
    info = systems.homogeneous_analysis(matrices.Matrix.from_string(args.system))
    return f"trivial only: {fmt(info['trivial_only'])}\n{fmt_solution(info['solutions'])}", info


def _sys_classify(args):
    report = systems.classify(_system(args))
    return (f"rank A = {report.rank_a}, rank A|b = {report.rank_ab}, "
            f"unknowns = {report.n_unknowns}: {report.verdict}"), report


def _vec(args):
    a, b = parsing.parse_vec3(args.a), parsing.parse_vec3(args.b)
    payload = {"dot": geometry.dot(a, b), "cross": geometry.cross(a, b),
               "norm_a": geometry.norm(a), "norm_b": geometry.norm(b)}
    lines = [f"dot = {fmt(payload['dot'])}", f"cross = {payload['cross']}",
             f"|a| = {fmt(payload['norm_a'])}", f"|b| = {fmt(payload['norm_b'])}"]
    if not a.is_zero() and not b.is_zero():
        payload["angle"] = geometry.angle(a, b)
        payload["proj_a_onto_b"] = geometry.proj_scalar(a, b)
        lines += [f"angle = {fmt(payload['angle'])}",
                  f"proj = {fmt(payload['proj_a_onto_b'])}"]
    return "\n".join(lines), payload


def _plane(args):
    wanted = 3 if args.kind == "three" else 2
    if len(args.points) != wanted:
        raise ParseError(f"plane {args.kind} takes {wanted} vectors, got {len(args.points)}")
    build = geometry.plane_three_points if args.kind == "three" else geometry.plane_point_normal
    plane = build(*(parsing.parse_vec3(p) for p in args.points))
    payload = {"plane": plane}
    lines = [str(plane)]
    if args.forms:
        payload["hesse"] = geometry.plane_hesse(plane)
        lines.append(f"hesse p = {fmt(payload['hesse'].p)}")
        try:
            payload["segment"] = geometry.plane_segment_form(plane)
            lines.append(f"segment l, m, n = {fmt_list(payload['segment'])}")
        except KernelError:
            lines.append("segment form undefined (zero coefficient)")
    return "\n".join(lines), payload


def _relate(args):
    result = _geo(args)
    kind = result.get("kind") or ("identical" if result["identical"]
                                  else "parallel" if result["parallel"]
                                  else "intersecting")
    return fmt_position(kind, result), result


def _dist(args):
    result = _geo(args)
    if "d_sq" not in result:
        return f"kind: {result['kind']}, d = 0", {"kind": result["kind"]}
    return fmt_distance(result), {"d": result["d"], "d_sq": result["d_sq"]}


def _mix_simple(args):
    result = ratio.simple_mixture(
        ratio.parse_percent(args.s1), ratio.parse_percent(args.s2),
        ratio.parse_percent(args.target), parse_rational(args.total))
    text = fmt_list(result.amounts)
    return text + (" (degenerate: any split works)" if result.degenerate else ""), result


# -- command table ---------------------------------------------------------


# One `exactmath GROUP OP` subcommand: its group and op names, its help line,
# args as (names, add_argument keywords) per argument, and run, which takes
# the parsed arguments and returns (text, payload).
Command = collections.namedtuple("Command", "group op help args run")


def arg(*names, **options):
    return names, options


GROUPS = {
    "nt": "number theory",
    "comb": "combinatorics",
    "logic": "propositional logic",
    "set": "finite sets",
    "rel": "binary relations",
    "alg": "finite binary operations",
    "cx": "complex numbers",
    "mat": "rational matrices",
    "sys": "linear systems",
    "geo": "3D geometry",
    "mix": "proportions, percents, mixtures",
}

_A_B_INTS = (arg("a", type=int), arg("b", type=int))
_N = arg("n", type=int)
_BINOMIAL = (arg("c1"), arg("e1"), arg("c2"), arg("e2"))
_ON = arg("--on", help="carrier set literal")
_MAGMA = (arg("table", nargs="?", help="carrier line then |S| table rows ('-' for stdin)"),
          arg("--addmod", type=int, help="use ({0..n-1}, +_n)"),
          arg("--mulmod", type=int, help="use ({0..n-1}, *_n)"))
_SYSTEM = (arg("system", help="'A | b' (use --augmented for one matrix)"),
           arg("--augmented", action="store_true"))


def _geo_args(op):
    return arg("kind", choices=list(_GEO[op])), arg("parts", nargs=2)


class _SumKinds(collections.abc.Sequence):
    """comb sum's choices, read from combin when the comb parser is built."""

    def __getitem__(self, index):
        return combin.sum_kinds()[index]

    def __len__(self):
        return len(combin.sum_kinds())


COMMANDS = (
    Command("nt", "gcd", "greatest common divisor", _A_B_INTS, _gcd),
    Command("nt", "lcm", "least common multiple", _A_B_INTS,
            lambda a: single("lcm", arith.lcm(a.a, a.b))),
    Command("nt", "factor", "prime factorization", (_N,), _factor),
    Command("nt", "prime", "primality (Miller-Rabin; from 3.3e24 proves composites only)", (_N,),
            lambda a: single("prime", arith.is_prime(a.n))),
    Command("nt", "tobase", "digits of n in base b",
            (_N, arg("base", type=int)), _tobase),
    Command("nt", "frombase", "value of a digit string in base b",
            (arg("digits"), arg("base", type=int)), _frombase),
    Command("nt", "divmod", "division with remainder (0 <= r < b)", _A_B_INTS, _divmod),

    Command("comb", "fact", "factorial", (_N,),
            lambda a: single("factorial", combin.factorial(a.n))),
    Command("comb", "binom", "binomial coefficient", (_N, arg("k", type=int)),
            lambda a: single("binom", combin.binom(a.n, a.k))),
    Command("comb", "expand", "expansion of (c1*x^e1 + c2*x^e2)^n", (_N, *_BINOMIAL),
            lambda a: single("terms", combin.binom_expand(a.n, *_binomial(a)),
                             lambda terms: signed_sum([(t.coeff, t.power) for t in terms], "*"))),
    Command("comb", "term", "term k (0-based) of a binomial power",
            (_N, arg("k", type=int), *_BINOMIAL),
            lambda a: single("term", combin.binom_term(a.n, a.k, *_binomial(a)))),
    Command("comb", "sum", "closed-form sum value",
            (arg("kind", choices=_SumKinds()), _N),
            lambda a: single("sum", combin.closed_form_sum(a.kind, a.n))),

    Command("logic", "table", "truth table", (arg("formula"),),
            lambda a: itself(logic.truth_table(logic.parse_formula(a.formula)))),
    Command("logic", "classify", "tautology / contradiction / contingent", (arg("formula"),),
            lambda a: single("classification",
                             logic.classify(logic.parse_formula(a.formula)).value)),
    Command("logic", "equiv", "logical equivalence of two formulas",
            (arg("formula"), arg("other")),
            lambda a: single("equivalent", logic.equivalent(logic.parse_formula(a.formula),
                                                            logic.parse_formula(a.other)))),

    Command("set", "ops", "union/intersect/diff/symdiff/complement",
            (arg("setop", choices=["union", "intersect", "diff", "symdiff", "complement"]),
             arg("a"), arg("b")), _set_op),
    Command("set", "power", "power set", (arg("a"),),
            lambda a: single("subsets", sets.powerset(parsing.parse_set(a.a)),
                             lambda subsets: "\n".join(map(str, subsets)))),
    Command("set", "cart", "Cartesian product", (arg("a"), arg("b")),
            lambda a: single("pairs", sets.cartesian(parsing.parse_set(a.a),
                                                     parsing.parse_set(a.b)),
                             lambda pairs: ", ".join(f"({x}, {y})" for x, y in pairs))),
    Command("set", "venn3", "three-set census (third set unknown)",
            tuple(arg(name, type=int) for name in ("total", "f", "e", "fe", "enj", "fnj", "fenj")),
            _venn3),

    Command("rel", "props", "reflexive/symmetric/... flags", (arg("relation"), _ON), _rel_props),
    Command("rel", "classes", "equivalence classes and quotient", (arg("relation"), _ON),
            _rel_classes),
    Command("rel", "compose", "composition (second after first)",
            (arg("relation"), arg("other")), _rel_compose),
    Command("rel", "inverse", "inverse relation", (arg("relation"),),
            lambda a: _pairs(relations.rel_inverse(parsing.parse_relation(a.relation)))),

    Command("alg", "cayley", "print a Cayley table", _MAGMA, lambda a: itself(parse_magma(a))),
    Command("alg", "classify", "magma..abelian group classification", _MAGMA, _alg_classify),

    Command("cx", "arith", "exact arithmetic on a+bi literals",
            (arg("cop", choices=["add", "sub", "mul", "div"]), arg("z1"), arg("z2")),
            lambda a: single("result", _ARITH[a.cop](parsing.parse_complex(a.z1),
                                                     parsing.parse_complex(a.z2)))),
    Command("cx", "polar", "polar form (canonical angle)", (arg("z"),),
            lambda a: single("polar", complexn.to_polar(parsing.parse_complex(a.z)), fmt_polar)),
    Command("cx", "pow", "integer power via De Moivre", (arg("z"), _N), _cx_pow),
    Command("cx", "roots", "all n-th roots", (arg("z"), _N),
            lambda a: single("roots", complexn.roots_n(parsing.parse_complex(a.z), a.n),
                             lambda roots: "\n".join(map(fmt_polar, roots)))),

    Command("mat", "arith", "add/sub/mul/scale/transpose",
            (arg("matop", choices=["add", "sub", "mul", "scale", "transpose"]),
             arg("a"), arg("b", nargs="?")), _matrix_op),
    Command("mat", "det", "determinant",
            (arg("a"), arg("--method", default="elimination",
                           choices=["laplace", "elimination", "sarrus3"])),
            lambda a: single("det", matrices.det(matrices.Matrix.from_string(a.a), a.method))),
    Command("mat", "adj", "adjugate matrix", (arg("a"),),
            lambda a: single("matrix", matrices.adjugate(matrices.Matrix.from_string(a.a)))),
    Command("mat", "inverse", "inverse matrix", (arg("a"),),
            lambda a: single("matrix", matrices.inverse(matrices.Matrix.from_string(a.a)))),
    Command("mat", "rank", "rank via elementary transformations", (arg("a"),), _rank),
    Command("mat", "solveq", "solve AX=B (left) or XA=B (right)",
            (arg("side", choices=["left", "right"]), arg("a"), arg("b")),
            lambda a: single("matrix", matrices.solve_matrix_equation(
                "left_AX_eq_B" if a.side == "left" else "right_XA_eq_B",
                matrices.Matrix.from_string(a.a), matrices.Matrix.from_string(a.b)))),

    Command("sys", "classify", "Kronecker-Capelli verdict", _SYSTEM, _sys_classify),
    Command("sys", "gauss", "Gaussian elimination", _SYSTEM,
            lambda a: single("solution", systems.solve_gauss(_system(a)), fmt_solution)),
    Command("sys", "cramer", "Cramer's rule", _SYSTEM,
            lambda a: single("solution", systems.solve_cramer(_system(a)), fmt_solution)),
    Command("sys", "invmethod", "inverse-matrix method", _SYSTEM,
            lambda a: single("solution", systems.solve_inverse_method(_system(a)),
                             fmt_solution)),
    Command("sys", "homogeneous", "A x = 0 analysis",
            (arg("system", help="coefficient matrix A"),), _homogeneous),

    Command("geo", "vec", "dot, cross, norms, angle, projection", (arg("a"), arg("b")), _vec),
    Command("geo", "plane", "build a plane",
            (arg("kind", choices=["three", "normal"]), arg("points", nargs="+"),
             arg("--forms", action="store_true", help="print Hesse and segment forms")),
            _plane),
    Command("geo", "line", "build a line", _geo_args("line"),
            lambda a: single("line", _geo(a))),
    Command("geo", "relate", "mutual position", _geo_args("relate"), _relate),
    Command("geo", "dist", "distances", _geo_args("dist"), _dist),

    Command("mix", "prop", "solve lhs1:lhs2 = rhs1:rhs2 for x",
            (arg("parts", nargs=4, metavar="MEMBER"),),
            lambda a: single("x", ratio.solve_proportion(
                ratio.parse_affine(a.parts[0]), parse_rational(a.parts[1]),
                ratio.parse_affine(a.parts[2]), parse_rational(a.parts[3])))),
    Command("mix", "split", "split a total in a given ratio",
            (arg("total"), arg("weights", help="w1:w2:...")),
            lambda a: single("parts", ratio.extended_split(
                parse_rational(a.total), [parse_rational(w) for w in a.weights.split(":")]),
                fmt_list)),
    Command("mix", "percent", "percent rule G:100 = I:p",
            (arg("--g"), arg("--i"), arg("--p")),
            lambda a: single("value", ratio.percent_solve(
                g=_opt_rat(a.g), i=_opt_rat(a.i), p=_opt_rat(a.p)))),
    Command("mix", "chain", "chained percent changes",
            (arg("--start"), arg("--final"),
             arg("deltas", nargs="*", help="signed percents, e.g. -10 +15")),
            lambda a: single("value", ratio.percent_chain(
                start=_opt_rat(a.start), final=_opt_rat(a.final),
                deltas=[ratio.parse_percent(d) for d in a.deltas]))),
    Command("mix", "simple", "two-component mixture",
            (arg("s1"), arg("s2"), arg("target"), arg("total")), _mix_simple),
    Command("mix", "star", "star-scheme alligation",
            (arg("target"), arg("total"), arg("values", nargs="+")),
            lambda a: single("amounts", ratio.star_scheme(
                [ratio.parse_percent(v) for v in a.values], ratio.parse_percent(a.target),
                parse_rational(a.total)), fmt_list)),
)


# -- parser and dispatch ---------------------------------------------------


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of every command, or, given the argv to parse, of the
    commands in its group: the first token that is not an option.  All
    group parsers are there either way, so the top-level help and the
    usage errors read the same."""
    wanted = GROUPS if argv is None else {next((t for t in argv if not t.startswith("-")), None)}
    parser = argparse.ArgumentParser(
        prog="exactmath",
        description="Exact-arithmetic desk mathematics: number theory, logic, "
                    "finite structures, complex numbers, matrices, linear "
                    "systems, 3D geometry, and mixture calculation.")
    parser.add_argument("--json", action="store_true",
                        help="emit the JSON schema instead of plain text")
    groups = parser.add_subparsers(dest="group", required=True)
    ops = {group: groups.add_parser(group, help=text).add_subparsers(dest="op", required=True)
           for group, text in GROUPS.items()}
    for command in (c for c in COMMANDS if c.group in wanted):
        sub = ops[command.group].add_parser(command.op, help=command.help)
        # argparse's own (private) test: -1/2, -10% and -2,0,4 are operands too
        sub._negative_number_matcher = re.compile(r"^-(\d|\.\d)")
        for names, options in command.args:
            sub.add_argument(*names, **options)
        sub.set_defaults(run=command.run)
    return parser


def dispatch(argv) -> int:
    args = build_parser(argv).parse_args(argv)
    for name, value in list(vars(args).items()):  # in argument order
        setattr(args, name, read_stdin(value))
    try:
        out = _output(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except KernelError as exc:
        name = type(exc).__name__
        print(f"{_snake(name)}: {exc}", file=sys.stderr)
        return 1
    print(out)
    return 0


def _output(args) -> str:
    """What the command prints.  The one check that it can be printed: a
    float past the float range or an int past Python's int/str digit limit
    raises a KernelError here, when the handler or the rendering meets it."""
    try:
        text, payload = args.run(args)
        return dump_json(payload) if args.json else text
    except OverflowError:
        raise OutOfDomain("a value is outside the float range") from None
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        raise TooLarge(f"a result has more than {sys.get_int_max_str_digits()} digits") from None


def _snake(name: str) -> str:
    out = []
    for ch in name:
        if ch.isupper() and out:
            out.append(" ")
        out.append(ch.lower())
    return "".join(out)


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
