"""Command-line front end for the kernel.

Subcommand tree: nt, comb, logic, set, rel, alg, cx, mat, sys, geo, mix.
Results go to stdout (plain text mirroring the usual written notation, or a
stable JSON schema with exact rationals as {"num", "den"} pairs under
--json); diagnostics go to stderr.  Exit codes: 0 success, 1 domain error,
2 parse/usage error.  A literal '-' argument is replaced by stdin.
"""

import argparse
import json
import math
import sys
from fractions import Fraction

from . import (
    algstruct,
    arith,
    combin,
    complexn,
    geometry,
    logic,
    matrices,
    parsing,
    ratio,
    relations,
    sets,
    systems,
)
from .errors import KernelError, ParseError
from .rationals import format_rational, parse_rational

# -- rendering -------------------------------------------------------------


def to_jsonable(obj):
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, float, str)):
        return obj
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator}
    if isinstance(obj, matrices.Matrix):
        return [[to_jsonable(x) for x in row] for row in obj.entries]
    if isinstance(obj, complexn.GaussianRational):
        return {"re": to_jsonable(obj.re), "im": to_jsonable(obj.im)}
    if isinstance(obj, complexn.Polar):
        return {"r": obj.r, "theta": obj.theta}
    if isinstance(obj, geometry.Vec3):
        return [to_jsonable(c) for c in obj.components()]
    if isinstance(obj, geometry.Plane):
        return {"a": to_jsonable(obj.a), "b": to_jsonable(obj.b),
                "c": to_jsonable(obj.c), "d": to_jsonable(obj.d)}
    if isinstance(obj, geometry.Line):
        return {"point": to_jsonable(obj.point), "dir": to_jsonable(obj.dir)}
    if isinstance(obj, sets.FinSet):
        return [to_jsonable(e) for e in obj.elements]
    if isinstance(obj, relations.Relation):
        return {"source": to_jsonable(obj.source),
                "target": to_jsonable(obj.target),
                "pairs": sorted(([to_jsonable(a), to_jsonable(b)]
                                 for a, b in obj.pairs), key=repr)}
    if isinstance(obj, systems.Unique):
        return {"kind": "unique", "values": [to_jsonable(v) for v in obj.values]}
    if isinstance(obj, systems.Inconsistent):
        return {"kind": "inconsistent"}
    if isinstance(obj, systems.Parametric):
        return {"kind": "parametric",
                "particular": [to_jsonable(v) for v in obj.particular],
                "directions": [[to_jsonable(v) for v in d] for d in obj.directions],
                "free_cols": list(obj.free_cols)}
    if isinstance(obj, combin.Monomial):
        return {"coeff": to_jsonable(obj.coeff), "exponent": to_jsonable(obj.exponent)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    if hasattr(obj, "value"):  # enums
        return obj.value
    return str(obj)


def dump_json(obj) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, separators=(",", ":"))


def fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def fmt_monomial(m: combin.Monomial) -> str:
    coeff = format_rational(m.coeff)
    if m.exponent == 0:
        return coeff
    exp = (format_rational(m.exponent) if m.exponent.denominator == 1
           else f"({format_rational(m.exponent)})")
    x = "x" if exp == "1" else f"x^{exp}"
    return x if coeff == "1" else f"{coeff}*{x}"


def fmt_polar(p: complexn.Polar) -> str:
    degrees = math.degrees(p.theta)
    return f"r = {p.r:.10g}, theta = {p.theta:.10g} rad ({degrees:.10g} deg)"


def fmt_affine_combo(constant: Fraction, coeffs, names) -> str:
    """Render c + sum(a_i * name_i) the way the text writes solutions."""
    parts = []
    for coeff, name in zip(coeffs, names):
        if coeff == 0:
            continue
        sign = "-" if coeff < 0 else ("+" if parts else "")
        size = abs(coeff)
        body = name if size == 1 else f"{format_rational(size)}*{name}"
        parts.append(f"{sign} {body}" if parts else f"{sign}{body}")
    if constant != 0 or not parts:
        text = format_rational(constant)
        parts.append(f"+ {text}" if parts and constant > 0 else
                     (f"- {format_rational(-constant)}" if parts else text))
    return " ".join(parts)


def fmt_solution(solution) -> str:
    if isinstance(solution, systems.Inconsistent):
        return "inconsistent"
    if isinstance(solution, systems.Unique):
        return ", ".join(f"x{i + 1} = {format_rational(v)}"
                         for i, v in enumerate(solution.values))
    names = [f"t{i + 1}" for i in range(len(solution.directions))]
    lines = []
    for i, base in enumerate(solution.particular):
        coeffs = [d[i] for d in solution.directions]
        lines.append(f"x{i + 1} = {fmt_affine_combo(base, coeffs, names)}")
    lines.append("free columns: " + ", ".join(str(c + 1) for c in solution.free_cols))
    return "\n".join(lines)


# -- input helpers ---------------------------------------------------------


def read_arg(value: str) -> str:
    return sys.stdin.read() if value == "-" else value


def parse_system(text: str, augmented: bool) -> systems.LinearSystem:
    if augmented:
        aug = matrices.Matrix.from_string(text)
        if aug.n < 2:
            raise ParseError("an augmented matrix needs at least 2 columns")
        a = matrices.Matrix([row[:-1] for row in aug.entries])
        return systems.LinearSystem(a, [row[-1] for row in aug.entries])
    if "|" not in text:
        raise ParseError("system input is 'A | b' (or use --augmented)")
    left, right = text.split("|", 1)
    a = matrices.Matrix.from_string(left)
    b = [parse_rational(tok) for tok in right.split()]
    return systems.LinearSystem(a, b)


def parse_affine(text: str) -> ratio.Affine:
    """Parse "x", "x+9", "2x-3", "5" (in the unknown x)."""
    compact = text.replace(" ", "")
    slope = Fraction(0)
    intercept = Fraction(0)
    if not compact:
        raise ParseError("empty proportion member")
    import re as _re
    for term in (t for t in _re.split(r"(?=[+-])", compact) if t):
        if term.endswith("x"):
            body = term[:-1]
            if body in ("", "+"):
                slope += 1
            elif body == "-":
                slope -= 1
            else:
                slope += parse_rational(body)
        else:
            intercept += parse_rational(term)
    return ratio.Affine(slope, intercept)


def parse_magma(args) -> algstruct.Magma:
    if args.addmod is not None:
        return algstruct.mod_add_table(args.addmod)
    if args.mulmod is not None:
        return algstruct.mod_mul_table(args.mulmod)
    if not args.table:
        raise ParseError("give a table (or --addmod/--mulmod N)")
    text = read_arg(args.table)
    lines = [line.split() for line in text.splitlines() if line.strip()]
    if len(lines) < 2:
        raise ParseError("table input: carrier line, then |S| rows")
    carrier = tuple(lines[0])
    rows = lines[1:]
    if len(rows) != len(carrier) or any(len(r) != len(carrier) for r in rows):
        raise ParseError("table shape must match the carrier")
    return algstruct.Magma(carrier, tuple(tuple(r) for r in rows))


# -- command handlers ------------------------------------------------------


def cmd_nt(args):
    if args.op == "gcd":
        g, trace = arith.gcd(args.a, args.b)
        return g, {"gcd": g, "trace": [list(step) for step in trace]}
    if args.op == "lcm":
        value = arith.lcm(args.a, args.b)
        return value, {"lcm": value}
    if args.op == "factor":
        factors = arith.factorize(args.n)
        text = " * ".join(f"{p}^{m}" if m > 1 else str(p) for p, m in factors)
        return text, {"factors": [[p, m] for p, m in factors]}
    if args.op == "prime":
        flag = arith.is_prime(args.n)
        return fmt(flag), {"prime": flag}
    if args.op == "tobase":
        digits = arith.to_base(args.n, args.base)
        return str(digits), {"base": digits.base, "digits": list(digits.coeffs)}
    if args.op == "frombase":
        try:
            coeffs = tuple(int(ch, 16) for ch in args.digits)
        except ValueError:
            raise ParseError(f"not a digit string (0-9, a-f): {args.digits!r}") from None
        value = arith.from_base(arith.Digits(args.base, coeffs))
        return str(value), {"value": value}
    if args.op == "divmod":
        q, r = arith.divmod_euclid(args.a, args.b)
        return f"q = {q}, r = {r}", {"q": q, "r": r}
    raise ParseError(f"unknown nt op {args.op!r}")


def cmd_comb(args):
    if args.op == "fact":
        value = combin.factorial(args.n)
        return str(value), {"factorial": value}
    if args.op == "binom":
        value = combin.binom(args.n, args.k)
        return str(value), {"binom": value}
    if args.op in ("expand", "term"):
        c1, e1 = parse_rational(args.c1), parse_rational(args.e1)
        c2, e2 = parse_rational(args.c2), parse_rational(args.e2)
        if args.op == "expand":
            terms = combin.binom_expand(args.n, c1, e1, c2, e2)
            return (" + ".join(fmt_monomial(t) for t in terms).replace("+ -", "- "),
                    {"terms": terms})
        term = combin.binom_term(args.n, args.k, c1, e1, c2, e2)
        return fmt_monomial(term), {"term": term}
    if args.op == "sum":
        value = combin.closed_form_sum(args.kind, args.n)
        return fmt(value), {"sum": value}
    raise ParseError(f"unknown comb op {args.op!r}")


def cmd_logic(args):
    f = logic.parse_formula(read_arg(args.formula))
    if args.op == "table":
        table = logic.truth_table(f)
        payload = {"atoms": list(table.atoms),
                   "rows": [[list(values), result] for values, result in table.rows]}
        return str(table), payload
    if args.op == "classify":
        verdict = logic.classify(f)
        return verdict.value, {"classification": verdict.value}
    if args.op == "equiv":
        g = logic.parse_formula(read_arg(args.other))
        flag = logic.equivalent(f, g)
        return fmt(flag), {"equivalent": flag}
    raise ParseError(f"unknown logic op {args.op!r}")


def cmd_set(args):
    if args.op == "ops":
        a = parsing.parse_set(read_arg(args.a))
        b = parsing.parse_set(read_arg(args.b))
        if args.setop == "complement":
            result = sets.complement(a, b)
        else:
            result = sets.set_ops(a, b, args.setop)
        return str(result), {"result": result}
    if args.op == "power":
        a = parsing.parse_set(read_arg(args.a))
        subsets = sets.powerset(a)
        return "\n".join(str(s) for s in subsets), {"subsets": subsets}
    if args.op == "cart":
        a = parsing.parse_set(read_arg(args.a))
        b = parsing.parse_set(read_arg(args.b))
        product = sets.cartesian(a, b)
        text = ", ".join(f"({x}, {y})" for x, y in product)
        return text, {"pairs": [[x, y] for x, y in product]}
    if args.op == "venn3":
        regions, nj = sets.three_set_counts(
            args.total, args.f, args.e, args.fe, args.enj, args.fnj, args.fenj)
        lines = [f"third set: {nj}"]
        lines += [f"{name}: {count}" for name, count in sorted(regions.items())]
        return "\n".join(lines), {"third_set": nj, "regions": regions}
    raise ParseError(f"unknown set op {args.op!r}")


def _relation_from_args(args):
    on = parsing.parse_set(args.on) if getattr(args, "on", None) else None
    return parsing.parse_relation(read_arg(args.relation), source=on, target=on)


def cmd_rel(args):
    if args.op == "props":
        rel = _relation_from_args(args)
        props = relations.rel_properties(rel)
        props["equivalence"] = (props["reflexive"] and props["symmetric"]
                                and props["transitive"])
        props["partial_order"] = (props["reflexive"] and props["antisymmetric"]
                                  and props["transitive"])
        text = "\n".join(f"{name}: {fmt(flag)}" for name, flag in props.items())
        return text, props
    if args.op == "classes":
        rel = _relation_from_args(args)
        analysis = relations.equivalence_analysis(rel)
        if not analysis["is_equivalence"]:
            return "not an equivalence relation", {"is_equivalence": False}
        text = "\n".join(str(c) for c in analysis["classes"])
        return text, {"is_equivalence": True, "classes": analysis["classes"]}
    if args.op == "compose":
        first = parsing.parse_relation(read_arg(args.relation))
        second = parsing.parse_relation(read_arg(args.other))
        # align the intermediate sets so composition is defined
        middle = sets.set_ops(first.range(), second.domain(), "union")
        first = relations.Relation(first.source, middle, first.pairs)
        second = relations.Relation(middle, second.target, second.pairs)
        result = relations.rel_compose(first, second)
        return str(result), {"pairs": to_jsonable(result)["pairs"]}
    if args.op == "inverse":
        rel = parsing.parse_relation(read_arg(args.relation))
        result = relations.rel_inverse(rel)
        return str(result), {"pairs": to_jsonable(result)["pairs"]}
    raise ParseError(f"unknown rel op {args.op!r}")


def cmd_alg(args):
    magma = parse_magma(args)
    if args.op == "cayley":
        return str(magma), {"carrier": list(magma.carrier),
                            "table": [list(r) for r in magma.table]}
    if args.op == "classify":
        info = algstruct.classify_structure(magma)
        lines = [f"class: {info['class'].value}"]
        for key in ("closed", "associative", "commutative", "all_invertible"):
            lines.append(f"{key}: {fmt(info[key])}")
        lines.append(f"neutral: {info['neutral'] if info['neutral'] is not None else 'none'}")
        return "\n".join(lines), info
    raise ParseError(f"unknown alg op {args.op!r}")


def cmd_cx(args):
    if args.op == "arith":
        z1 = parsing.parse_complex(read_arg(args.z1))
        z2 = parsing.parse_complex(read_arg(args.z2))
        result = complexn.c_arith(z1, z2, args.cop)
        return str(result), {"result": result}
    if args.op == "polar":
        z = parsing.parse_complex(read_arg(args.z))
        p = complexn.to_polar(z)
        return fmt_polar(p), {"polar": p}
    if args.op == "pow":
        z = parsing.parse_complex(read_arg(args.z))
        p = complexn.pow_int(complexn.to_polar(z), args.n)
        x, y = complexn.from_polar(p)
        text = f"{fmt_polar(p)}\nxy = ({x:.10g}, {y:.10g})"
        return text, {"polar": p, "xy": [x, y]}
    if args.op == "roots":
        z = parsing.parse_complex(read_arg(args.z))
        roots = complexn.roots_n(z, args.n)
        return "\n".join(fmt_polar(r) for r in roots), {"roots": roots}
    raise ParseError(f"unknown cx op {args.op!r}")


def cmd_mat(args):
    if args.op == "arith":
        a = matrices.Matrix.from_string(read_arg(args.a))
        if args.b is None and args.matop != "transpose":
            raise ParseError(f"{args.matop} needs a second operand")
        if args.matop in ("add", "sub"):
            result = matrices.mat_arith(a, matrices.Matrix.from_string(read_arg(args.b)), args.matop)
        elif args.matop == "mul":
            result = matrices.matmul(a, matrices.Matrix.from_string(read_arg(args.b)))
        elif args.matop == "scale":
            result = matrices.scale(parse_rational(args.b), a)
        elif args.matop == "transpose":
            result = matrices.transpose(a)
        else:
            raise ParseError(f"unknown matrix op {args.matop!r}")
        return str(result), {"matrix": result}
    a = matrices.Matrix.from_string(read_arg(args.a))
    if args.op == "det":
        value = matrices.det(a, args.method)
        return fmt(value), {"det": value}
    if args.op == "adj":
        result = matrices.adjugate(a)
        return str(result), {"matrix": result}
    if args.op == "inverse":
        result = matrices.inverse(a)
        return str(result), {"matrix": result}
    if args.op == "rank":
        report = matrices.rank(a)
        text = (f"rank = {report.rank}\n{report.echelon}\n"
                + "ops: " + ("; ".join(report.op_log) if report.op_log else "none"))
        return text, {"rank": report.rank, "echelon": report.echelon,
                      "pivot_cols": list(report.pivot_cols),
                      "op_log": list(report.op_log)}
    if args.op == "solveq":
        b = matrices.Matrix.from_string(read_arg(args.b))
        side = "left_AX_eq_B" if args.side == "left" else "right_XA_eq_B"
        result = matrices.solve_matrix_equation(side, a, b)
        return str(result), {"matrix": result}
    raise ParseError(f"unknown mat op {args.op!r}")


def cmd_sys(args):
    if args.op == "homogeneous":
        a = matrices.Matrix.from_string(read_arg(args.system))
        info = systems.homogeneous_analysis(a)
        text = (f"trivial only: {fmt(info['trivial_only'])}\n"
                + fmt_solution(info["solutions"]))
        return text, info
    sys_ = parse_system(read_arg(args.system), args.augmented)
    if args.op == "classify":
        report = systems.classify(sys_)
        text = (f"rank A = {report.rank_a}, rank A|b = {report.rank_ab}, "
                f"unknowns = {report.n_unknowns}: {report.verdict}")
        return text, {"rank_a": report.rank_a, "rank_ab": report.rank_ab,
                      "n_unknowns": report.n_unknowns, "verdict": report.verdict}
    solver = {"gauss": systems.solve_gauss,
              "cramer": systems.solve_cramer,
              "invmethod": systems.solve_inverse_method}[args.op]
    solution = solver(sys_)
    return fmt_solution(solution), {"solution": solution}


def cmd_geo(args):
    if args.op == "vec":
        a = parsing.parse_vec3(read_arg(args.a))
        b = parsing.parse_vec3(read_arg(args.b))
        payload = {
            "dot": geometry.dot(a, b),
            "cross": geometry.cross(a, b),
            "norm_a": geometry.norm(a),
            "norm_b": geometry.norm(b),
        }
        if not a.is_zero() and not b.is_zero():
            payload["angle"] = geometry.angle(a, b)
            payload["proj_a_onto_b"] = geometry.proj_scalar(a, b)
        lines = [f"dot = {fmt(payload['dot'])}",
                 f"cross = {payload['cross']}",
                 f"|a| = {fmt(payload['norm_a'])}",
                 f"|b| = {fmt(payload['norm_b'])}"]
        if "angle" in payload:
            lines.append(f"angle = {fmt(payload['angle'])}")
            lines.append(f"proj = {fmt(payload['proj_a_onto_b'])}")
        return "\n".join(lines), payload
    if args.op == "plane":
        wanted = 3 if args.kind == "three" else 2
        if len(args.points) != wanted:
            raise ParseError(f"plane {args.kind} takes {wanted} vectors, got {len(args.points)}")
        if args.kind == "three":
            plane = geometry.plane_three_points(*(parsing.parse_vec3(p) for p in args.points))
        else:
            plane = geometry.plane_point_normal(
                parsing.parse_vec3(args.points[0]), parsing.parse_vec3(args.points[1]))
        payload = {"plane": plane}
        lines = [str(plane)]
        if args.forms:
            hesse = geometry.plane_hesse(plane)
            payload["hesse"] = {"cos_a": hesse.cos_a, "cos_b": hesse.cos_b,
                                "cos_g": hesse.cos_g, "p": hesse.p}
            lines.append(f"hesse p = {fmt(hesse.p)}")
            try:
                l, m, n = geometry.plane_segment_form(plane)
                payload["segment"] = [l, m, n]
                lines.append(f"segment l, m, n = {fmt(l)}, {fmt(m)}, {fmt(n)}")
            except KernelError:
                lines.append("segment form undefined (zero coefficient)")
        return "\n".join(lines), payload
    if args.op == "line":
        if args.kind == "points":
            line = geometry.line_two_points(
                parsing.parse_vec3(args.parts[0]), parsing.parse_vec3(args.parts[1]))
        else:
            line = geometry.line_plane_intersection_line(
                parsing.parse_plane(args.parts[0]), parsing.parse_plane(args.parts[1]))
        return str(line), {"line": line}
    if args.op == "relate":
        if args.kind == "planes":
            result = geometry.planes_relation(
                parsing.parse_plane(args.parts[0]), parsing.parse_plane(args.parts[1]))
            verdict = ("identical" if result["identical"]
                       else "parallel" if result["parallel"]
                       else "intersecting")
            lines = [f"kind: {verdict}", f"angle = {fmt(result['angle'])}"]
            if result["intersection"] is not None:
                lines.append(f"line: {result['intersection']}")
            return "\n".join(lines), result
        if args.kind == "lines":
            result = geometry.lines_relation(
                parsing.parse_line(args.parts[0]), parsing.parse_line(args.parts[1]))
            lines = [f"kind: {result['kind']}", f"angle = {fmt(result['angle'])}"]
            if "point" in result:
                lines.append(f"point: {result['point']}")
            if "d_sq" in result:
                lines.append(f"d = {fmt(result['d'])} (d^2 = {fmt(result['d_sq'])})")
            return "\n".join(lines), result
        result = geometry.line_plane_relation(
            parsing.parse_line(args.parts[0]), parsing.parse_plane(args.parts[1]))
        lines = [f"kind: {result['kind']}"]
        if result["kind"] == "intersecting":
            lines.append(f"point: {result['point']}")
            lines.append(f"sin angle = {fmt(result['sin_angle'])}")
        elif result["kind"] == "parallel_disjoint":
            lines.append(f"d = {fmt(result['d'])} (d^2 = {fmt(result['d_sq'])})")
        return "\n".join(lines), result
    if args.op == "dist":
        if args.kind == "pointplane":
            result = geometry.point_plane_distance(
                parsing.parse_vec3(args.parts[0]), parsing.parse_plane(args.parts[1]))
        elif args.kind == "pointline":
            result = geometry.point_line_distance(
                parsing.parse_vec3(args.parts[0]), parsing.parse_line(args.parts[1]))
        else:
            relation = geometry.lines_relation(
                parsing.parse_line(args.parts[0]), parsing.parse_line(args.parts[1]))
            if "d_sq" not in relation:
                return f"kind: {relation['kind']}, d = 0", {"kind": relation["kind"]}
            result = {"d": relation["d"], "d_sq": relation["d_sq"]}
        return (f"d = {fmt(result['d'])} (d^2 = {fmt(result['d_sq'])})", result)
    raise ParseError(f"unknown geo op {args.op!r}")


def cmd_mix(args):
    if args.op == "prop":
        value = ratio.solve_proportion(
            parse_affine(args.parts[0]), parse_rational(args.parts[1]),
            parse_affine(args.parts[2]), parse_rational(args.parts[3]))
        return fmt(value), {"x": value}
    if args.op == "split":
        parts = ratio.extended_split(
            parse_rational(args.total),
            [parse_rational(w) for w in args.weights.split(":")])
        return ", ".join(fmt(p) for p in parts), {"parts": parts}
    if args.op == "percent":
        value = ratio.percent_solve(
            g=_opt_rat(args.g), i=_opt_rat(args.i), p=_opt_rat(args.p))
        return fmt(value), {"value": value}
    if args.op == "chain":
        value = ratio.percent_chain(
            start=_opt_rat(args.start), final=_opt_rat(args.final),
            deltas=[_percent(d) for d in args.deltas])
        return fmt(value), {"value": value}
    if args.op == "simple":
        result = ratio.simple_mixture(
            _percent(args.s1), _percent(args.s2),
            _percent(args.target), parse_rational(args.total))
        text = ", ".join(fmt(x) for x in result.amounts)
        if result.degenerate:
            text += " (degenerate: any split works)"
        return text, {"amounts": result.amounts, "degenerate": result.degenerate}
    if args.op == "star":
        amounts = ratio.star_scheme(
            [_percent(v) for v in args.values],
            _percent(args.target), parse_rational(args.total))
        return ", ".join(fmt(x) for x in amounts), {"amounts": amounts}
    raise ParseError(f"unknown mix op {args.op!r}")


def _percent(text: str) -> Fraction:
    """Rational with optional '%' (no-op scale) or per-mille suffix."""
    text = text.strip()
    if text.endswith("‰"):
        return parse_rational(text[:-1]) / 10
    if text.endswith("%"):
        return parse_rational(text[:-1])
    return parse_rational(text)


def _opt_rat(value):
    return None if value is None else _percent(value)


# -- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactmath",
        description="Exact-arithmetic desk mathematics: number theory, logic, "
                    "finite structures, complex numbers, matrices, linear "
                    "systems, 3D geometry, and mixture calculation.")
    parser.add_argument("--json", action="store_true",
                        help="emit the JSON schema instead of plain text")
    groups = parser.add_subparsers(dest="group", required=True)

    nt = groups.add_parser("nt", help="number theory").add_subparsers(dest="op", required=True)
    p = nt.add_parser("gcd", help="greatest common divisor")
    p.add_argument("a", type=int); p.add_argument("b", type=int)
    p = nt.add_parser("lcm", help="least common multiple")
    p.add_argument("a", type=int); p.add_argument("b", type=int)
    p = nt.add_parser("factor", help="prime factorization")
    p.add_argument("n", type=int)
    p = nt.add_parser("prime", help="primality by trial division")
    p.add_argument("n", type=int)
    p = nt.add_parser("tobase", help="digits of n in base b")
    p.add_argument("n", type=int); p.add_argument("base", type=int)
    p = nt.add_parser("frombase", help="value of a digit string in base b")
    p.add_argument("digits"); p.add_argument("base", type=int)
    p = nt.add_parser("divmod", help="division with remainder (0 <= r < b)")
    p.add_argument("a", type=int); p.add_argument("b", type=int)

    comb = groups.add_parser("comb", help="combinatorics").add_subparsers(dest="op", required=True)
    p = comb.add_parser("fact", help="factorial")
    p.add_argument("n", type=int)
    p = comb.add_parser("binom", help="binomial coefficient")
    p.add_argument("n", type=int); p.add_argument("k", type=int)
    p = comb.add_parser("expand", help="expansion of (c1*x^e1 + c2*x^e2)^n")
    p.add_argument("n", type=int)
    p.add_argument("c1"); p.add_argument("e1"); p.add_argument("c2"); p.add_argument("e2")
    p = comb.add_parser("term", help="term k (0-based) of a binomial power")
    p.add_argument("n", type=int); p.add_argument("k", type=int)
    p.add_argument("c1"); p.add_argument("e1"); p.add_argument("c2"); p.add_argument("e2")
    p = comb.add_parser("sum", help="closed-form sum value")
    p.add_argument("kind", choices=combin.sum_kinds()); p.add_argument("n", type=int)

    lg = groups.add_parser("logic", help="propositional logic").add_subparsers(dest="op", required=True)
    p = lg.add_parser("table", help="truth table")
    p.add_argument("formula")
    p = lg.add_parser("classify", help="tautology / contradiction / contingent")
    p.add_argument("formula")
    p = lg.add_parser("equiv", help="logical equivalence of two formulas")
    p.add_argument("formula"); p.add_argument("other")

    st = groups.add_parser("set", help="finite sets").add_subparsers(dest="op", required=True)
    p = st.add_parser("ops", help="union/intersect/diff/symdiff/complement")
    p.add_argument("setop", choices=["union", "intersect", "diff", "symdiff", "complement"])
    p.add_argument("a"); p.add_argument("b")
    p = st.add_parser("power", help="power set")
    p.add_argument("a")
    p = st.add_parser("cart", help="Cartesian product")
    p.add_argument("a"); p.add_argument("b")
    p = st.add_parser("venn3", help="three-set census (third set unknown)")
    for name in ("total", "f", "e", "fe", "enj", "fnj", "fenj"):
        p.add_argument(name, type=int)

    rl = groups.add_parser("rel", help="binary relations").add_subparsers(dest="op", required=True)
    p = rl.add_parser("props", help="reflexive/symmetric/... flags")
    p.add_argument("relation"); p.add_argument("--on", help="carrier set literal")
    p = rl.add_parser("classes", help="equivalence classes and quotient")
    p.add_argument("relation"); p.add_argument("--on", help="carrier set literal")
    p = rl.add_parser("compose", help="composition (second after first)")
    p.add_argument("relation"); p.add_argument("other")
    p = rl.add_parser("inverse", help="inverse relation")
    p.add_argument("relation")

    al = groups.add_parser("alg", help="finite binary operations").add_subparsers(dest="op", required=True)
    for name, help_text in (("cayley", "print a Cayley table"),
                            ("classify", "magma..abelian group classification")):
        p = al.add_parser(name, help=help_text)
        p.add_argument("table", nargs="?", help="carrier line then |S| table rows ('-' for stdin)")
        p.add_argument("--addmod", type=int, help="use ({0..n-1}, +_n)")
        p.add_argument("--mulmod", type=int, help="use ({0..n-1}, *_n)")

    cx = groups.add_parser("cx", help="complex numbers").add_subparsers(dest="op", required=True)
    p = cx.add_parser("arith", help="exact arithmetic on a+bi literals")
    p.add_argument("cop", choices=["add", "sub", "mul", "div"])
    p.add_argument("z1"); p.add_argument("z2")
    p = cx.add_parser("polar", help="polar form (canonical angle)")
    p.add_argument("z")
    p = cx.add_parser("pow", help="integer power via De Moivre")
    p.add_argument("z"); p.add_argument("n", type=int)
    p = cx.add_parser("roots", help="all n-th roots")
    p.add_argument("z"); p.add_argument("n", type=int)

    mt = groups.add_parser("mat", help="rational matrices").add_subparsers(dest="op", required=True)
    p = mt.add_parser("arith", help="add/sub/mul/scale/transpose")
    p.add_argument("matop", choices=["add", "sub", "mul", "scale", "transpose"])
    p.add_argument("a"); p.add_argument("b", nargs="?")
    p = mt.add_parser("det", help="determinant")
    p.add_argument("a")
    p.add_argument("--method", default="elimination",
                   choices=["laplace", "elimination", "sarrus3"])
    p = mt.add_parser("adj", help="adjugate matrix")
    p.add_argument("a")
    p = mt.add_parser("inverse", help="inverse matrix")
    p.add_argument("a")
    p = mt.add_parser("rank", help="rank via elementary transformations")
    p.add_argument("a")
    p = mt.add_parser("solveq", help="solve AX=B (left) or XA=B (right)")
    p.add_argument("side", choices=["left", "right"])
    p.add_argument("a"); p.add_argument("b")

    sy = groups.add_parser("sys", help="linear systems").add_subparsers(dest="op", required=True)
    for name, help_text in (("classify", "Kronecker-Capelli verdict"),
                            ("gauss", "Gaussian elimination"),
                            ("cramer", "Cramer's rule"),
                            ("invmethod", "inverse-matrix method")):
        p = sy.add_parser(name, help=help_text)
        p.add_argument("system", help="'A | b' (use --augmented for one matrix)")
        p.add_argument("--augmented", action="store_true")
    p = sy.add_parser("homogeneous", help="A x = 0 analysis")
    p.add_argument("system", help="coefficient matrix A")

    ge = groups.add_parser("geo", help="3D geometry").add_subparsers(dest="op", required=True)
    p = ge.add_parser("vec", help="dot, cross, norms, angle, projection")
    p.add_argument("a"); p.add_argument("b")
    p = ge.add_parser("plane", help="build a plane")
    p.add_argument("kind", choices=["three", "normal"])
    p.add_argument("points", nargs="+")
    p.add_argument("--forms", action="store_true", help="print Hesse and segment forms")
    p = ge.add_parser("line", help="build a line")
    p.add_argument("kind", choices=["points", "planes"])
    p.add_argument("parts", nargs=2)
    p = ge.add_parser("relate", help="mutual position")
    p.add_argument("kind", choices=["planes", "lines", "lineplane"])
    p.add_argument("parts", nargs=2)
    p = ge.add_parser("dist", help="distances")
    p.add_argument("kind", choices=["pointplane", "pointline", "lines"])
    p.add_argument("parts", nargs=2)

    mx = groups.add_parser("mix", help="proportions, percents, mixtures").add_subparsers(dest="op", required=True)
    p = mx.add_parser("prop", help="solve lhs1:lhs2 = rhs1:rhs2 for x")
    p.add_argument("parts", nargs=4, metavar=("MEMBER"))
    p = mx.add_parser("split", help="split a total in a given ratio")
    p.add_argument("total"); p.add_argument("weights", help="w1:w2:...")
    p = mx.add_parser("percent", help="percent rule G:100 = I:p")
    p.add_argument("--g"); p.add_argument("--i"); p.add_argument("--p")
    p = mx.add_parser("chain", help="chained percent changes")
    p.add_argument("--start"); p.add_argument("--final")
    p.add_argument("deltas", nargs="*", help="signed percents, e.g. -10 +15")
    p = mx.add_parser("simple", help="two-component mixture")
    p.add_argument("s1"); p.add_argument("s2"); p.add_argument("target"); p.add_argument("total")
    p = mx.add_parser("star", help="star-scheme alligation")
    p.add_argument("target"); p.add_argument("total"); p.add_argument("values", nargs="+")
    return parser


_HANDLERS = {
    "nt": cmd_nt,
    "comb": cmd_comb,
    "logic": cmd_logic,
    "set": cmd_set,
    "rel": cmd_rel,
    "alg": cmd_alg,
    "cx": cmd_cx,
    "mat": cmd_mat,
    "sys": cmd_sys,
    "geo": cmd_geo,
    "mix": cmd_mix,
}


def dispatch(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text, payload = _HANDLERS[args.group](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except KernelError as exc:
        name = type(exc).__name__
        print(f"{_snake(name)}: {exc}", file=sys.stderr)
        return 1
    print(dump_json(payload) if args.json else text)
    return 0


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
