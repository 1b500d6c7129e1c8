"""exactmath: an exact-arithmetic desk-mathematics kernel.

Rational scalars everywhere (fractions.Fraction), with number theory,
combinatorics, propositional logic, finite sets/relations/algebra, complex
numbers, rational matrices, linear-system solving, 3D analytic geometry,
and proportion/percent/mixture calculators.

The public names below are looked up lazily (PEP 562): importing the
package loads no module, and `from exactmath import det` loads only
`exactmath.matrices`.  A one-shot CLI process thus imports just the
modules that its command uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "rationals": "Rational parse_rational",
    "arith": "Digits divides divmod_euclid factorize from_base gcd is_prime lcm to_base",
    "combin": "Monomial binom binom_expand binom_term closed_form_sum factorial sum_kinds",
    "logic": "And Atom Classification Formula Iff Implies Not Or TruthTable Xor classify "
             "equivalent evaluate parse_formula print_formula truth_table",
    "sets": "FinSet cartesian complement powerset set_ops three_set_counts",
    "relations": "Relation equivalence_analysis factor_set fn_analysis fn_compose fn_inverse "
                 "from_predicate is_partial_order rel_compose rel_inverse rel_properties "
                 "rel_section",
    "algstruct": "Magma StructureClass cayley_table check_distributive classify_structure "
                 "inverses mod_add_table mod_mul_table",
    "complexn": "GaussianRational Polar arg_canonical arg_principal conj from_polar i_pow "
                "modulus modulus_sq polar_div polar_mul polar_of pow_int roots_n to_polar",
    "matrices": "EchelonReport Matrix adjugate cofactor cofactor_matrix det inverse matmul "
                "minor rank scale solve_matrix_equation transpose",
    "systems": "ConsistencyReport Inconsistent LinearSystem Parametric SolutionSet Unique "
               "homogeneous_analysis solve_cramer solve_gauss solve_inverse_method",
    "geometry": "HesseForm Line Plane Vec3 angle collinear coplanar cross decompose dot "
                "line_plane_relation line_two_points lines_relation mixed norm norm_sq "
                "plane_hesse plane_point_normal plane_segment_form plane_three_points "
                "planes_relation point_line_distance point_plane_distance proj_scalar "
                "tetra_volume triangle_area",
    "ratio": "Affine MixtureResult extended_split mixture_missing_intensity percent_chain "
             "percent_solve simple_mixture solve_proportion star_scheme",
    "parsing": "parse_complex parse_line parse_pairs parse_plane parse_relation parse_set "
               "parse_vec3",
    "errors": "",  # the module only
}
# public name -> (module, attribute in that module)
_SOURCES = {name: (module, name) for module, names in _EXPORTS.items() for name in names.split()}
_SOURCES["classify_system"] = ("systems", "classify")

__all__ = [*_SOURCES, *_EXPORTS]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attribute = _SOURCES[name]
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), attribute)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
