"""The package namespace: every public name is the object that its module
defines, and modules are reachable as attributes."""

import importlib

import pytest

import exactmath

PUBLIC = {
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
}


@pytest.mark.parametrize("module", PUBLIC)
def test_public_names_are_their_modules_objects(module):
    source = importlib.import_module(f"exactmath.{module}")
    assert getattr(exactmath, module) is source
    for name in PUBLIC[module].split():
        assert getattr(exactmath, name) is getattr(source, name), name
        assert name in dir(exactmath)


def test_aliases_modules_and_unknown_names():
    from exactmath import classify_system, errors, systems

    assert classify_system is systems.classify
    assert errors is importlib.import_module("exactmath.errors")
    assert exactmath.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        exactmath.no_such_name
    with pytest.raises(ImportError):
        from exactmath import no_such_name  # noqa: F401
