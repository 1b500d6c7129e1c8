"""exactmath: an exact-arithmetic desk-mathematics kernel.

Rational scalars everywhere (fractions.Fraction), with number theory,
combinatorics, propositional logic, finite sets/relations/algebra, complex
numbers, rational matrices, linear-system solving, 3D analytic geometry,
and proportion/percent/mixture calculators.
"""

from .rationals import Rational, parse_rational
from .arith import (
    Digits,
    divides,
    divmod_euclid,
    factorize,
    from_base,
    gcd,
    is_prime,
    lcm,
    to_base,
)
from .combin import (
    Monomial,
    binom,
    binom_expand,
    binom_term,
    closed_form_sum,
    factorial,
    sum_kinds,
)
from .logic import (
    And,
    Atom,
    Classification,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    TruthTable,
    Xor,
    classify,
    equivalent,
    evaluate,
    parse_formula,
    print_formula,
    truth_table,
)
from .sets import FinSet, cartesian, complement, powerset, set_ops, three_set_counts
from .relations import (
    Relation,
    equivalence_analysis,
    factor_set,
    fn_analysis,
    fn_compose,
    fn_inverse,
    from_predicate,
    is_partial_order,
    rel_compose,
    rel_inverse,
    rel_properties,
    rel_section,
)
from .algstruct import (
    Magma,
    StructureClass,
    cayley_table,
    check_distributive,
    classify_structure,
    inverses,
    mod_add_table,
    mod_mul_table,
)
from .complexn import (
    GaussianRational,
    Polar,
    arg_canonical,
    arg_principal,
    conj,
    from_polar,
    i_pow,
    modulus,
    modulus_sq,
    polar_div,
    polar_mul,
    polar_of,
    pow_int,
    roots_n,
    to_polar,
)
from .matrices import (
    EchelonReport,
    Matrix,
    adjugate,
    cofactor,
    cofactor_matrix,
    det,
    inverse,
    matmul,
    minor,
    rank,
    scale,
    solve_matrix_equation,
    transpose,
)
from .systems import (
    ConsistencyReport,
    Inconsistent,
    LinearSystem,
    Parametric,
    SolutionSet,
    Unique,
    homogeneous_analysis,
    solve_cramer,
    solve_gauss,
    solve_inverse_method,
)
from .systems import classify as classify_system
from .geometry import (
    HesseForm,
    Line,
    Plane,
    Vec3,
    angle,
    collinear,
    coplanar,
    cross,
    decompose,
    dot,
    line_plane_relation,
    line_two_points,
    lines_relation,
    mixed,
    norm,
    norm_sq,
    plane_hesse,
    plane_point_normal,
    plane_segment_form,
    plane_three_points,
    planes_relation,
    point_line_distance,
    point_plane_distance,
    proj_scalar,
    tetra_volume,
    triangle_area,
)
from .ratio import (
    Affine,
    MixtureResult,
    extended_split,
    mixture_missing_intensity,
    percent_chain,
    percent_solve,
    simple_mixture,
    solve_proportion,
    star_scheme,
)
from .parsing import (
    parse_complex,
    parse_line,
    parse_pairs,
    parse_plane,
    parse_relation,
    parse_set,
    parse_vec3,
)
from . import errors

__version__ = "0.1.0"
