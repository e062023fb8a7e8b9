"""Exact logarithmic formal calculus and logarithmic intertwining operators.

The library works over the ring Q(zeta_24)[Pi, Pi^-1] (Pi standing for the
constant pi*i), with formal-variable exponents on the lattice (1/L)Z[i] for
the fixed bound L = ``LATTICE`` = 12, so every identity is checked by exact
equality rather than within a tolerance.
"""

from .scalars import (
    LATTICE,
    ExactScalar,
    Exponent,
    LatticeViolation,
    UnsupportedDivision,
    binom_general,
    imaginary_unit,
    pi_scalar,
    root_of_unity,
    zeta_power,
)
from .series import (
    SCALAR,
    CoeffSpace,
    CoeffVector,
    LogSeries,
    Monomial,
    UndefinedProduct,
    VariableCollision,
    cut_powers,
    kth_derivative_closed_form,
)
from .substitution import (
    series_exp,
    series_log1p,
    subst_scaled_exp,
    subst_x_exp_y,
    subst_x_inverse,
    subst_x_plus_y,
    subst_xy,
)
from .matrix import ExactMatrix, nullspace
from .combinatorics import (
    comb_identity_sides,
    lubell_refinement,
    lubell_sides,
    pascal_pair,
    vandermonde_pair,
)
from .mobius import (
    GradingGroup,
    MobiusModule,
    NonTerminating,
    conj_identity_check,
    contragredient,
    e_aL0,
    module_valid,
    pairing_value,
    validate_sl2,
    x_pm_L0,
)
from .intertwiner import (
    IntertwinerTable,
    VertexTable,
    a_r,
    axiom_check,
    compose_with_homs,
    decompose,
    delta_relation_check,
    identity_vertex_table,
    jacobi_check_window,
    ode_structure_check,
    omega_r,
    recover_modes,
    shift_s1s2s3,
    solve_fusion_space,
    subst_table_scaled,
    weight_formulas_check,
    x_t,
)
from .parser import ParseError, parse_expr, parse_exponent, parse_scalar
from .printer import exponent_str, monomial_str, scalar_str, series_str
from .reports import CheckResult, Report

__version__ = "0.1.0"
