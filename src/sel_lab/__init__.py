"""Numerical laboratory for singular and blow-up radial elliptic problems.

Classifies existence conditions for large solutions, computes entire and
boundary-blow-up solutions by monotone constructive iterations, evaluates
regular-variation rate constants, and traces bifurcation diagrams for
singular Lane-Emden-Fowler problems.
"""

from .bifurcation import (
    BifurcationDiagram,
    EigenResult,
    LEFProblem,
    gelfand_solvable,
    gelfand_transform,
    lambda1_ball,
    lambda_inf_1,
    solve_lef,
    sweep,
    young_constant,
)
from .expr import (
    EvalDomainError,
    ExprAst,
    ParseError,
    ScalarFn,
    differentiate,
    parse_expression,
    to_source,
)
from .karamata import (
    EllEstimate,
    KFunction,
    Nonlinearity,
    TwoTermSpec,
    analyze_nonlinearity,
    analyze_singular_term,
    chi_two_term,
    ell_limits,
    keller_osserman,
    make_k,
    necessary_condition_entire,
    rv_index,
    xi0_power,
    xi0_via_A,
)
from .numerics import (
    ConvergenceVerdict,
    RadialSolution,
    classify_origin_integral,
    classify_tail_integral,
    find_root_monotone,
    integrate_finite,
)
from .profile import BlowupProfile, build_profile
from .radial import (
    LogisticProblem,
    RadialPotential,
    SystemProblem,
    boundary_blowup,
    check_large_condition,
    check_slow_variation,
    measure_boundary_rate,
    picard_gradient_entire,
    solve_system,
)

__version__ = "0.1.0"
