"""Matrix-cube relaxation constants, beta-distribution equipoints and
medians, Monte Carlo sphere oracles, linear pencils, and explicit commuting
dilations."""

from .betastats import (
    BetaShape,
    binom_tail,
    equipoint,
    equipoint_bounds,
    median,
    median_bounds,
    phi_functions,
)
from .dilation import (
    DilationResult,
    SpinSystem,
    ball_membership,
    blockdiag_dilation,
    defect_sqrt,
    oh_to_spin_choi,
    spin2_dilation,
    spin2_extreme,
    spin_matrices,
    spin_tensor_norm,
)
from .errors import DomainError, NumericError, ResourceError, SpectraThetaError
from .pencil import (
    MonicPencil,
    SymTuple,
    cube_pencil,
    cube_relaxation_test,
    evaluate,
    haar_orthogonal,
    in_free_spectrahedron,
    pencil_from_json,
    pencil_to_json,
    sharpness_witness,
    symtuple_from_json,
    symtuple_to_json,
)
from .specfun import BetaArgs, ln_gamma, reg_inc_beta, reg_inc_beta_inv
from .sphere_oracle import (
    McEstimate,
    e_j_matrix,
    sign_quadratic_moment,
    sphere_abs_quadratic_integral,
)
from .theta import (
    SignDiag,
    ThetaReport,
    alpha_beta,
    f_g_h,
    kappa,
    kappa_star,
    sigma_st,
    theta,
    theta_odd_bounds,
    thetas,
)

__version__ = "0.1.0"
