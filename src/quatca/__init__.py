"""Exact computer algebra over the rational quaternions.

The kernel covers: quaternion and centralizer arithmetic; one-variable
polynomials with a central indeterminate (one-sided evaluation, division,
gcrd/lclm, root classes, conjugation root spaces, minimal and Wedderburn
polynomials); the recursive rational criteria for independence and
algebraic degree over centralizers; and the multivariate layer of commuting
points, point ideals, common-eigenvector extraction from commuting matrix
actions, and power-membership certificates.

Every answer is exact, with no tolerances: floats only propose candidate
factors of central polynomials, and exact arithmetic decides every answer.
Searches that can fail over rational scalars (root finding, certificate
search) report failure as a distinct outcome instead of approximating.
"""

from .errors import InternalError, InvalidInput, ParseError
from .modules import (
    EigenTuple,
    ModulePresentation,
    RootNotFound,
    annihilator_minpoly,
    find_eigen_tuple,
)
from .mpoly import (
    CommutingPoint,
    LeftIdeal,
    MPoly,
    NotFoundWithinBounds,
    RabinowitschCertificate,
    eval_at_point,
    find_certificate,
    point_ideal,
    rabinowitsch_check,
    reduce_mod_point,
)
from .parsing import (
    parse_mpoly,
    parse_quat,
    parse_upoly,
)
from .ratexpr import (
    algebraicity_witness,
    independent_via_criterion,
    independent_via_rank,
    left_degree_via_criterion,
    left_degree_via_rank,
    right_degree,
)
from .scalars import (
    Centralizer,
    Quat,
    centralizer_of_set,
    commutator,
    find_conjugator,
    left_linear_solve,
)
from .upoly import (
    Isolated,
    RootSearchStatus,
    RootSpaceBasis,
    Sphere,
    UPoly,
    gcrd,
    lclm,
    left_roots,
    minimal_left_poly,
    minimal_right_poly,
    right_roots,
    root_space,
    root_space_dim,
    wedderburn_lclm,
)

__version__ = "0.1.0"
