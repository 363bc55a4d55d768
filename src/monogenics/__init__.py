"""Exact Clifford-algebra arithmetic, monogenic extension maps, sphere
transforms and coherent state transforms, with desk-scale verification."""

from .clifford import (
    CliffordElement,
    Paravector,
    clifford_conjugate,
    geometric_product,
    hermitian_conjugate,
)
from .constants import CoreConstants, constants, sphere_area
from .scalars import PiScalar, Radical
from .poly import (
    CliffordPolynomial,
    OperatorTag,
    apply_operator,
    is_monogenic,
    paravector_power,
)
from .laurent import LaurentPoly
from .extensions import (
    AxialSeries,
    IntrinsicPair,
    SliceFunction,
    appell_Q,
    appell_sum,
    gck_bessel_form,
    gck_extension,
    intrinsic_split,
    slice_extension,
)
from .axial import AxialClosedForm, DomainError, RhoExpr
from .kernels import (
    cauchy_kernel,
    kelvin_inversion,
    monogenic_monomial,
    verify_monomial_identities,
)
from .fueter import (
    FueterResult,
    radial_route_components,
    laplacian_power_route,
    fueter_on_laurent,
    fueter_on_power,
)
from .sphere import (
    ExactMonomialRule,
    MonteCarloRule,
    NodeRule,
    ProductGaussRule,
    funk_hecke_constants,
)
from .radon import (
    cauchy_plane_wave_check,
    dual_radon,
    monomial_plane_wave_check,
    plane_wave_gck_check,
)
from .gausspoly import GaussPoly, hermite_function
from .cst import (
    SliceValue,
    TruncationError,
    axial_cst,
    axial_cst_radon_route,
    classical_cst,
    fueter_cst,
    fueter_cst_routes,
    heat_semigroup,
    slice_cst,
    slice_cst_fourier,
    unitarity_check,
    unitarity_gram,
)
from .suites import OP_REGISTRY, run_suite, export_payload

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
