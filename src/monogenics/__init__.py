"""Exact Clifford-algebra arithmetic, monogenic extension maps, sphere
transforms and coherent state transforms, with desk-scale verification.

The exact core imported here needs only the standard library.  The numeric
layer, numpy with ``sphere``, ``gausspoly`` and ``cst``, loads as one unit
on the first lookup of one of its names, which are then bound here.
"""

from .clifford import (CliffordElement, Paravector, clifford_conjugate, geometric_product,
                       hermitian_conjugate)
from .constants import CoreConstants, constants, sphere_area
from .scalars import PiScalar, Radical
from .poly import CliffordPolynomial, OperatorTag, apply_operator, is_monogenic, paravector_power
from .laurent import LaurentPoly
from .extensions import (AxialSeries, IntrinsicPair, SliceFunction, appell_Q, appell_sum,
                         gck_bessel_form, gck_extension, intrinsic_split, slice_extension)
from .axial import AxialClosedForm, DomainError, RhoExpr
from .kernels import cauchy_kernel, kelvin_inversion, monogenic_monomial, verify_monomial_identities
from .fueter import (FueterResult, radial_route_components, laplacian_power_route,
                     fueter_on_laurent, fueter_on_power)
from .radon import cauchy_plane_wave_check, dual_radon, monomial_plane_wave_check, plane_wave_gck_check
from .suites import OP_REGISTRY, run_suite, export_payload

__all__ = [
    "AxialClosedForm", "AxialSeries", "CliffordElement", "CliffordPolynomial", "CoreConstants",
    "DomainError", "ExactMonomialRule", "FueterResult", "GaussPoly", "IntrinsicPair",
    "LaurentPoly", "MonteCarloRule", "NodeRule", "OP_REGISTRY", "OperatorTag", "Paravector",
    "PiScalar", "ProductGaussRule", "Radical", "RhoExpr", "SliceFunction", "SliceValue",
    "TruncationError", "appell_Q", "appell_sum", "apply_operator", "axial", "axial_cst",
    "axial_cst_radon_route", "cauchy_kernel", "cauchy_plane_wave_check", "classical_cst",
    "clifford", "clifford_conjugate", "constants", "cst", "dual_radon", "export_payload",
    "extensions", "fueter", "fueter_cst", "fueter_cst_routes", "fueter_on_laurent",
    "fueter_on_power", "funk_hecke_constants", "gausspoly", "gck_bessel_form", "gck_extension",
    "geometric_product", "heat_semigroup", "hermite_function", "hermitian_conjugate",
    "intrinsic_split", "is_monogenic", "kelvin_inversion", "kernels", "laplacian_power_route",
    "laurent", "monogenic_monomial", "monomial_plane_wave_check", "monomial_sphere_integral",
    "paravector_power", "plane_wave_gck_check", "poly", "radial_route_components", "radon",
    "run_suite", "scalars", "slice_cst", "slice_cst_fourier", "slice_extension", "sphere",
    "sphere_area", "suites", "unitarity_check", "unitarity_gram", "verify_monomial_identities",
]
__version__ = "0.1.0"
# the numeric layer's names: those of __all__ that the exact core above leaves unbound
_NUMERIC = frozenset(__all__) - globals().keys()


def __getattr__(name: str):
    if name not in _NUMERIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module   # not "from . import": its hasattr would recurse here

    layer = {m: import_module(f"{__name__}.{m}") for m in ("sphere", "gausspoly", "cst")}
    for module in list(layer.values()):
        layer.update((n, v) for n, v in vars(module).items() if n in _NUMERIC)
    globals().update(layer)
    return layer[name]


def __dir__() -> list[str]:
    return sorted(globals().keys() | _NUMERIC)
