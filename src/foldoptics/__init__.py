"""Two-phase geometric optics beyond caustics: WKB fields, uniform Airy
fields, and semiclassical Wigner functions for the fold singularity."""

__version__ = "0.1.0"

from .specfun import AiryValues, airy, airy_ai, airy_square_integral
from .rays import (
    LinearLayerParams,
    RayPath,
    RefractionProfile1D,
    airy_profile,
    airy_ray_closed,
    constant_profile,
    find_caustic,
    integrate_hamiltonian,
    linear_layer_caustic_depth,
    linear_layer_jacobian,
    linear_layer_momentum,
    linear_layer_ray,
)
from .wkb import (
    CausticZoneWarning,
    airy_greens,
    airy_inner_approx,
    airy_wkb_branches,
    airy_wkb_field,
    linear_layer_phases,
    source_amplitude,
)
from .kl import kl_amplitudes, kl_coordinates, kl_field
from .stphase import (
    CfuCoefficients,
    SmallAlphaPoints,
    cfu_eval,
    cfu_match,
    cfu_small_alpha,
    standard_spa,
)
from .wigner import (
    LagrangianCurve,
    PhaseSpaceGrid,
    QuadraturePolicy,
    TruncationWarning,
    WaveFunctionSampler,
    semiclassical_wigner_uniform,
    wigner_exact_airy,
    wigner_moment0,
    wigner_moment1,
    wigner_numeric,
)
from .surgery import (
    NoStationaryPointWarning,
    RegionLabel,
    SingularCurvatureWarning,
    StationaryTable,
    combined_wkb_wigner,
    diagonal_asymptotics,
    k_integral_amplitude,
    offdiagonal_asymptotics,
    stationary_table,
    stationary_wigner_residual,
)
