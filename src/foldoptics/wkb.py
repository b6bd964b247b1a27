"""Geometric-optics fields for the semiclassical Airy equation
eps^2 u'' + x u = 0 and phases for the linear layer.

The two-phase WKB field on 0 < x < x0 is the sum of the direct branch
(S-, Maslov index 0) and the branch reflected at the fold caustic x = 0
(S+, Maslov index 1).  The exact fundamental solution (point source at
x0, outgoing at +infinity) and its small-eps inner approximation provide
the reference fields the WKB and uniform expansions are checked against.
Scalars run as 1-element arrays, as numpy's scalar arithmetic can round
apart from its array loops, so a scalar call returns the array's element.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .rays import LinearLayerParams
from .specfun import airy, airy_ai

__all__ = [
    "CausticZoneWarning",
    "source_amplitude",
    "airy_wkb_branches",
    "airy_wkb_field",
    "airy_greens",
    "airy_inner_approx",
    "linear_layer_phases",
]

# Half-width of the boundary layer around the caustic where the WKB
# amplitude x^{-1/4} is no longer trustworthy, in units of eps^{2/3}.
CAUSTIC_ZONE_FACTOR = 10.0


class CausticZoneWarning(UserWarning):
    """Field evaluated inside the caustic boundary layer."""


def source_amplitude(x0: float) -> complex:
    """WKB amplitude of the wave at the source, alpha0 = e^{-i pi/4} x0^{-1/2}/2."""
    if x0 <= 0:
        raise ValueError("x0 must be positive")
    return 0.5 * complex(np.exp(-1j * math.pi / 4.0)) / math.sqrt(x0)


def airy_wkb_branches(x, x0: float):
    """Phases (S+, S-) and principal amplitudes (A+, A-) of the reflected (+)
    and direct (-) branches at x in (0, x0), scalar or array:

    S_pm(x) = +-(2/3) x^{3/2} + (2/3) x0^{3/2},
    A_- = alpha0 x0^{1/4} x^{-1/4},  A_+ = -i A_-  (one caustic touch).
    """
    a0 = source_amplitude(x0)  # raises unless x0 > 0
    c0, q = (2.0 / 3.0) * x0**1.5, x0**0.25
    x_arr = np.array(x, dtype=np.float64, ndmin=1)
    cubic, root4 = (2.0 / 3.0) * x_arr**1.5, x_arr ** (-0.25)
    values = [cubic + c0, -cubic + c0, -1j * a0 * q * root4, a0 * q * root4]
    values = [v.item() if np.ndim(x) == 0 else v for v in values]
    return tuple(values[:2]), tuple(values[2:])


def airy_wkb_field(x, epsilon: float, x0: float):
    """Two-phase WKB field on 0 < x < x0 (scalar or array x).

    u = alpha0 x0^{1/4} e^{i(2/3)x0^{3/2}/eps}
        (-i x^{-1/4} e^{i(2/3)x^{3/2}/eps} + x^{-1/4} e^{-i(2/3)x^{3/2}/eps}).

    Raises for x outside (0, x0); warns (CausticZoneWarning) when any point
    lies within 10 eps^{2/3} of the caustic, where the principal amplitude
    is no longer a good approximation.
    """
    if epsilon <= 0 or x0 <= 0:
        raise ValueError("epsilon and x0 must be positive")
    x_arr = np.array(x, dtype=np.float64, ndmin=1)
    if np.any(x_arr <= 0.0) or np.any(x_arr >= x0):
        raise ValueError("airy_wkb_field requires 0 < x < x0")
    if np.any(x_arr < CAUSTIC_ZONE_FACTOR * epsilon ** (2.0 / 3.0)):
        warnings.warn(
            "field point(s) inside the caustic boundary layer "
            f"(x < {CAUSTIC_ZONE_FACTOR} eps^(2/3)); WKB amplitude degraded",
            CausticZoneWarning,
            stacklevel=2,
        )
    a0 = source_amplitude(x0)
    phase0 = np.exp(1j * (2.0 / 3.0) * x0**1.5 / epsilon)
    osc = (2.0 / 3.0) * x_arr**1.5 / epsilon
    amp = x0**0.25 * x_arr ** (-0.25)
    # -i e^{i osc} + e^{-i osc} from one cos/sin pair, to the bit
    u = a0 * phase0 * amp * ((np.cos(osc) + np.sin(osc)) * (1 - 1j))
    return u.item() if np.ndim(x) == 0 else u


def airy_greens(x, x0: float, epsilon: float):
    """Exact outgoing fundamental solution of eps^2 u'' + x u = sigma delta(x - x0).

    With sigma = -i e^{-i pi/4} eps the solution is O(1) at +infinity:

        u(x) = i sigma pi eps^{-4/3} (Ai - i Bi)(-eps^{-2/3} x0) Ai(-eps^{-2/3} x),  x <= x0
        u(x) = i sigma pi eps^{-4/3} Ai(-eps^{-2/3} x0) (Ai - i Bi)(-eps^{-2/3} x),  x > x0

    Continuous at x0; the derivative jump carries the point source.
    """
    if epsilon <= 0 or x0 <= 0:
        raise ValueError("epsilon and x0 must be positive")
    a = epsilon ** (-2.0 / 3.0)
    coeff = math.pi * epsilon ** (-1.0 / 3.0) * complex(np.exp(-1j * math.pi / 4.0))
    v0 = airy(-a * x0)
    x_arr = np.array(x, dtype=np.float64, ndmin=1)
    v = airy(-a * x_arr)
    # Bi only where the x > x0 side reads it: deep in the shadow it overflows to inf
    left = x_arr <= x0
    bi = np.where(left, 0.0, v.bi)
    u = np.where(left, coeff * (v0.ai - 1j * v0.bi) * v.ai, coeff * v0.ai * (v.ai - 1j * bi))
    return u.item() if np.ndim(x) == 0 else u


def airy_inner_approx(x, x0: float, epsilon: float):
    """Uniform inner approximation of the fundamental solution:
    pi^{1/2} e^{-i pi/2} x0^{-1/4} e^{i(2/3)x0^{3/2}/eps} eps^{-1/6} Ai(-eps^{-2/3} x).

    Finite on the caustic and exponentially small in the shadow x < 0.
    """
    if epsilon <= 0 or x0 <= 0:
        raise ValueError("epsilon and x0 must be positive")
    coeff = (
        math.sqrt(math.pi)
        * complex(np.exp(-1j * math.pi / 2.0))
        * x0 ** (-0.25)
        * complex(np.exp(1j * (2.0 / 3.0) * x0**1.5 / epsilon))
        * epsilon ** (-1.0 / 6.0)
    )
    x_arr = np.array(x, dtype=np.float64, ndmin=1)
    u = coeff * airy_ai(-(epsilon ** (-2.0 / 3.0)) * x_arr)
    return u.item() if np.ndim(x) == 0 else u


def linear_layer_phases(y, z, p: LinearLayerParams):
    """The two geometric phases of the linear layer at (y, z), z <= h,
    scalar or broadcasting arrays:

    S_pm = (2/(3 mu1)) eta0^3 cos^3(psi) + eta0 y sin(psi)
           +- (2/(3 mu1)) beta(z)^3,
    beta = sqrt(eta0^2 cos^2(psi) + mu1 (z - h)).

    Raises if any point lies below the caustic depth (beta imaginary) or
    above the boundary.
    """
    scalar = np.ndim(y) == np.ndim(z) == 0
    y, z = np.atleast_1d(y, z)
    if np.any(z > p.h):
        raise ValueError("layer phases defined for z <= h")
    b = p.beta(z)  # raises below the caustic
    c = p.eta0 * math.cos(p.psi)
    common = (2.0 / (3.0 * p.mu1)) * c**3 + p.eta0 * y * math.sin(p.psi)
    cubic = (2.0 / (3.0 * p.mu1)) * b**3
    s_plus, s_minus = common + cubic, common - cubic
    return (s_plus.item(), s_minus.item()) if scalar else (s_plus, s_minus)
