"""Kravtsov-Ludwig uniformization of a two-phase field near a fold.

The two geometric phases S+ >= S- are replaced by the pair
phi = (S+ + S-)/2, rho = ((3/4)(S+ - S-))^{2/3}, and the two blowing-up
amplitudes by the modified pair (g0, g1), finite across the caustic.  The
resulting Airy-form field agrees with both WKB branches away from the
caustic and stays bounded on it.

Each function takes values at the field points, not functions of x: scalars
give a float (phi, rho) or complex (g0, g1, field), arrays an array of their
broadcast shape; scalars run as 1-element arrays, so a scalar call returns
the array's element.  Each per-point refusal raises if any point violates it.
"""

from __future__ import annotations

import math

import numpy as np

from .specfun import airy

__all__ = [
    "kl_coordinates",
    "kl_amplitudes",
    "kl_field",
]


# |A+ + iA-| at or below this fraction of max(|A+| + |A-|, 1) counts as a
# vanishing combination in g1
_VANISH_TOL = 1e-12


def kl_coordinates(s_plus, s_minus):
    """(phi, rho): phi = (S+ + S-)/2 and rho = ((3/4)(S+ - S-))^{2/3}.

    Requires S+ >= S- pointwise; an ordering that fails at any point raises
    rather than returning a complex rho.
    """
    scalar = np.ndim(s_plus) == np.ndim(s_minus) == 0
    s_plus, s_minus = np.atleast_1d(s_plus, s_minus)
    gap = s_plus - s_minus
    if np.any(gap < 0.0):
        raise ValueError("phase ordering violated: S+ < S-")
    phi, rho = 0.5 * (s_plus + s_minus), (0.75 * gap) ** (2.0 / 3.0)
    return (phi.item(), rho.item()) if scalar else (phi, rho)


def kl_amplitudes(a_plus, a_minus, rho):
    """(g0, g1): the modified amplitudes g0 = (rho^{1/4}/sqrt2)(A+ - iA-),
    g1 = (rho^{-1/4}/sqrt2)(A+ + iA-).

    Where the combination A+ + iA- vanishes g1 is zero, and rho^{-1/4} is
    not taken there, so g1 is clean on the caustic.  A nonvanishing
    combination at rho = 0 is a genuine singularity and raises.
    """
    scalar = np.ndim(a_plus) == np.ndim(a_minus) == np.ndim(rho) == 0
    a_plus, a_minus, rho = np.atleast_1d(a_plus, a_minus, rho)
    g0 = (rho**0.25 / math.sqrt(2.0)) * (a_plus - 1j * a_minus)
    combo = a_plus + 1j * a_minus
    scale = np.abs(a_plus) + np.abs(a_minus)
    live = ~(np.abs(combo) <= _VANISH_TOL * np.maximum(scale, 1.0))
    # 1 stands in for rho where the combination vanishes
    r = np.where(live, rho, 1.0)
    if np.any(live & (r == 0.0)):
        raise ZeroDivisionError("g1 singular: A+ + iA- does not vanish on the caustic")
    g1 = np.where(live, (r**-0.25 / math.sqrt(2.0)) * combo, 0.0)
    return (g0.item(), g1.item()) if scalar else (g0, g1)


def kl_field(phi, rho, g0, g1, epsilon: float):
    """Uniform Airy-form field
    sqrt(2 pi) eps^{-1/6} e^{i pi/4} e^{i phi/eps}
    (g0 Ai(-eps^{-2/3} rho) + i eps^{1/3} g1 Ai'(-eps^{-2/3} rho)),
    complex for scalar values, a complex array for arrays."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    scalar = not any(np.ndim(a) for a in (phi, rho, g0, g1))
    phi, rho, g0, g1 = np.atleast_1d(phi, rho, g0, g1)
    v = airy(-(epsilon ** (-2.0 / 3.0)) * rho)
    u = (
        math.sqrt(2.0 * math.pi)
        * epsilon ** (-1.0 / 6.0)
        * complex(np.exp(1j * math.pi / 4.0))
        * np.exp(1j * phi / epsilon)
        * (g0 * v.ai + 1j * epsilon ** (1.0 / 3.0) * g1 * v.ai_prime)
    )
    return u.item() if scalar else u
