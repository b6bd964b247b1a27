"""Kravtsov-Ludwig uniformization of a two-phase field near a fold.

The two geometric phases S+ >= S- are replaced by the pair
phi = (S+ + S-)/2, rho = ((3/4)(S+ - S-))^{2/3}, and the two blowing-up
amplitudes by the modified pair (g0, g1), finite across the caustic.  The
resulting Airy-form field agrees with both WKB branches away from the
caustic and stays bounded on it.

Coordinates, amplitudes and the field are array in/array out: a scalar x
gives a float (phi, rho) or complex (g0, g1, field), an array x an array
of its shape.  Each per-point refusal raises if any point violates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .rays import _central_differences
from .specfun import airy

__all__ = [
    "KlCoordinates",
    "KlAmplitudes",
    "kl_coordinates",
    "kl_amplitudes",
    "kl_field",
    "kl_phase_residual_2d",
]


# |A+ + iA-| at or below this fraction of max(|A+| + |A-|, 1) counts as a
# vanishing combination in g1
_VANISH_TOL = 1e-12

# Relative central-difference step of the phase-system residuals.
_FD_STEP = 1e-6

# a function of x, array in/array out: a scalar for a scalar x, an array
# of its shape for an array x
PointFunction = Callable[[ArrayLike], ArrayLike]


@dataclass(frozen=True)
class KlCoordinates:
    phi: PointFunction
    rho: PointFunction


@dataclass(frozen=True)
class KlAmplitudes:
    g0: PointFunction
    g1: PointFunction


def kl_coordinates(S_plus: PointFunction, S_minus: PointFunction) -> KlCoordinates:
    """phi = (S+ + S-)/2 and rho = ((3/4)(S+ - S-))^{2/3}.

    Requires S+ >= S- pointwise; evaluation where the ordering fails at
    any point raises rather than returning a complex rho.
    """

    def phi(x):
        return 0.5 * (S_plus(x) + S_minus(x))

    def rho(x):
        gap = S_plus(x) - S_minus(x)
        if np.any(gap < 0.0):
            raise ValueError("phase ordering violated: S+ < S-")
        return (0.75 * gap) ** (2.0 / 3.0)

    return KlCoordinates(phi=phi, rho=rho)


def kl_amplitudes(
    A_plus: PointFunction, A_minus: PointFunction, rho: PointFunction
) -> KlAmplitudes:
    """Modified amplitudes g0 = (rho^{1/4}/sqrt2)(A+ - iA-),
    g1 = (rho^{-1/4}/sqrt2)(A+ + iA-).

    Where the combination A+ + iA- vanishes g1 is zero, and rho^{-1/4} is
    not taken there, so g1 is clean on the caustic; where it vanishes at
    every point rho is not evaluated at all.  A nonvanishing combination
    at rho = 0 is a genuine singularity and raises.
    """

    def g0(x):
        return (rho(x) ** 0.25 / math.sqrt(2.0)) * (A_plus(x) - 1j * A_minus(x))

    def g1(x):
        ap, am = A_plus(x), A_minus(x)
        combo = ap + 1j * am
        scale = np.abs(ap) + np.abs(am)
        live = ~(np.abs(combo) <= _VANISH_TOL * np.maximum(scale, 1.0))
        # 1 stands in for rho where the combination vanishes
        r = np.where(live, rho(x), 1.0) if np.any(live) else 1.0
        if np.any(live & (r == 0.0)):
            raise ZeroDivisionError("g1 singular: A+ + iA- does not vanish on the caustic")
        out = np.where(live, (r ** -0.25 / math.sqrt(2.0)) * combo, 0.0)
        return complex(out) if np.ndim(out) == 0 else out

    return KlAmplitudes(g0=g0, g1=g1)


def kl_field(coords: KlCoordinates, amps: KlAmplitudes, epsilon: float, x):
    """Uniform Airy-form field
    sqrt(2 pi) eps^{-1/6} e^{i pi/4} e^{i phi/eps}
    (g0 Ai(-eps^{-2/3} rho) + i eps^{1/3} g1 Ai'(-eps^{-2/3} rho)),
    complex for scalar x, a complex array for array x."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    rho = coords.rho(x)
    v = airy(-(epsilon ** (-2.0 / 3.0)) * rho)
    u = (
        math.sqrt(2.0 * math.pi)
        * epsilon ** (-1.0 / 6.0)
        * complex(np.exp(1j * math.pi / 4.0))
        * np.exp(1j * coords.phi(x) / epsilon)
        * (
            amps.g0(x) * v.ai
            + 1j * epsilon ** (1.0 / 3.0) * amps.g1(x) * v.ai_prime
        )
    )
    return complex(u) if np.ndim(u) == 0 else u


def kl_phase_residual_2d(
    phi: Callable[[ArrayLike, ArrayLike], ArrayLike],
    rho: Callable[[ArrayLike, ArrayLike], ArrayLike],
    eta_squared: Callable[[ArrayLike, ArrayLike], ArrayLike],
    points: Sequence,
) -> list:
    """Residuals of the phase system on (y, z) points, with derivatives by
    central differences: r1 = |grad phi|^2 + rho |grad rho|^2 - eta^2,
    r2 = grad phi . grad rho.  phi, rho and eta_squared take arrays of y
    and z; a one-dimensional system is the case y = 0 with fields that do
    not depend on y.  Returns [(r1, r2), ...]."""
    y, z = np.asarray(points, dtype=float).reshape(-1, 2).T
    fields = (phi, rho)
    py, ry = (_central_differences(lambda u: f(u, z), y, _FD_STEP)[0] for f in fields)
    pz, rz = (_central_differences(lambda u: f(y, u), z, _FD_STEP)[0] for f in fields)
    r1 = py**2 + pz**2 + rho(y, z) * (ry**2 + rz**2) - eta_squared(y, z)
    r2 = py * ry + pz * rz
    return list(zip(r1.tolist(), r2.tolist()))
