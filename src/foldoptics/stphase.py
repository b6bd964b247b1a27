"""Stationary-phase engines for oscillatory integrals with large parameter.

Two regimes are covered: isolated nondegenerate points (standard formula)
and a pair of coalescing points (uniform Airy-form approximation).  The
uniform coefficients are obtained by asymptotic matching against the
two-point formula; only the leading pair (A0, B0) is carried.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .kl import kl_coordinates
from .specfun import airy

__all__ = [
    "CfuCoefficients",
    "SmallAlphaPoints",
    "standard_spa",
    "cfu_match",
    "cfu_eval",
    "cfu_small_alpha",
]

@dataclass(frozen=True)
class CfuCoefficients:
    """Cubic normal form phi0 + tau^3/3 - xi*tau with leading amplitudes."""

    phi0: float
    xi: float
    A0: complex
    B0: complex


@dataclass(frozen=True)
class SmallAlphaPoints:
    """Leading-order stationary pair near coalescence.

    When the reality condition fails the pair is a complex-conjugate one;
    `imaginary` is set and the locations keep their imaginary parts (it is
    the caller's decision whether such points contribute).
    """

    x1: complex
    x2: complex
    xi: float
    imaginary: bool


def standard_spa(f_at: complex, phi_at: float, phi_xx: float, lam: float) -> complex:
    """Single nondegenerate stationary-point contribution
    f(c) sqrt(2 pi/(lambda |phi''|)) e^{i lambda phi(c) + i mu pi/4},
    mu = sgn phi''."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if phi_xx == 0.0:
        raise ValueError("degenerate stationary point (phi'' = 0): use the CFU path")
    mu = 1.0 if phi_xx > 0 else -1.0
    return (
        f_at
        * math.sqrt(2.0 * math.pi / (lam * abs(phi_xx)))
        * cmath.exp(1j * lam * phi_at + 1j * mu * math.pi / 4.0)
    )


def cfu_match(phi_1, phi_2, f_1, f_2, phi_xx_1, phi_xx_2) -> CfuCoefficients:
    """Match the uniform Airy form against the two-point formula.

    Conventions: point 1 is the maximum (phi'' < 0) with the larger phase,
    point 2 the minimum (phi'' > 0).  The matching system is

        A0 xi^{-1/4} - B0 xi^{1/4} = sqrt(2) f1 / |phi''_1|^{1/2}
        A0 xi^{-1/4} + B0 xi^{1/4} = sqrt(2) f2 / (phi''_2)^{1/2}

    solved exactly for (A0, B0).  The data broadcast: scalars give float
    (phi0, xi) and complex (A0, B0), arrays give arrays, and each
    convention raises if any pair breaks it.
    """
    data = (phi_1, phi_2, f_1, f_2, phi_xx_1, phi_xx_2)
    scalar = all(np.ndim(v) == 0 for v in data)
    # on 1-d operands a scalar call runs numpy's array loops too, whose pow
    # can differ by an ulp from its scalar arithmetic
    phi_1, phi_2, f_1, f_2, phi_xx_1, phi_xx_2 = np.atleast_1d(*data)
    # (phi0, xi) is the (phi, rho) pair of the uniform field; raises on phi_1 < phi_2
    phi0, xi = kl_coordinates(phi_1, phi_2)
    if not np.all((phi_xx_1 < 0.0) & (0.0 < phi_xx_2)):
        raise ValueError("curvature signs violated: need phi''_1 < 0 < phi''_2")
    if np.any(phi_1 == phi_2):
        raise ValueError("coalesced stationary points (xi = 0): use cfu_small_alpha")
    r1 = f_1 / np.sqrt(np.abs(phi_xx_1))
    r2 = f_2 / np.sqrt(phi_xx_2)
    A0 = xi**0.25 * (r1 + r2) / math.sqrt(2.0)
    B0 = xi**-0.25 * (r2 - r1) / math.sqrt(2.0)
    if scalar:
        return CfuCoefficients(phi0.item(), xi.item(), A0.item(), B0.item())
    return CfuCoefficients(phi0, xi, A0, B0)


def cfu_eval(c: CfuCoefficients, lam):
    """Two-term uniform value
    e^{i lambda phi0} [2 pi A0 lambda^{-1/3} Ai(-lambda^{2/3} xi)
                       - 2 pi i B0 lambda^{-2/3} Ai'(-lambda^{2/3} xi)],
    complex for scalar coefficients and lambda (run as 1-element arrays, as
    in cfu_match), otherwise a complex array of their broadcast shape."""
    scalar = not any(np.ndim(a) for a in (c.phi0, c.xi, c.A0, c.B0, lam))
    phi0, xi, a0, b0, lam = np.atleast_1d(c.phi0, c.xi, c.A0, c.B0, np.asarray(lam, dtype=float))
    if np.any(lam <= 0):
        raise ValueError("lambda must be positive")
    v = airy(-(lam ** (2.0 / 3.0)) * xi)
    u = np.exp(1j * lam * phi0) * (
        2.0 * math.pi * a0 * lam ** (-1.0 / 3.0) * v.ai
        - 2.0j * math.pi * b0 * lam ** (-2.0 / 3.0) * v.ai_prime
    )
    return u.item() if scalar else u


def cfu_small_alpha(
    phi_xxx: float, phi_x_alpha: float, alpha: float
) -> SmallAlphaPoints:
    """Leading stationary pair of the unfolded phase near coalescence:

    x_{1,2} = -+ (-2 phi_xxx phi_xalpha alpha)^{1/2} / phi_xxx,
    xi = -2^{1/3} phi_xalpha phi_xxx^{-1/3} alpha.

    Cube roots are real (sign-carrying); a negative radicand produces the
    conjugate-imaginary pair with the `imaginary` flag set.
    """
    if phi_xxx == 0.0:
        raise ValueError("phi_xxx must be nonzero for a fold unfolding")
    radicand = -2.0 * phi_xxx * phi_x_alpha * alpha
    xi = -(2.0 ** (1.0 / 3.0)) * phi_x_alpha * alpha / np.cbrt(phi_xxx)
    root = math.sqrt(radicand) if radicand >= 0.0 else 1j * math.sqrt(-radicand)
    return SmallAlphaPoints(
        x1=-root / phi_xxx, x2=root / phi_xxx, xi=float(xi), imaginary=radicand < 0.0
    )
