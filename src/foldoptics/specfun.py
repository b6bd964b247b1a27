"""Airy functions and the closed-form oscillatory integrals built on them.

The Airy pair (Ai, Bi) and first derivatives come from scipy.special.airy
in the central band |z| <= switch radius, and beyond it from the standard
large-argument asymptotic expansions (DLMF 9.7), summed here by Horner's
rule, which are several times faster than scipy there at the same
accuracy.  Against mpmath at 30 digits the largest relative error on
[-100, 30] is 1e-13, relative to the modulus sqrt(Ai^2 + Bi^2) on z < 0;
scipy's share of that was checked on scipy 1.17.1 only, against the
declared floor scipy >= 1.10.  The module also provides two exact
integral identities used throughout the phase-space code: the full-line
integral of Ai over a quadratic argument (which produces Ai^2) and the
half-line Fourier integral of a power.

Everything here is real-argument only.  The downstream semiclassical code
never needs complex Airy arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "AccuracyPolicy",
    "AiryValues",
    "DEFAULT_POLICY",
    "airy",
    "airy_square_integral",
    "fourier_power_integral",
]

_N_ASYMPTOTIC_TERMS = 46


def _asymptotic_coefficients(n):
    """u_k, v_k of the Airy asymptotic expansions (DLMF 9.7.2)."""
    u = np.empty(n)
    v = np.empty(n)
    u[0] = 1.0
    v[0] = 1.0
    for k in range(n - 1):
        u[k + 1] = u[k] * (6 * k + 1) * (6 * k + 3) * (6 * k + 5) / (
            216.0 * (k + 1) * (2 * k + 1)
        )
        v[k + 1] = u[k + 1] * (6 * (k + 1) + 1) / (1.0 - 6 * (k + 1))
    return u, v


_U, _V = _asymptotic_coefficients(_N_ASYMPTOTIC_TERMS)


@dataclass(frozen=True)
class AccuracyPolicy:
    """Evaluation tolerances shared across the package.

    abs_tol and rel_tol are the guarantees the special-function layer is
    allowed to assume when it compares two quantities (for example when
    deciding that an amplitude combination vanishes identically).
    series_asymptotic_switch is the |z| radius beyond which the Airy
    evaluation leaves scipy.special.airy for the asymptotic expansions,
    on both sides of the origin.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-9
    series_asymptotic_switch: float = 7.8

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.series_asymptotic_switch <= 0:
            raise ValueError("series_asymptotic_switch must be positive")


DEFAULT_POLICY = AccuracyPolicy()


@dataclass(frozen=True)
class AiryValues:
    """Ai, Bi and first derivatives on a common set of points."""

    ai: np.ndarray
    ai_prime: np.ndarray
    bi: np.ndarray
    bi_prime: np.ndarray


def _even_odd(zeta, sign, coeffs):
    """(E, O) with E = sum_k coeffs[2k] w^k and O = sum_k coeffs[2k+1] w^k / zeta,
    w = sign/zeta^2, each summed in one Horner pass.  With sign = +1,
    E - O and E + O are the series in -1/zeta and +1/zeta of the
    exponential expansions; with sign = -1, E and O are the even and odd
    parts of the oscillatory ones.

    The term count is fixed per call from the smallest zeta present,
    n = min(46, floor(2 zeta_min)), and at least 2 so that both parts have
    a term: the terms shrink until k ~ 2 zeta, so this is the optimal
    truncation for the worst point, and every larger zeta is truncated no
    later than its own optimum.
    """
    n = min(_N_ASYMPTOTIC_TERMS, max(2, int(2.0 * zeta.min())))
    inv = 1.0 / zeta
    w = sign * inv * inv
    parts = []
    for tail in (coeffs[0:n:2][::-1], coeffs[1:n:2][::-1]):
        acc = np.full_like(zeta, tail[0])
        for c in tail[1:]:
            acc = acc * w + c
        parts.append(acc)
    return parts[0], parts[1] * inv


def _asymptotic_positive(z):
    zeta = (2.0 / 3.0) * z ** 1.5
    root4 = z ** 0.25
    # the Ai series alternates (-1/zeta), the Bi series does not (+1/zeta)
    ue, uo = _even_odd(zeta, 1.0, _U)
    ve, vo = _even_odd(zeta, 1.0, _V)
    expm = np.exp(-zeta)
    sqrt_pi = math.sqrt(math.pi)
    ai = expm / (2.0 * sqrt_pi * root4) * (ue - uo)
    aip = -root4 * expm / (2.0 * sqrt_pi) * (ve - vo)
    # Bi legitimately exceeds float range beyond z ~ 104; inf is the
    # honest saturation value there
    with np.errstate(over="ignore"):
        expp = np.exp(zeta)
        bi = expp / (sqrt_pi * root4) * (ue + uo)
        bip = root4 * expp / sqrt_pi * (ve + vo)
    return ai, aip, bi, bip


def _asymptotic_negative(z):
    t = -z
    zeta = (2.0 / 3.0) * t ** 1.5
    root4 = t ** 0.25
    chi = zeta - 0.25 * math.pi
    # Even/odd splits of the u and v sequences feed the oscillatory forms.
    p, q = _even_odd(zeta, -1.0, _U)
    r, s = _even_odd(zeta, -1.0, _V)
    sqrt_pi = math.sqrt(math.pi)
    cos_chi = np.cos(chi)
    sin_chi = np.sin(chi)
    ai = (cos_chi * p + sin_chi * q) / (sqrt_pi * root4)
    bi = (-sin_chi * p + cos_chi * q) / (sqrt_pi * root4)
    aip = root4 / sqrt_pi * (sin_chi * r - cos_chi * s)
    bip = root4 / sqrt_pi * (cos_chi * r + sin_chi * s)
    return ai, aip, bi, bip


def airy(z, policy: AccuracyPolicy | None = None) -> AiryValues:
    """Evaluate Ai, Ai', Bi, Bi' at real z (scalar or array).

    scipy.special.airy inside the policy switch radius, the asymptotic
    expansions outside.  Relative error against mpmath is at most 1e-13 on
    [-100, 30] (relative to the modulus sqrt(Ai^2 + Bi^2) on z < 0), well
    inside the policy rel_tol guarantee of 1e-9.
    """
    if policy is None:
        policy = DEFAULT_POLICY
    z_arr = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z_arr)):
        raise ValueError("airy requires finite real arguments")
    flat = np.atleast_1d(z_arr).ravel()

    switch = policy.series_asymptotic_switch
    out = [np.empty(flat.shape) for _ in range(4)]
    for mask, evaluator in (
        (np.abs(flat) <= switch, special.airy),
        (flat > switch, _asymptotic_positive),
        (flat < -switch, _asymptotic_negative),
    ):
        if mask.any():
            vals = evaluator(flat[mask])
            for dst, src in zip(out, vals):
                dst[mask] = src

    shaped = [a.reshape(z_arr.shape) for a in out]
    if z_arr.ndim == 0:
        shaped = [float(a) for a in shaped]
    return AiryValues(*shaped)


def airy_square_integral(r1: float, r2: float, r3: float,
                         policy: AccuracyPolicy | None = None) -> float:
    """Integral over the whole k-line of Ai(r1 k^2 + r2 k + r3), r1 > 0.

    Closed form: (2 pi / sqrt(r1)) * 2^{-1/3} * Ai^2 evaluated at
    -(r2^2 - 4 r1 r3) / 4^{4/3} / r1.  This is what turns the phase-space
    Airy profile into the squared-Airy amplitude on configuration space.
    """
    if r1 <= 0:
        raise ValueError("airy_square_integral requires r1 > 0")
    arg = -(r2 * r2 - 4.0 * r1 * r3) / (4.0 ** (4.0 / 3.0) * r1)
    ai = airy(arg, policy).ai
    return (2.0 * math.pi / math.sqrt(r1)) * 2.0 ** (-1.0 / 3.0) * ai * ai


def fourier_power_integral(gamma: float, nu: float, p: float) -> complex:
    """Half-line Fourier integral of a power:
    integral_0^inf t^gamma exp(i nu t^p) dt for gamma > -1, nu != 0, p >= 1.

    Equals |nu|^{-(gamma+1)/p} Gamma((gamma+1)/p) / p times the phase
    exp(i pi (gamma+1) sgn(nu) / (2p)).  For (gamma+1)/p >= 1 the integral
    only exists as an Abel-regularized limit; the closed form is returned
    in that reading.
    """
    if gamma <= -1.0:
        raise ValueError("fourier_power_integral requires gamma > -1")
    if nu == 0.0:
        raise ValueError("fourier_power_integral requires nu != 0")
    if p < 1.0:
        raise ValueError("fourier_power_integral requires p >= 1")
    expo = (gamma + 1.0) / p
    magnitude = abs(nu) ** (-expo) * math.gamma(expo) / p
    phase = math.pi * (gamma + 1.0) * math.copysign(1.0, nu) / (2.0 * p)
    return magnitude * complex(math.cos(phase), math.sin(phase))
