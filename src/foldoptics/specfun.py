"""Airy functions and the closed-form oscillatory integrals built on them.

`airy` gives the Airy pair (Ai, Bi) and first derivatives; `airy_ai`
gives Ai alone, bit for bit the same, for the closed forms that read only
Ai (the exact and combined Wigner transforms, the semiclassical Wigner
forms, the inner caustic field and the squared-Airy integral).  Both come
from an in-house Taylor table in the central band |z| <= 7.8 (8-term
expansions about centres every 1/32 on [-9, 9], walked along y'' = z y,
DLMF 9.2, from closed forms; built at import in about 2 ms), and beyond
it from the large-argument asymptotic expansions (DLMF 9.7), summed by
Horner's rule.  Against mpmath at 30 digits the central band's largest
relative error is 2.0e-15 (scipy.special.airy: 1.5e-14 there), and the
largest on [-100, 30] is 1e-13, from the asymptotic side; on z < 0 both
are relative to the modulus sqrt(Ai^2 + Bi^2).  The module also provides
the full-line integral of Ai over a quadratic argument (which produces
Ai^2) and the half-line Fourier integral of a power.

Everything here is real-argument only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AiryValues",
    "airy",
    "airy_ai",
    "airy_square_integral",
    "fourier_power_integral",
]

_N_ASYMPTOTIC_TERMS = 46

# |z| beyond which airy leaves the central table for the asymptotic
# expansions, on both sides of the origin; the table itself reaches 9.
_SWITCH_RADIUS = 7.8

# Central table: centres every _TABLE_STEP on [-_TABLE_RADIUS,
# _TABLE_RADIUS], _TABLE_ORDER Taylor terms per function (truncation below
# 6e-16 relative at |t| <= _TABLE_STEP / 2), _WALK_TERMS per step of the
# walk that fills in the centre values; _CHUNK_POINTS points at a time.
# At the radius 9, zeta = (2/3) 9^{3/2} = 18 is exact, so the asymptotic
# expansion that starts the walk of Ai is exact to rounding there.
_TABLE_STEP = 1.0 / 32.0
_TABLE_ORDER = 8
_TABLE_RADIUS = 9.0
_WALK_TERMS = 16
_CHUNK_POINTS = 4096


def _asymptotic_coefficients(n):
    """Rows u_k, v_k of the Airy asymptotic expansions (DLMF 9.7.2)."""
    u = np.empty(n)
    v = np.empty(n)
    u[0] = 1.0
    v[0] = 1.0
    for k in range(n - 1):
        u[k + 1] = u[k] * (6 * k + 1) * (6 * k + 3) * (6 * k + 5) / (
            216.0 * (k + 1) * (2 * k + 1)
        )
        v[k + 1] = u[k + 1] * (6 * (k + 1) + 1) / (1.0 - 6 * (k + 1))
    return np.stack([u, v])


_UV = _asymptotic_coefficients(_N_ASYMPTOTIC_TERMS)
_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class AiryValues:
    """Ai, Bi and first derivatives on a common set of points."""

    ai: np.ndarray
    ai_prime: np.ndarray
    bi: np.ndarray
    bi_prime: np.ndarray


def _even_odd(zeta, sign, series):
    """(E, O), a row for each coefficient row c of `series`, with
    E = sum_k c[2k] w^k and O = sum_k c[2k+1] w^k / zeta, w = sign/zeta^2,
    all in one Horner pass.  With sign = +1, E - O and E + O are the
    series in -1/zeta and +1/zeta of the exponential expansions; with
    sign = -1, E and O are the even and odd parts of the oscillatory ones.

    The term count is fixed per call from the smallest zeta present,
    n = min(46, floor(2 zeta_min)), and at least 2 so that both parts have
    a term: the terms shrink until k ~ 2 zeta, so this is the optimal
    truncation for the worst point, and every larger zeta is truncated no
    later than its own optimum.
    """
    n = min(_N_ASYMPTOTIC_TERMS, max(2, int(2.0 * zeta.min())))
    inv = 1.0 / zeta
    w = sign * inv * inv
    # Horner rows, highest power first: the even parts, then the odd parts,
    # whose tail is one term shorter for odd n and gets a leading 0
    parts, m = len(series), (n + 1) // 2
    coeffs = np.zeros((m, 2 * parts, 1))
    coeffs[:, :parts, 0] = series[:, 0:n:2][:, ::-1].T
    coeffs[m - n // 2:, parts:, 0] = series[:, 1:n:2][:, ::-1].T
    acc = np.empty((2 * parts, zeta.size))
    acc[:] = coeffs[0]
    for c in coeffs[1:]:
        acc *= w
        acc += c
    return acc[:parts], acc[parts:] * inv


def _asymptotic_positive(z, series=_UV):
    """Rows Ai, Ai', Bi, Bi' for z > 0 from the exponential expansions
    (DLMF 9.7.5-9.7.8); Ai alone, with no exp(+zeta), when `series` holds
    only the u_k."""
    zeta = (2.0 / 3.0) * z ** 1.5
    root4 = z ** 0.25
    # the Ai series alternates (-1/zeta), the Bi series does not (+1/zeta)
    even, odd = _even_odd(zeta, 1.0, series)
    expm = np.exp(-zeta)
    ai = expm / (2.0 * _SQRT_PI * root4) * (even[0] - odd[0])
    if len(series) == 1:
        return (ai,)
    (ue, ve), (uo, vo) = even, odd
    aip = -root4 * expm / (2.0 * _SQRT_PI) * (ve - vo)
    # Bi legitimately exceeds float range beyond z ~ 104; inf is the
    # honest saturation value there
    with np.errstate(over="ignore"):
        expp = np.exp(zeta)
        bi = expp / (_SQRT_PI * root4) * (ue + uo)
        bip = root4 * expp / _SQRT_PI * (ve + vo)
    return ai, aip, bi, bip


def _asymptotic_negative(z, series=_UV):
    """Rows Ai, Ai', Bi, Bi' for z < 0 from the oscillatory expansions
    (DLMF 9.7.9-9.7.12); Ai alone when `series` holds only the u_k."""
    t = -z
    zeta = (2.0 / 3.0) * t ** 1.5
    root4 = t ** 0.25
    chi = zeta - 0.25 * math.pi
    # Even/odd splits of the u and v sequences feed the oscillatory forms.
    even, odd = _even_odd(zeta, -1.0, series)
    cos_chi = np.cos(chi)
    sin_chi = np.sin(chi)
    p, q = even[0], odd[0]
    ai = (cos_chi * p + sin_chi * q) / (_SQRT_PI * root4)
    if len(series) == 1:
        return (ai,)
    r, s = even[1], odd[1]
    bi = (-sin_chi * p + cos_chi * q) / (_SQRT_PI * root4)
    aip = root4 / _SQRT_PI * (sin_chi * r - cos_chi * s)
    bip = root4 / _SQRT_PI * (cos_chi * r + sin_chi * s)
    return ai, aip, bi, bip


def _taylor(z0, y, yp, n):
    """First n Taylor coefficients about z0 of the solution of y'' = z y
    (DLMF 9.2.1) with value y and slope yp there:
    (k + 2)(k + 1) a_{k+2} = z0 a_k + a_{k-1}."""
    a = [y, yp, 0.5 * z0 * y]
    for k in range(1, n - 2):
        a.append((z0 * a[k] + a[k - 1]) / ((k + 2) * (k + 1)))
    return a[:n]


def _walk(z, y, yp):
    """(y, y') on the equally spaced points z, from their values at z[0],
    one Taylor step per spacing.  The 2x2 step matrices of all points come
    from one vectorised series; only their product is sequential."""
    dz = z[1] - z[0]
    # row j of each coefficient: the solution with (y, y') = row j of I
    unit = np.eye(2)[:, :, None]
    a = _taylor(z[:-1], unit[0], unit[1], _WALK_TERMS)
    val = a[-1]
    der = (_WALK_TERMS - 1) * a[-1]
    for k in range(_WALK_TERMS - 2, -1, -1):
        val = val * dz + a[k]
        if k:
            der = der * dz + k * a[k]
    ys, yps = [y], [yp]
    for m00, m01, m10, m11 in zip(*(m.tolist() for m in (*val, *der))):
        y, yp = m00 * y + m01 * yp, m10 * y + m11 * yp
        ys.append(y)
        yps.append(yp)
    return np.array(ys), np.array(yps)


def _central_table():
    """Taylor coefficients about the centres i h, |i h| <= _TABLE_RADIUS,
    centre-major: entry [i, k, j] is the t^k coefficient of Ai, Ai', Bi,
    Bi' (j = 0..3) about i h, where a negative i counts from the end, as
    in take.

    The centre values are walked from closed forms, each function in a
    direction where it does not decay: both pairs outward from 0 on z < 0,
    Bi forward on z > 0, and Ai back from the asymptotic expansion at
    z = _TABLE_RADIUS.
    """
    h = _TABLE_STEP
    up = np.arange(round(_TABLE_RADIUS / h) + 1) * h
    # DLMF 9.2.3-9.2.5
    g13, g23 = math.gamma(1.0 / 3.0), math.gamma(2.0 / 3.0)
    ai0, aip0 = 1.0 / (3.0 ** (2.0 / 3.0) * g23), -1.0 / (3.0 ** (1.0 / 3.0) * g13)
    bi0, bip0 = 1.0 / (3.0 ** (1.0 / 6.0) * g23), 3.0 ** (1.0 / 6.0) / g13
    ai_end, aip_end = (float(v[0]) for v in _asymptotic_positive(up[-1:])[:2])
    ai_neg = _walk(-up, ai0, aip0)
    bi_neg = _walk(-up, bi0, bip0)
    bi_pos = _walk(up, bi0, bip0)
    ai_pos = _walk(up[::-1], ai_end, aip_end)
    # (Ai, Bi) and their slopes on the centres 0, h, .., 9, -9, .., -h;
    # Ai at 0 keeps its closed form
    y, yp = (np.array([np.concatenate([an[:1], ap[-2::-1], an[:0:-1]]),
                       np.concatenate([bp, bn[:0:-1]])])
             for an, ap, bn, bp in zip(ai_neg, ai_pos, bi_neg, bi_pos))
    centres = np.concatenate([up, -up[:0:-1]])
    a = np.array(_taylor(centres, y, yp, _TABLE_ORDER + 1))
    slope = a[1:] * np.arange(1, _TABLE_ORDER + 1)[:, None, None]
    return np.stack([a[:-1, 0], slope[:, 0], a[:-1, 1], slope[:, 1]]).T.copy()


_TABLE = _central_table()


def _central(z, table=_TABLE):
    """Rows Ai, Ai', Bi, Bi' (or the first rows of the table given) at
    |z| <= _TABLE_RADIUS: Horner's rule in t = z - i h about the nearest
    centre i h, |t| <= h/2 (t is exact), _CHUNK_POINTS points at a time,
    each chunk's coefficients gathered by one take."""
    out = np.empty((table.shape[2], z.size))
    for start in range(0, z.size, _CHUNK_POINTS):
        part = z[start:start + _CHUNK_POINTS]
        i = np.rint(part * (1.0 / _TABLE_STEP))
        t = part - i * _TABLE_STEP
        coeffs = table.take(i.astype(np.intp), axis=0)
        acc = out[:, start:start + _CHUNK_POINTS]
        np.multiply(coeffs[:, -1].T, t, out=acc)
        for k in range(_TABLE_ORDER - 2, 0, -1):
            acc += coeffs[:, k].T
            acc *= t
        acc += coeffs[:, 0].T
    return out


def _by_band(z, evaluators, rows):
    """The `rows` rows of the evaluators for the central table |z| <= 7.8,
    for z > 7.8 and for z < -7.8, each over its own points of real z;
    shape (rows,) + z.shape."""
    z_arr = np.asarray(z, dtype=np.float64)
    flat = z_arr.ravel()
    central = np.abs(flat) <= _SWITCH_RADIUS
    if central.all():
        out = evaluators[0](flat)
    else:
        if not np.isfinite(flat).all():
            raise ValueError("airy requires finite real arguments")
        out = np.empty((rows, flat.size))
        masks = (central, flat > _SWITCH_RADIUS, flat < -_SWITCH_RADIUS)
        for mask, evaluator in zip(masks, evaluators):
            if mask.any():
                for row, vals in zip(out, evaluator(flat[mask])):
                    row[mask] = vals
    return out.reshape((rows,) + z_arr.shape)


def airy(z) -> AiryValues:
    """Evaluate Ai, Ai', Bi, Bi' at real z (scalar or array).

    The central Taylor table for |z| <= 7.8, the asymptotic expansions
    outside.  Relative error against mpmath is at most 2.0e-15 inside
    and 1e-13 on [-100, 30] (relative to the modulus sqrt(Ai^2 + Bi^2) on
    z < 0).
    """
    out = _by_band(z, (_central, _asymptotic_positive, _asymptotic_negative), 4)
    return AiryValues(*(out.tolist() if out.ndim == 1 else out))


# the Ai row of the table (contiguous, so that take copies no table) and the
# u_k alone
_AI_EVALUATORS = (
    functools.partial(_central, table=_TABLE[:, :, :1].copy()),
    functools.partial(_asymptotic_positive, series=_UV[:1]),
    functools.partial(_asymptotic_negative, series=_UV[:1]),
)


def airy_ai(z):
    """Ai alone at real z: equal to airy(z).ai bit for bit, at a fraction
    of the cost.  A float for scalar z, otherwise an array of z's shape."""
    (out,) = _by_band(z, _AI_EVALUATORS, 1)
    return float(out) if out.ndim == 0 else out


def airy_square_integral(r1: float, r2: float, r3: float) -> float:
    """Integral over the whole k-line of Ai(r1 k^2 + r2 k + r3), r1 > 0.

    Closed form: (2 pi / sqrt(r1)) * 2^{-1/3} * Ai^2 evaluated at
    -(r2^2 - 4 r1 r3) / 4^{4/3} / r1.  This is what turns the phase-space
    Airy profile into the squared-Airy amplitude on configuration space.
    """
    if r1 <= 0:
        raise ValueError("airy_square_integral requires r1 > 0")
    arg = -(r2 * r2 - 4.0 * r1 * r3) / (4.0 ** (4.0 / 3.0) * r1)
    ai = airy_ai(arg)
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
