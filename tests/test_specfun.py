from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldoptics import specfun
from foldoptics.specfun import (
    airy,
    airy_ai,
    airy_square_integral,
    fourier_power_integral,
)

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def airy_table():
    with open(DATA / "airy_reference.json") as f:
        return json.load(f)


def test_airy_against_reference_table(airy_table):
    z = np.array([row["z"] for row in airy_table])
    vals = airy(z)
    for field in ("ai", "aip", "bi", "bip"):
        ref = np.array([row[field] for row in airy_table])
        got = {"ai": vals.ai, "aip": vals.ai_prime,
               "bi": vals.bi, "bip": vals.bi_prime}[field]
        rel = np.abs(got - ref) / np.abs(ref)
        assert rel.max() < 1e-10, f"{field}: max rel dev {rel.max():.3e}"


def _mpmath_airy(z):
    """(n, 4) array of Ai, Ai', Bi, Bi' at 30 digits."""
    import mpmath

    with mpmath.workdps(30):
        return np.array(
            [
                [float(f(mpmath.mpf(float(t)), d)) for f, d in
                 ((mpmath.airyai, 0), (mpmath.airyai, 1),
                  (mpmath.airybi, 0), (mpmath.airybi, 1))]
                for t in z
            ]
        )


def _airy_rows(z):
    v = airy(z)
    return np.stack([v.ai, v.ai_prime, v.bi, v.bi_prime])


def _worst_relative_error(z, evaluate=_airy_rows):
    """Largest relative error of (Ai, Ai', Bi, Bi') against mpmath, for
    an evaluator that returns them as the rows of a (4, n) array.  On
    the oscillatory side the error is taken relative to the modulus
    sqrt(Ai^2 + Bi^2) (and its derivative analogue), so the zeros of Ai
    and Bi do not dominate."""
    ref = _mpmath_airy(z)
    got = evaluate(z).T
    modulus = np.hypot(ref[:, 0], ref[:, 2])
    modulus_prime = np.hypot(ref[:, 1], ref[:, 3])
    scale = np.abs(ref)
    neg = z < 0
    for col, m in ((0, modulus), (1, modulus_prime), (2, modulus), (3, modulus_prime)):
        scale[neg, col] = np.maximum(scale[neg, col], m[neg])
    rel = np.abs(got - ref) / scale
    return rel.max(axis=0)


def test_airy_against_mpmath_wide_range():
    # Covers what the frozen table misses (5 < z <= 30 and z < -10) and
    # both sides of the default band switch.
    z = np.concatenate(
        [np.linspace(-100.0, 30.0, 261), [-7.8 - 1e-9, -7.8, 6.3, 7.8, 7.8 + 1e-9]]
    )
    worst = _worst_relative_error(z)
    assert worst.max() < 1e-12, f"max rel dev (Ai, Ai', Bi, Bi') = {worst}"


def _band_points(lo, hi, n):
    """A dense grid of [lo, hi] plus the doubles on both sides of every
    cell edge (centre +- h/2) of the central Taylor table inside it."""
    h = specfun._TABLE_STEP
    edges = (np.arange(math.ceil(lo / h - 0.5), math.floor(hi / h - 0.5) + 1) + 0.5) * h
    return np.concatenate(
        [np.linspace(lo, hi, n), np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)]
    )


@pytest.mark.parametrize(
    "radius,bands",
    [
        (7.8, [(-7.8, 7.8, 801)]),
        # the table's cells beyond the switch radius, out to its end at 9
        (9.0, [(-9.0, -7.8, 61), (7.8, 9.0, 61)]),
    ],
)
def test_central_band_against_mpmath(radius, bands):
    # scipy.special.airy reaches 1.5e-14 (Ai) on the switch band's points.
    # airy evaluates the table only inside the switch radius, so the
    # cells beyond it are evaluated directly.
    evaluate = _airy_rows if radius <= specfun._SWITCH_RADIUS else specfun._central
    for lo, hi, n in bands:
        worst = _worst_relative_error(_band_points(lo, hi, n), evaluate)
        assert worst.max() <= 5e-15, f"[{lo}, {hi}]: max rel dev = {worst}"


def test_airy_scalar_returns_floats():
    v = airy(1.0)
    assert isinstance(v.ai, float)
    assert math.isclose(v.ai, 0.1352924163128814, rel_tol=1e-12)


def test_airy_preserves_shape():
    z = np.linspace(-4, 2, 12).reshape(3, 4)
    v = airy(z)
    assert v.ai.shape == (3, 4)
    assert v.bi_prime.shape == (3, 4)


@pytest.mark.parametrize("z", [0.0, -1.0, 2.5, -7.9, 7.0, -11.5])
def test_airy_ode_residual(z):
    # Ai'' = z Ai checked with a fourth-order five-point stencil.
    h = 1e-2
    offs = np.array([-2, -1, 0, 1, 2]) * h
    ai = airy(z + offs).ai
    second = (-ai[0] + 16 * ai[1] - 30 * ai[2] + 16 * ai[3] - ai[4]) / (12 * h * h)
    scale = max(abs(z * ai[2]), 1e-2)
    assert abs(second - z * ai[2]) / scale < 1e-6


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-8.0, max_value=4.0))
def test_airy_wronskian(z):
    v = airy(z)
    w = v.ai * v.bi_prime - v.ai_prime * v.bi
    assert abs(w - 1.0 / math.pi) < 1e-10


def test_series_and_asymptotics_agree_in_overlap():
    # The same point evaluated by the central table (through airy) and by
    # the asymptotic expansion of its side must agree.
    for z, asymptotic in (
        (-7.6, specfun._asymptotic_negative),
        (6.0, specfun._asymptotic_positive),
    ):
        from_series = airy(z)
        ai, _, bi, _ = (float(v[0]) for v in asymptotic(np.array([z])))
        assert abs(from_series.ai - ai) / abs(from_series.ai) < 1e-8
        assert abs(from_series.bi - bi) / abs(from_series.bi) < 1e-8


def test_airy_rejects_nonfinite():
    with pytest.raises(ValueError):
        airy(np.array([1.0, np.nan]))


_SWITCH_EDGES = np.array(
    [np.nextafter(e, d) for e in (-7.8, 0.0, 7.8) for d in (-np.inf, np.inf)]
    + [-7.8, 0.0, -0.0, 7.8]
)


@pytest.mark.parametrize(
    "z",
    [
        np.random.default_rng(3).uniform(-7.8, 7.8, 4001),
        np.random.default_rng(4).uniform(7.8, 200.0, 4001),
        np.random.default_rng(5).uniform(-400.0, -7.8, 4001),
        np.concatenate([np.linspace(-60.0, 40.0, 2001), _SWITCH_EDGES]),
        _SWITCH_EDGES,
    ],
    ids=["central", "positive-tail", "negative-tail", "mixed", "switch-edges"],
)
def test_airy_ai_equals_airy_ai_row_bitwise(z):
    got = airy_ai(z)
    assert got.shape == z.shape
    assert np.array_equal(got, airy(z).ai)
    for i in range(0, z.size, max(1, z.size // 50)):
        assert airy_ai(z[i]) == airy(z[i]).ai == got[i]


@pytest.mark.parametrize("z", [0.0, -0.0, 1.0, 7.8, -7.8, 8.5, -9.25, 120.0, -300.0])
def test_airy_ai_scalar_returns_float(z):
    got = airy_ai(z)
    assert type(got) is float
    assert got == airy(z).ai
    assert type(airy_ai(np.float64(z))) is float
    assert type(airy_ai(np.array(z))) is float


@pytest.mark.parametrize(
    "z",
    [
        np.empty(0),
        np.empty((2, 0)),
        np.linspace(-20.0, 20.0, 12).reshape(3, 4),
        np.linspace(-3.0, 3.0, 6).reshape(2, 3, 1),
    ],
)
def test_airy_ai_preserves_shape(z):
    got = airy_ai(z)
    assert isinstance(got, np.ndarray)
    assert got.shape == z.shape
    assert np.array_equal(got, airy(z).ai)


@pytest.mark.parametrize("evaluate", [airy, airy_ai])
@pytest.mark.parametrize(
    "z", [np.nan, np.inf, -np.inf, np.array([1.0, np.nan]), np.array([[9.0], [-np.inf]])]
)
def test_nonfinite_arguments_refused_alike(evaluate, z):
    with pytest.raises(ValueError, match="^airy requires finite real arguments$"):
        evaluate(z)


def _reference_central(z, table):
    """The central band from a term-major table (term, row, centre), one
    take per Taylor coefficient."""
    out = np.empty((table.shape[1], z.size))
    for start in range(0, z.size, specfun._CHUNK_POINTS):
        part = z[start:start + specfun._CHUNK_POINTS]
        i = np.rint(part * (1.0 / specfun._TABLE_STEP))
        t = part - i * specfun._TABLE_STEP
        i = i.astype(np.intp)
        acc = out[:, start:start + specfun._CHUNK_POINTS]
        np.multiply(table[-1].take(i, axis=1), t, out=acc)
        for coeffs in table[-2:0:-1]:
            acc += coeffs.take(i, axis=1)
            acc *= t
        acc += table[0].take(i, axis=1)
    return out


def test_central_band_keeps_the_bits_of_one_take_per_coefficient():
    # every centre and every half-step of the band |z| <= 7.8, and random points
    steps = np.arange(-499, 500) / 64
    z = np.concatenate([steps, np.random.default_rng(6).uniform(-7.8, 7.8, 100_000)])
    want = _reference_central(z, specfun._TABLE.transpose(1, 2, 0))
    got = airy(z)
    rows = np.stack([got.ai, got.ai_prime, got.bi, got.bi_prime])
    assert rows.tobytes() == want.tobytes()
    assert airy_ai(z).tobytes() == want[0].tobytes()


def test_central_table_keeps_its_bytes():
    # the walk of Ai starts from the 36-term expansion at z = 9; with the
    # tails' 29 terms every centre value would move
    digest = hashlib.sha256(specfun._TABLE.tobytes()).hexdigest()
    assert digest == "8b78ab0cec53054104dabced7ed6ae0dc3718acb083cc1fa728439d25c9e3a12"


def _one_part_horner(zeta, sign, coeffs, n):
    """Reference for _even_odd: each part of one series in its own Horner
    pass, over its first n terms."""
    inv = 1.0 / zeta
    w = sign * inv * inv
    parts = []
    for tail in (coeffs[0:n:2][::-1], coeffs[1:n:2][::-1]):
        acc = np.full_like(zeta, tail[0])
        for c in tail[1:]:
            acc = acc * w + c
        parts.append(acc)
    return parts[0], parts[1] * inv


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize(
    "zeta_min,terms",
    [(14.6, 29), (15.1, 30), (5.3, 10), (5.7, 11), (30.0, 46), (1.2, 2)],
)
def test_stacked_horner_matches_one_pass_per_part(sign, zeta_min, terms):
    # odd and even term counts, each floor(2 zeta_min) for its zeta range:
    # the odd part of an odd count is one term shorter than the even part
    # and is padded with a leading zero
    zeta = np.concatenate([[zeta_min], np.linspace(zeta_min, 4.0 * zeta_min + 60.0, 500)])
    uv = specfun._asymptotic_coefficients(terms)
    for series in (uv, uv[:1]):
        even, odd = specfun._even_odd(zeta, sign, series, terms)
        assert even.shape == odd.shape == (len(series), zeta.size)
        for row, coeffs in enumerate(series):
            e, o = _one_part_horner(zeta, sign, coeffs, terms)
            assert np.array_equal(even[row], e)
            assert np.array_equal(odd[row], o)


@pytest.mark.parametrize(
    "r1,r2,r3",
    [(1.0, 0.0, 0.5), (2.0, 1.0, -0.25), (0.5, -2.0, 1.0)],
)
def test_airy_square_integral_against_quadrature(r1, r2, r3):
    from scipy.integrate import quad
    from scipy.special import airy as sp_airy

    def integrand(k):
        return sp_airy(r1 * k * k + r2 * k + r3)[0]

    # The integrand decays super-exponentially once r1 k^2 dominates.
    num, _ = quad(integrand, -40.0, 40.0, limit=400)
    closed = airy_square_integral(r1, r2, r3)
    assert abs(closed - num) / abs(num) < 1e-8


def test_airy_square_integral_requires_positive_leading():
    with pytest.raises(ValueError):
        airy_square_integral(-1.0, 0.0, 0.0)


def test_fourier_power_integral_known_values():
    # p=1, gamma=0: Abel-regularized half-line Fourier kernel, i/nu.
    assert fourier_power_integral(0.0, 2.0, 1.0) == pytest.approx(0.5j)
    # p=2, gamma=0: Fresnel integral value.
    v = fourier_power_integral(0.0, 1.0, 2.0)
    ref = 0.5 * math.sqrt(math.pi) * complex(math.cos(math.pi / 4),
                                             math.sin(math.pi / 4))
    assert v == pytest.approx(ref, rel=1e-12)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.filterwarnings("ignore:The maximum number")
def test_fourier_power_integral_against_damped_quadrature():
    from scipy.integrate import quad

    gamma, nu, p = 0.5, -3.0, 2.0

    def damped(eta):
        re, _ = quad(lambda t: t**gamma * math.exp(-eta * t * t)
                     * math.cos(nu * t**p), 0, 60, limit=800)
        im, _ = quad(lambda t: t**gamma * math.exp(-eta * t * t)
                     * math.sin(nu * t**p), 0, 60, limit=800)
        return complex(re, im)

    # Richardson extrapolate the Abel regulator to zero.
    a, b = damped(1e-2), damped(5e-3)
    num = 2 * b - a
    closed = fourier_power_integral(gamma, nu, p)
    assert abs(closed - num) / abs(closed) < 1e-3


def test_fourier_power_integral_domain_checks():
    with pytest.raises(ValueError):
        fourier_power_integral(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        fourier_power_integral(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        fourier_power_integral(0.0, 1.0, 0.5)
