from __future__ import annotations

import json
import math
import pathlib

import numpy as np
import pytest

from foldoptics.specfun import airy, fourier_power_integral
from foldoptics.stphase import (
    CfuCoefficients,
    SmallAlphaPoints,
    cfu_eval,
    cfu_match,
    cfu_small_alpha,
    standard_spa,
)

DATA_DIR = pathlib.Path(__file__).parent / "data"

CANONICAL_LAMBDA = 50.0


def canonical_cubic_match(xi):
    # tau^3/3 - xi*tau: maximum at -sqrt(xi), minimum at +sqrt(xi).
    s = math.sqrt(xi)
    return cfu_match(
        (2.0 / 3.0) * xi**1.5,
        -(2.0 / 3.0) * xi**1.5,
        1.0,
        1.0,
        -2.0 * s,
        2.0 * s,
    )


def test_gaussian_point_value():
    got = standard_spa(1.0, 0.0, 2.0, 10.0)
    assert got == pytest.approx(math.sqrt(math.pi / 10.0) * np.exp(1j * math.pi / 4))


def test_gaussian_point_matches_fresnel_integral():
    # The half-line Fresnel integral doubles to the full-line one by parity.
    exact = 2.0 * fourier_power_integral(0.0, 10.0, 2.0)
    assert standard_spa(1.0, 0.0, 2.0, 10.0) == pytest.approx(exact, rel=1e-12)


def test_negative_curvature_conjugates_phase():
    plus = standard_spa(1.0, 0.0, 2.0, 10.0)
    minus = standard_spa(1.0, 0.0, -2.0, 10.0)
    assert minus == pytest.approx(np.conj(plus))


def test_degenerate_point_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        standard_spa(1.0, 0.0, 0.0, 10.0)


def test_lambda_must_be_positive():
    with pytest.raises(ValueError):
        standard_spa(1.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        cfu_eval(CfuCoefficients(0.0, 1.0, 1.0, 0.0), -1.0)


@pytest.mark.parametrize("xi", [0.25, 1.0, 2.25, 4.0])
def test_canonical_cubic_coefficients(xi):
    c = canonical_cubic_match(xi)
    assert c.phi0 == pytest.approx(0.0, abs=1e-15)
    assert c.xi == pytest.approx(xi, rel=1e-13)
    assert c.A0 == pytest.approx(1.0, rel=1e-13)
    assert abs(c.B0) < 1e-13


def test_match_reexpansion_recovers_phases():
    rng = np.random.default_rng(7)
    for _ in range(25):
        phi2 = rng.uniform(-3.0, 3.0)
        phi1 = phi2 + rng.uniform(1e-3, 5.0)
        c = cfu_match(phi1, phi2, 0.7 + 0.1j, 0.3, -1.3, 0.8)
        gap = (2.0 / 3.0) * c.xi**1.5
        assert c.phi0 + gap == pytest.approx(phi1, rel=1e-12, abs=1e-12)
        assert c.phi0 - gap == pytest.approx(phi2, rel=1e-12, abs=1e-12)


def test_symmetric_data_kills_b0():
    c = cfu_match(1.0, -1.0, 0.4 - 0.2j, 0.4 - 0.2j, -1.7, 1.7)
    assert c.B0 == 0.0


def test_match_precondition_errors():
    with pytest.raises(ValueError, match="ordering"):
        cfu_match(-1.0, 1.0, 1.0, 1.0, -2.0, 2.0)
    with pytest.raises(ValueError, match="curvature"):
        cfu_match(1.0, -1.0, 1.0, 1.0, 2.0, 2.0)
    with pytest.raises(ValueError, match="coalesce"):
        cfu_match(1.0, 1.0, 1.0, 1.0, -2.0, 2.0)


@pytest.mark.parametrize("lam", [10.0, 100.0])
@pytest.mark.parametrize("xi", [0.0, 0.25, 1.0, 2.25, 4.0])
def test_cfu_eval_is_airy_for_canonical_data(xi, lam):
    c = CfuCoefficients(phi0=0.0, xi=xi, A0=1.0, B0=0.0)
    expected = 2.0 * math.pi * lam ** (-1.0 / 3.0) * airy(-(lam ** (2.0 / 3.0)) * xi).ai
    assert cfu_eval(c, lam) == pytest.approx(expected, rel=1e-13)


def test_cfu_eval_against_frozen_quadrature():
    rows = json.loads((DATA_DIR / "cfu_quadrature.json").read_text())
    for row in rows:
        c = CfuCoefficients(phi0=0.0, xi=row["xi"], A0=1.0, B0=0.0)
        got = cfu_eval(c, row["lambda"])
        want = row["re"] + 1j * row["im"]
        assert abs(got - want) <= 1e-6 * abs(want)


def test_caustic_value_finite():
    c = CfuCoefficients(phi0=0.3, xi=0.0, A0=0.5, B0=0.25j)
    lam = 30.0
    v = airy(0.0)
    expected = np.exp(1j * lam * 0.3) * (
        2.0 * math.pi * 0.5 * lam ** (-1.0 / 3.0) * v.ai
        - 2.0j * math.pi * 0.25j * lam ** (-2.0 / 3.0) * v.ai_prime
    )
    assert cfu_eval(c, lam) == pytest.approx(expected, rel=1e-13)


def test_uniform_and_two_point_regimes_agree():
    # Far from coalescence the uniform value must collapse onto the sum of
    # the two isolated-point contributions, at the Airy remainder scale.
    lam = CANONICAL_LAMBDA
    for z in np.linspace(10.0, 100.0, 19):
        xi = z / lam ** (2.0 / 3.0)
        s = math.sqrt(xi)
        c = canonical_cubic_match(xi)
        u = cfu_eval(c, lam)
        spa = standard_spa(
            1.0, (2.0 / 3.0) * xi**1.5, -2.0 * s, lam
        ) + standard_spa(1.0, -(2.0 / 3.0) * xi**1.5, 2.0 * s, lam)
        assert abs(u - spa) / abs(u) <= 5.0 * z**-1.5


def test_small_alpha_coalescence():
    pts = cfu_small_alpha(2.0, -2.0, 0.0)
    assert pts == SmallAlphaPoints(0.0, 0.0, 0.0, False)


def test_small_alpha_fold_identification():
    # phi_xalpha = -2, phi_xxx = 2 S''' reproduces the fold scalings
    # xi = 2 (S''')^{-1/3} alpha and x2 = (2 alpha / S''')^{1/2}.
    s3, alpha = 1.7, 0.3
    pts = cfu_small_alpha(2.0 * s3, -2.0, alpha)
    assert not pts.imaginary
    assert pts.xi == pytest.approx(2.0 * s3 ** (-1.0 / 3.0) * alpha, rel=1e-13)
    assert pts.x2 == pytest.approx(math.sqrt(2.0 * alpha / s3), rel=1e-13)
    assert pts.x1 == pytest.approx(-pts.x2)


def test_small_alpha_real_cube_root_carries_sign():
    pts = cfu_small_alpha(-2.0, -2.0, 1.0)
    assert pts.imaginary
    assert pts.xi == pytest.approx(-2.0, rel=1e-13)
    assert pts.x1 == pytest.approx(np.conj(pts.x2))
    assert pts.x1.imag != 0.0


def test_small_alpha_sign_consistency():
    # Negative xi and the imaginary flag must track each other.
    rng = np.random.default_rng(11)
    for _ in range(50):
        f3 = rng.uniform(-3, 3)
        fxa = rng.uniform(-3, 3)
        a = rng.uniform(-1, 1)
        if f3 == 0.0:
            continue
        pts = cfu_small_alpha(f3, fxa, a)
        if pts.imaginary:
            assert pts.xi < 0.0
        else:
            assert pts.xi >= 0.0


def test_small_alpha_requires_fold():
    with pytest.raises(ValueError):
        cfu_small_alpha(0.0, -2.0, 0.1)


def _random_match_data(n, seed=11):
    rng = np.random.default_rng(seed)
    phi2 = rng.uniform(-3.0, 3.0, n)
    phi1 = phi2 + rng.uniform(1e-3, 5.0, n)
    f1 = rng.normal(size=n) + 1j * rng.normal(size=n)
    f2 = rng.normal(size=n) + 1j * rng.normal(size=n)
    return phi1, phi2, f1, f2, -rng.uniform(0.1, 3.0, n), rng.uniform(0.1, 3.0, n)


def test_array_match_equals_scalar_calls_bitwise():
    data = _random_match_data(500)
    c = cfu_match(*data)
    for i in range(500):
        one = cfu_match(*(v[i].item() for v in data))
        assert isinstance(one.xi, float) and isinstance(one.A0, complex)
        assert (one.phi0, one.xi, one.A0, one.B0) == (c.phi0[i], c.xi[i], c.A0[i], c.B0[i])


def test_array_match_refuses_if_any_pair_breaks_a_convention():
    phi1, phi2, f1, f2, c1, c2 = _random_match_data(20)
    swapped = phi2.copy()
    swapped[7] = phi1[7] + 1.0
    with pytest.raises(ValueError, match="ordering"):
        cfu_match(phi1, swapped, f1, f2, c1, c2)
    flipped = c1.copy()
    flipped[3] = 1.0
    with pytest.raises(ValueError, match="curvature"):
        cfu_match(phi1, phi2, f1, f2, flipped, c2)


def test_array_eval_matches_scalar_calls():
    c = cfu_match(*_random_match_data(50))
    got = cfu_eval(c, 30.0)
    for i in range(50):
        one = CfuCoefficients(c.phi0[i], c.xi[i], c.A0[i], c.B0[i])
        assert got[i] == pytest.approx(cfu_eval(one, 30.0), rel=1e-13, abs=1e-15)
