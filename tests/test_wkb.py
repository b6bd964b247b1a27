from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from foldoptics.wkb import (
    CAUSTIC_ZONE_FACTOR,
    CausticZoneWarning,
    airy_greens,
    airy_inner_approx,
    airy_wkb_branches,
    airy_wkb_field,
    source_amplitude,
)

X0 = 2.0
EPSILONS = (0.1, 0.05, 0.025)


def test_source_amplitude_value():
    a0 = source_amplitude(4.0)
    assert a0 == pytest.approx(0.25 * np.exp(-1j * math.pi / 4.0))


def test_branch_phases():
    c0 = (2.0 / 3.0) * X0**1.5
    x = 1.3
    (s_plus, s_minus), _ = airy_wkb_branches(x, X0)
    assert s_plus == pytest.approx((2.0 / 3.0) * x**1.5 + c0)
    assert s_minus == pytest.approx(-(2.0 / 3.0) * x**1.5 + c0)
    (s_plus, s_minus), _ = airy_wkb_branches(X0, X0)
    assert s_plus == pytest.approx(s_minus + (4.0 / 3.0) * X0**1.5)


def test_branch_amplitude_ratio_is_minus_i():
    _, (a_plus, a_minus) = airy_wkb_branches(np.array([0.2, 0.9, 1.7]), X0)
    assert np.allclose(a_plus / a_minus, -1j, rtol=1e-14, atol=0)


def test_amplitude_squared_times_jacobian_invariant():
    # |A|^2 |J| is the conserved ray-tube flux; for these branches
    # |J| = sqrt(x/x0), so the product must equal |alpha0|^2.
    target = abs(source_amplitude(X0)) ** 2
    for x in (0.1, 0.5, 1.0, 1.9):
        J = math.sqrt(x / X0)
        for a in airy_wkb_branches(x, X0)[1]:
            assert abs(a) ** 2 * J == pytest.approx(target, rel=1e-12)


def test_field_value_equals_branch_sum():
    # the field is the sum of A e^{iS/eps} over both branches, per point
    eps = 0.05
    xs = np.linspace(0.6, 1.9, 11)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CausticZoneWarning)
        direct = airy_wkb_field(xs, eps, X0)
    summed = []
    for x in xs:
        phases, amplitudes = airy_wkb_branches(x, X0)
        summed.append(sum(a * complex(np.exp(1j * s / eps)) for s, a in zip(phases, amplitudes)))
    assert np.allclose(summed, direct, rtol=1e-12, atol=0)


def _two_exponential_form(x, eps, x0):
    x = np.asarray(x, dtype=np.float64)
    phase0 = np.exp(1j * (2.0 / 3.0) * x0**1.5 / eps)
    osc = (2.0 / 3.0) * x**1.5 / eps
    amp = x0**0.25 * x ** (-0.25)
    return source_amplitude(x0) * phase0 * amp * (-1j * np.exp(1j * osc) + np.exp(-1j * osc))


@pytest.mark.parametrize("eps,x0", [(0.1, 1.0), (0.05, 2.0), (0.025, 2.0), (0.01, 3.0)])
def test_field_keeps_the_bits_of_the_two_exponential_form(eps, x0):
    # one cos/sin pair stands for -i e^{i osc} + e^{-i osc}; every bit,
    # signed zeros included, must match the two complex exponentials, and a
    # scalar call must return the array's element
    rng = np.random.default_rng(20240817)
    xs = np.concatenate([rng.uniform(0.0, x0, 100_000), np.linspace(0.0, x0, 4001)[1:-1]])
    xs = xs[xs > 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CausticZoneWarning)
        got = airy_wkb_field(xs, eps, x0)
        scalars = np.array([airy_wkb_field(float(x), eps, x0) for x in xs[:500]])
    assert np.array_equal(got.view(np.uint64), _two_exponential_form(xs, eps, x0).view(np.uint64))
    assert np.array_equal(scalars.view(np.uint64), got[:500].view(np.uint64))


def test_field_raises_outside_interval():
    for x in (-0.1, 0.0, X0, X0 + 1.0):
        with pytest.raises(ValueError):
            airy_wkb_field(x, 0.05, X0)


def test_field_warns_in_caustic_zone():
    eps = 0.05
    x_zone = 0.5 * CAUSTIC_ZONE_FACTOR * eps ** (2.0 / 3.0)
    with pytest.warns(CausticZoneWarning):
        airy_wkb_field(x_zone, eps, X0)


def test_greens_continuous_at_source():
    eps = 0.05
    below = airy_greens(X0 * (1.0 - 1e-9), X0, eps)
    above = airy_greens(X0 * (1.0 + 1e-9), X0, eps)
    assert abs(below - above) / abs(below) < 1e-6


def test_greens_solves_oscillator_equation():
    # eps^2 u'' + x u = 0 away from the source point.
    eps = 0.1
    h = 1e-4
    for x in (0.7, 1.4, 2.6):
        u = airy_greens(np.array([x - h, x, x + h]), X0, eps)
        upp = (u[0] - 2.0 * u[1] + u[2]) / h**2
        res = eps**2 * upp + x * u[1]
        assert abs(res) / abs(x * u[1]) < 1e-4


def test_inner_approx_matches_greens_for_small_epsilon():
    eps = 0.01
    x = 1.0
    g = airy_greens(x, X0, eps)
    inner = airy_inner_approx(x, X0, eps)
    assert abs(g - inner) / abs(g) < 1e-3


def test_wkb_error_envelope_halves_with_epsilon():
    xs = np.linspace(0.5, 1.8, 120)
    sups = []
    for eps in EPSILONS:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CausticZoneWarning)
            u_wkb = airy_wkb_field(xs, eps, X0)
        u_ref = airy_greens(xs, X0, eps)
        sups.append(np.max(np.abs(u_wkb - u_ref)) / np.max(np.abs(u_ref)))
    ratios = [sups[i] / sups[i + 1] for i in range(len(sups) - 1)]
    assert all(1.5 < r < 2.5 for r in ratios)


def test_shadow_side_decays():
    eps = 0.05
    vals = airy_inner_approx(np.array([-0.2, -0.5, -1.0]), X0, eps)
    mags = np.abs(vals)
    assert mags[0] > mags[1] > mags[2]
    assert mags[2] < 1e-4 * mags[0]
