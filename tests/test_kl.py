from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from foldoptics.kl import (
    KlAmplitudes,
    KlCoordinates,
    kl_amplitudes,
    kl_coordinates,
    kl_field,
    kl_phase_residual_2d,
)
from foldoptics.rays import LinearLayerParams, airy_profile
from foldoptics.wkb import (
    CausticZoneWarning,
    airy_inner_approx,
    airy_wkb_branches,
    airy_wkb_field,
)

X0 = 2.0

LAYER = LinearLayerParams(mu0=1.0, mu1=2.5, h=0.3, psi=0.8)


def airy_kl_data(x0):
    plus, minus = airy_wkb_branches(x0)
    coords = kl_coordinates(plus.S, minus.S)
    amps = kl_amplitudes(plus.A, minus.A, coords.rho)
    return coords, amps


def test_airy_coordinates_reduce_to_identity():
    coords, _ = airy_kl_data(X0)
    phi0 = (2.0 / 3.0) * X0**1.5
    for x in np.linspace(0.05, 1.95, 20):
        assert abs(coords.phi(x) - phi0) < 1e-12
        assert abs(coords.rho(x) - x) < 1e-12


def test_ordering_violation_raises():
    coords = kl_coordinates(lambda x: 0.0, lambda x: 1.0)
    with pytest.raises(ValueError, match="ordering"):
        coords.rho(0.5)


def test_equal_phases_sit_on_caustic():
    coords = kl_coordinates(lambda x: 1.0, lambda x: 1.0)
    assert coords.rho(3.0) == 0.0


def test_airy_modified_amplitudes():
    _, amps = airy_kl_data(X0)
    g0_expected = -(1.0 / math.sqrt(2.0)) * np.exp(1j * math.pi / 4.0) * X0**-0.25
    for x in (0.01, 0.4, 1.8):
        assert amps.g0(x) == pytest.approx(g0_expected, rel=1e-12)
        assert amps.g1(x) == 0.0


def test_g1_zero_without_evaluating_inverse_root_on_caustic():
    # A+ + iA- cancels identically, so g1 must come back 0 even where
    # rho = 0 and rho^{-1/4} would blow up.
    amps = kl_amplitudes(lambda x: -1j, lambda x: 1.0, lambda x: 0.0)
    assert amps.g1(1.0) == 0.0


def test_noncancelling_amplitudes_on_caustic_raise():
    amps = kl_amplitudes(lambda x: 1.0, lambda x: 1.0, lambda x: 0.0)
    with pytest.raises(ZeroDivisionError, match="singular"):
        amps.g1(1.0)


@pytest.mark.parametrize("epsilon", [0.1, 0.05])
def test_field_reproduces_inner_approximation(epsilon):
    # Identical up to roundoff; the grid stays off the immediate caustic
    # neighborhood, where subtracting the branch phases loses digits.
    coords, amps = airy_kl_data(X0)
    xs = np.linspace(0.05, 1.95, 20)
    for x in xs:
        u_kl = kl_field(coords, amps, epsilon, float(x))
        u_in = complex(airy_inner_approx(float(x), X0, epsilon))
        assert abs(u_kl - u_in) <= 1e-12 * abs(u_in)


def test_field_finite_on_caustic():
    coords = KlCoordinates(phi=lambda x: 0.7, rho=lambda x: x)
    amps = KlAmplitudes(g0=lambda x: 1.0 + 0.0j, g1=lambda x: 0.0j)
    val = kl_field(coords, amps, 0.05, 0.0)
    assert np.isfinite(val.real) and np.isfinite(val.imag)
    assert abs(val) > 0.0


def test_field_continuous_across_caustic():
    coords = KlCoordinates(phi=lambda x: 0.7, rho=lambda x: x)
    amps = KlAmplitudes(g0=lambda x: 1.0 + 0.0j, g1=lambda x: 0.0j)
    eps = 0.05
    xs = np.linspace(-0.05, 0.05, 401)
    vals = np.array([kl_field(coords, amps, eps, float(x)) for x in xs])
    steps = np.abs(np.diff(vals))
    assert np.all(np.isfinite(steps))
    assert np.max(steps) < 10.0 * np.median(steps) + 1e-12


def test_far_field_matches_wkb_and_improves():
    # The leading-order mismatch oscillates in x, so a single abscissa can
    # sit on a node for one epsilon and not another; the envelope over a
    # short window around x = 1 is the O(epsilon) quantity.
    coords, amps = airy_kl_data(X0)
    xs = np.linspace(0.8, 1.2, 41)
    devs = []
    for eps in (0.1, 0.05, 0.025):
        u_kl = np.array([kl_field(coords, amps, eps, float(x)) for x in xs])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CausticZoneWarning)
            u_wkb = airy_wkb_field(xs, eps, X0)
        devs.append(np.max(np.abs(u_kl - u_wkb)) / np.max(np.abs(u_kl)))
    assert devs[0] < 5e-2
    assert devs[0] > devs[1] > devs[2]


def test_epsilon_must_be_positive():
    coords, amps = airy_kl_data(X0)
    with pytest.raises(ValueError):
        kl_field(coords, amps, 0.0, 1.0)


def _phase_residual_1d(coords, profile, xs):
    # the one-dimensional system: fields on the points (0, x), constant in y
    return kl_phase_residual_2d(
        lambda y, z: coords.phi(z),
        lambda y, z: coords.rho(z),
        lambda y, z: profile.eta_squared(z),
        [(0.0, x) for x in xs],
    )


def test_phase_residual_vanishes_for_airy():
    coords, _ = airy_kl_data(X0)
    res = _phase_residual_1d(coords, airy_profile(), np.linspace(0.2, 1.8, 9))
    r1 = np.array([r[0] for r in res])
    r2 = np.array([r[1] for r in res])
    assert np.max(np.abs(r1)) < 1e-8
    assert np.max(np.abs(r2)) < 1e-8


def test_phase_residual_detects_perturbed_rho():
    coords, _ = airy_kl_data(X0)
    bad = KlCoordinates(phi=coords.phi, rho=lambda x: 1.01 * coords.rho(x))
    res = _phase_residual_1d(bad, airy_profile(), [0.5, 1.0, 1.5])
    assert max(abs(r[0]) for r in res) > 1e-3


def test_layer_phase_system_in_two_dimensions():
    p = LAYER
    c3 = (2.0 / (3.0 * p.mu1)) * (p.eta0 * math.cos(p.psi)) ** 3

    def phi(y, z):
        return c3 + p.eta0 * y * math.sin(p.psi)

    def rho(y, z):
        return (1.0 / p.mu1) ** (2.0 / 3.0) * (
            p.alpha**2 + p.mu1 * (z - p.h)
        )

    def eta_squared(y, z):
        return p.mu0 + p.mu1 * z

    z_c = p.h - (p.eta0 * math.cos(p.psi)) ** 2 / p.mu1
    pts = [(y, z) for y in (-0.4, 0.7) for z in np.linspace(z_c + 0.02, p.h, 5)]
    res = kl_phase_residual_2d(phi, rho, eta_squared, pts)
    assert max(abs(r[0]) for r in res) < 1e-6
    assert max(abs(r[1]) for r in res) < 1e-6


def test_array_field_matches_scalar_calls():
    coords, amps = airy_kl_data(X0)
    xs = np.linspace(0.05, 1.95, 39)
    u = kl_field(coords, amps, 0.05, xs)
    assert u.shape == xs.shape and u.dtype == complex
    for x, got in zip(xs, u):
        want = kl_field(coords, amps, 0.05, float(x))
        assert isinstance(want, complex)
        assert abs(got - want) <= 1e-13 * abs(want)


def test_array_field_raises_the_scalar_ordering_error():
    # S+ - S- = -2x: S+ < S- only at x = 0.5
    coords = kl_coordinates(lambda x: -x, lambda x: x)
    amps = kl_amplitudes(lambda x: 1.0 + 0j, lambda x: 0j, coords.rho)
    assert np.all(np.isfinite(kl_field(coords, amps, 0.05, np.array([-1.0, -0.5]))))
    for x in (0.5, np.array([-1.0, -0.5, 0.5])):
        with pytest.raises(ValueError, match="phase ordering violated"):
            kl_field(coords, amps, 0.05, x)


def test_array_field_raises_the_scalar_g1_singularity():
    # rho = x^2 vanishes at x = 0, where A+ + iA- = 1 + i does not
    coords = kl_coordinates(lambda x: x * x, lambda x: -x * x)
    amps = kl_amplitudes(lambda x: 1.0 + 0j, lambda x: 1.0 + 0j, coords.rho)
    for x in (0.0, np.array([-0.5, 0.0, 0.5])):
        with pytest.raises(ZeroDivisionError, match="g1 singular"):
            kl_field(coords, amps, 0.05, x)
    xs = np.array([-0.5, 0.25, 0.5])
    u = kl_field(coords, amps, 0.05, xs)
    assert u == pytest.approx([kl_field(coords, amps, 0.05, float(x)) for x in xs], rel=1e-13)


def test_array_g1_vanishes_only_where_the_combination_does():
    # A+ + iA- vanishes at x = 0 alone, so g1 is 0 there even though rho = 0
    coords = kl_coordinates(lambda x: 1.0 + x * x, lambda x: 1.0 - x * x)
    amps = kl_amplitudes(lambda x: -1j + x, lambda x: 1.0 + 0 * x, coords.rho)
    xs = np.array([-0.5, 0.0, 0.5])
    g1 = amps.g1(xs)
    assert g1[1] == 0.0
    assert [complex(v) for v in g1] == [amps.g1(float(x)) for x in xs]
