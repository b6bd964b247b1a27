from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from foldoptics.kl import kl_amplitudes, kl_coordinates, kl_field
from foldoptics.wkb import (
    CausticZoneWarning,
    airy_inner_approx,
    airy_wkb_branches,
    airy_wkb_field,
)

X0 = 2.0


def kl_values(phases, amplitudes):
    """phi, rho, g0 and g1 of two branches' phases (S+, S-) and amplitudes (A+, A-)."""
    phi, rho = kl_coordinates(*phases)
    return (phi, rho, *kl_amplitudes(*amplitudes, rho))


def airy_kl_values(x):
    return kl_values(*airy_wkb_branches(x, X0))


def test_airy_coordinates_reduce_to_identity():
    phi0 = (2.0 / 3.0) * X0**1.5
    for x in np.linspace(0.05, 1.95, 20):
        phi, rho, _, _ = airy_kl_values(x)
        assert abs(phi - phi0) < 1e-12
        assert abs(rho - x) < 1e-12


def test_ordering_violation_raises():
    with pytest.raises(ValueError, match="ordering"):
        kl_coordinates(0.0, 1.0)


def test_equal_phases_sit_on_caustic():
    assert kl_coordinates(1.0, 1.0)[1] == 0.0


def test_airy_modified_amplitudes():
    g0_expected = -(1.0 / math.sqrt(2.0)) * np.exp(1j * math.pi / 4.0) * X0**-0.25
    for x in (0.01, 0.4, 1.8):
        _, _, g0, g1 = airy_kl_values(x)
        assert g0 == pytest.approx(g0_expected, rel=1e-12)
        assert g1 == 0.0


def test_g1_zero_without_evaluating_inverse_root_on_caustic():
    # A+ + iA- cancels identically, so g1 must come back 0 even where
    # rho = 0 and rho^{-1/4} would blow up.
    assert kl_amplitudes(-1j, 1.0, 0.0)[1] == 0.0


def test_noncancelling_amplitudes_on_caustic_raise():
    with pytest.raises(ZeroDivisionError, match="singular"):
        kl_amplitudes(1.0, 1.0, 0.0)


@pytest.mark.parametrize("epsilon", [0.1, 0.05])
def test_field_reproduces_inner_approximation(epsilon):
    # Identical up to roundoff; the grid stays off the immediate caustic
    # neighborhood, where subtracting the branch phases loses digits.
    xs = np.linspace(0.05, 1.95, 20)
    for x in xs:
        u_kl = kl_field(*airy_kl_values(float(x)), epsilon)
        u_in = complex(airy_inner_approx(float(x), X0, epsilon))
        assert abs(u_kl - u_in) <= 1e-12 * abs(u_in)


def test_field_finite_on_caustic():
    val = kl_field(0.7, 0.0, 1.0 + 0.0j, 0.0j, 0.05)
    assert np.isfinite(val.real) and np.isfinite(val.imag)
    assert abs(val) > 0.0


def test_field_continuous_across_caustic():
    # phi = 0.7, rho = x, g0 = 1, g1 = 0
    eps = 0.05
    xs = np.linspace(-0.05, 0.05, 401)
    vals = np.array([kl_field(0.7, float(x), 1.0 + 0.0j, 0.0j, eps) for x in xs])
    steps = np.abs(np.diff(vals))
    assert np.all(np.isfinite(steps))
    assert np.max(steps) < 10.0 * np.median(steps) + 1e-12


def test_far_field_matches_wkb_and_improves():
    # The leading-order mismatch oscillates in x, so a single abscissa can
    # sit on a node for one epsilon and not another; the envelope over a
    # short window around x = 1 is the O(epsilon) quantity.
    xs = np.linspace(0.8, 1.2, 41)
    devs = []
    for eps in (0.1, 0.05, 0.025):
        u_kl = np.array([kl_field(*airy_kl_values(float(x)), eps) for x in xs])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CausticZoneWarning)
            u_wkb = airy_wkb_field(xs, eps, X0)
        devs.append(np.max(np.abs(u_kl - u_wkb)) / np.max(np.abs(u_kl)))
    assert devs[0] < 5e-2
    assert devs[0] > devs[1] > devs[2]


def test_epsilon_must_be_positive():
    with pytest.raises(ValueError):
        kl_field(*airy_kl_values(1.0), 0.0)


def test_array_field_matches_scalar_calls():
    xs = np.linspace(0.05, 1.95, 39)
    u = kl_field(*airy_kl_values(xs), 0.05)
    assert u.shape == xs.shape and u.dtype == complex
    for x, got in zip(xs, u):
        want = kl_field(*airy_kl_values(float(x)), 0.05)
        assert isinstance(want, complex)
        assert abs(got - want) <= 1e-13 * abs(want)


def test_array_field_raises_the_scalar_ordering_error():
    # S+ - S- = -2x: S+ < S- only at x = 0.5
    def field(x):
        return kl_field(*kl_values((-x, x), (1.0 + 0j, 0j)), 0.05)

    assert np.all(np.isfinite(field(np.array([-1.0, -0.5]))))
    for x in (0.5, np.array([-1.0, -0.5, 0.5])):
        with pytest.raises(ValueError, match="phase ordering violated"):
            field(x)


def test_array_field_raises_the_scalar_g1_singularity():
    # rho = x^2 vanishes at x = 0, where A+ + iA- = 1 + i does not
    def field(x):
        return kl_field(*kl_values((x * x, -x * x), (1.0 + 0j, 1.0 + 0j)), 0.05)

    for x in (0.0, np.array([-0.5, 0.0, 0.5])):
        with pytest.raises(ZeroDivisionError, match="g1 singular"):
            field(x)
    xs = np.array([-0.5, 0.25, 0.5])
    assert field(xs) == pytest.approx([field(float(x)) for x in xs], rel=1e-13)


def test_array_g1_vanishes_only_where_the_combination_does():
    # A+ + iA- vanishes at x = 0 alone, so g1 is 0 there even though rho = 0
    def g1(x):
        return kl_values((1.0 + x * x, 1.0 - x * x), (-1j + x, 1.0 + 0 * x))[3]

    xs = np.array([-0.5, 0.0, 0.5])
    assert g1(xs)[1] == 0.0
    assert [complex(v) for v in g1(xs)] == [g1(float(x)) for x in xs]
