from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest

from foldoptics.wigner import (
    PhaseSpaceGrid,
    QuadraturePolicy,
    SmoothPhase,
    TruncationWarning,
    WaveFunctionSampler,
    chord_points,
    semiclassical_wigner_local,
    semiclassical_wigner_uniform,
    weak_limit_pairing,
    wigner_exact_airy,
    wigner_moment0,
    wigner_moment1,
    wigner_numeric,
    wigner_via_fourier,
)
from foldoptics.wkb import airy_inner_approx, airy_wkb_branches

EPS = 0.05
X0 = 2.0


def gaussian_sampler(eps=EPS):
    return WaveFunctionSampler(
        lambda u: np.exp(-(u**2) / (2.0 * eps)), (-2.0, 2.0), eps
    )


def gaussian_wigner(x, k, eps=EPS):
    return np.exp(-(x**2) / eps) * np.exp(-(k**2) / eps) / math.sqrt(math.pi * eps)


def fundamental_sampler(eps):
    # Pure-Airy caustic form; support reaches far enough into the shadow
    # that the taper only touches decayed signal.
    return WaveFunctionSampler(
        lambda u, e=eps: airy_inner_approx(u, X0, e), (-2.0, 5.0), eps
    )


def airy_plus_phase():
    plus, _ = airy_wkb_branches(X0)
    return (
        SmoothPhase(
            s=plus.S,
            s1=lambda x: math.sqrt(x),
            s2=lambda x: 0.5 * x**-0.5,
            s3=lambda x: -0.25 * x**-1.5,
        ),
        plus.A,
    )


def test_policy_validation():
    with pytest.raises(ValueError):
        QuadraturePolicy(sigma_samples=7)
    with pytest.raises(ValueError):
        QuadraturePolicy(sigma_samples=129)
    with pytest.raises(ValueError):
        QuadraturePolicy(sigma_samples=128, taper_fraction=0.5)
    with pytest.raises(ValueError):
        QuadraturePolicy(sigma_samples=128, truncation_rule="windowed")


def test_sampler_validation():
    with pytest.raises(ValueError):
        WaveFunctionSampler(lambda u: 0.0, (1.0, -1.0), EPS)
    with pytest.raises(ValueError):
        WaveFunctionSampler(lambda u: 0.0, (-1.0, 1.0), 0.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        PhaseSpaceGrid(np.arange(3.0), np.array([0.0, 0.5, 0.7]), np.zeros((3, 3)), EPS)
    with pytest.raises(ValueError):
        PhaseSpaceGrid(np.arange(3.0), np.arange(4.0), np.zeros((3, 3)), EPS)


def test_gaussian_oracle():
    xs = np.array([0.0, 0.1, 0.3])
    ks = np.linspace(-1.0, 1.0, 41)
    g = wigner_numeric(gaussian_sampler(), xs, ks, QuadraturePolicy(sigma_samples=2048))
    exact = gaussian_wigner(xs[:, None], ks[None, :])
    assert np.max(np.abs(g.values - exact)) <= 1e-6 * np.max(exact)


def test_real_input_is_even_in_k():
    xs = np.array([0.2])
    ks = np.linspace(-1.2, 1.2, 49)
    g = wigner_numeric(gaussian_sampler(), xs, ks, QuadraturePolicy(sigma_samples=1024))
    assert np.allclose(g.values[0], g.values[0][::-1], rtol=0, atol=1e-13)


def test_values_match_complex_assembly():
    # The cosine/sine half-window sum must equal the full complex sum,
    # whose imaginary part vanishes by conjugate symmetry.
    eps = EPS
    psi = gaussian_sampler()
    x, n, sigma_max = 0.15, 512, 1.5
    d = 2.0 * sigma_max / n
    sigma = (np.arange(n) + 0.5 - 0.5 * n) * d
    g = psi.value(x + sigma) * np.conj(psi.value(x - sigma))
    ks = np.linspace(-1.0, 1.0, 17)
    complex_sum = np.array(
        [(d / (math.pi * eps)) * np.sum(g * np.exp(-2j * k * sigma / eps)) for k in ks]
    )
    assert np.max(np.abs(complex_sum.imag)) <= 1e-12 * np.max(np.abs(complex_sum.real))

    support_psi = WaveFunctionSampler(psi.value, (x - sigma_max, x + sigma_max), eps)
    grid = wigner_numeric(
        support_psi, [x], ks, QuadraturePolicy(sigma_samples=n, taper_fraction=0.49999)
    )
    # same window, but the production path tapers; compare untapered paths
    grid_raw = (2.0 * d / (math.pi * eps)) * (
        np.cos(np.outer(ks, 2.0 * sigma[n // 2 :] / eps)) @ g[n // 2 :].real
        + np.sin(np.outer(ks, 2.0 * sigma[n // 2 :] / eps)) @ g[n // 2 :].imag
    )
    assert np.allclose(grid_raw, complex_sum.real, rtol=0, atol=1e-12)
    assert grid.values.shape == (1, ks.size)


def test_fft_and_direct_paths_agree_with_exact():
    eps = EPS
    psi = gaussian_sampler()
    n = 1024
    sigma_max = 2.0  # x = 0 row, support (-2, 2)
    d = 2.0 * sigma_max / n
    m = np.arange(-8, 9)
    ks_conj = math.pi * eps * m / (n * d)
    g_fft = wigner_numeric(psi, [0.0], ks_conj, QuadraturePolicy(sigma_samples=n))
    exact = gaussian_wigner(0.0, ks_conj)
    assert np.max(np.abs(g_fft.values[0] - exact)) <= 1e-10 * np.max(exact)

    ks_off = ks_conj + 0.5 * math.pi * eps / (n * d)
    g_direct = wigner_numeric(psi, [0.0], ks_off, QuadraturePolicy(sigma_samples=n))
    exact_off = gaussian_wigner(0.0, ks_off)
    assert np.max(np.abs(g_direct.values[0] - exact_off)) <= 1e-10 * np.max(exact_off)


def test_undersampling_refused_with_diagnostic():
    psi = gaussian_sampler()
    ks = np.linspace(-40.0, 40.0, 11)
    with pytest.raises(ValueError, match="required"):
        wigner_numeric(psi, [0.0], ks, QuadraturePolicy(sigma_samples=64))


def test_fundamental_solution_matches_exact_wigner():
    eps = EPS
    psi = fundamental_sampler(eps)
    xs = np.linspace(0.1, 1.9, 10)
    ks = np.linspace(-1.6, 1.6, 33)
    g = wigner_numeric(psi, xs, ks, QuadraturePolicy(sigma_samples=1024))
    exact = wigner_exact_airy(xs[:, None], ks[None, :], eps, X0)
    peak = np.max(np.abs(exact))
    mask = np.abs(exact) >= 0.01 * peak
    rel = np.max(np.abs(g.values[mask] - exact[mask]) / np.abs(exact[mask]))
    assert rel <= 5e-3


def test_error_does_not_grow_as_samples_double():
    eps = EPS
    psi = fundamental_sampler(eps)
    xs = np.linspace(0.3, 1.7, 5)
    ks = np.linspace(-1.5, 1.5, 21)
    exact = wigner_exact_airy(xs[:, None], ks[None, :], eps, X0)
    peak = np.max(np.abs(exact))
    mask = np.abs(exact) >= 0.01 * peak
    errs = []
    for n in (256, 512, 1024):
        g = wigner_numeric(psi, xs, ks, QuadraturePolicy(sigma_samples=n))
        errs.append(np.max(np.abs(g.values[mask] - exact[mask]) / np.abs(exact[mask])))
    assert errs[1] <= 1.1 * errs[0]
    assert errs[2] <= 1.1 * errs[1]
    assert errs[-1] <= 1e-4


def test_exact_airy_on_manifold():
    from foldoptics.specfun import airy

    val = wigner_exact_airy(1.21, 1.1, EPS, X0)
    expected = 2 ** (-1.0 / 3.0) * EPS ** (-2.0 / 3.0) / math.sqrt(X0) * airy(0.0).ai
    assert val == pytest.approx(expected, rel=1e-13)


def test_exact_airy_interior_cosine_asymptote():
    eps = 0.05
    gap = 10.0 * eps ** (2.0 / 3.0)
    x, k = 1.5, math.sqrt(1.5 - gap)
    w = wigner_exact_airy(x, k, eps, X0)
    s = x - k**2
    cosine = (
        (1.0 / math.sqrt(2.0 * math.pi))
        * eps**-0.5
        / math.sqrt(X0)
        * s**-0.25
        * math.cos(4.0 * s**1.5 / (3.0 * eps) - math.pi / 4.0)
    )
    assert abs(w - cosine) <= 3e-2 * abs(w)


def test_exact_airy_exterior_decay():
    eps = EPS
    peak = wigner_exact_airy(1.0, 1.0, eps, X0)
    outside = wigner_exact_airy(1.0, 1.4, eps, X0)
    assert abs(outside) < 1e-6 * abs(peak)


def test_chord_point_closed_form():
    S, _ = airy_plus_phase()
    sigma0 = chord_points(S.s1, 1.0, 0.8, (0.0, 0.999))
    assert sigma0 == pytest.approx(0.96, abs=1e-12)
    assert math.sqrt(1.0 + sigma0) + math.sqrt(1.0 - sigma0) == pytest.approx(1.6)


def test_chord_degenerates_on_manifold():
    S, _ = airy_plus_phase()
    assert chord_points(S.s1, 1.0, 1.0, (0.0, 0.999)) == 0.0


def test_chord_absent_outside_region():
    S, _ = airy_plus_phase()
    assert chord_points(S.s1, 1.0, 1.2, (0.0, 0.999)) is None
    assert chord_points(S.s1, 1.0, 0.5, (0.0, 0.999)) is None


def test_vectorised_chord_matches_closed_form():
    # For S' = sqrt(x) the chord is sigma0 = 2k sqrt(x - k^2), real for
    # x/2 < k^2 < x; the default bracket (0, 0.95x) holds it only for
    # k^2 > 0.656x, so x/2 < k^2 < 0.656x must report no chord.
    x = np.linspace(0.1, 1.9, 64)[:, None]
    k = np.linspace(0.0, 1.6, 97)[None, :]
    hi = 0.95 * x  # the semiclassical functions' default bracket
    sigma0 = chord_points(np.sqrt, x, k, (0.0, hi))
    assert sigma0.shape == (64, 97)
    real = (k**2 > x / 2) & (k**2 < x)
    closed = np.where(real, 2.0 * k * np.sqrt(np.where(real, x - k**2, 0.0)), np.inf)
    inside = closed < hi
    assert inside.sum() > 600
    assert np.max(np.abs(sigma0[inside] - closed[inside])) <= 1e-12
    assert np.all(np.isnan(sigma0[~inside]))
    beyond = real & (k**2 < 0.656 * x)
    assert beyond.sum() > 300
    assert not np.any(beyond & inside)


def test_local_exact_on_manifold():
    S, A = airy_plus_phase()
    x = 1.0
    w = semiclassical_wigner_local(S, A, x, math.sqrt(x), EPS)
    assert w == pytest.approx(wigner_exact_airy(x, math.sqrt(x), EPS, X0), rel=1e-12)


def test_local_band_error_shrinks_with_epsilon():
    S, A = airy_plus_phase()
    x = 1.0
    devs = []
    for eps in (0.1, 0.05, 0.025):
        band = math.sqrt(x) + eps ** (2.0 / 3.0) * np.linspace(-1.0, 1.0, 41)
        wl = np.array(
            [semiclassical_wigner_local(S, A, x, float(k), eps) for k in band]
        )
        we = np.array([wigner_exact_airy(x, float(k), eps, X0) for k in band])
        devs.append(np.max(np.abs(wl - we)) / np.max(np.abs(we)))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 0.3


def test_local_argument_linearization():
    # 2 sqrt(x) (k - sqrt(x)) is the first-order factorization of k^2 - x.
    x, k = 1.3, 1.15
    lin = 2.0 * math.sqrt(x) * (k - math.sqrt(x))
    assert k**2 - x == pytest.approx(lin + (k - math.sqrt(x)) ** 2, abs=1e-15)


@pytest.mark.parametrize(
    "x,k",
    [(1.0, 0.8), (1.0, 0.75), (1.5, 0.95), (0.8, 0.7), (1.0, 0.999), (2.4, 1.2)],
)
def test_uniform_reproduces_exact_between_parabolas(x, k):
    S, A = airy_plus_phase()
    w_u = semiclassical_wigner_uniform(S, A, x, k, EPS, (0.0, 0.999 * x))
    w_e = wigner_exact_airy(x, k, EPS, X0)
    assert w_u == pytest.approx(w_e, rel=1e-10)


def test_uniform_on_manifold_limit():
    S, A = airy_plus_phase()
    x = 1.44
    w_u = semiclassical_wigner_uniform(S, A, x, math.sqrt(x), EPS)
    assert w_u == pytest.approx(wigner_exact_airy(x, math.sqrt(x), EPS, X0), rel=1e-12)


def test_uniform_array_matches_scalar_calls():
    # the CLI's default grid: x0 = 2, eps = 0.05, 64 x 64, k folded to |k|
    S, A = airy_plus_phase()
    S = dataclasses.replace(S, s1=np.sqrt)
    xs = np.linspace(0.1, 1.9, 64)
    ks = np.abs(np.linspace(-1.6, 1.6, 64))
    w = semiclassical_wigner_uniform(S, A, xs[:, None], ks[None, :], EPS)
    scalar = np.array(
        [[semiclassical_wigner_uniform(S, A, x, k, EPS) for k in ks] for x in xs]
    )
    peak = np.max(np.abs(wigner_exact_airy(xs[:, None], ks[None, :], EPS, X0)))
    assert w.shape == (64, 64)
    assert np.max(np.abs(w - scalar)) <= 1e-11 * peak


def test_degenerate_fold_rejected():
    flat = SmoothPhase(s=lambda x: x, s1=lambda x: 1.0, s2=lambda x: 0.0, s3=lambda x: 0.0)
    with pytest.raises(ValueError, match="S'''"):
        semiclassical_wigner_local(flat, lambda x: 1.0, 1.0, 1.0, EPS)
    with pytest.raises(ValueError, match="S'''"):
        semiclassical_wigner_uniform(flat, lambda x: 1.0, 1.0, 1.0, EPS)


def test_moment0_recovers_density():
    xs = np.array([0.0, 0.1, 0.25])
    ks = np.linspace(-1.5, 1.5, 121)
    g = wigner_numeric(gaussian_sampler(), xs, ks, QuadraturePolicy(sigma_samples=2048))
    m0 = wigner_moment0(g)
    assert np.allclose(m0, np.exp(-(xs**2) / EPS), rtol=1e-5, atol=1e-9)


def test_moment1_recovers_flux():
    k0 = 0.4
    psi = WaveFunctionSampler(
        lambda u: np.exp(-(u**2) / (2.0 * EPS)) * np.exp(1j * k0 * u / EPS),
        (-2.0, 2.0),
        EPS,
    )
    xs = np.array([0.0, 0.2])
    ks = np.linspace(-1.5, 1.5, 121)
    g = wigner_numeric(psi, xs, ks, QuadraturePolicy(sigma_samples=4096))
    m1 = wigner_moment1(g)
    assert np.allclose(m1, k0 * np.exp(-(xs**2) / EPS), rtol=1e-5, atol=1e-9)


def test_even_wigner_has_zero_flux():
    xs = np.array([0.0, 0.3])
    ks = np.linspace(-1.5, 1.5, 121)
    g = wigner_numeric(gaussian_sampler(), xs, ks, QuadraturePolicy(sigma_samples=2048))
    assert np.max(np.abs(wigner_moment1(g))) < 1e-12


def test_moment1_requires_symmetric_grid():
    g = PhaseSpaceGrid(np.arange(2.0), np.linspace(-1.0, 1.1, 22), np.zeros((2, 22)), EPS)
    with pytest.raises(ValueError, match="symmetric"):
        wigner_moment1(g)


def test_truncated_k_window_warns():
    xs = np.array([0.0])
    ks = np.linspace(-0.2, 0.2, 21)
    g = wigner_numeric(gaussian_sampler(), xs, ks, QuadraturePolicy(sigma_samples=1024))
    with pytest.warns(TruncationWarning):
        wigner_moment0(g)


def test_wkb_moment_ratio_approaches_group_velocity():
    x_eval = 1.2
    devs = []
    for eps in (0.02, 0.01):
        psi = WaveFunctionSampler(
            lambda u, e=eps: u**-0.25 * np.exp(1j * (2.0 / 3.0) * u**1.5 / e),
            (0.4, 2.6),
            eps,
        )
        ks = np.linspace(-2.2, 2.2, 221)
        g = wigner_numeric(psi, [x_eval], ks, QuadraturePolicy(sigma_samples=8192))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            ratio = wigner_moment1(g)[0] / wigner_moment0(g)[0]
        devs.append(abs(ratio - math.sqrt(x_eval)))
    assert devs[0] < 1e-3
    assert devs[1] < devs[0]


def test_via_fourier_matches_direct_gaussian():
    # The Gaussian is its own scaled Fourier transform, so the same
    # sampler serves both sides.
    psi_hat = gaussian_sampler()
    for (x, k) in [(0.0, 0.0), (0.3, 0.2), (-0.2, 0.5)]:
        got = wigner_via_fourier(psi_hat, x, k)
        assert got == pytest.approx(gaussian_wigner(x, k), rel=1e-5)


def test_via_fourier_translation_covariance():
    a = 0.35
    psi_hat = gaussian_sampler()
    shifted_hat = WaveFunctionSampler(
        lambda q: np.exp(-(q**2) / (2.0 * EPS)) * np.exp(-1j * q * a / EPS),
        (-2.0, 2.0),
        EPS,
    )
    for (x, k) in [(0.3, 0.1), (0.5, -0.4)]:
        assert wigner_via_fourier(shifted_hat, x, k) == pytest.approx(
            wigner_via_fourier(psi_hat, x - a, k), rel=1e-8, abs=1e-12
        )


def test_via_fourier_refuses_undersampling():
    psi_hat = gaussian_sampler()
    with pytest.raises(ValueError, match="undersampled"):
        wigner_via_fourier(psi_hat, 30.0, 0.0, QuadraturePolicy(sigma_samples=64))


def test_weak_limit_pairing_gaussian():
    xs = np.linspace(-1.2, 1.4, 61)
    ks = np.linspace(-1.5, 1.5, 121)
    g = wigner_numeric(gaussian_sampler(), xs, ks, QuadraturePolicy(sigma_samples=4096))
    aq, bq = 12.0, 10.0
    val = weak_limit_pairing(g, lambda x, k: math.exp(-aq * (x - 0.1) ** 2 - bq * k**2))

    def gauss_overlap(a, b, c):
        # integral of exp(-a(t-b)^2 - c t^2) dt
        return math.sqrt(math.pi / (a + c)) * math.exp(-a * b**2 * c / (a + c))

    ref = (
        gauss_overlap(aq, 0.1, 1.0 / EPS)
        * gauss_overlap(bq, 0.0, 1.0 / EPS)
        / math.sqrt(math.pi * EPS)
    )
    assert val == pytest.approx(ref, rel=1e-4)


def test_weak_limit_pairing_k_independent_reduces_to_moment0():
    xs = np.linspace(-1.2, 1.4, 61)
    ks = np.linspace(-1.5, 1.5, 121)
    g = wigner_numeric(gaussian_sampler(), xs, ks, QuadraturePolicy(sigma_samples=4096))
    val = weak_limit_pairing(g, lambda x, k: math.exp(-10.0 * x**2))
    qw = np.exp(-10.0 * xs**2) * wigner_moment0(g)
    assert val == pytest.approx(float(np.trapezoid(qw, xs)), rel=1e-8)


def test_weak_limit_pairing_rejects_escaping_support():
    xs = np.linspace(-0.5, 0.5, 31)
    ks = np.linspace(-0.5, 0.5, 41)
    g = wigner_numeric(gaussian_sampler(), xs, ks, QuadraturePolicy(sigma_samples=2048))
    with pytest.raises(ValueError, match="escapes"):
        weak_limit_pairing(g, lambda x, k: 1.0)


def test_dirac_splitting_of_airy_wigner():
    x_fix = 1.0
    ks = np.linspace(-2.0, 2.0, 401)
    peak_offsets = []
    for eps in (0.1, 0.05, 0.025):
        g = wigner_numeric(
            fundamental_sampler(eps), [x_fix], ks, QuadraturePolicy(sigma_samples=16384)
        )
        w = g.values[0]
        pos, neg = ks > 0.5, ks < -0.5
        k_plus = ks[pos][np.argmax(w[pos])]
        k_minus = ks[neg][np.argmax(w[neg])]
        mass_plus = np.trapezoid(np.clip(w[pos], 0.0, None), ks[pos])
        mass_minus = np.trapezoid(np.clip(w[neg], 0.0, None), ks[neg])
        assert mass_plus / mass_minus == pytest.approx(1.0, abs=1e-3)
        peak_offsets.append(abs(k_plus - math.sqrt(x_fix)) + abs(k_minus + math.sqrt(x_fix)))
    # the finite-eps peak sits where the Airy argument hits its first max,
    # an O(eps^(2/3)) inward shift from k = sqrt(x)
    assert peak_offsets[0] >= peak_offsets[1] >= peak_offsets[2]
    assert peak_offsets[2] < 0.08
