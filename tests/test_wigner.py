from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

import foldoptics.wigner as wigner_module
from foldoptics.cli import _airy_curve
from foldoptics.wigner import (
    LagrangianCurve,
    PhaseSpaceGrid,
    QuadraturePolicy,
    TruncationWarning,
    WaveFunctionSampler,
    semiclassical_wigner_uniform,
    wigner_exact_airy,
    wigner_moment0,
    wigner_moment1,
    wigner_numeric,
)
from foldoptics.wkb import airy_inner_approx, airy_wkb_field

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


# the CLI's curve: X = p^2 with rho = 1/(2 sqrt(x0))
AIRY = _airy_curve(X0)
# the coefficient A of the non-parabolic profile eta^2 = x + A x^2
BENT = 0.3


def test_policy_validation():
    with pytest.raises(ValueError):
        QuadraturePolicy(sigma_samples=7)
    with pytest.raises(ValueError):
        QuadraturePolicy(sigma_samples=129)
    with pytest.raises(ValueError):
        QuadraturePolicy(sigma_samples=128, taper_fraction=0.5)


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


def dense_reference(psi, xs, ks, q):
    """The direct cosine/sine half-window sum, one row at a time, with the
    window and raised-cosine taper written out in sigma."""
    eps, n = psi.epsilon, q.sigma_samples
    a, b = psi.support
    out = np.zeros((len(xs), len(ks)))
    for i, x in enumerate(xs):
        sigma_max = min(x - a, b - x)
        d = 2.0 * sigma_max / n
        half = (np.arange(n // 2) + 0.5) * d
        edge = (1.0 - q.taper_fraction) * sigma_max
        t = np.clip((half - edge) / (q.taper_fraction * sigma_max), 0.0, 1.0)
        g = psi.value(x + half) * np.conj(psi.value(x - half)) * 0.5 * (1.0 + np.cos(np.pi * t))
        angles = np.outer(ks, 2.0 * half / eps)
        out[i] = (2.0 * d / (math.pi * eps)) * (
            np.cos(angles) @ np.real(g) + np.sin(angles) @ np.imag(g)
        )
    return out


def band_wkb_sampler(eps, x0=16.0, cut=1.0):
    # criterion 02's complex two-branch WKB field, zero outside (cut, x0)
    def value(u):
        out = np.zeros(u.shape, dtype=complex)
        live = (u > cut) & (u < x0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out[live] = airy_wkb_field(u[live], eps, x0)
        return out

    return WaveFunctionSampler(value, (cut, x0), eps)


@pytest.mark.parametrize(
    "case", ["real-fundamental", "complex-two-branch-wkb", "complex-one-branch-wkb"]
)
def test_chirp_z_matches_dense_sum(case):
    if case == "real-fundamental":
        psi = fundamental_sampler(EPS)
        xs, ks = np.linspace(0.1, 1.9, 12), np.linspace(-1.6, 1.6, 64)
        q = QuadraturePolicy(sigma_samples=2048)
    elif case == "complex-two-branch-wkb":
        psi = band_wkb_sampler(0.025)
        xs, ks = np.linspace(7.5, 8.5, 5), np.linspace(2.45, 3.1, 66)
        q = QuadraturePolicy(sigma_samples=16384, taper_fraction=0.0625)
    else:
        # a single travelling branch: W is not even in k, so the sign of
        # the sine term matters (the two-branch field is real up to a
        # constant phase, and its W is even)
        psi = WaveFunctionSampler(
            lambda u: u**-0.25 * np.exp(1j * (2.0 / 3.0) * u**1.5 / 0.02), (0.4, 2.6), 0.02
        )
        xs, ks = np.linspace(0.6, 2.4, 7), np.linspace(-2.2, 2.2, 221)
        q = QuadraturePolicy(sigma_samples=8192)
    got = wigner_numeric(psi, xs, ks, q).values
    ref = dense_reference(psi, xs, ks, q)
    assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref))


def test_nonuniform_k_grid_refused_before_sampling():
    calls = []

    def counting(u):
        calls.append(u.shape)
        return np.exp(-(u**2) / (2.0 * EPS))

    psi = WaveFunctionSampler(counting, (-2.0, 2.0), EPS)
    with pytest.raises(ValueError, match="k-grid must be uniformly spaced"):
        wigner_numeric(psi, [0.0, 0.1], [0.0, 0.5, 0.7], QuadraturePolicy(sigma_samples=512))
    assert calls == []
    wigner_numeric(psi, [0.0, 0.1], [0.0, 0.5, 1.0], QuadraturePolicy(sigma_samples=512))
    assert calls == [(2, 256), (2, 256)]


def test_nan_k_grid_is_refused_as_non_uniform():
    # a NaN spacing fails the check, not the later undersampling test
    psi = gaussian_sampler()
    q = QuadraturePolicy(sigma_samples=64)
    for ks in ([0.0, math.nan, 1.0], [math.nan, 0.0], [0.0, 1.0, math.nan]):
        with pytest.raises(ValueError, match="k-grid must be uniformly spaced"):
            wigner_numeric(psi, [0.5], ks, q)
        with pytest.raises(ValueError, match="k-grid must be uniformly spaced"):
            PhaseSpaceGrid(np.array([0.5]), ks, np.zeros((1, len(ks))), EPS)


def test_rows_split_across_a_chunk_boundary_agree():
    psi = fundamental_sampler(EPS)
    q = QuadraturePolicy(sigma_samples=2048)
    xs, ks = np.linspace(0.1, 1.9, 40), np.linspace(-1.6, 1.6, 64)
    # rows per chunk at this size: FFT work arrays of the chirp-z length
    rows_per_chunk = wigner_module._CHUNK_ELEMENTS // wigner_module._fft_length(1024 + 64 - 1)
    assert 1 < rows_per_chunk < xs.size // 2
    whole = wigner_numeric(psi, xs, ks, q).values
    split = rows_per_chunk // 2 + 1
    parts = np.vstack(
        [wigner_numeric(psi, xs[:split], ks, q).values,
         wigner_numeric(psi, xs[split:], ks, q).values]
    )
    assert np.max(np.abs(parts - whole)) <= 1e-13 * np.max(np.abs(whole))


def _is_5_smooth(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def test_chirp_z_length_is_the_smallest_5_smooth_one():
    for m in (*range(1, 300), 544, 1055, 1087, 8257, 10**5 + 1, 2**20):
        length = wigner_module._fft_length(m)
        assert _is_5_smooth(length), m
        # no longer than the next power of 2, the length used before
        assert m <= length <= 1 << (m - 1).bit_length(), m
        assert not any(_is_5_smooth(q) for q in range(m, length)), m
    # criterion 02 (16384 samples, 66 k), criterion 03 (1024, 33) and the
    # default wigner export (2048, 64)
    assert [wigner_module._fft_length(m) for m in (8192 + 65, 512 + 32, 1024 + 63)] == [
        8640, 576, 1125,
    ]


def test_5_smooth_chirp_z_matches_a_power_of_two_one(monkeypatch):
    # the default wigner export, against the same transform padded to the
    # next power of 2
    xs, ks = np.linspace(0.1, 1.9, 64), np.linspace(-1.6, 1.6, 64)
    psi = WaveFunctionSampler(lambda u: airy_inner_approx(u, X0, EPS), (-2.4, 4.9), EPS)
    q = QuadraturePolicy(sigma_samples=2048)
    got = wigner_numeric(psi, xs, ks, q).values
    monkeypatch.setattr(wigner_module, "_fft_length", lambda m: 1 << (m - 1).bit_length())
    want = wigner_numeric(psi, xs, ks, q).values
    peak = np.max(np.abs(wigner_exact_airy(xs[:, None], ks[None, :], EPS, X0)))
    assert np.max(np.abs(got - want)) <= 1e-14 * peak


def test_sampler_must_map_arrays_to_arrays():
    with pytest.raises(TypeError):
        wigner_numeric(
            WaveFunctionSampler(lambda u: math.exp(-u * u), (-2.0, 2.0), EPS),
            [0.0], [0.0, 0.1], QuadraturePolicy(sigma_samples=64),
        )
    with pytest.raises(ValueError, match=r"shape \(\) for points of shape \(1, 32\)"):
        wigner_numeric(
            WaveFunctionSampler(lambda u: 1.0, (-2.0, 2.0), EPS),
            [0.0], [0.0, 0.1], QuadraturePolicy(sigma_samples=64),
        )


def test_undersampling_refused_with_diagnostic():
    psi = gaussian_sampler()
    ks = np.linspace(-40.0, 40.0, 11)
    with pytest.raises(ValueError, match="required"):
        wigner_numeric(psi, [0.0], ks, QuadraturePolicy(sigma_samples=64))


def test_window_refusals_name_the_first_offending_row():
    # x = 2 sits on the support edge (an empty window, skipped); the next
    # row is undersampled or outside the support, whichever comes first
    psi = gaussian_sampler()
    ks = np.linspace(-40.0, 40.0, 11)
    q = QuadraturePolicy(sigma_samples=64)
    with pytest.raises(ValueError) as refused:
        wigner_numeric(psi, [2.0, 1.5, 3.0], ks, q)
    assert str(refused.value) == (
        "sigma-quadrature undersampled at x = 1.5: 64 samples < 510 required "
        "for k_max = 40.0, sigma_max = 0.5, eps = 0.05"
    )
    with pytest.raises(ValueError) as refused:
        wigner_numeric(psi, [2.0, 3.0, 1.5], ks, q)
    assert str(refused.value) == "x = 3.0 outside sampler support [-2.0, 2.0]"
    with pytest.raises(ValueError, match="undersampled at x = 0.5: 64 samples < nan required"):
        wigner_numeric(psi, [0.5], [math.nan], q)


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


def _bent_curve(c=0.0):
    """The curve eta^2 = x + A x^2 of a non-parabolic profile, translated
    by c: X(p) = c + (sqrt(1 + 4 A p^2) - 1)/(2A), written without the
    cancellation at small p, with S' = eta, |A|^2 = 1/S' and
    rho = |X'|/|p| = 2/sqrt(1 + 4 A p^2)."""
    a = BENT

    def root(p):
        return np.sqrt(1.0 + 4.0 * a * np.square(p))

    return LagrangianCurve(
        X=lambda p: c + 2.0 * np.square(p) / (1.0 + root(p)),
        X1=lambda p: 2.0 * p / root(p),
        X2=lambda p: 2.0 / root(p) ** 3,
        rho=lambda p: 2.0 / root(p),
    )


def _chord_parts(curve, x, k):
    """The chord solve and the chord integrals of semiclassical_wigner_uniform:
    D per cell, and F/d^3 and the X' gap per chord cell."""
    x, k = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(k, dtype=float))
    D, _ = wigner_module._chord_square(curve, x, k)
    chord = D > 0.0
    area, gap = wigner_module._chord_integrals(curve, k.ravel()[chord], np.sqrt(D[chord]))
    return D, area, gap


def _chord_parts_cell_by_cell(curve, x, k):
    x, k = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(k, dtype=float))
    parts = [_chord_parts(curve, xi[None], ki[None]) for xi, ki in zip(x.ravel(), k.ravel())]
    return tuple(np.concatenate([p[i] for p in parts]) for i in range(3))


def _airy_error(curve, xs, ks, eps=EPS):
    """max |semiclassical - wigner_exact_airy| over the grid, relative to the
    exact transform's peak there."""
    w = semiclassical_wigner_uniform(curve, xs[:, None], ks[None, :], eps)
    exact = wigner_exact_airy(xs[:, None], ks[None, :], eps, X0)
    return np.max(np.abs(w - exact)) / np.max(np.abs(exact))


def test_chord_point_closed_form():
    # on X = p^2 the chord of (x, k) is d^2 = x - k^2: (0.8 +- 0.6)^2 average to 1
    D, area, gap = _chord_parts(AIRY, 1.0, 0.8)
    assert D[0] == pytest.approx(0.36, abs=1e-15)
    assert area[0] == pytest.approx(4.0 / 3.0, rel=1e-15)  # F/d^3 = (4/3) X''/2
    assert gap[0] == pytest.approx(4.0, rel=1e-15)  # (2(k+d) - 2(k-d))/d
    # the non-parabolic curve: the chord equation holds to rounding
    bent = _bent_curve()
    x, k = np.linspace(0.2, 1.8, 9)[:, None], np.linspace(-1.0, 1.0, 11)[None, :]
    D, _, _ = _chord_parts(bent, x, k)
    D = D.reshape(9, 11)
    real = D > 0.0
    d = np.sqrt(np.where(real, D, 0.0))
    residual = bent.X(k + d) + bent.X(k - d) - 2.0 * x
    assert real.sum() > 60
    assert np.max(np.abs(residual[real])) <= 1e-14 * 2.0 * np.max(x)


def test_chord_degenerates_on_manifold():
    # x = X(k): the chord shrinks to the curve point, D = 0, and the fold
    # expansion there is the exact transform
    k = np.linspace(-1.3, 1.3, 27)
    D, _, _ = _chord_parts(AIRY, k * k, k)
    assert np.all(D == 0.0)
    w = semiclassical_wigner_uniform(AIRY, k * k, k, EPS)
    exact = wigner_exact_airy(k * k, k, EPS, X0)
    assert np.max(np.abs(w - exact)) <= 1e-15 * np.max(exact)


def test_chord_absent_outside_region():
    # x < X(k): no real chord (D < 0), on the parabola and the bent curve
    for curve in (AIRY, _bent_curve()):
        k = np.linspace(-1.5, 1.5, 31)
        x = curve.X(k) - 0.05
        D, area, _ = _chord_parts(curve, x, k)
        assert np.all(D < 0.0) and area.size == 0


def test_vectorised_chord_matches_closed_form():
    # the CLI's layout: an x column, a signed k row, k = 0 included
    x = np.linspace(0.1, 1.9, 64)[:, None]
    k = np.linspace(-1.6, 1.6, 97)[None, :]
    D, _, _ = _chord_parts(AIRY, x, k)
    closed = np.ravel(x - k * k)
    assert np.array_equal(D > 0.0, closed > 0.0)
    assert np.max(np.abs(D - closed)) <= 4e-16 * 1.9


def _chord_cases():
    rng = np.random.default_rng(14)
    cases = {}
    for nx, nk in ((8, 32), (64, 64)):
        x = np.linspace(0.1, 1.9, nx)[:, None]
        k = np.linspace(-1.6, 1.6, nk)[None, :]
        cases[f"{nx}x{nk}"] = (AIRY, x, k)
        cases[f"{nx}x{nk}-transposed"] = (AIRY, x.T, k.T)
        cases[f"{nx}x{nk}-full"] = (AIRY, np.repeat(x, nk, axis=1), np.repeat(k, nx, axis=0))
    x, k = rng.uniform(0.1, 1.9, 5000), rng.uniform(-1.6, 1.6, 5000)
    cases["random-cells"] = (_bent_curve(), x, k)
    # X = 1 - cos p, X' = sin p: Newton iterates, long chords take more panels
    sine = LagrangianCurve(X=lambda p: 1.0 - np.cos(p), X1=np.sin, X2=np.cos,
                           rho=lambda p: np.full(np.shape(p), 0.5))
    cases["sin"] = (sine, np.array([0.2, 0.6, 1.0])[:, None], np.array([-0.7, -0.2, 0.3, 0.85])[None, :])
    # constant X'' and rho come back as plain numbers
    cases["constant"] = (AIRY, np.array([0.5, 1.0, 1.5])[:, None], np.array([0.3, 1.0, 1.2])[None, :])
    cases["constant-scalar"] = (AIRY, 1.0, 0.3)
    cases["constant-scalar-tangent"] = (AIRY, 1.0, 1.0)
    for k in (0.8, 1.0, 1.2):
        cases[f"scalar-{k}"] = (_bent_curve(), 1.0, k)
    # chords of 1e-150 and below: no d^3 is formed, so nothing underflows
    cases["underflow"] = (_bent_curve(), np.array([1e-300, 3e-300, 5e-324])[:, None],
                          np.array([0.0, 1e-151, -1e-151])[None, :])
    # X(k +- d) near the largest double
    cases["overflow"] = (AIRY, np.array([[8e307]]), np.array([[0.0, 1e153, -2e153]]))
    # refusals: a cell at x = inf, and a curve undefined (NaN) beyond
    # |p| = 2, which the chord of (5, 0) crosses
    cases["infinite"] = (AIRY, np.array([1.0, np.inf, 2.0]), 0.5)
    limited = LagrangianCurve(X=lambda p: np.where(np.abs(p) <= 2.0, np.square(p), np.nan),
                              X1=lambda p: 2.0 * p, X2=AIRY.X2, rho=AIRY.rho)
    cases["nan"] = (limited, np.array([1.0, 3.0, 5.0, 6.0]), 0.0)
    return cases


_CHORD_CASES = _chord_cases()


def test_chord_refusal_names_a_chord_that_does_not_exist():
    # X = 1 - cos p: inside the curve (D0 > 0), but X(k+d) + X(k-d) stays
    # below 3.047 against 2x = 3.370, so the bracket never gets an upper end
    sine = LagrangianCurve(X=lambda p: 1.0 - np.cos(p), X1=np.sin, X2=np.cos, rho=lambda p: 1.0)
    x, k = 1.6848618679697396, 1.0195583134326507
    with pytest.raises(ValueError) as refusal:
        semiclassical_wigner_uniform(sine, x, k, 0.05)
    assert str(refusal.value) == ("chord equation has no real root: X(k+d) + X(k-d) does not "
                                  f"reach 2x at x = {x}, k = {k}")


def _outcome(fn, *args):
    """fn(*args), or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as e:
        return str(e)


@pytest.mark.parametrize("name", sorted(_CHORD_CASES))
def test_chord_points_matches_per_point_reference_bit_for_bit(name):
    # a converged cell takes no further steps or panels, so a cell's chord,
    # area and X' gap do not depend on the other cells of its call; a call
    # that refuses a cell refuses the first one the cell-by-cell calls refuse
    curve, x, k = _CHORD_CASES[name]
    got = _outcome(_chord_parts, curve, x, k)
    want = _outcome(_chord_parts_cell_by_cell, curve, x, k)
    if name in ("infinite", "nan"):
        assert isinstance(got, str) and got == want
        return
    for g, w in zip(got, want):
        assert np.shape(g) == np.shape(w)
        assert np.asarray(g, dtype=float).tobytes() == np.asarray(w, dtype=float).tobytes()
    assert np.all(np.isfinite(got[0]))
    assert np.all(np.isfinite(got[1])) and np.all(np.isfinite(got[2]))


@pytest.mark.parametrize("form", [semiclassical_wigner_uniform])
def test_semiclassical_grid_layout_matches_pre_broadcast_arrays(form):
    x = np.linspace(0.1, 1.9, 64)[:, None]
    k = np.linspace(-1.6, 1.6, 64)[None, :]
    _assert_same_bits(
        form(AIRY, x, k, EPS), form(AIRY, np.repeat(x, 64, axis=1), np.repeat(k, 64, axis=0), EPS)
    )


def _assert_same_bits(got, want):
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


@pytest.mark.parametrize(
    "x,k",
    [
        (1.0, 0.8), (1.0, 0.75), (1.5, 0.95), (0.8, 0.7), (1.0, 0.999), (2.4, 1.2),
        (0.8, 0.65),
    ],
)
def test_uniform_reproduces_exact_between_parabolas(x, k):
    # W is even in k on the even curve X = p^2: both signs are exact
    for kk in (k, -k):
        w_u = semiclassical_wigner_uniform(AIRY, x, kk, EPS)
        assert w_u == pytest.approx(wigner_exact_airy(x, kk, EPS, X0), rel=1e-12)


def test_uniform_on_manifold_limit():
    x = 1.44
    w_u = semiclassical_wigner_uniform(AIRY, x, math.sqrt(x), EPS)
    assert w_u == pytest.approx(wigner_exact_airy(x, math.sqrt(x), EPS, X0), rel=1e-12)


def test_uniform_array_matches_scalar_calls():
    # the CLI's default grid: x0 = 2, eps = 0.05, 64 x 64, signed k
    xs = np.linspace(0.1, 1.9, 64)
    ks = np.linspace(-1.6, 1.6, 64)
    w = semiclassical_wigner_uniform(AIRY, xs[:, None], ks[None, :], EPS)
    scalar = np.array([[semiclassical_wigner_uniform(AIRY, x, k, EPS) for k in ks] for x in xs])
    peak = np.max(np.abs(wigner_exact_airy(xs[:, None], ks[None, :], EPS, X0)))
    assert w.shape == (64, 64)
    assert np.max(np.abs(w - scalar)) <= 1e-12 * peak


@pytest.mark.parametrize("eps", [0.1, 0.05, 0.0125])
def test_semiclassical_matches_exact_airy_on_every_cell(eps):
    # odd nk puts k = 0 on the grid; the cells x = k^2 are added exactly
    xs, ks = np.linspace(0.1, 1.9, 200), np.linspace(-1.6, 1.6, 201)
    assert _airy_error(AIRY, xs, ks, eps) <= 1e-12
    on = np.linspace(-1.3, 1.3, 101)
    w = semiclassical_wigner_uniform(AIRY, on * on, on, eps)
    exact = wigner_exact_airy(on * on, on, eps, X0)
    assert np.all(np.isfinite(w)) and np.max(np.abs(w - exact)) <= 1e-12 * np.max(exact)


def test_accuracy_check_fails_for_a_density_off_by_a_thousandth():
    # the bound above is tight enough to see rho scaled by 1 + 1e-3
    xs, ks = np.linspace(0.1, 1.9, 64), np.linspace(-1.6, 1.6, 64)
    scaled = LagrangianCurve(AIRY.X, AIRY.X1, AIRY.X2, lambda p: (1.0 + 1e-3) * AIRY.rho(p))
    assert _airy_error(scaled, xs, ks) > 1e-4


def test_accuracy_check_fails_for_a_flipped_chord_area(monkeypatch):
    # with F's sign flipped xi = (3F/2)^{2/3} has no real value on the chord
    # cells, and the Airy kernel refuses the NaN arguments
    integrals = wigner_module._chord_integrals
    monkeypatch.setattr(
        wigner_module, "_chord_integrals",
        lambda curve, k, d: (-integrals(curve, k, d)[0], integrals(curve, k, d)[1]),
    )
    xs, ks = np.linspace(0.1, 1.9, 64), np.linspace(-1.6, 1.6, 64)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
        _airy_error(AIRY, xs, ks)


@pytest.mark.parametrize("c", [0.5, -0.5, 3.0])
def test_translated_curve_gives_the_translated_wigner_function(c):
    # the curve X(p) + c is the field translated by c: W_c(x, k) = W(x - c, k)
    xs, ks = np.linspace(0.05, 1.9, 40), np.linspace(-1.6, 1.6, 41)
    w = semiclassical_wigner_uniform(_bent_curve(), xs[:, None], ks[None, :], EPS)
    moved = semiclassical_wigner_uniform(_bent_curve(c), xs[:, None] + c, ks[None, :], EPS)
    assert np.max(np.abs(moved - w)) <= 1e-12 * np.max(np.abs(w))


def test_bent_curve_matches_the_chord_formula_at_high_precision():
    # mpmath at 40 digits: d from the chord equation, F from the closed-form
    # integral of X, then Berry's xi and A0 as written
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    a = mp.mpf(BENT)
    root = lambda p: mp.sqrt(1 + 4 * a * p * p)  # noqa: E731
    X = lambda p: (root(p) - 1) / (2 * a)  # noqa: E731
    # Int X dp = (p root(p) + asinh(2 sqrt(a) p)/(2 sqrt(a)))/(4a) - p/(2a)
    G = lambda p: (p * root(p) + mp.asinh(2 * mp.sqrt(a) * p) / (2 * mp.sqrt(a))) / (4 * a) - p / (2 * a)  # noqa: E731
    bent = _bent_curve()
    xs, ks = np.linspace(0.05, 1.9, 8), np.linspace(-1.6, 1.6, 9)
    w = semiclassical_wigner_uniform(bent, xs[:, None], ks[None, :], EPS)
    scale = mp.mpf(EPS) ** (-mp.mpf(2) / 3)
    checked = 0
    for i, x in enumerate(xs):
        for j, k in enumerate(ks):
            if x - bent.X(k) <= 1e-3:
                continue
            x_, k_ = mp.mpf(x), mp.mpf(k)
            d = mp.findroot(lambda d: X(k_ + d) + X(k_ - d) - 2 * x_, mp.sqrt(x_ - X(k_)))
            F = 2 * d * x_ - (G(k_ + d) - G(k_ - d))
            xi = (mp.mpf(3) / 2 * F) ** (mp.mpf(2) / 3)
            slope = lambda p: 2 * p / root(p)  # noqa: E731
            rho = lambda p: 2 / root(p)  # noqa: E731
            a0 = mp.sqrt(2) * xi ** 0.25 * mp.sqrt(rho(k_ - d) * rho(k_ + d)) / mp.sqrt(
                abs(slope(k_ + d) - slope(k_ - d)))
            want = float(2 * a0 * scale * mp.airyai(-scale * xi))
            assert abs(w[i, j] - want) <= 1e-12 * np.max(np.abs(w)), (x, k)
            checked += 1
    assert checked > 30


def test_concave_curve_mirrors_the_convex_one():
    # X = -p^2 is the parabola reflected in x: its chords have negative area
    # and its fold opens the other way, W_concave(x, k) = W(-x, k)
    concave = LagrangianCurve(lambda p: -np.square(p), lambda p: -2.0 * p, lambda p: -2.0, AIRY.rho)
    xs, ks = np.linspace(0.1, 1.9, 32), np.linspace(-1.6, 1.6, 33)
    w = semiclassical_wigner_uniform(AIRY, xs[:, None], ks[None, :], EPS)
    mirrored = semiclassical_wigner_uniform(concave, -xs[:, None], ks[None, :], EPS)
    assert np.max(np.abs(mirrored - w)) <= 1e-14 * np.max(np.abs(w))


def test_gauss_legendre_literals_are_numpys_rule():
    nodes, weights = np.polynomial.legendre.leggauss(8)
    assert np.max(np.abs(wigner_module._GL_NODES - nodes)) <= 1e-15
    assert np.max(np.abs(wigner_module._GL_WEIGHTS - weights)) <= 1e-15


def test_degenerate_fold_rejected():
    flat = LagrangianCurve(lambda p: p, lambda p: 1.0, lambda p: 0.0, lambda p: 1.0)
    with pytest.raises(ValueError, match="X''"):
        semiclassical_wigner_uniform(flat, 1.0, 1.0, EPS)


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


def via_fourier(psi_hat, x, k):
    # the momentum-side integral of psi-hat at (x, k) is the position-side
    # one at (k, -x)
    return wigner_numeric(psi_hat, k, -x, QuadraturePolicy(512)).values[0, 0]


def test_via_fourier_matches_direct_gaussian():
    # The Gaussian is its own scaled Fourier transform, so the same
    # sampler serves both sides.
    psi_hat = gaussian_sampler()
    for (x, k) in [(0.0, 0.0), (0.3, 0.2), (-0.2, 0.5)]:
        got = via_fourier(psi_hat, x, k)
        assert got == pytest.approx(gaussian_wigner(x, k), rel=1e-12)


def test_via_fourier_translation_covariance():
    a = 0.35
    psi_hat = gaussian_sampler()
    shifted_hat = WaveFunctionSampler(
        lambda q: np.exp(-(q**2) / (2.0 * EPS)) * np.exp(-1j * q * a / EPS),
        (-2.0, 2.0),
        EPS,
    )
    for (x, k) in [(0.3, 0.1), (0.5, -0.4)]:
        assert via_fourier(shifted_hat, x, k) == pytest.approx(
            via_fourier(psi_hat, x - a, k), rel=1e-8, abs=1e-12
        )


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
