"""Scaled Wigner transforms and their semiclassical approximations.

The transform used throughout is

    W(x, k) = (1/(pi eps)) Integral psi(x+sigma) conj(psi)(x-sigma)
              e^{-2ik sigma/eps} dsigma,

assembled from the conjugate-symmetric half-window so every computed value
is exactly real.  Closed forms are provided for the Airy fundamental
solution, and Berry's chord construction gives the local and uniform
semiclassical approximations for single-phase WKB inputs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .specfun import airy

__all__ = [
    "WaveFunctionSampler",
    "PhaseSpaceGrid",
    "QuadraturePolicy",
    "SmoothPhase",
    "TruncationWarning",
    "wigner_numeric",
    "wigner_exact_airy",
    "chord_points",
    "semiclassical_wigner_local",
    "semiclassical_wigner_uniform",
    "wigner_moment0",
    "wigner_moment1",
    "wigner_via_fourier",
    "weak_limit_pairing",
]

# Fraction of the geometric window kept when the input is a WKB field:
# beyond |sigma| = x the branch phases turn complex, so the window stops
# short of that line and the taper absorbs the cut.
_DOMAIN_WINDOW_SHRINK = 0.95

# Below this (scale-relative) chord length the uniform formula switches to
# the coalescence expansion; the matched pair is numerically 0/0 there.
_CHORD_COALESCENCE_TOL = 1e-5

# Chord solver: scan nodes across the bracket, then at most this many
# halvings, which take a scan cell down to adjacent doubles for any chord
# above the coalescence tolerance.
_SCAN_NODES = 257
_BISECTION_STEPS = 64

_TRUNCATION_RULES = ("support_limited", "domain_limited")

_BOUNDARY_MASS_TOL = 1e-8


class TruncationWarning(UserWarning):
    """A k-window or sigma-window carries non-negligible boundary mass."""


@dataclass(frozen=True)
class WaveFunctionSampler:
    """A wave function with its essential support and semiclassical scale."""

    value: Callable[[float], complex]
    support: Tuple[float, float]
    epsilon: float

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not self.support[0] < self.support[1]:
            raise ValueError("support interval must be ordered")


@dataclass
class PhaseSpaceGrid:
    """Real Wigner values sampled on a rectangular (x, k) grid."""

    xs: np.ndarray
    ks: np.ndarray
    values: np.ndarray
    epsilon: float

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.ks = np.asarray(self.ks, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.values.shape != (self.xs.size, self.ks.size):
            raise ValueError("values must have shape (len(xs), len(ks))")
        dk = np.diff(self.ks)
        if dk.size and (dk.min() <= 0 or np.max(np.abs(dk - dk[0])) > 1e-9 * dk[0]):
            raise ValueError("k-grid must be uniformly spaced and increasing")

    @property
    def k_spacing(self) -> float:
        return float(self.ks[1] - self.ks[0])


@dataclass(frozen=True)
class QuadraturePolicy:
    """Sampling contract for the sigma-quadrature.

    sigma_samples is the (even) number of midpoint nodes across the full
    window; taper_fraction is the outer fraction smoothed by a raised
    cosine; the truncation rule picks the window from the sampler support
    alone or additionally from the |sigma| < x reality constraint.
    """

    sigma_samples: int
    taper_fraction: float = 0.125
    truncation_rule: str = "support_limited"

    def __post_init__(self):
        if self.sigma_samples < 8 or self.sigma_samples % 2:
            raise ValueError("sigma_samples must be an even integer >= 8")
        if not 0.0 < self.taper_fraction < 0.5:
            raise ValueError("taper_fraction must lie in (0, 0.5)")
        if self.truncation_rule not in _TRUNCATION_RULES:
            raise ValueError(f"truncation_rule must be one of {_TRUNCATION_RULES}")


@dataclass(frozen=True)
class SmoothPhase:
    """A phase with its first three derivatives as callables."""

    s: Callable[[float], float]
    s1: Callable[[float], float]
    s2: Callable[[float], float]
    s3: Callable[[float], float]


def _sample(fn: Callable, pts: np.ndarray) -> np.ndarray:
    """Evaluate a sampler over an array, tolerating scalar-only callables."""
    try:
        out = np.asarray(fn(pts))
        if out.shape == pts.shape:
            return out.astype(complex)
    except (TypeError, ValueError):
        pass
    return np.array([complex(fn(float(p))) for p in pts])


def _sigma_window(psi: WaveFunctionSampler, x: float, rule: str) -> float:
    a, b = psi.support
    if not a <= x <= b:
        raise ValueError(f"x = {x} outside sampler support [{a}, {b}]")
    half = min(x - a, b - x)
    if rule == "domain_limited":
        if x <= 0:
            raise ValueError("domain_limited window requires x > 0")
        half = _DOMAIN_WINDOW_SHRINK * min(half, x)
    return half


def _taper(sigma: np.ndarray, sigma_max: float, fraction: float) -> np.ndarray:
    edge = (1.0 - fraction) * sigma_max
    w = np.ones_like(sigma)
    outer = np.abs(sigma) > edge
    t = (np.abs(sigma[outer]) - edge) / (fraction * sigma_max)
    w[outer] = 0.5 * (1.0 + np.cos(np.pi * np.minimum(t, 1.0)))
    return w


def _required_samples(k_max: float, sigma_max: float, epsilon: float) -> int:
    return int(math.ceil(4.0 * k_max * sigma_max / (math.pi * epsilon)))


def _conjugate_indices(
    ks: np.ndarray, n: int, d_sigma: float, epsilon: float
) -> Optional[np.ndarray]:
    m_float = ks * (n * d_sigma) / (math.pi * epsilon)
    m = np.rint(m_float)
    if np.max(np.abs(m_float - m)) <= 1e-9:
        return m.astype(int)
    return None


def wigner_numeric(
    psi: WaveFunctionSampler, xs, ks, q: QuadraturePolicy
) -> PhaseSpaceGrid:
    """Midpoint sigma-quadrature of the scaled Wigner integral on a grid.

    Each x-row integrates over the largest symmetric window the truncation
    rule allows, tapered at the rim.  Rows whose k-grid coincides with the
    window's conjugate Fourier grid go through an FFT; all other rows use
    an exactly real cosine/sine summation over the half window.  Rows that
    would undersample the kernel oscillation are refused outright.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ks = np.atleast_1d(np.asarray(ks, dtype=float))
    eps = psi.epsilon
    n = q.sigma_samples
    k_max = float(np.max(np.abs(ks))) if ks.size else 0.0
    values = np.zeros((xs.size, ks.size))

    for i, x in enumerate(xs):
        sigma_max = _sigma_window(psi, float(x), q.truncation_rule)
        if sigma_max <= 0.0:
            continue
        needed = _required_samples(k_max, sigma_max, eps)
        if n < needed:
            raise ValueError(
                f"sigma-quadrature undersampled at x = {x}: "
                f"{n} samples < {needed} required for "
                f"k_max = {k_max}, sigma_max = {sigma_max:.6g}, eps = {eps}"
            )
        d_sigma = 2.0 * sigma_max / n
        sigma = (np.arange(n) + 0.5 - 0.5 * n) * d_sigma
        g = _sample(psi.value, x + sigma) * np.conj(_sample(psi.value, x - sigma))
        g *= _taper(sigma, sigma_max, q.taper_fraction)

        m_idx = _conjugate_indices(ks, n, d_sigma, eps)
        if m_idx is not None:
            spectrum = np.fft.fft(g)
            phase = (-1.0) ** m_idx * np.exp(-1j * math.pi * m_idx / n)
            values[i] = (d_sigma / (math.pi * eps)) * np.real(
                phase * spectrum[np.mod(m_idx, n)]
            )
        else:
            half = sigma[n // 2 :]
            gh = g[n // 2 :]
            angles = np.outer(ks, 2.0 * half / eps)
            values[i] = (2.0 * d_sigma / (math.pi * eps)) * (
                np.cos(angles) @ gh.real + np.sin(angles) @ gh.imag
            )
    return PhaseSpaceGrid(xs=xs, ks=ks, values=values, epsilon=eps)


def wigner_exact_airy(x, k, epsilon: float, x0: float):
    """Closed-form Wigner transform of the Airy fundamental solution:
    2^{-1/3} eps^{-2/3} x0^{-1/2} Ai(2^{2/3} eps^{-2/3} (k^2 - x))."""
    if epsilon <= 0 or x0 <= 0:
        raise ValueError("epsilon and x0 must be positive")
    arg = 2.0 ** (2.0 / 3.0) * epsilon ** (-2.0 / 3.0) * (np.asarray(k) ** 2 - x)
    out = 2.0 ** (-1.0 / 3.0) * epsilon ** (-2.0 / 3.0) / math.sqrt(x0) * airy(arg).ai
    if np.isscalar(x) and np.isscalar(k):
        return float(out)
    return out


def chord_points(
    S_prime: Callable, x, k, bracket: Tuple
) -> Union[float, np.ndarray, None]:
    """Positive solution sigma0 of S'(x+sigma) + S'(x-sigma) = 2k.

    Batched scan + bisection, array in/array out: x, k and the bracket
    ends broadcast together.  The scan steps through _SCAN_NODES
    equispaced nodes of the bracket, evaluating S' over all points once
    per node (so memory stays O(points)), and keeps each point's first
    sign change; vectorised bisection then shrinks that cell to adjacent
    doubles and keeps the end with the smaller residual.  The result is 0
    where the chord degenerates to the tangent point (k = S'(x)) and no
    root where the bracket holds no sign change.  Scalar inputs give a
    float, 0.0 or None; array inputs give an array with NaN for no root.
    """
    inputs = (x, k, np.maximum(bracket[0], 0.0), bracket[1])
    # [()] turns 0-d arrays into numpy scalars, whose arithmetic is cheaper
    x, k, lo, hi = (
        v[()] for v in np.broadcast_arrays(*(np.asarray(u, dtype=float) for u in inputs))
    )

    def f(sigma):
        return S_prime(x + sigma) + S_prime(x - sigma) - 2.0 * k

    f0 = f(0.0)
    if np.any((hi <= lo) & (f0 != 0.0)):
        raise ValueError("bracket must contain a positive interval")
    step = (hi - lo) / (_SCAN_NODES - 1)

    # first sign change over the scan nodes: the cell [a, b] with f(a), f(b)
    found = np.zeros(np.shape(x), dtype=bool)[()]
    a = b = s_prev = lo
    fa = fb = f_prev = f(lo)
    for j in range(1, _SCAN_NODES):
        s_j = hi if j == _SCAN_NODES - 1 else j * step + lo
        f_j = f(s_j)
        hit = f_prev * f_j <= 0.0
        if hit.any():
            hit = hit & ~found
            a, fa = np.where(hit, s_prev, a), np.where(hit, f_prev, fa)
            b, fb = np.where(hit, s_j, b), np.where(hit, f_j, fb)
            found = found | hit
            if found.all():
                break
        s_prev, f_prev = s_j, f_j

    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (a + b)
        live = (mid > a) & (mid < b)
        if not live.any():
            break
        fm = f(mid)
        upper = live & (fa * fm > 0.0)
        lower = live & ~upper
        a, fa = np.where(upper, mid, a), np.where(upper, fm, fa)
        b, fb = np.where(lower, mid, b), np.where(lower, fm, fb)

    root = np.where(np.abs(fa) <= np.abs(fb), a, b)
    root = np.where(f0 == 0.0, 0.0, np.where(found, root, np.nan))
    if root.ndim == 0:
        return None if np.isnan(root) else float(root)
    return root


def _chord_amplitude(A: Callable, x, sigma):
    return np.real(A(x + sigma) * np.conj(A(x - sigma)))


def _fold_inputs(S: SmoothPhase, x, k, epsilon: float, bracket):
    """Broadcast (x, k), refuse eps <= 0 and S''' = 0, and solve the chords
    (NaN where there is none) over the default or given bracket."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    x, k = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(k, dtype=float))
    s3 = S.s3(x)
    if np.any(s3 == 0.0):
        raise ValueError("degenerate fold: S'''(x) = 0")
    if bracket is None:
        bracket = (0.0, _DOMAIN_WINDOW_SHRINK * x)
    sigma0 = np.asarray(chord_points(S.s1, x, k, bracket), dtype=float)
    return x, k, s3, sigma0


def _as_output(out):
    out = np.asarray(out)
    return float(out) if out.ndim == 0 else out


def semiclassical_wigner_local(
    S: SmoothPhase,
    A: Callable,
    x,
    k,
    epsilon: float,
    bracket: Optional[Tuple] = None,
):
    """Berry's local approximation near the manifold k = S'(x):

    (2^{2/3}/eps^{2/3}) (2/|S'''|)^{1/3} D(sigma0, x)
        Ai(-(2^{2/3}/eps^{2/3}) cbrt(2/S''') (k - S'(x)))

    with D(sigma, x) = A(x+sigma) conj(A(x-sigma)) evaluated on the chord
    (or at 0 when the chord is absent or degenerate).  The cube root is
    the real signed one, so both signs of S''' give oscillation on the
    correct side.

    Batched scan + bisection chords and one Airy call, array in/array
    out: x and k broadcast; scalars give a float.
    """
    x, k, s3, sigma0 = _fold_inputs(S, x, k, epsilon, bracket)
    sigma0 = np.where(np.isnan(sigma0), 0.0, sigma0)
    scale = (2.0 / epsilon) ** (2.0 / 3.0)
    alpha = k - S.s1(x)
    return _as_output(
        scale
        * (2.0 / np.abs(s3)) ** (1.0 / 3.0)
        * _chord_amplitude(A, x, sigma0)
        * airy(-scale * np.cbrt(2.0 / s3) * alpha).ai
    )


def semiclassical_wigner_uniform(
    S: SmoothPhase,
    A: Callable,
    x,
    k,
    epsilon: float,
    bracket: Optional[Tuple] = None,
):
    """Uniform chord-based approximation 2 A0 eps^{-2/3} Ai(-eps^{-2/3} xi).

    With a genuine chord sigma0 the cubic data come from the chord phase
    F(sigma) = S(x+sigma) - S(x-sigma) - 2k sigma:

        xi = [(3/2) F(sigma0)]^{2/3},
        A0 = sqrt(2) xi^{1/4} Re D(sigma0, x) / |F''(sigma0)|^{1/2};

    at (or beyond) coalescence the fold expansion takes over:

        xi = 2 cbrt(1/S''') (k - S'(x)),  A0 = |A(x)|^2 |S'''|^{-1/3}.

    Batched scan + bisection chords and one Airy call, array in/array
    out: x and k broadcast, the chord-vs-fold choice is a mask, and
    scalars give a float.
    """
    x, k, s3, sigma0 = _fold_inputs(S, x, k, epsilon, bracket)
    chord = sigma0 > _CHORD_COALESCENCE_TOL * np.maximum(np.abs(x), 1.0)
    s = np.where(chord, sigma0, 0.0)
    F0 = S.s(x + s) - S.s(x - s) - 2.0 * k * s
    F2 = S.s2(x + s) - S.s2(x - s)
    chord = chord & (F0 > 0.0) & (F2 != 0.0)
    # fold cells get stand-in values so the chord formulas stay finite there
    xi_chord = (1.5 * np.where(chord, F0, 1.0)) ** (2.0 / 3.0)
    a0_chord = (
        math.sqrt(2.0)
        * xi_chord**0.25
        * _chord_amplitude(A, x, s)
        / np.sqrt(np.abs(np.where(chord, F2, 1.0)))
    )
    xi = np.where(chord, xi_chord, 2.0 * np.cbrt(1.0 / s3) * (k - S.s1(x)))
    a0 = np.where(chord, a0_chord, np.abs(A(x)) ** 2 * np.abs(s3) ** (-1.0 / 3.0))
    return _as_output(
        2.0 * a0 * epsilon ** (-2.0 / 3.0) * airy(-(epsilon ** (-2.0 / 3.0)) * xi).ai
    )


def _check_boundary_mass(g: PhaseSpaceGrid) -> None:
    peak = np.max(np.abs(g.values))
    if peak == 0.0:
        return
    edge = max(np.max(np.abs(g.values[:, 0])), np.max(np.abs(g.values[:, -1])))
    if edge > _BOUNDARY_MASS_TOL * peak:
        warnings.warn(
            f"k-window truncates Wigner mass: boundary/peak = {edge / peak:.3e}",
            TruncationWarning,
            stacklevel=3,
        )


def wigner_moment0(g: PhaseSpaceGrid) -> np.ndarray:
    """Trapezoid k-integral of W per x (the position density)."""
    _check_boundary_mass(g)
    return np.trapezoid(g.values, g.ks, axis=1)


def wigner_moment1(g: PhaseSpaceGrid) -> np.ndarray:
    """Trapezoid k-integral of k W per x (the flux density).

    Requires a k-grid symmetric about 0 so the odd-part cancellation is
    exact in the quadrature.
    """
    if np.max(np.abs(g.ks + g.ks[::-1])) > 1e-12 * max(np.max(np.abs(g.ks)), 1.0):
        raise ValueError("flux moment requires a k-grid symmetric about 0")
    _check_boundary_mass(g)
    return np.trapezoid(g.values * g.ks, g.ks, axis=1)


def wigner_via_fourier(
    psi_hat: WaveFunctionSampler,
    x: float,
    k: float,
    q: Optional[QuadraturePolicy] = None,
) -> float:
    """Wigner value from the momentum-side definition

    W(x, k) = (1/(2 pi eps)) Integral psihat(k+p/2) conj(psihat)(k-p/2)
              e^{i p x/eps} dp,

    with psihat(q) = (2 pi eps)^{-1/2} Integral psi(u) e^{-i q u/eps} du.
    The p-window is the largest symmetric one inside the declared support;
    without an explicit policy the sample count is sized automatically.
    """
    eps = psi_hat.epsilon
    a, b = psi_hat.support
    p_max = 2.0 * min(k - a, b - k)
    if p_max <= 0.0:
        return 0.0
    needed = _required_samples(abs(x), 0.5 * p_max, eps)
    if q is None:
        n = max(512, 2 * needed)
        n += n % 2
    else:
        n = q.sigma_samples
        if n < needed:
            raise ValueError(
                f"p-quadrature undersampled: {n} samples < {needed} required"
            )
    d_p = p_max / n
    p = (np.arange(n) + 0.5 - 0.5 * n) * d_p
    g = _sample(psi_hat.value, k + 0.5 * p) * np.conj(_sample(psi_hat.value, k - 0.5 * p))
    half = p[n // 2 :]
    gh = g[n // 2 :]
    angles = half * x / eps
    return float(
        (2.0 * d_p / (2.0 * math.pi * eps))
        * (np.cos(angles) @ gh.real - np.sin(angles) @ gh.imag)
    )


def weak_limit_pairing(g: PhaseSpaceGrid, Q: Callable[[float, float], float]) -> float:
    """Two-dimensional trapezoid pairing of the grid against a test
    function.  The paired mass Q*W must vanish (to 1e-8 of its peak) on
    the grid boundary, otherwise the pairing is truncated and refused."""
    qv = np.array([[Q(float(x), float(k)) for k in g.ks] for x in g.xs])
    prod = g.values * qv
    peak = np.max(np.abs(prod))
    if peak > 0.0:
        edge = max(
            np.max(np.abs(prod[0, :])),
            np.max(np.abs(prod[-1, :])),
            np.max(np.abs(prod[:, 0])),
            np.max(np.abs(prod[:, -1])),
        )
        if edge > _BOUNDARY_MASS_TOL * peak:
            raise ValueError("test function support escapes the grid")
    return float(np.trapezoid(np.trapezoid(prod, g.ks, axis=1), g.xs))
