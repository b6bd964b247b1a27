"""Scaled Wigner transforms and their semiclassical approximations.

The transform used throughout is

    W(x, k) = (1/(pi eps)) Integral psi(x+sigma) conj(psi)(x-sigma)
              e^{-2ik sigma/eps} dsigma,

assembled from the conjugate-symmetric half-window so every computed value
is exactly real.  Closed forms are provided for the Airy fundamental
solution, and Berry's chord construction on the Lagrangian curve gives the
uniform semiclassical approximation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Tuple

import numpy as np

from .specfun import airy_ai

__all__ = [
    "WaveFunctionSampler",
    "PhaseSpaceGrid",
    "QuadraturePolicy",
    "LagrangianCurve",
    "TruncationWarning",
    "wigner_numeric",
    "wigner_exact_airy",
    "semiclassical_wigner_uniform",
    "wigner_moment0",
    "wigner_moment1",
]

# The chord solver's steps per cell, and the chord integrals' panels: at most
_CHORD_STEPS = 64
_MAX_PANELS = 256
_EPS = 2.0**-52
_PLUS_MINUS = np.array([[1.0], [-1.0]])

# 8-node Gauss-Legendre rule on [-1, 1]: the nodes t > 0 and their weights from
# numpy.polynomial's leggauss(8), written out so that the package does not load it
_GL = np.array([
    [0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362],
    [0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706],
])
_GL_NODES, _GL_WEIGHTS = np.c_[_GL[:, ::-1] * [[-1.0], [1.0]], _GL]

_BOUNDARY_MASS_TOL = 1e-8

# wigner_numeric transforms rows in chunks whose (rows, FFT length) work
# arrays hold about this many complex elements.
_CHUNK_ELEMENTS = 2**14


class TruncationWarning(UserWarning):
    """A k-window or sigma-window carries non-negligible boundary mass."""


@dataclass(frozen=True)
class WaveFunctionSampler:
    """A wave function with its essential support and semiclassical scale.

    value is array in, array out: it maps an array of points of any shape
    to the (real or complex) values at those points, in the same shape.
    """

    value: Callable[[np.ndarray], np.ndarray]
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
        # written so that a NaN spacing is refused too
        if dk.size and not (dk.min() > 0 and np.max(np.abs(dk - dk[0])) <= 1e-9 * dk[0]):
            raise ValueError("k-grid must be uniformly spaced and increasing")


@dataclass(frozen=True)
class QuadraturePolicy:
    """Sampling contract for the sigma-quadrature.

    sigma_samples is the (even) number of midpoint nodes across the full
    window; taper_fraction is the outer fraction smoothed by a raised
    cosine.
    """

    sigma_samples: int
    taper_fraction: float = 0.125

    def __post_init__(self):
        if self.sigma_samples < 8 or self.sigma_samples % 2:
            raise ValueError("sigma_samples must be an even integer >= 8")
        if not 0.0 < self.taper_fraction < 0.5:
            raise ValueError("taper_fraction must lie in (0, 0.5)")


@dataclass(frozen=True)
class LagrangianCurve:
    """The Lagrangian curve x = X(p) of a fold, parametrised by momentum: X,
    X' and X'', and the density rho(p) = |A(X(p))|^2 |X'(p)|, regular through
    the turning point.  Each maps an array of momenta to an array of its
    shape, or to a plain number where it is constant."""

    X: Callable[[np.ndarray], np.ndarray]
    X1: Callable[[np.ndarray], np.ndarray]
    X2: Callable[[np.ndarray], np.ndarray]
    rho: Callable[[np.ndarray], np.ndarray]


def _sample(fn: Callable, pts: np.ndarray) -> np.ndarray:
    """Evaluate a sampler over an array: array in, same-shape array out."""
    out = np.asarray(fn(pts))
    if out.shape != pts.shape:
        raise ValueError(
            f"sampler returned shape {out.shape} for points of shape {pts.shape}; "
            "a sampler must map an array to an array of the same shape"
        )
    return out


def _required_samples(k_max, sigma_max, epsilon: float):
    """Samples the kernel needs on windows of half-width sigma_max (a float array)."""
    return np.ceil(4.0 * k_max * sigma_max / (math.pi * epsilon))


@lru_cache
def _fft_length(m: int) -> int:
    """The smallest 2^a 3^b 5^c >= m (numpy's FFT has radix-3 and -5 passes)."""
    odd = (3**i * 5**j for i in range(m.bit_length()) for j in range(m.bit_length()))
    return min((p << (-(-m // p) - 1).bit_length() for p in odd if p < 2 * m), default=1)


def _sigma_windows(psi: WaveFunctionSampler, xs: np.ndarray, ks: np.ndarray, n: int):
    """Each row's sigma half-width: the largest symmetric window inside the
    sampler support.  Rows outside it, or that n samples would undersample
    (NaN k too), are refused, the first of them named."""
    k_max = float(np.max(np.abs(ks))) if ks.size else 0.0
    a, b = psi.support
    sigma_max = np.minimum(xs - a, b - xs)
    needed = _required_samples(k_max, sigma_max, psi.epsilon)
    outside = ~((a <= xs) & (xs <= b))
    refused = outside | ((sigma_max > 0.0) & ~(n >= needed))
    if refused.any():
        i = int(refused.argmax())
        if outside[i]:
            raise ValueError(f"x = {float(xs[i])} outside sampler support [{a}, {b}]")
        raise ValueError(
            f"sigma-quadrature undersampled at x = {xs[i]}: "
            f"{n} samples < {needed[i]:.15g} required for "
            f"k_max = {k_max}, sigma_max = {sigma_max[i]:.6g}, eps = {psi.epsilon}"
        )
    return sigma_max


def wigner_numeric(
    psi: WaveFunctionSampler, xs, ks, q: QuadraturePolicy
) -> PhaseSpaceGrid:
    """Midpoint sigma-quadrature of the scaled Wigner integral on a grid.

    Each x-row integrates over the largest symmetric window inside the
    sampler support, tapered at the rim.  By conjugate symmetry a row is the
    exactly real half-window sum over sigma_j = (j + 1/2) dsigma, j < n/2,

        (2 dsigma/(pi eps)) Re sum_j g_j e^{-2i k_m sigma_j/eps},
        g_j = psi(x+sigma_j) conj(psi)(x-sigma_j) taper_j,

    which on the uniform k-grid k_m = k_0 + m dk is a chirp-z transform
    (Bluestein): three FFTs per row, of the smallest 5-smooth length
    2^a 3^b 5^c >= n/2 + len(ks) - 1.  Rows go in chunks, with one sampler
    call for psi(x+sigma) and one for psi(x-sigma) over each chunk's
    (rows, n/2) array.  A non-uniform k-grid, and rows that would
    undersample the kernel oscillation, are refused before any sampling.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ks = np.atleast_1d(np.asarray(ks, dtype=float))
    # refuses a non-uniform k-grid before any sampling; rows are filled below
    grid = PhaseSpaceGrid(xs=xs, ks=ks, values=np.zeros((xs.size, ks.size)), epsilon=psi.epsilon)
    eps, n, nk = psi.epsilon, q.sigma_samples, ks.size
    sigma_max = _sigma_windows(psi, xs, ks, n)

    k0 = ks[0] if nk else 0.0
    dk = (ks[-1] - ks[0]) / (nk - 1) if nk > 1 else 0.0
    j, m = np.arange(n // 2), np.arange(nk)
    length = _fft_length(j.size + nk - 1)
    # the chirp's circular lags: 0..nk-1 at the front, -(n/2-1)..-1 at the back
    lag2 = np.r_[0:nk, nk - length : 0].astype(float) ** 2
    # raised cosine over the outer taper_fraction of the window |sigma| <= sigma_max
    t = np.clip(((j + 0.5) / j.size - 1.0) / q.taper_fraction + 1.0, 0.0, 1.0)
    taper = 0.5 * (1.0 + np.cos(np.pi * t))
    # 2 k_m sigma_j/eps = (dsigma/eps)(2 k_0 (j + 1/2) + dk (m^2 + m + j^2 - (m - j)^2))
    kernel = 2.0 * k0 * (j + 0.5) + dk * j * j
    live = np.flatnonzero(sigma_max > 0.0)
    chunk = max(1, _CHUNK_ELEMENTS // length)
    for rows in (live[i : i + chunk] for i in range(0, live.size, chunk)):
        x, d_sigma = xs[rows, None], (2.0 * sigma_max[rows] / n)[:, None]
        sigma = (j + 0.5) * d_sigma
        g = _sample(psi.value, x + sigma) * np.conj(_sample(psi.value, x - sigma)) * taper
        rate = d_sigma / eps
        a = g * np.exp(-1j * (rate * kernel))
        chirp = np.exp(1j * ((rate * dk) * lag2))
        conv = np.fft.ifft(np.fft.fft(a, length) * np.fft.fft(chirp), axis=-1)[:, :nk]
        grid.values[rows] = (2.0 * rate / math.pi) * np.real(
            np.exp(-1j * ((rate * dk) * (m * (m + 1.0)))) * conv
        )
    return grid


def wigner_exact_airy(x, k, epsilon: float, x0: float):
    """Closed-form Wigner transform of the Airy fundamental solution:
    2^{-1/3} eps^{-2/3} x0^{-1/2} Ai(2^{2/3} eps^{-2/3} (k^2 - x))."""
    if epsilon <= 0 or x0 <= 0:
        raise ValueError("epsilon and x0 must be positive")
    arg = 2.0 ** (2.0 / 3.0) * epsilon ** (-2.0 / 3.0) * (np.asarray(k) ** 2 - x)
    out = 2.0 ** (-1.0 / 3.0) * epsilon ** (-2.0 / 3.0) / math.sqrt(x0) * airy_ai(arg)
    return float(out) if np.ndim(out) == 0 else out


def _chord_square(curve: LagrangianCurve, x, k):
    """D = d^2 of each chord, X(k+d) + X(k-d) = 2x, per broadcast cell
    (flattened), and X''(k).  Newton on D from D0 = 2(x - X(k))/X''(k), exact
    for a quadratic X, until f is at its rounding level: one confirming step
    on a parabola.  A step outside the bracket seen so far bisects it, or
    doubles D while it has no upper end; a converged cell takes no further
    step, so it does not depend on the other cells.  D0 <= 0: no real chord.
    A cell left without an upper end after the last step is refused as
    having no real chord, any other unconverged cell as not converged.
    """
    x, k = np.asarray(x, dtype=float), np.asarray(k, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(k))):
        raise ValueError("x and k must be finite")
    slope2 = np.asarray(curve.X2(k), dtype=float)
    if np.any(slope2 == 0.0):
        raise ValueError("degenerate fold: X''(k) = 0")
    D = np.asarray((x - curve.X(k)) / (0.5 * slope2))
    sign, x, k = (np.broadcast_to(u, D.shape).ravel() for u in (np.sign(slope2), x, k))
    D = D.flatten()
    live = np.flatnonzero(D > 0.0)
    lo, hi = np.zeros(live.size), np.full(live.size, np.inf)
    for _ in range(_CHORD_STEPS):
        if not live.size:
            break
        Dl, d, s = D[live], np.sqrt(D[live]), sign[live]
        ends = k[live] + _PLUS_MINUS * d
        Xe, X1e = curve.X(ends), curve.X1(ends)
        g = s * (Xe[0] + Xe[1] - 2.0 * x[live])  # increasing in D
        if not np.all(np.isfinite(g)):
            i = live[np.argmin(np.isfinite(g))]
            raise ValueError(f"chord equation not finite at x = {x[i]}, k = {k[i]}")
        # g's rounding level, each term scaled before the sum
        noise = np.sum(4 * _EPS * np.abs(Xe) + np.abs(ends) * (4 * _EPS * np.abs(X1e)), axis=0)
        lo, hi = np.where(g < 0.0, Dl, lo), np.where(g > 0.0, Dl, hi)
        slope = s * (X1e[0] - X1e[1]) / (2.0 * d)  # dg/dD
        newton = Dl - g / np.where(slope > 0.0, slope, np.nan)
        mid = np.where(hi < np.inf, 0.5 * (lo + hi), 2.0 * Dl)
        step = np.where((newton > lo) & (newton < hi), newton, mid)
        # at g's rounding level, or with the bracket down to adjacent doubles
        done = (np.abs(g) <= noise) | (step == Dl) | ~((lo < step) & (step < hi))
        D[live[~done]] = step[~done]
        live, lo, hi = live[~done], lo[~done], hi[~done]
    if live.size:
        i, what = live[0], ("did not converge" if hi[0] < np.inf else
                            "has no real root: X(k+d) + X(k-d) does not reach 2x")
        raise ValueError(f"chord equation {what} at x = {x[i]}, k = {k[i]}")
    return D, slope2


def _chord_integrals(curve: LagrangianCurve, k, d):
    """F/d^3 = (1/2) Int (1 - t^2) X''(k+dt) dt and the gap (X'(k+d) - X'(k-d))/d
    = Int X''(k+dt) dt over -1 <= t <= 1, by 8-node Gauss-Legendre on 1, 2, 4,
    ... equal panels: a chord keeps the first count whose gap matches X' at
    its ends to rounding.  One panel is exact for X'' of degree <= 13."""
    ends = curve.X1(k + _PLUS_MINUS * d)
    exact = np.broadcast_to(ends[0] - ends[1], d.shape)
    tol = np.broadcast_to(np.sum(16.0 * _EPS * np.abs(ends), axis=0), d.shape)
    area, gap = np.empty(d.size), np.empty(d.size)
    todo, panels = np.arange(d.size), 1
    while todo.size:
        if panels > _MAX_PANELS:
            raise ValueError(f"chord integrals unresolved at k = {k[todo[0]]}, d = {d[todo[0]]}")
        # panel centres (2j + 1 - panels)/panels are exact for a power of 2
        t = (np.arange(1 - panels, panels, 2.0)[:, None] / panels + _GL_NODES / panels).ravel()
        w = np.tile(_GL_WEIGHTS, panels) / panels
        curvature = curve.X2(k[todo, None] + d[todo, None] * t)
        a = np.broadcast_to(0.5 * np.sum(w * (1.0 - t * t) * curvature, axis=-1), todo.shape)
        g = np.broadcast_to(np.sum(w * curvature, axis=-1), todo.shape)
        ok = np.abs(d[todo] * g - exact[todo]) <= tol[todo]
        area[todo[ok]], gap[todo[ok]] = a[ok], g[ok]
        todo, panels = todo[~ok], 2 * panels
    return area, gap


def semiclassical_wigner_uniform(curve: LagrangianCurve, x, k, epsilon: float):
    """Berry's uniform chord approximation 2 A0 eps^{-2/3} Ai(-eps^{-2/3} xi)
    on the Lagrangian curve x = X(p), at midpoints (x, k) with signed k.
    Where the chord k - d <= p <= k + d, X(k+d) + X(k-d) = 2x, is real, with
    F the area between chord and curve,

        xi = (3F/2)^{2/3},
        A0 = sqrt(2) xi^{1/4} (rho(k-d) rho(k+d))^{1/2} / |X'(k+d) - X'(k-d)|^{1/2},

    F and the X' gap summed from X'' with their powers of d cancelled, so no
    digits are lost as the chord shrinks.  Elsewhere the fold expansion about
    the curve point at momentum k, xi = 2 X''(k)^{-1/3} (x - X(k)) and
    A0 = rho(k) |X''(k)|^{-1/3}.  Both are exact for X = p^2.  x and k
    broadcast, all cells share one Airy call, and scalars give a float.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    x, k = np.asarray(x, dtype=float), np.asarray(k, dtype=float)
    D, slope2 = _chord_square(curve, x, k)
    shape = np.broadcast_shapes(x.shape, k.shape)
    xi = np.broadcast_to(2.0 * (x - curve.X(k)) / np.cbrt(slope2), shape).flatten()
    a0 = np.broadcast_to(curve.rho(k) / np.cbrt(np.abs(slope2)), shape).flatten()
    chord = np.flatnonzero(D > 0.0)
    kc, d = np.broadcast_to(k, shape).ravel()[chord], np.sqrt(D[chord])
    area, gap = _chord_integrals(curve, kc, d)
    # (3F/2)/d^3, signed so that it is positive on a concave curve too
    cubic = 1.5 * np.sign(np.broadcast_to(slope2, shape).ravel()[chord]) * area
    xi[chord] = cubic ** (2.0 / 3.0) * D[chord]
    rho = np.broadcast_to(curve.rho(kc + _PLUS_MINUS * d), (2, chord.size))
    a0[chord] = math.sqrt(2.0) * cubic ** (1.0 / 6.0) * np.sqrt(rho[0] * rho[1] / np.abs(gap))
    scale = epsilon ** (-2.0 / 3.0)
    out = (2.0 * scale * a0 * airy_ai(-scale * xi)).reshape(shape)
    return float(out) if out.ndim == 0 else out


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
