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
from typing import Callable, Tuple, Union

import numpy as np

from .specfun import airy_ai

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
    "weak_limit_pairing",
]

# Below this (scale-relative) chord length the uniform formula switches to
# the coalescence expansion; the matched pair is numerically 0/0 there.
_CHORD_COALESCENCE_TOL = 1e-5

# Chord solver: scan nodes across the bracket, then at most this many
# halvings, which take a scan cell down to adjacent doubles for any chord
# above the coalescence tolerance.
_SCAN_NODES = 257
_BISECTION_STEPS = 64

_BOUNDARY_MASS_TOL = 1e-8

# wigner_numeric transforms rows in chunks whose (rows, FFT length) work
# arrays hold about this many complex elements; chord_points scans blocks
# of rows with about this many node values.
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
class SmoothPhase:
    """A phase with its first three derivatives as callables."""

    s: Callable[[float], float]
    s1: Callable[[float], float]
    s2: Callable[[float], float]
    s3: Callable[[float], float]


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


def _fft_length(m: int) -> int:
    """The smallest 2^a 3^b 5^c >= m (numpy's FFT has radix-3 and -5 passes)."""
    odd = (3**i * 5**j for i in range(m.bit_length()) for j in range(m.bit_length()))
    return min((p << (-(-m // p) - 1).bit_length() for p in odd if p < 2 * m), default=1)


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
    k_max = float(np.max(np.abs(ks))) if nk else 0.0
    a, b = psi.support  # each row's window: the largest symmetric one inside it
    sigma_max = np.minimum(xs - a, b - xs)
    needed = _required_samples(k_max, sigma_max, eps)
    outside = ~((a <= xs) & (xs <= b))
    refused = outside | ((sigma_max > 0.0) & ~(n >= needed))  # NaN k refused too
    if refused.any():
        i = int(refused.argmax())
        if outside[i]:
            raise ValueError(f"x = {float(xs[i])} outside sampler support [{a}, {b}]")
        raise ValueError(
            f"sigma-quadrature undersampled at x = {xs[i]}: "
            f"{n} samples < {needed[i]:.0f} required for "
            f"k_max = {k_max}, sigma_max = {sigma_max[i]:.6g}, eps = {eps}"
        )

    k0 = ks[0] if nk else 0.0
    dk = (ks[-1] - ks[0]) / (nk - 1) if nk > 1 else 0.0
    j, m = np.arange(n // 2), np.arange(nk)
    length = _fft_length(j.size + nk - 1)
    # the chirp's circular lags: 0..nk-1 at the front, -(n/2-1)..-1 at the back
    lag2 = np.r_[0:nk, nk - length : 0].astype(float) ** 2
    # raised cosine over the outer taper_fraction of the window |sigma| <= sigma_max
    t = np.clip(((j + 0.5) / j.size - 1.0) / q.taper_fraction + 1.0, 0.0, 1.0)
    taper = 0.5 * (1.0 + np.cos(np.pi * t))
    live = np.flatnonzero(sigma_max > 0.0)
    chunk = max(1, _CHUNK_ELEMENTS // length)
    for rows in (live[i : i + chunk] for i in range(0, live.size, chunk)):
        x, d_sigma = xs[rows, None], (2.0 * sigma_max[rows] / n)[:, None]
        sigma = (j + 0.5) * d_sigma
        g = _sample(psi.value, x + sigma) * np.conj(_sample(psi.value, x - sigma)) * taper
        # 2 k_m sigma_j/eps = (dsigma/eps)(2 k_0 (j + 1/2) + dk (m^2 + m + j^2 - (m - j)^2))
        rate = d_sigma / eps
        a = g * np.exp(-1j * (rate * (2.0 * k0 * (j + 0.5) + dk * j * j)))
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
    if np.isscalar(x) and np.isscalar(k):
        return float(out)
    return out


def bisect_brackets(f: Callable, a, b, fa, fb):
    """Vectorised bisection of the cells [a, b], where f(a) = fa and
    f(b) = fb have opposite signs (or one is 0).  Runs at most
    _BISECTION_STEPS halvings, stopping once every cell is down to
    adjacent doubles, and returns the end of each cell with the smaller
    |f|.  f is called on whole arrays of midpoints."""
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
    return np.where(np.abs(fa) <= np.abs(fb), a, b)


def chord_points(
    S_prime: Callable, x, k, bracket: Tuple
) -> Union[float, np.ndarray, None]:
    """Positive solution sigma0 of S'(x+sigma) + S'(x-sigma) = 2k.

    Batched scan + bisection, array in/array out: x, k and the bracket
    ends broadcast together.  S' maps an array to an array of its shape,
    or to a plain number where it is constant.  The left side g(sigma)
    does not depend on k, so the scan evaluates S' once per (x, bracket)
    row and node: at _SCAN_NODES equispaced nodes of the bracket, for
    blocks of rows in one call each.  Each point's own work is in k alone:
    in blocks of about _CHUNK_ELEMENTS node values (memory stays
    O(points)) it keeps its first scan cell [s_i, s_i+1] with residual
    product (g(s_i) - 2k)(g(s_i+1) - 2k) <= 0; vectorised bisection then
    shrinks only those cells to adjacent doubles and keeps the end with
    the smaller residual.  The result is 0 where the chord degenerates to
    the tangent point (k = S'(x)) and no root where the bracket holds no
    sign change.  Scalar inputs give a float, 0.0 or None; array inputs
    give an array with NaN for no root.
    """
    inputs = (x, k, np.maximum(bracket[0], 0.0), bracket[1])
    x, k, lo, hi = (np.asarray(u, dtype=float) for u in inputs)
    x, lo, hi = np.broadcast_arrays(x, lo, hi)
    shape = np.broadcast_shapes(x.shape, k.shape)
    c = 2.0 * k

    def g(x, sigma):
        u = x + sigma  # S' may come back as a plain number where it is constant
        return np.add(S_prime(u), S_prime(x - sigma), out=np.empty(np.shape(u)))

    f0 = g(x, 0.0) - c
    if np.any((hi <= lo) & (f0 != 0.0)):
        raise ValueError("bracket must contain a positive interval")
    # each point's row (its place in x's shape) and 2k; points grouped by row
    rows = np.broadcast_to(np.arange(x.size).reshape(x.shape), shape).ravel()
    c = np.broadcast_to(c, shape).ravel()
    order = np.argsort(rows, kind="stable")
    x, lo, hi = x.ravel(), lo.ravel(), hi.ravel()
    step = (hi - lo) / (_SCAN_NODES - 1)

    # each point's first scan cell with a sign change, or -1
    nodes = np.arange(_SCAN_NODES, dtype=float)[:, None]
    first = np.full(rows.size, -1)
    block = max(1, _CHUNK_ELEMENTS // _SCAN_NODES)
    ends = np.searchsorted(rows[order], np.arange(0, x.size + block, block))
    for start, i0, i1 in zip(range(0, x.size, block), ends, ends[1:]):
        cut = slice(start, start + block)
        s = nodes * step[cut] + lo[cut]
        s[-1] = hi[cut]
        gs = g(x[cut], s)
        for pts in (order[j : j + block] for j in range(i0, i1, block)):
            fs = gs[:, rows[pts] - start] - c[pts]
            hit = fs[:-1] * fs[1:] <= 0.0
            i = hit.argmax(axis=0)
            first[pts] = np.where(hit[i, np.arange(i.size)], i, -1)

    # bisect those cells [a, b], with the scan's nodes and residuals
    pts = np.flatnonzero(first >= 0)
    i, r, cp = first[pts], rows[pts], c[pts]
    a = i * step[r] + lo[r]
    b = np.where(i + 1 < _SCAN_NODES - 1, (i + 1) * step[r] + lo[r], hi[r])
    root, xp = np.full(rows.size, np.nan), x[r]
    root[pts] = bisect_brackets(lambda s: g(xp, s) - cp, a, b, g(xp, a) - cp, g(xp, b) - cp)
    root[np.ravel(f0) == 0.0] = 0.0
    root = root.reshape(shape)
    if root.ndim == 0:
        return None if np.isnan(root) else float(root)
    return root


def _chord_amplitude(A: Callable, x, sigma):
    return np.real(A(x + sigma) * np.conj(A(x - sigma)))


def _fold_inputs(S: SmoothPhase, x, k, epsilon: float):
    """Refuse eps <= 0 and S''' = 0, and solve the chords over 0 <= sigma <= x,
    where the branch phases are real; x and k are not broadcast, so what
    depends on x alone runs once per x.  A root at the edge sigma = x, where
    S''(x - sigma) and A(x - sigma) diverge, counts as no chord: NaN."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    x, k = np.asarray(x, dtype=float), np.asarray(k, dtype=float)
    s3 = S.s3(x)
    if np.any(s3 == 0.0):
        raise ValueError("degenerate fold: S'''(x) = 0")
    sigma0 = np.asarray(chord_points(S.s1, x, k, (0.0, x)), dtype=float)
    return x, k, s3, np.where(sigma0 < x, sigma0, np.nan)


def _as_output(out):
    out = np.asarray(out)
    return float(out) if out.ndim == 0 else out


def semiclassical_wigner_local(
    S: SmoothPhase,
    A: Callable,
    x,
    k,
    epsilon: float,
):
    """Berry's local approximation near the manifold k = S'(x):

    (2^{2/3}/eps^{2/3}) (2/|S'''|)^{1/3} D(sigma0, x)
        Ai(-(2^{2/3}/eps^{2/3}) cbrt(2/S''') (k - S'(x)))

    with D(sigma, x) = A(x+sigma) conj(A(x-sigma)) evaluated on the chord
    sigma0 in 0 <= sigma0 < x (or at 0 when the chord is absent, on the
    edge sigma = x, or degenerate).  The cube root is
    the real signed one, so both signs of S''' give oscillation on the
    correct side.

    Batched scan + bisection chords and one Airy call, array in/array
    out: x and k broadcast; scalars give a float.
    """
    x, k, s3, sigma0 = _fold_inputs(S, x, k, epsilon)
    sigma0 = np.where(np.isnan(sigma0), 0.0, sigma0)
    scale = (2.0 / epsilon) ** (2.0 / 3.0)
    alpha = k - S.s1(x)
    return _as_output(
        scale
        * (2.0 / np.abs(s3)) ** (1.0 / 3.0)
        * _chord_amplitude(A, x, sigma0)
        * airy_ai(-scale * np.cbrt(2.0 / s3) * alpha)
    )


def semiclassical_wigner_uniform(
    S: SmoothPhase,
    A: Callable,
    x,
    k,
    epsilon: float,
):
    """Uniform chord-based approximation 2 A0 eps^{-2/3} Ai(-eps^{-2/3} xi).

    With a genuine chord sigma0 the cubic data come from the chord phase
    F(sigma) = S(x+sigma) - S(x-sigma) - 2k sigma:

        xi = [(3/2) F(sigma0)]^{2/3},
        A0 = sqrt(2) xi^{1/4} Re D(sigma0, x) / |F''(sigma0)|^{1/2};

    at (or beyond) coalescence, and where no chord lies in 0 <= sigma < x
    (a chord on the edge sigma = x has infinite F''), the fold expansion
    takes over:

        xi = 2 cbrt(1/S''') (k - S'(x)),  A0 = |A(x)|^2 |S'''|^{-1/3}.

    Batched scan + bisection chords and one Airy call, array in/array
    out: x and k broadcast, the chord-vs-fold choice is a mask, and
    scalars give a float.
    """
    x, k, s3, sigma0 = _fold_inputs(S, x, k, epsilon)
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
        2.0 * a0 * epsilon ** (-2.0 / 3.0) * airy_ai(-(epsilon ** (-2.0 / 3.0)) * xi)
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


def weak_limit_pairing(g: PhaseSpaceGrid, Q: Callable[[float, float], float]) -> float:
    """Two-dimensional trapezoid pairing of the grid against a test
    function.  The paired mass Q*W must vanish (to 1e-8 of its peak) on
    the grid boundary, otherwise the pairing is truncated and refused."""
    qv = np.array([[Q(float(x), float(k)) for k in g.ks] for x in g.xs])
    prod = g.values * qv
    peak = np.max(np.abs(prod))
    if peak > 0.0:
        edge = max(np.max(np.abs(prod[[0, -1], :])), np.max(np.abs(prod[:, [0, -1]])))
        if edge > _BOUNDARY_MASS_TOL * peak:
            raise ValueError("test function support escapes the grid")
    return float(np.trapezoid(np.trapezoid(prod, g.ks, axis=1), g.xs))
