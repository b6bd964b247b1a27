"""Phase-space surgery on the two-phase WKB field.

Squaring a two-branch WKB wave and Wigner-transforming it produces four
oscillatory integrals: two diagonal (branch with itself) and two cross
terms.  Their stationary points organize along the manifold parabola
x = k^2 and the conjugate parabola x = 2 k^2.  Classifying each integral
region by region, matching the diagonal fold pairs with the cubic
canonical integral, and discarding the cross terms where they cancel or
dephase reassembles everything into a single Airy profile in phase
space.  This module carries that classification table, the regional
asymptotics, the recombined closed form, its moment identities, and the
residual stencil for the transport equation the limit object solves.

The classification table has one array core, `stationary_table`: it
takes broadcast branch indices and (x, k) and returns region codes, the
number of real points, and up to two points per cell with their
curvatures, NaN-padded, after one vectorised pass that polishes the real
points and checks every point against the phase gradient.
`diagonal_asymptotics` matches its Between pairs.

Unfolding-parameter and sign conventions, frozen once:

    branch 1 (+,+)   phase F1, stationary for k > 0, alpha = k - sqrt(x)
    branch 2 (-,-)   phase F2 = -F1(.; x, -k), stationary for k < 0,
                     alpha = k + sqrt(x)
    branch 3 (+,-)   phase F3, one stationary point, interior only
    branch 4 (-,+)   phase F4 = -F3(.; x, -k), mirror of branch 3
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .rays import RefractionProfile1D
from .specfun import airy_ai, airy_square_integral
from .stphase import CfuCoefficients, cfu_eval, cfu_match
from .wigner import PhaseSpaceGrid

__all__ = [
    "REGION_TOL",
    "RegionLabel",
    "NoStationaryPointWarning",
    "SingularCurvatureWarning",
    "StationaryTable",
    "stationary_table",
    "diagonal_asymptotics",
    "offdiagonal_asymptotics",
    "combined_wkb_wigner",
    "k_integral_amplitude",
    "stationary_wigner_residual",
]

# Half-width of the tolerance band around the parabolas x = k^2 and
# x = 2 k^2 (scaled by max(1, x)).
REGION_TOL = 1e-12

_ROOT_TOL = 1e-10

# (sign of sqrt(x + sigma), sign of sqrt(x - sigma)) in F_sigma of branches
# 1..4; every phase derivative of a branch follows from its pair
_SIGNS = ((1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0))


class RegionLabel(enum.Enum):
    EXTERIOR = "Exterior"
    ON_MANIFOLD = "OnManifold"
    BETWEEN = "Between"
    ON_CONJUGATE = "OnConjugate"
    INTERIOR = "Interior"


# region codes of the array core: positions in RegionLabel
_EXTERIOR, _ON_MANIFOLD, _BETWEEN, _ON_CONJUGATE, _INTERIOR = range(len(RegionLabel))


class NoStationaryPointWarning(UserWarning):
    """The requested branch has no stationary point at this (x, k)."""


class SingularCurvatureWarning(UserWarning):
    """Stationary-point curvature diverges on the conjugate parabola."""


def _phase(a, b, sigma, x, k):
    cubic = a * (x + sigma) ** 1.5 - b * (x - sigma) ** 1.5
    return (2.0 / 3.0) * cubic - 2.0 * k * sigma


def _phase_s(a, b, sigma, x, k):
    # also the complex-capable gradient of the residual check
    return a * np.sqrt(x + sigma) + b * np.sqrt(x - sigma) - 2.0 * k


def _phase_ss(a, b, sigma, x, k):
    return 0.5 * (a * (x + sigma) ** -0.5 - b * (x - sigma) ** -0.5)


def _diagonal_amplitude(sigma, x, x0):
    return 0.25 / math.sqrt(x0) * (x * x - sigma * sigma) ** -0.25


def _region_codes(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    if np.any(x <= 0.0):
        raise ValueError("region classification is defined in the illuminated zone x > 0")
    tol = REGION_TOL * np.maximum(1.0, np.abs(x))
    kk = k * k
    return np.select(
        [np.abs(x - kk) <= tol, x < kk, np.abs(x - 2.0 * kk) <= tol, x < 2.0 * kk],
        [_ON_MANIFOLD, _EXTERIOR, _ON_CONJUGATE, _BETWEEN],
        _INTERIOR,
    )


def _diagonal_sign_ok(index, k):
    # the diagonal pairs live on k > 0 (branch 1) and k < 0 (branch 2)
    return np.where(index == 1, k > 0.0, k < 0.0)


def _half_chord(x, k):
    # 2|k| sqrt|x - k^2|: the real points +/-sigma0 between the parabolas
    # and sigma_s inside them, and the imaginary pair outside the manifold
    return 2.0 * np.abs(k) * np.sqrt(np.abs(x - k * k))


@dataclass(frozen=True)
class StationaryTable:
    """Stationary sets of the branch integrals over broadcast (index, x, k).

    region holds codes into RegionLabel (in definition order) and n_real
    the number of real points per cell.  locations (complex) and
    curvatures carry each cell's points in two slots along a trailing
    axis, NaN in unused slots.  A curvature of 0 marks the double fold
    point, +/-inf the window-edge points on the conjugate parabola, and
    an imaginary point carries the magnitude of its purely imaginary
    curvature.
    """

    region: np.ndarray
    n_real: np.ndarray
    locations: np.ndarray
    curvatures: np.ndarray


def _curvature(x, k):
    # sqrt|x - k^2| / (2 k^2 - x): the curvature magnitude at every simple
    # point off the conjugate parabola (where it diverges)
    kk = k * k
    return np.sqrt(np.abs(x - kk)) / (2.0 * kk - x)


def _imaginary_pair(a, x, k):
    chord, c = _half_chord(x, k), _curvature(x, k)
    return 1j * chord, -1j * chord, c, c


def _real_pair(a, x, k):
    # the closed form can round past the window edge, where no root lies
    sigma0, c = np.minimum(_half_chord(x, k), x), _curvature(x, k)
    return sigma0, -sigma0, -a * c, a * c


def _cross_point(a, x, k):
    sigma0, _, c, _ = _real_pair(a, x, k)
    return a * np.copysign(sigma0, k), np.nan, c, np.nan


# The table, one row per (branch pair, region): its number of real points and a
# function of its cells' (a, x, k), a the sign of sqrt(x + sigma) in F_sigma, that gives
# (slot-0 point, slot-1 point, slot-0 curvature, slot-1 curvature); None: no points.
_ROWS = (
    (0, _imaginary_pair),  # F1/F2 Exterior
    (1, lambda a, x, k: (0.0, np.nan, 0.0, np.nan)),  # F1/F2 OnManifold: double fold point
    (2, _real_pair),  # F1/F2 Between
    (2, lambda a, x, k: (x, -x, -a * math.inf, a * math.inf)),  # F1/F2 OnConjugate: window edges
    *[(0, None)] * 4,  # F1/F2 Interior; F3/F4 Exterior, OnManifold, Between
    (1, lambda a, x, k: (a * np.copysign(x, k), np.nan, a * math.inf, np.nan)),  # F3/F4 OnConjugate
    (1, _cross_point),  # F3/F4 Interior
    (0, None),  # F1/F2 with the wrong sign of k
)
_N_REAL = np.array([n for n, _ in _ROWS])


def _row_codes(index, k, region):
    """Rows of _ROWS: region on branches 1/2 (10 for the wrong sign of k), 5 + region on 3/4."""
    return np.where(index <= 2, np.where(_diagonal_sign_ok(index, k), region, 10), 5 + region)


def _closed_forms(row, a, x, k):
    """Unverified points and curvatures of the flat cells in rows `row` of _ROWS, two
    slots each and NaN in unused ones; each row is evaluated on its own cells."""
    loc, curv = np.full((row.size, 2), np.nan, dtype=complex), np.full((row.size, 2), np.nan)
    for r in np.flatnonzero(np.bincount(row, minlength=len(_ROWS))):  # the rows that occur
        if _ROWS[r][1] is not None:
            at = np.flatnonzero(row == r)
            loc[at, 0], loc[at, 1], curv[at, 0], curv[at, 1] = _ROWS[r][1](a[at], x[at], k[at])
    return loc, curv


def _branch_cells(index, x, k, branches, message):
    """index, x and k broadcast together, x and k as floats, each index one of `branches`."""
    index, x, k = np.broadcast_arrays(np.asarray(index), np.asarray(x, dtype=float),
                                      np.asarray(k, dtype=float))
    if not np.logical_or.reduce([index == b for b in branches]).all():
        raise ValueError(message)
    return index, x, k


def stationary_table(index, x, k) -> StationaryTable:
    """Closed-form stationary sets of branches `index` at (x, k), array
    in/array out, each point re-verified against the phase gradient.

    Each row of the table is evaluated on the cells where it occurs, and
    only occupied slots are polished and checked.  Real simple points get
    one Newton step; then every point must satisfy
    |F_sigma| <= 1e-10 * max(1, sqrt(x) + |k|), widened for real simple
    points by |F_sigmasigma| * spacing(sigma), the residual that rounding
    sigma to a double alone can leave where the curvature is large (next
    to the conjugate parabola).  The double fold point and the window-edge
    points are allowed the largest |F_sigma| they leave inside their
    REGION_TOL bands, 2 REGION_TOL max(1, x) over sqrt(x) + |k| and
    sqrt(2x) + 2|k| (beyond 1e-10 at small x).  The first failing point,
    in broadcast order, raises RuntimeError.
    """
    index, x, k = _branch_cells(index, x, k, (1, 2, 3, 4), "branch index must be 1, 2, 3 or 4")
    region = _region_codes(x, k)
    shape, index, x, k = region.shape, index.ravel(), x.ravel(), k.ravel()
    a, b = np.array(_SIGNS)[index.astype(np.intp) - 1].T
    loc, curv = _closed_forms(_row_codes(index, k, region.ravel()), a, x, k)

    # the occupied slots as flat arrays, each with its cell's index, a, b, x, k
    slots = np.flatnonzero(~np.isnan(loc))
    point, c = loc.flat[slots], curv.flat[slots]
    index, a, b, x, k = (v[slots // 2] for v in (index, a, b, x, k))
    scale = np.maximum(1.0, np.sqrt(x) + np.abs(k))
    sigma = point.real
    real = point.imag == 0.0
    simple = real & np.isfinite(c) & (c != 0.0)
    polished = sigma - _phase_s(a, b, sigma, x, k) / np.where(simple, c, 1.0)
    polish = (
        simple
        & (np.abs(sigma) < x)
        & (np.abs(polished) < x)
        & (np.abs(polished - sigma) < 1e-6 * scale)
    )
    point = np.where(polish, polished, point)

    residual = np.abs(_phase_s(a, b, point, x, k))
    rounding = np.where(simple, np.abs(c), 0.0) * np.spacing(np.abs(point.real))
    # the fold point 0 and the window-edge points +-x stand for their whole
    # bands, where they leave |F_sigma| = 2|x - k^2| / (sqrt(x) + |k|) and
    # 2|x - 2k^2| / (sqrt(2x) + 2|k|)
    band = 2.0 * REGION_TOL * np.maximum(1.0, x) / np.select(
        [real & (c == 0.0), real & np.isinf(c)],
        [np.sqrt(x) + np.abs(k), np.sqrt(2.0 * x) + 2.0 * np.abs(k)], np.inf,
    )
    failed = residual > _ROOT_TOL * scale + rounding + band
    if failed.any():
        at = np.argmax(failed)
        raise RuntimeError(
            f"stationary point {complex(point[at])} of branch {int(index[at])} "
            f"fails the gradient check: |F_sigma| = {residual[at]:.3e}"
        )
    loc.flat[slots] = point
    n_real = np.bincount(slots[real] // 2, minlength=region.size).reshape(shape)
    return StationaryTable(region, n_real, loc.reshape(shape + (2,)), curv.reshape(shape + (2,)))


def diagonal_asymptotics(index, x, k, epsilon: float, x0: float):
    """Airy-form approximation of the diagonal branch integrals `index`
    at (x, k), broadcast together; a float for scalars, otherwise an
    array.

    Between the parabolas the two real stationary points of
    stationary_table are matched with the cubic canonical integral; on
    and outside the manifold the coalesced / imaginary pair yields the
    same canonical data with xi = 2^{2/3} (x - k^2) continued to xi <= 0.
    Cells on or inside the conjugate parabola raise; cells with the wrong
    sign of k give 0 under one NoStationaryPointWarning per call.
    """
    index, x, k = _branch_cells(index, x, k, (1, 2), "diagonal branches are indices 1 and 2")
    if epsilon <= 0 or x0 <= 0:
        raise ValueError("epsilon and x0 must be positive")
    table = stationary_table(index, x, k)
    if np.any(table.region >= _ON_CONJUGATE):
        raise ValueError(
            "diagonal Airy asymptotics hold strictly inside the conjugate "
            "parabola (x < 2 k^2)"
        )
    live = _diagonal_sign_ok(index, k)
    if not live.all():
        warnings.warn(
            "a diagonal branch has no stationary points for this sign of k; "
            "its contribution is 0",
            NoStationaryPointWarning,
            stacklevel=2,
        )
    between = live & (table.region == _BETWEEN)
    # the Between pair as (maximum, minimum), by the sign of its table curvature
    sigma = table.locations.real[between]
    pair = np.where(table.curvatures[between][:, :1] < 0.0, sigma, sigma[:, ::-1])
    a = np.where(index[between] == 1, 1.0, -1.0)[:, None]
    xb, kb = x[between][:, None], k[between][:, None]
    F, F_ss = (f(a, a, pair, xb, kb) for f in (_phase, _phase_ss))
    D = _diagonal_amplitude(pair, xb, x0)
    c = cfu_match(F[:, 0], F[:, 1], D[:, 0], D[:, 1], F_ss[:, 0], F_ss[:, 1])
    # on and outside the manifold: the canonical data of the fold pair
    phi0 = np.zeros(x.shape)
    xi = np.array(2.0 ** (2.0 / 3.0) * (x - k * k))
    A0 = np.full(x.shape, 2.0 ** (-4.0 / 3.0) / math.sqrt(x0), dtype=complex)
    B0 = np.zeros(x.shape, dtype=complex)
    phi0[between], xi[between], A0[between], B0[between] = c.phi0, c.xi, c.A0, c.B0
    w = cfu_eval(CfuCoefficients(phi0, xi, A0, B0), 1.0 / epsilon) / (math.pi * epsilon)
    out = np.where(live, w.real, 0.0)
    return float(out) if out.ndim == 0 else out


def offdiagonal_asymptotics(index, x, k, epsilon: float, x0: float):
    """Leading contribution of the cross-branch integrals `index` at
    (x, k), broadcast together; a complex for scalars, otherwise a
    complex array.

    Interior: a single nondegenerate stationary point gives an O(eps^-1/2)
    oscillation; the index-3 and index-4 terms are complex conjugates.
    Exterior: the pair cancels exactly; the individual values are defined
    only up to that cancellation and the convention here puts +E on
    index 3.  Between the parabolas there is no stationary point and the
    contribution is 0.  Cells on x = 2 k^2 take the interior limit under
    one SingularCurvatureWarning per call.
    """
    index, x, k = _branch_cells(index, x, k, (3, 4), "off-diagonal branches are indices 3 and 4")
    if epsilon <= 0 or x0 <= 0:
        raise ValueError("epsilon and x0 must be positive")
    region = _region_codes(x, k)
    exterior = region == _EXTERIOR
    interior = (region == _INTERIOR) | (region == _ON_CONJUGATE)
    if np.any(region == _ON_CONJUGATE):
        warnings.warn(
            "cross-branch curvature diverges on x = 2 k^2; returning the "
            "interior limit",
            SingularCurvatureWarning,
            stacklevel=2,
        )
    # |x - k^2|, with 1 standing in where no power of it is taken
    q = np.where(exterior | interior, np.abs(x - k * k), 1.0)
    e = (
        2.0 ** -2.5
        / math.sqrt(math.pi * epsilon * x0)
        * q ** -0.25
        * np.exp(-4.0 * q ** 1.5 / (3.0 * epsilon))
    )
    w3 = (
        -1j
        * 2.0 ** -1.5
        / math.sqrt(math.pi * epsilon * x0)
        * q ** -0.25
        * np.exp(1j * (math.pi / 4.0 + 4.0 * q ** 1.5 / (3.0 * epsilon)))
    )
    third = index == 3
    out = np.select(
        [exterior, interior],
        [np.where(third, e, -e), np.where(third, w3, w3.conjugate())],
        0j,
    )
    return complex(out) if out.ndim == 0 else out


def combined_wkb_wigner(x, k, epsilon: float, x0: float):
    """Recombined phase-space asymptotics of the two-phase WKB field:
    (1/(2 sqrt(x0))) (2/eps)^{2/3} Ai((2/eps)^{2/3} (k^2 - x)).

    The diagonal fold pairs supply this Airy profile where they live and
    its exponential tail outside the manifold; the interior cross-term
    oscillation reproduces its large-argument cosine; the exterior cross
    terms cancel.  For x <= 0 (shadow zone) it decays superexponentially.
    """
    if epsilon <= 0 or x0 <= 0:
        raise ValueError("epsilon and x0 must be positive")
    x_arr = np.asarray(x, dtype=float)
    k_arr = np.asarray(k, dtype=float)
    scale = (2.0 / epsilon) ** (2.0 / 3.0)
    out = 0.5 / math.sqrt(x0) * scale * airy_ai(scale * (k_arr ** 2 - x_arr))
    return float(out) if np.ndim(out) == 0 else out


def k_integral_amplitude(x, epsilon: float, x0: float):
    """Zeroth k-moment of the recombined Wigner profile in closed form:
    pi eps^{-1/3} x0^{-1/2} Ai^2(-eps^{-2/3} x); a float for scalar x,
    otherwise an array of its shape."""
    if epsilon <= 0 or x0 <= 0:
        raise ValueError("epsilon and x0 must be positive")
    x = np.asarray(x, dtype=float)
    r1 = (2.0 / epsilon) ** (2.0 / 3.0)
    out = 0.5 / math.sqrt(x0) * r1 * airy_square_integral(r1, 0.0, -r1 * x)
    return float(out) if np.ndim(out) == 0 else out


def stationary_wigner_residual(
    profile: RefractionProfile1D, g: PhaseSpaceGrid
) -> PhaseSpaceGrid:
    """Residual k df/dx + (1/2) (eta^2)'(x) df/dk on the interior grid, by
    three-point differences that do not depend on the rest of the grid: a
    slab of rows with a halo row either side gives the whole grid's bits.

    The transport closure is exact only when (eta^2)''' vanishes
    identically: every higher dispersion correction carries a third or
    higher derivative of eta^2, so linear and quadratic media satisfy the
    same equation as the eps -> 0 limit.  Profiles with curvature in
    (eta^2)' are rejected rather than approximated.
    """
    xs = np.asarray(g.xs, dtype=float)
    ks = np.asarray(g.ks, dtype=float)
    if xs.size < 3 or ks.size < 3:
        raise ValueError("residual stencil needs at least 3 points in x and in k")
    values = np.asarray(g.values)
    fx = _central_difference(values[:, 1:-1], xs)
    fk = _central_difference(values[1:-1].T, ks).T
    p = profile.eta_squared_prime
    # (eta^2)''' by central differences of (eta^2)' on 7 probe points
    probe = np.linspace(xs[0], xs[-1], 7)
    h = 1e-2 * np.maximum(np.abs(probe), 1.0)
    third = (p(probe + h) - 2.0 * p(probe) + p(probe - h)) / (h * h)
    if np.any(np.abs(third) > 1e-6 * np.maximum(1.0, np.abs(p(probe)))):
        raise ValueError(
            "unsupported profile: (eta^2)''' != 0 introduces dispersion "
            "terms beyond the transport closure"
        )
    transport = np.broadcast_to(p(xs), xs.shape)
    res = ks[None, 1:-1] * fx + 0.5 * transport[1:-1, None] * fk
    return PhaseSpaceGrid(xs[1:-1], ks[1:-1], res, g.epsilon)


def _central_difference(f: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """df/dcoords along the first axis of f at the interior nodes, by np.gradient's
    three-point stencil for uneven spacing, written out: np.gradient takes its
    even-spacing formula when every spacing it is given is equal, so a slab of
    a grid would not keep the bits of the whole grid."""
    dx = np.diff(coords)[:, None]
    dx1, dx2 = dx[:-1], dx[1:]
    return (-dx2 / (dx1 * (dx1 + dx2)) * f[:-2] + (dx2 - dx1) / (dx1 * dx2) * f[1:-1]
            + dx1 / (dx2 * (dx1 + dx2)) * f[2:])
