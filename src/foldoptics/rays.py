"""Hamiltonian ray tracing for H(x, k) = (k^2 - eta^2(x))/2.

Generic paths are integrated in numpy by the Dormand-Prince 5(4) pair with
Shampine's fourth-order dense output (Dormand & Prince 1980; Hairer, Norsett
& Wanner, Solving ODEs I, II.4-6) under the step control of scipy's RK45:
rtol 1e-10, atol 1e-12, safety factor 0.9, step factors within [0.2, 10].
The ray Jacobian J(t) = dx(t; x0)/dx0 is obtained from a pair of auxiliary
rays launched at x0 +- delta with on-shell momenta, sharing the main ray's
step sequence so that integrator noise cancels in the central difference.

Closed forms are provided for the two worked media: eta^2 = x (every ray is
a parabola and the caustic is the turning point x = 0) and the 2-D linear
layer eta^2(z) = mu0 + mu1 z entered from the boundary z = h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import ArrayLike

__all__ = [
    "RefractionProfile1D",
    "RayPath",
    "LinearLayerParams",
    "airy_profile",
    "constant_profile",
    "integrate_hamiltonian",
    "airy_ray_closed",
    "linear_layer_ray",
    "linear_layer_momentum",
    "linear_layer_jacobian",
    "linear_layer_caustic_depth",
    "find_caustic",
]

# Offset for the paired Jacobian rays, relative to x0.
_JACOBIAN_DELTA = 1e-5

# Bisection acceptance: a bracketed sign change of J is a caustic only if
# the Jacobian is genuinely small there (guards grazing near-tangencies).
_CAUSTIC_J_TOL = 1e-6
# find_caustic scans J for sign changes over this many equal subintervals.
_CAUSTIC_SCAN = 2000
# bisect_brackets: halvings enough to take any cell down to adjacent doubles
_BISECTION_STEPS = 64

# The Dormand-Prince 5(4) pair (Dormand & Prince 1980): stage rows, the
# fifth-order weights, the error weights (fifth minus fourth order, the last
# on the derivative at the step end) and Shampine's fourth-order dense output.
_DP_A = [np.array(row) for row in (
    (1 / 5,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)]
_DP_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_DP_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40])
_DP_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
# Relative and absolute tolerance of the ray tracer's error norm.
_RTOL, _ATOL = 1e-10, 1e-12


@dataclass(frozen=True)
class RefractionProfile1D:
    """Medium law eta^2(x) with its derivative.

    eta_squared and eta_squared_prime take a scalar or an array x and
    return a value that broadcasts against it (a constant may come back
    as a plain number).  eta_squared must be positive on the open interval
    `domain`; rays are truncated (with a flag) if they exit the closed
    domain.
    """

    eta_squared: Callable[[ArrayLike], ArrayLike]
    eta_squared_prime: Callable[[ArrayLike], ArrayLike]
    name: str = "profile"
    domain: tuple = (-math.inf, math.inf)


def airy_profile() -> RefractionProfile1D:
    return RefractionProfile1D(lambda x: x, lambda x: 1.0, "airy", (0.0, math.inf))


def constant_profile(c_squared: float) -> RefractionProfile1D:
    if c_squared <= 0:
        raise ValueError("constant profile requires eta^2 > 0")
    return RefractionProfile1D(
        lambda x: c_squared, lambda x: 0.0, "constant", (-math.inf, math.inf)
    )


@dataclass
class RayPath:
    """A sampled bicharacteristic with Jacobian and accumulated phase;
    `steps` holds the tracer's accepted and rejected step counts."""

    t: np.ndarray
    x: np.ndarray
    k: np.ndarray
    J: np.ndarray
    S: np.ndarray
    x0: float
    k0: float
    profile_name: str
    truncated: bool = False
    steps: tuple = (0, 0)

    def hamiltonian(self, profile: RefractionProfile1D) -> np.ndarray:
        return 0.5 * (self.k**2 - profile.eta_squared(self.x))


@dataclass(frozen=True)
class LinearLayerParams:
    """Linear layer eta^2(z) = mu0 + mu1 z below the boundary z = h,
    illuminated by a plane wave with incidence angle psi.
    """

    mu0: float
    mu1: float
    h: float
    psi: float

    def __post_init__(self):
        if self.mu1 <= 0:
            raise ValueError("mu1 must be positive (index increases with depth)")
        if not 0.0 < self.psi < 0.5 * math.pi:
            raise ValueError("psi must lie in (0, pi/2)")
        if self.mu0 + self.mu1 * self.h <= 0:
            raise ValueError("eta^2(h) must be positive")

    @property
    def eta0(self) -> float:
        """The boundary index eta(h) = sqrt(mu0 + mu1 h)."""
        return math.sqrt(self.mu0 + self.mu1 * self.h)

    @property
    def alpha(self) -> float:
        return -self.eta0 * math.cos(self.psi)

    def beta(self, z):
        """sqrt(alpha^2 + mu1 (z - h)), scalar or array z; raises if any
        point lies below the caustic."""
        val = self.alpha**2 + self.mu1 * (z - self.h)
        if np.any(val < 0):
            raise ValueError("point lies below the caustic (beta imaginary)")
        return np.sqrt(val)


def _jacobian_launch(profile: RefractionProfile1D, x0: float, k0: float):
    """Check that (x0, k0) is on the energy shell (to 1e-8) and launch the
    two auxiliary Jacobian rays on-shell at x0 +- delta, delta =
    1e-5 max(|x0|, 1).  Returns (delta, (x+, k+), (x-, k-))."""
    eta2 = profile.eta_squared
    h0 = 0.5 * (k0 * k0 - eta2(x0))
    if abs(h0) > 1e-8:
        raise ValueError(
            f"initial condition off the energy shell: |H(x0,k0)| = {abs(h0):.3e}"
        )
    sgn = 1.0 if k0 >= 0 else -1.0
    delta = _JACOBIAN_DELTA * max(abs(x0), 1.0)
    offsets = (x0 + delta, x0 - delta)
    if any(eta2(xb) < 0 for xb in offsets):
        raise ValueError("Jacobian offset leaves the medium (eta^2 < 0)")
    return delta, *((xb, sgn * math.sqrt(eta2(xb))) for xb in offsets)


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


def _rms(v):
    return np.linalg.norm(v) / v.size**0.5


class _Touches(list):
    """find_caustic's (t, x) pairs, with the tracer's (accepted, rejected)
    step counts as `steps`."""


def _trace(profile: RefractionProfile1D, x0: float, k0: float, t_end: float, stop_at_edge=False):
    """Integrate the ray system from (x0, k0) over [0, t_end] together with
    the two Jacobian rays, as one state x, k, S, x+, k+, x-, k-, by the
    Dormand-Prince 5(4) pair with Shampine's dense output (Dormand & Prince
    1980; Hairer, Norsett & Wanner, Solving ODEs I, II.4-6) under scipy's
    RK45 step control: Hairer's first-step rule; the RMS error norm with
    scale 1e-12 + 1e-10 max(|y|, |y_new|); the step factor 0.9 err^(-1/5)
    within [0.2, 10], and at most 1 right after a rejected step.  A step
    below 10 spacings of t raises.  With stop_at_edge the trace ends with
    the first step that leaves the closed profile domain from inside it.

    Returns the dense output (the states at 1-D times, as rows), delta, the
    (accepted, rejected) step counts and the exit time (inf if none).
    """
    eta2, deta2 = profile.eta_squared, profile.eta_squared_prime
    delta, (xp0, kp0), (xm0, km0) = _jacobian_launch(profile, x0, k0)
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    lo, hi = profile.domain

    def gap(x):
        return np.minimum(x - lo, hi - x)

    def rhs(y):
        f = np.empty(7)
        f[[0, 3, 5]], f[[1, 4, 6]], f[2] = y[[1, 4, 6]], 0.5 * deta2(y[[0, 3, 5]]), eta2(y[0])
        return f

    y = np.array([x0, k0, 0.0, xp0, kp0, xm0, km0])
    f = rhs(y)
    scale = _ATOL + np.abs(y) * _RTOL
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end)
    d = max(d1, _rms((rhs(y + h0 * f) - f) / scale) / h0)
    h_abs = min(100 * h0, t_end, (0.01 / d) ** 0.2 if d > 1e-15 else max(1e-6, h0 * 1e-3))
    t, accepted, rejected, exited = 0.0, [], 0, False
    K = np.empty((7, 7))
    while t < t_end and not exited:
        min_step = 10 * (np.nextafter(t, np.inf) - t)
        h_abs, retried = max(h_abs, min_step), False
        while True:
            if not h_abs >= min_step:  # also a NaN step
                raise RuntimeError(f"ray integration failed: step size too small at t = {t:.6g}")
            t_new = min(t + h_abs, t_end)
            h_abs = t_new - t
            K[0] = f
            for s, a in enumerate(_DP_A, 1):
                K[s] = rhs(y + np.dot(K[:s].T, a) * h_abs)
            y_new = y + h_abs * np.dot(K[:6].T, _DP_B)
            K[6] = f_new = rhs(y_new)
            scale = _ATOL + np.maximum(np.abs(y), np.abs(y_new)) * _RTOL
            err = _rms(np.dot(K.T, _DP_E) * h_abs / scale)
            factor = 10.0 if err == 0 else 0.9 * err**-0.2
            if err < 1:
                break
            h_abs *= max(0.2, factor)
            retried, rejected = True, rejected + 1
        accepted.append((t, h_abs, y, K.T.dot(_DP_P)))
        h_abs *= min(1, factor) if retried else min(10.0, factor)
        exited = stop_at_edge and gap(y[0]) >= 0 >= gap(y_new[0])
        t, y, f = t_new, y_new, f_new
    t0, h, y0, q = map(np.array, zip(*accepted))

    def dense(s):
        seg = np.searchsorted(t0[1:], s)
        out = np.empty((7, s.size))
        # one product per step, as RK45's own dense output forms it, so that
        # the samples keep its rounding
        for i in set(seg.tolist()):
            m = seg == i
            p = np.array([(s[m] - t0[i]) / h[i]] * 4).cumprod(axis=0)
            out[:, m] = h[i] * np.dot(q[i], p) + y0[i][:, None]
        return out

    t_exit = math.inf
    if exited:  # bisect the last step's dense output
        g = gap(np.array([y0[-1][0], y[0]]))
        t_exit = bisect_brackets(
            lambda s: gap(dense(s)[0]), t0[-1:], np.array([t]), g[:1], g[1:]
        )[0]
    return dense, delta, (len(accepted), rejected), t_exit


def _jacobian(y, delta: float):
    """J from rows of _trace's dense output: the central difference of the
    two Jacobian rays."""
    return (y[3] - y[5]) / (2.0 * delta)


def integrate_hamiltonian(
    profile: RefractionProfile1D,
    x0: float,
    k0: float,
    t_end: float,
) -> RayPath:
    """Integrate the ray system dx/dt = k, dk/dt = (eta^2)'/2, dS/dt = eta^2.

    The initial condition must sit on the energy shell k0^2 = eta^2(x0)
    (checked to 1e-8).  The Jacobian is carried along via two auxiliary
    rays at x0(1 +- 1e-5) launched on-shell, so J reflects the on-shell
    ray family the amplitude theory uses.

    Returns a RayPath sampled from the dense output at about 50 times per
    unit of t, at least 129; `truncated` is set if the path left the
    profile domain before t_end, and the samples then stop at the exit
    time.
    """
    dense, delta, steps, t_exit = _trace(profile, x0, k0, t_end, stop_at_edge=True)
    t = np.linspace(0.0, t_end, max(129, int(math.ceil(50.0 * t_end)) + 1))
    t = t[t <= t_exit]
    y = dense(t)
    return RayPath(
        t=t, x=y[0], k=y[1], J=_jacobian(y, delta), S=y[2], x0=x0, k0=k0,
        profile_name=profile.name, truncated=t_exit < math.inf, steps=steps,
    )


def airy_ray_closed(t: float, x0: float, k0: float):
    """Closed-form ray of eta^2 = x: x = t^2/4 + k0 t + x0, k = t/2 + k0."""
    return t * t / 4.0 + k0 * t + x0, t / 2.0 + k0


def linear_layer_ray(t: float, xi: float, p: LinearLayerParams):
    """Parametric layer ray launched at (xi, h):
    y = xi + eta0 t sin(psi), z = (mu1/4) t^2 - eta0 t cos(psi) + h."""
    z = 0.25 * p.mu1 * t * t - p.eta0 * t * math.cos(p.psi) + p.h
    y = xi + p.eta0 * t * math.sin(p.psi)
    return y, z


def linear_layer_momentum(t: float, p: LinearLayerParams):
    """(k_y, k_z) along a layer ray; k_y is conserved."""
    return p.eta0 * math.sin(p.psi), 0.5 * p.mu1 * t - p.eta0 * math.cos(p.psi)


def linear_layer_jacobian(t: float, p: LinearLayerParams) -> float:
    """J(t) = (eta0 cos(psi) - (mu1/2) t) / (eta0 cos(psi)); J(0) = 1."""
    c = p.eta0 * math.cos(p.psi)
    return (c - 0.5 * p.mu1 * t) / c


def linear_layer_caustic_depth(p: LinearLayerParams) -> float:
    """Depth of the fold caustic: z_c = h - eta0^2 cos^2(psi)/mu1."""
    return p.h - (p.eta0 * math.cos(p.psi)) ** 2 / p.mu1


def find_caustic(
    profile: RefractionProfile1D,
    x0: float,
    k0: float,
    t_end: float,
):
    """Locate caustic touches along the ray from (x0, k0) up to t_end > 0.

    The numerically differenced Jacobian is scanned for sign changes over
    2000 subintervals; the brackets are bisected together down to adjacent
    doubles in t, and each root is accepted only if |J| < 1e-6 there.
    Returns a list of (t, x) pairs, possibly empty, whose `steps` attribute
    holds the tracer's accepted and rejected step counts.  Unlike
    integrate_hamiltonian, the scan does not stop where the ray leaves the
    profile domain: on airy_profile the ray touches the domain edge x = 0
    exactly at the caustic.
    """
    dense, delta, steps, _ = _trace(profile, x0, k0, t_end)

    def jac(t):
        return _jacobian(dense(t), delta)

    ts = np.linspace(0.0, t_end, _CAUSTIC_SCAN + 1)
    js = jac(ts)
    cells = np.flatnonzero(js[:-1] * js[1:] < 0.0)
    touches = _Touches()
    touches.steps = steps
    if cells.size:
        t_root = bisect_brackets(jac, ts[cells], ts[cells + 1], js[cells], js[cells + 1])
        y_root = dense(t_root)
        keep = np.abs(_jacobian(y_root, delta)) < _CAUSTIC_J_TOL
        touches.extend(zip(t_root[keep].tolist(), y_root[0][keep].tolist()))
    return touches
