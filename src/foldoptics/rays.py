"""Hamiltonian ray tracing for H(x, k) = (k^2 - eta^2(x))/2.

Generic paths are integrated with an adaptive Runge-Kutta scheme; the ray
Jacobian J(t) = dx(t; x0)/dx0 is obtained from a pair of auxiliary rays
launched at x0 +- delta with on-shell momenta, sharing the main ray's step
sequence so that integrator noise cancels in the central difference.

Closed forms are provided for the two worked media: eta^2 = x (every ray is
a parabola and the caustic is the turning point x = 0) and the 2-D linear
layer eta^2(z) = mu0 + mu1 z entered from the boundary z = h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .wigner import bisect_brackets

__all__ = [
    "RefractionProfile1D",
    "RayPath",
    "LinearLayerParams",
    "AiryArrivalData",
    "airy_profile",
    "constant_profile",
    "integrate_hamiltonian",
    "airy_ray_closed",
    "airy_arrivals",
    "linear_layer_ray",
    "linear_layer_momentum",
    "linear_layer_jacobian",
    "linear_layer_arrivals",
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

# check_derivative's tolerance, relative to max(|(eta^2)'|, 1).
_DERIVATIVE_REL_TOL = 1e-5


def _central_differences(f, x, rel_step):
    """Central-difference (f', f'') of an array-in/array-out f at the
    points x, with step rel_step * max(|x|, 1) at each point."""
    x = np.asarray(x, dtype=float)
    h = rel_step * np.maximum(np.abs(x), 1.0)
    up, mid, down = f(x + h), f(x), f(x - h)
    return (up - down) / (2.0 * h), (up - 2.0 * mid + down) / (h * h)


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

    def check_derivative(self, xs: Sequence[float]) -> bool:
        """Finite-difference consistency of eta_squared_prime on xs."""
        xs = np.asarray(xs, dtype=float)
        num, _ = _central_differences(self.eta_squared, xs, 1e-6)
        ana = self.eta_squared_prime(xs)
        bound = _DERIVATIVE_REL_TOL * np.maximum(np.abs(ana), 1.0)
        return not np.any(np.abs(num - ana) > bound)


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
    """A sampled bicharacteristic with Jacobian and accumulated phase."""

    t: np.ndarray
    x: np.ndarray
    k: np.ndarray
    J: np.ndarray
    S: np.ndarray
    x0: float
    k0: float
    profile_name: str
    truncated: bool = False

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


@dataclass(frozen=True)
class AiryArrivalData:
    """Arrival times and Jacobians of the two rays through 0 < x < x0."""

    t_minus: float
    t_plus: float
    J_minus: float
    J_plus: float


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


def _trace(profile: RefractionProfile1D, x0: float, k0: float, t_end: float, **options):
    """Integrate the ray system from (x0, k0) over [0, t_end] together
    with the two Jacobian rays (RK45, rtol 1e-10, atol 1e-12); options go
    to the integrator.  Returns the solution, whose rows are x, k, S, x+, k+,
    x-, k-, and the Jacobian offset delta."""
    # deferred: scipy.integrate (which loads scipy.optimize itself) stays
    # out of `import foldoptics`
    from scipy import integrate

    eta2, deta2 = profile.eta_squared, profile.eta_squared_prime
    delta, (xp0, kp0), (xm0, km0) = _jacobian_launch(profile, x0, k0)
    if t_end <= 0:
        raise ValueError("t_end must be positive")

    def rhs(t, y):
        x, k, _, xp, kp, xm, km = y
        return [k, 0.5 * deta2(x), eta2(x), kp, 0.5 * deta2(xp), km, 0.5 * deta2(xm)]

    sol = integrate.solve_ivp(
        rhs,
        (0.0, t_end),
        [x0, k0, 0.0, xp0, kp0, xm0, km0],
        method="RK45",
        rtol=1e-10,
        atol=1e-12,
        **options,
    )
    if not sol.success:
        raise RuntimeError(f"ray integration failed: {sol.message}")
    return sol, delta


def _jacobian(y, delta: float):
    """J from rows of a _trace solution: the central difference of the
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

    Returns a RayPath sampled at about 50 times per unit of t, at least
    129; `truncated` is set if the path left the profile domain before
    t_end.
    """
    events = []
    lo, hi = profile.domain
    if math.isfinite(lo):
        ev_lo = lambda t, y: y[0] - lo  # noqa: E731
        ev_lo.terminal = True
        ev_lo.direction = -1
        events.append(ev_lo)
    if math.isfinite(hi):
        ev_hi = lambda t, y: hi - y[0]  # noqa: E731
        ev_hi.terminal = True
        ev_hi.direction = -1
        events.append(ev_hi)

    n = max(129, int(math.ceil(50.0 * t_end)) + 1)
    sol, delta = _trace(
        profile, x0, k0, t_end,
        t_eval=np.linspace(0.0, t_end, n),
        events=events or None,
    )
    return RayPath(
        t=sol.t,
        x=sol.y[0],
        k=sol.y[1],
        J=_jacobian(sol.y, delta),
        S=sol.y[2],
        x0=x0,
        k0=k0,
        profile_name=profile.name,
        truncated=(sol.status == 1),
    )


def airy_ray_closed(t: float, x0: float, k0: float):
    """Closed-form ray of eta^2 = x: x = t^2/4 + k0 t + x0, k = t/2 + k0."""
    return t * t / 4.0 + k0 * t + x0, t / 2.0 + k0


def airy_arrivals(x: float, x0: float) -> AiryArrivalData:
    """Times and Jacobians of the direct and reflected arrivals at x.

    Valid in the two-arrival region 0 < x < x0 of the left-launched ray:
    t_-/t_+ = 2(sqrt(x0) -+ sqrt(x)), J_-/J_+ = +-sqrt(x)/sqrt(x0).
    """
    if not 0.0 < x < x0:
        raise ValueError("two-arrival region requires 0 < x < x0")
    rx, r0 = math.sqrt(x), math.sqrt(x0)
    return AiryArrivalData(
        t_minus=2.0 * (r0 - rx),
        t_plus=2.0 * (r0 + rx),
        J_minus=rx / r0,
        J_plus=-rx / r0,
    )


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


def linear_layer_arrivals(z: float, p: LinearLayerParams):
    """The two ray parameters reaching depth z:
    t_-+ = (2/mu1)(eta0 cos(psi) -+ beta(z))."""
    b = p.beta(z)
    c = p.eta0 * math.cos(p.psi)
    return 2.0 * (c - b) / p.mu1, 2.0 * (c + b) / p.mu1


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
    Returns a list of (t, x) pairs, possibly empty.  Unlike
    integrate_hamiltonian, the scan does not stop where the ray leaves the
    profile domain: on airy_profile the ray touches the domain edge x = 0
    exactly at the caustic.
    """
    sol, delta = _trace(profile, x0, k0, t_end, dense_output=True)

    def jac(t):
        return _jacobian(sol.sol(t), delta)

    ts = np.linspace(0.0, t_end, _CAUSTIC_SCAN + 1)
    js = jac(ts)
    cells = np.flatnonzero(js[:-1] * js[1:] < 0.0)
    if cells.size == 0:
        return []
    t_root = bisect_brackets(jac, ts[cells], ts[cells + 1], js[cells], js[cells + 1])
    x_root = sol.sol(t_root)[0]
    keep = np.abs(jac(t_root)) < _CAUSTIC_J_TOL
    return [(float(t), float(x)) for t, x in zip(t_root[keep], x_root[keep])]
