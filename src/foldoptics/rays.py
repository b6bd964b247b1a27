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
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

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
_CAUSTIC_T_TOL = 1e-8


@dataclass(frozen=True)
class RefractionProfile1D:
    """Medium law eta^2(x) with its derivative.

    eta_squared must be positive on the open interval `domain`; rays are
    truncated (with a flag) if they exit the closed domain.
    """

    eta_squared: Callable[[float], float]
    eta_squared_prime: Callable[[float], float]
    name: str = "profile"
    domain: tuple = (-math.inf, math.inf)

    def check_derivative(self, xs: Sequence[float], rel_tol: float = 1e-5) -> bool:
        """Finite-difference consistency of eta_squared_prime on xs."""
        for x in xs:
            h = 1e-6 * max(abs(x), 1.0)
            num = (self.eta_squared(x + h) - self.eta_squared(x - h)) / (2 * h)
            ana = self.eta_squared_prime(x)
            if abs(num - ana) > rel_tol * max(abs(ana), 1.0):
                return False
        return True


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
        eta2 = np.array([profile.eta_squared(xi) for xi in self.x])
        return 0.5 * (self.k**2 - eta2)


@dataclass(frozen=True)
class LinearLayerParams:
    """Linear layer eta^2(z) = mu0 + mu1 z below the boundary z = h,
    illuminated by a plane wave with incidence angle psi.

    eta0 is the boundary index eta(h); when omitted it is computed as
    sqrt(mu0 + mu1 h), which is the only value consistent with the closed
    phase formulas.
    """

    mu0: float
    mu1: float
    h: float
    psi: float
    kappa0: float = 1.0
    eta0: Optional[float] = None

    def __post_init__(self):
        if self.mu1 <= 0:
            raise ValueError("mu1 must be positive (index increases with depth)")
        if not 0.0 < self.psi < 0.5 * math.pi:
            raise ValueError("psi must lie in (0, pi/2)")
        boundary = self.mu0 + self.mu1 * self.h
        if boundary <= 0:
            raise ValueError("eta^2(h) must be positive")
        if self.eta0 is None:
            object.__setattr__(self, "eta0", math.sqrt(boundary))
        elif abs(self.eta0**2 - boundary) > 1e-9 * max(boundary, 1.0):
            raise ValueError("eta0 inconsistent with mu0 + mu1*h")

    @property
    def alpha(self) -> float:
        return -self.eta0 * math.cos(self.psi)

    def beta(self, z: float) -> float:
        val = self.alpha**2 + self.mu1 * (z - self.h)
        if val < 0:
            raise ValueError("point lies below the caustic (beta imaginary)")
        return math.sqrt(val)


@dataclass(frozen=True)
class AiryArrivalData:
    """Arrival times and Jacobians of the two rays through 0 < x < x0."""

    t_minus: float
    t_plus: float
    J_minus: float
    J_plus: float


def integrate_hamiltonian(
    profile: RefractionProfile1D,
    x0: float,
    k0: float,
    t_end: float,
    n_samples: Optional[int] = None,
) -> RayPath:
    """Integrate the ray system dx/dt = k, dk/dt = (eta^2)'/2, dS/dt = eta^2.

    The initial condition must sit on the energy shell k0^2 = eta^2(x0)
    (checked to 1e-8).  The Jacobian is carried along via two auxiliary
    rays at x0(1 +- 1e-5) launched on-shell, so J reflects the on-shell
    ray family the amplitude theory uses.

    Returns a RayPath sampled at n_samples times (by default about 50 per
    unit of t, at least 129); `truncated` is set if the path left the
    profile domain before t_end.
    """
    eta2 = profile.eta_squared
    h0 = 0.5 * (k0 * k0 - eta2(x0))
    if abs(h0) > 1e-8:
        raise ValueError(
            f"initial condition off the energy shell: |H(x0,k0)| = {abs(h0):.3e}"
        )
    if t_end <= 0:
        raise ValueError("t_end must be positive")

    sgn = 1.0 if k0 >= 0 else -1.0
    delta = _JACOBIAN_DELTA * max(abs(x0), 1.0)
    xp0, xm0 = x0 + delta, x0 - delta
    for xb in (xp0, xm0):
        if eta2(xb) < 0:
            raise ValueError("Jacobian offset leaves the medium (eta^2 < 0)")
    kp0 = sgn * math.sqrt(eta2(xp0))
    km0 = sgn * math.sqrt(eta2(xm0))

    def rhs(t, y):
        x, k, _, xp, kp, xm, km = y
        return [
            k,
            0.5 * profile.eta_squared_prime(x),
            eta2(x),
            kp,
            0.5 * profile.eta_squared_prime(xp),
            km,
            0.5 * profile.eta_squared_prime(xm),
        ]

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

    if n_samples is None:
        n_samples = max(129, int(math.ceil(50.0 * t_end)) + 1)
    t_eval = np.linspace(0.0, t_end, n_samples)

    sol = solve_ivp(
        rhs,
        (0.0, t_end),
        [x0, k0, 0.0, xp0, kp0, xm0, km0],
        method="RK45",
        rtol=1e-10,
        atol=1e-12,
        dense_output=False,
        t_eval=t_eval,
        events=events or None,
    )
    if not sol.success:
        raise RuntimeError(f"ray integration failed: {sol.message}")

    J = (sol.y[3] - sol.y[5]) / (2.0 * delta)
    return RayPath(
        t=sol.t,
        x=sol.y[0],
        k=sol.y[1],
        J=J,
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
    n_scan: int = 2000,
):
    """Locate caustic touches along the ray from (x0, k0).

    The numerically differenced Jacobian is scanned for sign changes over
    n_scan subintervals; each bracket is bisected to t-tolerance 1e-8 and
    accepted only if |J| < 1e-6 there.  Returns a list of (t, x) pairs,
    possibly empty.
    """
    eta2 = profile.eta_squared
    h0 = 0.5 * (k0 * k0 - eta2(x0))
    if abs(h0) > 1e-8:
        raise ValueError("initial condition off the energy shell")

    sgn = 1.0 if k0 >= 0 else -1.0
    delta = _JACOBIAN_DELTA * max(abs(x0), 1.0)
    xp0, xm0 = x0 + delta, x0 - delta
    kp0 = sgn * math.sqrt(eta2(xp0))
    km0 = sgn * math.sqrt(eta2(xm0))

    def rhs(t, y):
        x, k, xp, kp, xm, km = y
        return [
            k,
            0.5 * profile.eta_squared_prime(x),
            kp,
            0.5 * profile.eta_squared_prime(xp),
            km,
            0.5 * profile.eta_squared_prime(xm),
        ]

    sol = solve_ivp(
        rhs,
        (0.0, t_end),
        [x0, k0, xp0, kp0, xm0, km0],
        method="RK45",
        rtol=1e-10,
        atol=1e-12,
        dense_output=True,
    )
    if not sol.success:
        raise RuntimeError(f"ray integration failed: {sol.message}")

    def jac(t):
        y = sol.sol(t)
        return (y[2] - y[4]) / (2.0 * delta)

    ts = np.linspace(0.0, t_end, n_scan + 1)
    js = np.array([jac(t) for t in ts])
    roots = []
    for i in range(n_scan):
        if js[i] == 0.0:
            continue
        if js[i] * js[i + 1] < 0.0:
            t_root = brentq(jac, ts[i], ts[i + 1], xtol=_CAUSTIC_T_TOL)
            if abs(jac(t_root)) < _CAUSTIC_J_TOL:
                roots.append((t_root, float(sol.sol(t_root)[0])))
    return roots
