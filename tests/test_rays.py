from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import foldoptics

from foldoptics.rays import (
    LinearLayerParams,
    RefractionProfile1D,
    airy_profile,
    airy_ray_closed,
    constant_profile,
    find_caustic,
    integrate_hamiltonian,
    linear_layer_caustic_depth,
    linear_layer_jacobian,
    linear_layer_momentum,
    linear_layer_ray,
)

RNG_SEED = 20240817
N_RANDOM_RAYS = 100

LAYER = LinearLayerParams(mu0=1.0, mu1=2.5, h=0.3, psi=0.8)


def test_constant_profile_requires_positive_speed():
    with pytest.raises(ValueError):
        constant_profile(0.0)


def test_random_rays_match_closed_form():
    rng = np.random.default_rng(RNG_SEED)
    prof = airy_profile()
    for _ in range(N_RANDOM_RAYS):
        x0 = rng.uniform(0.5, 4.0)
        k0 = math.sqrt(x0) * rng.choice([-1.0, 1.0])
        t_end = rng.uniform(0.3, 1.0) * 4.0 * math.sqrt(x0)
        path = integrate_hamiltonian(prof, x0, k0, t_end)
        xc, kc = airy_ray_closed(path.t, x0, k0)
        assert np.allclose(path.x, xc, rtol=0, atol=1e-9)
        assert np.allclose(path.k, kc, rtol=0, atol=1e-9)


def test_energy_conserved_along_ray():
    prof = airy_profile()
    path = integrate_hamiltonian(prof, 2.0, -math.sqrt(2.0), 5.0)
    assert np.max(np.abs(path.hamiltonian(prof))) < 1e-9


def test_phase_accumulates_integral_of_eta_squared():
    # dS/dt = eta^2 = x(t) integrates to t^3/12 + k0 t^2/2 + x0 t.
    x0, k0 = 1.5, -math.sqrt(1.5)
    path = integrate_hamiltonian(airy_profile(), x0, k0, 4.0)
    S_exact = path.t**3 / 12.0 + 0.5 * k0 * path.t**2 + x0 * path.t
    assert np.allclose(path.S, S_exact, rtol=0, atol=1e-9)


def test_jacobian_matches_on_shell_variation():
    # For eta^2 = x with k0 = -sqrt(x0), the on-shell family has
    # J(t) = 1 - t/(2 sqrt(x0)).
    x0 = 2.0
    path = integrate_hamiltonian(airy_profile(), x0, -math.sqrt(x0), 5.0)
    J_exact = 1.0 - path.t / (2.0 * math.sqrt(x0))
    mask = np.abs(J_exact) > 0.05
    rel = np.abs(path.J[mask] - J_exact[mask]) / np.abs(J_exact[mask])
    assert np.max(rel) < 1e-4


def test_straight_ray_in_constant_medium():
    prof = constant_profile(4.0)
    path = integrate_hamiltonian(prof, 1.0, 2.0, 3.0)
    assert np.allclose(path.x, 1.0 + 2.0 * path.t, atol=1e-10)
    assert np.allclose(path.J, 1.0, atol=1e-8)
    assert np.allclose(path.S, 4.0 * path.t, atol=1e-9)


def test_off_shell_launch_rejected():
    with pytest.raises(ValueError, match="energy shell"):
        integrate_hamiltonian(airy_profile(), 1.0, 0.5, 1.0)


@pytest.mark.parametrize("trace", [integrate_hamiltonian, find_caustic])
def test_jacobian_offset_outside_the_medium_rejected(trace):
    # x0 - 1e-5 < 0 puts the lower auxiliary ray where eta^2 = x < 0
    x0 = 5e-6
    with pytest.raises(ValueError, match="Jacobian offset leaves the medium"):
        trace(airy_profile(), x0, -math.sqrt(x0), 1.0)


@pytest.mark.parametrize("trace", [integrate_hamiltonian, find_caustic])
def test_off_shell_launch_rejected_by_both_tracers(trace):
    with pytest.raises(ValueError, match=r"energy shell: \|H\(x0,k0\)\| = 5\.000e-01"):
        trace(airy_profile(), 1.0, 0.0, 1.0)


def test_nonpositive_duration_rejected():
    with pytest.raises(ValueError):
        integrate_hamiltonian(airy_profile(), 1.0, 1.0, 0.0)


def test_domain_exit_sets_truncated_flag():
    prof = RefractionProfile1D(lambda x: 1.0, lambda x: 0.0, "slab", (0.0, 10.0))
    path = integrate_hamiltonian(prof, 5.0, -1.0, 10.0)
    assert path.truncated
    # the samples stop at the exit time t = 5, where the ray meets x = 0
    assert path.t[-1] == 5.0 and abs(path.x[-1]) <= 1e-12
    path2 = integrate_hamiltonian(prof, 5.0, 1.0, 3.0)
    assert not path2.truncated


def test_find_caustic_at_turning_point():
    x0 = 4.0
    hits = find_caustic(airy_profile(), x0, -math.sqrt(x0), 6.0)
    assert len(hits) == 1
    t_c, x_c = hits[0]
    assert abs(t_c - 2.0 * math.sqrt(x0)) < 1e-6
    assert abs(x_c) < 1e-6


def test_find_caustic_finds_every_touch_of_a_bound_ray():
    # eta^2 = 1 - x^2: x(t) = -cos(t) from (0, -1) turns at x = +-1 and
    # touches the caustic at t = (2n + 1) pi/2
    prof = RefractionProfile1D(lambda x: 1.0 - x * x, lambda x: -2.0 * x, "harmonic")
    hits = find_caustic(prof, 0.0, -1.0, 8.5)
    assert len(hits) == 3
    for n, (t_c, x_c) in enumerate(hits):
        assert abs(t_c - (2 * n + 1) * math.pi / 2) <= 1e-10
        assert abs(abs(x_c) - 1.0) <= 1e-9


@pytest.mark.parametrize("t_end", [0.0, -1.0])
def test_find_caustic_refuses_nonpositive_t_end(t_end):
    with pytest.raises(ValueError, match="t_end must be positive"):
        find_caustic(airy_profile(), 4.0, -2.0, t_end)


def test_no_caustic_without_turning():
    hits = find_caustic(constant_profile(1.0), 0.0, 1.0, 5.0)
    assert hits == []


def _airy_jacobian(t, x0, delta=1e-6):
    """dx/dx0 at time t over the on-shell family launched leftwards, k0 = -sqrt(x0)."""
    hi, lo = (airy_ray_closed(t, x, -math.sqrt(x))[0] for x in (x0 + delta, x0 - delta))
    return (hi - lo) / (2.0 * delta)


@pytest.mark.parametrize(
    "x,x0,expected",
    [
        (1.0, 4.0, (2.0, 6.0, 0.5, -0.5)),
        (0.25, 1.0, (1.0, 3.0, 0.5, -0.5)),
    ],
)
def test_airy_arrivals_closed_form(x, x0, expected):
    # the direct and reflected rays through 0 < x < x0 arrive at
    # t_-+ = 2(sqrt(x0) -+ sqrt(x)) with J_-+ = +-sqrt(x)/sqrt(x0)
    t_minus, t_plus, j_minus, j_plus = expected
    for t, j in ((t_minus, j_minus), (t_plus, j_plus)):
        xt, _ = airy_ray_closed(t, x0, -math.sqrt(x0))
        assert xt == pytest.approx(x, abs=1e-14)
        assert _airy_jacobian(t, x0) == pytest.approx(j, abs=1e-8)


def test_airy_arrivals_land_on_target():
    x0 = 3.0
    k0 = -math.sqrt(x0)
    for x in (0.2, 1.0, 2.5):
        r0, rx = math.sqrt(x0), math.sqrt(x)
        for t, k in ((2.0 * (r0 - rx), -rx), (2.0 * (r0 + rx), rx)):
            xt, kt = airy_ray_closed(t, x0, k0)
            assert abs(xt - x) < 1e-12
            assert kt == pytest.approx(k, abs=1e-12)


def test_layer_defaults_boundary_index():
    assert LAYER.eta0 == pytest.approx(math.sqrt(LAYER.mu0 + LAYER.mu1 * LAYER.h))


@pytest.mark.parametrize("psi", [0.0, -0.1, math.pi / 2])
def test_layer_rejects_bad_incidence(psi):
    with pytest.raises(ValueError):
        LinearLayerParams(mu0=1.0, mu1=2.5, h=0.3, psi=psi)


def test_layer_rejects_nonincreasing_index():
    with pytest.raises(ValueError):
        LinearLayerParams(mu0=1.0, mu1=-1.0, h=0.3, psi=0.8)


def test_layer_ray_turns_at_caustic_depth():
    # z(t) is minimized where k_z = 0; that depth is the fold caustic and
    # the ray-tube Jacobian vanishes there.
    t_star = 2.0 * LAYER.eta0 * math.cos(LAYER.psi) / LAYER.mu1
    _, z_star = linear_layer_ray(t_star, 0.0, LAYER)
    assert z_star == pytest.approx(linear_layer_caustic_depth(LAYER), abs=1e-14)
    assert linear_layer_momentum(t_star, LAYER)[1] == pytest.approx(0.0, abs=1e-14)
    assert linear_layer_jacobian(t_star, LAYER) == pytest.approx(0.0, abs=1e-14)


def test_layer_transverse_momentum_conserved():
    ky0 = LAYER.eta0 * math.sin(LAYER.psi)
    for t in np.linspace(0.0, 1.0, 5):
        assert linear_layer_momentum(t, LAYER)[0] == pytest.approx(ky0)


def test_layer_arrivals_reach_requested_depth():
    z_c = linear_layer_caustic_depth(LAYER)
    c = LAYER.eta0 * math.cos(LAYER.psi)
    for z in np.linspace(z_c + 1e-3, LAYER.h - 1e-3, 7):
        # the two ray parameters reaching depth z, t_-+ = (2/mu1)(eta0 cos(psi)
        # -+ beta(z)): the ray passes it going down and coming back, k_z = -+beta(z)
        b = LAYER.beta(z)
        for t, kz in ((2.0 * (c - b) / LAYER.mu1, -b), (2.0 * (c + b) / LAYER.mu1, b)):
            _, zt = linear_layer_ray(t, 0.0, LAYER)
            assert zt == pytest.approx(z, abs=1e-12)
            assert linear_layer_momentum(t, LAYER)[1] == pytest.approx(kz, abs=1e-12)


def test_layer_beta_raises_below_caustic():
    z_c = linear_layer_caustic_depth(LAYER)
    with pytest.raises(ValueError, match="caustic"):
        LAYER.beta(z_c - 1e-6)


def test_no_command_or_tracer_loads_scipy(tmp_path):
    # the runtime needs numpy only; scipy is a reference of the tests
    src = os.path.dirname(os.path.dirname(os.path.abspath(foldoptics.__file__)))
    code = (
        "import math, sys\n"
        "from foldoptics.cli import main\n"
        "from foldoptics.rays import airy_profile, find_caustic, integrate_hamiltonian\n"
        "for argv in (['rays'], ['field', '--nx', '8'], ['wigner', '--nx', '8', '--nk', '8'],"
        " ['validate']):\n"
        f"    assert main([*argv, '--out', {str(tmp_path)!r} + '/' + argv[0]]) == 0\n"
        "integrate_hamiltonian(airy_profile(), 2.0, -math.sqrt(2.0), 4.0)\n"
        "find_caustic(airy_profile(), 2.0, -math.sqrt(2.0), 4.0)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.split("\n")[-2] == "[]"


def _scipy_reference(profile, x0, k0, t_end):
    """integrate_hamiltonian's samples, traced by scipy's RK45 at the same
    tolerances with the domain edges as terminal events, and its accepted
    and rejected step counts."""
    from scipy.integrate import solve_ivp

    eta2, deta2 = profile.eta_squared, profile.eta_squared_prime
    delta = 1e-5 * max(abs(x0), 1.0)
    xp, xm = x0 + delta, x0 - delta
    kp, km = ((1.0 if k0 >= 0 else -1.0) * math.sqrt(eta2(xb)) for xb in (xp, xm))

    def rhs(t, y):
        x, k, _, xp, kp, xm, km = y
        return [k, 0.5 * deta2(x), eta2(x), kp, 0.5 * deta2(xp), km, 0.5 * deta2(xm)]

    events = []
    for edge, sign in zip(profile.domain, (1.0, -1.0)):
        if math.isfinite(edge):
            events.append(lambda t, y, edge=edge, sign=sign: sign * (y[0] - edge))
            events[-1].terminal, events[-1].direction = True, -1
    n = max(129, int(math.ceil(50.0 * t_end)) + 1)
    sol = solve_ivp(
        rhs, (0.0, t_end), [x0, k0, 0.0, xp, kp, xm, km], method="RK45",
        t_eval=np.linspace(0.0, t_end, n), events=events, dense_output=True,
        rtol=1e-10, atol=1e-12,
    )
    assert sol.success
    accepted = sol.sol.n_segments
    # two derivative calls start the integration, six more go to each attempt
    return sol, delta, (accepted, (sol.nfev - 2) // 6 - accepted)


SLAB = RefractionProfile1D(lambda x: 1.0, lambda x: 0.0, "slab", (0.0, 10.0))
HARMONIC = RefractionProfile1D(lambda x: 1.0 - x * x, lambda x: -2.0 * x, "harmonic")
STEP = RefractionProfile1D(
    lambda x: 2.0 + np.tanh(20.0 * x), lambda x: 20.0 / np.cosh(20.0 * x) ** 2, "step"
)


@pytest.mark.parametrize(
    "profile,x0,k0,t_end",
    [
        (airy_profile(), 2.0, -math.sqrt(2.0), 4.0),  # criterion 10's ray
        (HARMONIC, 0.0, -1.0, 8.5),  # three caustic touches
        (SLAB, 5.0, -1.0, 10.0),  # leaves the domain at t = 5
        # crosses a steep layer: retries after a rejected step may not grow
        (STEP, -1.0, math.sqrt(2.0 + math.tanh(-20.0)), 3.0),
    ],
    ids=["airy", "harmonic", "slab-exit", "steep-layer"],
)
def test_tracer_matches_scipy_rk45(profile, x0, k0, t_end):
    sol, delta, steps = _scipy_reference(profile, x0, k0, t_end)
    path = integrate_hamiltonian(profile, x0, k0, t_end)
    assert path.steps == steps
    assert path.truncated == (sol.status == 1)
    assert path.t.size == sol.t.size and path.t[-1] == sol.t[-1]
    J = (sol.y[3] - sol.y[5]) / (2.0 * delta)
    for got, ref in ((path.x, sol.y[0]), (path.k, sol.y[1]), (path.S, sol.y[2]), (path.J, J)):
        assert np.max(np.abs(got - ref)) <= 1e-13


def test_tracer_refuses_a_vanishing_step():
    # a NaN derivative fails every error test, so the step shrinks to 10
    # spacings of t and the tracer gives up
    prof = RefractionProfile1D(lambda x: 1.0 + 0.0 * x, lambda x: math.nan, "broken")
    with pytest.raises(RuntimeError, match="ray integration failed"):
        integrate_hamiltonian(prof, 0.0, 1.0, 1.0)
