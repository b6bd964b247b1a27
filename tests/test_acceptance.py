"""Acceptance gate: one test per validation criterion, one line printed each.

Each test computes the criterion metric at its stated tolerance and prints a
single pass/fail summary line before asserting, so a -s run reads as a
checklist.  The shared check implementations live in foldoptics.cli (they
back the `foldoptics validate` subcommand); criteria whose reference data
ship with the test suite (6 and 11) add those legs here.
"""

from __future__ import annotations

import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from foldoptics import cli, specfun, stphase, surgery
from foldoptics.cli import (
    band_comparison_metric,
    check_band_wignerization,
    check_cfu_engine,
    check_fundamental_quadrature,
    check_k_moments,
    check_kl_uniformization,
    check_liouville_order,
    check_rays,
    check_special_functions,
    check_stationary_tables,
    check_surgery_identity,
    check_wkb_convergence,
)
from foldoptics.specfun import airy
from foldoptics.stphase import CfuCoefficients, cfu_eval
from foldoptics.wigner import wigner_exact_airy

DATA = Path(__file__).parent / "data"


def report(result):
    line = (
        f"criterion {result.id:02d} "
        f"{'PASS' if result.passed else 'FAIL'} {result.name}: "
        f"metric={result.metric:.3e} threshold={result.threshold:.3e}"
    )
    if result.detail:
        line += f" ({result.detail})"
    print(line)
    return result.passed


def test_criterion_01_surgery_identity():
    # max |combined - exact| <= 1e-12 on 200x200, eps = 0.05, x0 = 2 (run_validation
    # adds the < 5 s gate)
    assert report(check_surgery_identity())


def test_criterion_02_end_to_end_wignerization():
    # numeric Wigner transform of the two-branch WKB field vs the combined
    # fold form: band envelope rel <= 5e-2 at eps = 0.05, decreasing when
    # eps is halved (run_validation adds the < 60 s gate)
    assert report(check_band_wignerization())


def test_criterion_02_band_error_decreases_again():
    # one more halving for good measure: the band error keeps falling
    assert band_comparison_metric(0.0125) < band_comparison_metric(0.025)


def test_criterion_02_samples_inside_its_support(monkeypatch):
    # the sampler is the bare WKB field: every point x +- sigma_j it asks for lies
    # strictly inside the support (1, 16), where the two-branch field is defined
    seen = []

    def recording(u, epsilon, x0):
        seen.append((float(np.min(u)), float(np.max(u))))
        return wkb_field(u, epsilon, x0)

    wkb_field = cli._wkb_field
    monkeypatch.setattr(cli, "_wkb_field", recording)
    metrics = [band_comparison_metric(eps) for eps in (0.05, 0.025)]
    assert 1.0 < min(lo for lo, _ in seen) and max(hi for _, hi in seen) < 16.0
    assert metrics == [0.034596435385309696, 0.0033823328104360256]


def test_criterion_03_fundamental_solution_quadrature():
    # numeric transform of the caustic field vs the closed form,
    # rel <= 5e-3 wherever |W| >= 1% of the grid max
    assert report(check_fundamental_quadrature())


def test_criterion_04_k_moments():
    # wigner_moment0 over |k| <= 3 reproduces the density closed form to
    # rel <= 1e-4 on x in [0.2, 1.5]; wigner_moment1's flux <= 1e-10
    assert report(check_k_moments())


def test_criterion_04_fails_on_perturbed_k_moment(monkeypatch):
    # the library's closed-form k-moment off by 1e-3 (relative): the
    # quadrature of the recombined profile no longer reproduces it
    moment = cli.k_integral_amplitude
    monkeypatch.setattr(
        cli, "k_integral_amplitude", lambda *a, **kw: moment(*a, **kw) * (1.0 + 1e-3)
    )
    result = check_k_moments()
    assert not result.passed
    assert result.metric > result.threshold


def test_criterion_04_fails_on_perturbed_zeroth_moment(monkeypatch):
    # the quadrature leg, wigner_moment0, off by 1e-3 (relative)
    moment0 = cli.wigner_moment0
    monkeypatch.setattr(cli, "wigner_moment0", lambda g: moment0(g) * (1.0 + 1e-3))
    result = check_k_moments()
    assert not result.passed
    assert result.metric > result.threshold


def test_criterion_04_fails_on_perturbed_flux_moment(monkeypatch):
    # the flux leg, wigner_moment1, off by 1e-9: the metric holds, the flux
    # bound of 1e-10 does not
    moment1 = cli.wigner_moment1
    monkeypatch.setattr(cli, "wigner_moment1", lambda g: moment1(g) + 1e-9)
    result = check_k_moments()
    assert not result.passed
    assert result.metric <= result.threshold
    flux = result.legs[1]
    assert flux.name == "max flux" and not flux.passed
    assert flux.value == pytest.approx(1e-9, rel=1e-6)


def test_criterion_05_stationary_point_tables():
    # 10^4 random (x, k): every real tabulated point re-found by bracketing
    # and bisection with gradient residual <= 1e-10
    assert report(check_stationary_tables(seed=20240911))


def test_criterion_05_fails_on_perturbed_closed_form(monkeypatch):
    # the closed form 2|k| sqrt|x - k^2| behind the real points, off by 1e-6:
    # the table refuses points its Newton step cannot repair
    half_chord = surgery._half_chord
    monkeypatch.setattr(
        surgery, "_half_chord", lambda x, k: half_chord(x, k) * (1.0 + 1e-6)
    )
    result = check_stationary_tables()
    assert not result.passed
    assert "fails the gradient check" in result.detail


def test_criterion_05_fails_on_points_off_their_roots(monkeypatch):
    # tabulated points moved inward by 1e-6 after the table's own check:
    # only the criterion's independent root finding stands between them and
    # a pass
    def perturbed(index, x, k):
        table = surgery.stationary_table(index, x, k)
        return dataclasses.replace(table, locations=table.locations * (1.0 - 1e-6))

    monkeypatch.setattr(cli, "stationary_table", perturbed)
    result = check_stationary_tables()
    assert not result.passed
    assert result.metric == math.inf


@pytest.mark.parametrize("seed", [20240911, 1514489336])
def test_criterion_05_bisects_every_real_point(monkeypatch, seed):
    # brackets clipped to the window [-x, x] reach the points within 0.001 x
    # of its edges too: every real simple point is bisected, once
    rng = np.random.default_rng(seed)
    xs = 0.05 + 3.95 * rng.random(10000)
    ks = rng.uniform(-2.2, 2.2, 10000)
    real = 0
    for index in (1, 2, 3, 4):
        table = surgery.stationary_table(index, xs, ks)
        curv = table.curvatures
        real += np.count_nonzero(
            (table.locations.imag == 0.0) & np.isfinite(curv) & (curv != 0.0)
        )
    bisected = []
    bisect = cli.bisect_brackets

    def counting(f, a, b, fa, fb):
        bisected.append(a.size)
        return bisect(f, a, b, fa, fb)

    monkeypatch.setattr(cli, "bisect_brackets", counting)
    result = check_stationary_tables(seed=seed)
    assert result.passed
    assert result.detail.startswith(f"{real} real points")
    assert sum(bisected) == real


@pytest.mark.parametrize("branch", [1, 2, 3, 4])
def test_criterion_05_fails_on_one_branch_verified_with_a_swapped_sign_pair(
    monkeypatch, branch
):
    # the verifier gives branch `branch`'s points its mirror's sign pair
    # (1 <-> 2, 3 <-> 4), whose gradient does not vanish there
    signs = list(cli._SIGNS)
    signs[branch - 1] = tuple(-s for s in signs[branch - 1])
    monkeypatch.setattr(cli, "_SIGNS", tuple(signs))
    result = check_stationary_tables()
    assert not result.passed
    assert result.metric > result.threshold


def _one_branch_tabulated(monkeypatch, branch, change):
    """Make criterion 05 tabulate branch `branch` through change(table, x,
    k), the other branches as they are."""
    table = surgery.stationary_table

    def tabulate(index, x, k):
        return change(table, x, k) if index == branch else table(index, x, k)

    monkeypatch.setattr(cli, "stationary_table", tabulate)


def _shift(x, k):
    return 1e-6 * np.maximum(1.0, np.sqrt(x) + np.abs(k))


@pytest.mark.parametrize("branch", [1, 2, 3, 4])
def test_criterion_05_fails_on_one_branch_with_a_shifted_closed_form(monkeypatch, branch):
    # one branch's closed-form chord shifted by 1e-6 of the table's scale:
    # its points are refused by the table's own gradient check
    half_chord = surgery._half_chord

    def shifted(table, x, k):
        with monkeypatch.context() as m:
            m.setattr(surgery, "_half_chord", lambda x, k: half_chord(x, k) + _shift(x, k))
            return table(branch, x, k)

    _one_branch_tabulated(monkeypatch, branch, shifted)
    result = check_stationary_tables()
    assert not result.passed and result.metric == math.inf
    assert f"of branch {branch} fails the gradient check" in result.detail


@pytest.mark.parametrize("branch", [1, 2, 3, 4])
def test_criterion_05_fails_on_one_branch_shifted_off_its_roots(monkeypatch, branch):
    # one branch's real points moved toward 0 by 1e-6 of the table's scale
    # after the table's own check: the root finding sees them drift
    def shifted(table, x, k):
        out = table(branch, x, k)
        loc = out.locations
        moved = loc - np.sign(loc.real) * _shift(x, k)[:, None]
        return dataclasses.replace(out, locations=np.where(loc.imag == 0.0, moved, loc))

    _one_branch_tabulated(monkeypatch, branch, shifted)
    result = check_stationary_tables()
    assert not result.passed and result.metric == math.inf
    assert not result.detail.startswith("error")


def test_criterion_05_passes_at_a_window_edge_seed():
    # this seed draws a branch 3/4 point two doubles below the window edge
    # sigma = x, where one double moves F_sigma by 3.7e-9: its raw residual
    # 5.4e-10 is below that step, and counts as 1.4e-11 in the bound's units
    result = check_stationary_tables(seed=1514489336)
    assert report(result)
    assert 1e-12 < result.metric <= 1e-10


def test_criterion_06_cfu_engine():
    # canonical cubic: cfu_eval equals 2 pi lam^{-1/3} Ai(-lam^{2/3} xi)
    # to rel 1e-6 on xi in [0, 4], lam in {10, 100}
    assert report(check_cfu_engine())

    # and matches the frozen windowed brute-force quadrature to rel 1e-4
    rows = json.loads((DATA / "cfu_quadrature.json").read_text())
    worst = 0.0
    for row in rows:
        c = CfuCoefficients(phi0=0.0, xi=row["xi"], A0=1.0, B0=0.0)
        got = cfu_eval(c, row["lambda"])
        want = row["re"] + 1j * row["im"]
        worst = max(worst, abs(got - want) / abs(want))
    print(f"criterion 06 quadrature leg: metric={worst:.3e} threshold=1e-4")
    assert worst <= 1e-4


def test_criterion_07_kl_uniformization():
    # kl_field on the two-branch data equals the inner Airy approximation
    # to rel 1e-12; far-field deviation from the WKB field decreases
    # monotonically over eps in {0.1, 0.05, 0.025}
    assert report(check_kl_uniformization())


@pytest.mark.parametrize(
    "change",
    [
        # the (2/3) x^{3/2} of S+ scaled by 1.0001
        lambda x, phases, amplitudes: (
            (phases[0] + 1e-4 * (2.0 / 3.0) * x**1.5, phases[1]), amplitudes
        ),
        # both amplitude exponents -1/4 -> -0.26
        lambda x, phases, amplitudes: (phases, tuple(a * x**-0.01 for a in amplitudes)),
    ],
    ids=["phase_plus", "amplitude_exponent"],
)
def test_criterion_07_fails_on_perturbed_branches(monkeypatch, change):
    # the KL side reads the changed branches, the WKB reference the true ones
    branches = cli.airy_wkb_branches
    monkeypatch.setattr(cli, "airy_wkb_branches", lambda x, x0: change(x, *branches(x, x0)))
    result = check_kl_uniformization()
    assert not result.passed
    assert result.metric > 10 * result.threshold


def test_criterion_07_fails_on_perturbed_rho(monkeypatch):
    # kl_coordinates' rho off by 1e-4 (relative); phi as it is
    coordinates = cli.kl_coordinates

    def perturbed(s_plus, s_minus):
        phi, rho = coordinates(s_plus, s_minus)
        return phi, 1.0001 * rho

    monkeypatch.setattr(cli, "kl_coordinates", perturbed)
    result = check_kl_uniformization()
    assert not result.passed
    assert result.metric > 10 * result.threshold


def test_criterion_08_wkb_convergence_order():
    # envelope-relative deviation from the reference solution halves with
    # eps: ratios within [1.6, 2.4]
    assert report(check_wkb_convergence())


def test_criterion_09_liouville_residual_order():
    # central-difference transport residual of the exact Wigner form
    # vanishes at observed order >= 1.9
    assert report(check_liouville_order())


def test_criterion_09_coarse_grids_are_slices_of_the_finest():
    # criterion 09 evaluates W once on its 401-node grid and takes the 101-
    # and 201-node grids as every 4th and 2nd node: linspace must give the
    # same nodes, and W on them the same bits, as a direct evaluation
    eps, x0 = 0.1, 2.0
    xs, ks = np.linspace(0.3, 1.7, 401), np.linspace(-1.2, 1.2, 401)
    w = wigner_exact_airy(xs[:, None], ks[None, :], eps, x0)
    for n, step in ((101, 4), (201, 2)):
        sub_xs, sub_ks = np.linspace(0.3, 1.7, n), np.linspace(-1.2, 1.2, n)
        assert xs[::step].tobytes() == sub_xs.tobytes()
        assert ks[::step].tobytes() == sub_ks.tobytes()
        direct = wigner_exact_airy(sub_xs[:, None], sub_ks[None, :], eps, x0)
        assert np.ascontiguousarray(w[::step, ::step]).tobytes() == direct.tobytes()


def test_criterion_09_runs_in_bounded_memory():
    # W (1.3 MB) is filled, and its residual taken, a block of rows at a time
    check_liouville_order()
    tracemalloc.start()
    try:
        check_liouville_order()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20, peak


def test_criterion_10_rays():
    # Hamiltonian drift <= 1e-9, fold caustic at (2 sqrt(x0), 0) +- 1e-6,
    # layer caustic depth at the layer ray's turning point +- 1e-12
    assert report(check_rays())


def test_criterion_10_fails_on_perturbed_caustic_depth(monkeypatch):
    # the layer caustic depth off by 1e-9 (relative) moves it off the depth
    # where the layer ray turns
    depth = cli.linear_layer_caustic_depth
    monkeypatch.setattr(
        cli, "linear_layer_caustic_depth", lambda p: depth(p) * (1.0 + 1e-9)
    )
    result = check_rays()
    assert not result.passed
    # the drift leg still passes: the depth leg is what failed
    assert result.metric <= result.threshold
    assert [leg.name for leg in result.legs if not leg.passed] == ["depth offset"]


def test_criterion_11_special_functions():
    # closed-form legs (Wronskian, origin values)
    assert report(check_special_functions())

    # extended-precision reference table on [-10, 5], rel <= 1e-10
    table = json.loads((DATA / "airy_reference.json").read_text())
    z = np.array([row["z"] for row in table])
    assert z.min() >= -10.0 and z.max() <= 5.0
    vals = airy(z)
    worst = 0.0
    for field, got in (
        ("ai", vals.ai),
        ("aip", vals.ai_prime),
        ("bi", vals.bi),
        ("bip", vals.bi_prime),
    ):
        ref = np.array([row[field] for row in table])
        worst = max(worst, float(np.max(np.abs(got - ref) / np.abs(ref))))
    print(f"criterion 11 reference leg: metric={worst:.3e} threshold=1e-10")
    assert worst <= 1e-10


@pytest.mark.parametrize("tail", ["_asymptotic_positive", "_asymptotic_negative"])
def test_criterion_11_fails_on_perturbed_asymptotic_tail(monkeypatch, tail):
    # Ai's leading coefficient in one tail's expansion, off by 1e-8: the
    # Wronskian moves by about 1.6e-9 at every grid point beyond 7.8 on
    # that side
    expansion = getattr(specfun, tail)

    def perturbed(z):
        ai, aip, bi, bip = expansion(z)
        return ai * (1.0 + 1e-8), aip, bi, bip

    monkeypatch.setattr(specfun, tail, perturbed)
    result = check_special_functions()
    assert not result.passed
    assert result.metric > 1e-9


# Criteria 01 and 06 are identities: 01 compares the combined fold form with the
# closed form it equals and sums no surgery term, and 06 evaluates the cubic
# normal form without matching it to a phase.  Their cases fail until each
# reads the producer perturbed here; strict, so the suite says when they do.
_IDENTITY = pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="the criterion does not read this producer"
)


@pytest.mark.parametrize(
    "check, owner, name, perturb, failing",
    [
        # the fold form the band is compared against, 10% high
        pytest.param(check_band_wignerization, cli, "combined_wkb_wigner",
                     lambda f: lambda *a: 1.1 * f(*a), ["eps=0.05 band"], id="02"),
        # the closed form 1% high
        pytest.param(check_fundamental_quadrature, cli, "wigner_exact_airy",
                     lambda f: lambda *a: (1.0 + 1e-2) * f(*a), ["masked rel deviation"], id="03"),
        # the WKB field off by 1e-2 at every eps: its error stops halving
        pytest.param(check_wkb_convergence, cli, "_wkb_field",
                     lambda f: lambda *a: f(*a) + 1e-2, ["halving ratio offset"], id="08"),
        # (eta^2)' off by 1e-2 against the W of eta^2 = x: the residual stops converging
        pytest.param(check_liouville_order, cli, "airy_profile",
                     lambda f: lambda: dataclasses.replace(f(), eta_squared_prime=lambda x: 1.01),
                     ["observed order"], id="09"),
        # the diagonal terms of the surgery sum with their sign flipped
        pytest.param(check_surgery_identity, surgery, "diagonal_asymptotics",
                     lambda f: lambda *a: -f(*a), ["max |combined - exact|"],
                     id="01", marks=_IDENTITY),
        # the matched normal form's xi 1% high
        pytest.param(check_cfu_engine, stphase, "cfu_match",
                     lambda f: lambda *a: dataclasses.replace(f(*a), xi=1.01 * f(*a).xi),
                     ["rel deviation"], id="06", marks=_IDENTITY),
    ],
)
def test_criterion_fails_on_a_perturbed_producer(
    monkeypatch, check, owner, name, perturb, failing
):
    # the producer is replaced where it is defined and where cli imported it
    changed = perturb(getattr(owner, name))
    for module in {owner, cli}:
        if hasattr(module, name):
            monkeypatch.setattr(module, name, changed)
    result = check()
    assert not result.passed
    assert [leg.name for leg in result.legs if not leg.passed] == failing


def test_all_criteria_summary(capsys):
    # the validate subcommand aggregates the same checks; it must agree
    from foldoptics.cli import run_validation

    results = run_validation()
    with capsys.disabled():
        print()
        for r in results:
            report(r)
    assert all(r.passed for r in results)
