from __future__ import annotations

import math
import warnings
from functools import partial

import numpy as np
import pytest

from foldoptics import surgery
from foldoptics.rays import RefractionProfile1D, airy_profile, constant_profile
from foldoptics.specfun import airy
from foldoptics.surgery import (
    REGION_TOL,
    NoStationaryPointWarning,
    RegionLabel,
    SingularCurvatureWarning,
    combined_wkb_wigner,
    diagonal_asymptotics,
    k_integral_amplitude,
    offdiagonal_asymptotics,
    stationary_table,
    stationary_wigner_residual,
)
from foldoptics.wigner import PhaseSpaceGrid, wigner_exact_airy, wigner_moment1
from foldoptics.wkb import airy_inner_approx

X0 = 2.0
EPS = 0.05
# branch i's phase F and its sigma-derivatives are these at the sign pair _SIGNS[i - 1]
PHASES = (surgery._phase, surgery._phase_s, surgery._phase_ss)
SIGNS = surgery._SIGNS

RNG_SEED = 20240911

# the table's region codes index this list: 0 Exterior, 1 OnManifold,
# 2 Between, 3 OnConjugate, 4 Interior
REGIONS = list(RegionLabel)


@pytest.mark.parametrize(
    "x,k,label",
    [
        (1.0, 0.8, RegionLabel.BETWEEN),
        (1.0, 1.0, RegionLabel.ON_MANIFOLD),
        (1.0, -1.0, RegionLabel.ON_MANIFOLD),
        (1.0, 0.5, RegionLabel.INTERIOR),
        (1.0, 1.3, RegionLabel.EXTERIOR),
        (1.28, 0.8, RegionLabel.ON_CONJUGATE),
        (0.5, 0.0, RegionLabel.INTERIOR),
    ],
)
def test_classify_region(x, k, label):
    for index in (1, 2, 3, 4):
        assert REGIONS[stationary_table(index, x, k).region] is label


def test_classify_requires_illuminated_zone():
    with pytest.raises(ValueError, match="x > 0"):
        stationary_table(1, 0.0, 0.5)
    with pytest.raises(ValueError):
        stationary_table(3, [1.0, -1.0], 0.5)


def test_phase_values_at_origin():
    x, k = 1.3, 0.4
    f, fs, fss = (g(*SIGNS[0], 0.0, x, k) for g in PHASES)
    assert f == 0.0
    assert fs == pytest.approx(2.0 * math.sqrt(x) - 2.0 * k, rel=1e-15)
    assert fss == 0.0


@pytest.mark.parametrize("idx", [0, 1, 2, 3])
def test_phase_derivatives_consistent(idx):
    rng = np.random.default_rng(RNG_SEED + idx)
    h = 1e-6
    for _ in range(20):
        x = rng.uniform(0.5, 3.0)
        k = rng.uniform(-1.5, 1.5)
        sigma = rng.uniform(-0.4, 0.4) * x
        f_p, f_m, f_0 = ([g(*SIGNS[idx], s, x, k) for g in PHASES]
                         for s in (sigma + h, sigma - h, sigma))
        assert (f_p[0] - f_m[0]) / (2 * h) == pytest.approx(f_0[1], rel=1e-7, abs=1e-7)
        assert (f_p[1] - f_m[1]) / (2 * h) == pytest.approx(f_0[2], rel=1e-6, abs=1e-6)


def test_mirror_phase_relations():
    rng = np.random.default_rng(RNG_SEED)
    f1, f2, f3, f4 = (partial(surgery._phase, *signs) for signs in SIGNS)
    for _ in range(25):
        x = rng.uniform(0.3, 3.0)
        k = rng.uniform(-1.5, 1.5)
        sigma = rng.uniform(-0.9, 0.9) * x
        assert f2(sigma, x, k) == pytest.approx(-f1(sigma, x, -k), rel=1e-14, abs=1e-14)
        assert f4(sigma, x, k) == pytest.approx(-f3(sigma, x, -k), rel=1e-14, abs=1e-14)
        # the diagonal phases are odd in sigma
        assert f1(-sigma, x, k) == pytest.approx(-f1(sigma, x, k), rel=1e-13, abs=1e-13)


def test_amplitudes():
    # the diagonal branches' amplitude D(sigma, x)
    x, sigma = 1.4, 0.6
    d = surgery._diagonal_amplitude(sigma, x, X0)
    assert d == pytest.approx(0.25 / math.sqrt(X0) * (x * x - sigma * sigma) ** -0.25)
    # array in, array out
    sigmas, xs = np.array([0.1, 0.2]), np.array([1.0, 1.0])
    got = surgery._diagonal_amplitude(sigmas, xs, X0)
    assert got.shape == (2,)
    np.testing.assert_allclose(
        got, [surgery._diagonal_amplitude(s, x, X0) for s, x in zip(sigmas, xs)], rtol=1e-15
    )


def test_fold_pair_closed_forms():
    # sqrt(x +/- sigma0) telescopes at the fold pair
    x, k = 1.0, 0.8
    sigma0 = 2.0 * k * math.sqrt(x - k * k)
    assert math.sqrt(x + sigma0) + math.sqrt(x - sigma0) == pytest.approx(2.0 * k)
    f0 = surgery._phase(*SIGNS[0], sigma0, x, k)
    assert f0 == pytest.approx((4.0 / 3.0) * (x - k * k) ** 1.5, rel=1e-13)
    fss = surgery._phase_ss(*SIGNS[0], sigma0, x, k)
    assert fss == pytest.approx(-math.sqrt(x - k * k) / (2.0 * k * k - x), rel=1e-12)
    assert x * x - sigma0 * sigma0 == pytest.approx((x - 2.0 * k * k) ** 2, rel=1e-12)


def _cell(table, i=()):
    """(locations, curvatures) of the filled slots of cell i of a table."""
    filled = ~np.isnan(table.locations[i])
    return table.locations[i][filled], table.curvatures[i][filled]


def _multiplicities(curvatures):
    # a curvature of 0 marks the double fold point
    return {"double" if c == 0.0 else "simple" for c in curvatures}


EXPECTED_COUNTS = {
    # (branch index, region) -> (count, all real, multiplicities)
    (1, RegionLabel.EXTERIOR): (2, False, {"simple"}),
    (1, RegionLabel.BETWEEN): (2, True, {"simple"}),
    (1, RegionLabel.INTERIOR): (0, True, set()),
    (3, RegionLabel.EXTERIOR): (0, True, set()),
    (3, RegionLabel.BETWEEN): (0, True, set()),
    (3, RegionLabel.INTERIOR): (1, True, {"simple"}),
    (4, RegionLabel.EXTERIOR): (0, True, set()),
    (4, RegionLabel.BETWEEN): (0, True, set()),
    (4, RegionLabel.INTERIOR): (1, True, {"simple"}),
}


def test_stationary_tables_random_sweep():
    rng = np.random.default_rng(RNG_SEED)
    xs, ks = rng.uniform([0.05, -2.2], [4.0, 2.2], size=(500, 2)).T
    # off the parabolas' tolerance bands, the region is read from x, k^2 and 2 k^2
    kk = ks * ks
    regions = np.where(xs < kk, 0, np.where(xs < 2.0 * kk, 2, 4))
    for index in (1, 2, 3, 4):
        table = stationary_table(index, xs, ks)
        off_curves = np.isin(table.region, (1, 3), invert=True)
        assert np.array_equal(table.region[off_curves], regions[off_curves])
        for i in np.flatnonzero(off_curves):
            x, k, region = xs[i], ks[i], REGIONS[table.region[i]]
            if index in (1, 2):
                sign_ok = k > 0 if index == 1 else k < 0
                key = (1, region)
                count, real, mults = EXPECTED_COUNTS[key] if sign_ok else (0, True, set())
            else:
                count, real, mults = EXPECTED_COUNTS[(index, region)]
            loc, curv = _cell(table, i)
            assert loc.size == count, (index, region)
            assert table.n_real[i] == np.count_nonzero(loc.imag == 0.0)
            assert np.all(loc.imag == 0.0) == real or count == 0
            assert _multiplicities(curv) == mults
            res = surgery._phase_s(*SIGNS[index - 1], loc[loc.imag == 0.0].real, x, k)
            assert np.all(np.abs(res) <= 1e-10 * max(1.0, abs(k) + math.sqrt(x)))


def test_double_point_on_manifold():
    table = stationary_table(1, 1.44, 1.2)
    assert REGIONS[table.region] is RegionLabel.ON_MANIFOLD
    loc, curv = _cell(table)
    assert loc.tolist() == [0j]
    assert _multiplicities(curv) == {"double"}
    assert table.n_real == 1


def test_conjugate_curve_edge_points():
    k = 0.8
    x = 2.0 * k * k
    loc, curv = _cell(stationary_table(1, x, k))
    assert sorted(loc.real) == pytest.approx([-x, x])
    assert set(curv) == {math.inf, -math.inf}
    (cross,), (c,) = _cell(stationary_table(3, x, k))
    assert cross.real == pytest.approx(x)
    assert c == math.inf


def test_cross_branch_curvature_diverges_near_conjugate():
    k = 0.8
    vals = []
    for x in (2.0 * k * k + 0.1, 2.0 * k * k + 0.01, 2.0 * k * k + 0.001):
        _, (c,) = _cell(stationary_table(3, x, k))
        vals.append(c)
        assert c == pytest.approx(math.sqrt(x - k * k) / (x - 2.0 * k * k), rel=1e-9)
    assert vals[0] < vals[1] < vals[2]


def test_imaginary_pair_location():
    x, k = 1.0, 1.3
    table = stationary_table(1, x, k)
    expect = 2.0 * k * math.sqrt(k * k - x)
    loc, _ = _cell(table)
    assert np.all(loc.real == 0.0) and table.n_real == 0
    assert sorted(loc.imag) == pytest.approx([-expect, expect], rel=1e-12)


def test_wrong_sign_k_has_no_points():
    table = stationary_table([1, 2], 1.0, [-0.8, 0.8])
    assert np.isnan(table.locations).all() and np.isnan(table.curvatures).all()
    assert table.n_real.tolist() == [0, 0]


def _parabola_points():
    """(x, k, region code) on x = k^2 and x = 2 k^2, inside their tolerance
    bands and just outside, and at three x off them, for 43 k."""
    xs, ks, codes = [], [], []
    # k = +-1e-3: inside the bands the fold and window-edge points leave
    # gradients above the plain 1e-10 tolerance
    for k in np.append(np.linspace(-2.0, 2.0, 41), (-1e-3, 1e-3)):
        # (curve, code in its band, code above it, code below it); at k = 0 the
        # parabolas meet at x = 0, and the manifold's band comes first
        curves = ((k * k, 1, 2, 0), (2.0 * k * k, 3, 4, 2)) if k else ((0.0, 1, 4, 0),)
        for curve, on, above, below in curves:
            tol = REGION_TOL * max(1.0, curve)
            for off, code in ((0.0, on), (0.5 * tol, on), (-0.5 * tol, on),
                              (2.0 * tol, above), (-2.0 * tol, below)):
                xs.append(curve + off)
                ks.append(k)
                codes.append(code)
        for x in (0.3, 1.7, 3.9):
            xs.append(x)
            ks.append(k)
            codes.append(0 if x < k * k else 2 if x < 2.0 * k * k else 4)
    xs, ks, codes = np.array(xs), np.array(ks), np.array(codes)
    keep = xs > 0.0
    return xs[keep], ks[keep], codes[keep]


def test_array_table_matches_scalar_calls_on_the_parabolas():
    xs, ks, codes = _parabola_points()
    chord = 2.0 * np.abs(ks) * np.sqrt(np.abs(xs - ks * ks))
    for index in (1, 2, 3, 4):
        table = stationary_table(np.full(xs.size, index), xs, ks)
        assert np.array_equal(table.region, codes)
        sign_ok = ks > 0 if index == 1 else ks < 0  # of the diagonal branches
        for i, (x, k) in enumerate(zip(map(float, xs), map(float, ks))):
            scalar = stationary_table(index, x, k)
            assert scalar.region == table.region[i] and scalar.n_real == table.n_real[i]
            np.testing.assert_array_equal(scalar.locations, table.locations[i])
            np.testing.assert_array_equal(scalar.curvatures, table.curvatures[i])
            loc, curv = _cell(table, i)
            region = REGIONS[codes[i]]
            scale = max(1.0, math.sqrt(x) + abs(k))
            if index in (1, 2) and not sign_ok[i]:
                assert loc.size == 0
            elif index in (1, 2) and region is RegionLabel.ON_MANIFOLD:
                assert loc.tolist() == [0j] and _multiplicities(curv) == {"double"}
            elif region is RegionLabel.ON_CONJUGATE:
                # the window-edge pair +-x; on x = 2 k^2 the cross phase
                # F_sigma = +-(sqrt(x + sigma) - sqrt(x - sigma)) - 2k (+ on branch 3)
                # vanishes at sigma = +-sign(k) x
                if index in (1, 2):
                    edge = [-x, x]
                else:
                    edge = [math.copysign(x, k if index == 3 else -k)]
                assert sorted(loc.real) == edge and np.isinf(curv).all()
            elif region in (
                (RegionLabel.EXTERIOR, RegionLabel.BETWEEN) if index in (1, 2)
                else (RegionLabel.INTERIOR,)
            ):
                n = 2 if index in (1, 2) else 1
                assert loc.size == n and _multiplicities(curv) == {"simple"}
                # +-i chord outside the manifold, real points within the window inside it
                if region is RegionLabel.EXTERIOR:
                    size, want, n_real = np.abs(loc.imag), chord[i], 0
                else:
                    size, want, n_real = np.abs(loc.real), min(chord[i], x), n
                # next to the fold, rounding F_sigma by a few spacings moves the
                # root by that over the curvature
                slack = 1e-12 * want + 8.0 * np.spacing(scale) / np.abs(curv)
                assert np.all(np.abs(size - want) <= slack)
                assert table.n_real[i] == n_real
            else:
                assert loc.size == 0
            # simple real points meet the plain tolerance up to the rounding of sigma
            simple = (loc.imag == 0.0) & np.isfinite(curv) & (curv != 0.0)
            sigma, c = loc.real[simple], curv[simple]
            res = np.abs(surgery._phase_s(*SIGNS[index - 1], sigma, x, k))
            assert np.all(res <= 1e-10 * scale + np.abs(c) * np.spacing(np.abs(sigma)))


def _reference_table(index, x, k):
    """stationary_table with every expression of the 11-row table built over
    all cells before np.choose picks one row per cell, and the Newton polish
    and gradient check run over every slot, empty ones included."""
    index, x, k = np.broadcast_arrays(
        np.asarray(index), np.asarray(x, dtype=float), np.asarray(k, dtype=float)
    )
    region = surgery._region_codes(x, k)
    a = np.where((index == 1) | (index == 3), 1.0, -1.0)
    b = np.where((index == 1) | (index == 4), 1.0, -1.0)
    row = np.where(
        index <= 2, np.where(surgery._diagonal_sign_ok(index, k), region, 10), 5 + region
    )
    kk = k * k
    gap = np.where(region == 3, 1.0, 2.0 * kk - x)
    c = np.sqrt(np.abs(x - kk)) / gap
    chord = surgery._half_chord(x, k)
    sigma0 = np.minimum(chord, x)
    edge = a * math.inf
    nan = np.nan
    none = (nan, nan, nan, nan)
    table = (
        (1j * chord, -1j * chord, c, c),  # F1/F2 Exterior: imaginary pair
        (0.0, nan, 0.0, nan),  # F1/F2 OnManifold: double fold point
        (sigma0, -sigma0, -a * c, a * c),  # F1/F2 Between: real pair
        (x, -x, -edge, edge),  # F1/F2 OnConjugate: window-edge pair
        none,  # F1/F2 Interior
        none,  # F3/F4 Exterior
        none,  # F3/F4 OnManifold
        none,  # F3/F4 Between
        (a * np.copysign(x, k), nan, edge, nan),  # F3/F4 OnConjugate
        (a * np.copysign(sigma0, k), nan, -a * c, nan),  # F3/F4 Interior
        none,  # F1/F2 with the wrong sign of k
    )
    slots = [np.choose(row, column) for column in zip(*table)]
    loc = np.stack(slots[:2], axis=-1).astype(complex)
    curv = np.stack(slots[2:], axis=-1)

    a, b, x, k = (v[..., None] for v in (a, b, x, k))
    scale = np.maximum(1.0, np.sqrt(x) + np.abs(k))
    sigma = loc.real
    real = (loc.imag == 0.0) & ~np.isnan(sigma)
    simple = real & np.isfinite(curv) & (curv != 0.0)
    polished = sigma - surgery._phase_s(a, b, sigma, x, k) / np.where(simple, curv, 1.0)
    polish = (
        simple
        & (np.abs(sigma) < x)
        & (np.abs(polished) < x)
        & (np.abs(polished - sigma) < 1e-6 * scale)
    )
    loc = np.where(polish, polished, loc)
    residual = np.abs(surgery._phase_s(a, b, loc, x, k))
    rounding = np.where(simple, np.abs(curv), 0.0) * np.spacing(np.abs(loc.real))
    band = 2.0 * REGION_TOL * np.maximum(1.0, x) / np.select(
        [real & (curv == 0.0), real & np.isinf(curv)],
        [np.sqrt(x) + np.abs(k), np.sqrt(2.0 * x) + 2.0 * np.abs(k)], np.inf,
    )
    assert not np.any(residual > 1e-10 * scale + rounding + band)
    return region, np.count_nonzero(real, axis=-1), loc, curv


def _criterion_draws():
    # criterion 05's draws at its default seed, for the four branches
    rng = np.random.default_rng(RNG_SEED)
    xs = 0.05 + 3.95 * rng.random(10000)
    return np.arange(1, 5)[:, None], xs, rng.uniform(-2.2, 2.2, 10000)


def _parabola_and_fold_points():
    xs, ks, _ = _parabola_points()
    # the fold point x = k = 0, approached inside the manifold's band
    xs = np.append(xs, (0.5 * REGION_TOL, REGION_TOL, 1e-300))
    ks = np.append(ks, (0.0, 0.0, 0.0))
    return np.arange(1, 5)[:, None], xs, ks


def _export_grid():
    # the wigner export's default grid, and the branch it tabulates per k
    xs, ks = np.linspace(0.1, 1.9, 64), np.linspace(-1.6, 1.6, 64)
    return np.where(ks >= 0.0, 1, 2), xs[:, None], ks[None, :]


def _float_branch_index():
    # branch indices given as floats select the same sign pairs
    index, xs, ks = _export_grid()
    return index.astype(float), xs, ks


@pytest.mark.parametrize(
    "inputs", [_criterion_draws, _parabola_and_fold_points, _export_grid, _float_branch_index],
    ids=["criterion-draws", "parabolas-and-fold", "export-grid", "float-branch-index"],
)
def test_table_equals_the_np_choose_reference_bit_for_bit(inputs):
    index, xs, ks = inputs()
    got = stationary_table(index, xs, ks)
    want = _reference_table(index, xs, ks)
    for name, w in zip(("region", "n_real", "locations", "curvatures"), want):
        g = getattr(got, name)
        assert g.dtype == w.dtype and g.shape == w.shape, name
        # the bytes: NaN equals NaN, and 0.0 differs from -0.0
        assert np.ascontiguousarray(g).tobytes() == np.ascontiguousarray(w).tobytes(), name


# a representative cell (branch, x, k) of each row of surgery._ROWS, per branch of its pair
_ROW_CELLS = (
    ((1, 1.0, 1.3), (2, 1.0, -1.3)),  # F1/F2 Exterior
    ((1, 1.0, 1.0), (2, 1.0, -1.0)),  # F1/F2 OnManifold
    ((1, 1.0, 0.8), (2, 1.0, -0.8)),  # F1/F2 Between
    ((1, 1.28, 0.8), (2, 1.28, -0.8)),  # F1/F2 OnConjugate
    ((1, 1.0, 0.5), (2, 1.0, -0.5)),  # F1/F2 Interior
    ((3, 1.0, 1.3), (4, 1.0, -1.3)),  # F3/F4 Exterior
    ((3, 1.0, 1.0), (4, 1.0, -1.0)),  # F3/F4 OnManifold
    ((3, 1.0, 0.8), (4, 1.0, -0.8)),  # F3/F4 Between
    ((3, 1.28, 0.8), (4, 1.28, -0.8)),  # F3/F4 OnConjugate
    ((3, 1.0, 0.5), (4, 1.0, -0.5)),  # F3/F4 Interior
    ((1, 1.0, -0.8), (2, 1.0, 0.8), (1, 1e-300, 0.0), (1, 0.5, 0.0)),  # wrong sign of k
)


def test_each_row_counts_the_real_points_its_function_returns():
    # the count the wigner export writes cannot drift from the row's points
    assert len(_ROW_CELLS) == len(surgery._ROWS) == len(surgery._N_REAL)
    for row, cells in enumerate(_ROW_CELLS):
        count, points = surgery._ROWS[row]
        assert surgery._N_REAL[row] == count
        for index, x, k in cells:
            x, k = np.array(x), np.array(k)
            assert surgery._row_codes(index, k, surgery._region_codes(x, k)) == row
            a = 1.0 if index in (1, 3) else -1.0
            slots = np.array(points(a, x, k)[:2] if points else (), dtype=complex)
            real = ~np.isnan(slots) & (slots.imag == 0.0)
            assert np.count_nonzero(real) == count == stationary_table(index, x, k).n_real


def test_table_evaluates_rows_on_their_cells_and_checks_occupied_slots(monkeypatch):
    index, xs, ks = _criterion_draws()
    table = stationary_table(index, xs, ks)
    occupied = np.count_nonzero(~np.isnan(table.locations))
    # the cells of the rows that take the chord: F1/F2 Exterior and Between,
    # F3/F4 Interior (on the right sign of k for F1/F2)
    sign_ok = np.where(index == 1, ks > 0.0, np.where(index == 2, ks < 0.0, True))
    chord_rows = np.where(index <= 2, np.isin(table.region, (0, 2)), table.region == 4)
    calls = {"_half_chord": [], "_phase_s": []}
    for name in calls:
        def counting(*args, f=getattr(surgery, name), sizes=calls[name]):
            out = f(*args)
            sizes.append(out.size)
            return out
        monkeypatch.setattr(surgery, name, counting)
    stationary_table(index, xs, ks)
    assert sum(calls["_half_chord"]) == np.count_nonzero(chord_rows & sign_ok)
    # one Newton polish and one residual, each over the occupied slots only
    assert calls["_phase_s"] == [occupied, occupied]
    assert occupied < 0.3 * 2 * index.size * xs.size


# a criterion 05 draw of `validate --seed 1514489336`: x - 2 k^2 = 2.1e-8
# puts sigma_s two doubles below the window edge x, where |F_sigmasigma| is
# about 3e7
EDGE_DRAW = (0.9450085363356805, 0.6873894511528946)


@pytest.mark.parametrize("idx", [2, 3])
def test_interior_point_at_the_window_edge_passes(idx):
    x, k = EDGE_DRAW
    (loc,), (c,) = _cell(stationary_table(idx + 1, x, k))
    sigma = loc.real
    assert 0.0 < x - abs(sigma) <= 2.0 * np.spacing(x)
    # rounding sigma alone leaves more than the plain tolerance ...
    residual = abs(surgery._phase_s(*SIGNS[idx], sigma, x, k))
    scale = max(1.0, math.sqrt(x) + abs(k))
    assert residual > 1e-10 * scale
    # ... and no more than the curvature times one spacing of sigma
    rounding = abs(c) * np.spacing(abs(sigma))
    assert residual <= 1e-10 * scale + rounding


@pytest.mark.parametrize("shift", [-1e-9, 1e-9])
def test_interior_point_off_the_window_edge_fails(monkeypatch, shift):
    x, k = EDGE_DRAW
    scale = max(1.0, math.sqrt(x) + abs(k))
    half_chord = surgery._half_chord
    monkeypatch.setattr(
        surgery, "_half_chord", lambda x, k: half_chord(x, k) + shift * scale
    )
    with pytest.raises(RuntimeError, match="branch 3 fails the gradient check"):
        stationary_table(3, x, k)
    # of several failing points, the first in broadcast order is named
    with pytest.raises(RuntimeError, match="branch 4 fails the gradient check"):
        stationary_table([[4], [3]], x, [k, k])


# a Between cell with 2 k^2 - x = 1.6e-8, far outside the OnConjugate band:
# the clamp min(2|k| sqrt(x - k^2), x) rounds sigma0 onto the window edge x,
# 1.2 doubles above the root, and the Newton polish needs |sigma| < x
BETWEEN_EDGE_CELL = (0.9498410655537542, 0.6891447894597181)


@pytest.mark.xfail(strict=True, raises=RuntimeError,
                   reason="the clamped Between pair is refused next to x = 2k^2")
def test_between_point_next_to_the_conjugate_parabola_passes():
    x, k = BETWEEN_EDGE_CELL
    table = stationary_table([1, 2], x, [k, -k])
    assert np.all(table.region == 2) and np.all(table.n_real == 2)


@pytest.mark.parametrize(
    "x,k", [(1.0, 0.8), (1.5, 0.95), (0.8, 0.7), (1.0, 0.72), (2.5, 1.2)]
)
def test_diagonal_between_matches_closed_form(x, k):
    got = diagonal_asymptotics(1, x, k, EPS, X0)
    expect = wigner_exact_airy(x, k, EPS, X0)
    assert got == pytest.approx(expect, rel=1e-12)


def test_diagonal_on_and_outside_manifold():
    assert diagonal_asymptotics(1, 1.0, 1.0, EPS, X0) == pytest.approx(
        wigner_exact_airy(1.0, 1.0, EPS, X0), rel=1e-13
    )
    assert diagonal_asymptotics(1, 1.0, 1.2, EPS, X0) == pytest.approx(
        wigner_exact_airy(1.0, 1.2, EPS, X0), rel=1e-13
    )


def test_diagonal_mirror_symmetry():
    for (x, k) in [(1.0, 0.8), (1.2, 0.9)]:
        assert diagonal_asymptotics(1, x, k, EPS, X0) == diagonal_asymptotics(
            2, x, -k, EPS, X0
        )


def test_diagonal_wrong_sign_flags_and_vanishes():
    with pytest.warns(NoStationaryPointWarning):
        assert diagonal_asymptotics(1, 1.0, -0.8, EPS, X0) == 0.0
    with pytest.warns(NoStationaryPointWarning):
        assert diagonal_asymptotics(2, 1.0, 0.8, EPS, X0) == 0.0


def test_diagonal_domain_errors():
    with pytest.raises(ValueError, match="indices 1 and 2"):
        diagonal_asymptotics(3, 1.0, 0.8, EPS, X0)
    with pytest.raises(ValueError, match="conjugate"):
        diagonal_asymptotics(1, 1.0, 0.5, EPS, X0)
    with pytest.raises(ValueError):
        diagonal_asymptotics(1, 1.0, 0.8, -EPS, X0)


def test_offdiagonal_conjugate_pair_interior():
    w3 = offdiagonal_asymptotics(3, 1.5, 0.3, EPS, X0)
    w4 = offdiagonal_asymptotics(4, 1.5, 0.3, EPS, X0)
    assert w4 == pytest.approx(w3.conjugate(), rel=1e-14)
    assert abs(w3) == pytest.approx(
        2.0**-1.5 / math.sqrt(math.pi * EPS * X0) * (1.5 - 0.09) ** -0.25, rel=1e-13
    )


def test_offdiagonal_sum_is_oscillatory_tail_of_airy_form():
    # deep in the interior the Airy profile reduces to its cosine
    # asymptote, which is exactly the cross-term sum
    for (x, k) in [(1.5, 0.3), (1.8, 0.0), (1.2, -0.4)]:
        tot = (
            offdiagonal_asymptotics(3, x, k, EPS, X0)
            + offdiagonal_asymptotics(4, x, k, EPS, X0)
        )
        assert tot.imag == pytest.approx(0.0, abs=1e-15)
        exact = wigner_exact_airy(x, k, EPS, X0)
        assert tot.real == pytest.approx(exact, rel=5e-3)


def test_offdiagonal_exterior_pair_cancels():
    w3 = offdiagonal_asymptotics(3, 1.0, 1.3, EPS, X0)
    w4 = offdiagonal_asymptotics(4, 1.0, 1.3, EPS, X0)
    assert w3 + w4 == 0j
    assert w3.real > 0.0
    assert w3.imag == 0.0


def test_offdiagonal_quiet_between():
    assert offdiagonal_asymptotics(3, 1.0, 0.8, EPS, X0) == 0j
    assert offdiagonal_asymptotics(4, 1.0, 0.8, EPS, X0) == 0j
    assert offdiagonal_asymptotics(3, 1.0, 1.0, EPS, X0) == 0j


def test_offdiagonal_conjugate_curve_warns():
    k = 0.8
    with pytest.warns(SingularCurvatureWarning):
        v = offdiagonal_asymptotics(3, 2.0 * k * k, k, EPS, X0)
    assert np.isfinite(v.real) and np.isfinite(v.imag)


# peak of the exact transform: Ai is largest, 0.53566..., at -1.01879...
PEAK = 0.5 / math.sqrt(X0) * (2.0 / EPS) ** (2.0 / 3.0) * airy(-1.018792971647471).ai


def _asymptotics_draws():
    rng = np.random.default_rng(RNG_SEED)
    return rng.uniform(0.2, 1.9, 1500), rng.uniform(-1.6, 1.6, 1500)


@pytest.mark.parametrize("index", [1, 2, 3, 4])
def test_array_asymptotics_match_scalar_calls(index):
    xs, ks = _asymptotics_draws()
    if index in (1, 2):
        # the diagonal forms hold strictly outside the conjugate parabola
        outside = stationary_table(index, xs, ks).region < 3
        xs, ks = xs[outside], ks[outside]
        asymptotics = diagonal_asymptotics
    else:
        asymptotics = offdiagonal_asymptotics
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NoStationaryPointWarning)
        got = asymptotics(index, xs, ks, EPS, X0)
        want = [asymptotics(index, float(x), float(k), EPS, X0) for x, k in zip(xs, ks)]
    assert got.shape == xs.shape
    assert np.max(np.abs(got - np.array(want))) <= 1e-13 * PEAK


def test_diagonal_between_cells_match_exact_transform():
    xs, ks = _asymptotics_draws()
    between = stationary_table(1, xs, ks).region == 2
    xs, ks = xs[between], ks[between]
    # branch 1 carries k > 0, branch 2 k < 0
    got = diagonal_asymptotics(np.where(ks > 0.0, 1, 2), xs, ks, EPS, X0)
    err = np.abs(got - wigner_exact_airy(xs, ks, EPS, X0)) / PEAK
    # next to x = 2 k^2 the pair sits at sigma0 ~ x - (2k^2 - x)^2/(2x), so
    # rounding sigma0 to a double perturbs x - sigma0, and with it the
    # amplitudes and curvatures, by up to 1e-8 relative: one draw with
    # 2k^2 - x = 1.5e-4 is off by 2.6e-10 of the peak
    near = 2.0 * ks**2 - xs < 1e-2
    assert np.max(err[~near]) <= 4e-12
    assert np.max(err[near]) <= 1e-9


def test_diagonal_array_zeroes_only_its_wrong_sign_cell():
    xs, ks = np.array([1.0, 1.0, 1.0]), np.array([0.8, -0.8, 1.2])
    with pytest.warns(NoStationaryPointWarning) as record:
        got = diagonal_asymptotics(1, xs, ks, EPS, X0)
    assert len(record) == 1
    assert got[1] == 0.0
    for i in (0, 2):
        assert got[i] != 0.0
        assert got[i] == pytest.approx(diagonal_asymptotics(1, xs[i], ks[i], EPS, X0))


def test_diagonal_array_with_an_interior_cell_raises():
    with pytest.raises(ValueError, match="conjugate"):
        diagonal_asymptotics(1, [1.0, 1.0, 1.0], [0.8, 0.5, 1.2], EPS, X0)


def test_offdiagonal_array_warns_once_for_its_conjugate_cells():
    k = np.array([0.8, 0.9, 0.3, 1.3])
    x = np.array([2.0 * 0.8**2, 2.0 * 0.9**2, 1.5, 1.0])
    with pytest.warns(SingularCurvatureWarning) as record:
        got = offdiagonal_asymptotics(3, x, k, EPS, X0)
    assert len(record) == 1
    assert np.all(np.isfinite(got))
    assert got[2] == offdiagonal_asymptotics(3, 1.5, 0.3, EPS, X0)
    assert got[3] == offdiagonal_asymptotics(3, 1.0, 1.3, EPS, X0)


def test_combined_equals_exact_transform():
    xs = np.linspace(0.05, 1.9, 120)
    ks = np.linspace(-1.6, 1.6, 120)
    got = combined_wkb_wigner(xs[:, None], ks[None, :], EPS, X0)
    expect = wigner_exact_airy(xs[:, None], ks[None, :], EPS, X0)
    assert np.max(np.abs(got - expect)) <= 1e-12
    assert got.shape == (120, 120)


def test_combined_finite_on_caustic():
    v = combined_wkb_wigner(1e-12, 0.0, EPS, X0)
    assert v == pytest.approx(
        0.5 / math.sqrt(X0) * (2.0 / EPS) ** (2.0 / 3.0) * airy(0.0).ai, rel=1e-9
    )


def test_combined_shadow_extension():
    v = combined_wkb_wigner(-0.5, 0.0, EPS, X0)
    on_manifold = combined_wkb_wigner(0.5, math.sqrt(0.5), EPS, X0)
    assert 0.0 < v < 1e-3 * on_manifold


def test_weak_limit_concentrates_on_manifold():
    def q(x, k):
        return np.exp(-((x - 1.0) ** 2) / 0.08 - ((k - 0.9) ** 2) / 0.05)

    kk = np.linspace(-0.2, 2.0, 20001)
    ref = np.trapezoid(q(kk**2, kk), kk) / (2.0 * math.sqrt(X0))
    errs = []
    for eps in (0.04, 0.02, 0.01):
        xs = np.linspace(0.05, 2.4, 900)
        ks = np.linspace(-0.2, 2.0, 900)
        w = combined_wkb_wigner(xs[:, None], ks[None, :], eps, X0)
        val = np.trapezoid(
            np.trapezoid(w * q(xs[:, None], ks[None, :]), ks, axis=1), xs
        )
        errs.append(abs(val - ref) / ref)
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3


def test_k_moment_closed_form():
    for x in (0.2, 0.7, 1.5):
        got = k_integral_amplitude(x, 0.1, X0)
        expect = (
            math.pi * 0.1 ** (-1.0 / 3.0) / math.sqrt(X0) * airy(-(0.1 ** (-2.0 / 3.0)) * x).ai ** 2
        )
        assert got == pytest.approx(expect, rel=1e-13)
        assert got == pytest.approx(abs(airy_inner_approx(x, X0, 0.1)) ** 2, rel=1e-12)


def test_k_moment_caustic_value():
    got = k_integral_amplitude(0.0, 0.1, X0)
    assert got == pytest.approx(
        math.pi / math.sqrt(X0) * 0.1 ** (-1.0 / 3.0) * airy(0.0).ai ** 2, rel=1e-13
    )


def test_k_moment_quadrature_cross_check():
    for x in (0.2, 0.8, 1.5):
        closed = k_integral_amplitude(x, 0.1, X0)
        ks = np.linspace(-3.0, 3.0, 1201)
        numeric = float(np.trapezoid(combined_wkb_wigner(x, ks, 0.1, X0), ks))
        assert abs(numeric - closed) <= 1e-4 * abs(closed)


def test_flux_moment_vanishes():
    xs, ks = np.array([0.2, 0.8, 1.5]), np.linspace(-3.0, 3.0, 1201)
    g = PhaseSpaceGrid(xs, ks, combined_wkb_wigner(xs[:, None], ks, 0.1, X0), 0.1)
    assert np.max(np.abs(wigner_moment1(g))) <= 1e-10


def _airy_grid(n, eps=0.1):
    xs = np.linspace(0.3, 1.7, n)
    ks = np.linspace(-1.2, 1.2, n)
    w = wigner_exact_airy(xs[:, None], ks[None, :], eps, X0)
    return PhaseSpaceGrid(xs, ks, w, eps)


def test_liouville_annihilates_transported_profiles():
    errs = [
        np.max(np.abs(stationary_wigner_residual(airy_profile(), _airy_grid(n)).values))
        for n in (101, 201, 401)
    ]
    assert math.log2(errs[0] / errs[1]) > 1.7
    assert math.log2(errs[1] / errs[2]) > 1.7

    xs = np.linspace(0.3, 1.7, 201)
    ks = np.linspace(-1.2, 1.2, 201)
    smooth = np.exp(-((xs[:, None] - ks[None, :] ** 2) ** 2))
    res = stationary_wigner_residual(airy_profile(), PhaseSpaceGrid(xs, ks, smooth, 0.1))
    assert np.max(np.abs(res.values)) < 1e-3


@pytest.mark.parametrize("n", [101, 201, 401])
def test_residual_stencil_is_np_gradient_bit_for_bit(n):
    # criterion 09's grids: linspace's spacings differ in their last bits, so
    # np.gradient takes its uneven-spacing formula, which the residual writes
    # out; with it, slabs of rows with a halo row give the whole grid's bits
    g = _airy_grid(n)
    assert np.any(np.diff(g.xs) != np.diff(g.xs)[0])
    fx = np.gradient(g.values, g.xs, axis=0)[1:-1, 1:-1]
    fk = np.gradient(g.values, g.ks, axis=1)[1:-1, 1:-1]
    assert surgery._central_difference(g.values[:, 1:-1], g.xs).tobytes() == fx.tobytes()
    assert surgery._central_difference(g.values[1:-1].T, g.ks).T.tobytes() == fk.tobytes()
    whole = stationary_wigner_residual(airy_profile(), g).values
    slabs = [stationary_wigner_residual(
        airy_profile(), PhaseSpaceGrid(g.xs[i:i + 50], g.ks, g.values[i:i + 50], g.epsilon)).values
        for i in range(0, n - 2, 48)]
    assert np.concatenate(slabs).tobytes() == whole.tobytes()


def test_residual_stencil_matches_np_gradient_on_an_even_grid():
    # equal spacings send np.gradient to its even-spacing formula
    xs = 0.125 * np.arange(-12.0, 13.0)
    f = np.sin(xs)[:, None] * np.cos(2.0 * xs)[None, :] + xs[:, None] ** 3
    for axis, got in ((0, surgery._central_difference(f[:, 1:-1], xs)),
                      (1, surgery._central_difference(f[1:-1].T, xs).T)):
        want = np.gradient(f, xs, axis=axis)[1:-1, 1:-1]
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_liouville_counterexample():
    xs = np.linspace(0.3, 1.7, 21)
    ks = np.linspace(-1.0, 1.0, 21)
    g = PhaseSpaceGrid(xs, ks, xs[:, None] * ks[None, :], 0.1)
    res = stationary_wigner_residual(airy_profile(), g)
    expect = ks[None, 1:-1] ** 2 + xs[1:-1, None] / 2.0
    assert np.allclose(res.values, expect, rtol=0, atol=1e-12)
    assert res.xs.shape == (19,) and res.ks.shape == (19,)


def test_liouville_needs_stencil_room():
    g = PhaseSpaceGrid(np.array([0.5, 0.6]), np.linspace(-1, 1, 5), np.zeros((2, 5)), 0.1)
    with pytest.raises(ValueError, match="3 points"):
        stationary_wigner_residual(airy_profile(), g)


def test_stationary_equation_constant_medium():
    xs = np.linspace(0.3, 1.7, 41)
    ks = np.linspace(-1.0, 1.0, 41)
    vals = np.tile(np.exp(-(ks**2)), (41, 1))
    g = PhaseSpaceGrid(xs, ks, vals, 0.1)
    res = stationary_wigner_residual(constant_profile(1.0), g)
    assert np.max(np.abs(res.values)) < 1e-14


def test_stationary_equation_accepts_quadratic_profile():
    prof = RefractionProfile1D(
        lambda x: 1.0 + 0.3 * x + 0.1 * x * x,
        lambda x: 0.3 + 0.2 * x,
    )
    g = _airy_grid(41)
    res = stationary_wigner_residual(prof, g)
    assert res.values.shape == (39, 39)


def test_stationary_equation_rejects_cubic_profile():
    prof = RefractionProfile1D(
        lambda x: 1.0 + x**3,
        lambda x: 3.0 * x * x,
    )
    with pytest.raises(ValueError, match="unsupported profile"):
        stationary_wigner_residual(prof, _airy_grid(41))
