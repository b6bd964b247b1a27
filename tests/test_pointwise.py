"""Every public array core is pointwise, bit for bit: a scalar call returns
the element of the array call at that point, and one array call equals the
concatenation of calls on blocks of it."""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

from foldoptics import (
    CausticZoneWarning,
    CfuCoefficients,
    LagrangianCurve,
    LinearLayerParams,
    QuadraturePolicy,
    WaveFunctionSampler,
    airy,
    airy_ai,
    airy_greens,
    airy_inner_approx,
    airy_wkb_branches,
    airy_wkb_field,
    cfu_eval,
    combined_wkb_wigner,
    k_integral_amplitude,
    kl_amplitudes,
    kl_coordinates,
    kl_field,
    linear_layer_phases,
    semiclassical_wigner_uniform,
    wigner_exact_airy,
    wigner_numeric,
)

_N = 2000
_RNG = np.random.default_rng(20261020)
_LAYER = LinearLayerParams(mu0=1.0, mu1=1.0, h=0.0, psi=0.6)
# a convex quartic, not a parabola, so that Newton iterates to its chords
_QUARTIC = LagrangianCurve(X=lambda p: p * p * (1.0 + 0.25 * p * p), X1=lambda p: p * (2.0 + p * p),
                           X2=lambda p: 2.0 + 3.0 * p * p, rho=lambda p: 1.0 / np.sqrt(1.0 + p * p))


def _uniform(lo, hi, n=_N):
    return _RNG.uniform(lo, hi, n)


def _complex(n=_N):
    return _RNG.normal(size=n) + 1j * _RNG.normal(size=n)


# both tails, alternating and in order of |z|, so that the blocks below
# differ in their smallest zeta, which once set the term count of a call
_TAILS = np.stack([np.sort(_uniform(7.81, 40.0, 3000)),
                   -np.sort(_uniform(7.81, 40.0, 3000))], axis=1).ravel()
_MIXED = _uniform(-40.0, 40.0)
_GAP = _uniform(0.0, 5.0)
_S_MINUS = _uniform(-3.0, 3.0)

# name: (core of the array arguments, the arguments)
_CORES = {
    "airy-tails": (airy, (_TAILS,)),
    "airy-mixed": (airy, (_MIXED,)),
    "airy_ai-tails": (airy_ai, (_TAILS,)),
    "airy_ai-mixed": (airy_ai, (_MIXED,)),
    "airy_wkb_field": (lambda x: airy_wkb_field(x, 0.025, 2.0), (_uniform(1e-3, 2.0),)),
    # ((S+, S-), (A+, A-)) as four parts
    "airy_wkb_branches": (lambda x: sum(airy_wkb_branches(x, 2.0), ()), (_uniform(1e-3, 2.0),)),
    "airy_greens": (lambda x: airy_greens(x, 2.0, 0.05), (_uniform(-1.0, 4.0),)),
    "airy_inner_approx": (lambda x: airy_inner_approx(x, 2.0, 0.05), (_uniform(-1.0, 4.0),)),
    "linear_layer_phases": (lambda y, z: linear_layer_phases(y, z, _LAYER),
                            (_uniform(-2.0, 2.0), _uniform(-0.6, 0.0))),
    "kl_coordinates": (kl_coordinates, (_S_MINUS + _GAP, _S_MINUS)),
    "kl_amplitudes": (kl_amplitudes, (_complex(), _complex(), _uniform(0.0, 3.0))),
    "kl_field": (lambda phi, rho, g0, g1: kl_field(phi, rho, g0, g1, 0.025),
                 (_uniform(-3.0, 3.0), _uniform(0.0, 3.0), _complex(), _complex())),
    "cfu_eval": (lambda phi0, xi, a0, b0, lam: cfu_eval(CfuCoefficients(phi0, xi, a0, b0), lam),
                 (_uniform(-3.0, 3.0), _uniform(-2.0, 3.0), _complex(), _complex(),
                  _uniform(1.0, 60.0))),
    "wigner_exact_airy": (lambda x, k: wigner_exact_airy(x, k, 0.05, 2.0),
                          (_uniform(-1.0, 3.0), _uniform(-2.0, 2.0))),
    "combined_wkb_wigner": (lambda x, k: combined_wkb_wigner(x, k, 0.05, 2.0),
                            (_uniform(-1.0, 3.0), _uniform(-2.0, 2.0))),
    "semiclassical_wigner_uniform": (lambda x, k: semiclassical_wigner_uniform(_QUARTIC, x, k, 0.05),
                                     (_uniform(-0.5, 3.0), _uniform(-1.5, 1.5))),
    "k_integral_amplitude": (lambda x: k_integral_amplitude(x, 0.05, 2.0), (_uniform(-1.0, 3.0),)),
}


def _parts(out):
    """The output's components as arrays: a tuple, the four rows of airy,
    or a single value."""
    if dataclasses.is_dataclass(out):
        out = dataclasses.astuple(out)
    return [np.asarray(part) for part in (out if isinstance(out, tuple) else (out,))]


def _call(core, args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CausticZoneWarning)
        return _parts(core(*args))


@pytest.mark.parametrize("name", list(_CORES))
def test_scalar_call_returns_the_array_element(name):
    core, args = _CORES[name]
    whole = _call(core, args)
    for i in range(0, args[0].size, 10):
        point = _call(core, [a[i].item() for a in args])
        assert [p.shape for p in point] == [()] * len(whole)
        assert [p.tobytes() for p in point] == [w[i].tobytes() for w in whole], i


@pytest.mark.parametrize("name", list(_CORES))
def test_array_call_equals_calls_on_uneven_blocks(name):
    core, args = _CORES[name]
    whole = _call(core, args)
    cuts = (args[0].size // 100, args[0].size // 3 + 7)
    blocks = [_call(core, [a[lo:hi] for a in args]) for lo, hi in zip((0, *cuts), (*cuts, None))]
    for row, w in enumerate(whole):
        assert np.concatenate([b[row] for b in blocks]).tobytes() == w.tobytes()


def test_wigner_numeric_rows_equal_calls_on_row_blocks():
    # the default export's grid: its sampler reaches both Airy tails, so
    # row blocks keep the bits only with an elementwise kernel
    xs, ks = np.linspace(0.1, 1.9, 64), np.linspace(-1.6, 1.6, 64)
    psi = WaveFunctionSampler(lambda u: airy_inner_approx(u, 2.0, 0.05), (-2.4, 4.9), 0.05)
    policy = QuadraturePolicy(2048)
    whole = wigner_numeric(psi, xs, ks, policy).values
    for rows in (1, 7):
        blocks = [wigner_numeric(psi, xs[i:i + rows], ks, policy).values for i in range(0, 64, rows)]
        assert np.concatenate(blocks).tobytes() == whole.tobytes()
