"""Command-line front end: deterministic experiment runs and validation.

Subcommands
-----------
rays      ray fans with Jacobians, plus located caustic points
field     WKB, uniform-Airy and fundamental-solution fields on an x-grid
wigner    exact, combined, numeric and semiclassical Wigner grids
validate  runs the validation suite and writes a JSON report

Configuration is a plain key=value file (``--config``), overridden key by
key with command-line flags.  Data files for identical configurations are
byte-identical; every data file is listed in a JSON manifest with its
sha256 checksum.  Exit codes: 0 success, 1 validation failure, 2 usage
error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import brentq

from . import __version__
from .kl import kl_amplitudes, kl_coordinates, kl_field
from .rays import (
    LinearLayerParams,
    airy_profile,
    airy_ray_closed,
    find_caustic,
    integrate_hamiltonian,
    linear_layer_caustic_depth,
    linear_layer_jacobian,
    linear_layer_momentum,
    linear_layer_ray,
)
from .specfun import airy
from .stphase import CfuCoefficients, cfu_eval
from .surgery import (
    classify_region,
    combined_wkb_wigner,
    k_integral_flux,
    liouville_residual,
    stationary_points,
    wigner_branches,
)
from .wigner import (
    PhaseSpaceGrid,
    QuadraturePolicy,
    SmoothPhase,
    WaveFunctionSampler,
    semiclassical_wigner_uniform,
    wigner_exact_airy,
    wigner_numeric,
)
from .wkb import (
    airy_greens,
    airy_inner_approx,
    airy_wkb_branches,
    airy_wkb_field,
    linear_layer_phases,
)

__all__ = [
    "ConfigError",
    "RunConfig",
    "CriterionResult",
    "run_validation",
    "main",
]

_SCENARIOS = ("airy", "linear_layer")
_FORMATS = ("csv", "json")

_FLOAT_KEYS = (
    "epsilon",
    "x0",
    "xmin",
    "xmax",
    "kmin",
    "kmax",
    "tmin",
    "tmax",
    "taper_fraction",
    "mu0",
    "mu1",
    "h",
    "psi",
)
_INT_KEYS = ("nx", "nk", "nt", "sigma_samples", "seed")
_STR_KEYS = ("scenario", "out")


class ConfigError(Exception):
    """A configuration problem attributable to one field."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


@dataclass
class RunConfig:
    """One run's parameters; every key can come from file or flag."""

    scenario: str = "airy"
    epsilon: float = 0.05
    x0: float = 2.0
    xmin: float = 0.1
    xmax: float = 1.9
    nx: int = 64
    kmin: float = -1.6
    kmax: float = 1.6
    nk: int = 64
    tmin: float = 0.0
    tmax: Optional[float] = None
    nt: int = 128
    sigma_samples: int = 2048
    taper_fraction: float = 0.125
    mu0: float = 1.0
    mu1: float = 2.0
    h: float = 1.0
    psi: float = 0.35
    out: str = "runs"
    formats: Tuple[str, ...] = ("csv",)
    seed: int = 20240911

    def validate(self) -> None:
        if self.scenario not in _SCENARIOS:
            raise ConfigError(
                "scenario", f"must be one of {', '.join(_SCENARIOS)}"
            )
        if not self.epsilon > 0:
            raise ConfigError("epsilon", "must be positive")
        if not self.x0 > 0:
            raise ConfigError("x0", "must be positive")
        for name in ("nx", "nk", "nt", "sigma_samples"):
            if getattr(self, name) < 8:
                raise ConfigError(name, "grid counts must be at least 8")
        if not self.xmin < self.xmax:
            raise ConfigError("xmin", "bounds must satisfy xmin < xmax")
        if not self.kmin < self.kmax:
            raise ConfigError("kmin", "bounds must satisfy kmin < kmax")
        if self.tmax is not None and not self.tmin < self.tmax:
            raise ConfigError("tmin", "bounds must satisfy tmin < tmax")
        if not 0.0 < self.taper_fraction < 0.5:
            raise ConfigError("taper_fraction", "must lie in (0, 0.5)")
        if not self.mu1 > 0:
            raise ConfigError("mu1", "must be positive")
        if not self.h > 0:
            raise ConfigError("h", "must be positive")
        if self.mu0 < 0:
            raise ConfigError("mu0", "must be nonnegative")
        if not 0.0 <= self.psi < 0.5 * math.pi:
            raise ConfigError("psi", "incidence angle must lie in [0, pi/2)")
        if self.seed < 0:
            raise ConfigError("seed", "must be nonnegative")
        if not self.formats:
            raise ConfigError("format", "at least one output format")
        for fmt in self.formats:
            if fmt not in _FORMATS:
                raise ConfigError(
                    "format", f"unknown format {fmt!r}; choose from csv, json"
                )

    def layer_params(self) -> LinearLayerParams:
        return LinearLayerParams(mu0=self.mu0, mu1=self.mu1, h=self.h, psi=self.psi)


def _convert(key: str, raw: str):
    if key in _FLOAT_KEYS:
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(key, f"expected a number, got {raw!r}") from None
    if key in _INT_KEYS:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(key, f"expected an integer, got {raw!r}") from None
    if key in _STR_KEYS:
        return raw
    if key == "format":
        return tuple(sorted({part.strip() for part in raw.split(",") if part.strip()}))
    raise ConfigError(key, "unknown configuration key")


def load_config_file(path: str) -> Dict[str, object]:
    """Parse a key=value file; '#' starts a comment, blank lines ignored."""
    values: Dict[str, object] = {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as e:
        raise ConfigError("config", f"cannot read {path}: {e.strerror}") from None
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(
                "config", f"{path}:{lineno}: expected key=value, got {text!r}"
            )
        key, raw = (part.strip() for part in text.split("=", 1))
        values["formats" if key == "format" else key] = _convert(key, raw)
    return values


def merge_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the config file, then explicit flags; then validate."""
    cfg = RunConfig()
    if args.config is not None:
        for key, value in load_config_file(args.config).items():
            setattr(cfg, key, value)
    for key in _FLOAT_KEYS + _INT_KEYS + _STR_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            setattr(cfg, key, flag)
    if getattr(args, "format", None) is not None:
        cfg.formats = _convert("format", args.format)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# output plumbing

def _fmt_cell(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _config_echo(cfg: RunConfig) -> Dict[str, object]:
    echo = dataclasses.asdict(cfg)
    echo["formats"] = sorted(cfg.formats)
    return echo


def _write_tables(
    cfg: RunConfig,
    command: str,
    tables: Sequence[Tuple[str, Sequence[str], Sequence[Sequence[object]]]],
    started: float,
    extra: Optional[Dict[str, object]] = None,
) -> None:
    """Write each (name, header, rows) table in the configured formats,
    then the manifest, atomically and last."""
    os.makedirs(cfg.out, exist_ok=True)
    outputs: List[Dict[str, object]] = []
    for name, header, rows in tables:
        if "csv" in cfg.formats:
            path = os.path.join(cfg.out, f"{name}.csv")
            with open(path, "w", encoding="utf-8", newline="") as f:
                writer = csv.writer(f, lineterminator="\n")
                writer.writerow(header)
                for row in rows:
                    writer.writerow([_fmt_cell(v) for v in row])
            outputs.append(_output_entry(cfg.out, f"{name}.csv", len(rows)))
        if "json" in cfg.formats:
            path = os.path.join(cfg.out, f"{name}.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(
                    {"columns": list(header), "rows": [list(r) for r in rows]},
                    f,
                    sort_keys=True,
                )
                f.write("\n")
            outputs.append(_output_entry(cfg.out, f"{name}.json", len(rows)))
    manifest = {
        "command": command,
        "config": _config_echo(cfg),
        "version": __version__,
        "duration_seconds": time.time() - started,
        "outputs": outputs,
    }
    if extra:
        manifest.update(extra)
    _write_json_atomic(os.path.join(cfg.out, f"{command}_manifest.json"), manifest)


def _output_entry(outdir: str, name: str, rows: int) -> Dict[str, object]:
    digest = hashlib.sha256()
    with open(os.path.join(outdir, name), "rb") as f:
        digest.update(f.read())
    return {"path": name, "sha256": digest.hexdigest(), "rows": rows}


def _write_json_atomic(path: str, payload: Dict[str, object]) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(payload, f, sort_keys=True, indent=2)
        f.write("\n")
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# subcommands

def cmd_rays(cfg: RunConfig) -> int:
    started = time.time()
    if cfg.scenario == "airy":
        tmax = cfg.tmax if cfg.tmax is not None else 3.0 * math.sqrt(cfg.x0)
        ts = np.linspace(cfg.tmin, tmax, cfg.nt)
        root = math.sqrt(cfg.x0)
        rows = []
        for ray_id, k0 in (("down", -root), ("up", root)):
            for t in ts:
                x, k = airy_ray_closed(float(t), cfg.x0, k0)
                jac = 1.0 + k0 * float(t) / (2.0 * cfg.x0)
                rows.append((ray_id, float(t), x, k, jac))
        caustic_rows = []
        for ray_id, k0 in (("down", -root), ("up", root)):
            for t, x in find_caustic(airy_profile(), cfg.x0, k0, tmax):
                caustic_rows.append((ray_id, t, x))
        tables = [
            ("rays", ("ray_id", "t", "x", "k", "jacobian"), rows),
            ("caustics", ("ray_id", "t", "x"), caustic_rows),
        ]
    else:
        p = cfg.layer_params()
        chord = 4.0 * p.eta0 * math.cos(p.psi) / p.mu1
        tmax = cfg.tmax if cfg.tmax is not None else chord
        ts = np.linspace(cfg.tmin, tmax, cfg.nt)
        rows = []
        for t in ts:
            y, z = linear_layer_ray(float(t), 0.0, p)
            ky, kz = linear_layer_momentum(float(t), p)
            rows.append(("incident", float(t), y, z, ky, kz, linear_layer_jacobian(float(t), p)))
        t_star = 0.5 * chord
        y_star, z_star = linear_layer_ray(t_star, 0.0, p)
        caustic_rows = [("incident", t_star, y_star, z_star, linear_layer_caustic_depth(p))]
        tables = [
            ("rays", ("ray_id", "t", "y", "z", "ky", "kz", "jacobian"), rows),
            ("caustics", ("ray_id", "t", "y", "z", "caustic_depth"), caustic_rows),
        ]
    _write_tables(cfg, "rays", tables, started)
    return 0


def _airy_kl_callables(x0: float):
    plus, minus = airy_wkb_branches(x0)
    coords = kl_coordinates(plus.S, minus.S)
    amps = kl_amplitudes(plus.A, minus.A, coords.rho)
    return coords, amps


def cmd_field(cfg: RunConfig) -> int:
    started = time.time()
    if cfg.scenario == "airy":
        xs = np.linspace(cfg.xmin, cfg.xmax, cfg.nx)
        coords, amps = _airy_kl_callables(cfg.x0)
        rows = []
        nan = float("nan")
        for x in map(float, xs):
            if 0.0 < x < cfg.x0:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    w = complex(airy_wkb_field(x, cfg.epsilon, cfg.x0))
            else:
                w = complex(nan, nan)
            u_kl = kl_field(coords, amps, cfg.epsilon, x) if x > 0 else complex(nan, nan)
            g = complex(airy_greens(x, cfg.x0, cfg.epsilon))
            inner = complex(airy_inner_approx(x, cfg.x0, cfg.epsilon))
            rows.append(
                (x, w.real, w.imag, u_kl.real, u_kl.imag,
                 g.real, g.imag, inner.real, inner.imag)
            )
        header = (
            "x", "wkb_re", "wkb_im", "kl_re", "kl_im",
            "greens_re", "greens_im", "inner_re", "inner_im",
        )
        tables = [("field", header, rows)]
    else:
        p = cfg.layer_params()
        z_c = linear_layer_caustic_depth(p)
        zs = np.linspace(cfg.xmin, cfg.xmax, cfg.nx)
        rows = []
        nan = float("nan")
        for z in map(float, zs):
            if z_c <= z <= p.h:
                s_plus, s_minus = linear_layer_phases(0.0, z, p)
                phi = 0.5 * (s_plus + s_minus)
                rho = (0.75 * (s_plus - s_minus)) ** (2.0 / 3.0)
            else:
                s_plus = s_minus = phi = rho = nan
            rows.append((z, s_plus, s_minus, phi, rho))
        tables = [("field", ("z", "s_plus", "s_minus", "phi", "rho"), rows)]
    _write_tables(cfg, "field", tables, started)
    return 0


def _plus_branch_phase(x0: float) -> Tuple[SmoothPhase, Callable[[float], complex]]:
    plus, _ = airy_wkb_branches(x0)
    phase = SmoothPhase(
        s=plus.S,
        s1=np.sqrt,
        s2=lambda x: 0.5 / np.sqrt(x),
        s3=lambda x: -0.25 * x ** -1.5,
    )
    return phase, plus.A


def cmd_wigner(cfg: RunConfig) -> int:
    started = time.time()
    if cfg.scenario != "airy":
        raise ConfigError("scenario", "wigner export supports the airy scenario")
    if cfg.xmin <= 0:
        raise ConfigError("xmin", "wigner grids need x > 0 (illuminated side)")
    xs = np.linspace(cfg.xmin, cfg.xmax, cfg.nx)
    ks = np.linspace(cfg.kmin, cfg.kmax, cfg.nk)

    w_exact = wigner_exact_airy(xs[:, None], ks[None, :], cfg.epsilon, cfg.x0)
    w_comb = combined_wkb_wigner(xs[:, None], ks[None, :], cfg.epsilon, cfg.x0)

    sampler = WaveFunctionSampler(
        lambda u: airy_inner_approx(u, cfg.x0, cfg.epsilon),
        (cfg.xmin - 2.5, cfg.xmax + 3.0),
        cfg.epsilon,
    )
    policy = QuadraturePolicy(
        sigma_samples=cfg.sigma_samples, taper_fraction=cfg.taper_fraction
    )
    try:
        grid = wigner_numeric(sampler, xs, ks, policy)
    except ValueError as e:
        raise ConfigError("sigma_samples", str(e)) from None

    phase, amp = _plus_branch_phase(cfg.x0)
    w_semi = semiclassical_wigner_uniform(
        phase, amp, xs[:, None], np.abs(ks)[None, :], cfg.epsilon
    )
    branches = wigner_branches(cfg.x0)
    rows = []
    for i, x in enumerate(map(float, xs)):
        for j, k in enumerate(map(float, ks)):
            region = classify_region(x, k)
            report = stationary_points(branches[0] if k >= 0 else branches[1], x, k)
            n_real = sum(1 for pt in report.points if pt.is_real)
            we = float(w_exact[i, j])
            ws = float(w_semi[i, j])
            rows.append(
                (
                    x,
                    k,
                    region.value,
                    n_real,
                    we,
                    float(w_comb[i, j]),
                    float(grid.values[i, j]),
                    ws,
                    float(grid.values[i, j]) - we,
                    ws - we,
                )
            )
    header = (
        "x", "k", "region", "n_stationary",
        "w_exact", "w_combined", "w_numeric", "w_semiclassical",
        "diff_numeric", "diff_semiclassical",
    )
    _write_tables(cfg, "wigner", [("wigner", header, rows)], started)
    return 0


# ---------------------------------------------------------------------------
# validation suite

@dataclass(frozen=True)
class CriterionResult:
    id: int
    name: str
    passed: bool
    metric: float
    threshold: float
    detail: str = ""


def check_surgery_identity() -> CriterionResult:
    """Combined fold form vs the exact closed-form Wigner transform."""
    t0 = time.time()
    xs = np.linspace(0.05, 1.9, 200)
    ks = np.linspace(-1.6, 1.6, 200)
    exact = wigner_exact_airy(xs[:, None], ks[None, :], 0.05, 2.0)
    comb = combined_wkb_wigner(xs[:, None], ks[None, :], 0.05, 2.0)
    metric = float(np.max(np.abs(comb - exact)))
    elapsed = time.time() - t0
    return CriterionResult(
        1, "surgery identity", metric <= 1e-12 and elapsed < 5.0,
        metric, 1e-12, f"200x200 grid, {elapsed:.2f}s",
    )


# Calibrated band-comparison configuration: the WKB sampler is restricted
# to the parametrix validity zone u >= 1 so the support-limited window
# tapers the approach to the cut instead of cutting live caustic signal.
_BAND_X0 = 16.0
_BAND_XS = np.linspace(7.5, 8.5, 5)
_BAND_KS = np.linspace(2.45, 3.1, 66)
_BAND_CUT = 1.0
_BAND_POLICY = QuadraturePolicy(sigma_samples=16384, taper_fraction=0.0625)


def band_comparison_metric(epsilon: float) -> float:
    """Envelope-relative deviation of the numeric Wigner transform of the
    two-branch WKB field from the combined fold form, over the band
    |k^2 - x| <= 5 eps^{2/3}."""

    def value(u):
        u = np.asarray(u, dtype=float)
        out = np.zeros(u.shape, dtype=complex)
        live = (u > _BAND_CUT) & (u < _BAND_X0)
        if live.any():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                out[live] = airy_wkb_field(u[live], epsilon, _BAND_X0)
        return out

    sampler = WaveFunctionSampler(value, (_BAND_CUT, _BAND_X0), epsilon)
    grid = wigner_numeric(sampler, _BAND_XS, _BAND_KS, _BAND_POLICY)
    comb = combined_wkb_wigner(
        _BAND_XS[:, None], _BAND_KS[None, :], epsilon, _BAND_X0
    )
    band = np.abs(_BAND_KS[None, :] ** 2 - _BAND_XS[:, None]) <= 5.0 * epsilon ** (2.0 / 3.0)
    return float(
        np.max(np.abs(grid.values - comb) * band) / np.max(np.abs(comb[band]))
    )


def check_band_wignerization() -> CriterionResult:
    t0 = time.time()
    coarse = band_comparison_metric(0.05)
    fine = band_comparison_metric(0.025)
    elapsed = time.time() - t0
    return CriterionResult(
        2, "end-to-end wignerization",
        coarse <= 5e-2 and fine < coarse and elapsed < 60.0,
        coarse, 5e-2, f"eps=0.05: {coarse:.3e}, eps=0.025: {fine:.3e}, {elapsed:.1f}s",
    )


def check_fundamental_quadrature() -> CriterionResult:
    """Numeric Wigner transform of the fundamental-solution caustic field
    against the closed form, away from its zeros."""
    eps, x0 = 0.05, 2.0
    xs = np.linspace(0.1, 1.9, 10)
    ks = np.linspace(-1.6, 1.6, 33)
    sampler = WaveFunctionSampler(
        lambda u: airy_inner_approx(u, x0, eps), (-2.0, 5.0), eps
    )
    grid = wigner_numeric(sampler, xs, ks, QuadraturePolicy(sigma_samples=1024))
    exact = wigner_exact_airy(xs[:, None], ks[None, :], eps, x0)
    mask = np.abs(exact) >= 0.01 * np.max(np.abs(exact))
    metric = float(np.max(np.abs(grid.values - exact)[mask] / np.abs(exact)[mask]))
    return CriterionResult(
        3, "fundamental-solution quadrature", metric <= 5e-3, metric, 5e-3,
        f"{int(mask.sum())} masked points",
    )


def check_k_moments() -> CriterionResult:
    eps, x0 = 0.1, 2.0
    ks = np.linspace(-3.0, 3.0, 2401)
    worst = 0.0
    worst_flux = 0.0
    for x in np.linspace(0.2, 1.5, 14):
        w = combined_wkb_wigner(float(x), ks, eps, x0)
        numeric = float(np.trapezoid(w, ks))
        ref = (
            math.pi * eps ** (-1.0 / 3.0) / math.sqrt(x0)
            * float(airy(-(eps ** (-2.0 / 3.0)) * x).ai) ** 2
        )
        worst = max(worst, abs(numeric - ref) / abs(ref))
        worst_flux = max(worst_flux, abs(k_integral_flux(float(x), eps, x0)))
    return CriterionResult(
        4, "k-moments", worst <= 1e-4 and worst_flux <= 1e-10, worst, 1e-4,
        f"max flux {worst_flux:.2e}",
    )


def _verify_by_root_finding(branch, x: float, k: float, sigma: float) -> float:
    """Independently confirm a tabulated stationary point: bracket the
    phase gradient around it, solve with brentq, and return the residual
    at the located root (inf when the root drifts off the table value)."""
    scale = max(1.0, abs(sigma))
    grad = lambda s: branch.F_sigma(s, x, k)
    for widen in (1e-3, 1e-2, 0.1):
        lo = sigma - widen * scale
        hi = sigma + widen * scale
        lo = max(lo, -0.999 * x)
        hi = min(hi, 0.999 * x)
        if grad(lo) * grad(hi) < 0:
            root = brentq(grad, lo, hi, xtol=1e-14)
            if abs(root - sigma) > 1e-7 * scale:
                return float("inf")
            return abs(grad(root))
    return abs(grad(sigma))


def check_stationary_tables(seed: int = 20240911, samples: int = 10000) -> CriterionResult:
    rng = np.random.default_rng(seed)
    xs = 0.05 + 3.95 * rng.random(samples)
    ks = rng.uniform(-2.2, 2.2, samples)
    branches = wigner_branches(2.0)
    worst = 0.0
    checked = 0
    for x, k in zip(xs, ks):
        for branch in branches:
            report = stationary_points(branch, float(x), float(k))
            for pt in report.points:
                if not pt.is_real or not math.isfinite(pt.second_derivative):
                    continue
                if pt.multiplicity != "simple":
                    continue
                res = _verify_by_root_finding(branch, float(x), float(k), pt.location.real)
                worst = max(worst, res)
                checked += 1
    return CriterionResult(
        5, "stationary-point tables", worst <= 1e-10, worst, 1e-10,
        f"{checked} real points root-verified over {samples} draws",
    )


def check_cfu_engine() -> CriterionResult:
    worst = 0.0
    for lam in (10.0, 100.0):
        for xi in np.linspace(0.0, 4.0, 17):
            got = cfu_eval(CfuCoefficients(0.0, float(xi), 1.0, 0.0), lam)
            ref = (
                2.0 * math.pi * lam ** (-1.0 / 3.0)
                * float(airy(-(lam ** (2.0 / 3.0)) * xi).ai)
            )
            denom = max(abs(ref), lam ** (-1.0 / 3.0))
            worst = max(worst, abs(got - ref) / denom)
    return CriterionResult(
        6, "uniform stationary-phase engine", worst <= 1e-6, worst, 1e-6,
        "canonical cubic, lam in {10, 100}",
    )


def check_kl_uniformization() -> CriterionResult:
    x0 = 2.0
    coords, amps = _airy_kl_callables(x0)
    xs = np.linspace(0.05, 1.95, 39)
    eps = 0.05
    u_kl = np.array([kl_field(coords, amps, eps, float(x)) for x in xs])
    inner = airy_inner_approx(xs, x0, eps)
    identity = float(np.max(np.abs(u_kl - inner)) / np.max(np.abs(inner)))

    window = np.linspace(0.8, 1.2, 41)
    devs = []
    for e in (0.1, 0.05, 0.025):
        kl_vals = np.array([kl_field(coords, amps, e, float(x)) for x in window])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            wkb_vals = airy_wkb_field(window, e, x0)
        devs.append(float(np.max(np.abs(kl_vals - wkb_vals)) / np.max(np.abs(kl_vals))))
    monotone = devs[0] > devs[1] > devs[2]
    return CriterionResult(
        7, "uniform caustic field", identity <= 1e-12 and monotone,
        identity, 1e-12,
        "far-field devs " + ", ".join(f"{d:.3e}" for d in devs),
    )


def check_wkb_convergence() -> CriterionResult:
    x0 = 2.0
    xs = np.linspace(0.5, 1.8, 200)
    errs = []
    for eps in (0.1, 0.05, 0.025):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            u_wkb = airy_wkb_field(xs, eps, x0)
        u_ref = airy_greens(xs, x0, eps)
        errs.append(float(np.max(np.abs(u_wkb - u_ref)) / np.max(np.abs(u_ref))))
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    metric = max(abs(r1 - 2.0), abs(r2 - 2.0))
    return CriterionResult(
        8, "first-order convergence", metric <= 0.4, metric, 0.4,
        f"halving ratios {r1:.2f}, {r2:.2f}",
    )


def check_liouville_order() -> CriterionResult:
    eps, x0 = 0.1, 2.0
    errs = []
    for n in (101, 201, 401):
        xs = np.linspace(0.3, 1.7, n)
        ks = np.linspace(-1.2, 1.2, n)
        w = wigner_exact_airy(xs[:, None], ks[None, :], eps, x0)
        res = liouville_residual(PhaseSpaceGrid(xs, ks, w, eps))
        errs.append(float(np.max(np.abs(res.values))))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    metric = min(orders)
    return CriterionResult(
        9, "phase-space transport residual", metric >= 1.9, metric, 1.9,
        f"observed orders {orders[0]:.2f}, {orders[1]:.2f}",
    )


def check_rays() -> CriterionResult:
    x0 = 2.0
    prof = airy_profile()
    path = integrate_hamiltonian(prof, x0, -math.sqrt(x0), 4.0)
    drift = float(np.max(np.abs(path.hamiltonian(prof))))

    touches = find_caustic(prof, x0, -math.sqrt(x0), 4.0)
    t_err = min(
        (max(abs(t - 2.0 * math.sqrt(x0)), abs(x)) for t, x in touches),
        default=float("inf"),
    )

    p = LinearLayerParams(mu0=1.0, mu1=2.0, h=1.0, psi=0.35)
    depth_exact = p.h - (p.eta0 * math.cos(p.psi)) ** 2 / p.mu1
    depth_ok = linear_layer_caustic_depth(p) == depth_exact
    return CriterionResult(
        10, "ray tracing", drift <= 1e-9 and t_err <= 1e-6 and depth_ok,
        drift, 1e-9, f"caustic offset {t_err:.2e}",
    )


def check_special_functions() -> CriterionResult:
    """Wronskian and the Gamma-function values at the origin.

    The full acceptance criterion also compares against an extended
    precision series oracle; that table lives with the test suite, so the
    self-contained run checks the two closed-form routes instead."""
    zs = np.linspace(-10.0, 5.0, 301)
    v = airy(zs)
    wronskian = float(
        np.max(np.abs(v.ai * v.bi_prime - v.ai_prime * v.bi - 1.0 / math.pi))
    )
    origin = airy(0.0)
    g23, g13 = math.gamma(2.0 / 3.0), math.gamma(1.0 / 3.0)
    refs = (
        (origin.ai, 3.0 ** (-2.0 / 3.0) / g23),
        (origin.ai_prime, -(3.0 ** (-1.0 / 3.0)) / g13),
        (origin.bi, 3.0 ** (-1.0 / 6.0) / g23),
        (origin.bi_prime, 3.0 ** (1.0 / 6.0) / g13),
    )
    origin_err = max(abs(a - b) / abs(b) for a, b in refs)
    return CriterionResult(
        11, "special functions", wronskian <= 1e-10 and origin_err <= 1e-12,
        wronskian, 1e-10, f"origin values rel {origin_err:.2e}",
    )


_CHECKS: Tuple[Callable[..., CriterionResult], ...] = (
    check_surgery_identity,
    check_band_wignerization,
    check_fundamental_quadrature,
    check_k_moments,
    check_stationary_tables,
    check_cfu_engine,
    check_kl_uniformization,
    check_wkb_convergence,
    check_liouville_order,
    check_rays,
    check_special_functions,
)


def run_validation(seed: int = 20240911) -> List[CriterionResult]:
    """Run all validation checks; a crash in one check becomes a failure
    entry rather than aborting the rest."""
    results = []
    for check in _CHECKS:
        try:
            if check is check_stationary_tables:
                results.append(check(seed=seed))
            else:
                results.append(check())
        except Exception as e:  # noqa: BLE001 - reported, not swallowed
            ident = _CHECKS.index(check) + 1
            results.append(
                CriterionResult(
                    ident, check.__name__.replace("check_", "").replace("_", " "),
                    False, float("inf"), float("nan"), f"error: {e}",
                )
            )
    return results


def cmd_validate(cfg: RunConfig) -> int:
    started = time.time()
    results = run_validation(seed=cfg.seed)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(
            f"criterion {r.id:02d} {status} {r.name}: "
            f"metric={r.metric:.3e} threshold={r.threshold:.3e}"
            + (f" ({r.detail})" if r.detail else "")
        )
    os.makedirs(cfg.out, exist_ok=True)
    report = {
        "config": _config_echo(cfg),
        "version": __version__,
        "duration_seconds": time.time() - started,
        "all_passed": all(r.passed for r in results),
        "criteria": [dataclasses.asdict(r) for r in results],
    }
    _write_json_atomic(os.path.join(cfg.out, "validate_report.json"), report)
    return 0 if report["all_passed"] else 1


# ---------------------------------------------------------------------------
# argument parsing

def _add_run_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="key=value configuration file")
    sp.add_argument("--out", help="output directory")
    sp.add_argument("--format", help="comma-separated subset of csv,json")
    sp.add_argument("--seed", type=int, help="seed for randomized sweeps")
    sp.add_argument("--scenario", help="airy or linear_layer")
    for key in _FLOAT_KEYS:
        sp.add_argument(f"--{key.replace('_', '-')}", dest=key, type=float)
    for key in ("nx", "nk", "nt", "sigma_samples"):
        sp.add_argument(f"--{key.replace('_', '-')}", dest=key, type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foldoptics",
        description="Fold-caustic wave fields and their phase-space transforms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "rays": "export ray fans, Jacobians and caustic locations",
        "field": "export WKB, uniform-Airy and fundamental fields on a grid",
        "wigner": "export exact, combined, numeric and semiclassical Wigner grids",
        "validate": "run the validation suite and write a JSON report",
    }
    for name, text in descriptions.items():
        sp = sub.add_parser(name, help=text, description=text)
        _add_run_flags(sp)
    return parser


_COMMANDS = {
    "rays": cmd_rays,
    "field": cmd_field,
    "wigner": cmd_wigner,
    "validate": cmd_validate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = merge_config(args)
        return _COMMANDS[args.command](cfg)
    except ConfigError as e:
        print(f"usage error: {e.field}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
