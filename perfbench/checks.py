"""Output checks: read back what a job wrote and test it.

Each `check_*` function takes a job's argument vector and output directory
and returns (problems, errors): a list of failed checks, and the accuracy
ratios the job's outputs give.  The closed forms are evaluated here with
`scipy.special.airy`, independently of the package's own Airy kernel.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from typing import Dict, List, Tuple

import numpy as np
from scipy.special import airy as sp_airy

# Run defaults of `foldoptics` that the workloads do not override.
EPSILON, X0 = 0.05, 2.0
MU0, MU1, H, PSI = 1.0, 2.0, 1.0, 0.35

# Acceptance bounds on the outputs, with the values the seed commit gives
# on the default pass in brackets.
WIGNER_NUMERIC_MAX = 1e-5        # max|w_numeric - w_exact| / max|w_exact| [9.1e-7]
WIGNER_SEMICLASSICAL_MAX = 3.0   # same for w_semiclassical [1.467]
WKB_MAX = 0.05                   # max|wkb - greens| / max|greens|, 0.5 < x < 1.8 [1.3e-2]
# max|kl - inner| / max|inner| over x > 0 [2.7e-13].  The KL coordinate rho
# comes from S+ - S-, which cancels as x -> 0, so a grid point near the
# caustic loses digits (1.8e-12 at x = 4e-4); the bound is the Airy layer's
# relative tolerance, AccuracyPolicy.rel_tol.
KL_MAX = 1e-9
CLOSED_FORM_REL = 1e-8           # package Airy forms vs scipy, relative to peak
RAY_REL = 1e-12                  # closed-form ray tables, relative
N_CRITERIA = 11
# validation criteria with a wall-clock gate: (id, seconds)
GATES = ((1, 5.0), (2, 60.0))

Result = Tuple[List[str], Dict[str, float]]


def _opt(argv: List[str], flag: str, default: float) -> float:
    return float(argv[argv.index(flag) + 1]) if flag in argv else default


def _table(outdir: str, name: str, expect_rows: int) -> Tuple[Dict[str, np.ndarray], List[str]]:
    """Read a CSV into columns and verify it against its manifest entry."""
    problems = []
    path = os.path.join(outdir, name)
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    if len(body) != expect_rows:
        problems.append(f"{name}: {len(body)} rows, expected {expect_rows}")
    manifests = [n for n in os.listdir(outdir) if n.endswith("_manifest.json")]
    with open(os.path.join(outdir, manifests[0]), encoding="utf-8") as f:
        entries = {e["path"]: e for e in json.load(f)["outputs"]}
    with open(path, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    entry = entries.get(name)
    if entry is None or entry["sha256"] != digest or entry["rows"] != len(body):
        problems.append(f"{name}: manifest entry does not match the file")
    columns = {}
    for j, col in enumerate(header):
        cells = [r[j] for r in body]
        try:
            columns[col] = np.array(cells, dtype=float)
        except ValueError:
            columns[col] = np.array(cells)
    return columns, problems


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _airy_ai(z):
    return sp_airy(z)[0]


def check_wigner(argv: List[str], outdir: str) -> Result:
    nx, nk = int(_opt(argv, "--nx", 64)), int(_opt(argv, "--nk", 64))
    c, problems = _table(outdir, "wigner.csv", nx * nk)
    xs = np.linspace(_opt(argv, "--xmin", 0.1), _opt(argv, "--xmax", 1.9), nx)
    ks = np.linspace(_opt(argv, "--kmin", -1.6), _opt(argv, "--kmax", 1.6), nk)
    if not (np.array_equal(c["x"], np.repeat(xs, nk)) and np.array_equal(c["k"], np.tile(ks, nx))):
        problems.append("wigner.csv: grid differs from the requested linspace")
    x, k, exact = c["x"], c["k"], c["w_exact"]
    ref = (2.0 ** (-1.0 / 3.0) * EPSILON ** (-2.0 / 3.0) / math.sqrt(X0)
           * _airy_ai(2.0 ** (2.0 / 3.0) * EPSILON ** (-2.0 / 3.0) * (k * k - x)))
    if _rel(exact, ref) > CLOSED_FORM_REL:
        problems.append(f"w_exact off the scipy closed form by {_rel(exact, ref):.2e}")
    if np.max(np.abs(c["w_combined"] - exact)) > 1e-12:
        problems.append("w_combined differs from w_exact by more than 1e-12")
    for name, diff in (("numeric", "diff_numeric"), ("semiclassical", "diff_semiclassical")):
        if not np.array_equal(c[diff], c[f"w_{name}"] - exact):
            problems.append(f"{diff} is not w_{name} - w_exact")
    peak = np.max(np.abs(exact))
    errors = {
        "err_numeric": float(np.max(np.abs(c["diff_numeric"])) / peak),
        "err_semiclassical": float(np.max(np.abs(c["diff_semiclassical"])) / peak),
    }
    if not errors["err_numeric"] <= WIGNER_NUMERIC_MAX:
        problems.append(f"err_numeric {errors['err_numeric']:.3e} > {WIGNER_NUMERIC_MAX}")
    if not errors["err_semiclassical"] <= WIGNER_SEMICLASSICAL_MAX:
        problems.append(
            f"err_semiclassical {errors['err_semiclassical']:.3e} > {WIGNER_SEMICLASSICAL_MAX}")
    return problems, errors


def _check_airy_field(argv: List[str], outdir: str) -> Result:
    nx = int(_opt(argv, "--nx", 64))
    c, problems = _table(outdir, "field.csv", nx)
    x = c["x"]
    a = EPSILON ** (-2.0 / 3.0)
    ai0, _, bi0, _ = sp_airy(-a * X0)
    ai, _, bi, _ = sp_airy(-a * x)
    coeff = math.pi * EPSILON ** (-1.0 / 3.0) * np.exp(-0.25j * math.pi)
    greens_ref = np.where(x <= X0, coeff * (ai0 - 1j * bi0) * ai, coeff * ai0 * (ai - 1j * bi))
    inner_ref = (math.sqrt(math.pi) * -1j * X0 ** -0.25
                 * np.exp(1j * (2.0 / 3.0) * X0 ** 1.5 / EPSILON)
                 * EPSILON ** (-1.0 / 6.0) * ai)
    greens = c["greens_re"] + 1j * c["greens_im"]
    inner = c["inner_re"] + 1j * c["inner_im"]
    kl = c["kl_re"] + 1j * c["kl_im"]
    wkb = c["wkb_re"] + 1j * c["wkb_im"]
    for name, got, ref in (("greens", greens, greens_ref), ("inner", inner, inner_ref)):
        if not _rel(got, ref) <= CLOSED_FORM_REL:
            problems.append(f"field {name} off the scipy closed form by {_rel(got, ref):.2e}")
    lit = x > 0
    if not np.all(np.isfinite(kl[lit])) or np.any(np.isfinite(kl[~lit])):
        problems.append("field kl must be finite exactly on x > 0")
    band = (x > 0.5) & (x < 1.8)
    errors = {
        "err_kl": _rel(kl[lit], inner[lit]),
        "err_wkb": float(np.max(np.abs(wkb[band] - greens[band])) / np.max(np.abs(greens[band]))),
    }
    if not errors["err_kl"] <= KL_MAX:
        problems.append(f"err_kl {errors['err_kl']:.3e} > {KL_MAX}")
    if not errors["err_wkb"] <= WKB_MAX:
        problems.append(f"err_wkb {errors['err_wkb']:.3e} > {WKB_MAX}")
    return problems, errors


def _close(a, b) -> bool:
    return bool(np.all(np.abs(a - b) <= RAY_REL * np.maximum(1.0, np.abs(b))))


def _check_airy_rays(argv: List[str], outdir: str) -> Result:
    nt = int(_opt(argv, "--nt", 128))
    tmax = 3.0 * math.sqrt(X0)
    ts = np.linspace(_opt(argv, "--tmin", 0.0), tmax, nt)
    c, problems = _table(outdir, "rays.csv", 2 * nt)
    root = math.sqrt(X0)
    k0 = np.repeat([-root, root], nt)
    t = np.tile(ts, 2)
    if not (np.array_equal(c["t"], t)
            and _close(c["x"], t * t / 4.0 + k0 * t + X0)
            and _close(c["k"], t / 2.0 + k0)
            and _close(c["jacobian"], 1.0 + k0 * t / (2.0 * X0))):
        problems.append("rays.csv differs from the closed-form parabolas")
    cc, more = _table(outdir, "caustics.csv", 1)
    problems += more
    if not (list(cc["ray_id"]) == ["down"] and abs(cc["t"][0] - 2.0 * root) <= 1e-6
            and abs(cc["x"][0]) <= 1e-6):
        problems.append("caustics.csv: expected one touch of the down ray at t = 2 sqrt(x0), x = 0")
    return problems, {}


def _check_layer_rays(argv: List[str], outdir: str) -> Result:
    nt = int(_opt(argv, "--nt", 128))
    eta0 = math.sqrt(MU0 + MU1 * H)
    c0 = eta0 * math.cos(PSI)
    t = np.linspace(_opt(argv, "--tmin", 0.0), 4.0 * c0 / MU1, nt)
    c, problems = _table(outdir, "rays.csv", nt)
    if not (np.array_equal(c["t"], t)
            and _close(c["y"], eta0 * t * math.sin(PSI))
            and _close(c["z"], 0.25 * MU1 * t * t - c0 * t + H)
            and _close(c["kz"], 0.5 * MU1 * t - c0)
            and _close(c["jacobian"], (c0 - 0.5 * MU1 * t) / c0)):
        problems.append("rays.csv differs from the closed-form layer ray")
    cc, more = _table(outdir, "caustics.csv", 1)
    problems += more
    if not _close(cc["caustic_depth"], np.array([H - c0 * c0 / MU1])):
        problems.append("caustics.csv: caustic depth differs from h - (eta0 cos psi)^2 / mu1")
    return problems, {}


def _check_layer_field(argv: List[str], outdir: str) -> Result:
    nx = int(_opt(argv, "--nx", 64))
    c, problems = _table(outdir, "field.csv", nx)
    z_c = H - (math.sqrt(MU0 + MU1 * H) * math.cos(PSI)) ** 2 / MU1
    inside = (c["z"] >= z_c) & (c["z"] <= H)
    sp, sm = c["s_plus"], c["s_minus"]
    if not (np.all(np.isfinite(sp[inside])) and np.all(np.isnan(sp[~inside]))
            and np.all(sp[inside] >= sm[inside])
            and _close(c["phi"][inside], 0.5 * (sp[inside] + sm[inside]))):
        problems.append("linear-layer field.csv: phases inconsistent")
    return problems, {}


def check_field_rays(argv: List[str], outdir: str) -> Result:
    scenario = argv[argv.index("--scenario") + 1]
    return {
        ("field", "airy"): _check_airy_field,
        ("rays", "airy"): _check_airy_rays,
        ("rays", "linear_layer"): _check_layer_rays,
        ("field", "linear_layer"): _check_layer_field,
    }[(argv[0], scenario)](argv, outdir)


def check_validate(argv: List[str], outdir: str) -> Result:
    with open(os.path.join(outdir, "validate_report.json"), encoding="utf-8") as f:
        report = json.load(f)
    problems = []
    criteria = {c["id"]: c for c in report["criteria"]}
    if sorted(criteria) != list(range(1, N_CRITERIA + 1)):
        problems.append(f"validate report lists criteria {sorted(criteria)}")
    for ident, c in sorted(criteria.items()):
        if not c["passed"]:
            problems.append(f"criterion {ident:02d} failed: {c['detail']}")
    for ident, limit in GATES:
        c = criteria.get(ident)
        if c and not c["passed"] and c["metric"] <= c["threshold"]:
            problems.append(f"criterion {ident:02d} tripped its {limit:g} s wall-clock gate")
    if not report["all_passed"] and not problems:
        problems.append("validate report says all_passed: false")
    errors = {
        f"err_criterion{i:02d}": criteria[i]["metric"] for i in (2, 3) if i in criteria
    }
    return problems, errors


CHECKS = {
    "wigner-export": check_wigner,
    "validate-suite": check_validate,
    "field-rays": check_field_rays,
}
