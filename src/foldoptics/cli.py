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
error.  A run raises its usage errors first, then makes the output
directory, then writes its files: an export command returns its tables
for `main` to write, so a usage error leaves no directory behind.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .kl import kl_amplitudes, kl_coordinates, kl_field
from .rays import (
    LinearLayerParams,
    airy_profile,
    airy_ray_closed,
    bisect_brackets,
    find_caustic,
    integrate_hamiltonian,
    linear_layer_caustic_depth,
    linear_layer_jacobian,
    linear_layer_momentum,
    linear_layer_ray,
)
from .specfun import airy, airy_ai
from .stphase import CfuCoefficients, cfu_eval
from .surgery import (
    _N_REAL, _SIGNS, RegionLabel, _check_transport_closure, _phase_s, _phase_ss, _region_codes,
    _row_codes, _transport_residual, combined_wkb_wigner, k_integral_amplitude, stationary_table,
)
from .wigner import (
    PhaseSpaceGrid,
    QuadraturePolicy,
    LagrangianCurve,
    WaveFunctionSampler,
    semiclassical_wigner_uniform,
    wigner_exact_airy,
    wigner_moment0,
    wigner_moment1,
    wigner_numeric,
)
from .wigner import _required_samples, _sigma_windows
from .wkb import (
    CausticZoneWarning,
    airy_greens,
    airy_inner_approx,
    airy_wkb_branches,
    airy_wkb_field,
    linear_layer_phases,
)

__all__ = [
    "ConfigError",
    "RunConfig",
    "Leg",
    "CriterionResult",
    "run_validation",
    "main",
]

_SCENARIOS = ("airy", "linear_layer")
_FORMATS = ("csv", "json")

# Largest magnitude of a float option.  At 1e6 and the default epsilon the Airy
# phase (2/3) x^{3/2}/epsilon is 1.3e10, held to 2e-6 rad; far beyond it phases
# lose every digit, and at 1e300 they, k^2 and the rays' t^2 overflow.
_MAX_MAGNITUDE = 1e6

# Largest sigma_samples: one x-row's chirp-z arrays then hold about 2^19
# complex values (8 MB) each.
_MAX_SIGMA_SAMPLES = 2**20


class ConfigError(Exception):
    """A configuration problem attributable to one field."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


@dataclass
class RunConfig:
    """One run's parameters.  Each field is a config-file key and a flag of every
    subcommand by its own name, given as text that merge_config converts to the
    type of its default; `format` is a comma-separated subset of csv,json."""

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
    format: Tuple[str, ...] = ("csv",)
    seed: int = 20240911

    def validate(self) -> None:
        # NaN and inf pass or fail the range checks below as each comparison happens to go
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(name, "must be a finite number")
            if isinstance(value, float) and abs(value) > _MAX_MAGNITUDE:
                raise ConfigError(name, f"magnitude must not exceed {_MAX_MAGNITUDE:g}")
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
        if self.sigma_samples % 2 or self.sigma_samples > _MAX_SIGMA_SAMPLES:
            raise ConfigError("sigma_samples", f"must be even and at most {_MAX_SIGMA_SAMPLES}")
        for lo, hi in (("xmin", "xmax"), ("kmin", "kmax"), ("tmin", "tmax")):
            if getattr(self, hi) is not None and not getattr(self, lo) < getattr(self, hi):
                # name the bound moved from its default, the lower one if both were
                name = hi if getattr(self, lo) == getattr(RunConfig, lo) else lo
                raise ConfigError(name, f"bounds must satisfy {lo} < {hi}")
        if not 0.0 < self.taper_fraction < 0.5:
            raise ConfigError("taper_fraction", "must lie in (0, 0.5)")
        if not self.mu1 > 0:
            raise ConfigError("mu1", "must be positive")
        if not self.h > 0:
            raise ConfigError("h", "must be positive")
        if self.mu0 < 0:
            raise ConfigError("mu0", "must be nonnegative")
        if not 0.0 < self.psi < 0.5 * math.pi:
            raise ConfigError("psi", "incidence angle must lie in (0, pi/2)")
        if self.seed < 0:
            raise ConfigError("seed", "must be nonnegative")
        if not self.format:
            raise ConfigError("format", "at least one output format")
        for fmt in self.format:
            if fmt not in _FORMATS:
                raise ConfigError(
                    "format", f"unknown format {fmt!r}; choose from csv, json"
                )

    def layer_params(self) -> LinearLayerParams:
        return LinearLayerParams(mu0=self.mu0, mu1=self.mu1, h=self.h, psi=self.psi)


# option name -> the type of its RunConfig field's default, tmax's None read as float
_OPTIONS = {f.name: float if f.default is None else type(f.default)
            for f in dataclasses.fields(RunConfig)}


def _convert(key: str, raw: str):
    """A config-file or flag value as the type of its option."""
    kind = _OPTIONS.get(key)
    if kind is None:
        raise ConfigError(key, "unknown configuration key")
    if kind is tuple:
        return tuple(sorted({part.strip() for part in raw.split(",") if part.strip()}))
    try:
        return kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(key, f"expected {noun}, got {raw!r}") from None


def load_config_file(path: str) -> Dict[str, str]:
    """Parse a key=value file into its unconverted values; '#' starts a
    comment, blank lines ignored."""
    values: Dict[str, str] = {}
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
        values[key] = raw
    return values


def merge_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the config file, then explicit flags, each value converted
    here and only here, so a flag and a config line are refused alike; then validate."""
    values = load_config_file(args.config) if args.config is not None else {}
    values.update((key, getattr(args, key)) for key in _OPTIONS
                  if getattr(args, key, None) is not None)
    cfg = RunConfig(**{key: _convert(key, raw) for key, raw in values.items()})
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# output plumbing

# A table is (name, header, blocks): an iterable, read once, of blocks of
# rows, each one equal-length column (array or sequence) per header entry.
Table = Tuple[str, Sequence[str], Iterable[Sequence[object]]]

# Cells per block of rows: the wigner export and criterion 09 evaluate their grids a
# block of (x, k) rows at a time, and the writer encodes a block in pieces of this many
# (CSV: float) cells, so memory does not grow with the table.  The export's peak is
# wigner_numeric's chirp-z work arrays over one block's columns; 2^14 keeps it flat but
# is no faster at 1000^2.
_GRID_CELLS = 2**13


def _row_blocks(rows: int, cols: int) -> List[slice]:
    """Runs of consecutive rows of about _GRID_CELLS cells each, covering range(rows)."""
    step = max(1, _GRID_CELLS // cols)
    return [slice(i, i + step) for i in range(0, rows, step)]


def _split(x):
    """Veltkamp's split x = hi + lo into halves of at most 26 bits."""
    hi = x * 134217729.0 - (x * 134217729.0 - x)  # 2^27 + 1
    return hi, x - hi


# 10^p as exact double-doubles hi + lo (5^45 < 2^106), hi split for Dekker's product;
# by e + 29, the '0.000' of 1e-4 <= |x| < 1 and the 'e-XX' of |x| < 1e-4 as word bytes;
# _LOW[j] keeps a word's lowest j bytes; _DOT[w, q] is the point after digit q of word w.
_TEN_HI = np.array([float(10**p) for p in range(46)])
_TEN_LO = np.array([float(10**p - int(float(10**p))) for p in range(46)])
_TEN_HH, _TEN_HL = _split(_TEN_HI)
_PREFIX, _SUFFIX = (np.array([int.from_bytes(b"\0" + text, "little") for text in texts],
                             dtype=np.uint64) for texts in (
    [b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"" for e in range(-29, 17)],
    [b"e-%02d" % -e if e < -4 else b"" for e in range(-29, 17)]))
_LOW = np.array([2 ** (8 * j) - 1 for j in range(9)], dtype=np.uint64)
_DOT = np.array([[0x2E << 8 * (q - w) if w <= q < w + 8 else 0 for q in range(17)]
                 for w in (0, 8)], dtype=np.uint64)


def _format_g17(v):
    """'%.17g' % x for each x of the float64 array v, as four little-endian uint64
    words a cell (v.shape + (4,)) with NUL gaps and padding, and the number of
    cells Python formatted.  NaN, +-inf and +-0 are constants."""
    a = np.abs(v)
    exact = (a >= 1e-27) & (a < 1e16)
    a[~exact] = 1.0
    # e = floor(log10 a), or one less within 2.3e-12 (relative) above a power of ten
    e = np.floor(np.log10(a) - 1e-12).astype(np.int64)
    # D = round(a 10^(16 - e)) from h + s = a (hi + lo) by Dekker's product, s within
    # 3e-15; Python formats D within 1e-9 of a tie and the 18-digit D of e - 1
    p = 16 - e
    h = a * np.take(_TEN_HI, p)
    (ah, al), hh, hl = _split(a), np.take(_TEN_HH, p), np.take(_TEN_HL, p)
    s = ((ah * hh - h) + ah * hl + al * hh) + al * hl + a * np.take(_TEN_LO, p)
    r = np.rint(s)
    D = (h.astype(np.int64) + r.astype(np.int64)).view(np.uint64)
    exact &= (10**16 <= D) & (D < 10**17) & (np.abs(np.abs(s - r) - 0.5) > 1e-9)
    del a, p, h, ah, al, hh, hl, s, r
    # words: sign, prefix, first digit; digits 1-8 and 9-16 with the point; the digit
    # the point pushed out, suffix.  Digits 1-8, 9-16: /100, /10 in 32-bit lanes of 4
    F = np.empty(v.shape + (4,), dtype=np.uint64)
    # (numpy's uint64 % costs several times its //, so remainders are D - D // c * c)
    F[..., 0] = np.take(_PREFIX, e + 29) | (D // 10**16 + 48) << 48
    Q = D // 10**8
    D = np.stack([Q - Q // 10**8 * 10**8, D - Q * 10**8])
    Q = D // 10000
    D = Q | (D - Q * 10000) << 32
    Q = (D * 10486 >> 20) & 0x7F0000007F
    D = Q | (D - Q * 100) << 16
    Q = (D * 103 >> 10) & 0x000F000F000F000F
    B, C = Q | (D - Q * 10) << 8
    # '%g' is fixed for -4 <= e < 17, the point after digit q = max(e, 0), else after
    # the first digit; digits past the last nonzero one and the point stay NUL.  Top
    # nonzero bytes from the float64 exponent bits: 0 reads -128 and never wins
    last, top = ((w.astype(np.float64).view(np.int64) >> 52) - 1023 >> 3 for w in (B, C))
    last = np.maximum(last + 1, top + 9)
    q = np.maximum(e, 0)
    B |= np.take(_LOW, np.maximum(last, q), mode="clip") & 0x3030303030303030
    C |= np.take(_LOW, np.maximum(last, q) - 8, mode="clip") & 0x3030303030303030
    point = ((last > q) & ((e >= 0) | (e < -4))).astype(np.uint64)
    del D, Q, last
    low = np.take(_LOW, q, mode="clip")
    F[..., 1] = (B & low) | (B & ~low) << 8 | np.take(_DOT[0], q) * point
    B &= ~low
    low = np.take(_LOW, q - 8, mode="clip")
    F[..., 2] = (C & low) | (C & ~low) << 8 | B >> 56 | np.take(_DOT[1], q) * point
    F[..., 3] = C >> 56 | np.take(_SUFFIX, e + 29)
    special = ~np.isfinite(v) | (v == 0.0)  # their a = 1 left words 1-3 empty
    if special.any():
        F[special, 0] = np.where(np.isnan(v[special]), 0x6E616E00,  # nan, inf, 0
                                 np.where(np.isinf(v[special]), 0x666E6900, 0x3000))
    F[..., 0] |= (np.signbit(v) & ~np.isnan(v)) * np.uint64(0x2D)
    fallback = ~(exact | special)
    if fallback.any():
        texts = np.array([b"%.17g" % x for x in v[fallback].tolist()], dtype="S32")
        F[fallback] = texts.view("<u8").reshape(-1, 4)
    return F, int(np.count_nonzero(fallback))


def _column_bytes(column: np.ndarray) -> np.ndarray:
    """An int or label column as the fixed-width bytes of astype(np.bytes_); ASCII
    labels by a view cast of their code points, a hundred times faster."""
    if column.dtype.kind == "U":
        codes = np.ascontiguousarray(column).view(np.uint32)
        if codes.max(initial=0) < 128:
            return codes.astype(np.uint8).view(f"S{column.dtype.itemsize // 4}")
    return column.astype(np.bytes_)


def _csv_encoder(header: Sequence[str]):
    """A table's CSV head bytes, a generator function of the bytes and
    Python-formatted cells of one block of columns, and its tail bytes.  A
    block goes out in the row runs of _row_blocks, _GRID_CELLS float cells
    each, four little-endian uint64 words a cell, NUL-padded, with ',' or
    newline in its last byte, joined without NULs.  Floats via _format_g17, other columns via
    _column_bytes (ints as '%d', labels as they are: ASCII without comma,
    quote, newline or NUL, and shorter than 32 bytes)."""
    frame = np.empty((0, len(header), 4), dtype="<u8")  # one a table, grown to its longest piece

    def encode(columns: Sequence[object]):
        nonlocal frame
        cols = [np.asarray(c) for c in columns]
        floats = [j for j, c in enumerate(cols) if c.dtype.kind == "f"]
        # runs of adjacent float columns, as slices [a, b) of the formatted frames
        cuts = [i for i in range(1, len(floats)) if floats[i] != floats[i - 1] + 1]
        runs = list(zip([0] + cuts, cuts + [len(floats)])) if floats else []
        for rows in _row_blocks(len(cols[0]), max(1, len(floats))):
            block = [c[rows] for c in cols]
            if len(frame) < len(block[0]):
                frame = np.empty((len(block[0]), len(cols), 4), dtype="<u8")
            frames, fallback = _format_g17(
                np.stack([block[j] for j in floats], axis=-1, dtype=float)
                if floats else np.empty((len(block[0]), 0)))
            cells = frame[:len(block[0])]  # each piece rewrites every cell of its leading rows
            for a, b in runs:
                cells[:, floats[a]:floats[a] + b - a] = frames[:, a:b]
            for j, c in enumerate(block):
                if j not in floats:
                    text = _column_bytes(c)
                    if text.itemsize >= 32 and np.char.str_len(text).max() >= 32:
                        raise ValueError(f"{header[j]}: a text cell of 32 bytes or more")
                    cells[:, j] = text.astype("S32").view("<u8").reshape(-1, 4)
            u8 = cells.view(np.uint8)
            u8[:, :, -1] = ord(",")
            u8[:, -1, -1] = ord("\n")
            yield cells.tobytes().translate(None, b"\0"), fallback
            del frames  # before the next piece is formatted

    return (",".join(header) + "\n").encode(), encode, b""


def _json_encoder(header: Sequence[str]):
    """As _csv_encoder, for the bytes json.dump({"columns": ..., "rows": ...},
    sort_keys=True) writes: one json.dumps a piece of rows, ', ' between."""
    first = True

    def encode(columns: Sequence[object]):
        nonlocal first
        cols = [np.asarray(c) for c in columns]
        for rows in _row_blocks(len(cols[0]), len(cols)):
            text = json.dumps(list(zip(*(c[rows].tolist() for c in cols))))
            yield (", " * (not first) + text[1:-1]).encode(), 0
            first = False

    return f'{{"columns": {json.dumps(list(header))}, "rows": ['.encode(), encode, b"]}\n"


def _write_tables(
    cfg: RunConfig, command: str, tables: Sequence[Table], started: float
) -> None:
    """Write each table in the configured formats, hashing each file as it is
    written, then the manifest, atomically and last.  A table's blocks are
    read once, each going to every format in turn.  Data files are written
    under temporary names, renamed once every table is whole: a failed export
    leaves none.  CSV cells are the bytes of '%.17g' % x, computed in numpy
    for |x| in [1e-27, 1e16) but within 1e-9 of a decimal tie (exact ties
    too) or 2.3e-12 above a power of ten; Python formats the other finite
    nonzero cells, which the manifest entry counts as `cells_fallback`."""
    outputs: List[Dict[str, object]] = []
    temps: List[str] = []
    try:
        for name, header, blocks in tables:
            fmts = sorted(cfg.format)
            temps += [os.path.join(cfg.out, f"{name}.{fmt}.tmp") for fmt in fmts]
            coders = [(_csv_encoder if fmt == "csv" else _json_encoder)(header) for fmt in fmts]
            digests = [hashlib.sha256(head) for head, _, _ in coders]
            fallback, rows = [0] * len(fmts), 0
            with contextlib.ExitStack() as stack:
                files = [stack.enter_context(open(temp, "wb")) for temp in temps[-len(fmts):]]
                for f, (head, _, _) in zip(files, coders):
                    f.write(head)
                for block in blocks:
                    rows += len(block[0])
                    for i, (_, encode, _) in enumerate(coders):
                        for data, cells in encode(block):
                            digests[i].update(data)
                            files[i].write(data)
                            fallback[i] += cells
                    del block  # before the next block is computed
                for f, digest, (_, _, tail) in zip(files, digests, coders):
                    f.write(tail)
                    digest.update(tail)
            outputs += [{"path": f"{name}.{fmt}", "sha256": digest.hexdigest(), "rows": rows,
                         "cells_fallback": cells}
                        for fmt, digest, cells in zip(fmts, digests, fallback)]
        for temp in temps:
            os.replace(temp, temp[:-len(".tmp")])
    except BaseException:
        for temp in filter(os.path.exists, temps):
            os.remove(temp)
        raise
    manifest = {
        "command": command,
        "config": dataclasses.asdict(cfg),
        "version": __version__,
        "duration_seconds": time.time() - started,
        "outputs": outputs,
    }
    _write_json_atomic(os.path.join(cfg.out, f"{command}_manifest.json"), manifest)


def _write_json_atomic(path: str, payload: Dict[str, object]) -> None:
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(payload, f, sort_keys=True, indent=2)
            f.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


# ---------------------------------------------------------------------------
# subcommands: each export returns its tables, having raised every usage error first

def _resolve_tmax(cfg: RunConfig, default: float) -> float:
    """tmax, or the scenario's default when it is not given; tmin must lie
    below it either way."""
    tmax = cfg.tmax if cfg.tmax is not None else default
    if not cfg.tmin < tmax:
        raise ConfigError("tmin", f"bounds must satisfy tmin < tmax = {tmax:.6g}")
    return tmax


def cmd_rays(cfg: RunConfig) -> List[Table]:
    if cfg.scenario == "airy":
        tmax = _resolve_tmax(cfg, 3.0 * math.sqrt(cfg.x0))
        root = math.sqrt(cfg.x0)
        # each ray touches the caustic x = 0 where J = 1 + k0 t/(2 x0)
        # vanishes, at t* = -2 x0/k0 = +-2 sqrt(x0), if t* is in the window
        touches = [
            (ray_id, t, 0.0)
            for ray_id, t in (("down", 2.0 * root), ("up", -2.0 * root))
            if cfg.tmin <= t <= tmax
        ]
        # the down ray's rows, then the up ray's
        t = np.tile(np.linspace(cfg.tmin, tmax, cfg.nt), 2)
        k0 = np.repeat([-root, root], cfg.nt)
        x, k = airy_ray_closed(t, cfg.x0, k0)
        return [
            ("rays", ("ray_id", "t", "x", "k", "jacobian"),
             [(np.repeat(["down", "up"], cfg.nt), t, x, k, 1.0 + k0 * t / (2.0 * cfg.x0))]),
            # header only when neither ray touches a caustic
            ("caustics", ("ray_id", "t", "x"), [tuple(zip(*touches)) or ((), (), ())]),
        ]
    else:
        p = cfg.layer_params()
        chord = 4.0 * p.eta0 * math.cos(p.psi) / p.mu1
        tmax = _resolve_tmax(cfg, chord)
        t = np.linspace(cfg.tmin, tmax, cfg.nt)
        y, z = linear_layer_ray(t, 0.0, p)
        ky, kz = linear_layer_momentum(t, p)
        t_star = 0.5 * chord
        y_star, z_star = linear_layer_ray(t_star, 0.0, p)
        return [
            ("rays", ("ray_id", "t", "y", "z", "ky", "kz", "jacobian"),
             [(np.full(cfg.nt, "incident"), t, y, z, np.full(cfg.nt, ky), kz,
               linear_layer_jacobian(t, p))]),
            ("caustics", ("ray_id", "t", "y", "z", "caustic_depth"),
             [(["incident"], [t_star], [y_star], [z_star], [linear_layer_caustic_depth(p)])]),
        ]


def _wkb_field(x, epsilon: float, x0: float):
    """airy_wkb_field with only its CausticZoneWarning silenced: each caller
    evaluates it next to the caustic on purpose."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CausticZoneWarning)
        return airy_wkb_field(x, epsilon, x0)


def _airy_kl_field(x, epsilon: float, x0: float):
    """The uniform field of the Airy problem's two WKB branches at x > 0: their
    phases and amplitudes evaluated once, then phi, rho, g0, g1 and the field."""
    phases, amplitudes = airy_wkb_branches(x, x0)
    phi, rho = kl_coordinates(*phases)
    return kl_field(phi, rho, *kl_amplitudes(*amplitudes, rho), epsilon)


def cmd_field(cfg: RunConfig) -> List[Table]:
    # each field is evaluated once over its mask, with a stand-in point
    # outside it, and NaN there in the table
    nan = complex(math.nan, math.nan)
    if cfg.scenario == "airy":
        xs = np.linspace(cfg.xmin, cfg.xmax, cfg.nx)
        two_branch = (0.0 < xs) & (xs < cfg.x0)
        w = _wkb_field(np.where(two_branch, xs, 0.5 * cfg.x0), cfg.epsilon, cfg.x0)
        lit = xs > 0.0
        u_kl = _airy_kl_field(np.where(lit, xs, 1.0), cfg.epsilon, cfg.x0)
        fields = (
            np.where(two_branch, w, nan),
            np.where(lit, u_kl, nan),
            airy_greens(xs, cfg.x0, cfg.epsilon),
            airy_inner_approx(xs, cfg.x0, cfg.epsilon),
        )
        header = ("x", "wkb_re", "wkb_im", "kl_re", "kl_im",
                  "greens_re", "greens_im", "inner_re", "inner_im")
        columns = (xs, *(part for u in fields for part in (u.real, u.imag)))
        return [("field", header, [columns])]
    else:
        p = cfg.layer_params()
        zs = np.linspace(cfg.xmin, cfg.xmax, cfg.nx)
        layer = (linear_layer_caustic_depth(p) <= zs) & (zs <= p.h)
        s_plus, s_minus = linear_layer_phases(0.0, np.where(layer, zs, p.h), p)
        phi, rho = kl_coordinates(s_plus, s_minus)
        columns = (zs, *(np.where(layer, c, math.nan) for c in (s_plus, s_minus, phi, rho)))
        return [("field", ("z", "s_plus", "s_minus", "phi", "rho"), [columns])]


def _airy_curve(x0: float) -> LagrangianCurve:
    """The Airy curve x = p^2; rho = |A|^2 |X'| = 1/(2 sqrt(x0)), so p = 0 is not 0 inf."""
    rho = 0.5 / math.sqrt(x0)
    return LagrangianCurve(X=np.square, X1=lambda p: 2.0 * p, X2=lambda p: 2.0, rho=lambda p: rho)


def _undersampled(cfg: RunConfig, sampler, xs, ks, message: str) -> ConfigError:
    """The usage error for an undersampled wigner grid.  The required count is
    4 k_max sigma_max/(pi eps); where no accepted sigma_samples meets it, the
    error names whichever of epsilon, the x-window (xmax) and the larger k
    bound grew most against the default run, otherwise sigma_samples."""
    a, b = sampler.support
    needed = _required_samples(np.max(np.abs(ks)), np.minimum(xs - a, b - xs), cfg.epsilon)
    if np.max(needed) <= _MAX_SIGMA_SAMPLES:
        return ConfigError("sigma_samples", message)
    d, k_bound = RunConfig(), "kmin" if abs(cfg.kmin) > abs(cfg.kmax) else "kmax"
    growth = {"epsilon": d.epsilon / cfg.epsilon, k_bound: abs(getattr(cfg, k_bound)) / d.kmax,
              "xmax": (cfg.xmax - cfg.xmin) / (d.xmax - d.xmin)}
    return ConfigError(
        max(growth, key=growth.get), f"{message}; more than {_MAX_SIGMA_SAMPLES} sigma_samples"
    )


def cmd_wigner(cfg: RunConfig) -> List[Table]:
    if cfg.scenario != "airy":
        raise ConfigError("scenario", "wigner export supports the airy scenario")
    # the region codes are defined for x > 0 alone
    if not cfg.xmin > 0.0:
        raise ConfigError("xmin", "wigner grids need x > 0 (illuminated side)")
    xs = np.linspace(cfg.xmin, cfg.xmax, cfg.nx)
    ks = np.linspace(cfg.kmin, cfg.kmax, cfg.nk)

    sampler = WaveFunctionSampler(
        lambda u: airy_inner_approx(u, cfg.x0, cfg.epsilon),
        (cfg.xmin - 2.5, cfg.xmax + 3.0),
        cfg.epsilon,
    )
    policy = QuadraturePolicy(cfg.sigma_samples, cfg.taper_fraction)
    try:  # every row's sampling is checked before any row is computed
        _sigma_windows(sampler, xs, ks, policy.sigma_samples)
    except ValueError as e:
        raise _undersampled(cfg, sampler, xs, ks, str(e)) from None
    curve, labels = _airy_curve(cfg.x0), np.array([r.value for r in RegionLabel])

    def columns(rows: slice):  # the table's rows for x-rows `rows`, row-major over (x, k)
        x, k = xs[rows, None], ks[None, :]
        numeric = wigner_numeric(sampler, xs[rows], ks, policy).values
        w_exact = wigner_exact_airy(x, k, cfg.epsilon, cfg.x0)
        w_comb = combined_wkb_wigner(x, k, cfg.epsilon, cfg.x0)
        w_semi = semiclassical_wigner_uniform(curve, x, k, cfg.epsilon)
        region = _region_codes(x, k)  # n_real: branch 1's real points where k >= 0, else 2's
        n_real = _N_REAL[_row_codes(np.where(ks >= 0.0, 1, 2), k, region)]
        return [np.ravel(c) for c in (
            np.repeat(xs[rows], cfg.nk), np.tile(ks, x.size), labels[region], n_real,
            w_exact, w_comb, numeric, w_semi, numeric - w_exact, w_semi - w_exact,
        )]

    header = (
        "x", "k", "region", "n_stationary",
        "w_exact", "w_combined", "w_numeric", "w_semiclassical",
        "diff_numeric", "diff_semiclassical",
    )
    return [("wigner", header, map(columns, _row_blocks(cfg.nx, cfg.nk)))]


# ---------------------------------------------------------------------------
# validation suite

@dataclass(frozen=True)
class Leg:
    """One bound of a criterion: it holds when `value` `sense` `bound`."""

    name: str
    value: float
    bound: float
    sense: str = "<="  # or "<", ">="

    @property
    def passed(self) -> bool:
        return {"<=": self.value <= self.bound, "<": self.value < self.bound,
                ">=": self.value >= self.bound}[self.sense]

    @property
    def margin(self) -> float:
        """Relative headroom, positive while the leg holds; NaN for a zero bound."""
        room = self.value - self.bound if self.sense == ">=" else self.bound - self.value
        return room / self.bound if self.bound != 0 else math.nan


@dataclass(frozen=True)
class CriterionResult:
    """A criterion passes when each of its legs does; its metric, threshold and
    margin are its first leg's."""

    id: int
    name: str
    legs: Tuple[Leg, ...]
    detail: str = ""
    seconds: float = math.nan  # set by run_validation: the check's wall time

    @property
    def passed(self) -> bool:
        return all(leg.passed for leg in self.legs)

    @property
    def metric(self) -> float:
        return self.legs[0].value

    @property
    def threshold(self) -> float:
        return self.legs[0].bound

    @property
    def margin(self) -> float:
        return self.legs[0].margin


# each criterion's name by id, read by its check and by run_validation's crash entry
_NAMES = dict(enumerate((
    "surgery identity", "end-to-end wignerization", "fundamental-solution quadrature",
    "k-moments", "stationary-point tables", "uniform stationary-phase engine",
    "uniform caustic field", "first-order convergence", "phase-space transport residual",
    "ray tracing", "special functions"), start=1))


def check_surgery_identity() -> CriterionResult:
    """Combined fold form vs the exact closed-form Wigner transform."""
    xs = np.linspace(0.05, 1.9, 200)
    ks = np.linspace(-1.6, 1.6, 200)
    exact = wigner_exact_airy(xs[:, None], ks[None, :], 0.05, 2.0)
    comb = combined_wkb_wigner(xs[:, None], ks[None, :], 0.05, 2.0)
    legs = (Leg("max |combined - exact|", float(np.max(np.abs(comb - exact))), 1e-12),)
    return CriterionResult(1, _NAMES[1], legs, "200x200 grid")


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
    |k^2 - x| <= 5 eps^{2/3}.  Every sigma node keeps x +- sigma inside the
    sampler's support, so the field is only evaluated where it is defined."""
    sampler = WaveFunctionSampler(
        lambda u: _wkb_field(u, epsilon, _BAND_X0), (_BAND_CUT, _BAND_X0), epsilon
    )
    grid = wigner_numeric(sampler, _BAND_XS, _BAND_KS, _BAND_POLICY)
    comb = combined_wkb_wigner(
        _BAND_XS[:, None], _BAND_KS[None, :], epsilon, _BAND_X0
    )
    band = np.abs(_BAND_KS[None, :] ** 2 - _BAND_XS[:, None]) <= 5.0 * epsilon ** (2.0 / 3.0)
    return float(
        np.max(np.abs(grid.values - comb) * band) / np.max(np.abs(comb[band]))
    )


def check_band_wignerization() -> CriterionResult:
    coarse = band_comparison_metric(0.05)
    legs = (Leg("eps=0.05 band", coarse, 5e-2),
            Leg("eps=0.025 band", band_comparison_metric(0.025), coarse, "<"))
    return CriterionResult(2, _NAMES[2], legs)


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
    rel = float(np.max(np.abs(grid.values - exact)[mask] / np.abs(exact)[mask]))
    legs = (Leg("masked rel deviation", rel, 5e-3),)
    return CriterionResult(3, _NAMES[3], legs, f"{int(mask.sum())} masked points")


def check_k_moments() -> CriterionResult:
    """k-moments of the recombined profile on a symmetric grid: the zeroth
    against its closed form, the first (an odd integrand) against 0."""
    eps, x0 = 0.1, 2.0
    xs = np.linspace(0.2, 1.5, 14)
    ks = np.linspace(-3.0, 3.0, 2401)
    g = PhaseSpaceGrid(xs, ks, combined_wkb_wigner(xs[:, None], ks[None, :], eps, x0), eps)
    ref = k_integral_amplitude(xs, eps, x0)
    rel = float(np.max(np.abs(wigner_moment0(g) - ref) / np.abs(ref)))
    legs = (Leg("zeroth moment rel", rel, 1e-4),
            Leg("max flux", float(np.max(np.abs(wigner_moment1(g)))), 1e-10))
    return CriterionResult(4, _NAMES[4], legs)


# criterion 05's draws of (x, k), its bound on the stationary-point residual
# |F_sigma|, and its bracket half-widths over max(1, |sigma|), from a few dozen
# doubles up
_DRAWS = 10000
_ROOT_RESIDUAL = 1e-10
_BRACKETS = (1e-14, 1e-12, 1e-9, 1e-6, 1e-3, 1e-2, 0.1)


def _verify_by_root_finding(a, b, x, k, sigma):
    """Independently confirm tabulated stationary points: bracket the phase gradient
    around each, bisect, and return the residual at each located root (inf where the
    root drifts off the table value); (a, b) is the sign pair of the points' branch.
    Brackets grow through the _BRACKETS levels inside the window [-x, x], each level on
    the points still unbracketed, whose new brackets are bisected as a group.  Points
    left without a bracket report the residual at the table value.  Where one double
    moves F_sigma by a step above the bound (|F_sigmasigma| spacing(sigma), next to the
    window edge, where F_sigma has a sqrt(x - sigma) term), |F_sigma| is scaled by the
    bound over the step.  The limit: sigma is bisected in doubles, so a root within a
    double of the edge is not resolved, and a bisection ending on the edge reads 0."""
    def gradient(at):  # F_sigma of the points `at`, as a function of their sigma
        return lambda s, x=x[at], k=k[at]: _phase_s(a, b, x + s, x - s, k)

    scale = np.maximum(1.0, np.abs(sigma))
    point = sigma.copy()
    drift = np.zeros(sigma.shape, dtype=bool)
    left = np.arange(sigma.size)  # the points still unbracketed
    for widen in _BRACKETS:
        if not left.size:
            break
        f, s, w, xl = gradient(left), sigma[left], widen * scale[left], x[left]
        lo, hi = np.maximum(s - w, -xl), np.minimum(s + w, xl)
        flo, fhi = f(lo), f(hi)
        new = flo * fhi < 0
        at = left[new]
        root = bisect_brackets(gradient(at), lo[new], hi[new], flo[new], fhi[new])
        point[at] = root
        drift[at] = np.abs(root - sigma[at]) > 1e-7 * scale[at]
        left = left[~new]
    window = x + point, x - point
    step = np.abs(_phase_ss(a, b, *window, k)) * np.spacing(np.abs(point))
    residual = np.abs(_phase_s(a, b, *window, k)) / np.maximum(1.0, step / _ROOT_RESIDUAL)
    return np.where(drift, np.inf, residual)


def check_stationary_tables(seed: int = 20240911) -> CriterionResult:
    rng = np.random.default_rng(seed)
    xs = 0.05 + 3.95 * rng.random(_DRAWS)
    ks = rng.uniform(-2.2, 2.2, _DRAWS)
    # the real simple points of each branch, root-verified a branch at a time
    worst, count = 0.0, 0
    for index in (1, 2, 3, 4):
        try:
            table = stationary_table(index, xs, ks)
        except RuntimeError as e:
            legs = (Leg("root residual", math.inf, _ROOT_RESIDUAL),)
            return CriterionResult(5, _NAMES[5], legs, f"error: {e}")
        curv = table.curvatures
        simple = (table.locations.imag == 0.0) & np.isfinite(curv) & (curv != 0.0)
        draw, sigma = np.nonzero(simple)[0], table.locations.real[simple]
        del table, curv, simple  # before the root search
        res = _verify_by_root_finding(*_SIGNS[index - 1], xs[draw], ks[draw], sigma)
        worst, count = max(worst, float(np.max(res, initial=0.0))), count + draw.size
    legs = (Leg("root residual", worst, _ROOT_RESIDUAL),)
    return CriterionResult(5, _NAMES[5], legs,
                           f"{count} real points root-verified over {_DRAWS} draws")


def check_cfu_engine() -> CriterionResult:
    xi = np.linspace(0.0, 4.0, 17)
    worst = 0.0
    for lam in (10.0, 100.0):
        got = cfu_eval(CfuCoefficients(0.0, xi, 1.0, 0.0), lam)
        ref = 2.0 * math.pi * lam ** (-1.0 / 3.0) * airy_ai(-(lam ** (2.0 / 3.0)) * xi)
        denom = np.maximum(np.abs(ref), lam ** (-1.0 / 3.0))
        worst = max(worst, float(np.max(np.abs(got - ref) / denom)))
    legs = (Leg("rel deviation", worst, 1e-6),)
    return CriterionResult(6, _NAMES[6], legs, "canonical cubic, lam in {10, 100}")


def check_kl_uniformization() -> CriterionResult:
    x0 = 2.0
    xs = np.linspace(0.05, 1.95, 39)
    eps = 0.05
    u_kl = _airy_kl_field(xs, eps, x0)
    inner = airy_inner_approx(xs, x0, eps)
    identity = float(np.max(np.abs(u_kl - inner)) / np.max(np.abs(inner)))

    window = np.linspace(0.8, 1.2, 41)
    devs = []
    for e in (0.1, 0.05, 0.025):
        kl_vals = _airy_kl_field(window, e, x0)
        wkb_vals = _wkb_field(window, e, x0)
        devs.append(float(np.max(np.abs(kl_vals - wkb_vals)) / np.max(np.abs(kl_vals))))
    legs = (Leg("identity rel", identity, 1e-12),
            Leg("far field eps=0.05", devs[1], devs[0], "<"),
            Leg("far field eps=0.025", devs[2], devs[1], "<"))
    return CriterionResult(7, _NAMES[7], legs)


def check_wkb_convergence() -> CriterionResult:
    x0 = 2.0
    xs = np.linspace(0.5, 1.8, 200)
    errs = []
    for eps in (0.1, 0.05, 0.025):
        u_wkb = _wkb_field(xs, eps, x0)
        u_ref = airy_greens(xs, x0, eps)
        errs.append(float(np.max(np.abs(u_wkb - u_ref)) / np.max(np.abs(u_ref))))
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    legs = (Leg("halving ratio offset", max(abs(r1 - 2.0), abs(r2 - 2.0)), 0.4),)
    return CriterionResult(8, _NAMES[8], legs, f"halving ratios {r1:.2f}, {r2:.2f}")


def check_liouville_order() -> CriterionResult:
    eps, x0 = 0.1, 2.0
    xs, ks = np.linspace(0.3, 1.7, 401), np.linspace(-1.2, 1.2, 401)
    w = np.empty((xs.size, ks.size))
    for rows in _row_blocks(xs.size, ks.size):
        w[rows] = wigner_exact_airy(xs[rows, None], ks[None, :], eps, x0)
    # every grid spans xs, so one probe on it is the one the whole-grid residual makes
    prof, errs = airy_profile(), []
    _check_transport_closure(prof, xs[0], xs[-1])
    # linspace puts the 101- and 201-node grids on every 4th and 2nd node
    for step in (4, 2, 1):
        sx, sk, sw = xs[::step], ks[::step], w[::step, ::step]
        # the largest residual over slabs of interior rows, each with a halo row either side
        slabs = (slice(rows.start, rows.stop + 2) for rows in _row_blocks(sx.size - 2, sk.size))
        errs.append(max(float(np.max(np.abs(_transport_residual(prof, sx[r], sk, sw[r]))))
                        for r in slabs))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    legs = (Leg("observed order", min(orders), 1.9, ">="),)
    return CriterionResult(9, _NAMES[9], legs, f"observed orders {orders[0]:.2f}, {orders[1]:.2f}")


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

    # the layer caustic is where the ray turns: k_z = 0 at t* = 2 eta0 cos(psi)/mu1
    p = LinearLayerParams(mu0=1.0, mu1=2.0, h=1.0, psi=0.35)
    t_star = 2.0 * p.eta0 * math.cos(p.psi) / p.mu1
    depth = linear_layer_caustic_depth(p)
    depth_err = abs(linear_layer_ray(t_star, 0.0, p)[1] - depth)
    legs = (Leg("hamiltonian drift", drift, 1e-9),
            Leg("caustic offset", t_err, 1e-6),
            Leg("depth offset", depth_err, 1e-12 * max(1.0, abs(depth))))
    steps = "%d/%d (drift), %d/%d (caustic)" % (*path.steps, *touches.steps)
    return CriterionResult(10, _NAMES[10], legs, f"accepted/rejected steps {steps}")


def check_special_functions() -> CriterionResult:
    """Wronskian on [-100, 30], which spans the central table and both
    asymptotic tails, and the Gamma-function values at the origin.

    The full acceptance criterion also compares against an extended
    precision series oracle; that table lives with the test suite, so the
    self-contained run checks the two closed-form routes instead."""
    zs = np.linspace(-100.0, 30.0, 1301)
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
    legs = (Leg("wronskian", wronskian, 1e-10),
            Leg("origin values rel", max(abs(a - b) / abs(b) for a, b in refs), 1e-12))
    return CriterionResult(11, _NAMES[11], legs)


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

# criterion id -> its wall-clock gate in seconds, a last leg "seconds" < gate
_GATES = {1: 5.0, 2: 60.0}


def run_validation(seed: int = 20240911) -> List[CriterionResult]:
    """Run all validation checks; a crash in one check becomes a failure
    entry rather than aborting the rest.  Each result carries the wall
    time of its check, which a gated criterion's last leg bounds."""
    results = []
    for check in _CHECKS:
        started = time.perf_counter()
        try:
            result = check(seed=seed) if check is check_stationary_tables else check()
        except Exception as e:  # noqa: BLE001 - reported, not swallowed
            ident, legs = _CHECKS.index(check) + 1, (Leg("error", math.inf, math.nan),)
            result = CriterionResult(ident, _NAMES[ident], legs, f"error: {e}")
        seconds = time.perf_counter() - started
        gate = (Leg("seconds", seconds, _GATES[result.id], "<"),) if result.id in _GATES else ()
        results.append(dataclasses.replace(result, legs=result.legs + gate, seconds=seconds))
    return results


def cmd_validate(cfg: RunConfig, started: float) -> int:
    results = run_validation(seed=cfg.seed)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(
            f"criterion {r.id:02d} {status} {r.name}: "
            f"metric={r.metric:.3e} threshold={r.threshold:.3e}"
            + (f" ({r.detail})" if r.detail else "")
        )
    report = {
        "config": dataclasses.asdict(cfg),
        "version": __version__,
        "duration_seconds": time.time() - started,
        "all_passed": all(r.passed for r in results),
        # each criterion's fields, its first leg's numbers, and each leg with its margin
        "criteria": [{**dataclasses.asdict(r), "passed": r.passed, "metric": r.metric,
                      "threshold": r.threshold, "margin": r.margin,
                      "legs": [{**vars(leg), "margin": leg.margin} for leg in r.legs]}
                     for r in results],
    }
    _write_json_atomic(os.path.join(cfg.out, "validate_report.json"), report)
    return 0 if report["all_passed"] else 1


# ---------------------------------------------------------------------------
# argument parsing

def _add_run_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="key=value configuration file")
    for key in _OPTIONS:  # as text: merge_config converts every value
        sp.add_argument(f"--{key.replace('_', '-')}", dest=key)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="foldoptics",
        description="Fold-caustic wave fields and their phase-space transforms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the run flags are declared once and copied into every subcommand
    common = argparse.ArgumentParser(add_help=False)
    _add_run_flags(common)
    descriptions = {
        "rays": "export ray fans, Jacobians and caustic locations",
        "field": "export WKB, uniform-Airy and fundamental fields on a grid",
        "wigner": "export exact, combined, numeric and semiclassical Wigner grids",
        "validate": "run the validation suite and write a JSON report",
    }
    for name, text in descriptions.items():
        sub.add_parser(name, help=text, description=text, parents=[common])
    return parser


_COMMANDS = {"rays": cmd_rays, "field": cmd_field, "wigner": cmd_wigner}


def _make_out(path: str) -> None:
    """Make the output directory, or raise a usage error."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise ConfigError("out", f"cannot create {path}: {e.strerror}") from None


def main(argv: Optional[Sequence[str]] = None) -> int:
    started = time.time()
    args = build_parser().parse_args(argv)
    try:  # every usage error is raised before the output directory is made
        cfg = merge_config(args)
        tables = None if args.command == "validate" else _COMMANDS[args.command](cfg)
        _make_out(cfg.out)
    except ConfigError as e:
        print(f"usage error: {e.field}: {e}", file=sys.stderr)
        return 2
    if args.command == "validate":
        return cmd_validate(cfg, started)
    _write_tables(cfg, args.command, tables, started)
    return 0


if __name__ == "__main__":
    sys.exit(main())
