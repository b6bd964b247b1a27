"""Command-line interface: config handling, exports, manifests, validate."""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import pathlib
import re
import tempfile
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import foldoptics.cli as cli
import foldoptics.rays as rays
from foldoptics.cli import ConfigError, CriterionResult, Leg, RunConfig, main, merge_config
from foldoptics.rays import airy_profile, find_caustic, linear_layer_caustic_depth
from foldoptics.surgery import REGION_TOL, RegionLabel, stationary_table
from foldoptics.wkb import (
    CausticZoneWarning,
    airy_greens,
    airy_inner_approx,
    airy_wkb_field,
    linear_layer_phases,
)


def read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


# -- configuration ----------------------------------------------------------


def test_config_file_overrides_defaults_and_flags_win(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# airy run\nepsilon = 0.07\nnx = 12   # inline comment\n\nformat=json\n"
    )
    rc = main(
        ["field", "--config", str(cfg_file), "--nx", "16", "--out", str(tmp_path / "o")]
    )
    assert rc == 0
    manifest = json.loads((tmp_path / "o" / "field_manifest.json").read_text())
    assert manifest["config"]["epsilon"] == 0.07
    assert manifest["config"]["nx"] == 16
    assert manifest["config"]["format"] == ["json"]
    assert not (tmp_path / "o" / "field.csv").exists()
    assert (tmp_path / "o" / "field.json").exists()


@pytest.mark.parametrize(
    "line, field",
    [
        ("epsilon 0.1", "config"),
        ("epsilon=abc", "epsilon"),
        ("nx=2.5", "nx"),
        ("wavelength=3", "wavelength"),
        ("x0 = inf", "x0"),
        ("tmax=x", "tmax"),
        ("seed=1.5", "seed"),
    ],
)
def test_config_file_diagnostics_name_the_field(tmp_path, capsys, line, field):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(line + "\n")
    out = tmp_path / "out"
    rc = main(["field", "--config", str(cfg_file), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {field}:")
    assert not out.exists()
    if "=" in line and field != "wavelength":
        # the same value as a flag is converted by the same code: the same message
        key, value = (part.strip() for part in line.split("="))
        assert main(["field", f"--{key}", value, "--out", str(out)]) == 2
        assert capsys.readouterr().err == err
        assert not out.exists()


def test_missing_config_file_is_a_usage_error(tmp_path, capsys):
    rc = main(["field", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 2
    assert "usage error: config:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, field",
    [
        (["wigner", "--epsilon", "-0.1"], "epsilon"),
        (["wigner", "--nx", "4"], "nx"),
        (["wigner", "--xmin", "2.0", "--xmax", "1.0"], "xmin"),
        (["rays", "--scenario", "bogus"], "scenario"),
        (["wigner", "--taper-fraction", "0.7"], "taper_fraction"),
        (["wigner", "--format", "csv,yaml"], "format"),
        (["wigner", "--scenario", "linear_layer"], "scenario"),
        (["wigner", "--xmin", "-0.5", "--xmax", "1.0"], "xmin"),
        (["rays", "--scenario", "linear_layer", "--psi", "0"], "psi"),
        (["field", "--scenario", "linear_layer", "--psi", "0"], "psi"),
        (["wigner", "--sigma-samples", "1025"], "sigma_samples"),
        (["rays", "--tmin", "10"], "tmin"),
        (["rays", "--scenario", "linear_layer", "--tmin", "10"], "tmin"),
        # a bound pair's refusal names the bound that moved from its default
        (["field", "--xmax=-1"], "xmax"),
        (["wigner", "--kmax=-1e6"], "kmax"),
        (["rays", "--tmax", "0"], "tmax"),
        (["wigner", "--xmin", "-1"], "xmin"),
    ],
)
def test_invariant_violations_exit_2_with_field_name(capsys, tmp_path, argv, field):
    # the refusals a command makes itself (tmin, the wigner scenario, xmin,
    # sigma_samples) come before the output directory too: none is made
    rc = main(argv + ["--out", str(tmp_path / "a" / "b")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {field}:")
    assert list(tmp_path.iterdir()) == []


# the first work of each: the criteria, and a wigner block's numeric transform
@pytest.mark.parametrize("command, work", [("validate", "run_validation"),
                                           ("wigner", "wigner_numeric")])
def test_uncreatable_out_is_a_usage_error_before_any_work(
    monkeypatch, capsys, tmp_path, command, work
):
    def never(*args, **kwargs):
        raise AssertionError(f"{work} ran")

    monkeypatch.setattr(cli, work, never)
    (tmp_path / "file").write_text("")
    assert main([command, "--out", str(tmp_path / "file" / "out")]) == 2
    assert capsys.readouterr().err.startswith("usage error: out:")


@pytest.mark.parametrize(
    "command, scenario",
    [("rays", "airy"), ("rays", "linear_layer"), ("field", "airy"), ("field", "linear_layer"),
     ("wigner", "airy")],
)
def test_exports_return_their_tables_and_create_nothing(tmp_path, command, scenario):
    cfg = RunConfig(scenario=scenario, nx=8, nk=8, nt=8, out=str(tmp_path / "out"))
    tables = getattr(cli, f"cmd_{command}")(cfg)
    # every block read, as the writer reads them
    rows = {name: sum(len(block[0]) for block in blocks) for name, _, blocks in tables}
    expected = {"rays": 16 if scenario == "airy" else 8, "field": 8, "wigner": 64}
    assert rows[command] == expected[command]
    assert list(tmp_path.iterdir()) == []


# tmax, default None, is the one float option without a float default
FLOAT_FIELDS = [
    f.name
    for f in dataclasses.fields(RunConfig)
    if isinstance(f.default, float) or f.default is None
]


@pytest.mark.parametrize("command", ["rays", "field", "wigner", "validate"])
def test_non_finite_floats_exit_2_with_field_name(monkeypatch, capsys, tmp_path, command):
    # a config that got past validation computes nothing here: no tables, no criteria
    if command == "validate":
        monkeypatch.setattr(cli, "run_validation", lambda seed: [])
    else:
        monkeypatch.setitem(cli._COMMANDS, command, lambda cfg: [])
    assert len(FLOAT_FIELDS) == 13
    for name in FLOAT_FIELDS:
        for value in ("nan", "inf", "-inf"):
            flag = f"--{name.replace('_', '-')}={value}"
            assert main([command, flag, "--out", str(tmp_path)]) == 2, flag
            assert capsys.readouterr().err.startswith(f"usage error: {name}:"), flag
    assert not any(tmp_path.iterdir())


def _float_columns(path):
    """A CSV file's numeric columns by name (the label columns left out)."""
    header, rows = read_csv(path)
    return {
        name: np.array(cells, dtype=float)
        for name, cells in zip(header, zip(*rows))
        if name not in ("ray_id", "region")
    }


def _cells_outside_the_nan_masks(columns, cfg):
    """The cells of an export that must be finite: each field column is NaN
    outside its domain, as the README says, and every other column is data."""
    x = columns.get("x", columns.get("z"))
    domains = {}
    if "wkb_re" in columns:
        domains.update(dict.fromkeys(("wkb_re", "wkb_im"), (0.0 < x) & (x < cfg.x0)))
        domains.update(dict.fromkeys(("kl_re", "kl_im"), x > 0.0))
    if "s_plus" in columns:
        layer = (linear_layer_caustic_depth(cfg.layer_params()) <= x) & (x <= cfg.h)
        domains.update(dict.fromkeys(("s_plus", "s_minus", "phi", "rho"), layer))
    return np.concatenate(
        [[]] + [c[domains[name]] if name in domains else c for name, c in columns.items()]
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", FLOAT_FIELDS)
@pytest.mark.parametrize(
    "command,scenario",
    [("wigner", "airy"), ("field", "airy"), ("field", "linear_layer"),
     ("rays", "airy"), ("rays", "linear_layer")],
)
def test_edge_and_huge_floats_exit_2_by_name_or_write_finite_data(
    capsys, tmp_path, command, scenario, name
):
    for value in ("0", "-1", "1e300"):
        out = tmp_path / value
        flag = f"--{name.replace('_', '-')}={value}"
        argv = [command, "--scenario", scenario, "--nx", "8", "--nk", "8", "--nt", "8", flag]
        rc = main(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        if rc == 2:
            # a bound shared by two fields (xmin < xmax) names both
            assert err.startswith("usage error: ") and re.search(rf"\b{name}\b", err), (flag, err)
            continue
        assert rc == 0, (flag, err)
        cfg = RunConfig(scenario=scenario, **{name: float(value)})
        for path in out.glob("*.csv"):
            cells = _cells_outside_the_nan_masks(_float_columns(path), cfg)
            assert np.all(np.isfinite(cells)), (flag, path.name)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=600, deadline=None)
@given(
    st.sampled_from([("rays", "airy"), ("rays", "linear_layer"), ("field", "airy"),
                     ("field", "linear_layer"), ("wigner", "airy")]),
    st.sampled_from(FLOAT_FIELDS),
    st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e6", "-1e6", "1e-300"]),
)
def test_one_edge_float_exits_0_with_finite_data_or_2_naming_it(case, name, value):
    # any subcommand, one float option at an edge value, on small grids: a run
    # writes no infinite cell and nothing non-finite outside the NaN masks, a
    # refusal names that option; nothing exits 1 or raises
    command, scenario = case
    flag = f"--{name.replace('_', '-')}={value}"
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err):
        rc = main([command, "--scenario", scenario, "--nx", "8", "--nk", "8", "--nt", "8",
                   flag, "--out", out])
        tables = [_float_columns(path) for path in pathlib.Path(out).glob("*.csv")]
    if rc == 2:
        assert err.getvalue().startswith(f"usage error: {name}:"), (flag, err.getvalue())
        return
    assert rc == 0 and tables, (flag, err.getvalue())
    cfg = RunConfig(scenario=scenario, **{name: float(value)})
    for columns in tables:
        assert not any(np.isinf(c).any() for c in columns.values()), flag
        assert np.all(np.isfinite(_cells_outside_the_nan_masks(columns, cfg))), flag


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv, code",
    [
        # Bi overflows to inf on the shadow side, where the Green's field reads Ai alone
        (["field", "--xmin=-1e6"], 0),
        # combined_wkb_wigner and the region codes are defined for x > 0 alone
        (["wigner", "--xmin=0"], 2),
        # no stage reads a power of x that overflows at the smallest doubles
        (["wigner", "--xmin=1e-300"], 0),
    ],
)
def test_tiny_and_deep_shadow_x_run_clean_or_exit_2_by_name(capsys, tmp_path, argv, code):
    assert main(argv + ["--nx", "8", "--nk", "8", "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert err.startswith("usage error: xmin: ") if code else err == ""
    for path in tmp_path.glob("*.csv"):
        cells = _cells_outside_the_nan_masks(_float_columns(path), RunConfig())
        assert np.all(np.isfinite(cells)), path.name


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["rays", "--no-such-flag"])
    assert exc.value.code == 2


def test_subcommands_share_every_run_flag(capsys):
    listed = {}
    for command in ("rays", "field", "wigner", "validate"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        listed[command] = set(re.findall(r"--[a-z][a-z0-9-]*", capsys.readouterr().out))
    flags = listed["rays"] - {"--help"}
    assert {"--config", "--out", "--seed", "--epsilon", "--nx", "--sigma-samples"} <= flags
    argv = [word for flag in sorted(flags) for word in (flag, "1")]
    for command, seen in listed.items():
        assert seen - {"--help"} == flags, command
        args = vars(cli.build_parser().parse_args([command] + argv))
        assert args.pop("command") == command
        assert len(args) == len(flags) and set(args.values()) == {"1"}, command  # every flag as text


def test_every_run_config_field_is_a_flag_and_a_config_key(tmp_path, capsys):
    # RunConfig's fields are the one list of run options: each is a flag of
    # every subcommand and a config-file key, by the same name
    keys = [f.name for f in dataclasses.fields(RunConfig)]
    flags = {"--config"} | {"--" + key.replace("_", "-") for key in keys}
    assert len(flags) == 22
    for command in ("rays", "field", "wigner", "validate"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        listed = set(re.findall(r"--[a-z][a-z0-9-]*", capsys.readouterr().out))
        assert listed - {"--help"} == flags, command
    # every key at its default (tmax has none), from a file or from flags
    want = RunConfig(tmax=5.0, out=str(tmp_path))
    text = {key: str(getattr(want, key)) for key in keys}
    text["format"] = "csv"
    (tmp_path / "all.cfg").write_text("".join(f"{k} = {v}\n" for k, v in text.items()))
    argvs = (["--config", str(tmp_path / "all.cfg")],
             [word for k, v in text.items() for word in ("--" + k.replace("_", "-"), v)])
    for argv in argvs:
        cfg = merge_config(cli.build_parser().parse_args(["rays"] + argv))
        assert cfg == want
        assert [type(v) for v in vars(cfg).values()] == [type(v) for v in vars(want).values()]
    (tmp_path / "bad.cfg").write_text("wavelength=3\n")
    assert main(["rays", "--config", str(tmp_path / "bad.cfg"), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("usage error: wavelength:")
    with pytest.raises(SystemExit) as exc:  # argparse refuses unknown flags
        main(["rays", "--wavelength", "3"])
    assert exc.value.code == 2
    for argv, err in ((["--nx", "2.5"], "nx: expected an integer, got '2.5'"),
                      (["--epsilon", "abc"], "epsilon: expected a number, got 'abc'")):
        capsys.readouterr()
        assert main(["rays", "--out", str(tmp_path / "no")] + argv) == 2  # merge_config refuses bad values
        assert capsys.readouterr().err == f"usage error: {err}\n"


def test_run_config_validate_direct():
    cfg = RunConfig(sigma_samples=6)
    with pytest.raises(ConfigError) as exc:
        cfg.validate()
    assert exc.value.field == "sigma_samples"


# -- rays -------------------------------------------------------------------


def test_rays_airy_outputs_and_caustic(tmp_path):
    out = tmp_path / "rays"
    assert main(["rays", "--out", str(out), "--nt", "64", "--x0", "2.0"]) == 0
    header, rows = read_csv(out / "rays.csv")
    assert header == ["ray_id", "t", "x", "k", "jacobian"]
    assert len(rows) == 2 * 64
    # the down ray's Jacobian vanishes at the fold time t = 2 sqrt(x0)
    _, c_rows = read_csv(out / "caustics.csv")
    t_c, x_c = float(c_rows[0][1]), float(c_rows[0][2])
    assert abs(t_c - 2.0 * math.sqrt(2.0)) < 1e-6
    assert abs(x_c) < 1e-6


def test_rays_negative_window_lists_the_up_touch(tmp_path):
    out = tmp_path / "negative"
    assert main(["rays", "--tmin", "-5", "--tmax", "-0.5", "--out", str(out)]) == 0
    _, c_rows = read_csv(out / "caustics.csv")
    assert [row[0] for row in c_rows] == ["up"]
    assert float(c_rows[0][1]) == pytest.approx(-2.0 * math.sqrt(2.0), abs=1e-15)
    assert float(c_rows[0][2]) == 0.0


def test_rays_default_window_touch_matches_find_caustic(tmp_path):
    out = tmp_path / "default"
    assert main(["rays", "--out", str(out)]) == 0
    _, c_rows = read_csv(out / "caustics.csv")
    assert [row[0] for row in c_rows] == ["down"]
    (t_ode, x_ode), = find_caustic(airy_profile(), 2.0, -math.sqrt(2.0), 3.0 * math.sqrt(2.0))
    assert abs(float(c_rows[0][1]) - t_ode) <= 1e-8
    assert abs(float(c_rows[0][2]) - x_ode) <= 1e-8


def test_rays_layer_caustic_depth(tmp_path):
    out = tmp_path / "layer"
    rc = main(
        ["rays", "--scenario", "linear_layer", "--out", str(out),
         "--mu0", "1.0", "--mu1", "2.0", "--h", "1.0", "--psi", "0.35"]
    )
    assert rc == 0
    _, c_rows = read_csv(out / "caustics.csv")
    eta0 = math.sqrt(1.0 + 2.0 * 1.0)
    depth = 1.0 - (eta0 * math.cos(0.35)) ** 2 / 2.0
    assert float(c_rows[0][4]) == depth
    assert abs(float(c_rows[0][3]) - depth) < 1e-12


# -- field ------------------------------------------------------------------


def test_field_airy_columns(tmp_path):
    out = tmp_path / "field"
    rc = main(
        ["field", "--out", str(out), "--nx", "16", "--xmin", "0.2", "--xmax", "2.5"]
    )
    assert rc == 0
    header, rows = read_csv(out / "field.csv")
    assert header[:3] == ["x", "wkb_re", "wkb_im"]
    assert len(rows) == 16
    # beyond the source the two-branch field is not defined, the rest are
    last = rows[-1]
    assert last[1] == "nan"
    assert all(math.isfinite(float(v)) for v in last[5:])


def test_field_layer_masks_shadow(tmp_path):
    out = tmp_path / "field"
    rc = main(
        ["field", "--scenario", "linear_layer", "--out", str(out),
         "--xmin", "-0.5", "--xmax", "1.0", "--nx", "31"]
    )
    assert rc == 0
    header, rows = read_csv(out / "field.csv")
    assert header == ["z", "s_plus", "s_minus", "phi", "rho"]
    depth = 1.0 - (math.sqrt(3.0) * math.cos(0.35)) ** 2 / 2.0
    for row in rows:
        z = float(row[0])
        finite = math.isfinite(float(row[1]))
        assert finite == (depth <= z <= 1.0)


# -- wigner -----------------------------------------------------------------


def test_wigner_row_count_and_identity_columns(tmp_path):
    out = tmp_path / "wig"
    rc = main(["wigner", "--out", str(out), "--nx", "12", "--nk", "9",
               "--sigma-samples", "512"])
    assert rc == 0
    header, rows = read_csv(out / "wigner.csv")
    assert len(rows) == 12 * 9
    cols = {name: i for i, name in enumerate(header)}
    for row in rows:
        assert row[cols["region"]] in (
            "Exterior", "OnManifold", "Between", "OnConjugate", "Interior"
        )
        assert int(row[cols["n_stationary"]]) in (0, 1, 2)
        diff = abs(float(row[cols["w_exact"]]) - float(row[cols["w_combined"]]))
        assert diff <= 1e-12


def test_wigner_undersampling_is_usage_error(tmp_path, capsys):
    rc = main(["wigner", "--out", str(tmp_path), "--sigma-samples", "16"])
    assert rc == 2
    assert "usage error: sigma_samples:" in capsys.readouterr().err


def test_wigner_numeric_column_tracks_exact(tmp_path):
    out = tmp_path / "wig"
    rc = main(["wigner", "--out", str(out), "--nx", "10", "--nk", "17",
               "--xmin", "0.4", "--xmax", "1.6", "--kmin", "-1.4",
               "--kmax", "1.4", "--sigma-samples", "1024"])
    assert rc == 0
    header, rows = read_csv(out / "wigner.csv")
    cols = {name: i for i, name in enumerate(header)}
    w = np.array([float(r[cols["w_exact"]]) for r in rows])
    d = np.array([float(r[cols["diff_numeric"]]) for r in rows])
    assert np.max(np.abs(d)) <= 5e-3 * np.max(np.abs(w))


def test_wigner_default_export_between_cells_match_exact(tmp_path):
    # between the parabolas the uniform chord form is exact, also next to the
    # conjugate parabola x = 2k^2 (x/2 < k^2 < 0.656x)
    out = tmp_path / "wig"
    assert main(["wigner", "--out", str(out)]) == 0
    header, rows = read_csv(out / "wigner.csv")
    cols = {name: i for i, name in enumerate(header)}
    w = np.array([float(r[cols["w_exact"]]) for r in rows])
    d = np.array([float(r[cols["diff_semiclassical"]]) for r in rows])
    between = np.array([r[cols["region"]] == "Between" for r in rows])
    x = np.array([float(r[cols["x"]]) for r in rows])
    k = np.array([float(r[cols["k"]]) for r in rows])
    assert np.sum(between & (k * k < 0.656 * x)) > 200
    assert np.max(np.abs(d[between])) <= 1e-12 * np.max(np.abs(w))
    # and so is every other cell: the chord form inside x = k^2, the
    # momentum fold outside it
    assert np.max(np.abs(d)) <= 1e-12 * np.max(np.abs(w))


def test_wigner_default_export_bisects_nothing(tmp_path, monkeypatch):
    # the chords of X = p^2 come from Newton's first confirming step
    calls = []
    for module in (cli, rays):
        bisect = module.bisect_brackets
        monkeypatch.setattr(
            module, "bisect_brackets", lambda *a, f=bisect: calls.append(1) or f(*a)
        )
    assert main(["wigner", "--out", str(tmp_path)]) == 0
    assert calls == []


@pytest.mark.parametrize(
    "flag, field",
    [
        ("--epsilon=1e-300", "epsilon"),
        ("--xmax=1e6", "xmax"),
        ("--kmin=-1e6", "kmin"),
        ("--kmax=1e6", "kmax"),
    ],
)
def test_wigner_undersampling_names_the_option_that_raised_the_count(
    tmp_path, capsys, flag, field
):
    # no sigma_samples up to the largest accepted one samples these grids
    assert main(["wigner", flag, "--nx", "8", "--nk", "8", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {field}: sigma-quadrature undersampled"), err
    assert err.rstrip().endswith(f"; more than {cli._MAX_SIGMA_SAMPLES} sigma_samples")


def test_sigma_samples_above_the_largest_accepted_is_a_usage_error(tmp_path, capsys):
    argv = ["wigner", "--sigma-samples", str(cli._MAX_SIGMA_SAMPLES + 2), "--out", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("usage error: sigma_samples: must be even and at most")


# -- manifests and determinism ----------------------------------------------


def test_a_failed_json_write_leaves_neither_file_nor_temp_file(tmp_path):
    # json.dump raises on the object after it has written part of the payload
    with pytest.raises(TypeError):
        cli._write_json_atomic(str(tmp_path / "r.json"), {"a": object()})
    assert list(tmp_path.iterdir()) == []


def test_manifest_checksums_match_files(tmp_path):
    out = tmp_path / "m"
    assert main(["wigner", "--out", str(out), "--nx", "8", "--nk", "8",
                 "--sigma-samples", "256", "--format", "csv,json"]) == 0
    manifest = json.loads((out / "wigner_manifest.json").read_text())
    assert manifest["version"]
    assert manifest["duration_seconds"] >= 0.0
    names = {o["path"] for o in manifest["outputs"]}
    assert names == {"wigner.csv", "wigner.json"}
    for entry in manifest["outputs"]:
        assert sha256(out / entry["path"]) == entry["sha256"]
        assert entry["rows"] == 64
    assert not list(out.glob("*.tmp"))


def _wigner_export(out, argv):
    """A csv,json wigner export's file bytes and manifest entries."""
    assert main(["wigner", *argv, "--format", "csv,json", "--out", str(out)]) == 0
    outputs = json.loads((out / "wigner_manifest.json").read_text())["outputs"]
    return {o["path"]: (out / o["path"]).read_bytes() for o in outputs}, outputs


@pytest.mark.parametrize("rows", [1, 4])
def test_wigner_row_blocks_keep_the_bytes_of_one_block(tmp_path, monkeypatch, rows):
    # 33 x-rows in blocks of 1 row, or of 4 with a last block of 1: the bytes,
    # sha256, rows and cells_fallback of one block; json's separators run
    # across the blocks
    argv = ["--nx", "33", "--nk", "17"]
    assert len(cli._row_blocks(33, 17)) == 1
    assert len(cli._row_blocks(64, 64)) == len(cli._row_blocks(8, 32)) == 1  # the defaults, the tile
    files, outputs = _wigner_export(tmp_path / "one", argv)
    assert [(o["rows"], o["cells_fallback"]) for o in outputs] == [(561, 238), (561, 0)]
    monkeypatch.setattr(cli, "_GRID_CELLS", rows * 17)
    assert [len(range(33)[b]) for b in cli._row_blocks(33, 17)][-2:] == [rows, 1]
    assert _wigner_export(tmp_path / "blocks", argv) == (files, outputs)


def test_tables_given_as_row_blocks_write_the_bytes_of_one_block(tmp_path):
    # uneven blocks, one of them empty, through both formats at once
    rng = np.random.default_rng(29)
    rows = 2 * (cli._GRID_CELLS // 3) + 5
    columns = (rng.choice(["down", "up"], rows), rng.integers(-9, 9, rows),
               np.exp(rng.uniform(-80.0, 5.0, rows)), rng.normal(size=rows))
    header = ("label", "n", "a", "b")
    cuts = (0, 1, 1, 700, rows)
    blocks = ([c[lo:hi] for c in columns] for lo, hi in zip(cuts, cuts[1:]))
    manifests = []
    for sub, table in (("one", [columns]), ("blocks", blocks)):
        cfg = RunConfig(out=str(tmp_path / sub), format=("csv", "json"))
        (tmp_path / sub).mkdir()  # main creates the directory before a command runs
        cli._write_tables(cfg, "test", [("table", header, table)], 0.0)
        manifests.append(json.loads((tmp_path / sub / "test_manifest.json").read_text())["outputs"])
    assert manifests[0] == manifests[1]
    assert manifests[0][0]["rows"] == rows and manifests[0][0]["cells_fallback"] > 0
    for name in ("table.csv", "table.json"):
        assert (tmp_path / "blocks" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


def test_one_block_of_columns_writes_the_pinned_table(tmp_path):
    # a table is an iterable of blocks: one block of text, int and float columns
    # writes these bytes and manifest entries, pinned by their digests
    columns = (np.array(["down", "up", "incident"]), np.array([3, -1, 0]),
               np.array([0.1, -0.0, 1e-300]), [2.0 / 3.0, math.nan, -1e20])
    cfg = RunConfig(out=str(tmp_path), format=("csv", "json"))
    cli._write_tables(cfg, "test", [("table", ("ray_id", "n", "x", "y"), [columns])], 0.0)
    assert (tmp_path / "table.csv").read_bytes() == (
        b"ray_id,n,x,y\ndown,3,0.10000000000000001,0.66666666666666663\n"
        b"up,-1,-0,nan\nincident,0,1e-300,-1e+20\n")
    outputs = json.loads((tmp_path / "test_manifest.json").read_text())["outputs"]
    assert outputs == [
        {"path": "table.csv", "rows": 3, "cells_fallback": 3,
         "sha256": "0585e3f1d2cb93d84f01b58b0843784aead1dc21a16889474a3d49c7b9903b43"},
        {"path": "table.json", "rows": 3, "cells_fallback": 0,
         "sha256": "d8179c99b80927ea622ade7d74e2a560cdbd94256873162554dd4dd114c40d31"},
    ]


@pytest.mark.parametrize("argv", [
    # all five regions, k = 0 exactly, cells on both parabolas and x = 1e-300
    ["--xmin", "1e-300", "--xmax", "2", "--nx", "9", "--kmin", "-1", "--kmax", "1", "--nk", "9"],
    # x = 1 and 2 a third of REGION_TOL off the parabolas, at k = -1 and 1
    ["--xmin", "0.99999999999966", "--xmax", "2.00000000000066", "--nx", "8",
     "--kmin", "-1", "--kmax", "1", "--nk", "8"],
], ids=["regions", "bands"])
def test_wigner_region_columns_equal_the_stationary_table(tmp_path, argv):
    # the export reads its region codes and counts; the table builds and checks the points
    assert main(["wigner", *argv, "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "wigner.csv")
    col = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    x, k = (np.array(col[name], dtype=float) for name in ("x", "k"))
    table = stationary_table(np.where(k >= 0.0, 1, 2), x, k)
    labels = np.array([r.value for r in RegionLabel])
    assert col["region"] == list(labels[table.region])
    assert col["n_stationary"] == [str(n) for n in table.n_real]
    if x[0] == 1e-300:
        assert set(col["region"]) == set(labels) and 0.0 in k
        (at,) = np.flatnonzero((x == 1e-300) & (k == 0.0))  # on the manifold, and no point
        assert (col["region"][at], col["n_stationary"][at]) == ("OnManifold", "0")
    else:
        off = np.abs(x - np.where(x < 1.5, 1.0, 2.0) * k * k)
        assert np.count_nonzero((0.0 < off) & (off <= REGION_TOL)) == 4


def test_wigner_failure_in_a_later_block_leaves_no_file(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_GRID_CELLS", 17)
    semiclassical, calls = cli.semiclassical_wigner_uniform, []

    def failing(*args):  # called once per block
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("third block")
        return semiclassical(*args)

    monkeypatch.setattr(cli, "semiclassical_wigner_uniform", failing)
    out = tmp_path / "w"
    with pytest.raises(RuntimeError, match="third block"):
        main(["wigner", "--nx", "8", "--nk", "17", "--format", "csv,json", "--out", str(out)])
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("rows", [None, 1])
def test_wigner_undersampled_later_row_is_refused_before_any_block(
    tmp_path, monkeypatch, capsys, rows
):
    # x > 0.55 needs more than 120 samples: the whole grid is checked first,
    # with the message of one wigner_numeric call on it
    if rows:
        monkeypatch.setattr(cli, "_GRID_CELLS", rows * 64)
    out = tmp_path / "w"
    assert main(["wigner", "--sigma-samples", "120", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "usage error: sigma_samples: sigma-quadrature undersampled at x = 0.557142857142857: "
        "120 samples < 121 required for k_max = 1.6, sigma_max = 2.95714, eps = 0.05\n")
    assert not out.exists()


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_wigner_export_memory_is_flat_in_nx(tmp_path):
    # 40 x-rows are one block, 400 rows four: the peak is one block's
    peaks = []
    for nx in ("40", "400"):
        argv = ["wigner", "--nx", nx, "--nk", "64", "--out", str(tmp_path / nx)]
        assert main(argv) == 0  # caches filled outside the trace
        peaks.append(_traced_peak(lambda: main(argv)))
    assert abs(peaks[1] - peaks[0]) < 2**20, peaks


@pytest.mark.parametrize(
    "argv",
    [
        ["wigner", "--nx", "9", "--nk", "11", "--sigma-samples", "512"],
        ["field", "--scenario", "airy", "--xmin", "-0.5", "--xmax", "2.5"],
        ["field", "--scenario", "linear_layer", "--xmin", "-0.5", "--xmax", "1.5"],
        ["rays", "--scenario", "airy"],
        ["rays", "--scenario", "linear_layer"],
        ["rays", "--scenario", "airy", "--tmax", "0.5"],
    ],
    ids=["wigner", "field-airy", "field-layer", "rays-airy", "rays-layer", "rays-airy-short"],
)
def test_identical_configs_are_byte_identical(tmp_path, argv):
    digests = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(argv + ["--format", "csv,json", "--out", str(out)]) == 0
        manifest = json.loads((out / f"{argv[0]}_manifest.json").read_text())
        assert {o["path"].rsplit(".", 1)[1] for o in manifest["outputs"]} == {"csv", "json"}
        for entry in manifest["outputs"]:
            assert sha256(out / entry["path"]) == entry["sha256"]
        digests.append(sorted((o["path"], o["sha256"]) for o in manifest["outputs"]))
    assert digests[0] == digests[1]


def test_rays_without_a_caustic_touch_write_an_empty_table(tmp_path):
    out = tmp_path / "short"
    assert main(["rays", "--tmax", "0.5", "--format", "csv,json", "--out", str(out)]) == 0
    assert (out / "caustics.csv").read_text() == "ray_id,t,x\n"
    assert json.loads((out / "caustics.json").read_text()) == {
        "columns": ["ray_id", "t", "x"], "rows": []
    }
    manifest = json.loads((out / "rays_manifest.json").read_text())
    rows = {o["path"]: o["rows"] for o in manifest["outputs"]}
    assert rows == {"rays.csv": 256, "rays.json": 256, "caustics.csv": 0, "caustics.json": 0}


def test_all_shadow_field_writes_nan_wkb_and_kl(tmp_path):
    out = tmp_path / "shadow"
    assert main(["field", "--xmin", "-1.0", "--xmax", "-0.1", "--nx", "8",
                 "--out", str(out)]) == 0
    header, rows = read_csv(out / "field.csv")
    cols = {name: i for i, name in enumerate(header)}
    assert len(rows) == 8
    for row in rows:
        for name in ("wkb_re", "wkb_im", "kl_re", "kl_im"):
            assert row[cols[name]] == "nan"
        for name in ("greens_re", "greens_im", "inner_re", "inner_im"):
            assert math.isfinite(float(row[cols[name]]))


def _field_columns(out):
    header, rows = read_csv(out / "field.csv")
    return {name: np.array([float(r[i]) for r in rows]) for i, name in enumerate(header)}


def test_field_suppresses_only_caustic_zone_warnings(tmp_path, monkeypatch):
    # cmd_field silences the expected CausticZoneWarning of its WKB call,
    # and nothing else
    wkb_field = cli.airy_wkb_field

    def noisy(*args):
        warnings.warn("caustic probe", CausticZoneWarning)
        warnings.warn("other probe", UserWarning)
        return wkb_field(*args)

    monkeypatch.setattr(cli, "airy_wkb_field", noisy)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["field", "--nx", "16", "--out", str(tmp_path)]) == 0
    messages = [str(w.message) for w in caught]
    assert "other probe" in messages
    assert "caustic probe" not in messages


def test_airy_field_export_matches_per_point_scalar_calls(tmp_path):
    # the array export against one scalar call per point, on the CLI's
    # default grid; the Airy kernel may round a tail value differently in
    # an array call, so the bound is relative to each field's peak
    assert main(["field", "--out", str(tmp_path)]) == 0
    c = _field_columns(tmp_path)
    cfg = RunConfig()
    scalar = {name: [] for name in ("wkb", "kl", "greens", "inner")}
    for x in map(float, c["x"]):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            scalar["wkb"].append(airy_wkb_field(x, cfg.epsilon, cfg.x0)
                                 if 0.0 < x < cfg.x0 else complex(math.nan, math.nan))
        scalar["kl"].append(cli._airy_kl_field(x, cfg.epsilon, cfg.x0)
                            if x > 0.0 else complex(math.nan, math.nan))
        scalar["greens"].append(airy_greens(x, cfg.x0, cfg.epsilon))
        scalar["inner"].append(airy_inner_approx(x, cfg.x0, cfg.epsilon))
    for name, values in scalar.items():
        want = np.array(values)
        got = c[f"{name}_re"] + 1j * c[f"{name}_im"]
        assert np.array_equal(np.isnan(got), np.isnan(want))
        live = ~np.isnan(want)
        peak = np.max(np.abs(want[live]))
        assert np.max(np.abs(got[live] - want[live])) <= 1e-13 * peak, name


def test_layer_field_export_matches_per_point_scalar_calls(tmp_path):
    assert main(["field", "--scenario", "linear_layer", "--nx", "50000",
                 "--out", str(tmp_path)]) == 0
    c = _field_columns(tmp_path)
    p = RunConfig().layer_params()
    z_c = linear_layer_caustic_depth(p)
    want = {name: np.full(c["z"].size, math.nan) for name in ("s_plus", "s_minus", "phi", "rho")}
    for i, z in enumerate(map(float, c["z"])):
        if z_c <= z <= p.h:
            s_plus, s_minus = linear_layer_phases(0.0, z, p)
            want["s_plus"][i], want["s_minus"][i] = s_plus, s_minus
            want["phi"][i] = 0.5 * (s_plus + s_minus)
            want["rho"][i] = (0.75 * (s_plus - s_minus)) ** (2.0 / 3.0)
    for name, values in want.items():
        assert np.array_equal(np.isnan(c[name]), np.isnan(values))
        live = ~np.isnan(values)
        assert 0 < np.count_nonzero(live) < values.size
        peak = np.max(np.abs(values[live]))
        assert np.max(np.abs(c[name][live] - values[live])) <= 1e-14 * peak, name


def test_csv_cells_carry_full_precision(tmp_path):
    out = tmp_path / "prec"
    assert main(["field", "--out", str(out), "--nx", "8",
                 "--xmin", "0.1", "--xmax", "0.9"]) == 0
    with open(out / "field.csv", "rb") as f:
        data = f.read()
    assert b"\r" not in data
    _, rows = read_csv(out / "field.csv")
    assert rows[0][0] == "0.10000000000000001"


def _csv_reference(header, columns):
    # the csv module with format(v, ".17g") per float cell is the reference
    ref = io.StringIO(newline="")
    writer = csv.writer(ref, lineterminator="\n")
    writer.writerow(header)
    for row in zip(*(np.asarray(c).tolist() for c in columns)):
        writer.writerow([format(v, ".17g") if isinstance(v, float) else str(v) for v in row])
    return ref.getvalue().encode()


def test_csv_writer_matches_csv_module_reference(tmp_path):
    rng = np.random.default_rng(11)
    rows = 3 * (cli._GRID_CELLS // 3) + 357  # three float columns: four blocks
    specials = [0.1, -0.0, 0.0, math.nan, -math.inf, 1e-300, 1e20, 1e15 + 0.25, 2.0 / 3.0]
    x = np.concatenate([specials, rng.uniform(-2.0, 2.0, rows - len(specials))])
    y = np.exp(rng.uniform(-80.0, 50.0, rows)) * rng.choice([-1.0, 1.0], rows)
    tables = [
        ("table", ("a", "b", "c", "d"), (
            np.array(["down", "up", "up"]), np.array([3, -1, 0]),
            np.array([0.1, -0.0, math.nan]), [1e-300, math.inf, 2.0 / 3.0])),
        ("blocks", ("label", "count", "x", "y", "z"), (
            rng.choice(["incident", "Between", "up"], rows),
            rng.integers(-(2**63), 2**63 - 1, rows, endpoint=True), x, y, np.linspace(0.1, 1.9, rows))),
        ("empty", ("ray_id", "t"), ((), ())),
    ]
    cfg = RunConfig(out=str(tmp_path), format=("csv",))
    blocks = [(name, header, [columns]) for name, header, columns in tables]
    cli._write_tables(cfg, "test", blocks, 0.0)
    for name, header, columns in tables:
        assert (tmp_path / f"{name}.csv").read_bytes() == _csv_reference(header, columns), name
    assert (tmp_path / "empty.csv").read_bytes() == b"ray_id,t\n"


def test_csv_blocks_rewrite_every_cell_of_the_shared_frame(tmp_path):
    # float runs (x, k) and (a, b, c) around a label and an int column, as in the
    # wigner table; the full first block holds long cells, the partial last block
    # short ones at the same row positions
    step = cli._GRID_CELLS // 5
    rows = step + 200
    long_cells = [1e-300, -0.0, math.nan, 1e15 + 0.25, -math.inf, -1.2345678901234567e-200]
    long_cells += _decimal_ties(np.random.default_rng(5))[:20]
    x = np.resize(long_cells, rows)
    x[step:] = 0.5
    label = np.full(rows, "up", dtype="U31")
    label[:step] = "n" * 31
    count = np.zeros(rows, dtype=np.int64)
    count[:step] = -(2**63)
    columns = (x, -x, label, count, 4.0 * x, -x, x / 3.0)
    header = ("x", "k", "label", "count", "a", "b", "c")
    cfg = RunConfig(out=str(tmp_path), format=("csv",))
    cli._write_tables(cfg, "test", [("table", header, [columns])], 0.0)
    data = (tmp_path / "table.csv").read_bytes()
    assert data == _csv_reference(header, columns)
    assert data.endswith(b"\n0.5,-0.5,up,0,2,-0.5,0.16666666666666666\n")


def test_json_tables_match_one_json_dump(tmp_path):
    rows = 3 * (cli._GRID_CELLS // 4) + 17  # four columns: four blocks
    rng = np.random.default_rng(7)
    v = np.concatenate([[math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300],
                        rng.normal(size=rows - 6)])
    columns = (rng.choice(["incident", "up"], rows), v, v[::-1],
               rng.integers(-(2**63), 2**63 - 1, rows, endpoint=True))
    header = ("region", "x", "y", "n")
    cfg = RunConfig(out=str(tmp_path), format=("json",))
    cli._write_tables(cfg, "test", [("table", header, [columns]), ("empty", ("t",), [((),)])], 0.0)
    want = {"columns": list(header), "rows": [list(r) for r in zip(*(c.tolist() for c in columns))]}
    assert (tmp_path / "table.json").read_text() == json.dumps(want, sort_keys=True) + "\n"
    assert (tmp_path / "empty.json").read_text() == '{"columns": ["t"], "rows": []}\n'


def test_label_columns_render_the_bytes_of_astype():
    regions = np.array([r.value for r in RegionLabel])
    for labels in (np.repeat(["down", "up"], 5), np.full(3, "incident"), regions,
                   np.array([], dtype=str)):
        got, want = cli._column_bytes(labels), labels.astype(np.bytes_)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    with pytest.raises(UnicodeEncodeError):
        cli._column_bytes(np.array(["up", "\u00e9"]))


def test_text_cells_of_32_bytes_are_refused_not_cut(tmp_path):
    # a cell is four words, its last byte the separator; a refused table leaves no file
    cfg = RunConfig(out=str(tmp_path), format=("csv",))
    cli._write_tables(cfg, "test", [("ok", ("a", "b"), [(["x" * 31], [1.5])])], 0.0)
    assert (tmp_path / "ok.csv").read_bytes() == b"a,b\n" + b"x" * 31 + b",1.5\n"
    with pytest.raises(ValueError, match="a: a text cell of 32 bytes or more"):
        cli._write_tables(cfg, "cut", [("cut", ("a", "b"), [(["x" * 32], [1.5])])], 0.0)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ok.csv", "test_manifest.json"]


def _g17(values):
    """_format_g17's cells as bytes, NULs dropped, and its fallback count."""
    frames, fallback = cli._format_g17(np.asarray(values, dtype=np.float64))
    cells = np.zeros((len(frames), 33), dtype=np.uint8)
    cells[:, :32] = frames.astype("<u8").view(np.uint8)
    cells[:, 32] = ord("\n")
    return cells[cells != 0].tobytes().split(b"\n")[:-1], fallback


def _assert_g17(values):
    values = np.asarray(values, dtype=np.float64)
    got, fallback = _g17(values)
    want = [b"%.17g" % v for v in values.tolist()]
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad, bad[:5]
    return fallback


def test_format_g17_matches_percent_format_on_random_doubles():
    rng = np.random.default_rng(20240911)
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False).view(np.float64)
    _assert_g17(bits)  # every exponent, NaN payloads, subnormals
    n = 200_000
    in_range = np.exp(rng.uniform(math.log(1e-28), math.log(1e17), n)) * rng.choice([-1.0, 1.0], n)
    fallback = _assert_g17(in_range)
    assert fallback < 0.1 * n  # the numpy path carries the range


def _decimal_ties(rng):
    """Doubles q 2^-j whose exact decimal expansion q 5^j has 18 digits and
    ends in 5, so that 17 digits are an exact tie."""
    ties = []
    for j in range(2, 25):
        lo, hi = -(-(10**17) // 5**j), min(10**18 // 5**j, 2**53)
        for q in rng.integers(lo, hi, 20):
            if int(q) | 1 < hi:
                ties.append(math.ldexp(float(int(q) | 1), -j))
    return ties


def test_format_g17_edge_values():
    tiny, huge = 5e-324, 1.7976931348623157e308
    edges = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, tiny, -tiny,
             2.2250738585072009e-308, 2.2250738585072014e-308, huge, -huge,
             np.uint64(0x7FF0000000000001).view(np.float64), 9999999999999998.0, 1e15 + 0.25,
             # digits 1-8 or 9-16 all zero: one of the two digit words is 0
             1.0000000012345678, 7.000000001, 100000000.5, -4.0000000000000036e-05,
             1.000000000000001e-10]
    for k in range(-30, 23):
        p = float(f"1e{k}")
        edges += [p, np.nextafter(p, 0.0), np.nextafter(p, math.inf)]
    for end in (1e-27, 1e16):
        edges += [end, np.nextafter(end, 0.0), np.nextafter(end, math.inf)]
    edges += [float(2.0**k) for k in range(-100, 60)] + [3.0 * 2.0**k for k in range(-100, 60)]
    _assert_g17(edges + [-v for v in edges])
    ties = _decimal_ties(np.random.default_rng(3))
    assert len(ties) > 300
    assert _assert_g17(ties) == len(ties)  # every exact tie takes the fallback


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=40))
def test_format_g17_property(values):
    _assert_g17(values)


def test_manifest_counts_fallback_cells(tmp_path):
    # outside [1e-27, 1e16), an exact tie, or just above a power of ten: per cell;
    # NaN, inf and zeros are constants
    column = np.array([1e-300, 5e-324, -1e20, 1e15 + 0.25, 1.0, 0.0, -0.0, math.nan, math.inf, 0.5])
    cfg = RunConfig(out=str(tmp_path), format=("csv", "json"))
    cli._write_tables(cfg, "test", [("table", ("v",), [(column,)])], 0.0)
    manifest = json.loads((tmp_path / "test_manifest.json").read_text())
    fallback = {o["path"]: o["cells_fallback"] for o in manifest["outputs"]}
    assert fallback == {"table.csv": 5, "table.json": 0}
    assert (tmp_path / "table.csv").read_bytes() == _csv_reference(("v",), (column,))


# label and int columns; every other column holds floats
_NOT_FLOAT = {"ray_id", "region", "n_stationary"}


@pytest.mark.parametrize(
    "argv",
    [["rays", "--scenario", "airy"], ["rays", "--scenario", "linear_layer"],
     ["field", "--scenario", "airy"], ["field", "--scenario", "linear_layer"], ["wigner"]],
    ids=["rays-airy", "rays-layer", "field-airy", "field-layer", "wigner"],
)
def test_default_exports_round_trip_every_float_cell(tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / f"{argv[0]}_manifest.json").read_text())
    checked = 0
    for entry in manifest["outputs"]:
        header, rows = read_csv(tmp_path / entry["path"])
        for j, name in enumerate(header):
            if name not in _NOT_FLOAT:
                cells = [row[j] for row in rows]
                assert [format(float(c), ".17g") for c in cells] == cells, (entry["path"], name)
                checked += len(cells)
    assert checked > 0


def test_parser_is_built_once_and_reuse_writes_what_fresh_parsers_write(tmp_path):
    runs = [
        ["rays", "--scenario", "linear_layer", "--nt", "16", "--format", "csv,json"],
        ["field", "--nx", "16", "--xmin", "-0.5"],
        ["wigner", "--nx", "8", "--nk", "8", "--sigma-samples", "256"],
    ]

    def run_all(root, fresh):
        for i, argv in enumerate(runs):
            if fresh:
                cli.build_parser.cache_clear()
            assert main(argv + ["--out", str(root / str(i))]) == 0
            if i == 0:  # usage errors in between
                with pytest.raises(SystemExit) as exit_info:
                    main(["field", "--no-such-flag", "1"])
                assert exit_info.value.code == 2
                assert main(["wigner", "--nx", "4", "--out", str(root / "bad")]) == 2
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*")
                if p.suffix in (".csv", ".json") and not p.name.endswith("_manifest.json")}

    reused = run_all(tmp_path / "reused", fresh=False)
    assert cli.build_parser() is cli.build_parser()
    fresh = run_all(tmp_path / "fresh", fresh=True)
    assert len(fresh) == 6 and reused == fresh


# -- validate ---------------------------------------------------------------


def test_validate_reports_and_exits_zero(tmp_path, capsys):
    rc = main(["validate", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("pass") == 11
    report = json.loads((tmp_path / "validate_report.json").read_text())
    assert report["all_passed"] is True
    assert [c["id"] for c in report["criteria"]] == list(range(1, 12))
    assert all(c["passed"] for c in report["criteria"])
    # the wall-clock gates of 01 and 02, and each second bound, are legs of their own
    legs = [[leg["name"] for leg in c["legs"]] for c in report["criteria"]]
    assert legs[0][1] == legs[1][2] == "seconds"
    assert [len(names) for names in legs] == [2, 3, 1, 2, 1, 1, 3, 1, 1, 3, 2]


def test_validate_failure_exits_one(tmp_path, monkeypatch, capsys):
    forced = lambda: CriterionResult(1, "forced failure", (Leg("forced", 1.0, 0.5),))
    monkeypatch.setattr(cli, "_CHECKS", (forced,))
    rc = main(["validate", "--out", str(tmp_path)])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out
    report = json.loads((tmp_path / "validate_report.json").read_text())
    assert report["all_passed"] is False


def test_a_slow_criterion_trips_its_wall_clock_gate(monkeypatch):
    # every clock reading after the first is 6 s late: criterion 01's span reads
    # 6 s against its 5 s gate, criterion 02's its own time
    real, readings = time.perf_counter, iter(range(10**6))
    monkeypatch.setattr(cli.time, "perf_counter", lambda: real() + 6.0 * (next(readings) > 0))
    monkeypatch.setattr(cli, "_CHECKS", cli._CHECKS[:2])
    surgery, band = cli.run_validation()
    assert surgery.seconds >= 6.0 and band.seconds < 6.0
    # the signature of a tripped gate: the criterion fails while its metric holds
    assert not surgery.passed and surgery.metric <= surgery.threshold
    assert [leg.name for leg in surgery.legs if not leg.passed] == ["seconds"]
    assert band.passed
    for result, bound in ((surgery, 5.0), (band, 60.0)):
        gate = result.legs[-1]
        assert (gate.name, gate.value, gate.bound, gate.sense) == (
            "seconds", result.seconds, bound, "<")


def test_validate_report_carries_seconds_and_margins(tmp_path, monkeypatch, capsys):
    def upper():
        time.sleep(0.02)
        legs = (Leg("upper", 0.25, 1.0), Leg("strict", 1.0, 2.0, "<"))
        return CriterionResult(1, "upper bound", legs)

    def boom():
        raise RuntimeError("probe")

    monkeypatch.setattr(cli, "_CHECKS", (upper, cli.check_liouville_order, boom))
    main(["validate", "--out", str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "criterion 01 pass upper bound: metric=2.500e-01 threshold=1.000e+00"
    report = json.loads((tmp_path / "validate_report.json").read_text())
    first, order, crash = report["criteria"]
    assert first["seconds"] >= 0.02
    assert first["margin"] == 0.75
    assert [leg["margin"] for leg in first["legs"][:2]] == [0.75, 0.5]
    # id 1 carries criterion 01's wall-clock gate as its last leg, read off `seconds`
    gate = first["legs"][2]
    assert (gate["name"], gate["value"], gate["bound"]) == ("seconds", first["seconds"], 5.0)
    # criterion 09 bounds its observed order from below
    assert order["threshold"] == 1.9
    assert order["margin"] == (order["metric"] - 1.9) / 1.9 > 0.0
    assert order["legs"][0]["sense"] == ">="
    assert 0.0 < order["seconds"] < report["duration_seconds"]
    assert math.isnan(crash["margin"]) and crash["seconds"] >= 0.0
    assert crash["legs"][0]["name"] == "error" and not crash["passed"]
    holds = {"<=": lambda v, b: v <= b, "<": lambda v, b: v < b, ">=": lambda v, b: v >= b}
    for c in report["criteria"]:
        # the criterion passes when each leg does, and reports its first leg
        assert c["legs"]
        assert c["passed"] == all(holds[g["sense"]](g["value"], g["bound"]) for g in c["legs"])
        lead = c["legs"][0]
        assert (c["metric"], c["threshold"]) == (lead["value"], lead["bound"])
        assert np.array_equal(c["margin"], lead["margin"], equal_nan=True)


@pytest.mark.parametrize(
    "sense, value, holds, margin",
    [("<=", 2.0, True, 0.0), ("<", 2.0, False, 0.0), (">=", 2.0, True, 0.0),
     ("<=", 1.0, True, 0.5), ("<", 1.0, True, 0.5), (">=", 1.0, False, -0.5),
     ("<=", 3.0, False, -0.5), (">=", 3.0, True, 0.5)],
)
def test_leg_sense(sense, value, holds, margin):
    # value against the bound 2: on the bound only the strict leg fails
    leg = Leg("probe", value, 2.0, sense)
    assert leg.passed is holds
    assert leg.margin == margin


def test_leg_with_a_zero_bound_has_no_margin():
    # 07's far-field legs are bounded by the previous deviation, which a field
    # equal to its reference makes 0: the report still gets written
    leg = Leg("far field", 0.0, 0.0, "<")
    assert not leg.passed and math.isnan(leg.margin)


def test_a_crashed_criterion_keeps_its_id_and_name(monkeypatch):
    normal = [(r.id, r.name) for r in cli.run_validation()]
    checks = cli._CHECKS
    for i, check in enumerate(checks):
        @functools.wraps(check)
        def crash(*args, **kwargs):
            raise RuntimeError("probe")

        monkeypatch.setattr(cli, "_CHECKS", checks[:i] + (crash,) + checks[i + 1:])
        result = cli.run_validation()[i]
        assert result.detail == "error: probe" and not result.passed
        assert (result.id, result.name) == normal[i]


def test_validate_survives_a_crashing_check(monkeypatch):
    def boom():
        raise RuntimeError("probe")

    monkeypatch.setattr(cli, "_CHECKS", (boom,))
    results = cli.run_validation()
    assert len(results) == 1
    assert not results[0].passed
    assert "probe" in results[0].detail
