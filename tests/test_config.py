"""Config parsing, preset expansion, and the parsed value of every key."""

import re
import textwrap
from dataclasses import fields

import numpy as np
import pytest

import chemid.config as cfgmod
from chemid import cli
from chemid.config import (
    ALLOWED_KEYS,
    MAX_SIZE,
    load_config,
    resolve,
)
from chemid.errors import ConfigError, InvalidStateError
from chemid.inversion import LMConfig
from chemid.pde import PhysicalParams, SimulationGrid
from chemid.regselect import MIN_CORNER_POINTS
from chemid.synthdata import MIN_MESH_SEPARATION
from chemid.sensitivity import SensitivityFunction, write_sensitivity_csv

from test_cli import INVERT_BODY, SMALL_GRID, SMALL_PHYS

#: Values for the keys that neither the myerscough preset nor the defaults supply.
REQUIRED = {
    "delta": "1e-3",
    "alpha": "1e-5",
    "alphas": "1e-5,1e-4,1e-3,1e-2,1e-1",
    "data_csv": "data.csv",
    "deltas": "1e-3,1e-2,1e-1,1",
}


def parsed(key: str, text: str):
    """The value resolve gives ``key = text`` in the first command that allows key."""
    command = next(c for c, keys in ALLOWED_KEYS.items() if key in keys)
    raw = {k: v for k, v in REQUIRED.items() if k in ALLOWED_KEYS[command]}
    return resolve(command, {**raw, key: text}, "myerscough")[key]


def test_load_config_parses_flat_pairs(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# header comment\nM = 0.25\n\nD = 1.0  # trailing\nu0 = uniform:1.0\n")
    cfg = load_config(p)
    assert cfg == {"M": "0.25", "D": "1.0", "u0": "uniform:1.0"}


def test_load_config_rejects_malformed_and_duplicates(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("M 0.25\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        load_config(p)
    p.write_text("M = 1\nM = 2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(p)
    p.write_text("M =\n")
    with pytest.raises(ConfigError, match="empty"):
        load_config(p)


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/path.cfg")


def test_resolve_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys.*bogus"):
        resolve("forward", {"bogus": "1"})


def test_resolve_rejects_unknown_command_and_preset():
    with pytest.raises(ConfigError, match="unknown command"):
        resolve("simulate", {})
    with pytest.raises(ConfigError, match="unknown preset"):
        resolve("forward", {}, "keller")


def test_resolve_preset_fills_but_explicit_wins():
    cfg = resolve("forward", {"M": "0.5"}, "myerscough")
    assert cfg["M"] == 0.5
    assert cfg["b"] == 50.0
    assert cfg["truth"](0.3) == 2.0
    assert cfg["n_nodes"] == 51


def test_resolve_preset_key_inside_config():
    cfg = resolve("forward", {"preset": "myerscough"})
    assert cfg["mu"] == 50.0


def test_myerscough_preset_is_the_one_copy_of_the_limb_bud_numbers():
    cfg = resolve("forward", {}, "myerscough")
    assert cfg["params"] == PhysicalParams.myerscough()
    for f in fields(PhysicalParams):
        assert float(cfgmod.PRESETS["myerscough"][f.name]) == getattr(cfg["params"], f.name)
    grid = cfg["grid"]
    c0 = cfg["c0"](grid)
    assert c0.dtype == np.float64
    assert np.array_equal(c0, parsed("c0", "uniform:0.5")(grid))
    assert np.array_equal(c0, np.full(grid.n_nodes, 0.5))


def test_resolve_preset_skips_keys_not_allowed_for_command():
    cfg = resolve("invert", {"data_csv": "d.csv", "alpha": "1e-5"}, "myerscough")
    assert "truth" not in cfg
    assert "t_final" not in cfg
    assert cfg["M"] == 0.25


def test_every_allowed_key_has_a_parser():
    assert set(cfgmod._PARSERS) == set().union(*ALLOWED_KEYS.values())


def test_resolve_requires_every_allowed_key():
    with pytest.raises(ConfigError, match="missing required config key 'alpha'"):
        resolve("invert", {"data_csv": "d.csv"}, "myerscough")
    with pytest.raises(ConfigError, match="missing required config key 'D'"):
        resolve("forward", {})


def test_allowed_keys_cover_commands():
    assert set(ALLOWED_KEYS) == {"forward", "make-data", "invert", "lcurve", "rates"}


def test_lm_config_fields_are_the_cli_lm_keys():
    """Every LMConfig knob is settable from a config file, and no other."""
    assert {f.name for f in fields(LMConfig)} == cfgmod._LM - {"time_refine"}


@pytest.mark.parametrize(
    "key, text, value",
    [
        ("M", "1.5", 1.5),
        ("n_nodes", "42", 42),
        ("max_iters", "7", 7),
        ("warm_start", "FALSE", False),
        ("seed", "3", 3),
        ("seeds", "0, 1,2", [0, 1, 2]),
        ("deltas", "1e-3,1e-2,0.1,1", [1e-3, 1e-2, 0.1, 1.0]),
        ("advection", "upwind", "upwind"),
        ("data_csv", "runs/data.csv", "runs/data.csv"),
    ],
    ids=["number", "size", "integer", "bool", "seed", "seeds", "list", "advection",
         "path"],
)
def test_resolve_parses_value(key, text, value):
    assert parsed(key, text) == value


@pytest.mark.parametrize(
    "key, text, expected",
    [
        ("M", "abc", "a number"),
        ("alpha", "nan", "a number"),
        ("n_nodes", "1e9", "a nonnegative integer"),
        ("n_basis", "-1", "a nonnegative integer"),
        ("max_iters", "ten", "an integer"),
        ("warm_start", "yes", "true or false"),
        ("deltas", " , ", "a comma-separated number list"),
        ("advection", "central", "blended or upwind"),
        ("u0", "uniform:abc", "uniform:<value> or myerscough"),
        ("c0", "bump", "uniform:<value> or myerscough"),
    ],
    ids=["number", "non_finite", "size", "negative_size", "integer", "bool", "list", "advection",
         "uniform_value", "field_kind"],
)
def test_resolve_rejects_value(key, text, expected):
    message = f"config key {key!r}: expected {expected}, got {text!r}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parsed(key, text)


def test_resolve_reports_the_first_bad_key_in_key_order():
    with pytest.raises(ConfigError, match="config key 'M'"):
        resolve("forward", {"n_nodes": "x", "M": "x"}, "myerscough")


@pytest.mark.parametrize(
    "key, value", [("seed", "-1"), ("seeds", "0, -1")], ids=["seed", "seeds"]
)
def test_seed_getters_reject_negative_seeds(key, value):
    assert parsed(key, "0") in (0, [0])
    with pytest.raises(ConfigError, match=f"config key '{key}'.*nonnegative integer"):
        parsed(key, value)


def test_resolve_alphas_list_and_logspace():
    assert parsed("alphas", "1e-5,1e-4,1e-3,1e-2,1e-1") == [1e-5, 1e-4, 1e-3, 1e-2, 1e-1]
    assert np.allclose(parsed("alphas", "logspace:-8:-1:8"), np.logspace(-8, -1, 8))
    for text in ("logspace:-8:-1", "logspace:-8:-1:0", "logspace:a:-1:2"):
        with pytest.raises(ConfigError, match=re.escape("logspace:<lo>:<hi>:<count>")):
            parsed("alphas", text)


@pytest.mark.parametrize(
    "text, count", [("1e-5,1e-4,1e-3,1e-2", 4), ("logspace:-8:-1:4", 4), ("1e-3", 1)]
)
def test_resolve_requires_the_alphas_the_corner_needs(text, count):
    with pytest.raises(
        ConfigError,
        match=re.escape(
            f"config key 'alphas': the L-curve corner needs at least "
            f"{MIN_CORNER_POINTS} alphas (got {count})"
        ),
    ):
        parsed("alphas", text)


def test_resolve_rejects_rate_alphas_that_overflow():
    # alpha = coupling * delta: 1e307 * 100 is not a finite float
    with pytest.raises(ConfigError, match=re.escape("alpha must be finite (got inf)")):
        built("rates", "grid", deltas="1,3,10,30,100", coupling="1e307")


@pytest.mark.parametrize("count", [MAX_SIZE + 1, 10**20])
def test_resolve_caps_the_logspace_count(count, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.logspace ran")

    monkeypatch.setattr(cfgmod.np, "logspace", refuse)
    with pytest.raises(
        ConfigError, match=f"config key 'alphas': {count} exceeds the limit {MAX_SIZE}"
    ):
        parsed("alphas", f"logspace:-8:-1:{count}")


def test_resolve_caps_array_sizes():
    assert parsed("n_basis", str(MAX_SIZE)) == MAX_SIZE
    for value in (MAX_SIZE + 1, 10**20):
        with pytest.raises(
            ConfigError, match=f"config key 'n_basis': {value} exceeds the limit"
        ):
            parsed("n_basis", str(value))


def built(command: str, name: str, **keys):
    """The solver input ``name`` that resolve builds for ``command`` from keys."""
    raw = {k: v for k, v in REQUIRED.items() if k in ALLOWED_KEYS[command]}
    return resolve(command, {**raw, **keys}, "myerscough")[name]


def test_resolve_builds_params():
    assert built("invert", "params", M="0.5") == PhysicalParams(0.5, 1.0, 50.0, 1.0, 50.0)
    with pytest.raises(ConfigError, match=r"^M, D, h must be positive"):
        built("forward", "params", M="-1.0")


def test_resolve_builds_grid():
    g = built("forward", "grid", x_right="2.0", n_nodes="11", n_steps="10")
    assert g == SimulationGrid(0.0, 2.0, 11, 0.25, 10)
    with pytest.raises(ConfigError, match=r"^n_nodes must be >= 3"):
        built("forward", "grid", n_nodes="1")


def test_resolve_builds_fine_grid():
    fine = built("make-data", "fine", x_right="2.0", n_nodes="11", n_steps="10",
                 fine_n_nodes="41", fine_n_steps="40")
    assert fine == SimulationGrid(0.0, 2.0, 41, 0.25, 40)
    for nodes, steps in (("1", "40"), ("41", "0")):
        with pytest.raises(ConfigError):
            built("rates", "fine", fine_n_nodes=nodes, fine_n_steps=steps)


@pytest.mark.parametrize("command", ["make-data", "rates"])
@pytest.mark.parametrize("nodes, steps", [(40, 40), (41, 39)], ids=["x", "t"])
def test_resolve_enforces_mesh_separation(command, nodes, steps):
    assert MIN_MESH_SEPARATION == 4
    grid = dict(n_nodes="11", n_steps="10")
    message = (
        "data-generation grid must be at least 4x finer than the measurement grid "
        f"(got {nodes}x{steps} vs 11x10)"
    )
    with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
        built(command, "fine", **grid, fine_n_nodes=str(nodes), fine_n_steps=str(steps))


def test_resolve_builds_lm_config():
    lm = built("lcurve", "lm", lambda0="0.5", max_iters="7")
    assert (lm.lambda0, lm.max_iters, lm.tol_cost) == (0.5, 7, 1e-8)
    with pytest.raises(ConfigError, match=r"^max_iters must be >= 1"):
        built("invert", "lm", max_iters="0")


def test_resolve_builds_only_what_the_command_allows():
    for command, names in [
        ("forward", {"params", "grid"}),
        ("make-data", {"params", "grid", "fine"}),
        ("invert", {"params", "lm"}),
        ("lcurve", {"params", "lm"}),
        ("rates", {"params", "grid", "fine", "lm"}),
    ]:
        raw = {k: v for k, v in REQUIRED.items() if k in ALLOWED_KEYS[command]}
        assert set(resolve(command, raw, "myerscough")) - ALLOWED_KEYS[command] == names


def test_build_initial_field_specs():
    g = SimulationGrid(0.0, 1.0, 11, 0.1, 10)
    assert np.all(parsed("u0", "uniform:2.5")(g) == 2.5)
    assert np.isclose(parsed("u0", "myerscough")(g)[5], 2.0)
    assert np.all(parsed("c0", "myerscough")(g) == 0.5)


def test_truth_spec_constant():
    f = parsed("truth", "constant:2.0")
    assert np.all(f(np.array([0.1, 0.9])) == 2.0)
    a = SensitivityFunction.from_function(f, 0.2, 0.8, 5)
    assert np.array_equal(a.coeffs, SensitivityFunction.constant(2.0, 0.2, 0.8, 5).coeffs)


def test_truth_spec_inverse():
    f = parsed("truth", "inverse:2.0")
    assert np.allclose(f(np.array([0.5, 2.0])), [4.0, 1.0])
    with pytest.raises(InvalidStateError):
        f(np.array([0.0, 0.5]))
    a = SensitivityFunction.from_function(f, 0.25, 1.0, 4)
    assert np.allclose(a(a.knots()), 2.0 / a.knots())
    with pytest.raises(InvalidStateError, match="c <= 0"):
        SensitivityFunction.from_function(f, -0.1, 1.0, 4)


def test_truth_spec_table(tmp_path):
    src = SensitivityFunction(0.2, 0.7, np.array([1.0, 2.0, 4.0]))
    path = tmp_path / "a.csv"
    write_sensitivity_csv(src, path)
    f = parsed("prior", f"table:{path}")
    assert np.isclose(f(0.45), src(0.45))
    a = SensitivityFunction.from_function(f, 0.2, 0.7, 3)
    assert np.allclose(a.coeffs, src.coeffs)


def test_truth_spec_malformed(tmp_path):
    for text in ("constant:two", "inverse:-1.0", "table:", "linear:1.0"):
        message = "config key 'truth': expected constant:<v>, inverse:<k> with k > 0"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parsed("truth", text)
    missing = tmp_path / "missing.csv"
    with pytest.raises(ConfigError, match="config key 'prior': cannot read table"):
        parsed("prior", f"table:{missing}")
    missing.write_text("c_knot,a_value\n")
    with pytest.raises(ConfigError, match="config key 'truth': .*metadata header"):
        parsed("truth", f"table:{missing}")


# ---------------------------------------------------------------------------
# bad values stop the command line before any solve or data read


RATES_CFG = textwrap.dedent(SMALL_PHYS + SMALL_GRID) + (
    "fine_n_nodes = 81\nfine_n_steps = 240\ntruth = constant:1.5\n"
    "deltas = 4e-4,2e-3,1e-2,5e-2\n"
)


def assert_one_config_error(capsys, named):
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: config: ")
    assert named in lines[0]


@pytest.mark.parametrize(
    "line", ["max_iters = ten", "seeds = -1", "prior = bogus"],
    ids=["max_iters", "seeds", "prior"],
)
def test_rates_reports_bad_value_before_the_data_solve(tmp_path, capsys, monkeypatch, line):
    calls = []
    monkeypatch.setattr(cli, "make_dataset", lambda *args, **kw: calls.append(args))
    cfg = tmp_path / "rates.cfg"
    cfg.write_text(RATES_CFG + line + "\n")
    assert cli.main(["rates", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert_one_config_error(capsys, f"config key {line.split(' = ')[0]!r}")
    assert calls == []


@pytest.mark.parametrize(
    "alpha, named",
    [("alpha = abc\n", "config key 'alpha'"), ("", "missing required config key 'alpha'")],
    ids=["bad", "missing"],
)
def test_invert_reports_alpha_before_reading_data(tmp_path, capsys, alpha, named):
    body = textwrap.dedent(INVERT_BODY).replace("alpha = 1e-5\n", alpha)
    cfg = tmp_path / "invert.cfg"
    cfg.write_text(body + f"data_csv = {tmp_path / 'missing.csv'}\n")
    assert cli.main(["invert", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert_one_config_error(capsys, named)
