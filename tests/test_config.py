"""Config parsing, preset expansion, and truth-spec construction."""

from dataclasses import fields

import numpy as np
import pytest

import chemid.config as cfgmod
from chemid.config import (
    ALLOWED_KEYS,
    TruthSpec,
    MAX_SIZE,
    build_fine_grid,
    build_grid,
    build_initial_field,
    build_params,
    get_alphas,
    get_bool,
    get_float,
    get_float_list,
    get_int,
    get_seed,
    get_seeds,
    get_size,
    get_truth,
    load_config,
    resolve,
)
from chemid.errors import ConfigError, InvalidStateError
from chemid.inversion import LMConfig
from chemid.pde import SimulationGrid
from chemid.sensitivity import SensitivityFunction, write_sensitivity_csv


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
    assert cfg["M"] == "0.5"
    assert cfg["b"] == "50.0"
    assert cfg["truth"] == "constant:2.0"
    assert cfg["n_nodes"] == "51"


def test_resolve_preset_key_inside_config():
    cfg = resolve("forward", {"preset": "myerscough"})
    assert cfg["mu"] == "50.0"


def test_resolve_preset_skips_keys_not_allowed_for_command():
    cfg = resolve("invert", {"data_csv": "d.csv"}, "myerscough")
    assert "truth" not in cfg
    assert "t_final" not in cfg
    assert cfg["M"] == "0.25"


def test_allowed_keys_cover_commands():
    assert set(ALLOWED_KEYS) == {"forward", "make-data", "invert", "lcurve", "rates"}


def test_lm_config_fields_are_the_cli_lm_keys():
    """Every LMConfig knob is settable from a config file, and no other."""
    assert {f.name for f in fields(LMConfig)} == cfgmod._LM - {"time_refine"}


def test_typed_getters():
    cfg = {
        "x": "1.5",
        "n": "42",
        "flag": "true",
        "ds": "1e-3,1e-2",
        "ss": "0,1,2",
    }
    assert get_float(cfg, "x") == 1.5
    assert get_int(cfg, "n") == 42
    assert get_bool(cfg, "flag") is True
    assert get_float_list(cfg, "ds") == [1e-3, 1e-2]
    assert get_seeds(cfg, "ss") == [0, 1, 2]


def test_typed_getters_errors():
    with pytest.raises(ConfigError, match="missing required"):
        get_float({}, "x")
    with pytest.raises(ConfigError, match="expected a number"):
        get_float({"x": "abc"}, "x")
    with pytest.raises(ConfigError, match="expected an integer"):
        get_int({"n": "1.5"}, "n")
    with pytest.raises(ConfigError, match="true or false"):
        get_bool({"f": "yes"}, "f")
    with pytest.raises(ConfigError, match="number list"):
        get_float_list({"d": ""}, "d")


@pytest.mark.parametrize(
    "getter, value", [(get_seed, "-1"), (get_seeds, "0, -1")], ids=["seed", "seeds"]
)
def test_seed_getters_reject_negative_seeds(getter, value):
    assert getter({"s": "0"}, "s") in (0, [0])
    with pytest.raises(ConfigError, match="nonnegative integer"):
        getter({"s": value}, "s")


def test_get_alphas_list_and_logspace():
    assert get_alphas({"alphas": "1e-5,1e-4"}) == [1e-5, 1e-4]
    got = get_alphas({"alphas": "logspace:-8:-1:8"})
    assert np.allclose(got, np.logspace(-8, -1, 8))
    with pytest.raises(ConfigError, match="logspace"):
        get_alphas({"alphas": "logspace:-8:-1"})
    with pytest.raises(ConfigError, match="count"):
        get_alphas({"alphas": "logspace:-8:-1:0"})
    with pytest.raises(ConfigError, match="missing required"):
        get_alphas({})


def test_build_params_wraps_validation():
    cfg = dict(M="0.25", D="1.0", b="50.0", h="1.0", mu="50.0")
    p = build_params(cfg)
    assert p.M == 0.25 and p.mu == 50.0
    cfg["M"] = "-1.0"
    with pytest.raises(ConfigError):
        build_params(cfg)


def test_build_grid_wraps_validation():
    cfg = dict(x_left="0.0", x_right="1.0", n_nodes="11", t_final="0.5", n_steps="10")
    g = build_grid(cfg)
    assert g.n_nodes == 11
    cfg["n_nodes"] = "1"
    with pytest.raises(ConfigError):
        build_grid(cfg)


def test_get_size_caps_array_sizes():
    assert get_size({"n": str(MAX_SIZE)}, "n") == MAX_SIZE
    for value in (MAX_SIZE + 1, 10**20):
        with pytest.raises(ConfigError, match="exceeds the limit"):
            get_size({"n": str(value)}, "n")
    with pytest.raises(ConfigError, match="expected an integer"):
        get_size({"n": "1e9"}, "n")


def test_build_fine_grid_wraps_validation():
    meas = SimulationGrid(0.0, 2.0, 11, 0.5, 10)
    fine = build_fine_grid({"fine_n_nodes": "41", "fine_n_steps": "40"}, meas)
    assert fine == SimulationGrid(0.0, 2.0, 41, 0.5, 40)
    for nodes, steps in (("1", "40"), ("41", "0"), ("41", str(MAX_SIZE + 1))):
        with pytest.raises(ConfigError):
            build_fine_grid({"fine_n_nodes": nodes, "fine_n_steps": steps}, meas)


def test_build_initial_field_specs():
    g = SimulationGrid(0.0, 1.0, 11, 0.1, 10)
    u = build_initial_field({"u0": "uniform:2.5"}, "u0", g)
    assert np.all(u == 2.5)
    ub = build_initial_field({"u0": "myerscough"}, "u0", g)
    assert np.isclose(ub[5], 2.0)
    cb = build_initial_field({"c0": "myerscough"}, "c0", g)
    assert np.all(cb == 0.5)
    with pytest.raises(ConfigError, match="uniform"):
        build_initial_field({"u0": "uniform:abc"}, "u0", g)
    with pytest.raises(ConfigError, match="expected uniform"):
        build_initial_field({"u0": "bump"}, "u0", g)
    with pytest.raises(ConfigError, match="missing required"):
        build_initial_field({}, "u0", g)


def test_truth_spec_constant():
    spec = TruthSpec.parse("constant:2.0")
    f = spec.as_callable()
    assert np.all(f(np.array([0.1, 0.9])) == 2.0)
    a = spec.on_basis(0.2, 0.8, 5)
    assert np.all(a.coeffs == 2.0)


def test_truth_spec_inverse():
    spec = TruthSpec.parse("inverse:2.0")
    f = spec.as_callable()
    assert np.allclose(f(np.array([0.5, 2.0])), [4.0, 1.0])
    with pytest.raises(InvalidStateError):
        f(np.array([0.0, 0.5]))
    a = spec.on_basis(0.25, 1.0, 4)
    assert np.allclose(a(a.knots()), 2.0 / a.knots())
    with pytest.raises(ConfigError, match="positive interval"):
        spec.on_basis(-0.1, 1.0, 4)


def test_truth_spec_table(tmp_path):
    src = SensitivityFunction(0.2, 0.7, np.array([1.0, 2.0, 4.0]))
    path = tmp_path / "a.csv"
    write_sensitivity_csv(src, path)
    spec = TruthSpec.parse(f"table:{path}")
    f = spec.as_callable()
    assert np.isclose(f(0.45), src(0.45))
    a = spec.on_basis(0.2, 0.7, 3)
    assert np.allclose(a.coeffs, src.coeffs)


def test_truth_spec_malformed():
    with pytest.raises(ConfigError):
        TruthSpec.parse("constant:two")
    with pytest.raises(ConfigError):
        TruthSpec.parse("inverse:-1.0")
    with pytest.raises(ConfigError):
        TruthSpec.parse("table:")
    with pytest.raises(ConfigError):
        TruthSpec.parse("linear:1.0")
    with pytest.raises(ConfigError, match="missing required"):
        get_truth({})
