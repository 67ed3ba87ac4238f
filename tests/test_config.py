"""Config parsing, preset expansion, and the parsed value of every key."""

import re
import textwrap
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

import chemid.config as cfgmod
from chemid import cli
from chemid.config import (
    ALLOWED_KEYS,
    MAX_SIZE,
    MAX_SOLVE_BYTES,
    load_config,
    resolve,
)
from chemid.errors import ConfigError, InvalidStateError
from chemid.inversion import LMConfig, round_bytes
from chemid.pde import DEFAULT_ADVECTION, solve_bytes
from chemid.pde import PhysicalParams, SimulationGrid
from chemid.regselect import MIN_CORNER_POINTS
from chemid.synthdata import MIN_MESH_SEPARATION
from chemid.sensitivity import (
    DEFAULT_N_BASIS,
    DEFAULT_PADDING,
    SensitivityFunction,
    write_sensitivity_csv,
)

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


def test_resolve_budgets_a_logspace_sweep_before_building_it(monkeypatch):
    # a parse of 4 x 10^5 alphas stays within its count; 10^9 alphas, under
    # MAX_SIZE, are refused before np.logspace runs
    tracemalloc.start()
    try:
        assert len(parsed("alphas", "logspace:-8:-1:400000")) == 400000
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= cfgmod._ALPHA_BYTES * 400000

    def refuse(*args, **kwargs):
        raise AssertionError("np.logspace ran")

    monkeypatch.setattr(cfgmod.np, "logspace", refuse)
    with pytest.raises(ConfigError, match=(
        f"^config key 'alphas': a sweep of 1000000000 alphas needs an estimated "
        f"{64 * 10**9} bytes, over the limit {MAX_SOLVE_BYTES}$"
    )):
        parsed("alphas", "logspace:-8:-1:1000000000")


def test_resolve_caps_array_sizes():
    assert parsed("n_basis", str(MAX_SIZE)) == MAX_SIZE
    for value in (MAX_SIZE + 1, 10**20):
        with pytest.raises(
            ConfigError, match=f"config key 'n_basis': {value} exceeds the limit"
        ):
            parsed("n_basis", str(value))


def test_resolve_refuses_a_solve_over_the_memory_budget_before_allocating():
    # forward on 1001 nodes keeps n_steps + 1 frames of 16016 B each
    steps = next(s for s in range(MAX_SOLVE_BYTES // 16016 - 200, MAX_SOLVE_BYTES)
                 if solve_bytes(1001, s) > MAX_SOLVE_BYTES)
    assert built("forward", "grid", n_nodes="1001", n_steps=str(steps - 1)).n_steps == steps - 1
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=(
            f"^the largest solve needs an estimated {solve_bytes(1001, steps)} bytes, "
            f"over the limit {MAX_SOLVE_BYTES}$"
        )):
            built("forward", "grid", n_nodes="1001", n_steps=str(steps))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # no field of the 1001 nodes, let alone a frame


@pytest.mark.parametrize("command, keys", [
    ("make-data", {"fine_n_nodes": "100001", "fine_n_steps": "4000"}),
    ("rates", {"fine_n_nodes": "100001", "fine_n_steps": "4000"}),
    ("rates", {"n_basis": "100000"}),
    ("rates", {"seeds": ",".join(map(str, range(300))), "n_nodes": "1001", "n_steps": "2000",
               "fine_n_nodes": "4001", "fine_n_steps": "8000"}),
], ids=["make-data_fine_grid", "rates_fine_grid", "rates_basis", "rates_cells"])
def test_resolve_budgets_the_largest_solve_of_each_command(command, keys):
    with pytest.raises(ConfigError, match="^the largest solve needs an estimated"):
        built(command, "grid", **keys)


def test_a_large_time_refine_resolves_at_an_estimate_flat_in_the_steps():
    # a rate round solves time_refine steps a data frame but keeps data-grid
    # frames, and a solve holds one block of steps however many it takes:
    # its estimate does not grow with time_refine, and 10^6 resolves
    cfg = resolve("rates", {"deltas": REQUIRED["deltas"]}, "myerscough")
    grid, cells = cfg["grid"], len(cfg["deltas"]) * len(cfg["seeds"])

    def size(refine):
        return round_bytes(grid, refine, cells, cfg["n_basis"])

    assert size(1) == size(10**6) == size(MAX_SIZE) < MAX_SOLVE_BYTES / 100
    tracemalloc.start()
    try:
        assert built("rates", "time_refine", time_refine=str(10**6)) == 10**6
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_acceptance_sizes_stay_well_below_the_memory_budget():
    # the 201 x 2000 data solve, and a 15-cell rate round of 16 hats on 51 x 250;
    # the pinned CLI reruns: an 81 x 240 data solve and at most 8 cells of 4
    # hats on 21 x 60 at time_refine 3, as config and cli count them
    grid = SimulationGrid(0.0, 1.0, 51, 0.25, 250)
    largest = max(solve_bytes(201, 2000), round_bytes(grid, 1, 15, 16),
                  solve_bytes(81, 240), round_bytes(grid.with_resolution(21, 60), 3, 8, 4))
    assert largest < MAX_SOLVE_BYTES / 100


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


@pytest.mark.parametrize("command", sorted(ALLOWED_KEYS))
def test_defaults_resolve_to_the_library_defaults(command):
    # config.DEFAULTS reads these from the library, so the two cannot drift apart
    raw = {k: v for k, v in REQUIRED.items() if k in ALLOWED_KEYS[command]}
    cfg = resolve(command, raw, "myerscough")
    assert cfg["advection"] == DEFAULT_ADVECTION
    if "lm" in cfg:
        assert cfg["lm"] == LMConfig()
        assert (cfg["n_basis"], cfg["padding"]) == (DEFAULT_N_BASIS, DEFAULT_PADDING)


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


@pytest.mark.parametrize("bad", [0.0, -0.0, -1e-300, -3.0])
def test_truth_callbacks_accept_and_reject_what_they_did(bad):
    # a forward solve calls the truth on (rows, faces) face means, every row
    # at once: an exception leaves the solve for every row, so which entries
    # raise must not move.  inverse:<k> raises on an entry <= 0 and returns
    # nan for a nan one; constant:<v> never looks at c.  Finite positive
    # input gives k / c and v bit for bit
    rng = np.random.default_rng(7)
    c = rng.uniform(0.05, 3.0, (15, 50))
    inverse, constant = parsed("truth", "inverse:2.0"), parsed("truth", "constant:2.5")
    assert inverse(c).tobytes() == (2.0 / c).tobytes()
    assert constant(c).tobytes() == np.full((15, 50), 2.5).tobytes()
    assert inverse(0.5) == 4.0 and constant(0.5) == 2.5
    poisoned = c.copy()
    poisoned[3, 7] = bad
    for nan_too in (False, True):  # a nan elsewhere hides no entry <= 0
        poisoned[9, 1] = np.nan if nan_too else c[9, 1]
        with pytest.raises(InvalidStateError, match="inverse sensitivity evaluated at c <= 0"):
            inverse(poisoned)
        assert constant(poisoned).tobytes() == np.full((15, 50), 2.5).tobytes()
    poisoned[3, 7], poisoned[9, 1] = np.nan, c[9, 1]
    got = inverse(poisoned)
    assert np.isnan(got[3, 7]) and np.isnan(got).sum() == 1
    assert np.array_equal(got[~np.isnan(got)], (2.0 / c)[~np.isnan(got)])
    assert constant(poisoned).tobytes() == np.full((15, 50), 2.5).tobytes()


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
