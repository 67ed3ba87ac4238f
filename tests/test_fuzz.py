"""Hypothesis tests over CSV bytes and config text.

Every reader either returns a value or raises a ChemidError subclass,
whatever bytes it is given; through the command line the same inputs end
in exit 0 with nothing on stderr, or in exit 2, 3 or 4 with exactly one
`error: <kind>: <message>` line there.  Inputs are arbitrary bytes or
valid files with a few byte ranges overwritten, so both the header checks
and the row parsers are reached.  The one read of a file a config names,
``config.read_input``, returns or raises ConfigError, at the real budget
and at one that refuses some of those files by their size, and its
ConfigError names the file.  The command-line runs never fuzz a key
that sets an array size, so no example can ask for a huge grid.  The
forward solver, given extreme finite inputs on small grids, returns a
finite trajectory or raises a ChemidError, and invert, lcurve and rates,
given extreme finite numbers for every other key, keep the command-line
contract.
"""

import contextlib
import io
import re
import subprocess
import sys
import tempfile
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from chemid import cli, config
from chemid.config import ALLOWED_KEYS, load_config, read_input, resolve
from chemid.errors import ChemidError, ConfigError
from chemid.pde import (
    PhysicalParams,
    SimulationGrid,
    read_bytes,
    read_trajectory_csv,
    solve_forward,
    write_trajectory_csv,
)
from chemid.sensitivity import SensitivityFunction, read_sensitivity_csv, write_sensitivity_csv
from chemid.synthdata import add_noise, myerscough_initial_data, read_noisy_csv, write_noisy_csv

from helpers import CHILD_TIMEOUT
from test_cli import INVERT_BODY, SMALL_GRID, SMALL_PHYS


def _valid_files() -> dict:
    """A small data.csv, trajectory.csv and sensitivity table, as bytes."""
    grid = SimulationGrid(0.0, 1.0, 6, 0.1, 4)
    u0, c0 = myerscough_initial_data(grid)
    a = SensitivityFunction.constant(1.5, 0.3, 0.8, 3)
    traj = solve_forward(u0, c0, PhysicalParams(0.25, 1.0, 8.0, 1.0, 8.0), a, grid)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_noisy_csv(add_noise(traj, 1e-3, 0), tmp / "data.csv")
        write_trajectory_csv(traj, tmp / "traj.csv")
        write_sensitivity_csv(a, tmp / "table.csv")
        return {name: (tmp / f"{name}.csv").read_bytes() for name in ("data", "traj", "table")}


VALID = _valid_files()
#: the valid data.csv with the c of its first row made negative
_META, _HEADER, _ROW, _ROWS = VALID["data"].split(b"\n", 3)
NEGATIVE_C = b"\n".join([_META, _HEADER, _ROW.rsplit(b",", 1)[0] + b",-0.5", _ROWS])
PHYS = textwrap.dedent(SMALL_PHYS).encode()
# appended after the fuzzed text: the keys that size the arrays stay fixed
SIZES = textwrap.dedent(SMALL_GRID).encode()


@st.composite
def corrupted(draw, valid: bytes) -> bytes:
    """valid with one to three short byte ranges replaced by random bytes."""
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 8)))
        data[i:j] = draw(st.binary(max_size=8))
    return bytes(data)


def fuzzed(valid: bytes):
    return st.one_of(st.binary(max_size=300), corrupted(valid))


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _write(path: Path, blob: bytes) -> Path:
    path.write_bytes(blob)
    return path


@pytest.mark.parametrize(
    "read, name",
    [(read_noisy_csv, "data"), (read_trajectory_csv, "traj"), (read_sensitivity_csv, "table")],
)
def test_csv_readers_parse_or_raise_chemid_error(work, read, name):
    @settings(max_examples=300, deadline=None)
    @given(blob=fuzzed(VALID[name]))
    def check(blob):
        try:
            read(_write(work / f"{name}.csv", blob))
        except ChemidError:
            pass

    check()


@pytest.mark.parametrize("budget", ["real", "small"])
@pytest.mark.parametrize(
    "read, name, columns", [(read_noisy_csv, "data", 4), (read_sensitivity_csv, "table", 2)]
)
def test_the_config_read_returns_or_raises_config_error(work, monkeypatch, budget, read, name,
                                                        columns):
    # the one read of a data_csv and of a table: file, whose ConfigError is an
    # exit 2; the small budget refuses a file of over half the valid one's size
    if budget == "small":
        monkeypatch.setattr(config, "MAX_SOLVE_BYTES", read_bytes(len(VALID[name]) // 2, columns))

    @settings(max_examples=200, deadline=None)
    @given(blob=fuzzed(VALID[name]))
    @example(blob=NEGATIVE_C)
    def check(blob):
        path = _write(work / f"{name}.csv", blob)
        try:
            read_input(read, path, columns, name)
        except ConfigError as exc:
            assert str(path) in str(exc)  # every fault of the file names it

    check()


@settings(max_examples=300, deadline=None)
@given(
    blob=st.one_of(
        fuzzed(PHYS + SIZES),
        st.text(max_size=200).map(lambda s: s.encode("utf-8", "surrogatepass")),
    ),
    command=st.sampled_from(sorted(ALLOWED_KEYS)),
)
def test_load_config_and_resolve_parse_or_raise_chemid_error(work, blob, command):
    try:
        resolve(command, load_config(_write(work / "in.cfg", blob)))
    except ChemidError:
        pass


#: A positive float from 1e-300 to 1e308, its decimal exponent drawn uniformly.
MAGNITUDES = st.floats(-300.0, 308.0).map(lambda e: 10.0**e)


@settings(max_examples=150, deadline=None)
@given(
    n_nodes=st.integers(3, 8),
    n_steps=st.integers(1, 3),
    x_right=MAGNITUDES,
    t_final=MAGNITUDES,
    coefficients=st.tuples(*[MAGNITUDES] * 5),
    u=MAGNITUDES,
    c=MAGNITUDES,
    a=st.tuples(st.sampled_from([-1.0, 1.0]), MAGNITUDES),
)
def test_solve_forward_on_extreme_inputs_is_finite_or_raises_chemid_error(
        n_nodes, n_steps, x_right, t_final, coefficients, u, c, a):
    # M, D, b, h, mu; a uniform u0, a c0 rising by 1% and a constant a of either sign
    sign, size = a
    try:
        grid = SimulationGrid(0.0, x_right, n_nodes, t_final, n_steps)
        c0 = c * (1.0 + 0.01 * np.linspace(0.0, 1.0, n_nodes))
        traj = solve_forward(np.full(n_nodes, u), c0, PhysicalParams(*coefficients),
                             lambda face_c: np.full_like(face_c, sign * size), grid)
    except ChemidError:
        return
    assert np.isfinite(traj.X).all()


# ---------------------------------------------------------------------------
# command line

#: The error kind each failing exit code prints.
KINDS = {2: "config", 3: "solver", 4: "stagnation"}


def _assert_contract(returncode, stderr):
    """Exit 0 with an empty stderr, or 2, 3 or 4 with just its `error:` line,
    which holds no control byte."""
    if returncode == 0:
        assert stderr == ""
    else:
        assert re.fullmatch(f"error: {KINDS[returncode]}: [^\x00-\x1f]+\n", stderr), stderr


def _run_cli(*args):
    """The exit code and stderr of the command line in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-m", "chemid", *args], capture_output=True, text=True,
        timeout=CHILD_TIMEOUT,
    )
    return proc.returncode, proc.stderr


def _run_main(*args):
    """The exit code of ``cli.main`` and its stderr, each warning it raised
    printed there as Python would print it."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        returncode = cli.main(list(args))
    shown = (warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught)
    return returncode, "".join(shown) + err.getvalue()


CLI_SETTINGS = settings(
    max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@CLI_SETTINGS
@given(blob=corrupted(VALID["data"]))
def test_cli_invert_on_corrupted_data(work, blob):
    data = _write(work / "cli-data.csv", blob)
    body = textwrap.dedent(INVERT_BODY) + f"data_csv = {data}\nmax_iters = 3\n"
    cfg = _write(work / "cli-invert.cfg", body.encode())
    _assert_contract(*_run_cli("invert", "--config", str(cfg), "--out", str(work / "out")))


@CLI_SETTINGS
@given(blob=corrupted(VALID["table"]))
def test_cli_forward_on_corrupted_table(work, blob):
    table = _write(work / "cli-table.csv", blob)
    cfg = _write(work / "cli-table.cfg", PHYS + SIZES + f"truth = table:{table}\n".encode())
    _assert_contract(*_run_cli("forward", "--config", str(cfg), "--out", str(work / "out")))


@CLI_SETTINGS
@given(blob=fuzzed(PHYS))
def test_cli_forward_on_corrupted_config(work, blob):
    cfg = _write(work / "cli.cfg", blob + b"\n" + SIZES + b"truth = constant:1.5\n")
    _assert_contract(*_run_cli("forward", "--config", str(cfg), "--out", str(work / "out")))


# ---------------------------------------------------------------------------
# the inverse commands on extreme finite configs, in-process

#: The small scenario's data set; rates generates its own on the same grids.
SMALL_DATA = """\
n_nodes = 11
n_steps = 10
fine_n_nodes = 41
fine_n_steps = 40
t_final = 0.05
"""

#: Every basis and LM key of the inverse commands but n_basis, which sizes arrays.
LM_KEYS = {
    "padding": MAGNITUDES,
    "prior": MAGNITUDES.map(lambda v: f"constant:{v}"),
    "lambda0": MAGNITUDES,
    "tol_cost": MAGNITUDES,
    "tol_grad": MAGNITUDES,
    "max_iters": st.integers(1, 3),
}

#: The LM keys of the repros below: the defaults, with max_iters = 3 and a
#: padding that makes the hat Gram matrix B about 1e299, so that alpha B
#: overflows from alpha near 1e10.
REPRO = {"padding": 1e300, "prior": "constant:1.0", "lambda0": 1e-3, "tol_cost": 1e-8,
         "tol_grad": 1e-8, "max_iters": 3}


@pytest.fixture(scope="module")
def small_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("small-data")
    cfg = _write(root / "make.cfg", (SMALL_DATA + "truth = inverse:2.0\ndelta = 1e-3\n").encode())
    assert cli.main(["make-data", "--preset", "myerscough", "--config", str(cfg),
                     "--out", str(root)]) == 0
    return root / "data.csv"


def _assert_inverse_contract(work, command, body):
    cfg = _write(work / f"{command}.cfg", (body + "n_basis = 4\n").encode())
    _assert_contract(*_run_main(command, "--preset", "myerscough", "--config", str(cfg),
                                "--out", str(work / "out")))


def _lines(keys):
    return "".join(f"{key} = {value}\n" for key, value in keys.items())


@settings(max_examples=100, deadline=None)
@given(keys=st.fixed_dictionaries({**LM_KEYS, "alpha": MAGNITUDES}))
@example(keys={**REPRO, "alpha": 1e10})
def test_invert_on_extreme_finite_configs_keeps_the_contract(work, small_data, keys):
    _assert_inverse_contract(work, "invert", _lines(keys) + f"data_csv = {small_data}\n")


@settings(max_examples=30, deadline=None)
@given(keys=st.fixed_dictionaries({
    **LM_KEYS,
    "alphas": st.lists(MAGNITUDES, min_size=5, max_size=5, unique=True).map(
        lambda alphas: ", ".join(map(str, alphas))),
}))
@example(keys={**REPRO, "alphas": "1e-3, 1e-2, 1e-1, 1, 1e10"})
def test_lcurve_on_extreme_finite_configs_keeps_the_contract(work, small_data, keys):
    _assert_inverse_contract(work, "lcurve", _lines(keys) + f"data_csv = {small_data}\n")


@settings(max_examples=50, deadline=None)
@given(keys=st.fixed_dictionaries({
    **LM_KEYS,
    "coupling": MAGNITUDES,
    "truth": MAGNITUDES.map(lambda v: f"constant:{v}"),
}))
@example(keys={**REPRO, "coupling": 1e12, "truth": "constant:2.0"})
def test_rates_on_extreme_finite_configs_keeps_the_contract(work, keys):
    body = SMALL_DATA + _lines(keys) + "deltas = 1e-4, 1e-3, 1e-2, 1e-1\nseeds = 0\n"
    _assert_inverse_contract(work, "rates", body)
