"""End-to-end command line runs: artifacts, determinism, exit codes."""

import hashlib
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from chemid import cli, inversion, pde
from chemid import config as cfgmod
from chemid.cli import main
from chemid.config import load_config, resolve
from chemid.errors import ForwardSolveError
from chemid.pde import PhysicalParams, SimulationGrid, solve_bytes
from chemid.sensitivity import read_sensitivity_csv
from chemid.synthdata import (
    make_dataset,
    myerscough_initial_data,
    read_noisy_csv,
    write_noisy_csv,
)
from helpers import quadrature_sq_distance


def parse_summary(path):
    out = {}
    for ln in path.read_text().splitlines():
        key, _, val = ln.partition(" = ")
        out[key] = val
    return out


def write_cfg(tmp_path, name, body):
    p = tmp_path / name
    p.write_text(textwrap.dedent(body))
    return str(p)


SMALL_PHYS = """\
    M = 0.25
    D = 1.0
    b = 8.0
    h = 1.0
    mu = 8.0
    u0 = myerscough
    c0 = uniform:0.5
"""

SMALL_GRID = """\
    x_left = 0.0
    x_right = 1.0
    t_final = 0.5
    n_nodes = 21
    n_steps = 60
"""


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """Small noisy dataset shared by the invert/lcurve tests."""
    root = tmp_path_factory.mktemp("data")
    cfg = write_cfg(
        root,
        "make.cfg",
        SMALL_PHYS
        + SMALL_GRID
        + """\
    fine_n_nodes = 81
    fine_n_steps = 240
    truth = constant:1.5
    delta = 1e-3
    seed = 3
    """,
    )
    assert main(["make-data", "--config", cfg, "--out", str(root)]) == 0
    return root


INVERT_BODY = SMALL_PHYS + """\
    n_basis = 3
    padding = 0.05
    prior = constant:1.0
    alpha = 1e-5
"""


def invert_cfg(tmp_path, data_dir, extra=""):
    return write_cfg(
        tmp_path,
        "invert.cfg",
        INVERT_BODY + f"data_csv = {data_dir / 'data.csv'}\n" + extra,
    )


def test_forward_preset_conserves_mass(tmp_path):
    rc = main(["forward", "--preset", "myerscough", "--out", str(tmp_path)])
    assert rc == 0
    for name in ("trajectory.csv", "params.txt", "summary.txt"):
        assert (tmp_path / name).exists()
    summary = parse_summary(tmp_path / "summary.txt")
    assert float(summary["mass_drift_rel"]) <= 1e-10
    assert float(summary["min_u"]) >= 0.0
    assert float(summary["min_c_minus_floor"]) >= -1e-12


def test_forward_uniform_state_stays_uniform(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "fwd.cfg",
        """\
        M = 0.1
        D = 1.0
        b = 1.0
        h = 1.0
        mu = 1.0
        u0 = uniform:1.0
        c0 = uniform:0.5
        t_final = 0.1
        n_nodes = 21
        n_steps = 20
        truth = constant:2.0
        """,
    )
    assert main(["forward", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = np.genfromtxt(tmp_path / "trajectory.csv", delimiter=",", names=True)
    assert np.allclose(rows["u"], 1.0, atol=1e-12)
    for t in np.unique(rows["t"]):
        frame_c = rows["c"][rows["t"] == t]
        assert np.ptp(frame_c) <= 1e-12


def test_make_data_seeded_and_reproducible(tmp_path, data_dir):
    summary = parse_summary(data_dir / "summary.txt")
    assert float(summary["delta"]) == 1e-3
    assert summary["seed"] == "3"
    assert 0.0 < float(summary["c_range_low"]) < float(summary["c_range_high"])

    cfg = write_cfg(
        tmp_path,
        "make.cfg",
        (data_dir / "make.cfg").read_text(),
    )
    assert main(["make-data", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "data.csv").read_bytes() == (data_dir / "data.csv").read_bytes()

    re_dir = tmp_path / "reseeded"
    rc = main(["make-data", "--config", cfg, "--out", str(re_dir), "--seed", "9"])
    assert rc == 0
    assert (re_dir / "data.csv").read_bytes() != (data_dir / "data.csv").read_bytes()
    assert parse_summary(re_dir / "summary.txt")["seed"] == "9"


def test_make_data_delta_zero_ignores_seed(tmp_path):
    body = SMALL_PHYS + SMALL_GRID + """\
    fine_n_nodes = 81
    fine_n_steps = 240
    truth = constant:1.5
    delta = 0.0
    seed = 0
    """
    cfg = write_cfg(tmp_path, "clean.cfg", body)
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    assert main(["make-data", "--config", cfg, "--out", str(a_dir)]) == 0
    rc = main(["make-data", "--config", cfg, "--out", str(b_dir), "--seed", "7"])
    assert rc == 0
    # identical payload; only the seed recorded in the comment header differs
    a_lines = (a_dir / "data.csv").read_text().splitlines()
    b_lines = (b_dir / "data.csv").read_text().splitlines()
    assert a_lines[1:] == b_lines[1:]
    assert float(parse_summary(a_dir / "summary.txt")["delta"]) == 0.0


def test_make_data_honours_advection(tmp_path, data_dir):
    body = (data_dir / "make.cfg").read_text() + "advection = upwind\n"
    cfg = write_cfg(tmp_path, "upwind.cfg", body)
    assert main(["make-data", "--config", cfg, "--out", str(tmp_path)]) == 0
    got = (tmp_path / "data.csv").read_bytes()
    assert got != (data_dir / "data.csv").read_bytes()
    meas = SimulationGrid(0.0, 1.0, 21, 0.5, 60)
    fine = meas.with_resolution(81, 240)
    u0, c0 = myerscough_initial_data(fine)
    dataset = make_dataset(
        lambda c: np.full_like(c, 1.5), PhysicalParams(M=0.25, D=1.0, b=8.0, h=1.0, mu=8.0),
        fine, meas, u0, c0, 1e-3, 3, advection="upwind",
    )
    write_noisy_csv(dataset.data, tmp_path / "want.csv")
    assert got == (tmp_path / "want.csv").read_bytes()


def test_invert_recovers_and_reruns_identically(tmp_path, data_dir):
    cfg = invert_cfg(tmp_path, data_dir)
    assert main(["invert", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = parse_summary(tmp_path / "report.txt")
    assert report["converged"] == "true"
    assert float(report["alpha"]) == 1e-5
    a_hat = read_sensitivity_csv(tmp_path / "a_hat.csv")
    # the fit should land much nearer the generating constant than the prior
    truth = lambda c: np.full_like(np.asarray(c, dtype=float), 1.5)
    prior = lambda c: np.full_like(np.asarray(c, dtype=float), 1.0)
    d_hat = quadrature_sq_distance(a_hat, truth, a_hat.c_min, a_hat.c_max)
    d_prior = quadrature_sq_distance(prior, truth, a_hat.c_min, a_hat.c_max)
    assert np.sqrt(d_hat / d_prior) < 0.6

    again = tmp_path / "again"
    assert main(["invert", "--config", cfg, "--out", str(again)]) == 0
    assert (again / "a_hat.csv").read_bytes() == (tmp_path / "a_hat.csv").read_bytes()


def test_invert_stagnation_exits_4(tmp_path, data_dir, capsys):
    cfg = invert_cfg(tmp_path, data_dir, "max_iters = 1\n")
    rc = main(["invert", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 4
    err = capsys.readouterr().err
    assert re.match(r"error: stagnation: .+", err.splitlines()[0])
    assert parse_summary(tmp_path / "report.txt")["converged"] == "false"
    assert (tmp_path / "a_hat.csv").exists()


def test_invert_with_an_overflowing_damping_prints_one_error_line(tmp_path, data_dir):
    # alpha = 1e308 makes J^T J so large that lambda * diag(J^T J) overflows;
    # such a damping is a rejected trial, not a numpy warning on stderr
    cfg = write_cfg(tmp_path, "huge.cfg", with_line(command_body("invert", data_dir),
                                                    "alpha = 1e308"))
    proc = run_cli("invert", "--config", cfg, "--out", str(tmp_path / "out"))
    assert proc.returncode == 4
    assert re.fullmatch(r"error: stagnation: [^\n]+\n", proc.stderr)


@pytest.mark.parametrize("command, line", [
    ("invert", "alpha = 1e10"),
    ("lcurve", "alphas = 1e-3, 1e-2, 1e-1, 1, 1e10"),
    ("rates", "coupling = 1e12"),
])
def test_an_overflowing_penalty_exits_2_before_out_exists(tmp_path, data_dir, capsys, command,
                                                          line):
    # padding = 1e300 makes the hat Gram matrix B about 1e299, so alpha B
    # overflows at the largest alpha the command runs
    cfg = write_cfg(tmp_path, "huge.cfg", with_line(command_body(command, data_dir),
                                                    f"padding = 1e300\n{line}"))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: config: the penalty alpha \* B is not finite: alpha=[^ ]+"
                        r" on the c-interval \[[^\n]+\]\n", err)
    assert not (tmp_path / "out").exists()


def test_lcurve_artifacts(tmp_path, data_dir):
    cfg = write_cfg(
        tmp_path,
        "lcurve.cfg",
        SMALL_PHYS
        + f"""\
    n_basis = 3
    padding = 0.05
    prior = constant:1.0
    alphas = logspace:-6:-2:5
    data_csv = {data_dir / 'data.csv'}
    """,
    )
    assert main(["lcurve", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "lcurve.csv").read_text().splitlines()
    assert lines[0] == "alpha,rho,eta"
    assert len(lines) == 6
    summary = parse_summary(tmp_path / "summary.txt")
    corner = float(summary["corner_alpha"])
    assert any(np.isclose(corner, a) for a in np.logspace(-6, -2, 5))
    assert summary["n_points"] == "5"
    script = (tmp_path / "plot_lcurve.py").read_text()
    compile(script, "plot_lcurve.py", "exec")
    assert "lcurve.csv" in script


def test_rates_artifacts(tmp_path):
    cfg = write_cfg(
        tmp_path,
        "rates.cfg",
        SMALL_PHYS
        + SMALL_GRID
        + """\
    fine_n_nodes = 81
    fine_n_steps = 240
    truth = constant:1.5
    n_basis = 3
    padding = 0.05
    prior = constant:1.0
    deltas = 4e-4,2e-3,1e-2,5e-2
    seeds = 0
    """,
    )
    assert main(["rates", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "rates.csv").read_text().splitlines()
    assert lines[0] == "delta,alpha,misfit2,param_error,seed"
    assert len(lines) == 5
    summary = parse_summary(tmp_path / "summary.txt")
    assert np.isfinite(float(summary["misfit2_slope"]))
    assert np.isfinite(float(summary["param_error_slope"]))
    compile((tmp_path / "plot_rates.py").read_text(), "plot_rates.py", "exec")

    again = tmp_path / "again"
    assert main(["rates", "--config", cfg, "--out", str(again)]) == 0
    assert (again / "rates.csv").read_bytes() == (tmp_path / "rates.csv").read_bytes()


def test_unknown_key_exits_2(tmp_path, capsys, data_dir):
    cfg = write_cfg(tmp_path, "bad.cfg", "bogus_key = 1\n")
    rc = main(["forward", "--config", cfg, "--preset", "myerscough",
               "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert re.match(r"error: config: .+bogus_key", err.splitlines()[0])
    # the finite-difference step of older versions: the Jacobian is exact now
    out = tmp_path / "out"
    rc = main(["invert", "--config", invert_cfg(tmp_path, data_dir, "fd_step = 1e-6\n"),
               "--out", str(out)])
    assert rc == 2 and not out.exists()
    assert capsys.readouterr().err.splitlines() == [
        "error: config: unknown config keys for invert: fd_step"
    ]


def test_missing_required_key_exits_2(tmp_path, capsys):
    rc = main(["forward", "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: config: ")


def test_noise_failure_exits_3(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "huge.cfg",
        SMALL_PHYS
        + SMALL_GRID
        + """\
    fine_n_nodes = 81
    fine_n_steps = 240
    truth = constant:1.5
    delta = 50.0
    seed = 0
    """,
    )
    rc = main(["make-data", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert re.match(r"error: solver: .+", err.splitlines()[0])


def skipping_rates_run(tmp_path, deltas):
    """``chemid rates`` in a fresh interpreter on a scenario whose noise, at a
    delta of 100 or more, drives some z_c below zero, so that cell is skipped."""
    cfg = write_cfg(tmp_path, "rates.cfg", f"""\
    n_nodes = 21
    n_steps = 60
    fine_n_nodes = 81
    fine_n_steps = 240
    truth = inverse:0.8
    n_basis = 4
    deltas = {deltas}
    seeds = 0
    """)
    out = tmp_path / "out"
    return run_cli("rates", "--preset", "myerscough", "--config", cfg, "--out", str(out)), out


def test_rate_study_with_every_cell_skipped_exits_3(tmp_path):
    proc, out = skipping_rates_run(tmp_path, "100,300,1000,10000")
    assert proc.returncode == 3
    assert proc.stderr == "error: solver: rate fit needs >= 4 surviving noise levels, got 0\n"
    assert not out.exists()


def test_rate_study_that_skips_a_cell_prints_nothing(tmp_path):
    proc, out = skipping_rates_run(tmp_path, "1e-3,3e-3,1e-2,3e-2,1000")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert parse_summary(out / "summary.txt")["n_records"] == "4"


def test_seed_flag_rejected_where_meaningless(tmp_path, capsys):
    rc = main(["forward", "--preset", "myerscough", "--seed", "5",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "--seed" in capsys.readouterr().err


def test_missing_data_csv_exits_2(tmp_path, capsys):
    cfg = invert_cfg(tmp_path, tmp_path / "nowhere")
    rc = main(["invert", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: config: ")


def test_module_entrypoint_help():
    proc = subprocess.run(
        [sys.executable, "-m", "chemid", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    for name in ("forward", "make-data", "invert", "lcurve", "rates"):
        assert name in proc.stdout


def run_cli(*args):
    """Run the command line in a fresh interpreter, as a user would."""
    return subprocess.run(
        [sys.executable, "-m", "chemid", *args], capture_output=True, text=True
    )


def assert_config_error(proc):
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: config: ")


@pytest.mark.parametrize("where", ["cell", "metadata"])
def test_non_numeric_data_csv_exits_2(tmp_path, data_dir, where):
    lines = (data_dir / "data.csv").read_text().splitlines()
    if where == "cell":
        t, x, _, c = lines[2].split(",")
        lines[2] = ",".join([t, x, "abc", c])
    else:
        lines[0] = re.sub(r"delta=\S+", "delta=abc", lines[0])
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "data.csv").write_text("\n".join(lines) + "\n")
    cfg = invert_cfg(tmp_path, bad)
    assert_config_error(run_cli("invert", "--config", cfg, "--out", str(tmp_path)))


def test_missing_truth_table_exits_2(tmp_path):
    cfg = write_cfg(
        tmp_path, "table.cfg",
        SMALL_PHYS + SMALL_GRID + f"truth = table:{tmp_path / 'missing.csv'}\n",
    )
    assert_config_error(run_cli("forward", "--config", cfg, "--out", str(tmp_path)))


def test_non_finite_alpha_exits_2(tmp_path, data_dir):
    body = INVERT_BODY.replace("alpha = 1e-5", "alpha = nan")
    cfg = write_cfg(tmp_path, "nan.cfg", body + f"data_csv = {data_dir / 'data.csv'}\n")
    assert_config_error(run_cli("invert", "--config", cfg, "--out", str(tmp_path)))


@pytest.mark.parametrize("where", ["config", "data", "table"])
def test_non_utf8_input_exits_2(tmp_path, data_dir, where):
    table = tmp_path / "table.csv"
    table.write_bytes(b"# c_min=0.1 c_max=0.9 n_basis=2 extension=clamp\n"
                      b"c_knot,a_value\n0.1,1.0\n0.9,1.\xff\n")
    if where == "table":
        cfg = write_cfg(tmp_path, "table.cfg",
                        SMALL_PHYS + SMALL_GRID + f"truth = table:{table}\n")
        proc = run_cli("forward", "--config", cfg, "--out", str(tmp_path))
    elif where == "data":
        bad = tmp_path / "bad"
        bad.mkdir()
        raw = (data_dir / "data.csv").read_bytes()
        (bad / "data.csv").write_bytes(raw.replace(b"\n0,0,", b"\n0,0,\xff", 1))
        cfg = invert_cfg(tmp_path, bad)
        proc = run_cli("invert", "--config", cfg, "--out", str(tmp_path))
    else:
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"# caf\xe9\n" + textwrap.dedent(SMALL_PHYS).encode())
        proc = run_cli("forward", "--config", str(cfg), "--out", str(tmp_path))
    assert_config_error(proc)


@pytest.mark.parametrize("n_nodes", [10**15, 10**20])
def test_oversized_grid_exits_2(tmp_path, n_nodes):
    grid = SMALL_GRID.replace("n_nodes = 21", f"n_nodes = {n_nodes}")
    cfg = write_cfg(tmp_path, "big.cfg", SMALL_PHYS + grid + "truth = constant:1.5\n")
    assert_config_error(run_cli("forward", "--config", cfg, "--out", str(tmp_path)))


def test_oversized_basis_exits_2(tmp_path, data_dir):
    body = INVERT_BODY.replace("n_basis = 3", f"n_basis = {10**15}")
    cfg = write_cfg(tmp_path, "big.cfg", body + f"data_csv = {data_dir / 'data.csv'}\n")
    assert_config_error(run_cli("invert", "--config", cfg, "--out", str(tmp_path)))


def test_out_of_memory_exits_3(tmp_path, capsys, monkeypatch):
    def exhausted(cfg):
        raise MemoryError("Unable to allocate 7.28 PiB")

    monkeypatch.setitem(cli.COMMANDS, "forward", exhausted)
    rc = main(["forward", "--preset", "myerscough", "--out", str(tmp_path)])
    assert rc == 3
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["error: solver: out of memory: Unable to allocate 7.28 PiB"]


def test_config_over_the_memory_budget_exits_2_before_out_exists(tmp_path):
    # 1001 nodes and the first step count whose frames (16016 B) cross the budget
    steps = next(s for s in range(cfgmod.MAX_SOLVE_BYTES // 16016 - 200, cfgmod.MAX_SOLVE_BYTES)
                 if solve_bytes(1001, s) > cfgmod.MAX_SOLVE_BYTES)
    cfg = write_cfg(tmp_path, "big.cfg", f"n_nodes = 1001\nn_steps = {steps}\n")
    out = tmp_path / "out"
    proc = run_cli("forward", "--preset", "myerscough", "--config", cfg, "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr == (
        f"error: config: the largest solve needs an estimated "
        f"{solve_bytes(1001, steps)} bytes, over the limit {cfgmod.MAX_SOLVE_BYTES}\n"
    )
    assert not out.exists()


def test_invert_over_the_memory_budget_exits_2(tmp_path, data_dir, capsys):
    # the data grid is known once data_csv is read: 10^8 hats of tangents are too many
    body = INVERT_BODY.replace("n_basis = 3", "n_basis = 100000000")
    cfg = write_cfg(tmp_path, "invert.cfg", body + f"data_csv = {data_dir / 'data.csv'}\n")
    out = tmp_path / "out"
    assert main(["invert", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: config: the largest solve needs")
    assert not out.exists()


@pytest.mark.parametrize("command", ["invert", "lcurve"])
def test_data_csv_over_the_memory_budget_exits_2_before_it_is_read(
        tmp_path, data_dir, monkeypatch, capsys, command):
    # a data_csv of s bytes may parse into 4 s bytes of table: its size alone refuses it
    path, reads = data_dir / "data.csv", []
    monkeypatch.setattr(cfgmod, "MAX_SOLVE_BYTES", 4 * path.stat().st_size - 1)
    monkeypatch.setattr(cli, "read_noisy_csv", reads.append)
    cfg = write_cfg(tmp_path, "big.cfg", command_body(command, data_dir))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: config: reading {path} needs an estimated {4 * path.stat().st_size} bytes, "
        f"over the limit {cfgmod.MAX_SOLVE_BYTES}"
    ]
    assert reads == []
    assert not out.exists()


def test_data_csv_path_with_a_nul_byte_exits_2(tmp_path, capsys):
    # the size check runs before the read, and a NUL byte fails it with ValueError
    cfg = write_cfg(tmp_path, "nul.cfg", INVERT_BODY + "data_csv = a\0b\n")
    assert main(["invert", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: config: cannot read data_csv a\0b: embedded null byte"]
    assert not (tmp_path / "out").exists()


def test_invert_takes_a_large_time_refine_at_an_estimate_flat_in_the_steps(
        tmp_path, data_dir, monkeypatch, capsys):
    # a solve holds one block of steps however many it takes, so invert at
    # time_refine 10^6 passes the budget at the estimate of time_refine 10,
    # whose 600 steps fill a block; the minimization, 6 x 10^7 steps a
    # solve, is stubbed to fail at once
    estimates, refines, real = [], [], cfgmod.require_solve_bytes

    def require(nbytes, *what):
        estimates.append(nbytes)
        real(nbytes, *what)

    def minimize(prob, a0, cfg):
        refines.append(prob.time_refine)
        raise ForwardSolveError("stubbed")

    monkeypatch.setattr(cfgmod, "require_solve_bytes", require)
    monkeypatch.setattr(cli, "levenberg_marquardt", minimize)
    for refine in (10, 10**6):
        cfg = invert_cfg(tmp_path, data_dir, f"time_refine = {refine}\n")
        assert main(["invert", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.splitlines() == ["error: solver: stubbed"]
    assert refines == [10, 10**6]
    assert estimates[: len(estimates) // 2] == estimates[len(estimates) // 2 :]
    assert max(estimates) < cfgmod.MAX_SOLVE_BYTES / 100


MAKE_BODY = SMALL_PHYS + SMALL_GRID + """\
    fine_n_nodes = 81
    fine_n_steps = 240
    truth = constant:1.5
    delta = 1e-3
"""


@pytest.mark.parametrize("where", ["flag", "config"])
def test_negative_seed_exits_2(tmp_path, where):
    if where == "flag":
        cfg = write_cfg(tmp_path, "make.cfg", MAKE_BODY)
        proc = run_cli("make-data", "--config", cfg, "--seed", "-1", "--out", str(tmp_path))
    else:
        cfg = write_cfg(tmp_path, "make.cfg", MAKE_BODY + "seed = -1\n")
        proc = run_cli("make-data", "--config", cfg, "--out", str(tmp_path))
    assert_config_error(proc)
    assert not (tmp_path / "data.csv").exists()


def test_negative_rate_study_seed_exits_2(tmp_path):
    body = MAKE_BODY.replace("delta = 1e-3", "deltas = 4e-4,5e-2\n    seeds = 0, -1")
    cfg = write_cfg(tmp_path, "rates.cfg", body)
    proc = run_cli("rates", "--config", cfg, "--out", str(tmp_path))
    assert_config_error(proc)
    assert "seeds" in proc.stderr


RATES_BODY = MAKE_BODY.replace(
    "delta = 1e-3", "n_basis = 3\n    padding = 0.05\n    prior = constant:1.0"
)
DELTAS = "deltas = 4e-4,2e-3,1e-2,5e-2\n"


@pytest.mark.parametrize(
    "command, keys, named",
    [
        ("rates", "deltas = 1e-3,1e-3,1e-2,1e-1\n", "deltas"),
        ("rates", "deltas = 1e-3,1e-2,1e-1\n", "deltas"),
        ("rates", "deltas = 1e-3,2e-3,4e-3,8e-3\n", "span"),
        ("rates", DELTAS + "coupling = 0\n", "coupling"),
        ("rates", DELTAS + "seeds = 0,0\n", "seeds"),
        ("lcurve", "alphas = 1e-3,1e-3,1e-2\n", "alphas"),
    ],
    ids=["repeated_deltas", "three_deltas", "short_span", "zero_coupling",
         "repeated_seeds", "repeated_alphas"],
)
def test_invalid_list_values_exit_2(tmp_path, data_dir, command, keys, named):
    if command == "rates":
        body = RATES_BODY + keys
    else:
        body = INVERT_BODY.replace("alpha = 1e-5\n", keys)
        body += f"data_csv = {data_dir / 'data.csv'}\n"
    cfg = write_cfg(tmp_path, f"{command}.cfg", body)
    proc = run_cli(command, "--config", cfg, "--out", str(tmp_path))
    assert_config_error(proc)
    assert named in proc.stderr


@pytest.mark.parametrize("where", ["file", "under_file", "artifact"])
def test_unusable_out_exits_2(tmp_path, where):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    if where == "file":
        out = blocker
    elif where == "under_file":
        out = blocker / "sub"
    else:  # the directory exists, but an artifact's name is taken by a directory
        out = tmp_path / "out"
        (out / "trajectory.csv").mkdir(parents=True)
    proc = run_cli("forward", "--preset", "myerscough", "--out", str(out))
    assert_config_error(proc)
    assert "cannot write output" in proc.stderr


@pytest.mark.parametrize("command", ["make-data", "rates"])
def test_coarse_data_grid_exits_2_before_out_exists(tmp_path, command):
    body = MAKE_BODY if command == "make-data" else RATES_BODY + DELTAS
    cfg = write_cfg(tmp_path, "coarse.cfg", body.replace("fine_n_nodes = 81", "fine_n_nodes = 41"))
    out = tmp_path / "out"
    proc = run_cli(command, "--config", cfg, "--out", str(out))
    assert_config_error(proc)
    assert proc.stderr == (
        "error: config: data-generation grid must be at least 4x finer than the "
        "measurement grid (got 41x240 vs 21x60)\n"
    )
    assert not out.exists()


def test_failed_write_removes_only_this_runs_files(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "summary.txt").mkdir(parents=True)
    (out / "keep.txt").write_text("kept\n")
    assert main(["forward", "--preset", "myerscough", "--out", str(out)]) == 2
    assert "cannot write output" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["keep.txt", "summary.txt"]
    assert (out / "keep.txt").read_text() == "kept\n"
    assert (out / "summary.txt").is_dir()


@pytest.mark.parametrize(
    "exc, rc", [(OSError("disk full"), 2), (MemoryError("no room"), 3)], ids=["os", "memory"]
)
def test_failed_write_removes_the_out_it_created(tmp_path, monkeypatch, capsys, exc, rc):
    def fail(params, grid, path):
        raise exc

    monkeypatch.setattr(cli, "write_params", fail)
    out = tmp_path / "new" / "out"
    assert main(["forward", "--preset", "myerscough", "--out", str(out)]) == rc
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_negative_seed_in_data_csv_exits_2(tmp_path, data_dir):
    text = (data_dir / "data.csv").read_text()
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "data.csv").write_text(re.sub(r"seed=\d+", "seed=-1", text, count=1))
    out = tmp_path / "out"
    proc = run_cli("invert", "--config", invert_cfg(tmp_path, bad), "--out", str(out))
    assert_config_error(proc)
    assert "seed must be >= 0 (got -1)" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("delta", ["nan", "inf"])
def test_non_finite_delta_in_data_csv_exits_2(tmp_path, data_dir, delta):
    text = (data_dir / "data.csv").read_text()
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "data.csv").write_text(re.sub(r"delta=\S+", f"delta={delta}", text, count=1))
    out = tmp_path / "out"
    proc = run_cli("invert", "--config", invert_cfg(tmp_path, bad), "--out", str(out))
    assert_config_error(proc)
    assert f"delta must be finite (got {delta})" in proc.stderr
    assert not out.exists()


def test_data_csv_without_its_first_frame_exits_2(tmp_path, data_dir):
    lines = (data_dir / "data.csv").read_text().splitlines()
    bad = tmp_path / "bad"
    bad.mkdir()
    # metadata and header lines, then the 21 rows of each frame; drop t = 0
    (bad / "data.csv").write_text("\n".join(lines[:2] + lines[2 + 21 :]) + "\n")
    out = tmp_path / "out"
    proc = run_cli("invert", "--config", invert_cfg(tmp_path, bad), "--out", str(out))
    assert_config_error(proc)
    assert "first frame must be at t = 0" in proc.stderr
    assert not out.exists()


def test_lcurve_with_too_few_alphas_exits_2_before_any_solve(tmp_path, data_dir):
    body = INVERT_BODY.replace("alpha = 1e-5\n", "alphas = 1e-6,1e-5,1e-4,1e-3\n")
    cfg = write_cfg(tmp_path, "lcurve.cfg", body + f"data_csv = {data_dir / 'data.csv'}\n")
    out = tmp_path / "out"
    proc = run_cli("lcurve", "--config", cfg, "--out", str(out))
    assert_config_error(proc)
    assert "the L-curve corner needs at least 5 alphas (got 4)" in proc.stderr
    assert not out.exists()


LCURVE_BODY = INVERT_BODY.replace("alpha = 1e-5\n", "alphas = logspace:-6:-2:5\n")


def command_body(command, data_dir):
    """A valid config body for command on the small scenario."""
    if command in ("invert", "lcurve"):
        body = INVERT_BODY if command == "invert" else LCURVE_BODY
        return body + f"data_csv = {data_dir / 'data.csv'}\n"
    if command == "forward":
        return SMALL_PHYS + SMALL_GRID + "truth = constant:1.5\n"
    return MAKE_BODY if command == "make-data" else RATES_BODY + DELTAS


@pytest.mark.parametrize("command", ["forward", "make-data", "invert", "lcurve"])
@pytest.mark.parametrize(
    "line, bad, message",
    [
        ("c0 = uniform:0.5", "c0 = uniform:0", "c0 must be positive (min 0.000e+00)"),
        ("u0 = myerscough", "u0 = uniform:-1", "u0 must be nonnegative (min -1.000e+00)"),
    ],
    ids=["c0_zero", "u0_negative"],
)
def test_bad_initial_field_exits_2_before_out_exists(
    tmp_path, data_dir, command, line, bad, message
):
    cfg = write_cfg(tmp_path, "bad.cfg", command_body(command, data_dir).replace(line, bad))
    out = tmp_path / "out"
    proc = run_cli(command, "--config", cfg, "--out", str(out))
    assert_config_error(proc)
    assert proc.stderr == f"error: config: {message}\n"
    assert not out.exists()


def with_line(body, line):
    """body with ``line``, one or more lines, in place of any line setting the same keys."""
    keys = {ln.split("=")[0].strip() for ln in line.splitlines()}
    kept = [ln for ln in body.splitlines() if ln.split("=")[0].strip() not in keys]
    return "\n".join(kept + [line]) + "\n"


#: The command line in a fresh interpreter, with every step that would
#: start a solve or read data_csv replaced by one that fails the run.
NO_SOLVE = """\
import sys
from chemid import cli

def reached(*args, **kwargs):
    raise AssertionError("a solve was started or data_csv was read")

cli.make_dataset = cli.lcurve_sweep = cli.rate_study = reached
cli.levenberg_marquardt = cli.read_noisy_csv = reached
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "command, line, message",
    [
        ("rates", "deltas = 1e-3,1e-2,1e-1", "rate-study deltas must number at least 4 (got 3)"),
        ("rates", "deltas = 1e-3,-1e-2,1e-1,1", "rate-study deltas must be positive"),
        ("rates", "deltas = 1e-3,1e-3,1e-2,1e-1", "rate-study deltas must be distinct"),
        ("rates", "deltas = 1e-3,2e-3,4e-3,8e-3",
         "rate-study deltas must span >= 1.5 decades (got 0.90)"),
        ("rates", "coupling = 0", "coupling must be > 0 (got 0.0)"),
        ("rates", "coupling = 1e-323",
         "alpha = coupling * smallest delta must be > 0 (got 0.0)"),
        ("rates", "seeds = 0,0", "rate-study seeds must be distinct"),
        ("rates", "n_basis = 1", "need at least 2 basis coefficients (got shape (1,))"),
        ("rates", "time_refine = 0", "time_refine must be >= 1 (got 0)"),
        ("rates", "padding = -0.1", "padding must be >= 0 (got -0.1)"),
        ("lcurve", "alphas = 1e-6,1e-5,-1e-4,1e-3,1e-2",
         "config key 'alphas': sweep alphas must be positive"),
        ("lcurve", "alphas = 1e-6,1e-5,1e-5,1e-3,1e-2",
         "config key 'alphas': sweep alphas must be distinct"),
        ("lcurve", "alphas = logspace:300:310:5",
         "config key 'alphas': alpha must be finite (got inf)"),
        ("lcurve", "alphas = logspace:-6:-2:1000000000",
         "config key 'alphas': a sweep of 1000000000 alphas needs an estimated "
         "64000000000 bytes, over the limit 2147483648"),
        ("make-data", "delta = -1e-3", "delta must be >= 0 (got -0.001)"),
        ("invert", "alpha = -1", "alpha must be >= 0 (got -1.0)"),
        ("forward", "x_left = -1e308\nx_right = 1e308",
         "dx and dt must be finite and positive (got dx=inf, dt=0.008333333333333333)"),
    ],
    ids=["three_deltas", "negative_delta", "repeated_deltas", "short_span", "zero_coupling",
         "underflowing_coupling", "repeated_seeds", "one_hat", "no_refine", "negative_padding",
         "negative_alpha", "repeated_alphas", "overflowing_alphas", "huge_logspace",
         "make_data_negative_delta",
         "invert_negative_alpha", "overflowing_span"],
)
def test_value_rules_exit_2_before_any_solve(tmp_path, data_dir, command, line, message):
    cfg = write_cfg(tmp_path, "bad.cfg", with_line(command_body(command, data_dir), line))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", NO_SOLVE, command, "--config", cfg, "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: config: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("lines", ["n_nodes = 11\nt_final = 1e308", "n_nodes = 6\nx_right = 1e300",
                                   "n_nodes = 6\nx_right = 1e-301"],
                         ids=["huge_dt", "huge_dx", "tiny_dx"])
def test_forward_on_an_extreme_grid_exits_3_with_one_error_line(tmp_path, lines):
    # one step of a = 2 on a grid whose dt D / dx^2 overflows or underflows:
    # the solver refuses its step weights before the summary reads a state
    body = with_line("n_steps = 1\ntruth = constant:2.0", lines)
    out = tmp_path / "out"
    proc = run_cli("forward", "--preset", "myerscough", "--config",
                   write_cfg(tmp_path, "grid.cfg", body), "--out", str(out))
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: solver: step weights not finite and > 0")
    assert len(proc.stderr.splitlines()) == 1 and "mass" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("xs, message", [
    (("-1e308", 0, "1e308"), "dx and dt must be finite and positive (got dx=inf, dt=0.1)"),
    (("-1e308", "1e308"), "n_nodes must be >= 3 (got 2)"),
], ids=["three_nodes", "two_nodes"])
def test_data_csv_whose_span_overflows_exits_2(tmp_path, data_dir, xs, message):
    # nodes from -1e308 to 1e308: uniform, but dx = inf, and with two nodes
    # the spacing overflows too; no warning reaches stderr
    comment = (data_dir / "data.csv").read_text().splitlines()[0]
    nodes = list(zip(xs, (0.5, 0.6, 0.7)))
    rows = [f"{t},{x},1,{c}" for t in (0, 0.1) for x, c in nodes]
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "data.csv").write_text("\n".join([comment, "t,x,u,c", *rows]) + "\n")
    out = tmp_path / "out"
    proc = run_cli("invert", "--config", invert_cfg(tmp_path, bad), "--out", str(out))
    assert_config_error(proc)
    assert message in proc.stderr
    assert not out.exists()


#: SHA-256 of every artifact of ``test_rerun_writes_identical_artifacts``, by
#: run.  Recorded with numpy 2.4.6 and scipy 1.17.1 on x86-64 Linux; a change
#: that moves a number on purpose updates this table and says so.
ARTIFACT_SHA256 = {
    "forward": {
        "params.txt":
            "4bc299ea6aaaf50a89531c63fd1348de43185df75f83d64713ae8f7da7b4517a",
        "summary.txt":
            "680133570a683c1525460852d1fb79cab565b7f56627ab97f81e93034f7039b7",
        "trajectory.csv":
            "397c9cc05490d42c5d60725afe5e1a5deb69bedb6ef07446214ce26e7061ef57",
    },
    "make-data": {
        "data.csv":
            "9b73babc2d1bd3b1f4d8a2d9649c4426c577f7d9c9995a451b95e48bfa76cff9",
        "summary.txt":
            "686a86ed995dd44c4c4dca81e40b8f01220abb723d974833913f2959a8471328",
    },
    "invert-refine-1": {
        "a_hat.csv":
            "97800549b69179004ee3d2d86f4740b6c593206f114331d20364a5d3eb70fe50",
        "report.txt":
            "21053a6f860cbac5513bcc343cbe96734b9ee272067fc3af4fad5d75dded6bb4",
    },
    "invert": {
        "a_hat.csv":
            "ed4b42ed54bff08f18a7179ceaed6cf817b93a88e895392b36664f8692522245",
        "report.txt":
            "fdea715fc972091ed572155a62ddd380fc68ee547c79df46c6ad416ede380f0d",
    },
    "invert-refine-3": {
        "a_hat.csv":
            "38bcf6b771a940197f1fae72877cc44fe87d1cadddc9d3bd71291a9cf19cb4e9",
        "report.txt":
            "657d4f7feb57ef597689360848106525316708ff4b4df3e775a81d5818cd1f40",
    },
    "lcurve": {
        "lcurve.csv":
            "0d5ce985855355e3f85b320c9d5e95ecfb506e28e907455d6802482a3e85fab4",
        "plot_lcurve.py":
            "53d272b0e0a4f80fd95e024bd359949072f0042abfa940a692efa82f2407b4a9",
        "summary.txt":
            "771bf7406ba73643d0c45cee731865037be340e3370d5d5a639add54b895df0c",
    },
    "rates-refine-1": {
        "plot_rates.py":
            "af4cf554ae4c910f1ad9eb1d1a841e5c0d22b33600e489b316f7354f8a43408c",
        "rates.csv":
            "32e324ab4fab2e470db3a9a726e8058e183603958f3b676a3235add136720c0a",
        "summary.txt":
            "99a6f409cdd2a32c6c84af4c6cb0c7aa13d02819e152353d79f2c404786905d0",
    },
    "rates": {
        "plot_rates.py":
            "63fec54626e84a992e289f210e5110a12457f1f6cc60fe5fafea485ca00ff31e",
        "rates.csv":
            "7592a9216807442c315e8b68808d44a81cc8fca06ab740c45cacf54a1ca3cb70",
        "summary.txt":
            "41a7de02b72e229d457c8028daf9d55767407e6ffff770b1c81fc042bf5ed3c1",
    },
}


#: (solves, steps, blocks) of each run of ``test_rerun_writes_identical_artifacts``:
#: ``_integrate`` calls, batched or not, ``pde._advance`` calls and
#: ``pde._tangent_coefficients`` calls, one per block of tangent steps.  A
#: change that adds a solve or a step, or that splits a solve into more
#: blocks, fails here without any timing.
SOLVE_COUNTS = {
    "forward": (1, 60, 0),
    "make-data": (1, 240, 0),
    "invert-refine-1": (3, 180, 3),
    "invert": (4, 480, 4),
    "invert-refine-3": (4, 720, 4),
    "lcurve": (14, 1680, 14),
    "rates-refine-1": (4, 420, 6),
    "rates": (5, 720, 11),
}


@pytest.mark.parametrize(
    "run",
    ["forward", "make-data", "invert-refine-1", "invert", "invert-refine-3", "lcurve",
     "rates-refine-1", "rates"],
)
def test_rerun_writes_identical_artifacts(tmp_path, data_dir, run, monkeypatch):
    """Every artifact of a rerun equals the first run's and the pinned bytes
    (4 hats, time_refine = 2 unless the run names another, the 21x60 grid
    and data generated on 81x240), and each run takes the pinned solves, steps
    and blocks of tangent steps."""
    command, _, refine = run.partition("-refine-")
    body = command_body(command, data_dir)
    for line in ("n_basis = 4", f"time_refine = {refine or 2}", "seeds = 0,1"):
        if line.split(" ")[0] in cfgmod.ALLOWED_KEYS[command]:
            body = with_line(body, line)
    cfg = write_cfg(tmp_path, "run.cfg", body)
    counts = []

    def count(owner, name, which):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[-1][which] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    # inversion imports _integrate by name, so both names are counted
    for owner, name, which in ((pde, "_integrate", 0), (inversion, "_integrate", 0),
                               (pde, "_advance", 1), (pde, "_tangent_coefficients", 2)):
        count(owner, name, which)
    runs = [tmp_path / "first", tmp_path / "again"]
    for out in runs:
        counts.append([0, 0, 0])
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
    assert counts == [list(SOLVE_COUNTS[run])] * 2
    first, again = ({p.name: p.read_bytes() for p in out.iterdir()} for out in runs)
    assert sorted(first) == sorted(readme_artifacts()[command])
    assert first == again
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in first.items()}
    assert digests == ARTIFACT_SHA256[run]


def test_failed_rerun_keeps_the_earlier_runs_artifacts(tmp_path, monkeypatch, capsys):
    out = tmp_path / "o"
    assert main(["forward", "--preset", "myerscough", "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def disk_full(params, grid, path):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "write_params", disk_full)
    cfg = write_cfg(tmp_path, "mu.cfg", "mu = 20\n")
    rc = main(["forward", "--preset", "myerscough", "--config", cfg, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: config: cannot write output")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    """Start-up guard: the command line needs only scipy's LAPACK wrappers."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, chemid.cli; print(*sorted(sys.modules))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    heavy = {
        "scipy.linalg", "scipy.interpolate", "scipy.optimize", "scipy.special", "scipy.sparse"
    }
    assert heavy.isdisjoint(proc.stdout.split())


def test_invert_loads_only_scipys_lapack_extension(tmp_path, data_dir):
    """A whole ``chemid invert`` in a fresh interpreter loads no scipy module but _flapack."""
    script = (
        "import sys\n"
        "from chemid.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "sys.exit(rc)\n"
    )
    cfg = invert_cfg(tmp_path, data_dir)
    proc = subprocess.run(
        [sys.executable, "-c", script, "invert", "--config", cfg, "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["scipy.linalg._flapack"]


@pytest.mark.parametrize(
    "c_min, c_max", [("-1e308", "1e308"), ("-inf", "1")], ids=["overflowing_width", "infinite_end"]
)
def test_table_sensitivity_on_a_non_finite_interval_exits_2(tmp_path, data_dir, c_min, c_max):
    table = tmp_path / "a.csv"
    table.write_text(
        f"# c_min={c_min} c_max={c_max} n_basis=2 extension=clamp\n"
        f"c_knot,a_value\n{c_min},1\n{c_max},1\n"
    )
    body = with_line(command_body("forward", data_dir), f"truth = table:{table}")
    out = tmp_path / "out"
    proc = run_cli("forward", "--config", write_cfg(tmp_path, "f.cfg", body), "--out", str(out))
    assert_config_error(proc)
    assert proc.stderr == (
        f"error: config: config key 'truth': concentration interval "
        f"[{float(c_min)}, {float(c_max)}] needs finite ends and width\n"
    )
    assert not out.exists()


def test_empty_concentration_interval_exits_2(tmp_path, data_dir):
    """An empty interval is an InvalidStateError, so a config error, both in
    a ``table:`` file and in the c-range of a data file."""
    table = tmp_path / "a.csv"
    table.write_text(
        "# c_min=0.5 c_max=0.5 n_basis=2 extension=clamp\nc_knot,a_value\n0.5,1\n0.5,1\n"
    )
    body = with_line(command_body("forward", data_dir), f"truth = table:{table}")
    cfg = write_cfg(tmp_path, "f.cfg", body)
    proc = run_cli("forward", "--config", cfg, "--out", str(tmp_path))
    assert proc.stderr == (
        "error: config: config key 'truth': empty concentration interval [0.5, 0.5]\n"
    )
    assert proc.returncode == 2

    lines = (data_dir / "data.csv").read_text().splitlines()
    flat = tmp_path / "flat"
    flat.mkdir()
    (flat / "data.csv").write_text("\n".join(
        lines[:2] + [ln.rsplit(",", 1)[0] + ",0.5" for ln in lines[2:]]
    ) + "\n")
    proc = run_cli("invert", "--config", invert_cfg(tmp_path, flat), "--out", str(tmp_path))
    assert proc.stderr == "error: config: concentration range is degenerate at c = 0.5\n"
    assert proc.returncode == 2


def test_failed_lcurve_leaves_out_as_it_was(tmp_path, data_dir):
    cfg = write_cfg(
        tmp_path, "lcurve.cfg",
        command_body("lcurve", data_dir) + "max_iters = 1\n",
    )
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep.txt").write_bytes(b"kept\n")
    proc = run_cli("lcurve", "--config", cfg, "--out", str(out))
    assert proc.returncode == 3
    assert proc.stderr == (
        "error: solver: corner detection needs >= 5 valid points, got 0\n"
    )
    assert [p.name for p in out.iterdir()] == ["keep.txt"]
    assert (out / "keep.txt").read_bytes() == b"kept\n"


def test_failed_write_after_stagnation_prints_one_error(tmp_path, data_dir):
    cfg = invert_cfg(tmp_path, data_dir, "max_iters = 1\n")
    out = tmp_path / "out"
    (out / "a_hat.csv").mkdir(parents=True)
    proc = run_cli("invert", "--config", cfg, "--out", str(out))
    assert_config_error(proc)
    assert "cannot write output" in proc.stderr
    assert "error: stagnation" not in proc.stderr
    assert [p.name for p in out.iterdir()] == ["a_hat.csv"]


def readme_artifacts():
    """{command: [artifact, ...]} from the README's command table."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    table = {}
    for line in readme.read_text(encoding="utf-8").splitlines():
        cells = line.split("|")
        if len(cells) == 5 and cells[1].strip().startswith("`"):
            table[cells[1].strip(" `")] = re.findall(r"`([^`]+)`", cells[3])
    return table


def test_commands_return_their_artifacts(tmp_path, data_dir, monkeypatch):
    readme = readme_artifacts()
    assert sorted(readme) == sorted(cli.COMMANDS)
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    for name, command in cli.COMMANDS.items():
        raw = load_config(write_cfg(tmp_path, f"{name}.cfg", command_body(name, data_dir)))
        artifacts, stagnation = command(resolve(name, raw, None))
        assert stagnation is None
        assert list(artifacts) == readme[name]
        assert list(run_dir.iterdir()) == []
