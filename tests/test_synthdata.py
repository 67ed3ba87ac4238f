"""Synthetic data pipeline tests: truth generation, noise calibration, IO."""

import numpy as np
import pytest

from chemid import synthdata
from chemid.errors import InvalidStateError, NoiseLevelError
from chemid.pde import (
    PhysicalParams,
    SimulationGrid,
    restrict,
    solve_forward,
    space_time_sq_norm,
)
from chemid.sensitivity import SensitivityFunction
from chemid.synthdata import (
    NoisyData,
    add_noise,
    make_dataset,
    myerscough_initial_data,
    read_noisy_csv,
    write_noisy_csv,
)

from helpers import dense_diffusion_solve, dimensionless


@pytest.fixture(scope="module")
def meas_truth():
    """Small measurement-grid truth shared by the noise tests."""
    p = PhysicalParams.myerscough()
    fine = SimulationGrid(0.0, 1.0, 81, 0.25, 400)
    meas = SimulationGrid(0.0, 1.0, 21, 0.25, 50)
    a2 = SensitivityFunction.constant(2.0, 0.1, 0.9, 8)
    u0, c0 = myerscough_initial_data(fine)
    return restrict(solve_forward(u0, c0, p, a2, fine), meas)


def test_make_dataset_truth_is_the_forward_solve():
    p = PhysicalParams.myerscough()
    g = SimulationGrid(0.0, 1.0, 41, 0.1, 100)
    a2 = SensitivityFunction.constant(2.0, 0.1, 0.9, 8)
    u0, c0 = myerscough_initial_data(g)
    t1 = make_dataset(a2, p, g, g.with_resolution(11, 25), u0, c0, 0.0, 0).truth_fine
    t2 = solve_forward(u0, c0, p, a2, g)
    np.testing.assert_array_equal(t1.u_matrix(), t2.u_matrix())
    np.testing.assert_array_equal(t1.c_matrix(), t2.c_matrix())


def test_zero_sensitivity_truth_is_pure_diffusion():
    p = dimensionless(M=0.4, D=1.2)
    g = SimulationGrid(0.0, 1.0, 15, 0.05, 25)
    a0 = SensitivityFunction.constant(0.0, 0.0, 1.0, 4)
    u0 = 1.0 + np.sin(np.pi * g.xs()) ** 2
    c0 = np.full(15, 0.6)
    traj = make_dataset(a0, p, g, g.with_resolution(4, 6), u0, c0, 0.0, 0).truth_fine
    us, cs = dense_diffusion_solve(u0, c0, p, g)
    np.testing.assert_allclose(traj.u_matrix(), us, atol=1e-9)
    np.testing.assert_allclose(traj.c_matrix(), cs, atol=1e-9)


def test_add_noise_zero_delta_is_passthrough(meas_truth):
    d = add_noise(meas_truth, 0.0, seed=4)
    np.testing.assert_array_equal(d.z_u, meas_truth.u_matrix())
    np.testing.assert_array_equal(d.z_c, meas_truth.c_matrix())
    assert d.delta == 0.0


@pytest.mark.parametrize("delta", [1e-4, 1e-2])
def test_add_noise_realizes_delta_exactly(meas_truth, delta):
    d = add_noise(meas_truth, delta, seed=11)
    g = meas_truth.grid
    nu2 = space_time_sq_norm(d.z_u - meas_truth.u_matrix(), g)
    nc2 = space_time_sq_norm(d.z_c - meas_truth.c_matrix(), g)
    assert nu2 == pytest.approx(delta**2, rel=1e-10)
    assert nc2 == pytest.approx(delta**2, rel=1e-10)
    assert d.z_c.min() > 0


def test_add_noise_deterministic_per_seed(meas_truth):
    d1 = add_noise(meas_truth, 1e-3, seed=42)
    d2 = add_noise(meas_truth, 1e-3, seed=42)
    np.testing.assert_array_equal(d1.z_u, d2.z_u)
    np.testing.assert_array_equal(d1.z_c, d2.z_c)
    d3 = add_noise(meas_truth, 1e-3, seed=43)
    assert np.any(d3.z_u != d1.z_u)
    g = meas_truth.grid
    n3 = space_time_sq_norm(d3.z_u - meas_truth.u_matrix(), g)
    n1 = space_time_sq_norm(d1.z_u - meas_truth.u_matrix(), g)
    assert n3 == pytest.approx(n1, rel=1e-10)  # same realized level


def test_add_noise_gives_up_when_positivity_unreachable(meas_truth, monkeypatch):
    # delta far above the c scale: every redraw will cross zero somewhere
    monkeypatch.setattr(synthdata, "MAX_NOISE_ATTEMPTS", 4)
    with pytest.raises(NoiseLevelError, match="after 4 redraws"):
        add_noise(meas_truth, 50.0, seed=1)


def test_add_noise_rejects_negative_delta(meas_truth):
    with pytest.raises(InvalidStateError):
        add_noise(meas_truth, -1e-3, seed=0)


def test_add_noise_rejects_negative_seed(meas_truth):
    with pytest.raises(InvalidStateError, match="seed"):
        add_noise(meas_truth, 1e-3, seed=-1)


def test_make_dataset_enforces_mesh_separation():
    p = PhysicalParams.myerscough()
    fine = SimulationGrid(0.0, 1.0, 41, 0.25, 100)
    meas = SimulationGrid(0.0, 1.0, 21, 0.25, 50)  # only 2x finer
    a2 = SensitivityFunction.constant(2.0, 0.1, 0.9, 8)
    u0, c0 = myerscough_initial_data(fine)
    with pytest.raises(InvalidStateError):
        make_dataset(a2, p, fine, meas, u0, c0, 1e-3, seed=0)


def test_make_dataset_pipeline():
    p = PhysicalParams.myerscough()
    fine = SimulationGrid(0.0, 1.0, 81, 0.25, 400)
    meas = SimulationGrid(0.0, 1.0, 21, 0.25, 100)
    a2 = SensitivityFunction.constant(2.0, 0.1, 0.9, 8)
    u0, c0 = myerscough_initial_data(fine)
    ds = make_dataset(a2, p, fine, meas, u0, c0, 1e-3, seed=9)
    assert ds.data.grid == meas
    assert ds.truth_fine.grid == fine
    # restriction really is the fine truth sampled down, not a coarse solve
    np.testing.assert_array_equal(
        ds.truth_meas.u_matrix(), restrict(ds.truth_fine, meas).u_matrix()
    )
    nu2 = space_time_sq_norm(ds.data.z_u - ds.truth_meas.u_matrix(), meas)
    assert nu2 == pytest.approx(1e-6, rel=1e-10)


def test_noisy_data_validates_shape_and_positivity():
    g = SimulationGrid(0.0, 1.0, 3, 1.0, 1)
    good = np.ones((2, 3))
    with pytest.raises(InvalidStateError):
        NoisyData(grid=g, z_u=np.ones((3, 3)), z_c=good, delta=0.0, seed=0)
    bad_c = good.copy()
    bad_c[1, 2] = 0.0
    with pytest.raises(InvalidStateError):
        NoisyData(grid=g, z_u=good, z_c=bad_c, delta=0.0, seed=0)


def test_noisy_data_rejects_negative_seed():
    g = SimulationGrid(0.0, 1.0, 3, 1.0, 1)
    with pytest.raises(InvalidStateError, match=r"seed must be >= 0 \(got -1\)"):
        NoisyData(grid=g, z_u=np.ones((2, 3)), z_c=np.ones((2, 3)), delta=0.0, seed=-1)


def test_noisy_csv_roundtrip_and_reproducibility(tmp_path, meas_truth):
    d = add_noise(meas_truth, 1e-3, seed=5)
    p1, p2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
    write_noisy_csv(d, p1)
    write_noisy_csv(add_noise(meas_truth, 1e-3, seed=5), p2)
    assert p1.read_bytes() == p2.read_bytes()  # byte-identical reruns
    first = p1.read_text().splitlines()[0]
    assert first == "# delta=0.001 seed=5"
    back = read_noisy_csv(p1)
    assert back.delta == 1e-3 and back.seed == 5
    np.testing.assert_allclose(back.z_u, d.z_u, rtol=1e-14)
    np.testing.assert_allclose(back.z_c, d.z_c, rtol=1e-14)


@pytest.mark.parametrize(
    "header, missing",
    [("# delta=0.001", "seed"), ("# seed=5", "delta")],
    ids=["no_seed", "no_delta"],
)
def test_read_noisy_csv_names_missing_metadata_key(tmp_path, meas_truth, header, missing):
    path = tmp_path / "d.csv"
    write_noisy_csv(add_noise(meas_truth, 1e-3, seed=5), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join([header] + lines[1:]) + "\n")
    with pytest.raises(InvalidStateError, match=f"metadata missing '{missing}'"):
        read_noisy_csv(path)
