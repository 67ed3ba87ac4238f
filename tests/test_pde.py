"""Forward-solver unit and property tests.

Scheme-level checks are pinned against the dense-matrix oracle in
helpers.py; conservation/positivity/symmetry invariants are checked on
full solves.
"""

import dataclasses
import io
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from chemid import _g15, pde
from chemid._lapack import dgttrf
from chemid.config import load_config, resolve
from chemid.errors import (
    ConfigError,
    DomainMismatchError,
    InvalidStateError,
    LowerBoundViolationError,
    NonFiniteStateError,
    PositivityViolationError,
)
from chemid.pde import (
    ForwardModel,
    PhysicalParams,
    SimulationGrid,
    StateTrajectory,
    mass,
    read_trajectory_csv,
    restrict,
    solve_forward,
    space_time_sq_norm,
    write_params,
    write_trajectory_csv,
)
from chemid.pde import _integrate
from chemid.sensitivity import SensitivityFunction, hat_stencil
from chemid.synthdata import NoisyData, read_noisy_csv, write_noisy_csv

from helpers import (
    assert_bounded,
    block_bytes,
    dense_diffusion_solve,
    dense_one_step,
    dimensionless,
    interp_rows,
    rgi_restrict,
    step_bytes,
    strided_tangent_step,
    traced_solve,
    trajectory_distance,
)


def bump_initial(grid):
    """Interior aggregation seed: u = 1 + exp(-55 (x - 1/2)^2), c = 1/2."""
    x = grid.xs()
    return 1.0 + np.exp(-55.0 * (x - 0.5) ** 2), np.full(grid.n_nodes, 0.5)


A_CONST2 = SensitivityFunction.constant(2.0, 0.1, 0.9, 8)


def one_step(u0, c0, params, a, grid, advection="blended"):
    """(u, c) after a solve on a one-step grid: exactly one IMEX step of size grid.dt."""
    assert grid.n_steps == 1
    traj = solve_forward(u0, c0, params, a, grid, advection=advection)
    return traj.u[1], traj.c[1]


# ---------------------------------------------------------------------------
# construction / validation


def test_params_presets():
    p = dimensionless(M=0.25, D=1.0)
    assert (p.b, p.h, p.mu) == (1.0, 1.0, 1.0)
    m = PhysicalParams.myerscough()
    assert (m.M, m.D, m.b, m.h, m.mu) == (0.25, 1.0, 50.0, 1.0, 50.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(M=0.0, D=1, b=1, h=1, mu=1),
        dict(M=1, D=-1, b=1, h=1, mu=1),
        dict(M=1, D=1, b=1, h=0, mu=1),
        dict(M=1, D=1, b=-1, h=1, mu=1),
        dict(M=1, D=1, b=1, h=1, mu=-0.5),
    ],
)
def test_params_rejects_bad_coefficients(kwargs):
    with pytest.raises(InvalidStateError):
        PhysicalParams(**kwargs)


def test_grid_spacing():
    g = SimulationGrid(0.0, 1.0, 11, 0.5, 25)
    assert g.dx == pytest.approx(0.1)
    assert g.dt == pytest.approx(0.02)
    assert len(g.xs()) == 11 and len(g.times()) == 26
    w = g.cell_widths()
    assert w[0] == w[-1] == pytest.approx(0.05)
    assert np.all(w[1:-1] == pytest.approx(0.1))
    assert w.sum() == pytest.approx(1.0)


@pytest.mark.parametrize(
    "args",
    [
        (0.0, 1.0, 2, 1.0, 10),  # too few nodes
        (0.0, 1.0, 11, 1.0, 0),  # no steps
        (1.0, 1.0, 11, 1.0, 10),  # empty domain
        (0.0, 1.0, 11, 0.0, 10),  # zero horizon
        (-1e308, 1e308, 11, 0.25, 10),  # dx overflows
        (0.0, math.inf, 11, 0.25, 10),  # infinite dx
        (0.0, 1.0, 11, math.inf, 10),  # infinite dt
        (0.0, 5e-324, 11, 0.25, 10),  # dx underflows
    ],
)
def test_grid_rejects_degenerate(args):
    with pytest.raises(InvalidStateError):
        SimulationGrid(*args)


def test_trajectory_frame_count_checked():
    g = SimulationGrid(0.0, 1.0, 3, 1.0, 2)
    for X in (np.ones((1, 2, 3)), np.ones((3, 2, 4)), np.ones(18)):
        with pytest.raises(InvalidStateError):
            StateTrajectory(grid=g, X=X)


def test_trajectory_arrays_read_only_and_not_copied():
    g = SimulationGrid(0.0, 1.0, 3, 1.0, 2)
    u = np.arange(9.0).reshape(3, 3)
    traj = StateTrajectory(grid=g, X=np.stack([u, np.ones((3, 3))], axis=1))
    u[0, 0] = 7.0  # the trajectory holds its own copy
    assert traj.u[0, 0] == 0.0
    for arr in (traj.u, traj.c):
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0
    assert np.shares_memory(traj.u, traj.X) and np.shares_memory(traj.c, traj.X)


def test_trajectory_is_one_read_only_array_with_field_views():
    g = SimulationGrid(0.0, 1.0, 3, 1.0, 2)
    traj = StateTrajectory(grid=g, X=np.arange(18.0).reshape(3, 2, 3))
    assert [f.name for f in dataclasses.fields(traj)] == ["grid", "X"]
    for arr in (traj.X, traj.u, traj.c):
        assert np.shares_memory(arr, traj.X) and not arr.flags.writeable
    assert np.array_equal(traj.u, traj.X[:, 0]) and np.array_equal(traj.c, traj.X[:, 1])


def test_trajectory_copies_an_array_a_caller_can_still_write():
    g = SimulationGrid(0.0, 1.0, 3, 1.0, 2)
    X = np.arange(18.0).reshape(3, 2, 3).copy()
    view = X.view()
    view.setflags(write=False)  # read-only itself, but writable through X
    for given in (X, view, X.tolist()):
        assert not np.shares_memory(StateTrajectory(grid=g, X=given).X, X)
    X.setflags(write=False)
    assert StateTrajectory(grid=g, X=X).X is X


def test_solve_forward_keeps_the_buffer_it_filled(monkeypatch):
    handed = []
    readonly = pde._readonly
    monkeypatch.setattr(pde, "_readonly", lambda a: handed.append(a) or readonly(a))
    g = SimulationGrid(0.0, 1.0, 9, 0.1, 4)
    traj = solve_forward(*bump_initial(g), dimensionless(M=0.25, D=1.0), A_CONST2, g)
    assert traj.X is handed[-1]
    assert traj.X.flags.owndata and not traj.X.flags.writeable


def test_solve_forward_peak_memory_holds_the_trajectory_once():
    """Peak <= the estimate config holds a forward solve to, which a second
    copy of the frames would pass."""
    g = SimulationGrid(0.0, 1.0, 51, 0.25, 8000)
    u0, c0 = bump_initial(g)
    p = dimensionless(M=0.25, D=1.0)
    tracemalloc.start()
    try:
        traj = solve_forward(u0, c0, p, A_CONST2, g)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept >= traj.X.nbytes > pde.solve_bytes(g.n_nodes, g.n_steps, kept=0)
    assert peak <= pde.solve_bytes(g.n_nodes, g.n_steps)


def test_solve_bytes_counts_frames_blocks_and_tangents(monkeypatch):
    monkeypatch.setattr(pde, "_BLOCK_BYTES", 1000)
    monkeypatch.setattr(pde, "_STEP_BYTES", 24)
    monkeypatch.setattr(pde, "_SCRATCH_BYTES", (40, 32))
    monkeypatch.setattr(pde, "_SOLVE_BYTES", (2, 100))
    # one row on 3 nodes, 48 B a frame: 100 kept frames, a block of 20
    # steps buffering 21 frames, a base step's 40 B a node of scratch, and
    # the fixed 2 B a node and 100 B
    assert pde._plan(3, 1, 99, 0)[0] == 20
    assert pde.solve_bytes(3, 99) == 100 * 48 + 21 * 48 + 3 * 40 + (3 * 2 + 100)
    # two rows with 2 tangents: 96 B a frame of states, 288 B with tangents,
    # and 432 B a step with the 144 B its base step keeps: a block of 2
    # steps buffering 3 frames, the current tangents (192 B), the 2 steps'
    # keep, and a tangent step's scratch, 2 x 32 B a row and node, not a
    # base step's, which the keep of a block covers
    assert pde._plan(3, 2, 99, 2)[0] == 2
    assert pde.solve_bytes(3, 99, 2, 2) == (
        100 * 96 + 3 * 288 + 192 + 2 * 144 + 6 * 64 + (3 * 2 + 100))
    # a step over the budget still takes a block of its own; with a
    # tangent, the scratch is one tangent's, though a base step's is larger
    assert pde._plan(100, 1, 1, 1)[0] == 1
    assert pde.solve_bytes(100, 1, 1, 1, kept=1) == (
        1600 + 2 * 3200 + 1600 + 2400 + 100 * 32 + (100 * 2 + 100))
    # once the blocks are full, more steps cost nothing but the frames kept
    for rows, directions in ((1, 0), (2, 2)):
        big = pde.solve_bytes(3, 10**9, rows, directions, kept=1)
        assert pde.solve_bytes(3, 10**9 + 1, rows, directions, kept=1) == big
        assert pde.solve_bytes(3, 99, rows, directions, kept=1) == big


@pytest.mark.parametrize("every", [1, 3])
@pytest.mark.parametrize("rows", [1, 15, 41, 200])
def test_solve_bytes_bounds_a_tangent_solve(rows, every):
    # 4 hats on 51 x 250: blocks of 160, 10, 3 and 1 steps for 1, 15, 41
    # and 200 rows; record samples every solved frame or every third as
    # strided views of each block, as the lockstep's does, and keeps none:
    # it meets each sampled frame once, and the traced peak of the whole
    # solve is within its estimate, which also checks _STEP_BYTES
    assert pde._plan(51, rows, 250, 4)[0] == {1: 160, 15: 10, 41: 3, 200: 1}[rows]
    sampled = []

    def record(j0, X, dX):
        s = -j0 % every
        X, dX = X[s::every], dX[s::every]
        assert len(dX) == len(X) and X.base is not None and dX.base is not None
        sampled.append(((j0 + s) // every, len(X)))

    peak = traced_solve(rows, 51, 250, 4, record)
    starts = np.cumsum([0] + [k for _, k in sampled])
    assert [j for j, _ in sampled] == list(starts[:-1]) and starts[-1] == 250 // every + 1
    assert_bounded(peak, pde.solve_bytes(51, 250, rows, 4, kept=0))


def test_step_bytes_is_the_traced_slope_of_a_block():
    # what a block keeps per base step, measured at 1, 4 and 15 rows with
    # 4 hats: a change to what a step keeps must re-measure _STEP_BYTES
    slope = max(step_bytes(rows, 4) for rows in (1, 4, 15))
    assert abs(pde._STEP_BYTES - slope) <= 16


def test_a_blocks_coefficients_are_freed_before_record(monkeypatch):
    # the arrays _tangent_coefficients stacks for a block's tangent steps
    # are gone by the time record sees the block, in one block and in blocks of 3
    real, stacked, alive = pde._tangent_coefficients, [], []

    def coefficients(*args):
        steps = list(real(*args))
        stacked.extend(weakref.ref(a.base) for a in steps[0][:5])
        return iter(steps)

    def record(j0, X, dX):
        alive.append(sum(ref() is not None for ref in stacked))

    monkeypatch.setattr(pde, "_tangent_coefficients", coefficients)
    traced_solve(3, 21, 12, 4, record)
    monkeypatch.setattr(pde, "_BLOCK_BYTES", block_bytes(3, 21, 3, 4))
    traced_solve(3, 21, 12, 4, record)
    assert len(stacked) == 5 * 5 and alive == [0] * 5


@pytest.mark.parametrize("n_nodes, n_steps", [(51, 250), (201, 2000)], ids=["51x250", "201x2000"])
@pytest.mark.parametrize("rows", [1, 15])
def test_solve_bytes_bounds_a_solve_without_tangents(rows, n_nodes, n_steps):
    estimate = pde.solve_bytes(n_nodes, n_steps, rows, kept=0)
    assert_bounded(traced_solve(rows, n_nodes, n_steps), estimate)


@pytest.mark.parametrize("steps", [1, 2, 7], ids=["step_by_step", "blocks_of_2", "partial_last"])
@pytest.mark.parametrize("directions", [0, 4, 16])
@pytest.mark.parametrize("rows", [1, 15])
def test_solve_bytes_bounds_a_solve_in_short_blocks(monkeypatch, rows, directions, steps):
    # 250 steps on 51 nodes in blocks of 1, 2 and 7 steps, the last of 5
    monkeypatch.setattr(pde, "_BLOCK_BYTES", block_bytes(steps, 51, rows, directions))
    assert pde._plan(51, rows, 250, directions)[0] == steps
    estimate = pde.solve_bytes(51, 250, rows, directions, kept=0)
    assert_bounded(traced_solve(rows, 51, 250, directions), estimate)


@pytest.mark.parametrize("directions", [16, 24])
def test_solve_bytes_bounds_many_tangents_in_blocks_of_2(monkeypatch, directions):
    # 41 rows with many tangents: the tangent step's scratch outweighs a
    # block of two base steps' keep
    monkeypatch.setattr(pde, "_BLOCK_BYTES", block_bytes(2, 51, 41, directions))
    assert pde._plan(51, 41, 250, directions)[0] == 2
    estimate = pde.solve_bytes(51, 250, 41, directions, kept=0)
    assert_bounded(traced_solve(41, 51, 250, directions), estimate)


@pytest.mark.parametrize("L, rows", [(24, 1), (4, 15)], ids=["24x1", "4x15"])
def test_a_tangent_step_on_padded_lanes_equals_the_strided_step(L, rows):
    # one step from random tangents and coefficients on 51 nodes, byte for
    # byte against the strided oracle.  Lanes start or end at -0.0; of 15
    # rows, row 0 keeps it at its first node and row 14 at its last, through
    # an identity u-matrix and zero flux, only if the pad slots are +0 in
    # du -= f and -0 in du += (f a node back).  Row 7 of 15 is inf and nan between
    # finite rows: its pad slots, 0 * inf, must not reach rows 6 and 8, and
    # it ends all nan
    n, rng = 51, np.random.default_rng(L * rows)
    ops = pde._step_operators(PhysicalParams.myerscough(), SimulationGrid(0.0, 1.0, n, 0.25, 250))
    du, dc = rng.normal(size=(L, rows, n)), rng.uniform(0.5, 1.5, (L, rows, n))
    du[::2, :, 0] = du[1::3, :, -1] = -0.0
    lo, hi = rng.normal(size=(2, rows, n - 1))
    prod = rng.uniform(0.0, 1e-2, (rows, n))
    seg, frac = rng.integers(0, L - 1, (rows, n - 1)), rng.uniform(size=(rows, n - 1))
    src = rng.normal(size=(rows, n - 1))
    bands = [rng.uniform(-0.5, 0.5, rows * n - 1), rng.uniform(2.0, 3.0, rows * n),
             rng.uniform(-0.5, 0.5, rows * n - 1)]
    for band in bands[::2]:
        band[n - 1 :: n] = 0.0  # no coupling between the rows' blocks
    for r in (0, rows - 1) if rows > 1 else ():  # f = +0 but at face n - 2, -0
        du[:, r], lo[r], hi[r], src[r] = abs(du[:, r]) + 1.0, 0.0, 0.0, 0.0
        du[:, r, [0, -1]] = lo[r, -1] = hi[r, -1] = src[r, -1] = -0.0
        block = slice(r * n, r * n + n - 1)
        bands[0][block], bands[1][r * n : r * n + n], bands[2][block] = 0.0, 1.0, 0.0
    if rows > 1:
        du[:, 7], dc[:, 7] = np.where(rng.uniform(size=(L, n)) < 0.5, np.inf, np.nan), np.nan
    *u_lu, info = dgttrf(*bands)
    assert info == 0
    hats = np.concatenate([seg, seg + 1], axis=1)
    row, face = np.arange(rows)[:, None], np.tile(np.arange(n - 1), 2)
    phi = np.concatenate([src * (1.0 - frac), src * frac], axis=1).reshape(-1)
    at = [np.ravel_multi_index((hats, row, face), (L, rows, m)).reshape(-1) for m in (n - 1, n)]
    padded = np.zeros((2, rows, n))
    padded[..., :-1] = lo, hi
    tangents = np.zeros(2 * du.size + 1)
    tangents[:-1] = np.concatenate([du.reshape(-1), dc.reshape(-1)])
    with np.errstate(over="ignore", invalid="ignore"):
        strided_tangent_step(du, dc, (lo, hi, prod, at[0], phi, u_lu), ops)
        pde._tangent_step(tangents, (*padded, prod, at[1], phi, u_lu), ops)
    got = tangents[:-1].reshape(2, L, rows, n)
    finite = np.arange(rows) != 7
    for new, old in zip(got, (du, dc)):
        assert new[:, finite].tobytes() == old[:, finite].tobytes()
        assert rows == 1 or np.isnan(new[:, 7]).all()
    assert np.isfinite(got[:, :, finite]).all()
    if rows > 1:
        assert np.signbit(got[0, :, 0, 0]).all() and np.signbit(got[0, :, -1, -1]).all()


# ---------------------------------------------------------------------------
# face velocities


def velocities(monkeypatch, c, a, grid):
    """The face velocities of the first step ``_integrate`` takes from (u = 1, c):
    the flow it passes to ``_advance``, over dt.  Raises the row's error."""
    model = ForwardModel(dimensionless(M=0.25, D=1.0), grid, *np.ones((2, grid.n_nodes)))
    object.__setattr__(model, "c0", np.asarray(c, dtype=float))  # c may be what a model refuses
    real, flows = pde._advance, []

    def advance(u, c, flow, *args):
        flows.append(flow[0] / grid.dt)
        return real(u, c, flow, *args)

    monkeypatch.setattr(pde, "_advance", advance)
    (error,) = _integrate(model, a, 1, lambda j0, X: None)
    if error is not None:
        raise error
    return flows[0]


def test_face_velocity_zero_for_uniform_c(monkeypatch):
    g = SimulationGrid(0.0, 1.0, 6, 1.0, 10)
    v = velocities(monkeypatch, np.full(6, 0.5), A_CONST2, g)
    assert v.shape == (5,)
    assert np.all(v == 0.0)


def test_face_velocity_constant_a_linear_c(monkeypatch):
    g = SimulationGrid(0.0, 1.0, 5, 1.0, 10)
    c = g.xs().copy()  # slope 1
    c += 0.2  # keep c positive; gradient unchanged
    v = velocities(monkeypatch, c, A_CONST2, g)
    np.testing.assert_allclose(v, 2.0, rtol=1e-14)


def test_face_velocity_inverse_sensitivity(monkeypatch):
    # a(c) = 2/c sampled so that the face mean 0.3 is a knot, dx = 1
    a = SensitivityFunction.from_function(lambda cc: 2.0 / cc, 0.1, 0.7, 7)
    g = SimulationGrid(0.0, 2.0, 3, 1.0, 10)
    v = velocities(monkeypatch, np.array([0.2, 0.4, 0.6]), a, g)
    assert v[0] == pytest.approx((2.0 / 0.3) * 0.2, rel=1e-14)  # = 4/3


def test_face_velocity_rejects_nonfinite(monkeypatch):
    g = SimulationGrid(0.0, 1.0, 4, 1.0, 10)
    with pytest.raises(InvalidStateError):
        velocities(monkeypatch, np.array([0.5, np.nan, 0.5, 0.5]), A_CONST2, g)


# ---------------------------------------------------------------------------
# single step


def test_step_uniform_state_matches_scalar_ode():
    """Uniform fields kill every spatial operator; c follows the decay ODE."""
    g = SimulationGrid(0.0, 1.0, 11, 0.01, 1)
    p = dimensionless(M=0.25, D=1.0)
    u0, c0 = 1.0, 0.7
    u, c = one_step(np.full(11, u0), np.full(11, c0), p, A_CONST2, g)
    np.testing.assert_allclose(u, u0, rtol=0, atol=1e-14)
    expected_c = (c0 + g.dt * u0 / (u0 + 1.0)) / (1.0 + g.dt)
    np.testing.assert_allclose(c, expected_c, rtol=1e-14)


def test_step_zero_sensitivity_conserves_mass():
    g = SimulationGrid(0.0, 1.0, 21, 0.0025, 1)
    p = dimensionless(M=0.5, D=1.0)
    a0 = SensitivityFunction.constant(0.0, 0.0, 1.0, 4)
    u = 1.0 + np.sin(2 * np.pi * g.xs()) ** 2
    c = 0.5 + 0.3 * np.cos(np.pi * g.xs())
    u1, _ = one_step(u, c, p, a0, g)
    assert mass(u1, g) == pytest.approx(mass(u, g), rel=1e-12)


@pytest.mark.parametrize("scheme", ["upwind", "blended"])
def test_step_matches_dense_oracle_from_bump(scheme):
    """One step from the aggregation initial state on a small grid."""
    g = SimulationGrid(0.0, 1.0, 17, 1e-4, 1)
    p = PhysicalParams.myerscough()
    u0, c0 = bump_initial(g)
    u, c = one_step(u0, c0, p, A_CONST2, g, advection=scheme)
    uo, co = dense_one_step(u0, c0, p, A_CONST2, g.dx, g.dt, advection=scheme)
    np.testing.assert_allclose(u, uo, rtol=0, atol=1e-10)
    np.testing.assert_allclose(c, co, rtol=0, atol=1e-10)


@pytest.mark.parametrize("scheme", ["upwind", "blended"])
def test_step_matches_dense_oracle_nonuniform_c(scheme):
    """Nonzero gradients so the advective flux path is actually exercised."""
    g = SimulationGrid(0.0, 1.0, 19, 2e-4, 1)
    p = PhysicalParams(M=0.3, D=0.8, b=5.0, h=1.0, mu=3.0)
    x = g.xs()
    u0 = 1.0 + 0.5 * np.sin(2 * np.pi * x)
    c0 = 0.6 + 0.25 * np.cos(np.pi * x)
    a = SensitivityFunction.from_function(lambda cc: 1.0 + cc**2, 0.2, 1.0, 6)
    u, c = one_step(u0, c0, p, a, g, advection=scheme)
    uo, co = dense_one_step(u0, c0, p, a, g.dx, g.dt, advection=scheme)
    np.testing.assert_allclose(u, uo, rtol=0, atol=1e-10)
    np.testing.assert_allclose(c, co, rtol=0, atol=1e-10)


def test_step_flags_positivity_violation(monkeypatch):
    # the implicit step maps u >= 0 to u >= 0, so feed the second row a
    # negative density directly; a short step keeps it negative
    g = SimulationGrid(0.0, 1.0, 11, 1e-3, 1)
    p = dimensionless(M=0.01, D=1.0)
    a = SensitivityFunction.constant(50.0, 0.0, 2.0, 4)
    u = np.full((2, 11), 0.5)
    u[1, 5] = -0.4
    c = np.tile(g.xs() + 0.1, (2, 1))
    model = ForwardModel(p, g, u[0], c[0], "upwind")
    real = pde._advance
    monkeypatch.setattr(pde, "_advance", lambda _, *args: real(u, *args))
    errors = _integrate(model, a, 2, lambda j0, X: None)
    failures = [(row, exc) for row, exc in enumerate(errors) if exc is not None]
    assert [(row, type(exc)) for row, exc in failures] == [(1, PositivityViolationError)]


@pytest.mark.parametrize("scheme", ["upwind", "blended"])
def test_step_keeps_positivity_and_mass_for_any_dt(scheme):
    # steep c, large a and a huge step: the implicit flux still maps u >= 0
    # to u >= 0 with the mass of u unchanged
    g = SimulationGrid(0.0, 1.0, 11, 1.0, 1)
    p = dimensionless(M=0.01, D=1.0)
    a = SensitivityFunction.constant(50.0, 0.0, 2.0, 4)
    u0 = np.full(11, 0.5)
    u, _ = one_step(u0, g.xs() + 0.1, p, a, g, advection=scheme)
    assert u.min() >= 0.0
    assert mass(u, g) == pytest.approx(mass(u0, g), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(5, 20),
    scheme=st.sampled_from(["upwind", "blended"]),
)
def test_step_property_dense_oracle_agreement(seed, n, scheme):
    rng = np.random.default_rng(seed)
    g = SimulationGrid(0.0, 1.0, n, 5e-4, 1)
    p = PhysicalParams(
        M=rng.uniform(0.05, 1.0),
        D=rng.uniform(0.1, 2.0),
        b=rng.uniform(0.0, 10.0),
        h=rng.uniform(0.2, 2.0),
        mu=rng.uniform(0.0, 10.0),
    )
    u0 = rng.uniform(0.1, 2.0, n)
    c0 = rng.uniform(0.2, 1.5, n)
    a = SensitivityFunction(0.1, 2.0, rng.uniform(0.0, 3.0, 6))
    u, c = one_step(u0, c0, p, a, g, advection=scheme)
    uo, co = dense_one_step(u0, c0, p, a, g.dx, g.dt, advection=scheme)
    np.testing.assert_allclose(u, uo, rtol=0, atol=1e-10)
    np.testing.assert_allclose(c, co, rtol=0, atol=1e-10)
    # conservation and the one-step decay bound hold step-wise too
    assert mass(u, g) == pytest.approx(mass(u0, g), rel=1e-12, abs=1e-13)
    floor = c0.min() / (1.0 + p.mu * g.dt)
    assert c.min() >= floor * (1.0 - 1e-12)


# ---------------------------------------------------------------------------
# full solves


def test_solve_constant_fields_relax_to_equilibrium():
    """With a = 0 and uniform data, u stays put and c -> b U/(U+h)/mu."""
    g = SimulationGrid(0.0, 1.0, 11, 8.0, 400)
    p = dimensionless(M=0.25, D=1.0)
    a0 = SensitivityFunction.constant(0.0, 0.0, 1.0, 4)
    traj = solve_forward(np.full(11, 1.0), np.full(11, 0.2), p, a0, g)
    c_eq = 1.0 * 1.0 / (1.0 + 1.0) / 1.0  # = 0.5
    cs = traj.c[:, 0]
    assert np.all(np.diff(cs) > 0)  # monotone approach from below
    assert abs(cs[-1] - c_eq) < 1e-3
    np.testing.assert_allclose(traj.u, 1.0, atol=1e-12)


def test_solve_bump_develops_center_peak():
    """Chemotaxis keeps a single interior peak that regrows after the
    initial narrow bump has relaxed; without it the profile just decays."""
    g = SimulationGrid(0.0, 1.0, 101, 0.25, 500)
    p = PhysicalParams.myerscough()
    u0, c0 = bump_initial(g)
    traj = solve_forward(u0, c0, p, A_CONST2, g)
    uT = traj.u[-1]
    assert np.argmax(uT) == 50  # midpoint node
    peaks = traj.u.max(axis=1)
    assert peaks[-1] > peaks[len(peaks) // 2]  # aggregation phase under way
    a0 = SensitivityFunction.constant(0.0, 0.1, 0.9, 8)
    diffus = solve_forward(u0, c0, p, a0, g)
    assert uT.max() > 1.05 * diffus.u[-1].max()
    assert mass(uT, g) == pytest.approx(mass(u0, g), rel=1e-10)


def test_solve_conserves_mass_inverse_sensitivity():
    g = SimulationGrid(0.0, 1.0, 101, 0.25, 500)
    p = PhysicalParams.myerscough()
    a = SensitivityFunction.from_function(lambda cc: 2.0 / cc, 0.05, 1.0, 20)
    u0, c0 = bump_initial(g)
    traj = solve_forward(u0, c0, p, a, g)
    m0 = mass(u0, g)
    for u in traj.u:
        assert abs(mass(u, g) - m0) <= 1e-10 * m0


def test_solve_respects_concentration_floor():
    g = SimulationGrid(0.0, 1.0, 51, 0.25, 250)
    p = PhysicalParams.myerscough()
    u0, c0 = bump_initial(g)
    traj = solve_forward(u0, c0, p, A_CONST2, g)
    for t, u, c in zip(g.times(), traj.u, traj.c):
        bound = 0.5 * math.exp(-p.mu * t) * (1.0 - 1e-8)
        assert c.min() >= bound
        assert u.min() >= 0.0


def test_solve_preserves_reflection_symmetry():
    g = SimulationGrid(0.0, 1.0, 81, 0.25, 400)
    p = PhysicalParams.myerscough()
    u0, c0 = bump_initial(g)
    traj = solve_forward(u0, c0, p, A_CONST2, g)
    assert np.max(np.abs(traj.u - traj.u[:, ::-1])) <= 1e-9
    assert np.max(np.abs(traj.c - traj.c[:, ::-1])) <= 1e-9


def test_solve_refinement_contracts():
    """Error drop per dx,dt halving should be close to the scheme order."""
    p = PhysicalParams.myerscough()
    levels = []
    for k in range(3):
        g = SimulationGrid(0.0, 1.0, 50 * 2**k + 1, 0.25, 250 * 2**k)
        u0, c0 = bump_initial(g)
        levels.append(solve_forward(u0, c0, p, A_CONST2, g).u[-1])
    coarse, mid, fine = levels[0], levels[1][::2], levels[2][::4]
    d1 = np.linalg.norm(mid - coarse)
    d2 = np.linalg.norm(fine - mid)
    assert d1 / d2 >= 1.7


def test_solver_converges_at_its_designed_order():
    """Richardson self-convergence (Roache, Verification and Validation in
    Computational Science and Engineering, 1998, ch. 5) of a = 2/c with the
    Myerscough parameters on [0, 1] x [0, 1]: e_h is the RMS difference of u
    and c between a solve and the next finer one at the coarser's frames and
    nodes, and the observed order is p = log2(e_h / e_{h/2}).

    Measured: time only, 51 nodes and 100 to 3,200 steps (IMEX Euler, order
    1), 0.842 0.910 0.953 0.976; space only, 4,000 steps and 26 to 201 nodes
    (central faces, order 2), 1.617 2.141.  The last of each is gated.  a =
    100/c is not: on the same grids it read 0.40 0.57 0.59 0.37 in time and
    -0.14 0.12 in space, so those solves are not yet in the asymptotic range.
    """
    p, g = PhysicalParams.myerscough(), SimulationGrid(0.0, 1.0, 51, 1.0, 100)

    def orders(grids, frames, nodes):
        X = [solve_forward(*bump_initial(h), p, lambda c: 2.0 / c, h).X for h in grids]
        e = [np.sqrt(np.mean((fine[::frames, :, ::nodes] - coarse) ** 2))
             for coarse, fine in zip(X, X[1:])]
        return np.log2(np.divide(e[:-1], e[1:]))

    in_time = orders([g.with_resolution(51, 100 * 2**k) for k in range(6)], 2, 1)
    in_space = orders([g.with_resolution(25 * 2**k + 1, 4000) for k in range(4)], 1, 2)
    assert 0.9 <= in_time[-1] <= 1.1 and 1.8 <= in_space[-1] <= 2.3


def test_solve_cost_does_not_grow_with_sensitivity(monkeypatch):
    """a = 1000/c on 51x250: one step per frame, mass kept, u >= 0."""
    g = SimulationGrid(0.0, 1.0, 51, 0.25, 250)
    p = PhysicalParams.myerscough()
    u0, c0 = bump_initial(g)
    advance, calls = pde._advance, []

    def counted(*args):
        calls.append(1)
        return advance(*args)

    monkeypatch.setattr(pde, "_advance", counted)
    traj = solve_forward(u0, c0, p, lambda c: 1000.0 / c, g)
    assert len(calls) == g.n_steps
    m0 = mass(u0, g)
    for u in traj.u:
        assert abs(mass(u, g) - m0) <= 1e-12 * m0
    assert traj.u.min() >= 0.0


def test_batched_rows_fail_independently(monkeypatch):
    # row 0 carries a coefficient near the float maximum, so its face
    # velocity overflows in the first step; row 2's sensitivity turns nan
    # in step 6.  Row 1 must come out exactly as a lone solve, and row 2
    # up to the frame before it failed, whether that is inside the one
    # block or inside a block of 4 steps (frames 5..8)
    g = SimulationGrid(0.0, 1.0, 51, 0.05, 10)
    p = PhysicalParams.myerscough()
    u0, _ = bump_initial(g)
    steep = 0.5 + 0.45 * np.cos(np.pi * g.xs())
    coeffs = np.tile(A_CONST2.coeffs, (3, 1))
    coeffs[0, 3] = 1.7e308
    alone = solve_forward(u0, steep, p, A_CONST2, g)
    for block_steps, sizes in ((None, [11]), (4, [5, 4, 2])):
        if block_steps is not None:
            monkeypatch.setattr(pde, "_BLOCK_BYTES", block_bytes(block_steps, g.n_nodes, 3))
        steps, blocks = [], []

        def a(face_c):
            steps.append(1)
            vals = interp_rows(face_c, A_CONST2.knots(), coeffs)
            if len(steps) == 6:
                vals[2] = np.nan
            return vals

        errors = _integrate(
            ForwardModel(p, g, u0, steep, "blended"), a, 3,
            lambda j0, X: blocks.append((j0, X[:, 0].copy(), X[:, 1].copy())),
        )
        assert [type(e) for e in errors] == [InvalidStateError, type(None), InvalidStateError]
        assert "face velocity" in str(errors[0])
        assert "face velocity is not finite in frame 6" in str(errors[2])
        assert [len(U) for _, U, _ in blocks] == sizes
        assert [j0 for j0, _, _ in blocks] == list(np.cumsum([0] + sizes[:-1]))
        U = np.concatenate([U for _, U, _ in blocks])
        C = np.concatenate([C for _, _, C in blocks])
        assert np.array_equal(U[:, 1], alone.u)
        assert np.array_equal(C[:, 1], alone.c)
        assert np.array_equal(U[:6, 2], alone.u[:6]) and np.array_equal(C[:6, 2], alone.c[:6])


@pytest.mark.parametrize("directions", [0, 8], ids=["rows", "rows_and_tangents"])
def test_stopped_rows_step_on_without_touching_the_others(monkeypatch, directions):
    # row 0 leaves step 4 and every later step below its c floor, and row
    # 2 enters step 7 with a negative density; both stop, keep stepping
    # with zero flow to the end, and keep their first error.  Row 1 must
    # come out exactly as a lone solve, tangents included, and the stopped
    # rows up to the frame before they failed
    g = SimulationGrid(0.0, 1.0, 51, 0.05, 10)
    u0, _ = bump_initial(g)
    steep = 0.5 + 0.45 * np.cos(np.pi * g.xs())
    model = ForwardModel(PhysicalParams.myerscough(), g, u0, steep, "blended")
    knots = A_CONST2.knots()

    def run(n_rows):
        coeffs = np.tile(A_CONST2.coeffs, (n_rows, 1))
        blocks = []

        def a(face_c):
            return interp_rows(face_c, knots, coeffs)

        errors = _integrate(model, a, n_rows, lambda j0, *XdX: blocks.append(
            [B.copy() for B in XdX]), directions=directions,
            stencil=lambda face_c: hat_stencil(face_c, knots, coeffs))
        assert len(blocks) == 1
        return errors, blocks[0]

    alone = solve_forward(u0, steep, model.params, A_CONST2, g)
    _, lone = run(1)
    real, steps = pde._advance, []

    def advance(u, c, flow, model, ops):
        steps.append(1)
        if len(steps) == 7:
            u = u.copy()
            u[2] *= -1e-3
        u_new, c_new, *step = real(u, c, flow, model, ops)
        if len(steps) >= 4:
            c_new[0] *= 1e-3
        return u_new, c_new, *step

    monkeypatch.setattr(pde, "_advance", advance)
    errors, (X, *dX) = run(3)
    assert len(steps) == g.n_steps
    assert [type(e) for e in errors] == [
        LowerBoundViolationError, type(None), PositivityViolationError
    ]
    assert str(errors[0]).endswith("at t=0.02")
    assert np.array_equal(X[:, :, 1], alone.X)
    assert np.array_equal(X[:4, :, 0], alone.X[:4]) and np.array_equal(X[:7, :, 2], alone.X[:7])
    if directions:
        assert np.array_equal(dX[0][..., 1, :], lone[1][..., 0, :])


@pytest.mark.parametrize("steps", [1, 3, 10], ids=["step_by_step", "blocks_of_3", "one_block"])
def test_rows_that_stop_inside_a_step_block_leave_the_others_alone(monkeypatch, steps):
    # the floor (from step 4) and positivity (step 7) injections of the test
    # above, and a fourth row whose c and u turn nan in step 5 (a nan u left
    # in place would spread through the stacked u solve), in a solve with 8
    # tangents whose step blocks of 3 hold each failure inside a block: the
    # live row and its tangents equal a lone solve's, and the stopped rows
    # keep the errors of one 10-step block
    g = SimulationGrid(0.0, 1.0, 51, 0.05, 10)
    u0, _ = bump_initial(g)
    steep = 0.5 + 0.45 * np.cos(np.pi * g.xs())
    model = ForwardModel(PhysicalParams.myerscough(), g, u0, steep, "blended")
    knots = A_CONST2.knots()

    def run(n_rows):
        coeffs = np.tile(A_CONST2.coeffs, (n_rows, 1))
        blocks = []
        errors = _integrate(model, lambda face_c: interp_rows(face_c, knots, coeffs), n_rows,
                            lambda j0, *XdX: blocks.append([B.copy() for B in XdX]),
                            directions=8, stencil=lambda face_c: hat_stencil(face_c, knots, coeffs))
        return errors, [np.concatenate(B) for B in zip(*blocks)]

    _, (X_lone, dX_lone) = run(1)
    real, calls = pde._advance, []

    def advance(u, c, flow, model, ops):
        calls.append(1)
        if len(calls) == 7:
            u = u.copy()
            u[2] *= -1e-3
        u_new, c_new, *step = real(u, c, flow, model, ops)
        if len(calls) >= 4:
            c_new[0] *= 1e-3
        if len(calls) == 5:
            c_new[3, 20] = u_new[3, 20] = np.nan
        return u_new, c_new, *step

    monkeypatch.setattr(pde, "_advance", advance)
    expected, _ = run(4)
    calls.clear()
    monkeypatch.setattr(pde, "_BLOCK_BYTES", block_bytes(steps, g.n_nodes, 4, 8))
    errors, (X, dX) = run(4)
    assert len(calls) == g.n_steps
    assert [type(e) for e in errors] == [
        LowerBoundViolationError, type(None), PositivityViolationError, NonFiniteStateError
    ]
    assert str(errors[0]).endswith("at t=0.02")
    assert str(errors[2]).startswith("cell density reached")
    assert str(errors[3]) == "u or c is not finite in frame 5"
    assert [str(e) for e in errors] == [str(e) for e in expected]
    assert np.array_equal(X[:, :, 1], X_lone[:, :, 0])
    assert np.array_equal(dX[..., 1, :], dX_lone[..., 0, :])


@pytest.mark.parametrize("directions", [0, 8], ids=["rows", "rows_and_tangents"])
@pytest.mark.parametrize("steps, blocks", [
    (1, [(0, 2), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1)]),
    (3, [(0, 4), (4, 3), (7, 1)]),
    (10, [(0, 8)]),
], ids=["step_by_step", "blocks_of_3", "one_block"])
def test_a_batch_whose_every_row_stops_ends_at_the_last_frame_one_survived(
        monkeypatch, directions, steps, blocks):
    # row 0 falls below its c floor in step 3, row 1 turns nan in step 5
    # and row 2 enters step 8 with a negative density: the solve takes 8
    # steps of its 10, and record gets frames 0-7, once each and in order,
    # in blocks that start where the step blocks do
    g = SimulationGrid(0.0, 1.0, 51, 0.05, 10)
    u0, _ = bump_initial(g)
    steep = 0.5 + 0.45 * np.cos(np.pi * g.xs())
    model = ForwardModel(PhysicalParams.myerscough(), g, u0, steep, "blended")
    knots, coeffs = A_CONST2.knots(), np.tile(A_CONST2.coeffs, (3, 1))
    alone = solve_forward(u0, steep, model.params, A_CONST2, g)
    real, calls = pde._advance, []

    def advance(u, c, flow, model, ops):
        calls.append(1)
        if len(calls) == 8:
            u = u.copy()
            u[2] *= -1e-3
        u_new, c_new, *step = real(u, c, flow, model, ops)
        if len(calls) >= 3:
            c_new[0] *= 1e-3
        if len(calls) == 5:
            c_new[1, 20] = u_new[1, 20] = np.nan
        return u_new, c_new, *step

    monkeypatch.setattr(pde, "_advance", advance)
    monkeypatch.setattr(pde, "_BLOCK_BYTES", block_bytes(steps, g.n_nodes, 3, directions))
    got = []
    errors = _integrate(model, lambda face_c: interp_rows(face_c, knots, coeffs), 3,
                        lambda j0, *XdX: got.append((j0, *(B.copy() for B in XdX))),
                        directions=directions,
                        stencil=lambda face_c: hat_stencil(face_c, knots, coeffs))
    assert len(calls) == 8
    assert [(j0, len(X)) for j0, X, *_ in got] == blocks
    assert all(len(dX) == len(X) for _, X, *dX in got for dX in dX)
    assert [type(e) for e in errors] == [
        LowerBoundViolationError, NonFiniteStateError, PositivityViolationError
    ]
    assert str(errors[0]).endswith(f"at t={3 * g.dt:.6g}")
    assert str(errors[1]) == "u or c is not finite in frame 5"
    assert str(errors[2]).startswith("cell density reached")
    X = np.concatenate([X for _, X, *_ in got])
    assert np.array_equal(X[:3, :, 0], alone.X[:3]) and np.array_equal(X[:, :, 2], alone.X[:8])


def test_a_state_that_is_not_finite_stops_the_solve():
    # b dt overflows, so c is inf after the first step though every step
    # weight is finite; a lone solve raises and names the frame
    g = SimulationGrid(0.0, 1.0, 11, 10.0, 2)
    u0, c0 = bump_initial(g)
    with pytest.raises(NonFiniteStateError, match="u or c is not finite in frame 1"):
        solve_forward(u0, c0, PhysicalParams(M=1.0, D=1.0, b=1e308, h=1.0, mu=0.0), A_CONST2, g)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_solve_rejects_non_finite_face_velocity(value):
    g = SimulationGrid(0.0, 1.0, 11, 0.1, 10)
    p = dimensionless(M=0.25, D=1.0)
    c0 = 0.5 + 0.1 * np.cos(np.pi * g.xs())
    with pytest.raises(InvalidStateError, match="face velocity"):
        solve_forward(np.ones(11), c0, p, lambda c: np.full_like(c, value), g)


def test_solve_validates_initial_fields():
    g = SimulationGrid(0.0, 1.0, 11, 0.1, 10)
    p = dimensionless(M=0.25, D=1.0)
    ok_u, ok_c = np.ones(11), np.full(11, 0.5)
    with pytest.raises(InvalidStateError):
        solve_forward(-ok_u, ok_c, p, A_CONST2, g)
    with pytest.raises(InvalidStateError):
        solve_forward(ok_u, 0.0 * ok_c, p, A_CONST2, g)
    with pytest.raises(InvalidStateError):
        solve_forward(np.ones(7), ok_c, p, A_CONST2, g)


def test_model_rejects_unknown_advection_before_any_step(monkeypatch):
    def step(*args):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(pde, "_advance", step)
    g = SimulationGrid(0.0, 1.0, 11, 0.1, 10)
    p = dimensionless(M=0.25, D=1.0)
    with pytest.raises(InvalidStateError, match="unknown advection scheme 'bogus'"):
        solve_forward(np.ones(11), np.full(11, 0.5), p, A_CONST2, g, advection="bogus")


def test_model_keeps_read_only_copies_of_its_fields():
    g = SimulationGrid(0.0, 1.0, 11, 0.1, 10)
    u0, c0 = bump_initial(g)
    model = ForwardModel(dimensionless(M=0.25, D=1.0), g, u0, c0)
    u0[0] = c0[0] = 7.0
    assert model.u0[0] != 7.0 and model.c0[0] != 7.0
    assert not (model.u0.flags.writeable or model.c0.flags.writeable)
    with pytest.raises(ValueError):
        model.c0[0] = 7.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.advection = "upwind"


def test_models_one_ulp_apart_compare_unequal():
    g = SimulationGrid(0.0, 1.0, 11, 0.1, 10)
    p = dimensionless(M=0.25, D=1.0)
    u0, c0 = bump_initial(g)
    model = ForwardModel(p, g, u0, c0)
    assert model == ForwardModel(p, g, u0.copy(), c0.copy())
    nudged = c0.copy()
    nudged[3] = np.nextafter(nudged[3], np.inf)
    assert model != ForwardModel(p, g, u0, nudged)
    assert model != ForwardModel(p, g, u0, c0, "upwind")


def test_solve_zero_sensitivity_matches_diffusion_oracle():
    g = SimulationGrid(0.0, 1.0, 15, 0.05, 20)
    p = dimensionless(M=0.5, D=1.5)
    a0 = SensitivityFunction.constant(0.0, 0.0, 1.0, 4)
    u0 = 1.0 + np.cos(np.pi * g.xs()) ** 2
    c0 = np.full(15, 0.4)
    traj = solve_forward(u0, c0, p, a0, g)
    us, cs = dense_diffusion_solve(u0, c0, p, g)
    np.testing.assert_allclose(traj.u, us, rtol=0, atol=1e-9)
    np.testing.assert_allclose(traj.c, cs, rtol=0, atol=1e-9)


# ---------------------------------------------------------------------------
# mass / norms


def test_mass_constant_and_zero():
    g = SimulationGrid(0.0, 1.0, 11, 1.0, 10)
    assert mass(np.ones(11), g) == pytest.approx(1.0, rel=1e-14)
    assert mass(np.zeros(11), g) == 0.0


def test_mass_linear_profile():
    g = SimulationGrid(0.0, 1.0, 101, 1.0, 10)
    assert mass(g.xs(), g) == pytest.approx(0.5, abs=1e-6)


def test_space_time_norm_constant_field():
    g = SimulationGrid(0.0, 2.0, 5, 3.0, 6)
    vals = np.full((7, 5), 2.0)
    # 7 frames * 5 nodes * dx*dt * 4
    assert space_time_sq_norm(vals, g) == pytest.approx(7 * 5 * g.dx * g.dt * 4.0)


# ---------------------------------------------------------------------------
# restriction


def _linear_trajectory(grid):
    t, x = np.meshgrid(grid.times(), grid.xs(), indexing="ij")
    return StateTrajectory(
        grid=grid, X=np.stack([1.0 + 0.5 * x + 0.1 * t, 0.3 + 0.2 * x + 0.05 * t], axis=1)
    )


def test_restrict_identity():
    g = SimulationGrid(0.0, 1.0, 21, 0.5, 20)
    traj = _linear_trajectory(g)
    r = restrict(traj, g)
    np.testing.assert_array_equal(r.u, traj.u)
    np.testing.assert_array_equal(r.c, traj.c)


def test_restrict_exact_on_multilinear_fields():
    fine = SimulationGrid(0.0, 1.0, 41, 0.5, 40)
    coarse = SimulationGrid(0.0, 1.0, 7, 0.5, 9)  # nodes not subsets
    r = restrict(_linear_trajectory(fine), coarse)
    expected = _linear_trajectory(coarse)
    np.testing.assert_allclose(r.u, expected.u, atol=1e-13)
    np.testing.assert_allclose(r.c, expected.c, atol=1e-13)


def test_restrict_close_to_direct_coarse_solve():
    p = PhysicalParams.myerscough()
    fine = SimulationGrid(0.0, 1.0, 201, 0.25, 1000)
    coarse = SimulationGrid(0.0, 1.0, 101, 0.25, 500)
    uf, cf = bump_initial(fine)
    uc, cc = bump_initial(coarse)
    restricted = restrict(solve_forward(uf, cf, p, A_CONST2, fine), coarse)
    direct = solve_forward(uc, cc, p, A_CONST2, coarse)
    rel = trajectory_distance(restricted, direct) / math.sqrt(
        space_time_sq_norm(direct.u, coarse)
        + space_time_sq_norm(direct.c, coarse)
    )
    assert rel < 0.05


def test_restrict_rejects_larger_domain():
    fine = SimulationGrid(0.0, 1.0, 21, 0.5, 20)
    wider = SimulationGrid(-0.1, 1.0, 21, 0.5, 20)
    longer = SimulationGrid(0.0, 1.0, 21, 0.6, 20)
    traj = _linear_trajectory(fine)
    with pytest.raises(DomainMismatchError):
        restrict(traj, wider)
    with pytest.raises(DomainMismatchError):
        restrict(traj, longer)


@pytest.fixture(scope="module")
def myerscough_fine():
    """The data-generation solve of the Myerscough preset, 201 x 2000."""
    grid = SimulationGrid(0.0, 1.0, 201, 0.25, 2000)
    u0, c0 = bump_initial(grid)
    return solve_forward(u0, c0, PhysicalParams.myerscough(), A_CONST2, grid)


@pytest.mark.parametrize(
    "target",
    [
        SimulationGrid(0.0, 1.0, 51, 0.25, 250),
        SimulationGrid(0.0, 1.0, 37, 0.25, 111),
        SimulationGrid(0.1, 0.9, 29, 0.2, 90),
        SimulationGrid(0.0, 1.0, 201, 0.25, 2000),
    ],
    ids=["measurement", "non-nested", "sub-domain", "source"],
)
def test_restrict_equals_scipy_linear_interpolation(myerscough_fine, target):
    u, c = rgi_restrict(myerscough_fine, target)
    r = restrict(myerscough_fine, target)
    assert np.array_equal(r.u, u) and np.array_equal(r.c, c)


@settings(max_examples=60, deadline=None)
@given(
    x_left=st.floats(-10.0, 10.0),
    width=st.floats(1e-3, 20.0),
    t_final=st.floats(1e-3, 20.0),
    source=st.tuples(st.integers(3, 60), st.integers(1, 60)),
    target=st.tuples(st.integers(3, 60), st.integers(1, 60)),
    seed=st.integers(0, 2**32 - 1),
)
def test_restrict_property_equals_scipy(x_left, width, t_final, source, target, seed):
    """Any two grids on one domain, nested or not: bit-equal to scipy."""
    fine = SimulationGrid(x_left, x_left + width, source[0], t_final, source[1])
    coarse = fine.with_resolution(*target)
    rng = np.random.default_rng(seed)
    shape = (fine.n_steps + 1, fine.n_nodes)
    traj = StateTrajectory(
        grid=fine, X=np.stack([rng.random(shape), rng.standard_normal(shape)], axis=1)
    )
    u, c = rgi_restrict(traj, coarse)
    r = restrict(traj, coarse)
    assert np.array_equal(r.u, u) and np.array_equal(r.c, c)


# ---------------------------------------------------------------------------
# serialization


def test_trajectory_csv_roundtrip(tmp_path):
    g = SimulationGrid(0.0, 1.0, 9, 0.1, 4)
    p = dimensionless(M=0.25, D=1.0)
    u0, c0 = bump_initial(g)
    traj = solve_forward(u0, c0, p, A_CONST2, g)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,x,u,c"
    back = read_trajectory_csv(path)
    assert back.grid.n_nodes == g.n_nodes
    assert back.grid.n_steps == g.n_steps
    np.testing.assert_allclose(back.u, traj.u, rtol=1e-14)
    np.testing.assert_allclose(back.c, traj.c, rtol=1e-14)


def write_3x3_table(path, noisy):
    """A 3-node, 3-frame table as trajectory.csv or data.csv: (header lines, rows)."""
    g = SimulationGrid(0.0, 1.0, 3, 0.5, 2)
    U = np.arange(9.0).reshape(3, 3)
    if noisy:
        write_noisy_csv(NoisyData(grid=g, X=np.stack([U, U + 1], axis=1), delta=0.0, seed=0), path)
    else:
        write_trajectory_csv(StateTrajectory(grid=g, X=np.stack([U, U + 1], axis=1)), path)
    lines = path.read_text().splitlines()
    return lines[:-9], lines[-9:]


def rewrite_rows(path, head, rows):
    path.write_text("\n".join(head + rows) + "\n")


READERS = {"trajectory": read_trajectory_csv, "noisy": read_noisy_csv}
#: 3x3 row lists that hold every t and x value the right number of times
MISORDERED = {
    "node_major": lambda rows: [rows[3 * j + i] for i in range(3) for j in range(3)],
    # frame 1 loses its middle node and repeats its first
    "duplicated_row": lambda rows: rows[:4] + rows[3:4] + rows[5:],
}


@pytest.mark.parametrize("which", READERS)
@pytest.mark.parametrize("case", MISORDERED)
def test_csv_readers_reject_rows_out_of_order(tmp_path, which, case):
    path = tmp_path / "table.csv"
    head, rows = write_3x3_table(path, which == "noisy")
    rewrite_rows(path, head, MISORDERED[case](rows))
    with pytest.raises(InvalidStateError, match="rows must be ordered by frame, then by node"):
        READERS[which](path)


@pytest.mark.parametrize("which", READERS)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", [2, 3], ids=["u", "c"])
def test_csv_readers_reject_non_finite_values(tmp_path, which, value, column):
    path = tmp_path / "table.csv"
    head, rows = write_3x3_table(path, which == "noisy")
    cells = rows[4].split(",")
    cells[column] = value
    rewrite_rows(path, head, rows[:4] + [",".join(cells)] + rows[5:])
    with pytest.raises(InvalidStateError) as raised:
        READERS[which](path)
    assert str(raised.value) == f"{path}: u or c holds a non-finite value"


@pytest.mark.parametrize("which", READERS)
def test_csv_readers_reject_a_table_not_starting_at_t0(tmp_path, which):
    # 3 nodes, 5 frames on [0, 0.5] with the t = 0 rows deleted: read as
    # 4 frames, the rest would be relabelled onto t = 0, 1/6, 1/3, 1/2
    g = SimulationGrid(0.0, 1.0, 3, 0.5, 4)
    U = np.arange(1.0, 16.0).reshape(5, 3)
    path = tmp_path / "table.csv"
    if which == "noisy":
        write_noisy_csv(NoisyData(grid=g, X=np.stack([U, U + 1], axis=1), delta=0.0, seed=0), path)
    else:
        write_trajectory_csv(StateTrajectory(grid=g, X=np.stack([U, U + 1], axis=1)), path)
    lines = path.read_text().splitlines()
    rewrite_rows(path, lines[:-15], lines[-12:])
    with pytest.raises(InvalidStateError, match=r"first frame must be at t = 0 \(got t = 0.125\)"):
        READERS[which](path)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n_nodes=st.integers(3, 5), n_steps=st.integers(1, 3), data=st.data())
def test_trajectory_csv_reads_back_only_frame_then_node_order(tmp_path, n_nodes, n_steps, data):
    g = SimulationGrid(0.0, 1.0, n_nodes, 0.5, n_steps)
    U = np.arange((n_steps + 1) * n_nodes, dtype=float).reshape(n_steps + 1, n_nodes)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(StateTrajectory(grid=g, X=np.stack([U, -U], axis=1)), path)
    head, *rows = path.read_text().splitlines()
    order = data.draw(st.permutations(range(len(rows))))
    rewrite_rows(path, [head], [rows[k] for k in order])
    if order == sorted(order):
        back = read_trajectory_csv(path)
        assert back.grid == g
        assert np.array_equal(back.u, U) and np.array_equal(back.c, -U)
    else:
        with pytest.raises(InvalidStateError, match="ordered by frame, then by node"):
            read_trajectory_csv(path)


def write_frames_reference(fh, grid, U, C):
    """The frame writer as one f-string per value: the byte-level reference."""
    fh.write("t,x,u,c\n")
    for j, t in enumerate(grid.times()):
        for i, x in enumerate(grid.xs()):
            fh.write(f"{t:.15g},{x:.15g},{U[j, i]:.15g},{C[j, i]:.15g}\n")


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 3.0, -7.0, 1e16, 2.0**53]


@settings(max_examples=200, deadline=None)
@given(
    n_nodes=st.integers(3, 7),
    n_steps=st.integers(1, 4),
    x_left=st.sampled_from([0.0, -1.0, 0.1, -3e-9]),
    width=st.sampled_from([1.0, 0.3, 7.0, 1e-6]),
    t_final=st.sampled_from([0.25, 1.0, 0.1, 3e5]),
    data=st.data(),
)
def test_frame_writer_matches_per_value_formatting(n_nodes, n_steps, x_left, width, t_final, data):
    g = SimulationGrid(x_left, x_left + width, n_nodes, t_final, n_steps)
    value = st.one_of(
        st.sampled_from(EDGE_VALUES),
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(-10**6, 10**6).map(float),
    )
    size = (n_steps + 1) * n_nodes
    U, C = (
        np.array(data.draw(st.lists(value, min_size=size, max_size=size))).reshape(
            n_steps + 1, n_nodes
        )
        for _ in range(2)
    )
    got, want = io.StringIO(), io.StringIO()
    pde._write_frames(got, StateTrajectory(grid=g, X=np.stack([U, C], axis=1)))
    write_frames_reference(want, g, U, C)
    assert got.getvalue() == want.getvalue()


def python_g15(values):
    """Python's ``"%.15g" % v`` of each value, one per line: the byte-level reference."""
    return "".join("%.15g\n" % v for v in values.tolist())


def g15_lines(values, chunk=4096):
    """``_g15.format_into`` over ``values`` a chunk at a time, one per line, and
    how many values Python formatted."""
    out, text, python = np.empty((chunk, 32), dtype=np.uint8), [], 0
    for start in range(0, len(values), chunk):
        part = values[start : start + chunk]
        python += _g15.format_into(part, out[: len(part)])
        out[: len(part), 31] = ord("\n")  # no text reaches a field's last byte
        text.append(out[: len(part)].tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(text), python


def test_g15_matches_python_on_a_million_doubles():
    rng = np.random.default_rng(26)
    size = 500_000
    bits = rng.integers(0, 2**64, size=size, dtype=np.uint64).view(np.float64)  # every exponent
    decades = rng.random(size) * 10.0 ** rng.integers(-300, 301, size) * rng.choice([-1, 1], size)
    values = np.concatenate([bits, decades])
    got, python = g15_lines(values)
    assert got == python_g15(values)
    assert python < 0.1 * len(values)  # most went the vectorized way


G15_TRAPS = [
    999999999999999.4,  # log10 gives 15: a digit pass at that exponent prints 1e+15
    100000000000000.5, 100000000000001.5,  # exact ties, which round half to even
    1e-4, 9.99999999999999e-05, 1e15, 999999999999999.0, 1e16,  # where %g changes notation
    1.5e100, 1e-100, 1e-300, 1.7976931348623157e308,  # three-digit exponents
    5e-324, 1e-310,  # subnormals
    0.0, -0.0, math.inf, -math.inf, math.nan, 0.1, 1.0, 123456789012345.0,
] + [np.nextafter(10.0**k, side) for k in range(-30, 31) for side in (-math.inf, math.inf)]


def test_g15_matches_python_at_its_traps():
    values = np.array(G15_TRAPS + [-v for v in G15_TRAPS])
    got, python = g15_lines(values)
    assert got.splitlines() == python_g15(values).splitlines()
    assert got.splitlines()[0] == "999999999999999"
    # only these go through Python: the rest, next to powers of ten too, is vectorized
    a = np.abs(values)
    outside = ~np.isfinite(a) | ((a < 1e-280) & (a > 0)) | (a >= 1e281)
    ties = np.isin(a, [100000000000000.5, 100000000000001.5])
    assert python == np.count_nonzero(outside | ties)


@pytest.mark.parametrize("n_nodes, n_steps, s", [
    (201, 2000, 2.0), (51, 250, 2.0), (51, 250, 20.0), (51, 250, 50.0), (51, 250, 100.0),
])
def test_solved_trajectories_need_no_python_formatting(monkeypatch, n_nodes, n_steps, s):
    # the fine-io forward solve and the four stiff-forward ones, as the CLI sets them up
    raw = {"n_nodes": str(n_nodes), "n_steps": str(n_steps), "truth": f"inverse:{s}"}
    cfg = resolve("forward", raw, preset="myerscough")
    grid = cfg["grid"]
    traj = solve_forward(cfg["u0"](grid), cfg["c0"](grid), cfg["params"], cfg["truth"], grid)
    counts, format_into = [], _g15.format_into

    def counted(values, out):
        counts.append((len(values), format_into(values, out)))

    monkeypatch.setattr(pde._g15, "format_into", counted)
    pde._write_frames(io.StringIO(), traj)
    assert sum(n for n, _ in counts) == traj.X.size + grid.n_steps + 1 + grid.n_nodes
    assert sum(python for _, python in counts) == 0


MIXED_VALUES = [0.0, -0.0, 1.0, 2.5e-5, -3.25e-17, 0.125, 7e22, 123.456, -1e-4, 5e-324]


@pytest.mark.parametrize("rows", [1, 15, 10**6], ids=["frame", "partial_last", "one_block"])
@pytest.mark.parametrize("noisy", [False, True], ids=["trajectory", "noisy"])
def test_frame_writer_blocks_match_per_value_formatting(tmp_path, monkeypatch, rows, noisy):
    # 10 frames of 5 nodes: one frame per block, blocks of 3 frames and a last
    # block of 1, or one block; the rows cross every notation %g has
    g = SimulationGrid(-1.0, 2.0, 5, 3e5, 9)
    rng = np.random.default_rng(rows)
    U = rng.choice(MIXED_VALUES, size=(10, 5)) * rng.random((10, 5))
    C = np.abs(rng.choice(MIXED_VALUES, size=(10, 5))) + rng.random((10, 5))
    monkeypatch.setattr(pde, "_WRITE_ROWS", rows)
    path = tmp_path / "table.csv"
    if noisy:
        write_noisy_csv(NoisyData(grid=g, X=np.stack([U, C], axis=1), delta=1e-3, seed=4), path)
    else:
        write_trajectory_csv(StateTrajectory(grid=g, X=np.stack([U, C], axis=1)), path)
    want = io.StringIO()
    write_frames_reference(want, g, U, C)
    head = "# delta=0.001 seed=4\n" if noisy else ""
    assert path.read_text() == head + want.getvalue()


def test_frame_writer_formats_non_finite_values_through_python():
    g = SimulationGrid(0.0, 1.0, 4, 1.0, 2)
    U = np.full((3, 4), np.nan)
    C = np.array([[np.inf, -np.inf, np.nan, -np.nan]] * 3)
    got, want = io.StringIO(), io.StringIO()
    pde._write_frames(got, StateTrajectory(grid=g, X=np.stack([U, C], axis=1)))
    write_frames_reference(want, g, U, C)
    assert got.getvalue() == want.getvalue()


#: Traced bytes the frame writer may hold at once, for any trajectory length.
WRITER_PEAK = 1_500_000


def test_frame_writer_memory_does_not_grow_with_the_trajectory():
    class Sink:
        def write(self, text):
            pass

    _g15._tables()  # built once per process
    rng = np.random.default_rng(3)
    peaks = []
    for n_steps in (2000, 4000):
        g = SimulationGrid(0.0, 1.0, 201, 0.25, n_steps)
        traj = StateTrajectory(grid=g, X=rng.random((n_steps + 1, 2, 201)))
        tracemalloc.start()
        try:
            pde._write_frames(Sink(), traj)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < WRITER_PEAK, peaks


def test_params_file_roundtrip(tmp_path):
    # params.txt is in the config format and carries the physical and grid keys
    p = PhysicalParams.myerscough()
    g = SimulationGrid(0.0, 1.0, 51, 0.25, 250)
    path = tmp_path / "params.txt"
    write_params(p, g, path)
    rest = {"u0": "myerscough", "c0": "uniform:0.5", "truth": "constant:2.0"}
    cfg = resolve("forward", {**load_config(path), **rest})
    assert cfg["params"] == p
    assert cfg["grid"] == g


def test_params_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "params.txt"
    write_params(PhysicalParams.myerscough(), SimulationGrid(0, 1, 51, 0.25, 250), path)
    path.write_text(path.read_text() + "bogus = 3\n")
    with pytest.raises(ConfigError):
        resolve("forward", load_config(path))
