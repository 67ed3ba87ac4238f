"""Forward-solver unit and property tests.

Scheme-level checks are pinned against the dense-matrix oracle in
helpers.py; conservation/positivity/symmetry invariants are checked on
full solves.
"""

import dataclasses
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from chemid import pde
from chemid.config import load_config, resolve
from chemid.errors import (
    ConfigError,
    DomainMismatchError,
    InvalidStateError,
    LowerBoundViolationError,
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
from chemid.pde import _advance, _face_velocities, _integrate, _step_operators
from chemid.sensitivity import SensitivityFunction, hat_stencil
from chemid.synthdata import NoisyData, read_noisy_csv, write_noisy_csv

from helpers import (
    dense_diffusion_solve,
    dense_one_step,
    dimensionless,
    rgi_restrict,
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
    """Peak <= what the solve keeps + _integrate's block buffer + 64 KiB."""
    g = SimulationGrid(0.0, 1.0, 51, 0.25, 4000)
    u0, c0 = bump_initial(g)
    p = dimensionless(M=0.25, D=1.0)
    tracemalloc.start()
    try:
        traj = solve_forward(u0, c0, p, A_CONST2, g)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    frame = 16 * g.n_nodes
    block = min(g.n_steps + 1, max(1, pde._FRAME_BLOCK_BYTES // frame)) * frame
    assert kept >= 2 * traj.u.nbytes >= 2 * block  # a second copy of the frames would show
    assert peak <= kept + block + 64 * 1024


# ---------------------------------------------------------------------------
# face velocities


def velocities(c, a, dx):
    """``_face_velocities`` of a plain a(c): the velocities alone."""
    return _face_velocities(c, lambda face_c: (a(face_c), None), dx)[0]


def test_face_velocity_zero_for_uniform_c():
    g = SimulationGrid(0.0, 1.0, 6, 1.0, 10)
    v = velocities(np.full(6, 0.5), A_CONST2, g.dx)
    assert v.shape == (5,)
    assert np.all(v == 0.0)


def test_face_velocity_constant_a_linear_c():
    g = SimulationGrid(0.0, 1.0, 5, 1.0, 10)
    c = g.xs().copy()  # slope 1
    c += 0.2  # keep c positive; gradient unchanged
    v = velocities(c, A_CONST2, g.dx)
    np.testing.assert_allclose(v, 2.0, rtol=1e-14)


def test_face_velocity_inverse_sensitivity():
    # a(c) = 2/c sampled so that the face mean 0.3 is a knot, dx = 1
    a = SensitivityFunction.from_function(lambda cc: 2.0 / cc, 0.1, 0.7, 7)
    g = SimulationGrid(0.0, 2.0, 3, 1.0, 10)
    v = velocities(np.array([0.2, 0.4, 0.6]), a, g.dx)
    assert v[0] == pytest.approx((2.0 / 0.3) * 0.2, rel=1e-14)  # = 4/3


def test_face_velocity_rejects_nonfinite():
    g = SimulationGrid(0.0, 1.0, 4, 1.0, 10)
    with pytest.raises(InvalidStateError):
        velocities(np.array([0.5, np.nan, 0.5, 0.5]), A_CONST2, g.dx)


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


def test_step_flags_positivity_violation():
    # the implicit step maps u >= 0 to u >= 0, so feed the second row a
    # negative density directly; a short step keeps it negative
    g = SimulationGrid(0.0, 1.0, 11, 1e-3, 1)
    p = dimensionless(M=0.01, D=1.0)
    a = SensitivityFunction.constant(50.0, 0.0, 2.0, 4)
    u = np.full((2, 11), 0.5)
    u[1, 5] = -0.4
    c = np.tile(g.xs() + 0.1, (2, 1))
    flow = g.dt * velocities(c, a, g.dx)
    model = ForwardModel(p, g, u[0], c[0], "upwind")
    _, _, failures = _advance(u, c, flow, model, _step_operators(p, g))
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
    # block or inside a block of 4 frames (4..7)
    g = SimulationGrid(0.0, 1.0, 51, 0.05, 10)
    p = PhysicalParams.myerscough()
    u0, _ = bump_initial(g)
    steep = 0.5 + 0.45 * np.cos(np.pi * g.xs())
    coeffs = np.tile(A_CONST2.coeffs, (3, 1))
    coeffs[0, 3] = 1.7e308
    alone = solve_forward(u0, steep, p, A_CONST2, g)
    for block_frames, sizes in ((None, [11]), (4, [4, 4, 3])):
        if block_frames is not None:
            monkeypatch.setattr(pde, "_FRAME_BLOCK_BYTES", block_frames * 16 * 3 * g.n_nodes)
        steps, blocks = [], []

        def a(face_c):
            steps.append(1)
            vals = hat_stencil(face_c, A_CONST2.knots(), coeffs)[2]
            if len(steps) == 6:
                vals[2] = np.nan
            return vals, None

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
            hat = hat_stencil(face_c, knots, coeffs)
            return hat[2], hat

        errors = _integrate(model, a, n_rows, lambda j0, *XdX: blocks.append(
            [B.copy() for B in XdX]), directions=directions)
        assert len(blocks) == 1
        return errors, blocks[0]

    alone = solve_forward(u0, steep, model.params, A_CONST2, g)
    _, lone = run(1)
    real, steps = pde._advance, []

    def advance(u, c, flow, model, ops, tangent=None):
        steps.append(1)
        if len(steps) == 7:
            u = u.copy()
            u[2] *= -1e-3
        u_new, c_new, failures = real(u, c, flow, model, ops, tangent)
        if len(steps) >= 4:
            c_new[0] *= 1e-3
        return u_new, c_new, failures

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


@pytest.mark.parametrize("every", [2, 3])
@pytest.mark.parametrize("block_frames", [None, 2], ids=["one_block", "blocks_of_2"])
def test_sampled_frames_equal_every_kth_solved_frame(monkeypatch, every, block_frames):
    # 12 steps solve frames 0..12, of which every=2 samples 7 and every=3
    # samples 5; row 2's sensitivity turns nan in step 8, so its frames
    # 0..7 are valid and its samples after frame 7 are not compared
    g = SimulationGrid(0.0, 1.0, 51, 0.05, 12)
    u0, _ = bump_initial(g)
    steep = 0.5 + 0.45 * np.cos(np.pi * g.xs())
    model = ForwardModel(PhysicalParams.myerscough(), g, u0, steep, "blended")
    coeffs = np.tile(A_CONST2.coeffs, (3, 1)) * np.array([[1.0], [1.1], [0.9]])

    def run(k):
        steps, blocks = [], []

        def a(face_c):
            steps.append(1)
            vals = hat_stencil(face_c, A_CONST2.knots(), coeffs)[2]
            if len(steps) == 8:
                vals[2] = np.nan
            return vals, None

        errors = _integrate(model, a, 3, lambda j0, X: blocks.append((j0, X.copy())), k)
        sizes = [len(X) for _, X in blocks]
        assert [j0 for j0, _ in blocks] == list(np.cumsum([0] + sizes[:-1]))
        return errors, sizes, np.concatenate([X for _, X in blocks])

    full_errors, _, full = run(1)
    if block_frames is not None:
        monkeypatch.setattr(pde, "_FRAME_BLOCK_BYTES", block_frames * 16 * 3 * g.n_nodes)
    errors, sizes, sampled = run(every)
    n_frames = len(range(0, g.n_steps + 1, every))
    assert sizes == ([n_frames] if block_frames is None else
                     [2] * (n_frames // 2) + [1] * (n_frames % 2))
    assert [str(e) for e in errors] == [str(e) for e in full_errors]
    assert "face velocity is not finite in frame 8" in str(errors[2])
    assert sampled.shape == (n_frames, 2, 3, g.n_nodes)
    assert np.array_equal(sampled[:, :, :2], full[::every, :, :2])
    n_valid = len(range(0, 8, every))
    assert np.array_equal(sampled[:n_valid, :, 2], full[:8:every, :, 2])


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
