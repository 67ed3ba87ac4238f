"""Independent reference implementations used as test oracles.

The oracles are deliberately written the slow way (scalar loops, dense
matrices, generic quadrature) and share no code with the package, so
agreement is evidence rather than tautology.  The three measures at the
top (objective, trajectory distance, penalty) are short compositions of
package functions that only tests need.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator

import chemid.inversion as inv
from chemid import pde
from chemid._lapack import dgttrs
from chemid.inversion import _run_lockstep, residual_vector
from chemid.pde import PhysicalParams, space_time_sq_norm
from chemid.sensitivity import hat_stencil, mass_matrix, require_same_basis

#: Seconds a test waits for a child interpreter: a command that blocks fails
#: its test instead of hanging the suite.
CHILD_TIMEOUT = 300


def dimensionless(M, D):
    """Physical parameters with b = h = mu = 1."""
    return PhysicalParams(M=M, D=D, b=1.0, h=1.0, mu=1.0)


def objective(coeffs, prob):
    """J_alpha(coeffs) = ||residual_vector(coeffs)||^2."""
    r = residual_vector(coeffs, prob)
    return float(r @ r)


def central_jacobian(coeffs, prob, h):
    """Central-difference Jacobian of residual_vector, column k from steps
    +-h max(|a_k|, 1) of coefficient k."""
    coeffs = np.asarray(coeffs, dtype=float)
    cols = []
    for k in range(coeffs.size):
        e = np.zeros(coeffs.size)
        e[k] = h * max(abs(coeffs[k]), 1.0)
        diff = residual_vector(coeffs + e, prob) - residual_vector(coeffs - e, prob)
        cols.append(diff / (2.0 * e[k]))
    return np.column_stack(cols)


def trajectory_distance(a, b):
    """Space-time L2 distance between two trajectories on one grid, over both fields."""
    assert a.grid == b.grid
    du2 = space_time_sq_norm(a.u - b.u, a.grid)
    return math.sqrt(du2 + space_time_sq_norm(a.c - b.c, a.grid))


def penalty(a, a_star):
    """Squared L2(I) distance (a - a*)^T B (a - a*) on a shared basis."""
    require_same_basis(a, a_star, "sensitivities use different knots")
    d = a.coeffs - a_star.coeffs
    return float(d @ mass_matrix(a.n_basis, a.c_min, a.c_max) @ d)


def per_frame_fold(J, r0, prob):
    """(J^T J, J^T r0) summed one measurement frame and field at a time.

    The data rows of J are folded frame by frame, u before c, each as a
    fresh C-ordered (L, n_nodes) block Jt adding Jt Jt^T and Jt r0; the
    penalty rows are added last.  This is the order the LM's fold must
    keep for its sums to come out bit for bit the same.
    """
    n_frames, n_nodes = prob.data.u.shape
    n_data = 2 * n_frames * n_nodes
    blocks = J[:n_data].reshape(2, n_frames, n_nodes, -1)
    R0 = r0[:n_data].reshape(2, n_frames, n_nodes)
    JTJ = np.zeros((J.shape[1], J.shape[1]))
    JTr = np.zeros(J.shape[1])
    for frame in range(n_frames):
        for field in (0, 1):
            Jt = np.ascontiguousarray(blocks[field, frame].T)
            JTJ += Jt @ Jt.T
            JTr += Jt @ R0[field, frame]
    J_pen = J[n_data:]
    return JTJ + J_pen.T @ J_pen, JTr + J_pen.T @ r0[n_data:]


def evaluation(coeffs):
    """A lockstep request for one evaluation at ``coeffs``: it yields the row
    once and returns the (r @ r, (misfit, penalty), J^T J, J^T r) it is sent."""
    return (yield coeffs)


def run_request(coeffs, prob):
    """(r @ r, (misfit, penalty), J^T J, J^T r) of one lone evaluation at
    ``coeffs``, or the ForwardSolveError that stopped it."""
    (result,) = _run_lockstep([prob], [evaluation(coeffs)])
    return result


def closed_rows(monkeypatch):
    """A list that gets a copy of every residual row ``_run_lockstep`` closes, in order."""
    rows, real = [], inv._close_row

    def close(prob, coeffs, error, r, JTJ, JTr):
        reply = real(prob, coeffs, error, r, JTJ, JTr)
        rows.append(r.copy())
        return reply

    monkeypatch.setattr(inv, "_close_row", close)
    return rows


def full_span(monkeypatch):
    """Make every tangent solve step all L hats: each step's coefficients go
    to ``pde._tangent_step`` without their span, with ``phi_at`` from 0."""
    real = pde._tangent_coefficients

    def coefficients(*args):
        for *step, phi_at, phi, u_lu, first, _ in real(*args):
            yield *step, phi_at + first, phi, u_lu

    monkeypatch.setattr(pde, "_tangent_coefficients", coefficients)


def active_directions(coeffs, prob):
    """(active, spans) of the tangent solve of the rows ``coeffs`` of ``prob``.

    ``active[j, l]`` is False where direction l is zero in every row, field
    and node of solved frame j, in a solve of all L directions
    (``full_span``): +0.0, or -0.0 where the c-matrix's factor has a
    negative pivot.  ``spans[j - 1]`` is the [first, last) in hats that step
    j takes in the solve as it runs, which leaves the others +0.0.
    """
    rows = np.atleast_2d(np.asarray(coeffs, dtype=float))
    knots, L, model = prob.a_star.knots(), prob.n_basis, prob.model
    active = np.zeros((model.grid.n_steps + 1, L), dtype=bool)
    spans, real = [], pde._tangent_coefficients
    lane = len(rows) * model.grid.n_nodes

    def record(j0, X, dX):
        active[j0 : j0 + len(dX)] = dX.any(axis=(1, 3, 4))

    def coefficients(*args):
        steps = list(real(*args))
        spans.extend((first // lane, last // lane) for *_, first, last in steps)
        return iter(steps)

    def solve(record):
        errors = pde._integrate(model, lambda face_c: interp_rows(face_c, knots, rows), len(rows),
                                record, L, lambda face_c: hat_stencil(face_c, knots, rows))
        assert errors == [None] * len(rows)

    with pytest.MonkeyPatch.context() as mp:
        full_span(mp)
        solve(record)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pde, "_tangent_coefficients", coefficients)
        solve(lambda *_: None)
    return active, np.array(spans)


def strided_tangent_step(du, dc, coefficients, ops):
    """One tangent step on unpadded lanes, ``pde._tangent_step``'s oracle.

    (du, dc) are (L, rows, n_nodes) arrays advanced in place; ``lo`` and
    ``hi`` are (rows, n_nodes - 1) and ``phi_at`` indexes an (L, rows,
    n_nodes - 1) array of face fluxes, which adds into node k and k + 1
    through strided views of du and dc.
    """
    lo, hi, prod, phi_at, phi, u_lu = coefficients
    _, widths, c_lu = ops[:3]
    L, rows, n = du.shape
    f = lo * dc[..., :-1] + hi * dc[..., 1:]
    f.reshape(-1)[phi_at] += phi
    dc += prod * du
    du *= widths
    du[..., :-1] -= f
    du[..., 1:] += f
    dgttrs(*c_lu, dc.reshape(-1, n).T, b"N", 1)
    broken = ~np.isfinite(du).all(axis=(0, 2))
    du[:, broken] = 0.0
    dgttrs(*u_lu, du.reshape(L, -1).T, b"N", 1)
    du[:, broken] = np.nan


def block_bytes(steps, n_nodes, rows, directions=0):
    """The ``pde._BLOCK_BYTES`` at which a solve of ``rows`` rows on ``n_nodes``
    nodes with ``directions`` tangents takes its steps in blocks of ``steps``:
    ``steps`` times what one step adds to the buffers of the solve's plan."""
    one, none = (pde._plan(n_nodes, rows, n, directions)[2] for n in (1, 0))
    return steps * (one - none)


def traced_solve(rows, n_nodes, n_steps, directions=0, record=lambda j0, *X: None):
    """The traced peak of a ``pde._integrate`` solve on n_nodes x n_steps, with
    ``record`` keeping no frame by default: ``rows`` rows of hats near a = 2,
    with L = ``directions`` tangents each."""
    g = pde.SimulationGrid(0.0, 1.0, n_nodes, 0.05, n_steps)
    x = g.xs()
    u0, c0 = 1.0 + np.exp(-55.0 * (x - 0.5) ** 2), 0.5 + 0.45 * np.cos(np.pi * x)
    model = pde.ForwardModel(PhysicalParams.myerscough(), g, u0, c0)
    knots = np.linspace(0.05, 0.95, max(directions, 2))
    coeffs = np.full((rows, len(knots)), 2.0) * np.linspace(0.9, 1.1, rows)[:, None]
    peak, errors = traced_peak(lambda: pde._integrate(
        model, lambda face_c: interp_rows(face_c, knots, coeffs), rows, record,
        directions=directions, stencil=lambda face_c: hat_stencil(face_c, knots, coeffs)))
    assert errors == [None] * rows
    return peak


def step_bytes(rows, directions):
    """What a tangent solve on 51 nodes holds per base step of a block, in bytes
    a row and node: the traced peak of 100 steps in blocks of 50 less that in
    blocks of 10, over the 40 steps between, net of the frames and tangents
    ``X`` and ``dX`` hold.  ``pde._STEP_BYTES`` is this slope."""
    peaks = []
    for steps in (50, 10):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pde, "_BLOCK_BYTES", block_bytes(steps, 51, rows, directions))
            peaks.append(traced_solve(rows, 51, 100, directions))
    return (peaks[0] - peaks[1]) / (40 * rows * 51) - 16 * (1 + directions)


def traced_peak(run):
    """(the tracemalloc peak in bytes of ``run()``, what it returned)."""
    tracemalloc.start()
    try:
        out = run()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def assert_bounded(peak, estimate):
    """A memory estimate is at least the traced peak, and at most 1.25 times
    a peak over 1 MB."""
    assert peak <= estimate
    assert peak <= 10**6 or estimate <= 1.25 * peak


def interp_rows(c, knots, coeffs):
    """a(c[i]) on the hats with coefficients coeffs[i], by ``np.interp`` row by row."""
    value = np.empty_like(c)
    for row, q in enumerate(coeffs):
        value[row] = np.interp(c[row], knots, q)
    return value


def tangent_jacobian(coeffs, prob):
    """The exact J the LM folds, stored: w = sqrt(dx dt) times the tangents
    of one solved row, laid out like the residual, then the penalty rows."""
    n_frames, _, n_nodes = prob.data.X.shape
    n_data, knots = prob.data.X.size, prob.a_star.knots()
    J = np.empty((n_data + len(knots), len(knots)))
    J_data = J[:n_data].reshape(2, n_frames, n_nodes, len(knots))
    w = np.sqrt(prob.grid.dx * prob.grid.dt)
    rows = np.asarray(coeffs, dtype=float)[None]

    def sensitivity(face_c):
        return interp_rows(face_c, knots, rows)

    def record(j0, X, dX):  # every time_refine-th solved frame is measured
        s, k = -j0 % prob.time_refine, prob.time_refine
        dX, j0 = dX[s::k], (j0 + s) // k
        J_data[:, j0 : j0 + len(dX)] = (w * dX[:, :, :, 0]).transpose(1, 0, 3, 2)

    errors = pde._integrate(
        prob.model, sensitivity, 1, record, len(knots),
        lambda face_c: hat_stencil(face_c, knots, rows),
    )
    assert errors == [None]
    J[n_data:] = prob._penalty_root
    return J


def rgi_restrict(traj, coarse):
    """(u, c) of ``traj`` on ``coarse`` by scipy's linear RegularGridInterpolator.

    Query points are clipped into the source domain, as ``pde.restrict`` does.
    """
    src_t, src_x = traj.grid.times(), traj.grid.xs()
    t, x = np.meshgrid(
        np.clip(coarse.times(), src_t[0], src_t[-1]),
        np.clip(coarse.xs(), src_x[0], src_x[-1]),
        indexing="ij",
    )
    query = np.column_stack([t.ravel(), x.ravel()])
    shape = (coarse.n_steps + 1, coarse.n_nodes)
    return tuple(
        RegularGridInterpolator((src_t, src_x), v)(query).reshape(shape)
        for v in (traj.u, traj.c)
    )


def dense_one_step(u, c, params, a_func, dx, dt, advection="blended"):
    """One IMEX step via dense operator matrices and scalar loops.

    Mirrors the documented scheme: the chemotactic and diffusive fluxes
    through each face are taken at the new u and assembled face by face
    into a dense (W + dt K) u_new = W u, with W the cell widths (half-width
    boundary cells) and no flux through the two ends; implicit chemical
    diffusion with ghost-node reflection, implicit decay, production
    frozen at the current u.
    """
    u = np.asarray(u, dtype=float)
    c = np.asarray(c, dtype=float)
    n = len(u)

    w = np.full(n, dx)
    w[0] = w[-1] = 0.5 * dx
    A = np.diag(w)
    for k in range(n - 1):  # face k joins nodes k and k + 1
        v = float(a_func(0.5 * (c[k] + c[k + 1]))) * (c[k + 1] - c[k]) / dx
        if advection == "upwind" or abs(v * dx / params.M) > 2.0:
            left, right = (1.0, 0.0) if v >= 0 else (0.0, 1.0)
        elif advection == "blended":
            left = right = 0.5
        else:
            raise ValueError(advection)
        # flux out of node k into node k + 1, as coefficients of u_k and u_{k+1}
        on_k = dt * (v * left + params.M / dx)
        on_k1 = dt * (v * right - params.M / dx)
        A[k, k] += on_k
        A[k, k + 1] += on_k1
        A[k + 1, k] -= on_k
        A[k + 1, k + 1] -= on_k1
    u_new = np.linalg.solve(A, w * u)

    lap = np.zeros((n, n))
    lap[0, 0], lap[0, 1] = -2.0, 2.0
    lap[n - 1, n - 1], lap[n - 1, n - 2] = -2.0, 2.0
    for i in range(1, n - 1):
        lap[i, i - 1 : i + 2] = (1.0, -2.0, 1.0)
    lap /= dx * dx
    rhs = c + dt * params.b * u / (u + params.h)
    c_new = np.linalg.solve((1.0 + params.mu * dt) * np.eye(n) - dt * params.D * lap, rhs)
    u_new = np.where((u_new < 0.0) & (u_new > -1e-12), 0.0, u_new)
    return u_new, c_new


def dense_diffusion_solve(u0, c0, params, grid):
    """Reference solve with the chemotaxis term removed entirely.

    Separate code path (no flux assembly at all), for a-equiv-0 controls.
    """
    n = grid.n_nodes
    dx, dt = grid.dx, grid.dt
    lap = np.zeros((n, n))
    lap[0, 0], lap[0, 1] = -2.0, 2.0
    lap[n - 1, n - 1], lap[n - 1, n - 2] = -2.0, 2.0
    for i in range(1, n - 1):
        lap[i, i - 1 : i + 2] = (1.0, -2.0, 1.0)
    lap /= dx * dx
    eye = np.eye(n)
    au = eye - dt * params.M * lap
    ac = (1.0 + params.mu * dt) * eye - dt * params.D * lap

    u = np.asarray(u0, dtype=float).copy()
    c = np.asarray(c0, dtype=float).copy()
    us, cs = [u.copy()], [c.copy()]
    for _ in range(grid.n_steps):
        rhs = c + dt * params.b * u / (u + params.h)
        u = np.linalg.solve(au, u)
        c = np.linalg.solve(ac, rhs)
        us.append(u.copy())
        cs.append(c.copy())
    return np.array(us), np.array(cs)


def simpson_gram_entry(i, j, n_basis, c_min, c_max, n_panels=4000):
    """Numerical integral of phi_i * phi_j over [c_min, c_max]."""
    knots = np.linspace(c_min, c_max, n_basis)

    def hat(k, x):
        y = 1.0 - np.abs(x - knots[k]) / (knots[1] - knots[0])
        return np.maximum(y, 0.0)

    xs = np.linspace(c_min, c_max, 2 * n_panels + 1)
    vals = hat(i, xs) * hat(j, xs)
    h = (c_max - c_min) / (2 * n_panels)
    weights = np.ones_like(xs)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return h / 3.0 * float(np.dot(weights, vals))


def quadrature_sq_distance(a_func, b_func, c_min, c_max, breakpoints=None):
    """Simpson integral of (a - b)^2 over [c_min, c_max].

    When breakpoints (e.g. hat knots) are given, each subinterval is
    integrated separately, making the rule exact for piecewise-linear
    a and b up to roundoff.
    """
    if breakpoints is None:
        breakpoints = np.linspace(c_min, c_max, 2001)
    total = 0.0
    for lo, hi in zip(breakpoints[:-1], breakpoints[1:]):
        xs = np.linspace(lo, hi, 21)
        vals = (np.asarray(a_func(xs)) - np.asarray(b_func(xs))) ** 2
        h = (hi - lo) / 20
        weights = np.ones_like(xs)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        total += h / 3.0 * float(np.dot(weights, vals))
    return total


def small_problem(alpha=1e-4, delta=1e-3, seed=3, n_basis=4, truth_value=1.5):
    """Compact same-mesh inverse problem: cheap, smooth, identifiable.

    The basis interval is fitted to the realized concentration range so
    every knot is informed by data.  Same-mesh data generation is fine at
    unit level; the mesh-separation guard is exercised in the synthdata
    tests.
    """
    from chemid.inversion import TikhonovProblem
    from chemid.pde import PhysicalParams, SimulationGrid, solve_forward
    from chemid.sensitivity import SensitivityFunction, concentration_range
    from chemid.synthdata import add_noise, myerscough_initial_data

    p = PhysicalParams(M=0.25, D=1.0, b=8.0, h=1.0, mu=8.0)
    g = SimulationGrid(0.0, 1.0, 21, 0.5, 120)
    u0, c0 = myerscough_initial_data(g)
    a_const = SensitivityFunction.constant(truth_value, 0.3, 0.8, n_basis)
    truth = solve_forward(u0, c0, p, a_const, g)
    lo, hi = concentration_range(truth, padding=0.05)
    a_true = SensitivityFunction.constant(truth_value, lo, hi, n_basis)
    data = add_noise(truth, delta, seed)
    a_star = SensitivityFunction.constant(1.0, lo, hi, n_basis)
    prob = TikhonovProblem(
        data=data, alpha=alpha, a_star=a_star, params=p, u0=u0, c0=c0
    )
    return prob, a_true, truth
