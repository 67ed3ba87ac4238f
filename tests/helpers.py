"""Independent reference implementations used as test oracles.

The oracles are deliberately written the slow way (scalar loops, dense
matrices, generic quadrature) and share no code with the package, so
agreement is evidence rather than tautology.  The three measures at the
top (objective, trajectory distance, penalty) are short compositions of
package functions that only tests need.
"""

import math

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from chemid import pde
from chemid.inversion import _run_lockstep, residual_vector
from chemid.pde import PhysicalParams, space_time_sq_norm
from chemid.sensitivity import hat_stencil, mass_matrix, require_same_basis


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
    """A lockstep request for one evaluation at ``coeffs``: it yields the
    row once and returns the (r, J^T J, J^T r) it is sent."""
    return (yield coeffs)


def run_request(coeffs, prob):
    """(r, J^T J, J^T r) of one lone evaluation at ``coeffs``, or the
    ForwardSolveError that stopped it."""
    (result,) = _run_lockstep([prob], [evaluation(coeffs)])
    return result


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
        hat = hat_stencil(face_c, knots, rows)
        return hat[2], hat

    def record(j0, X, dX):
        J_data[:, j0 : j0 + len(X)] = (w * dX[:, :, :, 0]).transpose(1, 0, 3, 2)

    errors = pde._integrate(
        prob.model, sensitivity, 1, record, every=prob.time_refine, directions=len(knots)
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
