"""Forward solver for the coupled cell/chemoattractant system.

The model on a 1-D interval with no-flux boundaries is

    u_t = M u_xx - (a(c) u c_x)_x
    c_t = D c_xx + b u/(u+h) - mu c

for the cell density u(x,t) and the chemoattractant concentration c(x,t).

Discretization: node-centered grid with half-width cells at the two
boundary nodes, so the trapezoidal integral of u is the exactly conserved
quantity.  Each step is IMEX:

  * the chemotactic flux divergence is advanced explicitly in conservative
    flux-difference form, with the advected face value of u chosen per
    face by a Peclet-weighted upwind/central rule (pure donor-cell
    upwinding is available as an option),
  * both diffusion operators and the linear decay -mu c are advanced
    implicitly (backward Euler, tridiagonal solves with ghost-node
    reflection for the Neumann boundaries),
  * the saturating production b u/(u+h) uses the beginning-of-step u so
    the c update stays linear.

The stepper advances a batch of independent rows at once: u and c are
(rows, n_nodes) arrays, one row per solve (``solve_forward`` is the
one-row case; the finite-difference Jacobian runs one row per perturbed
coefficient vector).  With the chemotaxis term explicit, the implicit u-
and c-matrices depend only on the step size, so they are LU-factored
(LAPACK dgttrf) once per solve for the frame step and once per sub-step
size in use, and all rows taking one step size are solved by one dgttrs
call per field.  The face velocities are evaluated
once per (sub-)step and serve both the flux and the advective positivity
bound dt <= 0.45 dx / max|v|, which is checked per row before every step;
a row that violates it is sub-stepped on its own.  The positivity check
runs per row after every (sub-)step and the c floor per row after every
frame, so a failing row stops without touching the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.interpolate import RegularGridInterpolator
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import (
    DomainMismatchError,
    InvalidStateError,
    LowerBoundViolationError,
    NumericalSolveError,
    PositivityViolationError,
    StepSizeError,
)

# a(c) is anything that maps an array of concentrations to an array of
# sensitivity values; SensitivityFunction satisfies this.
SensitivityLike = Callable[[np.ndarray], np.ndarray]

#: Advected face value rule: "blended" switches per face from a central
#: mean to donor-cell upwinding once the face Peclet number |v| dx / M
#: exceeds 2 (the positivity-critical regime); "upwind" always donates.
DEFAULT_ADVECTION = "blended"

#: Safety factor on the donor-cell positivity bound dt <= 0.5 dx / max|v|
#: (worst case: an interior cell draining through both faces, or a
#: half-width boundary cell draining through its one face).
CFL_SAFETY = 0.9

#: u below -POSITIVITY_FLOOR * max(1, max u) after a step is a solver
#: error; smaller negatives are round-off and are clipped to zero.
POSITIVITY_FLOOR = 1.0e-12

#: Relative slack on the c(x,t) >= min(c0) exp(-mu t) lower bound.
LOWER_BOUND_SLACK = 1.0e-8


@dataclass(frozen=True)
class PhysicalParams:
    """Physical coefficients of the coupled system.

    M, D are the cell and chemical diffusivities, b and h the maximum
    rate and half-saturation constant of the production term b u/(u+h),
    and mu the chemical decay rate.
    """

    M: float
    D: float
    b: float
    h: float
    mu: float

    def __post_init__(self):
        if not (self.M > 0 and self.D > 0 and self.h > 0):
            raise InvalidStateError(
                f"M, D, h must be positive (got M={self.M}, D={self.D}, h={self.h})"
            )
        if self.b < 0 or self.mu < 0:
            raise InvalidStateError(
                f"b and mu must be nonnegative (got b={self.b}, mu={self.mu})"
            )

    @classmethod
    def dimensionless(cls, M: float, D: float) -> "PhysicalParams":
        """Dimensionless preset b = h = mu = 1."""
        return cls(M=M, D=D, b=1.0, h=1.0, mu=1.0)

    @classmethod
    def myerscough(cls) -> "PhysicalParams":
        """Limb-bud morphogenesis parameter set: M=0.25, D=1, h=1, b=mu=50."""
        return cls(M=0.25, D=1.0, b=50.0, h=1.0, mu=50.0)


@dataclass(frozen=True)
class SimulationGrid:
    """Uniform space/time discretization of [x_left, x_right] x [0, t_final]."""

    x_left: float
    x_right: float
    n_nodes: int
    t_final: float
    n_steps: int

    def __post_init__(self):
        if self.n_nodes < 3:
            raise InvalidStateError(f"n_nodes must be >= 3 (got {self.n_nodes})")
        if self.n_steps < 1:
            raise InvalidStateError(f"n_steps must be >= 1 (got {self.n_steps})")
        if not self.x_right > self.x_left:
            raise InvalidStateError(
                f"domain is empty: [{self.x_left}, {self.x_right}]"
            )
        if not self.t_final > 0:
            raise InvalidStateError(f"t_final must be positive (got {self.t_final})")

    @property
    def dx(self) -> float:
        return (self.x_right - self.x_left) / (self.n_nodes - 1)

    @property
    def dt(self) -> float:
        return self.t_final / self.n_steps

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_left, self.x_right, self.n_nodes)

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.n_steps + 1)

    def cell_widths(self) -> np.ndarray:
        """Trapezoidal cell widths: dx/2 at both boundary nodes, dx inside."""
        w = np.full(self.n_nodes, self.dx)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def with_resolution(self, n_nodes: int, n_steps: int) -> "SimulationGrid":
        """Same domain and horizon at a different resolution."""
        return SimulationGrid(self.x_left, self.x_right, n_nodes, self.t_final, n_steps)


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class StateField:
    """Cell density u and chemoattractant c on the grid nodes at time t."""

    u: np.ndarray
    c: np.ndarray
    t: float

    def __post_init__(self):
        u = _readonly(self.u)
        c = _readonly(self.c)
        if u.ndim != 1 or u.shape != c.shape:
            raise InvalidStateError(
                f"u and c must be 1-D arrays of equal length (got {u.shape}, {c.shape})"
            )
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "c", c)


@dataclass(frozen=True, eq=False)
class StateTrajectory:
    """Ordered frames of the solution from t = 0 to t = t_final."""

    grid: SimulationGrid
    frames: tuple

    def __post_init__(self):
        frames = tuple(self.frames)
        if len(frames) != self.grid.n_steps + 1:
            raise InvalidStateError(
                f"expected {self.grid.n_steps + 1} frames, got {len(frames)}"
            )
        dt = self.grid.dt
        for j, f in enumerate(frames):
            if f.u.shape[0] != self.grid.n_nodes:
                raise InvalidStateError(f"frame {j} has wrong node count")
            if not math.isclose(f.t, j * dt, rel_tol=1e-9, abs_tol=1e-12 * dt):
                raise InvalidStateError(
                    f"frame {j} is at t={f.t}, expected {j * dt}"
                )
        object.__setattr__(self, "frames", frames)

    def times(self) -> np.ndarray:
        return np.array([f.t for f in self.frames])

    def u_matrix(self) -> np.ndarray:
        """All u frames stacked, shape (n_steps + 1, n_nodes)."""
        return np.stack([f.u for f in self.frames])

    def c_matrix(self) -> np.ndarray:
        return np.stack([f.c for f in self.frames])

    @property
    def final(self) -> StateField:
        return self.frames[-1]


def mass(u, grid: SimulationGrid) -> float:
    """Trapezoidal integral of u over the spatial domain."""
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise InvalidStateError("mass: u contains non-finite values")
    return float(np.dot(grid.cell_widths(), u))


def space_time_sq_norm(values, grid: SimulationGrid) -> float:
    """Squared discrete space-time L2 norm with uniform dx*dt weights.

    ``values`` has one row per frame (n_steps + 1 rows, n_nodes columns).
    This is the quadrature used both for the data-misfit objective and
    for measuring noise levels, so the two stay mutually consistent.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n_steps + 1, grid.n_nodes):
        raise InvalidStateError(
            f"expected shape {(grid.n_steps + 1, grid.n_nodes)}, got {values.shape}"
        )
    return grid.dx * grid.dt * float(np.sum(values * values))


def trajectory_distance(a: StateTrajectory, b: StateTrajectory) -> float:
    """Space-time L2 distance between two trajectories over both fields."""
    if a.grid != b.grid:
        raise DomainMismatchError("trajectories live on different grids")
    du2 = space_time_sq_norm(a.u_matrix() - b.u_matrix(), a.grid)
    dc2 = space_time_sq_norm(a.c_matrix() - b.c_matrix(), a.grid)
    return math.sqrt(du2 + dc2)


def chemotactic_face_velocity(
    c, a: SensitivityLike, grid: SimulationGrid
) -> np.ndarray:
    """Advective velocities a(c) c_x at the n_nodes - 1 cell faces.

    The face concentration is the arithmetic mean of the two node values;
    the gradient is the one-sided difference across the face.
    """
    c = np.asarray(c, dtype=float)
    if not np.all(np.isfinite(c)):
        raise InvalidStateError("face velocity: c contains non-finite values")
    return _face_velocities(c, a, grid.dx)


def _face_velocities(c: np.ndarray, a: SensitivityLike, dx: float) -> np.ndarray:
    """Face velocities along the last axis; ``a`` sees the face concentrations."""
    face_c = 0.5 * (c[..., :-1] + c[..., 1:])
    return np.asarray(a(face_c), dtype=float) * ((c[..., 1:] - c[..., :-1]) / dx)


def _advected_face_values(
    u: np.ndarray, v: np.ndarray, dx: float, M: float, advection: str
) -> np.ndarray:
    upwind = np.where(v >= 0.0, u[:, :-1], u[:, 1:])
    if advection == "upwind":
        return upwind
    if advection == "blended":
        central = 0.5 * (u[:, :-1] + u[:, 1:])
        peclet = v * (dx / M)
        return np.where(np.abs(peclet) <= 2.0, central, upwind)
    raise InvalidStateError(f"unknown advection scheme {advection!r}")


def _factor(n: int, r: float, extra_diag: float) -> tuple:
    """LU factors (LAPACK dgttrf) of I + extra_diag*I - r*L.

    L is the Neumann Laplacian stencil with ghost-node reflection, so the
    first super- and last sub-diagonal entries are doubled.
    """
    bands = np.empty((3, n))
    bands[0] = bands[2] = -r
    bands[1] = 1.0 + extra_diag + 2.0 * r
    bands[0, n - 2] = bands[2, 0] = -2.0 * r
    *lu, info = dgttrf(
        bands[0, :-1], bands[1], bands[2, :-1],
        overwrite_dl=1, overwrite_d=1, overwrite_du=1,
    )
    if info != 0:  # degenerate dt/dx combination
        raise NumericalSolveError(f"tridiagonal factorization failed (info={info})")
    return tuple(lu)


def _step_factors(params: PhysicalParams, n: int, dx: float, dt: float) -> tuple:
    """Factors of the implicit u- and c-matrices for a step of size dt."""
    return (
        _factor(n, dt * params.M / dx**2, 0.0),
        _factor(n, dt * params.D / dx**2, dt * params.mu),
    )


def _solve_rows(lu: tuple, rhs: np.ndarray) -> np.ndarray:
    """Solve the factored system for every row of rhs, overwriting rhs."""
    # a C-ordered (rows, n) array is LAPACK's column-major (n, rows) right-hand side
    x, _ = dgttrs(*lu, rhs.T, overwrite_b=1)
    return x.T


def _advance(
    u: np.ndarray,
    c: np.ndarray,
    v: np.ndarray,
    params: PhysicalParams,
    dx: float,
    dt: float,
    advection: str,
    factors: tuple,
) -> tuple[np.ndarray, np.ndarray, list]:
    """One IMEX step of size dt for every row of (u, c), given face velocities v.

    ``factors`` are the ``_step_factors`` of dt.  Returns the new (u, c)
    rows and a list of (row, PositivityViolationError) for rows whose cell
    density fell below the floor; smaller negatives are clipped to zero.
    """
    n = u.shape[1]
    flux = v * _advected_face_values(u, v, dx, params.M, advection)
    div = np.empty_like(u)
    div[:, 0] = flux[:, 0] / (0.5 * dx)
    div[:, 1:-1] = (flux[:, 1:] - flux[:, :-1]) / dx
    div[:, n - 1] = -flux[:, -1] / (0.5 * dx)
    # production uses the beginning-of-step u, keeping the solve linear
    rhs = c + dt * params.b * (u / (u + params.h))
    u_new = _solve_rows(factors[0], u - dt * div)
    c_new = _solve_rows(factors[1], rhs)

    failures = []
    u_min = u_new.min(axis=1)
    if (u_min < 0.0).any():
        broken = u_min < -POSITIVITY_FLOOR * np.maximum(1.0, u_new.max(axis=1))
        failures = [
            (i, PositivityViolationError(
                f"cell density reached {u_min[i]:.3e} after a step of dt={dt:.3e}"
            ))
            for i in np.flatnonzero(broken)
        ]
        u_new[u_new < 0.0] = 0.0
    return u_new, c_new, failures


def step(
    state: StateField,
    params: PhysicalParams,
    a: SensitivityLike,
    grid: SimulationGrid,
    *,
    advection: str = DEFAULT_ADVECTION,
) -> StateField:
    """Advance one IMEX step of size grid.dt.

    The advective stability bound is assumed to hold for grid.dt; callers
    that cannot guarantee it should go through ``solve_forward``, which
    re-checks the bound and sub-steps as needed.
    """
    if not (np.all(np.isfinite(state.u)) and np.all(np.isfinite(state.c))):
        raise InvalidStateError("step: state contains non-finite values")
    u, c = state.u[None, :], state.c[None, :]
    n, dx, dt = grid.n_nodes, grid.dx, grid.dt
    v = _face_velocities(c, a, dx)
    u, c, failures = _advance(
        u, c, v, params, dx, dt, advection, _step_factors(params, n, dx, dt)
    )
    if failures:
        raise failures[0][1]
    return StateField(u=u[0], c=c[0], t=state.t + dt)


def _integrate(
    u0: np.ndarray,
    c0: np.ndarray,
    params: PhysicalParams,
    a: Callable[[np.ndarray, np.ndarray], np.ndarray],
    grid: SimulationGrid,
    advection: str,
    max_substeps: int,
    record: Callable[[int, np.ndarray, np.ndarray], None],
) -> list:
    """Solve the coupled system for every row of the (rows, n_nodes) fields.

    ``a(face_c, rows)`` gives the sensitivity of the rows with indices
    ``rows`` at their face concentrations ``face_c`` (one array row per
    index).  The initial fields are assumed valid.  Rows are independent:
    each is checked against the CFL limit, ``max_substeps``, positivity
    and its own c floor exactly as a lone solve would be, and a row that
    fails stops without changing the others.  Rows that take the same
    step size advance together through one factorization.

    ``record(j, u, c)`` receives the fields of frame j = 0..n_steps while
    any row is still running; the rows of failed solves hold stale values
    and the arrays may change afterwards, so it copies what it keeps.
    Returns, per row, None or the error that stopped it.
    """
    u = np.array(u0, dtype=float)
    c = np.array(c0, dtype=float)
    n_rows, n = u.shape
    dx, dt = grid.dx, grid.dt
    times = grid.times()
    record(0, u, c)
    c_floor = c.min(axis=1)
    errors = [None] * n_rows
    alive = np.ones(n_rows, dtype=bool)
    frame_factors = _step_factors(params, n, dx, dt)
    cfl = CFL_SAFETY * 0.5 * dx

    def fail(row, exc):
        errors[row] = exc
        alive[row] = False

    for j in range(grid.n_steps):
        # rows still inside frame j; each of them has taken `used` sub-steps
        rows = np.flatnonzero(alive)
        remaining = np.full(rows.size, dt)
        used = 0
        while rows.size:
            every = rows.size == n_rows
            c_rows = c if every else c[rows]
            v = _face_velocities(c_rows, lambda face_c: a(face_c, rows), dx)
            vmax = np.abs(v).max(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                limit = cfl / vmax
                fits = remaining <= limit * (1.0 + 1e-12)
                all_fit = fits.all()
                if not all_fit:  # rows over the limit split their rest evenly
                    sizes = np.where(fits, remaining, remaining / np.ceil(remaining / limit))
            if all_fit:
                ok, sizes = fits, remaining
            else:
                ok = fits | (np.isfinite(vmax) & (used < max_substeps))
                for i in np.flatnonzero(~ok):
                    fail(rows[i], StepSizeError(
                        f"frame {j + 1} needs more than {max_substeps} sub-steps "
                        f"(dt={dt:.3e}, stable limit {limit[i]:.3e})"
                    ) if np.isfinite(vmax[i]) else InvalidStateError(
                        f"face velocity is not finite in frame {j + 1}"
                    ))

            for size in set(sizes[ok].tolist()):
                sel = ok & (sizes == size)
                group = rows[sel]
                factors = (
                    frame_factors if size == dt
                    else _step_factors(params, n, dx, size)
                )
                if every and sel.all():
                    u, c, broken = _advance(u, c, v, params, dx, size, advection, factors)
                else:
                    u[group], c[group], broken = _advance(
                        u[group], c_rows[sel], v[sel], params, dx, size, advection, factors
                    )
                for i, exc in broken:
                    fail(group[i], exc)

            if all_fit:
                break
            going = ~fits & alive[rows]
            rows = rows[going]
            remaining = (remaining - sizes)[going]
            used += 1

        t = times[j + 1]
        c_min = c.min(axis=1)
        bound = c_floor * math.exp(-params.mu * t) * (1.0 - LOWER_BOUND_SLACK)
        for row in np.flatnonzero(alive & (c_min < bound)):
            fail(row, LowerBoundViolationError(
                f"min c = {c_min[row]:.6e} fell below {bound[row]:.6e} at t={t:.6g}"
            ))
        if not alive.any():
            break
        record(j + 1, u, c)

    return errors


def solve_forward(
    u0,
    c0,
    params: PhysicalParams,
    a: SensitivityLike,
    grid: SimulationGrid,
    *,
    advection: str = DEFAULT_ADVECTION,
    max_substeps: int = 4096,
) -> StateTrajectory:
    """Solve the coupled system from (u0, c0), one frame per grid time step.

    Before every (sub-)step the advective positivity bound
    dt <= 0.45 dx / max|v| is evaluated from the current state; a
    violating frame step is split into equal sub-steps, at most
    ``max_substeps`` per frame.

    Raises
    ------
    StepSizeError
        if a frame needs more than ``max_substeps`` sub-steps.
    PositivityViolationError, LowerBoundViolationError
        if the computed fields violate the solution lower bounds.
    """
    u = np.array(u0, dtype=float)
    c = np.array(c0, dtype=float)
    if u.shape != (grid.n_nodes,) or c.shape != (grid.n_nodes,):
        raise InvalidStateError(
            f"initial fields must have length n_nodes={grid.n_nodes}"
        )
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(c))):
        raise InvalidStateError("initial fields contain non-finite values")
    if u.min() < 0:
        raise InvalidStateError(f"u0 must be nonnegative (min {u.min():.3e})")
    if c.min() <= 0:
        raise InvalidStateError(f"c0 must be positive (min {c.min():.3e})")

    times = grid.times()
    frames = []

    def record(j, u_rows, c_rows):
        frames.append(StateField(u=u_rows[0], c=c_rows[0], t=times[j]))

    errors = _integrate(
        u[None, :], c[None, :], params, lambda face_c, rows: a(face_c), grid,
        advection, max_substeps, record,
    )
    if errors[0] is not None:
        raise errors[0]
    return StateTrajectory(grid=grid, frames=tuple(frames))


def restrict(traj: StateTrajectory, coarse: SimulationGrid) -> StateTrajectory:
    """Interpolate a trajectory onto another grid (linear in x and in t).

    The target grid must span the same space-time domain; its nodes and
    times need not be subsets of the source ones.
    """
    fine = traj.grid
    tol_x = 1e-12 * max(1.0, abs(fine.x_left), abs(fine.x_right))
    tol_t = 1e-12 * max(1.0, fine.t_final)
    if (
        coarse.x_left < fine.x_left - tol_x
        or coarse.x_right > fine.x_right + tol_x
        or coarse.t_final > fine.t_final + tol_t
    ):
        raise DomainMismatchError(
            f"target domain [{coarse.x_left}, {coarse.x_right}] x [0, {coarse.t_final}] "
            f"exceeds source [{fine.x_left}, {fine.x_right}] x [0, {fine.t_final}]"
        )

    src_t, src_x = fine.times(), fine.xs()
    qt = np.clip(coarse.times(), src_t[0], src_t[-1])
    qx = np.clip(coarse.xs(), src_x[0], src_x[-1])
    pts_t, pts_x = np.meshgrid(qt, qx, indexing="ij")
    query = np.column_stack([pts_t.ravel(), pts_x.ravel()])

    shape = (coarse.n_steps + 1, coarse.n_nodes)
    u_c = RegularGridInterpolator((src_t, src_x), traj.u_matrix())(query).reshape(shape)
    c_c = RegularGridInterpolator((src_t, src_x), traj.c_matrix())(query).reshape(shape)

    coarse_times = coarse.times()
    frames = tuple(
        StateField(u=u_c[j], c=c_c[j], t=coarse_times[j])
        for j in range(coarse.n_steps + 1)
    )
    return StateTrajectory(grid=coarse, frames=frames)


# ---------------------------------------------------------------------------
# serialization


def write_trajectory_csv(traj: StateTrajectory, path) -> None:
    """CSV with header t,x,u,c; row-major by frame then node; 15 sig. digits."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_frames(fh, traj.grid, traj.u_matrix(), traj.c_matrix())


def _write_frames(fh, grid: SimulationGrid, U: np.ndarray, C: np.ndarray) -> None:
    xs = grid.xs()
    times = grid.times()
    fh.write("t,x,u,c\n")
    for j, t in enumerate(times):
        for i, x in enumerate(xs):
            fh.write(f"{t:.15g},{x:.15g},{U[j, i]:.15g},{C[j, i]:.15g}\n")


def _read_frame_csv(path, expect_comment: bool = False):
    """Parse a t,x,u,c table back into (grid, U, C, comment_line)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    comment = None
    if lines and lines[0].startswith("#"):
        comment = lines[0]
        lines = lines[1:]
    elif expect_comment:
        raise InvalidStateError(f"{path}: missing metadata header line")
    if not lines or lines[0] != "t,x,u,c":
        raise InvalidStateError(f"{path}: expected header 't,x,u,c'")
    try:
        data = np.array(
            [[float(v) for v in ln.split(",")] for ln in lines[1:]], dtype=float
        )
    except ValueError as exc:  # a non-numeric cell, or rows of unequal length
        raise InvalidStateError(f"{path}: malformed rows: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != 4:
        raise InvalidStateError(f"{path}: malformed rows")

    ts = np.unique(data[:, 0])
    xs = np.unique(data[:, 1])
    n_t, n_x = len(ts), len(xs)
    if n_t * n_x != data.shape[0]:
        raise InvalidStateError(f"{path}: incomplete frame/node table")
    for name, vals in (("t", ts), ("x", xs)):
        d = np.diff(vals)
        if len(d) and not np.allclose(d, d[0], rtol=1e-6, atol=1e-12 * max(1, abs(vals[-1]))):
            raise InvalidStateError(f"{path}: non-uniform {name} spacing")
    grid = SimulationGrid(
        x_left=float(xs[0]),
        x_right=float(xs[-1]),
        n_nodes=n_x,
        t_final=float(ts[-1]),
        n_steps=n_t - 1,
    )
    U = data[:, 2].reshape(n_t, n_x)
    C = data[:, 3].reshape(n_t, n_x)
    return grid, U, C, comment


def read_trajectory_csv(path) -> StateTrajectory:
    grid, U, C, _ = _read_frame_csv(path)
    times = grid.times()
    frames = tuple(
        StateField(u=U[j], c=C[j], t=times[j]) for j in range(grid.n_steps + 1)
    )
    return StateTrajectory(grid=grid, frames=frames)


_PARAM_KEYS = ("M", "D", "b", "h", "mu")
_GRID_KEYS = ("x_left", "x_right", "n_nodes", "t_final", "n_steps")


def write_params(params: PhysicalParams, grid: SimulationGrid, path) -> None:
    """Key-value text file with the physical and grid parameters."""
    with open(path, "w", encoding="utf-8") as fh:
        for key in _PARAM_KEYS:
            fh.write(f"{key} = {getattr(params, key):.15g}\n")
        fh.write(f"x_left = {grid.x_left:.15g}\n")
        fh.write(f"x_right = {grid.x_right:.15g}\n")
        fh.write(f"n_nodes = {grid.n_nodes}\n")
        fh.write(f"t_final = {grid.t_final:.15g}\n")
        fh.write(f"n_steps = {grid.n_steps}\n")


def read_params(path) -> tuple[PhysicalParams, SimulationGrid]:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln in fh:
            ln = ln.split("#", 1)[0].strip()
            if not ln:
                continue
            if "=" not in ln:
                raise InvalidStateError(f"{path}: malformed line {ln!r}")
            key, raw = (part.strip() for part in ln.split("=", 1))
            if key not in _PARAM_KEYS + _GRID_KEYS:
                raise InvalidStateError(f"{path}: unknown key {key!r}")
            values[key] = raw
    missing = [k for k in _PARAM_KEYS + _GRID_KEYS if k not in values]
    if missing:
        raise InvalidStateError(f"{path}: missing keys {missing}")
    params = PhysicalParams(**{k: float(values[k]) for k in _PARAM_KEYS})
    grid = SimulationGrid(
        x_left=float(values["x_left"]),
        x_right=float(values["x_right"]),
        n_nodes=int(values["n_nodes"]),
        t_final=float(values["t_final"]),
        n_steps=int(values["n_steps"]),
    )
    return params, grid
