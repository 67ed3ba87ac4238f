"""Forward solver for the coupled cell/chemoattractant system.

The model on a 1-D interval with no-flux boundaries is

    u_t = M u_xx - (a(c) u c_x)_x
    c_t = D c_xx + b u/(u+h) - mu c

for the cell density u(x,t) and the chemoattractant concentration c(x,t).

Discretization: node-centered grid with half-width cells at the two
boundary nodes, so the trapezoidal integral of u is the exactly conserved
quantity.  Each step is IMEX:

  * the chemotactic flux and the cell diffusion are advanced implicitly
    in conservative flux-difference form, with the advected face value of
    u chosen per face by a Peclet-weighted upwind/central rule (pure
    donor-cell upwinding is available as an option).  The u-matrix is
    then an M-matrix for every dt, so each step keeps u >= 0 and the mass
    of u (Filbet 2006; Chertock & Kurganov 2008) at a cost that does not
    grow with |a|,
  * the chemical diffusion and the linear decay -mu c are implicit
    (backward Euler, tridiagonal solve with ghost-node reflection for the
    Neumann boundaries),
  * the saturating production b u/(u+h) uses the beginning-of-step u so
    the c update stays linear.

The stepper advances a batch of independent rows of one ``ForwardModel``
at once: u and c are (rows, n_nodes) arrays, one row per sensitivity
(``solve_forward`` is the one-row case; the finite-difference Jacobian
runs one row per perturbed coefficient vector).  The u-matrices of all
rows are stacked into one block-tridiagonal system with no coupling
between blocks and solved by one LAPACK dgtsv call per step; the
c-matrix depends only on the step size and is LU-factored (dgttrf) once
per solve, then every row is solved by one dgttrs call per step.  The
positivity check runs per row after every step and the c floor per row
after every frame, so a failing row stops without touching the others.
The solved frames are handed to the caller in blocks of many frames, one
call per block.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs

from .errors import (
    DomainMismatchError,
    InvalidStateError,
    LowerBoundViolationError,
    NumericalSolveError,
    PositivityViolationError,
)

# a(c) is anything that maps an array of concentrations to an array of
# sensitivity values; SensitivityFunction satisfies this.
SensitivityLike = Callable[[np.ndarray], np.ndarray]

#: Advected face value rules: "blended" switches per face from a central
#: mean to donor-cell upwinding once the face Peclet number |v| dx / M
#: exceeds 2 (past it a central face breaks the M-matrix property that
#: keeps u >= 0); "upwind" always donates.
ADVECTIONS = ("blended", "upwind")
DEFAULT_ADVECTION = "blended"

#: u below -POSITIVITY_FLOOR * max(1, max u) after a step is a solver
#: error; smaller negatives are round-off and are clipped to zero.
POSITIVITY_FLOOR = 1.0e-12

#: Relative slack on the c(x,t) >= min(c0) exp(-mu t) lower bound.
LOWER_BOUND_SLACK = 1.0e-8

#: Bytes of solved frames (u and c, 16 B per row and node) that a solve
#: buffers before handing them on as one block.
_FRAME_BLOCK_BYTES = 2**20


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
class ForwardModel:
    """The map a -> (u, c) of one system: coefficients, grid, initial state, face rule.

    The constructor is the one check of the initial fields (one finite
    value per node, u0 >= 0, c0 > 0) and of the advection rule, raising
    InvalidStateError.  The fields are read-only; models are equal when
    their fields are, bit for bit.
    """

    params: PhysicalParams
    grid: SimulationGrid
    u0: np.ndarray
    c0: np.ndarray
    advection: str = DEFAULT_ADVECTION

    def __post_init__(self):
        u, c = _readonly(self.u0), _readonly(self.c0)
        if u.shape != (self.grid.n_nodes,) or c.shape != (self.grid.n_nodes,):
            raise InvalidStateError(f"initial fields must have length n_nodes={self.grid.n_nodes}")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(c))):
            raise InvalidStateError("initial fields contain non-finite values")
        if u.min() < 0:
            raise InvalidStateError(f"u0 must be nonnegative (min {u.min():.3e})")
        if c.min() <= 0:
            raise InvalidStateError(f"c0 must be positive (min {c.min():.3e})")
        if self.advection not in ADVECTIONS:
            raise InvalidStateError(f"unknown advection scheme {self.advection!r}")
        object.__setattr__(self, "u0", u)
        object.__setattr__(self, "c0", c)

    def __eq__(self, other):
        key = lambda m: (m.params, m.grid, m.advection)
        return (
            isinstance(other, ForwardModel) and key(self) == key(other)
            and np.array_equal(self.u0, other.u0) and np.array_equal(self.c0, other.c0)
        )


@dataclass(frozen=True, eq=False)
class StateTrajectory:
    """The solution at every frame from t = 0 to t = t_final.

    ``u`` and ``c`` are read-only arrays of shape (n_steps + 1, n_nodes);
    row j holds the cell density and the concentration at
    ``grid.times()[j]``.
    """

    grid: SimulationGrid
    u: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        shape = (self.grid.n_steps + 1, self.grid.n_nodes)
        u, c = _readonly(self.u), _readonly(self.c)
        if u.shape != shape or c.shape != shape:
            raise InvalidStateError(
                f"u and c must have shape {shape} (got {u.shape}, {c.shape})"
            )
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "c", c)

    def u_matrix(self) -> np.ndarray:
        """All u frames, shape (n_steps + 1, n_nodes); the stored array."""
        return self.u

    def c_matrix(self) -> np.ndarray:
        return self.c


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


def _face_velocities(c: np.ndarray, a: SensitivityLike, dx: float) -> np.ndarray:
    """Face velocities along the last axis; ``a`` sees the face concentrations.

    A velocity that overflows comes back inf or nan without a numpy
    warning: the caller stops that row with a typed error.
    """
    face_c = 0.5 * (c[..., :-1] + c[..., 1:])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return np.asarray(a(face_c), dtype=float) * ((c[..., 1:] - c[..., :-1]) / dx)


def _step_operators(params: PhysicalParams, grid: SimulationGrid) -> tuple:
    """What every step of a solve on ``grid`` shares.

    Returns (dt, m, cell widths, c_lu): m = dt M / dx is the diffusive
    weight of a face in the u-matrix, and ``c_lu`` the LAPACK dgttrf
    factors of the c-matrix (1 + dt mu) I - dt D L, with L the Neumann
    Laplacian stencil with ghost-node reflection (first super- and last
    sub-diagonal entries doubled).
    """
    n, dx, dt = grid.n_nodes, grid.dx, grid.dt
    r = dt * params.D / dx**2
    bands = np.empty((3, n))
    bands[0] = bands[2] = -r
    bands[1] = 1.0 + dt * params.mu + 2.0 * r
    bands[0, n - 2] = bands[2, 0] = -2.0 * r
    *c_lu, info = dgttrf(
        bands[0, :-1], bands[1], bands[2, :-1],
        overwrite_dl=1, overwrite_d=1, overwrite_du=1,
    )
    if info != 0:  # degenerate dt/dx combination
        raise NumericalSolveError(f"tridiagonal factorization failed (info={info})")
    return dt, dt * params.M / dx, grid.cell_widths(), tuple(c_lu)


def _advance(
    u: np.ndarray, c: np.ndarray, flow: np.ndarray, model: ForwardModel, ops: tuple
) -> tuple[np.ndarray, np.ndarray, list]:
    """One IMEX step of ``model`` for every row of (u, c), given ``flow`` = dt * face velocity.

    ``ops`` are the ``_step_operators`` of the solve.  Over a step, face k
    carries flow_k (w u_k + (1 - w) u_{k+1}) - m (u_{k+1} - u_k) of cell
    mass at the new u, with w = 1/2 where the face Peclet number
    |v| dx / M is at most 2 (``blended`` only) and the donor cell's 1 or 0
    elsewhere.  Each row's u-matrix is W + dt K with W the cell widths and
    K the flux differences: its columns sum to W, and with the face rule
    it is a column diagonally dominant M-matrix, so dgtsv needs no
    pivoting and u >= 0 is kept.  The rows' matrices are stacked into one
    block-tridiagonal system with zero coupling between blocks.

    Returns the new (u, c) rows and a list of (row, PositivityViolationError)
    for rows whose cell density fell below the floor; smaller negatives
    are clipped to zero.
    """
    dt, m, widths, c_lu = ops
    rows, n = u.shape
    # flow times the weight of u_k in each face's flux; flow - ahead weighs u_{k+1}
    ahead = np.maximum(flow, 0.0)
    if model.advection == "blended":
        np.multiply(flow, 0.5, out=ahead, where=np.abs(flow) <= 2.0 * m)
    bands = np.empty((3, rows, n))
    sub, diag, sup = bands
    np.subtract(-m, ahead, out=sub[:, :-1])
    np.subtract(flow - ahead, m, out=sup[:, :-1])
    sub[:, -1] = sup[:, -1] = 0.0
    np.subtract(widths, sub, out=diag)
    diag.reshape(-1)[1:] -= sup.reshape(-1)[:-1]
    *_, x, info = dgtsv(
        sub.reshape(-1)[:-1], diag.reshape(-1), sup.reshape(-1)[:-1],
        (u * widths).reshape(-1, 1),
        overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1,
    )
    if info != 0:
        raise NumericalSolveError(f"tridiagonal solve failed (info={info})")
    u_new = x.reshape(rows, n)
    # production uses the beginning-of-step u, keeping the c solve linear
    rhs = c + dt * model.params.b * (u / (u + model.params.h))
    # a C-ordered (rows, n) array is LAPACK's column-major (n, rows) right-hand side
    c_new = dgttrs(*c_lu, rhs.T, overwrite_b=1)[0].T

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


def _integrate(
    model: ForwardModel,
    a: Callable[[np.ndarray, np.ndarray], np.ndarray],
    n_rows: int,
    record: Callable[[int, np.ndarray, np.ndarray], None],
) -> list:
    """Solve ``model`` for ``n_rows`` rows, each from the model's initial state.

    ``a(face_c, rows)`` gives the sensitivity of the rows with indices
    ``rows`` at their face concentrations ``face_c`` (one array row per
    index).  The model checked its initial fields and face rule when it
    was built.  Every live row takes one step per frame.  Rows are
    independent: each is checked for a finite dt * face velocity,
    positivity and its own c floor exactly as a lone solve would be, and
    a row that fails stops without changing the others.

    ``record(j0, U, C)`` receives the solved frames in order, in blocks:
    U and C are (k, rows, n_nodes) arrays holding frames j0 .. j0 + k - 1
    (0 <= j0 <= n_steps).  A block holds as many frames as fit
    ``_FRAME_BLOCK_BYTES`` (at least one; the last block may hold fewer),
    and the frames end at the last step any row survived.  The rows of
    failed solves hold stale values and the arrays are reused afterwards,
    so it copies what it keeps.  Returns, per row, None or the error that
    stopped it.
    """
    params, grid = model.params, model.grid
    u, c = (np.tile(field, (n_rows, 1)) for field in (model.u0, model.c0))
    dx, dt = grid.dx, grid.dt
    times = grid.times()
    ops = _step_operators(params, grid)
    block = min(grid.n_steps + 1, max(1, _FRAME_BLOCK_BYTES // (16 * u.size)))
    U = np.empty((block, *u.shape))
    C = np.empty_like(U)
    U[0], C[0] = u, c
    j0, filled = 0, 1  # the buffer holds frames j0 .. j0 + filled - 1
    c_floor = c.min(axis=1)
    errors = [None] * n_rows
    alive = np.ones(n_rows, dtype=bool)

    def fail(row, exc):
        errors[row] = exc
        alive[row] = False

    for j in range(grid.n_steps):
        if filled == block:
            record(j0, U, C)
            j0, filled = j0 + block, 0
        rows = np.flatnonzero(alive)
        every = rows.size == n_rows
        c_rows = c if every else c[rows]
        flow = dt * _face_velocities(c_rows, lambda face_c: a(face_c, rows), dx)
        finite = np.isfinite(flow).all(axis=1)
        if not finite.all():  # such a row stops; a zero flow keeps its solve harmless
            for i in np.flatnonzero(~finite):
                fail(rows[i], InvalidStateError(f"face velocity is not finite in frame {j + 1}"))
            flow[~finite] = 0.0
        if every:
            u, c, broken = _advance(u, c, flow, model, ops)
        else:
            u[rows], c[rows], broken = _advance(u[rows], c_rows, flow, model, ops)
        for i, exc in broken:
            fail(rows[i], exc)

        t = times[j + 1]
        c_min = c.min(axis=1)
        bound = c_floor * math.exp(-params.mu * t) * (1.0 - LOWER_BOUND_SLACK)
        for row in np.flatnonzero(alive & (c_min < bound)):
            fail(row, LowerBoundViolationError(
                f"min c = {c_min[row]:.6e} fell below {bound[row]:.6e} at t={t:.6g}"
            ))
        if not alive.any():
            break
        U[filled], C[filled] = u, c
        filled += 1

    if filled:
        record(j0, U[:filled], C[:filled])
    return errors


def solve_forward(
    u0,
    c0,
    params: PhysicalParams,
    a: SensitivityLike,
    grid: SimulationGrid,
    *,
    advection: str = DEFAULT_ADVECTION,
) -> StateTrajectory:
    """Solve the coupled system from (u0, c0), one IMEX step per grid time step.

    The arguments build the ``ForwardModel`` that is solved.  The
    chemotactic flux is implicit in u, so every step keeps u >= 0 and the
    mass of u whatever dt and |a| are; the cost is n_steps steps.

    Raises
    ------
    InvalidStateError
        if the model is invalid or a face velocity is not finite.
    PositivityViolationError, LowerBoundViolationError
        if the computed fields violate the solution lower bounds.
    """
    model = ForwardModel(params, grid, u0, c0, advection)
    U = np.empty((grid.n_steps + 1, grid.n_nodes))
    C = np.empty_like(U)

    def record(j0, u_block, c_block):
        U[j0 : j0 + len(u_block)], C[j0 : j0 + len(c_block)] = u_block[:, 0], c_block[:, 0]

    errors = _integrate(model, lambda face_c, rows: a(face_c), 1, record)
    if errors[0] is not None:
        raise errors[0]
    return StateTrajectory(grid=grid, u=U, c=C)


def _linear_stencil(src: np.ndarray, q: np.ndarray) -> tuple:
    """(i, (1 - w, w)) with each q at fraction w of the way from src[i] to src[i + 1]."""
    i = np.clip(np.searchsorted(src, q, side="right") - 1, 0, src.size - 2)
    w = (q - src[i]) / (src[i + 1] - src[i])
    return i, (1.0 - w, w)


def restrict(traj: StateTrajectory, coarse: SimulationGrid) -> StateTrajectory:
    """Interpolate a trajectory onto another grid (linear in x and in t).

    The target grid must span the same space-time domain; its nodes and
    times need not be subsets of the source ones.  The weights are explicit
    bilinear ones, summed over the four corners in scipy's order, so the
    values equal scipy's linear ``RegularGridInterpolator`` bit for bit.
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
    i, wt = _linear_stencil(src_t, np.clip(coarse.times(), src_t[0], src_t[-1]))
    j, wx = _linear_stencil(src_x, np.clip(coarse.xs(), src_x[0], src_x[-1]))
    # corners (i, j), (i, j + 1), (i + 1, j), (i + 1, j + 1): scipy's order
    corners = [(i[:, None] + a, j + b, wt[a][:, None] * wx[b]) for a in (0, 1) for b in (0, 1)]
    u_c, c_c = (sum(v[r, s] * w for r, s, w in corners) for v in (traj.u, traj.c))
    return StateTrajectory(grid=coarse, u=u_c, c=c_c)


# ---------------------------------------------------------------------------
# serialization


def write_trajectory_csv(traj: StateTrajectory, path) -> None:
    """CSV with header t,x,u,c; row-major by frame then node; 15 sig. digits."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_frames(fh, traj.grid, traj.u, traj.c)


def _write_frames(fh, grid: SimulationGrid, U: np.ndarray, C: np.ndarray) -> None:
    """One ``t,x,u,c`` line per frame and node; each value as ``%.15g``.

    The node coordinates are formatted once and each frame is written by
    one %-format over Python floats, which gives the same text as
    formatting every value on its own.
    """
    n = grid.n_nodes
    line = "%s,%s,%.15g,%.15g\n" * n
    values = [None] * (4 * n)
    values[1::4] = ["%.15g" % x for x in grid.xs().tolist()]
    fh.write("t,x,u,c\n")
    for j, t in enumerate(grid.times().tolist()):
        values[0::4] = ["%.15g" % t] * n
        values[2::4] = U[j].tolist()
        values[3::4] = C[j].tolist()
        fh.write(line % tuple(values))


def _next_line(fh) -> str:
    """The next non-blank line of fh, stripped; "" at the end of the file."""
    for line in fh:
        if line.strip():
            return line.strip()
    return ""


def _read_frame_csv(path, expect_comment: bool = False):
    """Parse a t,x,u,c table back into (grid, U, C, comment_line).

    Blank lines are skipped; the rows are parsed as they stream in, so no
    copy of the text is held.  Undecodable bytes, non-numeric cells,
    ragged, empty or incomplete tables, rows out of frame-then-node order
    and a first frame not at t = 0 raise InvalidStateError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            line = _next_line(fh)
            comment = None
            if line.startswith("#"):
                comment, line = line, _next_line(fh)
            elif expect_comment:
                raise InvalidStateError(f"{path}: missing metadata header line")
            if line != "t,x,u,c":
                raise InvalidStateError(f"{path}: expected header 't,x,u,c'")
            with warnings.catch_warnings():  # an empty table is checked below
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
    except ValueError as exc:  # undecodable bytes, a non-numeric cell, ragged rows
        raise InvalidStateError(f"{path}: malformed rows: {exc}") from exc
    if data.shape[0] == 0 or data.shape[1] != 4:
        raise InvalidStateError(f"{path}: malformed rows")

    ts = np.unique(data[:, 0])
    xs = np.unique(data[:, 1])
    n_t, n_x = len(ts), len(xs)
    if n_t * n_x != data.shape[0]:
        raise InvalidStateError(f"{path}: incomplete frame/node table")
    # row j * n_x + i must hold (ts[j], xs[i]); reshaped and broadcast views
    if not ((data[:, 0].reshape(n_t, n_x) == ts[:, None]).all()
            and (data[:, 1].reshape(n_t, n_x) == xs).all()):
        raise InvalidStateError(f"{path}: rows must be ordered by frame, then by node")
    if ts[0] != 0.0:
        raise InvalidStateError(f"{path}: the first frame must be at t = 0 (got t = {ts[0]:.15g})")
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
    return StateTrajectory(grid=grid, u=U, c=C)


def write_params(params: PhysicalParams, grid: SimulationGrid, path) -> None:
    """Key-value text file with the physical and grid parameters, in field order."""
    with open(path, "w", encoding="utf-8") as fh:
        for obj in (params, grid):
            for f in fields(obj):  # an integer count formats as its digits
                fh.write(f"{f.name} = {getattr(obj, f.name):.15g}\n")
