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
(``solve_forward`` is the one-row case; the inverse problem solves one
row per coefficient vector, with its tangents, ``_tangent_step``), and
one callback of the face concentrations gives every row's sensitivity.
The u-matrices of all rows are stacked into one block-tridiagonal system
with no coupling between blocks, factored (dgttrf) and solved (dgttrs)
once per step; the c-matrix is factored once per solve.  Both LAPACK
routines come from ``_lapack``, which loads scipy's compiled wrappers
without the ``scipy.linalg`` package import.  Each row is
checked after every step; one that fails stops with its error and steps
on with zero flow, which keeps its fields finite and the others as they are.
A solve hands every k-th solved frame (k = 1 in ``solve_forward``) to
the caller in blocks of many frames, one call per block.
Every array of states has the layout (frame, field u/c, [row,] node):
a ``StateTrajectory`` holds one (n_steps + 1, 2, n_nodes) array ``X``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from ._lapack import dgttrf, dgttrs
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

    @classmethod  # the one copy of these numbers: config's preset and perfbench read it
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
    """``a`` if it is a read-only float array owning C-ordered memory, else a read-only copy."""
    if isinstance(a, np.ndarray) and a.dtype == float and not a.flags.writeable and (
        a.flags.owndata and a.flags.c_contiguous
    ):
        return a
    out = np.array(a, dtype=float, order="C")
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

    ``X`` is one read-only array of shape (n_steps + 1, 2, n_nodes):
    ``X[j]`` holds the cell density and the concentration at
    ``grid.times()[j]``.  ``u`` and ``c`` are its views ``X[:, 0]`` and
    ``X[:, 1]``.  ``X`` is kept if read-only and owning its memory, else copied.
    """

    grid: SimulationGrid
    X: np.ndarray

    def __post_init__(self):
        shape = (self.grid.n_steps + 1, 2, self.grid.n_nodes)
        X = _readonly(self.X)
        if X.shape != shape:
            raise InvalidStateError(f"X must have shape {shape} (got {X.shape})")
        object.__setattr__(self, "X", X)

    u = property(lambda self: self.X[:, 0])
    c = property(lambda self: self.X[:, 1])
    def u_matrix(self): return self.u  # read by perfbench until ROADMAP item 2
    def c_matrix(self): return self.c  # read by perfbench until ROADMAP item 2


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


def _face_velocities(c: np.ndarray, a: Callable, dx: float) -> tuple:
    """(velocity, stencil) of the faces along the last axis.

    ``a(face_c)`` gives the sensitivity at the face concentrations and
    the stencil that ``_tangent_step`` reads, or None.  A velocity that
    overflows comes back inf or nan without a numpy warning: the caller
    stops that row with a typed error.
    """
    face_c = 0.5 * (c[..., :-1] + c[..., 1:])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        value, stencil = a(face_c)
        return np.asarray(value, dtype=float) * ((c[..., 1:] - c[..., :-1]) / dx), stencil


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
    u: np.ndarray, c: np.ndarray, flow: np.ndarray, model: ForwardModel, ops: tuple,
    tangent: tuple | None = None,
) -> tuple[np.ndarray, np.ndarray, list]:
    """One IMEX step of ``model`` for every row of (u, c), given ``flow`` = dt * face velocity.

    ``ops`` are the ``_step_operators`` of the solve.  Over a step, face k
    carries flow_k (w u_k + (1 - w) u_{k+1}) - m (u_{k+1} - u_k) of cell
    mass at the new u, with w = 1/2 where the face Peclet number
    |v| dx / M is at most 2 (``blended`` only) and the donor cell's 1 or 0
    elsewhere.  Each row's u-matrix is W + dt K with W the cell widths and
    K the flux differences: its columns sum to W, and with the face rule
    it is a column diagonally dominant M-matrix, so its LU factors need no
    pivoting and u >= 0 is kept.  The rows' matrices are stacked into one
    block-tridiagonal system with zero coupling between blocks.
    ``_tangent_step`` advances the rows' ``tangent`` = (du, dc, hat), if
    given, with the same face weights w.

    Returns the new (u, c) rows and a list of (row, PositivityViolationError)
    for rows whose cell density fell below the floor; smaller negatives
    are clipped to zero.
    """
    dt, m, widths, c_lu = ops
    rows, n = u.shape
    # w weighs u_k in each face's flux: ahead = w flow, and flow - ahead weighs u_{k+1}
    w = (flow > 0.0).astype(float)
    if model.advection == "blended":
        w[np.abs(flow) <= 2.0 * m] = 0.5
    ahead = w * flow
    bands = np.empty((3, rows, n))
    sub, diag, sup = bands
    np.subtract(-m, ahead, out=sub[:, :-1])
    np.subtract(flow - ahead, m, out=sup[:, :-1])
    sub[:, -1] = sup[:, -1] = 0.0
    np.subtract(widths, sub, out=diag)
    diag.reshape(-1)[1:] -= sup.reshape(-1)[:-1]
    *u_lu, info = dgttrf(
        sub.reshape(-1)[:-1], diag.reshape(-1), sup.reshape(-1)[:-1],
        overwrite_dl=1, overwrite_d=1, overwrite_du=1,
    )
    if info != 0:
        raise NumericalSolveError(f"tridiagonal solve failed (info={info})")
    u_new = dgttrs(*u_lu, (u * widths).reshape(-1, 1), overwrite_b=1)[0].reshape(rows, n)
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
    if tangent is not None:
        _tangent_step(*tangent, u, u_new, c, w, u_lu, model, ops)
    return u_new, c_new, failures


def _tangent_step(du, dc, hat, u, u_new, c, w, u_lu, model: ForwardModel, ops) -> None:
    """Advance the tangents (du, dc), (L, rows, n_nodes) arrays of d(u, c)/dq_l, in place.

    This differentiates ``_advance``'s step (u, c) -> (u_new, c_new), with
    its face weights ``w`` and u-matrix factors ``u_lu``, in the L hat coefficients
    q of each row, whose stencil at the face means cbar is ``hat``:
    A du' = W du - dA u_new and C dc' = dc + dt b h / (u + h)^2 du.  Face
    k moves d(flow_k) times its advected u_new from node k to k + 1, with
    the base row's weights frozen, and d(flow_k) = dt [(phi_l(cbar_k) +
    a'(cbar_k) dcbar_k) c_x + a(cbar_k) d(c_x)].  The clip of round-off
    negatives is not differentiated.  Overflow gives inf or nan without a
    numpy warning; the caller checks what it keeps.
    """
    dt, _, widths, c_lu = ops
    seg, frac, value, slope = hat
    L, rows, n = du.shape
    params, ratio = model.params, dt / model.grid.dx
    with np.errstate(over="ignore", invalid="ignore"):
        # d(flow_k) times the advected u_new is src phi_l + (half - adv) dc_k
        # + (half + adv) dc_{k+1}, with (rows, faces) coefficients
        u_face = w * u_new[:, :-1] + (1.0 - w) * u_new[:, 1:]
        src = ratio * (c[:, 1:] - c[:, :-1]) * u_face
        half, adv = 0.5 * slope * src, ratio * value * u_face
        f = (half - adv) * dc[..., :-1] + (half + adv) * dc[..., 1:]
        # phi_l is 1 - frac on hat seg, frac on hat seg + 1 and 0 on the others
        row, face = np.arange(rows)[:, None], np.arange(n - 1)
        f[seg, row, face] += src * (1.0 - frac)
        f[seg + 1, row, face] += src * frac
        dc += (dt * params.b * params.h / (u + params.h) ** 2) * du
        du *= widths
        du[..., :-1] -= f
        du[..., 1:] += f
    # (L rows, n) and (L, rows n) arrays in C order are LAPACK's column-major
    # right-hand sides of the c- and u-matrices.  The u solve runs through
    # all rows' blocks, so a row whose tangents are not finite is solved as
    # zero and then set to nan, not spilled into the others.
    dc[...] = dgttrs(*c_lu, dc.reshape(-1, n).T, overwrite_b=1)[0].T.reshape(dc.shape)
    broken = ~np.isfinite(du).all(axis=(0, 2))
    du[:, broken] = 0.0
    du[...] = dgttrs(*u_lu, du.reshape(L, -1).T, overwrite_b=1)[0].T.reshape(du.shape)
    du[:, broken] = np.nan


def _integrate(
    model: ForwardModel,
    a: Callable,
    n_rows: int,
    record: Callable,
    every: int = 1,
    directions: int = 0,
) -> list:
    """Solve ``model`` for ``n_rows`` rows, each from the model's initial state.

    ``a(face_c)`` gives, for the (rows, faces) face concentrations of all
    rows, their sensitivity values and the stencil ``_tangent_step``
    reads (None without tangents).  The model checked its initial fields
    and face rule when it was built.  Every row takes one step per solved
    frame.  Rows are independent: each is checked for a finite dt * face
    velocity, positivity and its own c floor exactly as a lone solve
    would be.  A row that fails stops: it keeps stepping with zero flow
    until the solve ends, which keeps its u and c finite and changes
    none of the others, and its frames after it stopped mean nothing.

    ``record(j0, X)`` receives every ``every``-th solved frame in order,
    in blocks: X is a (k, 2, rows, n_nodes) array of u, then c, at solved
    frames j * every for j = j0 .. j0 + k - 1, the layout of
    ``StateTrajectory.X`` with a row axis.  A block holds as many
    frames as fit ``_FRAME_BLOCK_BYTES`` (at least one; the last block may
    hold fewer), and the frames end at the last one any row survived.
    X is reused afterwards, so ``record`` copies what it keeps and may
    change the block in place (the lockstep fold scales it).  Returns,
    per row, None or the error that stopped it.

    With ``directions`` = L > 0, the stencil is the ``hat_stencil`` of
    L-hat sensitivities, each row carries the tangents of its L
    coefficients from zero (``_tangent_step``), and ``record(j0, X, dX)``
    gets them too, dX of shape (k, 2, L, rows, n_nodes).
    """
    params, grid = model.params, model.grid
    u, c = (np.tile(field, (n_rows, 1)) for field in (model.u0, model.c0))
    tangents = np.zeros((2, directions, *u.shape))
    dx, dt = grid.dx, grid.dt
    times = grid.times()
    ops = _step_operators(params, grid)
    n_frames = grid.n_steps // every + 1
    block = min(n_frames, max(1, _FRAME_BLOCK_BYTES // (16 * u.size * (1 + directions))))
    X = np.empty((block, 2, *u.shape))
    X[0, 0], X[0, 1] = u, c
    buffers = (X,)
    if directions:
        buffers += (np.zeros((block, 2, directions, *u.shape)),)
    j0, filled = 0, 1  # the buffers hold sampled frames j0 .. j0 + filled - 1
    c_floor = c.min(axis=1)
    errors = [None] * n_rows
    alive = np.ones(n_rows, dtype=bool)

    def fail(row, exc):  # a stopped row keeps the error that stopped it
        if alive[row]:
            errors[row], alive[row] = exc, False

    for j in range(grid.n_steps):
        if filled == block:
            record(j0, *buffers)
            j0, filled = j0 + block, 0
        velocity, stencil = _face_velocities(c, a, dx)
        flow = dt * velocity
        for row in np.flatnonzero(~np.isfinite(flow).all(axis=1)):
            fail(row, InvalidStateError(f"face velocity is not finite in frame {j + 1}"))
        flow[~alive] = 0.0
        tangent = (*tangents, stencil) if directions else None
        u, c, broken = _advance(u, c, flow, model, ops, tangent)
        for row, exc in broken:
            fail(row, exc)

        t = times[j + 1]
        c_min = c.min(axis=1)
        bound = c_floor * math.exp(-params.mu * t) * (1.0 - LOWER_BOUND_SLACK)
        for row in np.flatnonzero(c_min < bound):
            fail(row, LowerBoundViolationError(
                f"min c = {c_min[row]:.6e} fell below {bound[row]:.6e} at t={t:.6g}"
            ))
        if not alive.any():
            break
        if (j + 1) % every == 0:
            X[filled, 0], X[filled, 1] = u, c
            if directions:
                buffers[1][filled] = tangents
            filled += 1

    if filled:
        record(j0, *(b[:filled] for b in buffers))
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
    frames = None

    def record(j0, X):
        # allocated after _integrate's buffers: before them, the kept frames
        # fragmented the heap and raised fine-io's peak RSS by 10 MB
        nonlocal frames
        if frames is None:
            frames = np.empty((grid.n_steps + 1, 2, grid.n_nodes))
        frames[j0 : j0 + len(X)] = X[:, :, 0]

    errors = _integrate(model, lambda face_c: (a(face_c), None), 1, record)
    if errors[0] is not None:
        raise errors[0]
    frames.setflags(write=False)  # the trajectory keeps this buffer, uncopied
    return StateTrajectory(grid, frames)


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
    V = traj.X.swapaxes(0, 1)  # (field, frame, node)
    return StateTrajectory(coarse, sum(V[:, r, s] * w for r, s, w in corners).swapaxes(0, 1))


# ---------------------------------------------------------------------------
# serialization


def write_trajectory_csv(traj: StateTrajectory, path) -> None:
    """CSV with header t,x,u,c; row-major by frame then node; 15 sig. digits."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_frames(fh, traj)


def _write_frames(fh, traj: StateTrajectory) -> None:
    """One ``t,x,u,c`` line per frame and node of ``traj``; each value as ``%.15g``.

    The node coordinates are formatted once and each frame is written by
    one %-format over Python floats, which gives the same text as
    formatting every value on its own.
    """
    grid = traj.grid
    n = grid.n_nodes
    line = "%s,%s,%.15g,%.15g\n" * n
    values = [None] * (4 * n)
    values[1::4] = ["%.15g" % x for x in grid.xs().tolist()]
    fh.write("t,x,u,c\n")
    for t, (u, c) in zip(grid.times().tolist(), traj.X):
        values[0::4] = ["%.15g" % t] * n
        values[2::4] = u.tolist()
        values[3::4] = c.tolist()
        fh.write(line % tuple(values))


def _next_line(fh) -> str:
    """The next non-blank line of fh, stripped; "" at the end of the file."""
    for line in fh:
        if line.strip():
            return line.strip()
    return ""


def _read_frame_csv(path, expect_comment: bool = False):
    """Parse a t,x,u,c table back into (StateTrajectory, comment_line).

    Blank lines are skipped; the rows are parsed as they stream in, so no
    copy of the text is held.  Undecodable bytes, non-numeric cells,
    ragged, empty or incomplete tables, non-finite u or c values, rows out
    of frame-then-node order and a first frame not at t = 0 raise
    InvalidStateError.
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
    if not np.isfinite(data[:, 2:]).all():
        raise InvalidStateError(f"{path}: u or c holds a non-finite value")

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
    grid = SimulationGrid(float(xs[0]), float(xs[-1]), n_x, float(ts[-1]), n_t - 1)
    # the (u, c) columns as (frame, field, node), copied once into C order
    return StateTrajectory(grid, data[:, 2:].reshape(n_t, n_x, 2).swapaxes(1, 2)), comment


def read_trajectory_csv(path) -> StateTrajectory:
    return _read_frame_csv(path)[0]


def write_params(params: PhysicalParams, grid: SimulationGrid, path) -> None:
    """Key-value text file with the physical and grid parameters, in field order."""
    with open(path, "w", encoding="utf-8") as fh:
        for obj in (params, grid):
            for f in fields(obj):  # an integer count formats as its digits
                fh.write(f"{f.name} = {getattr(obj, f.name):.15g}\n")
