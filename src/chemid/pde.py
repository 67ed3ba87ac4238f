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
A solve runs in blocks of steps, in the buffers of one plan (``_plan``),
and hands every solved frame to the caller once per block: tangents never
feed back into the base rows, so a tangent solve takes a block of base
steps, then forms all their tangent coefficients at once from the block's
frames and what each step kept.
The u-matrices of all rows are stacked into one block-tridiagonal system
with no coupling between blocks, factored (dgttrf) and solved (dgttrs)
once per step; the c-matrix is factored once per solve.  Both LAPACK
routines come from ``_lapack``, which loads scipy's compiled wrappers
without the ``scipy.linalg`` package import.  ``_integrate`` checks every
row after every step, with one reduction over all rows a check; a row that
fails stops with its error and steps on with zero flow, which keeps its
fields finite and the others as they are.
Every array of states has the layout (frame, field u/c, [row,] node):
a ``StateTrajectory`` holds one (n_steps + 1, 2, n_nodes) array ``X``.

The CSV writer formats a block of frames at a time with numpy (``_g15``),
byte for byte as Python's ``"%.15g" %``; only non-finite values, values
near a rounding tie and exponents outside ``_g15.EXPONENTS`` go through
Python.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import _g15
from ._lapack import dgttrf, dgttrs
from .errors import (
    DomainMismatchError,
    InvalidStateError,
    LowerBoundViolationError,
    NonFiniteStateError,
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

#: Bytes of the buffers of one block of steps (``_plan``).
_BLOCK_BYTES = 2**21

#: Bytes per row and node of what a tangent solve keeps of each base step of a
#: block besides its frame (face weights, a(cbar), LU factors, tangent coefficients),
#: and of the scratch of a base step and, per tangent, of a tangent step (never
#: both); bytes of a solve's fixed arrays (step operators) per node, and in all.
_STEP_BYTES, _SCRATCH_BYTES, _SOLVE_BYTES = 176, (128, 28), (64, 2**15)


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
    """Uniform space/time discretization of [x_left, x_right] x [0, t_final]
    whose steps dx and dt are finite and positive (else InvalidStateError)."""

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
        if not (0.0 < self.dx < math.inf and 0.0 < self.dt < math.inf):
            raise InvalidStateError(
                f"dx and dt must be finite and positive (got dx={self.dx}, dt={self.dt})"
            )

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


def _step_operators(params: PhysicalParams, grid: SimulationGrid) -> tuple:
    """What every step of a solve on ``grid`` shares.

    Returns (dt, widths, c_lu, peclet, m, minus_m, h, dtb): the cell widths,
    ``c_lu`` the LAPACK dgttrf factors of the c-matrix (1 + dt mu) I - dt D L,
    with L the Neumann Laplacian stencil with ghost-node reflection (first
    super- and last sub-diagonal entries doubled), and ``_advance``'s 2 m, m,
    -m, h and dt b, m = dt M / dx the diffusive weight of a face, as 0-d arrays
    (numpy skips its 0.2 us conversion of a Python float operand, same bits).
    NumericalSolveError unless dt D / dx^2, m and the diagonal are finite and
    the first two positive (under ``np.errstate``).
    """
    n, dx, dt = grid.n_nodes, grid.dx, grid.dt
    r, m = dt * params.D / np.float64(dx) ** 2, dt * params.M / dx  # a float's dx**2 may raise
    diag = 1.0 + dt * params.mu + 2.0 * r
    if not (r > 0.0 and 0.0 < m < math.inf and diag < math.inf):
        raise NumericalSolveError(f"step weights not finite and > 0 (dt={dt:.3e}, dx={dx:.3e})")
    bands = np.empty((3, n))
    bands[0] = bands[2] = -r
    bands[1] = diag
    bands[0, n - 2] = bands[2, 0] = -2.0 * r
    *c_lu, info = dgttrf(bands[0, :-1], bands[1], bands[2, :-1], 1, 1, 1)  # 1: overwrite
    if info != 0:  # degenerate dt/dx combination
        raise NumericalSolveError(f"tridiagonal factorization failed (info={info})")
    scalars = (np.array(v) for v in (2.0 * m, m, -m, params.h, dt * params.b))
    return (dt, grid.cell_widths(), tuple(c_lu), *scalars)


def _advance(u: np.ndarray, c: np.ndarray, flow: np.ndarray, model: ForwardModel, ops: tuple):
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

    Returns the new (u, c) rows, unchecked (``_integrate`` checks them), and
    the face weights w and u-matrix dgttrf factors u_lu a tangent step needs.
    """
    _, widths, c_lu, peclet, m, minus_m, h, dtb = ops
    (rows, n), N = u.shape, u.size
    # w weighs u_k in each face's flux: ahead = w flow, and flow - ahead weighs u_{k+1}
    w = np.heaviside(flow, 0.0)  # the donor cell: 1.0 where the (finite) flow > 0, else 0.0
    if model.advection == "blended":
        w[np.abs(flow) <= peclet] = 0.5
    ahead = w * flow
    flat = np.zeros(3 * N)  # the three bands, zero where one row's block meets the next
    bands = flat.reshape(3, rows, n)
    np.subtract(minus_m, ahead, bands[0, :, :-1])
    np.subtract(flow - ahead, m, bands[2, :, :-1])
    np.subtract(widths, bands[0], bands[1])
    flat[N + 1 : 2 * N] -= flat[2 * N : -1]
    # LAPACK flags by position (overwrite; trans, overwrite_b): f2py parses keywords slowly
    *u_lu, info = dgttrf(flat[: N - 1], flat[N : 2 * N], flat[2 * N : -1], 1, 1, 1)
    if info != 0:
        raise NumericalSolveError(f"tridiagonal solve failed (info={info})")
    u_new = dgttrs(*u_lu, (u * widths).reshape(-1, 1), b"N", 1)[0].reshape(rows, n)
    # production uses the beginning-of-step u, keeping the c solve linear
    rhs = c + dtb * (u / (u + h))
    # a C-ordered (rows, n) array is LAPACK's column-major (n, rows) right-hand side
    c_new = dgttrs(*c_lu, rhs.T, b"N", 1)[0].T

    return u_new, c_new, w, u_lu


def _tangent_coefficients(states: np.ndarray, kept: list, stencil: Callable, model, ops,
                          span: list) -> zip:
    """The ``_tangent_step`` coefficients of K steps, formed at once.

    ``states`` holds the K + 1 frames (``_integrate``'s ``X``) and ``kept``
    each step's (a(cbar), w, u_lu); ``stencil`` maps (K, rows, faces) face
    means to hat geometry.  ``kept`` is emptied once stacked, which frees
    its arrays before the coefficients are formed (``_plan`` counts on
    it).  Each coefficient is a lone step's elementwise expression with a
    step axis in front, so it has that step's bits.  Yields per step (lo,
    hi, prod, phi_at, phi, u_lu, first, last): d(flow_k) times the advected
    u_new is lo_k dc_k + hi_k dc_{k+1} plus ``phi`` at flat indices
    ``phi_at`` of an (L, rows, n_nodes) array from flat index ``first`` on,
    face k at node k, and prod is dt b h / (u + h)^2; lo and hi are padded
    (rows, n_nodes) lanes, 0 in the last slot.  [first, last) is the flat
    span of the hats any face mean of the solve has reached, [min seg, max
    seg + 2) so far: ``span``, the solve's before the block, becomes its end.
    """
    dt = ops[0]
    params, ratio = model.params, dt / model.grid.dx
    u, c, u_new = states[:-1, 0], states[:-1, 1], states[1:, 0]
    value, w = (np.stack(field) for field in list(zip(*kept))[:2])
    u_lu = [step[2] for step in kept]
    del kept[:]
    K, rows, n = u.shape
    seg, frac, slope = stencil(0.5 * (c[..., :-1] + c[..., 1:]))
    first = np.minimum.accumulate(np.minimum(seg.min(axis=(1, 2)), span[0]))
    last = np.maximum.accumulate(np.maximum(seg.max(axis=(1, 2)) + 2, span[1]))
    span[:] = first[-1], last[-1]
    u_face = w * u_new[..., :-1] + (1.0 - w) * u_new[..., 1:]
    src = ratio * (c[..., 1:] - c[..., :-1]) * u_face
    half, adv = 0.5 * slope * src, ratio * value * u_face
    # phi_l(cbar) is 1 - frac on hat seg, frac on hat seg + 1 and 0 on the others
    lane = rows * n
    at = (seg - first[:, None, None]) * lane + np.arange(lane).reshape(rows, n)[:, :-1]
    phi_at = np.concatenate([at, at + lane], axis=2).reshape(K, -1)
    phi = np.concatenate([src * (1.0 - frac), src * frac], axis=2).reshape(K, -1)
    prod = dt * params.b * params.h / (u + params.h) ** 2
    del seg, frac, slope, u_face, src, at, value, w  # before lo and hi: the block's peak
    lo, hi = np.zeros((2, K, rows, n))
    lo[..., :-1], hi[..., :-1] = half - adv, half + adv
    return zip(lo, hi, prod, phi_at, phi, u_lu, (first * lane).tolist(), (last * lane).tolist())


def _tangent_step(tangents: np.ndarray, coefficients: tuple, ops) -> None:
    """Advance the tangents (du, dc) of d(u, c)/dq_l in ``tangents``, in place.

    This differentiates ``_advance``'s step (u, c) -> (u_new, c_new), with
    its face weights w and u-matrix factors u_lu, in the L hat
    coefficients q of each row; ``coefficients`` are the step's
    ``_tangent_coefficients``.  A du' = W du - dA u_new and C dc' = dc +
    dt b h / (u + h)^2 du.  Face k moves d(flow_k) times its advected
    u_new from node k to k + 1, with the base row's weights frozen, and
    d(flow_k) = dt [(phi_l(cbar_k) + a'(cbar_k) dcbar_k) c_x + a(cbar_k)
    d(c_x)].  The clip of round-off negatives is not differentiated.
    ``tangents`` holds du, dc (each (L, rows, n_nodes)) and a spare double;
    only the hats of the step's span are stepped (all L without one): the
    others stay +0.0, where a step would keep them 0 (-0.0 at a negative pivot
    of the c-matrix's factor).  f sits on padded lanes after a spare slot, its
    pad slots stored (0 * inf is nan) as +0, then -0: x - (+0) and x + (-0)
    are x, -0 and nan too.  Overflow gives inf or nan (under ``_integrate``'s
    ``np.errstate``); the caller checks what it keeps.  Only tangents that
    are not all finite take the u solve's path that isolates their rows; it
    leaves them nan on the span.
    """
    lo, hi, prod, phi_at, phi, u_lu, *span = coefficients
    _, widths, c_lu = ops[:3]
    (rows, n), N = lo.shape, len(tangents) // 2
    first, last = span or (0, N)  # the flat span stepped, all L without one
    du, dc, dc_next = (tangents[at + first : at + last].reshape(-1, rows, n)
                       for at in (0, N, N + 1))
    flux = np.empty(last - first + 1)  # flux[::n] are the slot before f and its pad slots
    f, f_back = flux[1:].reshape(du.shape), flux[:-1].reshape(du.shape)
    np.multiply(lo, dc, f)
    f += hi * dc_next
    flux[n::n] = 0.0
    f.reshape(-1)[phi_at] += phi
    dc += prod * du
    du *= widths
    du -= f
    flux[::n] = -0.0
    du += f_back
    # (L rows, n) and (L, rows n) arrays in C order are LAPACK's column-major
    # right-hand sides of the c- and u-matrices, solved in place.  The u solve
    # runs through all rows' blocks, so a row whose tangents are not finite is
    # solved as zero and then set to nan, not spilled into the others.
    dgttrs(*c_lu, dc.reshape(-1, n).T, b"N", 1)
    if math.isfinite(np.add.reduce(du, None)):  # a finite sum has finite terms
        dgttrs(*u_lu, du.reshape(len(du), -1).T, b"N", 1)
    else:
        broken = ~np.isfinite(du).all(axis=(0, 2))
        du[:, broken] = 0.0
        dgttrs(*u_lu, du.reshape(len(du), -1).T, b"N", 1)
        du[:, broken] = np.nan


def _plan(n_nodes: int, rows: int, n_steps: int, directions: int) -> tuple:
    """(K, shapes, bytes) of one block of a solve: as many steps K as fit
    ``_BLOCK_BYTES`` (at least one, at most ``n_steps``), the shape in doubles
    of each of its buffers, and their sum in bytes.  ``_integrate`` allocates
    ``X``, the K + 1 frames (u and c) of every row the K steps start from and end
    at, ``dX``, their L = ``directions`` tangents, and ``tangents``, the current
    ones; ``steps`` sizes what the base steps keep for the tangents.
    """
    lane, L = (rows, n_nodes), directions
    nbytes = lambda shapes: 8 * sum(math.prod(shape) for shape in shapes.values())
    step = {"X": (2, *lane), "dX": (2, L, *lane), "steps": (_STEP_BYTES // 8 if L else 0, *lane)}
    K = min(n_steps, max(1, _BLOCK_BYTES // nbytes(step)))
    shapes = {"X": (K + 1, *step["X"]), "dX": (K + 1, *step["dX"]), "tangents": step["dX"],
              "steps": (K, *step["steps"])}
    return K, shapes, nbytes(shapes)


def solve_bytes(n_nodes: int, n_steps: int, rows: int = 1, directions: int = 0,
                kept: int | None = None) -> int:
    """Estimated peak bytes of an ``_integrate`` solve: ``rows`` rows on ``n_nodes``
    nodes, ``n_steps`` steps with L = ``directions`` tangents each.  It counts the
    ``kept`` frames (u and c) of every row the caller keeps, by default every
    solved one, the buffers of one block (``_plan``), the scratch of a tangent
    step, or of a base step without tangents (with them, a block's keep covers
    it), and the fixed arrays; ``inversion.round_bytes`` counts ``record``'s.
    """
    scratch = _SCRATCH_BYTES[1] * directions if directions else _SCRATCH_BYTES[0]
    frames = n_steps + 1 if kept is None else kept
    return (_plan(n_nodes, rows, n_steps, directions)[2] + _SOLVE_BYTES[1]
            + ((16 * frames + scratch) * rows + _SOLVE_BYTES[0]) * n_nodes)


def _integrate(model: ForwardModel, a: Callable, n_rows: int, record: Callable,
               directions: int = 0, stencil: Callable | None = None) -> list:
    """Solve ``model`` for ``n_rows`` rows, each from the model's initial state.

    ``a(face_c)`` gives the sensitivity values of the (rows, faces) face
    concentrations of all rows.  The model checked its initial fields
    and face rule when it was built, ``_step_operators`` the step weights.
    Every row takes one step per solved frame.  This loop is the one place
    a row is checked, as a lone solve would be: a finite dt * face velocity,
    then u >= 0 (round-off negatives clipped), a finite u and c, and c >=
    min(c0) e^{-mu t}, each one reduction over all rows (a min, or a sum,
    finite only if every term is) that looks at single rows only if it
    fails.  A row that fails stops: it steps on with zero flow, from the
    initial fields if its own are not finite, which keeps its u and c
    finite and changes none of the others; its later frames mean nothing.

    The steps run in blocks of K (``_plan``), in buffers of its shapes:
    ``X[0]`` holds the state a block starts from and ``X[i]`` the one its
    i-th step ends at.  ``record(j0, X)`` receives every solved frame in
    order, one call per block: X is a (k, 2, rows, n_nodes) array of u,
    then c, at frames j0 .. j0 + k - 1, the layout of
    ``StateTrajectory.X`` with a row axis; only the first block hands on
    its ``X[0]``, frame 0.  The frames end at the last one any row
    survived.  X is reused afterwards, so ``record`` copies what it keeps
    and may change the block in place (the lockstep fold scales it).
    Returns, per row, None or the error that stopped it.

    With ``directions`` = L > 0, ``stencil(face_c)`` gives the hat
    geometry (``hat_stencil``: segment, fraction, slope) of a (K, rows,
    faces) block of face means.  Each row carries the tangents of its L
    hat coefficients from zero, and ``record(j0, X, dX)`` gets them too,
    dX of shape (k, 2, L, rows, n_nodes).  A block keeps each step's a(cbar)
    (so ``a`` returns a new array per call) and the w and u_lu of ``_advance``;
    one ``_tangent_coefficients`` pass forms all their coefficients with the
    block's states, and the span of hats reached, carried from block to block;
    ``_tangent_step`` advances the tangents on it step by step.
    """
    params, grid = model.params, model.grid
    u, c = (np.tile(field, (n_rows, 1)) for field in (model.u0, model.c0))
    dt, n_steps = grid.dt, grid.n_steps
    half, dx_, dt_ = (np.array(v) for v in (0.5, grid.dx, dt))  # see _step_operators
    steps, shapes, _ = _plan(grid.n_nodes, n_rows, n_steps, directions)
    X, dX = np.empty(shapes["X"]), np.zeros(shapes["dX"])
    tangents = np.zeros(math.prod(shapes["tangents"]) + 1)  # du, dc, _tangent_step's spare
    buffers = (X, dX) if directions else (X,)
    kept = []  # a block's (a(cbar), w, u_lu) per step, for its tangents
    span = [directions, 0]  # the hats the face means have reached, none yet
    c_floor = float(model.c0.min())  # every row starts from c0
    errors = [None] * n_rows
    alive = np.ones(n_rows, dtype=bool)

    def fail(row, exc):  # a stopped row keeps the error that stopped it
        if alive[row]:
            errors[row], alive[row] = exc, False

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ops = _step_operators(params, grid)
        for first in range(0, n_steps, steps):
            X[0, 0], X[0, 1] = u, c  # record may have changed the last block's states
            k = 0  # X[: k + 1] holds frames first .. first + k
            for j in range(first, min(first + steps, n_steps)):
                value = np.asarray(a(half * (c[:, :-1] + c[:, 1:])), dtype=float)  # a(cbar)
                flow = dt_ * (value * ((c[:, 1:] - c[:, :-1]) / dx_))
                if not math.isfinite(np.add.reduce(flow, None)):  # a finite sum has finite terms
                    for row in np.flatnonzero(~np.isfinite(flow).all(axis=1)):
                        fail(row, InvalidStateError(
                            f"face velocity is not finite in frame {j + 1}"))
                if any(errors):  # a row has stopped
                    flow[~alive] = 0.0
                u, c, w, u_lu = _advance(u, c, flow, model, ops)

                if not np.minimum.reduce(u, None) >= 0.0:  # unless a value is negative or nan
                    u_min = u.min(axis=1)
                    broken = u_min < -POSITIVITY_FLOOR * np.maximum(1.0, u.max(axis=1))
                    for row in np.flatnonzero(broken):
                        fail(row, PositivityViolationError(f"cell density reached {u_min[row]:.3e}"
                                                           f" after a step of dt={dt:.3e}"))
                    u[u < 0.0] = 0.0
                X[k + 1, 0], X[k + 1, 1] = u, c  # a frame unless every row stops here
                if not math.isfinite(np.add.reduce(X[k + 1], None)):
                    for row in np.flatnonzero(~np.isfinite(X[k + 1]).all(axis=(0, 2))):
                        fail(row, NonFiniteStateError(f"u or c is not finite in frame {j + 1}"))
                        u[row], c[row] = model.u0, model.c0  # a nan would spread in the u solve
                t = grid.t_final if j + 1 == n_steps else (j + 1) * dt  # grid.times()[j + 1]
                bound = c_floor * math.exp(-params.mu * t) * (1.0 - LOWER_BOUND_SLACK)
                if not np.minimum.reduce(c, None) >= bound:
                    c_min = c.min(axis=1)
                    for row in np.flatnonzero(c_min < bound):
                        fail(row, LowerBoundViolationError(f"min c = {c_min[row]:.6e} fell below "
                                                           f"{bound:.6e} at t={t:.6g}"))
                if None not in errors:
                    break  # every row has stopped: the frames end at the step before
                k += 1
                if directions:
                    kept.append((value, w, u_lu))
                del w, u_lu  # unless kept, freed before the next step

            if directions and k:
                coefficients = _tangent_coefficients(X[: k + 1], kept, stencil, model, ops, span)
                for i in range(1, k + 1):
                    _tangent_step(tangents, next(coefficients), ops)
                    dX[i] = tangents[:-1].reshape(dX[i].shape)
                del coefficients  # frees the block's coefficients before record
            start = 1 if first else 0  # a later block's X[0] is the last block's end
            if k >= start:
                record(first + start, *(b[start : k + 1] for b in buffers))
            if None not in errors:
                break
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
    NumericalSolveError
        if a step weight or factorization fails; its subclasses PositivityViolationError,
        LowerBoundViolationError and NonFiniteStateError if the fields break u >= 0,
        the c floor or finiteness.
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

    errors = _integrate(model, a, 1, record)
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


#: CSV rows per block of ``_write_frames`` (whole frames, at least one).
_WRITE_ROWS = 2048


def write_trajectory_csv(traj: StateTrajectory, path) -> None:
    """CSV with header t,x,u,c; row-major by frame then node; 15 sig. digits."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_frames(fh, traj)


def _write_frames(fh, traj: StateTrajectory) -> None:
    """One ``t,x,u,c`` line per frame and node of ``traj``; each value as ``%.15g``.

    A block of frames at a time, in reused buffers: ``_g15.format_into``
    writes every value into a NUL-padded field, the columns that any
    field uses are laid out as rows, and deleting the NULs leaves the text.
    """
    grid, n = traj.grid, traj.grid.n_nodes
    frames = max(1, _WRITE_ROWS // n)
    values = np.empty(frames * (2 * n + 1))  # each frame's u and c, then the times
    fields = np.empty((len(values), 32), dtype=np.uint8)
    text = np.empty(0, dtype=np.uint8)
    x = np.empty((n, 32), dtype=np.uint8)
    _g15.format_into(grid.xs(), x)
    x, times = x[:, _g15.used_columns(x)], grid.times()
    fh.write("t,x,u,c\n")
    for j0 in range(0, len(times), frames):
        block = traj.X[j0 : j0 + frames]
        k, m = len(block), block.size
        values[:m], values[m : m + k] = block.reshape(-1), times[j0 : j0 + k]
        _g15.format_into(values[: m + k], fields[: m + k])
        uc = fields[:m].reshape(k, 2, n, 32)[..., _g15.used_columns(fields[:m])]
        t = fields[m : m + k, None, _g15.used_columns(fields[m : m + k])]
        parts = (t, x, uc[:, 0], uc[:, 1])
        width = sum(part.shape[-1] + 1 for part in parts)
        if text.size < k * n * width:
            text = np.empty(k * n * width, dtype=np.uint8)
        rows, col = text[: k * n * width].reshape(k, n, width), 0
        for part, sep in zip(parts, b",,,\n"):
            rows[..., col : col + part.shape[-1]] = part
            col += part.shape[-1] + 1
            rows[..., col - 1] = sep
        fh.write(rows.tobytes().translate(None, b"\0").decode("ascii"))


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
        with np.errstate(over="ignore"):  # a span that overflows fails SimulationGrid
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
