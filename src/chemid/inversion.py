"""Tikhonov-regularized output least squares for the sensitivity a(c).

The discrete objective over basis coefficients a is

    J_alpha(a) = dx dt sum_{i,j} (u_a - z_u)^2 + (c_a - z_c)^2
               + alpha (a - a*)^T B (a - a*)

where (u_a, c_a) is the forward solve on the inversion mesh and B is the
hat-basis Gram matrix.  J_alpha is exactly the squared norm of the
stacked residual vector

    [ sqrt(dx dt) (u_a - z_u), sqrt(dx dt) (c_a - z_c),
      sqrt(alpha) L_B^T (a - a*) ]

with B = L_B L_B^T, which is what the damped Gauss-Newton iteration
(Levenberg-Marquardt with Marquardt diagonal scaling) minimizes.
Jacobians are forward finite differences: the L perturbed coefficient
vectors advance as the rows of one batched forward solve, so an
iteration costs that batch plus one forward solve per damping trial.

The iteration is written once, as a generator that yields the forward
solves it needs.  ``levenberg_marquardt_many`` runs many problems that
share the forward model in lockstep: each round stacks the pending rows
of all of them (a residual row, or the L rows of a Jacobian) into one
batched solve.  There it never forms J: each frame's blocks are folded
into J^T J and J^T r as the solve delivers them.  ``levenberg_marquardt``
is its one-problem case; ``residual_vector`` and ``jacobian_fd`` remain
the one-vector references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.linalg import cholesky

from .errors import (
    ForwardSolveError,
    IncompatibleBasisError,
    InvalidStateError,
    JacobianColumnError,
    NumericalSolveError,
)
from .pde import (
    DEFAULT_ADVECTION,
    PhysicalParams,
    SimulationGrid,
    _initial_fields,
    _integrate,
    solve_forward,
)
from .sensitivity import SensitivityFunction, hat_rows, mass_matrix, require_same_basis
from .synthdata import NoisyData

#: Damping beyond this means no descent direction is found: stagnation.
LAMBDA_OVERFLOW = 1.0e12


@dataclass(frozen=True)
class LMConfig:
    """Damping and stopping knobs for the Levenberg-Marquardt driver."""

    lambda0: float = 1e-3
    lambda_up: float = 2.0
    lambda_down: float = 1.0 / 3.0
    max_iters: int = 100
    tol_cost: float = 1e-8
    tol_grad: float = 1e-8
    fd_step: float = 1e-6

    def __post_init__(self):
        if not self.lambda0 > 0:
            raise InvalidStateError(f"lambda0 must be > 0 (got {self.lambda0})")
        if not (self.lambda_up > 1.0 > self.lambda_down > 0.0):
            raise InvalidStateError(
                f"need lambda_up > 1 > lambda_down > 0 "
                f"(got {self.lambda_up}, {self.lambda_down})"
            )
        if not (self.tol_cost > 0 and self.tol_grad > 0 and self.fd_step > 0):
            raise InvalidStateError("tolerances and fd_step must be positive")
        if self.max_iters < 1:
            raise InvalidStateError(f"max_iters must be >= 1 (got {self.max_iters})")


@dataclass(frozen=True, eq=False)
class TikhonovProblem:
    """Everything that defines J_alpha: data, prior, dynamics, meshes.

    time_refine > 1 integrates the forward model with that many uniform
    steps per measurement frame before sampling the misfit at the
    frames.  It controls model accuracy only; residuals always live on
    the measurement mesh.
    """

    data: NoisyData
    alpha: float
    a_star: SensitivityFunction
    params: PhysicalParams
    u0: np.ndarray
    c0: np.ndarray
    advection: str = DEFAULT_ADVECTION
    time_refine: int = 1

    def __post_init__(self):
        if self.alpha < 0:
            raise InvalidStateError(f"alpha must be >= 0 (got {self.alpha})")
        if self.time_refine < 1:
            raise InvalidStateError(
                f"time_refine must be >= 1 (got {self.time_refine})"
            )
        u0 = np.array(self.u0, dtype=float, copy=True)
        c0 = np.array(self.c0, dtype=float, copy=True)
        n = self.grid.n_nodes
        if u0.shape != (n,) or c0.shape != (n,):
            raise InvalidStateError(
                f"initial fields must match the inversion mesh ({n} nodes)"
            )
        u0.setflags(write=False)
        c0.setflags(write=False)
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "c0", c0)

    @property
    def grid(self) -> SimulationGrid:
        # the inversion mesh is the measurement mesh by construction
        return self.data.grid

    @property
    def solve_grid(self) -> SimulationGrid:
        """The mesh the forward model runs on: time_refine steps per frame."""
        if self.time_refine == 1:
            return self.grid
        return self.grid.with_resolution(
            self.grid.n_nodes, self.grid.n_steps * self.time_refine
        )

    @property
    def n_basis(self) -> int:
        return self.a_star.n_basis

    @cached_property
    def _penalty_root(self) -> np.ndarray:
        """sqrt(alpha) * L_B^T with B = L_B L_B^T, the map behind the penalty block."""
        a = self.a_star
        B = mass_matrix(a.n_basis, a.c_min, a.c_max)
        return math.sqrt(self.alpha) * cholesky(B, lower=True).T


def _basis_coeffs(coeffs, prob: TikhonovProblem) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (prob.n_basis,):
        raise IncompatibleBasisError(
            f"expected {prob.n_basis} coefficients, got shape {coeffs.shape}"
        )
    return coeffs


def residual_vector(coeffs, prob: TikhonovProblem) -> np.ndarray:
    """Stacked weighted residual whose squared norm is J_alpha(coeffs).

    Layout: u-misfit block (frames x nodes, raveled), c-misfit block,
    penalty block of length L.  Forward-solve failures surface as
    ForwardSolveError; the optimizer treats them as rejected steps.
    """
    coeffs = _basis_coeffs(coeffs, prob)
    a = prob.a_star.with_coeffs(coeffs)
    try:
        traj = solve_forward(
            prob.u0,
            prob.c0,
            prob.params,
            a,
            prob.solve_grid,
            advection=prob.advection,
        )
    except (NumericalSolveError, InvalidStateError) as exc:
        raise ForwardSolveError(f"forward solve failed: {exc}") from exc
    k = prob.time_refine
    w = math.sqrt(prob.grid.dx * prob.grid.dt)
    r_u = w * (traj.u[::k] - prob.data.z_u).ravel()
    r_c = w * (traj.c[::k] - prob.data.z_c).ravel()
    return np.concatenate([r_u, r_c, _penalty_residual(coeffs, prob)])


def _penalty_residual(coeffs: np.ndarray, prob: TikhonovProblem) -> np.ndarray:
    return prob._penalty_root @ (coeffs - prob.a_star.coeffs)


def objective(coeffs, prob: TikhonovProblem) -> float:
    """J_alpha(coeffs) = ||residual_vector(coeffs)||^2."""
    r = residual_vector(coeffs, prob)
    return float(r @ r)


def _perturbations(coeffs: np.ndarray, cfg: LMConfig) -> tuple[np.ndarray, np.ndarray]:
    """(rows coeffs + h_k e_k, steps h) of the forward-difference Jacobian."""
    n_basis = coeffs.shape[0]
    h = cfg.fd_step * np.maximum(np.abs(coeffs), 1.0)
    pert = np.tile(coeffs, (n_basis, 1))
    pert[np.diag_indices(n_basis)] += h
    return pert, h


def _data_blocks(v: np.ndarray, prob: TikhonovProblem) -> np.ndarray:
    """The data rows of a residual vector or Jacobian, viewed as
    (field u/c, frame, node, ...)."""
    z = prob.data.z_u
    return v[: 2 * z.size].reshape(2, *z.shape, *v.shape[1:])


def _fd_columns(X: np.ndarray, Z: np.ndarray, r0: np.ndarray, h_col: np.ndarray, w: float):
    """One field block of J^T: row k is column k of J, (w (X_k - Z) - r0) / h_k.

    ``h_col`` holds the steps h as a column, shape (L, 1).
    """
    return (w * (X - Z) - r0) / h_col


def _penalty_columns(pert, h, r0_pen, prob: TikhonovProblem) -> np.ndarray:
    """The penalty rows of J, one column per perturbed coefficient vector."""
    return np.column_stack(
        [(_penalty_residual(p, prob) - r0_pen) / hk for p, hk in zip(pert, h)]
    )


def _raise_column_error(errors: list) -> None:
    """JacobianColumnError for the lowest perturbed row that failed, if any."""
    for k, exc in enumerate(errors):
        if exc is not None:
            raise JacobianColumnError(
                k, f"perturbed solve for column {k} failed: forward solve failed: {exc}"
            ) from exc


def _solve_rows(prob: TikhonovProblem, coeffs: np.ndarray, sink) -> list:
    """Solve the forward model of ``prob`` once per coefficient row, as one batch.

    ``sink(frame, u, c)`` receives the (rows, n_nodes) fields at every
    measurement frame (see ``pde._integrate`` for what it may keep).
    Returns, per row, None or the error that stopped it.
    """
    knots = prob.a_star.knots()
    shape = (coeffs.shape[0], prob.grid.n_nodes)
    if shape[0] == 1:  # hat_rows equals np.interp row by row; one row is faster there
        a = lambda face_c, rows: np.interp(face_c, knots, coeffs[0])
    else:
        a = lambda face_c, rows: hat_rows(face_c, knots, coeffs[rows])

    def record(j, u_rows, c_rows):
        frame, skip = divmod(j, prob.time_refine)
        if not skip:
            sink(frame, u_rows, c_rows)

    return _integrate(
        np.broadcast_to(prob.u0, shape),
        np.broadcast_to(prob.c0, shape),
        prob.params,
        a,
        prob.solve_grid,
        prob.advection,
        record,
    )


def jacobian_fd(
    coeffs,
    prob: TikhonovProblem,
    cfg: LMConfig = LMConfig(),
    *,
    base_residual: np.ndarray | None = None,
) -> np.ndarray:
    """Forward-difference Jacobian of the residual, one column per coefficient.

    Column k uses step fd_step * max(|a_k|, 1).  All L perturbed vectors
    are solved as the rows of one batched forward solve, in which each row
    is checked as a lone solve would be; if any fails, JacobianColumnError
    carries the lowest failing k.  Column k equals
    (residual_vector(coeffs + h_k e_k) - r0) / h_k bit for bit.
    """
    coeffs = _basis_coeffs(coeffs, prob)
    r0 = residual_vector(coeffs, prob) if base_residual is None else base_residual
    pert, h = _perturbations(coeffs, cfg)
    J = np.empty((r0.shape[0], coeffs.shape[0]))
    J_data, R0 = _data_blocks(J, prob), _data_blocks(r0, prob)
    Z = (prob.data.z_u, prob.data.z_c)
    w = math.sqrt(prob.grid.dx * prob.grid.dt)
    h_col = h[:, None]

    def sink(frame, u_rows, c_rows):
        for f, X in enumerate((u_rows, c_rows)):
            J_data[f, frame] = _fd_columns(X, Z[f][frame], R0[f, frame], h_col, w).T

    _raise_column_error(_solve_rows(prob, pert, sink))
    pen = slice(2 * prob.data.z_u.size, None)
    J[pen] = _penalty_columns(pert, h, r0[pen], prob)
    return J


@dataclass(frozen=True, eq=False)
class InversionResult:
    """Outcome of one Levenberg-Marquardt minimization."""

    a_hat: SensitivityFunction
    cost_history: tuple
    residual_norm2: float
    penalty_norm2: float
    iterations: int
    converged: bool
    message: str = ""

    def __post_init__(self):
        hist = tuple(float(c) for c in self.cost_history)
        if any(b > a * (1.0 + 1e-15) for a, b in zip(hist, hist[1:])):
            raise InvalidStateError("cost history must be non-increasing")
        object.__setattr__(self, "cost_history", hist)

    @property
    def final_cost(self) -> float:
        return self.cost_history[-1]


def _split_cost(r: np.ndarray, prob: TikhonovProblem) -> tuple[float, float]:
    """(data misfit term, unweighted penalty term) from a stacked residual."""
    n_data = 2 * (prob.grid.n_steps + 1) * prob.grid.n_nodes
    misfit = float(r[:n_data] @ r[:n_data])
    pen_block = r[n_data:]
    pen = float(pen_block @ pen_block) / prob.alpha if prob.alpha > 0 else 0.0
    return misfit, pen


# The Levenberg-Marquardt body below is a generator of forward solves: it
# yields (coefficient rows, sink) for each batch it needs and is sent back
# the per-row errors, so that one loop can run many problems in lockstep.


def _residual_solve(coeffs: np.ndarray, prob: TikhonovProblem):
    """Sub-generator: the residual vector at ``coeffs`` from one solved row.

    Equal bit for bit to ``residual_vector(coeffs, prob)``; a failed solve
    raises ForwardSolveError.
    """
    n_data = 2 * prob.data.z_u.size
    r = np.empty(n_data + prob.n_basis)
    R = _data_blocks(r, prob)

    def sink(frame, u_rows, c_rows):
        R[0, frame], R[1, frame] = u_rows[0], c_rows[0]

    (exc,) = yield coeffs[None, :], sink
    if exc is not None:
        raise ForwardSolveError(f"forward solve failed: {exc}") from exc
    R[0] -= prob.data.z_u
    R[1] -= prob.data.z_c
    R *= math.sqrt(prob.grid.dx * prob.grid.dt)
    r[n_data:] = _penalty_residual(coeffs, prob)
    return r


def _normal_equations(coeffs: np.ndarray, r0: np.ndarray, prob: TikhonovProblem, cfg):
    """Sub-generator: (J^T J, J^T r0) of ``jacobian_fd`` at ``coeffs``, without J.

    Each frame's u- and c-blocks of J are folded into the two sums as the
    batched solve of the L perturbed rows delivers them; the penalty rows
    are added at the end.  A failed row raises JacobianColumnError.
    """
    pert, h = _perturbations(coeffs, cfg)
    n_basis = coeffs.shape[0]
    JTJ = np.zeros((n_basis, n_basis))
    JTr = np.zeros(n_basis)
    R0 = _data_blocks(r0, prob)
    Z = (prob.data.z_u, prob.data.z_c)
    w = math.sqrt(prob.grid.dx * prob.grid.dt)
    h_col = h[:, None]

    def sink(frame, u_rows, c_rows):
        for f, X in enumerate((u_rows, c_rows)):
            r0_block = R0[f, frame]
            Jt = _fd_columns(X, Z[f][frame], r0_block, h_col, w)
            JTJ[...] += Jt @ Jt.T
            JTr[...] += Jt @ r0_block

    _raise_column_error((yield pert, sink))
    pen = slice(2 * prob.data.z_u.size, None)
    J_pen = _penalty_columns(pert, h, r0[pen], prob)
    return JTJ + J_pen.T @ J_pen, JTr + J_pen.T @ r0[pen]


def _lm_body(prob: TikhonovProblem, a0: SensitivityFunction, cfg: LMConfig):
    """Generator of one Levenberg-Marquardt minimization; returns its result.

    Raises ForwardSolveError if the starting point cannot be solved and
    JacobianColumnError if a Jacobian column cannot; a failed trial is a
    rejected trial.
    """
    try:
        _initial_fields(prob.u0, prob.c0, prob.solve_grid)
    except InvalidStateError as exc:
        raise ForwardSolveError(f"forward solve failed: {exc}") from exc
    coeffs = a0.coeffs.copy()
    r = yield from _residual_solve(coeffs, prob)
    cost = float(r @ r)
    history = [cost]
    lam = cfg.lambda0
    iterations = 0
    converged = False
    message = f"reached max_iters={cfg.max_iters}"
    small_decreases = 0

    if cost == 0.0:
        converged, message = True, "initial cost already zero"
    else:
        for _ in range(cfg.max_iters):
            JTJ, g = yield from _normal_equations(coeffs, r, prob, cfg)
            if np.max(np.abs(2.0 * g)) < cfg.tol_grad:
                converged, message = True, "gradient below tol_grad"
                break
            # relative floor keeps the damping term nonsingular for
            # coefficients the data does not inform (near-zero columns)
            dmax = float(np.max(np.diag(JTJ)))
            diag = np.maximum(np.diag(JTJ), 1e-12 * dmax if dmax > 0 else 1e-300)

            accepted = False
            while lam <= LAMBDA_OVERFLOW:
                A = JTJ + lam * np.diag(diag)
                try:
                    delta = np.linalg.solve(A, -g)
                except np.linalg.LinAlgError:
                    delta, *_ = np.linalg.lstsq(A, -g, rcond=None)
                trial = coeffs + delta
                trial_cost = math.inf
                # a non-finite step is rejected without a solve
                if np.isfinite(trial).all():
                    try:
                        r_trial = yield from _residual_solve(trial, prob)
                        trial_cost = float(r_trial @ r_trial)
                    except ForwardSolveError:
                        pass
                if trial_cost < cost:
                    rel_drop = (cost - trial_cost) / cost
                    coeffs, r, cost = trial, r_trial, trial_cost
                    history.append(cost)
                    iterations += 1
                    lam = max(lam * cfg.lambda_down, 1e-15)
                    accepted = True
                    break
                lam *= cfg.lambda_up
            if not accepted:
                message = f"stagnated: no descent step below lambda={LAMBDA_OVERFLOW:g}"
                break

            small_decreases = small_decreases + 1 if rel_drop < cfg.tol_cost else 0
            if small_decreases >= 2:
                converged, message = True, "cost decrease below tol_cost twice"
                break
            if cost == 0.0:
                converged, message = True, "exact fit reached"
                break

    misfit, pen = _split_cost(r, prob)
    return InversionResult(
        a_hat=prob.a_star.with_coeffs(coeffs),
        cost_history=tuple(history),
        residual_norm2=misfit,
        penalty_norm2=pen,
        iterations=iterations,
        converged=converged,
        message=message,
    )


def _require_same_model(prob: TikhonovProblem, ref: TikhonovProblem) -> None:
    same = (
        np.array_equal(prob.u0, ref.u0)
        and np.array_equal(prob.c0, ref.c0)
        and prob.params == ref.params
        and prob.solve_grid == ref.solve_grid
        and prob.advection == ref.advection
        and prob.time_refine == ref.time_refine
        and np.array_equal(prob.a_star.knots(), ref.a_star.knots())
    )
    if not same:
        raise InvalidStateError(
            "problems solved in lockstep must share u0, c0, params, grids, "
            "advection, time_refine and the basis knots"
        )


def levenberg_marquardt_many(
    probs: Sequence[TikhonovProblem],
    a0s: Sequence[SensitivityFunction],
    cfg: LMConfig = LMConfig(),
) -> list:
    """Minimize J_alpha of every problem from its a0, all in lockstep.

    The problems may differ in data and alpha but must share the forward
    model (InvalidStateError otherwise).  Each round gathers the solves
    every unfinished minimization needs next (a residual row, or the L
    rows of a Jacobian) into one batched forward solve, so a round costs
    about one solve however many problems run.  Each row is checked as a
    lone solve would be and a row's result does not depend on the others,
    so every entry equals a lone ``levenberg_marquardt`` call bit for bit.

    Returns, per problem, its InversionResult or the ForwardSolveError
    (such as JacobianColumnError) that stopped it.
    """
    probs, a0s = list(probs), list(a0s)
    if len(probs) != len(a0s):
        raise InvalidStateError(f"{len(probs)} problems but {len(a0s)} initial guesses")
    for prob, a0 in zip(probs, a0s):
        _require_same_model(prob, probs[0])
        require_same_basis(a0, prob.a_star, "initial guess is not on the problem basis")

    results = [None] * len(probs)
    bodies = [_lm_body(prob, a0, cfg) for prob, a0 in zip(probs, a0s)]
    requests = {}

    def advance(i, errors):
        try:
            requests[i] = bodies[i].send(errors)
        except StopIteration as stop:
            results[i] = stop.value
        except ForwardSolveError as exc:
            results[i] = exc

    for i in range(len(bodies)):
        advance(i, None)
    while requests:
        batch = sorted(requests.items())
        requests.clear()
        bounds = np.cumsum([0] + [len(rows) for _, (rows, _) in batch])
        spans = list(zip(bounds[:-1], bounds[1:]))

        def sink(frame, u_rows, c_rows):
            for (_, (_, part_sink)), (lo, hi) in zip(batch, spans):
                part_sink(frame, u_rows[lo:hi], c_rows[lo:hi])

        stacked = np.concatenate([rows for _, (rows, _) in batch])
        errors = _solve_rows(probs[0], stacked, sink)
        for (i, _), (lo, hi) in zip(batch, spans):
            advance(i, errors[lo:hi])
    return results


def levenberg_marquardt(
    prob: TikhonovProblem,
    a0: SensitivityFunction,
    cfg: LMConfig = LMConfig(),
) -> InversionResult:
    """Minimize J_alpha from a0 by damped Gauss-Newton.

    Each iteration solves (J^T J + lambda diag(J^T J)) d = -J^T r and
    retries with lambda *= lambda_up until the trial cost decreases (the
    damping loop doubles as the line search); accepted steps shrink lambda.
    A trial whose forward solve fails, or whose coefficients are not
    finite, is rejected.  Stops on a small gradient, on two consecutive
    tiny relative cost decreases, on max_iters, or with converged=False
    when lambda overflows without finding any descent step.  Raises
    ForwardSolveError if a0 or a Jacobian column cannot be solved.  This
    is the one-problem case of ``levenberg_marquardt_many``.
    """
    (result,) = levenberg_marquardt_many([prob], [a0], cfg)
    if isinstance(result, ForwardSolveError):
        raise result
    return result


# ---------------------------------------------------------------------------
# serialization


def write_inversion_report(
    result: InversionResult, prob: TikhonovProblem, path
) -> None:
    """Key-value run report: iteration count, cost split, alpha, delta, seed."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"iterations = {result.iterations}\n")
        fh.write(f"converged = {str(result.converged).lower()}\n")
        fh.write(f"final_cost = {result.final_cost:.15g}\n")
        fh.write(f"residual_norm2 = {result.residual_norm2:.15g}\n")
        fh.write(f"penalty_norm2 = {result.penalty_norm2:.15g}\n")
        fh.write(f"alpha = {prob.alpha:.15g}\n")
        fh.write(f"delta = {prob.data.delta:.15g}\n")
        fh.write(f"seed = {prob.data.seed}\n")
        fh.write(f"message = {result.message}\n")
