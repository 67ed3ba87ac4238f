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
(Levenberg-Marquardt with Marquardt diagonal scaling) minimizes.  Every
solve runs the problem's ``model``, one ``pde.ForwardModel``.  Jacobians
are forward finite differences: the L perturbed coefficient vectors
advance as the rows of one batched forward solve, so an iteration costs
that batch plus one forward solve per damping trial.

The iteration is written once, as a generator that yields the forward
solves it needs.  ``levenberg_marquardt_many`` runs many problems with
equal models in lockstep: each round stacks the pending rows of all of
them (a residual row, or the L rows of a Jacobian) into one batched
solve.  There it never forms J: the solve delivers its frames in blocks,
and each block's J^T rows are folded into J^T J and J^T r at once,
adding the per-frame products in frame order, u before c, so the sums
do not depend on the block size.  ``levenberg_marquardt`` is its
one-problem case.  The Jacobian is written once, as the request
``_jacobian_request``: the LM folds its blocks, and ``jacobian_fd`` is
that request run alone, storing them.  ``residual_vector`` stays on
``solve_forward`` as the independent one-vector reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.linalg import cholesky

from .errors import (
    ForwardSolveError,
    InvalidStateError,
    JacobianColumnError,
    NumericalSolveError,
)
from .pde import (
    DEFAULT_ADVECTION,
    ForwardModel,
    PhysicalParams,
    SimulationGrid,
    _integrate,
    solve_forward,
)
from .sensitivity import SensitivityFunction, hat_rows, mass_matrix, require_same_basis
from .synthdata import NoisyData

#: Damping beyond this means no descent direction is found: stagnation.
LAMBDA_OVERFLOW = 1.0e12

#: Damping factors after a rejected and after an accepted trial step.
LAMBDA_UP = 2.0
LAMBDA_DOWN = 1.0 / 3.0


@dataclass(frozen=True)
class LMConfig:
    """Damping and stopping knobs for the Levenberg-Marquardt driver."""

    lambda0: float = 1e-3
    max_iters: int = 100
    tol_cost: float = 1e-8
    tol_grad: float = 1e-8
    fd_step: float = 1e-6

    def __post_init__(self):
        if not self.lambda0 > 0:
            raise InvalidStateError(f"lambda0 must be > 0 (got {self.lambda0})")
        if not (self.tol_cost > 0 and self.tol_grad > 0 and self.fd_step > 0):
            raise InvalidStateError("tolerances and fd_step must be positive")
        if self.max_iters < 1:
            raise InvalidStateError(f"max_iters must be >= 1 (got {self.max_iters})")


def require_time_refine(time_refine: int) -> None:
    """InvalidStateError unless ``time_refine``, solve steps per frame, is >= 1."""
    if time_refine < 1:
        raise InvalidStateError(f"time_refine must be >= 1 (got {time_refine})")


@dataclass(frozen=True, eq=False)
class TikhonovProblem:
    """Everything that defines J_alpha: data, prior, dynamics, meshes.

    time_refine > 1 integrates the forward model with that many uniform
    steps per measurement frame before sampling the misfit at the
    frames.  It controls model accuracy only; residuals always live on
    the measurement mesh.  ``model`` is that ``ForwardModel``, built once
    here from ``params``, ``u0``, ``c0`` and ``advection``, which checks
    them and keeps the fields read-only.
    """

    data: NoisyData
    alpha: float
    a_star: SensitivityFunction
    params: PhysicalParams
    u0: np.ndarray
    c0: np.ndarray
    advection: str = DEFAULT_ADVECTION
    time_refine: int = 1
    model: ForwardModel = field(init=False, repr=False)

    def __post_init__(self):
        if self.alpha < 0:
            raise InvalidStateError(f"alpha must be >= 0 (got {self.alpha})")
        require_time_refine(self.time_refine)
        grid = self.grid.with_resolution(self.grid.n_nodes, self.grid.n_steps * self.time_refine)
        model = ForwardModel(self.params, grid, self.u0, self.c0, self.advection)
        for name, value in (("model", model), ("u0", model.u0), ("c0", model.c0)):
            object.__setattr__(self, name, value)

    @property
    def grid(self) -> SimulationGrid:
        # the inversion mesh is the measurement mesh by construction
        return self.data.grid

    @property
    def n_basis(self) -> int:
        return self.a_star.n_basis

    @cached_property
    def _penalty_root(self) -> np.ndarray:
        """sqrt(alpha) * L_B^T with B = L_B L_B^T, the map behind the penalty block."""
        a = self.a_star
        B = mass_matrix(a.n_basis, a.c_min, a.c_max)
        return math.sqrt(self.alpha) * cholesky(B, lower=True).T


def residual_vector(coeffs, prob: TikhonovProblem) -> np.ndarray:
    """Stacked weighted residual whose squared norm is J_alpha(coeffs).

    Layout: u-misfit block (frames x nodes, raveled), c-misfit block,
    penalty block of length L.  Forward-solve failures surface as
    ForwardSolveError; the optimizer treats them as rejected steps.
    """
    a = prob.a_star.with_coeffs(coeffs)
    m = prob.model
    try:
        traj = solve_forward(m.u0, m.c0, m.params, a, m.grid, advection=m.advection)
    except (NumericalSolveError, InvalidStateError) as exc:
        raise ForwardSolveError(f"forward solve failed: {exc}") from exc
    k = prob.time_refine
    w = math.sqrt(prob.grid.dx * prob.grid.dt)
    r_u = w * (traj.u[::k] - prob.data.z_u).ravel()
    r_c = w * (traj.c[::k] - prob.data.z_c).ravel()
    return np.concatenate([r_u, r_c, _penalty_residual(a.coeffs, prob)])


def _penalty_residual(coeffs: np.ndarray, prob: TikhonovProblem) -> np.ndarray:
    return prob._penalty_root @ (coeffs - prob.a_star.coeffs)


def _data_blocks(v: np.ndarray, prob: TikhonovProblem) -> np.ndarray:
    """The data rows of a residual vector or Jacobian, viewed as
    (field u/c, frame, node, ...)."""
    z = prob.data.z_u
    return v[: 2 * z.size].reshape(2, *z.shape, *v.shape[1:])


def _solve_rows(prob: TikhonovProblem, coeffs: np.ndarray, sink) -> list:
    """Solve the forward model of ``prob`` once per coefficient row, as one batch.

    ``sink(frame, U, C)`` receives the measurement frames in blocks: U
    and C are (k, rows, n_nodes) arrays holding frames frame .. frame + k
    - 1, picked out of each block ``pde._integrate`` delivers (every
    time_refine-th solved frame; see there for what a sink may keep).
    Returns, per row, None or the error that stopped it.
    """
    knots = prob.a_star.knots()
    if coeffs.shape[0] == 1:  # hat_rows equals np.interp row by row; one row is faster there
        a = lambda face_c, rows: np.interp(face_c, knots, coeffs[0])
    else:
        a = lambda face_c, rows: hat_rows(face_c, knots, coeffs[rows])

    step = prob.time_refine

    def record(j0, U, C):
        first = -j0 % step  # offset of the block's first measurement frame
        if first < len(U):
            sink((j0 + first) // step, U[first::step], C[first::step])

    return _integrate(prob.model, a, coeffs.shape[0], record)


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

    def sink(frame, U, C):
        block = slice(frame, frame + len(U))
        R[0, block], R[1, block] = U[:, 0], C[:, 0]

    (exc,) = yield coeffs[None, :], sink
    if exc is not None:
        raise ForwardSolveError(f"forward solve failed: {exc}") from exc
    R[0] -= prob.data.z_u
    R[1] -= prob.data.z_c
    R *= math.sqrt(prob.grid.dx * prob.grid.dt)
    r[n_data:] = _penalty_residual(coeffs, prob)
    return r


def _jacobian_request(coeffs, r0, prob: TikhonovProblem, cfg: LMConfig, take):
    """Sub-generator: the forward-difference Jacobian of the residual at ``coeffs``.

    Yields the L perturbed rows coeffs + h_k e_k, h_k = fd_step *
    max(|a_k|, 1), as one batch.  Each block of k frames the solve
    delivers goes to ``take(frame, Jt)`` as the (k, field u/c, L, n_nodes)
    J^T rows of frames frame .. frame + k - 1: row k is column k of J,
    (w (X_k - z) - r0) / h_k, each entry computed as for one frame alone.
    A failed row raises JacobianColumnError for the lowest such k;
    otherwise returns the penalty rows of J.
    """
    n_basis = coeffs.shape[0]
    h = cfg.fd_step * np.maximum(np.abs(coeffs), 1.0)
    pert = np.tile(coeffs, (n_basis, 1))
    pert[np.diag_indices(n_basis)] += h
    R0 = _data_blocks(r0, prob)
    Z = (prob.data.z_u, prob.data.z_c)
    w = math.sqrt(prob.grid.dx * prob.grid.dt)
    h_col = h[:, None]

    def sink(frame, U, C):
        block = slice(frame, frame + len(U))
        Jt = np.empty((len(U), 2, n_basis, U.shape[2]))
        for f, X in enumerate((U, C)):
            Jt[:, f] = (w * (X - Z[f][block, None]) - R0[f, block, None]) / h_col
        take(frame, Jt)

    errors = yield pert, sink
    for k, exc in enumerate(errors):
        if exc is not None:
            raise JacobianColumnError(
                k, f"perturbed solve for column {k} failed: forward solve failed: {exc}"
            ) from exc
    r0_pen = r0[2 * prob.data.z_u.size :]
    return np.column_stack(
        [(_penalty_residual(p, prob) - r0_pen) / hk for p, hk in zip(pert, h)]
    )


def _normal_equations(coeffs: np.ndarray, r0: np.ndarray, prob: TikhonovProblem, cfg):
    """Sub-generator: (J^T J, J^T r0) of ``jacobian_fd`` at ``coeffs``, without J.

    Adds each frame's products to the two sums in frame order, u then c,
    then the penalty rows.  A block is folded at once but in that order:
    its 2k products are formed by one batched matmul and summed onto the
    running totals by ``np.add.accumulate``, so the sums equal a frame by
    frame fold bit for bit (folding u before c, or one GEMM over the
    block, would round differently).
    """
    n_basis = coeffs.shape[0]
    JTJ = np.zeros((n_basis, n_basis))
    JTr = np.zeros(n_basis)
    R0 = _data_blocks(r0, prob)

    def take(frame, Jt):
        k = len(Jt)
        P = Jt.reshape(2 * k, n_basis, -1)  # (frame, field) order
        r = R0[:, frame : frame + k].swapaxes(0, 1).reshape(2 * k, -1, 1)
        JTJ[...] = np.add.accumulate(np.concatenate([JTJ[None], P @ P.transpose(0, 2, 1)]))[-1]
        JTr[...] = np.add.accumulate(np.concatenate([JTr[None], (P @ r)[..., 0]]))[-1]

    J_pen = yield from _jacobian_request(coeffs, r0, prob, cfg, take)
    r0_pen = r0[2 * prob.data.z_u.size :]
    return JTJ + J_pen.T @ J_pen, JTr + J_pen.T @ r0_pen


def jacobian_fd(
    coeffs,
    prob: TikhonovProblem,
    cfg: LMConfig = LMConfig(),
    *,
    base_residual: np.ndarray | None = None,
) -> np.ndarray:
    """Forward-difference Jacobian of the residual, one column per coefficient.

    This is the LM's Jacobian request, ``_jacobian_request``, run alone
    around one batched forward solve, with its blocks stored in J.  Column
    k uses step fd_step * max(|a_k|, 1); if a perturbed row fails,
    JacobianColumnError carries the lowest failing k.  Column k equals
    (residual_vector(coeffs + h_k e_k) - r0) / h_k bit for bit.  A
    base_residual must be the residual_vector layout, 2 * z_u.size + L long.
    """
    coeffs = prob.a_star.with_coeffs(coeffs).coeffs
    r0 = residual_vector(coeffs, prob) if base_residual is None else base_residual
    n_rows = 2 * prob.data.z_u.size + coeffs.shape[0]
    if np.shape(r0) != (n_rows,):
        raise InvalidStateError(
            f"base_residual must have length {n_rows}, got shape {np.shape(r0)}"
        )
    J = np.empty((n_rows, coeffs.shape[0]))
    J_data = _data_blocks(J, prob)

    def take(frame, Jt):
        J_data[:, frame : frame + len(Jt)] = Jt.transpose(1, 0, 3, 2)

    request = _jacobian_request(coeffs, r0, prob, cfg, take)
    rows, sink = next(request)
    try:
        request.send(_solve_rows(prob, rows, sink))
    except StopIteration as done:
        J[2 * prob.data.z_u.size :] = done.value
    return J


def _lm_body(prob: TikhonovProblem, a0: SensitivityFunction, cfg: LMConfig):
    """Generator of one Levenberg-Marquardt minimization; returns its result.

    Raises ForwardSolveError if the starting point cannot be solved and
    JacobianColumnError if a Jacobian column cannot; a failed trial is a
    rejected trial.
    """
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
                    lam = max(lam * LAMBDA_DOWN, 1e-15)
                    accepted = True
                    break
                lam *= LAMBDA_UP
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
    same_knots = np.array_equal(prob.a_star.knots(), ref.a_star.knots())
    if not (prob.model == ref.model and prob.time_refine == ref.time_refine and same_knots):
        raise InvalidStateError(
            "problems solved in lockstep must share the forward model, time_refine and knots"
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

        def sink(frame, U, C):
            for (_, (_, part_sink)), (lo, hi) in zip(batch, spans):
                part_sink(frame, U[:, lo:hi], C[:, lo:hi])

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
    retries with lambda *= LAMBDA_UP until the trial cost decreases (the
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
