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
(Levenberg-Marquardt with Marquardt diagonal scaling) minimizes.  The
measurements (z_u, z_c) are the data's (frame, field, node) array
``X``; the data rows of the residual and of J are laid out by field,
then frame, then node (``_data_blocks``).  Every solve runs the
problem's ``model``, one ``pde.ForwardModel``.  J is exact: the solved
row carries the tangents of its L hat coefficients (``pde._tangent_step``),
so one solve gives the residual, J^T J and J^T r (``_evaluate``), and an
iteration costs one solve per damping trial.

The iteration is written once, as a generator that yields the forward
solves it needs, one coefficient row each, and one runner,
``_run_lockstep``, drives every forward solve of the inverse problem:
each round it stacks those rows into one batched solve, in which a failed
row steps on with zero flow, and which delivers only the measurement
frames, in blocks.  ``levenberg_marquardt_many`` runs many
problems with equal models through it, and ``levenberg_marquardt`` is
its one-problem case.  ``residual_vector`` stays on ``solve_forward`` as
the independent one-vector reference, and ``jacobian_fd`` is a
forward-difference reference built on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.linalg import cholesky

from .errors import ForwardSolveError, InvalidStateError, NumericalSolveError
from .pde import (
    DEFAULT_ADVECTION,
    ForwardModel,
    PhysicalParams,
    SimulationGrid,
    _integrate,
    solve_forward,
)
from .sensitivity import (
    SensitivityFunction, hat_stencil, mass_matrix, require_same_basis, same_basis
)
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

    def __post_init__(self):
        if not self.lambda0 > 0:
            raise InvalidStateError(f"lambda0 must be > 0 (got {self.lambda0})")
        if not (self.tol_cost > 0 and self.tol_grad > 0):
            raise InvalidStateError("tolerances must be positive")
        if self.max_iters < 1:
            raise InvalidStateError(f"max_iters must be >= 1 (got {self.max_iters})")


def require_alpha(alpha: float) -> None:
    """InvalidStateError unless the regularization weight ``alpha`` is finite and >= 0."""
    if not math.isfinite(alpha):
        raise InvalidStateError(f"alpha must be finite (got {alpha})")
    if alpha < 0:
        raise InvalidStateError(f"alpha must be >= 0 (got {alpha})")


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
        require_alpha(self.alpha)
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
    w = math.sqrt(prob.grid.dx * prob.grid.dt)
    r_data = (w * (traj.X[:: prob.time_refine] - prob.data.X)).swapaxes(0, 1).ravel()
    return np.concatenate([r_data, _penalty_residual(a.coeffs, prob)])


def _penalty_residual(coeffs: np.ndarray, prob: TikhonovProblem) -> np.ndarray:
    return prob._penalty_root @ (coeffs - prob.a_star.coeffs)


def _data_blocks(v: np.ndarray, prob: TikhonovProblem) -> np.ndarray:
    """The data rows of a residual vector or Jacobian, viewed as
    (field u/c, frame, node, ...)."""
    n_frames, _, n_nodes = prob.data.X.shape
    return v[: prob.data.X.size].reshape(2, n_frames, n_nodes, *v.shape[1:])


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


def jacobian_fd(coeffs, prob: TikhonovProblem, fd_step: float = 1e-6) -> np.ndarray:
    """Forward-difference Jacobian of ``residual_vector``, a test reference:
    column k steps coefficient k by h_k = fd_step * max(|a_k|, 1)."""
    coeffs = prob.a_star.with_coeffs(coeffs).coeffs
    r0 = residual_vector(coeffs, prob)
    h = fd_step * np.maximum(np.abs(coeffs), 1.0)
    return np.column_stack(
        [(residual_vector(coeffs + step, prob) - r0) / hk for step, hk in zip(np.diag(h), h)]
    )


# The Levenberg-Marquardt body below is a generator of forward solves: it
# yields (coefficients, sink), one (L,) row, for each solve it needs and is
# sent back that solve's error or None, so that one runner,
# ``_run_lockstep``, can run many problems in lockstep.  ``sink(frame, X,
# dX)`` receives the measurement frames and their tangents in blocks: X is
# a (k, field u/c, n_nodes) and dX a (k, field u/c, L, n_nodes) array of
# frames frame .. frame + k - 1 (see ``pde._integrate`` for what it may keep).


def _evaluate(coeffs: np.ndarray, prob: TikhonovProblem):
    """Sub-generator: (r, J^T J, J^T r) at ``coeffs`` from one solved row and its tangents.

    r equals ``residual_vector(coeffs, prob)`` bit for bit.  The data rows
    of J^T are w = sqrt(dx dt) times the tangents, the penalty rows
    exactly ``prob._penalty_root``.  J is never formed: each block's
    products are added to the sums in frame order, u then c, by one
    batched matmul and ``np.add.accumulate``, which equals a frame by
    frame fold bit for bit (one GEMM over the block would round
    differently); the penalty rows come last.  A failed solve, or a J^T J
    or J^T r that is not finite, raises ForwardSolveError.
    """
    n_data, n_basis = prob.data.X.size, prob.n_basis
    w = math.sqrt(prob.grid.dx * prob.grid.dt)
    r = np.empty(n_data + n_basis)
    R = _data_blocks(r, prob)
    JTJ, JTr = np.zeros((n_basis, n_basis)), np.zeros(n_basis)

    def sink(frame, X, dX):
        k = len(X)
        Rk = (X - prob.data.X[frame : frame + k]) * w
        R[:, frame : frame + k] = Rk.swapaxes(0, 1)
        P = (w * dX).reshape(2 * k, n_basis, -1)  # (frame, field) order
        with np.errstate(over="ignore", invalid="ignore"):  # checked once folded
            PPt, Pr = P @ P.transpose(0, 2, 1), (P @ Rk.reshape(2 * k, -1, 1))[..., 0]
            JTJ[...] = np.add.accumulate(np.concatenate([JTJ[None], PPt]))[-1]
            JTr[...] = np.add.accumulate(np.concatenate([JTr[None], Pr]))[-1]

    exc = yield coeffs, sink
    if exc is not None:
        raise ForwardSolveError(f"forward solve failed: {exc}") from exc
    r[n_data:] = _penalty_residual(coeffs, prob)
    J_pen = prob._penalty_root
    JTJ += J_pen.T @ J_pen
    JTr += J_pen.T @ r[n_data:]
    if not (np.isfinite(JTJ).all() and np.isfinite(JTr).all()):
        raise ForwardSolveError("forward solve failed: its Jacobian is not finite")
    return r, JTJ, JTr


def _lm_body(prob: TikhonovProblem, a0: SensitivityFunction, cfg: LMConfig):
    """Generator of one Levenberg-Marquardt minimization; returns its result.

    a0 and every trial are one ``_evaluate`` each, so an accepted trial
    brings its own J^T J and gradient.  Raises ForwardSolveError if a0
    cannot be evaluated; a trial that cannot is a rejected trial.
    """
    coeffs = a0.coeffs.copy()
    r, JTJ, g = yield from _evaluate(coeffs, prob)
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
                        r_trial, JTJ_trial, g_trial = yield from _evaluate(trial, prob)
                        trial_cost = float(r_trial @ r_trial)
                    except ForwardSolveError:
                        pass
                if trial_cost < cost:
                    rel_drop = (cost - trial_cost) / cost
                    coeffs, r, JTJ, g, cost = trial, r_trial, JTJ_trial, g_trial, trial_cost
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
    same = prob.model == ref.model and prob.time_refine == ref.time_refine
    if not (same and same_basis(prob.a_star, ref.a_star)):
        raise InvalidStateError(
            "problems solved in lockstep must share the forward model, time_refine and knots"
        )


def _run_lockstep(prob: TikhonovProblem, requests: list) -> list:
    """Run the generators ``requests`` to their ends, their solves batched by round.

    This is the one driver of forward solves for the inverse problem.
    Every request must be for a problem with the forward model,
    time_refine and knots of ``prob``.  Each round stacks the coefficient
    row that every pending request yields into one batched solve, each
    row with the tangents of its L coefficients, that keeps every
    time_refine-th solved frame, the measurement frames.  Each request's
    sink gets its row of every block, and the request is sent its row's
    error.  Each row is checked as a lone solve would be, and its result,
    tangents included, does not depend on the others: a row that fails
    steps on with zero flow, its later frames meaningless.  Returns, per
    request, what it returned or the ForwardSolveError that stopped it.
    """
    knots = prob.a_star.knots()
    results = [None] * len(requests)
    pending = {}

    def advance(i, error):
        try:
            pending[i] = requests[i].send(error)
        except StopIteration as stop:
            results[i] = stop.value
        except ForwardSolveError as exc:
            results[i] = exc

    for i in range(len(requests)):
        advance(i, None)
    while pending:
        batch = sorted(pending.items())
        pending.clear()
        coeffs = np.array([row for _, (row, _) in batch])

        def sensitivity(face_c):
            hat = hat_stencil(face_c, knots, coeffs)
            return hat[2], hat

        def sink(frame, X, dX):
            for row, (_, (_, part_sink)) in enumerate(batch):
                part_sink(frame, X[:, :, row], dX[:, :, :, row])

        errors = _integrate(
            prob.model, sensitivity, len(coeffs), sink,
            every=prob.time_refine, directions=len(knots),
        )
        for (i, _), error in zip(batch, errors):
            advance(i, error)
    return results


def levenberg_marquardt_many(
    probs: Sequence[TikhonovProblem],
    a0s: Sequence[SensitivityFunction],
    cfg: LMConfig = LMConfig(),
) -> list:
    """Minimize J_alpha of every problem from its a0, all in lockstep.

    The problems may differ in data and alpha but must share the forward
    model (InvalidStateError otherwise).  Their minimizations run through
    ``_run_lockstep``, one coefficient row per solve, so a round costs
    about one batched forward solve however many problems run; a failed
    row steps on with zero flow and touches no other, so every entry
    equals a lone ``levenberg_marquardt`` call bit for bit.

    Returns, per problem, its InversionResult or the ForwardSolveError
    that stopped it; no problems give an empty list.
    """
    probs, a0s = list(probs), list(a0s)
    if len(probs) != len(a0s):
        raise InvalidStateError(f"{len(probs)} problems but {len(a0s)} initial guesses")
    if not probs:
        return []
    for prob, a0 in zip(probs, a0s):
        _require_same_model(prob, probs[0])
        require_same_basis(a0, prob.a_star, "initial guess is not on the problem basis")
    return _run_lockstep(probs[0], [_lm_body(prob, a0, cfg) for prob, a0 in zip(probs, a0s)])


def levenberg_marquardt(
    prob: TikhonovProblem,
    a0: SensitivityFunction,
    cfg: LMConfig = LMConfig(),
) -> InversionResult:
    """Minimize J_alpha from a0 by damped Gauss-Newton.

    Each iteration solves (J^T J + lambda diag(J^T J)) d = -J^T r, with
    the exact J, and retries with lambda *= LAMBDA_UP until the trial
    cost decreases (the damping loop doubles as the line search);
    accepted steps shrink lambda.  A trial whose coefficients are not
    finite, whose forward solve fails or whose J^T J or J^T r is not
    finite is rejected.  Stops on a small gradient, on two consecutive
    tiny relative cost decreases, on max_iters, or with converged=False
    when lambda overflows without finding any descent step.  Raises
    ForwardSolveError if a0 cannot be evaluated.  This is the
    one-problem case of ``levenberg_marquardt_many``.
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
