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
then frame, then node.  Every solve runs the problem's ``model``, one
``pde.ForwardModel``.  J is exact: the solved row carries the tangents
of its L hat coefficients (``pde._tangent_step``), so one solve gives
the residual, J^T J and J^T r, and an iteration costs one solve per
damping trial.

The iteration is written once, as a generator that yields the (L,)
coefficient row of each evaluation it needs and is sent that row's
(r, J^T J, J^T r).  One runner, ``_run_lockstep``, drives every forward
solve of the inverse problem and forms those sums: each round it solves
the pending rows as one batch and folds each block of measurement frames
for all rows at once.  ``levenberg_marquardt_many`` runs many problems
with equal models through it; ``levenberg_marquardt`` is its one-problem
case.  ``residual_vector`` stays on ``solve_forward`` as the independent
one-vector reference, and ``jacobian_fd`` is a forward-difference
reference built on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from ._lapack import dpotrf
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
        """sqrt(alpha) * L_B^T with B = L_B L_B^T, the map behind the penalty block.

        L_B is the lower Cholesky factor from LAPACK dpotrf, called as
        scipy's ``cholesky(B, lower=True)`` calls it, so the two are equal
        bit for bit.  The interval rule keeps B finite.
        """
        a = self.a_star
        B = mass_matrix(a.n_basis, a.c_min, a.c_max)
        L_B, info = dpotrf(B, lower=1, clean=1)
        if info != 0:
            raise NumericalSolveError(f"Cholesky factor of the Gram matrix failed (info={info})")
        return math.sqrt(self.alpha) * L_B.T


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


def _damped_trial(coeffs, JTJ, g, diag, lam):
    """coeffs + d, where (J^T J + lam diag) d = -g, or None (a trial rejected
    without a solve) if that matrix or coeffs + d is not finite; a huge
    alpha makes lam * diag overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        A = JTJ + lam * np.diag(diag)
    if not np.isfinite(A).all():
        return None
    try:
        delta = np.linalg.solve(A, -g)
    except np.linalg.LinAlgError:
        delta, *_ = np.linalg.lstsq(A, -g, rcond=None)
    trial = coeffs + delta
    return trial if np.isfinite(trial).all() else None


def _lm_body(prob: TikhonovProblem, a0: SensitivityFunction, cfg: LMConfig):
    """Generator of one Levenberg-Marquardt minimization; returns its result.

    It yields the (L,) coefficient row of a0 and of every trial and is
    sent that row's (r, J^T J, J^T r), or has the ForwardSolveError of
    its evaluation thrown in (``_run_lockstep``), so an accepted trial
    brings its own J^T J and gradient.  That error at a0 ends the
    minimization; at a trial it rejects the trial.
    """
    coeffs = a0.coeffs.copy()
    r, JTJ, g = yield coeffs
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
                trial = _damped_trial(coeffs, JTJ, g, diag, lam)
                trial_cost = math.inf
                if trial is not None:
                    try:
                        r_trial, JTJ_trial, g_trial = yield trial
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


def _close_row(prob, coeffs, error, r, JTJ, JTr) -> tuple:
    """One row's (r, J^T J, J^T r), its data part folded: adds the penalty
    rows of ``prob`` at ``coeffs`` last.  Raises ForwardSolveError if the
    row's solve failed with ``error`` or its sums are not finite."""
    if error is not None:
        raise ForwardSolveError(f"forward solve failed: {error}") from error
    n_data = prob.data.X.size
    r[n_data:] = _penalty_residual(coeffs, prob)
    J_pen = prob._penalty_root
    JTJ += J_pen.T @ J_pen
    JTr += J_pen.T @ r[n_data:]
    if not (np.isfinite(JTJ).all() and np.isfinite(JTr).all()):
        raise ForwardSolveError("forward solve failed: its Jacobian is not finite")
    return r, JTJ, JTr


def _run_lockstep(probs: Sequence[TikhonovProblem], requests: list) -> list:
    """Run the generators ``requests`` of ``probs`` to their ends, their solves batched by round.

    The one driver of forward solves for the inverse problem and the one
    place that turns them into (r, J^T J, J^T r); the problems share the
    forward model, time_refine and knots.  Each round solves the (L,) rows
    the pending requests yield as one batch with L tangents each, and owns
    r, (rows, n_data + L), and every row's J^T J and J^T r.  Each block of
    measurement frames is folded for all rows at once, in place: residual
    and tangents are scaled by w = sqrt(dx dt), one batched matmul over
    (frame, field, row) gives the per-frame products and
    ``np.add.accumulate`` adds them in frame order, u then c, so the sums
    equal a frame by frame fold and r ``residual_vector`` bit for bit.
    ``_close_row`` adds the penalty rows.  A request is sent its row's sums
    or has its ForwardSolveError thrown in; a failed row steps on with zero
    flow and touches no other.  Returns, per request, what it returned or
    the ForwardSolveError that stopped it.
    """
    prob = probs[0]
    knots = prob.a_star.knots()
    n_data, n_basis = prob.data.X.size, len(knots)
    w = math.sqrt(prob.grid.dx * prob.grid.dt)
    results = [None] * len(requests)
    pending = {}

    def advance(i, reply):
        try:
            failed = isinstance(reply, ForwardSolveError)
            pending[i] = (requests[i].throw if failed else requests[i].send)(reply)
        except StopIteration as stop:
            results[i] = stop.value
        except ForwardSolveError as exc:
            results[i] = exc

    for i in range(len(requests)):
        advance(i, None)
    while pending:
        ids = sorted(pending)
        coeffs = np.array([pending.pop(i) for i in ids])
        n_rows = len(ids)
        r = np.empty((n_rows, n_data + n_basis))
        R = r[:, :n_data].reshape(n_rows, 2, -1, prob.grid.n_nodes)  # (row, field, frame, node)
        JTJ, JTr = np.zeros((n_rows, n_basis, n_basis)), np.zeros((n_rows, n_basis))

        def sensitivity(face_c):
            hat = hat_stencil(face_c, knots, coeffs)
            return hat[2], hat

        def record(j0, X, dX):
            k = len(X)
            with np.errstate(over="ignore", invalid="ignore"):  # checked once closed
                for row, i in enumerate(ids):
                    X[:, :, row] -= probs[i].data.X[j0 : j0 + k]
                X *= w
                R[:, :, j0 : j0 + k] = X.transpose(2, 1, 0, 3)
                dX *= w
                P = dX.transpose(0, 1, 3, 2, 4)  # (frame, field, row, L, node)
                PPt = (P @ P.swapaxes(-1, -2)).reshape(2 * k, n_rows, n_basis, n_basis)
                Pr = (P @ X[..., None]).reshape(2 * k, n_rows, n_basis)
                JTJ[...] = np.add.accumulate(np.concatenate([JTJ[None], PPt]))[-1]
                JTr[...] = np.add.accumulate(np.concatenate([JTr[None], Pr]))[-1]

        errors = _integrate(prob.model, sensitivity, n_rows, record,
                            every=prob.time_refine, directions=n_basis)
        for row, (i, error) in enumerate(zip(ids, errors)):
            try:
                reply = _close_row(probs[i], coeffs[row], error, r[row], JTJ[row], JTr[row])
            except ForwardSolveError as exc:
                reply = exc
            advance(i, reply)
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
    return _run_lockstep(probs, [_lm_body(prob, a0, cfg) for prob, a0 in zip(probs, a0s)])


def levenberg_marquardt(
    prob: TikhonovProblem,
    a0: SensitivityFunction,
    cfg: LMConfig = LMConfig(),
) -> InversionResult:
    """Minimize J_alpha from a0 by damped Gauss-Newton.

    Each iteration solves (J^T J + lambda diag(J^T J)) d = -J^T r, with
    the exact J, and retries with lambda *= LAMBDA_UP until the trial
    cost decreases (the damping loop doubles as the line search);
    accepted steps shrink lambda.  A trial whose damped matrix or
    coefficients are not finite, whose forward solve fails or whose
    J^T J or J^T r is not finite is rejected.  Stops on a small gradient, on two consecutive
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
