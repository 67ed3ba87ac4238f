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
penalty rows are formed once per problem, when it is built.  The
measurements (z_u, z_c) are the data's (frame, field, node) array
``X``; the data rows of the residual and of J are laid out by field,
then frame, then node.  Every solve runs the problem's ``model``, one
``pde.ForwardModel``.  J is exact: the solved row carries the tangents
of its L hat coefficients (``pde._tangent_step``), so one solve gives
the residual, J^T J and J^T r, and an iteration costs one solve per
damping trial.

The iteration is written once, as a generator that yields the (L,)
coefficient row of each evaluation it needs and is sent that row's
cost r @ r, its split into misfit and penalty, J^T J and J^T r, or the
ForwardSolveError of a failed evaluation as a value; it never sees r.
One runner, ``_run_lockstep``, drives every forward solve of the
inverse problem and forms those sums: each round it solves
the pending rows as one batch and folds each block of measurement frames
for all rows at once.  ``levenberg_marquardt_many`` runs many problems
with equal models through it; ``levenberg_marquardt`` is its one-problem
case.  ``residual_vector`` stays on ``solve_forward`` as the independent
one-vector reference, and ``jacobian_fd`` is a forward-difference
reference built on it.  The module opens no file: ``cli`` writes the
run report of an ``InversionResult``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._lapack import dpotrf
from .errors import ForwardSolveError, InvalidStateError, NumericalSolveError
from .pde import (DEFAULT_ADVECTION, ForwardModel, PhysicalParams, SimulationGrid, _integrate,
                  _plan, solve_bytes, solve_forward)
from .sensitivity import (
    SensitivityFunction, hat_stencil, mass_matrix, require_same_basis, same_basis
)
from .synthdata import NoisyData

#: Damping beyond this means no descent direction is found: stagnation.
LAMBDA_OVERFLOW = 1.0e12

#: Damping factors after a rejected and after an accepted trial step, and
#: the least damping, which the start and every accepted step keep.
LAMBDA_UP, LAMBDA_DOWN, LAMBDA_FLOOR = 2.0, 1.0 / 3.0, 1.0e-15


@dataclass(frozen=True)
class LMConfig:
    """Damping and stopping knobs for the Levenberg-Marquardt driver; a
    ``lambda0`` below ``LAMBDA_FLOOR`` starts the damping at that floor."""

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
    them and keeps the fields read-only.  ``_penalty_root``, sqrt(alpha) L_B^T
    with B = L_B L_B^T from LAPACK dpotrf (bit for bit scipy's ``cholesky(B,
    lower=True)``), and ``_penalty_gram``, root^T root, are built here too; the
    interval rule keeps B finite, and alpha B too large raises InvalidStateError.
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
    _penalty_root: np.ndarray = field(init=False, repr=False)
    _penalty_gram: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        require_alpha(self.alpha)
        require_time_refine(self.time_refine)
        grid = self.grid.with_resolution(self.grid.n_nodes, self.grid.n_steps * self.time_refine)
        model = ForwardModel(self.params, grid, self.u0, self.c0, self.advection)
        a = self.a_star
        L_B, info = dpotrf(mass_matrix(a.n_basis, a.c_min, a.c_max), lower=1, clean=1)
        if info != 0:
            raise NumericalSolveError(f"Cholesky factor of the Gram matrix failed (info={info})")
        with np.errstate(over="ignore", invalid="ignore"):
            root = math.sqrt(self.alpha) * L_B.T
            gram = root.T @ root
        if not (np.isfinite(root).all() and np.isfinite(gram).all()):
            raise InvalidStateError(f"the penalty alpha * B is not finite: alpha={self.alpha:g}"
                                    f" on the c-interval [{a.c_min:g}, {a.c_max:g}]")
        for name, value in (("model", model), ("u0", model.u0), ("c0", model.c0),
                            ("_penalty_root", root), ("_penalty_gram", gram)):
            object.__setattr__(self, name, value)

    @property
    def grid(self) -> SimulationGrid:
        # the inversion mesh is the measurement mesh by construction
        return self.data.grid

    @property
    def n_basis(self) -> int:
        return self.a_star.n_basis


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
    return np.concatenate([r_data, prob._penalty_root @ (a.coeffs - prob.a_star.coeffs)])


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
    diag makes lam * diag overflow."""
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
    sent that row's (cost, (misfit, penalty), J^T J, J^T r) or its
    ForwardSolveError (``_run_lockstep``), so an accepted trial brings its
    own cost split, J^T J and gradient.  It returns that error at a0,
    which ends the minimization, and rejects the trial it is sent for.
    """
    coeffs = a0.coeffs.copy()
    reply = yield coeffs
    if isinstance(reply, ForwardSolveError):
        return reply
    cost, split, JTJ, g = reply
    history = [cost]
    lam = max(cfg.lambda0, LAMBDA_FLOOR)
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
                reply = (math.inf,) if trial is None else (yield trial)  # a cost first, or an error
                if not isinstance(reply, ForwardSolveError) and reply[0] < cost:
                    rel_drop = (cost - reply[0]) / cost
                    coeffs, (cost, split, JTJ, g) = trial, reply
                    history.append(cost)
                    iterations += 1
                    lam = max(lam * LAMBDA_DOWN, LAMBDA_FLOOR)
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

    misfit, pen = split
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


def _close_row(prob, coeffs, error, r, JTJ, JTr):
    """One row's (r @ r, (data misfit, unweighted penalty), J^T J, J^T r),
    its data part folded: adds the penalty rows of ``prob``, formed once per
    problem, at ``coeffs``.  Returns a ForwardSolveError instead if the row's
    solve failed with ``error`` (its ``__cause__``) or its sums are not finite."""
    if error is not None:
        failed = ForwardSolveError(f"forward solve failed: {error}")
        failed.__cause__ = error
        return failed
    n_data = prob.data.X.size
    r_pen = r[n_data:]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below, or an inf cost rejects it
        r_pen[...] = prob._penalty_root @ (coeffs - prob.a_star.coeffs)
        JTJ += prob._penalty_gram
        JTr += prob._penalty_root.T @ r_pen
        cost, misfit = float(r @ r), float(r[:n_data] @ r[:n_data])
        pen = float(r_pen @ r_pen) / prob.alpha if prob.alpha > 0 else 0.0
    if not (np.isfinite(JTJ).all() and np.isfinite(JTr).all()):
        return ForwardSolveError("forward solve failed: its Jacobian is not finite")
    return cost, (misfit, pen), JTJ, JTr


def round_bytes(grid: SimulationGrid, time_refine: int, rows: int, n_basis: int) -> int:
    """Estimated peak bytes of a ``_run_lockstep`` round of ``rows`` problems with
    L = ``n_basis`` hats on the data grid ``grid``, ``time_refine`` steps a frame:
    per row, r, the data, J^T J, J^T r and its problem's penalty root and product;
    its solve (``pde.solve_bytes``) or, if more, that less what a block's steps keep
    (``pde._plan``), freed before ``record``, plus the fold's sums and per-frame
    products of a block's K + 1 frames, per row."""
    n_data, n_steps, L = 2 * (grid.n_steps + 1) * grid.n_nodes, grid.n_steps * time_refine, n_basis
    K, shapes, _ = _plan(grid.n_nodes, rows, n_steps, L)
    fold = 8 * rows * (2 * K + 3) * (L * L + L) - 8 * math.prod(shapes["steps"])
    per_row = (n_data + L) + n_data + (L * L + L) + 2 * L * L
    return 8 * rows * per_row + solve_bytes(grid.n_nodes, n_steps, rows, L, kept=0) + max(0, fold)


def _run_lockstep(probs: Sequence[TikhonovProblem], requests: list) -> list:
    """Run the generators ``requests`` of ``probs`` to their ends, their solves batched by round.

    The one driver of forward solves for the inverse problem and the one
    place that turns them into r, J^T J and J^T r; the problems share the
    forward model, time_refine and knots.  Each round solves the (L,) rows
    the pending requests yield as one batch with L tangents each, and owns
    r, (rows, n_data + L), and every row's J^T J and J^T r.  The solve
    hands on each block of solved frames; ``record`` takes every
    time_refine-th as strided views (solved frame j * time_refine is
    measurement frame j) and folds them for all rows at once, in place:
    residual and tangents are scaled by w = sqrt(dx dt), one batched
    matmul over (frame, field, row) puts the per-frame products after the
    sums, and ``np.add.reduce`` over that slow axis adds them in frame order,
    u then c (numpy sums pairwise only along the fast axis), so the sums equal
    a frame by frame fold and r ``residual_vector`` bit for bit.
    ``_close_row`` adds the penalty rows.  A request is sent what
    ``_close_row`` returns: its row's cost, cost split and sums, so none
    keeps the round's r, or its ForwardSolveError; a failed row steps on
    with zero flow and touches no other.  Returns, per request, what it
    returned.
    """
    prob = probs[0]
    knots = prob.a_star.knots()
    n_data, n_basis, time_refine = prob.data.X.size, len(knots), prob.time_refine
    w = math.sqrt(prob.grid.dx * prob.grid.dt)
    results = [None] * len(requests)
    pending = {}

    def advance(i, reply):
        try:
            pending[i] = requests[i].send(reply)
        except StopIteration as stop:
            results[i] = stop.value

    for i in range(len(requests)):
        advance(i, None)
    while pending:
        ids = sorted(pending)
        coeffs = np.array([pending.pop(i) for i in ids])
        n_rows = len(ids)
        r = np.empty((n_rows, n_data + n_basis))
        R = r[:, :n_data].reshape(n_rows, 2, -1, prob.grid.n_nodes)  # (row, field, frame, node)
        JTJ, JTr = np.zeros((n_rows, n_basis, n_basis)), np.zeros((n_rows, n_basis))

        def sensitivity(face_c):  # np.interp per row: a bit-equal gather is slower to 15 rows
            value = np.empty_like(face_c)
            for row, q in enumerate(coeffs):
                value[row] = np.interp(face_c[row], knots, q)
            return value

        def record(j0, X, dX):
            s = -j0 % time_refine  # solved frame j0 + s is the block's first measured one
            X, dX, j0 = X[s::time_refine], dX[s::time_refine], (j0 + s) // time_refine
            k = len(X)
            with np.errstate(over="ignore", invalid="ignore"):  # checked once closed
                for row, i in enumerate(ids):
                    X[:, :, row] -= probs[i].data.X[j0 : j0 + k]
                X *= w
                R[:, :, j0 : j0 + k] = X.transpose(2, 1, 0, 3)
                dX *= w
                P = dX.transpose(0, 1, 3, 2, 4)  # (frame, field, row, L, node)
                PPt, Pr = (np.empty((2 * k + 1, *sums.shape)) for sums in (JTJ, JTr))
                PPt[0], Pr[0] = JTJ, JTr  # the sums, then each frame's products, u before c
                np.matmul(P, P.swapaxes(-1, -2), PPt[1:].reshape(*P.shape[:-1], n_basis))
                np.matmul(P, X[..., None], Pr[1:].reshape(*P.shape[:-1], 1))
                np.add.reduce(PPt, 0, out=JTJ)  # not numpy's fast axis: no pairwise sum
                np.add.reduce(Pr, 0, out=JTr)

        errors = _integrate(prob.model, sensitivity, n_rows, record, n_basis,
                            lambda face_c: hat_stencil(face_c, knots, coeffs))
        for row, (i, error) in enumerate(zip(ids, errors)):
            advance(i, _close_row(probs[i], coeffs[row], error, r[row], JTJ[row], JTr[row]))
        del r, R  # before the next round's
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
