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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
    n_basis = coeffs.shape[0]
    h = cfg.fd_step * np.maximum(np.abs(coeffs), 1.0)
    pert = np.tile(coeffs, (n_basis, 1))
    pert[np.diag_indices(n_basis)] += h
    knots = prob.a_star.knots()
    J = np.empty((r0.shape[0], n_basis))
    n_nodes, n_field = prob.grid.n_nodes, prob.data.z_u.size
    w = math.sqrt(prob.grid.dx * prob.grid.dt)

    def record(j, u_rows, c_rows):
        """Write the J rows of measurement frame j / time_refine."""
        frame, skip = divmod(j, prob.time_refine)
        if skip:
            return
        for offset, X, Z in ((0, u_rows, prob.data.z_u), (n_field, c_rows, prob.data.z_c)):
            rows = slice(offset + frame * n_nodes, offset + (frame + 1) * n_nodes)
            J[rows] = ((w * (X - Z[frame]) - r0[rows]) / h[:, None]).T

    shape = (n_basis, n_nodes)
    errors = _integrate(
        np.broadcast_to(prob.u0, shape),
        np.broadcast_to(prob.c0, shape),
        prob.params,
        lambda face_c, rows: hat_rows(face_c, knots, pert[rows]),
        prob.solve_grid,
        prob.advection,
        record,
    )
    for k, exc in enumerate(errors):
        if exc is not None:
            raise JacobianColumnError(
                k, f"perturbed solve for column {k} failed: forward solve failed: {exc}"
            ) from exc

    pen = slice(2 * n_field, None)
    for k in range(n_basis):
        J[pen, k] = (_penalty_residual(pert[k], prob) - r0[pen]) / h[k]
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


def levenberg_marquardt(
    prob: TikhonovProblem,
    a0: SensitivityFunction,
    cfg: LMConfig = LMConfig(),
) -> InversionResult:
    """Minimize J_alpha from a0 by damped Gauss-Newton.

    Each iteration solves (J^T J + lambda diag(J^T J)) d = -J^T r and
    retries with lambda *= lambda_up until the trial cost decreases (the
    damping loop doubles as the line search); accepted steps shrink lambda.
    Stops on a small gradient, on two consecutive tiny relative cost
    decreases, on max_iters, or with converged=False when lambda overflows
    without finding any descent step.
    """
    require_same_basis(a0, prob.a_star, "initial guess is not on the problem basis")

    coeffs = a0.coeffs.copy()
    r = residual_vector(coeffs, prob)
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
            J = jacobian_fd(coeffs, prob, cfg, base_residual=r)
            g = J.T @ r
            if np.max(np.abs(2.0 * g)) < cfg.tol_grad:
                converged, message = True, "gradient below tol_grad"
                break
            JTJ = J.T @ J
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
                try:
                    r_trial = residual_vector(trial, prob)
                    trial_cost = float(r_trial @ r_trial)
                except ForwardSolveError:
                    trial_cost = math.inf
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
