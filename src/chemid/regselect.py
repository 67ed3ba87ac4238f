"""Regularization-parameter selection and noise-vs-error rate studies.

Two tools live here.  The L-curve sweep runs one inversion per candidate
alpha and records the trade-off point (rho, eta) = (data-misfit norm,
penalty norm); the corner detector picks the alpha of maximum discrete
curvature of the polyline (log rho, log eta).  The rate study couples
alpha = coupling * delta, inverts noisy data over a range of noise
levels, and fits log-log slopes of the squared misfit and the parameter
error against delta.  Both run their inversions through
``levenberg_marquardt_many``, one batched forward solve per round: the
study's (delta, seed) cells in one call, the sweep's points one a call
when each warm-starts from the last optimum, else all in one.  It does
no file I/O: ``cli`` writes what these tools return.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ForwardSolveError,
    InsufficientSweepError,
    InvalidStateError,
    NoiseLevelError,
)
from .inversion import (
    InversionResult,
    LMConfig,
    TikhonovProblem,
    levenberg_marquardt,  # unused here; patched by perfbench until ROADMAP item 2
    levenberg_marquardt_many,
    require_alpha,
)
from .pde import StateTrajectory
from .sensitivity import SensitivityFunction, mass_matrix, require_same_basis
from .synthdata import add_noise

#: Relative slack when checking the weak monotonicity of swept (rho, eta).
MONOTONICITY_SLACK = 1e-6

#: Curvatures below this are treated as collinear (degenerate corner).
CURVATURE_FLOOR = 1e-12

#: Fewest valid swept points the corner detector accepts, and so the
#: fewest alphas an L-curve run may sweep.
MIN_CORNER_POINTS = 5


@dataclass(frozen=True, eq=False)
class LCurvePoint:
    """One swept point: alpha, misfit norm rho, penalty norm eta."""

    alpha: float
    rho: float
    eta: float
    result: InversionResult

    def __post_init__(self):
        if not self.alpha > 0:
            raise InvalidStateError(f"alpha must be > 0 (got {self.alpha})")
        if self.rho < 0 or self.eta < 0:
            raise InvalidStateError("rho and eta must be nonnegative")

    def __lt__(self, other: "LCurvePoint") -> bool:
        return self.alpha < other.alpha


@dataclass(frozen=True)
class RateStudyRecord:
    """One inversion cell of the rate study."""

    delta: float
    alpha: float
    misfit2: float
    param_error: float
    seed: int

    def __post_init__(self):
        if not self.delta > 0:
            raise InvalidStateError(f"delta must be > 0 (got {self.delta})")


@dataclass(frozen=True)
class RateStudyResult:
    """Surviving records, fitted log-log slopes, and one note per dropped cell."""

    records: tuple
    misfit2_slope: float
    param_error_slope: float
    notes: tuple


def _positive_distinct(values, what: str, at_least: int) -> np.ndarray:
    """``values`` as an array: at least ``at_least`` of them, positive and distinct.

    Anything else raises InvalidStateError naming ``what``.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size < at_least:
        raise InvalidStateError(
            f"{what} must number at least {at_least} (got {arr.size})"
        )
    if not np.all(arr > 0):
        raise InvalidStateError(f"{what} must be positive")
    if np.unique(arr).size != arr.size:
        raise InvalidStateError(f"{what} must be distinct")
    return arr


def lcurve_sweep(
    prob_template: TikhonovProblem,
    alphas: Sequence[float],
    cfg: LMConfig = LMConfig(),
    *,
    warm_start: bool = True,
) -> tuple[list[LCurvePoint], tuple]:
    """Invert once per alpha; the swept points sorted by alpha, and notes.

    Alphas go from largest to smallest through ``levenberg_marquardt_many``:
    with warm_start one point a call, from the last optimum (which tracks the
    curve smoothly), else all points from a* in one call, a row each a round.
    A failed point is left out and the sweep goes on; weak monotonicity of rho
    and eta across converged points is checked.  The notes (text) name the
    failed points in sweep order, then the anomalies, which drop no point.
    """
    arr = np.sort(_positive_distinct(alphas, "sweep alphas", 1))[::-1]
    probs = [dataclasses.replace(prob_template, alpha=float(alpha)) for alpha in arr]
    size = 1 if warm_start else len(probs)  # points a call
    points, notes, guess = [], [], prob_template.a_star
    for k in range(0, len(probs), size):
        batch = levenberg_marquardt_many(probs[k : k + size], [guess] * size, cfg)
        for alpha, res in zip(arr[k : k + size], batch):
            if isinstance(res, ForwardSolveError):
                notes.append(f"alpha={alpha:.3e}: inversion failed: {res}")
                continue
            points.append(
                LCurvePoint(
                    alpha=float(alpha),
                    rho=float(np.sqrt(res.residual_norm2)),
                    eta=float(np.sqrt(res.penalty_norm2)),
                    result=res,
                )
            )
            guess = res.a_hat  # the next call's start, when warm
    points.sort()
    return points, (*notes, *_sweep_anomalies(points))


def _sweep_anomalies(points: list):
    ok = [p for p in points if p.result.converged]
    for prev, cur in zip(ok, ok[1:]):
        # ascending alpha: rho should not fall, eta should not grow
        if cur.rho < prev.rho * (1.0 - MONOTONICITY_SLACK) - 1e-15:
            yield (
                f"sweep anomaly: rho fell from {prev.rho:.6e} (alpha="
                f"{prev.alpha:.3e}) to {cur.rho:.6e} (alpha={cur.alpha:.3e})"
            )
        if cur.eta > prev.eta * (1.0 + MONOTONICITY_SLACK) + 1e-15:
            yield (
                f"sweep anomaly: eta rose from {prev.eta:.6e} (alpha="
                f"{prev.alpha:.3e}) to {cur.eta:.6e} (alpha={cur.alpha:.3e})"
            )


def _three_point_derivatives(s: np.ndarray, f: np.ndarray):
    """First and second derivatives of f(s) at interior nodes, nonuniform s."""
    h0 = s[1:-1] - s[:-2]
    h1 = s[2:] - s[1:-1]
    f0, f1, f2 = f[:-2], f[1:-1], f[2:]
    d1 = (f2 * h0**2 - f0 * h1**2 + f1 * (h1**2 - h0**2)) / (h0 * h1 * (h0 + h1))
    d2 = 2.0 * (f0 * h1 + f2 * h0 - f1 * (h0 + h1)) / (h0 * h1 * (h0 + h1))
    return d1, d2


def lcurve_corner(points: Sequence[LCurvePoint]) -> tuple[float, tuple]:
    """Alpha of maximum curvature of the (log rho, log eta) polyline, and notes.

    Points are sorted by alpha and parameterized by log alpha; curvature
    uses centered (three-point) first and second differences, so only
    interior points are corner candidates.  Needs at least
    MIN_CORNER_POINTS valid points (converged, rho > 0, eta > 0).  If
    every curvature is at the collinearity floor the corner is undefined
    and the median valid alpha is returned with a note; else no notes.
    """
    valid = sorted(
        p for p in points if p.result.converged and p.rho > 0 and p.eta > 0
    )
    if len(valid) < MIN_CORNER_POINTS:
        raise InsufficientSweepError(
            f"corner detection needs >= {MIN_CORNER_POINTS} valid points, got {len(valid)}"
        )
    s = np.log10([p.alpha for p in valid])
    x = np.log10([p.rho for p in valid])
    y = np.log10([p.eta for p in valid])
    x1, x2 = _three_point_derivatives(s, x)
    y1, y2 = _three_point_derivatives(s, y)
    speed2 = x1**2 + y1**2
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.abs(x1 * y2 - y1 * x2) / speed2**1.5
    kappa = np.where(np.isfinite(kappa), kappa, 0.0)
    if np.max(kappa) <= CURVATURE_FLOOR:
        note = "degenerate corner: L-curve points are collinear"
        return valid[(len(valid) - 1) // 2].alpha, (note,)
    return valid[int(np.argmax(kappa)) + 1].alpha, ()


def require_rate_inputs(deltas, coupling: float, seeds) -> np.ndarray:
    """The deltas as an array if a rate study can take these inputs, else
    InvalidStateError: 4 or more distinct deltas > 0 over >= 1.5 decades,
    coupling > 0, alphas coupling * delta that are finite and > 0, and
    distinct seeds."""
    arr = _positive_distinct(deltas, "rate-study deltas", 4)
    span = np.log10(arr.max() / arr.min())
    if span < 1.5 - 1e-9:
        raise InvalidStateError(f"rate-study deltas must span >= 1.5 decades (got {span:.2f})")
    if not coupling > 0:
        raise InvalidStateError(f"coupling must be > 0 (got {coupling})")
    require_alpha(float(coupling) * float(arr.max()))  # the largest; a float overflows silently
    smallest = float(coupling) * float(arr.min())
    if not smallest > 0:  # a float underflows silently, to an unregularized alpha 0
        raise InvalidStateError(f"alpha = coupling * smallest delta must be > 0 (got {smallest})")
    if len(seeds) == 0:
        raise InvalidStateError("rate study needs at least one seed")
    if len(set(seeds)) != len(seeds):
        raise InvalidStateError("rate-study seeds must be distinct")
    return arr


def rate_study(
    prob_template: TikhonovProblem,
    truth: SensitivityFunction,
    truth_meas: StateTrajectory,
    deltas: Sequence[float],
    coupling: float = 1.0,
    seeds: Sequence[int] = (0, 1, 2),
    cfg: LMConfig = LMConfig(),
) -> RateStudyResult:
    """Invert noisy data over a delta range with alpha = coupling * delta.

    truth_meas is the clean trajectory on the measurement mesh; each
    (delta, seed) cell adds fresh noise, inverts, and records the final
    squared data misfit and the L2(I) distance of the recovered function
    from truth.  All cells share the forward model, so their inversions
    run in lockstep through ``levenberg_marquardt_many`` (one batched
    forward solve per round); each result equals a lone inversion of its
    cell.  A cell whose noise cannot be drawn, whose inversion fails, that
    does not converge or whose parameter error overflows a float is left
    out with a note (text), in cell order.
    Per delta the surviving cells are geometric-mean aggregated, and the
    two log-log slopes are least-squares fits.  Fewer than 4 surviving
    deltas raise InsufficientSweepError, whose ``notes`` are those notes.
    """
    arr = require_rate_inputs(deltas, coupling, seeds)
    a_star = prob_template.a_star
    require_same_basis(truth, a_star, "truth must live on the problem basis")
    B = mass_matrix(truth.n_basis, truth.c_min, truth.c_max)

    # every cell's data first, so that all inversions run in lockstep;
    # a cell holds its NoisyData or the NoiseLevelError that skipped it
    cells = []
    for delta in np.sort(arr):
        for seed in seeds:
            try:
                data = add_noise(truth_meas, float(delta), int(seed))
            except NoiseLevelError as exc:
                data = exc
            cells.append((float(delta), int(seed), data))
    probs = [
        dataclasses.replace(prob_template, data=data, alpha=coupling * delta)
        for delta, _, data in cells
        if not isinstance(data, NoiseLevelError)
    ]
    results = iter(levenberg_marquardt_many(probs, [a_star] * len(probs), cfg))

    records, notes = [], []
    for delta, seed, data in cells:
        if isinstance(data, NoiseLevelError):
            notes.append(f"delta={delta:.3e} seed={seed}: {data}")
            continue
        res = next(results)
        if isinstance(res, ForwardSolveError):
            notes.append(f"delta={delta:.3e} seed={seed}: inversion failed: {res}")
            continue
        with np.errstate(over="ignore", invalid="ignore"):  # an error past the float range is inf
            d = res.a_hat.coeffs - truth.coeffs
            param_error = float(np.sqrt(d @ (B @ d)))
        if not (res.converged and np.isfinite(param_error)):
            why = res.message if not res.converged else "its parameter error overflows"
            notes.append(f"delta={delta:.3e} seed={seed}: excluded ({why})")
            continue
        records.append(
            RateStudyRecord(
                delta=delta,
                alpha=coupling * delta,
                misfit2=res.residual_norm2,
                param_error=param_error,
                seed=seed,
            )
        )

    by_delta = {}
    for rec in records:
        by_delta.setdefault(rec.delta, []).append(rec)
    if len(by_delta) < 4:
        raise InsufficientSweepError(
            f"rate fit needs >= 4 surviving noise levels, got {len(by_delta)}",
            notes=tuple(notes),
        )
    ds = np.array(sorted(by_delta))
    gm = lambda vals: float(np.exp(np.mean(np.log(vals))))
    m2 = np.array([gm([r.misfit2 for r in by_delta[d]]) for d in ds])
    pe = np.array([gm([r.param_error for r in by_delta[d]]) for d in ds])
    misfit2_slope = float(np.polyfit(np.log10(ds), np.log10(m2), 1)[0])
    param_error_slope = float(np.polyfit(np.log10(ds), np.log10(pe), 1)[0])
    return RateStudyResult(
        records=tuple(records),
        misfit2_slope=misfit2_slope,
        param_error_slope=param_error_slope,
        notes=tuple(notes),
    )
