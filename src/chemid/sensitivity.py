"""Piecewise-linear representation of the chemotactic sensitivity a(c).

a(c) is expanded over hat functions on L uniform knots spanning a
concentration interval I = [c_min, c_max]:

    a(c) = sum_k coeffs[k] * phi_k(c)

Outside I the value is clamped to the nearest endpoint coefficient. The
exact L2(I) Gram matrix of the hat basis feeds the Tikhonov penalty
(a - a*)^T B (a - a*), which equals the continuous ||a - a*||^2_{L2(I)}
whenever both functions live on the same knots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import (
    IncompatibleBasisError,
    InvalidStateError,
    ZeroWidthIntervalError,
)

if TYPE_CHECKING:
    from .pde import StateTrajectory

#: Default knot count; resolves 2/c on [0.1, 0.7] to about 1% interpolation error.
DEFAULT_N_BASIS = 16

#: Default symmetric padding fraction applied to an observed c-range.
DEFAULT_PADDING = 0.1


def require_basis_shape(shape: tuple) -> None:
    """InvalidStateError unless ``shape`` is that of a coefficient vector of >= 2 hats."""
    if len(shape) != 1 or shape[0] < 2:
        raise InvalidStateError(f"need at least 2 basis coefficients (got shape {shape})")


def require_padding(padding: float) -> None:
    """InvalidStateError unless ``padding``, a fraction of a c-range, is finite and >= 0."""
    if not math.isfinite(padding):
        raise InvalidStateError(f"padding must be finite (got {padding})")
    if padding < 0:
        raise InvalidStateError(f"padding must be >= 0 (got {padding})")


def require_interval(c_min: float, c_max: float) -> None:
    """The interval rule: finite ends and a finite width c_max - c_min > 0.

    Non-finite ends or width raise InvalidStateError, an empty interval
    ZeroWidthIntervalError.
    """
    if not math.isfinite(float(c_max) - float(c_min)):  # also false for a non-finite end
        raise InvalidStateError(
            f"concentration interval [{c_min}, {c_max}] needs finite ends and width"
        )
    if not c_max > c_min:
        raise ZeroWidthIntervalError(f"empty concentration interval [{c_min}, {c_max}]")


@dataclass(frozen=True, eq=False)
class SensitivityFunction:
    """Hat-basis expansion of a(c) on uniform knots over [c_min, c_max]."""

    c_min: float
    c_max: float
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=float, copy=True)
        coeffs.setflags(write=False)
        require_basis_shape(coeffs.shape)
        if not np.all(np.isfinite(coeffs)):
            raise InvalidStateError("coefficients contain non-finite values")
        require_interval(self.c_min, self.c_max)
        object.__setattr__(self, "coeffs", coeffs)
        knots = np.linspace(self.c_min, self.c_max, coeffs.shape[0])
        knots.setflags(write=False)
        object.__setattr__(self, "_knots", knots)

    @property
    def n_basis(self) -> int:
        return self.coeffs.shape[0]

    def knots(self) -> np.ndarray:
        """The uniform knots, built once per instance (read-only)."""
        return self._knots

    def __call__(self, c):
        """Evaluate a(c); accepts scalars or arrays, clamps outside the interval."""
        c = np.asarray(c, dtype=float)
        if not np.all(np.isfinite(c)):
            raise InvalidStateError("sensitivity evaluated at non-finite c")
        out = np.interp(c, self._knots, self.coeffs)
        return float(out) if out.ndim == 0 else out

    def with_coeffs(self, coeffs) -> "SensitivityFunction":
        """Same interval, new coefficient vector."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.n_basis,):
            raise IncompatibleBasisError(
                f"expected {self.n_basis} coefficients, got shape {coeffs.shape}"
            )
        return SensitivityFunction(self.c_min, self.c_max, coeffs)

    @classmethod
    def constant(
        cls, value: float, c_min: float, c_max: float, n_basis: int = DEFAULT_N_BASIS
    ) -> "SensitivityFunction":
        return cls(c_min, c_max, np.full(n_basis, float(value)))

    @classmethod
    def from_function(
        cls,
        f: Callable,
        c_min: float,
        c_max: float,
        n_basis: int = DEFAULT_N_BASIS,
    ) -> "SensitivityFunction":
        """Sample f at the knots; exact for piecewise-linear f on the same knots."""
        a = cls.constant(0.0, c_min, c_max, n_basis)
        return a.with_coeffs([float(f(k)) for k in a.knots()])


def mass_matrix(n_basis: int, c_min: float, c_max: float) -> np.ndarray:
    """Exact L2 Gram matrix B_ij = (phi_i, phi_j) of the hat basis (read-only).

    Tridiagonal on uniform knots, in closed form: interior diagonal
    2*dc/3, endpoint diagonal dc/3, off-diagonal dc/6.
    """
    require_basis_shape((n_basis,))
    require_interval(c_min, c_max)
    dc = (c_max - c_min) / (n_basis - 1)
    B = np.zeros((n_basis, n_basis))
    idx = np.arange(n_basis)
    B[idx, idx] = 2.0 * dc / 3.0
    B[0, 0] = B[-1, -1] = dc / 3.0
    B[idx[:-1], idx[:-1] + 1] = dc / 6.0
    B[idx[:-1] + 1, idx[:-1]] = dc / 6.0
    B.setflags(write=False)
    return B


def hat_stencil(c: np.ndarray, knots: np.ndarray, coeffs: np.ndarray) -> tuple:
    """(segment, fraction, slope) of row i of c on the hats with coefficients coeffs[i].

    c, clamped into [knots[0], knots[-1]], lies at ``fraction`` of knot
    segment ``segment``, where hats segment and segment + 1 are 1 -
    fraction and fraction.  ``slope`` is the segment's difference
    quotient, the derivative of a(c) in c, and 0 where c was clamped.
    One row or many, the arithmetic is the same.  A slope that overflows
    gives inf or nan without a numpy warning; the forward solve rejects
    such a row.
    """
    n_rows, n_basis = coeffs.shape
    clamped = np.clip(c, knots[0], knots[-1])
    seg = np.minimum(np.searchsorted(knots, clamped, side="right") - 1, n_basis - 2)
    widths = knots[1:] - knots[:-1]
    rows = np.arange(n_rows)[:, None] * (n_basis - 1)  # flat offsets of rows of slopes
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        slope = np.take((coeffs[:, 1:] - coeffs[:, :-1]) / widths, seg + rows)
    slope[clamped != c] = 0.0
    return seg, (clamped - knots[seg]) / widths[seg], slope


def same_basis(a: SensitivityFunction, b: SensitivityFunction) -> bool:
    """Whether a and b have the same knot count and interval, exactly (so equal knots)."""
    return (a.n_basis, a.c_min, a.c_max) == (b.n_basis, b.c_min, b.c_max)


def require_same_basis(a: SensitivityFunction, b: SensitivityFunction, what: str) -> None:
    """Raise IncompatibleBasisError unless ``same_basis(a, b)``."""
    if not same_basis(a, b):
        raise IncompatibleBasisError(
            f"{what}: [{a.c_min}, {a.c_max}] x {a.n_basis} vs "
            f"[{b.c_min}, {b.c_max}] x {b.n_basis}"
        )


def concentration_range(
    traj: "StateTrajectory", padding: float = DEFAULT_PADDING
) -> tuple[float, float]:
    """Observed [min c, max c] expanded symmetrically by padding * width."""
    require_padding(padding)
    lo, hi = float(traj.c.min()), float(traj.c.max())
    if not hi > lo:
        raise ZeroWidthIntervalError(
            f"concentration range is degenerate at c = {lo}"
        )
    pad = padding * (hi - lo)
    return lo - pad, hi + pad


# ---------------------------------------------------------------------------
# serialization


def write_sensitivity_csv(a: SensitivityFunction, path) -> None:
    """CSV of (knot, coefficient) pairs with an interval metadata header."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"# c_min={a.c_min:.15g} c_max={a.c_max:.15g} "
            f"n_basis={a.n_basis} extension=clamp\n"
        )
        fh.write("c_knot,a_value\n")
        for ck, ak in zip(a.knots(), a.coeffs):
            fh.write(f"{ck:.15g},{ak:.15g}\n")


def _read_metadata(path, line: str, keys) -> dict:
    """The key=value tokens of a '# ...' metadata line, as a dict.

    Malformed tokens and a missing one of ``keys`` raise InvalidStateError.
    """
    meta = {}
    for tok in line.lstrip("#").split():
        if "=" not in tok:
            raise InvalidStateError(f"{path}: malformed metadata token {tok!r}")
        key, val = tok.split("=", 1)
        meta[key] = val
    for key in keys:
        if key not in meta:
            raise InvalidStateError(f"{path}: metadata missing {key!r}")
    return meta


def read_sensitivity_csv(path) -> SensitivityFunction:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except UnicodeDecodeError as exc:
        raise InvalidStateError(f"{path}: not UTF-8 text: {exc}") from exc
    if not lines or not lines[0].startswith("#"):
        raise InvalidStateError(f"{path}: missing metadata header")
    meta = _read_metadata(path, lines[0], ("c_min", "c_max", "n_basis", "extension"))
    if meta["extension"] != "clamp":
        raise InvalidStateError(
            f"{path}: unsupported extension rule {meta['extension']!r}"
        )
    if len(lines) < 2 or lines[1] != "c_knot,a_value":
        raise InvalidStateError(f"{path}: expected header 'c_knot,a_value'")
    try:
        n = int(meta["n_basis"])
        c_min, c_max = float(meta["c_min"]), float(meta["c_max"])
        rows = np.array(
            [[float(v) for v in ln.split(",")] for ln in lines[2:]], dtype=float
        )
    except ValueError as exc:  # a non-numeric value, or rows of unequal length
        raise InvalidStateError(f"{path}: malformed values: {exc}") from exc
    if rows.shape != (n, 2):
        raise InvalidStateError(f"{path}: expected {n} knot rows, got {rows.shape}")
    a = SensitivityFunction(c_min, c_max, rows[:, 1])
    if not np.allclose(rows[:, 0], a.knots(), rtol=1e-9, atol=1e-12):
        raise InvalidStateError(f"{path}: knot column inconsistent with metadata")
    return a
