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
    """InvalidStateError unless ``padding``, a fraction of a c-range, is >= 0."""
    if padding < 0:
        raise InvalidStateError(f"padding must be >= 0 (got {padding})")


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
        if not self.c_max > self.c_min:
            raise ZeroWidthIntervalError(
                f"empty concentration interval [{self.c_min}, {self.c_max}]"
            )
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
        knots = np.linspace(c_min, c_max, n_basis)
        coeffs = np.asarray([float(f(k)) for k in knots])
        return cls(c_min, c_max, coeffs)


def mass_matrix(n_basis: int, c_min: float, c_max: float) -> np.ndarray:
    """Exact L2 Gram matrix B_ij = (phi_i, phi_j) of the hat basis (read-only).

    Tridiagonal on uniform knots, in closed form: interior diagonal
    2*dc/3, endpoint diagonal dc/3, off-diagonal dc/6.
    """
    require_basis_shape((n_basis,))
    if not c_max > c_min:
        raise ZeroWidthIntervalError(
            f"empty concentration interval [{c_min}, {c_max}]"
        )
    dc = (c_max - c_min) / (n_basis - 1)
    B = np.zeros((n_basis, n_basis))
    idx = np.arange(n_basis)
    B[idx, idx] = 2.0 * dc / 3.0
    B[0, 0] = B[-1, -1] = dc / 3.0
    B[idx[:-1], idx[:-1] + 1] = dc / 6.0
    B[idx[:-1] + 1, idx[:-1]] = dc / 6.0
    B.setflags(write=False)
    return B


def hat_rows(c: np.ndarray, knots: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Row i of c evaluated on the hat basis with coefficient row coeffs[i].

    Equal bit for bit to ``np.interp(c[i], knots, coeffs[i])`` for finite
    inputs, including the clamp outside [knots[0], knots[-1]] and the exact
    coefficient at a knot; one call serves a whole batch of sensitivities.
    Coefficients so large that a slope overflows give inf or nan values
    without a numpy warning; the forward solve rejects such a row.
    """
    n_rows, n_basis = coeffs.shape
    c = np.clip(c, knots[0], knots[-1])
    j = np.searchsorted(knots, c, side="right") - 1
    left = np.minimum(j, n_basis - 2)
    # flat indices into coeffs (rows of n_basis) and slopes (rows of n_basis - 1)
    row = np.arange(n_rows)[:, None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        slopes = (coeffs[:, 1:] - coeffs[:, :-1]) / (knots[1:] - knots[:-1])
        lin = (
            np.take(slopes, left + row * (n_basis - 1)) * (c - knots[left])
            + np.take(coeffs, left + row * n_basis)
        )
    return np.where(c == knots[j], np.take(coeffs, j + row * n_basis), lin)


def require_same_basis(a: SensitivityFunction, b: SensitivityFunction, what: str) -> None:
    """Raise IncompatibleBasisError unless a and b share knot count and interval."""
    if not (
        a.n_basis == b.n_basis
        and math.isclose(a.c_min, b.c_min, rel_tol=1e-12, abs_tol=1e-12)
        and math.isclose(a.c_max, b.c_max, rel_tol=1e-12, abs_tol=1e-12)
    ):
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
