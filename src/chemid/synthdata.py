"""Synthetic measurement generation.

Ground truth is solved on a fine grid and restricted onto the coarser
measurement grid; Gaussian noise is then added per field and rescaled so
the discrete space-time L2 norm of each perturbation equals the requested
level delta exactly.  The same dx*dt quadrature weighs both this norm and
the inversion objective, so the noise level and the misfit are measured
with one ruler.

Generating on one mesh and inverting on another is deliberate: running
the inversion forward solver on the data-generation mesh would let
discretization error cancel and flatter the recovery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError, NoiseLevelError
from .pde import (
    DEFAULT_ADVECTION,
    PhysicalParams,
    SimulationGrid,
    StateTrajectory,
    _read_frame_csv,
    _readonly,
    _write_frames,
    restrict,
    solve_forward,
    space_time_sq_norm,
)
from .sensitivity import SensitivityFunction, _read_metadata

#: Minimum fine/measurement resolution ratio in both x and t.
MIN_MESH_SEPARATION = 4

#: Redraw budget before giving up on positive z_c.
MAX_NOISE_ATTEMPTS = 32


@dataclass(frozen=True, eq=False)
class NoisyData:
    """Measurement pair (z_u, z_c) on a grid with realized noise level delta."""

    grid: SimulationGrid
    z_u: np.ndarray
    z_c: np.ndarray
    delta: float
    seed: int

    def __post_init__(self):
        shape = (self.grid.n_steps + 1, self.grid.n_nodes)
        z_u, z_c = _readonly(self.z_u), _readonly(self.z_c)
        if z_u.shape != shape or z_c.shape != shape:
            raise InvalidStateError(
                f"measurements must have shape {shape}, got {z_u.shape}, {z_c.shape}"
            )
        if not (np.all(np.isfinite(z_u)) and np.all(np.isfinite(z_c))):
            raise InvalidStateError("measurements contain non-finite values")
        if z_c.min() <= 0.0:
            raise InvalidStateError(
                f"z_c must be positive everywhere (min {z_c.min():.3e})"
            )
        if self.delta < 0:
            raise InvalidStateError(f"delta must be >= 0 (got {self.delta})")
        if self.seed < 0:
            raise InvalidStateError(f"seed must be >= 0 (got {self.seed})")
        object.__setattr__(self, "z_u", z_u)
        object.__setattr__(self, "z_c", z_c)


def _field_noise(shape, seed: int, tag: int, attempt: int) -> np.ndarray:
    # counter-based generator keyed on (seed, field, attempt): independent
    # substreams without any sequential draw bookkeeping
    bitgen = np.random.Philox(np.random.SeedSequence((seed, tag, attempt)))
    return np.random.Generator(bitgen).standard_normal(shape)


def add_noise(truth_meas: StateTrajectory, delta: float, seed: int) -> NoisyData:
    """Corrupt a measurement-grid trajectory with exact-level noise.

    Each field receives i.i.d. standard Gaussian perturbations per node and
    frame, rescaled so the discrete space-time L2 norm of the perturbation
    equals delta exactly.  If the perturbed concentration fails to stay
    positive, the c perturbation is redrawn from a fresh substream, at most
    MAX_NOISE_ATTEMPTS times.  The seed must be a nonnegative integer.
    """
    if delta < 0:
        raise InvalidStateError(f"delta must be >= 0 (got {delta})")
    if seed < 0:
        raise InvalidStateError(f"seed must be >= 0 (got {seed})")
    grid = truth_meas.grid
    U, C = truth_meas.u, truth_meas.c
    if delta == 0.0:
        return NoisyData(grid=grid, z_u=U, z_c=C, delta=0.0, seed=seed)

    def scaled(e):
        return (delta / np.sqrt(space_time_sq_norm(e, grid))) * e

    z_u = U + scaled(_field_noise(U.shape, seed, 0, 0))
    for attempt in range(MAX_NOISE_ATTEMPTS):
        z_c = C + scaled(_field_noise(C.shape, seed, 1, attempt))
        if z_c.min() > 0.0:
            return NoisyData(grid=grid, z_u=z_u, z_c=z_c, delta=delta, seed=seed)
    raise NoiseLevelError(
        f"could not keep z_c positive at delta={delta:.3g} "
        f"after {MAX_NOISE_ATTEMPTS} redraws (min c of truth: {C.min():.3g})"
    )


def require_mesh_separation(fine: SimulationGrid, meas: SimulationGrid) -> SimulationGrid:
    """fine, if it refines meas by at least MIN_MESH_SEPARATION in x and t."""
    if (
        fine.n_nodes - 1 < MIN_MESH_SEPARATION * (meas.n_nodes - 1)
        or fine.n_steps < MIN_MESH_SEPARATION * meas.n_steps
    ):
        raise InvalidStateError(
            "data-generation grid must be at least "
            f"{MIN_MESH_SEPARATION}x finer than the measurement grid "
            f"(got {fine.n_nodes}x{fine.n_steps} vs {meas.n_nodes}x{meas.n_steps})"
        )
    return fine


@dataclass(frozen=True, eq=False)
class SyntheticDataset:
    """Truth on the fine grid, its restriction, and the noisy measurements."""

    truth_fine: StateTrajectory
    truth_meas: StateTrajectory
    data: NoisyData


def make_dataset(
    a_true: SensitivityFunction,
    params: PhysicalParams,
    fine: SimulationGrid,
    meas: SimulationGrid,
    u0,
    c0,
    delta: float,
    seed: int,
    *,
    advection: str = DEFAULT_ADVECTION,
) -> SyntheticDataset:
    """Full pipeline: fine solve, restriction, calibrated noise.

    Enforces the mesh-separation guard of ``require_mesh_separation``.
    """
    require_mesh_separation(fine, meas)
    truth_fine = solve_forward(u0, c0, params, a_true, fine, advection=advection)
    truth_meas = restrict(truth_fine, meas)
    data = add_noise(truth_meas, delta, seed)
    return SyntheticDataset(truth_fine=truth_fine, truth_meas=truth_meas, data=data)


def myerscough_initial_data(grid: SimulationGrid) -> tuple[np.ndarray, np.ndarray]:
    """Limb-bud benchmark initial state: u = 1 + exp(-55 (x-1/2)^2), c = 1/2."""
    x = grid.xs()
    return 1.0 + np.exp(-55.0 * (x - 0.5) ** 2), np.full(grid.n_nodes, 0.5)


# ---------------------------------------------------------------------------
# serialization


def write_noisy_csv(data: NoisyData, path) -> None:
    """Trajectory CSV layout prefixed by a delta/seed metadata line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# delta={data.delta:.15g} seed={data.seed}\n")
        _write_frames(fh, data.grid, data.z_u, data.z_c)


def read_noisy_csv(path) -> NoisyData:
    grid, z_u, z_c, comment = _read_frame_csv(path, expect_comment=True)
    meta = _read_metadata(path, comment, ("delta", "seed"))
    try:
        delta, seed = float(meta["delta"]), int(meta["seed"])
    except ValueError as exc:
        raise InvalidStateError(f"{path}: malformed metadata: {exc}") from exc
    return NoisyData(grid=grid, z_u=z_u, z_c=z_c, delta=delta, seed=seed)
