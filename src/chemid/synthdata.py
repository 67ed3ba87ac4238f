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

The measurements, ``NoisyData``, are a ``StateTrajectory`` (one
(frame, field, node) array ``X``) that also records delta and the seed,
read back by the frame reader of ``pde`` from a ``# delta=... seed=...`` line.
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
    _built,
    _read_frame_csv,
    _write_frames,
    restrict,
    solve_forward,
    space_time_sq_norm,
)
from .sensitivity import SensitivityFunction

#: Minimum fine/measurement resolution ratio in both x and t.
MIN_MESH_SEPARATION = 4

#: Redraw budget before giving up on a positive measured c.
MAX_NOISE_ATTEMPTS = 32


def require_noise(delta: float, seed: int) -> None:
    """InvalidStateError unless the noise level delta is finite and >= 0 and the seed >= 0."""
    if not np.isfinite(delta):
        raise InvalidStateError(f"delta must be finite (got {delta})")
    if delta < 0:
        raise InvalidStateError(f"delta must be >= 0 (got {delta})")
    if seed < 0:
        raise InvalidStateError(f"seed must be >= 0 (got {seed})")


@dataclass(frozen=True, eq=False)
class NoisyData(StateTrajectory):
    """Measured (u, c) frames on a grid, with realized noise level delta and seed."""

    delta: float
    seed: int

    def __post_init__(self):
        super().__post_init__()
        if not np.all(np.isfinite(self.X)):
            raise InvalidStateError("measurements contain non-finite values")
        if self.c.min() <= 0.0:
            raise InvalidStateError(
                f"measured c must be positive everywhere (min {self.c.min():.3e})"
            )
        require_noise(self.delta, self.seed)

    z_u = property(lambda self: self.u)  # read by perfbench until ROADMAP item 2
    z_c = property(lambda self: self.c)  # read by perfbench until ROADMAP item 2


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
    require_noise(delta, seed)
    grid, U, C = truth_meas.grid, truth_meas.u, truth_meas.c
    if delta == 0.0:
        return NoisyData(grid, truth_meas.X, 0.0, seed)

    def scaled(e):
        return (delta / np.sqrt(space_time_sq_norm(e, grid))) * e

    Z = np.empty_like(truth_meas.X)
    Z[:, 0] = U + scaled(_field_noise(U.shape, seed, 0, 0))
    for attempt in range(MAX_NOISE_ATTEMPTS):
        Z[:, 1] = C + scaled(_field_noise(C.shape, seed, 1, attempt))
        if Z[:, 1].min() > 0.0:
            Z.setflags(write=False)  # kept by the data, uncopied
            return NoisyData(grid, Z, delta, seed)
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
    with np.errstate(over="ignore"):  # a node far from 1/2 gets u = 1 quietly
        return 1.0 + np.exp(-55.0 * (x - 0.5) ** 2), np.full(grid.n_nodes, 0.5)


# ---------------------------------------------------------------------------
# serialization


def write_noisy_csv(data: NoisyData, path) -> None:
    """Trajectory CSV layout prefixed by a delta/seed metadata line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# delta={data.delta:.15g} seed={data.seed}\n")
        _write_frames(fh, data)


def read_noisy_csv(path) -> NoisyData:
    traj, meta = _read_frame_csv(path, {"delta": float, "seed": int})
    return _built(path, NoisyData, traj.grid, traj.X, meta["delta"], meta["seed"])
