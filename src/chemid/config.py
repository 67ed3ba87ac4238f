"""Flat key = value run configuration for the command-line front end.

A config file is plain text: one `key = value` per line, `#` comments,
blank lines ignored.  Every command owns an allowed-key set; unknown or
duplicate keys are rejected before any computation.  The `myerscough`
preset expands to the limb-bud benchmark (M=0.25, D=1, h=1, b=mu=50,
u0 = 1 + exp(-55 (x-1/2)^2), c0 = 1/2, T=0.25, true a = 2) and explicit
config keys override preset values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidStateError, ZeroWidthIntervalError
from .pde import PhysicalParams, SimulationGrid
from .sensitivity import SensitivityFunction, read_sensitivity_csv
from .synthdata import myerscough_initial_data

PRESETS = {
    "myerscough": {
        "M": "0.25",
        "D": "1.0",
        "b": "50.0",
        "h": "1.0",
        "mu": "50.0",
        "u0": "myerscough",
        "c0": "uniform:0.5",
        "x_left": "0.0",
        "x_right": "1.0",
        "t_final": "0.25",
        "truth": "constant:2.0",
    }
}

#: Shared defaults; command tables override or extend these.
DEFAULTS = {
    "x_left": "0.0",
    "x_right": "1.0",
    "n_nodes": "51",
    "n_steps": "250",
    "fine_n_nodes": "201",
    "fine_n_steps": "2000",
    "advection": "blended",
    "n_basis": "16",
    "padding": "0.1",
    "prior": "constant:1.0",
    "time_refine": "1",
    "lambda0": "1e-3",
    "max_iters": "100",
    "tol_cost": "1e-8",
    "tol_grad": "1e-8",
    "fd_step": "1e-6",
    "seed": "0",
    "coupling": "1.0",
    "seeds": "0,1,2",
    "warm_start": "true",
}

_PHYS = frozenset({"M", "D", "b", "h", "mu"})
_GRID = frozenset({"x_left", "x_right", "n_nodes", "t_final", "n_steps"})
_FIELDS = frozenset({"u0", "c0"})
_SOLVER = frozenset({"advection"})
_FINE = frozenset({"fine_n_nodes", "fine_n_steps"})
_BASIS = frozenset({"n_basis", "padding", "prior"})
_LM = frozenset(
    {"lambda0", "max_iters", "tol_cost", "tol_grad", "fd_step", "time_refine"}
)

ALLOWED_KEYS = {
    "forward": _PHYS | _GRID | _FIELDS | _SOLVER | {"truth"},
    "make-data": _PHYS | _GRID | _FIELDS | _SOLVER | _FINE
    | {"truth", "delta", "seed"},
    "invert": _PHYS | _FIELDS | _SOLVER | _BASIS | _LM | {"alpha", "data_csv"},
    "lcurve": _PHYS | _FIELDS | _SOLVER | _BASIS | _LM
    | {"alphas", "data_csv", "warm_start"},
    "rates": _PHYS | _GRID | _FIELDS | _SOLVER | _FINE | _BASIS | _LM
    | {"truth", "deltas", "coupling", "seeds"},
}


def load_config(path) -> dict:
    """Parse a flat key = value file; duplicates and malformed lines fail."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        if not key or not val:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = val
    return values


def resolve(command: str, raw: dict, preset: str | None = None) -> dict:
    """Preset/default expansion plus unknown-key rejection for a command."""
    if command not in ALLOWED_KEYS:
        raise ConfigError(f"unknown command {command!r}")
    cfg = dict(raw)
    preset = preset or cfg.pop("preset", None)
    allowed = ALLOWED_KEYS[command]
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown config keys for {command}: {', '.join(unknown)}"
        )
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}")
        for key, val in PRESETS[preset].items():
            if key in allowed:
                cfg.setdefault(key, val)
    for key, val in DEFAULTS.items():
        if key in allowed:
            cfg.setdefault(key, val)
    return cfg


def _parse(cfg: dict, key: str, conv, kind: str):
    if key not in cfg:
        raise ConfigError(f"missing required config key {key!r}")
    try:
        return conv(cfg[key])
    except (ValueError, TypeError) as exc:
        raise ConfigError(
            f"config key {key!r}: expected {kind}, got {cfg[key]!r}"
        ) from exc


def _finite(s: str) -> float:
    x = float(s)
    if not math.isfinite(x):
        raise ValueError(s)
    return x


def get_float(cfg: dict, key: str) -> float:
    return _parse(cfg, key, _finite, "a number")


def get_int(cfg: dict, key: str) -> int:
    return _parse(cfg, key, int, "an integer")


#: Largest value of a key that sizes an array (node, step and basis counts).
MAX_SIZE = 10**9


def get_size(cfg: dict, key: str) -> int:
    """An integer that sizes an array; above MAX_SIZE is a ConfigError."""
    value = get_int(cfg, key)
    if value > MAX_SIZE:
        raise ConfigError(f"config key {key!r}: {value} exceeds the limit {MAX_SIZE}")
    return value


def get_bool(cfg: dict, key: str) -> bool:
    def conv(s):
        if s.lower() not in ("true", "false"):
            raise ValueError(s)
        return s.lower() == "true"

    return _parse(cfg, key, conv, "true or false")


def get_float_list(cfg: dict, key: str) -> list:
    def conv(s):
        vals = [_finite(tok) for tok in s.split(",") if tok.strip()]
        if not vals:
            raise ValueError(s)
        return vals

    return _parse(cfg, key, conv, "a comma-separated number list")


def _seed(s: str) -> int:
    if int(s) < 0:
        raise ValueError(s)
    return int(s)


def get_seed(cfg: dict, key: str = "seed") -> int:
    return _parse(cfg, key, _seed, "a nonnegative integer")


def get_seeds(cfg: dict, key: str = "seeds") -> list:
    def conv(s):
        vals = [_seed(tok) for tok in s.split(",") if tok.strip()]
        if not vals:
            raise ValueError(s)
        return vals

    return _parse(cfg, key, conv, "a comma-separated list of nonnegative integers")


def get_alphas(cfg: dict, key: str = "alphas") -> list:
    """Either an explicit comma list or logspace:<lo_exp>:<hi_exp>:<count>."""
    raw = cfg.get(key)
    if raw is None:
        raise ConfigError(f"missing required config key {key!r}")
    if raw.startswith("logspace:"):
        parts = raw.split(":")[1:]
        if len(parts) != 3:
            raise ConfigError(
                f"config key {key!r}: expected logspace:<lo>:<hi>:<count>"
            )
        try:
            lo, hi, count = _finite(parts[0]), _finite(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: malformed logspace spec") from exc
        if count < 1:
            raise ConfigError(f"config key {key!r}: count must be >= 1")
        return [float(a) for a in np.logspace(lo, hi, count)]
    return get_float_list(cfg, key)


def build_params(cfg: dict) -> PhysicalParams:
    try:
        return PhysicalParams(
            M=get_float(cfg, "M"),
            D=get_float(cfg, "D"),
            b=get_float(cfg, "b"),
            h=get_float(cfg, "h"),
            mu=get_float(cfg, "mu"),
        )
    except InvalidStateError as exc:
        raise ConfigError(str(exc)) from exc


def build_grid(cfg: dict) -> SimulationGrid:
    n_nodes = get_size(cfg, "n_nodes")
    n_steps = get_size(cfg, "n_steps")
    try:
        return SimulationGrid(
            x_left=get_float(cfg, "x_left"),
            x_right=get_float(cfg, "x_right"),
            n_nodes=n_nodes,
            t_final=get_float(cfg, "t_final"),
            n_steps=n_steps,
        )
    except InvalidStateError as exc:
        raise ConfigError(str(exc)) from exc


def build_fine_grid(cfg: dict, meas: SimulationGrid) -> SimulationGrid:
    """The data-generation grid: meas's domain at fine_n_nodes x fine_n_steps."""
    n_nodes = get_size(cfg, "fine_n_nodes")
    n_steps = get_size(cfg, "fine_n_steps")
    try:
        return meas.with_resolution(n_nodes, n_steps)
    except InvalidStateError as exc:
        raise ConfigError(str(exc)) from exc


def build_initial_field(cfg: dict, key: str, grid: SimulationGrid) -> np.ndarray:
    """Evaluate a `uniform:<v>` or `myerscough` field spec on a grid."""
    spec = cfg.get(key)
    if spec is None:
        raise ConfigError(f"missing required config key {key!r}")
    if spec == "myerscough":
        u0, c0 = myerscough_initial_data(grid)
        return u0 if key == "u0" else c0
    if spec.startswith("uniform:"):
        try:
            value = _finite(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: malformed uniform value") from exc
        return np.full(grid.n_nodes, value)
    raise ConfigError(
        f"config key {key!r}: expected uniform:<value> or myerscough, got {spec!r}"
    )


@dataclass(frozen=True)
class TruthSpec:
    """Named analytic sensitivity: constant(v), inverse(k), or a knot table."""

    kind: str
    value: float | None = None
    path: str | None = None

    @classmethod
    def parse(cls, spec: str) -> "TruthSpec":
        kind, _, arg = spec.partition(":")
        if kind == "constant":
            try:
                return cls(kind="constant", value=_finite(arg))
            except ValueError as exc:
                raise ConfigError(f"malformed constant spec {spec!r}") from exc
        if kind == "inverse":
            try:
                k = _finite(arg)
            except ValueError as exc:
                raise ConfigError(f"malformed inverse spec {spec!r}") from exc
            if not k > 0:
                raise ConfigError(f"inverse spec needs k > 0, got {k}")
            return cls(kind="inverse", value=k)
        if kind == "table":
            if not arg:
                raise ConfigError("table spec needs a CSV path")
            return cls(kind="table", path=arg)
        raise ConfigError(
            f"truth spec must be constant:<v>, inverse:<k> or table:<csv>, "
            f"got {spec!r}"
        )

    def as_callable(self):
        if self.kind == "constant":
            v = self.value
            return lambda c: np.full_like(np.asarray(c, dtype=float), v)
        if self.kind == "inverse":
            k = self.value

            def inv(c):
                c = np.asarray(c, dtype=float)
                if np.any(c <= 0):
                    raise InvalidStateError(
                        "inverse sensitivity evaluated at c <= 0"
                    )
                return k / c

            return inv
        try:
            return read_sensitivity_csv(self.path)
        except OSError as exc:
            raise ConfigError(f"cannot read table {self.path}: {exc}") from exc
        except (InvalidStateError, ZeroWidthIntervalError) as exc:
            raise ConfigError(str(exc)) from exc

    def on_basis(self, c_min: float, c_max: float, n_basis: int) -> SensitivityFunction:
        """Interpolate the described function onto a hat basis over [c_min, c_max]."""
        if self.kind == "constant":
            return SensitivityFunction.constant(self.value, c_min, c_max, n_basis)
        if self.kind == "inverse" and not c_min > 0:
            raise ConfigError(
                f"inverse sensitivity needs a positive interval, got "
                f"[{c_min:.6g}, {c_max:.6g}]"
            )
        return SensitivityFunction.from_function(
            self.as_callable(), c_min, c_max, n_basis
        )


def get_truth(cfg: dict, key: str = "truth") -> TruthSpec:
    spec = cfg.get(key)
    if spec is None:
        raise ConfigError(f"missing required config key {key!r}")
    return TruthSpec.parse(spec)
