"""Flat key = value run configuration for the command-line front end.

A config file is plain text: one `key = value` per line, `#` comments,
blank lines ignored.  Every command owns an allowed-key set; unknown or
duplicate keys are rejected before any computation.  The `myerscough`
preset expands to the limb-bud benchmark (``PhysicalParams.myerscough()``,
the ``myerscough_initial_data`` fields, T=0.25, true a = 2) and explicit
config keys override preset values.

This module is the one place where a key's text becomes a value: the
table ``_PARSERS`` holds a parser for every key, and ``resolve`` requires
and parses every key a command allows and then builds the solver inputs:
physical parameters, measurement and data-generation grids (held to the
mesh-separation rule of ``synthdata``), a forward model on each grid and
LM settings, and holds the basis, time_refine, delta, alpha, alphas and
rate-study values to the library's rules.  So a malformed or inconsistent
value, including a ``table:`` file of ``truth`` or ``prior``, exits before
any solve runs or any data file is read.  One budget rule,
``require_solve_bytes``, refuses an estimate over MAX_SOLVE_BYTES before
anything is allocated.  Each module counts what it allocates:
``pde.solve_bytes`` a forward solve, ``inversion.round_bytes`` a lockstep
round.  ``resolve`` holds each grid's solve and a rate study's round to it;
invert and lcurve hold their data file's read and then a round on its
grid to it (``cli._load_data``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, InvalidStateError
from .inversion import LMConfig, require_alpha, require_time_refine, round_bytes
from .pde import ADVECTIONS, ForwardModel, PhysicalParams, SimulationGrid, solve_bytes
from .regselect import MIN_CORNER_POINTS, _positive_distinct, require_rate_inputs
from .sensitivity import read_sensitivity_csv, require_basis_shape, require_padding
from .synthdata import myerscough_initial_data, require_mesh_separation, require_noise

PRESETS = {
    "myerscough": {
        **{key: repr(val) for key, val in vars(PhysicalParams.myerscough()).items()},
        "u0": "myerscough",
        "c0": "myerscough",
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
_LM = frozenset({"lambda0", "max_iters", "tol_cost", "tol_grad", "time_refine"})

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
    """The parsed value of every key a command allows, by key, and the
    solver inputs built from them: ``params``, ``grid``, ``fine``, ``lm``.

    Unknown keys are rejected, presets and defaults fill in the rest, and
    then every allowed key is required and parsed by its ``_PARSERS``
    entry, in key order, so a bad value is reported before any work.
    """
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
    missing = sorted(allowed - set(cfg))
    if missing:
        raise ConfigError(f"missing required config key {missing[0]!r}")
    values = {}
    for key in sorted(allowed):
        parse, what = _PARSERS[key]
        try:
            values[key] = parse(cfg[key])
        except ValueError as exc:
            raise ConfigError(
                f"config key {key!r}: expected {what}, got {cfg[key]!r}"
            ) from exc
        except (ConfigError, InvalidStateError) as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
    try:
        values.update(_solver_inputs(values, allowed))
    except InvalidStateError as exc:
        raise ConfigError(str(exc)) from exc
    return values


def _finite(s: str) -> float:
    x = float(s)
    if not math.isfinite(x):
        raise ValueError(s)
    return x


#: Largest value of a key that sizes an array (node, step and basis counts).
MAX_SIZE = 10**9


def _nonnegative(s: str) -> int:
    n = int(s)
    if n < 0:
        raise ValueError(s)
    return n


def _size(s: str) -> int:
    n = _nonnegative(s)
    if n > MAX_SIZE:
        raise ConfigError(f"{n} exceeds the limit {MAX_SIZE}")
    return n


#: Largest estimated size in bytes of a command's largest solve, round or
#: read; a larger one is a config error, raised before anything is allocated.
MAX_SOLVE_BYTES = 2**31


def require_solve_bytes(nbytes: int, what: str = "the largest solve") -> None:
    """ConfigError if ``what``, of an estimated ``nbytes``, is over MAX_SOLVE_BYTES."""
    if nbytes > MAX_SOLVE_BYTES:
        raise ConfigError(f"{what} needs an estimated {nbytes} bytes, "
                          f"over the limit {MAX_SOLVE_BYTES}")


def _bool(s: str) -> bool:
    if s.lower() not in ("true", "false"):
        raise ValueError(s)
    return s.lower() == "true"


def _list(conv):
    def parse(s: str) -> list:
        vals = [conv(tok) for tok in s.split(",") if tok.strip()]
        if not vals:
            raise ValueError(s)
        return vals

    return parse


#: Bytes an alpha of a ``logspace`` sweep takes to build (array, list, scratch).
_ALPHA_BYTES = 64


def _alphas(s: str) -> list:
    """An explicit comma list or logspace:<lo_exp>:<hi_exp>:<count> of
    distinct positive alphas, each held to the alpha rule, at least the
    MIN_CORNER_POINTS values the L-curve corner needs.  A logspace count is
    held to ``require_solve_bytes`` before the sweep is built."""
    if s.startswith("logspace:"):
        lo, hi, count = s.split(":")[1:]  # any other number of parts: ValueError
        lo, hi, count = _finite(lo), _finite(hi), _size(count)
        if count < 1:
            raise ValueError(s)
        require_solve_bytes(_ALPHA_BYTES * count, f"a sweep of {count} alphas")
        with np.errstate(over="ignore"):  # an overflowing alpha is rejected below
            alphas = [float(a) for a in np.logspace(lo, hi, count)]
    else:
        alphas = _list(_finite)(s)
    if len(alphas) < MIN_CORNER_POINTS:
        raise ConfigError(
            f"the L-curve corner needs at least {MIN_CORNER_POINTS} alphas (got {len(alphas)})"
        )
    _positive_distinct(alphas, "sweep alphas", 1)
    for alpha in alphas:
        require_alpha(alpha)
    return alphas


def _advection(s: str) -> str:
    if s not in ADVECTIONS:
        raise ValueError(s)
    return s


def _field(which: int):
    """A `myerscough` or `uniform:<v>` spec as a function of the grid.

    ``which`` picks u (0) or c (1) of the Myerscough initial data.
    """

    def parse(s: str):
        if s == "myerscough":
            return lambda grid: myerscough_initial_data(grid)[which]
        kind, _, arg = s.partition(":")
        if kind != "uniform":
            raise ValueError(s)
        value = _finite(arg)
        return lambda grid: np.full(grid.n_nodes, value)

    return parse


def _sensitivity(s: str):
    """a(c) of a constant:<v>, inverse:<k> or table:<csv> spec.

    A table is read here, so a missing or malformed file is a config error.
    """
    kind, _, arg = s.partition(":")
    if kind == "constant":
        v = _finite(arg)
        return lambda c: np.full(np.shape(c), v)
    if kind == "inverse":
        k = np.array(_finite(arg))  # a 0-d array: numpy converts no Python float per call
        if not k > 0:
            raise ValueError(s)

        def inverse(c):
            c = np.asarray(c, dtype=float)
            if (c <= 0).any():
                raise InvalidStateError("inverse sensitivity evaluated at c <= 0")
            return k / c

        return inverse
    if kind == "table" and arg:
        try:
            return read_sensitivity_csv(arg)
        except OSError as exc:
            raise ConfigError(f"cannot read table {arg}: {exc}") from exc
    raise ValueError(s)


_NUMBER = (_finite, "a number")
_SIZE = (_size, "a nonnegative integer")
_SENSITIVITY = (_sensitivity, "constant:<v>, inverse:<k> with k > 0 or table:<csv>")

#: key -> (parser, what its text must be); a parser raises ValueError on text of
#: the wrong form, else ConfigError or a library rule's error with its message.
_PARSERS = {
    **dict.fromkeys(
        ("M", "D", "b", "h", "mu", "x_left", "x_right", "t_final", "padding",
         "lambda0", "tol_cost", "tol_grad", "delta", "alpha", "coupling"),
        _NUMBER,
    ),
    **dict.fromkeys(
        ("n_nodes", "n_steps", "fine_n_nodes", "fine_n_steps", "n_basis", "time_refine"),
        _SIZE,
    ),
    "max_iters": (int, "an integer"),
    "seed": (_nonnegative, "a nonnegative integer"),
    "seeds": (_list(_nonnegative), "a comma-separated list of nonnegative integers"),
    "deltas": (_list(_finite), "a comma-separated number list"),
    "alphas": (_alphas, "a comma-separated number list or logspace:<lo>:<hi>:<count>"),
    "warm_start": (_bool, "true or false"),
    "advection": (_advection, "blended or upwind"),
    "u0": (_field(0), "uniform:<value> or myerscough"),
    "c0": (_field(1), "uniform:<value> or myerscough"),
    "truth": _SENSITIVITY,
    "prior": _SENSITIVITY,
    "data_csv": (str, "a path"),
}


def _solver_inputs(values: dict, allowed) -> dict:
    """PhysicalParams, grids and LMConfig, each if the command allows its keys.

    A ``ForwardModel`` built on each grid checks the initial fields, and the
    other values are held to the library's rules: a bad one exits early.
    """

    def pick(keys):
        return {key: values[key] for key in keys}

    built = {}
    if _PHYS <= allowed:
        built["params"] = PhysicalParams(**pick(_PHYS))
    if _GRID <= allowed:
        grid = built["grid"] = SimulationGrid(**pick(_GRID))
        if _FINE <= allowed:
            fine = grid.with_resolution(values["fine_n_nodes"], values["fine_n_steps"])
            built["fine"] = require_mesh_separation(fine, grid)
        sizes = [solve_bytes(g.n_nodes, g.n_steps) for g in (grid, built.get("fine", grid))]
        if "deltas" in allowed:
            cells = len(values["deltas"]) * len(values["seeds"])
            sizes.append(round_bytes(grid, values["time_refine"], cells, values["n_basis"]))
        require_solve_bytes(max(sizes))
        for g in (grid, built.get("fine", grid)):
            ForwardModel(built["params"], g, values["u0"](g), values["c0"](g), values["advection"])
    if _LM <= allowed:
        built["lm"] = LMConfig(**pick(_LM - {"time_refine"}))
        require_time_refine(values["time_refine"])
    if _BASIS <= allowed:
        require_basis_shape((values["n_basis"],))
        require_padding(values["padding"])
    if "delta" in allowed:
        require_noise(values["delta"], values["seed"])
    if "alpha" in allowed:
        require_alpha(values["alpha"])
    if "deltas" in allowed:
        require_rate_inputs(values["deltas"], values["coupling"], values["seeds"])
    return built
