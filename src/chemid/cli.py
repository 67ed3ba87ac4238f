"""Command-line front end: reproducible runs from flat config files.

Subcommands: forward, make-data, invert, lcurve, rates.  Every command
is a pure function of (config, seed): reruns produce byte-identical CSV
payloads.  Exit codes: 0 success, 2 config error, 3 solver or data
error, 4 optimizer stagnation.  Failures print a single machine-parsable
`error: <kind>: <message>` line on stderr, and a run prints nothing else
there: the notes on what a sweep or study left out are never printed.
Commands take the solver inputs `config.resolve` built (`params`,
`grid`, `fine`, `lm`); make-data and rates generate data through one
helper.  A command writes nothing: it returns an ordered {name: writer}
dict and a stagnation message or None.  Only then does `main` create
--out and write the artifacts, under temporary names that are renamed
into place once every write has succeeded, so a failed command or write
leaves --out as it was.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .errors import ChemidError, ConfigError, InvalidStateError
from .inversion import TikhonovProblem, levenberg_marquardt, write_inversion_report
from .pde import mass, solve_forward, write_params, write_trajectory_csv
from .regselect import (
    lcurve_corner,
    lcurve_sweep,
    rate_study,
    write_lcurve_csv,
    write_lcurve_plot_script,
    write_rates_csv,
    write_rates_plot_script,
)
from .sensitivity import SensitivityFunction, concentration_range, write_sensitivity_csv
from .synthdata import make_dataset, read_noisy_csv, write_noisy_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_STAGNATION = 4


def _summary(items: dict):
    """Writer of a `key = value` summary file."""
    text = "".join(f"{key} = {val}\n" for key, val in items.items())
    return lambda path: path.write_text(text, encoding="utf-8")


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _problem(cfg: dict, data, alpha: float) -> TikhonovProblem:
    """The invert/lcurve/rates problem on data's mesh: params, fields, basis, prior."""
    try:
        lo, hi = concentration_range(data, padding=cfg["padding"])
        return TikhonovProblem(
            data=data,
            alpha=alpha,
            a_star=SensitivityFunction.from_function(cfg["prior"], lo, hi, cfg["n_basis"]),
            params=cfg["params"],
            u0=cfg["u0"](data.grid),
            c0=cfg["c0"](data.grid),
            advection=cfg["advection"],
            time_refine=cfg["time_refine"],
        )
    except InvalidStateError as exc:
        raise ConfigError(str(exc)) from exc


def _dataset(cfg: dict, delta: float, seed: int):
    """The config's truth solved on its fine grid, restricted onto its grid, noised."""
    fine = cfg["fine"]
    return make_dataset(
        cfg["truth"], cfg["params"], fine, cfg["grid"], cfg["u0"](fine), cfg["c0"](fine),
        delta, seed, advection=cfg["advection"],
    )


def cmd_forward(cfg: dict):
    params, grid = cfg["params"], cfg["grid"]
    u0, c0 = cfg["u0"](grid), cfg["c0"](grid)
    traj = solve_forward(u0, c0, params, cfg["truth"], grid, advection=cfg["advection"])
    m0 = mass(u0, grid)
    mT = mass(traj.u[-1], grid)
    floors = float(np.min(c0)) * np.exp(-params.mu * grid.times())
    margin = float(np.min(traj.c.min(axis=1) - floors))
    return {
        "trajectory.csv": lambda path: write_trajectory_csv(traj, path),
        "params.txt": lambda path: write_params(params, grid, path),
        "summary.txt": _summary({
            "mass_initial": _fmt(m0),
            "mass_final": _fmt(mT),
            "mass_drift_rel": _fmt(abs(mT - m0) / abs(m0)) if m0 != 0 else "0",
            "min_u": _fmt(float(traj.u.min())),
            "min_c": _fmt(float(traj.c.min())),
            "min_c_minus_floor": _fmt(margin),
        }),
    }, None


def cmd_make_data(cfg: dict):
    data = _dataset(cfg, cfg["delta"], cfg["seed"]).data
    return {
        "data.csv": lambda path: write_noisy_csv(data, path),
        "summary.txt": _summary({
            "delta": _fmt(data.delta),
            "seed": str(cfg["seed"]),
            "c_range_low": _fmt(float(data.c.min())),
            "c_range_high": _fmt(float(data.c.max())),
        }),
    }, None


def cmd_invert(cfg: dict):
    prob = _problem(cfg, _load_data(cfg), cfg["alpha"])
    result = levenberg_marquardt(prob, prob.a_star, cfg["lm"])
    return {
        "report.txt": lambda path: write_inversion_report(result, prob, path),
        "a_hat.csv": lambda path: write_sensitivity_csv(result.a_hat, path),
    }, None if result.converged else result.message


def _load_data(cfg: dict):
    path = cfg["data_csv"]
    try:
        return read_noisy_csv(path)
    except OSError as exc:
        raise ConfigError(f"cannot read data_csv {path}: {exc}") from exc
    except InvalidStateError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_lcurve(cfg: dict):
    prob = _problem(cfg, _load_data(cfg), cfg["alphas"][0])
    points, _ = lcurve_sweep(prob, cfg["alphas"], cfg["lm"], warm_start=cfg["warm_start"])
    corner, _ = lcurve_corner(points)
    return {
        "lcurve.csv": lambda path: write_lcurve_csv(path, points),
        "plot_lcurve.py": lambda path: write_lcurve_plot_script(path, "lcurve.csv", corner),
        "summary.txt": _summary({"corner_alpha": _fmt(corner), "n_points": str(len(points))}),
    }, None


def cmd_rates(cfg: dict):
    dataset = _dataset(cfg, 0.0, 0)
    prob = _problem(cfg, dataset.data, 0.0)
    a_star = prob.a_star
    try:  # an inverse truth on an interval reaching c <= 0 fails here
        truth_basis = SensitivityFunction.from_function(
            cfg["truth"], a_star.c_min, a_star.c_max, a_star.n_basis
        )
    except InvalidStateError as exc:
        raise ConfigError(str(exc)) from exc
    study = rate_study(
        prob, truth_basis, dataset.truth_meas, cfg["deltas"], cfg["coupling"], cfg["seeds"],
        cfg["lm"],
    )
    return {
        "rates.csv": lambda path: write_rates_csv(path, study.records),
        "plot_rates.py": lambda path: write_rates_plot_script(
            path, "rates.csv", study.misfit2_slope, study.param_error_slope
        ),
        "summary.txt": _summary({
            "misfit2_slope": _fmt(study.misfit2_slope),
            "param_error_slope": _fmt(study.param_error_slope),
            "n_records": str(len(study.records)),
        }),
    }, None


COMMANDS = {
    "forward": cmd_forward,
    "make-data": cmd_make_data,
    "invert": cmd_invert,
    "lcurve": cmd_lcurve,
    "rates": cmd_rates,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chemid",
        description="Chemotactic-sensitivity identification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, help="overrides the config seed")
        p.add_argument("--preset", choices=sorted(cfgmod.PRESETS), help="named parameter set")
    return parser


def _write_artifacts(out: Path, artifacts: dict) -> None:
    """Create out and put every artifact there, or leave out as it was.

    The artifacts are written into a fresh temporary directory in out and
    renamed into place, in order, only once the last write has succeeded.
    """
    created = [p for p in (out, *out.parents) if not p.exists()]
    try:
        out.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix=".chemid-", dir=out) as tmp:
            for name, write in artifacts.items():
                write(Path(tmp, name))
            for name in artifacts:  # a rename onto a directory would fail midway
                if (out / name).is_dir():
                    raise IsADirectoryError(f"{out / name} is a directory")
            for name in artifacts:
                Path(tmp, name).replace(out / name)
    except BaseException:
        with contextlib.suppress(OSError):
            for path in created:
                path.rmdir()
        raise


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = cfgmod.load_config(args.config) if args.config else {}
        if args.seed is not None:
            if "seed" not in cfgmod.ALLOWED_KEYS[args.command]:
                raise ConfigError(f"--seed is not applicable to {args.command!r}")
            raw["seed"] = str(args.seed)
        cfg = cfgmod.resolve(args.command, raw, args.preset)
        artifacts, stagnation = COMMANDS[args.command](cfg)
        _write_artifacts(Path(args.out), artifacts)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # every input is read under a ConfigError guard
        print(f"error: config: cannot write output to {args.out}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ChemidError as exc:
        print(f"error: solver: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except MemoryError as exc:
        print(f"error: solver: out of memory: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    if stagnation is not None:
        print(f"error: stagnation: {stagnation}", file=sys.stderr)
        return EXIT_STAGNATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
