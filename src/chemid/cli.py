"""Command-line front end: reproducible runs from flat config files.

Subcommands: forward, make-data, invert, lcurve, rates.  Every command
is a pure function of (config, seed): reruns produce byte-identical CSV
payloads.  Exit codes: 0 success, 2 config error, 3 solver or data
error, 4 optimizer stagnation.  Failures print a single machine-parsable
`error: <kind>: <message>` line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .config import get_bool, get_float, get_int, get_size
from .errors import ChemidError, ConfigError, InvalidStateError, ZeroWidthIntervalError
from .inversion import LMConfig, TikhonovProblem, levenberg_marquardt, write_inversion_report
from .pde import StateTrajectory, mass, solve_forward, write_params, write_trajectory_csv
from .regselect import (
    lcurve_corner,
    lcurve_sweep,
    rate_study,
    write_lcurve_csv,
    write_lcurve_plot_script,
    write_rates_csv,
    write_rates_plot_script,
)
from .sensitivity import concentration_range, write_sensitivity_csv
from .synthdata import make_dataset, read_noisy_csv, write_noisy_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_STAGNATION = 4


def _write_summary(path: Path, items: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, val in items.items():
            fh.write(f"{key} = {val}\n")


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _build_lm_config(cfg: dict) -> LMConfig:
    try:
        return LMConfig(
            lambda0=get_float(cfg, "lambda0"),
            max_iters=get_int(cfg, "max_iters"),
            tol_cost=get_float(cfg, "tol_cost"),
            tol_grad=get_float(cfg, "tol_grad"),
            fd_step=get_float(cfg, "fd_step"),
        )
    except InvalidStateError as exc:
        raise ConfigError(str(exc)) from exc


def _advection(cfg: dict) -> str:
    adv = cfg["advection"]
    if adv not in ("blended", "upwind"):
        raise ConfigError(f"advection must be blended or upwind, got {adv!r}")
    return adv


def _problem(cfg: dict, data, alpha: float) -> TikhonovProblem:
    """The invert/lcurve/rates problem on data's mesh: params, fields, basis, prior."""
    params = cfgmod.build_params(cfg)
    u0 = cfgmod.build_initial_field(cfg, "u0", data.grid)
    c0 = cfgmod.build_initial_field(cfg, "c0", data.grid)
    measured = StateTrajectory(grid=data.grid, u=data.z_u, c=data.z_c)
    padding = get_float(cfg, "padding")
    n_basis = get_size(cfg, "n_basis")
    prior = cfgmod.TruthSpec.parse(cfg["prior"])
    try:
        lo, hi = concentration_range(measured, padding=padding)
        return TikhonovProblem(
            data=data,
            alpha=alpha,
            a_star=prior.on_basis(lo, hi, n_basis),
            params=params,
            u0=u0,
            c0=c0,
            advection=_advection(cfg),
            time_refine=get_size(cfg, "time_refine"),
        )
    except (InvalidStateError, ZeroWidthIntervalError) as exc:
        raise ConfigError(str(exc)) from exc


def cmd_forward(cfg: dict, out: Path) -> int:
    params = cfgmod.build_params(cfg)
    grid = cfgmod.build_grid(cfg)
    u0 = cfgmod.build_initial_field(cfg, "u0", grid)
    c0 = cfgmod.build_initial_field(cfg, "c0", grid)
    a = cfgmod.get_truth(cfg).as_callable()
    traj = solve_forward(u0, c0, params, a, grid, advection=_advection(cfg))
    write_trajectory_csv(traj, out / "trajectory.csv")
    write_params(params, grid, out / "params.txt")
    m0 = mass(u0, grid)
    mT = mass(traj.u[-1], grid)
    floors = float(np.min(c0)) * np.exp(-params.mu * grid.times())
    margin = float(np.min(traj.c.min(axis=1) - floors))
    _write_summary(
        out / "summary.txt",
        {
            "mass_initial": _fmt(m0),
            "mass_final": _fmt(mT),
            "mass_drift_rel": _fmt(abs(mT - m0) / abs(m0)) if m0 != 0 else "0",
            "min_u": _fmt(float(traj.u.min())),
            "min_c": _fmt(float(traj.c.min())),
            "min_c_minus_floor": _fmt(margin),
        },
    )
    return EXIT_OK


def cmd_make_data(cfg: dict, out: Path) -> int:
    params = cfgmod.build_params(cfg)
    meas = cfgmod.build_grid(cfg)
    fine = cfgmod.build_fine_grid(cfg, meas)
    u0 = cfgmod.build_initial_field(cfg, "u0", fine)
    c0 = cfgmod.build_initial_field(cfg, "c0", fine)
    a = cfgmod.get_truth(cfg).as_callable()
    delta = get_float(cfg, "delta")
    seed = cfgmod.get_seed(cfg)
    dataset = make_dataset(a, params, fine, meas, u0, c0, delta, seed)
    write_noisy_csv(dataset.data, out / "data.csv")
    z_c = dataset.data.z_c
    _write_summary(
        out / "summary.txt",
        {
            "delta": _fmt(dataset.data.delta),
            "seed": str(seed),
            "c_range_low": _fmt(float(z_c.min())),
            "c_range_high": _fmt(float(z_c.max())),
        },
    )
    return EXIT_OK


def cmd_invert(cfg: dict, out: Path) -> int:
    data = _load_data(cfg)
    alpha = get_float(cfg, "alpha")
    prob = _problem(cfg, data, alpha)
    result = levenberg_marquardt(prob, prob.a_star, _build_lm_config(cfg))
    write_inversion_report(result, prob, out / "report.txt")
    write_sensitivity_csv(result.a_hat, out / "a_hat.csv")
    if not result.converged:
        print(f"error: stagnation: {result.message}", file=sys.stderr)
        return EXIT_STAGNATION
    return EXIT_OK


def _load_data(cfg: dict):
    path = cfg.get("data_csv")
    if path is None:
        raise ConfigError("missing required config key 'data_csv'")
    try:
        return read_noisy_csv(path)
    except OSError as exc:
        raise ConfigError(f"cannot read data_csv {path}: {exc}") from exc
    except InvalidStateError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_lcurve(cfg: dict, out: Path) -> int:
    data = _load_data(cfg)
    alphas = cfgmod.get_alphas(cfg)
    prob = _problem(cfg, data, alphas[0])
    lm_cfg, warm_start = _build_lm_config(cfg), get_bool(cfg, "warm_start")
    try:
        points = lcurve_sweep(prob, alphas, lm_cfg, warm_start=warm_start)
    except InvalidStateError as exc:  # only its input checks raise it
        raise ConfigError(str(exc)) from exc
    write_lcurve_csv(out / "lcurve.csv", points)
    corner = lcurve_corner(points)
    write_lcurve_plot_script(out / "plot_lcurve.py", "lcurve.csv", corner)
    _write_summary(
        out / "summary.txt",
        {"corner_alpha": _fmt(corner), "n_points": str(len(points))},
    )
    return EXIT_OK


def cmd_rates(cfg: dict, out: Path) -> int:
    params = cfgmod.build_params(cfg)
    meas = cfgmod.build_grid(cfg)
    fine = cfgmod.build_fine_grid(cfg, meas)
    u0f = cfgmod.build_initial_field(cfg, "u0", fine)
    c0f = cfgmod.build_initial_field(cfg, "c0", fine)
    truth_spec = cfgmod.get_truth(cfg)
    deltas = cfgmod.get_float_list(cfg, "deltas")
    dataset = make_dataset(
        truth_spec.as_callable(), params, fine, meas, u0f, c0f, 0.0, 0
    )
    truth_meas = dataset.truth_meas
    prob = _problem(cfg, dataset.data, 0.0)
    truth_basis = truth_spec.on_basis(
        prob.a_star.c_min, prob.a_star.c_max, prob.a_star.n_basis
    )
    coupling, seeds = get_float(cfg, "coupling"), cfgmod.get_seeds(cfg)
    lm_cfg = _build_lm_config(cfg)
    try:
        study = rate_study(
            prob, truth_basis, truth_meas, deltas, coupling, seeds, lm_cfg
        )
    except InvalidStateError as exc:  # only its input checks raise it
        raise ConfigError(str(exc)) from exc
    write_rates_csv(out / "rates.csv", study.records)
    write_rates_plot_script(
        out / "plot_rates.py", "rates.csv",
        study.misfit2_slope, study.param_error_slope,
    )
    _write_summary(
        out / "summary.txt",
        {
            "misfit2_slope": _fmt(study.misfit2_slope),
            "param_error_slope": _fmt(study.param_error_slope),
            "n_records": str(len(study.records)),
        },
    )
    return EXIT_OK


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
        p.add_argument(
            "--preset", choices=sorted(cfgmod.PRESETS), help="named parameter set"
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = cfgmod.load_config(args.config) if args.config else {}
        cfg = cfgmod.resolve(args.command, raw, args.preset)
        if args.seed is not None:
            if "seed" in cfgmod.ALLOWED_KEYS[args.command]:
                cfg["seed"] = str(args.seed)
            else:
                raise ConfigError(
                    f"--seed is not applicable to {args.command!r}"
                )
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](cfg, out)
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


if __name__ == "__main__":
    sys.exit(main())
