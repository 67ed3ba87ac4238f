"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in ``setup`` (timed
as set-up), does one operation in ``run`` (timed as wall time) and checks
that operation's outputs in ``check`` (untimed and never traced).  All of
them use the paper's Myerscough scenario (M=0.25, D=1, b=50, h=1, mu=50,
bump u0, uniform c0 = 0.5) on a 51x250 measurement grid unless stated.
They call chemid only through its public library and ``chemid.cli.main``,
and look every name up on its module at call time so that the traced run
sees the calls.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from chemid import cli, inversion, pde, regselect, synthdata
from chemid.inversion import LMConfig, TikhonovProblem
from chemid.pde import PhysicalParams, SimulationGrid
from chemid.sensitivity import SensitivityFunction, concentration_range

MYERSCOUGH = PhysicalParams.myerscough()

#: Criterion-2 bars: c-range of the clean measurements and the rel. L2
#: error of a_hat against 2/c on that range.
C_RANGE = (0.1794, 0.6398)
C_RANGE_TOL = 0.02
REL_L2_BAR = 0.10

#: Criterion-3 windows for the log-log slopes against delta.
MISFIT2_SLOPE_WINDOW = (1.7, 2.3)
PARAM_SLOPE_WINDOW = (0.3, 0.7)

#: Solver invariants the ``forward`` summary must show.
MAX_MASS_DRIFT = 1e-10
MIN_U = -1e-12

#: ``%.15g`` rounds to 15 significant digits, a relative change of at
#: most 5e-15; the rest is room for the correctly rounded parse.
CSV_REL_TOL = 6e-15


@dataclass(frozen=True)
class Scale:
    """Grid sizes (nodes, steps) and basis size; the self-test shrinks them."""

    meas: tuple = (51, 250)
    fine: tuple = (201, 2000)
    rate_fine: tuple = (201, 1000)
    hats: int = 24


PAPER = Scale()


@dataclass
class Outcome:
    """Checked result of one operation.

    ``fingerprint`` identifies the outputs exactly (array bytes, CSV
    digests); repeats of an operation with the same seed must match it.
    """

    attempted: int
    failed: int
    quality: dict
    fingerprint: object


def _grid(size) -> SimulationGrid:
    return SimulationGrid(0.0, 1.0, size[0], 0.25, size[1])


def _inverse2(c):
    return 2.0 / np.asarray(c, dtype=float)


def _prior(c):
    return 15.0 * (1.0 - np.asarray(c, dtype=float)) ** 2


def _third(c):
    return np.full_like(np.asarray(c, dtype=float), 1.0 / 3.0)


def _simpson(f, lo, hi, n=40000):
    x = np.linspace(lo, hi, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (hi - lo) / (3.0 * n) * float(w @ f(x))


def rel_l2_error(a_hat, lo=C_RANGE[0], hi=C_RANGE[1]) -> float:
    """||a_hat - 2/c|| / ||2/c|| in L2(lo, hi)."""
    num = _simpson(lambda c: (a_hat(c) - _inverse2(c)) ** 2, lo, hi)
    return float(np.sqrt(num / _simpson(lambda c: _inverse2(c) ** 2, lo, hi)))


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _same_digits(read, written) -> bool:
    read, written = np.asarray(read), np.asarray(written)
    return read.shape == written.shape and bool(
        np.all(np.abs(read - written) <= CSV_REL_TOL * np.abs(written))
    )


def _summary_ok(path: Path) -> bool:
    """Solver invariants recorded by ``chemid forward`` in summary.txt."""
    items = dict(
        (part.strip() for part in line.split("=", 1))
        for line in path.read_text(encoding="utf-8").splitlines()
        if "=" in line
    )
    return (
        float(items["mass_drift_rel"]) <= MAX_MASS_DRIFT
        and float(items["min_u"]) >= MIN_U
        and float(items["min_c_minus_floor"]) >= 0.0
    )


class Workload:
    name = ""
    #: operations one ``run`` call counts as (LM inversions, rate cells
    #: or CLI commands)
    attempted = 1

    def __init__(self, seed: int, workdir: Path, scale: Scale = PAPER):
        self.seed = seed
        self.workdir = workdir
        self.scale = scale

    def failure(self) -> Outcome:
        return Outcome(self.attempted, self.attempted, {}, None)


class KsInvert(Workload):
    """Criterion-2 fit: 2/c data on 201x2000 at delta=1e-3, then LM with
    alpha=1e-5, 24 hats and prior 15(1-c)^2; only the LM call is timed.

    The one workload dominated by ``jacobian_fd`` (24 columns), so a
    batched Jacobian shows here and an implicit step should not.
    """

    name = "ks-invert"
    lm = LMConfig(max_iters=60)

    def setup(self):
        meas = _grid(self.scale.meas)
        fine = meas.with_resolution(*self.scale.fine)
        u0f, c0f = synthdata.myerscough_initial_data(fine)
        u0m, c0m = synthdata.myerscough_initial_data(meas)
        ds = synthdata.make_dataset(
            _inverse2, MYERSCOUGH, fine, meas, u0f, c0f, 1e-3, self.seed
        )
        lo, hi = concentration_range(ds.truth_meas, padding=0.0)
        a_star = SensitivityFunction.from_function(_prior, lo, hi, self.scale.hats)
        return TikhonovProblem(
            data=ds.data, alpha=1e-5, a_star=a_star, params=MYERSCOUGH,
            u0=u0m, c0=c0m,
        )

    def run(self, prob):
        return inversion.levenberg_marquardt(prob, prob.a_star, self.lm)

    def check(self, prob, res) -> Outcome:
        rel = rel_l2_error(res.a_hat)
        ok = (
            rel <= REL_L2_BAR
            and abs(prob.a_star.c_min - C_RANGE[0]) <= C_RANGE_TOL
            and abs(prob.a_star.c_max - C_RANGE[1]) <= C_RANGE_TOL
        )
        return Outcome(1, 0 if ok else 1, {"rel_l2_err": rel},
                       res.a_hat.coeffs.tobytes())


class RateStudy(Workload):
    """Criterion-3 study: clean b=300, c0=3 data with truth 1/3 on 201x1000,
    then ``rate_study`` over five deltas and three seeds from the workload
    seed (15 LM cells of 4 hats); only ``rate_study`` is timed.

    Many small independent inversions: with 4 columns Jacobian batching
    helps less, and only here does work across cells add up.
    """

    name = "rate-study"
    deltas = (1e-3, 3e-3, 1e-2, 3e-2, 1e-1)
    attempted = 15

    def setup(self):
        params = PhysicalParams(M=0.25, D=1.0, b=300.0, h=1.0, mu=50.0)
        meas = _grid(self.scale.meas)
        fine = meas.with_resolution(*self.scale.rate_fine)
        u0f, _ = synthdata.myerscough_initial_data(fine)
        u0m, _ = synthdata.myerscough_initial_data(meas)
        c0f = np.full(fine.n_nodes, 3.0)
        c0m = np.full(meas.n_nodes, 3.0)
        ds = synthdata.make_dataset(_third, params, fine, meas, u0f, c0f, 0.0, 0)
        lo, hi = concentration_range(ds.truth_meas, padding=0.1)
        prob = TikhonovProblem(
            data=ds.data, alpha=1.0,
            a_star=SensitivityFunction.constant(0.25, lo, hi, 4),
            params=params, u0=u0m, c0=c0m,
        )
        truth = SensitivityFunction.constant(1.0 / 3.0, lo, hi, 4)
        return prob, truth, ds.truth_meas

    def run(self, inputs):
        prob, truth, truth_meas = inputs
        seeds = (self.seed, self.seed + 1, self.seed + 2)
        return regselect.rate_study(prob, truth, truth_meas, self.deltas, seeds=seeds)

    def check(self, inputs, study) -> Outcome:
        m_slope, p_slope = study.misfit2_slope, study.param_error_slope
        in_windows = (
            MISFIT2_SLOPE_WINDOW[0] <= m_slope <= MISFIT2_SLOPE_WINDOW[1]
            and PARAM_SLOPE_WINDOW[0] <= p_slope <= PARAM_SLOPE_WINDOW[1]
        )
        failed = self.attempted - len(study.records) if in_windows else self.attempted
        return Outcome(
            self.attempted, failed,
            {"misfit2_slope_err": abs(m_slope - 2.0),
             "param_slope_err": abs(p_slope - 0.5)},
            tuple((r.delta, r.seed, r.misfit2, r.param_error) for r in study.records),
        )


class StiffForward(Workload):
    """Four ``chemid forward`` calls on 51x250 with truth s/c, s = 2..100.

    CFL sub-stepping sets the cost (250 to 15,129 IMEX steps per solve)
    and there is no LM or Jacobian, so an implicit chemotaxis step shows
    here and Jacobian work should not.  The inputs do not depend on the
    seed: the stiffness ladder is the point.
    """

    name = "stiff-forward"
    scales = (2, 20, 50, 100)
    attempted = 4

    def setup(self):
        configs = []
        for s in self.scales:
            path = self.workdir / f"forward-{s}.cfg"
            path.write_text(
                f"n_nodes = {self.scale.meas[0]}\nn_steps = {self.scale.meas[1]}\n"
                f"truth = inverse:{s}\n",
                encoding="utf-8",
            )
            configs.append(path)
        return configs

    def _out(self, s) -> Path:
        return self.workdir / f"forward-{s}"

    def run(self, configs):
        return [
            cli.main(["forward", "--config", str(cfg), "--preset", "myerscough",
                      "--out", str(self._out(s))])
            for s, cfg in zip(self.scales, configs)
        ]

    def check(self, configs, codes) -> Outcome:
        failed, digests = 0, []
        for s, code in zip(self.scales, codes):
            out = self._out(s)
            ok = code == 0 and _summary_ok(out / "summary.txt")
            digests.append(_digest(out / "trajectory.csv") if code == 0 else None)
            shutil.rmtree(out, ignore_errors=True)
            failed += not ok
        return Outcome(self.attempted, failed, {}, tuple(digests))


class FineIO(Workload):
    """``chemid make-data`` (201x2000 solve, restriction, noise) and
    ``chemid forward`` on 201x2000, then both CSVs read back; all timed.

    CSV writing and reading dominate (a 19.6 MB trajectory), and the
    read-back sets peak memory; the other workloads write under 1 MB.
    """

    name = "fine-io"
    attempted = 2

    def setup(self):
        fine_n, fine_m = self.scale.fine
        meas_n, meas_m = self.scale.meas
        data_cfg = self.workdir / "make-data.cfg"
        data_cfg.write_text(
            f"n_nodes = {meas_n}\nn_steps = {meas_m}\n"
            f"fine_n_nodes = {fine_n}\nfine_n_steps = {fine_m}\n"
            "truth = inverse:2.0\ndelta = 1e-3\n",
            encoding="utf-8",
        )
        fwd_cfg = self.workdir / "forward-fine.cfg"
        fwd_cfg.write_text(
            f"n_nodes = {fine_n}\nn_steps = {fine_m}\ntruth = inverse:2.0\n",
            encoding="utf-8",
        )
        return data_cfg, fwd_cfg

    def run(self, configs):
        data_cfg, fwd_cfg = configs
        data_out, fwd_out = self.workdir / "make-data", self.workdir / "forward-fine"
        codes = (
            cli.main(["make-data", "--config", str(data_cfg), "--preset",
                      "myerscough", "--seed", str(self.seed), "--out", str(data_out)]),
            cli.main(["forward", "--config", str(fwd_cfg), "--preset",
                      "myerscough", "--out", str(fwd_out)]),
        )
        data = synthdata.read_noisy_csv(data_out / "data.csv") if codes[0] == 0 else None
        traj = pde.read_trajectory_csv(fwd_out / "trajectory.csv") if codes[1] == 0 else None
        return codes, data, traj

    @cached_property
    def _reference(self):
        """The arrays the two commands write, computed through the library."""
        meas = _grid(self.scale.meas)
        fine = meas.with_resolution(*self.scale.fine)
        u0, c0 = synthdata.myerscough_initial_data(fine)
        return synthdata.make_dataset(
            _inverse2, MYERSCOUGH, fine, meas, u0, c0, 1e-3, self.seed
        )

    def check(self, configs, output) -> Outcome:
        (data_code, fwd_code), data, traj = output
        ref = self._reference
        data_out, fwd_out = self.workdir / "make-data", self.workdir / "forward-fine"
        data_ok = (
            data_code == 0
            and data.grid == ref.data.grid
            and data.delta == ref.data.delta
            and data.seed == self.seed
            and _same_digits(data.z_u, ref.data.z_u)
            and _same_digits(data.z_c, ref.data.z_c)
        )
        fwd_ok = (
            fwd_code == 0
            and _summary_ok(fwd_out / "summary.txt")
            and traj.grid == ref.truth_fine.grid
            and _same_digits(traj.u_matrix(), ref.truth_fine.u_matrix())
            and _same_digits(traj.c_matrix(), ref.truth_fine.c_matrix())
        )
        digests = (
            _digest(data_out / "data.csv") if data_code == 0 else None,
            _digest(fwd_out / "trajectory.csv") if fwd_code == 0 else None,
        )
        shutil.rmtree(data_out, ignore_errors=True)
        shutil.rmtree(fwd_out, ignore_errors=True)
        return Outcome(self.attempted, (not data_ok) + (not fwd_ok), {}, digests)


WORKLOADS = {w.name: w for w in (KsInvert, RateStudy, StiffForward, FineIO)}
