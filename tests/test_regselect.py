"""L-curve sweep/corner behavior and rate-study slope fitting."""

import dataclasses

import numpy as np
import pytest

import chemid.inversion as inv
import chemid.regselect as rs
from chemid import cli
from chemid.errors import (
    ForwardSolveError,
    IncompatibleBasisError,
    InsufficientSweepError,
    InvalidStateError,
    NoiseLevelError,
)
from chemid.inversion import InversionResult, LMConfig, levenberg_marquardt
from chemid.regselect import (
    LCurvePoint,
    RateStudyRecord,
    lcurve_corner,
    lcurve_sweep,
    rate_study,
)
from chemid.sensitivity import SensitivityFunction
from helpers import small_problem
from test_cli import command_body, data_dir, write_cfg  # noqa: F401 (data_dir is a fixture)


def fake_point(alpha, rho, eta, converged=True):
    a_hat = SensitivityFunction.constant(1.0, 0.0, 1.0, 2)
    res = InversionResult(
        a_hat=a_hat,
        cost_history=(rho * rho + alpha * eta * eta,),
        residual_norm2=rho * rho,
        penalty_norm2=eta * eta,
        iterations=1,
        converged=converged,
        message="",
    )
    return LCurvePoint(alpha=alpha, rho=rho, eta=eta, result=res)


def right_angle_points(n=9, vertex=4):
    """Exact L in log-log space: vertical leg, corner, horizontal leg."""
    alphas = np.logspace(-8, 0, n)
    pts = []
    for i, a in enumerate(alphas):
        rho = 1e-3 * 10.0 ** max(i - vertex, 0)
        eta = 1.0 * 10.0 ** max(vertex - i, 0)
        pts.append(fake_point(a, rho, eta))
    return pts, alphas


# ---------------------------------------------------------------------------
# corner detection


def test_corner_right_angle_returns_vertex_exactly():
    pts, alphas = right_angle_points()
    assert lcurve_corner(pts) == (alphas[4], ())


def test_corner_right_angle_other_vertex():
    pts, alphas = right_angle_points(n=11, vertex=7)
    assert lcurve_corner(pts) == (alphas[7], ())


def test_corner_input_order_irrelevant():
    pts, alphas = right_angle_points()
    rng = np.random.default_rng(1)
    shuffled = [pts[i] for i in rng.permutation(len(pts))]
    assert lcurve_corner(shuffled) == (alphas[4], ())


def test_corner_collinear_notes_and_returns_median():
    alphas = np.logspace(-6, -1, 7)
    pts = [fake_point(a, 1e-3 * a**0.5, 1.0 / a**0.5) for a in alphas]
    corner, notes = lcurve_corner(pts)
    assert corner == alphas[3]
    assert notes == ("degenerate corner: L-curve points are collinear",)


def test_corner_needs_five_valid_points():
    pts, _ = right_angle_points()
    with pytest.raises(InsufficientSweepError):
        lcurve_corner(pts[:4])


def test_corner_ignores_unconverged_points():
    pts, _ = right_angle_points(n=6)
    pts[0] = fake_point(pts[0].alpha, pts[0].rho, pts[0].eta, converged=False)
    pts[1] = fake_point(pts[1].alpha, pts[1].rho, pts[1].eta, converged=False)
    with pytest.raises(InsufficientSweepError):
        lcurve_corner(pts)


def test_corner_stable_under_midpoint_interleaving():
    """Refining the alpha list moves the corner by at most one decade."""

    def curve(ts):
        # smooth L: softplus-rounded corner at t = 0
        pts = []
        for t in ts:
            x = np.log1p(np.exp(3 * t)) / 3 / np.log(10) - 3
            y = np.log1p(np.exp(-3 * t)) / 3 / np.log(10)
            pts.append(fake_point(10.0**t, 10.0**x, 10.0**y))
        return pts

    ts = np.linspace(-4, 4, 9)
    coarse, _ = lcurve_corner(curve(ts))
    mids = np.sort(np.concatenate([ts, 0.5 * (ts[:-1] + ts[1:])]))
    fine, _ = lcurve_corner(curve(mids))
    assert abs(np.log10(fine) - np.log10(coarse)) <= 1.0


def test_lcurve_point_validation():
    with pytest.raises(InvalidStateError):
        fake_point(0.0, 1.0, 1.0)
    with pytest.raises(InvalidStateError):
        fake_point(1e-3, -1.0, 1.0)


# ---------------------------------------------------------------------------
# sweep (real inversions on the compact problem)


@pytest.fixture(scope="module")
def swept():
    prob, a_true, truth = small_problem(alpha=1e-4, delta=1e-2, n_basis=3)
    alphas = np.logspace(-7, -1, 7)
    points, notes = lcurve_sweep(prob, alphas)
    assert notes == ()
    return prob, alphas, points


def test_sweep_returns_sorted_converged_points(swept):
    prob, alphas, points = swept
    assert len(points) == len(alphas)
    assert [p.alpha for p in points] == sorted(p.alpha for p in points)
    assert all(p.result.converged for p in points)


def test_sweep_eta_decays_with_alpha(swept):
    _, _, points = swept
    etas = [p.eta for p in points]
    assert etas[-1] < 0.2 * max(etas)


def test_sweep_rho_grows_with_alpha(swept):
    _, _, points = swept
    assert points[-1].rho > points[0].rho


def test_sweep_rho_floor_near_realized_noise(swept):
    """As alpha -> 0 the misfit norm approaches delta*sqrt(2)."""
    prob, _, points = swept
    floor = prob.data.delta * np.sqrt(2.0)
    assert abs(points[0].rho - floor) / floor < 0.05


def test_sweep_cold_start_matches_warm(swept):
    prob, alphas, warm = swept
    cold, notes = lcurve_sweep(prob, alphas, warm_start=False)
    assert notes == ()
    assert len(cold) == len(warm)
    for w, c in zip(warm, cold):
        assert np.isclose(w.rho, c.rho, rtol=1e-3)
        assert np.isclose(w.eta, c.eta, rtol=1e-2, atol=1e-8)


def test_sweep_rejects_bad_alphas(swept):
    prob = swept[0]
    with pytest.raises(InvalidStateError):
        lcurve_sweep(prob, [1e-3, -1e-4])
    with pytest.raises(InvalidStateError):
        lcurve_sweep(prob, [1e-3, 1e-3])
    with pytest.raises(InvalidStateError):
        lcurve_sweep(prob, [])


def test_sweep_continues_past_point_failures(monkeypatch, swept):
    prob, alphas, points = swept
    bad = float(alphas[2])

    def flaky(p, a0, cfg=LMConfig()):
        if p.alpha == bad:
            raise ForwardSolveError("synthetic failure")
        return levenberg_marquardt(p, a0, cfg)

    use_fake_lm(monkeypatch, flaky)
    got, notes = lcurve_sweep(prob, alphas[:5])
    assert len(got) == 4
    assert bad not in [p.alpha for p in got]
    assert notes == ("alpha=1.000e-05: inversion failed: synthetic failure",)


def test_sweep_notes_monotonicity_anomalies_after_failures(monkeypatch, swept):
    prob = swept[0]

    def canned(p, a0, cfg=LMConfig()):
        # eta rising with alpha is an anomaly worth a note; it drops no point
        if p.alpha in (1e-1, 1e-5):
            raise ForwardSolveError("synthetic failure")
        eta = {1e-4: 1.0, 1e-3: 2.0, 1e-2: 3.0}[p.alpha]
        return fake_point(p.alpha, 1e-3, eta).result

    use_fake_lm(monkeypatch, canned)
    points, notes = lcurve_sweep(prob, [1e-5, 1e-4, 1e-3, 1e-2, 1e-1])
    assert [p.alpha for p in points] == [1e-4, 1e-3, 1e-2]
    assert notes == (
        "alpha=1.000e-01: inversion failed: synthetic failure",
        "alpha=1.000e-05: inversion failed: synthetic failure",
        "sweep anomaly: eta rose from 1.000000e+00 (alpha=1.000e-04) to 2.000000e+00 "
        "(alpha=1.000e-03)",
        "sweep anomaly: eta rose from 2.000000e+00 (alpha=1.000e-03) to 3.000000e+00 "
        "(alpha=1.000e-02)",
    )


@pytest.mark.parametrize("bad", [None, 1e-4], ids=["no_failure", "one_failure"])
@pytest.mark.parametrize("warm_start", [True, False], ids=["warm", "cold"])
def test_each_sweep_point_equals_a_lone_call_from_its_start(monkeypatch, swept, warm_start, bad):
    # a cold point starts at a*, a warm one at the last point's a_hat; a point
    # whose every evaluation fails (bad) is a note, and moves no other's bits
    prob, alphas, _ = swept
    real = inv._close_row

    def close_row(p, *args):
        return ForwardSolveError("injected") if p.alpha == bad else real(p, *args)

    monkeypatch.setattr(inv, "_close_row", close_row)
    points, notes = lcurve_sweep(prob, alphas, warm_start=warm_start)
    by_alpha, start, failed = {p.alpha: p.result for p in points}, prob.a_star, []
    for alpha in sorted(alphas, reverse=True):
        try:
            lone = levenberg_marquardt(dataclasses.replace(prob, alpha=float(alpha)), start)
        except ForwardSolveError as exc:
            failed.append(f"alpha={alpha:.3e}: inversion failed: {exc}")
            assert alpha not in by_alpha
            continue
        got = by_alpha.pop(alpha)
        assert got.a_hat.coeffs.tobytes() == lone.a_hat.coeffs.tobytes()
        assert (got.cost_history, got.residual_norm2, got.penalty_norm2, got.iterations,
                got.message) == (lone.cost_history, lone.residual_norm2, lone.penalty_norm2,
                                 lone.iterations, lone.message)
        start = lone.a_hat if warm_start else start
    assert by_alpha == {}
    assert notes == tuple(failed) == (() if bad is None else
                                      ("alpha=1.000e-04: inversion failed: injected",))


def test_sweep_notes_rho_falling_with_alpha(monkeypatch, swept):
    prob = swept[0]

    def canned(p, a0, cfg=LMConfig()):
        rho = {1e-4: 3e-3, 1e-3: 2e-3, 1e-2: 4e-3, 1e-1: 5e-3, 1.0: 6e-3}[p.alpha]
        return fake_point(p.alpha, rho, 1.0 / (1.0 + p.alpha)).result

    use_fake_lm(monkeypatch, canned)
    points, notes = lcurve_sweep(prob, [1e-4, 1e-3, 1e-2, 1e-1, 1.0])
    assert len(points) == 5
    assert notes == (
        "sweep anomaly: rho fell from 3.000000e-03 (alpha=1.000e-04) to 2.000000e-03 "
        "(alpha=1.000e-03)",
    )


# ---------------------------------------------------------------------------
# rate study


def fake_lm_factory(truth, slope_jitter=0.3):
    """Canned optimizer: misfit2 = 2 delta^2, param_error = 0.7 sqrt(delta).

    Per-delta the three seeds get symmetric log-space jitter whose width
    grows with delta, so the fitted slopes are exact only under
    geometric-mean aggregation.
    """
    width = truth.c_max - truth.c_min

    def fake(prob, a0, cfg=LMConfig()):
        delta = prob.data.delta
        seed = prob.data.seed
        k = np.log10(delta / 1e-3)
        eps = {0: -slope_jitter * k, 1: 0.0, 2: slope_jitter * k}[seed]
        shift = 0.7 * np.sqrt(delta) * np.exp(eps) / np.sqrt(width)
        a_hat = truth.with_coeffs(truth.coeffs + shift)
        m2 = 2.0 * delta * delta * np.exp(eps)
        return InversionResult(
            a_hat=a_hat,
            cost_history=(m2,),
            residual_norm2=m2,
            penalty_norm2=shift * shift * width,
            iterations=1,
            converged=True,
            message="",
        )

    return fake


def use_fake_lm(monkeypatch, fake):
    """Make regselect's lockstep solver apply a one-problem fake to every
    problem; a ForwardSolveError the fake raises becomes that entry."""

    def many(probs, a0s, cfg=LMConfig()):
        out = []
        for p, a0 in zip(probs, a0s):
            try:
                out.append(fake(p, a0, cfg))
            except ForwardSolveError as exc:
                out.append(exc)
        return out

    monkeypatch.setattr(rs, "levenberg_marquardt_many", many)


DELTAS = (1e-3, 3e-3, 1e-2, 3e-2, 1e-1)


def test_rate_study_slopes_exact_for_power_law(monkeypatch):
    prob, a_true, truth = small_problem(n_basis=3)
    use_fake_lm(monkeypatch, fake_lm_factory(a_true))
    out = rate_study(prob, a_true, truth, DELTAS, coupling=1.0, seeds=(0, 1, 2))
    assert abs(out.misfit2_slope - 2.0) < 1e-9
    assert abs(out.param_error_slope - 0.5) < 1e-9
    assert len(out.records) == 15


def test_rate_study_uses_geometric_mean(monkeypatch):
    """Arithmetic-mean aggregation would tilt the slope by ~0.1; the
    jittered fake only yields exact slopes under geometric means."""
    prob, a_true, truth = small_problem(n_basis=3)
    use_fake_lm(monkeypatch, fake_lm_factory(a_true, slope_jitter=0.6))
    out = rate_study(prob, a_true, truth, DELTAS, seeds=(0, 1, 2))
    assert abs(out.misfit2_slope - 2.0) < 1e-9


def test_rate_study_records_alpha_coupling(monkeypatch):
    prob, a_true, truth = small_problem(n_basis=3)
    use_fake_lm(monkeypatch, fake_lm_factory(a_true))
    out = rate_study(prob, a_true, truth, DELTAS, coupling=0.25, seeds=(1,))
    for rec in out.records:
        assert rec.alpha == 0.25 * rec.delta


def test_rate_study_excludes_failed_cells(monkeypatch):
    prob, a_true, truth = small_problem(n_basis=3)
    real_fake = fake_lm_factory(a_true)

    def flaky(p, a0, cfg=LMConfig()):
        if p.data.delta == 1e-2:
            raise ForwardSolveError("synthetic failure")
        return real_fake(p, a0, cfg)

    use_fake_lm(monkeypatch, flaky)
    out = rate_study(prob, a_true, truth, DELTAS, seeds=(1,))
    assert len(out.records) == 4
    assert 1e-2 not in [r.delta for r in out.records]
    assert out.notes == ("delta=1.000e-02 seed=1: inversion failed: synthetic failure",)


def test_rate_study_insufficient_survivors(monkeypatch):
    prob, a_true, truth = small_problem(n_basis=3)
    real_fake = fake_lm_factory(a_true)

    def flaky(p, a0, cfg=LMConfig()):
        if p.data.delta > 2e-3:
            raise ForwardSolveError("synthetic failure")
        return real_fake(p, a0, cfg)

    use_fake_lm(monkeypatch, flaky)
    with pytest.raises(InsufficientSweepError, match="got 1$"):
        rate_study(prob, a_true, truth, DELTAS, seeds=(1,))


def test_rate_study_notes_in_cell_order(monkeypatch):
    # noise is drawn for every cell before the inversions run, yet a noise
    # failure is still noted in its cell's place among the inversion failures
    prob, a_true, truth = small_problem(n_basis=3)
    real_noise, real_fake = rs.add_noise, fake_lm_factory(a_true)

    def noisy(traj, delta, seed):
        if (delta, seed) == (3e-3, 1):
            raise NoiseLevelError("synthetic noise failure")
        return real_noise(traj, delta, seed)

    def flaky(p, a0, cfg=LMConfig()):
        if p.data.delta in (1e-3, 1e-2) and p.data.seed == 1:
            raise ForwardSolveError("synthetic failure")
        return real_fake(p, a0, cfg)

    monkeypatch.setattr(rs, "add_noise", noisy)
    use_fake_lm(monkeypatch, flaky)
    out = rate_study(prob, a_true, truth, DELTAS, seeds=(1, 2))
    assert len(out.records) == 7
    assert out.notes == (
        "delta=1.000e-03 seed=1: inversion failed: synthetic failure",
        "delta=3.000e-03 seed=1: synthetic noise failure",
        "delta=1.000e-02 seed=1: inversion failed: synthetic failure",
    )


def test_failed_rate_study_carries_its_notes(monkeypatch):
    # every cell is dropped, for all three reasons: the raised error keeps
    # the notes a result would have held, in cell order
    prob, a_true, truth = small_problem(n_basis=3)
    real_noise, real_fake = rs.add_noise, fake_lm_factory(a_true)

    def noisy(traj, delta, seed):
        if delta in (3e-3, 3e-2):
            raise NoiseLevelError(f"no noise at {delta:g}")
        return real_noise(traj, delta, seed)

    def flaky(p, a0, cfg=LMConfig()):
        if p.data.delta == 1e-1:
            return dataclasses.replace(real_fake(p, a0, cfg), converged=False, message="stagnated")
        raise ForwardSolveError("synthetic failure")

    monkeypatch.setattr(rs, "add_noise", noisy)
    use_fake_lm(monkeypatch, flaky)
    with pytest.raises(InsufficientSweepError) as caught:
        rate_study(prob, a_true, truth, DELTAS, seeds=(1,))
    assert str(caught.value) == "rate fit needs >= 4 surviving noise levels, got 0"
    assert caught.value.notes == (
        "delta=1.000e-03 seed=1: inversion failed: synthetic failure",
        "delta=3.000e-03 seed=1: no noise at 0.003",
        "delta=1.000e-02 seed=1: inversion failed: synthetic failure",
        "delta=3.000e-02 seed=1: no noise at 0.03",
        "delta=1.000e-01 seed=1: excluded (stagnated)",
    )


def test_rate_study_excludes_unconverged(monkeypatch):
    prob, a_true, truth = small_problem(n_basis=3)
    real_fake = fake_lm_factory(a_true)

    def stagnant(p, a0, cfg=LMConfig()):
        res = real_fake(p, a0, cfg)
        if p.data.delta == 1e-1:
            return dataclasses.replace(res, converged=False, message="stagnated")
        return res

    use_fake_lm(monkeypatch, stagnant)
    out = rate_study(prob, a_true, truth, DELTAS, seeds=(1,))
    assert len(out.records) == 4
    assert out.notes == ("delta=1.000e-01 seed=1: excluded (stagnated)",)


def test_rate_study_excludes_a_cell_whose_parameter_error_overflows(monkeypatch):
    # the squared L2(I) distance of a 1e200 fit from the truth overflows
    prob, a_true, truth = small_problem(n_basis=3)
    real_fake = fake_lm_factory(a_true)

    def far(p, a0, cfg=LMConfig()):
        res = real_fake(p, a0, cfg)
        if p.data.delta == 1e-1:
            return dataclasses.replace(res, a_hat=a_true.with_coeffs(np.full(3, 1e200)))
        return res

    use_fake_lm(monkeypatch, far)
    out = rate_study(prob, a_true, truth, DELTAS, seeds=(1,))
    assert len(out.records) == 4
    assert out.notes == ("delta=1.000e-01 seed=1: excluded (its parameter error overflows)",)


def test_rate_study_validation():
    prob, a_true, truth = small_problem(n_basis=3)
    with pytest.raises(InvalidStateError):
        rate_study(prob, a_true, truth, (1e-3, 1e-2, 1e-1))
    with pytest.raises(InvalidStateError):
        rate_study(prob, a_true, truth, (1e-3, 2e-3, 4e-3, 8e-3))
    with pytest.raises(InvalidStateError):
        rate_study(prob, a_true, truth, (-1e-3, 1e-2, 1e-1, 1.0))
    with pytest.raises(InvalidStateError):
        rate_study(prob, a_true, truth, DELTAS, coupling=0.0)
    # 1e-323 * 1e-3 rounds to alpha 0: an unregularized study, not a regularized one
    with pytest.raises(InvalidStateError, match=r"smallest delta must be > 0 \(got 0.0\)"):
        rs.require_rate_inputs(DELTAS, 1e-323, (0,))
    with pytest.raises(InvalidStateError):
        rate_study(prob, a_true, truth, DELTAS, seeds=())
    other = SensitivityFunction.constant(1.5, 0.0, 2.0, 3)
    with pytest.raises(IncompatibleBasisError):
        rate_study(prob, other, truth, DELTAS)


def test_rate_study_rejects_repeated_seeds(monkeypatch):
    prob, a_true, truth = small_problem(n_basis=3)
    use_fake_lm(monkeypatch, fake_lm_factory(a_true))
    with pytest.raises(InvalidStateError, match="seeds must be distinct"):
        rate_study(prob, a_true, truth, DELTAS, seeds=(0, 0))
    with pytest.raises(InvalidStateError, match="seeds must be distinct"):
        rate_study(prob, a_true, truth, DELTAS, seeds=(2, 1, 2))


def test_rate_study_deterministic(monkeypatch):
    prob, a_true, truth = small_problem(n_basis=3)
    use_fake_lm(monkeypatch, fake_lm_factory(a_true))
    a = rate_study(prob, a_true, truth, DELTAS, seeds=(0, 1, 2))
    b = rate_study(prob, a_true, truth, DELTAS, seeds=(0, 1, 2))
    assert a.records == b.records
    assert a.misfit2_slope == b.misfit2_slope


def test_rate_record_requires_positive_delta():
    with pytest.raises(InvalidStateError):
        RateStudyRecord(delta=0.0, alpha=1e-3, misfit2=1.0, param_error=1.0, seed=0)


# ---------------------------------------------------------------------------
# CSV and plot-script output, as the command line writes them


def cli_artifacts(out, data_dir, monkeypatch, command, **returns):
    """out, after ``cli.main`` has written command's artifacts there on the small
    scenario, with each library call ``name`` of cli returning ``returns[name]``."""
    for name, value in returns.items():
        monkeypatch.setattr(cli, name, lambda *args, value=value, **kwargs: value)
    out.mkdir()
    cfg = write_cfg(out, "run.cfg", command_body(command, data_dir))
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 0
    return out


def test_lcurve_csv_schema_and_roundtrip(tmp_path, data_dir, monkeypatch):
    pts, _ = right_angle_points(n=5, vertex=2)
    out = cli_artifacts(tmp_path / "out", data_dir, monkeypatch, "lcurve", lcurve_sweep=(pts, ()))
    path = out / "lcurve.csv"
    text = path.read_text().splitlines()
    assert text[0] == "alpha,rho,eta"
    back = np.genfromtxt(path, delimiter=",", skip_header=1)
    assert back.shape == (5, 3)
    assert np.allclose(back[:, 0], [p.alpha for p in pts])
    assert np.allclose(back[:, 1], [p.rho for p in pts])
    assert np.allclose(back[:, 2], [p.eta for p in pts])


def study_of(records, misfit2_slope=2.0, param_error_slope=0.5):
    return rs.RateStudyResult(tuple(records), misfit2_slope, param_error_slope, ())


def test_rates_csv_schema_and_roundtrip(tmp_path, data_dir, monkeypatch):
    recs = [
        RateStudyRecord(delta=1e-3, alpha=1e-3, misfit2=2e-6, param_error=0.02, seed=0),
        RateStudyRecord(delta=1e-2, alpha=1e-2, misfit2=2e-4, param_error=0.07, seed=1),
    ]
    out = cli_artifacts(tmp_path / "out", data_dir, monkeypatch, "rates", rate_study=study_of(recs))
    path = out / "rates.csv"
    text = path.read_text().splitlines()
    assert text[0] == "delta,alpha,misfit2,param_error,seed"
    back = np.genfromtxt(path, delimiter=",", skip_header=1)
    assert back.shape == (2, 5)
    assert np.allclose(back[:, 0], [r.delta for r in recs])
    assert back[1, 4] == 1


def test_csv_rewrite_is_byte_identical(tmp_path, data_dir, monkeypatch):
    pts, _ = right_angle_points()
    p1, p2 = (cli_artifacts(tmp_path / name, data_dir, monkeypatch, "lcurve",
                            lcurve_sweep=(pts, ())) / "lcurve.csv" for name in ("a", "b"))
    assert p1.read_bytes() == p2.read_bytes()


def test_plot_scripts_are_valid_python(tmp_path, data_dir, monkeypatch):
    pts, _ = right_angle_points()
    lpath = cli_artifacts(tmp_path / "l", data_dir, monkeypatch, "lcurve",
                          lcurve_sweep=(pts, ()), lcurve_corner=(1e-5, ())) / "plot_lcurve.py"
    src = lpath.read_text()
    compile(src, str(lpath), "exec")
    assert "lcurve.csv" in src
    assert "1.000e-05" in src

    rpath = cli_artifacts(tmp_path / "r", data_dir, monkeypatch, "rates",
                          rate_study=study_of([], 2.01, 0.48)) / "plot_rates.py"
    src = rpath.read_text()
    compile(src, str(rpath), "exec")
    assert "rates.csv" in src
    assert "2.010" in src and "0.480" in src
