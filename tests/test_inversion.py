"""Objective/residual consistency and Levenberg-Marquardt behavior."""

import dataclasses

import numpy as np
import pytest
from scipy.linalg import cholesky

import chemid.inversion as inv
from chemid import pde
from chemid.errors import (
    ForwardSolveError,
    IncompatibleBasisError,
    InvalidStateError,
    NumericalSolveError,
)
from chemid.inversion import (
    InversionResult,
    LMConfig,
    TikhonovProblem,
    jacobian_fd,
    levenberg_marquardt,
    residual_vector,
    write_inversion_report,
)
from chemid.pde import (
    PhysicalParams,
    SimulationGrid,
    solve_forward,
    space_time_sq_norm,
)
from chemid.sensitivity import (
    SensitivityFunction,
    concentration_range,
    mass_matrix,
)
from chemid.regselect import rate_study
from chemid.synthdata import NoisyData, add_noise, myerscough_initial_data
from helpers import (
    central_jacobian,
    dimensionless,
    evaluation,
    objective,
    penalty,
    per_frame_fold,
    run_request,
    small_problem,
    tangent_jacobian,
)


# ---------------------------------------------------------------------------
# residual / objective


def test_residual_exact_fit_is_zero():
    prob, a_true, _ = small_problem(alpha=0.0, delta=0.0)
    r = residual_vector(a_true.coeffs, prob)
    assert float(r @ r) < 1e-20


def test_penalty_block_zero_at_prior():
    prob, _, _ = small_problem(alpha=0.3)
    r = residual_vector(prob.a_star.coeffs, prob)
    assert np.all(r[-prob.n_basis :] == 0.0)


def test_objective_matches_direct_summation():
    """Stacked-residual norm equals the hand-assembled discrete objective."""
    prob, a_true, _ = small_problem(alpha=2.5e-3, delta=1e-2)
    coeffs = a_true.coeffs * 1.1 + 0.05
    a = prob.a_star.with_coeffs(coeffs)
    traj = solve_forward(prob.u0, prob.c0, prob.params, a, prob.grid)
    g = prob.grid
    direct = (
        space_time_sq_norm(traj.u - prob.data.u, g)
        + space_time_sq_norm(traj.c - prob.data.c, g)
        + prob.alpha * penalty(a, prob.a_star)
    )
    assert objective(coeffs, prob) == pytest.approx(direct, rel=1e-12)


def test_misfit_term_is_quadrature_weighted():
    # gamma^2 scaling of the data blocks: the weighted residual reproduces
    # dx*dt * sum of squares exactly
    prob, a_true, _ = small_problem(alpha=0.0, delta=5e-3)
    r = residual_vector(a_true.coeffs, prob)
    g = prob.grid
    traj = solve_forward(prob.u0, prob.c0, prob.params, a_true, g)
    e_u = traj.u - prob.data.u
    e_c = traj.c - prob.data.c
    expected = g.dx * g.dt * (np.sum(e_u**2) + np.sum(e_c**2))
    assert float(r @ r) == pytest.approx(expected, rel=1e-13)


def test_residual_rejects_wrong_length():
    prob, _, _ = small_problem()
    with pytest.raises(IncompatibleBasisError):
        residual_vector(np.ones(prob.n_basis + 1), prob)


def test_problem_validation():
    prob, _, _ = small_problem()
    with pytest.raises(InvalidStateError):
        dataclasses.replace(prob, alpha=-1e-3)
    with pytest.raises(InvalidStateError):
        TikhonovProblem(
            data=prob.data,
            alpha=0.0,
            a_star=prob.a_star,
            params=prob.params,
            u0=prob.u0[:-1],
            c0=prob.c0,
        )
    with pytest.raises(InvalidStateError, match=r"c0 must be positive \(min 0.000e\+00\)"):
        dataclasses.replace(prob, c0=np.zeros_like(prob.c0))
    with pytest.raises(InvalidStateError, match=r"u0 must be nonnegative \(min -1.000e\+00\)"):
        dataclasses.replace(prob, u0=np.full_like(prob.u0, -1.0))
    assert not (prob.u0.flags.writeable or prob.c0.flags.writeable)


@pytest.mark.parametrize("alpha", [np.nan, np.inf])
def test_require_alpha_rejects_non_finite_alpha(alpha):
    with pytest.raises(InvalidStateError, match=f"alpha must be finite \\(got {alpha}\\)"):
        inv.require_alpha(alpha)


def test_problem_rejects_unknown_advection_before_any_step(monkeypatch):
    def step(*args):
        raise AssertionError("a step was taken")

    prob, _, _ = small_problem()
    monkeypatch.setattr(pde, "_advance", step)
    with pytest.raises(InvalidStateError, match="unknown advection scheme 'bogus'"):
        TikhonovProblem(
            data=prob.data, alpha=0.0, a_star=prob.a_star, params=prob.params,
            u0=prob.u0, c0=prob.c0, advection="bogus",
        )


def test_problem_model_runs_on_the_refined_mesh():
    prob, _, _ = small_problem()
    refined = dataclasses.replace(prob, time_refine=3)
    assert prob.model.grid == prob.grid
    assert refined.model.grid == prob.grid.with_resolution(21, 3 * prob.grid.n_steps)
    assert refined.model.u0 is refined.u0 and refined.model.c0 is refined.c0


# ---------------------------------------------------------------------------
# jacobian


def test_jacobian_penalty_rows_exact():
    prob, a_true, _ = small_problem(alpha=7e-3)
    J = jacobian_fd(a_true.coeffs, prob)
    B = mass_matrix(prob.n_basis, prob.a_star.c_min, prob.a_star.c_max)
    expected = np.sqrt(prob.alpha) * cholesky(B, lower=True).T
    n_data = J.shape[0] - prob.n_basis
    np.testing.assert_allclose(J[n_data:, :], expected, rtol=0, atol=1e-9)


def test_jacobian_directional_derivative():
    """obj(c + h v) - obj(c) ~ 2 h r^T (J v) with O(h^2) remainder."""
    prob, a_true, _ = small_problem(alpha=1e-3, delta=1e-2)
    coeffs = a_true.coeffs * 0.9
    rng = np.random.default_rng(17)
    v = rng.standard_normal(prob.n_basis)
    v /= np.linalg.norm(v)
    r = residual_vector(coeffs, prob)
    J = jacobian_fd(coeffs, prob, fd_step=1e-7)
    dirderiv = 2.0 * float(r @ (J @ v))
    obj0 = float(r @ r)
    hs = np.array([1e-2, 3e-3, 1e-3, 3e-4])
    errs = np.array(
        [abs(objective(coeffs + h * v, prob) - obj0 - h * dirderiv) for h in hs]
    )
    scale = errs[0] / hs[0] ** 2
    assert np.all(errs <= 3.0 * scale * hs**2)


def test_jacobian_zero_columns_on_uniform_data():
    """Uniform fields never develop gradients, so a(c) cannot matter."""
    p = dimensionless(M=0.25, D=1.0)
    g = SimulationGrid(0.0, 1.0, 11, 0.2, 20)
    u0 = np.full(11, 1.0)
    c0 = np.full(11, 0.55)
    a_true = SensitivityFunction.constant(1.0, 0.3, 0.8, 2)
    truth = solve_forward(u0, c0, p, a_true, g)
    data = add_noise(truth, 0.0, seed=0)
    prob = TikhonovProblem(
        data=data, alpha=0.0, a_star=a_true, params=p, u0=u0, c0=c0
    )
    J = jacobian_fd(a_true.coeffs, prob)
    # dynamics carry no dependence on a; only tridiagonal-solve roundoff
    assert np.max(np.abs(J)) < 1e-10
    np.testing.assert_allclose(J[:, 0], J[:, 1], atol=1e-9)


@pytest.mark.parametrize(
    "time_refine, block_frames",
    [(1, None), (1, 7), (2, 7), (3, 7), (1, 1)],
    ids=["one_block", "blocks_of_7", "refine_2_blocks_of_7", "refine_3_blocks_of_7",
         "frame_by_frame"],
)
def test_block_fold_equals_per_frame_fold(monkeypatch, time_refine, block_frames):
    # 121 measurement frames are no multiple of 7, nor are the 241 or 361
    # solved frames of time_refine 2 or 3; blocks of 7 put sampled frames
    # 6 and 8 (or 6 and 9) on either side of the first block boundary.
    # The row under test is folded in one round between two rows of other
    # data, alpha and coefficients.
    prob, a_true, truth = small_problem(alpha=2e-3, delta=1e-2)
    prob = dataclasses.replace(prob, time_refine=time_refine)
    coeffs = a_true.coeffs * np.array([0.8, 1.1, 0.95, 1.3])
    rows = [
        (dataclasses.replace(prob, data=add_noise(truth, 3e-2, 5), alpha=1e-1), coeffs * 0.9),
        (prob, coeffs),
        (dataclasses.replace(prob, data=add_noise(truth, 1e-3, 6), alpha=0.0), coeffs * 1.2),
    ]
    if block_frames is not None:  # three rows and their 4 tangents per frame
        lanes, n_nodes = len(rows) * (1 + prob.n_basis), prob.grid.n_nodes
        monkeypatch.setattr(pde, "_FRAME_BLOCK_BYTES", block_frames * 16 * lanes * n_nodes)
    folded = inv._run_lockstep([p for p, _ in rows], [evaluation(c) for _, c in rows])
    for (p, c), (r, JTJ, JTr) in zip(rows, folded):
        assert r.tobytes() == residual_vector(c, p).tobytes()
        ref_JTJ, ref_JTr = per_frame_fold(tangent_jacobian(c, p), r, p)
        assert np.array_equal(JTJ, ref_JTJ) and np.array_equal(JTr, ref_JTr)


def test_lockstep_lm_does_not_depend_on_the_block_size(monkeypatch):
    probs = _many_problems()
    a0s = [p.a_star for p in probs]
    cfg = LMConfig(max_iters=4)
    default = inv.levenberg_marquardt_many(probs, a0s, cfg)
    # 7-frame blocks for a round of three 4-row Jacobians on 21 nodes
    monkeypatch.setattr(pde, "_FRAME_BLOCK_BYTES", 7 * 16 * 12 * 21)
    for got, ref in zip(inv.levenberg_marquardt_many(probs, a0s, cfg), default):
        assert got.a_hat.coeffs.tobytes() == ref.a_hat.coeffs.tobytes()
        assert got.cost_history == ref.cost_history
        assert got.residual_norm2 == ref.residual_norm2


def test_gradient_matches_central_differences():
    prob, a_true, _ = small_problem(alpha=1e-3, delta=1e-2)
    rng = np.random.default_rng(23)
    for _ in range(3):
        coeffs = a_true.coeffs + rng.uniform(-0.3, 0.3, prob.n_basis)
        r = residual_vector(coeffs, prob)
        J = jacobian_fd(coeffs, prob, fd_step=1e-7)
        grad = 2.0 * (J.T @ r)
        h = 1e-5
        for k in range(prob.n_basis):
            e = np.zeros(prob.n_basis)
            e[k] = h * max(abs(coeffs[k]), 1.0)
            fd = (objective(coeffs + e, prob) - objective(coeffs - e, prob)) / (
                2.0 * e[k]
            )
            assert grad[k] == pytest.approx(fd, rel=1e-4, abs=1e-12)


# ---------------------------------------------------------------------------
# levenberg-marquardt


def test_lm_exact_start_terminates_immediately():
    prob, a_true, _ = small_problem(alpha=0.0, delta=0.0)
    res = levenberg_marquardt(prob, a_true)
    assert res.converged
    assert res.iterations <= 1
    assert res.final_cost < 1e-20


def test_lm_recovers_constant_from_clean_data():
    prob, a_true, _ = small_problem(alpha=0.0, delta=0.0)
    a0 = prob.a_star
    res = levenberg_marquardt(prob, a0)
    assert res.converged
    assert res.final_cost < 1e-14
    lo, hi = prob.a_star.c_min, prob.a_star.c_max
    cs = np.linspace(lo, hi, 400)
    assert np.max(np.abs(res.a_hat(cs) - 1.5)) < 1e-3
    drops = np.diff(res.cost_history)
    assert np.all(drops <= 0.0)


def test_lm_noisy_run_decomposition_identity():
    prob, a_true, _ = small_problem(alpha=1e-3, delta=5e-3)
    a0 = prob.a_star.with_coeffs(np.full(prob.n_basis, 1.2))
    res = levenberg_marquardt(prob, a0)
    total = res.residual_norm2 + prob.alpha * res.penalty_norm2
    assert total == pytest.approx(res.final_cost, rel=1e-12)
    # penalty_norm2 is the unweighted L2(I) distance to the prior
    assert res.penalty_norm2 == pytest.approx(
        penalty(res.a_hat, prob.a_star), rel=1e-9, abs=1e-15
    )


def test_lm_max_iters_sets_converged_false():
    prob, _, _ = small_problem(alpha=1e-4, delta=1e-2)
    a0 = prob.a_star.with_coeffs(np.full(prob.n_basis, 3.0))
    res = levenberg_marquardt(prob, a0, LMConfig(max_iters=1))
    assert not res.converged
    assert res.iterations == 1


def test_lm_stagnation_flag_on_unimprovable_cost(monkeypatch):
    prob, _, _ = small_problem(alpha=1e-4, delta=1e-2)
    a0 = prob.a_star.with_coeffs(np.full(prob.n_basis, 1.3))
    real = inv._integrate
    calls = {"n": 0}

    def failing_trials(model, a, n_rows, record, every=1, directions=0):
        calls["n"] += 1
        if calls["n"] <= 1:  # the starting point
            return real(model, a, n_rows, record, every, directions)
        return [NumericalSolveError("injected trial failure")]

    monkeypatch.setattr(inv, "_integrate", failing_trials)
    res = inv.levenberg_marquardt(prob, a0)
    assert not res.converged
    assert "stagnated" in res.message
    assert res.iterations == 0
    assert calls["n"] > 2


def test_lm_non_finite_step_is_a_rejected_trial(monkeypatch):
    """A damped solve that returns inf costs one rejected trial, no abort."""
    real = np.linalg.solve
    calls = {"n": 0}

    def inf_once(A, b):
        calls["n"] += 1
        return np.full_like(b, np.inf) if calls["n"] == 1 else real(A, b)

    monkeypatch.setattr(np.linalg, "solve", inf_once)
    prob, _, _ = small_problem(alpha=1e-3, delta=5e-3)
    res = levenberg_marquardt(prob, prob.a_star)
    assert calls["n"] > 1
    assert res.converged and res.iterations >= 1
    assert res.final_cost < res.cost_history[0]

    # inside a rate study the cell that meets it still yields its record
    calls["n"] = 0
    prob, a_true, truth = small_problem(n_basis=3)
    out = rate_study(prob, a_true, truth, (1e-3, 3e-3, 1e-2, 3e-2, 1e-1), seeds=(1,))
    assert calls["n"] > 1
    assert len(out.records) == 5


def _many_problems():
    """Three problems on one forward model with different data and alpha."""
    base, _, _ = small_problem(alpha=1e-4, delta=1e-2, seed=3)
    other = [small_problem(alpha=a, delta=d, seed=s)[0]
             for a, d, s in ((3e-3, 5e-3, 4), (1e-5, 2e-2, 5))]
    return [base] + [dataclasses.replace(base, data=p.data, alpha=p.alpha) for p in other]


def test_lm_many_equals_lone_calls():
    probs = _many_problems()
    # hat 0 holds every initial c; its overflowing slope stops the first solve
    overflow = probs[0].a_star.with_coeffs([1.7e308, 1.0, 1.0, 1.0])
    probs.append(probs[1])
    a0s = [probs[0].a_star, probs[1].a_star.with_coeffs([1.2, 0.9, 1.1, 1.0]),
           probs[2].a_star, overflow]
    cfg = LMConfig(max_iters=8)
    results = inv.levenberg_marquardt_many(probs, a0s, cfg)
    for prob, a0, got in zip(probs[:3], a0s, results):
        alone = levenberg_marquardt(prob, a0, cfg)
        assert got.a_hat.coeffs.tobytes() == alone.a_hat.coeffs.tobytes()
        assert got.cost_history == alone.cost_history
        assert (got.iterations, got.message) == (alone.iterations, alone.message)
    assert isinstance(results[3], ForwardSolveError)
    assert "face velocity" in str(results[3])
    with pytest.raises(ForwardSolveError):
        levenberg_marquardt(probs[3], overflow, cfg)


def test_lockstep_requests_match_one_vector_references():
    prob, a_true, _ = small_problem(alpha=2e-3, delta=1e-2)
    prob = dataclasses.replace(prob, time_refine=2)
    coeffs = a_true.coeffs * np.array([0.8, 1.1, 0.95, 1.3])
    r, JTJ, JTr = run_request(coeffs, prob)
    assert r.tobytes() == residual_vector(coeffs, prob).tobytes()
    J = tangent_jacobian(coeffs, prob)
    ref_JTJ, ref_JTr = J.T @ J, J.T @ r
    assert np.max(np.abs(JTJ - ref_JTJ)) <= 1e-12 * np.max(np.abs(ref_JTJ))
    assert np.max(np.abs(JTr - ref_JTr)) <= 1e-12 * np.max(np.abs(ref_JTr))


@pytest.mark.parametrize(
    "changes", [{}, {"advection": "upwind"}, {"time_refine": 2}],
    ids=["blended", "upwind", "time_refine"],
)
def test_exact_normal_equations_match_central_differences(changes):
    prob, a_true, _ = small_problem(alpha=2e-3, delta=1e-2)
    prob = dataclasses.replace(prob, **changes)
    coeffs = a_true.coeffs * np.array([0.8, 1.1, 0.95, 1.3])
    r, JTJ, JTr = run_request(coeffs, prob)
    J = central_jacobian(coeffs, prob, 1e-4)
    ref_JTJ, ref_JTr = J.T @ J, J.T @ r
    assert np.max(np.abs(JTJ - ref_JTJ)) <= 1e-6 * np.max(np.abs(ref_JTJ))
    assert np.max(np.abs(JTr - ref_JTr)) <= 1e-6 * np.max(np.abs(ref_JTr))


def poison_tangents(monkeypatch, solve):
    """Make the tangents of the ``solve``-th batched solve inf, leaving its rows as they are."""
    real, calls = pde._integrate, []

    def integrate(model, a, n_rows, record, every=1, directions=0):
        calls.append(1)

        def poisoned(j0, X, dX):
            dX[...] = np.inf
            record(j0, X, dX)

        return real(model, a, n_rows, poisoned if len(calls) == solve else record,
                    every, directions)

    monkeypatch.setattr(inv, "_integrate", integrate)


def test_trial_with_a_non_finite_tangent_is_rejected(monkeypatch):
    prob, _, _ = small_problem(alpha=1e-3, delta=5e-3)
    clean = levenberg_marquardt(prob, prob.a_star)
    poison_tangents(monkeypatch, 2)  # the first trial: its residual stays finite
    res = levenberg_marquardt(prob, prob.a_star)
    assert clean.cost_history[1] not in res.cost_history
    assert res.converged and res.final_cost < res.cost_history[0]
    poison_tangents(monkeypatch, 1)
    with pytest.raises(ForwardSolveError, match="Jacobian is not finite"):
        levenberg_marquardt(prob, prob.a_star)


def test_a_row_with_non_finite_tangents_leaves_the_others_alone(monkeypatch):
    # the first row's a'(c) is inf in every step: its tangents are nan from
    # the first step on, and the stacked u solve must not carry them into
    # the next row's block
    prob, a_true, _ = small_problem(alpha=2e-3, delta=1e-2)
    coeffs = a_true.coeffs * np.array([0.8, 1.1, 0.95, 1.3])
    poisoned = coeffs * 1.05
    alone = run_request(coeffs, prob)
    real = inv.hat_stencil

    def stencil(c, knots, rows):
        seg, frac, value, slope = real(c, knots, rows)
        slope[rows[:, 0] == poisoned[0]] = np.inf
        return seg, frac, value, slope

    monkeypatch.setattr(inv, "hat_stencil", stencil)
    both = inv._run_lockstep([prob, prob], [evaluation(poisoned), evaluation(coeffs)])
    assert isinstance(both[0], ForwardSolveError) and "not finite" in str(both[0])
    assert [x.tobytes() for x in both[1]] == [x.tobytes() for x in alone]


@pytest.mark.parametrize(
    "change",
    [
        {"advection": "upwind"},
        {"time_refine": 2},
        {"params": PhysicalParams(M=0.25, D=1.0, b=8.0, h=1.0, mu=9.0)},
        {"c0": np.full(21, 0.6)},
        {"a_star": SensitivityFunction.constant(1.0, 0.45, 0.6, 4)},
    ],
    ids=["advection", "time_refine", "params", "c0", "basis"],
)
def test_lm_many_rejects_mismatched_model(change):
    probs = _many_problems()
    probs[1] = dataclasses.replace(probs[1], **change)
    with pytest.raises(InvalidStateError, match="share"):
        inv.levenberg_marquardt_many(probs, [p.a_star for p in probs])


def test_lm_rejects_mismatched_initial_guess():
    prob, _, _ = small_problem()
    with pytest.raises(IncompatibleBasisError):
        levenberg_marquardt(
            prob,
            SensitivityFunction.constant(
                1.0, prob.a_star.c_min, prob.a_star.c_max, prob.n_basis + 2
            ),
        )


def test_result_validates_monotone_history():
    a = SensitivityFunction.constant(1.0, 0.0, 1.0, 2)
    with pytest.raises(InvalidStateError):
        InversionResult(
            a_hat=a,
            cost_history=(1.0, 2.0),
            residual_norm2=1.0,
            penalty_norm2=0.0,
            iterations=1,
            converged=True,
        )


def test_report_file_contents(tmp_path):
    prob, a_true, _ = small_problem(alpha=1e-3, delta=5e-3)
    a0 = prob.a_star.with_coeffs(np.full(prob.n_basis, 1.2))
    res = levenberg_marquardt(prob, a0, LMConfig(max_iters=5))
    path = tmp_path / "report.txt"
    write_inversion_report(res, prob, path)
    text = path.read_text()
    for key in (
        "iterations",
        "converged",
        "final_cost",
        "residual_norm2",
        "penalty_norm2",
        "alpha",
        "delta",
        "seed",
    ):
        assert f"{key} = " in text
