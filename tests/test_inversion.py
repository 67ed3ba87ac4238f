"""Objective/residual consistency and Levenberg-Marquardt behavior."""

import dataclasses

import numpy as np
import pytest
from scipy.linalg import cholesky

import chemid.inversion as inv
from chemid import cli, pde
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
    hat_stencil,
    mass_matrix,
)
from chemid.regselect import lcurve_sweep, rate_study
from chemid.synthdata import NoisyData, add_noise, myerscough_initial_data
from helpers import (
    active_directions,
    assert_bounded,
    block_bytes,
    central_jacobian,
    closed_rows,
    dimensionless,
    evaluation,
    full_span,
    objective,
    penalty,
    per_frame_fold,
    run_request,
    small_problem,
    tangent_jacobian,
    traced_peak,
)
from test_cli import data_dir, invert_cfg  # noqa: F401 (data_dir is a fixture)


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


def wide_problem(alpha):
    """small_problem's with a prior on c in [-1e299, 1e299], where the hat
    Gram matrix B reaches 4.4e298, so alpha B overflows from alpha = 1e10."""
    prob, _, truth = small_problem()
    a_star = SensitivityFunction.constant(1.0, -1e299, 1e299, prob.n_basis)
    return dataclasses.replace(prob, alpha=alpha, a_star=a_star), truth


OVERFLOW = (r"the penalty alpha \* B is not finite: alpha=1e\+10"
            r" on the c-interval \[-1e\+299, 1e\+299\]")


def test_a_penalty_that_overflows_is_refused_when_the_problem_is_built():
    prob, _ = wide_problem(1.0)
    assert np.isfinite(prob._penalty_gram).all()
    with pytest.raises(InvalidStateError, match=OVERFLOW):
        TikhonovProblem(prob.data, 1e10, prob.a_star, prob.params, prob.u0, prob.c0)
    with pytest.raises(InvalidStateError, match=OVERFLOW):
        dataclasses.replace(prob, alpha=1e10)


def test_sweeps_refuse_an_overflowing_alpha_before_any_solve(monkeypatch):
    template, truth = wide_problem(1e-3)
    real, calls = inv._integrate, []

    def integrate(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(inv, "_integrate", integrate)
    with pytest.raises(InvalidStateError, match=OVERFLOW):
        lcurve_sweep(template, [1e-3, 1e-2, 1e-1, 1.0, 1e10])
    with pytest.raises(InvalidStateError, match=OVERFLOW):
        rate_study(template, template.a_star, truth, (1e-5, 1e-4, 1e-3, 1e-2), 1e12, (0,))
    assert calls == []


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
    "time_refine, block_steps",
    [(1, None), (1, 7), (2, 7), (3, 7), (1, 1)],
    ids=["one_block", "blocks_of_7", "refine_2_blocks_of_7", "refine_3_blocks_of_7",
         "frame_by_frame"],
)
def test_block_fold_equals_per_frame_fold(monkeypatch, time_refine, block_steps):
    # 120 steps are no multiple of 7, nor are the 240 or 360 steps of
    # time_refine 2 or 3; blocks of 7 steps put sampled frames 6 and 8 (or
    # 6 and 9) on either side of the first block boundary, and blocks of
    # one step fold frame by frame (frames 0 and 1 in the first).  The row
    # under test is folded in one round between two rows of other data,
    # alpha and coefficients.
    prob, a_true, truth = small_problem(alpha=2e-3, delta=1e-2)
    prob = dataclasses.replace(prob, time_refine=time_refine)
    coeffs = a_true.coeffs * np.array([0.8, 1.1, 0.95, 1.3])
    rows = [
        (dataclasses.replace(prob, data=add_noise(truth, 3e-2, 5), alpha=1e-1), coeffs * 0.9),
        (prob, coeffs),
        (dataclasses.replace(prob, data=add_noise(truth, 1e-3, 6), alpha=0.0), coeffs * 1.2),
    ]
    if block_steps is not None:  # three rows and their 4 tangents
        monkeypatch.setattr(pde, "_BLOCK_BYTES", block_bytes(
            block_steps, prob.grid.n_nodes, len(rows), prob.n_basis))
    closed = closed_rows(monkeypatch)
    folded = inv._run_lockstep([p for p, _ in rows], [evaluation(c) for _, c in rows])
    for (p, c), r, (cost, split, JTJ, JTr) in zip(rows, closed, folded):
        assert r.tobytes() == residual_vector(c, p).tobytes()
        assert cost == float(r @ r)
        ref_JTJ, ref_JTr = per_frame_fold(tangent_jacobian(c, p), r, p)
        assert np.array_equal(JTJ, ref_JTJ) and np.array_equal(JTr, ref_JTr)


@pytest.mark.parametrize("block_steps", [1, 7], ids=["frame_by_frame", "blocks_of_7"])
@pytest.mark.parametrize("n_basis", [2, 24])
def test_one_row_folds_in_frame_order_at_the_smallest_sums(monkeypatch, n_basis, block_steps):
    # one row with 2 or 24 hats: J^T J is 4 or 576 doubles, and the fold's
    # reduce over a block's k frames and the sums (2k + 1 terms, 3 to 17)
    # must still add them one by one in frame order, u before c, not pairwise
    prob, a_true, _ = small_problem(alpha=2e-3, delta=1e-2, n_basis=n_basis)
    coeffs = a_true.coeffs * np.linspace(0.8, 1.3, n_basis)
    monkeypatch.setattr(pde, "_BLOCK_BYTES", block_bytes(
        block_steps, prob.grid.n_nodes, 1, n_basis))
    closed = closed_rows(monkeypatch)
    cost, split, JTJ, JTr = run_request(coeffs, prob)
    ref_JTJ, ref_JTr = per_frame_fold(tangent_jacobian(coeffs, prob), closed[0], prob)
    assert np.array_equal(JTJ, ref_JTJ) and np.array_equal(JTr, ref_JTr)


@pytest.mark.parametrize("block_steps", [None, 2], ids=["one_block", "blocks_of_2"])
@pytest.mark.parametrize("time_refine", [2, 3])
def test_lockstep_measures_every_kth_solved_frame(monkeypatch, time_refine, block_steps):
    # the 120 frames after frame 0 take 240 or 360 steps, of which the fold
    # measures every time_refine-th; in blocks of 2 steps each block holds
    # one measured frame at time_refine 2, and every third holds none at 3.
    # Row 2's sensitivity turns nan in step 8: it stops with that error and
    # its measured frames before it equal a lone solve's, and the other rows
    # fold as the per-frame fold of their lone tangents does
    prob, a_true, truth = small_problem(alpha=2e-3, delta=1e-2)
    prob = dataclasses.replace(prob, time_refine=time_refine)
    probs = [prob, dataclasses.replace(prob, data=add_noise(truth, 3e-2, 5), alpha=1e-1), prob]
    coeffs = [a_true.coeffs * f for f in (0.9, 1.1, 1.2)]
    n_steps, n_data = prob.model.grid.n_steps, prob.data.X.size
    monkeypatch.setattr(pde, "_BLOCK_BYTES", block_bytes(
        block_steps or n_steps, prob.grid.n_nodes, len(probs), prob.n_basis))
    real, real_close, blocks, closed = inv._integrate, inv._close_row, [], []

    def integrate(model, a, n_rows, record, *tangents):
        def value(face_c):
            blocks.append(None)
            vals = a(face_c)
            if blocks.count(None) == 8:
                vals[2] = np.nan
            return vals

        def measured(j0, X, dX):
            blocks.append((j0, len(X)))
            record(j0, X, dX)

        return real(model, value, n_rows, measured, *tangents)

    def close(prob, coeffs, error, r, JTJ, JTr):
        closed.append(r[:n_data].copy())
        return real_close(prob, coeffs, error, r, JTJ, JTr)

    monkeypatch.setattr(inv, "_integrate", integrate)
    monkeypatch.setattr(inv, "_close_row", close)
    results = inv._run_lockstep(probs, [evaluation(c) for c in coeffs])
    steps, blocks = block_steps or n_steps, [block for block in blocks if block is not None]
    assert [k for _, k in blocks] == [steps + 1] + [steps] * (n_steps // steps - 1)
    assert [j0 for j0, _ in blocks] == list(np.cumsum([0] + [k for _, k in blocks[:-1]]))
    unmeasured = any(-j0 % time_refine >= k for j0, k in blocks)
    assert unmeasured == (block_steps == 2 and time_refine == 3)
    for p, c, r, (cost, split, JTJ, JTr) in zip(probs[:2], coeffs, closed, results):
        r_ref = residual_vector(c, p)
        assert r.tobytes() == r_ref[:n_data].tobytes()
        ref_JTJ, ref_JTr = per_frame_fold(tangent_jacobian(c, p), r_ref, p)
        assert np.array_equal(JTJ, ref_JTJ) and np.array_equal(JTr, ref_JTr)
    assert isinstance(results[2], ForwardSolveError)
    assert "face velocity is not finite in frame 8" in str(results[2])
    n_valid = len(range(0, 8, time_refine))  # measured frames before solved frame 8
    R, R_ref = (x[:n_data].reshape(2, -1, prob.grid.n_nodes)[:, :n_valid]
                for x in (closed[2], residual_vector(coeffs[2], prob)))
    assert np.array_equal(R, R_ref)


def test_lockstep_lm_does_not_depend_on_the_block_size(monkeypatch):
    probs = _many_problems()
    a0s = [p.a_star for p in probs]
    cfg = LMConfig(max_iters=4)
    default = inv.levenberg_marquardt_many(probs, a0s, cfg)
    # 7-step blocks for a round of three rows with 4 tangents on 21 nodes
    monkeypatch.setattr(pde, "_BLOCK_BYTES", block_bytes(7, 21, 3, 4))
    for got, ref in zip(inv.levenberg_marquardt_many(probs, a0s, cfg), default):
        assert got.a_hat.coeffs.tobytes() == ref.a_hat.coeffs.tobytes()
        assert got.cost_history == ref.cost_history
        assert got.residual_norm2 == ref.residual_norm2


@pytest.mark.parametrize("time_refine", [1, 3])
def test_tangent_solve_does_not_depend_on_the_step_block(monkeypatch, time_refine):
    # the 120 or 360 solved steps of one row in blocks of 1, of 7 (which
    # divides neither) and of every step: r, its cost and split, J, J^T J,
    # J^T r and the LM results hold their bits
    prob, a_true, _ = small_problem(alpha=2e-3, delta=1e-2)
    prob = dataclasses.replace(prob, time_refine=time_refine)
    coeffs = a_true.coeffs * np.array([0.8, 1.1, 0.95, 1.3])
    n_steps, n_nodes = prob.model.grid.n_steps, prob.grid.n_nodes
    real, blocks = pde._tangent_coefficients, []

    def coefficients(states, kept, *args):
        blocks.append(len(kept))
        return real(states, kept, *args)

    closed = closed_rows(monkeypatch)

    def run():
        reply, J = run_request(coeffs, prob), tangent_jacobian(coeffs, prob)
        r = closed[-1]
        lm = levenberg_marquardt(prob, prob.a_star, LMConfig(max_iters=4))
        return [np.asarray(x).tobytes() for x in (r, *reply, J, lm.a_hat.coeffs)] + [
            lm.cost_history, (lm.residual_norm2, lm.penalty_norm2)]

    default = run()
    monkeypatch.setattr(pde, "_tangent_coefficients", coefficients)
    for steps in (1, 7, n_steps):
        monkeypatch.setattr(pde, "_BLOCK_BYTES", block_bytes(steps, n_nodes, 1, prob.n_basis))
        blocks.clear()
        assert run() == default
        assert blocks[: -(-n_steps // steps)] == [steps] * (n_steps // steps) + (
            [n_steps % steps] if n_steps % steps else []
        )


def test_a_batched_tangent_solve_takes_one_advance_per_step(monkeypatch):
    # one a(cbar) per step, and one hat geometry per step block: three rows
    # on 21 nodes take 120 steps in blocks of 50, 50 and 20
    probs = _many_problems()
    n_steps = probs[0].model.grid.n_steps
    monkeypatch.setattr(pde, "_BLOCK_BYTES", block_bytes(50, 21, len(probs), probs[0].n_basis))
    real, calls, values, stencils = pde._advance, [], [], []

    def advance(*args):
        calls.append(len(args[0]))
        return real(*args)

    def integrate(model, a, n_rows, record, directions=0, stencil=None):
        def value(face_c):
            values.append(len(face_c))
            return a(face_c)

        def geometry(face_c):
            stencils.append(face_c.shape[:2])
            return stencil(face_c)

        return pde._integrate(model, value, n_rows, record, directions, geometry)

    monkeypatch.setattr(pde, "_advance", advance)
    monkeypatch.setattr(inv, "_integrate", integrate)
    inv._run_lockstep(probs, [evaluation(p.a_star.coeffs) for p in probs])
    assert calls == [len(probs)] * n_steps
    assert values == [len(probs)] * n_steps
    assert stencils == [(50, len(probs)), (50, len(probs)), (20, len(probs))]


@pytest.mark.parametrize("cells, n_basis, time_refine", [(15, 16, 1), (15, 4, 1), (1, 24, 1), (15, 4, 3)],
                         ids=["15x16", "15x4", "1x24", "15x4_refine_3"])
def test_round_bytes_bounds_a_lockstep_lm(cells, n_basis, time_refine):
    # an LM of every cell in lockstep on 51 x 250, each cell's data drawn
    # in the traced region as a rate study draws it, solved with 1 or 3
    # steps a frame: the peak of its rounds is within the count of one round
    g = SimulationGrid(0.0, 1.0, 51, 0.25, 250)
    params, (u0, c0) = PhysicalParams.myerscough(), myerscough_initial_data(g)
    truth = solve_forward(u0, c0, params, SensitivityFunction.constant(2.0, 0.05, 0.95, 4), g)
    a_star = SensitivityFunction.constant(1.5, *concentration_range(truth, padding=0.1), n_basis)
    base = TikhonovProblem(data=add_noise(truth, 0.0, 0), alpha=1e-3, a_star=a_star,
                           params=params, u0=u0, c0=c0, time_refine=time_refine)

    def fit():
        probs = [dataclasses.replace(base, data=add_noise(truth, 1e-2, seed))
                 for seed in range(cells)]
        return inv.levenberg_marquardt_many(probs, [a_star] * cells, LMConfig(max_iters=2))

    peak, results = traced_peak(fit)
    assert all(isinstance(res, InversionResult) and res.iterations for res in results)
    assert_bounded(peak, inv.round_bytes(g, time_refine, cells, n_basis))


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

    def failing_trials(model, a, n_rows, record, directions=0, stencil=None):
        calls["n"] += 1
        if calls["n"] <= 1:  # the starting point
            return real(model, a, n_rows, record, directions, stencil)
        return [NumericalSolveError("injected trial failure")]

    monkeypatch.setattr(inv, "_integrate", failing_trials)
    res = inv.levenberg_marquardt(prob, a0)
    assert not res.converged
    assert "stagnated" in res.message
    assert res.iterations == 0
    assert calls["n"] > 2


def test_lm_starts_a_tiny_lambda0_at_the_damping_floor(monkeypatch):
    # each rejected trial only doubles the damping, so from lambda0 =
    # 1.4e-295 it would take ~1,000 solves to reach a useful one; the start
    # takes the floor that accepted steps keep, and the run is bit for bit
    # the run from lambda0 = LAMBDA_FLOOR, solve for solve
    prob, _, _ = small_problem(alpha=1e-4, delta=1e-2)
    a0 = prob.a_star.with_coeffs(np.full(prob.n_basis, 3.0))
    real, solves = inv._integrate, []

    def integrate(model, a, n_rows, record, directions=0, stencil=None):
        first = []  # each solve's first a(cbar) tells its coefficient rows

        def value(face_c):
            out = a(face_c)
            if not first:
                first.append(out.tobytes())
            return out

        errors = real(model, value, n_rows, record, directions, stencil)
        solves[-1].append((n_rows, first[0]))
        return errors

    monkeypatch.setattr(inv, "_integrate", integrate)
    runs = []
    for lambda0 in (1.4e-295, inv.LAMBDA_FLOOR):
        solves.append([])
        res = levenberg_marquardt(prob, a0, LMConfig(lambda0=lambda0, max_iters=5))
        runs.append((res.a_hat.coeffs.tobytes(), res.cost_history, res.iterations, res.message))
    assert solves[0] == solves[1] and len(solves[0]) < 20
    assert runs[0] == runs[1]


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


def test_lm_returns_a_failed_start_as_its_value():
    prob, _, _ = small_problem()
    body, failed = inv._lm_body(prob, prob.a_star, LMConfig()), ForwardSolveError("injected")
    assert next(body).tobytes() == prob.a_star.coeffs.tobytes()
    with pytest.raises(StopIteration) as stop:
        body.send(failed)
    assert stop.value.value is failed


def test_lockstep_requests_match_one_vector_references(monkeypatch):
    prob, a_true, _ = small_problem(alpha=2e-3, delta=1e-2)
    prob = dataclasses.replace(prob, time_refine=2)
    coeffs = a_true.coeffs * np.array([0.8, 1.1, 0.95, 1.3])
    closed = closed_rows(monkeypatch)
    cost, (misfit, pen), JTJ, JTr = run_request(coeffs, prob)
    r, n_data = residual_vector(coeffs, prob), prob.data.X.size
    assert closed[0].tobytes() == r.tobytes()
    assert cost == float(r @ r) and misfit == float(r[:n_data] @ r[:n_data])
    assert pen == float(r[n_data:] @ r[n_data:]) / prob.alpha
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
    _, _, JTJ, JTr = run_request(coeffs, prob)
    r = residual_vector(coeffs, prob)
    J = central_jacobian(coeffs, prob, 1e-4)
    ref_JTJ, ref_JTr = J.T @ J, J.T @ r
    assert np.max(np.abs(JTJ - ref_JTJ)) <= 1e-6 * np.max(np.abs(ref_JTJ))
    assert np.max(np.abs(JTr - ref_JTr)) <= 1e-6 * np.max(np.abs(ref_JTr))


def poison_tangents(monkeypatch, solve):
    """Make the tangents of the ``solve``-th batched solve inf, leaving its rows as they are."""
    real, calls = pde._integrate, []

    def integrate(model, a, n_rows, record, directions=0, stencil=None):
        calls.append(1)

        def poisoned(j0, X, dX):
            dX[...] = np.inf
            record(j0, X, dX)

        return real(model, a, n_rows, poisoned if len(calls) == solve else record,
                    directions, stencil)

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


def _span_problem(padding, bump=0.0):
    """``small_problem`` with D = 2 and c0 = 1/2 + bump cos(pi x), on 12 hats
    over the c-range of its solve widened by ``padding`` of its width a side,
    and three coefficient rows on them.  Without a bump the face means only
    rise; with one, their top falls first.  D = 2 makes dt D / dx^2 3.3: the
    c-matrix's factor swaps its last two rows (at ks-invert's 2.5 too), so
    a zero right-hand side solves to -0.0 at one node."""
    prob, _, _ = small_problem(alpha=2e-3, delta=1e-2)
    params = dataclasses.replace(prob.params, D=2.0)
    c0 = 0.5 + bump * np.cos(np.pi * prob.grid.xs())
    prob = dataclasses.replace(prob, params=params, c0=c0)
    m = prob.model
    traj = solve_forward(m.u0, m.c0, m.params, prob.a_star, m.grid)
    a_star = SensitivityFunction.constant(1.0, *concentration_range(traj, padding), 12)
    bumps = 1.0 + 0.3 * np.sin(np.arange(12)[None] + np.arange(3)[:, None])
    return dataclasses.replace(prob, a_star=a_star), 1.5 * bumps


SPAN_CASES = pytest.mark.parametrize("padding, bump", [(0.0, 0.0), (1.0, 0.0), (1.0, 0.3)],
                                     ids=["growing", "padded", "shrinking"])


def _segments(prob, coeffs):
    """(lo, hi): per step, the least and greatest hat segment of the face means
    that lone solves of the rows ``coeffs`` step from."""
    m, knots, segs = prob.model, prob.a_star.knots(), []
    for row in coeffs:
        c = solve_forward(m.u0, m.c0, m.params, prob.a_star.with_coeffs(row), m.grid).c[:-1]
        cbar, rows = 0.5 * (c[:, :-1] + c[:, 1:]), np.zeros((len(c), len(knots)))
        segs.append(hat_stencil(cbar, knots, rows)[0])
    return np.min(segs, axis=(0, 2)), np.max(segs, axis=(0, 2))


def _reached_hats(prob, coeffs):
    """The (L,) mask of the hats [min seg, max seg + 2) of the whole solve."""
    lo, hi = _segments(prob, coeffs)
    hats = np.arange(prob.n_basis)
    return (lo.min() <= hats) & (hats < hi.max() + 2)


@SPAN_CASES
def test_the_tangent_span_keeps_the_bits_of_a_full_span(monkeypatch, padding, bump):
    # three rows in one batch, in blocks of 7 steps, step only the hats the
    # face means have reached; r, J^T J and J^T r equal those of a solve that
    # steps all 12 hats from the start, byte for byte.  With the c-range
    # padded by its width a side, some hats are never reached: their rows
    # and columns of the data part of J^T J read exactly 0
    prob, coeffs = _span_problem(padding, bump)
    monkeypatch.setattr(pde, "_BLOCK_BYTES", block_bytes(7, prob.grid.n_nodes, 3, 12))
    closed, data_JTJ, close = closed_rows(monkeypatch), [], inv._close_row

    def keep_data_part(prob, coeffs, error, r, JTJ, JTr):
        data_JTJ.append(JTJ.copy())
        return close(prob, coeffs, error, r, JTJ, JTr)

    monkeypatch.setattr(inv, "_close_row", keep_data_part)

    def run():
        del closed[:], data_JTJ[:]
        replies = inv._run_lockstep([prob] * 3, [evaluation(row) for row in coeffs])
        return [np.asarray(x).tobytes() for reply in replies for x in reply] + [
            r.tobytes() for r in closed] + [JTJ.tobytes() for JTJ in data_JTJ]

    spanned = run()
    reached = _reached_hats(prob, coeffs)
    assert reached.any() and (not reached.all()) == (padding > 0)
    for JTJ in data_JTJ:
        assert not JTJ[~reached].any() and not JTJ[:, ~reached].any()
        assert JTJ[reached][:, reached].all()
    full_span(monkeypatch)
    assert run() == spanned


@SPAN_CASES
def test_the_tangent_span_covers_every_direction_a_full_solve_reaches(padding, bump):
    # the span's two assumptions, read off a solve that steps all 12 hats:
    # the nonzero directions only grow in number, and every step's span
    # holds them.  The spans start narrower than all 12 hats and
    # only widen.  The face means rise, and with a bump in c0 their top falls
    # first, so a step's span must keep hats its own face means no longer reach
    prob, coeffs = _span_problem(padding, bump)
    active, spans = active_directions(coeffs, prob)
    assert not active[0].any() and (active[:-1] <= active[1:]).all()
    hats = np.arange(prob.n_basis)
    assert (active[1:] <= (spans[:, :1] <= hats) & (hats < spans[:, 1:])).all()
    assert spans[0, 1] - spans[0, 0] < prob.n_basis
    assert (np.diff(spans[:, 0]) <= 0).all() and (np.diff(spans[:, 1]) >= 0).all()
    lo, hi = _segments(prob, coeffs)
    assert (active[1:] & (hats < lo[:, None])).any()
    assert (active[1:] & (hats >= hi[:, None] + 2)).any() == (bump > 0)


def test_a_row_with_non_finite_tangents_leaves_the_others_alone(monkeypatch):
    # of three rows on 12 hats over a padded c-range, the middle one's a'(c)
    # is inf in every step.  Its tangents turn nan on the span only; the hats
    # no face mean reaches stay +0.0, since any entry of J^T J that is not
    # finite rejects the row.  The stacked u solve must not carry the nan
    # into the blocks of the rows before and after it: the row fails in
    # _close_row, and its neighbours keep the bits of lone solves
    prob, coeffs = _span_problem(1.0)
    alone = [run_request(row, prob) for row in coeffs[::2]]
    real, last = inv.hat_stencil, []

    def stencil(c, knots, rows):
        seg, frac, slope = real(c, knots, rows)
        slope[..., rows[:, 0] == coeffs[1, 0], :] = np.inf
        return seg, frac, slope

    def integrate(model, a, n_rows, record, *args):
        def keep(j0, X, dX):
            last[:] = [dX[-1, :, :, 1].copy()]
            record(j0, X, dX)

        return pde._integrate(model, a, n_rows, keep, *args)

    monkeypatch.setattr(inv, "hat_stencil", stencil)
    monkeypatch.setattr(inv, "_integrate", integrate)
    replies = inv._run_lockstep([prob] * 3, [evaluation(row) for row in coeffs])
    assert isinstance(replies[1], ForwardSolveError)
    assert str(replies[1]) == "forward solve failed: its Jacobian is not finite"
    for got, want in zip(replies[::2], alone):
        assert [np.asarray(x).tobytes() for x in got] == [np.asarray(x).tobytes() for x in want]
    (dX,) = last
    nan = np.isnan(dX).all(axis=(0, 2))
    assert (nan == _reached_hats(prob, coeffs)).all() and 0 < nan.sum() < prob.n_basis
    assert dX[:, ~nan].tobytes() == bytes(dX[:, ~nan].nbytes)


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


@pytest.mark.parametrize("knobs, message", [
    ({"lambda0": 0.0}, r"lambda0 must be > 0 \(got 0.0\)"),
    ({"lambda0": -1.0}, r"lambda0 must be > 0 \(got -1.0\)"),
    ({"tol_cost": 0.0}, "tolerances must be positive"),
    ({"tol_grad": -1e-8}, "tolerances must be positive"),
    ({"max_iters": 0}, r"max_iters must be >= 1 \(got 0\)"),
])
def test_lm_config_validation(knobs, message):
    with pytest.raises(InvalidStateError, match=f"^{message}$"):
        LMConfig(**knobs)


def test_lm_many_takes_one_guess_a_problem_and_no_problems():
    prob, _, _ = small_problem()
    with pytest.raises(InvalidStateError, match=r"^1 problems but 2 initial guesses$"):
        inv.levenberg_marquardt_many([prob], [prob.a_star] * 2)
    assert inv.levenberg_marquardt_many([], []) == []


@pytest.mark.parametrize("error", [NumericalSolveError("injected"), InvalidStateError("injected")])
def test_residual_vector_of_a_failed_solve_is_a_forward_solve_error(monkeypatch, error):
    prob, _, _ = small_problem()

    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(inv, "solve_forward", failing)
    with pytest.raises(ForwardSolveError, match="^forward solve failed: injected$") as raised:
        residual_vector(prob.a_star.coeffs, prob)
    assert raised.value.__cause__ is error


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


def test_report_file_contents(tmp_path, data_dir):
    # report.txt as the command line writes it, converged or stopped after 5 iterations
    cfg = invert_cfg(tmp_path, data_dir, "max_iters = 5\n")
    assert cli.main(["invert", "--config", cfg, "--out", str(tmp_path)]) in (0, 4)
    text = (tmp_path / "report.txt").read_text()
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
