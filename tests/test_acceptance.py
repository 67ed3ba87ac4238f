"""End-to-end acceptance criteria.

Each test prints one ``CRITERION n PASS|FAIL`` line (bypassing capture) and
then asserts, so a full run shows the per-criterion verdicts even when one
of them fails.  Expensive scenario runs are shared through module-scoped
fixtures.  All tolerances are pinned here, not imported.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from helpers import (
    dense_one_step,
    objective,
    quadrature_sq_distance,
    run_request,
    simpson_gram_entry,
    small_problem,
    trajectory_distance,
)
from test_regselect import right_angle_points

from chemid.inversion import (
    LMConfig,
    TikhonovProblem,
    levenberg_marquardt,
    residual_vector,
)
from chemid.pde import (
    PhysicalParams,
    SimulationGrid,
    StateTrajectory,
    mass,
    solve_forward,
    space_time_sq_norm,
)
from chemid.regselect import lcurve_corner, lcurve_sweep, rate_study
from chemid.sensitivity import SensitivityFunction, concentration_range
from chemid.synthdata import add_noise, make_dataset, myerscough_initial_data

PARAMS = PhysicalParams(M=0.25, D=1.0, b=50.0, h=1.0, mu=50.0)
MEAS = SimulationGrid(0.0, 1.0, 51, 0.25, 250)
FINE = MEAS.with_resolution(201, 2000)

EX2_DELTA = 1e-3
EX2_SEED = 0
EX2_CFG = LMConfig(max_iters=60)


def announce(capsys, n: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nCRITERION {n} {'PASS' if ok else 'FAIL'}: {detail}",
              flush=True)


def a_const2(c):
    return np.full_like(np.asarray(c, dtype=float), 2.0)


def a_inv2(c):
    return 2.0 / np.asarray(c, dtype=float)


@pytest.fixture(scope="module")
def ex1():
    """Clean-data sanity identification on the 51-node mesh.

    Data and forward model share one discretization, so the constant
    truth is exactly representable and recovery must be essentially
    exact; the mesh-separated pipeline is exercised by the noisy
    scenarios below.
    """
    t0 = time.time()
    u0, c0 = myerscough_initial_data(MEAS)
    truth = solve_forward(u0, c0, PARAMS, a_const2, MEAS)
    data = add_noise(truth, 0.0, 0)
    lo, hi = concentration_range(truth, padding=0.0)
    a_star = SensitivityFunction.constant(1.0, lo, hi, 2)
    prob = TikhonovProblem(
        data=data, alpha=0.0, a_star=a_star, params=PARAMS, u0=u0, c0=c0,
    )
    res = levenberg_marquardt(prob, a_star, LMConfig())
    wall = time.time() - t0
    cs = np.linspace(lo, hi, 2001)
    dev = float(np.max(np.abs(res.a_hat(cs) - 2.0)))
    return {"res": res, "prob": prob, "dev": dev, "wall": wall,
            "interval": (lo, hi)}


@pytest.fixture(scope="module")
def ex2():
    """Keller-Segel recovery at delta=1e-3 plus the L-curve sweep."""
    u0f, c0f = myerscough_initial_data(FINE)
    u0m, c0m = myerscough_initial_data(MEAS)
    t0 = time.time()
    ds = make_dataset(a_inv2, PARAMS, FINE, MEAS, u0f, c0f, EX2_DELTA, EX2_SEED)
    lo, hi = concentration_range(ds.truth_meas, padding=0.0)
    a_star = SensitivityFunction.from_function(
        lambda c: 15.0 * (1.0 - np.asarray(c, dtype=float)) ** 2, lo, hi, 24
    )
    prob = TikhonovProblem(
        data=ds.data, alpha=1e-5, a_star=a_star, params=PARAMS,
        u0=u0m, c0=c0m,
    )
    res_reg = levenberg_marquardt(prob, a_star, EX2_CFG)
    res_unreg = levenberg_marquardt(dataclasses.replace(prob, alpha=0.0), a_star, EX2_CFG)
    wall = time.time() - t0
    points, _ = lcurve_sweep(prob, np.logspace(-8, -2, 13), EX2_CFG)
    return {
        "prob": prob,
        "res_reg": res_reg,
        "res_unreg": res_unreg,
        "points": points,
        "c_range": (lo, hi),
        "wall": wall,
    }


@pytest.fixture(scope="module")
def rates():
    """Noise-vs-error study: strong production, constant truth 1/3."""
    params = PhysicalParams(M=0.25, D=1.0, b=300.0, h=1.0, mu=50.0)
    meas = SimulationGrid(0.0, 1.0, 51, 0.25, 250)
    fine = meas.with_resolution(201, 1000)
    u0f, _ = myerscough_initial_data(fine)
    u0m, _ = myerscough_initial_data(meas)
    c0f = np.full(fine.n_nodes, 3.0)
    c0m = np.full(meas.n_nodes, 3.0)
    third = lambda c: np.full_like(np.asarray(c, dtype=float), 1.0 / 3.0)
    ds = make_dataset(third, params, fine, meas, u0f, c0f, 0.0, 0)
    lo, hi = concentration_range(ds.truth_meas, padding=0.1)
    a_star = SensitivityFunction.constant(0.25, lo, hi, 4)
    truth = SensitivityFunction.constant(1.0 / 3.0, lo, hi, 4)
    prob = TikhonovProblem(
        data=ds.data, alpha=1.0, a_star=a_star, params=params,
        u0=u0m, c0=c0m,
    )
    return rate_study(
        prob, truth, ds.truth_meas,
        (1e-3, 3e-3, 1e-2, 3e-2, 1e-1), seeds=(0, 1, 2),
    )


def test_criterion_1_constant_recovery_clean_data(ex1, capsys):
    dev, wall = ex1["dev"], ex1["wall"]
    ok = dev <= 1e-3 and wall <= 120.0
    announce(capsys, 1, ok, f"L-inf deviation from 2 = {dev:.4e} (bar 1e-3), "
                    f"runtime {wall:.0f}s (bar 120s)")
    assert wall <= 120.0
    assert dev <= 1e-3


def test_criterion_2_keller_segel_recovery(ex2, capsys):
    lo, hi = ex2["c_range"]
    truth = a_inv2
    den = quadrature_sq_distance(
        lambda c: np.zeros_like(np.asarray(c, float)), truth, 0.1794, 0.6398
    )

    def rel(a_hat):
        num = quadrature_sq_distance(a_hat, truth, 0.1794, 0.6398)
        return float(np.sqrt(num / den))

    rel_reg = rel(ex2["res_reg"].a_hat)
    rel_unreg = rel(ex2["res_unreg"].a_hat)
    wall = ex2["wall"]
    ok = (
        abs(lo - 0.1794) <= 0.02
        and abs(hi - 0.6398) <= 0.02
        and rel_reg <= 0.10
        and rel_unreg > rel_reg
        and wall <= 600.0
    )
    announce(capsys, 2, ok, f"rel L2 error {rel_reg:.4f} (bar 0.10), alpha=0 error "
                    f"{rel_unreg:.4f} (must exceed), c in [{lo:.4f},{hi:.4f}], "
                    f"runtime {wall:.0f}s (bar 600s)")
    assert abs(lo - 0.1794) <= 0.02
    assert abs(hi - 0.6398) <= 0.02
    assert rel_reg <= 0.10
    assert rel_unreg > rel_reg
    assert wall <= 600.0


def test_criterion_3_rate_slopes(rates, capsys):
    m_slope = rates.misfit2_slope
    p_slope = rates.param_error_slope
    ok = 1.7 <= m_slope <= 2.3 and 0.3 <= p_slope <= 0.7
    announce(capsys, 3, ok, f"misfit^2 slope {m_slope:.3f} (window [1.7, 2.3]), "
                    f"param-error slope {p_slope:.3f} (window [0.3, 0.7])")
    assert len(rates.records) == 15
    assert 1.7 <= m_slope <= 2.3
    assert 0.3 <= p_slope <= 0.7


def test_criterion_4_forward_property_battery(capsys):
    checks = {}
    u0, c0 = myerscough_initial_data(MEAS)

    runs = [
        ("blended a=2", solve_forward(u0, c0, PARAMS, a_const2, MEAS)),
        ("upwind a=2", solve_forward(u0, c0, PARAMS, a_const2, MEAS,
                                     advection="upwind")),
        ("blended a=2/c", solve_forward(u0, c0, PARAMS, a_inv2, MEAS)),
    ]
    cbar0 = float(c0.min())
    for name, traj in runs:
        m0 = mass(traj.u[0], MEAS)
        drift = max(abs(mass(u, MEAS) - m0) for u in traj.u) / abs(m0)
        checks[f"mass {name}"] = drift <= 1e-10
        checks[f"u>=0 {name}"] = float(traj.u.min()) >= -1e-12
        checks[f"c bound {name}"] = all(
            float(c.min()) >= cbar0 * math.exp(-PARAMS.mu * t) * (1.0 - 1e-8)
            for t, c in zip(MEAS.times(), traj.c)
        )

    sym = runs[0][1]
    flip_dev = max(
        float(np.max(np.abs(sym.u - sym.u[:, ::-1]))),
        float(np.max(np.abs(sym.c - sym.c[:, ::-1]))),
    )
    checks["reflection symmetry"] = flip_dev <= 1e-9

    g = SimulationGrid(0.0, 1.0, 16, 0.002, 1)
    xs = g.xs()
    u0s = 1.0 + np.exp(-20.0 * (xs - 0.4) ** 2)
    c0s = 0.5 + 0.2 * np.cos(np.pi * xs)
    oracle_dev = 0.0
    for adv in ("blended", "upwind"):
        # a one-frame solve is exactly one IMEX step
        got = solve_forward(u0s, c0s, PARAMS, a_inv2, g, advection=adv)
        want_u, want_c = dense_one_step(u0s, c0s, PARAMS, a_inv2, g.dx, g.dt,
                                        advection=adv)
        oracle_dev = max(
            oracle_dev,
            float(np.max(np.abs(got.u[1] - want_u))),
            float(np.max(np.abs(got.c[1] - want_c))),
        )
    checks["dense one-step oracle"] = oracle_dev <= 1e-10

    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    announce(capsys, 4, ok, f"mass/positivity/lower-bound on 3 runs, reflection "
                    f"{flip_dev:.2e} (bar 1e-9), oracle {oracle_dev:.2e} "
                    f"(bar 1e-10)" + (f"; FAILED: {failed}" if failed else ""))
    assert not failed


def test_criterion_5_optimizer_correctness(ex1, ex2, capsys):
    checks = {}

    # gradient of the full Tikhonov objective vs central differences
    prob, a_true, _ = small_problem(alpha=1e-3, delta=1e-2)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        coeffs = a_true.coeffs + rng.uniform(-0.3, 0.3, prob.n_basis)
        # the gradient the LM itself uses, 2 J^T r from its one-solve evaluation
        evaluated = run_request(coeffs, prob)
        grad = 2.0 * evaluated[2]
        for k in range(prob.n_basis):
            e = np.zeros(prob.n_basis)
            e[k] = 1e-5 * max(abs(coeffs[k]), 1.0)
            fd = (objective(coeffs + e, prob)
                  - objective(coeffs - e, prob)) / (2.0 * e[k])
            worst = max(worst, abs(grad[k] - fd) / max(abs(fd), 1e-12))
    checks["gradient vs central fd"] = worst <= 1e-4

    # accepted-step cost sequences are monotone on all acceptance runs
    results = [ex1["res"], ex2["res_reg"], ex2["res_unreg"]]
    results += [p.result for p in ex2["points"]]
    mono = all(
        all(b <= a * (1.0 + 1e-15) for a, b in zip(res.cost_history,
                                                   res.cost_history[1:]))
        for res in results
    )
    checks["monotone cost histories"] = mono

    # reported norms equal independently accumulated sums
    res = ex2["res_reg"]
    p2 = ex2["prob"]
    r = residual_vector(res.a_hat.coeffs, p2)
    n_data = 2 * (p2.data.grid.n_steps + 1) * p2.data.grid.n_nodes
    misfit = math.fsum(float(x) * float(x) for x in r[:n_data])
    pen_rows = math.fsum(float(x) * float(x) for x in r[n_data:])
    total = math.fsum(float(x) * float(x) for x in r)
    split_ok = (
        abs(misfit - res.residual_norm2) <= 1e-12 * max(res.residual_norm2, 1e-300)
        and abs(pen_rows / p2.alpha - res.penalty_norm2)
        <= 1e-12 * max(res.penalty_norm2, 1e-300)
        and abs(total - res.final_cost) <= 1e-12 * max(res.final_cost, 1e-300)
    )
    checks["norms vs fsum (1e-12)"] = split_ok

    # penalty seminorm against a from-scratch Simpson Gram matrix
    d = res.a_hat.coeffs - p2.a_star.coeffs
    nb = p2.n_basis
    gram = np.array([[simpson_gram_entry(i, j, nb, p2.a_star.c_min,
                                         p2.a_star.c_max)
                      for j in range(nb)] for i in range(nb)])
    pen_quad = float(d @ gram @ d)
    checks["penalty vs Simpson Gram"] = (
        abs(pen_quad - res.penalty_norm2) <= 1e-6 * max(res.penalty_norm2, 1e-300)
    )

    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    announce(capsys, 5, ok, f"worst gradient mismatch {worst:.2e} (bar 1e-4), "
                    f"{len(results)} monotone histories, norm splits to 1e-12"
                    + (f"; FAILED: {failed}" if failed else ""))
    assert not failed


def test_criterion_6_identifiability_smoke(capsys):
    u0, c0 = myerscough_initial_data(MEAS)
    full = solve_forward(u0, c0, PARAMS, a_const2, MEAS)

    # self-consistency: restart from the midpoint frame and re-solve
    j_half = MEAS.n_steps // 2
    t_half = MEAS.times()[j_half]
    second = SimulationGrid(
        MEAS.x_left, MEAS.x_right, MEAS.n_nodes,
        MEAS.t_final - t_half, MEAS.n_steps - j_half,
    )
    re = solve_forward(full.u[j_half], full.c[j_half], PARAMS, a_const2, second)
    glued = StateTrajectory(grid=MEAS, X=np.concatenate([full.X[:j_half], re.X]))
    scale = math.sqrt(
        space_time_sq_norm(full.u, MEAS)
        + space_time_sq_norm(full.c, MEAS)
    )
    tol = max(trajectory_distance(full, glued), 1e-15 * scale)

    other = solve_forward(u0, c0, PARAMS, a_inv2, MEAS)
    dist = trajectory_distance(full, other)
    ok = dist >= 1e3 * tol
    announce(capsys, 6, ok, f"trajectory distance {dist:.4e} vs 1e3 x "
                    f"self-consistency tolerance {tol:.2e}")
    assert dist >= 1e3 * tol


def test_criterion_7_lcurve_corner(ex2, capsys):
    pts, alphas = right_angle_points()
    exact, _ = lcurve_corner(pts)
    corner, _ = lcurve_corner(ex2["points"])
    decades = abs(math.log10(corner) - math.log10(1e-5))
    ok = exact == alphas[4] and decades <= 1.0 + 1e-9
    announce(capsys, 7, ok, f"right-angle vertex exact ({exact:.1e}), swept corner "
                    f"{corner:.1e} is {decades:.2f} decades from 1e-5 (bar 1)")
    assert exact == alphas[4]
    assert decades <= 1.0 + 1e-9
