"""Bit pins of the forward and tangent solves at the benchmark's shapes.

``test_cli.ARTIFACT_SHA256`` pins 21x60 solves with 4 hats and at most two
rows.  These pin the shapes the benchmark runs: the 51x250 Myerscough grid
forward with a = 2/c and a = 100/c (the two ends of the stiff-forward
ladder; the first keeps every face central, the second makes the blended
rule donate on some), J^T J and J^T r of one 24-hat tangent solve (the
criterion-2 fit's shape) and one 15-row x 4-hat lockstep round (the rate
study's shape).  A change that moves a number on purpose updates this
table and says so.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from chemid import config as cfgmod
from chemid.inversion import TikhonovProblem, _run_lockstep
from chemid.pde import PhysicalParams, SimulationGrid, solve_forward
from chemid.sensitivity import SensitivityFunction, concentration_range
from chemid.synthdata import add_noise, myerscough_initial_data

from helpers import evaluation

#: SHA-256 of the bytes each test hashes.  Recorded with numpy 2.4.6 and
#: scipy 1.17.1 on x86-64 Linux.
STEP_SHA256 = {
    "forward-inverse-2":
        "26865ac0ae22fc7d66fadced082c93782e10da29610d889fc8e80f1c3fb64851",
    "forward-inverse-100":
        "95f087584f9aa46e596d7c10c175d95dc1f3eaad029189f9fad25239d81b53b9",
    "tangent-24-hats":
        "cd1efd07f670a032aacdff91ef6cb75c12f8a89f30d13f97fd3f106327f60c09",
    "lockstep-15x4":
        "a74c69cd40d1ab215dce441ccd86e1f54135bfaf0b6b656b4f3a6adb26df7cfa",
}

GRID = SimulationGrid(0.0, 1.0, 51, 0.25, 250)
MYERSCOUGH = PhysicalParams.myerscough()


def sha(*arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("k", [2, 100])
def test_forward_bits_at_the_stiff_forward_shapes(k):
    # the CLI's inverse:<k> truth, as ``chemid forward`` solves it
    u0, c0 = myerscough_initial_data(GRID)
    traj = solve_forward(u0, c0, MYERSCOUGH, cfgmod._sensitivity(f"inverse:{k}"), GRID)
    assert sha(traj.X) == STEP_SHA256[f"forward-inverse-{k}"]


def problem(n_basis, params=MYERSCOUGH, c0=None, truth=lambda c: 2.0 / c, delta=1e-3):
    """A Tikhonov problem on GRID: data of ``truth`` with noise delta, the
    prior 15 (1 - c)^2 on ``n_basis`` hats over the data's c-range."""
    u0, c0m = myerscough_initial_data(GRID)
    c0 = c0m if c0 is None else c0
    data = add_noise(solve_forward(u0, c0, params, truth, GRID), delta, 0)
    lo, hi = concentration_range(data, padding=0.1)
    a_star = SensitivityFunction.from_function(lambda c: 15.0 * (1.0 - c) ** 2, lo, hi, n_basis)
    return TikhonovProblem(data=data, alpha=1e-5, a_star=a_star, params=params, u0=u0, c0=c0)


def test_tangent_bits_of_a_24_hat_solve():
    prob = problem(24)
    ((cost, split, JTJ, JTr),) = _run_lockstep([prob], [evaluation(prob.a_star.coeffs)])
    assert sha(JTJ, JTr) == STEP_SHA256["tangent-24-hats"]


def test_lockstep_bits_of_a_15_row_round():
    # the rate study's system (b = 300, c0 = 3, truth 1/3) with 4 hats: 15
    # cells of five noise levels and three seeds, each at its own coefficients
    params = dataclasses.replace(MYERSCOUGH, b=300.0)
    base = problem(4, params, np.full(GRID.n_nodes, 3.0), lambda c: np.full_like(c, 1 / 3), 0.0)
    probs, rows = [], []
    for i, delta in enumerate((1e-3, 3e-3, 1e-2, 3e-2, 1e-1)):
        for seed in range(3):
            noisy = add_noise(base.data, delta, seed)
            probs.append(dataclasses.replace(base, data=noisy, alpha=1.0))
            rows.append(np.linspace(0.2, 0.4, 4) * (1.0 + 0.01 * (3 * i + seed)))
    replies = _run_lockstep(probs, [evaluation(q) for q in rows])
    assert sha(*(part for cost, _, JTJ, JTr in replies for part in (np.array(cost), JTJ, JTr))) \
        == STEP_SHA256["lockstep-15x4"]
