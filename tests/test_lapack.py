"""scipy's LAPACK routines, loaded without the scipy.linalg package import."""

import dataclasses
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import cholesky, lapack

from chemid import _lapack
from chemid.errors import NumericalSolveError
from chemid.sensitivity import SensitivityFunction, mass_matrix
from helpers import small_problem

#: One 51x250 ``solve_forward`` and one penalty root in a fresh
#: interpreter, saved to argv[1].  With argv[2] == "fallback" the loader
#: finds no extension file while chemid is imported, so chemid takes its
#: routines from ``scipy.linalg.lapack``.
FRESH_SOLVE = """\
import importlib.machinery, sys
import numpy as np

suffixes = list(importlib.machinery.EXTENSION_SUFFIXES)
if sys.argv[2] == "fallback":
    importlib.machinery.EXTENSION_SUFFIXES.clear()
from chemid.inversion import TikhonovProblem
from chemid.pde import PhysicalParams, SimulationGrid, solve_forward
from chemid.sensitivity import SensitivityFunction
from chemid.synthdata import add_noise, myerscough_initial_data
importlib.machinery.EXTENSION_SUFFIXES[:] = suffixes

p = PhysicalParams(M=0.25, D=1.0, b=8.0, h=1.0, mu=8.0)
g = SimulationGrid(0.0, 1.0, 51, 0.25, 250)
u0, c0 = myerscough_initial_data(g)
a = SensitivityFunction.from_function(lambda c: 2 / c, 0.1, 0.9, 16)
traj = solve_forward(u0, c0, p, a, g)
a_star = SensitivityFunction.constant(1.0, 0.1, 0.9, 16)
prob = TikhonovProblem(add_noise(traj, 0.0, 0), 7e-3, a_star, p, u0, c0)
np.savez(sys.argv[1], X=traj.X, root=prob._penalty_root, linalg="scipy.linalg" in sys.modules)
"""


def fresh_solve(tmp_path, mode):
    out = tmp_path / f"{mode}.npz"
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_SOLVE, str(out), mode], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return np.load(out)


def test_fallback_gives_the_same_solve_and_penalty_root_bit_for_bit(tmp_path):
    path, fallback = fresh_solve(tmp_path, "path"), fresh_solve(tmp_path, "fallback")
    assert not path["linalg"] and fallback["linalg"]
    for key in ("X", "root"):
        assert path[key].shape == fallback[key].shape
        assert path[key].tobytes() == fallback[key].tobytes()


@pytest.mark.parametrize("error", [ImportError, OSError])
def test_load_falls_back_to_scipy_linalg_lapack(monkeypatch, error):
    def broken():
        raise error("no extension")

    monkeypatch.setattr(_lapack, "_load_flapack", broken)
    assert _lapack.load() is lapack


def test_loaded_routines_are_scipys():
    flapack = _lapack._load_flapack()
    assert flapack is sys.modules[_lapack.FLAPACK]
    for name in ("dgttrf", "dgttrs", "dpotrf"):
        assert getattr(_lapack, name) is getattr(flapack, name) is getattr(lapack, name)


@pytest.mark.parametrize("c_min, c_max", [(0.0, 1.0), (0.1, 0.7), (0.2, 1.4), (0.05, 3.3)])
def test_penalty_root_equals_scipy_cholesky_bit_for_bit(c_min, c_max):
    prob, _, _ = small_problem(alpha=7e-3)
    for n_basis in range(2, 40):
        a_star = SensitivityFunction.constant(1.0, c_min, c_max, n_basis)
        root = dataclasses.replace(prob, a_star=a_star)._penalty_root
        B = mass_matrix(n_basis, c_min, c_max)
        expected = math.sqrt(prob.alpha) * cholesky(B, lower=True).T
        assert root.shape == expected.shape
        assert root.tobytes() == expected.tobytes()


def test_penalty_root_of_a_singular_gram_matrix_raises():
    prob, _, _ = small_problem(alpha=7e-3)
    # the knot spacing 5e-324 / 2 rounds to 0, so B = 0
    a_star = SensitivityFunction.constant(1.0, 0.0, 5e-324, 3)
    with pytest.raises(NumericalSolveError, match="info=1"):
        dataclasses.replace(prob, a_star=a_star)._penalty_root
