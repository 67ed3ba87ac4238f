"""Hat-basis sensitivity representation tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chemid.errors import (
    IncompatibleBasisError,
    InvalidStateError,
    ZeroWidthIntervalError,
)
from scipy.linalg import cholesky

from chemid.pde import SimulationGrid, StateTrajectory
from chemid.sensitivity import (
    SensitivityFunction,
    concentration_range,
    hat_stencil,
    mass_matrix,
    read_sensitivity_csv,
    require_interval,
    require_padding,
    require_same_basis,
    same_basis,
    write_sensitivity_csv,
)

from helpers import penalty, quadrature_sq_distance, simpson_gram_entry


# ---------------------------------------------------------------------------
# evaluation


def test_eval_partition_of_unity():
    """Constant coefficients reproduce the constant everywhere on I."""
    a = SensitivityFunction.constant(2.0, 0.1, 0.7, 16)
    cs = np.random.default_rng(7).uniform(0.1, 0.7, 1000)
    assert np.max(np.abs(a(cs) - 2.0)) <= 1e-14


def test_eval_two_knot_interpolation():
    a = SensitivityFunction(0.0, 1.0, np.array([0.0, 1.0]))
    assert a(0.25) == pytest.approx(0.25, abs=1e-15)


def test_eval_hits_knot_values_exactly():
    rng = np.random.default_rng(3)
    a = SensitivityFunction(0.2, 0.9, rng.uniform(-1, 3, 9))
    np.testing.assert_array_equal(a(a.knots()), a.coeffs)


def test_eval_clamps_outside_interval():
    a = SensitivityFunction(0.2, 0.8, np.array([5.0, 1.0, 3.0]))
    assert a(0.0) == 5.0
    assert a(2.5) == 3.0


def test_eval_rejects_nonfinite():
    a = SensitivityFunction.constant(1.0, 0.0, 1.0, 4)
    with pytest.raises(InvalidStateError):
        a(np.array([0.5, np.inf]))


def test_interpolation_error_second_order_bound():
    """Sampled 2/c stays within (dc^2/8) max|a''| of the true function."""
    a = SensitivityFunction.from_function(lambda c: 2.0 / c, 0.1, 0.7, 16)
    dc = np.diff(a.knots())[0]
    bound = dc**2 / 8.0 * (4.0 / 0.1**3)
    cs = np.linspace(0.1, 0.7, 20001)
    err = np.max(np.abs(a(cs) - 2.0 / cs))
    assert err <= bound


def test_sampling_reproduces_piecewise_linear():
    rng = np.random.default_rng(11)
    orig = SensitivityFunction(0.1, 0.7, rng.uniform(0, 4, 16))
    resampled = SensitivityFunction.from_function(orig, 0.1, 0.7, 16)
    np.testing.assert_allclose(resampled.coeffs, orig.coeffs, rtol=1e-14)


def test_with_coeffs_keeps_interval():
    a = SensitivityFunction.constant(1.0, 0.3, 0.6, 5)
    b = a.with_coeffs(np.arange(5.0))
    assert (b.c_min, b.c_max) == (0.3, 0.6)
    with pytest.raises(IncompatibleBasisError):
        a.with_coeffs(np.ones(4))


def test_degenerate_basis_rejected():
    with pytest.raises(ZeroWidthIntervalError):
        SensitivityFunction(0.5, 0.5, np.array([1.0, 2.0]))
    with pytest.raises(InvalidStateError):
        SensitivityFunction(0.0, 1.0, np.array([1.0]))


@pytest.mark.parametrize(
    "c_min, c_max, error",
    [
        (0.5, 0.5, ZeroWidthIntervalError),
        (0.7, 0.1, ZeroWidthIntervalError),
        (-math.inf, 1.0, InvalidStateError),
        (0.0, math.inf, InvalidStateError),
        (math.nan, 1.0, InvalidStateError),
        (0.0, math.nan, InvalidStateError),
        (-1e308, 1e308, InvalidStateError),  # the width overflows
        (np.float64(-1e308), np.float64(1e308), InvalidStateError),
    ],
)
def test_interval_rule(c_min, c_max, error):
    """Every holder of an interval applies the one rule, before any knot is built.

    An empty interval is an InvalidStateError too, so the exact class is checked.
    """
    assert issubclass(ZeroWidthIntervalError, InvalidStateError)
    require_interval(0.1, 0.7)
    require_interval(-1e308, 0.0)
    for build in (
        lambda: require_interval(c_min, c_max),
        lambda: SensitivityFunction(c_min, c_max, np.ones(3)),
        lambda: SensitivityFunction.from_function(lambda c: 1.0, c_min, c_max, 3),
        lambda: mass_matrix(3, c_min, c_max),
    ):
        with pytest.raises(error) as info:
            build()
        assert info.type is error


@pytest.mark.parametrize("padding", [-0.1, math.inf, math.nan])
def test_padding_rule(padding):
    require_padding(0.0)
    with pytest.raises(InvalidStateError):
        require_padding(padding)


# ---------------------------------------------------------------------------
# mass matrix


def test_mass_matrix_two_knots_unit_interval():
    B = mass_matrix(2, 0.0, 1.0)
    np.testing.assert_allclose(B, [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], rtol=1e-15)
    with pytest.raises(ValueError):
        B[0, 0] = 0.0


@pytest.mark.parametrize("L", [2, 3, 5, 16])
def test_mass_matrix_row_sums_integrate_hats(L):
    B = mass_matrix(L, 0.1, 0.7)
    dc = 0.6 / (L - 1)
    sums = B.sum(axis=1)
    expected = np.full(L, dc)
    expected[0] = expected[-1] = dc / 2.0
    np.testing.assert_allclose(sums, expected, rtol=1e-14)


def test_mass_matrix_matches_quadrature():
    L = 5
    B = mass_matrix(L, 0.1, 0.7)
    for i in range(L):
        for j in range(L):
            q = simpson_gram_entry(i, j, L, 0.1, 0.7)
            assert abs(B[i, j] - q) <= 1e-12


def test_mass_matrix_is_spd():
    for L in (2, 7, 16):
        B = mass_matrix(L, 0.2, 1.4)
        LB = cholesky(B, lower=True)  # raises if not SPD
        np.testing.assert_allclose(LB @ LB.T, B, atol=1e-14)


# ---------------------------------------------------------------------------
# penalty


def test_penalty_zero_at_prior():
    a = SensitivityFunction.constant(3.0, 0.0, 1.0, 8)
    assert penalty(a, a) == 0.0


def test_penalty_unit_offset_measures_interval():
    a = SensitivityFunction.constant(2.0, 0.0, 1.0, 8)
    a_star = SensitivityFunction.constant(1.0, 0.0, 1.0, 8)
    assert penalty(a, a_star) == pytest.approx(1.0, rel=1e-12)


def test_penalty_linear_function_exact():
    a = SensitivityFunction.from_function(lambda c: c, 0.0, 1.0, 11)
    a_star = SensitivityFunction.constant(0.0, 0.0, 1.0, 11)
    assert penalty(a, a_star) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_penalty_rejects_mismatched_bases():
    a = SensitivityFunction.constant(1.0, 0.0, 1.0, 8)
    with pytest.raises(IncompatibleBasisError):
        penalty(a, SensitivityFunction.constant(1.0, 0.0, 1.0, 9))
    with pytest.raises(IncompatibleBasisError):
        penalty(a, SensitivityFunction.constant(1.0, 0.1, 1.0, 8))


def test_same_basis_compares_the_interval_exactly():
    a = SensitivityFunction.constant(1.0, 0.0, 1.0, 8)
    assert same_basis(a, a.with_coeffs(np.arange(8.0)))
    for c_min, c_max in ((0.0, math.nextafter(1.0, 2.0)), (1e-15, 1.0)):
        b = SensitivityFunction.constant(1.0, c_min, c_max, 8)
        assert not same_basis(a, b)
        with pytest.raises(IncompatibleBasisError):
            require_same_basis(a, b, "exact")


@settings(max_examples=30, deadline=None)
@given(
    coeffs=st.lists(st.floats(-10, 10), min_size=2, max_size=18),
    ref=st.floats(-5, 5),
)
def test_penalty_matches_quadrature(coeffs, ref):
    """Gram-matrix penalty equals direct integration of (a - a*)^2."""
    L = len(coeffs)
    a = SensitivityFunction(0.1, 0.7, np.array(coeffs))
    a_star = SensitivityFunction.constant(ref, 0.1, 0.7, L)
    q = quadrature_sq_distance(a, a_star, 0.1, 0.7, breakpoints=a.knots())
    assert penalty(a, a_star) == pytest.approx(q, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# concentration range


def _traj_with_c(grid, c_frames):
    c = np.asarray(c_frames, dtype=float)
    return StateTrajectory(grid=grid, X=np.stack([np.ones_like(c), c], axis=1))


def test_concentration_range_with_padding():
    g = SimulationGrid(0.0, 1.0, 3, 1.0, 1)
    traj = _traj_with_c(g, [[0.2, 0.3, 0.4], [0.5, 0.6, 0.35]])
    lo, hi = concentration_range(traj, padding=0.25)
    assert lo == pytest.approx(0.2 - 0.25 * 0.4)
    assert hi == pytest.approx(0.6 + 0.25 * 0.4)
    lo0, hi0 = concentration_range(traj, padding=0.0)
    assert (lo0, hi0) == (0.2, 0.6)


def test_concentration_range_rejects_constant_c():
    g = SimulationGrid(0.0, 1.0, 3, 1.0, 1)
    traj = _traj_with_c(g, [[0.5] * 3, [0.5] * 3])
    with pytest.raises(ZeroWidthIntervalError):
        concentration_range(traj, padding=0.0)


def test_concentration_range_rejects_negative_padding():
    g = SimulationGrid(0.0, 1.0, 3, 1.0, 1)
    traj = _traj_with_c(g, [[0.2, 0.3, 0.4], [0.2, 0.3, 0.5]])
    with pytest.raises(InvalidStateError):
        concentration_range(traj, padding=-0.1)


# ---------------------------------------------------------------------------
# serialization


def test_sensitivity_csv_roundtrip(tmp_path):
    a = SensitivityFunction.from_function(lambda c: 2.0 / c, 0.1, 0.7, 16)
    path = tmp_path / "a.csv"
    write_sensitivity_csv(a, path)
    text = path.read_text().splitlines()
    assert text[0] == "# c_min=0.1 c_max=0.7 n_basis=16 extension=clamp"
    assert text[1] == "c_knot,a_value"
    back = read_sensitivity_csv(path)
    assert (back.c_min, back.c_max, back.n_basis) == (0.1, 0.7, 16)
    np.testing.assert_allclose(back.coeffs, a.coeffs, rtol=1e-14)


def test_sensitivity_csv_rejects_corrupt_header(tmp_path):
    a = SensitivityFunction.constant(2.0, 0.1, 0.7, 4)
    path = tmp_path / "a.csv"
    write_sensitivity_csv(a, path)
    body = path.read_text().splitlines()[1:]
    path.write_text("\n".join(body) + "\n")
    with pytest.raises(InvalidStateError):
        read_sensitivity_csv(path)


@pytest.mark.parametrize("edit, message", [
    (lambda lines: [lines[0].replace("extension=clamp", "extension=linear")] + lines[1:],
     "unsupported extension rule 'linear'"),
    (lambda lines: lines[:3] + ["0.35" + lines[3][lines[3].index(","):]] + lines[4:],
     "knot column inconsistent with metadata"),
], ids=["extension", "knot_column"])
def test_sensitivity_csv_rejects_metadata_its_rows_break(tmp_path, edit, message):
    path = tmp_path / "a.csv"
    write_sensitivity_csv(SensitivityFunction.constant(2.0, 0.1, 0.7, 4), path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(InvalidStateError) as raised:
        read_sensitivity_csv(path)
    assert str(raised.value) == f"{path}: {message}"


def test_knots_built_once_and_read_only():
    a = SensitivityFunction(0.1, 0.7, np.arange(7.0))
    assert a.knots() is a.knots()
    assert np.array_equal(a.knots(), np.linspace(0.1, 0.7, 7))
    with pytest.raises(ValueError):
        a.knots()[0] = 0.0


def test_hat_stencil_geometry_rebuilds_interp():
    # the tangent pass pairs this geometry with np.interp's values: the two
    # hats' weights rebuild a(c) to rounding, and slope is the segment's
    # difference quotient, 0 where c was clamped
    rng = np.random.default_rng(5)
    knots = np.linspace(0.2, 0.9, 9)
    coeffs = rng.normal(size=(6, 9)) * 10.0 ** rng.uniform(-3, 4, (6, 1))
    c = rng.uniform(0.0, 1.1, (6, 40))
    c[:, :9] = knots  # every knot, including both ends, exactly
    coeffs[:, 4] = -0.0
    seg, frac, slope = hat_stencil(c, knots, coeffs)
    clamped = (c < knots[0]) | (c > knots[-1])
    assert clamped.any() and not clamped[:, :9].any()
    assert ((0 <= seg) & (seg <= 7)).all() and ((0.0 <= frac) & (frac <= 1.0)).all()
    for i, q in enumerate(coeffs):
        rebuilt = (1.0 - frac[i]) * q[seg[i]] + frac[i] * q[seg[i] + 1]
        np.testing.assert_allclose(rebuilt, np.interp(c[i], knots, q),
                                   rtol=0.0, atol=1e-14 * np.abs(q).max())
        quotient = (q[seg[i] + 1] - q[seg[i]]) / (knots[seg[i] + 1] - knots[seg[i]])
        assert np.array_equal(slope[i], np.where(clamped[i], 0.0, quotient))
