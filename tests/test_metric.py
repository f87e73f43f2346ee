"""Core objects: validation, energy forms, potentials, seminorm."""

import math

import numpy as np
import pytest

import qhm
from qhm.errors import (
    AsymmetryError,
    DiagonalError,
    DimensionMismatchError,
    DuplicatePointError,
    MassError,
    NegativeDistanceError,
    NegativityError,
    NonFiniteEntryError,
    ShapeError,
    TriangleViolationError,
)


def test_valid_construction(assouad):
    assert assouad.n == 5
    assert assouad.diameter == 5.0
    assert assouad.dist[0, 3] == 5.0
    with pytest.raises(ValueError):
        assouad.dist[0, 0] = 1.0  # matrices are immutable


def test_validation_asymmetry():
    with pytest.raises(AsymmetryError) as exc:
        qhm.MetricSpace([[0, 1], [1.5, 0]])
    assert exc.value.indices == (0, 1)
    assert exc.value.exit_code == 2


def test_validation_triangle():
    with pytest.raises(TriangleViolationError) as exc:
        qhm.MetricSpace([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    assert exc.value.exit_code == 3
    i, k, j = exc.value.indices
    assert i != j


def test_triangle_violation_reports_the_tensor_formula_triple():
    d = qhm.from_euclidean(np.random.default_rng(12).normal(size=(12, 2))).dist.copy()
    for i, j in ((3, 9), (7, 5)):
        d[i, j] = d[j, i] = 2.0 * d.max()
    # reference: the first violation by the n x n x n detour tensor
    detour = np.min(d[:, :, None] + d[None, :, :], axis=1)
    i, j = np.argwhere(d > detour + 1e-9 * d.max())[0]
    k = int(np.argmin(d[i, :] + d[:, j]))
    with pytest.raises(TriangleViolationError) as exc:
        qhm.MetricSpace(d)
    assert exc.value.indices == (i, k, j) == (3, 5, 9)


def test_validation_diagonal():
    with pytest.raises(DiagonalError):
        qhm.MetricSpace([[0.5, 1], [1, 0]])


def test_validation_duplicates():
    with pytest.raises(DuplicatePointError):
        qhm.MetricSpace([[0, 0], [0, 0]])


def test_validation_negative_and_nonfinite():
    with pytest.raises(NegativeDistanceError):
        qhm.MetricSpace([[0, -1], [-1, 0]])
    with pytest.raises(NonFiniteEntryError):
        qhm.MetricSpace([[0, np.nan], [np.nan, 0]])
    with pytest.raises(ShapeError):
        qhm.MetricSpace([[0, 1], [1, 0]], labels=("a",))
    with pytest.raises(ShapeError):
        qhm.MetricSpace(np.zeros((2, 3)))


def test_triangle_equality_is_allowed():
    # boundary case: d(0,2) = d(0,1) + d(1,2) exactly
    space = qhm.MetricSpace([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert space.n == 3


def test_measure_construction(assouad):
    mu = qhm.SignedMeasure(assouad, [2, -2, -2, 1, 1])
    assert mu.mass == 0.0
    with pytest.raises(DimensionMismatchError):
        qhm.SignedMeasure(assouad, [1, 2, 3])
    with pytest.raises(NonFiniteEntryError):
        qhm.SignedMeasure(assouad, [np.inf, 0, 0, 0, 0])


def test_energy_assouad_invariant_measure(assouad):
    # the mass-zero measure with constant potential 2 has energy 0
    mu = qhm.SignedMeasure(assouad, [2, -2, -2, 1, 1])
    assert abs(qhm.mutual_energy(mu, mu)) < 1e-12
    assert np.allclose(qhm.potential(mu), 2.0, atol=1e-12)


def test_energy_atoms_and_two_point():
    space = qhm.two_point_space(6.0)
    d0 = qhm.SignedMeasure.delta(space, 0)
    assert qhm.mutual_energy(d0, d0) == 0.0
    u = qhm.SignedMeasure.uniform(space)
    assert abs(qhm.mutual_energy(u, u) - 3.0) < 1e-15  # 2 * (1/2)(1/2) * 6


def test_potential_zero_and_uniform(equilateral):
    zero = qhm.SignedMeasure(equilateral, np.zeros(3))
    assert np.all(qhm.potential(zero) == 0.0)
    u = qhm.SignedMeasure.uniform(equilateral)
    assert np.allclose(qhm.potential(u), 4.0, atol=1e-15)


def test_seminorm_values(assouad):
    mu = qhm.SignedMeasure(assouad, [2, -2, -2, 1, 1])
    assert qhm.seminorm(mu) == 0.0  # zero-energy witness, clamped not erroring
    zero = qhm.SignedMeasure(assouad, np.zeros(5))
    assert qhm.seminorm(zero) == 0.0
    two = qhm.two_point_space(6.0)
    nu = qhm.SignedMeasure(two, [1, -1])
    assert abs(qhm.seminorm(nu) - math.sqrt(12.0)) < 1e-12


def test_seminorm_mass_error(equilateral):
    with pytest.raises(MassError):
        qhm.seminorm(qhm.SignedMeasure.uniform(equilateral))


def test_seminorm_negativity_error(non_quasihypermetric):
    witness = qhm.check_quasihypermetric(non_quasihypermetric).witness
    with pytest.raises(NegativityError) as exc:
        qhm.seminorm(witness)
    assert exc.value.witness is witness


def test_bilinearity(assouad):
    rng = np.random.default_rng(10)
    for _ in range(20):
        w1, w2, w3 = rng.normal(size=(3, 5))
        a, b = rng.normal(size=2)
        mu1 = qhm.SignedMeasure(assouad, w1)
        mu2 = qhm.SignedMeasure(assouad, w2)
        nu = qhm.SignedMeasure(assouad, w3)
        combo = qhm.SignedMeasure(assouad, a * w1 + b * w2)
        lhs = qhm.mutual_energy(combo, nu)
        rhs = a * qhm.mutual_energy(mu1, nu) + b * qhm.mutual_energy(mu2, nu)
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))


def test_symmetry_bit_exact(assouad):
    rng = np.random.default_rng(11)
    for _ in range(50):
        mu = qhm.SignedMeasure(assouad, rng.normal(size=5))
        nu = qhm.SignedMeasure(assouad, rng.normal(size=5))
        assert qhm.mutual_energy(mu, nu) == qhm.mutual_energy(nu, mu)


def test_duality(assouad):
    rng = np.random.default_rng(12)
    eps = np.finfo(float).eps
    bound = 10 * eps * assouad.n * assouad.diameter
    for _ in range(50):
        mu = qhm.SignedMeasure(assouad, rng.normal(size=5))
        nu = qhm.SignedMeasure(assouad, rng.normal(size=5))
        lhs = qhm.mutual_energy(mu, nu)
        rhs = float(nu.weights @ qhm.potential(mu))
        assert abs(lhs - rhs) <= bound * max(1.0, abs(lhs))


def test_scale_covariance(star):
    rng = np.random.default_rng(13)
    w = rng.normal(size=4)
    w -= w.mean()
    lam = 2.75
    scaled = star.scaled(lam)
    mu = qhm.SignedMeasure(star, w)
    mu_s = qhm.SignedMeasure(scaled, w)
    assert abs(qhm.mutual_energy(mu_s, mu_s) - lam * qhm.mutual_energy(mu, mu)) < 1e-12
    assert abs(qhm.seminorm(mu_s) - math.sqrt(lam) * qhm.seminorm(mu)) < 1e-12


def test_mismatched_spaces(equilateral, star):
    mu = qhm.SignedMeasure.uniform(equilateral)
    nu = qhm.SignedMeasure.uniform(star)
    with pytest.raises(DimensionMismatchError):
        qhm.mutual_energy(mu, nu)


def test_equal_matrices_count_as_same_space(equilateral):
    other = qhm.discrete_space(3, 6.0)
    mu = qhm.SignedMeasure.uniform(equilateral)
    nu = qhm.SignedMeasure.uniform(other)
    assert abs(qhm.mutual_energy(mu, nu) - 4.0) < 1e-15
