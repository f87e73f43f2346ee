"""M(X), maximal measures, M+, and their certificates."""

import math

import numpy as np
import pytest

import qhm
from qhm.errors import PreconditionError
from qhm.mconstant import TAG_NOT_QUASIHYPERMETRIC, TAG_ZERO_MASS

from conftest import euclidean_corpus


def test_equilateral(equilateral):
    rep = qhm.compute_m(equilateral)
    assert abs(rep.m_value - 4.0) < 1e-9
    assert np.allclose(rep.maximal_measure.weights, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)
    assert rep.unique_maximal is True
    assert abs(rep.invariant_value - 4.0) < 1e-9


def test_cycle4(cycle4):
    rep = qhm.compute_m(cycle4)
    assert abs(rep.m_value - 2.0) < 1e-9
    assert np.allclose(rep.maximal_measure.weights, [0.5, 0.0, 0.5, 0.0], atol=1e-9)
    assert rep.unique_maximal is False


def test_assouad_is_infinite(assouad):
    rep = qhm.compute_m(assouad)
    assert math.isinf(rep.m_value)
    assert rep.maximal_measure is None
    assert TAG_ZERO_MASS in rep.method_tags
    assert abs(rep.solution_mass) < 1e-12  # the raw mass is reported for auditing


def test_star(star):
    rep = qhm.compute_m(star)
    assert abs(rep.m_value - 1.5) < 1e-12
    assert np.allclose(rep.maximal_measure.weights, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)
    assert rep.unique_maximal is True


@pytest.mark.parametrize("t", [0.5, 1.0, 6.0])
def test_two_point(t):
    rep = qhm.compute_m(qhm.two_point_space(t))
    assert abs(rep.m_value - t / 2) < 1e-12
    assert np.allclose(rep.maximal_measure.weights, [0.5, 0.5], atol=1e-12)


def test_one_point_convention(one_point):
    rep = qhm.compute_m(one_point)
    assert rep.m_value == 0.0
    assert np.array_equal(rep.maximal_measure.weights, [1.0])
    assert rep.unique_maximal is True


def test_not_quasihypermetric_short_circuits(non_quasihypermetric):
    rep = qhm.compute_m(non_quasihypermetric)
    assert math.isinf(rep.m_value)
    assert rep.method_tags == (TAG_NOT_QUASIHYPERMETRIC,)
    assert rep.system_residual is None  # no system was solved


def test_maximality_certificate(equilateral, cycle4, star):
    for space in (equilateral, cycle4, star):
        rep = qhm.compute_m(space)
        level = qhm.potential(rep.maximal_measure)
        assert np.max(np.abs(level - rep.m_value)) < 1e-9
        assert abs(rep.maximal_measure.mass - 1.0) < 1e-12
        assert abs(qhm.energy(rep.maximal_measure) - rep.m_value) < 1e-9


def test_mass_of_solution_is_canonical(assouad, equilateral, cycle4, one_point):
    for space in (assouad, equilateral):  # nonsingular matrices
        with pytest.raises(PreconditionError):
            qhm.mass_of_solution_is_canonical(space)
    assert qhm.mass_of_solution_is_canonical(cycle4) is True
    with pytest.warns(UserWarning, match="inconsistent"):
        assert qhm.mass_of_solution_is_canonical(one_point) is True


def test_invariant_value(assouad, equilateral):
    mu = qhm.SignedMeasure(assouad, [2, -2, -2, 1, 1])
    assert abs(qhm.invariant_value(mu) - 2.0) < 1e-12
    u = qhm.SignedMeasure.uniform(equilateral)
    assert abs(qhm.invariant_value(u) - 4.0) < 1e-12
    two = qhm.two_point_space(1.5)
    assert qhm.invariant_value(qhm.SignedMeasure.delta(two, 0)) is None


def test_m_plus_values(equilateral, star):
    assert abs(qhm.compute_m_plus(equilateral) - 4.0) < 1e-9
    assert abs(qhm.compute_m_plus(star) - 4.0 / 3.0) < 1e-9
    assert abs(qhm.compute_m_plus(qhm.two_point_space(3.0)) - 1.5) < 1e-12


def test_m_plus_preconditions(assouad, non_quasihypermetric):
    with pytest.raises(PreconditionError):
        qhm.compute_m_plus(assouad)  # M infinite
    with pytest.raises(PreconditionError):
        qhm.compute_m_plus(non_quasihypermetric)


def test_m_plus_at_most_m():
    for space in euclidean_corpus(30, seed=31):
        rep = qhm.compute_m(space)
        m_plus = qhm.compute_m_plus(space)
        assert m_plus <= rep.m_value + 1e-9
        # equality exactly when the maximal measure is a probability measure
        positive = rep.maximal_measure.weights.min() >= -1e-9
        assert (abs(m_plus - rep.m_value) <= 1e-6 * max(1.0, rep.m_value)) == positive


def test_uniqueness(equilateral, cycle4, star, one_point):
    assert qhm.uniqueness_of_maximal(equilateral) is True
    assert qhm.uniqueness_of_maximal(cycle4) is False
    assert qhm.uniqueness_of_maximal(star) is True
    assert qhm.uniqueness_of_maximal(one_point) is True


def test_unique_maximal_matches_bordered_rank(equilateral, cycle4, star, one_point):
    spaces = [equilateral, cycle4, star, one_point]
    rng = np.random.default_rng(41)
    for n in range(5, 10):
        spaces.append(qhm.random_metric(n, seed=int(rng.integers(0, 2**31))))
        spaces.append(qhm.from_euclidean(rng.normal(size=(n, 3))))
    checked = 0
    for space in spaces:
        rep = qhm.compute_m(space)
        if rep.is_finite:
            checked += 1
            assert rep.unique_maximal == qhm.uniqueness_of_maximal(space)
    assert checked >= 9


def test_scale_covariance(star, cycle4):
    for space in (star, cycle4):
        base = qhm.compute_m(space)
        for lam in (0.5, 4.0):
            scaled = qhm.compute_m(space.scaled(lam))
            assert abs(scaled.m_value - lam * base.m_value) < 1e-9 * max(1.0, lam)
            assert np.allclose(
                scaled.maximal_measure.weights, base.maximal_measure.weights, atol=1e-9
            )


def test_monotone_under_point_addition():
    rng = np.random.default_rng(77)
    pts = rng.normal(size=(8, 3))
    values = []
    for n in range(2, 9):
        values.append(qhm.compute_m(qhm.from_euclidean(pts[:n])).m_value)
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-9


def quadratic_oracle_m(space, tol=1e-12):
    """Independent route: parametrize the mass-1 slice as u + B t and maximize
    the quadratic analytically through numpy's eigendecomposition."""
    d = space.dist
    n = space.n
    u = np.full(n, 1.0 / n)
    q, _ = np.linalg.qr(np.hstack([np.ones((n, 1)), np.eye(n)[:, : n - 1]]))
    basis = q[:, 1:]
    a = basis.T @ d @ basis
    g = basis.T @ (d @ u)
    c = float(u @ d @ u)
    lam, vec = np.linalg.eigh(a)
    gt = vec.T @ g
    scale = max(1.0, float(np.abs(lam).max()))
    value = c
    for l, gi in zip(lam, gt):
        if l < -tol * scale:
            value -= gi * gi / l
        elif abs(gi) > 1e-8:
            return math.inf
    return value


def test_oracle_equivalence_small():
    rng = np.random.default_rng(55)
    checked = 0
    while checked < 40:
        n = int(rng.integers(2, 6))
        space = qhm.random_metric(n, seed=int(rng.integers(0, 2**31)))
        if not qhm.check_quasihypermetric(space).holds:
            continue
        checked += 1
        mine = qhm.compute_m(space).m_value
        ref = quadratic_oracle_m(space)
        if math.isinf(ref) or math.isinf(mine):
            assert math.isinf(ref) == math.isinf(mine)
        else:
            assert abs(mine - ref) <= 1e-6 * max(1.0, abs(ref))
