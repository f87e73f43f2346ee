"""M(X), maximal measures, M+, and their certificates."""

import math

import numpy as np
import pytest

import qhm
from qhm.errors import PreconditionError
from qhm.linalg import eigh_pinv_solve, jacobi_eigh
from qhm.mconstant import TAG_NOT_QUASIHYPERMETRIC, TAG_ZERO_MASS
from qhm.spaces import FIXTURE_NAMES

from conftest import NON_QH_SEED, euclidean_corpus
from conftest import restricted_top as _restricted_top


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


def _circle(n, circumference=8.0):
    desc = qhm.CompactSpaceDescriptor(kind="circle", circumference=circumference)
    return desc.sample_space(n)


def _seeded_spaces(seed, rounds):
    """random_metric (n = 3..9), from_euclidean (n = 3..11) and circle samples:
    inputs for every branch of the quasihypermetric decision in compute_m."""
    rng = np.random.default_rng(seed)
    spaces = []
    for _ in range(rounds):
        for n in range(3, 10):
            spaces.append(qhm.random_metric(n, seed=int(rng.integers(0, 2**31))))
        for n in range(3, 12):
            dim = int(rng.integers(1, 5))
            spaces.append(qhm.from_euclidean(rng.normal(size=(n, dim))))
    for n in range(2, 14):
        spaces.append(_circle(n, circumference=float(rng.uniform(1.0, 10.0))))
    return spaces


def test_qh_decision_matches_the_centred_route(monkeypatch):
    """compute_m reads the verdict off the spectrum of d; P d P must agree."""
    reference_check = qhm.mconstant.check_quasihypermetric
    calls = []
    monkeypatch.setattr(
        qhm.mconstant,
        "check_quasihypermetric",
        lambda space, tol=None: calls.append(1) or reference_check(space, tol=tol),
    )
    spaces = _seeded_spaces(2024, 64)
    spaces += [qhm.make_fixture(name) for name in FIXTURE_NAMES]
    assert len(spaces) >= 1000
    branches = {"not-qh": 0, "one-positive": 0, "fallback": 0}
    t = qhm.DEFAULT_TOLERANCES
    for space in spaces:
        before = len(calls)
        rep = qhm.compute_m(space)
        fell_back = len(calls) > before
        qh = reference_check(space).holds
        assert (TAG_NOT_QUASIHYPERMETRIC in rep.method_tags) == (not qh)
        if fell_back:
            branches["fallback"] += 1
        else:
            branches["one-positive" if qh else "not-qh"] += 1
        if not qh:
            assert rep.system_residual is None
            continue
        w0, residual, _, _ = eigh_pinv_solve(space.dist, np.ones(space.n))
        assert residual <= t.res_tol(space.n)
        mass = float(w0.sum())  # null vectors of a consistent system have mass zero
        if abs(mass) <= t.mass_tol(space.n):
            assert math.isinf(rep.m_value) and TAG_ZERO_MASS in rep.method_tags
        else:
            assert abs(rep.m_value - 1.0 / mass) <= 1e-9 * max(1.0, 1.0 / mass)
    assert min(branches.values()) >= 10, branches


def _permuted(space, perm):
    return qhm.MetricSpace(space.dist[np.ix_(perm, perm)])


def test_permutation_invariance():
    rng = np.random.default_rng(61)
    for space in _seeded_spaces(61, 3):
        perm = rng.permutation(space.n)
        base, moved = qhm.compute_m(space), qhm.compute_m(_permuted(space, perm))
        assert base.method_tags[0] == moved.method_tags[0]
        if not base.is_finite:
            assert not moved.is_finite
            continue
        assert abs(moved.m_value - base.m_value) <= 1e-9 * max(1.0, base.m_value)
        assert moved.unique_maximal == base.unique_maximal
        if base.unique_maximal:
            expected = base.maximal_measure.weights[perm]
            assert np.allclose(moved.maximal_measure.weights, expected, atol=1e-9)
        else:  # another maximal measure; its potential is still constant at M
            level = qhm.potential(moved.maximal_measure)
            assert np.max(np.abs(level - base.m_value)) <= 1e-9 * max(1.0, base.m_value)


def test_scale_covariance_seeded():
    for space in _seeded_spaces(62, 3):
        base = qhm.compute_m(space)
        for lam in (0.3, 7.0):
            scaled = qhm.compute_m(space.scaled(lam))
            assert scaled.method_tags == base.method_tags
            if base.is_finite:
                expected = lam * base.m_value
                assert abs(scaled.m_value - expected) <= 1e-9 * max(1.0, expected)
            else:
                assert not scaled.is_finite


def test_monotone_under_subsets_and_mplus_bounds():
    rng = np.random.default_rng(63)
    checked = 0
    for space in _seeded_spaces(63, 3):
        rep = qhm.compute_m(space)
        if not rep.is_finite or space.n < 3:
            continue
        # D/2 <= M+ <= M: the two diameter points at weight 1/2 each give D/2
        m_plus = qhm.compute_m_plus(space)
        slack = 1e-9 * max(1.0, rep.m_value)
        assert space.diameter / 2 - slack <= m_plus <= rep.m_value + slack
        keep = np.sort(rng.choice(space.n, size=int(rng.integers(2, space.n)), replace=False))
        sub = qhm.MetricSpace(space.dist[np.ix_(keep, keep)])
        sub_rep = qhm.compute_m(sub)
        assert sub_rep.is_finite  # a subspace of a finite-M space has finite M
        assert sub_rep.m_value <= rep.m_value + slack
        assert qhm.compute_m_plus(sub) <= m_plus + slack
        checked += 1
    assert checked >= 30


def test_jacobi_runs_only_in_the_band(monkeypatch):
    """Away from the threshold compute_m decides by Cholesky and never
    calls the eigensolver; within +-pos_tol of it, the spectral route runs."""
    calls = []

    def counted(a, *args, **kwargs):
        calls.append(1)
        return jacobi_eigh(a, *args, **kwargs)

    monkeypatch.setattr(qhm.linalg, "jacobi_eigh", counted)
    monkeypatch.setattr(qhm.classify, "jacobi_eigh", counted)
    spaces = _seeded_spaces(4048, 64) + [_circle(n) for n in range(14, 25)]
    spaces += [qhm.make_fixture(name) for name in FIXTURE_NAMES]
    assert len(spaces) >= 1000
    t = qhm.DEFAULT_TOLERANCES
    branches = {"strict": 0, "not-qh": 0, "band": 0}
    for space in spaces:
        top, ptol = _restricted_top(space), t.pos_tol(space.n, space.diameter)
        calls.clear()
        rep = qhm.compute_m(space)
        if top < -ptol:
            branch = "strict"
            assert rep.is_finite and rep.unique_maximal
        elif top > ptol:
            branch = "not-qh"
            assert TAG_NOT_QUASIHYPERMETRIC in rep.method_tags
        else:
            branch = "band"
            assert calls
        assert branch == "band" or not calls, (branch, space.n)
        branches[branch] += 1
    assert min(branches.values()) >= 10, branches


def test_qh_verdict_at_the_threshold_follows_pos_tol():
    """With ptol = 2 kappa both spaces sit in the band, with kappa / 2 neither
    does; compute_m's verdict equals check_quasihypermetric's every time."""
    rng = np.random.default_rng(71)
    strict = qhm.from_euclidean(rng.normal(size=(7, 3)))
    non_qh = qhm.random_metric(5, seed=NON_QH_SEED)
    assert _restricted_top(strict) < 0.0 < _restricted_top(non_qh)
    for space in (strict, non_qh):
        kappa = abs(_restricted_top(space))
        for ptol in (2.0 * kappa, 0.5 * kappa):
            t = qhm.Tolerances(pos=ptol / (space.n * space.diameter))
            verdict = qhm.check_quasihypermetric(space, tol=t).holds
            assert verdict == (space is strict or ptol > kappa)
            rep = qhm.compute_m(space, tol=t)
            assert (TAG_NOT_QUASIHYPERMETRIC not in rep.method_tags) == verdict
