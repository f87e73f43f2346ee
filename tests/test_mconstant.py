"""M(X), maximal measures, M+, and their certificates."""

import json
import math

import numpy as np
import pytest

import qhm
from qhm.classify import Analysis, _qh_by_inertia
from qhm.errors import PreconditionError
from qhm.linalg import eigh_pinv_solve, jacobi_eigh, semidefinite_cholesky
from qhm.mconstant import TAG_NOT_QUASIHYPERMETRIC, TAG_ZERO_MASS, _canonical_solution
from qhm.report import m_report_to_json
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


def _spied_band_route(monkeypatch):
    """Patch compute_m's band route to log what it returns, None when it
    declines and the eigenvector route decides."""
    band = qhm.mconstant._band_solution
    returned = []
    monkeypatch.setattr(
        qhm.mconstant, "_band_solution", lambda *args: returned.append(band(*args)) or returned[-1]
    )
    return returned


def test_qh_decision_matches_the_centred_route(monkeypatch):
    """compute_m reads the verdict off a semidefinite elimination in the band,
    or off the spectrum of d where that declines; P d P must agree."""
    reference_check = qhm.check_quasihypermetric
    returned = _spied_band_route(monkeypatch)
    spaces = _seeded_spaces(2024, 64)
    spaces += [qhm.make_fixture(name) for name in FIXTURE_NAMES]
    assert len(spaces) >= 1000
    branches = {"not-qh": 0, "one-positive": 0, "band": 0}
    fallbacks = []
    t = qhm.DEFAULT_TOLERANCES
    for space in spaces:
        before = len(returned)
        rep = qhm.compute_m(space)
        qh = reference_check(space).holds
        assert (TAG_NOT_QUASIHYPERMETRIC in rep.method_tags) == (not qh)
        if len(returned) == before:
            branches["one-positive" if qh else "not-qh"] += 1
        elif returned[-1] is None:
            fallbacks.append(space)
        else:
            branches["band"] += 1
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
    assouad = qhm.make_fixture("assouad5").dist
    assert any(np.array_equal(space.dist, assouad) for space in fallbacks)


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
    calls the eigensolver; within +-pos_tol of it, the semidefinite
    elimination calls none either, and where it declines the spectral route
    decomposes d itself once, and never the centred kernel."""
    returned = _spied_band_route(monkeypatch)
    calls = []

    def counted(a, *args, **kwargs):
        calls.append(np.array(a, dtype=float))
        return jacobi_eigh(a, *args, **kwargs)

    monkeypatch.setattr(qhm.linalg, "jacobi_eigh", counted)
    monkeypatch.setattr(qhm.classify, "jacobi_eigh", counted)
    spaces = _seeded_spaces(4048, 64) + [_circle(n) for n in range(14, 25)]
    spaces += [qhm.make_fixture(name) for name in FIXTURE_NAMES]
    assert len(spaces) >= 1000
    t = qhm.DEFAULT_TOLERANCES
    branches = {"strict": 0, "not-qh": 0, "band": 0, "fallback": 0}
    for space in spaces:
        top, ptol = _restricted_top(space), t.pos_tol(space.n, space.diameter)
        calls.clear()
        returned.clear()
        rep = qhm.compute_m(space)
        if top < -ptol:
            branch = "strict"
            assert rep.is_finite and rep.unique_maximal
        elif top > ptol:
            branch = "not-qh"
            assert TAG_NOT_QUASIHYPERMETRIC in rep.method_tags
        elif returned[0] is not None:
            branch = "band"
        else:
            branch = "fallback"
            # smaller calls come from _canonical_solution's nullspace solve
            full = [m for m in calls if m.shape == space.dist.shape]
            assert len(full) == 1 and np.array_equal(full[0], space.dist), space.n
        assert branch == "fallback" or not calls, (branch, space.n)
        branches[branch] += 1
    assert branches["fallback"] >= 1, branches
    assert min(branches[b] for b in ("strict", "not-qh", "band")) >= 10, branches


def _tolerances_at(space, ptol):
    """Tolerances whose pos_tol on ``space`` is ``ptol``, to the ulp when a
    few ulps of ``pos`` reach it."""
    pos = ptol / (space.n * space.diameter)
    for _ in range(8):
        t = qhm.Tolerances(pos=pos)
        got = t.pos_tol(space.n, space.diameter)
        if got == ptol:
            break
        pos = float(np.nextafter(pos, np.inf if got < ptol else -np.inf))
    return t


def test_qh_verdict_at_the_threshold_follows_pos_tol():
    """With ptol = 2 kappa both fixed spaces sit in the band, with kappa / 2
    neither does; ptol = (1 +- 1e-6) kappa on seeded spaces asks the
    secular sign of compute_m's re-check for six digits, and ptol = lambda_2
    of d puts a pole of its secular sum at ptol. compute_m's
    verdict, and the re-check's, equal check_quasihypermetric's every time,
    as they do on circle samples at the default tolerances."""
    rng = np.random.default_rng(71)
    strict = qhm.from_euclidean(rng.normal(size=(7, 3)))
    non_qh = qhm.random_metric(5, seed=NON_QH_SEED)
    assert _restricted_top(strict) < 0.0 < _restricted_top(non_qh)
    spaces = [strict, non_qh]
    for n in range(4, 9):
        for _ in range(4):
            spaces.append(qhm.random_metric(n, seed=int(rng.integers(0, 2**31))))
            spaces.append(qhm.from_euclidean(rng.normal(size=(n, 3))))
    not_qh = poles = 0
    for space in spaces:
        top = _restricted_top(space)
        kappa = abs(top)
        not_qh += top > 0.0
        ptols = [scale * kappa for scale in (2.0, 0.5, 1.0 + 1e-6, 1.0 - 1e-6)]
        lam2 = float(jacobi_eigh(space.dist)[0][-2])
        if lam2 > 0.0:  # ptol = lambda_2 puts a pole of the secular sum at ptol
            ptols.append(lam2)
        for ptol in ptols:
            t = _tolerances_at(space, ptol)
            poles += t.pos_tol(space.n, space.diameter) == lam2
            verdict = qhm.check_quasihypermetric(space, tol=t).holds
            assert verdict == (top < 0.0 or ptol > kappa)
            assert _qh_by_inertia(Analysis(space, t)) == verdict
            rep = qhm.compute_m(space, tol=t)
            assert (TAG_NOT_QUASIHYPERMETRIC not in rep.method_tags) == verdict
    assert not_qh >= 5 and poles >= 2, (not_qh, poles)
    for n in range(2, 40):
        circle = _circle(n)
        verdict = qhm.check_quasihypermetric(circle).holds
        assert (TAG_NOT_QUASIHYPERMETRIC not in qhm.compute_m(circle).method_tags) == verdict


def _eigenvector_route(monkeypatch, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with compute_m's band route declining, so that
    in the band d's eigenvectors decide: ``eigh_pinv_solve``, then
    ``_canonical_solution``."""
    with monkeypatch.context() as patch:
        patch.setattr(qhm.mconstant, "_band_solution", lambda *a: None)
        return fn(*args, **kwargs)


def _graph_space(adjacent, count):
    """The shortest-path metric of a graph on ``count`` vertices."""
    edges = [[adjacent(i, j) for j in range(count)] for i in range(count)]
    d = np.where(edges, 1.0, np.inf)
    np.fill_diagonal(d, 0.0)
    for k in range(count):
        d = np.minimum(d, d[:, [k]] + d[[k], :])
    return qhm.MetricSpace(d)


def test_band_route_agrees_with_the_eigenvector_route(monkeypatch):
    """The semidefinite elimination at point 0 keeps d's lowest-index column
    basis, so on circle samples, cycle graphs, hypercubes (whose Schur
    complement is larger than 1x1, so Gershgorin decides) and the fixtures it
    zeroes the coordinates _canonical_solution zeroes, and its M and measure
    are those of the eigenvector route to rounding."""
    t = qhm.DEFAULT_TOLERANCES
    # (space, whether the band route certifies it): circles of 4 points or
    # more, even cycles and hypercubes of 4 points or more are in the band
    cases = [(_circle(n, c), n >= 4) for c in np.linspace(0.9, 12.7, 10) for n in range(2, 49)]
    for n in range(3, 16):
        cycle = _graph_space(lambda i, j: (i - j) % n in (1, n - 1), n)
        cases.append((cycle, n % 2 == 0))
    for k in range(1, 6):
        cases.append((_graph_space(lambda i, j: bin(i ^ j).count("1") == 1, 2**k), k >= 2))
    cases += [(qhm.make_fixture(name), name == "cycle4_arclength") for name in FIXTURE_NAMES]
    zeros = []  # what _canonical_solution zeroes: from a generic start the rest is nonzero

    def spied(w0, null_basis):
        start = np.random.default_rng(len(w0)).normal(size=len(w0))
        zeros.append(np.flatnonzero(_canonical_solution(start, null_basis)[0] == 0.0))
        return _canonical_solution(w0, null_basis)

    returned = _spied_band_route(monkeypatch)
    for space, in_band in cases:
        returned.clear()
        rep = qhm.compute_m(space)
        zeros.clear()
        with monkeypatch.context() as patch:
            patch.setattr(qhm.mconstant, "_canonical_solution", spied)
            ref = _eigenvector_route(monkeypatch, qhm.compute_m, space)
        assert rep.method_tags == ref.method_tags and rep.unique_maximal == ref.unique_maximal
        assert rep.is_finite == ref.is_finite
        assert (bool(returned) and returned[0] is not None) == in_band, space.n
        if in_band:
            g = space.dist[1:, 0]
            k0 = g[:, None] + g[None, :] - space.dist[1:, 1:]
            kept = semidefinite_cholesky(k0, t.rank * k0.diagonal().max())[0]
            zeroed = np.flatnonzero(~np.append(True, kept))
            assert len(zeros) == 1 and np.array_equal(zeroed, zeros[0])
            assert np.all(rep.maximal_measure.weights[zeroed] == 0.0)
        if rep.is_finite:
            assert abs(rep.m_value - ref.m_value) <= 1e-12 * ref.m_value
            assert np.abs(rep.maximal_measure.weights - ref.maximal_measure.weights).max() <= 1e-10
            if space.n <= 24:  # the bordered Gram rank decomposes an n x n matrix too
                assert rep.unique_maximal == qhm.uniqueness_of_maximal(space)


def _threshold_non_qh():
    """The spaces of test_qh_verdict_at_the_threshold_follows_pos_tol that are
    not quasihypermetric, each with its largest restricted eigenvalue."""
    rng = np.random.default_rng(71)
    rng.normal(size=(7, 3))  # the strictly quasihypermetric space's points
    spaces = [qhm.random_metric(5, seed=NON_QH_SEED)]
    for n in range(4, 9):
        for _ in range(4):
            spaces.append(qhm.random_metric(n, seed=int(rng.integers(0, 2**31))))
            rng.normal(size=(n, 3))  # the from_euclidean space's points
    return [(space, top) for space in spaces if (top := _restricted_top(space)) > 0.0]


def _at_the_shifted_level():
    """A space that is not quasihypermetric but whose d w = 1 has a basic
    solution on a positive definite block of Schoenberg's form at point 0:
    the last point of random_metric(6, seed=211) is moved to where the
    maximal measure of the other five has potential M."""
    d = qhm.random_metric(6, seed=211).dist.copy()
    rest = qhm.compute_m(qhm.MetricSpace(d[:-1, :-1]))
    shift = rest.m_value - rest.maximal_measure.weights @ d[-1, :-1]
    d[-1, :-1] += shift
    d[:-1, -1] += shift
    return qhm.MetricSpace(d)


def test_band_route_falls_back_byte_for_byte(monkeypatch):
    """Where the band route declines (zero mass, or not quasihypermetric
    within ptol) compute_m's report is the eigenvector route's, byte for
    byte: on assouad5, on the not-QH threshold spaces at ptol = (1 + 1e-6)
    kappa, and, with the last-point Cholesky made to pass, on not-QH
    spaces, one of them with a certifiable basic solution."""
    cases = [(qhm.make_fixture("assouad5"), qhm.DEFAULT_TOLERANCES, False)]
    non_qh = _threshold_non_qh()
    assert len(non_qh) >= 5
    cases += [(space, _tolerances_at(space, (1.0 + 1e-6) * top), False) for space, top in non_qh]
    for space in (qhm.random_metric(5, seed=NON_QH_SEED), _at_the_shifted_level()):
        assert _restricted_top(space) > 1e-2
        cases.append((space, qhm.DEFAULT_TOLERANCES, True))
    returned = _spied_band_route(monkeypatch)
    for space, t, forced in cases:
        with monkeypatch.context() as patch:
            if forced:
                patch.setattr(qhm.mconstant, "cholesky", lambda a: np.eye(len(a)))
            returned.clear()
            rep = qhm.compute_m(space, tol=t)
            ref = _eigenvector_route(monkeypatch, qhm.compute_m, space, tol=t)
        assert returned == [None]
        doc, ref_doc = (json.dumps(m_report_to_json(r)) for r in (rep, ref))
        assert doc == ref_doc
        if forced:
            assert TAG_NOT_QUASIHYPERMETRIC in rep.method_tags


def test_approx_m_of_a_circle_makes_no_decomposition(monkeypatch):
    """Every circle sample of 4 points or more is in the band; the nested
    trace to 48 points solves each without the eigensolver and matches the
    eigenvector route's trace."""
    calls = []

    def counted(a, *args, **kwargs):
        calls.append(len(a))
        return jacobi_eigh(a, *args, **kwargs)

    desc = qhm.CompactSpaceDescriptor(kind="circle", circumference=8.0)
    ref = _eigenvector_route(monkeypatch, qhm.approx_m, desc, 48)
    monkeypatch.setattr(qhm.linalg, "jacobi_eigh", counted)
    monkeypatch.setattr(qhm.classify, "jacobi_eigh", counted)
    trace = qhm.approx_m(desc, 48)
    assert calls == []
    assert trace.sizes == ref.sizes and trace.monotone_ok == ref.monotone_ok
    assert np.allclose(trace.m_values, ref.m_values, rtol=1e-13, atol=0.0)
