"""M(X), maximal measures, M+, and their certificates."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import qhm
from qhm.errors import InconsistentSystemError, PreconditionError
from qhm.linalg import _nonzero, eigh_pinv_solve, jacobi_eigh, lstsq_minnorm, semidefinite_solve
from qhm.mconstant import TAG_NOT_QUASIHYPERMETRIC, TAG_ZERO_MASS, MReport, _certified
from qhm.spaces import FIXTURE_NAMES

from conftest import LOOSENED_POS_CASES, NON_QH_SEED, circle_sample, euclidean_corpus, k23
from conftest import quadratic_oracle_m
from conftest import restricted_top as _restricted_top
from conftest import seeded_spaces


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


def test_m_plus_refuses_a_space_where_its_gap_certifies_only_a_kkt_point():
    """On K_{2,3}, not quasihypermetric, the gap test passes at energy 1,
    below the energy 4/3 of the uniform measure on the leaves, so M+ is
    refused rather than reported."""
    space = k23()
    stalled = qhm.frankwolfe.maximize_quadratic_on_simplex(space.dist)
    leaves = np.array([0.0, 0.0, 1.0, 1.0, 1.0]) / 3.0
    assert stalled.converged and stalled.value == 1.0 < leaves @ space.dist @ leaves
    with pytest.raises(PreconditionError, match="quasihypermetric"):
        qhm.compute_m_plus(space)


def test_the_package_has_one_m_plus_entry():
    for home in (qhm, qhm.mconstant):
        assert not hasattr(home, "maximize_energy_over_probability")
    assert "maximize_energy_over_probability" not in qhm.__all__
    assert "compute_m_plus" in qhm.__all__


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


@pytest.mark.parametrize("name", ["star_1_2", "cycle4_arclength", "equilateral3_6", "assouad5"])
@pytest.mark.parametrize("k", [-150, -12, -9, 7, 8, 12, 150])
def test_scale_covariance_across_magnitudes(name, k):
    """M(cX) = c M(X) with the same path, c = 10^k, from 1e-150 to 1e150:
    the mass and the zero-mass gap are judged in units of the diameter."""
    space, c = qhm.make_fixture(name), 10.0**k
    base, scaled = qhm.compute_m(space), qhm.compute_m(space.scaled(c))
    assert scaled.method_tags == base.method_tags
    if base.is_finite:
        assert abs(scaled.m_value / c - base.m_value) <= 1e-12 * base.m_value
        assert np.allclose(scaled.maximal_measure.weights, base.maximal_measure.weights, atol=1e-12)
    else:
        assert not scaled.is_finite
    assert qhm.build_report(space.scaled(c))["m_report"]["method_tags"] == list(base.method_tags)


def test_monotone_under_point_addition():
    rng = np.random.default_rng(77)
    pts = rng.normal(size=(8, 3))
    values = []
    for n in range(2, 9):
        values.append(qhm.compute_m(qhm.from_euclidean(pts[:n])).m_value)
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-9


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


def _spied_elimination(monkeypatch):
    """Patch compute_m's elimination to log each report it returns."""
    solve = qhm.mconstant._from_elimination
    returned = []
    monkeypatch.setattr(
        qhm.mconstant, "_from_elimination", lambda *args: returned.append(solve(*args)) or returned[-1]
    )
    return returned


def test_qh_decision_matches_the_centred_route(monkeypatch):
    """compute_m reads the verdict off Cholesky factorizations and solves
    every quasihypermetric space, strict or in the band, by the one
    semidefinite elimination; P d P must agree, and on a quasihypermetric
    space M is the reciprocal mass of d's pseudoinverse solution of d w = 1,
    infinite with a zero-mass certificate where that mass is zero."""
    reference_check = qhm.check_quasihypermetric
    returned = _spied_elimination(monkeypatch)
    spaces = seeded_spaces(2024, 64)
    spaces += [qhm.make_fixture(name) for name in FIXTURE_NAMES]
    assert len(spaces) >= 1000
    branches = {"not-qh": 0, "strict": 0, "band": 0, "zero-mass": 0}
    t = qhm.DEFAULT_TOLERANCES
    for space in spaces:
        before = len(returned)
        rep = qhm.compute_m(space)
        qh = reference_check(space).holds
        assert (TAG_NOT_QUASIHYPERMETRIC in rep.method_tags) == (not qh)
        assert (len(returned) > before) == qh
        if not qh:
            branches["not-qh"] += 1
            assert rep.system_residual is None
            continue
        if qhm.classify.Analysis(space).strict is not None:
            branches["strict"] += 1
            assert rep.method_tags == ("m:elimination", "m:unique-solution")
        else:
            branches["band"] += 1
        w0, residual, _, _ = eigh_pinv_solve(space.dist, np.ones(space.n))
        assert residual <= t.res_tol(space.n)
        mass = float(w0.sum())  # null vectors of a consistent system have mass zero
        if abs(mass) <= t.mass_tol(space.n):
            assert math.isinf(rep.m_value) and TAG_ZERO_MASS in rep.method_tags
            branches["zero-mass"] += 1
        else:
            assert abs(rep.m_value - 1.0 / mass) <= 1e-9 * max(1.0, 1.0 / mass)
    assert min(branches[b] for b in ("not-qh", "strict", "band")) >= 10, branches
    assert branches["zero-mass"] >= 1, branches


def _permuted(space, perm):
    return qhm.MetricSpace(space.dist[np.ix_(perm, perm)])


def test_permutation_invariance():
    rng = np.random.default_rng(61)
    for space in seeded_spaces(61, 3):
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
    for space in seeded_spaces(62, 3):
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
    for space in seeded_spaces(63, 3):
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


def _canonical_solution(w0, null_basis):
    """The basic solution of a singular consistent system: from the
    minimum-norm solution w0, move within the solution set so that a maximal
    independent set of "free" coordinates, chosen greedily from the highest
    index down, is exactly zero. A frozen copy of the eigenvector route that
    compute_m no longer has, kept as its reference."""
    m = null_basis.shape[1]
    if m == 0:
        return w0, "unique-solution"
    picked, ortho = [], []
    for j in range(null_basis.shape[0] - 1, -1, -1):
        r = null_basis[j].astype(float)
        for u in ortho:
            r = r - (r @ u) * u
        norm = float(np.linalg.norm(r))
        if norm > 1e-8:
            picked.append(j)
            ortho.append(r / norm)
            if len(picked) == m:
                break
    rows = np.array(picked)
    t, _ = lstsq_minnorm(null_basis[rows, :], -w0[rows])
    w = w0 + null_basis @ t
    w[rows] = 0.0
    return w, "basic-solution"


def _eigenvector_route(space, t=qhm.DEFAULT_TOLERANCES):
    """compute_m's former route for a quasihypermetric space in the band, as
    the reference: ``eigh_pinv_solve``'s pseudoinverse solve of d w = 1 on
    LAPACK's eigenpairs, then ``_canonical_solution``, then the certificate
    checks. Returns the report and d's null basis."""
    lam, v = np.linalg.eigh(space.dist)
    keep = _nonzero(lam, t.rank)
    w0 = v[:, keep] @ (v[:, keep].sum(axis=0) / lam[keep])
    residual = float(np.linalg.norm(space.dist @ w0 - 1.0))
    rank, null_basis = int(np.count_nonzero(keep)), v[:, ~keep]
    assert residual <= t.res_tol(space.n)
    w, how = _canonical_solution(w0, null_basis)
    mass = float(w.sum())
    if abs(mass) <= t.mass_tol(space.n):
        return MReport._infinite((TAG_ZERO_MASS, f"m:{how}"), mass, residual), null_basis
    return _certified(space, w, rank == space.n, t), null_basis


def _counted_eigensolvers(monkeypatch):
    """Patch every binding of ``jacobi_eigh`` and ``eigh_pinv_solve`` that the
    package reads to log the size of each call."""
    calls = []

    def counting(fn):
        return lambda a, *args, **kwargs: calls.append(len(a)) or fn(a, *args, **kwargs)

    for module in (qhm.linalg, qhm.classify, qhm.mconstant):
        for name in ("jacobi_eigh", "eigh_pinv_solve"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(getattr(module, name)))
    return calls


def test_compute_m_runs_no_eigensolver(monkeypatch):
    """compute_m decides the quasihypermetric property by Cholesky and solves
    every quasihypermetric space by the semidefinite elimination, within
    +-pos_tol of the threshold too, zero-mass spaces such as assouad5
    included, and makes no jacobi_eigh or eigh_pinv_solve call on any input,
    not even where the elimination declines and raises."""
    returned = _spied_elimination(monkeypatch)
    calls = _counted_eigensolvers(monkeypatch)
    spaces = seeded_spaces(4048, 64) + [circle_sample(n) for n in range(14, 25)]
    spaces += [qhm.make_fixture(name) for name in FIXTURE_NAMES]
    assert len(spaces) >= 1000
    t = qhm.DEFAULT_TOLERANCES
    branches = {"strict": 0, "not-qh": 0, "band": 0, "zero-mass": 0}
    for space in spaces:
        top, ptol = _restricted_top(space), t.pos_tol(space.n, space.diameter)
        returned.clear()
        rep = qhm.compute_m(space)
        if top < -ptol:
            branch = "strict"
            assert rep.is_finite and rep.unique_maximal
        elif top > ptol:
            branch = "not-qh"
            assert TAG_NOT_QUASIHYPERMETRIC in rep.method_tags
        else:
            branch = "band" if rep.is_finite else "zero-mass"
        assert returned == ([] if branch == "not-qh" else [rep])
        assert calls == [], (branch, space.n)
        branches[branch] += 1
    assert branches["zero-mass"] >= 1, branches
    assert min(branches[b] for b in ("strict", "not-qh", "band")) >= 10, branches
    for n, seed, pos in LOOSENED_POS_CASES:
        with pytest.raises(InconsistentSystemError):
            qhm.compute_m(qhm.random_metric(n, seed=seed), tol=qhm.Tolerances(pos=pos))
    assert calls == []


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
    neither does; ptol = (1 +- 1e-6) kappa on seeded spaces asks for the
    verdict to six digits, and ptol = lambda_2 of d sets it at an eigenvalue
    of d itself. compute_m's verdict equals
    check_quasihypermetric's every time, as it does on circle samples at the
    default tolerances, except on spaces that are not quasihypermetric by
    less than ptol: there the elimination cannot certify a maximal measure,
    and compute_m raises (exit 14) rather than return a saddle value."""
    rng = np.random.default_rng(71)
    strict = qhm.from_euclidean(rng.normal(size=(7, 3)))
    non_qh = qhm.random_metric(5, seed=NON_QH_SEED)
    assert _restricted_top(strict) < 0.0 < _restricted_top(non_qh)
    spaces = [strict, non_qh]
    for n in range(4, 9):
        for _ in range(4):
            spaces.append(qhm.random_metric(n, seed=int(rng.integers(0, 2**31))))
            spaces.append(qhm.from_euclidean(rng.normal(size=(n, 3))))
    not_qh = poles = runs = declined = 0
    for space in spaces:
        top = _restricted_top(space)
        kappa = abs(top)
        not_qh += top > 0.0
        ptols = [scale * kappa for scale in (2.0, 0.5, 1.0 + 1e-6, 1.0 - 1e-6)]
        lam2 = float(jacobi_eigh(space.dist)[0][-2])
        if lam2 > 0.0:
            ptols.append(lam2)
        for ptol in ptols:
            t = _tolerances_at(space, ptol)
            poles += t.pos_tol(space.n, space.diameter) == lam2
            runs += 1
            verdict = qhm.check_quasihypermetric(space, tol=t).holds
            assert verdict == (top < 0.0 or ptol > kappa)
            if verdict and top > 0.0:
                with pytest.raises(InconsistentSystemError, match="pos"):
                    qhm.compute_m(space, tol=t)
                declined += 1
                continue
            rep = qhm.compute_m(space, tol=t)
            assert (TAG_NOT_QUASIHYPERMETRIC not in rep.method_tags) == verdict
    assert not_qh >= 5 and poles >= 2, (not_qh, poles)
    assert (runs, declined) == (172, 10)
    for n in range(2, 40):
        circle = circle_sample(n)
        verdict = qhm.check_quasihypermetric(circle).holds
        assert (TAG_NOT_QUASIHYPERMETRIC not in qhm.compute_m(circle).method_tags) == verdict


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
    are those of the frozen eigenvector route to rounding. On assouad5 both
    find M infinite at zero mass."""
    t = qhm.DEFAULT_TOLERANCES
    # (space, whether it is in the band, where Analysis.strict fails): circles of 4 points or
    # more, even cycles and hypercubes of 4 points or more are in the band
    cases = [(circle_sample(n, c), n >= 4) for c in np.linspace(0.9, 12.7, 10) for n in range(2, 49)]
    for n in range(3, 16):
        cycle = _graph_space(lambda i, j: (i - j) % n in (1, n - 1), n)
        cases.append((cycle, n % 2 == 0))
    for k in range(1, 6):
        cases.append((_graph_space(lambda i, j: bin(i ^ j).count("1") == 1, 2**k), k >= 2))
    band_fixtures = ("cycle4_arclength", "assouad5")
    cases += [(qhm.make_fixture(name), name in band_fixtures) for name in FIXTURE_NAMES]
    returned = _spied_elimination(monkeypatch)
    for space, in_band in cases:
        returned.clear()
        rep = qhm.compute_m(space)
        ref, null_basis = _eigenvector_route(space)
        assert rep.is_finite == ref.is_finite
        assert returned == [rep] and (qhm.classify.Analysis(space).strict is None) == in_band, space.n
        if not rep.is_finite:
            assert TAG_ZERO_MASS in rep.method_tags and rep.method_tags[0] == ref.method_tags[0]
            continue
        assert rep.method_tags == ("m:elimination", *ref.method_tags[1:])
        assert rep.unique_maximal == ref.unique_maximal
        if in_band:
            # what _canonical_solution zeroes: from a generic start the rest is nonzero
            start = np.random.default_rng(space.n).normal(size=space.n)
            zeros = np.flatnonzero(_canonical_solution(start, null_basis)[0] == 0.0)
            g = space.dist[1:, 0]
            k0 = g[:, None] + g[None, :] - space.dist[1:, 1:]
            kept = semidefinite_solve(k0, g, t.rank * k0.diagonal().max(), np.inf)[0]
            zeroed = np.flatnonzero(~np.append(True, kept))
            assert np.array_equal(zeroed, zeros)
            assert np.all(rep.maximal_measure.weights[zeroed] == 0.0)
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


def _witnesses(monkeypatch):
    """Patch ``invariant_value`` in mconstant to log each measure it checks:
    the zero-mass witnesses of the elimination."""
    check = qhm.mconstant.invariant_value
    seen = []
    monkeypatch.setattr(qhm.mconstant, "invariant_value", lambda mu, t=None: seen.append(mu) or check(mu, t))
    return seen


def test_zero_mass_witness_from_the_band(monkeypatch):
    """On assouad5, K0 y = g0 is inconsistent on the skipped column, and K0's
    null vector there is the mass-zero measure v = (2, -2, -2, 1, 1) with
    d v = 2 1: M is infinite, certified by invariant_value, in every order of
    the points. On cycle4_arclength the same vector has potential 0, so the
    system is consistent and no witness is sought."""
    seen = _witnesses(monkeypatch)
    assouad = qhm.make_fixture("assouad5")
    t = qhm.DEFAULT_TOLERANCES
    rep = qhm.compute_m(assouad)
    assert rep.method_tags == (TAG_ZERO_MASS, "m:elimination-null-vector")
    assert math.isinf(rep.m_value) and rep.maximal_measure is None
    assert abs(rep.solution_mass) <= t.mass_tol(5) and rep.system_residual <= t.res_tol(5)
    [v] = seen
    assert np.allclose(v.weights, [2, -2, -2, 1, 1], rtol=0.0, atol=1e-12)
    assert abs(v.mass) <= 1e-12 and abs(qhm.invariant_value(v) - 2.0) <= 1e-12
    for perm in itertools.permutations(range(5)):
        seen.clear()
        rep = qhm.compute_m(_permuted(assouad, list(perm)))
        assert TAG_ZERO_MASS in rep.method_tags and len(seen) == 1
        level = qhm.invariant_value(seen[0])
        assert abs(seen[0].mass) <= t.mass_tol(5) and abs(level) > t.inv_tol(5, assouad.diameter)
    seen.clear()
    assert qhm.compute_m(qhm.make_fixture("cycle4_arclength")).m_value == 2.0 and seen == []


def test_band_declines_raise_naming_pos(monkeypatch):
    """Where the elimination cannot certify M (a Gershgorin bound below
    -pos_tol, or a solution that fails its checks and no inconsistent column
    to give a zero-mass witness), compute_m raises InconsistentSystemError,
    exit 14, naming pos: on the not-QH threshold spaces at ptol = (1 + 1e-6)
    kappa, and, with ``Analysis.qh`` made to pass, on not-QH spaces,
    one of them with a certifiable basic solution."""
    cases = [(space, _tolerances_at(space, (1.0 + 1e-6) * top)) for space, top in _threshold_non_qh()]
    assert len(cases) >= 5
    forced = [qhm.random_metric(5, seed=NON_QH_SEED), _at_the_shifted_level()]
    for space in forced:
        assert _restricted_top(space) > 1e-2
    for space, t in cases + [(space, None) for space in forced]:
        with monkeypatch.context() as patch:
            if t is None:
                patch.setattr(qhm.classify.Analysis, "qh", True)
            with pytest.raises(InconsistentSystemError, match="pos") as caught:
                qhm.compute_m(space, tol=t)
        assert caught.value.exit_code == 14


@pytest.mark.parametrize(("n", "seed", "pos"), LOOSENED_POS_CASES)
def test_loosened_pos_gives_no_saddle_value(n, seed, pos):
    """A space that is not quasihypermetric by less than pos_tol has no
    maximal measure; the stationary value of d w = 1 is a saddle (here
    M = -4.85 and M = 1.0095 < D/2), so compute_m raises rather than return it."""
    space = qhm.random_metric(n, seed=seed)
    t = qhm.Tolerances(pos=pos)
    assert 0.0 < _restricted_top(space) < t.pos_tol(space.n, space.diameter)
    with pytest.raises(InconsistentSystemError, match="pos"):
        qhm.compute_m(space, tol=t)


def test_approx_m_of_a_circle_makes_no_decomposition(monkeypatch):
    """Every circle sample of 4 points or more is in the band; the nested
    trace to 48 points solves each without an eigensolver and matches the
    frozen eigenvector route at every size."""
    desc = qhm.CompactSpaceDescriptor(kind="circle", circumference=8.0)
    full = desc.sample_space(48)
    ref = [_eigenvector_route(full.subspace(range(n)))[0].m_value for n in range(2, 49)]
    calls = _counted_eigensolvers(monkeypatch)
    trace = qhm.approx_m(desc, 48)
    assert calls == []
    assert trace.sizes == list(range(2, 49)) and trace.monotone_ok
    assert np.allclose(trace.m_values, ref, rtol=1e-13, atol=0.0)


def test_strictness_is_decided_by_the_tolerances_before_any_factoring(monkeypatch, star):
    """With pos < neg the strict test is off without a factorization, as it
    is for the verdicts; ``compute_m``'s one elimination does not read it and
    finds the same M, maximal measure and tags."""
    t = qhm.Tolerances(neg=1e-8)
    ref = qhm.compute_m(star)
    assert qhm.classify.Analysis(star).strict is not None
    assert ref.method_tags == ("m:elimination", "m:unique-solution")
    k, _, shift = qhm.classify.Analysis(star, t).form

    def no_strict_margin(a):  # Analysis.strict never factors K - ptol S
        assert not np.array_equal(a, k - shift)
        return qhm.linalg.cholesky(a)

    monkeypatch.setattr(qhm.classify, "cholesky", no_strict_margin)
    rep = qhm.compute_m(star, tol=t)
    assert rep.method_tags == ("m:elimination", "m:unique-solution")
    assert abs(rep.m_value - ref.m_value) <= t.inv_tol(star.n, star.diameter)
    assert np.allclose(rep.maximal_measure.weights, ref.maximal_measure.weights, rtol=0.0, atol=1e-12)


def _exact_mass(dist):
    """The mass of an exact rational solution of d w = 1 from d's float
    entries, by Gauss-Jordan elimination over ``Fraction`` with the free
    variables at 0 (on a QH space every solution has the same mass), or None
    where the system is inconsistent. Shares no code with the package."""
    n = len(dist)
    rows = [[Fraction(float(x)) for x in row] + [Fraction(1)] for row in dist]
    rank = 0
    for c in range(n):
        p = next((i for i in range(rank, n) if rows[i][c] != 0), None)
        if p is None:
            continue
        head = rows[p][c]
        rows[rank], rows[p] = rows[p], rows[rank]
        pivot = rows[rank] = [x / head for x in rows[rank]]
        for i in range(n):
            if i != rank and (f := rows[i][c]) != 0:
                rows[i] = [x - f * y for x, y in zip(rows[i], pivot)]
        rank += 1
    if any(row[n] != 0 for row in rows[rank:]):
        return None
    return sum(row[n] for row in rows[:rank])


def _strict_near_threshold(n, s, window):
    """A strictly quasihypermetric space whose restricted top eigenvalue lies
    in ``window`` (in units of -ptol): bisection of the segment from a
    Gaussian Euclidean space to the first ``random_metric`` that is not QH."""
    lo = qhm.from_euclidean(np.random.default_rng(s).normal(size=(n, 3))).dist
    seeds = (qhm.random_metric(n, 1000 * s + k) for k in range(1000))
    hi, a, b = next(m for m in seeds if _restricted_top(m) > 0.0).dist, 0.0, 1.0
    for _ in range(200):
        space = qhm.MetricSpace((1.0 - (t := 0.5 * (a + b))) * lo + t * hi)
        depth = -_restricted_top(space) / qhm.DEFAULT_TOLERANCES.pos_tol(n, space.diameter)
        if window[0] <= depth <= window[1]:
            return space
        a, b = (t, b) if depth > window[1] else (a, t)
    raise AssertionError("the bisection found no space in the window")


def test_finite_m_is_the_exact_rational_solution():
    """M = 1 / sum w for the exact rational solution w of d w = 1 from d's
    float entries, within 1e-6 relative wherever ``compute_m`` finds M finite:
    the fixtures, seeded spaces at n <= 10, and 8 strictly QH spaces 0.5 to
    50 ptol from the threshold, where M reaches about 1e6."""
    rng = np.random.default_rng(29)
    spaces = [qhm.make_fixture(name) for name in FIXTURE_NAMES]
    for _ in range(10):
        n = int(rng.integers(2, 11))
        spaces.append(qhm.from_euclidean(rng.normal(size=(n, int(rng.integers(1, 4))))))
        spaces.append(qhm.random_metric(n, seed=int(rng.integers(0, 2**31))))
    windows = [(25.0, 50.0), (2.5, 5.0), (1.0, 1.5), (0.5, 0.75)]
    near = [_strict_near_threshold(n, s, w) for n, s in ((6, 0), (8, 1)) for w in windows]
    compared = Counter()
    for space, is_near in [(space, False) for space in spaces] + [(space, True) for space in near]:
        m = qhm.compute_m(space).m_value
        if math.isfinite(m):
            mass = _exact_mass(space.dist)
            assert mass is not None and mass != 0
            assert abs(m * float(mass) - 1.0) <= 1e-6, (m, float(1 / mass))
            compared[is_near] += 1
    assert compared[True] == 8 and compared[False] >= 12, compared
