"""Property verdicts: fixtures, witnesses, and the supporting laws."""

import numpy as np
import pytest

import qhm
from qhm.errors import BudgetExceededError
from qhm.linalg import double_center, jacobi_eigh
from qhm.tolerances import DEFAULT_TOLERANCES

from conftest import euclidean_corpus


def collinear(u, v):
    u = np.asarray(u, float) / np.linalg.norm(u)
    v = np.asarray(v, float) / np.linalg.norm(v)
    return abs(abs(u @ v) - 1.0) < 1e-9


def test_quasihypermetric_fixtures(equilateral, assouad, one_point):
    assert qhm.check_quasihypermetric(equilateral).holds
    assert qhm.check_quasihypermetric(assouad).holds
    assert qhm.check_quasihypermetric(one_point).holds


def test_not_quasihypermetric_witness(non_quasihypermetric):
    verdict = qhm.check_quasihypermetric(non_quasihypermetric)
    assert not verdict.holds
    w = verdict.witness.weights
    assert abs(w.sum()) < 1e-9
    assert w @ non_quasihypermetric.dist @ w > DEFAULT_TOLERANCES.pos_tol(
        non_quasihypermetric.n, non_quasihypermetric.diameter
    )


def test_strictness_fixtures(equilateral, assouad, cycle4, one_point):
    assert qhm.check_strictly_quasihypermetric(equilateral).holds
    assert qhm.check_strictly_quasihypermetric(one_point).holds
    a = qhm.check_strictly_quasihypermetric(assouad)
    assert not a.holds
    assert collinear(a.witness.weights, [2, -2, -2, 1, 1])
    c = qhm.check_strictly_quasihypermetric(cycle4)
    assert not c.holds
    assert collinear(c.witness.weights, [1, -1, 1, -1])


def test_strictness_witness_has_zero_energy(assouad):
    w = qhm.check_strictly_quasihypermetric(assouad).witness.weights
    assert abs(w.sum()) < 1e-9
    assert abs(w @ assouad.dist @ w) < 1e-9


def test_hypermetric_fixtures(assouad, one_point):
    verdict = qhm.check_hypermetric_bounded(assouad, bound=1)
    assert not verdict.holds
    assert list(verdict.witness) == [1, -1, -1, 1, 1]
    b = np.asarray(verdict.witness, float)
    assert b.sum() == 1
    assert b @ assouad.dist @ b == 4.0
    # the same vector is still the lexicographically first violator at bound 3
    assert list(qhm.check_hypermetric_bounded(assouad, bound=3).witness) == [1, -1, -1, 1, 1]
    assert qhm.check_hypermetric_bounded(one_point, bound=3).holds


def test_hypermetric_every_4_point_space_passes():
    for seed in range(40):
        space = qhm.random_metric(4, seed=seed)
        assert qhm.check_hypermetric_bounded(space, bound=3).holds


def test_hypermetric_budget_and_validation(assouad):
    tight = qhm.Tolerances(hyper_budget=100.0)
    with pytest.raises(BudgetExceededError) as exc:
        qhm.check_hypermetric_bounded(assouad, bound=3, tol=tight)
    assert "budget" in str(exc.value)
    with pytest.raises(ValueError):
        qhm.check_hypermetric_bounded(assouad, bound=0)


def test_nullspace_fixtures(equilateral, assouad, cycle4, one_point):
    rank, basis = qhm.distance_matrix_nullspace(equilateral)
    assert rank == 3 and basis.shape == (3, 0)
    rank, basis = qhm.distance_matrix_nullspace(assouad)
    assert rank == 5 and basis.shape == (5, 0)
    rank, basis = qhm.distance_matrix_nullspace(cycle4)
    assert rank == 3 and basis.shape == (4, 1)
    assert collinear(basis[:, 0], [1, -1, 1, -1])
    # the 1x1 zero matrix: rank 0, whole space as nullspace
    rank, basis = qhm.distance_matrix_nullspace(one_point)
    assert rank == 0 and basis.shape == (1, 1)


def test_witness_soundness_on_failures(assouad, cycle4, non_quasihypermetric):
    # every failing verdict must re-evaluate to a genuine violation
    tol = DEFAULT_TOLERANCES
    for space in (assouad, cycle4, non_quasihypermetric):
        c = qhm.classify_space(space, hyper_bound=1)
        if not c.quasihypermetric.holds:
            w = c.quasihypermetric.witness.weights
            assert abs(w.sum()) < 1e-9
            assert w @ space.dist @ w > tol.pos_tol(space.n, space.diameter)
        elif not c.strictly_quasihypermetric.holds:
            w = c.strictly_quasihypermetric.witness.weights
            assert np.linalg.norm(w) > 0.5
            assert abs(w.sum()) < 1e-9
            assert abs(w @ space.dist @ w) <= tol.pos_tol(space.n, space.diameter)
        if not c.hypermetric_up_to_bound.holds:
            b = np.asarray(c.hypermetric_up_to_bound.witness, float)
            assert b.sum() == 1.0
            assert b @ space.dist @ b > tol.pos_tol(space.n, space.diameter)


def test_schoenberg_consistency(equilateral, assouad, cycle4, star, non_quasihypermetric):
    # quasihypermetric iff the centred kernel -1/2 P d P is PSD
    spaces = [equilateral, assouad, cycle4, star, non_quasihypermetric]
    spaces += [qhm.random_metric(n, seed=s) for n in (3, 4, 5) for s in range(5)]
    for space in spaces:
        w, _ = jacobi_eigh(-0.5 * double_center(space.dist))
        psd = w[0] >= -DEFAULT_TOLERANCES.pos_tol(space.n, space.diameter)
        assert psd == qhm.check_quasihypermetric(space).holds


def test_euclidean_subsets_are_strictly_quasihypermetric():
    for space in euclidean_corpus(25, seed=2024):
        assert qhm.check_strictly_quasihypermetric(space).holds


def test_small_spaces_table_rows():
    # 3-point spaces: quasihypermetric and hypermetric, always
    for seed in range(40):
        c = qhm.classify_space(qhm.random_metric(3, seed=seed))
        assert c.quasihypermetric.holds
        assert c.hypermetric_up_to_bound.holds
    # 4-point spaces: same two columns always hold; strictness varies
    for seed in range(40):
        c = qhm.classify_space(qhm.random_metric(4, seed=seed))
        assert c.quasihypermetric.holds
        assert c.hypermetric_up_to_bound.holds


def test_verdicts_are_scale_invariant(assouad, cycle4, star):
    for space in (assouad, cycle4, star):
        base = qhm.classify_space(space, hyper_bound=2)
        for lam in (0.25, 3.0, 17.0):
            scaled = qhm.classify_space(space.scaled(lam), hyper_bound=2)
            assert scaled.quasihypermetric.holds == base.quasihypermetric.holds
            assert (
                scaled.strictly_quasihypermetric.holds
                == base.strictly_quasihypermetric.holds
            )
            assert (
                scaled.hypermetric_up_to_bound.holds == base.hypermetric_up_to_bound.holds
            )
            assert scaled.matrix_rank == base.matrix_rank


def test_verdict_truthiness():
    assert bool(qhm.Verdict(True)) is True
    assert bool(qhm.Verdict(False, witness=np.array([1, -1]))) is False


def test_classify_space_matches_the_single_checks(assouad, cycle4, star, non_quasihypermetric):
    rng = np.random.default_rng(17)
    spaces = [assouad, cycle4, star, non_quasihypermetric]
    spaces += [qhm.random_metric(6, seed=int(rng.integers(0, 2**31))) for _ in range(10)]
    for space in spaces:
        c = qhm.classify_space(space, hyper_bound=1)
        pairs = (
            (c.quasihypermetric, qhm.check_quasihypermetric(space)),
            (c.strictly_quasihypermetric, qhm.check_strictly_quasihypermetric(space)),
        )
        for got, alone in pairs:
            assert got.holds == alone.holds
            if alone.witness is None:
                assert got.witness is None
            else:  # the same decomposition, so the same witness bit for bit
                assert np.array_equal(got.witness.weights, alone.witness.weights)
