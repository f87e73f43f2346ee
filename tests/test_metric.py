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
from conftest import seeded_spaces


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


def _frozen_validator(dist, tol, n_labels=None):
    """The reference validator: argwhere on every axiom and one intermediate
    point per triangle round. validate_distance_matrix must match it exactly."""
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ShapeError(f"distance matrix must be square, got shape {dist.shape}")
    n = dist.shape[0]
    if n == 0:
        raise ShapeError("a metric space needs at least one point")
    if n_labels is not None and n_labels != n:
        raise ShapeError(f"{n_labels} labels for {n} points")
    if not np.all(np.isfinite(dist)):
        i, j = np.argwhere(~np.isfinite(dist))[0]
        raise NonFiniteEntryError(f"at ({i},{j})")
    bad = np.argwhere(dist < 0)
    if bad.size:
        i, j = bad[0]
        raise NegativeDistanceError(int(i), int(j), float(dist[i, j]))
    diag = np.diagonal(dist)
    if np.any(diag != 0.0):
        i = int(np.argmax(diag != 0.0))
        raise DiagonalError(i, float(dist[i, i]))
    asym = np.argwhere(dist != dist.T)
    if asym.size:
        i, j = asym[0]
        raise AsymmetryError(int(i), int(j), float(dist[i, j]), float(dist[j, i]))
    off = dist + np.diag(np.full(n, np.inf))
    zero = np.argwhere(off == 0.0)
    if zero.size:
        i, j = zero[0]
        raise DuplicatePointError(int(i), int(j))
    if n >= 3:
        detour = np.full((n, n), np.inf)
        for k in range(n):
            np.minimum(detour, dist[:, k, None] + dist[None, k, :], out=detour)
        slack = tol.triangle_rel * float(dist.max())
        viol = np.argwhere(dist > detour + slack)
        if viol.size:
            i, j = viol[0]
            k = int(np.argmin(dist[i, :] + dist[:, j]))
            raise TriangleViolationError(
                int(i), k, int(j), float(dist[i, j]), float(dist[i, k] + dist[k, j])
            )


_CORRUPTIONS = ("clean", "nonfinite", "negative", "diagonal", "asymmetric", "duplicate",
                "triangle", "tight_triangle")


def _corrupt(d, kind, rng, tol):
    """Put 2-4 violations of one kind into the valid matrix d, in place."""
    n = d.shape[0]
    if kind == "clean":
        return
    for _ in range(int(rng.integers(2, 5))):
        i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
        if kind == "nonfinite":
            d[i, j if rng.random() < 0.8 else i] = rng.choice([np.nan, np.inf, -np.inf])
        elif kind == "negative":
            d[i, j] = -d[i, j]
            if rng.random() < 0.5:
                d[j, i] = d[i, j]
        elif kind == "diagonal":
            d[i, i] = rng.choice([d[i, j], 1e-300, -0.5])
        elif kind == "asymmetric":
            d[i, j] = np.nextafter(d[i, j], np.inf) if rng.random() < 0.5 else 1.5 * d[i, j]
        elif kind == "duplicate":
            d[i, j] = d[j, i] = 0.0
        elif kind == "triangle":
            d[i, j] = d[j, i] = d.max() * rng.uniform(2.0, 3.0)
        elif n >= 3:  # tight_triangle: just inside or just beyond the slack
            detour = min(d[i, m] + d[m, j] for m in range(n) if m not in (i, j))
            d[i, j] = d[j, i] = detour + rng.choice([0.5, 2.0]) * tol.triangle_rel * d.max()


def _validation_outcome(validate, d, tol):
    try:
        validate(d, tol)
    except qhm.errors.MetricValidationError as exc:
        return type(exc), str(exc), getattr(exc, "indices", None), getattr(exc, "index", None)
    return None


def test_validator_matches_the_frozen_reference_on_corrupted_matrices():
    """The clean path (one reduction per axiom, triangle detours in blocks of
    intermediate points) raises the same error, message and indices as the
    frozen validator: one block up to n = 24, several beyond, one point per
    block at n = 190."""
    tol = qhm.DEFAULT_TOLERANCES
    rng = np.random.default_rng(4242)
    seen = set()
    for n in (2, 3, 5, 9, 24, 25, 40, 190):
        for kind in _CORRUPTIONS + ("mixed",):
            for rep in range(4 if n < 100 else 1):
                if rep % 2:
                    base = qhm.random_metric(n, seed=int(rng.integers(2**31))).dist
                else:
                    base = qhm.from_euclidean(rng.normal(size=(n, int(rng.integers(1, 5))))).dist
                d = np.array(base)
                if kind == "mixed":
                    for part in rng.choice(_CORRUPTIONS[1:], size=2, replace=False):
                        _corrupt(d, str(part), rng, tol)
                else:
                    _corrupt(d, kind, rng, tol)
                ref = _validation_outcome(_frozen_validator, d, tol)
                assert _validation_outcome(qhm.metric.validate_distance_matrix, d, tol) == ref
                seen.add(None if ref is None else ref[0])
    assert seen == {
        None, NonFiniteEntryError, NegativeDistanceError, DiagonalError, AsymmetryError,
        DuplicatePointError, TriangleViolationError,
    }
    # one violation whose only short detour runs through point k, at every block edge:
    # integer points on a line, k between i and j, d(i,j) stretched by twice the slack
    for n in (24, 25, 40, 64, 190):
        c = max(1, 2**15 // n**2)
        for k in sorted({0, c - 1, c, n - 1} & set(range(n))):
            x = rng.permutation(n).astype(float)
            m = int(np.flatnonzero(x == n // 2)[0])
            x[k], x[m] = x[m], x[k]
            d = np.abs(x[:, None] - x[None, :])
            i, j = sorted(int(np.flatnonzero(x == n // 2 + s)[0]) for s in (-1, 1))
            d[i, j] = d[j, i] = 2.0 + 2.0 * tol.triangle_rel * (n - 1)
            ref = _validation_outcome(_frozen_validator, d, tol)
            assert ref[0] is TriangleViolationError and f"at ({i},{k},{j})" in ref[1]
            assert _validation_outcome(qhm.metric.validate_distance_matrix, d, tol) == ref


def test_scaled_rejects_a_factor_that_is_not_positive_and_finite(star):
    for factor in (math.nan, math.inf, -math.inf, 0.0, -2.0):
        with pytest.raises(ValueError, match="positive and finite"):
            star.scaled(factor)
    # a finite factor can still overflow; the validation of the product reports it
    with pytest.raises(NonFiniteEntryError):
        star.scaled(1e308)
    labelled = qhm.MetricSpace(star.dist, labels=("a", "b", "c", "d"))
    big = labelled.scaled(1e300)
    assert big.labels == labelled.labels
    assert big.dist.tobytes() == (star.dist * 1e300).tobytes()


def test_subspace_is_the_validated_block_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(77)
    validations = []
    validate = qhm.metric.validate_distance_matrix
    monkeypatch.setattr(
        qhm.metric, "validate_distance_matrix", lambda *a: validations.append(1) or validate(*a)
    )
    for space in seeded_spaces(88, 2):
        labels = tuple(f"p{i}" for i in range(space.n))
        parent = qhm.MetricSpace(space.dist, labels=labels)
        choices = [range(m) for m in range(1, space.n + 1)]
        choices += [rng.choice(space.n, size=int(rng.integers(1, space.n + 1)), replace=False)
                    for _ in range(4)]
        choices.append(rng.permutation(space.n))
        for idx in choices:
            validations.clear()
            sub = parent.subspace(idx)
            assert validations == []
            ref = qhm.MetricSpace(space.dist[np.ix_(idx, idx)], labels=[labels[i] for i in idx])
            assert sub.dist.dtype == ref.dist.dtype and sub.dist.shape == ref.dist.shape
            assert sub.dist.tobytes() == ref.dist.tobytes()
            assert sub.dist.flags.c_contiguous and not sub.dist.flags.writeable
            assert sub.labels == ref.labels
            assert space.subspace(idx).labels is None


def test_subspace_rejects_repeated_and_out_of_range_indices(star):
    for idx in ([0, 0], [1, 2, 1], [4], [-1], [0, 4], []):
        with pytest.raises(ValueError, match="distinct point indices"):
            star.subspace(idx)
    with pytest.raises(TypeError):
        star.subspace([0.5])
    assert star.subspace(np.array([3, 1])).dist.tolist() == [[0.0, 2.0], [2.0, 0.0]]


def test_an_empty_matrix_is_a_shape_error():
    with pytest.raises(ShapeError, match="at least one point"):
        qhm.MetricSpace(np.zeros((0, 0)))
