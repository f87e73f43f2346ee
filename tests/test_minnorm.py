"""Wolfe's min-norm point against an exact face-enumeration oracle."""

import itertools

import numpy as np
import pytest

from qhm import minnorm
from qhm.linalg import eigh_pinv_solve
from qhm.minnorm import min_norm_point_in_hull
from qhm.tolerances import Tolerances


def brute_force_min_norm(pts):
    """Exact answer by enumerating every face of the hull: for each subset,
    solve the affine minimizer and keep it when it is a convex combination."""
    n = pts.shape[0]
    best = np.inf
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(n), r):
            sub = pts[list(subset)]
            m = len(subset)
            gram = sub @ sub.T
            sys = np.zeros((m + 1, m + 1))
            sys[:m, :m] = gram
            sys[:m, m] = 1.0
            sys[m, :m] = 1.0
            rhs = np.zeros(m + 1)
            rhs[m] = 1.0
            sol = np.linalg.lstsq(sys, rhs, rcond=None)[0]
            lam = sol[:m]
            if np.all(lam >= -1e-10):
                best = min(best, float(np.linalg.norm(lam @ sub)))
    return best


def test_single_point():
    res = min_norm_point_in_hull(np.array([[3.0, 4.0]]))
    assert res.converged
    assert abs(res.distance - 5.0) < 1e-12
    assert np.array_equal(res.weights, [1.0])


def test_segment_through_origin():
    pts = np.array([[-1.0, 1.0], [2.0, -2.0]])
    res = min_norm_point_in_hull(pts)
    assert res.distance < 1e-9
    assert np.allclose(res.weights @ pts, 0.0, atol=1e-9)


def test_triangle_origin_inside():
    pts = np.array([[1.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]])
    assert min_norm_point_in_hull(pts).distance < 1e-9


def test_nearest_point_on_edge():
    # hull is the segment x=2, y in [-1, 3]; nearest point is (2, 0)
    pts = np.array([[2.0, -1.0], [2.0, 3.0]])
    res = min_norm_point_in_hull(pts)
    assert abs(res.distance - 2.0) < 1e-10
    assert np.allclose(res.point, [2.0, 0.0], atol=1e-9)


def test_zero_dimensional_points():
    res = min_norm_point_in_hull(np.zeros((3, 0)))
    assert res.distance == 0.0
    assert res.weights.sum() == 1.0


def test_input_that_is_not_a_matrix_is_a_value_error():
    for points in (np.float64(1.0), np.zeros(3), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match=r"\(n, k\) array"):
            min_norm_point_in_hull(points)


def test_malformed_points_and_starts_are_value_errors():
    pts = np.array([[1.0, 0.0], [0.0, 1.0]])
    for start in ([5], [2], [-1], [0, -2]):
        with pytest.raises(ValueError, match=r"start indices must lie in \[0, 2\)"):
            min_norm_point_in_hull(pts, start=start)
    for points in (np.zeros((0, 2)), np.zeros((0, 0)), [[1.0, np.nan], [0.0, 1.0]], [[np.inf, 0.0]]):
        with pytest.raises(ValueError, match="one or more points, all of them finite"):
            min_norm_point_in_hull(points)
    assert min_norm_point_in_hull(pts, start=[1, 0]).converged


def test_a_start_index_that_is_not_an_integer_is_a_type_error():
    """A start of [1.9] was once truncated to point 1 without a word."""
    pts = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(TypeError, match=r"start must hold integer indices, got \[1.9\]"):
        min_norm_point_in_hull(pts, start=[1.9])
    assert min_norm_point_in_hull(pts, start=np.array([1, 0])).converged


def test_weights_reconstruct_point():
    rng = np.random.default_rng(21)
    pts = rng.normal(size=(6, 3)) + 1.0
    res = min_norm_point_in_hull(pts)
    assert res.converged
    assert np.all(res.weights >= 0.0)
    assert abs(res.weights.sum() - 1.0) < 1e-9
    assert np.allclose(res.weights @ pts, res.point, atol=1e-9)


def test_against_face_enumeration_oracle():
    rng = np.random.default_rng(22)
    for trial in range(60):
        n = int(rng.integers(1, 8))
        k = int(rng.integers(1, 4))
        pts = rng.normal(size=(n, k)) + rng.normal(size=k)
        res = min_norm_point_in_hull(pts)
        ref = brute_force_min_norm(pts)
        assert res.converged
        assert abs(res.distance - ref) < 1e-8 * max(1.0, ref)


def bordered_affine_minimizer(pts):
    """The affine minimizer's weights from the bordered system
    [[P P', 1], [1', 0]], by LAPACK least squares as the reference."""
    m = pts.shape[0]
    sys = np.zeros((m + 1, m + 1))
    sys[:m, :m] = pts @ pts.T
    sys[:m, m] = 1.0
    sys[m, :m] = 1.0
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    return np.linalg.lstsq(sys, rhs, rcond=None)[0][:m]


def test_cholesky_corral_matches_the_bordered_pseudoinverse(monkeypatch):
    eliminate = minnorm.semidefinite_solve

    def every_column_kept(*args):
        done = eliminate(*args)
        assert done[0].all(), "an affinely independent corral skipped a column"
        return done

    monkeypatch.setattr(minnorm, "semidefinite_solve", every_column_kept)
    rng = np.random.default_rng(23)
    for _ in range(200):
        k = int(rng.integers(1, 7))
        m = int(rng.integers(1, k + 2))  # at most k + 1 points: affinely independent
        pts = rng.normal(size=(m, k)) + rng.normal(size=k)
        lam = minnorm._affine_minimizer(pts)
        ref = bordered_affine_minimizer(pts)
        assert abs(lam.sum() - 1.0) < 1e-12
        assert np.allclose(lam, ref, rtol=1e-9, atol=1e-9)
        assert np.allclose(lam @ pts, ref @ pts, atol=1e-9)


def test_affinely_dependent_points_take_the_bordered_fallback(monkeypatch):
    calls = []  # per corral solve, whether it kept every column
    eliminate = minnorm.semidefinite_solve

    def counted(*args, **kwargs):
        calls.append((done := eliminate(*args, **kwargs))[0].all())
        return done

    monkeypatch.setattr(minnorm, "semidefinite_solve", counted)
    # a duplicate of the last row, and three collinear lattice points: the
    # elimination meets an exactly zero pivot and skips its column
    duplicate = np.array([[1.0, 2.0], [3.0, -1.0], [1.0, 2.0]])
    collinear = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
    for pts in (duplicate, collinear):
        before = len(calls)
        lam = minnorm._affine_minimizer(pts)
        assert calls[before:] == [False]
        assert abs(lam.sum() - 1.0) < 1e-9
        assert np.allclose(lam @ pts, bordered_affine_minimizer(pts) @ pts, atol=1e-9)
        # the weights are moved along the dependency until an older point's is zero
        assert np.any(lam[:-1] == 0.0)
    # nearly collinear: a positive pivot far below the Gram matrix's scale is
    # skipped too, and the elimination treats the corral as a segment
    nearly = collinear + [[0.0, 0.0], [0.0, 1e-7], [0.0, 0.0]]
    before = len(calls)
    lam = minnorm._affine_minimizer(nearly)
    assert calls[before:] == [False]
    assert np.allclose(lam @ nearly, [0.0, 1.0], atol=1e-6)
    # whole hulls of lattice points, duplicates included, at zero slack: the
    # stopping test's slack is floored at a few ulps, and every run converges
    # with the optimality certificate: x in the hull with x.p >= |x|^2 for
    # every p is the nearest point
    rng = np.random.default_rng(24)
    for trial in range(300):
        k = int(rng.integers(1, 4))
        m = int(rng.integers(2, 7))
        pts = rng.integers(-3, 4, size=(m, k)).astype(float)
        pts = np.vstack([pts, pts[: int(rng.integers(1, m + 1))]])
        res = min_norm_point_in_hull(pts, tol=Tolerances(minnorm=0.0))
        assert res.iterations <= 64
        x = res.point
        assert res.converged
        assert np.all(res.weights >= 0.0) and abs(res.weights.sum() - 1.0) < 1e-12
        assert np.allclose(res.weights @ pts, x, atol=1e-12)
        assert float(np.min(pts @ x)) >= float(x @ x) - 1e-12
    # the same with the repeated rows moved by 1e-7: a corral picks up a point
    # nearly dependent on it, the elimination skips its column, and the run
    # still converges to the face-enumeration answer
    fallbacks = 0
    for trial in range(300):
        k = int(rng.integers(1, 4))
        m = int(rng.integers(2, 7))
        pts = rng.integers(-3, 4, size=(m, k)).astype(float)
        near = pts[: int(rng.integers(1, m + 1))]
        pts = np.vstack([pts, near + 1e-7 * rng.standard_normal(near.shape)])
        before = len(calls)
        res = min_norm_point_in_hull(pts, tol=Tolerances(minnorm=0.0))
        assert res.iterations <= 64
        if not all(calls[before:]):
            fallbacks += 1
            assert res.converged
            assert abs(res.distance - brute_force_min_norm(pts)) < 1e-12
    assert fallbacks >= 5


def test_stuck_corral_is_not_converged(monkeypatch):
    """Points 1-4 are nearly coplanar (smallest singular value 1.1e-5). With
    the corral's affine minimizer taken as the plain pseudoinverse solution,
    which keeps a dependent corral, the run stops when the best vertex is
    already in the corral, with the optimality test x.p_j >= |x|^2 failing
    there by 3.3e-6, so it must not report convergence. The solver's own
    minimizer drops a point from the dependent corral and converges."""
    pts = np.array([
        [-0.9388812169473832, -1.567952727642466, -0.8668168340606442],
        [-0.5673776623125436, -0.49799700746131026, -0.6027669286548639],
        [-1.2150212536744383, 0.3669921891115578, -0.5255653856441137],
        [2.0511460242715236, 0.7553371259116265, -0.06992569060546981],
        [-1.6948536105783951, 0.7061515177403735, -0.52204830397302],
    ])
    res = min_norm_point_in_hull(pts)
    assert res.converged and abs(res.distance - brute_force_min_norm(pts)) < 1e-12

    def pseudoinverse_minimizer(sub):
        m = sub.shape[0]
        system = np.block([[sub @ sub.T, np.ones((m, 1))], [np.ones((1, m)), np.zeros((1, 1))]])
        return eigh_pinv_solve(system, np.eye(m + 1)[m])[0][:m]

    monkeypatch.setattr(minnorm, "_affine_minimizer", pseudoinverse_minimizer)
    res = min_norm_point_in_hull(pts)
    x = res.point
    assert float(np.min(pts @ x)) - float(x @ x) < -1e-6
    assert not res.converged
    assert abs(res.distance - brute_force_min_norm(pts)) < 1e-5


def test_zero_tolerance_converges_with_the_origin_inside():
    """At minnorm = 0 a corral whose point is at rounding level, the origin
    being inside the hull, converges instead of stopping with its best vertex
    already in the corral."""
    pts = np.array([[0, -1], [0, 1], [1, -2], [2, 2], [3, 2], [-2, -1]], dtype=float)
    for hull in (pts, np.vstack([pts, pts[:4]])):
        res = min_norm_point_in_hull(hull, tol=Tolerances(minnorm=0.0))
        assert res.converged and res.distance < 1e-12


def test_wrong_start_corrals_still_reach_the_cold_distance():
    """A start corral missing a vertex of the optimal one is taken and grown.
    One holding a far vertex as well is taken when its affine minimizer lies
    inside its simplex, and else refused: the run is then the cold run, bit
    for bit. Only the optimality test ends each run."""
    rng = np.random.default_rng(25)
    missing = refused = 0
    cycles = np.zeros(2, dtype=int)  # from the start missing a vertex, cold
    for trial in range(80):
        n, k = int(rng.integers(4, 12)), int(rng.integers(2, 6))
        pts = rng.normal(size=(n, k)) + 2.0 * rng.normal(size=k)
        cold = min_norm_point_in_hull(pts)
        slack = 1e-12 * max(1.0, float(np.abs(pts).max()))
        corral = np.flatnonzero(cold.weights > 0.0).tolist()
        if len(corral) >= 2:
            missing += 1
            res = min_norm_point_in_hull(pts, start=corral[1:])
            assert res.converged and abs(res.distance - cold.distance) <= slack
            cycles += res.iterations, cold.iterations
        outside = [i for i in range(n) if i not in corral]
        if outside and len(corral) <= k:
            far = max(outside, key=lambda i: float(pts[i] @ cold.point))
            start = sorted(corral + [far])
            res = min_norm_point_in_hull(pts, start=start)
            assert res.converged and abs(res.distance - cold.distance) <= slack
            if not np.all(minnorm._affine_minimizer(pts[start]) > 1e-12):
                refused += 1
                assert np.array_equal(res.weights, cold.weights) and res.iterations == cold.iterations
    assert missing >= 50 and refused >= 60, (missing, refused)
    assert cycles[0] < cycles[1], cycles
    # an empty start is no start
    pts = rng.normal(size=(6, 3)) + 1.0
    assert np.array_equal(min_norm_point_in_hull(pts, start=[]).weights, min_norm_point_in_hull(pts).weights)


def test_the_corral_cut_does_not_follow_the_rank_tolerance():
    """The triangle 3e-4 high holds the origin. Its corral's pivot cut is
    ``RANK_REL`` whatever the record's ``rank``; a cut of 1e-6 would treat the
    triangle as a segment and stop unconverged at distance 1e-4."""
    pts = np.array([[-1.0, -1e-4], [1.0, -1e-4], [0.0, 2e-4]])
    for t in (Tolerances(), Tolerances(rank=1e-6)):
        res = min_norm_point_in_hull(pts, tol=t)
        assert res.converged and res.distance < 1e-12
