"""The simplex maximizer (exact active set) on closed-form and seeded problems."""

import numpy as np
import pytest

import qhm
from qhm import frankwolfe
from qhm.errors import ConvergenceWarning
from qhm.frankwolfe import maximize_quadratic_on_simplex
from qhm.mconstant import maximize_energy_over_probability


def test_uniform_is_optimal_for_equilateral():
    q = 6.0 * (np.ones((3, 3)) - np.eye(3))
    res = maximize_quadratic_on_simplex(q, gap_tol=1e-12)
    assert res.converged
    assert res.iterations == 0  # uniform start is already optimal
    assert abs(res.value - 4.0) < 1e-12


def test_two_point():
    q = np.array([[0.0, 3.0], [3.0, 0.0]])
    res = maximize_quadratic_on_simplex(q, gap_tol=1e-12)
    assert res.converged
    assert abs(res.value - 1.5) < 1e-12
    assert np.allclose(res.weights, [0.5, 0.5], atol=1e-9)


def test_star_drops_the_hub():
    # hub + 3 leaves: the optimum is uniform on the leaves, value 4/3
    q = np.array(
        [[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]], dtype=float
    )
    res = maximize_quadratic_on_simplex(q, gap_tol=1e-12)
    assert res.converged
    assert abs(res.value - 4.0 / 3.0) < 1e-9
    assert res.weights[0] < 1e-12  # away steps removed the hub entirely
    assert np.allclose(res.weights[1:], 1.0 / 3.0, atol=1e-6)


def test_iterates_stay_on_simplex():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(6, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    q = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    res = maximize_quadratic_on_simplex(q, gap_tol=1e-10)
    assert res.converged
    assert res.gap <= 1e-10
    assert np.all(res.weights >= 0.0)
    assert abs(res.weights.sum() - 1.0) < 1e-12


def test_matches_coarse_grid_on_random_instances():
    rng = np.random.default_rng(9)
    steps = 60
    grid = []
    for i in range(steps + 1):
        for j in range(steps + 1 - i):
            k = steps - i - j
            grid.append((i / steps, j / steps, k / steps))
    grid = np.array(grid)
    for _ in range(10):
        pts = rng.normal(size=(3, 2))
        diff = pts[:, None, :] - pts[None, :, :]
        q = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        res = maximize_quadratic_on_simplex(q, gap_tol=1e-12)
        brute = float(((grid @ q) * grid).sum(axis=1).max())
        assert res.value >= brute - 1e-12
        assert res.value - brute < 5e-3  # grid resolution error only


def _finite_m_corpus():
    """Seeded finite-M spaces: Euclidean point sets, random metrics with finite
    M, and circle and interval samples."""
    rng = np.random.default_rng(31)
    spaces = [
        qhm.from_euclidean(rng.normal(size=(n, dim))) for n in range(3, 16) for dim in (1, 2, 3, n)
    ]
    for n in range(3, 10):
        metrics = (qhm.random_metric(n, seed=seed) for seed in range(60))
        spaces += [s for s in metrics if qhm.compute_m(s).is_finite][:5]
    for kind, key in (("circle", "circumference"), ("interval", "length")):
        desc = qhm.CompactSpaceDescriptor(kind, **{key: 2.0})
        spaces += [desc.sample_space(n) for n in range(2, 17)]
    return spaces


def test_active_set_matches_bordered_faces_and_the_hull(monkeypatch):
    spaces = _finite_m_corpus()
    assert len(spaces) >= 100
    bordered = []
    solve = frankwolfe.eigh_pinv_solve

    def counted(*args, **kwargs):
        bordered.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(frankwolfe, "eigh_pinv_solve", counted)
    active = [maximize_energy_over_probability(s) for s in spaces]
    assert not bordered  # every face solve was a Cholesky solve
    stalled = sum(not r.converged for r in active)
    assert stalled == 0

    # the same faces solved by the bordered pseudoinverse, and M+ by the
    # independent route 2(r^2 - s^2) through the embedding's hull distance
    monkeypatch.setattr(frankwolfe, "definite_solve", lambda *args: None)
    for space, res in zip(spaces, active):
        ref = maximize_energy_over_probability(space)
        assert ref.converged
        assert abs(res.value - ref.value) <= 1e-12 * ref.value
        assert res.value == pytest.approx(qhm.full_embedding(space).m_plus_geometric, rel=1e-9)
    assert len(bordered) >= len(spaces)


def test_stalled_active_set_warns_with_the_best_point_found(monkeypatch):
    rng = np.random.default_rng(32)
    spaces = [qhm.from_euclidean(rng.normal(size=(n, 3))) for n in (4, 6, 9)]
    for space in spaces:
        # one face solve is the opening pair: M+ needs more than that here
        capped = qhm.Tolerances(fw_max_iter=1)
        with pytest.warns(ConvergenceWarning, match="stalled"):
            value = qhm.compute_m_plus(space, tol=capped)
        assert value == pytest.approx(space.diameter / 2.0, rel=1e-15)
        assert value < qhm.compute_m_plus(space)
    monkeypatch.setattr(frankwolfe, "_face_stationary", lambda q, support: None)
    for space in spaces:
        gap_tol = qhm.Tolerances().fw_tol(space.diameter)
        res = maximize_quadratic_on_simplex(space.dist, gap_tol=gap_tol)
        assert not res.converged and res.gap > gap_tol
        assert res.value == space.diameter / 2.0  # the diametral pair, kept
        with pytest.warns(ConvergenceWarning):
            assert qhm.compute_m_plus(space) == res.value


def test_collinear_points_stop_at_the_diametral_pair(monkeypatch):
    # on a line the endpoints carry M+ = D/2, so the opening face certifies
    faces = []
    solve = frankwolfe._face_stationary
    monkeypatch.setattr(
        frankwolfe, "_face_stationary", lambda q, s: faces.append(s.size) or solve(q, s)
    )
    rng = np.random.default_rng(33)
    for n in (3, 8, 20):
        x = rng.normal(size=(n, 1))
        space = qhm.from_euclidean(x)
        faces.clear()
        res = maximize_quadratic_on_simplex(space.dist, gap_tol=1e-12)
        assert faces == [2] and res.iterations == 0
        ends = sorted((int(np.argmin(x)), int(np.argmax(x))))
        assert np.flatnonzero(res.weights).tolist() == ends
        assert res.value == pytest.approx(space.diameter / 2.0, rel=1e-15)


def test_each_drop_removes_the_most_negative_vertex(monkeypatch):
    # from the full support (x0 uniform) the active set has vertices to drop
    faces = []
    solve = frankwolfe._face_stationary

    def recorded(q, support):
        w = solve(q, support)
        faces.append((support.copy(), w))
        return w

    monkeypatch.setattr(frankwolfe, "_face_stationary", recorded)
    drops = 0
    rng = np.random.default_rng(34)
    for n in range(4, 16):
        space = qhm.from_euclidean(rng.normal(size=(n, 2)))
        gap_tol = qhm.Tolerances().fw_tol(space.diameter)
        paired = maximize_quadratic_on_simplex(space.dist, gap_tol)
        faces.clear()
        res = maximize_quadratic_on_simplex(space.dist, gap_tol, x0=np.full(n, 1.0 / n))
        assert res.iterations == 0 and res.value == pytest.approx(paired.value, rel=1e-12)
        for (support, w), (after, _) in zip(faces, faces[1:]):
            if w.min() < -1e-12:
                drops += 1
                assert after.tolist() == np.delete(support, np.argmin(w)).tolist()
    assert drops >= 20
