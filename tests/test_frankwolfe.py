"""The simplex maximizer (exact active set) on closed-form and seeded problems."""

import dataclasses

import numpy as np
import pytest

import qhm
from qhm import frankwolfe, minnorm
from qhm.errors import ConvergenceWarning
from qhm.frankwolfe import maximize_quadratic_on_simplex
from qhm.mconstant import maximize_energy_over_probability


def test_uniform_is_optimal_for_equilateral():
    q = 6.0 * (np.ones((3, 3)) - np.eye(3))
    res = maximize_quadratic_on_simplex(q, gap_tol=1e-12)
    assert res.converged
    assert res.iterations == 2  # the diametral pair, then the whole face
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


def _warm_start(space):
    """The normalized positive part of the maximal measure, its weights within
    1e-12 of zero counted as zero: M+'s first face."""
    w = qhm.compute_m(space).maximal_measure.weights
    positive = np.where(w > 1e-12, w, 0.0)
    return positive / positive.sum()


def test_stalled_active_set_warns_with_the_best_point_found(monkeypatch):
    rng = np.random.default_rng(43)
    spaces = [qhm.from_euclidean(rng.normal(size=(n, 3))) for n in (6, 9, 12)]
    for space in spaces:
        # the first warm face has a negative weight, so M+ needs two or more
        # faces here, and at one the best point found is the start itself
        x0 = _warm_start(space)
        first = frankwolfe._face_stationary(space.dist, np.flatnonzero(x0))
        assert first.min() < -1e-12
        capped = qhm.Tolerances(fw_max_iter=1)
        with pytest.warns(ConvergenceWarning, match="stalled"):
            value = qhm.compute_m_plus(space, tol=capped)
        assert value == pytest.approx(x0 @ space.dist @ x0, rel=1e-15)
        assert value < qhm.compute_m_plus(space)
    monkeypatch.setattr(frankwolfe, "_face_stationary", lambda q, support: None)
    for space in spaces:
        gap_tol = qhm.Tolerances().fw_tol(space.diameter)
        res = maximize_quadratic_on_simplex(space.dist, gap_tol=gap_tol)
        assert not res.converged and res.gap > gap_tol and res.iterations == 1
        assert res.value == space.diameter / 2.0  # the diametral pair, kept
        x0 = _warm_start(space)
        with pytest.warns(ConvergenceWarning):
            assert qhm.compute_m_plus(space) == pytest.approx(x0 @ space.dist @ x0, rel=1e-15)


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
        assert faces == [2] and res.iterations == 1
        ends = sorted((int(np.argmin(x)), int(np.argmax(x))))
        assert np.flatnonzero(res.weights).tolist() == ends
        assert res.value == pytest.approx(space.diameter / 2.0, rel=1e-15)


def test_each_drop_removes_every_negative_vertex(monkeypatch):
    # from the full support (x0 uniform) the active set has vertices to drop
    faces = []
    solve = frankwolfe._face_stationary

    def recorded(q, support):
        w = solve(q, support)
        faces.append((support.copy(), w))
        return w

    monkeypatch.setattr(frankwolfe, "_face_stationary", recorded)
    drops = several = 0
    rng = np.random.default_rng(34)
    for n in range(4, 16):
        space = qhm.from_euclidean(rng.normal(size=(n, 2)))
        gap_tol = qhm.Tolerances().fw_tol(space.diameter)
        paired = maximize_quadratic_on_simplex(space.dist, gap_tol)
        faces.clear()
        res = maximize_quadratic_on_simplex(space.dist, gap_tol, x0=np.full(n, 1.0 / n))
        assert res.iterations == len(faces) and res.value == pytest.approx(paired.value, rel=1e-12)
        for (support, w), (after, _) in zip(faces, faces[1:]):
            if w.min() < -1e-12:
                drops += 1
                several += int(np.count_nonzero(w < -1e-12) > 1)
                assert after.tolist() == support[w >= -1e-12].tolist()
    assert drops >= 15 and several >= 10, (drops, several)


def _one_at_a_time(q, gap_tol):
    """The cold active set that the warm start replaced: from the diametral
    pair, dropping only the most negative vertex of each face, through the
    same face solves. Returns (value, converged, face solves)."""
    n = q.shape[0]
    x = np.bincount(np.unravel_index(int(np.argmax(q)), q.shape), minlength=n) / 2.0
    support = np.flatnonzero(x)
    faces = 0
    for faces in range(1, 2 * n + 1):
        w = frankwolfe._face_stationary(q, support)
        if w is None:
            break
        if w.min() < -1e-12:
            support = np.delete(support, np.argmin(w))
            continue
        candidate = np.zeros(n)
        candidate[support] = np.maximum(w, 0.0)
        candidate /= candidate.sum()
        if candidate @ q @ candidate >= x @ q @ x:
            x = candidate
        g = 2.0 * (q @ x)
        if g.max() - g @ x <= gap_tol or (j := int(np.argmax(g))) in support:
            break
        support = np.sort(np.append(support, j))
    g = 2.0 * (q @ x)
    return float(x @ q @ x), bool(g.max() - g @ x <= gap_tol), faces


def _warm_corpus():
    """Seeded finite-M spaces, n <= 48: Euclidean point sets on a line, in
    the plane, in R^3 and in general position, and random metrics."""
    rng = np.random.default_rng(35)
    sizes = (*range(3, 17), 20, 24, 32, 40, 48)
    spaces = [
        qhm.from_euclidean(rng.normal(size=(n, dim)))
        for n in sizes
        for dim in (1, 2, 3, n)
        for _ in range(2)
    ]
    for n in range(3, 10):
        metrics = (qhm.random_metric(n, seed=seed) for seed in range(3500, 3700))
        spaces += [s for s in metrics if qhm.compute_m(s).is_finite][:9]
    return spaces


def test_warm_starts_agree_with_the_cold_runs():
    """M+ from the maximal measure's positive part, dropping every negative
    vertex at once, against the cold one-at-a-time run; and Wolfe's hull
    from M+'s support against the cold hull. Each run passes its own
    optimality test, and the warm runs solve far fewer faces and corrals."""
    spaces = _warm_corpus()
    assert len(spaces) >= 200
    t = qhm.Tolerances()
    counts = np.zeros(4, dtype=int)  # warm faces, cold faces, warm cycles, cold cycles
    for space in spaces:
        gap_tol = t.fw_tol(space.diameter)
        value, converged, faces = _one_at_a_time(space.dist, gap_tol)
        report = qhm.mconstant._m_plus_from_report(space, qhm.compute_m(space), t)
        warm = maximize_quadratic_on_simplex(space.dist, gap_tol, x0=_warm_start(space))
        assert converged and warm.converged
        assert report.m_plus == min(warm.value, report.m_value)
        assert abs(report.m_plus - value) <= 1e-12 * value
        counts[:2] += warm.iterations, faces

        emb = qhm.full_embedding(space)
        centred = emb.points - emb.sphere.centre
        support = report.m_plus_certificate["support"]
        cold = minnorm.min_norm_point_in_hull(centred, tol=t.minnorm)
        hot = minnorm.min_norm_point_in_hull(centred, tol=t.minnorm, start=support)
        assert cold.converged and hot.converged
        assert cold.distance == emb.hull_distance
        assert abs(hot.distance - cold.distance) <= 1e-12 * max(1.0, space.diameter)
        counts[2:] += hot.iterations, cold.iterations
    assert 2 * counts[0] <= counts[1] and 2 * counts[2] <= counts[3], counts


def test_single_vertex_start_gives_the_cold_m_plus():
    """By the triangle inequality, a maximal measure on two or more points
    has two or more positive weights, so only the one-point space starts M+
    from one vertex; a measure put in the report forces it elsewhere."""
    t = qhm.Tolerances()
    assert qhm.compute_m_plus(qhm.MetricSpace(np.zeros((1, 1)))) == 0.0
    rng = np.random.default_rng(36)
    for n in (3, 5, 8):
        space = qhm.from_euclidean(rng.normal(size=(n, 2)))
        value, _, _ = _one_at_a_time(space.dist, t.fw_tol(space.diameter))
        for vertex in range(n):
            weights = -np.full(n, 1.0 / n)
            weights[vertex] += 2.0
            report = dataclasses.replace(
                qhm.compute_m(space), maximal_measure=qhm.SignedMeasure(space, weights)
            )
            m_plus = qhm.mconstant._m_plus_from_report(space, report, t).m_plus
            assert abs(m_plus - value) <= 1e-12 * value


def test_rounding_level_weights_stay_out_of_the_m_plus_support():
    """On interval and circle samples the maximal measure sits on two points,
    with weights of 1e-16 or less elsewhere. Those points stay out of the
    first face, so M+'s support is the cold run's: the endpoints, or the
    opposite pair of the circle."""
    noisy = 0
    for n in range(3, 17):
        interval = qhm.CompactSpaceDescriptor("interval", length=0.8).sample_space(n)
        circle = qhm.CompactSpaceDescriptor("circle", circumference=5.0).sample_space(n + 2)
        for space, ends in ((interval, [0, 1]), (circle, [0, 2])):
            report = qhm.compute_m(space)
            noisy += int(np.count_nonzero(report.maximal_measure.weights > 0.0) > 2)
            report = qhm.mconstant._m_plus_from_report(space, report, qhm.Tolerances())
            assert report.m_plus_certificate["support"] == ends
    assert noisy >= 10, noisy


def test_report_inputs_halve_the_face_solves(monkeypatch):
    """The benchmark's report mix of inputs (the fixtures, and quasihypermetric
    random metrics and R^3 point sets at n = 5..8): a spy on the face solves
    counts at most half as many in ``build_report`` as in cold one-at-a-time
    runs of the same spaces."""
    rng = np.random.default_rng(37)
    spaces = [qhm.make_fixture(name) for name in qhm.spaces.FIXTURE_NAMES]
    for n, count in ((5, 1), (6, 4), (7, 3), (8, 3)):
        metrics = (qhm.random_metric(n, seed=int(rng.integers(2**31))) for _ in range(400))
        spaces += [s for s in metrics if qhm.check_quasihypermetric(s).holds][:count]
        spaces += [qhm.from_euclidean(rng.normal(size=(n, 3))) for _ in range(count)]
    faces = []
    solve = frankwolfe._face_stationary
    monkeypatch.setattr(frankwolfe, "_face_stationary", lambda q, s: faces.append(1) or solve(q, s))
    cold = 0
    for space in spaces:
        doc = qhm.build_report(space, hyper_bound=1)
        if doc["m_report"]["m_plus"] is not None:
            cold += _one_at_a_time(space.dist, qhm.Tolerances().fw_tol(space.diameter))[2]
    warm = len(faces) - cold
    assert cold >= 40 and 2 * warm <= cold, (warm, cold)
