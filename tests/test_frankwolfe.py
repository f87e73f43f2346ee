"""The simplex maximizer (exact active set) on closed-form and seeded problems."""

import dataclasses
import itertools

import numpy as np
import pytest

import qhm
from qhm import frankwolfe, minnorm
from qhm.errors import ConvergenceWarning
from qhm.frankwolfe import maximize_quadratic_on_simplex


def _gap(q, gap):
    """The tolerances whose gap threshold on the distance matrix q is ``gap``."""
    return qhm.Tolerances(fw_gap=gap / np.max(q))


def test_uniform_is_optimal_for_equilateral():
    q = 6.0 * (np.ones((3, 3)) - np.eye(3))
    res = maximize_quadratic_on_simplex(q, _gap(q, 1e-12))
    assert res.converged
    assert res.iterations == 2  # the diametral pair, then the whole face
    assert abs(res.value - 4.0) < 1e-12


def test_two_point():
    q = np.array([[0.0, 3.0], [3.0, 0.0]])
    res = maximize_quadratic_on_simplex(q, _gap(q, 1e-12))
    assert res.converged
    assert abs(res.value - 1.5) < 1e-12
    assert np.allclose(res.weights, [0.5, 0.5], atol=1e-9)


def test_star_drops_the_hub():
    # hub + 3 leaves: the optimum is uniform on the leaves, value 4/3
    q = np.array(
        [[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]], dtype=float
    )
    res = maximize_quadratic_on_simplex(q, _gap(q, 1e-12))
    assert res.converged
    assert abs(res.value - 4.0 / 3.0) < 1e-9
    assert res.weights[0] < 1e-12  # away steps removed the hub entirely
    assert np.allclose(res.weights[1:], 1.0 / 3.0, atol=1e-6)


def test_a_start_that_is_not_a_probability_vector_is_a_value_error():
    star = qhm.make_fixture("star_1_2")
    bad = [np.full(4, 10.0), np.zeros(4), -np.ones(4), np.full(3, 1.0 / 3.0), np.full((2, 2), 0.25)]
    bad += [[0.5, 0.5, np.nan, 0.0], [0.5, np.inf, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25 + 1e-9]]
    for x0 in bad:
        with pytest.raises(ValueError, match="x0 must"):
            maximize_quadratic_on_simplex(star.dist, x0=x0)
    # a sum within rounding of 1, as that of a start normalized by its sum
    x0 = np.array([0.3, 0.3, 0.3, 0.1])
    assert x0.sum() != 1.0
    res = maximize_quadratic_on_simplex(star.dist, x0=x0)
    assert res.converged and res.value == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_iterates_stay_on_simplex():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(6, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    q = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    res = maximize_quadratic_on_simplex(q, _gap(q, 1e-10))
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
        res = maximize_quadratic_on_simplex(q, _gap(q, 1e-12))
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


def _bordered_face(q, support):
    """The face weights from the bordered system [[2 q_F, 1], [1', 0]], its
    Gram block normalized to unit scale, by LAPACK least squares as the
    reference."""
    m = support.size
    system = np.zeros((m + 1, m + 1))
    system[:m, :m] = 2.0 * q[np.ix_(support, support)] / np.max(np.abs(q))
    system[:m, m] = system[m, :m] = 1.0
    return np.linalg.lstsq(system, np.eye(m + 1)[m], rcond=None)[0][:m]


def test_active_set_matches_bordered_faces_and_the_hull(monkeypatch):
    spaces = _finite_m_corpus()
    assert len(spaces) >= 100
    faces, eliminated = [], []
    solve, eliminate = frankwolfe._face_stationary, frankwolfe.semidefinite_solve

    def recorded(q, support, t):
        w, ray = solve(q, support, t)
        faces.append((q, support, w))
        return w, ray

    monkeypatch.setattr(frankwolfe, "_face_stationary", recorded)
    monkeypatch.setattr(
        frankwolfe, "semidefinite_solve", lambda *a: eliminated.append(1) or eliminate(*a)
    )
    active = [maximize_quadratic_on_simplex(s.dist) for s in spaces]
    assert not eliminated  # every face solve was a Cholesky solve
    stalled = sum(not r.converged for r in active)
    assert stalled == 0

    # the same faces solved by the elimination, and M+ by the independent
    # route 2(r^2 - s^2) through the embedding's hull distance
    monkeypatch.setattr(frankwolfe, "definite_solve", lambda *args: None)
    for space, res in zip(spaces, active):
        ref = maximize_quadratic_on_simplex(space.dist)
        assert ref.converged
        assert abs(res.value - ref.value) <= 1e-12 * ref.value
        assert res.value == pytest.approx(qhm.full_embedding(space).m_plus_geometric, rel=1e-9)
    assert len(eliminated) >= len(spaces)
    # every face of both runs against its bordered system
    assert len(faces) >= 4 * len(spaces)
    for q, support, w in faces:
        ref = _bordered_face(q, support)
        assert np.allclose(w, ref, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(ref).max())))


def test_singular_faces_are_eliminated_without_an_eigensolver(monkeypatch):
    """From the uniform measure, the first face of cycle4_arclength, assouad5
    and the circle samples is the whole space, whose Schoenberg form is
    singular or has a pivot at rounding level: Cholesky declines, and the
    semidefinite elimination solves it with no eigendecomposition. Every run
    converges to the diametral start's M+."""
    spaces = [qhm.make_fixture("cycle4_arclength"), qhm.make_fixture("assouad5")]
    for c in (1.0, 2.0, 5.0):
        circle = qhm.CompactSpaceDescriptor("circle", circumference=c)
        spaces += [circle.sample_space(n) for n in range(4, 25)]
    eliminated = []
    eliminate = frankwolfe.semidefinite_solve
    monkeypatch.setattr(
        frankwolfe, "semidefinite_solve", lambda *a: eliminated.append(1) or eliminate(*a)
    )

    def refused(a):
        raise AssertionError("a face solve ran an eigensolver")

    monkeypatch.setattr(qhm.linalg, "jacobi_eigh", refused)
    for space in spaces:
        warm = maximize_quadratic_on_simplex(space.dist, x0=np.full(space.n, 1.0 / space.n))
        cold = maximize_quadratic_on_simplex(space.dist)
        assert warm.converged and cold.converged
        assert abs(warm.value - cold.value) <= 1e-12 * cold.value
    assert len(eliminated) >= 30, len(eliminated)


def _warm_start(space):
    """The normalized positive part of the maximal measure, its weights within
    1e-12 of zero counted as zero: M+'s first face."""
    w = qhm.compute_m(space).maximal_measure.weights
    positive = np.where(w > 1e-12, w, 0.0)
    return positive / positive.sum()


def test_stalled_active_set_warns_with_the_best_point_found():
    rng = np.random.default_rng(43)
    spaces = [qhm.from_euclidean(rng.normal(size=(n, 3))) for n in (6, 9, 12)]
    for space in spaces:
        # the first warm face has a negative weight, so M+ needs two or more
        # faces here, and at one the best point found is the start itself
        x0 = _warm_start(space)
        first, _ = frankwolfe._face_stationary(space.dist, np.flatnonzero(x0), qhm.Tolerances())
        assert first.min() < -1e-12
        capped = qhm.Tolerances(fw_max_iter=1)
        with pytest.warns(ConvergenceWarning, match="stalled"):
            value = qhm.compute_m_plus(space, tol=capped)
        assert value == pytest.approx(x0 @ space.dist @ x0, rel=1e-15)
        assert value < qhm.compute_m_plus(space)


def test_collinear_points_stop_at_the_diametral_pair(monkeypatch):
    # on a line the endpoints carry M+ = D/2, so the opening face certifies
    faces = []
    solve = frankwolfe._face_stationary
    monkeypatch.setattr(
        frankwolfe, "_face_stationary", lambda q, s, t: faces.append(s.size) or solve(q, s, t)
    )
    rng = np.random.default_rng(33)
    for n in (3, 8, 20):
        x = rng.normal(size=(n, 1))
        space = qhm.from_euclidean(x)
        faces.clear()
        res = maximize_quadratic_on_simplex(space.dist, _gap(space.dist, 1e-12))
        assert faces == [2] and res.iterations == 1
        ends = sorted((int(np.argmin(x)), int(np.argmax(x))))
        assert np.flatnonzero(res.weights).tolist() == ends
        assert res.value == pytest.approx(space.diameter / 2.0, rel=1e-15)


def test_each_drop_removes_every_negative_vertex(monkeypatch):
    # from the full support (x0 uniform) the active set has vertices to drop
    faces = []
    solve = frankwolfe._face_stationary

    def recorded(q, support, t):
        w, ray = solve(q, support, t)
        faces.append((support.copy(), w))
        return w, ray

    monkeypatch.setattr(frankwolfe, "_face_stationary", recorded)
    drops = several = 0
    rng = np.random.default_rng(34)
    for n in range(4, 16):
        space = qhm.from_euclidean(rng.normal(size=(n, 2)))
        paired = maximize_quadratic_on_simplex(space.dist)
        faces.clear()
        res = maximize_quadratic_on_simplex(space.dist, x0=np.full(n, 1.0 / n))
        assert res.iterations == len(faces) and res.value == pytest.approx(paired.value, rel=1e-12)
        for (support, w), (after, _) in zip(faces, faces[1:]):
            if w.min() < -1e-12:
                drops += 1
                several += int(np.count_nonzero(w < -1e-12) > 1)
                assert after.tolist() == support[w >= -1e-12].tolist()
    assert drops >= 15 and several >= 10, (drops, several)


def _one_at_a_time(q, t):
    """The cold active set that the warm start replaced: from the diametral
    pair, dropping only the most negative vertex of each face, through the
    same face solves, stalling at an unbounded face. Returns (value,
    converged, face solves)."""
    n, gap_tol = q.shape[0], t.fw_tol(np.max(q))
    x = np.bincount(np.unravel_index(int(np.argmax(q)), q.shape), minlength=n) / 2.0
    support = np.flatnonzero(x)
    faces = 0
    for faces in range(1, 2 * n + 1):
        w, ray = frankwolfe._face_stationary(q, support, t)
        if ray is not None:
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
        value, converged, faces = _one_at_a_time(space.dist, t)
        report = qhm.mconstant._m_plus_from_report(space, qhm.compute_m(space), t)
        warm = maximize_quadratic_on_simplex(space.dist, t, x0=_warm_start(space))
        assert converged and warm.converged
        assert report.m_plus == min(warm.value, report.m_value)
        assert abs(report.m_plus - value) <= 1e-12 * value
        counts[:2] += warm.iterations, faces

        emb = qhm.full_embedding(space)
        centred = emb.points - emb.sphere.centre
        support = report.m_plus_certificate["support"]
        cold = minnorm.min_norm_point_in_hull(centred, tol=t)
        hot = minnorm.min_norm_point_in_hull(centred, tol=t, start=support)
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
        value, _, _ = _one_at_a_time(space.dist, t)
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


def test_an_accepted_face_sheds_its_rounding_level_weights(monkeypatch):
    """From the uniform measure on the 13-point interval sample, the first
    face is the whole space, and its weights off the endpoints are 7e-31 to
    5e-16. They leave the support with that one face solve, so the result is
    the cold run's: the endpoints, with weight 1/2 each."""
    space = qhm.CompactSpaceDescriptor("interval", length=0.8).sample_space(13)
    faces = []
    solve = frankwolfe._face_stationary
    monkeypatch.setattr(
        frankwolfe, "_face_stationary", lambda q, s, t: faces.append(s) or solve(q, s, t)
    )
    warm = maximize_quadratic_on_simplex(space.dist, x0=np.full(13, 1.0 / 13.0))
    assert len(faces) == 1 and len(faces[0]) == 13
    assert warm.converged and warm.iterations == 1
    assert np.flatnonzero(warm.weights).tolist() == [0, 1]
    assert np.allclose(warm.weights[:2], 0.5, rtol=0.0, atol=1e-15)
    cold = maximize_quadratic_on_simplex(space.dist)
    assert np.flatnonzero(cold.weights).tolist() == [0, 1]
    assert abs(warm.value - cold.value) <= 1e-15


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
    monkeypatch.setattr(
        frankwolfe, "_face_stationary", lambda q, s, t: faces.append(1) or solve(q, s, t)
    )
    cold = 0
    for space in spaces:
        doc = qhm.build_report(space, hyper_bound=1)
        if doc["m_report"]["m_plus"] is not None:
            cold += _one_at_a_time(space.dist, qhm.Tolerances())[2]
    warm = len(faces) - cold
    assert cold >= 40 and 2 * warm <= cold, (warm, cold)


def test_an_unbounded_face_steps_along_its_ray(monkeypatch):
    """From the uniform measure on assouad5 the first face is the whole space,
    whose Schoenberg form has a last pivot of 6.2e-15 and M = inf. No face
    solve returns a weight above 1e3 in magnitude (an unguarded Cholesky gave
    1.45e15); the face is unbounded, its ray is compute_m's zero-mass
    certificate (2, -2, -2, 1, 1) up to scale, and the active set steps along
    it to M+ = 3.125. A stall at the unbounded face would leave the uniform
    measure, of energy 2.72."""
    space = qhm.make_fixture("assouad5")
    report = qhm.compute_m(space)
    assert report.method_tags == (qhm.mconstant.TAG_ZERO_MASS, "m:elimination-null-vector")
    certificate = np.array([2.0, -2.0, -2.0, 1.0, 1.0])
    assert qhm.invariant_value(qhm.SignedMeasure(space, certificate)) == pytest.approx(2.0)
    weights, rays = [], []
    solve = frankwolfe._face_stationary

    def recorded(q, support, t):
        w, ray = solve(q, support, t)
        weights.extend([] if w is None else np.abs(w))
        rays.append(ray)
        return w, ray

    monkeypatch.setattr(frankwolfe, "_face_stationary", recorded)
    res = maximize_quadratic_on_simplex(space.dist, x0=np.full(5, 0.2))
    assert res.converged and res.value == pytest.approx(3.125, rel=1e-15)
    assert max(weights) <= 1e3
    taken = [ray for ray in rays if ray is not None]
    assert len(taken) == 1
    ray = taken[0]
    parallel = np.linalg.norm(ray) * np.linalg.norm(certificate)
    assert abs(ray @ certificate) == pytest.approx(parallel, rel=1e-12)


def test_every_ray_step_keeps_x_on_the_simplex_and_raises_the_energy(monkeypatch):
    """From random full-support starts on every vertex order of assouad5, the
    first face is unbounded. Each ray step starts from a point of the simplex
    and ends on it, at an energy no lower, and every run converges to 3.125."""
    q0 = qhm.make_fixture("assouad5").dist
    faces, steps = [], []
    solve, step = frankwolfe._face_stationary, frankwolfe.ratio_step

    def stepped(x, v):
        q, support = faces[-1]
        steps.append((q[np.ix_(support, support)], x, step(x, v)))
        return steps[-1][2]

    monkeypatch.setattr(
        frankwolfe, "_face_stationary", lambda q, s, t: faces.append((q, s)) or solve(q, s, t)
    )
    monkeypatch.setattr(frankwolfe, "ratio_step", stepped)
    rng = np.random.default_rng(38)
    for order in itertools.permutations(range(5)):
        q = q0[np.ix_(order, order)]
        res = maximize_quadratic_on_simplex(q, x0=rng.dirichlet(np.ones(5)))
        assert res.converged and res.value == pytest.approx(3.125, rel=1e-14)
    assert len(steps) >= 120
    for face, x, out in steps:
        for point in (x, out):
            assert np.all(point >= 0.0) and abs(point.sum() - 1.0) <= 1e-14
        assert np.count_nonzero(out == 0.0) >= 1
        assert out @ face @ out >= x @ face @ x
