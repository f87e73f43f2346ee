"""Schoenberg embeddings, circumspheres, hull distances, recentring."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

import qhm
from qhm import classify
from qhm.cli import main
from qhm.errors import ContradictionError, NotQuasihypermetricError, PreconditionError
from qhm.linalg import _factor_eigh, _sign_columns, cholesky, gram_rank, lstsq_minnorm

from conftest import SHIFTED_STRICT, euclidean_corpus, near_threshold_space, projector_centred


def test_equilateral_embedding(equilateral):
    emb = qhm.s_embed(equilateral)
    assert emb.dim == 2
    sq = emb.squared_point_distances()
    off = sq[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 6.0, atol=1e-10)  # pairwise point distances sqrt(6)


def test_two_point_embedding():
    t = 2.5
    emb = qhm.s_embed(qhm.two_point_space(t))
    assert emb.dim == 1
    xs = np.sort(emb.points[:, 0])
    assert np.allclose(xs, [-math.sqrt(t) / 2, math.sqrt(t) / 2], atol=1e-12)


def test_star_embedding_dimension(star):
    assert qhm.s_embed(star).dim == 3


def test_single_point_embedding(one_point):
    emb = qhm.full_embedding(one_point)
    assert emb.dim == 0
    assert emb.sphere is not None and emb.sphere.radius == 0.0
    assert emb.hull_distance == 0.0


def test_embed_rejects_non_quasihypermetric(non_quasihypermetric):
    with pytest.raises(NotQuasihypermetricError) as exc:
        qhm.s_embed(non_quasihypermetric)
    w = exc.value.witness.weights
    assert w @ non_quasihypermetric.dist @ w > 0


def test_embedding_refuses_by_the_classification_verdict(tmp_path, capsys):
    """Not quasihypermetric by less than 2 ptol: classification, embedding
    and ``qhm embed`` all refuse, with one witness."""
    space = near_threshold_space()
    verdict = qhm.check_quasihypermetric(space)
    assert not verdict.holds
    with pytest.raises(NotQuasihypermetricError) as exc:
        qhm.s_embed(space)
    assert np.array_equal(exc.value.witness.weights, verdict.witness.weights)
    path = tmp_path / "near.csv"
    qhm.dump(space, path)
    assert main(["embed", str(path)]) == 13
    assert capsys.readouterr().out == ""


def test_circumsphere_equilateral(equilateral):
    emb = qhm.with_circumsphere(qhm.s_embed(equilateral))
    assert emb.sphere is not None
    # centroid-centred triangle: centre at the origin, r^2 = 2, so 2 r^2 = M = 4
    assert np.allclose(emb.sphere.centre, 0.0, atol=1e-12)
    assert abs(emb.sphere.radius**2 - 2.0) < 1e-10
    assert emb.sphere.residual < 1e-12


def test_circumsphere_absent_for_assouad(assouad):
    emb = qhm.s_embed(assouad)
    assert qhm.circumsphere(emb) is None
    assert qhm.fit_circumsphere(emb).residual > 1e-3  # decisively non-spherical


def test_hull_distance_fixtures(equilateral, star):
    emb = qhm.full_embedding(equilateral)
    assert emb.hull_distance < 1e-9  # centroid is inside the triangle
    assert abs(emb.m_plus_geometric - 4.0) < 1e-9
    embs = qhm.full_embedding(star)
    assert abs(embs.hull_distance**2 - 1.0 / 12.0) < 1e-9
    assert abs(embs.m_plus_geometric - 4.0 / 3.0) < 1e-9
    two = qhm.full_embedding(qhm.two_point_space(4.0))
    assert two.hull_distance < 1e-9  # midpoint of the segment


def test_hull_distance_needs_sphere(equilateral):
    with pytest.raises(PreconditionError):
        qhm.hull_distance(qhm.s_embed(equilateral))


def test_recentred_embeddings(equilateral, cycle4):
    rec = qhm.recentred_embedding(equilateral)
    norms2 = np.einsum("ij,ij->i", rec.points, rec.points)
    assert np.allclose(norms2, 2.0, atol=1e-10)  # M/2 with M = 4
    rec4 = qhm.recentred_embedding(cycle4)
    assert np.allclose(np.einsum("ij,ij->i", rec4.points, rec4.points), 1.0, atol=1e-10)
    t = 1.8
    rect = qhm.recentred_embedding(qhm.two_point_space(t))
    assert np.allclose(np.einsum("ij,ij->i", rect.points, rect.points), t / 4, atol=1e-12)


def test_recentred_one_point(one_point):
    rec = qhm.recentred_embedding(one_point)
    assert rec.points.shape == (1, 0)


def test_recentred_requires_finite_m(assouad):
    with pytest.raises(PreconditionError):
        qhm.recentred_embedding(assouad)


def test_isometry_invariant():
    spaces = [qhm.make_fixture(n) for n in ("assouad5", "equilateral3_6", "cycle4_arclength", "star_1_2")]
    spaces += euclidean_corpus(10, seed=41)
    for space in spaces:
        emb = qhm.s_embed(space)
        sq = emb.squared_point_distances()
        err = np.max(np.abs(sq - space.dist))
        assert err <= 1e-7 * max(1.0, space.diameter)
        # reference: the n x n x dim difference tensor, summed in another order
        diff = emb.points[:, None, :] - emb.points[None, :, :]
        ref = np.einsum("ijk,ijk->ij", diff, diff)
        assert np.allclose(sq, ref, rtol=0.0, atol=16 * np.finfo(float).eps * max(1.0, ref.max()))


def test_energy_identity_on_sphere(star):
    # w' d w = 2 r^2 - 2 |sum w_i y_i - z|^2 for every mass-1 vector w
    emb = qhm.with_circumsphere(qhm.s_embed(star))
    rng = np.random.default_rng(17)
    for _ in range(20):
        w = rng.normal(size=4)
        w /= w.sum()
        lhs = float(w @ star.dist @ w)
        shift = w @ emb.points - emb.sphere.centre
        rhs = 2 * emb.sphere.radius**2 - 2 * float(shift @ shift)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_sphere_exists_iff_m_finite(cycle4, assouad):
    spaces = [cycle4, assouad] + euclidean_corpus(15, seed=42)
    spaces += [qhm.random_metric(n, seed=s) for n in (3, 4) for s in range(4)]
    for space in spaces:
        if not qhm.check_quasihypermetric(space).holds:
            continue
        has_sphere = qhm.circumsphere(qhm.s_embed(space)) is not None
        assert has_sphere == qhm.compute_m(space).is_finite


def test_uniqueness_iff_affine_independence(equilateral, cycle4, star):
    for space in (equilateral, cycle4, star):
        emb = qhm.s_embed(space)
        assert qhm.affinely_independent(emb) == qhm.uniqueness_of_maximal(space)
    # the 4-cycle embeds as a square in the plane: affinely dependent
    assert not qhm.affinely_independent(qhm.s_embed(cycle4))


def test_probability_measure_iff_centre_in_hull(star, cycle4):
    for space, expect_positive in ((star, False), (cycle4, True)):
        rep = qhm.compute_m(space)
        emb = qhm.full_embedding(space)
        positive = rep.maximal_measure.weights.min() >= -1e-9
        assert positive == expect_positive
        assert (emb.hull_distance <= 1e-6) == positive


def test_rigid_motion_invariance(star):
    emb = qhm.full_embedding(star)
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(emb.dim, emb.dim)))
    rotated = qhm.SEmbedding(
        star, emb.points @ q, emb.dim, emb.gram_eigenvalues
    )
    rotated = qhm.with_hull_distance(qhm.with_circumsphere(rotated))
    assert abs(rotated.sphere.radius - emb.sphere.radius) < 1e-10
    assert abs(rotated.hull_distance - emb.hull_distance) < 1e-10


def test_embedding_json(star):
    doc = qhm.embedding.embedding_to_json(qhm.full_embedding(star))
    assert doc["dim"] == 3
    assert len(doc["points"]) == 4
    assert set(doc["sphere"]) == {"centre", "radius", "residual"}
    assert doc["hull_distance"] is not None


def test_circumsphere_follows_a_rigid_motion(star, equilateral):
    rng = np.random.default_rng(9)
    for space in (star, equilateral):
        emb = qhm.s_embed(space)
        base = qhm.fit_circumsphere(emb)
        q, _ = np.linalg.qr(rng.normal(size=(emb.dim, emb.dim)))
        shift = rng.normal(size=emb.dim) * 5.0
        moved = qhm.fit_circumsphere(replace(emb, points=emb.points @ q + shift))
        assert np.allclose(moved.centre, base.centre @ q + shift, atol=1e-10)
        assert abs(moved.radius - base.radius) < 1e-10
        assert moved.residual < 1e-12


def test_circumsphere_of_an_embedding_runs_no_eigensolver(monkeypatch):
    spaces = [qhm.make_fixture(n) for n in ("assouad5", "equilateral3_6", "cycle4_arclength", "star_1_2")]
    spaces += euclidean_corpus(20, seed=14)
    spaces += [qhm.CompactSpaceDescriptor("circle", circumference=5.0).sample_space(9)]
    embs = [qhm.s_embed(space) for space in spaces]

    def refused(*args, **kwargs):
        raise AssertionError("the circumsphere fit ran a factorization")

    # on an embedding the normal matrix is diagonal to rounding
    monkeypatch.setattr(qhm.linalg, "jacobi_eigh", refused)
    monkeypatch.setattr(qhm.embedding, "lstsq_minnorm", refused)
    for emb in embs:
        qhm.fit_circumsphere(emb)


def test_circumsphere_off_an_embedding_is_the_minimum_norm_one(monkeypatch, star):
    """Points that are not an embedding's, such as a rotated embedding or
    coplanar points given in 3 coordinates (a singular normal matrix): the
    diagonal solve refuses, and the centre is the minimum-norm least-squares one."""
    turn, _ = np.linalg.qr(np.random.default_rng(8).normal(size=(3, 3)))
    rotated = qhm.s_embed(star).points @ turn + 1.5
    rng = np.random.default_rng(3)
    square = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    tilted = square @ q + np.array([0.5, -2.0, 1.0])
    fallbacks = []

    def counted_lstsq(a, b, *args, **kwargs):
        fallbacks.append(a.shape)
        return lstsq_minnorm(a, b, *args, **kwargs)

    monkeypatch.setattr(qhm.embedding, "lstsq_minnorm", counted_lstsq)
    for pts in (rotated, square, tilted, rng.normal(size=(5, 2)) @ rng.normal(size=(2, 4))):
        space = qhm.from_euclidean(pts)
        sphere = qhm.fit_circumsphere(qhm.SEmbedding(space, pts, pts.shape[1], np.zeros(len(pts))))
        yc = pts - pts.mean(axis=0)
        sq = np.einsum("ij,ij->i", yc, yc)
        zc, residual = lstsq_minnorm(2.0 * yc, sq - sq.mean())
        assert np.array_equal(sphere.centre, zc + pts.mean(axis=0))
        assert sphere.residual == residual / (math.sqrt(len(pts)) * max(1.0, space.diameter))
    assert fallbacks == [(4, 3), (4, 3), (4, 3), (5, 4)]
    unit = qhm.fit_circumsphere(qhm.SEmbedding(qhm.from_euclidean(square), square, 3, np.zeros(4)))
    assert abs(unit.radius - 1.0) < 1e-12


def test_twice_the_squared_radius_is_m():
    rng = np.random.default_rng(29)
    spaces = [qhm.make_fixture(n) for n in ("equilateral3_6", "cycle4_arclength", "star_1_2")]
    spaces += [qhm.from_euclidean(rng.normal(size=(n, 3))) for n in range(3, 13)]
    t = qhm.DEFAULT_TOLERANCES
    for space in spaces:
        m = qhm.compute_m(space).m_value
        sphere = qhm.fit_circumsphere(qhm.s_embed(space))
        assert abs(2.0 * sphere.radius**2 - m) <= t.inv_tol(space.n, space.diameter)
        assert sphere.residual <= t.sphere


def test_affinely_independent_matches_homogeneous_rank(equilateral, cycle4, star, assouad):
    spaces = [equilateral, cycle4, star, assouad] + euclidean_corpus(30, seed=12)
    for space in spaces:
        emb = qhm.s_embed(space)
        homog = np.hstack([emb.points, np.ones((space.n, 1))])
        assert qhm.affinely_independent(emb) == (gram_rank(homog) == space.n)


def _strict_spaces():
    """Strictly quasihypermetric spaces of 3..64 points: Gaussian point sets
    in R^3 and evenly sampled intervals."""
    rng = np.random.default_rng(37)
    spaces = [qhm.from_euclidean(rng.normal(size=(n, 3))) for n in (16, 17, 24, 33, 64, 3, 7, 12)]
    spaces += [
        qhm.CompactSpaceDescriptor("interval", length=length).sample_space(n)
        for n, length in ((16, 1.0), (21, 2.5), (40, 0.7), (5, 1.0), (17, 0.8))
    ]
    return spaces


def _leads(y):
    """Each column's leading entry: the first within 1e-12 of its largest magnitude."""
    mag = np.abs(y)
    return np.array([np.flatnonzero(m >= (1.0 - 1e-12) * m.max())[0] for m in mag.T])


def _lapack_kernel(space):
    """The centred kernel's eigenpairs by LAPACK, eigenvalues descending and
    columns signed by the package's rule."""
    w, v = np.linalg.eigh(-0.5 * projector_centred(space.dist))
    return w[::-1], _sign_columns(v[:, ::-1])


def test_one_sided_route_agrees_with_lapack():
    tol = qhm.DEFAULT_TOLERANCES
    for space in _strict_spaces():
        n = space.n
        a = classify.Analysis(space)
        assert a.strict is not None
        w, v = _lapack_kernel(space)
        emb = qhm.s_embed(space, analysis=a)
        assert emb.dim == n - 1
        assert np.max(np.abs(emb.gram_eigenvalues - w)) <= 1e-13 * w[0]
        assert emb.gram_eigenvalues[-1] == 0.0  # the constants direction, deflated exactly
        y = emb.points
        # principal coordinates: orthogonal columns whose squared norms are the eigenvalues
        gram = y.T @ y
        assert np.allclose(gram, np.diag(emb.gram_eigenvalues[:-1]), rtol=0.0, atol=1e-12 * w[0])
        assert np.all(y[_leads(y), np.arange(n - 1)] > 0.0)  # the sign rule
        dev = np.max(np.abs(emb.squared_point_distances() - space.dist))
        assert dev <= tol.emb_tol(space.diameter)
        # LAPACK's coordinates, the eigenvalues being simple
        assert np.min(-np.diff(w[:-1])) > 1e-6 * w[0]
        ref = v[:, : n - 1] * np.sqrt(w[: n - 1])
        assert np.max(np.abs(y - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_mirror_entries_sign_both_routes_alike():
    """The 17-point interval of length 0.8: columns whose two largest entries
    are mirror images take the same sign from the one-sided route and from
    LAPACK's eigenvectors, by position."""
    space = qhm.CompactSpaceDescriptor("interval", length=0.8).sample_space(17)
    w, v = _lapack_kernel(space)
    y = qhm.s_embed(space).points
    mag = np.abs(y)
    top = np.sort(mag, axis=0)
    assert np.any(top[-2] >= (1.0 - 1e-12) * top[-1])  # some column has tied entries
    assert np.array_equal(np.sign(y[_leads(y), np.arange(16)]), np.ones(16))
    assert np.array_equal(np.sign(v[_leads(v), np.arange(17)]), np.ones(17))
    ref = v[:, :-1] * np.sqrt(w[:-1])
    assert np.array_equal(np.sign(np.sum(y * ref, axis=0)), np.ones(16))


def _by_kernel() -> bool:
    """Whether the caller's caller is ``Analysis.kernel``: a spy on
    ``classify.cholesky`` that asks this counts the deflated kernel's factor,
    not the strict margin test of K - ptol S."""
    return sys._getframe(2).f_code.co_name == "kernel"


def test_one_sided_route_runs_only_on_strict_spaces_from_n0(monkeypatch):
    """Band spaces and spaces that are not quasihypermetric never try the
    route; every certified strict space, from n = 2 up, takes it once."""
    factored, rotated = [], []

    def counted_cholesky(a, cut=0.0):
        if _by_kernel():
            factored.append(len(a))
        return cholesky(a, cut)

    def counted_jacobi(low, *args, **kwargs):
        rotated.append(len(low))
        return _factor_eigh(low, *args, **kwargs)

    monkeypatch.setattr(classify, "cholesky", counted_cholesky)
    monkeypatch.setattr(classify, "_factor_eigh", counted_jacobi)
    circle = qhm.CompactSpaceDescriptor("circle", circumference=5.0)
    for n in (4, 7, 16, 20, 33):
        band = circle.sample_space(n)
        assert classify.Analysis(band).strict is None
        assert qhm.s_embed(band).dim < n - 1
    for n in (5, 9, 16, 20, 33):
        with pytest.raises(NotQuasihypermetricError):
            qhm.s_embed(qhm.random_metric(n, seed=1 if n > 5 else 279))
    assert factored == [] and rotated == []
    rng = np.random.default_rng(5)
    strict = [qhm.from_euclidean(rng.normal(size=(n, 3))) for n in range(2, 18)]
    strict += [qhm.make_fixture("equilateral3_6"), qhm.make_fixture("star_1_2")]
    for space in strict:
        assert classify.Analysis(space).strict is not None
        qhm.full_embedding(space)
    assert factored == rotated == [space.n - 1 for space in strict]


def test_embedding_falls_back_when_the_deflated_factor_fails(monkeypatch):
    for space in _strict_spaces()[:1] + _strict_spaces()[-2:]:
        monkeypatch.setattr(
            classify, "cholesky", lambda a, cut=0.0: None if _by_kernel() else cholesky(a, cut)
        )
        a = classify.Analysis(space)
        assert a.strict is not None
        fallback = qhm.s_embed(space, analysis=a)
        w, v = a.kernel
        assert np.array_equal(fallback.gram_eigenvalues, np.append(w, 0.0))
        assert fallback.dim == space.n - 1
        assert np.array_equal(fallback.points, v * np.sqrt(w))
        monkeypatch.undo()
        factored = classify.Analysis(space).kernel[0]  # the deflated factor's
        assert np.max(np.abs(factored - w)) <= 1e-13 * w[0]


def test_forced_strict_verdict_on_a_band_space_is_still_a_contradiction(monkeypatch):
    """With the Cholesky verdict forced on a 16-point circle sample, the
    embedding takes the one-sided route and the report's dimension re-check
    still refuses it."""
    space = qhm.CompactSpaceDescriptor("circle", circumference=5.0).sample_space(16)
    factored = []

    def counted_cholesky(a, cut=0.0):
        if _by_kernel():
            factored.append(len(a))
        return cholesky(a, cut)

    monkeypatch.setattr(classify, "cholesky", counted_cholesky)
    monkeypatch.setattr(classify.Analysis, "strict", SHIFTED_STRICT)
    # the hypermetric check would exceed its budget n (2B+1)^n at this size
    monkeypatch.setattr(classify, "check_hypermetric_bounded", lambda *args, **kwargs: classify.Verdict(True))
    with pytest.raises(ContradictionError, match="< n - 1"):
        qhm.build_report(space)
    assert factored == [15]
