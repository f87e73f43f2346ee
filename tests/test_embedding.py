"""Schoenberg embeddings, circumspheres, hull distances, recentring."""

import math

import numpy as np
import pytest

import qhm
from qhm.errors import NotQuasihypermetricError, PreconditionError

from conftest import euclidean_corpus


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
