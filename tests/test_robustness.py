"""Regression coverage for numerically hostile inputs.

These regimes each broke a first implementation: extreme distance scales
(pivot cuts and residuals must be scale-free) and almost-coincident points
(a first-order method on the simplex crawls there; the exact active set's
face solve does not).
"""

import numpy as np
import pytest

import qhm
from qhm.frankwolfe import maximize_quadratic_on_simplex


@pytest.mark.parametrize("lam", [1e-6, 1e6])
def test_fixtures_at_extreme_scales(lam):
    for name in ("equilateral3_6", "cycle4_arclength", "star_1_2"):
        base = qhm.compute_m(qhm.make_fixture(name))
        space = qhm.make_fixture(name).scaled(lam)
        rep = qhm.compute_m(space)
        assert rep.m_value == pytest.approx(lam * base.m_value, rel=1e-9)
        emb = qhm.full_embedding(space)
        assert 2 * emb.sphere.radius**2 == pytest.approx(rep.m_value, rel=1e-9)
        m_plus = qhm.compute_m_plus(space)
        assert m_plus == pytest.approx(emb.m_plus_geometric, rel=1e-9)


def test_tiny_scale_system_is_not_flagged_inconsistent():
    rng = np.random.default_rng(120)
    for _ in range(10):
        pts = rng.normal(size=(5, 2)) * 1e-8
        rep = qhm.compute_m(qhm.from_euclidean(pts))
        assert rep.is_finite
        assert rep.system_residual < 1e-9


@pytest.mark.parametrize("gap", [1e-3, 1e-6, 1e-9, 1e-12])
def test_near_coincident_points_converge(gap):
    space = qhm.from_euclidean(np.array([[0, 0], [1, 0], [1 + gap, 0], [0.5, 1.0]]))
    res = maximize_quadratic_on_simplex(space.dist)
    assert res.converged
    assert res.iterations <= 1000  # the exact face finish, not the zig-zag cap
    emb = qhm.full_embedding(space)
    assert qhm.compute_m_plus(space) == pytest.approx(emb.m_plus_geometric, abs=1e-9)


def test_minnorm_at_large_scale():
    # hull geometry of the scaled star: s^2 scales linearly with the metric
    space = qhm.make_fixture("star_1_2").scaled(1e6)
    emb = qhm.full_embedding(space)
    assert emb.hull_distance**2 == pytest.approx(1e6 / 12.0, rel=1e-9)


def test_collinear_point_sets():
    rng = np.random.default_rng(121)
    for _ in range(5):
        xs = np.sort(rng.normal(size=5))
        space = qhm.from_euclidean(xs[:, None])
        rep = qhm.compute_m(space)
        emb = qhm.full_embedding(space)
        assert 2 * emb.sphere.radius**2 == pytest.approx(rep.m_value, rel=1e-8)
        # on a line, M is attained by the two endpoints
        assert rep.m_value == pytest.approx((xs[-1] - xs[0]) / 2, rel=1e-9)
