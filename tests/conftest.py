import math

import numpy as np
import pytest

import qhm
from qhm.linalg import definite_solve
from qhm.tolerances import DEFAULT_TOLERANCES


@pytest.fixture
def equilateral():
    return qhm.make_fixture("equilateral3_6")


@pytest.fixture
def cycle4():
    return qhm.make_fixture("cycle4_arclength")


@pytest.fixture
def assouad():
    return qhm.make_fixture("assouad5")


@pytest.fixture
def star():
    return qhm.make_fixture("star_1_2")


@pytest.fixture
def one_point():
    return qhm.MetricSpace(np.zeros((1, 1)))


# ``Analysis.strict`` forced on a space that is quasihypermetric but not
# strictly so: the solve of K + ptol S, positive definite there, in place of K
SHIFTED_STRICT = property(lambda a: definite_solve(a.form[0] + a.form[2], a.form[1]))


def k23():
    """The K_{2,3} graph metric: two hubs 2 apart, three leaves 2 apart from
    each other and 1 from each hub. It is not quasihypermetric: the uniform
    measure on the leaves has energy 4/3, but the active set from the
    diametral pair stops at energy 1 with gap 0, a KKT point."""
    d = np.full((5, 5), 2.0)
    d[:2, 2:] = d[2:, :2] = 1.0
    np.fill_diagonal(d, 0.0)
    return qhm.MetricSpace(d)


# random_metric(5, seed=279) fails the quasihypermetric check (found by scan,
# frozen here so the negative paths stay covered deterministically)
NON_QH_SEED = 279


# (n, seed, pos): random_metric(n, seed) is not quasihypermetric, but by less
# than the pos_tol of this pos, and its stationary value of d w = 1 is a
# saddle below D/2 (M = -4.85 and M = 1.0095)
LOOSENED_POS_CASES = [(7, 1396780018, 0.00026138235285266755), (8, 1652674586, 0.007454371489546016)]


@pytest.fixture
def non_quasihypermetric():
    space = qhm.random_metric(5, seed=NON_QH_SEED)
    assert not qhm.check_quasihypermetric(space).holds
    return space


def euclidean_corpus(count, seed, max_n=8, max_dim=4):
    """Deterministic list of random Euclidean point-set spaces."""
    rng = np.random.default_rng(seed)
    spaces = []
    for _ in range(count):
        n = int(rng.integers(2, max_n + 1))
        dim = int(rng.integers(1, max_dim + 1))
        spaces.append(qhm.from_euclidean(rng.normal(size=(n, dim))))
    return spaces


def near_threshold_space():
    """A 6-point space that is not quasihypermetric by 1.2-1.5 ptol: the
    bisection of the segment from a Euclidean space to the first
    ``random_metric(6, seed)`` that is not quasihypermetric (convex
    combinations of metrics are metrics)."""
    lo = qhm.from_euclidean(np.random.default_rng(0).normal(size=(6, 3))).dist
    seed = next(s for s in range(1000) if not qhm.check_quasihypermetric(qhm.random_metric(6, s)))
    hi, a, b = qhm.random_metric(6, seed).dist, 0.0, 1.0
    for _ in range(100):
        t = 0.5 * (a + b)
        space = qhm.MetricSpace((1.0 - t) * lo + t * hi)
        excess = restricted_top(space) / DEFAULT_TOLERANCES.pos_tol(6, space.diameter)
        if 1.2 < excess <= 1.5:
            return space
        a, b = (t, b) if excess <= 1.2 else (a, t)
    raise AssertionError("the bisection found no space in the window")


def projector_centred(a):
    """P a P with the projector P = I - J/n formed explicitly: a reference
    for the centred kernel that shares no code with the package."""
    p = np.eye(len(a)) - 1.0 / len(a)
    return p @ np.asarray(a, dtype=float) @ p


def restricted_top(space):
    """Largest eigenvalue of d on the mass-zero hyperplane (the top one of
    P d P there), by LAPACK as the reference."""
    q = np.linalg.qr(np.eye(space.n) - 1.0 / space.n)[0][:, : space.n - 1]
    return float(np.linalg.eigvalsh(q.T @ space.dist @ q)[-1])


def quadratic_oracle_m(space, tol=1e-12):
    """Independent route to M: parametrize the mass-1 slice as u + B t and
    maximize the quadratic analytically through numpy's eigendecomposition."""
    d = space.dist
    n = space.n
    u = np.full(n, 1.0 / n)
    q, _ = np.linalg.qr(np.hstack([np.ones((n, 1)), np.eye(n)[:, : n - 1]]))
    basis = q[:, 1:]
    a = basis.T @ d @ basis
    g = basis.T @ (d @ u)
    c = float(u @ d @ u)
    lam, vec = np.linalg.eigh(a)
    gt = vec.T @ g
    scale = max(1.0, float(np.abs(lam).max()))
    value = c
    for l, gi in zip(lam, gt):
        if l < -tol * scale:
            value -= gi * gi / l
        elif abs(gi) > 1e-8:
            return math.inf
    return value


def circle_sample(n, circumference=8.0):
    """The first n sample points of a circle with the arc-length metric."""
    desc = qhm.CompactSpaceDescriptor(kind="circle", circumference=circumference)
    return desc.sample_space(n)


def seeded_spaces(seed, rounds):
    """random_metric (n = 3..9), from_euclidean (n = 3..11) and circle samples:
    inputs for every branch of the quasihypermetric decision in compute_m."""
    rng = np.random.default_rng(seed)
    spaces = []
    for _ in range(rounds):
        for n in range(3, 10):
            spaces.append(qhm.random_metric(n, seed=int(rng.integers(0, 2**31))))
        for n in range(3, 12):
            dim = int(rng.integers(1, 5))
            spaces.append(qhm.from_euclidean(rng.normal(size=(n, dim))))
    for n in range(2, 14):
        spaces.append(circle_sample(n, circumference=float(rng.uniform(1.0, 10.0))))
    return spaces
