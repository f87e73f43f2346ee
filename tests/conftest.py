import numpy as np
import pytest

import qhm


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


# random_metric(5, seed=279) fails the quasihypermetric check (found by scan,
# frozen here so the negative paths stay covered deterministically)
NON_QH_SEED = 279


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


def restricted_top(space):
    """Largest eigenvalue of d on the mass-zero hyperplane (the top one of
    P d P there), by LAPACK as the reference."""
    q = np.linalg.qr(np.eye(space.n) - 1.0 / space.n)[0][:, : space.n - 1]
    return float(np.linalg.eigvalsh(q.T @ space.dist @ q)[-1])
