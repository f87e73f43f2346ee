"""Acceptance suite: one test per criterion, at its stated tolerance and budget.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure), then asserts. Run just this file with::

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np

import qhm

from test_mconstant import quadratic_oracle_m


def _verdict(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} {name}: {detail}"


def _euclidean_spaces(count, seed, max_n=8):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(2, max_n + 1))
        dim = int(rng.integers(1, 5))
        out.append(qhm.from_euclidean(rng.normal(size=(n, dim))))
    return out


def test_criterion_1_fixture_regression():
    t0 = time.perf_counter()
    ok = True
    detail = []

    eq = qhm.compute_m(qhm.make_fixture("equilateral3_6"))
    if not abs(eq.m_value - 4.0) <= 1e-9:
        ok = False
        detail.append(f"equilateral M={eq.m_value!r}")

    cyc = qhm.compute_m(qhm.make_fixture("cycle4_arclength"))
    if not abs(cyc.m_value - 2.0) <= 1e-9:
        ok = False
        detail.append(f"cycle4 M={cyc.m_value!r}")
    if not np.all(np.abs(cyc.maximal_measure.weights - [0.5, 0.0, 0.5, 0.0]) <= 1e-9):
        ok = False
        detail.append(f"cycle4 measure={cyc.maximal_measure.weights}")

    assouad = qhm.make_fixture("assouad5")
    rep = qhm.compute_m(assouad)
    if not math.isinf(rep.m_value):
        ok = False
        detail.append(f"assouad M={rep.m_value!r}")
    pot = qhm.potential(qhm.SignedMeasure(assouad, [2, -2, -2, 1, 1]))
    if not np.all(np.abs(pot - 2.0) <= 1e-9):
        ok = False
        detail.append(f"assouad potential={pot}")

    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        ok = False
        detail.append(f"runtime {elapsed:.2f}s")
    _verdict(1, "fixture regression", ok, "; ".join(detail) or f"{elapsed * 1e3:.0f} ms")


def test_criterion_2_sphere_law():
    t0 = time.perf_counter()
    worst_m = worst_res = 0.0
    for space in _euclidean_spaces(200, seed=2001):
        rep = qhm.compute_m(space)
        emb = qhm.with_circumsphere(qhm.s_embed(space))
        assert emb.sphere is not None
        worst_m = max(worst_m, abs(rep.m_value - 2 * emb.sphere.radius**2) / max(1.0, rep.m_value))
        worst_res = max(worst_res, emb.sphere.residual)
    elapsed = time.perf_counter() - t0
    ok = worst_m <= 1e-6 and worst_res <= 1e-7 and elapsed < 30.0
    _verdict(
        2,
        "sphere law M = 2 r^2",
        ok,
        f"worst |M-2r^2|rel={worst_m:.2e}, worst residual={worst_res:.2e}, {elapsed:.1f}s",
    )


def _simplex_grid_max_4(dist, steps):
    """Exhaustive maximum of w' d w over the probability simplex of a 4-point
    space, on the grid with spacing 1/steps. With integer counts c >= 0
    summing to steps and w = c / steps, w' d w = 2 sum_{a<b} d_ab c_a c_b /
    steps^2 (d has a zero diagonal), evaluated from pairwise products of the
    count vectors, one first count i at a time."""
    best = -np.inf
    for i in range(steps + 1):
        r = steps - i
        counts = np.arange(r, -1, -1) + 1
        j = np.repeat(np.arange(r + 1.0), counts)
        k = np.arange(j.size) - np.repeat(np.cumsum(counts) - counts, counts)
        l = r - j - k
        pairs = i * (dist[0, 1] * j + dist[0, 2] * k + dist[0, 3] * l)
        pairs += dist[1, 2] * j * k + dist[1, 3] * j * l + dist[2, 3] * k * l
        best = max(best, float(pairs.max()))
    return 2.0 * best / steps**2


def test_criterion_3_m_plus_law():
    t0 = time.perf_counter()
    worst = 0.0
    for space in _euclidean_spaces(200, seed=2001):
        m_plus = qhm.compute_m_plus(space)
        emb = qhm.full_embedding(space)
        worst = max(worst, abs(m_plus - emb.m_plus_geometric))
    star = qhm.make_fixture("star_1_2")
    m_plus_star = qhm.compute_m_plus(star)
    emb_star = qhm.full_embedding(star)
    worst = max(worst, abs(m_plus_star - emb_star.m_plus_geometric))
    grid = _simplex_grid_max_4(star.dist, steps=1000)
    star_err = abs(m_plus_star - grid)
    grid_vs_exact = abs(grid - 4.0 / 3.0)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and star_err <= 1e-5 and grid_vs_exact <= 1e-5 and elapsed < 60.0
    _verdict(
        3,
        "M+ law M+ = 2 (r^2 - s^2)",
        ok,
        f"worst geometric gap={worst:.2e}, star vs grid={star_err:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_table_rows():
    t0 = time.perf_counter()
    ok = True
    detail = []
    for n in (3, 4):
        for seed in range(500):
            c = qhm.classify_space(qhm.random_metric(n, seed=seed), hyper_bound=3)
            if not (c.quasihypermetric.holds and c.hypermetric_up_to_bound.holds):
                ok = False
                detail.append(f"n={n} seed={seed}")
                break
    cyc = qhm.make_fixture("cycle4_arclength")
    if qhm.check_strictly_quasihypermetric(cyc).holds:
        ok = False
        detail.append("cycle4 should be non-strict")
    assouad = qhm.make_fixture("assouad5")
    if not qhm.check_quasihypermetric(assouad).holds:
        ok = False
        detail.append("assouad should be quasihypermetric")
    if qhm.check_hypermetric_bounded(assouad, bound=3).holds:
        ok = False
        detail.append("assouad should fail hypermetric")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        ok = False
        detail.append(f"runtime {elapsed:.1f}s")
    _verdict(4, "table rows for small spaces", ok, "; ".join(detail) or f"{elapsed:.1f}s")


def test_criterion_5_equivalence_chain():
    rng = np.random.default_rng(2005)
    spaces = [qhm.make_fixture(name) for name in qhm.spaces.FIXTURE_NAMES]
    spaces.append(qhm.two_point_space(1.5))
    spaces.append(qhm.MetricSpace(np.zeros((1, 1))))
    count = 0
    while count < 100:
        if count % 5 == 0:
            space = qhm.random_metric(int(rng.integers(3, 7)), seed=int(rng.integers(0, 2**31)))
            if not qhm.check_quasihypermetric(space).holds:
                continue
        else:
            n = int(rng.integers(2, 9))
            dim = int(rng.integers(1, 5))
            space = qhm.from_euclidean(rng.normal(size=(n, dim)))
        spaces.append(space)
        count += 1

    disagreements = []
    for space in spaces:
        rep = qhm.compute_m(space)
        emb = qhm.with_circumsphere(qhm.s_embed(space))
        # (1) M finite <=> sphere exists
        if rep.is_finite != (emb.sphere is not None):
            disagreements.append(("finite-vs-sphere", space))
            continue
        # (3) strict <=> unique maximal <=> affinely independent embedding
        strict = qhm.check_strictly_quasihypermetric(space).holds
        unique = qhm.uniqueness_of_maximal(space)
        affine = qhm.affinely_independent(emb)
        if rep.is_finite and not (strict == unique == affine):
            disagreements.append(("strict-vs-unique-vs-affine", space))
        if not rep.is_finite and not (strict == affine == False):  # noqa: E712
            disagreements.append(("infinite-but-strict", space))
        # (2) M+ = M <=> centre in hull <=> nonnegative maximal measure
        if rep.is_finite:
            m_plus = qhm.compute_m_plus(space)
            s = qhm.hull_distance(qhm.with_circumsphere(emb))
            equal = abs(m_plus - rep.m_value) <= 1e-6 * max(1.0, rep.m_value)
            centre_in_hull = s <= 1e-6
            positive = rep.maximal_measure.weights.min() >= -1e-6
            if not (equal == centre_in_hull == positive):
                disagreements.append(("mplus-vs-hull-vs-sign", space))
    _verdict(
        5,
        "equivalence-chain audit",
        not disagreements,
        f"{len(spaces)} spaces, {len(disagreements)} disagreements",
    )


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(2006)
    checked = 0
    worst = 0.0
    mismatched = 0
    while checked < 200:
        n = int(rng.integers(2, 6))
        space = qhm.random_metric(n, seed=int(rng.integers(0, 2**31)))
        if not qhm.check_quasihypermetric(space).holds:
            continue
        checked += 1
        mine = qhm.compute_m(space).m_value
        ref = quadratic_oracle_m(space)
        if math.isinf(mine) or math.isinf(ref):
            if math.isinf(mine) != math.isinf(ref):
                mismatched += 1
        else:
            worst = max(worst, abs(mine - ref) / max(1.0, abs(ref)))
    ok = worst <= 1e-6 and mismatched == 0
    _verdict(6, "linear-system vs quadratic oracle", ok, f"worst rel err={worst:.2e}")


def test_criterion_7_convergence():
    t0 = time.perf_counter()
    interval = qhm.approx_m(qhm.CompactSpaceDescriptor(kind="interval", length=1.0), max_n=64)
    circle = qhm.approx_m(qhm.CompactSpaceDescriptor(kind="circle", circumference=8.0), max_n=64)
    elapsed = time.perf_counter() - t0
    ok = (
        interval.monotone_ok
        and circle.monotone_ok
        and abs(interval.final - 0.5) <= 2e-2
        and abs(circle.final - 2.0) <= 2e-2
        and elapsed < 120.0
    )
    _verdict(
        7,
        "dense-sampling convergence",
        ok,
        f"interval final={interval.final:.6f}, circle final={circle.final:.6f}, {elapsed:.1f}s",
    )


def test_criterion_8_recentred_norms():
    worst = 0.0
    for space in _euclidean_spaces(50, seed=2008):
        rep = qhm.compute_m(space)
        rec = qhm.recentred_embedding(space)
        norms2 = np.einsum("ij,ij->i", rec.points, rec.points)
        worst = max(worst, float(np.max(np.abs(norms2 - rep.m_value / 2))) / max(1.0, rep.m_value))
    _verdict(8, "recentred embedding |y|^2 = M/2", worst <= 1e-6, f"worst rel dev={worst:.2e}")
