"""Property verdicts: fixtures, witnesses, and the supporting laws."""

import tracemalloc
from collections import Counter
from functools import cache

import numpy as np
import pytest

import qhm
from qhm import classify
from qhm.errors import BudgetExceededError
from qhm.linalg import jacobi_eigh
from qhm.spaces import FIXTURE_NAMES
from qhm.tolerances import DEFAULT_TOLERANCES

from conftest import NON_QH_SEED, SHIFTED_STRICT, circle_sample, euclidean_corpus, projector_centred, restricted_top
from conftest import near_threshold_space, seeded_spaces


def collinear(u, v):
    u = np.asarray(u, float) / np.linalg.norm(u)
    v = np.asarray(v, float) / np.linalg.norm(v)
    return abs(abs(u @ v) - 1.0) < 1e-9


def test_quasihypermetric_fixtures(equilateral, assouad, one_point):
    assert qhm.check_quasihypermetric(equilateral).holds
    assert qhm.check_quasihypermetric(assouad).holds
    assert qhm.check_quasihypermetric(one_point).holds


def test_not_quasihypermetric_witness(non_quasihypermetric):
    verdict = qhm.check_quasihypermetric(non_quasihypermetric)
    assert not verdict.holds
    w = verdict.witness.weights
    assert abs(w.sum()) < 1e-9
    assert w @ non_quasihypermetric.dist @ w > DEFAULT_TOLERANCES.pos_tol(
        non_quasihypermetric.n, non_quasihypermetric.diameter
    )


def test_strictness_fixtures(equilateral, assouad, cycle4, one_point):
    assert qhm.check_strictly_quasihypermetric(equilateral).holds
    assert qhm.check_strictly_quasihypermetric(one_point).holds
    a = qhm.check_strictly_quasihypermetric(assouad)
    assert not a.holds
    assert collinear(a.witness.weights, [2, -2, -2, 1, 1])
    c = qhm.check_strictly_quasihypermetric(cycle4)
    assert not c.holds
    assert collinear(c.witness.weights, [1, -1, 1, -1])


def test_strictness_witness_has_zero_energy(assouad):
    w = qhm.check_strictly_quasihypermetric(assouad).witness.weights
    assert abs(w.sum()) < 1e-9
    assert abs(w @ assouad.dist @ w) < 1e-9


def test_strictness_witness_follows_the_eigenvector_sign_rule():
    """On circle samples the witness is +-1/2 on the quarter points, ties its
    last bits decide; like every eigenvector column, it is positive at its
    first entry within a relative 1e-12 of its largest magnitude."""
    for n in range(4, 21):
        verdict = qhm.check_strictly_quasihypermetric(circle_sample(n, circumference=5.0))
        w = verdict.witness.weights
        assert not verdict.holds and np.allclose(np.abs(w[:4]), 0.5, atol=1e-12)
        lead = np.flatnonzero(np.abs(w) >= (1.0 - 1e-12) * np.abs(w).max())[0]
        assert w[lead] > 0.0, n


def test_hypermetric_fixtures(assouad, one_point):
    verdict = qhm.check_hypermetric_bounded(assouad, bound=1)
    assert not verdict.holds
    assert list(verdict.witness) == [1, -1, -1, 1, 1]
    b = np.asarray(verdict.witness, float)
    assert b.sum() == 1
    assert b @ assouad.dist @ b == 4.0
    # the same vector is still the lexicographically first violator at bound 3
    assert list(qhm.check_hypermetric_bounded(assouad, bound=3).witness) == [1, -1, -1, 1, 1]
    assert qhm.check_hypermetric_bounded(one_point, bound=3).holds


def test_hypermetric_every_4_point_space_passes():
    for seed in range(40):
        space = qhm.random_metric(4, seed=seed)
        assert qhm.check_hypermetric_bounded(space, bound=3).holds


def test_hypermetric_budget_and_validation(assouad):
    tight = qhm.Tolerances(hyper_budget=100.0)
    with pytest.raises(BudgetExceededError) as exc:
        qhm.check_hypermetric_bounded(assouad, bound=3, tol=tight)
    assert "budget" in str(exc.value)
    with pytest.raises(ValueError):
        qhm.check_hypermetric_bounded(assouad, bound=0)


def test_a_bound_that_is_not_an_integer_is_a_type_error(star):
    """A bound of 1.5 once put half-integer points through the ellipsoid route,
    truncated them, and gave ``star_1_2`` the false witness (-1, 1, 1, 0),
    whose b'db is 0; a bound of 2.0 failed inside ``range``."""
    for bound in (1.5, 2.0):
        with pytest.raises(TypeError, match=f"bound must be an integer, got {bound}"):
            qhm.check_hypermetric_bounded(star, bound=bound)
    with pytest.raises(TypeError, match="bound must be an integer, got 1.5"):
        qhm.build_report(star, hyper_bound=1.5)
    assert qhm.check_hypermetric_bounded(star, bound=np.int64(2)).holds


def test_nullspace_fixtures(equilateral, assouad, cycle4, one_point):
    rank, basis = qhm.distance_matrix_nullspace(equilateral)
    assert rank == 3 and basis.shape == (3, 0)
    rank, basis = qhm.distance_matrix_nullspace(assouad)
    assert rank == 5 and basis.shape == (5, 0)
    rank, basis = qhm.distance_matrix_nullspace(cycle4)
    assert rank == 3 and basis.shape == (4, 1)
    assert collinear(basis[:, 0], [1, -1, 1, -1])
    # the 1x1 zero matrix: rank 0, whole space as nullspace
    rank, basis = qhm.distance_matrix_nullspace(one_point)
    assert rank == 0 and basis.shape == (1, 1)


def test_witness_soundness_on_failures(assouad, cycle4, non_quasihypermetric):
    # every failing verdict must re-evaluate to a genuine violation
    tol = DEFAULT_TOLERANCES
    for space in (assouad, cycle4, non_quasihypermetric):
        c = qhm.classify_space(space, hyper_bound=1)
        if not c.quasihypermetric.holds:
            w = c.quasihypermetric.witness.weights
            assert abs(w.sum()) < 1e-9
            assert w @ space.dist @ w > tol.pos_tol(space.n, space.diameter)
        elif not c.strictly_quasihypermetric.holds:
            w = c.strictly_quasihypermetric.witness.weights
            assert np.linalg.norm(w) > 0.5
            assert abs(w.sum()) < 1e-9
            assert abs(w @ space.dist @ w) <= tol.pos_tol(space.n, space.diameter)
        if not c.hypermetric_up_to_bound.holds:
            b = np.asarray(c.hypermetric_up_to_bound.witness, float)
            assert b.sum() == 1.0
            assert b @ space.dist @ b > tol.pos_tol(space.n, space.diameter)


def test_schoenberg_consistency(equilateral, assouad, cycle4, star, non_quasihypermetric):
    # quasihypermetric iff the centred kernel -1/2 P d P is PSD
    spaces = [equilateral, assouad, cycle4, star, non_quasihypermetric]
    spaces += [qhm.random_metric(n, seed=s) for n in (3, 4, 5) for s in range(5)]
    for space in spaces:
        w, _ = jacobi_eigh(-0.5 * projector_centred(space.dist))
        psd = w[0] >= -DEFAULT_TOLERANCES.pos_tol(space.n, space.diameter)
        assert psd == qhm.check_quasihypermetric(space).holds


def test_verdicts_and_rank_agree_with_lapack():
    """On a seeded corpus of over 200 spaces (the fixtures, random metrics,
    Euclidean points, and circle and interval samples), the quasihypermetric
    and strict verdicts and rank(d) are those that the same thresholds read
    off LAPACK's spectra of P d P and d."""
    t = DEFAULT_TOLERANCES
    spaces = [qhm.make_fixture(name) for name in FIXTURE_NAMES] + seeded_spaces(2110, 10)
    interval = qhm.CompactSpaceDescriptor("interval", length=0.8)
    spaces += [s for n in range(2, 25) for s in (interval.sample_space(n), circle_sample(n, 5.0))]
    assert len(spaces) >= 200
    seen = set()
    for space in spaces:
        ptol, ntol = t.pos_tol(space.n, space.diameter), t.neg_tol(space.n, space.diameter)
        pdp = np.linalg.eigvalsh(projector_centred(space.dist))
        qh = pdp[-1] <= ptol
        strict = qh and np.count_nonzero((pdp >= -ntol) & (pdp <= ptol)) <= 1
        lam = np.abs(np.linalg.eigvalsh(space.dist))
        rank = int(np.count_nonzero(lam > t.rank * lam.max()))
        assert qhm.check_quasihypermetric(space).holds == qh
        assert qhm.check_strictly_quasihypermetric(space).holds == strict
        assert classify.distance_matrix_nullspace(space)[0] == rank
        seen.add((qh, strict, rank == space.n))
    # every verdict, and singular d both within and outside the band
    assert seen == {(False, False, True), (True, False, True), (True, False, False), (True, True, True)}


def test_deflated_kernel_and_witnesses_agree_with_lapack():
    """On the seeded corpus, band spaces and spaces that are not
    quasihypermetric included, ``Analysis.kernel`` holds the eigenvalues of
    -1/2 d on the mass-zero hyperplane, within 1e-13 of the largest of
    LAPACK's on Q'(-1/2 d)Q, Q an orthonormal basis of that hyperplane; every
    witness of a failed verdict has mass at most 1e-15 and unit norm."""
    spaces = [qhm.make_fixture(name) for name in FIXTURE_NAMES] + seeded_spaces(2110, 6)
    spaces += [circle_sample(n, 5.0) for n in (15, 20, 24)] + [near_threshold_space()]
    seen = Counter()
    for space in spaces:
        q = np.linalg.qr(np.eye(space.n) - 1.0 / space.n)[0][:, : space.n - 1]
        ref = np.linalg.eigvalsh(q.T @ (-0.5 * space.dist) @ q)[::-1]
        a = classify.Analysis(space)
        w, v = a.kernel
        assert np.max(np.abs(w - ref)) <= 1e-13 * np.max(np.abs(ref)), space
        assert np.allclose(v.T @ v, np.eye(space.n - 1), rtol=0.0, atol=1e-13)
        qh, strict = classify._centred_verdicts(a)
        seen[qh.holds, strict.holds] += 1
        for verdict in (qh, strict):
            if not verdict.holds:
                alpha = verdict.witness.weights
                assert abs(alpha.sum()) <= 1e-15 and abs(np.linalg.norm(alpha) - 1.0) <= 1e-15
    assert seen[True, True] >= 50 and seen[True, False] >= 5 and seen[False, False] >= 5, seen


def test_euclidean_subsets_are_strictly_quasihypermetric():
    for space in euclidean_corpus(25, seed=2024):
        assert qhm.check_strictly_quasihypermetric(space).holds


def test_small_spaces_table_rows():
    # 3-point spaces: quasihypermetric and hypermetric, always
    for seed in range(40):
        c = qhm.classify_space(qhm.random_metric(3, seed=seed))
        assert c.quasihypermetric.holds
        assert c.hypermetric_up_to_bound.holds
    # 4-point spaces: same two columns always hold; strictness varies
    for seed in range(40):
        c = qhm.classify_space(qhm.random_metric(4, seed=seed))
        assert c.quasihypermetric.holds
        assert c.hypermetric_up_to_bound.holds


def test_verdicts_are_scale_invariant(assouad, cycle4, star):
    for space in (assouad, cycle4, star):
        base = qhm.classify_space(space, hyper_bound=2)
        for lam in (0.25, 3.0, 17.0):
            scaled = qhm.classify_space(space.scaled(lam), hyper_bound=2)
            assert scaled.quasihypermetric.holds == base.quasihypermetric.holds
            assert (
                scaled.strictly_quasihypermetric.holds
                == base.strictly_quasihypermetric.holds
            )
            assert (
                scaled.hypermetric_up_to_bound.holds == base.hypermetric_up_to_bound.holds
            )
            assert scaled.matrix_rank == base.matrix_rank


def test_verdict_truthiness():
    assert bool(qhm.Verdict(True)) is True
    assert bool(qhm.Verdict(False, witness=np.array([1, -1]))) is False


def _near_threshold_cases():
    """Strictly quasihypermetric spaces with pos and neg set 1e-6 inside or
    outside |top|, the largest eigenvalue of d on the mass-zero hyperplane:
    K - ptol S is barely positive definite or barely not. The Cholesky route
    (True) needs pos inside and pos >= max(neg, rank)."""
    rng = np.random.default_rng(19)
    spaces = [qhm.from_euclidean(rng.normal(size=(n, 3))) for n in (4, 6, 8)]
    spaces += [s for s in (qhm.random_metric(6, seed=k) for k in range(40))
               if restricted_top(s) < -1e-3 * s.diameter][:4]
    cases = []
    for space in spaces:
        inside, outside = (
            abs(restricted_top(space)) * f / (space.n * space.diameter) for f in (1 - 1e-6, 1 + 1e-6)
        )
        cases += [
            (space, qhm.Tolerances(pos=inside, neg=inside), True),
            (space, qhm.Tolerances(pos=outside, neg=outside), False),
            (space, qhm.Tolerances(pos=inside, neg=outside), False),  # strict fails by neg
            (space, qhm.Tolerances(pos=inside, neg=inside, rank=0.5), False),  # rank(d) < n
        ]
    return cases


def test_classify_space_matches_the_single_checks(assouad, cycle4, star, non_quasihypermetric):
    """classify_space against the spectral checks run alone, on the fixtures,
    a seeded corpus and spaces at the strictness threshold: the same verdicts
    and witnesses, and the rank and nullspace of ``distance_matrix_nullspace``,
    whichever route (Cholesky or spectral) classify_space takes."""
    rng = np.random.default_rng(17)
    spaces = [assouad, cycle4, star, non_quasihypermetric]
    spaces += [qhm.make_fixture(f"discrete({n},2.0)") for n in (1, 2, 5)]
    spaces += [qhm.random_metric(6, seed=int(rng.integers(0, 2**31))) for _ in range(10)]
    spaces += [qhm.random_metric(n, seed=int(rng.integers(0, 2**31))) for n in range(2, 9)]
    spaces += euclidean_corpus(30, seed=18)
    circle = qhm.CompactSpaceDescriptor("circle", circumference=5.0)
    spaces += [circle.sample_space(n) for n in range(3, 10)]
    cases = [(space, DEFAULT_TOLERANCES, None) for space in spaces] + _near_threshold_cases()
    routes = Counter()
    for space, tol, route in cases:
        c = qhm.classify_space(space, hyper_bound=1, tol=tol)
        cholesky = classify.Analysis(space, tol).strict is not None
        assert route is None or cholesky == route
        routes[cholesky, c.strictly_quasihypermetric.holds] += 1
        pairs = (
            (c.quasihypermetric, qhm.check_quasihypermetric(space, tol=tol)),
            (c.strictly_quasihypermetric, qhm.check_strictly_quasihypermetric(space, tol=tol)),
        )
        for got, alone in pairs:
            assert got.holds == alone.holds
            if alone.witness is None:
                assert got.witness is None
            else:  # the same decomposition, so the same witness bit for bit
                assert np.array_equal(got.witness.weights, alone.witness.weights)
        rank, basis = qhm.distance_matrix_nullspace(space, tol=tol)
        assert c.matrix_rank == rank
        assert np.array_equal(c.nullspace_basis, basis)
        if cholesky:
            assert rank == space.n and basis.shape == (space.n, 0)
    # both routes ran on many inputs, and the Cholesky route only on strict ones
    assert routes[True, True] >= 40 and routes[False, False] >= 10, routes
    assert routes[True, False] == 0, routes


def test_strictly_quasihypermetric_report_decomposes_once(monkeypatch):
    """A strictly quasihypermetric report makes one strict-margin Cholesky
    test and one decomposition of the centred kernel, one-sided Jacobi on its
    deflated factor, at every n, and no Jacobi eigendecomposition."""
    sizes, solves, factored, one_sided = [], [], [], []

    def counted_eigh(a, *args, **kwargs):
        sizes.append(len(a))
        return jacobi_eigh(a, *args, **kwargs)

    def counted_solve(a, b, cut, level):
        solves.append(cut)
        return qhm.linalg.semidefinite_solve(a, b, cut, level)

    def counted_cholesky(a):
        factored.append(a)
        return qhm.linalg.cholesky(a)

    def counted_one_sided(low, *args, **kwargs):
        one_sided.append(len(low))
        return qhm.linalg._factor_eigh(low, *args, **kwargs)

    monkeypatch.setattr(qhm.linalg, "jacobi_eigh", counted_eigh)
    monkeypatch.setattr(classify, "jacobi_eigh", counted_eigh)
    monkeypatch.setattr(classify, "semidefinite_solve", counted_solve)
    monkeypatch.setattr(classify, "cholesky", counted_cholesky)
    monkeypatch.setattr(classify, "_factor_eigh", counted_one_sided)
    # the not-QH test, K + ptol S, never runs
    never = property(lambda a: a.strict is not None or pytest.fail("K + ptol S was factored"))
    monkeypatch.setattr(classify.Analysis, "qh", never)
    rng = np.random.default_rng(23)
    spaces = [qhm.make_fixture("star_1_2"), qhm.make_fixture("equilateral3_6")]
    spaces += [qhm.from_euclidean(rng.normal(size=(n, 3))) for n in (5, 8)]
    spaces += [qhm.from_euclidean(rng.normal(size=(n, 3))) for n in (16, 24)]
    # the ellipsoid route's budget is n (2B+1)^n even though it enumerates far less
    wide = qhm.Tolerances(hyper_budget=1e14)
    for space in spaces:
        sizes.clear()
        solves.clear()
        factored.clear()
        one_sided.clear()
        if space.n < 16:
            doc = qhm.build_report(space)
        else:
            doc = qhm.build_report(space, hyper_bound=1, tol=wide)
        assert doc["classification"]["strictly_quasihypermetric"]["holds"]
        assert doc["classification"]["matrix_rank"] == space.n
        # the strict margin, K - ptol S, factored once and then K itself solved
        k, _, shift = classify.Analysis(space).form
        assert len(solves) == 1 and np.array_equal(factored[0], k - shift)
        assert sizes == []
        assert one_sided == [space.n - 1]


def test_a_report_solves_the_space_once_and_the_embedding_never(monkeypatch):
    """``Analysis.elimination`` is the one solve of the space's own form: a
    strictly quasihypermetric report makes exactly one ``semidefinite_solve``
    of it, shared by ``compute_m`` and the hypermetric ellipsoid, and
    ``s_embed`` and ``full_embedding`` make none. The M+ faces solve through
    their own binding and are not counted."""
    forms = []

    def counted_solve(a, b, cut, level):
        forms.append(a)
        return qhm.linalg.semidefinite_solve(a, b, cut, level)

    monkeypatch.setattr(classify, "semidefinite_solve", counted_solve)
    rng = np.random.default_rng(31)
    spaces = [qhm.make_fixture("star_1_2"), qhm.make_fixture("equilateral3_6")]
    spaces += [qhm.from_euclidean(rng.normal(size=(n, 3))) for n in (5, 8)]
    for space in spaces:
        assert classify.Analysis(space).strict is not None
        forms.clear()
        qhm.build_report(space)
        [k] = forms
        assert np.array_equal(k, qhm.metric.schoenberg_form(space.dist)[0])
        forms.clear()
        qhm.s_embed(space)
        qhm.full_embedding(space)
        assert forms == []


def test_single_checks_of_a_certified_space_run_no_eigensolver(monkeypatch):
    """``check_quasihypermetric`` and ``check_strictly_quasihypermetric``,
    called alone, decide a space certified strictly quasihypermetric by its
    Cholesky test, with no Jacobi eigendecomposition of P d P, at n = 64 too.
    On a seeded corpus their verdicts match the spectral route's."""
    sizes = []

    def counted_eigh(a):
        sizes.append(len(a))
        return jacobi_eigh(a)

    monkeypatch.setattr(classify, "jacobi_eigh", counted_eigh)
    space = qhm.from_euclidean(np.random.default_rng(26).normal(size=(64, 3)))
    assert qhm.check_quasihypermetric(space).holds
    assert qhm.check_strictly_quasihypermetric(space).holds
    assert sizes == []
    spaces = seeded_spaces(27, 4)
    certified = [classify.Analysis(s).strict is not None for s in spaces]
    checks = [(qhm.check_quasihypermetric(s), qhm.check_strictly_quasihypermetric(s)) for s in spaces]
    # one decomposition per strict check of a space that is not certified, and
    # one per quasihypermetric check of a space that is not quasihypermetric
    failing = [s.n - 1 for s, (qh, _) in zip(spaces, checks) if not qh]
    assert sorted(sizes) == sorted([s.n - 1 for s, c in zip(spaces, certified) if not c] + failing)
    monkeypatch.setattr(classify.Analysis, "strict", None)
    for space, cert, checked in zip(spaces, certified, checks):
        for alone, spectral in zip(checked, classify._centred_verdicts(classify.Analysis(space))):
            assert alone.holds == spectral.holds
            if not cert and alone.witness is not None:
                assert np.array_equal(alone.witness.weights, spectral.witness.weights)
    assert sum(certified) >= 50 and len(spaces) - sum(certified) >= 15


def test_quasihypermetric_check_of_a_band_space_runs_no_eigensolver(monkeypatch, cycle4):
    """On spaces in the band, quasihypermetric but not strictly so, the
    check alone is ``Analysis.qh``'s factorization: no Jacobi
    eigendecomposition of the centred kernel."""
    sizes = []
    monkeypatch.setattr(classify, "jacobi_eigh", lambda a: sizes.append(len(a)) or jacobi_eigh(a))
    circle = qhm.CompactSpaceDescriptor("circle", circumference=7.0)
    for space in [cycle4] + [circle.sample_space(n) for n in range(4, 13)]:
        assert classify.Analysis(space).strict is None
        assert qhm.check_quasihypermetric(space).holds
    assert sizes == []


def _at_threshold_spaces():
    """40 spaces within rounding of the quasihypermetric threshold: for n = 6
    and 8 and s = 0..9, both ends of an 80-step bisection of the segment from
    a Gaussian Euclidean space to the first ``random_metric(n, 1000 s + k)``
    that is not quasihypermetric by LAPACK, on the largest eigenvalue of d on
    the mass-zero hyperplane against ``pos_tol``."""
    spaces = []
    for n in (6, 8):
        for s in range(10):
            lo = qhm.from_euclidean(np.random.default_rng(s).normal(size=(n, 3))).dist
            seeds = (qhm.random_metric(n, 1000 * s + k) for k in range(1000))
            hi = next(m for m in seeds if restricted_top(m) > 0.0).dist
            a, b = 0.0, 1.0
            for _ in range(80):
                t = 0.5 * (a + b)
                space = qhm.MetricSpace((1.0 - t) * lo + t * hi)
                if restricted_top(space) > DEFAULT_TOLERANCES.pos_tol(n, space.diameter):
                    b = t
                else:
                    a = t
            spaces += [qhm.MetricSpace((1.0 - t) * lo + t * hi) for t in (a, b)]
    return spaces


def test_every_entry_point_reads_one_quasihypermetric_decision():
    """At the threshold, the verdict alone and in ``classify_space``,
    ``compute_m``'s not-QH tag, ``s_embed`` and ``compute_m_plus`` agree on
    whether a space is quasihypermetric. ``compute_m`` declines (exit 14) only
    where the verdict holds, and a failing verdict's witness is a unit of mass
    zero whose energy is at least ptol, to rounding."""
    verdicts = Counter()
    for space in _at_threshold_spaces():
        qh = qhm.check_quasihypermetric(space)
        verdicts[qh.holds] += 1
        assert qhm.classify_space(space, hyper_bound=1).quasihypermetric.holds == qh.holds
        try:
            tags = qhm.compute_m(space).method_tags
            assert (qhm.mconstant.TAG_NOT_QUASIHYPERMETRIC in tags) is not qh.holds
        except qhm.errors.InconsistentSystemError:
            assert qh.holds
        if qh.holds:
            qhm.s_embed(space)  # its isometry check passes
        else:
            with pytest.raises(qhm.errors.NotQuasihypermetricError):
                qhm.s_embed(space)
        try:
            qhm.compute_m_plus(space)
            assert qh.holds
        except qhm.errors.PreconditionError as refused:
            assert ("quasihypermetric spaces" in str(refused)) is not qh.holds
        except qhm.errors.InconsistentSystemError:
            assert qh.holds
        if not qh.holds:
            ptol = DEFAULT_TOLERANCES.pos_tol(space.n, space.diameter)
            assert abs(qh.witness.mass) <= 1e-12
            assert qhm.energy(qh.witness) >= (1.0 - 1e-6) * ptol
    assert verdicts[True] >= 10 and verdicts[False] >= 10, verdicts


def test_a_zero_mass_certificate_is_tried_before_the_gershgorin_decline():
    """A mass-zero v with d v = c 1, c != 0, makes the energy linear along v
    on any space, so it proves M = inf even where the Gershgorin bound on the
    band elimination's Schur complement fails. That bound fails on 17 of the
    at-threshold spaces: at least 15 of them get the zero-mass tag and a
    report, and every space still declined names ``pos``, exit 14."""
    outcomes = Counter()
    for space in _at_threshold_spaces():
        try:
            tags = qhm.compute_m(space).method_tags
        except qhm.errors.InconsistentSystemError as declined:
            assert "pos" in str(declined) and declined.exit_code == 14
            outcomes["declined"] += 1
            continue
        if qhm.mconstant.TAG_ZERO_MASS in tags:
            doc = qhm.build_report(space, hyper_bound=1)
            assert doc["m_report"]["method_tags"] == list(tags)
            assert doc["classification"]["quasihypermetric"]["holds"]
            outcomes["zero mass"] += 1
    assert outcomes["zero mass"] >= 15, outcomes


def test_an_analysis_of_another_space_or_record_is_refused(star, equilateral):
    """An ``analysis=`` of another space (the parent returned that space's M,
    4.0, for star_1_2), or a ``tol`` that is not its record, is refused with
    ``ValueError``; its own space with ``tol`` None or an equal record is
    accepted, as ``build_report`` and ``recentred_embedding`` pass it."""
    loose = qhm.Tolerances(pos=1e-6)
    entries = (
        qhm.compute_m,
        lambda space, **kw: qhm.check_hypermetric_bounded(space, 1, **kw),
        lambda space, **kw: qhm.classify_space(space, 1, **kw),
        qhm.s_embed,
    )
    for entry in entries:
        with pytest.raises(ValueError, match="analysis="):
            entry(star, analysis=classify.Analysis(equilateral))
        with pytest.raises(ValueError, match="analysis="):
            entry(star, tol=loose, analysis=classify.Analysis(star))
        with pytest.raises(ValueError, match="analysis="):
            entry(qhm.MetricSpace(star.dist), analysis=classify.Analysis(star))
        own = classify.Analysis(star, loose)
        entry(star, analysis=own)
        entry(star, tol=qhm.Tolerances(pos=1e-6), analysis=own)
    assert qhm.build_report(star, hyper_bound=1)["m_report"]["m_value"] == qhm.compute_m(star).m_value
    assert qhm.recentred_embedding(star).dim == star.n - 1


def test_hypermetric_budget_fails_before_any_decomposition(monkeypatch):
    """The budget n (2B+1)^n depends on n and B alone, so a 9-point space
    that is not strictly quasihypermetric fails before d or P d P is
    decomposed."""
    sizes = []

    def counted_eigh(a, *args, **kwargs):
        sizes.append(len(a))
        return jacobi_eigh(a, *args, **kwargs)

    monkeypatch.setattr(qhm.linalg, "jacobi_eigh", counted_eigh)
    monkeypatch.setattr(classify, "jacobi_eigh", counted_eigh)
    space = qhm.random_metric(9, seed=12345)
    assert classify.Analysis(space).strict is None
    with pytest.raises(BudgetExceededError, match="exceeds the budget"):
        qhm.build_report(space)
    assert sizes == []


def test_report_rechecks_the_cholesky_verdict_on_the_embedding(monkeypatch, cycle4):
    """A strict verdict whose embedding has dimension below n - 1 is a
    contradiction; cycle4 embeds in the plane."""
    monkeypatch.setattr(classify.Analysis, "strict", SHIFTED_STRICT)
    with pytest.raises(qhm.errors.ContradictionError, match="dimension 2 < n - 1"):
        qhm.build_report(cycle4)


@cache
def _full_box_grid(n, bound):
    """Reference: every vector of [-bound, bound]^n in lexicographic order,
    row r being the base-(2B+1) digits of r, then the rows summing to 1.
    Built in slices of the row index, so n = 8 stays small in memory."""
    base = 2 * bound + 1
    parts = []
    for start in range(0, base**n, 1 << 16):
        idx = np.arange(start, min(start + (1 << 16), base**n))
        flat = np.stack([(idx // base ** (n - 1 - i)) % base - bound for i in range(n)], axis=1)
        parts.append(flat[flat.sum(axis=1) == 1])
    return np.concatenate(parts).astype(float)


def _full_box_witness(space, bound, tol=DEFAULT_TOLERANCES):
    """Reference: the first row of the whole grid with b'db > pos_tol, or None."""
    grid = _full_box_grid(space.n, bound)
    viol = ((grid @ space.dist) * grid).sum(axis=1) > tol.pos_tol(space.n, space.diameter)
    return grid[int(np.argmax(viol))].astype(int) if viol.any() else None


def _routes(space, bound, tol=DEFAULT_TOLERANCES):
    """The route check_hypermetric_bounded takes, its verdict, and the box
    route's witness for the same input."""
    box_witness, scans = classify._box_witness, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify, "_box_witness", lambda *args: scans.append(args) or box_witness(*args))
        verdict = qhm.check_hypermetric_bounded(space, bound=bound, tol=tol)
    box = box_witness(space, bound, tol.pos_tol(space.n, space.diameter))
    return ("box" if scans else "ellipsoid"), verdict, box


def _assert_matches(verdict, box, reference):
    assert verdict.holds == (reference is None) == (box is None)
    if reference is not None:
        assert np.array_equal(verdict.witness, reference)
        assert np.array_equal(box, reference)
        assert verdict.witness.dtype.kind == "i"


def _streamed_rows(n, bound):
    blocks = []
    for x, t in classify._mass_one_blocks(n, bound):
        assert not t.flags.writeable and len(t) <= classify._CHUNK_ROWS
        blocks.append(np.column_stack((np.tile(np.array(x, dtype=float), (len(t), 1)), t)))
    return np.concatenate(blocks)


def test_streamed_blocks_concatenate_to_the_full_box():
    for n in range(1, 8):
        for bound in (1, 2, 3):
            assert np.array_equal(_streamed_rows(n, bound), _full_box_grid(n, bound)), (n, bound)
    for n in (1, 2, 3):
        for bound in (128, 130):
            assert np.array_equal(_streamed_rows(n, bound), _full_box_grid(n, bound)), (n, bound)


def test_both_routes_match_the_full_box():
    rng = np.random.default_rng(4242)
    seen = Counter()
    for n in range(2, 9):
        for bound in (1, 2, 3):
            spaces = [qhm.random_metric(n, seed=int(rng.integers(2**31))) for _ in range(4)]
            spaces += [qhm.from_euclidean(rng.normal(size=(n, 1 + i % 4))) for i in range(2)]
            for space in spaces:
                route, verdict, box = _routes(space, bound)
                _assert_matches(verdict, box, _full_box_witness(space, bound))
                seen[route, verdict.holds] += 1
    # both routes ran, and both found violations
    assert seen["ellipsoid", False] >= 10 and seen["ellipsoid", True] >= 40, seen
    assert seen["box", False] >= 5, seen


def test_routes_agree_either_side_of_the_strictness_threshold():
    """With top the largest eigenvalue of d on the mass-zero hyperplane,
    ptol just below |top| leaves K - ptol S barely positive definite and the
    ellipsoid route runs; just above it, the box route runs."""
    rng = np.random.default_rng(71)
    spaces = [qhm.from_euclidean(rng.normal(size=(7, 3))), qhm.random_metric(5, seed=NON_QH_SEED)]
    violators = 0
    for seed in range(200):
        space = qhm.random_metric(5 + seed % 3, seed=seed)
        if violators < 6 and restricted_top(space) < 0 and _full_box_witness(space, 2) is not None:
            spaces.append(space)
            violators += 1
    assert violators == 6
    for space in spaces:
        top = restricted_top(space)
        for ptol in (2.0 * abs(top), abs(top) * (1 + 1e-6), abs(top) * (1 - 1e-6), 0.5 * abs(top)):
            t = qhm.Tolerances(pos=ptol / (space.n * space.diameter))
            route, verdict, box = _routes(space, 2, tol=t)
            assert route == ("ellipsoid" if top < -ptol else "box")
            _assert_matches(verdict, box, _full_box_witness(space, 2, tol=t))


def test_ellipsoid_witness_keeps_the_last_entry_in_bound():
    """These ellipsoids hold violators whose last entry 1 - sum y exceeds the
    bound and that come before every in-bound violator lexicographically."""
    for n, seed in ((6, 363), (7, 39)):
        space = qhm.random_metric(n, seed=seed)
        for bound in (1, 2):
            route, verdict, box = _routes(space, bound)
            assert route == "ellipsoid"
            _assert_matches(verdict, box, _full_box_witness(space, bound))


def test_violation_just_above_pos_tol_is_found():
    """On the segment from a Euclidean space to a non-hypermetric one, pick
    the point where the largest violation is 1.5 pos_tol: the ellipsoid must
    reach out to b'db = pos_tol, not stop short of it."""
    tol = DEFAULT_TOLERANCES
    bad = qhm.random_metric(6, seed=363).dist
    good = qhm.from_euclidean(np.random.default_rng(6).normal(size=(6, 3))).dist
    good = good * bad.max() / good.max()
    grid = _full_box_grid(6, 1)

    def excess(t):
        space = qhm.MetricSpace((1 - t) * good + t * bad)
        top = ((grid @ space.dist) * grid).sum(axis=1).max()
        return top / tol.pos_tol(6, space.diameter) - 1.5, space

    lo, hi = 0.0, 1.0
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if excess(mid)[0] > 0 else (mid, hi)
    space = excess(hi)[1]
    route, verdict, box = _routes(space, 1)
    assert route == "ellipsoid" and not verdict.holds
    _assert_matches(verdict, box, _full_box_witness(space, 1))
    b = verdict.witness.astype(float)
    assert 1.0 < b @ space.dist @ b / tol.pos_tol(6, space.diameter) <= 2.0


def test_bounds_beyond_int8_on_few_points():
    """The budget allows B in the hundreds for n <= 3; a large pos_tol sends
    these spaces down the box route, the default one down the ellipsoid."""
    for space, bound in ((qhm.random_metric(2, seed=1), 128), (qhm.random_metric(3, seed=2), 130)):
        for tol in (DEFAULT_TOLERANCES, qhm.Tolerances(pos=1.0)):
            route, verdict, box = _routes(space, bound, tol=tol)
            assert route == ("ellipsoid" if tol is DEFAULT_TOLERANCES else "box")
            _assert_matches(verdict, box, _full_box_witness(space, bound, tol=tol))


def test_strictly_quasihypermetric_8_point_space_makes_no_box_scan():
    space = qhm.from_euclidean(np.random.default_rng(8).normal(size=(8, 3)))
    route, verdict, _ = _routes(space, 3)
    assert route == "ellipsoid" and verdict.holds


def test_chunked_witness_is_the_first_violating_row_of_the_full_grid():
    rows = []
    for seed in (0, 2, 4, 9, 31, 40, 58):
        space = qhm.random_metric(8, seed=seed)
        assert not qhm.check_quasihypermetric(space).holds
        route, verdict, box = _routes(space, 3)
        reference = _full_box_witness(space, 3)
        assert route == "box"
        _assert_matches(verdict, box, reference)
        rows.append(int(np.flatnonzero((_full_box_grid(8, 3) == reference).all(axis=1))[0]))
    # witnesses in the first chunk and several chunks in
    assert min(rows) < classify._CHUNK_ROWS < 10 * classify._CHUNK_ROWS < max(rows)


def test_euclidean_spaces_are_hypermetric():
    """Euclidean metrics embed in l1 and so are hypermetric (Deza & Laurent)."""
    rng = np.random.default_rng(1985)
    for n in range(3, 9):
        for dim in (1, 2, 3, 4):
            for _ in range(3):
                space = qhm.from_euclidean(rng.normal(size=(n, dim)))
                assert qhm.check_hypermetric_bounded(space, bound=3).holds, (n, dim)


def test_ellipsoid_route_in_slices_keeps_the_witness(monkeypatch):
    """Split into slices of a few rows, the enumeration yields many blocks of
    at most (2B+1) rows per slice row, and the witness stays the
    lexicographically first violator of the whole box."""
    blocks = []
    points = classify._ellipsoid_points

    def spy(*args):
        for ys in points(*args):
            blocks.append(len(ys))
            yield ys

    monkeypatch.setattr(classify, "_ellipsoid_points", spy)
    for n, seed in ((6, 363), (7, 39)):
        space = qhm.random_metric(n, seed=seed)
        for bound in (1, 2):
            reference = _full_box_witness(space, bound)
            assert reference is not None
            for chunk in (1, 3, 16, 4096):
                monkeypatch.setattr(classify, "_CHUNK_ROWS", chunk)
                blocks.clear()
                route, verdict, box = _routes(space, bound)
                assert route == "ellipsoid"
                _assert_matches(verdict, box, reference)
                assert max(blocks) <= (2 * bound + 1) * chunk
                assert len(blocks) > 1 or chunk > 1


def test_ellipsoid_route_memory_is_bounded():
    """The 18-point interval sample at B = 1 enumerates millions of partial
    points; in slices its peak allocation stays small (57 MB when the whole
    breadth-first frontier was held)."""
    space = qhm.CompactSpaceDescriptor(kind="interval", length=1.0).sample_space(18)
    a = classify.Analysis(space, qhm.Tolerances(hyper_budget=1e21))
    assert a.strict is not None  # the ellipsoid route
    tracemalloc.start()
    try:
        verdict = qhm.check_hypermetric_bounded(space, bound=1, tol=a.tol, analysis=a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.holds and verdict.witness is None
    assert peak < 16e6, peak


def test_box_route_memory_is_bounded():
    """The 14-point circle sample at B = 1 is hypermetric but not strictly
    quasihypermetric, so the box route scans all 585,690 mass-one rows;
    streamed, its peak allocation stays small (55.6 MB when the whole box
    was built)."""
    space = qhm.CompactSpaceDescriptor(kind="circle", circumference=7.0).sample_space(14)
    assert classify.Analysis(space).strict is None  # the box route
    classify._mass_one_tails.cache_clear()
    tracemalloc.start()
    try:
        verdict = qhm.check_hypermetric_bounded(space, bound=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.holds and verdict.witness is None
    assert peak < 4e6, peak


def test_pos_below_neg_sends_a_strict_space_down_the_box_route(star):
    """The hypermetric check reads ``Analysis.strict`` as ``compute_m`` and
    the verdicts do: under pos < neg a strictly quasihypermetric space takes
    the box route, with the full box's verdict and witness."""
    t, violated = qhm.Tolerances(neg=1e-8), qhm.random_metric(6, seed=363)
    for space, bound in ((star, 3), (violated, 1), (violated, 2)):
        assert _routes(space, bound)[0] == "ellipsoid"
        route, verdict, box = _routes(space, bound, tol=t)
        assert route == "box"
        _assert_matches(verdict, box, _full_box_witness(space, bound, tol=t))
