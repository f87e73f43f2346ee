"""The benchmark's workloads: inputs made from a seed, the ops, and their oracle.

Every op calls qhm's public API. Every output is checked against a reference
that does not go through qhm's solvers (numpy's LAPACK routines, closed-form
values of the fixtures and of the sampled compact spaces, or the other route
of a cross-check), and against the identities the paper gives, such as
D/2 <= M+ <= M.

Workloads (all closed loop, one client, one thread):

``report_small``
    ``qhm.cli.main(["report", path])`` in-process, one CSV input per op:
    the four named fixtures; quasihypermetric and non-quasihypermetric
    ``random_metric`` spaces and ``from_euclidean`` spaces at n = 5..8 (the
    mix is ``REPORT_MIX``; ``random_metric`` never draws a
    non-quasihypermetric space at n = 5); and two 9-point inputs. Many tiny
    decompositions, the bordered solves in Frank-Wolfe and min-norm, the
    (2B+1)^n hypermetric grid (n = 8 is the latency tail) and the io/JSON/CLI
    overhead. The 9-point inputs exit 16 (hypermetric budget); they stay in
    and count as failed ops.
``certify_large``
    ``compute_m``, ``compute_m_plus`` and ``full_embedding`` on one Gaussian
    point set in R^3 per size n = 16, 24, 32, 64, 128. Few calls on large
    matrices, so the Jacobi eigensolver dominates; the hypermetric check
    never runs.
``approx_nested``
    ``approx_m`` on a circle and on an interval, both to ``max_n`` = 24,
    with circumference and length drawn from the seed. ``compute_m`` runs at
    every size from 2 up on nested samples; the circle takes the singular
    canonical-solution path, the interval stays nonsingular.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import qhm
import qhm.cli

# known values from the paper's examples, as (M, M+ or None, hypermetric or None)
FIXTURES = {
    "assouad5": (math.inf, None, False),
    "equilateral3_6": (4.0, None, None),
    "cycle4_arclength": (2.0, None, None),
    "star_1_2": (1.5, 4.0 / 3.0, None),
}

REL = 1e-9  # agreement of M with the LAPACK reference
SPHERE_REL = 1e-6  # |M - 2 r^2| / M, acceptance criterion 2
HULL_ABS = 1e-5  # |M+ - 2 (r^2 - s^2)|, acceptance criterion 3
APPROX_ABS = 2e-2  # acceptance criterion 7, at L = 1 and C = 8; scaled with L and C
# report_small inputs per size: (quasihypermetric random_metric, non-quasihypermetric
# random_metric, from_euclidean). With the fixtures and the two 9-point inputs that
# is 29 ops: the median falls among the reports at n = 6, away from the gap below
# them, and the three finite-M reports at n = 8 are the slowest ops, so the tail
# percentile (10 samples above it) lies among them and not on a single input, whose
# cost varies with the seed.
REPORT_MIX = {5: (1, 0, 1), 6: (4, 1, 4), 7: (3, 1, 4), 8: (0, 1, 3)}
TINY_MIX = {5: (1, 0, 1), 6: (1, 1, 1)}
# an odd number of op kinds (3 per size) puts the median inside one kind;
# compute_m_plus re-runs compute_m, so the kinds of one size never swap order
SIZES = (16, 24, 32, 64, 128)
MARGIN = 1e-6  # quasihypermetric inputs are drawn this far from the threshold, x diameter


class OpFailed(Exception):
    """A CLI op that exited non-zero."""

    def __init__(self, code: int, message: str):
        super().__init__(f"exit {code}: {message}")
        self.code = code


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    # (output, outputs of this pass by op name) -> description of a wrong output, or None
    check: Callable[[object, dict], str | None]
    finite_m_report: bool = False  # a report whose M is finite, by the reference
    # the one non-zero exit code this op may end with; any other exception or
    # exit code is a wrong output
    expected_exit: int | None = None


def build(name: str, seed: int, workdir: Path, tiny: bool = False) -> list[Op]:
    """Make the workload's inputs from ``seed``, warm it up, and return its ops.

    ``tiny`` shrinks every size for the self-tests.
    """
    rng = np.random.default_rng(seed)
    if name == "report_small":
        return _report_small(rng, workdir, tiny)
    if name == "certify_large":
        return _certify_large(rng, tiny)
    if name == "approx_nested":
        return _approx_nested(rng, tiny)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# report_small
# ---------------------------------------------------------------------------


def _centred_spectrum(d: np.ndarray) -> np.ndarray:
    n = d.shape[0]
    p = np.eye(n) - 1.0 / n
    return np.linalg.eigvalsh(p @ d @ p)


def _random_space(rng, n: int, quasihypermetric: bool):
    """The first ``random_metric`` space from the seed stream that is (or is
    not) quasihypermetric with a margin, judged by LAPACK."""
    for _ in range(10000):
        space = qhm.random_metric(n, int(rng.integers(2**31)))
        w = _centred_spectrum(space.dist)
        margin = MARGIN * space.diameter
        # one eigenvalue of P d P belongs to the constants and is always ~0
        if quasihypermetric and w[-2] < -margin and w[-1] < margin:
            return space
        if not quasihypermetric and w[-1] > margin:
            return space
    raise RuntimeError(f"no {'' if quasihypermetric else 'non-'}quasihypermetric draw at n={n}")


def _report_reference(name: str, space) -> dict:
    d = space.dist
    ref = {"n": space.n, "diameter": space.diameter, "fixture": FIXTURES.get(name)}
    if ref["fixture"] is None:
        w = _centred_spectrum(d)
        ref["qh"] = bool(w[-1] <= MARGIN * space.diameter)
        mass = float(np.linalg.solve(d, np.ones(space.n)).sum())
        finite = ref["qh"] and abs(mass) > qhm.DEFAULT_TOLERANCES.mass_tol(space.n)
        ref["m"] = 1.0 / mass if finite else math.inf
    return ref


def _num(value) -> float:
    return math.inf if value == "inf" else float(value)


def _check_report(text: str, ref: dict) -> str | None:
    doc = json.loads(text)
    if doc["n"] != ref["n"]:
        return f"n = {doc['n']}, expected {ref['n']}"
    tol = doc["tolerances"]
    slack = tol["invariant"] * ref["n"] * ref["diameter"]  # Tolerances.inv_tol
    rep = doc["m_report"]
    m = _num(rep["m_value"])
    if ref["fixture"] is not None:
        m_ref, m_plus_ref, hyper_ref = ref["fixture"]
        if not (m == m_ref or abs(m - m_ref) <= REL * m_ref):
            return f"M = {m!r}, expected {m_ref!r}"
        if m_plus_ref is not None and abs(_num(rep["m_plus"]) - m_plus_ref) > REL * m_plus_ref:
            return f"M+ = {rep['m_plus']!r}, expected {m_plus_ref!r}"
        hyper = doc["classification"]["hypermetric_up_to_bound"]["holds"]
        if hyper_ref is not None and hyper != hyper_ref:
            return f"hypermetric verdict {hyper}, expected {hyper_ref}"
    else:
        qh = doc["classification"]["quasihypermetric"]["holds"]
        if qh != ref["qh"]:
            return f"quasihypermetric verdict {qh}, LAPACK says {ref['qh']}"
        if not (m == ref["m"] or abs(m - ref["m"]) <= REL * abs(ref["m"])):
            return f"M = {m!r}, LAPACK reference {ref['m']!r}"
    if rep["m_plus"] is not None:
        m_plus = _num(rep["m_plus"])
        if m_plus > m:
            return f"M+ = {m_plus!r} exceeds M = {m!r}"
        if m_plus < ref["diameter"] / 2.0 - slack:
            return f"M+ = {m_plus!r} is below D/2 = {ref['diameter'] / 2.0!r}"
    for key, cross in doc["cross_checks"].items():
        if cross is not None and not cross["discrepancy"] <= slack:
            return f"{key} discrepancy {cross['discrepancy']!r} exceeds {slack!r}"
    return None


def _report_small(rng, workdir: Path, tiny: bool) -> list[Op]:
    inputs = [(name, qhm.make_fixture(name)) for name in FIXTURES]
    for n, (qh, non_qh, euclid) in (TINY_MIX if tiny else REPORT_MIX).items():
        inputs += [(f"random-qh-n{n}-{i}", _random_space(rng, n, True)) for i in range(qh)]
        inputs += [(f"random-nonqh-n{n}-{i}", _random_space(rng, n, False)) for i in range(non_qh)]
        inputs += [(f"euclid-n{n}-{i}", qhm.from_euclidean(rng.standard_normal((n, 3)))) for i in range(euclid)]
    inputs.append(("random-n9", qhm.random_metric(9, int(rng.integers(2**31)))))
    inputs.append(("euclid-n9", qhm.from_euclidean(rng.standard_normal((9, 3)))))

    ops = []
    first: dict[str, str] = {}  # each input's first document, for the determinism check
    for name, space in inputs:
        path = workdir / f"{name}.csv"
        qhm.dump(space, path, fmt="csv")
        ref = _report_reference(name, space)
        finite = math.isfinite(ref["fixture"][0] if ref["fixture"] else ref["m"])
        # 9-point inputs exceed the hypermetric enumeration budget: exit 16
        expected_exit = 16 if space.n == 9 else None
        ops.append(Op(f"report:{name}", _report_run(path), _report_check(name, ref, first), finite, expected_exit))
    for n in sorted({space.n for _, space in inputs}):
        space = next(s for _, s in inputs if s.n == n)
        try:
            qhm.check_hypermetric_bounded(space, bound=3)  # fills the grid cache
        except qhm.QhmError:
            pass  # over the enumeration budget: no grid is built
    return ops


def _report_run(path: Path):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = qhm.cli.main(["report", str(path)])
        if code != 0:
            raise OpFailed(code, err.getvalue().strip())
        return out.getvalue()

    return run


def _report_check(name: str, ref: dict, first: dict):
    def check(text, outputs):
        if first.setdefault(name, text) != text:
            return "report differs from the first pass's"
        return _check_report(text, ref)

    return check


# ---------------------------------------------------------------------------
# certify_large
# ---------------------------------------------------------------------------


def _certify_large(rng, tiny: bool) -> list[Op]:
    ops = []
    tol = qhm.DEFAULT_TOLERANCES
    for n in (5, 6, 7) if tiny else SIZES:
        space = qhm.from_euclidean(rng.standard_normal((n, 3)))
        m_ref = 1.0 / float(np.linalg.solve(space.dist, np.ones(n)).sum())
        diam = space.diameter
        slack = tol.inv_tol(n, diam)

        def check_m(rep, outputs, m_ref=m_ref):
            if not abs(rep.m_value - m_ref) <= REL * m_ref:
                return f"M = {rep.m_value!r}, LAPACK reference {m_ref!r}"
            return None

        def check_m_plus(value, outputs, m_ref=m_ref, diam=diam, slack=slack):
            if not diam / 2.0 - slack <= value <= m_ref * (1.0 + REL):
                return f"M+ = {value!r} outside [D/2, M] = [{diam / 2.0!r}, {m_ref!r}]"
            return None

        def check_emb(emb, outputs, n=n, m_ref=m_ref, diam=diam):
            if emb.dim != n - 1:  # sqrt of a generic Euclidean metric needs n - 1 dimensions
                return f"embedding dimension {emb.dim}, expected {n - 1}"
            dev = float(np.max(np.abs(emb.squared_point_distances() - emb.space.dist)))
            if dev > tol.emb_tol(diam):
                return f"embedding is not isometric (deviation {dev:.3e})"
            if emb.sphere is None or emb.sphere.residual > tol.sphere:
                return "no circumsphere"
            if abs(2.0 * emb.sphere.radius**2 - m_ref) > SPHERE_REL * m_ref:
                return f"2 r^2 = {2.0 * emb.sphere.radius**2!r}, LAPACK M = {m_ref!r}"
            m_plus = outputs.get(f"compute_m_plus:n{n}")
            if m_plus is not None and abs(emb.m_plus_geometric - m_plus) > HULL_ABS * max(1.0, m_ref):
                return f"2 (r^2 - s^2) = {emb.m_plus_geometric!r}, Frank-Wolfe M+ = {m_plus!r}"
            return None

        ops += [
            Op(f"compute_m:n{n}", lambda space=space: qhm.compute_m(space), check_m),
            Op(f"compute_m_plus:n{n}", lambda space=space: qhm.compute_m_plus(space), check_m_plus),
            Op(f"full_embedding:n{n}", lambda space=space: qhm.full_embedding(space), check_emb),
        ]
    return ops


# ---------------------------------------------------------------------------
# approx_nested
# ---------------------------------------------------------------------------


def _approx_nested(rng, tiny: bool) -> list[Op]:
    max_n = 6 if tiny else 24
    length = float(rng.uniform(0.5, 2.0))
    circumference = float(rng.uniform(4.0, 16.0))
    cases = (
        ("circle", qhm.CompactSpaceDescriptor(kind="circle", circumference=circumference),
         circumference / 4.0, circumference / 8.0),
        ("interval", qhm.CompactSpaceDescriptor(kind="interval", length=length), length / 2.0, length),
    )
    ops = []
    for kind, desc, target, scale in cases:

        def check(trace, outputs, target=target, scale=scale):
            if trace.sizes != list(range(2, max_n + 1)):
                return f"sizes {trace.sizes[0]}..{trace.sizes[-1]}, expected 2..{max_n}"
            vals = trace.m_values
            rising = all(b >= a - 1e-9 * max(1.0, abs(a)) for a, b in zip(vals, vals[1:]))
            if not (trace.monotone_ok and rising):
                return "trace is not monotone"
            if abs(trace.final - target) > APPROX_ABS * scale:
                return f"final M = {trace.final!r}, expected {target!r}"
            return None

        ops.append(Op(f"approx_m:{kind}", lambda desc=desc: qhm.approx_m(desc, max_n=max_n), check))
    return ops
