"""Fixtures, generators, samplers, and the approximation traces."""

import itertools
import json
import math

import numpy as np
import pytest

import qhm
from qhm.errors import DescriptorError, DuplicatePointError
from qhm.report import m_report_to_json
from qhm.spaces import van_der_corput


def test_assouad_matrix_exact(assouad):
    assert list(assouad.dist[0]) == [0, 2, 2, 5, 5]
    expected = np.array(
        [
            [0, 2, 2, 5, 5],
            [2, 0, 4, 3, 3],
            [2, 4, 0, 3, 3],
            [5, 3, 3, 0, 4],
            [5, 3, 3, 4, 0],
        ],
        dtype=float,
    )
    assert np.array_equal(assouad.dist, expected)


def test_cycle4_matrix(cycle4):
    # quarter arcs of an 8-circumference circle: adjacent 2, opposite 4
    assert cycle4.dist[0, 1] == 2.0 and cycle4.dist[1, 2] == 2.0
    assert cycle4.dist[0, 2] == 4.0 and cycle4.dist[1, 3] == 4.0


def test_discrete_and_equilateral(equilateral):
    assert np.array_equal(qhm.make_fixture("discrete(3,6)").dist, equilateral.dist)
    off = equilateral.dist[~np.eye(3, dtype=bool)]
    assert np.all(off == 6.0)


def test_parametrized_fixture_names():
    assert qhm.make_fixture("twopoint(2.5)").dist[0, 1] == 2.5
    assert qhm.make_fixture("discrete(4, 1.5)").n == 4
    for bad in ("nope", "twopoint", "discrete(3)", "assouad5(1)"):
        with pytest.raises(KeyError):
            qhm.make_fixture(bad)


def test_star_matrix(star):
    assert list(star.dist[0]) == [0, 1, 1, 1]
    assert star.dist[1, 2] == 2.0


def test_from_euclidean_line():
    space = qhm.from_euclidean([[0.0], [1.0], [3.0]])
    assert np.array_equal(space.dist, [[0, 1, 3], [1, 0, 2], [3, 2, 0]])


def test_from_euclidean_square():
    corners = [[0, 0], [1, 0], [1, 1], [0, 1]]
    space = qhm.from_euclidean(corners)
    assert abs(space.dist[0, 2] - math.sqrt(2)) < 1e-15
    assert space.dist[0, 1] == 1.0
    assert qhm.check_strictly_quasihypermetric(space).holds


def test_from_euclidean_duplicates():
    with pytest.raises(DuplicatePointError):
        qhm.from_euclidean([[0.0, 0.0], [0.0, 0.0]])


def test_random_metric_is_deterministic_and_valid():
    a = qhm.random_metric(6, seed=123)
    b = qhm.random_metric(6, seed=123)
    assert np.array_equal(a.dist, b.dist)
    assert not np.array_equal(a.dist, qhm.random_metric(6, seed=124).dist)
    assert qhm.random_metric(1, seed=0).dist.shape == (1, 1)


def test_van_der_corput_prefix():
    assert [van_der_corput(k) for k in (1, 2, 3, 4)] == [0.5, 0.25, 0.75, 0.125]


def test_interval_sampler_prefix_nesting():
    desc = qhm.CompactSpaceDescriptor(kind="interval", length=1.0)
    small = desc.sample_space(4)
    big = desc.sample_space(7)
    assert np.array_equal(big.dist[:4, :4], small.dist)
    assert small.dist[0, 1] == 1.0  # the first two samples are the endpoints


def test_circle_sampler_prefix():
    desc = qhm.CompactSpaceDescriptor(kind="circle", circumference=8.0)
    four = desc.sample_space(4)
    assert np.array_equal(four.dist, qhm.make_fixture("cycle4_arclength").dist)
    ten = desc.sample_space(10)
    assert np.array_equal(ten.dist[:4, :4], four.dist)
    assert float(ten.dist.max()) <= 4.0  # arc distance is capped at C/2


def test_pointcloud_sampler():
    rng = np.random.default_rng(3)
    cloud = rng.normal(size=(9, 2))
    desc = qhm.CompactSpaceDescriptor(kind="euclidean_pointcloud", points=cloud.tolist())
    assert desc.sample_space(5, seed=1).n == 5
    a = desc.sample_space(6, seed=1)
    b = desc.sample_space(6, seed=1)
    assert np.array_equal(a.dist, b.dist)
    with pytest.raises(DescriptorError):
        desc.sample_space(10)


def test_descriptor_validation_and_json_round_trip():
    with pytest.raises(DescriptorError):
        qhm.CompactSpaceDescriptor(kind="interval", length=-1.0)
    with pytest.raises(DescriptorError):
        qhm.CompactSpaceDescriptor(kind="sphere")
    desc = qhm.CompactSpaceDescriptor(kind="circle", circumference=8.0)
    back = qhm.CompactSpaceDescriptor.from_json(desc.to_json())
    assert back == desc


def test_descriptor_coerces_and_rejects_json_values():
    desc = qhm.CompactSpaceDescriptor.from_json({"kind": "interval", "length": "1"})
    assert desc.length == 1.0
    for bad in (
        {"kind": "interval"},
        {"kind": "interval", "length": "x"},
        {"kind": "circle", "circumference": 0},
        {"kind": "euclidean_pointcloud", "points": [["a"]]},
    ):
        with pytest.raises(DescriptorError):
            qhm.CompactSpaceDescriptor.from_json(bad)


def test_approx_interval_two_points_is_exact():
    desc = qhm.CompactSpaceDescriptor(kind="interval", length=1.0)
    trace = qhm.approx_m(desc, max_n=2)
    assert trace.sizes == [2]
    assert trace.m_values == [0.5]  # the endpoints alone already attain L/2


def test_approx_interval_short_trace():
    desc = qhm.CompactSpaceDescriptor(kind="interval", length=1.0)
    trace = qhm.approx_m(desc, max_n=12)
    assert trace.monotone_ok
    assert all(v <= 0.5 + 1e-9 for v in trace.m_values)  # finite subsets never exceed
    assert abs(trace.final - 0.5) < 1e-9


def test_approx_circle_short_trace():
    desc = qhm.CompactSpaceDescriptor(kind="circle", circumference=8.0)
    trace = qhm.approx_m(desc, max_n=8)
    assert trace.monotone_ok
    assert abs(trace.m_values[0] - 1.0) < 1e-12  # two opposite quarter points
    assert abs(trace.final - 2.0) < 1e-9
    assert all(v <= 2.0 + 1e-9 for v in trace.m_values)


def test_approx_validation():
    desc = qhm.CompactSpaceDescriptor(kind="interval", length=1.0)
    with pytest.raises(ValueError):
        qhm.approx_m(desc, max_n=1)
    cloud = qhm.CompactSpaceDescriptor(kind="euclidean_pointcloud", points=[[0.0], [1.0]])
    with pytest.raises(DescriptorError):
        qhm.approx_m(cloud, max_n=5)


def test_trace_json():
    desc = qhm.CompactSpaceDescriptor(kind="interval", length=1.0)
    doc = qhm.approx_m(desc, max_n=3).to_json()
    assert doc["sizes"] == [2, 3]
    assert doc["monotone_ok"] is True
    assert doc["descriptor"] == {"kind": "interval", "length": 1.0}


def test_samples_are_bit_identical_leading_blocks_of_the_largest(monkeypatch):
    """approx_m draws one sample of max_n points and reads each size n from
    its leading n x n block, which is the n-point sample bit for bit."""
    cloud = np.random.default_rng(17).normal(size=(30, 3)).tolist()
    descs = [
        qhm.CompactSpaceDescriptor(kind="interval", length=1.7),
        qhm.CompactSpaceDescriptor(kind="circle", circumference=3.1),
        qhm.CompactSpaceDescriptor(kind="euclidean_pointcloud", points=cloud),
    ]
    for desc in descs:
        for seed in (0, 5):
            full = desc.sample_space(30, seed=seed).dist
            for n in range(1, 31):
                block = np.ascontiguousarray(full[:n, :n])
                assert block.tobytes() == desc.sample_space(n, seed=seed).dist.tobytes()
    calls = []
    sample = qhm.CompactSpaceDescriptor.sample_space
    monkeypatch.setattr(
        qhm.CompactSpaceDescriptor, "sample_space", lambda *a, **k: calls.append(a) or sample(*a, **k)
    )
    assert qhm.approx_m(descs[1], max_n=9).sizes == list(range(2, 10))
    assert len(calls) == 1


def test_approx_max_n_must_be_an_integer():
    desc = qhm.CompactSpaceDescriptor(kind="interval", length=1.0)
    for bad in (3.5, "4", None):
        with pytest.raises(TypeError, match="max_n"):
            qhm.approx_m(desc, max_n=bad)
    assert qhm.approx_m(desc, max_n=np.int64(4)).m_values == qhm.approx_m(desc, max_n=4).m_values


def _approx_descriptors():
    cloud = np.random.default_rng(23).normal(size=(60, 3)).tolist()
    return [
        qhm.CompactSpaceDescriptor(kind="interval", length=1.3),
        qhm.CompactSpaceDescriptor(kind="circle", circumference=5.9),
        qhm.CompactSpaceDescriptor(kind="euclidean_pointcloud", points=cloud),
    ]


def _spied_reports(monkeypatch):
    reports = []
    compute_m = qhm.spaces.compute_m
    monkeypatch.setattr(
        qhm.spaces, "compute_m", lambda *a, **k: reports.append(compute_m(*a, **k)) or reports[-1]
    )
    return reports


def test_approx_m_traces_match_the_per_prefix_route(monkeypatch):
    """Each size read as a subspace of the one validated sample gives the trace,
    tags and reports of a fresh MetricSpace on the leading block, byte for byte."""
    reports = _spied_reports(monkeypatch)
    for desc, seed, max_n in itertools.product(_approx_descriptors(), (0, 5), (2, 3, 17, 48)):
        reports.clear()
        trace = qhm.approx_m(desc, max_n=max_n, seed=seed)
        full = desc.sample_space(max_n, seed=seed).dist
        ref = [qhm.compute_m(qhm.MetricSpace(full[:n, :n])) for n in range(2, max_n + 1)]
        assert trace.sizes == list(range(2, max_n + 1))
        assert [json.dumps(m_report_to_json(r)) for r in reports] == [
            json.dumps(m_report_to_json(r)) for r in ref
        ]
        values = [r.m_value for r in ref]
        assert np.array(trace.m_values).tobytes() == np.array(values).tobytes()
        slack = [qhm.DEFAULT_TOLERANCES.inv_tol(n, full.max()) for n in range(3, max_n + 1)]
        rising = all(b >= a - s for a, b, s in zip(values, values[1:], slack))
        assert trace.monotone_ok == rising


def test_approx_m_monotone_slack_is_inv_tol(monkeypatch):
    """A fall in M by less than inv_tol, the accuracy each M is certified to,
    keeps the trace monotone; ``invariant`` moves that slack."""
    desc = qhm.CompactSpaceDescriptor(kind="interval", length=2.0)
    fall = 0.5 * qhm.DEFAULT_TOLERANCES.inv_tol(3, 2.0)
    m_at = {2: 1.0, 3: 1.0 - fall}
    monkeypatch.setattr(
        qhm.spaces, "compute_m", lambda space, tol: qhm.mconstant.MReport(m_at[space.n], *[None] * 4, ())
    )
    assert qhm.approx_m(desc, 3).monotone_ok
    assert not qhm.approx_m(desc, 3, tol=qhm.Tolerances(invariant=1e-9)).monotone_ok


def test_approx_m_validates_one_sample_per_trace(monkeypatch):
    calls = []
    validate = qhm.metric.validate_distance_matrix
    monkeypatch.setattr(
        qhm.metric, "validate_distance_matrix", lambda d, *a: calls.append(d.shape[0]) or validate(d, *a)
    )
    for desc in _approx_descriptors():
        calls.clear()
        qhm.approx_m(desc, max_n=24, seed=5)
        assert calls == [24]
        # the per-prefix route it replaces validated every size
        calls.clear()
        full = desc.sample_space(24, seed=5).dist
        for n in range(2, 25):
            qhm.MetricSpace(full[:n, :n])
        assert calls == [24] + list(range(2, 25))


def test_from_euclidean_of_a_flat_array_puts_the_points_on_a_line():
    flat = qhm.from_euclidean([0.0, 1.0, 3.0])
    assert np.array_equal(flat.dist, qhm.from_euclidean([[0.0], [1.0], [3.0]]).dist)


def test_point_cloud_descriptor_json_round_trip_and_unknown_kind():
    desc = qhm.CompactSpaceDescriptor(kind="euclidean_pointcloud", points=[[0, 0], [1, 0], [0, 2]])
    doc = json.loads(json.dumps(desc.to_json()))
    assert doc == {"kind": "euclidean_pointcloud", "points": [[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]}
    back = qhm.CompactSpaceDescriptor.from_json(doc)
    assert back == desc
    assert np.array_equal(back.sample_space(3, seed=4).dist, desc.sample_space(3, seed=4).dist)
    with pytest.raises(DescriptorError, match="unknown descriptor kind 'torus'"):
        qhm.CompactSpaceDescriptor.from_json({"kind": "torus"})
