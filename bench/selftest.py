"""Self-tests of the benchmark: python3 -m pytest bench/selftest.py"""

from __future__ import annotations

import itertools
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import qhm  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402


def test_self_times_subtract_direct_children_only():
    tree = [
        Span("root", 0.0, 10.0, -1, "0:a"),
        Span("child", 1.0, 4.0, 0, "0:a"),
        Span("grandchild", 2.0, 3.0, 1, "0:a"),
        Span("child", 5.0, 9.0, 0, "0:a"),
        Span("root", 20.0, 21.5, -1, "0:b"),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0, 1.5]


def test_layer_metrics_count_setup_once_and_average_passes():
    key = (3, b"same")
    tree = [
        Span("linalg.jacobi_eigh", 0.0, 1.0, -1, spans.SETUP_OP, key),
        Span("linalg.jacobi_eigh", 1.0, 2.0, -1, "0:x", key),
        Span("linalg.jacobi_eigh", 2.0, 3.0, -1, "0:x", key),  # duplicate within the op
        Span("linalg.jacobi_eigh", 3.0, 4.0, -1, "1:x", key),  # first in its op
        Span("linalg.jacobi_eigh", 4.0, 5.0, -1, "1:x", (2, b"other")),
    ]
    m = spans.layer_metrics(tree, passes=2, pass_wall_s=4.0, labels=["linalg.jacobi_eigh", "io.load"])
    assert m["linalg.jacobi_eigh.calls"] == 1 + 4 / 2
    assert m["linalg.jacobi_eigh.self_s"] == 1.0 + 4.0 / 2
    assert m["linalg.jacobi_eigh.n3_sum"] == 27 + (27 * 3 + 8) / 2
    assert m["linalg.jacobi_eigh.dup_calls"] == 0.5
    assert m["linalg.jacobi_eigh.dup_ratio"] == 0.5 / 3
    assert m["linalg.jacobi_eigh.share"] == 3.0 / 4.0
    assert m["io.load.calls"] == 0.0 and m["io.load.self_s"] == 0.0


@pytest.mark.parametrize("n,bound", [(n, b) for n in range(1, 5) for b in range(1, 4)])
def test_grid_rows_matches_brute_force(n, bound):
    brute = sum(1 for v in itertools.product(range(-bound, bound + 1), repeat=n) if sum(v) == 1)
    assert spans.grid_rows(n, bound) == brute


def test_tail_leaves_ten_samples_above():
    values = [float(v) for v in range(20)]
    assert run.tail(values) == (9.0, 50.0)
    with pytest.raises(ValueError):
        run.tail(values[:10])


def test_tracer_wraps_every_binding_and_restores_them():
    original_jacobi = qhm.linalg.jacobi_eigh
    original_compute_m = qhm.mconstant.compute_m
    original_sample = vars(qhm.spaces.CompactSpaceDescriptor)["sample_space"]
    star = qhm.make_fixture("star_1_2")
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = qhm.linalg.jacobi_eigh
        assert wrapped is not original_jacobi
        assert qhm.classify.jacobi_eigh is wrapped and qhm.embedding.jacobi_eigh is wrapped
        for ns in (qhm, qhm.spaces, qhm.report, qhm.cli):
            assert ns.compute_m is qhm.mconstant.compute_m is not original_compute_m
        assert vars(qhm.spaces.CompactSpaceDescriptor)["sample_space"] is not original_sample
        tracer.op = "0:probe"
        qhm.compute_m(star)
    finally:
        tracer.restore()
    assert qhm.linalg.jacobi_eigh is original_jacobi and qhm.classify.jacobi_eigh is original_jacobi
    assert qhm.spaces.compute_m is original_compute_m
    assert vars(qhm.spaces.CompactSpaceDescriptor)["sample_space"] is original_sample
    names = [s.name for s in tracer.spans]
    assert names[0] == "mconstant.compute_m" and tracer.spans[0].parent == -1
    assert "classify.check_quasihypermetric" in names and "linalg.jacobi_eigh" in names
    by_name = {s.name: s for s in tracer.spans}
    qh = by_name["classify.check_quasihypermetric"]
    assert tracer.spans[qh.parent].name == "mconstant.compute_m"
    assert all(s.op == "0:probe" for s in tracer.spans)


def _declared(section: str) -> list[str]:
    return [m["name"] for m in json.loads((BENCH.parent / "BENCHMARK.json").read_text())[section]]


@pytest.mark.parametrize("name", [w["name"] for w in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["workloads"]])
def test_tiny_workload_smoke(name, tmp_path):
    tracer = spans.Tracer()
    tracer.install()
    try:
        ops = workloads.build(name, seed=7, workdir=tmp_path, tiny=True)
        traced = run.run_passes(ops, seconds=0.0, tracer=tracer, min_ops=1)
    finally:
        tracer.restore()
    untraced = run.run_passes(ops, seconds=0.0)
    assert len(untraced) * len(ops) >= run.MIN_OPS
    for p in traced + untraced:
        assert p.wrong == {}
        expected = {"report:random-n9", "report:euclid-n9"} if name == "report_small" else set()
        assert set(p.errors) == expected  # 9-point reports exit 16 (hypermetric budget)
    e2e, detail = run.end_to_end(untraced, [0.5])
    layers = run.per_layer(spans, tracer, ops, traced, untraced)
    assert set(_declared("end_to_end")) <= set(e2e)
    assert set(_declared("per_layer")) <= set(layers)
    assert all(v > 0 for k, v in e2e.items() if k != "fail_ratio")
    assert detail["op_tail"]["samples"] == sum(len(p.latencies_s) for p in untraced)
    assert layers["linalg.jacobi_eigh.calls"] > 0
    if name == "report_small":
        assert e2e["fail_ratio"] > 0
        assert layers["linalg.jacobi_eigh.report_calls_min"] > 0


def test_report_oracle_catches_a_wrong_value(tmp_path):
    ops = workloads.build("report_small", seed=7, workdir=tmp_path, tiny=True)
    op = next(op for op in ops if op.name == "report:star_1_2")
    text = op.run()
    assert op.check(text, {}) is None
    doc = json.loads(text)
    doc["m_report"]["m_value"] = 1.5 * (1 + 1e-6)
    bad = json.dumps(doc)
    assert op.check(bad, {}) == "report differs from the first pass's"
    ref = workloads._report_reference("star_1_2", qhm.make_fixture("star_1_2"))
    assert workloads._check_report(bad, ref).startswith("M = ")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "approx_nested", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_only_the_expected_exit_code_is_a_known_failure():
    def exits(code):
        def run():
            raise workloads.OpFailed(code, "stderr text")

        return run

    def boom():
        raise ZeroDivisionError("solver blew up")

    ok = lambda out, outputs: None  # noqa: E731
    ops = [
        workloads.Op("known", exits(16), ok, expected_exit=16),
        workloads.Op("other-code", exits(10), ok, expected_exit=16),
        workloads.Op("must-succeed", exits(16), ok),
        workloads.Op("raises", boom, ok),
        workloads.Op("fine", lambda: "out", ok),
    ]
    (p,) = run.run_passes(ops, seconds=0.0, min_ops=1)
    assert set(p.errors) == {"known"}
    assert set(p.wrong) == {"other-code", "must-succeed", "raises"}
    assert p.wrong["raises"].startswith("unexpected ZeroDivisionError")


def test_op_clock_scales_by_the_kernel_time_during_the_op(monkeypatch):
    monkeypatch.setattr(run, "calibration_s", lambda: 2.0 * run.CAL_REF_S)  # a core at half speed
    handler = signal.getsignal(signal.SIGALRM)
    clock = run.OpClock(probe=True)
    try:
        t = time.perf_counter()
        clock.start()
        time.sleep(0.2)
        raw, scaled = clock.stop(t)
    finally:
        clock.close()
    assert len(clock.inside) >= 2  # the kernel ran while the op did
    assert 0.19 < raw < 0.5
    assert scaled == pytest.approx(raw / 2.0)
    assert signal.getsignal(signal.SIGALRM) == handler
