"""Benchmark of qhm: three fixed-seed workloads through the public API.

Run from the repository root:

    python3 bench/run.py --workload report_small --seed 1 --seconds 30 --trace 0

Workloads and their reasons are in ``workloads.py`` and ``BENCHMARK.json``.
Each run repeats passes over the workload's ops, one op at a time in one
thread, for about ``--seconds`` and at least 21 ops, and checks every output
against the oracle in ``workloads.py``. The last line
on stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
``end_to_end`` metrics of ``BENCHMARK.json``:

- ``setup_s``: imports, input generation, file writes and warm-up; the
  median of 9 set-ups, each in a fresh process (this one and 8 children);
- ``wall_s``: median over passes of the time the workload's ops take once;
- ``op_p50_ms`` and ``op_tail_ms``: op latency at the median and at the
  highest percentile that leaves 10 samples above it (the percentile and
  the sample count go to the result file);
- ``peak_rss_mb``: peak resident set of this process, which ran only this
  workload.

Op times are at reference core speed. On a shared host the speed of one
core swings by up to 1.8x within seconds, with load from outside this
process, and a wall-clock median moves with it from run to run. So a fixed
calibration kernel (``calibration_s``, no qhm code in it) runs between every
two ops and, while an op runs, every 25 ms, and each op's latency is scaled
by the mean of ``CAL_REF_S`` over the kernel times measured during and next
to it. On an idle core as fast as the reference, a scaled time equals the
wall time. On a 2-vCPU Intel Xeon VM at 2.1 GHz, in 150 s of one op at
n = 24 alternating with the kernel, the 10 s medians of the wall time spread
0.44 (quartile distance over median) and those of the scaled time 0.02. The
unscaled times go to the result file as ``wall_clock``. ``setup_s`` stays
wall-clock time: imports and the memory-bound grid fill of ``report_small``
do not slow down with the core as the kernel does, and scaled, its spread
over five seeds was 0.16 against 0.07 unscaled.

With ``--trace 1`` the run traces one set-up and passes for half of
``--seconds`` with the wrappers of ``spans.py``, then runs untraced passes
for the other half, and prints the ``per_layer`` metrics: per-layer figures
for one set-up plus one average pass, and ``trace.overhead_ratio`` (traced
over untraced pass time). Per-layer times are wall-clock times.

Every run also writes ``bench/results/<workload>-seed<seed>-trace<t>.json``
with the seed, core count, versions, commit, every metric computed (the
failure ratio and the self time of every traced function included) and, for
traced runs, the spans as ``...-spans.jsonl``.

Self-tests: ``python3 -m pytest bench/selftest.py``.
"""

from __future__ import annotations

import os
import sys
import time

SETUP_T0 = time.perf_counter()  # set-up is timed from here, before numpy is imported

# one BLAS thread, so one client is one core's load on a small machine
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_RUNS = 9
CAL_REF_S = 0.70e-3  # 1st percentile of calibration_s over 40 s on the VM named above
CAL_SWEEPS = 3  # about 0.7 ms a kernel run on the reference core
PROBE_INTERVAL_S = 0.025  # calibration period while an op runs
TAIL_BEYOND = 10  # samples left above the tail percentile
MIN_OPS = 2 * TAIL_BEYOND + 1  # so the tail percentile lies above the median


_CAL_MATRIX = np.random.default_rng(0).standard_normal((10, 10))


def calibration_s() -> float:
    """Time of a fixed kernel: Givens rotations on a 10x10 matrix, driven one
    at a time from Python, the mix of interpreter and small numpy operations
    that qhm's pure-Python Jacobi sweeps are made of. Its work never changes,
    so its time measures the speed of the core it ran on."""
    a = _CAL_MATRIX.copy()
    t0 = time.perf_counter()
    for _ in range(CAL_SWEEPS):
        for p in range(9):
            for q in range(p + 1, 10):
                theta = 0.5 * float(a[q, q] - a[p, p]) / (float(a[p, q]) + 1e-300)
                c = 1.0 / np.sqrt(1.0 + theta * theta)
                s = theta * c
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :], a[q, :] = c * rp - s * rq, s * rp + c * rq
    return time.perf_counter() - t0


class OpClock:
    """Times ops at reference speed.

    The calibration kernel runs between every two ops and, while an op runs,
    every ``PROBE_INTERVAL_S`` from a SIGALRM handler, so an op of seconds is
    scaled by the core speed during it and not only at its two ends. The
    handler's own time is taken out of the op's latency. ``probe=False``
    keeps the handler out of traced spans.
    """

    def __init__(self, probe: bool):
        self.probe = probe
        self.before = calibration_s()
        self.inside: list[float] = []
        self.busy_s = 0.0
        if probe:
            self._old_handler = signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        t = time.perf_counter()
        self.inside.append(calibration_s())
        self.busy_s += time.perf_counter() - t

    def start(self) -> None:
        self.inside, self.busy_s = [], 0.0
        if self.probe:
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self, since: float) -> tuple[float, float]:
        """The time from ``since`` to now, unscaled and at reference speed."""
        end = time.perf_counter()
        if self.probe:
            signal.setitimer(signal.ITIMER_REAL, 0)
        raw = end - since - self.busy_s
        after = calibration_s()
        scale = statistics.mean(CAL_REF_S / c for c in (self.before, *self.inside, after))
        self.before = after
        return raw, raw * scale

    def close(self) -> None:
        if self.probe:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old_handler)


@dataclass
class Pass:
    latencies_s: list[float]  # at reference speed
    wall_clock_s: list[float]  # the same latencies, unscaled
    elapsed_s: float  # real time of the pass, calibration included
    # op -> why it ended with its expected non-zero exit code (a known failure)
    errors: dict[str, str] = field(default_factory=dict)
    # op -> what the oracle found, or the exception of an op that was to succeed
    wrong: dict[str, str] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(self.latencies_s)


def run_passes(ops, seconds: float, tracer=None, min_ops: int = MIN_OPS) -> list[Pass]:
    """Closed loop over the workload's ops, pass after pass, checking the
    outputs after each pass outside the timed region.

    After ``min_ops`` ops, a pass starts only if a pass of the median length
    so far still ends within ``seconds``. The pass count then changes only
    when the pass time crosses a whole fraction of ``seconds``, not with every
    small drift, which keeps the order statistics behind the percentiles
    steady.
    """
    passes: list[Pass] = []
    start = time.perf_counter()
    clock = OpClock(probe=tracer is None)
    try:
        while (
            len(passes) * len(ops) < min_ops
            or time.perf_counter() - start + statistics.median(p.elapsed_s for p in passes) <= seconds
        ):
            passes.append(_run_pass(ops, clock, tracer, len(passes)))
    finally:
        clock.close()
    return passes


def _run_pass(ops, clock: OpClock, tracer, index: int) -> Pass:
    """One timed pass over the ops; the outputs are checked after it."""
    outputs, scaled, raw, errors = {}, [], [], {}
    t0 = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op = f"{index}:{op.name}"
        t = time.perf_counter()
        clock.start()
        try:
            outputs[op.name] = op.run()
        except Exception as exc:  # a failed op is counted, and the run goes on
            errors[op.name] = exc
        wall_clock_s, scaled_s = clock.stop(t)
        raw.append(wall_clock_s)
        scaled.append(scaled_s)
    p = Pass(scaled, raw, time.perf_counter() - t0)
    for op in ops:
        exc = errors.get(op.name)
        if exc is not None:
            why = f"{type(exc).__name__}: {exc}"
            if op.expected_exit is not None and getattr(exc, "code", None) == op.expected_exit:
                p.errors[op.name] = why
            else:  # an op that was to succeed, or that failed another way
                p.wrong[op.name] = f"unexpected {why}"
            continue
        try:
            problem = op.check(outputs[op.name], outputs)
        except Exception as exc:  # malformed output
            problem = f"oracle raised {type(exc).__name__}: {exc}"
        if problem is not None:
            p.wrong[op.name] = problem
    return p


def tail(values: list[float]) -> tuple[float, float]:
    """The value at the highest percentile that leaves ``TAIL_BEYOND`` samples
    above it, and that percentile."""
    ordered = sorted(values)
    k = len(ordered) - 1 - TAIL_BEYOND
    if k < 0:
        raise ValueError(f"{len(ordered)} samples cannot leave {TAIL_BEYOND} above a percentile")
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def child_setups(args, count: int) -> list[float]:
    """Set-up times of ``count`` fresh processes, one after another."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    out = []
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed ({proc.returncode}): {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},  # no repository above ROOT
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _times(passes: list[Pass], attr: str) -> tuple[dict, float]:
    """The time metrics from one of the passes' latency lists, and the tail's
    percentile."""
    latencies_ms = [1e3 * s for p in passes for s in getattr(p, attr)]
    tail_ms, pct = tail(latencies_ms)
    return {
        "wall_s": statistics.median(sum(getattr(p, attr)) for p in passes),
        "op_p50_ms": statistics.median(latencies_ms),
        "op_tail_ms": tail_ms,
    }, pct


def end_to_end(passes: list[Pass], setups: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics from the passes and the set-up times, and the
    details for the result file."""
    attempted = sum(len(p.latencies_s) for p in passes)
    failed = sum(len(p.errors) + len(p.wrong) for p in passes)
    metrics, pct = _times(passes, "latencies_s")
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["fail_ratio"] = failed / attempted
    wall_clock, _ = _times(passes, "wall_clock_s")
    detail = {
        "op_tail": {"percentile": pct, "samples": attempted},
        "setup_samples_s": setups,
        "wall_clock": wall_clock,
    }
    return metrics, detail


def per_layer(spans_mod, tracer, ops, traced: list[Pass], untraced: list[Pass]) -> dict:
    traced_wall = statistics.mean(sum(p.wall_clock_s) for p in traced)  # span times are wall-clock
    metrics = spans_mod.layer_metrics(tracer.spans, len(traced), traced_wall, tracer.labels)
    finite = {op.name for op in ops if op.finite_m_report}
    per_report = []  # decompositions per finite-M report that succeeded
    for op_id, count in spans_mod.calls_per_op(tracer.spans, "linalg.jacobi_eigh").items():
        k, _, name = op_id.partition(":")
        if op_id != spans_mod.SETUP_OP and name in finite and name not in traced[int(k)].errors and name not in traced[int(k)].wrong:
            per_report.append(count)
    metrics["linalg.jacobi_eigh.report_calls_min"] = min(per_report, default=0)
    metrics["linalg.jacobi_eigh.report_calls_max"] = max(per_report, default=0)
    mean_wall = [statistics.mean(p.wall_s for p in run) for run in (traced, untraced)]
    metrics["trace.overhead_ratio"] = mean_wall[0] / mean_wall[1]
    return metrics


def printed(metrics: dict, section: str) -> dict:
    """The metrics ``BENCHMARK.json`` lists under ``section``, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec}


def parse_args(argv):
    p = argparse.ArgumentParser(description="qhm benchmark")
    p.add_argument("--workload", required=True, choices=("report_small", "certify_large", "approx_nested"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="set up, print the set-up time and exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qhm" / "__init__.py").is_file():
        print(f"error: no qhm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import qhm

    if Path(qhm.__file__).resolve().parent != SRC / "qhm":
        print(f"error: imported qhm from {qhm.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    (BENCH / "work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=BENCH / "work"))
    try:
        if not args.trace:
            ops = workloads.build(args.workload, args.seed, workdir)
            setup_s = time.perf_counter() - SETUP_T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "commit": git_commit(),
        }
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                t0 = time.perf_counter()
                ops = workloads.build(args.workload, args.seed, workdir)
                record["traced_setup_s"] = time.perf_counter() - t0
                traced = run_passes(ops, args.seconds / 2, tracer, min_ops=1)
            finally:
                tracer.restore()
            untraced = run_passes(ops, args.seconds / 2, min_ops=1)
            metrics = per_layer(spans, tracer, ops, traced, untraced)
            passes = traced + untraced
            section = "per_layer"
        else:
            passes = untraced = run_passes(ops, args.seconds)
            metrics, detail = end_to_end(passes, [setup_s] + child_setups(args, SETUP_RUNS - 1))
            record.update(detail)
            section = "end_to_end"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.latencies_s) for p in passes)
    failures = Counter(f"{op}: {why}" for p in passes for op, why in {**p.errors, **p.wrong}.items())
    wrong = sum(len(p.wrong) for p in passes)
    record.update(
        passes=len(passes),
        pass_wall_s=[p.wall_s for p in passes],
        op_median_ms={op.name: 1e3 * statistics.median(p.latencies_s[i] for p in untraced) for i, op in enumerate(ops)},
        attempted=attempted,
        failed=sum(failures.values()),
        wrong=wrong,
        failures=dict(failures),
        metrics=metrics,
    )
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        tracer.write(results / f"{stem}-spans.jsonl")
    for why, count in failures.items():
        print(f"failed {count}x: {why}", file=sys.stderr)
    line = {"correct": wrong == 0, "attempted": attempted, "failed": record["failed"], "metrics": printed(metrics, section)}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
