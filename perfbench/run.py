"""Benchmark for the siegel package.

Run from the repository root:

    python3 perfbench/run.py --workload reduce-mixed --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats the workload's pass until the next pass would end after
``--seconds`` (at least one pass), checks every output, and prints the
end-to-end metrics, its times divided by the calibration factor of
``calibrate.py``.  ``--trace 1`` runs every item of one pass twice, once with
a recorder that records nothing and once with spans around every call into
the package, checks both, writes the spans to ``perfbench/out/`` and prints
the per-layer metrics.  Metric names and units come from ``BENCHMARK.json``
next to ``perfbench/``.  The last line of standard output is always one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC = HERE.parent / "BENCHMARK.json"
OUT = HERE / "out"
SETUP_REPEATS = 9

sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import siegel  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def metric_units(kind: str) -> dict[str, str]:
    """name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[kind]}


def _require_checkout_package() -> None:
    # The program under test is the source next to this benchmark, never an
    # installed copy.
    if Path(siegel.__file__).resolve().parent != SRC / "siegel":
        raise SystemExit(f"siegel imported from {siegel.__file__}, not from {SRC}")


def set_up(name: str, seed: int):
    """Inputs from the seed, then a warm-up on small inputs."""
    w = workloads.WORKLOADS[name](seed)
    w.warm_up()
    w.clear_caches()
    return w


def setup_seconds(name: str, seed: int) -> tuple[list[float], float]:
    """Wall times of fresh processes that import, make the inputs and warm
    up, and the calibration factor sampled between them."""
    cal = calibrate.Calibration()
    times = []
    for _ in range(SETUP_REPEATS):
        calibrate.loop()  # a child evicts the loop's data from the caches
        for _ in range(3):
            cal.sample()
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", name, "--seed", str(seed)],
            check=True, stdout=subprocess.DEVNULL,
        )  # no timeout: waiting with one polls in 50 ms steps, which would show in the time
        times.append(perf_counter() - t0)
    return times, cal.factor()


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "siegel": siegel.__version__,
    }


class Tally:
    """Ops attempted and failed over the checked passes of a run."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.why: list[str] = []
        self.first_digest = None

    def add(self, w, p) -> None:
        """Check one pass; a digest that differs from the first pass's
        counts as one more failure."""
        a, f, r = w.check(p.outputs)
        self.attempted += a
        self.failed += f + len(p.mismatches)
        self.why.extend(r + p.mismatches)
        if self.first_digest is None:
            self.first_digest = p.digest
        elif p.digest != self.first_digest:
            self.failed += 1
            self.why.append("pass digest differs from the first pass's")


def self_test(w, outputs) -> bool:
    """The workload's checker must fail the corrupted copy of its outputs."""
    _, failed, _ = w.check(w.corrupt(outputs))
    return failed > 0


def measure(
    w, seconds: float, setup: tuple[list[float], float]
) -> tuple[dict, dict, int, int, bool]:
    """Timed passes; every call's time is calibrated (see calibrate.py)."""
    null = spans.NullRecorder()
    tally = Tally()
    cal = calibrate.Calibration()
    timed = []  # (calls, ops) per pass
    passes = 0
    start = perf_counter()
    cal.sample()
    with cal.ticking():
        while True:
            p = w.run_pass(null, replay=False)
            timed.append((p.calls, p.ops))
            passes += 1
            if passes == 1:
                first, pct = p, spans.tail_percentile(len(p.calls))
            # checked as it ends and then dropped, so memory does not grow with passes
            tally.add(w, p)
            if perf_counter() - start + p.wall > seconds:
                break
    wall = perf_counter() - start
    cal.sample()
    lat = [t1 - t0 for calls, _ in timed for t0, t1 in calls]
    scaled, rates = [], []
    for calls, ops in timed:
        s = cal.scaled(calls)
        scaled += s
        rates.append(ops / math.fsum(s))
    setup_runs, setup_factor = setup
    ops = sum(o for _, o in timed)
    metrics = {
        "setup_s": statistics.median(setup_runs) / setup_factor,
        "ops_per_s": statistics.median(rates),
        "call_p50_ms": statistics.median(scaled) * 1e3,
        "call_tail_ms": spans.percentile(scaled, pct) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = {
        "setup_s": statistics.median(setup_runs),
        "ops_per_s": ops / math.fsum(lat),
        "call_p50_ms": statistics.median(lat) * 1e3,
        "call_tail_ms": spans.percentile(lat, pct) * 1e3,
    }
    caught = self_test(w, first.outputs)
    detail = {
        "passes": passes,
        "ops": ops,
        "calls": len(lat),
        "measured_s": wall,
        "tail_percentile": pct,
        "digest": first.digest,
        "error_rate": tally.failed / tally.attempted if tally.attempted else 1.0,
        "self_test_caught": caught,
        "setup_runs_s": setup_runs,
        "uncalibrated": raw,
        "calibration_factor": cal.factor(),
        "calibration_samples": len(cal.samples),
        "setup_calibration_factor": setup_factor,
        "failures": tally.why[:20],
    }
    return metrics, detail, tally.attempted, tally.failed, caught


def trace(w, name: str, seed: int) -> tuple[dict, dict, int, int, bool]:
    """Every replay item once untraced and once traced, in alternating order,
    so that drift in machine speed reaches both sides alike."""
    null, rec = spans.NullRecorder(), spans.Recorder()
    base, traced = workloads.Pass(), workloads.Pass()
    for i, item in enumerate(w.items(replay=True)):
        sides = ((null, base), (rec, traced))
        for r, p in sides if i % 2 == 0 else sides[::-1]:
            t0 = perf_counter()
            item(r, p)
            p.wall += perf_counter() - t0
    w.finalize(base)
    w.finalize(traced)
    overhead = traced.wall / base.wall - 1.0
    tally = Tally()
    tally.add(w, base)
    tally.add(w, traced)
    caught = self_test(w, base.outputs)
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{name}-seed{seed}.jsonl"
    rec.write(span_file)
    detail = {
        "untraced_s": base.wall,
        "traced_s": traced.wall,
        "spans": len(rec.spans),
        "span_file": str(span_file.relative_to(HERE.parent)),
        "digest": base.digest,
        "replay_digests": base.replayed,
        "error_rate": tally.failed / tally.attempted if tally.attempted else 1.0,
        "self_test_caught": caught,
        "failures": tally.why[:20],
    }
    return spans.layer_metrics(rec, overhead), detail, tally.attempted, tally.failed, caught


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _require_checkout_package()
    if args.setup_only:
        set_up(args.workload, args.seed)
        return 0

    units = metric_units("per_layer" if args.trace else "end_to_end")
    setup = None if args.trace else setup_seconds(args.workload, args.seed)
    w = set_up(args.workload, args.seed)
    if args.trace:
        metrics, detail, attempted, failed, caught = trace(w, args.workload, args.seed)
    else:
        metrics, detail, attempted, failed, caught = measure(w, args.seconds, setup)
    if set(metrics) != set(units):
        odd = sorted(set(metrics) ^ set(units))
        raise SystemExit(f"metrics {odd} not both measured and listed in {SPEC.name}")
    for k, v in metrics.items():
        print(f"{k} = {v:.6g} {units[k]}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      **detail, **environment()}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and caught,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
