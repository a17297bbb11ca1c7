"""In-memory spans around the benchmark's calls into the siegel modules.

A span is (id, parent id, trace id, name, start, end, attributes).  Spans
stay in a list until the run ends and are then written out as JSON lines.
The untraced twin, :class:`NullRecorder`, runs the same code with nothing
recorded, so the difference in wall time between the two is what recording
costs.
"""

from __future__ import annotations

import json
import math
import statistics
from time import perf_counter

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def tail_percentile(samples_per_pass: int) -> float:
    """Highest listed percentile that leaves >= 10 samples beyond it in one
    pass (100, the maximum, when a pass has too few samples)."""
    for p in TAIL_PERCENTILES:
        if samples_per_pass * (1.0 - p / 100.0) >= 10.0:
            return p
    return 100.0


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(len(s) * p / 100.0) - 1)]


class _Span:
    __slots__ = ("rec", "name", "attrs", "index", "start")

    def __init__(self, rec: "Recorder", name: str, attrs: dict):
        self.rec, self.name, self.attrs = rec, name, attrs

    def __enter__(self) -> dict:
        rec = self.rec
        self.index = len(rec.spans)
        rec.spans.append(None)
        rec.stack.append(self.index)
        self.start = perf_counter()
        return self.attrs

    def __exit__(self, *exc) -> None:
        end = perf_counter()
        rec = self.rec
        rec.stack.pop()
        parent = rec.stack[-1] if rec.stack else None
        root = rec.stack[0] if rec.stack else self.index
        rec.spans[self.index] = (self.index, parent, root, self.name, self.start, end, self.attrs)


class Recorder:
    """Records one span per ``with rec.span(name):`` block.

    The block receives the span's attribute dict and may add to it.  Spans
    opened inside another span get it as parent; the outermost open span is
    the trace id that groups one pass or one candidate.
    """

    traced = True

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []

    def span(self, name: str, **attrs) -> _Span:
        return _Span(self, name, attrs)

    def by_name(self, name: str) -> list[tuple]:
        return [s for s in self.spans if s[3] == name]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, root, name, t0, t1, attrs in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "trace": root, "name": name,
                    "start": t0, "end": t1, "attrs": attrs,
                }, sort_keys=True) + "\n")


class _NullSpan:
    __slots__ = ("attrs",)

    def __enter__(self) -> dict:
        self.attrs = {}
        return self.attrs

    def __exit__(self, *exc) -> None:
        return None


class NullRecorder:
    """Same interface as :class:`Recorder`; records nothing."""

    traced = False
    _span = _NullSpan()

    def span(self, name: str, **attrs) -> _NullSpan:
        return self._span


def _stats(spans: list[tuple]) -> tuple[int, float, list[float]]:
    durs = [s[5] - s[4] for s in spans]
    return len(durs), math.fsum(durs), durs


def _median(durs: list[float]) -> float:
    return statistics.median(durs) if durs else 0.0


def layer_metrics(rec: Recorder, overhead_frac: float) -> dict[str, float]:
    """Every per-layer metric, from the spans of one traced pass.

    Layers the workload does not exercise report 0.
    """
    m: dict[str, float] = {}

    calls, busy, durs = _stats(rec.by_name("reduction.siegel_reduce"))
    exchanges = sum(s[6].get("exchanges", 0) for s in rec.by_name("reduction.siegel_reduce"))
    m["reduction.siegel_reduce.calls"] = calls
    m["reduction.siegel_reduce.busy_s"] = busy
    m["reduction.siegel_reduce.p50_us"] = _median(durs) * 1e6
    m["reduction.siegel_reduce.tail_us"] = (
        percentile(durs, tail_percentile(calls)) * 1e6 if durs else 0.0
    )
    m["reduction.exchanges"] = exchanges
    m["reduction.us_per_exchange"] = busy * 1e6 / exchanges if exchanges else 0.0
    m["reduction.budget_exhausted"] = sum(
        s[6].get("status") != "reduced" for s in rec.by_name("reduction.siegel_reduce")
    )

    for name in ("decompose", "membership_excess"):
        calls, busy, durs = _stats(rec.by_name(f"iwasawa.{name}"))
        m[f"iwasawa.{name}.calls"] = calls
        m[f"iwasawa.{name}.busy_s"] = busy
        m[f"iwasawa.{name}.p50_us"] = _median(durs) * 1e6

    sl = rec.by_name("intersections.sl_candidates")
    candidates = sum(s[6].get("candidates", 0) for s in sl)
    m["intersections.sl_candidates.busy_s"] = _stats(sl)[1]
    m["intersections.candidates"] = candidates
    fw = rec.by_name("intersections.find_witness")
    fw_busy = _stats(fw)[1]
    for verdict in ("witnessed", "unknown", "excluded"):
        calls, busy, durs = _stats([s for s in fw if s[6].get("verdict") == verdict])
        m[f"intersections.find_witness.{verdict}.calls"] = calls
        m[f"intersections.find_witness.{verdict}.busy_s"] = busy
        m[f"intersections.find_witness.{verdict}.p50_ms"] = _median(durs) * 1e3
    m["intersections.lemma_filter_chain.busy_s"] = _stats(
        rec.by_name("intersections.lemma_filter_chain"))[1]
    witnessed = m["intersections.find_witness.witnessed.calls"]
    m["intersections.witness_yield"] = witnessed / candidates if candidates else 0.0
    m["intersections.unknown_time_share"] = (
        m["intersections.find_witness.unknown.busy_s"] / fw_busy if fw_busy else 0.0
    )

    gt = rec.by_name("volumes.growth_table")
    m["volumes.growth_table.busy_s"] = _stats(gt)[1]
    m["volumes.growth_table.rows"] = sum(s[6].get("rows", 0) for s in gt)
    m["volumes.ratio_C.build_us"] = _median(_stats(rec.by_name("volumes.ratio_C"))[2]) * 1e6
    m["volumes.log_value.us"] = _median(_stats(rec.by_name("volumes.log_value"))[2]) * 1e6
    m["volumes.identity.busy_s"] = _stats(rec.by_name("volumes.identity"))[1]

    mc = rec.by_name("haar.a_integral_mc")
    mc_busy = _stats(mc)[1]
    m["haar.a_integral_mc.busy_s"] = mc_busy
    m["haar.a_integral_mc.samples_per_s"] = (
        sum(s[6].get("samples", 0) for s in mc) / mc_busy if mc_busy else 0.0
    )
    m["haar.a_integral_quadrature.busy_s"] = _stats(rec.by_name("haar.a_integral_quadrature"))[1]

    cli = rec.by_name("cli.run")
    m["cli.run.busy_s"] = _stats(cli)[1]
    m["cli.output_bytes"] = sum(s[6].get("output_bytes", 0) for s in cli)

    m["trace.overhead_frac"] = overhead_frac
    return m

