"""The three benchmark workloads.

Each workload makes its inputs from the seed when it is built.  A *pass* is a
fixed list of items, each one or a few calls into the package; the calls a
user would make are timed one by one.  A run repeats identical passes, so
every pass must give the same digest.

With ``replay=True`` the items also make the calls that give per-layer spans:
``decompose`` on every reduced sigma, and for the witness workload the whole
enumeration again, candidate by candidate, through the public
``sl_candidates`` and ``find_witness(gamma, ..., RngStream(seed, index))``,
with ``membership_excess`` and ``lemma_filter_chain`` on every witness pair.
The replayed reports must serialise to the same bytes as the real run's.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter

import numpy as np

import checks
from siegel import cli
from siegel.haar import RngStream, a_integral_mc, a_integral_quadrature
from siegel.intersections import (
    find_witness,
    height_bound,
    lemma_filter_chain,
    reports_to_jsonl,
    sl_candidates,
)
from siegel.iwasawa import (
    COND_MAX,
    MINIMAL_PARAMS,
    decompose,
    membership_excess,
    siegel_membership,
)
from siegel.reduction import siegel_reduce
from siegel.volumes import (
    compare_quotient_forms,
    compare_ratio_forms,
    growth_table,
    ratio_C,
    vol_quotient,
    vol_so,
    vol_symmetric_space,
)

P = MINIMAL_PARAMS


def membership(g: np.ndarray, tol: float) -> str:
    """The package's predicate at the canonical parameters."""
    return siegel_membership(g, P, tol, check=False)


def package_caches() -> list:
    """Every functools cache in the loaded siegel modules."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "siegel" or name.startswith("siegel."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return list(found.values())


@dataclass
class Pass:
    """What one pass produced: timed calls, ops done, outputs."""

    calls: list[tuple[float, float]] = field(default_factory=list)  # perf_counter start, end
    ops: int = 0
    outputs: list = field(default_factory=list)
    digest: str = ""
    wall: float = 0.0
    mismatches: list[str] = field(default_factory=list)
    # witness replays: candidates and reports per seed, (run, replay) digests
    candidates: dict = field(default_factory=dict)
    reports: dict = field(default_factory=dict)
    replayed: list[tuple[str, str]] = field(default_factory=list)

    def timed(self, t0: float) -> None:
        """Record a call that started at ``perf_counter()`` ``t0`` and ends now."""
        self.calls.append((t0, perf_counter()))


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self._caches = package_caches()

    def clear_caches(self) -> None:
        # A CLI user refills these in every process; each timed call does too.
        for c in self._caches:
            c.cache_clear()

    def items(self, replay: bool) -> list:
        """Callables ``item(recorder, pass)`` that make up one pass."""
        raise NotImplementedError

    def finalize(self, p: Pass) -> None:
        """Set the digest of a finished pass and compare any replays."""
        raise NotImplementedError

    def run_pass(self, rec, replay: bool = False) -> Pass:
        p = Pass()
        start = perf_counter()
        for item in self.items(replay):
            item(rec, p)
        p.wall = perf_counter() - start
        self.finalize(p)
        return p

    def warm_up(self) -> None:
        raise NotImplementedError

    def check(self, outputs: list) -> tuple[int, int, list[str]]:
        """(ops attempted, ops failed, reasons)."""
        raise NotImplementedError

    def corrupt(self, outputs: list) -> list:
        """Copy of ``outputs`` with one fault that :meth:`check` must catch."""
        raise NotImplementedError


# --- reduce-mixed ------------------------------------------------------------


def gaussian_sl(rng: np.random.Generator, n: int) -> np.ndarray:
    """Gaussian matrix rescaled to determinant +1."""
    while True:
        g = rng.standard_normal((n, n))
        d = np.linalg.det(g)
        if abs(d) > 1e-8:
            break
    g /= abs(d) ** (1.0 / n)
    if np.linalg.det(g) < 0:
        g[:, -1] *= -1.0
    return g


class ReduceMixed(Workload):
    name = "reduce-mixed"
    # Of each n = 2..8 the same number, half of them skewed, in an order drawn
    # from the seed: a pool drawn wholly at random moves the median latency
    # from seed to seed by how many large n it happens to hold.
    SIZES = range(2, 9)
    PER_SIZE = 144
    SKEW_DECADES = 2.5
    COND_TARGET = 1e7

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        kinds = [(n, i % 2 == 1) for n in self.SIZES for i in range(self.PER_SIZE)]
        self.mats = []
        for k in rng.permutation(len(kinds)):
            n, skewed = kinds[k]
            g = gaussian_sl(rng, n)
            self.mats.append(self._skew(rng, g) if skewed else g)

    def _skew(self, rng: np.random.Generator, g: np.ndarray) -> np.ndarray:
        """Scale the columns by up to SKEW_DECADES decades each way, redrawn
        until the condition number is at most COND_TARGET."""
        n = g.shape[0]
        while True:
            d = 10.0 ** rng.uniform(-self.SKEW_DECADES, self.SKEW_DECADES, size=n)
            h = g * (d / np.prod(d) ** (1.0 / n))[None, :]
            cond = np.linalg.cond(h)
            if cond <= self.COND_TARGET:
                break
        if not cond < COND_MAX:
            raise RuntimeError(f"skewed input has cond {cond:.3e} >= COND_MAX")
        return h

    def warm_up(self) -> None:
        rng = np.random.default_rng(0)
        for n in (2, 3):
            res = siegel_reduce(gaussian_sl(rng, n))
            membership(res.sigma, checks.REDUCED_TOL)

    def items(self, replay):
        return [partial(self._reduce, g, replay) for g in self.mats]

    def _reduce(self, g, replay, rec, p: Pass) -> None:
        self.clear_caches()
        with rec.span("reduction.siegel_reduce") as attrs:
            t0 = perf_counter()
            res = siegel_reduce(g)
            p.timed(t0)
            attrs["exchanges"] = res.iterations
            attrs["status"] = res.status
        if replay:
            with rec.span("iwasawa.decompose"):
                decompose(res.sigma, check=False)
        p.outputs.append(res)
        p.ops += 1

    def finalize(self, p):
        h = hashlib.sha256()
        for res in p.outputs:
            h.update(repr((res.gamma.entries, res.iterations, res.status)).encode())
            h.update(np.ascontiguousarray(res.sigma).tobytes())
        p.digest = h.hexdigest()

    def check(self, outputs):
        failed, why = 0, []
        for g, res in zip(self.mats, outputs):
            r = checks.reduction_fails(g, res, membership)
            if r:
                failed += 1
                why.extend(r)
        return len(outputs), failed, why

    def corrupt(self, outputs):
        out = list(outputs)
        sigma = out[0].sigma.copy()
        sigma[:, 0] *= 1.0 + 1e-6
        out[0] = dataclasses.replace(out[0], sigma=sigma)
        return out


# --- witness-n2-refine ------------------------------------------------------


class WitnessN2Refine(Workload):
    name = "witness-n2-refine"
    n = 2
    budget = 400
    cap = int(math.floor(height_bound(2)))
    # Several CLI seeds per pass: one search's time depends on its seed.
    CALLS = 10

    def __init__(self, seed: int):
        super().__init__(seed)
        self.cli_seeds = [int(x) for x in np.random.SeedSequence(seed).generate_state(self.CALLS)]
        self._oracle = None

    def warm_up(self) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run(["enumerate-intersections", "--n", "2", "--budget", "2",
                     "--max-height", "1", "--seed", "0"])

    def items(self, replay):
        out = []
        count = len(sl_candidates(self.n, self.cap))
        for seed in self.cli_seeds:
            out.append(partial(self._run, seed))
            if replay:
                out.append(partial(self._candidates, seed))
                out += [partial(self._candidate, seed, idx) for idx in range(count)]
        return out

    def _run(self, seed, rec, p: Pass) -> None:
        """The user's call; appends (seed, JSONL reports, summary) to outputs."""
        self.clear_caches()
        argv = ["enumerate-intersections", "--n", str(self.n), "--budget", str(self.budget),
                "--seed", str(seed)]
        buf = io.StringIO()
        with rec.span("cli.run") as attrs:
            t0 = perf_counter()
            with contextlib.redirect_stdout(buf):
                rc = cli.run(argv)
            p.timed(t0)
            out = buf.getvalue()
            attrs["output_bytes"] = len(out.encode())
        lines = out.splitlines(keepends=True)
        if rc != 0 or not lines:
            p.mismatches.append(f"seed {seed}: exit code {rc}")
            return
        p.outputs.append((seed, "".join(lines[:-1]), json.loads(lines[-1])["summary"]))
        p.ops += len(lines) - 1

    def _candidates(self, seed, rec, p: Pass) -> None:
        with rec.span("intersections.sl_candidates") as attrs:
            p.candidates[seed] = sl_candidates(self.n, self.cap)
            attrs["candidates"] = len(p.candidates[seed])
        p.reports[seed] = []

    def _candidate(self, seed, idx, rec, p: Pass) -> None:
        gamma = p.candidates[seed][idx]
        with rec.span("candidate", seed=seed, index=idx):
            with rec.span("intersections.find_witness") as attrs:
                rep = find_witness(gamma, P, self.budget, RngStream(seed, idx))
                attrs["verdict"] = rep.status
            p.reports[seed].append(rep)
            if rep.status != "witnessed":
                return
            s = rep.witness.to_group_element()
            with rec.span("iwasawa.membership_excess"):
                membership_excess(s, P, check=False)
            with rec.span("iwasawa.membership_excess"):
                membership_excess(gamma.to_array() @ s, P, check=False)
            with rec.span("intersections.lemma_filter_chain"):
                chain = lemma_filter_chain(gamma, s, p=P)
        if not all(c.passed for c in chain):
            p.mismatches.append(f"seed {seed} candidate {idx}: chain fails on replay")

    def finalize(self, p):
        h = hashlib.sha256()
        for seed, text, summary in p.outputs:
            h.update(f"{seed}\n{text}{json.dumps(summary, sort_keys=True)}\n".encode())
            if summary.get("height_cap") != self.cap:
                p.mismatches.append(f"seed {seed}: height cap {summary.get('height_cap')}")
            if seed in p.reports:
                ran = hashlib.sha256(text.encode()).hexdigest()
                replayed = hashlib.sha256(reports_to_jsonl(p.reports[seed]).encode()).hexdigest()
                p.replayed.append((ran, replayed))
                if replayed != ran:
                    p.mismatches.append(f"seed {seed}: replayed reports differ from the run's")
        p.digest = h.hexdigest()

    def check(self, outputs):
        if self._oracle is None:
            self._oracle = checks.sl_oracle(self.n, self.cap)
        attempted = failed = 0
        why = []
        for _, text, summary in outputs:
            reports = [json.loads(line) for line in text.splitlines()]
            f, w = checks.enumeration_failures(self.n, reports, summary, self._oracle, membership)
            attempted += len(reports)
            failed += f
            why.extend(w)
        return attempted, failed, why

    def corrupt(self, outputs):
        seed, text, summary = outputs[0]
        reports = checks.nudge_witness([json.loads(line) for line in text.splitlines()])
        text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in reports)
        return [(seed, text, summary)] + list(outputs[1:])


# --- volumes-table -----------------------------------------------------------


class VolumesTable(Workload):
    name = "volumes-table"
    N_MAX = 2000
    QUERY_MAX = 60
    IDENTITY_MAX = 20
    INTEGRAL_NS = (2, 3, 4, 5)
    MC_SAMPLES = 10**6

    def __init__(self, seed: int):
        super().__init__(seed)
        self.ops = (
            [("growth_table", self.N_MAX)]
            + [("query", n) for n in range(2, self.QUERY_MAX + 1)]
            + [("identity", n) for n in range(2, self.IDENTITY_MAX + 1)]
            + [("quadrature", n) for n in self.INTEGRAL_NS]
            + [("mc", n) for n in self.INTEGRAL_NS]
        )
        self._oracle = None

    def warm_up(self) -> None:
        growth_table(4)
        ratio_C(3).log_value()
        compare_ratio_forms(3)
        compare_quotient_forms(3)
        a_integral_quadrature(2, P.t)
        a_integral_mc(2, P.t, 1000, RngStream(0, 0))

    def items(self, replay):
        return [partial(self._item, kind, n) for kind, n in self.ops]

    def _item(self, kind, n, rec, p: Pass) -> None:
        self.clear_caches()
        t0 = perf_counter()
        out = self._op(rec, kind, n)
        p.timed(t0)
        p.outputs.append(out)
        p.ops += 1

    def _op(self, rec, kind: str, n: int):
        if kind == "growth_table":
            with rec.span("volumes.growth_table") as attrs:
                rows = growth_table(n)
                attrs["rows"] = len(rows)
            return rows
        if kind == "query":
            with rec.span("volumes.ratio_C"):
                expr = ratio_C(n)
            with rec.span("volumes.log_value"):
                log = expr.log_value()
            with rec.span("volumes.compare_forms"):
                forms = (compare_ratio_forms(n), compare_quotient_forms(n))
            return log, forms
        if kind == "identity":
            with rec.span("volumes.identity"):
                quo = vol_quotient(n)
                same = vol_symmetric_space(n) * vol_so(n) == quo
            return same, quo
        if kind == "quadrature":
            with rec.span("haar.a_integral_quadrature"):
                return a_integral_quadrature(n, P.t)
        with rec.span("haar.a_integral_mc") as attrs:
            rep = a_integral_mc(n, P.t, self.MC_SAMPLES, RngStream(self.seed, n))
            attrs["samples"] = rep.samples
        return rep

    def finalize(self, p):
        h = hashlib.sha256()
        for (kind, n), out in zip(self.ops, p.outputs):
            h.update(repr((kind, n, _jsonable(kind, out))).encode())
        p.digest = h.hexdigest()

    def check(self, outputs):
        if self._oracle is None:
            self._oracle = checks.VolumeOracle(self.N_MAX)
        oracle = self._oracle
        symbolic = {n: out[0] for (kind, n), out in zip(self.ops, outputs) if kind == "query"}
        failed, why = 0, []
        for (kind, n), out in zip(self.ops, outputs):
            if kind == "growth_table":
                r = checks.growth_row_fails(out, oracle, n, symbolic)
            elif kind == "query":
                r = _query_fails(n, out, oracle)
            elif kind == "identity":
                same, quo = out
                r = [] if same else [f"vol_symmetric_space*vol_so != vol_quotient at n={n}"]
                if not checks.close(quo.log_value(), oracle.rows[n][1], checks.LOG_REL_TOL):
                    r.append(f"log vol_quotient({n}) off the oracle")
            elif kind == "quadrature":
                cf = checks.a_integral_closed(n, checks.T)
                r = [] if checks.close(out, cf, checks.QUAD_REL_TOL) else [
                    f"quadrature n={n} {out} vs {cf}"]
            else:
                r = checks.mc_fails(n, out, self.MC_SAMPLES)
            if r:
                failed += 1
                why.extend(r)
        return len(outputs), failed, why

    def corrupt(self, outputs):
        out = list(outputs)
        out[0] = checks.corrupt_row(out[0])
        return out


def _query_fails(n: int, out, oracle: checks.VolumeOracle) -> list[str]:
    """ratio_C(n).log_value() against the oracle, and the two published
    simplifications off by exactly the documented 2^(3n-1) and n!."""
    log, (cr, cq) = out
    why = []
    if not checks.close(log, oracle.log_C(n), checks.LOG_REL_TOL):
        why.append(f"log C({n}) = {log} vs oracle {oracle.log_C(n)}")
    if not checks.close(cr.log_direct, log, checks.LOG_REL_TOL):
        why.append(f"compare_ratio_forms({n}) direct side {cr.log_direct} vs {log}")
    if cr.agrees or abs(cr.log_mismatch - (3 * n - 1) * math.log(2.0)) > 1e-9 * max(1.0, abs(log)):
        why.append(f"ratio forms at n={n} differ by {cr.log_mismatch}, not 2^(3n-1)")
    if cq.agrees or abs(cq.log_mismatch + math.lgamma(n + 1)) > 1e-9 * max(1.0, abs(cq.log_direct)):
        why.append(f"quotient forms at n={n} differ by {cq.log_mismatch}, not n!")
    return why


def _jsonable(kind: str, out):
    if kind == "growth_table":
        return [r.to_json_dict() for r in out]
    if kind == "query":
        return [out[0], out[1][0].to_json_dict(), out[1][1].to_json_dict()]
    if kind == "identity":
        return [out[0], out[1].log_value()]
    if kind == "quadrature":
        return out
    return out.to_json_dict()


WORKLOADS = {w.name: w for w in (ReduceMixed, WitnessN2Refine, VolumesTable)}
