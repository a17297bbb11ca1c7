"""Checks on the outputs of the siegel package, computed without it.

Siegel coordinates are recomputed here from a numpy QR with the
positive-diagonal sign fix; nothing is imported from ``siegel.iwasawa`` for
that arithmetic.  The growth table is recomputed from the documented closed
forms with ``math.lgamma`` and ``mpmath.zeta``.  The package's own predicates
are called only to be compared with these numbers: a disagreement is a failed
operation.

Conventions checked (the package's, as documented in its modules): membership
uses the k-left factors of ``g = k diag(a) u``; a witness pair is ``s`` and
``gamma @ s``; a reduction satisfies ``g = sigma @ gamma``.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import math

import numpy as np

#: Canonical Siegel parameters: t = 2/sqrt(3), lambda = 1/2.
T = 2.0 / math.sqrt(3.0)
LAM = 0.5

#: A reduced sigma may sit on the boundary but not beyond it by more than this.
REDUCED_TOL = 1e-9
#: Witness pairs are accepted by the search at this excess (its default).
WITNESS_TOL = 1e-7
#: sigma @ gamma must give g back within this many n * eps * (|g| |m|) |gamma|,
#: m = gamma^-1: sigma = g m and its product with gamma each round once.
RECON_ULPS = 16.0
#: Relative agreement of log-space volumes with the closed-form oracle.
LOG_REL_TOL = 1e-12
#: Quadrature against the closed form, as the package certifies it.
QUAD_REL_TOL = 1e-10
#: Monte Carlo band in standard errors.  At 3 about one seed in a hundred
#: fails by chance over the four estimates of a pass; at 5 it is about one
#: in a million.
MC_SIGMAS = 5.0


# --- Siegel coordinates -------------------------------------------------


def siegel_coordinates(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, u) of ``g = k @ diag(a) @ u`` by QR with a positive diagonal."""
    _, r = np.linalg.qr(np.asarray(g, dtype=float))
    d = np.diagonal(r)
    a = np.abs(d)
    u = r / d[:, None]
    return a, a[:-1] / a[1:], u


def excess(g: np.ndarray) -> float:
    """Largest violation of ``b <= t`` and ``|u_ij| <= lambda`` (<= 0 inside)."""
    a, b, u = siegel_coordinates(g)
    iu = np.triu_indices(a.size, k=1)
    return max(float(np.max(b - T)), float(np.max(np.abs(u[iu]))) - LAM)


def classify(g: np.ndarray, tol: float) -> str:
    """inside / outside / boundary with the package's thresholds."""
    e = excess(g)
    if e <= -tol:
        return "inside"
    if e > tol:
        return "outside"
    return "boundary"


def a_from_b(b: np.ndarray) -> np.ndarray:
    """Diagonal with prod(a) = 1 and a[i]/a[i+1] = b[i]."""
    log_b = np.log(np.asarray(b, dtype=float))
    n = log_b.size + 1
    log_last = -float(np.dot(np.arange(1, n), log_b)) / n
    suffix = np.concatenate([np.cumsum(log_b[::-1])[::-1], [0.0]])
    return np.exp(log_last + suffix)


def exact_det(rows: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


# --- reductions ----------------------------------------------------------


def reduction_fails(g: np.ndarray, res, membership) -> list[str]:
    """Reasons a ``siegel_reduce(g)`` result is wrong (empty if none).

    ``membership(g, tol)`` is the package's ``siegel_membership`` at the
    canonical parameters, compared with :func:`classify` on sigma.
    """
    why = []
    if res.status != "reduced":
        why.append(f"status {res.status}")
    rows = [list(r) for r in res.gamma.entries]
    if any(not isinstance(x, int) for r in rows for x in r) or exact_det(rows) != 1:
        why.append("gamma not in SL(n,Z)")
    sigma = np.asarray(res.sigma, dtype=float)
    gamma = np.array(rows, dtype=float)
    n = gamma.shape[0]
    m = np.rint(np.linalg.inv(gamma))
    bound = RECON_ULPS * n * np.finfo(float).eps * ((np.abs(g) @ np.abs(m)) @ np.abs(gamma))
    resid = np.abs(sigma @ gamma - g)
    if not np.all(resid <= bound):
        why.append(f"sigma @ gamma misses g by {float(np.max(resid)):.3e}")
    own = classify(sigma, REDUCED_TOL)
    if own == "outside":
        why.append(f"sigma outside by {excess(sigma):.3e}")
    if own != membership(sigma, REDUCED_TOL):
        why.append("membership disagrees with siegel_membership")
    return why


# --- witness searches ----------------------------------------------------


def sl_oracle(n: int, cap: int) -> set[tuple[int, ...]]:
    """Every SL(n,Z) matrix with entries in [-cap, cap], flattened."""
    vals = range(-cap, cap + 1)
    out = set()
    for flat in itertools.product(vals, repeat=n * n):
        rows = [list(flat[i * n:(i + 1) * n]) for i in range(n)]
        if exact_det(rows) == 1:
            out.add(flat)
    return out


def log_height_bound(n: int) -> float:
    """log of the entry bound sqrt(n)^(n^2 - 1)."""
    return (n * n - 1) / 2.0 * math.log(n)


def witness_point(w: dict) -> np.ndarray:
    """``k @ diag(a) @ u`` from a report's witness JSON."""
    n = int(w["k"]["n"])
    k = np.asarray(w["k"]["entries"], dtype=float).reshape(n, n)
    u = np.asarray(w["u"]["entries"], dtype=float).reshape(n, n)
    return k @ (a_from_b(w["b"])[:, None] * u)


def report_fails(rep: dict, membership) -> list[str]:
    """Reasons one JSON intersection report is wrong (empty if none)."""
    n = int(rep["gamma"]["n"])
    flat = [int(x) for x in rep["gamma"]["entries"]]
    height = max(abs(x) for x in flat)
    over = math.log(height) > log_height_bound(n) if height else False
    status = rep["status"]
    why = []
    if status == "excluded":
        if not over:
            why.append("excluded within the height bound")
    elif over:
        why.append(f"{status} beyond the height bound")
    if status == "witnessed":
        gamma = np.array(flat, dtype=float).reshape(n, n)
        s = witness_point(rep["witness"])
        for label, g in (("s", s), ("gamma s", gamma @ s)):
            own = classify(g, WITNESS_TOL)
            if own == "outside":
                why.append(f"{label} outside by {excess(g):.3e}")
            if own != membership(g, WITNESS_TOL):
                why.append(f"{label}: membership disagrees with siegel_membership")
    elif status not in ("unknown", "excluded"):
        why.append(f"unknown status {status!r}")
    return why


def enumeration_failures(
    n: int, reports: list[dict], summary: dict, oracle: set, membership
) -> tuple[int, list[str]]:
    """(failed ops, reasons) for one enumeration: every report, the summary
    counts, and the candidate set against ``oracle``."""
    failed, why = 0, []
    for rep in reports:
        r = report_fails(rep, membership)
        if r:
            failed += 1
            why.extend(r)
    seen = [tuple(int(x) for x in rep["gamma"]["entries"]) for rep in reports]
    if len(set(seen)) != len(seen) or set(seen) != oracle:
        failed += 1
        why.append(f"candidate set differs from the oracle ({len(seen)} vs {len(oracle)})")
    counts = {k: sum(rep["status"] == k for rep in reports) for k in ("witnessed", "excluded", "unknown")}
    counts["candidates"] = len(reports)
    if any(summary.get(k) != v for k, v in counts.items()) or summary.get("n") != n:
        failed += 1
        why.append(f"summary {summary} disagrees with reports {counts}")
    return failed, why


def nudge_witness(reports: list[dict]) -> list[dict]:
    """Copy of ``reports`` with one witness point moved out of the box."""
    out = copy.deepcopy(reports)
    rep = next(r for r in out if r["status"] == "witnessed")
    rep["witness"]["b"][0] = T * 1.05
    return out


# --- volumes -------------------------------------------------------------


class VolumeOracle:
    """Closed-form log volumes for n = 2..n_max, summed in mpmath.

    log vol SO(n)    = (n-1)(n/4+1) log 2 + sum_{i<=n} [(i/2) log pi - lgamma(i/2)]
    log vol Siegel   = -log 2 + log vol SO(n) + n(n-1)/2 log(2 lam)
                       + n(n^2-1)/6 log t - 2 lgamma(n)
    log vol quotient = (1/2) log 2 + sum_{i=2}^n log zeta(i)
                       - sum_{i<n} [(i-1) log 2 + lgamma(i+1)]
    """

    def __init__(self, n_max: int):
        # Imported here, so that only the volumes check pays for it.
        import mpmath

        with mpmath.workdps(40):
            ln2, ln3, lnpi = mpmath.log(2), mpmath.log(3), mpmath.log(mpmath.pi)
            ln_t = ln2 - ln3 / 2
            so_sum = zeta_sum = fact_sum = mpmath.mpf(0)
            self.rows: dict[int, tuple[float, float, float, float]] = {}
            for n in range(2, n_max + 1):
                so_sum += mpmath.mpf(n) / 2 * lnpi - mpmath.mpf(math.lgamma(n / 2.0))
                zeta_sum += mpmath.log(mpmath.zeta(n))
                fact_sum += (n - 2) * ln2 + mpmath.mpf(math.lgamma(n))
                log_so = mpmath.mpf(n - 1) * (mpmath.mpf(n) / 4 + 1) * ln2 + so_sum
                log_sie = (
                    -ln2 + log_so + mpmath.mpf(n * (n * n - 1)) / 6 * ln_t
                    - 2 * mpmath.mpf(math.lgamma(n))
                )
                log_quo = ln2 / 2 + zeta_sum - fact_sum
                self.rows[n] = (
                    float(log_sie),
                    float(log_quo),
                    float(log_sie - log_quo),
                    float(mpmath.mpf(n * n - 1) / 2 * mpmath.log(n)),
                )

    def log_C(self, n: int) -> float:
        return self.rows[n][2]


def close(x: float, ref: float, rel: float) -> bool:
    return abs(x - ref) <= rel * max(1.0, abs(ref))


def growth_row_fails(rows, oracle: VolumeOracle, n_max: int, symbolic: dict) -> list[str]:
    """Reasons a growth table is wrong: row count, every row against the
    oracle, rows n <= 60 against ``symbolic[n]`` (ratio_C(n).log_value())."""
    why = []
    if [r.n for r in rows] != list(range(2, n_max + 1)):
        return ["rows do not cover n = 2..n_max"]
    for r in rows:
        got = (r.log_vol_siegel, r.log_vol_quotient, r.log_C, r.log_height_bound)
        if not all(close(x, y, LOG_REL_TOL) for x, y in zip(got, oracle.rows[r.n])):
            why.append(f"row n={r.n} {got} vs oracle {oracle.rows[r.n]}")
        if r.n in symbolic and not close(r.log_C, symbolic[r.n], LOG_REL_TOL):
            why.append(f"row n={r.n} log_C {r.log_C} vs ratio_C {symbolic[r.n]}")
    return why


def corrupt_row(rows: list) -> list:
    """Copy of a growth table with one log_C off by one part in a million."""
    out = list(rows)
    k = len(out) // 2
    out[k] = dataclasses.replace(out[k], log_C=out[k].log_C * (1.0 + 1e-6))
    return out


def a_integral_closed(n: int, t: float) -> float:
    """(1/2) t^(n(n^2-1)/6) / ((n-1)!)^2."""
    return math.exp(math.log(0.5) + n * (n * n - 1) / 6.0 * math.log(t) - 2.0 * math.lgamma(n))


def mc_fails(n: int, rep, samples: int) -> list[str]:
    """Monte Carlo estimate within MC_SIGMAS standard errors plus the
    truncation bias of the closed form."""
    cf = a_integral_closed(n, T)
    band = MC_SIGMAS * rep.std_error + rep.truncation_bound * cf
    why = []
    if rep.samples != samples:
        why.append(f"mc used {rep.samples} samples, asked {samples}")
    if not abs(rep.estimate - cf) <= band:
        why.append(f"mc n={n} {rep.estimate} vs {cf}, band {band:.3e}")
    return why
