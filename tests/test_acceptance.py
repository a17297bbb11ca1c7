"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criterion 8 includes an asymptotic clause that the
implemented formulas demonstrably do not satisfy at n = 1000 (the ratio
log_C/n^3 is still 9.7% above its n -> infinity limit there, dropping
to ~5% only around n = 2000); that sub-check is asserted as stated and
fails honestly rather than being loosened.
"""

import itertools
import math
import time

import numpy as np

from siegel.haar import (
    RngStream,
    a_integral_mc,
    a_integral_quadrature,
    conjugation_jacobian,
)
from siegel.intersections import (
    STATUS_WITNESSED,
    count_bounds,
    enumerate_intersections,
)
from siegel.iwasawa import (
    MINIMAL_PARAMS,
    UnimodularIntMatrix,
    decompose,
    siegel_membership,
)
from siegel.reduction import STATUS_REDUCED, siegel_reduce
from siegel.volumes import (
    compare_normalization_forms,
    compare_quotient_forms,
    growth_table,
    signed_perm_order,
    vol_quotient,
    vol_so,
    vol_symmetric_space,
    zeta,
)

from conftest import a_integral_closed_form, random_sl, vol_so_recursive

P = MINIMAL_PARAMS
T_MIN = P.t


def _report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_01_iwasawa_round_trip():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in range(2, 9):
        for _ in range(10_000):
            g = random_sl(rng, n)
            f = decompose(g)
            worst = max(worst, float(np.max(np.abs(f.reconstruct() - g))))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and elapsed < 30.0
    _report(1, "iwasawa round trip", ok, f"max recon err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 30.0


def test_criterion_02_vol_so_closed_form_and_recursion():
    symbolic_ok = all(vol_so(n) == vol_so_recursive(n) for n in range(1, 21))
    so2 = vol_so(2).value()
    so3 = vol_so(3).value()
    rel2 = abs(so2 - 2.0**1.5 * math.pi) / so2
    rel3 = abs(so3 - 2.0**4.5 * math.pi**2) / so3
    ok = symbolic_ok and rel2 <= 1e-12 and rel3 <= 1e-12
    _report(2, "rotation-group volume", ok,
            f"recursion==closed form n<=20: {symbolic_ok}, SO2={so2:.7f}, SO3={so3:.4f}")
    assert symbolic_ok
    assert rel2 <= 1e-12 and rel3 <= 1e-12


def test_criterion_03_block_integral_quadrature_and_mc():
    start = time.monotonic()
    worst = 0.0
    for n in range(2, 6):
        for t in (1.0, T_MIN, 2.0):
            q = a_integral_quadrature(n, t)
            c = a_integral_closed_form(n, t)
            worst = max(worst, abs(q - c) / c)
    rep = a_integral_mc(3, T_MIN, 10**6, RngStream(606), b_min=T_MIN / 64.0)
    target = a_integral_closed_form(3, T_MIN)
    bias = rep.truncation_bound * target
    mc_dev = abs(rep.estimate - target)
    mc_ok = mc_dev <= 3.0 * rep.std_error + bias
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and mc_ok and elapsed < 120.0
    _report(3, "block integral", ok,
            f"quadrature rel err {worst:.2e}; MC dev {mc_dev:.2e} vs 3se+bias "
            f"{3 * rep.std_error + bias:.2e}; {elapsed:.1f}s")
    assert worst <= 1e-10
    assert mc_ok
    assert elapsed < 120.0


def test_criterion_04_covolume_base_case_and_variant_discrepancy():
    value = vol_quotient(2).value()
    target = math.sqrt(2.0) * math.pi**2 / 6.0
    base_ok = abs(value - target) <= 1e-12
    fc = compare_quotient_forms(2)
    displayed = math.exp(fc.log_displayed)
    variant_ok = (
        not fc.agrees
        and math.isclose(fc.log_mismatch, -math.log(2.0), abs_tol=1e-9)
        and math.isclose(displayed, zeta(2) / math.sqrt(2.0), rel_tol=1e-12)
    )
    ok = base_ok and variant_ok
    _report(4, "covolume base case", ok,
            f"sqrt(2) zeta(2) = {value:.10f}; simplified variant off by n!=2, "
            f"evaluates to {displayed:.10f}")
    assert base_ok
    assert variant_ok


def test_criterion_05_signed_permutation_count():
    start = time.monotonic()
    expected = {1: 1, 2: 4, 3: 24, 4: 192}
    results = {}
    for n in range(1, 5):
        count = 0
        for perm in itertools.permutations(range(n)):
            for signs in itertools.product((1, -1), repeat=n):
                rows = [[0] * n for _ in range(n)]
                for r, (c, s) in enumerate(zip(perm, signs)):
                    rows[r][c] = s
                try:
                    UnimodularIntMatrix(rows)
                    count += 1
                except Exception:
                    pass
        results[n] = count
    elapsed = time.monotonic() - start
    ok = all(results[n] == expected[n] == signed_perm_order(n) for n in expected)
    ok = ok and elapsed < 5.0
    _report(5, "signed permutation count", ok, f"{results}, {elapsed:.2f}s")
    assert results == expected
    assert all(signed_perm_order(n) == expected[n] for n in expected)
    assert elapsed < 5.0


def test_criterion_06_reduction_succeeds_everywhere():
    start = time.monotonic()
    rng = np.random.default_rng(606)
    failures = 0
    total = 0
    for n in range(2, 6):
        for _ in range(10_000):
            g = random_sl(rng, n)
            res = siegel_reduce(g)
            total += 1
            if res.status != STATUS_REDUCED:
                failures += 1
            elif siegel_membership(res.sigma, P, 1e-9, check=False) == "outside":
                failures += 1
    elapsed = time.monotonic() - start
    ok = failures == 0 and elapsed < 120.0
    _report(6, "reduction witness", ok,
            f"{total - failures}/{total} reduced, {elapsed:.1f}s")
    assert failures == 0
    assert elapsed < 120.0


def test_criterion_07_intersection_enumeration_n2():
    start = time.monotonic()
    grid_count = sum(
        1
        for a, b, c, d in itertools.product(range(-2, 3), repeat=4)
        if a * d - b * c == 1
    )
    reports, summary = enumerate_intersections(
        2, budget_per_candidate=400, rng=RngStream(2024)
    )
    elapsed = time.monotonic() - start
    witnessed = {r.gamma.entries for r in reports if r.status == STATUS_WITNESSED}
    required = [
        ((1, 0), (0, 1)),
        ((-1, 0), (0, -1)),
        ((1, 1), (0, 1)),
        ((1, -1), (0, 1)),
    ]
    chain_clean = all(
        all(c.passed for c in r.filter_trace)
        for r in reports
        if r.status == STATUS_WITNESSED
    )
    heights_ok = all(
        r.gamma.height() <= 2 for r in reports if r.status == STATUS_WITNESSED
    )
    ok = (
        summary["candidates"] == grid_count == 52
        and summary["lower_bound"] == 3
        and summary["witnessed"] >= 3
        and all(m in witnessed for m in required)
        and chain_clean
        and heights_ok
        and elapsed < 300.0
    )
    _report(7, "intersection enumeration", ok,
            f"candidates {summary['candidates']}, witnessed {summary['witnessed']}"
            f" >= {summary['lower_bound']}, chain clean {chain_clean}, {elapsed:.1f}s")
    assert summary["candidates"] == grid_count == 52
    assert summary["witnessed"] >= summary["lower_bound"] == 3
    for m in required:
        assert m in witnessed
    assert chain_clean
    assert heights_ok
    assert elapsed < 300.0


def test_criterion_08_growth_asymptotics():
    start = time.monotonic()
    rows = growth_table(1000)
    elapsed = time.monotonic() - start
    quot = [r.log_vol_quotient for r in rows]
    decreasing = all(quot[i + 1] < quot[i] for i in range(1, len(quot) - 1))
    negative = all(r.log_vol_quotient < 0.0 for r in rows if r.n >= 3)
    log_c = [r.log_C for r in rows]
    positive = all(v > 0.0 for v in log_c)
    increasing = all(log_c[i + 1] > log_c[i] for i in range(1, len(log_c) - 1))
    limit = math.log(2.0) / 6.0 - math.log(3.0) / 12.0
    ratio = rows[-1].log_C / 1000**3
    limit_gap = abs(ratio - limit) / limit
    limit_ok = limit_gap <= 0.06
    bounds_ok = all(count_bounds(n)[0] < count_bounds(n)[1] for n in range(2, 101))
    timing_ok = elapsed < 10.0
    ok = decreasing and negative and positive and increasing and limit_ok and bounds_ok and timing_ok
    _report(8, "growth asymptotics", ok,
            f"quotient decreasing {decreasing}, log_C increasing {increasing}, "
            f"log_C/n^3 at n=1000 = {ratio:.6f} vs limit {limit:.6f} "
            f"(gap {limit_gap:.1%}, required <= 6%), bounds ordered {bounds_ok}, "
            f"{elapsed:.1f}s")
    assert decreasing and negative
    assert positive and increasing
    assert bounds_ok
    assert timing_ok
    # At n = 1000 the true gap is ~9.7%: by the expansion of log C(n)
    # (log_C_expansion in test_volumes.py, checked against this table for
    # n = 50..2000 to within 1/(480 n^2) plus rounding), the terms after
    # c3 n^3, led by n^2 ln n / 4 + (ln 2 + ln(pi)/4 - 3/8) n^2, are still
    # 9.7% of it there and first fall under 6% at n = 1710.  The band is
    # asserted as stated and fails honestly.
    assert limit_ok, (
        f"log_C(1000)/1000^3 = {ratio:.6f} is {limit_gap:.1%} from the limit "
        f"{limit:.6f}; the 6% band is unattainable at n = 1000"
    )


def test_criterion_09_normalization_identities():
    identity_ok = all(
        vol_symmetric_space(n) * vol_so(n) == vol_quotient(n) for n in range(2, 21)
    )
    comparisons = [compare_normalization_forms(n) for n in range(2, 11)]
    reported = all(
        math.isfinite(fc.log_direct)
        and math.isfinite(fc.log_displayed)
        and fc.log_mismatch == fc.log_displayed - fc.log_direct
        and not fc.agrees
        for fc in comparisons
    )
    mismatch_documented = all(
        math.isclose(fc.log_mismatch, n * math.log(2.0), abs_tol=1e-8)
        for n, fc in zip(range(2, 11), comparisons)
    )
    ok = identity_ok and reported and mismatch_documented
    _report(9, "normalization identities", ok,
            f"exact identity n<=20: {identity_ok}; published simplification "
            f"differs by 2^n for n=2..10 (documented discrepancy, not a failure)")
    assert identity_ok
    assert reported
    assert mismatch_documented


def test_criterion_10_conjugation_jacobian_oracle():
    from test_haar import conjugation_matrix_det

    rng = np.random.default_rng(1010)
    worst = 0.0
    for n in (2, 3, 4):
        for _ in range(100):
            x = rng.uniform(0.2, 4.0, n)
            a = x / np.prod(x) ** (1.0 / n)
            lhs = conjugation_jacobian(a)
            rhs = conjugation_matrix_det(a)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    ok = worst <= 1e-9
    _report(10, "conjugation jacobian", ok, f"max rel err {worst:.2e}")
    assert worst <= 1e-9
