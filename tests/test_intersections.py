import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from siegel import intersections
from siegel.errors import (
    DimensionTooLargeError,
    InvalidArgumentError,
    InvalidWitnessError,
    ToleranceNotMetError,
)
from siegel.haar import (
    RngStream,
    SiegelCoordinatePoint,
    a_integral_mc,
    sample_haar_so_batch,
    sample_siegel_block,
)
from siegel.intersections import (
    DEFAULT_WITNESS_TOL,
    STATUS_EXCLUDED,
    STATUS_UNKNOWN,
    STATUS_WITNESSED,
    STRICT_WITNESS_TOL,
    FilterCheck,
    IntersectionReport,
    count_bounds,
    enumerate_intersections,
    find_witness,
    finest_partition,
    height_bound,
    height_bound_variants,
    lemma_filter_chain,
    leading_entries,
    log_height_bound,
    reports_to_jsonl,
    sl_candidates,
    _ChainPlan,
    _refine_points,
)
from siegel.iwasawa import (
    MINIMAL_PARAMS,
    SiegelParams,
    UnimodularIntMatrix,
    a_from_b,
    decompose,
    membership_excess,
    unit_upper_stack,
)
from siegel.volumes import ratio_C

from conftest import SharedStream, exact_siegel_member, random_unimodular

P = MINIMAL_PARAMS

I2 = UnimodularIntMatrix([[1, 0], [0, 1]])
I3 = UnimodularIntMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
NEG_I2 = UnimodularIntMatrix([[-1, 0], [0, -1]])
SHEAR = UnimodularIntMatrix([[1, 1], [0, 1]])
SHEAR_INV = UnimodularIntMatrix([[1, -1], [0, 1]])
ROT = UnimodularIntMatrix([[0, -1], [1, 0]])
BIG_SHEAR = UnimodularIntMatrix([[1, 5], [0, 1]])


def test_height_examples():
    assert I2.height() == 1
    assert UnimodularIntMatrix([[2, 1], [1, 1]]).height() == 2
    assert BIG_SHEAR.height() == 5


def test_leading_entries_examples():
    assert leading_entries(I3) == [(1, 1), (2, 2), (3, 3)]
    assert leading_entries(ROT) == [(1, 2), (2, 1)]
    m = UnimodularIntMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert leading_entries(m) == [(1, 1), (2, 2), (3, 3)]


def test_finest_partition_examples():
    assert finest_partition(I3) == [(1, 1), (2, 2), (3, 3)]
    assert finest_partition(ROT) == [(1, 2)]
    block = UnimodularIntMatrix([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
    assert finest_partition(block) == [(1, 2), (3, 3)]


def reachability_components(gamma):
    """Independent route to the partition of :func:`finest_partition`, via
    index sequences: edges i -> j whenever i <= j or (i, j) is a leading
    entry; two indices share a component iff each reaches the other."""
    n = gamma.n
    reach = [[i <= j for j in range(n)] for i in range(n)]
    for (i, j) in leading_entries(gamma):
        reach[i - 1][j - 1] = True
    for mid in range(n):
        for i in range(n):
            if reach[i][mid]:
                row_mid = reach[mid]
                row_i = reach[i]
                for j in range(n):
                    if row_mid[j]:
                        row_i[j] = True
    # upward reachability is free, so indices i < j are mutually reachable
    # iff j reaches i; component breaks are exactly the non-mutual
    # adjacent pairs, and components are intervals.
    components = []
    start = 1
    for c in range(n - 1):
        if not reach[c + 1][c]:
            components.append((start, c + 1))
            start = c + 2
    components.append((start, n))
    return components


def test_partition_matches_reachability_on_seeded_corpus():
    gen = np.random.default_rng(31337)
    checked = 0
    for n in (2, 3, 4, 5):
        for _ in range(250):
            gamma = random_unimodular(gen, n, height_cap=10)
            assert finest_partition(gamma) == reachability_components(gamma)
            checked += 1
    assert checked == 1000


def test_partition_is_block_upper_triangular_and_finest():
    gen = np.random.default_rng(17)
    for _ in range(100):
        gamma = random_unimodular(gen, 4, height_cap=10)
        components = finest_partition(gamma)
        # block upper triangular w.r.t. the components
        for (lo_i, hi_i), (lo_j, hi_j) in itertools.combinations(components, 2):
            for i in range(lo_j, hi_j + 1):
                for j in range(lo_i, hi_i + 1):
                    assert gamma.entries[i - 1][j - 1] == 0
        # each interior cut of a component is blocked by a nonzero entry
        for lo, hi in components:
            for cut in range(lo, hi):
                assert any(
                    gamma.entries[i - 1][j - 1] != 0
                    for i in range(cut + 1, hi + 1)
                    for j in range(lo, cut + 1)
                )


def test_height_bound_values():
    assert math.isclose(height_bound(2), 2.0**1.5, rel_tol=1e-12)
    assert math.isclose(height_bound(3), 81.0, rel_tol=1e-12)
    for n in range(2, 51):
        assert math.isclose(
            log_height_bound(n), (n * n - 1) / 2.0 * math.log(n), abs_tol=1e-12
        )
    v = height_bound_variants(3)
    assert math.isclose(v["exponent_n2_minus_n"], 27.0, rel_tol=1e-12)
    assert v["exponent_n2_minus_1"] > v["exponent_n2_minus_n"]


def test_chain_identity_witness_passes():
    checks = lemma_filter_chain(I2, np.eye(2))
    assert checks and all(c.passed for c in checks)
    names = {c.name for c in checks}
    assert names == {
        "leading_entry_ratio", "diagonal_ratio", "reverse_ratio",
        "component_ratio", "height_bound",
    }


def test_chain_shear_boundary_witness_passes():
    s = unit_upper_stack([-0.5], 2)
    checks = lemma_filter_chain(SHEAR, s)
    assert all(c.passed for c in checks)


def test_chain_reads_u_left_diagonal_of_the_anti_transpose():
    # alpha and beta are the reversed k-left a of J s^T J and J (gamma s)^T J
    rows = ([[1, 1], [0, 1]], [[0, -1], [1, 0]], [[1, 0], [-1, 1]], [[1, 1], [-1, 0]])
    for idx, rows_ in enumerate(rows):
        gamma = UnimodularIntMatrix(rows_)
        rep = find_witness(gamma, budget=40, rng=RngStream(3, idx))
        assert rep.status == STATUS_WITNESSED
        s = rep.witness.to_group_element()
        flip = np.fliplr(np.eye(2))
        alpha = decompose(flip @ s.T @ flip).a[::-1]
        beta = decompose(flip @ (gamma.to_array() @ s).T @ flip).a[::-1]
        sqrt_n = math.sqrt(2.0)
        comp = height_bound(2)  # the component bound is the height bound
        expected = {
            "leading_entry_ratio": lambda i, j: (alpha[j - 1], sqrt_n * beta[i - 1]),
            "diagonal_ratio": lambda k: (alpha[k - 1], sqrt_n * beta[k - 1]),
            "reverse_ratio": lambda k: (beta[k - 1], sqrt_n * alpha[k - 1]),
            "component_ratio": lambda i, j: (beta[j - 1], comp * alpha[i - 1]),
            "height_bound": lambda: (float(gamma.height()), 2.0),  # isqrt(2^3)
        }
        checks = lemma_filter_chain(gamma, s)
        assert {c.name for c in checks} == set(expected)
        for c in checks:
            lhs, rhs = expected[c.name](*c.indices)
            assert (c.lhs, c.rhs) == (float(lhs), float(rhs)), c


def test_witnessed_trace_holds_one_height_bound():
    # the search's own height check and the chain's last check compare the
    # height against one value, the largest integer height the bound admits
    for gamma, cap in ((SHEAR, 2), (I3, 81)):
        rep = find_witness(gamma, rng=RngStream(1, 0))
        assert rep.status == STATUS_WITNESSED
        checks = [c for c in rep.filter_trace if c.name == "height_bound"]
        assert [c.rhs for c in checks] == [float(cap)] * 2
        assert all(c.passed == (c.lhs <= c.rhs) for c in checks)


def test_chain_rejects_non_witness():
    with pytest.raises(InvalidWitnessError):
        lemma_filter_chain(I2, np.diag([4.0, 0.25]))


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_chain_refuses_a_membership_tol_that_is_not_finite_and_nonnegative(tol):
    # a nan or inf tolerance would pass the pair outside the set
    with pytest.raises(InvalidArgumentError):
        lemma_filter_chain(I2, np.diag([4.0, 0.25]), membership_tol=tol)


def _check_bits(check):
    return check.name, check.indices, check.passed, check.lhs.hex(), check.rhs.hex()


def test_stacked_chain_is_the_public_chain_row_by_row(monkeypatch):
    import siegel.intersections as intersections

    # the pairs the search chain-checks for ((-1, 0), (2, -1)) on stream
    # (2024, 14): eight of them fail the chain
    gamma = UnimodularIntMatrix([[-1, 0], [2, -1]])
    stack, seen = intersections._chain_stack, []

    def recording(plans, gfs, s, tols, p):
        chains = stack(plans, gfs, s, tols, p)
        seen.extend(zip(s, tols, chains))
        return chains

    monkeypatch.setattr(intersections, "_chain_stack", recording)
    assert find_witness(gamma, budget=400, rng=RngStream(2024, 14)).rejected_witnesses == 8
    rejected = next(
        (s, tol) for s, tol, chain in seen if isinstance(chain, intersections._Chain) and not chain.clean
    )
    # one stack: a witnessed pair, the chain-rejected pair, a pair outside the set
    rows = [(SHEAR, unit_upper_stack([-0.5], 2), DEFAULT_WITNESS_TOL), (gamma, *rejected),
            (I2, np.diag([4.0, 0.25]), DEFAULT_WITNESS_TOL)]
    chains = stack(
        [intersections._ChainPlan.of(g) for g, _, _ in rows],
        np.stack([g.to_array() for g, _, _ in rows]),
        np.stack([s for _, s, _ in rows]),
        np.array([tol for _, _, tol in rows]),
        P,
    )
    assert [chain.clean for chain in chains[:2]] == [True, False]
    for (g, s, tol), chain in zip(rows[:2], chains):
        alone = lemma_filter_chain(g, s, P, float(tol))
        assert [_check_bits(c) for c in chain.checks()] == [_check_bits(c) for c in alone]
        assert [_check_bits(c) for c in chain.checks(failed_only=True)] == [
            _check_bits(c) for c in alone if not c.passed
        ]
    assert isinstance(chains[2], InvalidWitnessError)
    with pytest.raises(InvalidWitnessError):
        lemma_filter_chain(I2, rows[2][1], P, rows[2][2])


def test_find_witness_identity_and_sign_flip():
    rep = find_witness(I2, rng=RngStream(1, 0))
    assert rep.status == STATUS_WITNESSED
    assert rep.witness is not None
    assert all(c.passed for c in rep.filter_trace)
    rep = find_witness(NEG_I2, rng=RngStream(1, 0))
    assert rep.status == STATUS_WITNESSED


def test_find_witness_shear_found_by_exact_probe():
    rep = find_witness(SHEAR, rng=RngStream(1, 0))
    assert rep.status == STATUS_WITNESSED
    assert rep.witness_excess <= 1e-9


def test_find_witness_large_shear_excluded_by_height_bound():
    rep = find_witness(BIG_SHEAR, rng=RngStream(1, 0))
    assert rep.status == STATUS_EXCLUDED
    assert rep.witness is None
    assert any(c.name == "height_bound" and not c.passed for c in rep.filter_trace)


def _svd_pair(gamma):
    """s and gamma @ s, exact as Fraction matrices, from the SVD
    ``gamma = k1 diag(sigma) k2``: ``s = k2^T diag(a)`` with
    ``b[i] = (t/2) sigma[i+1]/sigma[i]``, so ``gamma s = k1 diag(sigma a)``,
    whose ratios are all t/2 (a k2 of determinant -1 has its first row
    flipped, and k1 its first column)."""
    k1, sigma, k2 = np.linalg.svd(gamma.to_array())
    if np.linalg.det(k2) < 0.0:
        k2[0] *= -1.0
        k1[:, 0] *= -1.0
    s = k2.T * a_from_b(0.5 * P.t * sigma[1:] / sigma[:-1])
    exact = [[Fraction(x) for x in row] for row in s.tolist()]
    moved = [[sum(g * row[j] for g, row in zip(g_row, exact)) for j in range(gamma.n)]
             for g_row in gamma.entries]
    return exact, moved


@pytest.mark.parametrize(
    "gamma",
    [BIG_SHEAR, ROT, UnimodularIntMatrix([[2, 3], [-3, -4]]),
     UnimodularIntMatrix([[1, 2, -1], [0, 1, 3], [1, 2, 0]])],
    ids=["shear-5", "rotation", "hyperbolic", "n3"],
)
def test_the_svd_pair_lies_in_the_siegel_set(gamma):
    # the left action meets the k-left predicate, which is left-K-invariant:
    # both s and gamma s are members, in exact arithmetic, whatever gamma is
    s, moved = _svd_pair(gamma)
    assert exact_siegel_member(s) and exact_siegel_member(moved)


@pytest.mark.xfail(
    strict=True,
    reason="the height bound calls [[1, 5], [0, 1]] excluded, yet its SVD pair lies in the set",
)
def test_find_witness_does_not_exclude_a_shear_whose_svd_pair_intersects():
    # the same verdict test_find_witness_large_shear_excluded_by_height_bound
    # pins; it is false under the package's own predicate
    s, moved = _svd_pair(BIG_SHEAR)
    assert exact_siegel_member(s) and exact_siegel_member(moved)
    assert find_witness(BIG_SHEAR, MINIMAL_PARAMS, 400, RngStream(2024)).status != STATUS_EXCLUDED


def test_find_witness_refuses_a_set_beyond_the_canonical_one():
    # at lambda = 20 both s = I and gamma @ s are members, so gamma
    # intersects although it is far above the height bound: the bound
    # proves nothing for a set larger than the canonical one
    gamma = UnimodularIntMatrix([[1, 15], [0, 1]])
    wide = SiegelParams(MINIMAL_PARAMS.t, 20.0)
    assert gamma.height() > height_bound(2)
    assert membership_excess(np.eye(2), wide) < 0
    assert membership_excess(gamma.to_array(), wide) < 0
    # a float t of 2/sqrt(3) states t^2 = 4/3 + 3.6e-16, a set a sliver larger
    for p in (wide, SiegelParams(1.2, MINIMAL_PARAMS.lam), SiegelParams(MINIMAL_PARAMS.t, 0.5)):
        with pytest.raises(InvalidArgumentError, match="canonical"):
            find_witness(gamma, p, budget=0)
    # inside the canonical set the bound still excludes
    assert find_witness(gamma, SiegelParams(1.0, 0.4), budget=0).status == STATUS_EXCLUDED


def _shear(n: int, entry: int) -> UnimodularIntMatrix:
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    rows[0][1] = entry
    return UnimodularIntMatrix(rows)


def test_height_exclusion_is_decided_in_integers():
    # sqrt(4)^15 = 2^15 and sqrt(5)^24 = 5^12, while their floats from the
    # log land below: a gamma exactly at the bound is not excluded, and the
    # record's rhs is the exact integer cap, so it agrees with the verdict
    for n, edge in ((4, 2**15), (5, 5**12)):
        assert height_bound(n) < edge
        at, above = _ChainPlan.of(_shear(n, edge)).height, _ChainPlan.of(_shear(n, edge + 1)).height
        assert at.passed and (at.lhs, at.rhs) == (float(edge), float(edge))
        assert not above.passed and (above.lhs, above.rhs) == (float(edge + 1), float(edge))
        for check in (at, above):
            assert check.passed == (check.lhs <= check.rhs)
        assert find_witness(_shear(n, edge + 1), budget=0).status == STATUS_EXCLUDED
    report = find_witness(_shear(4, 2**15), budget=0)
    assert report.status != STATUS_EXCLUDED
    assert report.filter_trace[0] == FilterCheck("height_bound", (), True, 32768.0, 32768.0)


def test_find_witness_refuses_dimension_six_before_searching(monkeypatch):
    def refuse(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(intersections, "_search", refuse)
    monkeypatch.setattr(intersections, "_probe_block", refuse)
    for n in (6, 7):
        with pytest.raises(DimensionTooLargeError, match="n <= 5"):
            find_witness(UnimodularIntMatrix(np.eye(n, dtype=int).tolist()), budget=0)


def test_height_bound_refuses_what_float_cannot_hold():
    assert math.isfinite(height_bound(21)) and height_bound_variants(21)
    for n in (22, 40):
        for f in (height_bound, height_bound_variants):
            with pytest.raises(ToleranceNotMetError, match="log_height_bound"):
                f(n)
        assert math.isfinite(log_height_bound(n))


def test_witnessed_never_violates_height_bound():
    gen = np.random.default_rng(5)
    for _ in range(40):
        gamma = random_unimodular(gen, 2, height_cap=12)
        rep = find_witness(gamma, budget=60, rng=RngStream(3, 0))
        if rep.status == STATUS_WITNESSED:
            assert gamma.height() <= height_bound(2)


def test_budget_monotonicity():
    # budgets 20 and 40 end inside the second block (samples 16..47); it is
    # drawn whole all the same, so a witness found in it is the same report,
    # byte for byte, at every larger budget
    budgets = (20, 40, 400)
    from_cut_block = 0
    for idx, gamma in enumerate(sl_candidates(2, 2)):
        reports = [find_witness(gamma, budget=b, rng=RngStream(0, idx)) for b in budgets]
        for i, small in enumerate(reports):
            if small.status == STATUS_WITNESSED:
                for large in reports[i + 1:]:
                    assert _report_bytes(large) == _report_bytes(small), (gamma.entries, i)
        if reports[1].status == STATUS_WITNESSED:
            first_block = find_witness(gamma, budget=16, rng=RngStream(0, idx))
            from_cut_block += first_block.status != STATUS_WITNESSED
    # some witnesses come from the cut block, so a block drawn cut would show
    assert from_cut_block > 0


def test_witness_relation_is_inverse_closed():
    """If (s, gamma s) certifies gamma, the swapped pair certifies the
    inverse at the membership level: gamma^-1 (gamma s) = s.  This ties
    the left-translate set studied here to the right-action reduction
    convention.  The inequality chain itself is direction-sensitive on
    k-left witnesses, so only membership is asserted for the reverse."""
    from siegel.iwasawa import membership_excess

    checked = 0
    reports, _ = enumerate_intersections(2, budget_per_candidate=80, rng=RngStream(42))
    for rep in reports:
        if rep.status != STATUS_WITNESSED:
            continue
        gamma = rep.gamma
        inv = UnimodularIntMatrix(
            [[gamma.entries[1][1], -gamma.entries[0][1]],
             [-gamma.entries[1][0], gamma.entries[0][0]]]
        )
        s = rep.witness.to_group_element()
        gs = gamma.to_array() @ s
        # swapped pair: gs is a member within the witness tolerance, and
        # inv maps it back onto the exact member s
        assert membership_excess(gs, P) <= 1e-6
        assert membership_excess(inv.to_array() @ gs, P) <= 1e-6
        assert inv.height() <= height_bound(2)
        checked += 1
    assert checked >= 3


def brute_force_sl2_count(max_h):
    span = range(-max_h, max_h + 1)
    return sum(
        1
        for a, b, c, d in itertools.product(span, repeat=4)
        if a * d - b * c == 1
    )


def test_candidate_enumeration_matches_brute_force():
    cands = sl_candidates(2, 2)
    assert len(cands) == brute_force_sl2_count(2) == 52
    assert len(sl_candidates(2, 1)) == brute_force_sl2_count(1) == 20
    assert len({c.entries for c in cands}) == len(cands)
    assert all(c.height() <= 2 and c.det() == 1 for c in cands)


def test_candidate_enumeration_n3_small_cap():
    cands = sl_candidates(3, 1)
    assert all(c.det() == 1 and c.height() <= 1 for c in cands)
    # brute force over the 3^9 grid, in the same lexicographic order: the
    # candidate index seeds each search stream, so the order is pinned too
    brute = [
        flat
        for flat in itertools.product((-1, 0, 1), repeat=9)
        if round(np.linalg.det(np.array(flat, dtype=float).reshape(3, 3))) == 1
    ]
    assert [sum(c.entries, ()) for c in cands] == brute
    assert len(cands) == len(brute) == 3480


def test_candidate_enumeration_n3_cap2_matches_the_triple_product():
    # the candidates are built unchecked, so an independent int64 brute
    # force over all 5^3 rows pins them: keep (a, b, c) where
    # a . (b x c) == 1, in lexicographic order
    rows = np.array(list(itertools.product(range(-2, 3), repeat=3)), dtype=np.int64)
    mid, last = np.repeat(rows, len(rows), axis=0), np.tile(rows, (len(rows), 1))
    det = rows @ np.cross(mid, last).T
    brute = [
        (tuple(rows[i]), tuple(mid[j]), tuple(last[j])) for i, j in np.argwhere(det == 1)
    ]
    cands = sl_candidates(3, 2)
    assert len(cands) == 67704
    assert [gamma.entries for gamma in cands] == brute


@pytest.mark.parametrize("n, max_h", [(2, 5), (3, 2)])
def test_unchecked_candidates_are_exact_unimodular(n, max_h):
    for gamma in sl_candidates(n, max_h):
        assert all(type(x) is int for row in gamma.entries for x in row)
        assert UnimodularIntMatrix(gamma.entries).det() == 1


def test_candidate_grid_that_cannot_finish_is_refused_before_any_row(monkeypatch):
    # (2 max_h + 1)^(n^2) bounds the work: 177^4 is under the limit, 179^4
    # and 11^9 are over, and so is the default n = 3 cap of 81
    def no_rows(*args, **kwargs):
        raise AssertionError("a row was built")

    monkeypatch.setattr(intersections, "_iter_product", no_rows)
    for call in (
        lambda: sl_candidates(3, 81),
        lambda: sl_candidates(3, 5),
        lambda: sl_candidates(2, 89),
        lambda: enumerate_intersections(3),
    ):
        with pytest.raises(DimensionTooLargeError, match="max_h"):
            call()
    with pytest.raises(AssertionError, match="a row was built"):
        sl_candidates(2, 88)


def test_enumerate_intersections_n2():
    reports, summary = enumerate_intersections(
        2, budget_per_candidate=150, rng=RngStream(2024)
    )
    assert summary["candidates"] == 52
    assert summary["witnessed"] >= summary["lower_bound"] == 3
    assert summary["meets_lower_bound"]
    witnessed = {r.gamma.entries for r in reports if r.status == STATUS_WITNESSED}
    for required in (I2, NEG_I2, SHEAR, SHEAR_INV):
        assert required.entries in witnessed
    for r in reports:
        if r.status == STATUS_WITNESSED:
            assert all(c.passed for c in r.filter_trace)
            assert r.gamma.height() <= 2
        assert r.status in (STATUS_WITNESSED, STATUS_EXCLUDED, STATUS_UNKNOWN)


def test_enumerate_intersections_excludes_large_n():
    with pytest.raises(DimensionTooLargeError):
        enumerate_intersections(4)


def test_enumerate_intersections_n3_smoke():
    reports, summary = enumerate_intersections(
        3, budget_per_candidate=0, rng=RngStream(1), max_height=1
    )
    assert summary["candidates"] == 3480
    witnessed = {r.gamma.entries for r in reports if r.status == STATUS_WITNESSED}
    assert I3.entries in witnessed
    assert summary["witnessed"] + summary["excluded"] + summary["unknown"] == 3480


def test_enumerate_deterministic():
    r1, s1 = enumerate_intersections(2, budget_per_candidate=40, rng=RngStream(5))
    r2, s2 = enumerate_intersections(2, budget_per_candidate=40, rng=RngStream(5))
    assert s1 == s2
    assert reports_to_jsonl(r1) == reports_to_jsonl(r2)


def test_count_bounds():
    lo, hi = count_bounds(2)
    assert math.isclose(lo, math.log(ratio_C(2).value()), abs_tol=1e-12)
    assert math.isclose(lo, 0.7909, abs_tol=1e-4)
    for n in range(2, 101):
        lo, hi = count_bounds(n)
        assert lo < hi
    # asymptotic shape of the upper bound
    n = 1000
    _, hi = count_bounds(n)
    assert math.isclose(hi / (n**4 * math.log(n)), 0.5, rel_tol=2e-3)
    lo, _ = count_bounds(n)
    assert lo / n**3 > 0.02


@pytest.mark.parametrize("budget", [-5, True, 2.5, "4"])
def test_budget_must_be_a_nonnegative_integer(budget):
    with pytest.raises(InvalidArgumentError):
        find_witness(I2, budget=budget)
    with pytest.raises(InvalidArgumentError):
        enumerate_intersections(2, budget_per_candidate=budget, max_height=1)


def test_no_reports_give_empty_jsonl():
    assert reports_to_jsonl([]) == ""
    reports, _ = enumerate_intersections(2, budget_per_candidate=0, max_height=0)
    assert reports == [] and reports_to_jsonl(reports) == ""


def test_jsonl_emission_round_trips():
    import json

    reports, _ = enumerate_intersections(2, budget_per_candidate=5, rng=RngStream(9))
    lines = reports_to_jsonl(reports).strip().split("\n")
    assert len(lines) == 52
    doc = json.loads(lines[0])
    assert set(doc) >= {"gamma", "status", "witness", "filter_trace"}


def _point(b, u_vals, k):
    return SiegelCoordinatePoint(b=b, u=unit_upper_stack(u_vals, b.size + 1), k=k)


def _reference_refine(gf, point, target, max_rounds=60):
    """Coordinate descent one trial at a time: + step if it improves, else - step."""
    n = point.b.size + 1
    pairs = list(zip(*np.triu_indices(n, 1)))
    log_t = math.log(P.t)
    state = [np.minimum(np.log(point.b), log_t), point.u[np.triu_indices(n, 1)], point.k]

    def excess(log_b, u_vals, k):
        s = _point(np.exp(log_b), u_vals, k).to_group_element()
        return membership_excess(gf @ s, P, check=False)

    def moved(slot, c, step):
        if slot == 2:
            i, j = pairs[c]
            r = np.eye(n)
            r[i, i] = r[j, j] = math.cos(step)
            r[i, j], r[j, i] = -math.sin(step), math.sin(step)
            return state[2] @ r
        v = state[slot].copy()
        v[c] = min(v[c] + step, log_t) if slot == 0 else float(np.clip(v[c] + step, -P.lam, P.lam))
        return v

    best = excess(*state)
    steps = [np.full(n - 1, 0.25), np.full(len(pairs), 0.2 * P.lam), np.full(len(pairs), 0.25)]
    for _ in range(max_rounds):
        improved = False
        for slot in range(3):
            for c in range(steps[slot].size):
                for sign in (1.0, -1.0):
                    trial = list(state)
                    trial[slot] = moved(slot, c, sign * steps[slot][c])
                    exc = excess(*trial)
                    if exc < best:
                        state, best, improved = trial, exc, True
                        break
        if best <= target:
            break
        if not improved:
            steps = [x * 0.5 for x in steps]
            if max(x.max() for x in steps) < 1e-13:
                break
    return _point(np.exp(state[0]), state[1], state[2]), best


def reference_search(gamma, budget, rng, near_hit=0.08):
    """Point-by-point witness search in find_witness's documented order:
    the samples come from the same block schedule (16, 32, 64, ...), and
    every point is scored with single-matrix calls only."""
    n, gf = gamma.n, gamma.to_array()
    cap = math.isqrt(n ** (n * n - 1))  # the largest integer height the bound admits
    head = FilterCheck("height_bound", (), gamma.height() <= cap, float(gamma.height()), float(cap))
    if not head.passed:
        return IntersectionReport(gamma, STATUS_EXCLUDED, None, [head], None)
    rejected = []

    def attempt(point, exc):
        try:
            checks = lemma_filter_chain(gamma, point.to_group_element(), p=P,
                                        membership_tol=max(DEFAULT_WITNESS_TOL, exc * 2.0 + 1e-15))
        except InvalidWitnessError:
            return None
        if all(c.passed for c in checks):
            return IntersectionReport(gamma, STATUS_WITNESSED, point, [head] + checks, float(exc),
                                      rejected_witnesses=len(rejected))
        rejected.append([c for c in checks if not c.passed])

    def excess(point):
        return membership_excess(gf @ point.to_group_element(), P, check=False)

    for pattern in itertools.product((0.0, -P.lam, P.lam), repeat=n * (n - 1) // 2):
        point = _point(np.ones(n - 1), pattern, np.eye(n))
        exc = excess(point)
        if exc <= STRICT_WITNESS_TOL and (rep := attempt(point, exc)):
            return rep
    stream = SharedStream(rng.generator())
    drawn, size = 0, 16
    while drawn < budget:
        # each block is drawn at its full size; rows past the budget are not scored
        lows = [P.t / math.sqrt(2.0) if i % 2 else P.t / 16.0 for i in range(size)]
        block = sample_siegel_block(n, P, lows, stream)
        for i in range(min(size, budget - drawn)):
            point = block[i]
            if excess(point) <= near_hit:
                refined, final = _reference_refine(gf, point, STRICT_WITNESS_TOL)
                if final <= DEFAULT_WITNESS_TOL and (rep := attempt(refined, final)):
                    return rep
        drawn += size
        size *= 2
    return IntersectionReport(gamma, STATUS_UNKNOWN, None,
                              [head] + [c for failed in rejected for c in failed], None,
                              rejected_witnesses=len(rejected))


def _report_bytes(rep):
    return json.dumps(rep.to_json_dict(), sort_keys=True)


def test_find_witness_matches_point_by_point_reference_n2():
    statuses = set()
    for idx, gamma in enumerate(sl_candidates(2, 2)):
        rep = find_witness(gamma, budget=400, rng=RngStream(2718, idx))
        assert _report_bytes(rep) == _report_bytes(
            reference_search(gamma, 400, RngStream(2718, idx))
        ), gamma.entries
        statuses.add(rep.status)
    assert statuses == {STATUS_WITNESSED, STATUS_UNKNOWN}


def test_find_witness_matches_point_by_point_reference_n3():
    cands = sl_candidates(3, 1)
    picked = np.random.default_rng(3).choice(len(cands), size=60, replace=False)
    statuses = set()
    for idx in sorted(picked.tolist()):
        rep = find_witness(cands[idx], budget=3, rng=RngStream(1, idx))
        assert _report_bytes(rep) == _report_bytes(
            reference_search(cands[idx], 3, RngStream(1, idx))
        ), cands[idx].entries
        statuses.add(rep.status)
    assert STATUS_WITNESSED in statuses


def test_rejected_witnesses_counts_chain_rejected_witnesses(monkeypatch):
    # the point-by-point reference runs the public chain once per verified
    # witness it meets, so its failed chains are the rejections the search's
    # report must count
    chain, rejected = lemma_filter_chain, []

    def counting_chain(*args, **kwargs):
        checks = chain(*args, **kwargs)
        rejected[-1] += not all(c.passed for c in checks)
        return checks

    monkeypatch.setitem(reference_search.__globals__, "lemma_filter_chain", counting_chain)
    counts = {}
    for idx, gamma in enumerate(sl_candidates(2, 2)):
        rejected.append(0)
        reference_search(gamma, 400, RngStream(2024, idx))
        rep = find_witness(gamma, budget=400, rng=RngStream(2024, idx))
        assert rep.rejected_witnesses == rejected[-1], gamma.entries
        counts[gamma.entries] = rep.rejected_witnesses
    assert counts[((-1, 0), (2, -1))] == 8
    assert sum(c > 0 for c in counts.values()) == 19


@pytest.mark.parametrize(
    "n, budget, seed, cap", [(2, 400, 2024, None), (2, 400, 1, None), (3, 3, 1, 1)]
)
def test_enumeration_reports_are_the_one_candidate_searches(n, budget, seed, cap):
    # the candidates are searched in lockstep, yet each report is the one
    # find_witness gives on that candidate and its stream (seed, index)
    reports, summary = enumerate_intersections(n, budget, RngStream(seed), max_height=cap)
    alone = [
        find_witness(gamma, P, budget, RngStream(seed, idx))
        for idx, gamma in enumerate(sl_candidates(n, summary["height_cap"]))
    ]
    assert reports_to_jsonl(reports) == reports_to_jsonl(alone)


def test_chunked_search_keeps_every_report_and_bounds_its_stacks(monkeypatch):
    import siegel.intersections as intersections

    # at n = 3 the 27 probes of 3 480 candidates alone would be a stack of
    # 93 960 rows
    scored = []
    excess = intersections.membership_excess

    def counting_excess(g, *args, **kwargs):
        scored.append(len(g))
        return excess(g, *args, **kwargs)

    monkeypatch.setattr(intersections, "membership_excess", counting_excess)
    enumerate_intersections(3, 0, RngStream(1), max_height=1)
    assert 0 < max(scored) <= intersections._STACK_ROWS
    monkeypatch.setattr(intersections, "membership_excess", excess)
    # chunks of two candidates, and chunks of one when a block is larger
    # than a stack may be
    expected = reports_to_jsonl(enumerate_intersections(2, 200, RngStream(5))[0])
    for rows in (600, 1):
        monkeypatch.setattr(intersections, "_STACK_ROWS", rows)
        assert reports_to_jsonl(enumerate_intersections(2, 200, RngStream(5))[0]) == expected


def _stream_point(rng, index, n):
    """Sample ``index`` of a search stream: its blocks of 16, 32, 64, ...
    drawn in order, as find_witness draws them."""
    stream = SharedStream(rng.generator())
    start, size = 0, 16
    while True:
        lows = [P.t / math.sqrt(2.0) if i % 2 else P.t / 16.0 for i in range(size)]
        block = sample_siegel_block(n, P, lows, stream)
        if index < start + size:
            return block[index - start]
        start, size = start + size, size * 2


def _bits(point, excess):
    return (point.b.tobytes(), point.u.tobytes(), point.k.tobytes(), float(excess).hex())


def test_refine_points_stacks_stragglers_with_points_that_stop_at_once():
    # a near hit of the stream (3503041500, 29) whose descent runs all 60
    # rounds: stopped one round earlier it ends elsewhere
    slow = (UnimodularIntMatrix([[0, 1], [-1, 1]]), _stream_point(RngStream(3503041500, 29), 9, 2))
    alone = _reference_refine(slow[0].to_array(), slow[1], STRICT_WITNESS_TOL)
    cut = _reference_refine(slow[0].to_array(), slow[1], STRICT_WITNESS_TOL, max_rounds=59)
    assert alone[1] > STRICT_WITNESS_TOL and _bits(*cut) != _bits(*alone)
    # near hits of first blocks that reach the target in round one
    quick = []
    for idx, gamma in enumerate(sl_candidates(2, 2)):
        gf = gamma.to_array()
        lows = [P.t / 16.0, P.t / math.sqrt(2.0)] * 8
        first = sample_siegel_block(2, P, lows, RngStream(2024, idx))
        for i in np.flatnonzero(membership_excess(gf @ first.to_group_element(), P) <= 0.08):
            _, best = _reference_refine(gf, first[i], STRICT_WITNESS_TOL, max_rounds=1)
            if best <= STRICT_WITNESS_TOL:
                quick.append((gamma, first[i]))
        if len(quick) >= 3:
            break
    pairs = [quick[0], slow, quick[1], quick[2]]
    refined, finals = _refine_points(
        np.stack([gamma.to_array() for gamma, _ in pairs]),
        SiegelCoordinatePoint(*(np.stack([getattr(pt, f) for _, pt in pairs]) for f in "buk")),
        P,
    )
    for i, (gamma, point) in enumerate(pairs):
        assert _bits(refined[i], finals[i]) == _bits(
            *_reference_refine(gamma.to_array(), point, STRICT_WITNESS_TOL)
        ), i


@pytest.mark.parametrize(
    "call",
    [
        lambda rng: a_integral_mc(3, 2.0, 10, rng),
        lambda rng: find_witness(UnimodularIntMatrix([[1, 1], [0, 1]]), rng=rng),
        lambda rng: enumerate_intersections(2, 0, rng, max_height=1),
        lambda rng: sample_haar_so_batch(2, 1, rng),
        lambda rng: sample_siegel_block(2, P, [0.1], rng),
    ],
    ids=[
        "a_integral_mc",
        "find_witness",
        "enumerate_intersections",
        "sample_haar_so_batch",
        "sample_siegel_block",
    ],
)
def test_seeded_calls_take_only_a_stream(call):
    # each reports or derives from the stream's key, so its result is
    # reproduced from that key; a bare generator has none
    with pytest.raises(InvalidArgumentError, match="expected RngStream"):
        call(np.random.default_rng(0))


def test_enumeration_refuses_a_stream_index_it_would_drop():
    # candidate i searches the stream (seed, i) whatever the index of rng,
    # so RngStream(5, 3) gave the reports of RngStream(5, 0)
    with pytest.raises(InvalidArgumentError, match="stream_index 0, got 3"):
        enumerate_intersections(2, 0, RngStream(5, 3), max_height=1)
