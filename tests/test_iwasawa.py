import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegel import haar, intersections, iwasawa, volumes
from siegel.errors import (
    InvalidArgumentError,
    InvalidRangeError,
    NonInvertibleError,
    NotUnimodularError,
)
from siegel.iwasawa import (
    MINIMAL_PARAMS,
    SiegelParams,
    UnimodularIntMatrix,
    _check_group_element,
    _siegel_coordinates,
    a_from_b,
    as_matrix_stack,
    as_square_matrix,
    b_from_a,
    decompose,
    matrix_from_json_dict,
    matrix_to_json_dict,
    membership_excess,
    siegel_membership,
    unit_upper_stack,
)
from siegel.reduction import siegel_reduce

from conftest import column_skewed_sl, random_sl


def test_decompose_identity():
    f = decompose(np.eye(4))
    assert np.allclose(f.k, np.eye(4))
    assert np.allclose(f.a, 1.0)
    assert np.allclose(f.u, np.eye(4))


def test_decompose_rotation_is_its_own_k_factor():
    g = np.array([[0.0, -1.0], [1.0, 0.0]])
    f = decompose(g)
    assert np.allclose(f.k, g, atol=1e-14)
    assert np.allclose(f.a, [1.0, 1.0], atol=1e-14)
    assert np.allclose(f.u, np.eye(2), atol=1e-14)


@pytest.mark.parametrize("n", range(2, 9))
def test_decompose_round_trip(n, rng):
    for _ in range(300):
        g = random_sl(rng, n)
        f = decompose(g)
        errs = f.max_errors(g)
        assert errs["recon"] <= 1e-10
        assert errs["ortho"] <= 1e-10
        assert errs["det_k"] <= 1e-9
        assert errs["prod_a"] <= 1e-9
        assert np.all(f.a > 0)
        assert np.max(np.abs(f.reconstruct() - g)) <= 1e-10


def test_factor_uniqueness(rng):
    # a matrix already of the k-left form must return its own factors
    from siegel.haar import RngStream, sample_haar_so_batch

    for n in (2, 3, 5):
        k = sample_haar_so_batch(n, 1, RngStream(5, n))[0]
        a = np.exp(rng.uniform(-0.8, 0.8, n))
        a /= np.prod(a) ** (1.0 / n)
        u = np.eye(n)
        iu = np.triu_indices(n, k=1)
        u[iu] = rng.uniform(-2.0, 2.0, iu[0].size)
        g = k @ (a[:, None] * u)
        f = decompose(g)
        assert np.max(np.abs(f.k - k)) <= 1e-10
        assert np.max(np.abs(f.a - a)) <= 1e-10
        assert np.max(np.abs(f.u - u)) <= 1e-10


def test_det_minus_one_rejected():
    with pytest.raises(NotUnimodularError):
        decompose(np.diag([1.0, -1.0]))


def test_singular_rejected():
    with pytest.raises((NonInvertibleError, NotUnimodularError)):
        decompose(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_nonsquare_rejected():
    with pytest.raises(InvalidArgumentError):
        decompose(np.ones((2, 3)))


def test_recompose_diagonal_case():
    f = decompose(np.diag([2.0, 0.5]))
    assert np.allclose(f.reconstruct(), np.diag([2.0, 0.5]))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=7),
)
def test_a_b_round_trip(log_b):
    b = np.exp(np.asarray(log_b))
    a = a_from_b(b)
    assert abs(np.prod(a) - 1.0) < 1e-12
    assert np.max(np.abs(b_from_a(a) - b) / b) < 1e-12


def test_membership_examples():
    p = MINIMAL_PARAMS
    assert siegel_membership(np.diag([2.0, 0.5]), p, 1e-9) == "outside"
    assert siegel_membership(unit_upper_stack([0.4], 2), p, 1e-9) == "inside"
    # ratio exactly at the threshold in n = 3
    a = a_from_b(np.array([p.t, 1.0]))
    assert siegel_membership(np.diag(a), p, 1e-9) == "boundary"


@pytest.mark.parametrize("tol", [-1e-9, math.nan, math.inf])
def test_membership_tol_must_be_finite_and_nonnegative(tol):
    g = np.diag([3.0, 1.0 / 3.0])  # b = 9 > t
    assert siegel_membership(g, MINIMAL_PARAMS, 0.0) == "outside"
    with pytest.raises(InvalidArgumentError):
        siegel_membership(g, MINIMAL_PARAMS, tol)


def test_unipotent_factor_has_no_negative_zeros():
    # negative pivots leave -0.0 in r / diag; u holds +0.0 wherever it is 0
    for g in ([[0.0, 1.0], [-1.0, 0.0]], [[-1.0, 0.0], [0.0, -1.0]], [[0.0, 2.0], [-0.5, 0.0]]):
        f = decompose(g)
        _, u = _siegel_coordinates(np.array([g]))
        assert not np.any(np.signbit(f.u)) and not np.any(np.signbit(u))
        assert np.array_equal(f.u, np.eye(2)) and np.array_equal(u[0], np.eye(2))


def test_membership_uses_k_left_coordinates(rng):
    # multiplying by a rotation on the left never changes the verdict
    p = MINIMAL_PARAMS
    from siegel.haar import RngStream, sample_haar_so_batch

    g = unit_upper_stack([0.3] * 3, 3)
    k = sample_haar_so_batch(3, 1, RngStream(11, 0))[0]
    assert siegel_membership(g, p, 1e-9) == siegel_membership(k @ g, p, 1e-9)


def test_det_k_is_always_plus_one(rng):
    for n in (2, 4, 6):
        for _ in range(100):
            f = decompose(random_sl(rng, n))
            assert np.linalg.det(f.k) > 0.0
            assert abs(np.linalg.det(f.k) - 1.0) <= 1e-9


def test_two_orders_agree_only_sometimes():
    """The k-left and u-left membership predicates are NOT equivalent.

    Upper triangular witness: with ratio t and unipotent entry 1/2 the
    k-left coordinates sit on the boundary, while the u-left unipotent
    entry inflates to t/2 > 1/2.
    """
    p = MINIMAL_PARAMS
    j = np.fliplr(np.eye(2))
    a = a_from_b(np.array([p.t]))
    s = np.diag(a) @ unit_upper_stack([0.5], 2)
    assert siegel_membership(s, p, 1e-9) == "boundary"
    # the u-left factors of s are the mirrored k-left factors of J s^T J
    f = decompose(j @ s.T @ j)
    assert abs(f.u[0, 1]) > p.lam + 0.07  # u-left coordinates are outside
    # and on rotations the two predicates coincide exactly
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert membership_excess(rot, p) <= 0.0
    f = decompose(j @ rot.T @ j)
    assert np.allclose(f.a, 1.0) and np.allclose(f.u, np.eye(2))


def test_unimodular_det_checked_exactly():
    UnimodularIntMatrix([[1, 0], [0, 1]])
    with pytest.raises(NotUnimodularError):
        UnimodularIntMatrix([[1, 0], [0, -1]])
    with pytest.raises(NotUnimodularError):
        UnimodularIntMatrix([[2, 0], [0, 1]])
    # big entries keep exactness: 1 + 10**60 - 10**60 == 1
    assert UnimodularIntMatrix([[1 + 10**60, 10**30], [10**30, 1]]).det() == 1


@pytest.mark.parametrize("entries", [
    [[1.5, 0], [0, 1]],
    [["1", "0"], ["0", "1"]],
    [[True, False], [False, True]],
    np.eye(2),
], ids=["float", "string", "bool", "float array"])
def test_unimodular_entries_take_the_integer_rule(entries):
    # int() would read each of these as the identity
    with pytest.raises(InvalidArgumentError, match="integers"):
        UnimodularIntMatrix(entries)


def test_unimodular_entries_may_be_numpy_integers():
    m = UnimodularIntMatrix(np.array([[2, 1], [1, 1]], dtype=np.int64))
    assert m.entries == ((2, 1), (1, 1))
    assert all(type(x) is int for row in m.entries for x in row)


def test_to_array_refuses_an_entry_beyond_exact_float():
    # 2**53 - 1 is the largest integer below which every integer is a float;
    # 2**53 + 1 rounded to 2**53 and 10**400 overflowed
    g = UnimodularIntMatrix([[1, -(2**53 - 1)], [0, 1]]).to_array()
    assert g[0, 1] == -(2**53 - 1) and g.dtype == np.float64
    for entry in (2**53 + 1, 10**400):
        with pytest.raises(NonInvertibleError):
            UnimodularIntMatrix([[1, entry], [0, 1]]).to_array()


def test_matrix_json_round_trip(rng):
    g = random_sl(rng, 3)
    assert np.allclose(matrix_from_json_dict(json.loads(json.dumps(matrix_to_json_dict(g)))), g)
    # integer matrices are written exactly, as decimal strings
    m = UnimodularIntMatrix([[1, 10**25], [0, 1]])
    assert m.to_json_dict() == {"n": 2, "entries": ["1", str(10**25), "0", "1"]}


#: JSON matrices the reader must refuse: n a float (it was truncated to 2),
#: a bool, below 2, or not matching the entries; entries that are strings
#: (they were parsed as numbers) or complex numbers
_BAD_JSON_MATRICES = {
    "float n": {"n": 2.9, "entries": ["1", 0, 0, "1"]},
    "integral float n": {"n": 2.0, "entries": [1, 0, 0, 1]},
    "bool n": {"n": True, "entries": [1]},
    "n below 2": {"n": 1, "entries": [1]},
    "string n": {"n": "2", "entries": [1, 0, 0, 1]},
    "string entries": {"n": 2, "entries": ["1", 0, 0, "1"]},
    "complex entries": {"n": 2, "entries": [1j, 0, 0, 1]},
    "wrong length": {"n": 2, "entries": [1, 0, 0]},
}


@pytest.mark.parametrize("doc", list(_BAD_JSON_MATRICES.values()), ids=list(_BAD_JSON_MATRICES))
def test_matrix_from_json_dict_refuses_malformed_documents(doc):
    with pytest.raises(InvalidArgumentError):
        matrix_from_json_dict(doc)


def test_siegel_membership_refuses_a_stack():
    stack = np.array([np.eye(2)] * 3)
    with pytest.raises(InvalidArgumentError, match="membership_excess"):
        siegel_membership(stack, MINIMAL_PARAMS, 1e-9)
    with pytest.raises(InvalidArgumentError, match="membership_excess"):
        siegel_membership(stack, MINIMAL_PARAMS, 1e-9, check=False)
    # each matrix on its own is classified, and the stack is scored
    assert [siegel_membership(g, MINIMAL_PARAMS, 1e-9) for g in stack] == ["inside"] * 3
    assert membership_excess(stack, MINIMAL_PARAMS).tolist() == [1.0 - MINIMAL_PARAMS.t] * 3


def test_siegel_params_validation():
    with pytest.raises(InvalidArgumentError):
        SiegelParams(-1.0, 0.5)
    for t, lam in ((math.inf, 0.5), (1.0, math.inf), (math.nan, 0.5), (1.0, math.nan)):
        with pytest.raises(InvalidArgumentError):
            SiegelParams(t, lam)
    assert math.isclose(MINIMAL_PARAMS.t, 2.0 / math.sqrt(3.0))
    assert MINIMAL_PARAMS.lam == 0.5


@pytest.mark.parametrize(
    "t, lam",
    [(True, 0.5), (1.1, True), (False, 0.5), ("1.1", 0.5), (1.1, "0.5"), (1.1 + 0j, 0.5),
     (1.1, 0.5j), (None, 0.5), (10**400, 0.5), (0.0, 0.5), (1.1, -0.5)],
)
def test_siegel_params_take_the_real_number_rule(t, lam):
    with pytest.raises(InvalidArgumentError, match="positive finite real number"):
        SiegelParams(t, lam)


def test_minimal_params_state_the_canonical_set_exactly():
    t, t2 = MINIMAL_PARAMS.t, MINIMAL_PARAMS.t2
    assert t2 == Fraction(4, 3) and type(t2) is Fraction
    assert Fraction(MINIMAL_PARAMS.lam) == Fraction(1, 2)
    # the float every predicate reads: 2/sqrt(3) bit for bit, and the least
    # float whose square is >= 4/3
    assert t == 2.0 / math.sqrt(3.0) and t.hex() == "0x1.279a74590331dp+0"
    assert Fraction(t) ** 2 >= t2 > Fraction(math.nextafter(t, 0.0)) ** 2
    # a float t of 2/sqrt(3) states a set a sliver larger
    assert SiegelParams(t, 0.5).t2 > t2 and SiegelParams(t, 0.5) != MINIMAL_PARAMS
    with pytest.raises(AttributeError):
        MINIMAL_PARAMS.t2 = Fraction(1)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False)
    | st.sampled_from([1e-320, 5e-324, 2.2250738585072014e-308, 1e300, 1.7976931348623157e308]),
    st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False),
)
def test_float_siegel_params_read_their_own_t(t, lam):
    p = SiegelParams(t, lam)
    assert (p.t, p.lam, p.t2) == (t, lam, Fraction(t) ** 2)
    assert type(p.t) is float and type(p.lam) is float


def test_stacked_membership_excess_equals_single_calls(rng):
    for n in (2, 3, 4, 5):
        stack = np.array([random_sl(rng, n) for _ in range(64)])
        stack[::4] *= [1.0] + [3.0] * (n - 1)  # some well outside the set
        stacked = membership_excess(stack, MINIMAL_PARAMS, check=False)
        assert stacked.shape == (64,)
        single = [membership_excess(g, MINIMAL_PARAMS, check=False) for g in stack]
        assert stacked.tolist() == single


def test_stacked_membership_excess_keeps_guards(rng):
    good = np.array([random_sl(rng, 3) for _ in range(4)])
    assert membership_excess(good[:0], MINIMAL_PARAMS).shape == (0,)
    bad = good.copy()
    bad[2, 0, 0] = np.nan
    with pytest.raises(InvalidArgumentError):
        membership_excess(bad, MINIMAL_PARAMS, check=False)
    bad = good.copy()
    bad[1, :, 1] = bad[1, :, 0]  # singular
    with pytest.raises(NonInvertibleError):
        membership_excess(bad, MINIMAL_PARAMS, check=False)
    bad = good.copy()
    bad[3] *= 2.0  # det 8
    with pytest.raises(NotUnimodularError):
        membership_excess(bad, MINIMAL_PARAMS)
    with pytest.raises(InvalidArgumentError):
        membership_excess(np.ones((2, 3, 2)), MINIMAL_PARAMS)


def _column_skewed(rng, g, decades=2.5, cond_max=1e7):
    """Columns scaled by up to ``decades`` decades each way (product 1),
    redrawn until the condition number is at most ``cond_max``."""
    n = g.shape[0]
    while True:
        d = 10.0 ** rng.uniform(-decades, decades, size=n)
        h = g * (d / np.prod(d) ** (1.0 / n))[None, :]
        if np.linalg.cond(h) <= cond_max:
            return h


@pytest.mark.parametrize("n", range(2, 9))
def test_coordinate_kernel_equals_decompose(n, rng):
    plain = [random_sl(rng, n) for _ in range(24)]
    skewed = [_column_skewed(rng, random_sl(rng, n)) for _ in range(24)]
    for mats in (plain, skewed):
        stack_a, stack_u = _siegel_coordinates(np.array(mats))
        for g, a_row, u_row in zip(mats, stack_a, stack_u):
            f = decompose(g, check=False)
            a, u = _siegel_coordinates(g[None])
            assert np.array_equal(a[0], f.a) and np.array_equal(u[0], f.u)
            assert np.array_equal(a_row, f.a) and np.array_equal(u_row, f.u)
        assert np.all(np.diagonal(stack_u, axis1=1, axis2=2) == 1.0)
        assert np.all(np.tril(stack_u, -1) == 0.0)


def exact_det(g) -> Fraction:
    """The exact determinant of a float matrix: every float is dyadic, so
    each column times a power of 2 is integer; the integer determinant by
    fraction-free elimination, over the product of the scales."""
    cols = [[Fraction(x) for x in col] for col in np.asarray(g, dtype=float).T.tolist()]
    scales = [max(x.denominator for x in col) for col in cols]
    ints = [[int(x * s) for x in col] for col, s in zip(cols, scales)]
    return Fraction(iwasawa._bareiss_det(ints), math.prod(scales))


def householder_cap(g) -> float:
    """The error bound of a determinant read from a Householder QR of ``g``:
    n**4 eps sqrt(prod(c)), c the squared column norms, with the product
    taken in log space, where it neither underflows nor overflows."""
    n = g.shape[-1]
    log_norms = np.log(np.hypot.reduce(np.abs(g), axis=0)).tolist()
    return n**4 * np.finfo(float).eps * math.exp(math.fsum(log_norms))


class ReportedDet:
    """The expected message of a determinant refusal of ``g``, whose exact
    determinant is ``det``: equal to ``det(g) = d, expected 1 within
    DET_TOL`` with ``d`` printed as a plain float that has the sign of
    ``det`` and lies within :func:`householder_cap` of it."""

    def __init__(self, det: Fraction, g):
        self.det, self.cap = det, householder_cap(g)

    def __eq__(self, other):
        try:
            d = float(other.partition(", ")[0].removeprefix("det(g) = "))
        except ValueError:
            return False
        return (
            other == f"det(g) = {d!r}, expected 1 within {iwasawa.DET_TOL}"
            and (d > 0) == (self.det > 0)
            and abs(Fraction(d) - self.det) <= self.cap
        )

    def __repr__(self):
        return f"ReportedDet({float(self.det)!r} +- {self.cap:.1e})"


def reference_guard(stack):
    """The per-matrix guard loop: the exact determinant, then np.linalg.cond,
    each matrix in order; returns the first error as (type, message), or
    None, the message of a determinant error as a :class:`ReportedDet`."""
    for g in stack:
        det = exact_det(g)
        if abs(det - 1) > iwasawa.DET_TOL:
            return NotUnimodularError, ReportedDet(det, g)
        cond = np.linalg.cond(g)
        if not np.isfinite(cond) or cond > iwasawa.COND_MAX:
            return NonInvertibleError, (
                f"condition number {cond:.3e} exceeds {iwasawa.COND_MAX:.1e}"
            )
    return None


#: diagonal matrices whose pivot products leave the normal float range on
#: the way to their determinant: at n = 130 the running product of the
#: pivots 1e-5 (first, as the reduction's presort orders them) underflows to
#: 0; at n = 4 it sinks to the subnormal 1e-320, where it keeps about four
#: digits, and comes back
FAR_PIVOTS = {
    "det 1, n = 130, small first": np.diag([1e-5] * 65 + [1e5] * 65),
    "det 1, n = 130, large first": np.diag([1e5] * 65 + [1e-5] * 65),
    "det 1 + 4e-9, n = 130": np.diag([1e-5 * (1.0 + 4e-9)] + [1e-5] * 64 + [1e5] * 65),
    "det 1, n = 4, cond 1e320": np.diag([1e-160, 1e-160, 1e160, 1e160]),
    "det 2, n = 4, cond 2e320": np.diag([2e-160, 1e-160, 1e160, 1e160]),
    "det -1, n = 4, cond 1e320": np.diag([-1e-160, 1e-160, 1e160, 1e160]),
}


def det_corpus(rng):
    """Matrices of known determinant sign across n = 2..40: SL(n,R) elements
    with one column negated or not (det +-1), signed permutations, upper
    triangular matrices (every reflector the identity, tau = 0) and lower
    triangular ones, columns skewed to cond 1e10 to 1e11, and det 2; and the
    :data:`FAR_PIVOTS`."""
    mats = list(FAR_PIVOTS.values())
    for n in (2, 3, 4, 5, 8, 13, 20, 30, 40):
        flip = np.ones(n)
        flip[0] = -1.0
        g = random_sl(rng, n)
        tri = np.triu(rng.standard_normal((n, n)))
        tri[np.diag_indices(n)] = rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.5, 2.0, size=n)
        mats += [g, g * flip, np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], size=n),
                 tri, tri.T.copy(), 2.0 ** (1.0 / n) * g]
        if n <= 20:
            skewed = column_skewed_sl(rng, n, 1e10, 1e11)
            mats += [skewed, skewed * flip]
    return mats


def test_householder_det_has_the_exact_sign_within_the_cap():
    rng = np.random.default_rng(8700)
    taus_zero = 0
    for g in det_corpus(rng):
        h, tau = np.linalg.qr(g, mode="raw")
        d = iwasawa._householder_det(np.diagonal(h).tolist(), tau.tolist())
        exact = exact_det(g)
        assert (d > 0) == (exact > 0)
        assert abs(Fraction(d) - exact) <= householder_cap(g)
        taus_zero += not tau.any()
    # the upper triangular inputs take the identity for every reflector
    assert taus_zero >= 9


@pytest.mark.parametrize("g, d", [
    (np.diag([1.0, -1.0]), -1.0),
    ([[0.0, 1.0], [1.0, 0.0]], -1.0),
    (np.eye(3)[::-1], -1.0),
    (np.diag([2.0, 1.0]), 2.0),
])
def test_det_refusal_prints_a_plain_float(g, d):
    message = f"det(g) = {d!r}, expected 1 within 1e-09"
    for call in (decompose, siegel_reduce, lambda g: membership_excess(g, MINIMAL_PARAMS)):
        with pytest.raises(NotUnimodularError) as exc:
            call(g)
        assert str(exc.value) == message


def guard_outcome(check, g):
    """(type, message) of the error ``check(g)`` raises, or None."""
    try:
        check(g)
    except (NotUnimodularError, NonInvertibleError) as exc:
        return type(exc), str(exc)
    return None


def guard_corpus(rng, n):
    """SL(n,R) elements with cond on both sides of COND_MAX (1e11 to 1e13)
    and determinants on both sides of 1 +- DET_TOL."""
    mats = [column_skewed_sl(rng, n, lo, 10.0 * lo) for lo in (1e11, 1e11, 1e12, 1e12)]
    for rel in (-4.0, -0.5, 0.5, 4.0):
        g = random_sl(rng, n)
        g[:, 0] *= 1.0 + rel * iwasawa.DET_TOL
        mats.append(g)
    mats.append(random_sl(rng, n))
    return mats


@pytest.mark.parametrize("n", range(2, 9))
def test_guard_decides_as_the_det_and_cond_loop(n):
    rng = np.random.default_rng(8800 + n)
    mats = guard_corpus(rng, n)
    outcomes = [reference_guard([g]) for g in mats]
    assert {o and o[0] for o in outcomes} == {None, NotUnimodularError, NonInvertibleError}
    for g, expected in zip(mats, outcomes):
        assert guard_outcome(_check_group_element, g) == expected
        # the reduction checks g on the QR of its presorted copy
        assert guard_outcome(siegel_reduce, g) == expected
    # a stack raises the error of its first failing matrix, det before cond
    excess = lambda stack: membership_excess(stack, MINIMAL_PARAMS)
    for _ in range(12):
        stack = np.array([mats[i] for i in rng.permutation(len(mats))[:4]])
        expected = reference_guard(stack)
        assert guard_outcome(_check_group_element, stack) == expected
        assert guard_outcome(excess, stack) == expected


@pytest.mark.parametrize("name", list(FAR_PIVOTS))
def test_guard_decides_as_the_det_and_cond_loop_where_pivot_products_leave_the_range(name):
    # a running product of the pivots would read det 0 or inf for the
    # n = 130 matrices and 0.99998887 for the det 1 one of n = 4, which the
    # determinant check would refuse before the condition check
    g = FAR_PIVOTS[name]
    with np.errstate(over="ignore"):
        expected = reference_guard([g])
    if g.shape[0] == 4:
        assert expected[0] is (NonInvertibleError if "det 1," in name else NotUnimodularError)
    else:
        assert (expected is None) == ("det 1," in name)
    excess = lambda g: membership_excess(g, MINIMAL_PARAMS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (_check_group_element, decompose, excess, siegel_reduce):
            assert guard_outcome(call, g) == expected
    if expected is None:
        res = siegel_reduce(g)
        assert res.status == "reduced" and res.iterations == 0


def test_guard_takes_exactly_singular_input_without_warning(monkeypatch):
    good = np.eye(3)
    singular = np.diag([1.0, 1.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # det is checked first, also when the singular matrix is one of a stack
        with pytest.raises(NotUnimodularError):
            _check_group_element(singular)
        with pytest.raises(NotUnimodularError):
            membership_excess(np.array([good, singular, good]), MINIMAL_PARAMS)
        # with the det check lifted, s[-1] = 0 gives an infinite condition
        monkeypatch.setattr(iwasawa, "DET_TOL", math.inf)
        with pytest.raises(NonInvertibleError, match="inf"):
            _check_group_element(singular)
        with pytest.raises(NonInvertibleError, match="inf"):
            _check_group_element(np.array([good, singular]))


def svd_inputs(monkeypatch):
    """Record the input of every ``np.linalg.svd`` call from here on; returns
    the list the inputs are appended to."""
    seen = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        seen.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return seen


def clearance_corpus(rng, n):
    """SL(n,R) elements with their columns scaled apart (det kept) to cond in
    [10**e, 10**(e + 0.5)], e = 8, 8.5, ..., 12.5: both sides of the
    SVD-free clearance and of COND_MAX."""
    return [column_skewed_sl(rng, n, 10.0**e, 10.0 ** (e + 0.5)) for e in np.arange(8.0, 13.0, 0.5)]


def test_guard_clears_without_svd_only_what_the_svd_passes(monkeypatch):
    rng = np.random.default_rng(8900)
    # the largest and smallest column norm at most 10**12 apart (10**+-6)
    mats = [
        g for n in range(2, 9) for _ in range(3) for g in clearance_corpus(rng, n)
        if np.ptp(np.log10((g * g).sum(axis=0))) <= 24.0
    ]
    expected = [reference_guard([g]) for g in mats]
    seen = svd_inputs(monkeypatch)
    cleared = []
    for g, exp in zip(mats, expected):
        seen.clear()
        assert guard_outcome(_check_group_element, g) == exp
        assert len(seen) <= 1
        cleared.append(not seen)
    kinds = {(exp and exp[0], c) for exp, c in zip(expected, cleared)}
    # a cleared matrix is one the singular values pass, and the corpus holds
    # matrices the bound cannot clear on both sides of COND_MAX
    assert kinds == {(None, True), (None, False), (NonInvertibleError, False)}


def test_guard_does_not_clear_an_underflowed_or_overflowed_norm_product(monkeypatch):
    # cond 1e200: prod(c) underflows to 0; cond 1e320: a square overflows
    under = np.diag([1e-100, 1e-100, 1e100, 1e100])
    over = np.diag([1e-160, 1e160])
    with np.errstate(over="ignore"):
        expected = [reference_guard([g]) for g in (under, over)]
    assert expected[1] == (NonInvertibleError, "condition number inf exceeds 1.0e+12")
    seen = svd_inputs(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for g, exp in zip((under, over), expected):
            assert exp[0] is NonInvertibleError
            assert guard_outcome(_check_group_element, g) == exp
            assert guard_outcome(decompose, g) == exp
            assert guard_outcome(siegel_reduce, g) == exp
    assert len(seen) == 6


def test_guard_does_not_trust_a_norm_product_that_went_subnormal_and_back():
    # n = 128 squared column norms whose running product sinks to the least
    # subnormal, loses the factors 1.49 there and comes back: the product
    # reads 6.7e7 for 1.95e11, and the bound with it, 4.4e10, would clear a
    # matrix whose true bound is 1.0e12; the spread of the norms refuses it
    n = 128
    norms = [2.0 ** (-1074 / 53)] * 53 + [1.49] * 20 + [2.0**20] * 55
    assert math.prod(norms) < 1e8 < 1e11 < math.prod(map(Fraction, norms))
    g = np.eye(n)
    g[0, 0], g[1, 1] = 10.0**6.5, 10.0**-6.5
    with pytest.raises(NonInvertibleError, match="condition number"):
        iwasawa._check_factored(g[None], [[1.0] * n], [[0.0] * n], [norms])


def stack_pool(rng, n):
    """Matrices of four kinds: cleared without the SVD, passed by it, failed
    by it, and failing the determinant check."""
    det_fail = random_sl(rng, n)
    det_fail[:, 0] *= 1.0 + 4.0 * iwasawa.DET_TOL
    pool = {
        "cleared": random_sl(rng, n),
        "passed": column_skewed_sl(rng, n, 1e11, 10.0**11.5),
        "cond_fail": column_skewed_sl(rng, n, 2e12, 1e13),
        "det_fail": det_fail,
    }
    assert reference_guard([pool["passed"]]) is None
    assert reference_guard([pool["cond_fail"]])[0] is NonInvertibleError
    return pool


@pytest.mark.parametrize("n", [2, 4, 8])
def test_stack_guard_takes_one_svd_of_the_unsure_before_the_first_bad_det(n, monkeypatch):
    rng = np.random.default_rng(8950 + n)
    pool = stack_pool(rng, n)
    kinds = list(pool)
    layouts = [
        # the first failing matrix fails its det and takes no SVD, and
        # nothing after it is checked
        ["cleared", "det_fail", "cond_fail", "passed"],
        # the first failing matrix is SVD-checked, in a sub-stack without
        # the cleared one, before the det failure behind it
        ["cleared", "passed", "cond_fail", "det_fail"],
        ["passed", "cleared", "det_fail", "cond_fail"],
        ["cleared", "passed", "cleared", "cond_fail", "passed", "det_fail", "cond_fail"],
        ["cleared", "passed", "cleared"],
    ] + [[kinds[i] for i in rng.integers(0, 4, size=5)] for _ in range(24)]
    expected = [reference_guard([pool[k] for k in layout]) for layout in layouts]
    seen = svd_inputs(monkeypatch)
    excess = lambda stack: membership_excess(stack, MINIMAL_PARAMS)
    for layout, exp in zip(layouts, expected):
        stack = np.array([pool[k] for k in layout])
        head = layout[: layout.index("det_fail")] if "det_fail" in layout else layout
        unsure = [pool[k] for k in head if k != "cleared"]
        for check in (_check_group_element, excess):
            seen.clear()
            assert guard_outcome(check, stack) == exp
            if unsure:
                assert len(seen) == 1 and np.array_equal(seen[0], unsure)
            else:
                assert seen == []


def test_reduction_corpus_takes_no_svd(monkeypatch):
    # the plain and column-skewed (cond <= 1e7) inputs of the reduction tests
    rng = np.random.default_rng(8990)
    mats = [
        g for n in range(2, 9)
        for g in [random_sl(rng, n) for _ in range(12)]
        + [column_skewed_sl(rng, n, 1e5, 1e7) for _ in range(12)]
    ]
    seen = svd_inputs(monkeypatch)
    for g in mats:
        siegel_reduce(g)
        decompose(g)
    for n in range(2, 9):
        membership_excess(np.array([g for g in mats if g.shape[0] == n]), MINIMAL_PARAMS)
    assert seen == []


def test_guard_clears_gaussian_sl_at_n_20_and_30_without_svd(monkeypatch):
    # the Householder determinant has no 2**n growth, so its cap still holds
    # at these n (measured on 100 Gaussian SL(n): 100 at n = 20, 99 at
    # n = 30; an LU cap with 2**n clears 2 and 0 of them)
    rng = np.random.default_rng(9000)
    mats = {n: np.array([random_sl(rng, n) for _ in range(12)]) for n in (20, 30)}
    seen = svd_inputs(monkeypatch)
    for stack in mats.values():
        for g in stack:
            decompose(g)
            membership_excess(g, MINIMAL_PARAMS)
        membership_excess(stack, MINIMAL_PARAMS)
    assert seen == []


def test_one_factorization_per_checked_basis(monkeypatch):
    # the guard reads its determinant from the QR that membership reads its
    # coordinates from; decompose adds its complete QR, and no LU is taken
    qr_inputs = []
    qr = np.linalg.qr

    def recording(a, *args, **kwargs):
        qr_inputs.append(np.array(a))
        return qr(a, *args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("np.linalg.det called")

    rng = np.random.default_rng(9100)
    stacks = [np.array([random_sl(rng, n) for _ in range(4)]) for n in (2, 5, 8)]
    monkeypatch.setattr(np.linalg, "qr", recording)
    monkeypatch.setattr(np.linalg, "det", refused)
    for stack in stacks:
        for call, calls in [
            (lambda: membership_excess(stack, MINIMAL_PARAMS), 1),
            (lambda: membership_excess(stack[0], MINIMAL_PARAMS), 1),
            (lambda: siegel_membership(stack[0], MINIMAL_PARAMS, 1e-9), 1),
            (lambda: decompose(stack[0]), 2),
        ]:
            qr_inputs.clear()
            call()
            assert len(qr_inputs) == calls
    # the excess read from the guard's factor is the unchecked excess
    assert membership_excess(stack, MINIMAL_PARAMS).tolist() == (
        membership_excess(stack, MINIMAL_PARAMS, check=False).tolist()
    )


#: real matrices numpy would misread: a complex entry (its imaginary part
#: dropped with a warning), a string (parsed as a number), ragged rows
_NOT_REAL = {
    "complex": [[1 + 5j, 0.0], [0.0, 1.0]],
    "complex array": np.eye(2, dtype=complex),
    "string": [["2", "0"], ["0", "0.5"]],
    "ragged": [[1.0, 0.0], [0.0]],
}


@pytest.mark.parametrize("call", [
    lambda g: siegel_reduce(g),
    lambda g: decompose(g),
    lambda g: membership_excess(g, MINIMAL_PARAMS),
    lambda g: membership_excess([g, g], MINIMAL_PARAMS),
    lambda g: membership_excess(g, MINIMAL_PARAMS, check=False),
    lambda g: as_square_matrix(g),
    lambda g: as_matrix_stack(g),
    lambda g: as_matrix_stack([g, g]),
], ids=["siegel_reduce", "decompose", "membership_excess", "membership_stack", "unchecked",
        "as_square_matrix", "as_matrix_stack", "as_matrix_stack_of_two"])
@pytest.mark.parametrize("kind", list(_NOT_REAL))
def test_matrix_entries_must_be_real_numbers(call, kind):
    with pytest.raises(InvalidArgumentError):
        call(_NOT_REAL[kind])


#: real arrays both matrix readers refuse by their one shape and entry rule
_MALFORMED = {
    "scalar": 1.0,
    "vector": [1.0, 1.0],
    "not square": np.ones((2, 3)),
    "one by one": [[1.0]],
    "nan": [[math.nan, 0.0], [0.0, 1.0]],
    "inf": [[1.0, math.inf], [0.0, 1.0]],
    "stack not square": np.ones((2, 2, 3)),
    "stack of one by one": np.ones((2, 1, 1)),
    "stack with nan": np.array([np.eye(2), [[1.0, math.nan], [0.0, 1.0]]]),
    "four axes": np.ones((1, 2, 2, 2)),
}


@pytest.mark.parametrize("kind", list(_MALFORMED))
def test_both_matrix_readers_hold_one_rule(kind):
    g = _MALFORMED[kind]
    with pytest.raises(InvalidArgumentError):
        as_matrix_stack(g)
    with pytest.raises(InvalidArgumentError):
        as_square_matrix(g)


def test_each_membership_call_reads_and_checks_its_matrix_once(monkeypatch):
    # siegel_membership and membership_excess convert and check their matrix
    # once, not once per layer they pass it through
    calls = {"_real_array": 0, "_square_matrices": 0}
    for name in calls:
        def counted(*args, _f=getattr(iwasawa, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(iwasawa, name, counted)
    g = [[1.0, 0.4], [0.0, 1.0]]
    assert siegel_membership(g, MINIMAL_PARAMS, 1e-9) == "inside"
    assert calls == {"_real_array": 1, "_square_matrices": 1}
    for arg in (g, [g, g]):
        calls.update(dict.fromkeys(calls, 0))
        membership_excess(arg, MINIMAL_PARAMS)
        assert calls["_square_matrices"] == 1


def test_ragged_stack_is_refused():
    with pytest.raises(InvalidArgumentError):
        membership_excess([np.eye(2), np.eye(3)], MINIMAL_PARAMS)


class _SubArray(np.ndarray):
    """An ndarray subclass, which the validation returns as a plain array."""


def test_real_inputs_of_any_numeric_type_are_read():
    g = np.diag([2.0, 0.5])
    # a float array is used as it is, without a copy
    assert as_square_matrix(g) is g
    stack = g[None]
    assert as_matrix_stack(stack) is stack
    for same in ([[2, 0], [0, 0.5]], g.astype(np.float32), g.view(_SubArray),
                 [[Fraction(2), 0], [0, Fraction(1, 2)]]):
        assert type(as_square_matrix(same)) is np.ndarray
        assert np.array_equal(as_square_matrix(same), g)
    assert np.array_equal(as_square_matrix([[True, False], [False, True]]), np.eye(2))


#: every public function that takes a dimension, a size or a height, called
#: with a float, a bool, a string or an integer below its least value
_OUT_OF_DOMAIN = [
    'volumes.vol_so(2.5)',
    'volumes.vol_quotient(3.0)',
    'volumes.ratio_C(3.0)',
    'volumes.harder_volume(2.5)',
    'intersections.count_bounds(2.5)',
    'volumes.growth_table(5.5)',
    'intersections.enumerate_intersections(2.0)',
    'haar.sample_haar_so_batch(2.5, 1, RNG)',
    'haar.sample_siegel_block(2.0, MINIMAL_PARAMS, [0.1], RNG)',
    'volumes.vol_so(True)',
    'volumes.ratio_C_display(1)',
    'volumes.normalization_ratio_display(1)',
    'intersections.log_height_bound(2.5)',
    'intersections.enumerate_intersections(2, 0, max_height=-1)',
    'intersections.enumerate_intersections(2, 0, max_height=1.5)',
    'haar.sample_haar_so_batch(3, -1, RNG)',
    'volumes.vol_so(0)',
    'volumes.signed_perm_order(1.5)',
    'volumes.vol_siegel(1)',
    'volumes.vol_quotient_rightmost(2.0)',
    'volumes.vol_symmetric_space(np.float64(3.0))',
    'volumes.harder_tau(2.5)',
    'volumes.normalization_ratio(1)',
    'volumes.compare_quotient_forms(1)',
    'volumes.compare_ratio_forms(2.5)',
    'volumes.compare_normalization_forms("3")',
    'volumes.growth_table(1)',
    'volumes.growth_table(2001)',
    'volumes.zeta(2.0)',
    'intersections.height_bound(1)',
    'intersections.height_bound_variants(2.5)',
    'intersections.sl_candidates(2.0, 1)',
    'intersections.sl_candidates(2, -1)',
    'haar.sample_haar_so_batch(1, 1, RNG)',
    'haar.sample_siegel_block(True, MINIMAL_PARAMS, [0.1], RNG)',
    'haar.siegel_density_exponents(2.5)',
    'haar.a_integral_quadrature(1, 1.0)',
    'haar.a_integral_mc(3, 1.0, 1, RNG)',
]


#: every real argument outside the witness search and the tolerance of its
#: inequality chain, called with a bool, a string, a complex number or an
#: int beyond the float range; every vector of reals, called with strings
_NOT_A_REAL_NUMBER = [
    'haar.a_integral_quadrature(2, True)',
    'haar.a_integral_quadrature(2, "1.0")',
    'haar.a_integral_quadrature(2, 1j)',
    'haar.a_integral_quadrature(2, 10**400)',
    'haar.a_integral_mc(3, True, 10, RNG)',
    'haar.a_integral_mc(3, "1.0", 10, RNG)',
    'haar.a_integral_mc(3, 1j, 10, RNG)',
    'haar.a_integral_mc(3, 10**400, 10, RNG)',
    'haar.a_integral_mc(3, 2.0, 10, RNG, b_min=True)',
    'haar.a_integral_mc(3, 2.0, 10, RNG, b_min="0.1")',
    'haar.a_integral_mc(3, 2.0, 10, RNG, b_min=0.1j)',
    'iwasawa.siegel_membership(np.eye(2), MINIMAL_PARAMS, True)',
    'iwasawa.siegel_membership(np.eye(2), MINIMAL_PARAMS, "0")',
    'iwasawa.siegel_membership(np.eye(2), MINIMAL_PARAMS, 1e-9j)',
    'intersections.lemma_filter_chain(iwasawa.UnimodularIntMatrix([[1, 1], [0, 1]]), np.eye(2),'
    ' membership_tol=True)',
    'intersections.lemma_filter_chain(iwasawa.UnimodularIntMatrix([[1, 1], [0, 1]]), np.eye(2),'
    ' membership_tol="0")',
    'haar.conjugation_jacobian(["2", "0.5"])',
    'haar.siegel_density(["2", "0.5"])',
    'haar.sample_siegel_block(2, MINIMAL_PARAMS, ["0.1"], RNG)',
]


def _eval_in_package(call):
    return eval(call, {"haar": haar, "intersections": intersections, "iwasawa": iwasawa,
                       "volumes": volumes, "np": np, "MINIMAL_PARAMS": MINIMAL_PARAMS,
                       "RNG": haar.RngStream(0)})


@pytest.mark.parametrize("call", _OUT_OF_DOMAIN)
def test_every_dimension_size_and_height_takes_the_one_input_rule(call):
    with pytest.raises(InvalidArgumentError):
        _eval_in_package(call)


@pytest.mark.parametrize("call", _NOT_A_REAL_NUMBER)
def test_every_real_argument_takes_the_real_number_rule(call):
    with pytest.raises(InvalidArgumentError):
        _eval_in_package(call)


def test_monte_carlo_range_rule_is_unchanged():
    # a Fraction below t that rounds to t is out of range too: it once raised
    # a bare ValueError from log(0)
    for b_min in (0.0, -0.1, 2.0, 3, math.nan, Fraction(2) - Fraction(1, 10**30)):
        with pytest.raises(InvalidRangeError):
            haar.a_integral_mc(3, 2.0, 10, haar.RngStream(0), b_min=b_min)
    # a real t and b_min of any numeric type are read, and the report holds
    # b_min as a float
    for t, b_min in ((2, Fraction(1, 4)), (np.float64(2.0), np.float32(0.25)), (Fraction(2), 1)):
        report = haar.a_integral_mc(3, t, 10, haar.RngStream(0), b_min=b_min)
        assert json.loads(json.dumps(report.to_json_dict()))["b_min"] == float(b_min)
