import math
import re
from fractions import Fraction

import numpy as np
import pytest

from siegel import iwasawa, reduction
from siegel.errors import InvalidArgumentError, NonInvertibleError, NotUnimodularError
from siegel.iwasawa import (
    MINIMAL_PARAMS,
    SiegelParams,
    UnimodularIntMatrix,
    _coordinate_lists,
    _pivot_moduli,
    _siegel_coordinates,
    _unit_rows,
    b_from_a,
    decompose,
    siegel_membership,
    unit_upper_stack,
)
from siegel.reduction import (
    STATUS_BUDGET_EXHAUSTED,
    STATUS_REDUCED,
    _exact_float,
    _size_reduce,
    _sweep_due,
    log_potential,
    siegel_reduce,
)

from conftest import column_skewed_sl, exact_siegel_member, random_sl

P = MINIMAL_PARAMS


def classical_plane_reduction(x, y, max_steps=200):
    """Textbook reduction of x + iy: recenter the real part, invert while
    the modulus is below one.  Independent endpoint oracle for n = 2."""
    for _ in range(max_steps):
        x -= round(x)
        if x * x + y * y < 1.0:
            d = x * x + y * y
            x, y = -x / d, y / d
        else:
            return x, y
    raise AssertionError("plane reduction did not terminate")


def test_already_inside_is_untouched():
    res = siegel_reduce(np.eye(3))
    assert res.status == STATUS_REDUCED
    assert res.iterations == 0
    assert res.gamma.entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert np.allclose(res.sigma, np.eye(3))


def test_reduction_takes_no_siegel_parameters():
    # size reduction always rounds to |u| <= 1/2, so the reduction can only
    # promise the canonical Siegel set; it accepts no other
    with pytest.raises(TypeError):
        siegel_reduce([[1.0, 0.45], [0.0, 1.0]], p=SiegelParams(1.2, 0.3))


def test_diagonal_example_with_plane_oracle():
    g = np.diag([2.0, 0.5])
    res = siegel_reduce(g)
    assert res.status == STATUS_REDUCED
    assert np.max(np.abs(res.sigma @ res.gamma.to_array() - g)) <= 1e-9
    assert siegel_membership(res.sigma, P, 0.0) in ("inside", "boundary")
    f0 = decompose(g)
    x, y = classical_plane_reduction(float(f0.u[0, 1]), 1.0 / float(f0.b[0]))
    f = decompose(res.sigma)
    assert f.b[0] <= P.t
    assert math.isclose(f.b[0], 1.0 / y, rel_tol=1e-9)


def test_shear_only_needs_size_reduction():
    g = unit_upper_stack([7.3], 2)
    res = siegel_reduce(g)
    assert res.status == STATUS_REDUCED
    assert res.iterations == 0  # no exchange, only shears
    assert siegel_membership(res.sigma, P, 0.0) in ("inside", "boundary")


def test_potential_never_increases():
    rng = np.random.default_rng(4)
    for n in (2, 3, 4):
        for _ in range(30):
            trace = []
            siegel_reduce(random_sl(rng, n), potential_trace=trace)
            assert all(
                trace[i + 1] <= trace[i] + 1e-9 for i in range(len(trace) - 1)
            )


def test_exchange_strictly_decreases_potential():
    # the columns are already in norm order, so the presort leaves an exchange
    g = np.diag([4.0, 0.25]) @ np.array([[1.0, 2.9], [0.0, 1.0]])
    trace = []
    res = siegel_reduce(g, potential_trace=trace)
    assert res.iterations >= 1
    assert trace[-1] < trace[0] - 1e-9


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_seeded_corpus_reduces(n):
    rng = np.random.default_rng(1000 + n)
    for _ in range(400):
        g = random_sl(rng, n)
        res = siegel_reduce(g)
        assert res.status == STATUS_REDUCED
        assert res.iterations <= 10 * n * n
        assert siegel_membership(res.sigma, P, 1e-9) in ("inside", "boundary")
        assert np.max(np.abs(res.sigma @ res.gamma.to_array() - g)) <= 1e-9
        assert res.gamma.det() == 1  # exact, by construction


def test_budget_exhaustion_is_reported():
    g = np.diag([8.0, 0.125]) @ np.array([[1.0, 2.9], [0.0, 1.0]])
    res = siegel_reduce(g, max_iter=0)
    assert res.status == STATUS_BUDGET_EXHAUSTED
    # the factorization invariant holds even on early exit
    assert np.max(np.abs(res.sigma @ res.gamma.to_array() - g)) <= 1e-9


def test_non_unimodular_rejected():
    with pytest.raises(NotUnimodularError):
        siegel_reduce(np.diag([2.0, 1.0]))


def test_json_payload_shape():
    doc = siegel_reduce(np.diag([2.0, 0.5])).to_json_dict()
    assert set(doc) == {"gamma", "iterations", "status", "b", "u_max"}
    assert doc["status"] == "reduced"
    assert doc["u_max"] <= 0.5


def test_log_potential_definition():
    a = np.array([2.0, 1.0, 0.5])
    # weights n - i over 1-based i: 2, 1, 0
    assert math.isclose(log_potential(a), 2 * math.log(2.0) + math.log(1.0), rel_tol=1e-12)


def column_size_reduction(u):
    """Reference size reduction one scalar at a time, column by column:
    j ascending, i descending, col_j -= round(u[i, j]) col_i.  Returns the
    integer matrix of all the shears and the reduced u."""
    n = u.shape[0]
    uu = u.copy()
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    for j in range(1, n):
        for i in range(j - 1, -1, -1):
            r = int(np.round(uu[i, j]))
            uu[:, j] -= r * uu[:, i]
            for row in t:
                row[j] -= r * row[i]
    return t, uu


def array_row_sweeps(u):
    """The same row sweeps in whole-array numpy steps (u only): every
    product and difference is one IEEE operation either way, so the floats
    must agree bit for bit."""
    uu = u.copy()
    for i in range(uu.shape[0] - 2, -1, -1):
        r = np.round(uu[i, i + 1:])
        uu[: i + 1, i + 1:] -= np.outer(uu[: i + 1, i], r)
    return uu


def identity_columns(n):
    """The identity as a list of integer columns (or rows)."""
    return [[int(r == c) for r in range(n)] for c in range(n)]


@pytest.mark.parametrize("n", range(2, 9))
def test_row_sweeps_equal_column_by_column_reduction(n):
    rng = np.random.default_rng(700 + n)
    strict = np.triu_indices(n, k=1)
    for _ in range(50):
        u = np.eye(n)
        u[strict] = rng.uniform(-20.0, 20.0, size=strict[0].size)
        t, reduced = column_size_reduction(u)
        m = identity_columns(n)
        m_inv = identity_columns(n)
        swept = u.tolist()
        _size_reduce(swept, m, m_inv)
        assert [list(row) for row in zip(*m)] == t
        assert [[sum(x * y for x, y in zip(row, col)) for col in m] for row in m_inv] == (
            identity_columns(n)
        )
        assert np.max(np.abs(np.array(swept)[strict])) <= 0.5
        assert np.array_equal(np.array(swept), array_row_sweeps(u))
        assert np.max(np.abs(reduced[strict])) <= 0.5


def exact_inverse(rows):
    """Inverse of an integer matrix of determinant +1, by exact elimination."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    for c in range(n):
        p = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                aug[r] = [x - aug[r][c] * y for x, y in zip(aug[r], aug[c])]
    return [[int(x) for x in row[n:]] for row in aug]


@pytest.mark.parametrize("n", range(2, 9))
def test_ill_conditioned_inputs_reduce(n):
    rng = np.random.default_rng(7100 + n)
    eps = np.finfo(float).eps
    for _ in range(20):
        g = column_skewed_sl(rng, n)
        trace = []
        res = siegel_reduce(g, potential_trace=trace)
        assert res.status == STATUS_REDUCED
        gamma = res.gamma.to_array()
        m = np.array(exact_inverse(res.gamma.entries), dtype=float)
        bound = 16 * n * eps * (np.abs(g) @ np.abs(m)) @ np.abs(gamma)
        assert np.all(np.abs(res.sigma @ gamma - g) <= bound)
        assert np.all(np.diff(trace) <= 0)


def test_integer_beyond_float_precision_raises(monkeypatch):
    # with the condition guard lifted, one shear by 2**60 is exact in the
    # integers but not in a float copy, so no sigma may be returned
    monkeypatch.setattr(iwasawa, "COND_MAX", math.inf)
    with pytest.raises(NonInvertibleError):
        siegel_reduce([[1.0, 2.0**60], [0.0, 1.0]])


def test_largest_exact_integer_is_held(monkeypatch):
    # one shear by 2**53 - 1 still has an exact float copy, so the reduction
    # succeeds and sigma @ gamma gives the input back; 2**53 does not
    monkeypatch.setattr(iwasawa, "COND_MAX", math.inf)
    g = np.array([[1.0, 2.0**53 - 1], [0.0, 1.0]])
    res = siegel_reduce(g)
    assert res.status == STATUS_REDUCED
    assert res.gamma.entries == ((1, 2**53 - 1), (0, 1))
    assert np.array_equal(res.sigma @ res.gamma.to_array(), g)
    with pytest.raises(NonInvertibleError):
        siegel_reduce([[1.0, 2.0**53], [0.0, 1.0]])


@pytest.mark.parametrize("max_iter", [-3, -1, 2.0, 1.5, True, "4"])
def test_max_iter_must_be_a_nonnegative_integer(max_iter):
    with pytest.raises(InvalidArgumentError):
        siegel_reduce(np.diag([4.0, 0.25]), max_iter=max_iter)


def assert_presorted(g):
    """``reduction._presorted(g)`` gives a signed permutation ``m`` of
    determinant +1, with ``first`` = g @ m in non-decreasing order of
    squared column norm, and the rows of the R of the QR of ``first``,
    bit for bit; returns the permutation order."""
    m, rows = reduction._presorted(g)
    order = [next(j for j, x in enumerate(col) if x) for col in m]
    assert sorted(order) == list(range(len(m)))
    assert all(sum(map(abs, col)) == 1 for col in m)
    assert UnimodularIntMatrix([list(row) for row in zip(*m)]).det() == 1
    first = g @ _exact_float(m)
    assert np.all(np.diff((first * first).sum(axis=0)) >= 0.0)
    assert (_pivot_moduli(rows), _unit_rows(rows)) == _coordinate_lists(first)
    return order


def test_presort_orders_columns_by_norm_with_a_signed_permutation():
    # columns of squared norm 2, 1, 2: the tie keeps its order, and the one
    # transposition is odd, so the first column of the sorted copy is negated
    g = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert assert_presorted(g) == [1, 0, 2]
    m, _ = reduction._presorted(g)
    assert m == [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
    assert np.array_equal(g @ _exact_float(m), [[0.0, 1.0, 1.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    # equal norms everywhere: nothing moves, and the reduction leaves it
    swapped = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert assert_presorted(swapped) == [0, 1, 2]
    assert siegel_reduce(swapped).gamma.entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for n in range(2, 9):
        for g in reduction_corpus(n, 7900 + n):
            assert_presorted(g)


def test_refreshes_count_the_fresh_qrs():
    # no exchange: the first QR already shows the reduced basis
    assert siegel_reduce(unit_upper_stack([7.3] * 3, 3)).refreshes == 1
    # an exchange is carried, so a fresh QR has to confirm the end
    res = siegel_reduce(np.diag([4.0, 0.25]) @ np.array([[1.0, 2.9], [0.0, 1.0]]))
    assert res.iterations >= 1
    assert res.refreshes >= 2
    assert "refreshes" not in res.to_json_dict()


def fresh_qr_reduce(g, max_iter=None, p=P):
    """The reduction loop with one fresh R-only QR per round and a full
    sweep after it, from the same norm-ordered start: the reference the
    carried factor must reproduce.  Returns gamma, the exchange count, the
    status and sigma."""
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    if max_iter is None:
        max_iter = 10 * n * n
    m, _ = reduction._presorted(g)
    h = g @ _exact_float(m)
    m_inv = [col[:] for col in m]
    exchanges = 0
    while True:
        (a,), (u,) = _siegel_coordinates(h[None])
        _size_reduce(u.tolist(), m, m_inv)
        over = np.nonzero(b_from_a(a) > p.t)[0]
        if over.size == 0:
            status = STATUS_REDUCED
            break
        if exchanges >= max_iter:
            status = STATUS_BUDGET_EXHAUSTED
            break
        i = int(over[0])
        m[i], m[i + 1] = m[i + 1], [-x for x in m[i]]
        m_inv[i], m_inv[i + 1] = m_inv[i + 1], [-x for x in m_inv[i]]
        exchanges += 1
        h = g @ _exact_float(m)
    return UnimodularIntMatrix(m_inv), exchanges, status, g @ _exact_float(m)


def reduction_corpus(n, seed):
    """Plain, column-skewed to cond <= 1e7 and ill-conditioned (cond in
    [1e11, 1e12]) SL(n,R) elements, seeded."""
    rng = np.random.default_rng(seed)
    plain = [random_sl(rng, n) for _ in range(12)]
    skewed = [column_skewed_sl(rng, n, 1e5, 1e7) for _ in range(12)]
    ill = [column_skewed_sl(rng, n, 1e11, 1e12) for _ in range(6)]
    return plain + skewed + ill


def negated_columns(g, rng):
    """g with an even number of its columns negated (det kept), which flips
    the sign of their QR pivots."""
    flips = rng.permutation(g.shape[0])[: 2 * (g.shape[0] // 2)]
    h = g.copy()
    h[:, flips] *= -1.0
    return h


@pytest.mark.parametrize("n", range(2, 9))
def test_coordinate_lists_equal_the_stack_kernel(n):
    # the reduction's list reader and the stack kernel read the same LAPACK
    # factor; a, the strict upper u (+0.0, never -0.0), the exact unit
    # diagonal and the zero lower triangle must all agree bit for bit
    rng = np.random.default_rng(7700 + n)
    corpus = reduction_corpus(n, 7700 + n)
    mats = corpus + [negated_columns(g, rng) for g in corpus] + [-np.eye(n), np.eye(n)[::-1]]
    stack_a, stack_u = _siegel_coordinates(np.array(mats))
    for g, a_row, u_row in zip(mats, stack_a, stack_u):
        a, u = _coordinate_lists(g)
        assert np.array(a).tobytes() == a_row.tobytes()
        assert np.array(u).tobytes() == u_row.tobytes()
        zeros = np.array(u)[np.array(u) == 0.0]
        assert zeros.size >= n * (n - 1) // 2 and not np.any(np.signbit(zeros))
        assert all(type(x) is float for x in a)
        assert all(type(x) is float for row in u for x in row)


@pytest.mark.parametrize("g", [
    [[1.0, 1.0], [1.0, 1.0]],
    [[1.0, 0.0, 0.0], [0.0, 1e-13, 0.0], [0.0, 0.0, 1e13]],
    [[0.0, 0.0], [0.0, 1.0]],
])
def test_coordinate_lists_keep_the_pivot_guard(g):
    g = np.array(g)
    with pytest.raises(NonInvertibleError) as stacked:
        _siegel_coordinates(g[None])
    with pytest.raises(NonInvertibleError) as listed:
        _coordinate_lists(g)
    assert str(listed.value) == str(stacked.value)


@pytest.mark.parametrize("n", range(2, 9))
def test_carried_factor_equals_fresh_qr_per_round(n):
    for g in reduction_corpus(n, 7300 + n):
        res = siegel_reduce(g)
        gamma, iterations, status, sigma = fresh_qr_reduce(g)
        assert res.gamma.entries == gamma.entries
        assert res.iterations == iterations
        assert res.status == status
        assert res.sigma.tobytes() == sigma.tobytes()


@pytest.mark.parametrize("n", range(2, 9))
def test_every_budget_stops_where_the_fresh_qr_reference_stops(n):
    # between fresh QRs only the exchanged pair is sheared, so a budget can
    # run out while the carried u is only partly reduced
    for g in reduction_corpus(n, 7500 + n)[::3]:
        for k in range(siegel_reduce(g).iterations + 1):
            res = siegel_reduce(g, max_iter=k)
            gamma, iterations, status, sigma = fresh_qr_reduce(g, max_iter=k)
            assert res.gamma.entries == gamma.entries
            assert res.iterations == iterations
            assert res.status == status
            assert res.sigma.tobytes() == sigma.tobytes()


@pytest.mark.parametrize("n", range(2, 9))
def test_gamma_is_an_sl_n_z_element(n):
    # gamma is built without the public constructor's conversion and
    # determinant check; passing it through them must change nothing
    for g in reduction_corpus(n, 7600 + n):
        gamma = siegel_reduce(g).gamma
        assert type(gamma.entries) is tuple
        assert all(type(row) is tuple for row in gamma.entries)
        assert all(type(x) is int for row in gamma.entries for x in row)
        assert UnimodularIntMatrix(gamma.entries) == gamma


@pytest.mark.parametrize("n", [3, 5, 8])
def test_carried_potential_stays_on_the_fresh_one(n):
    # every budget k stops after k exchanges on a carried factor, so the last
    # reading must agree with a fresh QR of the returned sigma
    for g in reduction_corpus(n, 7400 + n)[::5]:
        for k in range(siegel_reduce(g).iterations + 1):
            trace = []
            res = siegel_reduce(g, max_iter=k, potential_trace=trace)
            assert len(trace) == k + 1
            (a,), _ = _siegel_coordinates(res.sigma[None])
            assert abs(trace[-1] - log_potential(a)) <= 1e-10


def test_exact_member_oracle_decides_the_boundary():
    # |u| = 1/2 exactly is a member (the set is closed), one ulp beyond is not
    assert exact_siegel_member(unit_upper_stack([0.5, -0.5, 0.25], 3))
    assert not exact_siegel_member(unit_upper_stack([0.5, np.nextafter(-0.5, -1.0), 0.25], 3))
    # b^2 <= 4/3 is decided exactly: the float next to 2/sqrt(3) on the
    # right side of the bound is a member, its neighbour beyond it is not
    t = 2.0 / math.sqrt(3.0)
    near = (np.nextafter(t, 0.0), t, np.nextafter(t, 2.0))
    inside = max(x for x in near if Fraction(x) ** 2 <= Fraction(4, 3))
    assert exact_siegel_member(np.diag([inside, 1.0]))
    assert not exact_siegel_member(np.diag([np.nextafter(inside, 2.0), 1.0]))


@pytest.mark.parametrize("n", range(2, 9))
def test_reduced_sigma_is_an_exact_member_mixed(n):
    # the reduce-mixed recipe: 144 per n, half column-skewed to cond in [1e5, 1e7]
    rng = np.random.default_rng(2600 + n)
    for k in range(144):
        g = column_skewed_sl(rng, n, 1e5, 1e7) if k % 2 else random_sl(rng, n)
        res = siegel_reduce(g)
        assert res.status == STATUS_REDUCED
        assert exact_siegel_member(res.sigma), g.tolist()


def test_reduced_sigma_is_an_exact_member_criterion_6_slice():
    # every 40th input of criterion 6 (its generator and seed 606, 10 000 per
    # n = 2..5), 250 per n
    rng = np.random.default_rng(606)
    for n in range(2, 6):
        for k in range(10_000):
            g = random_sl(rng, n)
            if k % 40 == 0:
                res = siegel_reduce(g)
                assert res.status == STATUS_REDUCED
                assert exact_siegel_member(res.sigma), g.tolist()


@pytest.mark.parametrize("n", range(2, 9))
def test_one_sweep_per_ending_qr_and_sigma_is_its_input(monkeypatch, n):
    # log every QR (with its input), float copy of m, test of an ending
    # factor, u built, sweep, shear and exchange of each call on the seeded
    # corpus, one letter each
    events = []

    def logged(name, f):
        def call(*args, **kwargs):
            events.append((name, args[0]))
            return f(*args, **kwargs)
        return call

    monkeypatch.setattr(np.linalg, "qr", logged("q", np.linalg.qr))
    for name, attr in [("f", "_exact_float"), ("d", "_sweep_due"), ("u", "_unit_rows"),
                       ("w", "_size_reduce"), ("s", "_shear"), ("x", "_exchange")]:
        monkeypatch.setattr(reduction, attr, logged(name, getattr(reduction, attr)))
    confirmed = quiet = 0
    for g in reduction_corpus(n, 7800 + n):
        events.clear()
        res = siegel_reduce(g)
        kinds = "".join(kind for kind, _ in events)
        qr_inputs = [x for kind, x in events if kind == "q"]
        assert len(qr_inputs) == res.refreshes
        # a QR that starts a run builds u, exchanges on it unswept (each
        # exchange shears at most its own pair), sweeps it once and copies m
        # for the next QR; the one that ends the call is tested, and builds
        # u and sweeps only when the sweep shears
        assert re.fullmatch(r"q(u(xs?)+ws*fq)*d(uws+f|f)?", kinds), kinds
        swept = "u" in kinds[kinds.index("d"):]
        confirmed += res.refreshes > 1
        if res.refreshes > 1 and not swept:
            # the ending factor shears nothing: no float copy of m beyond the
            # ones the later QRs factor, and sigma is the last QR's input
            quiet += 1
            assert kinds.endswith("d")
            assert kinds.count("f") == res.refreshes - 1
            assert res.sigma is qr_inputs[-1]
        else:
            assert kinds.count("f") == res.refreshes
            assert all(res.sigma is not x for x in qr_inputs)
    # a confirming QR of the swept basis almost never needs a shear; on this
    # corpus it never does
    assert quiet == confirmed > 0


def test_sweep_test_reads_the_sweep_without_building_u():
    # pivots of both signs, some powers of 2 so that quotients land exactly
    # on +-1/2 and their neighbours; the test must say whether the sweep of
    # the u built from the same rows shears
    rng = np.random.default_rng(7950)
    half = [0.5, -0.5, np.nextafter(0.5, 1.0), np.nextafter(-0.5, -1.0),
            np.nextafter(0.5, 0.0), 1.5, 0.0, -0.0]
    outcomes = set()
    for _ in range(400):
        n = int(rng.integers(2, 9))
        pivots = rng.choice([-1.0, 1.0], size=n) * np.where(
            rng.random(n) < 0.5, 2.0 ** rng.integers(-3, 4, size=n), rng.uniform(0.1, 10.0, size=n)
        )
        rows = []
        for i, p in enumerate(pivots):
            quotients = np.where(rng.random(n) < 0.7, rng.choice(half, size=n),
                                 rng.uniform(-0.5, 0.5, size=n))
            rows.append([float(x) for x in rng.standard_normal(i)] + [float(p)]
                        + [float(q * p) for q in quotients[i + 1:]])
        m, m_inv = identity_columns(n), identity_columns(n)
        _size_reduce(_unit_rows(rows), m, m_inv)
        sheared = m != identity_columns(n)
        assert _sweep_due(rows) == sheared
        outcomes.add(sheared)
    assert outcomes == {True, False}


def test_reduction_takes_one_qr_per_basis_and_no_lu(monkeypatch):
    corpus = [g for n in range(2, 9) for g in reduction_corpus(n, 7850 + n)]
    calls = []
    qr = np.linalg.qr

    def counted(a, *args, **kwargs):
        calls.append(a)
        return qr(a, *args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("np.linalg.det called")

    monkeypatch.setattr(np.linalg, "qr", counted)
    monkeypatch.setattr(np.linalg, "det", refused)
    for g in corpus:
        calls.clear()
        res = siegel_reduce(g)
        assert len(calls) == res.refreshes
