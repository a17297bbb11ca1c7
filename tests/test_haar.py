import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegel.errors import (
    InvalidArgumentError,
    InvalidRangeError,
    NonPositiveEntryError,
    SiegelError,
    ToleranceNotMetError,
)
from siegel import haar
from siegel.haar import (
    RngStream,
    a_integral_mc,
    a_integral_quadrature,
    conjugation_jacobian,
    sample_haar_so_batch,
    sample_siegel_block,
    siegel_density,
)
from siegel.iwasawa import MINIMAL_PARAMS, unit_upper_stack

from conftest import SharedStream, a_integral_closed_form

T_MIN = MINIMAL_PARAMS.t


def conjugation_matrix_det(a):
    """Independent oracle: assemble the linear map u -> a u a^{-1} on the
    strict upper coordinates column by column and take the determinant."""
    a = np.asarray(a, dtype=float)
    n = a.size
    idx = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mat = np.zeros((len(idx), len(idx)))
    for col, (i, j) in enumerate(idx):
        e = np.zeros((n, n))
        e[i, j] = 1.0
        v = np.diag(a) @ e @ np.diag(1.0 / a)
        for row, pq in enumerate(idx):
            mat[row, col] = v[pq]
    return float(np.linalg.det(mat))


def test_jacobian_trivial_cases():
    assert conjugation_jacobian([1.0, 1.0, 1.0]) == 1.0
    assert math.isclose(conjugation_jacobian([2.0, 0.5]), 4.0, rel_tol=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_jacobian_matches_numeric_determinant(n, rng):
    for _ in range(100):
        x = rng.uniform(0.2, 4.0, n)
        a = x / np.prod(x) ** (1.0 / n)
        lhs = conjugation_jacobian(a)
        rhs = conjugation_matrix_det(a)
        assert abs(lhs - rhs) / abs(rhs) <= 1e-9


def test_jacobian_rejects_bad_input():
    with pytest.raises(NonPositiveEntryError):
        conjugation_jacobian([1.0, -1.0])
    with pytest.raises(InvalidArgumentError):
        conjugation_jacobian([2.0, 2.0])


@pytest.mark.parametrize("a", [[], [1.0], 1.0, [[1.0, 1.0], [1.0, 1.0]]])
def test_jacobian_takes_only_a_vector_of_length_two_or_more(a):
    # no product over pairs exists below n = 2, and a scalar or a matrix is
    # not a diagonal: each is refused by name, as siegel_density refuses b
    with pytest.raises(InvalidArgumentError):
        conjugation_jacobian(a)


def test_jacobian_refuses_a_value_outside_the_float_range():
    # the log is +-921 at n = 2: exp overflows one way and underflows the other
    for a in ([1e200, 1e-200], [1e-200, 1e200]):
        with pytest.raises(ToleranceNotMetError):
            conjugation_jacobian(a)
    assert conjugation_jacobian([2.0, 0.5]) == 4.0


def test_jacobian_refuses_a_value_outside_the_float_range_at_n_4():
    # the product of a is 1, but np.prod(a) overflows one way and underflows
    # to 0.0 the other; the jacobian itself is e^(+-3684)
    for a in ([1e200, 1e200, 1e-200, 1e-200], [1e-200, 1e-200, 1e200, 1e200]):
        with pytest.raises(ToleranceNotMetError):
            conjugation_jacobian(a)


def test_density_examples():
    assert siegel_density([0.37]) == 1.0  # exponent 1*(2-1)-1 = 0
    assert siegel_density([1.0, 1.0]) == 1.0
    assert math.isclose(siegel_density([2.0, 3.0]), 6.0, rel_tol=1e-14)
    with pytest.raises(NonPositiveEntryError):
        siegel_density([0.0, 1.0])
    with pytest.raises(ToleranceNotMetError):
        siegel_density([1e200, 1e200])  # overflows to inf


@pytest.mark.parametrize("b", [[[0.5, 0.7]], [[0.5], [0.7]], 0.5, [[1.0, 1.0], [1.0, 1.0]]])
def test_density_takes_only_a_vector(b):
    # by the rule of conjugation_jacobian: [[0.5, 0.7]] was flattened and
    # read as the n = 3 point (0.5, 0.7), and a scalar as an n = 2 point
    with pytest.raises(InvalidArgumentError, match="b must be a vector"):
        siegel_density(b)


@pytest.mark.parametrize("b, log_density", [
    ([1e100, 1e-150, 1e100], -115.13),  # a partial product underflows to 0.0
    ([1e200, 1e-200, 1e200], 460.52),  # a partial product overflows to inf
])
def test_density_in_range_is_exp_of_its_log(b, log_density):
    want = math.exp(np.log(b) @ haar.siegel_density_exponents(4))
    assert math.isclose(math.log(want), log_density, rel_tol=1e-4)
    assert math.isclose(siegel_density(b), want, rel_tol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=10**6))
def test_density_is_multiplicative_per_coordinate(n, seed):
    gen = np.random.default_rng(seed)
    b = np.exp(gen.uniform(-1.5, 1.5, n - 1))
    i = np.arange(1, n)
    expected = float(np.prod(b ** (i * (n - i) - 1)))
    assert math.isclose(siegel_density(b), expected, rel_tol=1e-12)


def test_haar_so_invariants():
    ks = sample_haar_so_batch(3, 400, RngStream(3))
    gram = np.einsum("sij,sik->sjk", ks, ks)
    assert np.max(np.abs(gram - np.eye(3))) <= 1e-10
    assert np.allclose(np.linalg.det(ks), 1.0, atol=1e-10)


def test_haar_so_determinism_is_bitwise():
    k1 = sample_haar_so_batch(5, 1, RngStream(7, 3))
    k2 = sample_haar_so_batch(5, 1, RngStream(7, 3))
    assert np.array_equal(k1, k2)
    k3 = sample_haar_so_batch(5, 1, RngStream(7, 4))
    assert not np.array_equal(k1, k3)


@pytest.mark.parametrize("keys", [(1.5,), (True,), ("1",), (np.float64(2.0),), (0, 1.0), (0, False)])
def test_rng_stream_keys_take_the_integer_rule(keys):
    with pytest.raises(InvalidArgumentError):
        RngStream(*keys)


@pytest.mark.parametrize("keys", [(2**64,), (-1,), (0, 2**64), (0, -1), (np.int64(-1),)])
def test_rng_stream_keys_outside_the_seed_words_are_refused(keys):
    # numpy seeds from 64-bit words: a key outside [0, 2**64) would be folded
    # onto one inside it, RngStream(2**64) drawing as RngStream(0)
    with pytest.raises(InvalidArgumentError, match=r"\[0, 2\*\*64\)"):
        RngStream(*keys)


def test_rng_stream_keys_span_the_seed_words():
    # the largest key is taken as it is, not folded onto another
    last = 2**64 - 1
    draw = RngStream(last, last).generator().random()
    assert draw == RngStream(np.uint64(last), last).generator().random()
    assert draw != RngStream(0, last).generator().random()


def test_rng_stream_keys_may_be_numpy_integers():
    stream = RngStream(np.int64(7), np.int32(3))
    assert (type(stream.seed), type(stream.stream_index)) == (int, int)
    assert stream == RngStream(7, 3)
    assert np.array_equal(
        sample_haar_so_batch(3, 1, stream), sample_haar_so_batch(3, 1, RngStream(7, 3))
    )


def test_haar_so_angle_is_uniform():
    # Kolmogorov-Smirnov on the rotation angle at n = 2, 1% critical value
    n_samples = 10**5
    ks = sample_haar_so_batch(2, n_samples, RngStream(2024))
    theta = np.mod(np.arctan2(ks[:, 1, 0], ks[:, 0, 0]), 2.0 * math.pi)
    u = np.sort(theta) / (2.0 * math.pi)
    i = np.arange(1, n_samples + 1)
    d_stat = max(np.max(i / n_samples - u), np.max(u - (i - 1) / n_samples))
    assert d_stat < 1.6276 / math.sqrt(n_samples)


def test_haar_so_entry_mean_is_centered():
    n_samples = 10**5
    ks = sample_haar_so_batch(2, n_samples, RngStream(77))
    # var(cos theta) = 1/2 for a uniform angle
    four_sigma = 4.0 * math.sqrt(0.5 / n_samples)
    assert abs(float(np.mean(ks[:, 0, 0]))) <= four_sigma


def test_sample_siegel_point_invariants():
    p = MINIMAL_PARAMS
    stream = SharedStream(RngStream(9).generator())
    for _ in range(200):
        pt = sample_siegel_block(3, p, [p.t / 16.0], stream)[0]
        assert np.all((pt.b > 0.0) & (pt.b <= p.t))
        assert np.max(np.abs(np.triu(pt.u, 1))) <= p.lam
        assert np.max(np.abs(pt.k.T @ pt.k - np.eye(3))) <= 1e-10
        assert math.isclose(
            pt.log_weight, math.log(siegel_density(pt.b) * float(np.prod(pt.b))),
            rel_tol=1e-12,
        )
    with pytest.raises(InvalidRangeError):
        sample_siegel_block(3, p, [2.0 * p.t], stream)


class CountingGenerator(np.random.Generator):
    """A generator that counts its calls of each drawing method and records
    the doubles of each ``random`` draw into an ``out`` array; ``seed`` is a
    PCG64 seed or the bit generator to draw from."""

    def __init__(self, seed):
        if not isinstance(seed, np.random.BitGenerator):
            seed = np.random.PCG64(seed)
        super().__init__(seed)
        self.calls = []
        self.random_doubles = []

    def random(self, *args, **kwargs):
        self.calls.append("random")
        self.random_doubles.append(kwargs["out"].size)
        return super().random(*args, **kwargs)

    def uniform(self, *args, **kwargs):
        self.calls.append("uniform")
        return super().uniform(*args, **kwargs)

    def standard_normal(self, *args, **kwargs):
        self.calls.append("standard_normal")
        return super().standard_normal(*args, **kwargs)


def test_block_of_one_is_a_point_draw():
    # one row draws b, then u, then its normals, as a single point always
    # has; the lows are the default b_min and the search's top band
    p = MINIMAL_PARAMS
    for n in (2, 3, 5):
        for lo in (p.t / 16.0, p.t / math.sqrt(2.0)):
            got = sample_siegel_block(n, p, [lo], RngStream(4, n))[0]
            gen = RngStream(4, n).generator()
            b = np.exp(gen.uniform(math.log(lo), math.log(p.t), size=n - 1))
            u_vals = gen.uniform(-p.lam, p.lam, size=n * (n - 1) // 2)
            k = sample_haar_so_batch(n, 1, SharedStream(gen))[0]
            for name, want in (("b", b), ("u", unit_upper_stack(u_vals, n)), ("k", k)):
                assert np.array_equal(getattr(got, name), want), (n, lo, name)


def test_block_draws_b_then_u_then_normals_as_whole_arrays():
    p = MINIMAL_PARAMS
    for n in (2, 3, 4, 5):
        lows = np.tile([p.t / 16.0, p.t / math.sqrt(2.0)], 19)[:37]
        block = sample_siegel_block(n, p, lows, RngStream(21, n))
        gen = RngStream(21, n).generator()
        log_b = gen.uniform(np.log(lows)[:, None], math.log(p.t), size=(37, n - 1))
        u_vals = gen.uniform(-p.lam, p.lam, size=(37, n * (n - 1) // 2))
        ks = sample_haar_so_batch(n, 37, SharedStream(gen))
        group = block.to_group_element()
        for i in range(37):
            got = block[i]
            assert np.array_equal(got.b, np.exp(log_b[i])), (n, i)
            assert np.array_equal(got.u, unit_upper_stack(u_vals[i], n)), (n, i)
            assert np.array_equal(got.k, ks[i]), (n, i)
            assert np.array_equal(group[i], got.to_group_element()), (n, i)
    with pytest.raises(InvalidRangeError):
        sample_siegel_block(3, p, [p.t / 16.0, p.t], RngStream(1))


@pytest.mark.parametrize("m", [1, 2, 16, 257])
def test_block_makes_three_generator_calls_whatever_its_size(m):
    gen = CountingGenerator(5)
    block = sample_siegel_block(3, MINIMAL_PARAMS, [0.1] * m, SharedStream(gen))
    assert block.b.shape == (m, 2)
    assert gen.calls == ["uniform", "uniform", "standard_normal"]


def test_sample_siegel_point_materializes_as_member():
    from siegel.iwasawa import membership_excess

    p = MINIMAL_PARAMS
    stream = SharedStream(RngStream(10).generator())
    for _ in range(50):
        pt = sample_siegel_block(3, p, [p.t / 16.0], stream)[0]
        assert membership_excess(pt.to_group_element(), p) <= 1e-9


@pytest.mark.parametrize("n", [20, 40])
def test_log_weight_is_finite_where_the_weight_underflows(n):
    p = MINIMAL_PARAMS
    pt = sample_siegel_block(n, p, [p.t / 16.0], RngStream(0))[0]
    with pytest.raises(ToleranceNotMetError):
        siegel_density(pt.b)  # the product form underflows to 0.0
    assert -math.inf < pt.log_weight < 0.0


def test_a_stack_computes_as_its_points():
    # group_elements broadcasts: one u against a stack of b and k
    p = MINIMAL_PARAMS
    points = sample_siegel_block(3, p, [p.t / 16.0] * 5, RngStream(12))
    one_u = haar.group_elements(points.b, points.u[0], points.k)
    for i in range(5):
        pt = points[i]
        assert np.array_equal(one_u[i], haar.group_elements(pt.b, points.u[0], pt.k))
        assert math.isclose(points.log_weight[i], pt.log_weight, rel_tol=1e-14)


def test_quadrature_examples():
    assert math.isclose(a_integral_quadrature(2, 1.0), 0.5, rel_tol=1e-12)
    assert math.isclose(a_integral_quadrature(3, T_MIN), 2.0 / 9.0, rel_tol=1e-10)
    assert math.isclose(a_integral_quadrature(4, 1.0), 1.0 / 72.0, rel_tol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("t", [1.0, T_MIN, 2.0])
def test_quadrature_matches_closed_form(n, t):
    q = a_integral_quadrature(n, t)
    c = a_integral_closed_form(n, t)
    assert abs(q - c) / c <= 1e-10


def test_quadrature_rules_equal_fresh_leggauss_output():
    # the two rules are constants; each equals a fresh leggauss call bit
    # for bit and cannot be written to
    for nodes, rule in ((64, haar._GAUSS_LEGENDRE_64), (32, haar._GAUSS_LEGENDRE_32)):
        fresh = np.polynomial.legendre.leggauss(nodes)
        for got, want in zip(rule, fresh):
            assert got.tobytes() == want.tobytes() and not got.flags.writeable
    # so the quadrature equals the 64-node product rule on fresh nodes
    fresh = np.polynomial.legendre.leggauss(64)
    for n in (2, 3, 4, 5, 8):
        for t in (1.0, T_MIN, 2.0):
            assert a_integral_quadrature(n, t) == haar._gauss_legendre_block(n, t, fresh), (n, t)


def test_quadrature_rejects_impossible_tolerance(monkeypatch):
    monkeypatch.setattr(haar, "_QUADRATURE_REL_TOL", 0.0)
    with pytest.raises(ToleranceNotMetError):
        a_integral_quadrature(3, T_MIN)


def test_quadrature_fails_closed():
    # the 64- and 32-node rules both overflow at n = 40; inf - inf is nan
    with pytest.raises(ToleranceNotMetError):
        a_integral_quadrature(40, T_MIN)
    for t in (math.nan, math.inf, 0.0):
        with pytest.raises(InvalidArgumentError):
            a_integral_quadrature(3, t)


@pytest.mark.parametrize("n", [2.5, 3.0, True, np.float64(3.0)])
def test_integrators_take_n_as_an_integer(n):
    with pytest.raises(InvalidArgumentError):
        a_integral_quadrature(n, T_MIN)
    with pytest.raises(InvalidArgumentError):
        a_integral_mc(n, T_MIN, 100, RngStream(0))


def test_integrators_accept_numpy_integer_n():
    assert a_integral_quadrature(np.int64(3), T_MIN) == a_integral_quadrature(3, T_MIN)
    rep = a_integral_mc(np.int64(3), T_MIN, np.int64(100), RngStream(0))
    assert rep == a_integral_mc(3, T_MIN, 100, RngStream(0))
    assert type(rep.samples) is int


@pytest.mark.parametrize("samples", [1e6, 100.0, True])
def test_mc_takes_samples_as_an_integer(samples):
    with pytest.raises(InvalidArgumentError):
        a_integral_mc(3, T_MIN, samples, RngStream(0))


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_mc_rejects_a_non_finite_t_as_a_siegel_error(t):
    # an infinite t once reached the generator and raised OverflowError
    with pytest.raises(SiegelError):
        a_integral_mc(2, t, 100, RngStream(0), b_min=0.1)


def test_mc_estimate_n2_matches_truncated_exact():
    # exponent 0 in n = 2: the integral over [b_min, t] is (t - b_min)/2
    t, b_min = 1.0, 1.0 / 16.0
    rep = a_integral_mc(2, t, 200_000, RngStream(5), b_min=b_min)
    exact = 0.5 * (t - b_min)
    assert abs(rep.estimate - exact) <= 3.0 * rep.std_error
    assert rep.samples == 200_000 and rep.seed == 5


def test_mc_estimate_n3_matches_quadrature():
    t = T_MIN
    rep = a_integral_mc(3, t, 400_000, RngStream(6), b_min=t / 64.0)
    target = a_integral_closed_form(3, t)  # == t**4 / 8
    assert math.isclose(target, t**4 / 8.0, rel_tol=1e-14)
    bias = rep.truncation_bound * target
    assert abs(rep.estimate - target) <= 3.0 * rep.std_error + bias
    assert abs(rep.estimate - target) / target <= 0.01


def test_mc_is_deterministic_per_stream():
    r1 = a_integral_mc(3, T_MIN, 10_000, RngStream(12, 1))
    r2 = a_integral_mc(3, T_MIN, 10_000, RngStream(12, 1))
    assert r1 == r2


def test_mc_report_json_fields():
    rep = a_integral_mc(2, 1.0, 1000, RngStream(0))
    doc = rep.to_json_dict()
    assert list(doc) == [
        "estimate", "std_error", "samples", "seed", "stream_index", "b_min",
        "truncation_bound", "effective_samples",
    ]
    assert doc["samples"] == 1000 and doc["seed"] == 0 and doc["stream_index"] == 0


def test_mc_report_reproduces_from_its_key():
    # two streams of one seed give different reports, each telling its index
    reports = [a_integral_mc(3, 1.1, 1000, RngStream(5, i)) for i in (0, 3)]
    assert reports[0].estimate != reports[1].estimate
    for rep in reports:
        again = a_integral_mc(3, 1.1, 1000, RngStream(rep.seed, rep.stream_index))
        assert again == rep


def power_law_mc(n, t, samples, rng, b_min):
    """Test-only oracle: the estimator from its textbook form on the same
    draws.  Each b[i] is the inverse CDF of the power law with density
    ``q(b) = (e/2) b**(e/2-1) / (t**(e/2) - b_min**(e/2))`` on [b_min, t],
    ``e = i*(n-i)``, at a uniform of ``gen.random``, and a draw's weight is
    ``(1/2) prod b**(e-1) / q(b)``; a block's draws fill its coordinates
    one after another, as :func:`a_integral_mc` draws them."""
    exponents = haar._weight_exponents(n)
    half = exponents / 2.0
    flat = rng.generator().random(samples * (n - 1))
    x = np.concatenate(
        [
            flat[s * (n - 1) : (s + k) * (n - 1)].reshape(n - 1, k)
            for s in range(0, samples, haar._MC_BLOCK)
            for k in [min(haar._MC_BLOCK, samples - s)]
        ],
        axis=1,
    ).T
    lo, hi = b_min ** half, t ** half
    b = (lo + x * (hi - lo)) ** (1.0 / half)
    q = half * b ** (half - 1.0) / (hi - lo)
    w = 0.5 * np.prod(b ** (exponents - 1.0) / q, axis=1)
    return w.mean(), w.std(ddof=1) / math.sqrt(samples), w.sum() ** 2 / np.dot(w, w)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
@pytest.mark.parametrize("b_min", [T_MIN / 16.0, T_MIN / 64.0])
def test_mc_weights_are_the_density_over_the_power_law(n, b_min):
    # a full block and a block of three; the two forms round differently,
    # 1.6e-15 relative at most here
    samples = haar._MC_BLOCK + 3
    rep = a_integral_mc(n, T_MIN, samples, RngStream(31, n), b_min=b_min)
    estimate, std_error, ess = power_law_mc(n, T_MIN, samples, RngStream(31, n), b_min)
    assert rep.b_min == b_min and rep.samples == samples
    assert math.isclose(rep.estimate, estimate, rel_tol=1e-12)
    assert math.isclose(rep.std_error, std_error, rel_tol=1e-12)
    assert math.isclose(rep.effective_samples, ess, rel_tol=1e-12)


# two samples, one short of a 2^14-sample block and one past it, and several
# whole and partial blocks
_MC_SAMPLE_COUNTS = [2, (1 << 14) - 1, (1 << 14) + 1, 1 << 18, (1 << 18) + 3, (1 << 19) + 1]


@pytest.mark.parametrize("samples", _MC_SAMPLE_COUNTS)
def test_mc_draws_blocks_and_consumes_the_stream_as_uniform_would(samples, monkeypatch):
    # the estimator takes only an RngStream; this one hands out a counting generator
    n = 3
    gen = CountingGenerator(RngStream(8).generator().bit_generator)
    monkeypatch.setattr(RngStream, "generator", lambda self: gen)
    a_integral_mc(n, T_MIN, samples, RngStream(8))
    assert set(gen.calls) == {"random"}
    assert max(gen.random_doubles) <= haar._MC_BLOCK * (n - 1)
    assert sum(gen.random_doubles) == samples * (n - 1)
    monkeypatch.undo()
    fresh = RngStream(8).generator()
    fresh.random(samples * (n - 1))
    assert gen.bit_generator.state == fresh.bit_generator.state


def blocked_mc(n, t, samples, rng, b_min=None):
    """Test-only exact oracle of :func:`a_integral_mc`'s blocking: the whole
    sample drawn by one ``gen.random`` call, each ``_MC_BLOCK`` samples' slice
    read as (n-1, k) rows, a block's weights the product of ``x[i] + c[i]``
    over its rows, and its sums combined by ``math.fsum``.  The offsets c and
    the scale take the kernel's expressions, so the report is equal bit for
    bit; :func:`power_law_mc` checks those expressions."""
    b_min = t * haar.DEFAULT_B_MIN_FRACTION if b_min is None else b_min
    exponents = haar._weight_exponents(n)
    ratio = b_min / t
    log_r = 0.5 * exponents * np.log(ratio)
    log1m_r = np.log(-np.expm1(log_r))
    offsets = np.exp(log_r - log1m_r)
    log_scale = math.log(0.5) + float(
        np.sum(exponents * math.log(t) + np.log(2.0 / exponents) + 2.0 * log1m_r)
    )
    flat = rng.generator().random(samples * (n - 1))
    sums, sq_sums = [], []
    for s in range(0, samples, haar._MC_BLOCK):
        k = min(haar._MC_BLOCK, samples - s)
        x = flat[s * (n - 1) : (s + k) * (n - 1)].reshape(n - 1, k)
        w = x[0] + offsets[0]
        for i in range(1, n - 1):
            w = w * (x[i] + offsets[i])
        sums.append(float(np.sum(w)))
        sq_sums.append(float(np.sum(w * w)))
    total, total_sq = math.fsum(sums), math.fsum(sq_sums)
    effective = total * (total / total_sq)
    estimate = float(np.exp(log_scale + math.log(total / samples)))
    return haar.MonteCarloReport(
        estimate=estimate,
        std_error=estimate * math.sqrt(max(samples / effective - 1.0, 0.0) / (samples - 1)),
        samples=samples,
        seed=rng.seed,
        stream_index=rng.stream_index,
        b_min=float(b_min),
        truncation_bound=1.0 - float(np.prod(1.0 - ratio**exponents)),
        effective_samples=effective,
    )


# the counts of more than one block only at n = 2 and n = 5, to keep it short
_MC_ORACLE_CASES = [(n, 2) for n in range(2, 9)] + [
    (n, samples) for n in (2, 5) for samples in _MC_SAMPLE_COUNTS[1:]
]


@pytest.mark.parametrize(("n", "samples"), _MC_ORACLE_CASES)
def test_mc_equals_the_blocked_oracle_bit_for_bit(n, samples):
    for b_min in (None, T_MIN / 64.0):
        rep = a_integral_mc(n, T_MIN, samples, RngStream(29, n), b_min=b_min)
        assert rep == blocked_mc(n, T_MIN, samples, RngStream(29, n), b_min), b_min


_BLAS_THREADS_SCRIPT = """
import json
from siegel.haar import RngStream, a_integral_mc
from siegel.iwasawa import MINIMAL_PARAMS
t = MINIMAL_PARAMS.t
print(json.dumps([
    a_integral_mc(n, t, samples, RngStream(30, n), b_min=b_min).to_json_dict()
    for n in range(2, 9) for samples in (10**5, 10**6) for b_min in (None, t / 64.0)
]))
"""


def test_mc_reports_do_not_depend_on_the_blas_thread_count():
    # the subprocesses import the package this test imported
    src = os.path.dirname(os.path.dirname(haar.__file__))
    docs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[name] = threads
        out = subprocess.run(
            [sys.executable, "-c", _BLAS_THREADS_SCRIPT],
            env=env, capture_output=True, text=True, check=True, timeout=300,
        )
        docs.append(json.loads(out.stdout))
    assert docs[0] == docs[1]


def test_mc_memory_is_one_block():
    # one block of draws and one of weights: 1 MiB at n = 8
    n = 8
    bound = 8 * haar._MC_BLOCK * n + (256 << 10)
    a_integral_mc(n, T_MIN, 1000, RngStream(0, n))  # numpy's one-time set-up
    tracemalloc.start()
    try:
        a_integral_mc(n, T_MIN, 10**6, RngStream(0, n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


@pytest.mark.parametrize(("n", "t"), [(20, T_MIN), (15, 0.5)])
def test_mc_sums_of_squares_do_not_underflow(n, t):
    # the log weights of the log-uniform proposal underflowed at (20, T_MIN);
    # at (15, 0.5) the squares of the scaled weights, about e**-860, would
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = a_integral_mc(n, t, 10_000, RngStream(0))
    assert 0.0 < rep.estimate < math.inf
    assert 0.0 < rep.std_error < math.inf


def test_mc_sums_of_squares_do_not_overflow():
    # the squares of the scaled weights, about e**1260, would overflow here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = a_integral_mc(12, 10.0, 1000, RngStream(0))
    assert 0.0 < rep.estimate < math.inf
    assert 0.0 < rep.std_error < math.inf


@pytest.mark.parametrize(("n", "t"), [(12, 100.0), (34, T_MIN), (20, 0.5)])
def test_mc_refuses_an_unrepresentable_estimate(n, t):
    # the integral is about e**1280 at (12, 100) and e**770 at n = 34 and the
    # canonical t, above the double range; about e**-1001 at (20, 0.5), below it
    with pytest.raises(ToleranceNotMetError):
        a_integral_mc(n, t, 1000, RngStream(0))


def test_mc_refuses_weights_whose_squares_underflow():
    # the integral is about e**-4 here, but each of 499 factors averages
    # 1/2 and the squared weights sum below the normal double range, where
    # the effective samples are about one anyway
    assert abs(math.log(a_integral_closed_form(500, 1.00025))) < 10.0
    with pytest.raises(ToleranceNotMetError, match="squared weights"):
        a_integral_mc(500, 1.00025, 1000, RngStream(0))


def test_mc_reports_an_estimate_whose_scale_alone_overflows():
    # the integral is about e**697, the scale about e**719: a scale applied
    # before the mean weight would overflow
    rep = a_integral_mc(33, T_MIN, 1000, RngStream(0))
    assert 0.0 < rep.estimate < math.inf
    assert 0.0 < rep.std_error < math.inf
    assert math.log(a_integral_closed_form(33, T_MIN)) > 690.0


def _effective_share(n, ratio):
    """Kish's effective samples per sample of the bounded weights, in
    expectation: ``3(1+r)**2 / (4(1+r+r**2))`` per coordinate."""
    r = ratio ** (haar._weight_exponents(n) / 2.0)
    return float(np.prod(3.0 * (1.0 + r) ** 2 / (4.0 * (1.0 + r + r * r))))


@pytest.mark.parametrize("n", range(2, 9))
def test_mc_effective_samples_keep_a_fixed_share(n):
    # bounded weights: ESS/N is 0.89 at n = 2 and 0.13 at n = 8, whatever N
    rep = a_integral_mc(n, T_MIN, 10**5, RngStream(3, n))
    share = rep.effective_samples / rep.samples
    assert share >= 0.1
    assert math.isclose(share, _effective_share(n, haar.DEFAULT_B_MIN_FRACTION), rel_tol=0.05)


@pytest.mark.parametrize("n", range(2, 9))
def test_mc_std_error_covers_the_truncated_integral(n):
    # 40 seeds and two b_min at 10^5 samples: the estimate lies within 5
    # standard errors of the exact integral over [b_min, t]^(n-1), the
    # benchmark's band; the log-uniform proposal read z of -17 at n = 7 and
    # -1327 at n = 8 (medians)
    exponents = haar._weight_exponents(n)
    for fraction in (1.0 / 16.0, 1.0 / 64.0):
        exact = a_integral_closed_form(n, T_MIN) * float(np.prod(1.0 - fraction**exponents))
        for seed in range(40):
            rep = a_integral_mc(n, T_MIN, 10**5, RngStream(seed, n), b_min=T_MIN * fraction)
            z = (rep.estimate - exact) / rep.std_error
            assert abs(z) <= 5.0, (fraction, seed, z)
