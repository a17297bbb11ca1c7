import dataclasses
import functools
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from siegel.errors import InvalidArgumentError
from siegel.haar import a_integral_quadrature
from siegel.iwasawa import MINIMAL_PARAMS, SiegelParams
from siegel.volumes import (
    _LOG_ZETA,
    _inverse_gamma_half_product,
    _three_smooth,
    _ZETA,
    _ZETA_IS_ONE,
    GROWTH_CSV_HEADER,
    GrowthRow,
    SymbolicVolume,
    compare_normalization_forms,
    compare_quotient_forms,
    compare_ratio_forms,
    growth_table,
    growth_table_csv,
    harder_tau,
    harder_volume,
    normalization_ratio,
    normalization_ratio_display,
    ratio_C,
    ratio_C_display,
    signed_perm_order,
    vol_quotient,
    vol_quotient_rightmost,
    vol_siegel,
    vol_so,
    vol_symmetric_space,
    zeta,
)

from conftest import gamma_half, sphere_volume, vol_so_recursive

SQ2 = math.sqrt(2.0)


# --- zeta ---

def test_zeta_known_closed_forms():
    assert abs(zeta(2) - math.pi**2 / 6.0) <= 1e-14 * zeta(2)
    assert abs(zeta(4) - math.pi**4 / 90.0) <= 1e-14 * zeta(4)


def test_zeta_3_against_direct_sum_oracle():
    # ten-million-term partial sum plus the integral tail bracket
    k = np.arange(1, 10**7 + 1, dtype=float)
    partial = float(np.sum(np.sort(k**-3.0)))  # ascending sum limits rounding
    oracle = partial + 0.5 / (10**7) ** 2  # tail is within 1e-21 of 1/(2 N^2)
    assert abs(zeta(3) - oracle) <= 1e-12
    assert abs(zeta(3) - 1.2020569032) <= 1e-9


def test_zeta_large_arguments():
    assert zeta(60) == pytest.approx(1.0 + 2.0**-60, rel=1e-15)
    assert zeta(2000) == 1.0


def test_zeta_rounds_to_one_from_the_cutoff():
    # growth_table sums log zeta(i) only below the cutoff; above it every
    # term is log(1.0) = 0 in binary64
    assert zeta(_ZETA_IS_ONE - 1) > 1.0
    assert all(zeta(s) == 1.0 for s in range(_ZETA_IS_ONE, 2001))


def test_zeta_domain_errors():
    with pytest.raises(InvalidArgumentError):
        zeta(1)


# Euler-Maclaurin oracle: direct summation below a cutoff plus the tail
# with Bernoulli corrections B_2 .. B_20; the first omitted term is below
# 1e-20 relative for every s >= 2.
_BERNOULLI = (
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
    Fraction(43867, 798),
    Fraction(-174611, 330),
)
_EM_COEFFS = tuple(float(b) / math.factorial(2 * j) for j, b in enumerate(_BERNOULLI, start=1))


def zeta_euler_maclaurin(s: int, cutoff: int = 16) -> float:
    total = math.fsum(k ** -float(s) for k in range(1, cutoff))
    n = float(cutoff)
    total += 0.5 * n ** -float(s)
    total += n ** (1.0 - s) / (s - 1.0)
    rising = float(s)
    npow = n ** (-float(s) - 1.0)
    for j, coeff in enumerate(_EM_COEFFS, start=1):
        total += coeff * rising * npow
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        npow /= n * n
    return total


def test_zeta_table_is_correctly_rounded():
    mpmath = pytest.importorskip("mpmath")
    assert len(_ZETA) == _ZETA_IS_ONE - 2
    with mpmath.workdps(60):
        for s in range(2, _ZETA_IS_ONE):
            assert _ZETA[s - 2] == float(mpmath.zeta(s)), s
            assert zeta(s) == _ZETA[s - 2]


def test_zeta_table_against_euler_maclaurin_oracle():
    # the oracle rounds each step, so it may sit one ulp off the table
    for s in range(2, _ZETA_IS_ONE):
        assert abs(zeta_euler_maclaurin(s) - zeta(s)) <= math.ulp(zeta(s)), s
    assert zeta_euler_maclaurin(_ZETA_IS_ONE) == 1.0
    assert _LOG_ZETA == tuple(math.log(z) for z in _ZETA)
    assert zeta(np.int64(_ZETA_IS_ONE - 1)) == _ZETA[-1]


# --- symbolic algebra ---

def test_symbolic_equality_is_structural():
    four_pi = SymbolicVolume(numeric={4.0: 1}) * SymbolicVolume(pow_pi=1)
    also = SymbolicVolume(pow2=2) * SymbolicVolume(pow_pi=1)
    assert four_pi == also
    assert str(also) == "2^2 * pi"


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=2, max_value=9),
)
def test_symbolic_log_matches_direct_evaluation(p, q, e, i):
    expr = (
        SymbolicVolume(numeric={p / q: 1})
        * SymbolicVolume(pow_pi=Fraction(e, 2))
        * SymbolicVolume(zeta_pow={i: 1})
        * SymbolicVolume(factorial={i: e})
    )
    direct = (
        (p / q)
        * math.pi ** (e / 2.0)
        * zeta(i)
        * math.factorial(i) ** float(e)
    )
    assert math.isclose(math.exp(expr.log_value()), direct, rel_tol=1e-12)


#: canonical operands from the checking constructor: exact and labeled
#: numeric bases, zero exponents and 0!, 1!, 2! (all folded), over index
#: ranges small enough that products cancel atoms often
_EXPONENT = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_EXPONENT_RANGE = _EXPONENT.filter(bool)
_SYMBOLIC = st.builds(
    SymbolicVolume,
    pow2=_EXPONENT,
    pow3=_EXPONENT,
    pow_pi=st.one_of(_EXPONENT, st.integers(-2, 2)),
    zeta_pow=st.dictionaries(st.integers(2, 6) | st.integers(50, 60), st.integers(-2, 2), max_size=4),
    factorial=st.dictionaries(st.integers(0, 6), st.integers(-2, 2), max_size=4),
    numeric=st.dictionaries(
        st.sampled_from([1.0, 2.0, 0.5, 4.0, 3.0, 1.5, 9.0, 2.0 / math.sqrt(3.0), 1.7, 0.3]),
        st.one_of(_EXPONENT, st.integers(-2, 2)),
        max_size=3,
    ),
)


def _rebuilt(x):
    """``x`` through the checking constructor, which would fold any
    non-canonical field."""
    return SymbolicVolume(
        pow2=x.pow2, pow3=x.pow3, pow_pi=x.pow_pi,
        zeta_pow=dict(x.zeta_pow), factorial=dict(x.factorial), numeric=dict(x.numeric),
    )


def _merged(x: dict, y: dict) -> dict:
    out = dict(x)
    for key, e in y.items():
        out[key] = out.get(key, 0) + e
    return out


@settings(max_examples=200, deadline=None)
@given(_SYMBOLIC, _SYMBOLIC, st.integers(min_value=-3, max_value=3))
def test_products_and_powers_are_canonical(a, b, k):
    # the product and power, each built once by the checking constructor
    product = SymbolicVolume(
        pow2=a.pow2 + b.pow2, pow3=a.pow3 + b.pow3, pow_pi=a.pow_pi + b.pow_pi,
        zeta_pow=_merged(a.zeta_pow, b.zeta_pow),
        factorial=_merged(a.factorial, b.factorial),
        numeric=_merged(a.numeric, b.numeric),
    )
    power = SymbolicVolume(
        pow2=a.pow2 * k, pow3=a.pow3 * k, pow_pi=a.pow_pi * k,
        zeta_pow={i: e * k for i, e in a.zeta_pow.items()},
        factorial={i: e * k for i, e in a.factorial.items()},
        numeric={x: e * k for x, e in a.numeric.items()},
    )
    for got, want in ((a * b, product), (a ** k, power), (a / b, a * b ** -1), (a * a ** -1, SymbolicVolume())):
        assert got == want == _rebuilt(got)
        assert all(type(v) is Fraction for v in (got.pow2, got.pow3, got.pow_pi))
        assert got.log_value() == want.log_value() == _rebuilt(got).log_value()
    assert (a / b) * b == a


def test_zero_power_is_one():
    x = SymbolicVolume(numeric={1.7: 2})
    assert str(x**0) == "1"
    assert x**0 == SymbolicVolume()
    assert str(x**-1) == "1.7^(-2)"
    assert str(vol_siegel(3, SiegelParams(1.7, 0.5)) ** 0) == "1"


@pytest.mark.parametrize("i", range(1, 31))
def test_gamma_half_factor_log_matches_lgamma(i):
    for e in (-2, -1, 1, 2):
        got = gamma_half(i, e).log_value()
        assert math.isclose(got, e * math.lgamma(i / 2.0), rel_tol=1e-13, abs_tol=1e-13)
    assert gamma_half(i, 0) == SymbolicVolume()


def test_construction_folds_trivial_factorials():
    x = SymbolicVolume(factorial={0: 3, 1: -2, 2: 5, 7: 0, 9: 1}, zeta_pow={3: 0})
    assert x.factorial == {9: 1} and x.zeta_pow == {} and x.pow2 == 5
    assert x == SymbolicVolume(pow2=5) * SymbolicVolume(factorial={9: 1})


def test_construction_folds_exact_numeric_bases():
    x = SymbolicVolume(pow2=1, numeric={2.0: 3, 0.5: -3, 1.7: 0, 4.0: Fraction(1, 2), 3.0: 2})
    assert (x.pow2, x.pow3, x.numeric) == (8, 2, {})
    assert all(type(v) is Fraction for v in (x.pow2, x.pow3, x.pow_pi))
    assert x == SymbolicVolume(pow2=8) * SymbolicVolume(pow3=2)
    # every 3-smooth base folds, not only a listed few
    y = SymbolicVolume(numeric={1.5: 1})
    assert y == SymbolicVolume(pow2=-1, pow3=1) and y.log_value() == SymbolicVolume(pow2=-1, pow3=1).log_value()
    # the float 2/sqrt(3) is a dyadic rational, not 2 * 3^(-1/2): a labeled base
    t = SymbolicVolume(numeric={2.0 / math.sqrt(3.0): 6})
    assert (t.pow2, t.pow3, t.numeric) == (0, 0, {2.0 / math.sqrt(3.0): 6})


@settings(max_examples=200, deadline=None)
@given(st.integers(-1074, 970), st.integers(0, 33), _EXPONENT_RANGE)
def test_every_three_smooth_base_folds(a, b, e):
    base = math.ldexp(3**b, a)
    assume(0.0 < base < math.inf and Fraction(base) == 3**b * Fraction(2) ** a)
    x = SymbolicVolume(numeric={base: e, 1.7: 1})
    assert x == SymbolicVolume(pow2=a * e, pow3=b * e, numeric={1.7: 1})
    assert x.numeric == {1.7: 1}
    # the next float up is no such product unless it is one exactly
    up = math.nextafter(base, math.inf)
    if up < math.inf:
        assert (up in SymbolicVolume(numeric={up: 1}).numeric) == (_three_smooth(up) is None)


def test_constructor_domain_errors():
    for bad in (
        lambda: SymbolicVolume(zeta_pow={1: 1}),
        lambda: SymbolicVolume(zeta_pow={2.5: 1}),
        lambda: SymbolicVolume(factorial={-1: 1}),
        lambda: SymbolicVolume(factorial={3.0: 1}),
        lambda: SymbolicVolume(factorial={True: 1}),
        lambda: SymbolicVolume(factorial={3: 0.5}),
        lambda: SymbolicVolume(zeta_pow={3: 0.5}),
        lambda: SymbolicVolume(factorial={3: Fraction(2)}),
        lambda: SymbolicVolume(zeta_pow={3: True}),
        lambda: SymbolicVolume(pow2=math.nan),
        lambda: SymbolicVolume(pow3=math.inf),
        lambda: SymbolicVolume(pow_pi=True),
        lambda: SymbolicVolume(pow2="1/2"),
        lambda: SymbolicVolume(pow2=1j),
        lambda: SymbolicVolume(numeric={1.7: math.nan}),
        lambda: SymbolicVolume(numeric={1.7: -math.inf}),
        lambda: SymbolicVolume(pow2=1) ** 0.5,
    ):
        with pytest.raises(InvalidArgumentError):
            bad()


def test_value_is_the_exp_of_the_log_unless_it_overflows():
    # 2^1023.5 is about 1.2712e308, a finite double; the value once read
    # inf for every log above 709.0
    big = SymbolicVolume(pow2=Fraction(2047, 2)).value()
    assert math.isclose(big, 2.0**1023 * math.sqrt(2.0), rel_tol=1e-13)
    assert SymbolicVolume(pow2=1025).value() == math.inf
    assert SymbolicVolume(pow2=-1100).value() == 0.0


def test_records_write_their_fields_in_order():
    (row,) = growth_table(2)
    assert list(row.to_json_dict()) == [
        "n", "log_vol_siegel", "log_vol_quotient", "log_C", "log_height_bound"
    ]
    doc = compare_ratio_forms(3).to_json_dict()
    assert list(doc) == ["label", "log_direct", "log_displayed", "log_mismatch", "agrees"]
    assert doc["label"] == "siegel_ratio_forms" and doc["agrees"] is False


def test_constructor_owns_its_maps():
    zeta, fact, numeric = {3: 1}, {3: 1}, {1.7: Fraction(1)}
    x = SymbolicVolume(zeta_pow=zeta, factorial=fact, numeric=numeric)
    log = x.log_value()
    zeta[3], fact[3], numeric[1.7] = 5, 5, Fraction(5)
    assert (x.zeta_pow, x.factorial, x.numeric) == ({3: 1}, {3: 1}, {1.7: 1})
    assert x.log_value() == log
    # nor does the fold write into the caller's map
    small = {1: 2, 2: 3, 3: 0, 4: 1}
    assert SymbolicVolume(factorial=small) == SymbolicVolume(pow2=3, factorial={4: 1})
    assert small == {1: 2, 2: 3, 3: 0, 4: 1}


def test_constructor_makes_exponents_fractions():
    x = SymbolicVolume(numeric={3.5: 0.25, 1.7: 2})
    assert x.numeric == {3.5: Fraction(1, 4), 1.7: 2}
    assert all(type(e) is Fraction for e in x.numeric.values())
    assert str(x) == "1.7^2 * 3.5^(1/4)"
    assert SymbolicVolume(pow2=0.5, pow3=np.int64(2)) == SymbolicVolume(pow2=Fraction(1, 2), pow3=2)


def test_arithmetic_with_a_non_expression_operand_is_a_type_error():
    x = vol_so(3)
    for bad in (lambda: x * 2, lambda: x / 2.0, lambda: 2 * x, lambda: 2.0 / x, lambda: x * Fraction(1, 2)):
        with pytest.raises(TypeError):
            bad()


def test_powers_take_integer_exponents_only():
    x = vol_so(3)
    for k in (np.int64(2), np.int32(-3)):
        got = x**k
        assert got == x ** int(k) and all(type(v) is Fraction for v in (got.pow2, got.pow3, got.pow_pi))
    assert x ** np.int64(0) == SymbolicVolume()
    for bad in (True, False, 0.5, 2.0, Fraction(2), "2", None):
        with pytest.raises(InvalidArgumentError):
            x**bad


@pytest.mark.parametrize("base", [-2.0, 0.0, math.inf, math.nan, True, "2", 1j])
def test_numeric_bases_are_checked_at_construction(base):
    with pytest.raises(InvalidArgumentError, match="positive and finite"):
        SymbolicVolume(numeric={base: 1})


def test_numeric_bases_without_a_finite_float_log_fold_or_are_refused():
    # beyond the float range either way: log_value could not read them
    for base in (Fraction(10**400, 3), Fraction(1, 10**400), np.longdouble("1e400"), np.longdouble("1e-400")):
        with pytest.raises(InvalidArgumentError, match="positive and finite"):
            SymbolicVolume(numeric={base: 1})
    # 2^a 3^b folds exactly at any size, and an int keeps its exact log
    assert SymbolicVolume(numeric={Fraction(2**2000, 3**700): 1}) == SymbolicVolume(pow2=2000, pow3=-700)
    big = SymbolicVolume(numeric={10**400: 1})
    assert big.numeric == {10**400: 1} and big.log_value() == math.log(10**400)


def test_equal_expressions_evaluate_to_equal_floats():
    # log_value is one correctly rounded sum over the atoms, so it cannot
    # depend on the order in which equal expressions collected them
    for n in range(2, 61):
        lhs, rhs = vol_symmetric_space(n) * vol_so(n), vol_quotient(n)
        assert lhs == rhs and lhs.log_value() == rhs.log_value(), n
        lhs, rhs = normalization_ratio(n), harder_volume(n) * vol_so(n) / vol_quotient(n)
        assert lhs == rhs and lhs.log_value() == rhs.log_value(), n


def test_mul_div_round_trip():
    x = vol_siegel(4)
    y = vol_quotient(4)
    assert (x * y) / y == x


@pytest.mark.parametrize("n", range(2, 9))
def test_symbolic_log_agrees_with_float_product(n):
    # direct binary64 evaluation of the covolume, atom by atom
    direct = math.sqrt(2.0)
    for i in range(2, n + 1):
        direct *= zeta(i)
    for i in range(1, n):
        direct /= 2.0 ** (i - 1) * math.factorial(i)
    assert math.isclose(math.exp(vol_quotient(n).log_value()), direct, rel_tol=1e-12)
    direct_so = 2.0 ** ((n - 1) * (n / 4.0 + 1.0))
    for i in range(2, n + 1):
        direct_so *= math.pi ** (i / 2.0) / math.gamma(i / 2.0)
    assert math.isclose(math.exp(vol_so(n).log_value()), direct_so, rel_tol=1e-12)


def test_inverse_gamma_half_product_equals_factor_product():
    want = SymbolicVolume()
    for n in range(1, 301):
        if n >= 2:
            want = want * gamma_half(n, -1)
        fact, pow2, half_pi = _inverse_gamma_half_product(n)
        got = SymbolicVolume(pow2=pow2, pow_pi=Fraction(half_pi, 2), factorial=fact)
        assert got == want, n
        assert got.factorial == fact and min(fact, default=3) >= 3 and all(fact.values()), n


_LABELED = SiegelParams(1.7, 0.3)
#: t = 1.5 and 2 lam = 1.5 fold into powers of 2 and 3; 2 lam = t = 1.4
#: is one labeled base
_SMOOTH = SiegelParams(1.5, 0.75)
_SHARED_BASE = SiegelParams(1.4, 0.7)


_BUILDERS = {
    "vol_so": vol_so,
    "vol_siegel": vol_siegel,
    "vol_siegel_labeled": lambda n: vol_siegel(n, _LABELED),
    "vol_siegel_smooth": lambda n: vol_siegel(n, _SMOOTH),
    "vol_siegel_shared_base": lambda n: vol_siegel(n, _SHARED_BASE),
    "vol_quotient": vol_quotient,
    "vol_quotient_rightmost": vol_quotient_rightmost,
    "ratio_C": ratio_C,
    "ratio_C_display": ratio_C_display,
    "vol_symmetric_space": vol_symmetric_space,
    "harder_volume": harder_volume,
    "normalization_ratio": normalization_ratio,
    "normalization_ratio_display": normalization_ratio_display,
}


@pytest.mark.parametrize("builder", list(_BUILDERS.values()), ids=list(_BUILDERS))
def test_builders_are_canonical_by_construction(builder):
    for n in range(1 if builder is vol_so else 2, 201):
        x = builder(n)
        assert x == _rebuilt(x), n
        assert all(type(v) is Fraction for v in (x.pow2, x.pow3, x.pow_pi)), n
        assert all(type(e) is int and e for e in (*x.zeta_pow.values(), *x.factorial.values())), n
        assert all(type(e) is Fraction and e for e in x.numeric.values()), n
        assert min(x.factorial, default=3) >= 3, n


def test_division_equals_product_with_the_inverse():
    # one-pass division against the product with the power -1, field for field
    for n in range(2, 61):
        xs = [builder(n) for builder in _BUILDERS.values()]
        for a in xs:
            for b in xs:
                got, want = a / b, a * b**-1
                assert vars(got) == vars(want) and str(got) == str(want), (n, str(a), str(b))
                assert all(type(v) is Fraction for v in (got.pow2, got.pow3, got.pow_pi))


def _log_value_reference(x):
    """``log_value`` from its definition: the fsum of one term per atom,
    log i! from ``math.lgamma`` for every i."""
    terms = [float(x.pow2) * math.log(2.0), float(x.pow3) * math.log(3.0), float(x.pow_pi) * math.log(math.pi)]
    terms += [e * math.log(zeta(i)) for i, e in x.zeta_pow.items()]
    terms += [e * math.lgamma(i + 1.0) for i, e in x.factorial.items()]
    terms += [float(e) * math.log(base) for base, e in x.numeric.items()]
    return math.fsum(terms)


def test_log_value_equals_the_lgamma_sum_bit_for_bit():
    # factorial atoms inside the log i! table (i <= 2000) and beyond it
    xs = [builder(n) for builder in _BUILDERS.values() for n in range(2, 61)]
    xs += [builder(n) for builder in (vol_quotient, ratio_C, harder_volume) for n in (1999, 2000, 2001, 2500)]
    xs += [
        SymbolicVolume(factorial={5000: 1}),
        SymbolicVolume(pow2=Fraction(1, 3), factorial={3: 2, 2000: -3, 2001: 2, 5000: 1}, numeric={1.7: 1}),
    ]
    for x in xs:
        assert x.log_value() == _log_value_reference(x), str(x)


def test_volume_queries_build_without_the_checking_constructor(monkeypatch):
    def query(n):
        return ratio_C(n), compare_ratio_forms(n), compare_quotient_forms(n)

    want = [query(n) for n in range(2, 61)]

    def refuse(self):
        raise AssertionError("the checking constructor ran")

    monkeypatch.setattr(SymbolicVolume, "__post_init__", refuse)
    got = [query(n) for n in range(2, 61)]
    monkeypatch.undo()
    assert got == want


# --- sphere and rotation-group volumes ---

def test_sphere_volumes():
    assert math.isclose(sphere_volume(1).value(), 2.0 * math.pi, rel_tol=1e-14)
    assert math.isclose(sphere_volume(2).value(), 4.0 * math.pi, rel_tol=1e-14)
    assert math.isclose(sphere_volume(3).value(), 2.0 * math.pi**2, rel_tol=1e-14)


def test_vol_so_values():
    assert vol_so(1) == SymbolicVolume()
    assert str(vol_so(2)) == "2^(3/2) * pi"
    assert math.isclose(vol_so(2).value(), 2.0**1.5 * math.pi, rel_tol=1e-12)
    assert math.isclose(vol_so(3).value(), 2.0**4.5 * math.pi**2, rel_tol=1e-12)


@pytest.mark.parametrize("n", range(1, 21))
def test_vol_so_recursion_equals_closed_form(n):
    assert vol_so(n) == vol_so_recursive(n)


# --- signed permutation group ---

def brute_force_signed_det1(n):
    from itertools import permutations, product

    count = 0
    for perm in permutations(range(n)):
        for signs in product((1, -1), repeat=n):
            m = [[0] * n for _ in range(n)]
            for r, (c, s) in enumerate(zip(perm, signs)):
                m[r][c] = s
            det = round(np.linalg.det(np.array(m, dtype=float)))
            if det == 1:
                count += 1
    return count


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 4), (3, 24), (4, 192)])
def test_signed_perm_order(n, expected):
    assert signed_perm_order(n) == expected
    assert brute_force_signed_det1(n) == expected


# --- Siegel-set volume ---

def test_vol_siegel_minimal_values():
    v2 = vol_siegel(2)
    assert math.isclose(v2.value(), 2.0 * SQ2 * math.pi / math.sqrt(3.0), rel_tol=1e-12)
    v3 = vol_siegel(3)
    assert math.isclose(v3.value(), 32.0 * SQ2 * math.pi**2 / 9.0, rel_tol=1e-12)


def test_vol_siegel_unit_t():
    v = vol_siegel(2, SiegelParams(1.0, 0.5))
    assert v == SymbolicVolume(pow2=Fraction(1, 2)) * SymbolicVolume(pow_pi=1)


def _ref_vol_siegel(n, t_power, lam):
    """The docstring formula factor by factor through the checking
    constructor, with the t-power given."""
    return (
        SymbolicVolume(pow2=-1) * vol_so(n) * SymbolicVolume(numeric={2.0 * lam: Fraction(n * (n - 1), 2)})
        * t_power / SymbolicVolume(factorial={n - 1: 2})
    )


def test_vol_siegel_builds_without_the_checking_constructor(monkeypatch):
    def t_power(p, n):
        e = Fraction(n * (n * n - 1), 6)
        if p.t2 == Fraction(4, 3):  # t = 2 * 3^(-1/2)
            return SymbolicVolume(pow2=e, pow3=-e / 2)
        return SymbolicVolume(numeric={p.t: e})

    params = [MINIMAL_PARAMS, _LABELED, _SMOOTH, _SHARED_BASE, SiegelParams._canonical(0.7)]
    cases = [(n, p) for n in range(2, 41) for p in params]
    want = [_ref_vol_siegel(n, t_power(p, n), p.lam) for n, p in cases]

    def refuse(self):
        raise AssertionError("the checking constructor ran")

    monkeypatch.setattr(SymbolicVolume, "__post_init__", refuse)
    got = [vol_siegel(n, p) for n, p in cases]
    monkeypatch.undo()
    for (n, p), x, y in zip(cases, got, want):
        assert x == y and str(x) == str(y), (n, p)
    assert vol_siegel(3, _SMOOTH).numeric == {} and vol_siegel(3, _SHARED_BASE).numeric == {1.4: 7}


def test_vol_siegel_refuses_a_base_beyond_the_float_range():
    # 2 lam = 2e308 is no float; 2 lam = 2^1024 is exact and folds
    with pytest.raises(InvalidArgumentError, match="positive and finite"):
        vol_siegel(2, SiegelParams(1.0, 1e308))
    big = vol_siegel(2, SiegelParams(1.0, 2.0**1023))
    assert big.numeric == {} and big.pow2 == vol_so(2).pow2 + 1023


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_vol_siegel_against_quadrature(n):
    # cross-module oracle: vol_so * (2 lam)^(n(n-1)/2) * block integral
    p = MINIMAL_PARAMS
    block = a_integral_quadrature(n, p.t)
    expected = vol_so(n).value() * (2.0 * p.lam) ** (n * (n - 1) / 2.0) * block
    assert math.isclose(vol_siegel(n, p).value(), expected, rel_tol=1e-8)


# --- covolume ---

def test_vol_quotient_base_case_exact_in_the_algebra():
    assert vol_quotient(2) == SymbolicVolume(pow2=Fraction(1, 2)) * SymbolicVolume(zeta_pow={2: 1})
    assert abs(vol_quotient(2).value() - SQ2 * math.pi**2 / 6.0) <= 1e-12


def test_vol_quotient_small_values():
    assert math.isclose(
        vol_quotient(3).value(), SQ2 * zeta(2) * zeta(3) / 4.0, rel_tol=1e-12
    )
    assert math.isclose(
        vol_quotient(4).value(),
        SQ2 * zeta(2) * zeta(3) * zeta(4) / (4.0 * 4.0 * 6.0),
        rel_tol=1e-12,
    )


def test_quotient_simplified_variant_differs_by_factorial():
    for n in range(2, 8):
        fc = compare_quotient_forms(n)
        assert not fc.agrees
        assert math.isclose(fc.log_mismatch, -math.lgamma(n + 1), abs_tol=1e-9)
    # at n = 2 the variant evaluates to zeta(2)/sqrt(2)
    fc = compare_quotient_forms(2)
    assert math.isclose(math.exp(fc.log_displayed), zeta(2) / SQ2, rel_tol=1e-12)


# --- ratio of the two volumes ---

def test_ratio_values():
    c2 = ratio_C(2)
    assert math.isclose(
        c2.value(), 2.0 * math.pi / (math.sqrt(3.0) * zeta(2)), rel_tol=1e-12
    )
    assert math.isclose(c2.value(), 2.2053, rel_tol=1e-4)
    assert math.isclose(ratio_C(3).value(), 70.989, rel_tol=1e-4)
    assert math.ceil(c2.value()) == 3


def test_ratio_exceeds_one_and_grows():
    logs = [ratio_C(n).log_value() for n in range(2, 101)]
    assert all(v > 0.0 for v in logs)
    assert all(logs[i + 1] > logs[i] for i in range(1, len(logs) - 1))


def test_ratio_display_form_differs_by_power_of_two():
    for n in range(2, 9):
        fc = compare_ratio_forms(n)
        assert not fc.agrees
        assert math.isclose(fc.log_mismatch, (3 * n - 1) * math.log(2.0), abs_tol=1e-8)


# --- symmetric space and its canonical normalization ---

def test_symmetric_space_values():
    s2 = vol_symmetric_space(2)
    assert math.isclose(s2.value(), zeta(2) / (2.0 * math.pi), rel_tol=1e-12)
    assert math.isclose(vol_symmetric_space(3).value(), 3.13036e-3, rel_tol=1e-4)


@pytest.mark.parametrize("n", range(2, 21))
def test_symmetric_space_identity_exact(n):
    assert vol_symmetric_space(n) * vol_so(n) == vol_quotient(n)


def test_harder_values():
    h2 = harder_volume(2)
    assert math.isclose(h2.value(), zeta(2) / (4.0 * (2.0 * math.pi) ** 5), rel_tol=1e-12)
    h3 = harder_volume(3)
    expected = 2.0 * zeta(2) * zeta(3) / ((2.0 * math.pi) ** 9 * 8.0 * 6.0)
    assert math.isclose(h3.value(), expected, rel_tol=1e-12)


def test_harder_tau_parity():
    assert harder_tau(4) == 3
    assert harder_tau(5) == 5


def test_normalization_ratio_positive_and_finite():
    for n in range(2, 51):
        assert math.isfinite(normalization_ratio(n).log_value())


def test_normalization_display_form_differs_by_two_to_n():
    for n in range(2, 11):
        fc = compare_normalization_forms(n)
        assert not fc.agrees
        assert math.isclose(fc.log_mismatch, n * math.log(2.0), abs_tol=1e-8)


# --- one-pass builders against factor-by-factor products ---
#
# Each reference multiplies the factors of the builder's docstring one at a
# time, one constructor call per factor (O(n) products, each merging O(n) maps).

SV = SymbolicVolume


def _product(*factors):
    out = SV()
    for f in factors:
        out = out * f
    return out


def _prod_over(make, indices):
    return _product(*(make(i) for i in indices))


def ref_vol_so(n):
    return SV(pow2=Fraction(n - 1) * (Fraction(n, 4) + 1)) * _prod_over(
        lambda i: SV(pow_pi=Fraction(i, 2)) / gamma_half(i), range(2, n + 1)
    )


def ref_vol_quotient(n):
    return (
        SV(pow2=Fraction(1, 2))
        * _prod_over(lambda i: SV(zeta_pow={i: 1}), range(2, n + 1))
        * _prod_over(lambda i: SV() / (SV(pow2=i - 1) * SV(factorial={i: 1})), range(1, n))
    )


def ref_vol_quotient_rightmost(n):
    return _prod_over(lambda i: SV(zeta_pow={i: 1}), range(2, n + 1)) / (
        SV(pow2=Fraction(n * n - 3 * n + 1, 2))
        * _prod_over(lambda i: SV(factorial={i: 1}), range(2, n + 1))
    )


def ref_ratio_C_display(n):
    num = (
        SV(pow2=Fraction(2 * n**3 + 9 * n**2 + 25 * n - 30, 12))
        * SV(pow_pi=Fraction(n * n + n - 2, 4))
        * _prod_over(lambda i: SV(factorial={i: 1}), range(1, n))
    )
    den = (
        SV(pow3=Fraction(n**3 - n, 12))
        * SV(factorial={n - 1: 1}) ** 2
        * _prod_over(gamma_half, range(2, n + 1))
        * _prod_over(lambda i: SV(zeta_pow={i: 1}), range(2, n + 1))
    )
    return num / den


def ref_harder_volume(n):
    two_pi = SV(pow2=1) * SV(pow_pi=1)
    return (
        _prod_over(lambda i: SV(factorial={i: 1}), range(1, n))
        * _prod_over(lambda i: SV(zeta_pow={i: 1}), range(2, n + 1))
        / (two_pi ** (n * (n + 3) // 2) * SV(pow2=harder_tau(n)) * SV(factorial={n: 1}))
    )


def ref_normalization_ratio_display(n):
    num = SV(pow2=Fraction(n * n - 5 * n - 2, 4) - harder_tau(n)) * _prod_over(
        lambda i: SV(factorial={i: 1}), range(1, n)
    ) ** 2
    den = (
        SV(factorial={n: 1})
        * SV(pow_pi=Fraction(n * n + 5 * n + 2, 4))
        * _prod_over(gamma_half, range(2, n + 1))
    )
    return num / den


@pytest.mark.parametrize(
    "builder,reference",
    [
        (vol_so, ref_vol_so),
        (vol_quotient, ref_vol_quotient),
        (vol_quotient_rightmost, ref_vol_quotient_rightmost),
        (ratio_C_display, ref_ratio_C_display),
        (harder_volume, ref_harder_volume),
        (normalization_ratio_display, ref_normalization_ratio_display),
    ],
    ids=lambda f: f.__name__,
)
def test_one_pass_builder_equals_factor_product(builder, reference):
    for n in range(2, 81):
        got, want = builder(n), reference(n)
        assert got == want, n
        assert str(got) == str(want), n


# --- growth table ---

def test_growth_table_row_two_matches_direct_values():
    row = growth_table(3)[0]
    assert abs(row.log_vol_siegel - math.log(vol_siegel(2).value())) <= 1e-9
    assert abs(row.log_vol_quotient - math.log(vol_quotient(2).value())) <= 1e-9
    assert abs(row.log_C - math.log(ratio_C(2).value())) <= 1e-9
    assert abs(row.log_C - (row.log_vol_siegel - row.log_vol_quotient)) <= 1e-9


def test_growth_table_matches_from_scratch_formulas():
    rows = growth_table(40)
    for row in rows[::7]:
        assert abs(row.log_vol_siegel - vol_siegel(row.n).log_value()) <= 1e-9
        assert abs(row.log_vol_quotient - vol_quotient(row.n).log_value()) <= 1e-9


def test_growth_table_monotonicity():
    rows = growth_table(100)
    quot = [r.log_vol_quotient for r in rows]
    assert all(quot[i + 1] < quot[i] for i in range(1, len(quot) - 1))
    assert all(r.log_vol_quotient < 0.0 for r in rows if r.n >= 3)


def test_growth_table_csv_shape():
    text = growth_table_csv(growth_table(5))
    lines = text.strip().split("\n")
    assert lines[0] == GROWTH_CSV_HEADER
    assert len(lines) == 5
    # 17-significant-digit floats round-trip
    val = float(lines[1].split(",")[1])
    assert val == growth_table(5)[0].log_vol_siegel


def test_growth_csv_columns_are_the_row_fields():
    # the header and every row follow the GrowthRow fields, in their order,
    # and each row reads back as the row it was written from
    rows = growth_table(60)
    header, *lines = growth_table_csv(rows).splitlines()
    assert header.split(",") == [f.name for f in dataclasses.fields(GrowthRow)]
    for row, line in zip(rows, lines, strict=True):
        n, *logs = line.split(",")
        assert GrowthRow(int(n), *map(float, logs)) == row


def test_growth_table_matches_symbolic_rows_to_1e12():
    for row in growth_table(60):
        assert math.isclose(row.log_C, ratio_C(row.n).log_value(), rel_tol=1e-12)
        assert math.isclose(row.log_vol_siegel, vol_siegel(row.n).log_value(), rel_tol=1e-12)
        assert math.isclose(row.log_vol_quotient, vol_quotient(row.n).log_value(), rel_tol=1e-12)


def test_symbolic_log_values_against_mpmath():
    # vol_so, vol_quotient and ratio_C from their docstring formulas at 50 digits
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        ln2, ln3, lnpi = mpmath.log(2), mpmath.log(3), mpmath.log(mpmath.pi)
        for n in range(2, 61):
            so = (n - 1) * (mpmath.mpf(n) / 4 + 1) * ln2 + mpmath.fsum(
                mpmath.mpf(i) / 2 * lnpi - mpmath.loggamma(mpmath.mpf(i) / 2) for i in range(2, n + 1)
            )
            quo = ln2 / 2 + mpmath.fsum(mpmath.log(mpmath.zeta(i)) for i in range(2, n + 1)) - mpmath.fsum(
                (i - 1) * ln2 + mpmath.loggamma(i + 1) for i in range(1, n)
            )
            sie = -ln2 + so + mpmath.mpf(n * (n * n - 1)) / 6 * (ln2 - ln3 / 2) - 2 * mpmath.loggamma(n)
            for got, want in ((vol_so(n), so), (vol_quotient(n), quo), (ratio_C(n), sie - quo)):
                want = float(want)
                assert abs(got.log_value() - want) <= 1e-15 * max(1000.0, abs(want)), (n, got)


def test_growth_table_against_mpmath_oracle():
    # every row to n = 2000 against the closed forms summed at 30 digits
    mpmath = pytest.importorskip("mpmath")
    rows = growth_table(2000)
    assert [r.n for r in rows] == list(range(2, 2001))
    with mpmath.workdps(30):
        ln2, ln3, lnpi = mpmath.log(2), mpmath.log(3), mpmath.log(mpmath.pi)
        so_sum = zeta_sum = fact_sum = mpmath.mpf(0)
        for r in rows:
            n = mpmath.mpf(r.n)
            so_sum += n / 2 * lnpi - mpmath.loggamma(n / 2)
            zeta_sum += mpmath.log(mpmath.zeta(n))
            fact_sum += (n - 2) * ln2 + mpmath.loggamma(n)
            log_so = (n - 1) * (n / 4 + 1) * ln2 + so_sum
            log_sie = -ln2 + log_so + n * (n * n - 1) / 6 * (ln2 - ln3 / 2) - 2 * mpmath.loggamma(n)
            log_quo = ln2 / 2 + zeta_sum - fact_sum
            want = (log_sie, log_quo, log_sie - log_quo, (n * n - 1) / 2 * mpmath.log(n))
            got = (r.log_vol_siegel, r.log_vol_quotient, r.log_C, r.log_height_bound)
            for g, w in zip(got, want):
                assert math.isclose(g, float(w), rel_tol=1e-12), (r.n, g, w)


def test_criterion_8_gap_closes_only_near_n_1710():
    # log_C(n)/n^3 approaches ln2/6 - ln3/12 from above; the 6% band of
    # acceptance criterion 8 is first met at n = 1710, not at n = 1000
    limit = math.log(2.0) / 6.0 - math.log(3.0) / 12.0
    gap = {r.n: (r.log_C / r.n**3 - limit) / limit for r in growth_table(2000)}
    assert round(gap[1000], 4) == 0.0968
    assert round(gap[2000], 4) == 0.0521
    assert min(n for n, g in gap.items() if g <= 0.06) == 1710
    assert all(g <= 0.06 for n, g in gap.items() if n >= 1710)


# zeta'(-1) = 1/12 - ln A, with A = 1.2824271291006226368... the
# Glaisher-Kinkelin constant (DLMF 5.17)
ZETA_PRIME_AT_MINUS_ONE = -0.16542114370045092921


@functools.cache
def log_C_constant(dps):
    """c0 = 1/2 zeta'(-1) + 3/4 ln 2 - ln 8pi - sum_{i>=2} ln zeta(i) at
    ``dps`` digits; the terms from i = 200 on add less than 2^-198."""
    import mpmath

    with mpmath.workdps(dps):
        log_zeta_sum = mpmath.fsum(mpmath.log(mpmath.zeta(i)) for i in range(2, 200))
        return (
            ZETA_PRIME_AT_MINUS_ONE / 2
            + 3 * mpmath.log(2) / 4
            - mpmath.log(8 * mpmath.pi)
            - log_zeta_sum
        )


def log_C_expansion(n):
    """The large-n expansion of log C(n), summed in mpmath at its working
    precision:

        log C(n) = c3 n^3 + 1/4 n^2 ln n + (ln 2 + 1/4 ln pi - 3/8) n^2
                   - 7/4 n ln n + (7/4 - 7/6 ln 2 + 1/12 ln 3 + 1/4 ln pi) n
                   + 23/24 ln n + c0 - 5/(24 n) + R(n),

    c3 = ln 2/6 - ln 3/12, c0 = 1/2 zeta'(-1) + 3/4 ln 2 - ln 8pi
    - sum_{i>=2} ln zeta(i) = -3.6176919682...

    Derivation.  With the Barnes G function, G(z+1) = Gamma(z) G(z),
    sum_{i=2}^n ln Gamma(i) = ln G(n+1), and the even and odd i of
    sum_{i=2}^n ln Gamma(i/2) give ln G(n/2 + 1) + ln G(n/2 + 1/2)
    - ln G(1/2) - 1/2 ln pi for either parity of n.  The growth table's
    closed form is then the polynomial part, plus ln G(n+1) - ln G(n/2+1)
    - ln G(n/2+1/2) - 2 ln Gamma(n), minus sum_{i=2}^n ln zeta(i); and
    ln G(1/2) = 1/24 ln 2 - 1/4 ln pi + 3/2 zeta'(-1).  Each ln G(z+1) takes
    Barnes' expansion (DLMF 5.17.5) (z^2/2 - 1/12) ln z - 3/4 z^2
    + z/2 ln 2pi + zeta'(-1) - 1/(240 z^2) + 1/(1008 z^4) - ..., and
    ln Gamma(n) takes Stirling's series through 1/(12 n), whose next term
    is -1/(360 n^3); at z = (n-1)/2, ln z = ln(n/2) + ln(1 - 1/n) is
    expanded about n/2.  The terms above are those through 1/n.

    The remainder R(n): the n^-2 terms are the three -1/(240 z^2), at
    z = n, n/2 and (n-1)/2 with signs +, - and -, giving 7/240, and the
    h^2 term of -((n-1)^2/8 - 1/12) ln(1 - h), h = 1/n, giving -1/32;
    together -1/480.  The n^-3 terms are 1/30 from 1/(60 (n-1)^2), -17/720
    from the same logarithm and +1/180 from Stirling's -1/(360 n^3), so

        R(n) = -1/(480 n^2) + 11/(720 n^3) + 1/(2016 n^4) + O(n^-5)
               + sum_{i>n} ln zeta(i),

    the last below 2^(1-n).  For n >= 50 the n^-3 term, of the other sign,
    outweighs all later ones together, so -1/(480 n^2) < R(n) < 0: the bound is
    C/n^2 with C = 1/480.
    """
    import mpmath

    n = mpmath.mpf(n)
    ln2, ln3, lnpi, ln_n = mpmath.log(2), mpmath.log(3), mpmath.log(mpmath.pi), mpmath.log(n)
    return (
        (ln2 / 6 - ln3 / 12) * n**3
        + n**2 * ln_n / 4
        + (ln2 + lnpi / 4 - mpmath.mpf(3) / 8) * n**2
        - mpmath.mpf(7) / 4 * n * ln_n
        + (mpmath.mpf(7) / 4 - 7 * ln2 / 6 + ln3 / 12 + lnpi / 4) * n
        + mpmath.mpf(23) / 24 * ln_n
        + log_C_constant(mpmath.mp.dps)
        - 5 / (24 * n)
    )


def test_growth_table_follows_the_log_C_expansion():
    # the expansion explains criterion 8: at n = 1000 its n^2 ln n and n^2
    # terms are still 9.7% of c3 n^3.  The table adds its cubic terms, four
    # to eight times log C(n), in floats, with a rounding error of a few
    # units of roundoff of their size: 4 ulp of it is allowed on top of C/n^2
    mpmath = pytest.importorskip("mpmath")
    c = 1.0 / 480.0
    with mpmath.workdps(30):
        rows = growth_table(2000)[48:]
        assert (rows[0].n, rows[-1].n) == (50, 2000)
        for row in rows:
            n = row.n
            cubic = n**3 * (math.log(2.0) / 6.0 + math.log(3.0) / 12.0)
            residual = float(mpmath.mpf(row.log_C) - log_C_expansion(n))
            assert abs(residual) <= c / n**2 + 4.0 * math.ulp(cubic), (n, residual * n**2)


def test_growth_table_csv_bytes_are_pinned():
    # the sha256 of the CSV as computed with one lgamma call per row; reading
    # log i! from the table must not move a byte
    text = growth_table_csv(growth_table(2000))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "e7345f38c921f87f30fcb2244306e426c2ac94405989b039001f8bbef95fc006"
    )


def test_growth_table_bounds_checked():
    with pytest.raises(InvalidArgumentError):
        growth_table(1)
    with pytest.raises(InvalidArgumentError):
        growth_table(2001)
