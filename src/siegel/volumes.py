"""Exact symbolic volumes and their log-space evaluation.

Every closed-form quantity here is a product of rational powers of 2, 3
and pi and integer powers of zeta(i) and i!.
:class:`SymbolicVolume` keeps those exponents exact (Fractions and ints),
so identities between formulas can be checked with zero drift; floats
only appear when ``log_value``/``value`` are called.

Every :class:`SymbolicVolume` is canonical (0! and 1! dropped, 2! as a
power of 2, no zero exponent), so equal quantities have equal fields and
``==`` is exact.  The factorial part of that rule is written once, in
:func:`_fold_small_factorials`.  The public constructor checks its
arguments and folds copies of its maps.  Each builder writes only the
exponents of its docstring formula, over the formula's own index ranges
and with its power of 2 as an integer over one denominator, and hands
them to :func:`_formula`, which folds 0!, 1! and 2! by the same rule and
wraps them without the constructor's checks, as products, one-pass
quotients and integer powers of canonical expressions are wrapped.  The
product prod_{i=2}^n Gamma(i/2) enters in closed form in the
factorial/pi/2 basis, from Gamma(m) = (m-1)! and Gamma(m + 1/2) =
sqrt(pi) (2m)!/(4^m m!) (see :func:`_inverse_gamma_half_product`), which
keeps printed forms clean.  :func:`vol_siegel` reads the exact 2^a 3^b
factorisations of 2 lam and t^2 (or their absence) that
:class:`~siegel.iwasawa.SiegelParams` takes once, by
:func:`~siegel.iwasawa._three_smooth`, the rule the constructor also
applies to numeric constants; any other positive constant (a
non-canonical Siegel parameter t, say) is a labeled numeric factor, and
the constructor takes one only where its log is a finite float.
``log_value`` is one correctly rounded sum over the atoms, so equal
quantities also evaluate to equal floats; log zeta(i) and log i! (for
i <= 2000) come from tables of constants, as does :func:`zeta`.
:func:`growth_table` evaluates the same closed forms in log space with
numpy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction

import numpy as np

from .errors import InvalidArgumentError
from .iwasawa import MINIMAL_PARAMS, SiegelParams, _is_real, _three_smooth, as_count, is_int

_LN2 = math.log(2.0)
_LN3 = math.log(3.0)
_LNPI = math.log(math.pi)

# zeta(s) - 1 < 2^-s (1 + 2/(s-1)) < 2^-53, so zeta(s) rounds to 1.0, for s >= 54.
_ZETA_IS_ONE = 54

# zeta(s) for s = 2 .. _ZETA_IS_ONE - 1, correctly rounded to binary64: the
# values of mpmath.zeta(s) at 60 significant digits (DLMF 25.6).
_ZETA = (
    1.6449340668482264,  # zeta(2)
    1.2020569031595942,  # zeta(3)
    1.0823232337111381,  # zeta(4)
    1.03692775514337,  # zeta(5)
    1.0173430619844492,  # zeta(6)
    1.008349277381923,  # zeta(7)
    1.0040773561979444,  # zeta(8)
    1.0020083928260821,  # zeta(9)
    1.000994575127818,  # zeta(10)
    1.0004941886041194,  # zeta(11)
    1.000246086553308,  # zeta(12)
    1.0001227133475785,  # zeta(13)
    1.0000612481350588,  # zeta(14)
    1.000030588236307,  # zeta(15)
    1.0000152822594086,  # zeta(16)
    1.0000076371976379,  # zeta(17)
    1.000003817293265,  # zeta(18)
    1.0000019082127165,  # zeta(19)
    1.0000009539620338,  # zeta(20)
    1.0000004769329869,  # zeta(21)
    1.0000002384505027,  # zeta(22)
    1.000000119219926,  # zeta(23)
    1.000000059608189,  # zeta(24)
    1.0000000298035034,  # zeta(25)
    1.0000000149015549,  # zeta(26)
    1.0000000074507118,  # zeta(27)
    1.000000003725334,  # zeta(28)
    1.0000000018626598,  # zeta(29)
    1.0000000009313275,  # zeta(30)
    1.0000000004656628,  # zeta(31)
    1.000000000232831,  # zeta(32)
    1.0000000001164155,  # zeta(33)
    1.0000000000582077,  # zeta(34)
    1.0000000000291038,  # zeta(35)
    1.000000000014552,  # zeta(36)
    1.000000000007276,  # zeta(37)
    1.000000000003638,  # zeta(38)
    1.000000000001819,  # zeta(39)
    1.0000000000009095,  # zeta(40)
    1.0000000000004547,  # zeta(41)
    1.0000000000002274,  # zeta(42)
    1.0000000000001137,  # zeta(43)
    1.0000000000000568,  # zeta(44)
    1.0000000000000284,  # zeta(45)
    1.0000000000000142,  # zeta(46)
    1.000000000000007,  # zeta(47)
    1.0000000000000036,  # zeta(48)
    1.0000000000000018,  # zeta(49)
    1.0000000000000009,  # zeta(50)
    1.0000000000000004,  # zeta(51)
    1.0000000000000002,  # zeta(52)
    1.0000000000000002,  # zeta(53)
)
_LOG_ZETA = tuple(map(math.log, _ZETA))

#: The largest n of :func:`growth_table`.
_GROWTH_N_MAX = 2000

# log i! = lgamma(i + 1) for i = 0 .. _GROWTH_N_MAX; a factorial atom beyond
# the table calls lgamma itself, so every float is the same either way.
_LOG_FACTORIAL = tuple(math.lgamma(i + 1.0) for i in range(_GROWTH_N_MAX + 1))


def zeta(s: int) -> float:
    """Riemann zeta at an integer s >= 2, correctly rounded to binary64.

    Read from a table of the correctly rounded values for s = 2..53 (from
    mpmath at 60 digits); from s = 54 on zeta(s) rounds to 1.0.
    """
    s = as_count(s, "s", least=2)
    return _ZETA[s - 2] if s < _ZETA_IS_ONE else 1.0


def _merge(x: dict, y: dict, sign: int) -> dict:
    """The exponent map of ``x * y**sign``, keyed by atom, for ``sign`` +1
    (a product) or -1 (a quotient); zero exponents are dropped.  One pass:
    the larger map is copied, negated only when it is the divisor, and the
    other is merged into it."""
    if len(x) >= len(y):
        out, rest = dict(x), y
    else:
        out = dict(y) if sign > 0 else {key: -exp for key, exp in y.items()}
        rest, sign = x, 1
    for key, exp in rest.items():
        new = out.get(key, 0) + sign * exp
        if new:
            out[key] = new
        else:
            out.pop(key, None)
    return out


def _scalar(x: Fraction, y: Fraction, sign: int) -> Fraction:
    """``x + sign * y`` for two Fraction exponents, with no Fraction
    arithmetic when either is zero."""
    if not y:
        return x
    if not x:
        return y if sign > 0 else -y
    return x + y if sign > 0 else x - y


def _fold_small_factorials(factorial: dict) -> int:
    """The small-factorial rule, in place on an exponent map of i!: 0! and
    1! are 1 and are dropped, 2! is 2 and is removed; returns the exponent
    of 2 that 2! carried."""
    factorial.pop(0, None)
    factorial.pop(1, None)
    return factorial.pop(2, 0)


def _inverse_gamma_half_product(n: int) -> tuple[dict, int, int]:
    """prod_{i=2}^n 1/Gamma(i/2) in canonical form, as ``(factorials, pow2,
    half_pi)``: an exponent map of i! (keys >= 3, no zero exponent), a
    power of 2 and a power of sqrt(pi).

    Even i = 2m, m = 1..n//2, give Gamma(m) = (m-1)!; odd i = 2m+1,
    m = 1..M with M = (n-1)//2, give Gamma(m + 1/2) = sqrt(pi) (2m)!/(4^m m!).
    The (m-1)! for m = 1..n//2 cancel the m! for m = 1..M, except for a
    1/M! when n is odd (then n//2 = M; for even n, n//2 = M + 1), so

        prod_{i=2}^n 1/Gamma(i/2) = 2^(M(M+1)) pi^(-M/2) (M!)^[n odd] / prod_{m=1}^M (2m)!.
    """
    M = (n - 1) // 2
    fact = dict.fromkeys(range(2, 2 * M + 1, 2), -1)
    if n % 2 and fact.pop(M, None) is None:
        fact[M] = 1  # the M! of odd n, unless it cancels the (2m)! of 2m = M
    return fact, M * (M + 1) + _fold_small_factorials(fact), -M


def _check_integer_map(exponents: dict, least: int, atom: str) -> None:
    """Every key of an exponent map is an integer index >= ``least`` and
    every exponent an integer, both by :func:`~siegel.iwasawa.is_int`."""
    if exponents and not (all(map(is_int, exponents)) and min(exponents) >= least):
        raise InvalidArgumentError(
            f"{atom} factors need integer indices >= {least}, got {list(exponents)}"
        )
    if not all(map(is_int, exponents.values())):
        raise InvalidArgumentError(
            f"{atom} factors need integer exponents, got {list(exponents.values())}"
        )


def _is_numeric_base(base) -> bool:
    """The real-number rule for a numeric base: a real number that is not a
    bool (a string or a complex number is not one), positive and finite;
    and either with a finite float log for ``log_value`` to read, or a
    rational 2^a 3^b exactly, which folds (2^2000 does; 10^400/3, 10^-400
    and a long double beyond the float range are refused)."""
    if not (_is_real(base) and 0.0 < base < math.inf):
        return False
    try:
        if math.isfinite(math.log(base)):
            return True
    except (OverflowError, ValueError):
        pass
    return isinstance(base, numbers.Rational) and _three_smooth(base) is not None


def _as_exponent(value, atom: str) -> Fraction:
    """``value`` as an exact Fraction exponent; a bool, a string, a
    non-finite number or a type Fraction does not take is refused."""
    if not isinstance(value, (bool, str)):
        try:
            return Fraction(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise InvalidArgumentError(f"{atom} exponents must be finite numbers, got {value!r}")


@dataclass(frozen=True)
class SymbolicVolume:
    """Exact multiplicative expression with a log-space evaluator.

    Fields hold exact exponents: ``pow2``/``pow3``/``pow_pi`` are
    Fractions, the maps give integer exponents per zeta(i) and i! factor,
    and ``numeric`` holds Fraction exponents of arbitrary positive finite
    floats.  The constructor converts scalar and numeric exponents to
    Fractions, refuses a non-finite one and stores new maps, so the
    caller's dicts are never shared.  Multiplication and division
    add exponents exactly; nothing is rounded until
    ``log_value``/``value``.

    Every instance is canonical from construction on: 0! and 1! are
    dropped and 2! becomes a power of 2, numeric bases that are powers of
    2 and 3 fold into those, and no exponent is zero.  Equal
    quantities therefore have equal fields, and the dataclass ``==`` is
    exact.
    """

    pow2: Fraction = Fraction(0)
    pow3: Fraction = Fraction(0)
    pow_pi: Fraction = Fraction(0)
    zeta_pow: dict = field(default_factory=dict)  # i -> exponent of zeta(i)
    factorial: dict = field(default_factory=dict)  # i -> exponent of i!
    numeric: dict = field(default_factory=dict)  # float base -> Fraction exponent

    def __post_init__(self):
        # Every check, in order, then one fold into new maps.
        pow2, pow3, pow_pi = (
            _as_exponent(getattr(self, name), name) for name in ("pow2", "pow3", "pow_pi")
        )
        _check_integer_map(self.zeta_pow, 2, "zeta")
        _check_integer_map(self.factorial, 0, "factorial")
        if self.numeric and not all(map(_is_numeric_base, self.numeric)):
            raise InvalidArgumentError(
                f"numeric bases must be positive and finite real numbers, got {list(self.numeric)}"
            )
        factorial = {i: e for i, e in self.factorial.items() if e}
        pow2 += _fold_small_factorials(factorial)
        kept = {}
        for base, e in self.numeric.items():
            e = _as_exponent(e, "numeric")
            smooth = _three_smooth(base)
            if smooth is not None:
                pow2 += smooth[0] * e
                pow3 += smooth[1] * e
            elif e:
                kept[base] = e
        self.__dict__.update(
            pow2=pow2,
            pow3=pow3,
            pow_pi=pow_pi,
            zeta_pow={i: e for i, e in self.zeta_pow.items() if e},
            factorial=factorial,
            numeric=kept,
        )

    @classmethod
    def _trusted(cls, pow2, pow3, pow_pi, zeta_pow, factorial, numeric) -> SymbolicVolume:
        """Wrap fields already in canonical form, with no check or fold.

        A product, quotient or nonzero integer power of canonical instances
        is canonical: exponents stay Fractions, :func:`_merge` drops the
        zeros, and the index sets and numeric bases only merge, so no 0!,
        1!, 2! or exact numeric base can appear.  The volume builders are
        wrapped here by :func:`_formula` alone, which folds their factorial
        maps first.
        """
        obj = object.__new__(cls)
        obj.__dict__.update(
            pow2=pow2, pow3=pow3, pow_pi=pow_pi, zeta_pow=zeta_pow, factorial=factorial, numeric=numeric
        )
        return obj

    # --- algebra ---

    def _combine(self, other, sign: int):
        """``self * other**sign``: the one body of ``*`` (+1) and ``/`` (-1)."""
        if not isinstance(other, SymbolicVolume):
            return NotImplemented
        return SymbolicVolume._trusted(
            _scalar(self.pow2, other.pow2, sign),
            _scalar(self.pow3, other.pow3, sign),
            _scalar(self.pow_pi, other.pow_pi, sign),
            _merge(self.zeta_pow, other.zeta_pow, sign),
            _merge(self.factorial, other.factorial, sign),
            _merge(self.numeric, other.numeric, sign),
        )

    def __mul__(self, other: "SymbolicVolume") -> "SymbolicVolume":
        return self._combine(other, 1)

    def __truediv__(self, other: "SymbolicVolume") -> "SymbolicVolume":
        return self._combine(other, -1)

    def __pow__(self, exp: int) -> "SymbolicVolume":
        if not is_int(exp):
            raise InvalidArgumentError(f"only integer powers of expressions, got {exp!r}")
        exp = int(exp)
        if not exp:
            return SymbolicVolume()
        return SymbolicVolume._trusted(
            self.pow2 * exp,
            self.pow3 * exp,
            self.pow_pi * exp,
            {i: e * exp for i, e in self.zeta_pow.items()},
            {i: e * exp for i, e in self.factorial.items()},
            {b: e * exp for b, e in self.numeric.items()},
        )

    # --- evaluation ---

    def log_value(self) -> float:
        """Natural log: the correctly rounded sum (``math.fsum``) of one term
        per atom, so equal expressions evaluate to equal floats whatever
        order their factors were added in."""
        terms = [
            float(self.pow2) * _LN2,
            float(self.pow3) * _LN3,
            float(self.pow_pi) * _LNPI,
        ]
        # every zeta index is an integer >= 2; log zeta(i) is 0.0 from the cutoff on
        terms += [e * _LOG_ZETA[i - 2] for i, e in self.zeta_pow.items() if i < _ZETA_IS_ONE]
        terms += [
            e * (_LOG_FACTORIAL[i] if i <= _GROWTH_N_MAX else math.lgamma(i + 1.0))
            for i, e in self.factorial.items()
        ]
        terms += [float(e) * math.log(base) for base, e in self.numeric.items()]
        return math.fsum(terms)

    def value(self) -> float:
        """Binary64 value, ``exp(log_value())``: inf only where that
        overflows the double range, 0.0 where it underflows."""
        try:
            return math.exp(self.log_value())
        except OverflowError:
            return math.inf

    # --- pretty printing ---

    @staticmethod
    def _pow_str(base: str, exp: Fraction) -> str:
        if exp == 1:
            return base
        if exp == Fraction(1, 2):
            return f"sqrt({base})"
        if exp.denominator == 1:
            e = exp.numerator
            return f"{base}^{e}" if e >= 0 else f"{base}^({e})"
        return f"{base}^({exp.numerator}/{exp.denominator})"

    def __str__(self) -> str:
        parts = []
        if self.pow2:
            parts.append(self._pow_str("2", self.pow2))
        if self.pow3:
            parts.append(self._pow_str("3", self.pow3))
        if self.pow_pi:
            parts.append(self._pow_str("pi", self.pow_pi))
        for i in sorted(self.factorial):
            e = self.factorial[i]
            parts.append(f"{i}!" if e == 1 else f"({i}!)^{'(%d)' % e if e < 0 else e}")
        for i in sorted(self.zeta_pow):
            e = self.zeta_pow[i]
            parts.append(self._pow_str(f"zeta({i})", Fraction(e)))
        for base in sorted(self.numeric):
            parts.append(self._pow_str(repr(base), self.numeric[base]))
        return " * ".join(parts) if parts else "1"


def _formula(
    den: int,
    pow2: int,
    factorial: dict,
    pow3: Fraction = Fraction(0),
    pow_pi: Fraction = Fraction(0),
    zeta_pow: dict | None = None,
    numeric: dict | None = None,
) -> SymbolicVolume:
    """A builder's formula in canonical form: 2^(pow2/den) times the i! of
    ``factorial``, which 0!, 1! and 2! may enter and which is folded here
    (a 2! adds ``den`` to the integer ``pow2``), and the other exponents,
    already canonical.  Every map is the builder's own and is stored as it
    is, without the constructor's checks."""
    return SymbolicVolume._trusted(
        Fraction(pow2 + den * _fold_small_factorials(factorial), den),
        pow3,
        pow_pi,
        {} if zeta_pow is None else zeta_pow,
        factorial,
        {} if numeric is None else numeric,
    )


def vol_so(n: int) -> SymbolicVolume:
    """Volume of SO(n): 2^((n-1)(n/4+1)) * prod_{i=2}^n pi^(i/2)/Gamma(i/2).

    Normalized so that SO(n) -> S^(n-1) is a Riemannian submersion after a
    1/sqrt(2) rescale, whence the recursion
    vol(SO(n)) = 2^((n-1)/2) vol(S^(n-1)) vol(SO(n-1)) that the closed
    form must reproduce exactly (tested symbolically).
    """
    n = as_count(n, "n", least=1)
    gamma_fact, gamma_pow2, half_pi = _inverse_gamma_half_product(n)
    return _formula(
        4, (n - 1) * (n + 4) + 4 * gamma_pow2, gamma_fact, pow_pi=Fraction(n * n + n - 2 + 2 * half_pi, 4)
    )


def signed_perm_order(n: int) -> int:
    """Order of the signed permutation matrices of determinant +1: 2^(n-1) n!."""
    n = as_count(n, "n", least=1)
    return 2 ** (n - 1) * math.factorial(n)


def vol_siegel(n: int, p: SiegelParams = MINIMAL_PARAMS) -> SymbolicVolume:
    """Volume of the Siegel set:
    (1/2) vol(SO(n)) (2 lam)^(n(n-1)/2) t^(n(n^2-1)/6) / ((n-1)!)^2.

    The t-power is read as (t^2)^(n(n^2-1)/12) from the exact ``p.t2`` and
    the lam-power from the exact float ``lam``.  A factor whose exact value
    is a product of powers of 2 and 3 folds into those, so at the canonical
    parameters (t^2 = 4/3, lam = 1/2) the volume is exact; any other enters
    as a labeled numeric factor, 2 lam or t, with an exact exponent.  The
    factorisations of 2 lam and t^2 are taken once, by
    :class:`~siegel.iwasawa.SiegelParams`; like the other builders, this one
    writes the exponent maps of the formula, with the terms of
    :func:`vol_so` inlined.
    """
    n = as_count(n, "n", least=2)
    fact, gamma_pow2, half_pi = _inverse_gamma_half_product(n)
    fact[n - 1] = fact.get(n - 1, 0) - 2
    lam_e, t2_e = 6 * n * (n - 1), n * (n * n - 1)  # 12 times the exponents of 2 lam and t^2
    # twelve times the power of 2 in vol_so(n) and in the 1/2
    pow2 = 3 * (n - 1) * (n + 4) + 12 * gamma_pow2 - 12
    pow3, numeric = 0, {}
    if p._lam2_smooth is not None:
        pow2 += p._lam2_smooth[0] * lam_e
        pow3 += p._lam2_smooth[1] * lam_e
    elif 2.0 * p.lam == math.inf:
        raise InvalidArgumentError(f"numeric bases must be positive and finite, got {2.0 * p.lam}")
    else:
        numeric[2.0 * p.lam] = Fraction(lam_e, 12)
    if p._t2_smooth is not None:
        pow2 += p._t2_smooth[0] * t2_e
        pow3 += p._t2_smooth[1] * t2_e
    else:
        # a t2 that is not 3-smooth is the square of the float t, as
        # SiegelParams states every other set
        numeric[p.t] = numeric.get(p.t, 0) + Fraction(t2_e, 6)
    return _formula(
        12,
        pow2,
        fact,
        pow3=Fraction(pow3, 12),
        pow_pi=Fraction(n * n + n - 2 + 2 * half_pi, 4),
        numeric=numeric,
    )


def vol_quotient(n: int) -> SymbolicVolume:
    """Covolume of SL(n,Z) in SL(n,R):
    sqrt(2) * prod_{i=2}^n zeta(i) * prod_{i=1}^{n-1} 1/(2^(i-1) i!).

    The base case evaluates to sqrt(2) zeta(2).  See
    :func:`compare_quotient_forms` for the (inequivalent) fully-simplified
    variant that drops a factor n!.
    """
    n = as_count(n, "n", least=2)
    fact = dict.fromkeys(range(1, n), -1)
    return _formula(2, 1 - (n - 1) * (n - 2), fact, zeta_pow=dict.fromkeys(range(2, n + 1), 1))


def vol_quotient_rightmost(n: int) -> SymbolicVolume:
    """Fully-simplified covolume variant:
    prod zeta(i) / (2^((n^2-3n+1)/2) prod_{i=2}^n i!).

    Differs from :func:`vol_quotient` by exactly 1/n!; kept as a labeled
    alternative for the dual-evaluation check, never used as the value.
    """
    n = as_count(n, "n", least=2)
    fact = dict.fromkeys(range(2, n + 1), -1)
    return _formula(2, 3 * n - n * n - 1, fact, zeta_pow=dict.fromkeys(range(2, n + 1), 1))


def ratio_C(n: int) -> SymbolicVolume:
    """Ratio vol(Siegel set, canonical params) / vol(SL(n,Z)\\SL(n,R)).

    Computed as the direct symbolic quotient; the published simplification
    is evaluated separately in :func:`compare_ratio_forms` only.
    """
    return vol_siegel(n, MINIMAL_PARAMS) / vol_quotient(n)


def ratio_C_display(n: int) -> SymbolicVolume:
    """The displayed single-formula simplification of the same ratio.

    2^((2n^3+9n^2+25n-30)/12) pi^((n^2+n-2)/4) prod_{i=1}^{n-1} i! /
    (3^((n^3-n)/12) ((n-1)!)^2 prod_{i=2}^n Gamma(i/2) zeta(i)).
    Disagrees with the direct quotient by 2^(3n-1); kept for the check.
    """
    n = as_count(n, "n", least=2)
    gamma_fact, gamma_pow2, half_pi = _inverse_gamma_half_product(n)
    fact = dict.fromkeys(range(1, n), 1)
    fact[n - 1] -= 2
    return _formula(
        12,
        2 * n**3 + 9 * n**2 + 25 * n - 30 + 12 * gamma_pow2,
        _merge(fact, gamma_fact, 1),
        pow3=Fraction(n - n**3, 12),
        pow_pi=Fraction(n * n + n - 2 + 2 * half_pi, 4),
        zeta_pow=dict.fromkeys(range(2, n + 1), -1),
    )


def vol_symmetric_space(n: int) -> SymbolicVolume:
    """Covolume of SL(n,Z) acting on SL(n,R)/SO(n): vol_quotient / vol_so."""
    return vol_quotient(n) / vol_so(n)


def harder_tau(n: int) -> int:
    """Parity constant in the canonical-normalization covolume: n odd -> n,
    n even -> n-1."""
    n = as_count(n, "n", least=2)
    return n if n % 2 == 1 else n - 1


def harder_volume(n: int) -> SymbolicVolume:
    """Covolume of the symmetric-space quotient in the canonical (Killing
    form) normalization:
    prod_{i=1}^{n-1} i! * prod_{i=2}^n zeta(i) / ((2 pi)^(n(n+3)/2) 2^tau n!).
    """
    n = as_count(n, "n", least=2)
    e = n * (n + 3)
    fact = dict.fromkeys(range(1, n), 1)
    fact[n] = -1
    return _formula(
        2,
        -e - 2 * harder_tau(n),
        fact,
        pow_pi=Fraction(-e, 2),
        zeta_pow=dict.fromkeys(range(2, n + 1), 1),
    )


def normalization_ratio(n: int) -> SymbolicVolume:
    """Conversion factor between the two symmetric-space normalizations,
    computed as the direct quotient harder_volume / vol_symmetric_space."""
    return harder_volume(n) / vol_symmetric_space(n)


def normalization_ratio_display(n: int) -> SymbolicVolume:
    """The displayed simplification of the same conversion factor:
    2^((n^2-5n-2)/4 - tau) (prod_{i=1}^{n-1} i!)^2 /
    (n! pi^((n^2+5n+2)/4) prod_{i=2}^n Gamma(i/2)).
    Disagrees with the direct quotient by 2^n; kept for the check."""
    n = as_count(n, "n", least=2)
    gamma_fact, gamma_pow2, half_pi = _inverse_gamma_half_product(n)
    fact = dict.fromkeys(range(1, n), 2)
    fact[n] = -1
    return _formula(
        4,
        n * n - 5 * n - 2 + 4 * (gamma_pow2 - harder_tau(n)),
        _merge(fact, gamma_fact, 1),
        pow_pi=Fraction(2 * half_pi - n * n - 5 * n - 2, 4),
    )


@dataclass(frozen=True)
class FormulaComparison:
    """Dual evaluation of a structural expression vs its published
    simplification.  ``agrees`` uses a 1e-9 relative log criterion; a
    mismatch is a documented discrepancy, not an error."""

    label: str
    log_direct: float
    log_displayed: float
    log_mismatch: float
    agrees: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def _compare(label: str, direct: SymbolicVolume, displayed: SymbolicVolume) -> FormulaComparison:
    ld, lp = direct.log_value(), displayed.log_value()
    mismatch = lp - ld
    agrees = abs(mismatch) <= 1e-9 * max(1.0, abs(ld))
    return FormulaComparison(label, ld, lp, mismatch, agrees)


def compare_quotient_forms(n: int) -> FormulaComparison:
    """Structural covolume vs its fully-simplified variant (differs by n!)."""
    return _compare("covolume_forms", vol_quotient(n), vol_quotient_rightmost(n))


def compare_ratio_forms(n: int) -> FormulaComparison:
    """Direct Siegel/covolume ratio vs its displayed simplification
    (differs by 2^(3n-1))."""
    return _compare("siegel_ratio_forms", ratio_C(n), ratio_C_display(n))


def compare_normalization_forms(n: int) -> FormulaComparison:
    """Direct normalization conversion vs its displayed simplification
    (differs by 2^n)."""
    return _compare(
        "normalization_forms", normalization_ratio(n), normalization_ratio_display(n)
    )


@dataclass(frozen=True)
class GrowthRow:
    """One row of the growth table (all natural logs)."""

    n: int
    log_vol_siegel: float
    log_vol_quotient: float
    log_C: float
    log_height_bound: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def growth_table(n_max: int) -> list[GrowthRow]:
    """Log-space growth data for n = 2..n_max (canonical Siegel parameters
    t = 2/sqrt(3), lam = 1/2), as a vectorised closed form.

    With G(n) = sum_{i=2}^n lgamma(i/2), F(n) = sum_{i=2}^n lgamma(i) and
    Z(n) = sum_{i=2}^n log zeta(i), the docstrings of :func:`vol_so`,
    :func:`vol_siegel` and :func:`vol_quotient` give

        log vol_siegel   = (2n^3 + 3n^2 + 7n - 24)/12 log 2 - (n^3 - n)/12 log 3
                           + (n^2 + n - 2)/4 log pi - G(n) - 2 lgamma(n)
        log vol_quotient = (1 - (n-1)(n-2))/2 log 2 + Z(n) - F(n)
        log_C            = log vol_siegel - log vol_quotient

    The exponents are exact integers and the three sums are numpy cumulative
    sums, so the table is O(n_max) and builds no :class:`SymbolicVolume`.
    """
    if as_count(n_max, "n_max", least=2) > _GROWTH_N_MAX:
        raise InvalidArgumentError(f"n_max must be in [2, {_GROWTH_N_MAX}]")
    n = np.arange(2, n_max + 1, dtype=np.int64)
    # lgamma(k) = log (k-1)! for k = 2..n_max
    lgamma_n = np.array(_LOG_FACTORIAL[1:n_max])
    lgamma_half = np.array([math.lgamma(i / 2.0) for i in range(2, n_max + 1)])
    log_zeta = np.zeros(n_max - 1)
    log_zeta[: len(_LOG_ZETA)] = _LOG_ZETA[: n_max - 1]
    log_sie = (
        (2 * n**3 + 3 * n**2 + 7 * n - 24) * _LN2
        - (n**3 - n) * _LN3
        + 3 * (n * n + n - 2) * _LNPI
    ) / 12.0 - np.cumsum(lgamma_half) - 2.0 * lgamma_n
    log_quo = (1 - (n - 1) * (n - 2)) * (_LN2 / 2.0) + np.cumsum(log_zeta) - np.cumsum(lgamma_n)
    log_height = (n * n - 1) / 2.0 * np.log(n)
    columns = (n, log_sie, log_quo, log_sie - log_quo, log_height)
    return [GrowthRow(*row) for row in zip(*(c.tolist() for c in columns))]


_GROWTH_FIELDS = tuple(f.name for f in fields(GrowthRow))
GROWTH_CSV_HEADER = ",".join(_GROWTH_FIELDS)


def growth_table_csv(rows: list[GrowthRow]) -> str:
    """CSV of the :class:`GrowthRow` fields, each with 17 significant digits
    (binary64 round-trip exact; the integer ``n`` prints as itself)."""
    lines = [GROWTH_CSV_HEADER]
    for r in rows:
        lines.append(",".join("%.17g" % getattr(r, name) for name in _GROWTH_FIELDS))
    return "\n".join(lines) + "\n"
