"""Iwasawa coordinates on SL(n,R) and Siegel-set membership.

Every ``g`` in SL(n,R) factors uniquely as ``g = k @ diag(a) @ u`` with
``k`` special orthogonal, ``a`` a positive vector of product 1 and ``u``
unit upper triangular (orthonormalize the columns of ``g`` left to right;
the three groups intersect trivially, so the factors are unique).  The
successive ratios ``b[i] = a[i] / a[i+1]`` are the natural coordinates on
the diagonal part: the Siegel set with parameters ``(t, lam)`` is the set
of ``g`` whose factors satisfy ``b[i] <= t`` and ``|u[i, j]| <= lam``.
The product ``k @ diag(a) @ u`` itself is formed in one place,
``_group_elements_from_a``, for the factors here and for the coordinate
points of :mod:`siegel.haar`.

Only :func:`decompose` forms ``k``.  Membership, the reduction and the
inequality chain read ``(a, u)`` alone, so they share one private kernel:
an R-only QR of a stack, with the singular-pivot guard and the
positive-diagonal sign fix applied once, equal bit for bit to the ``a``
and ``u`` of :func:`decompose`.  The reduction, whose loop runs on Python
scalars, reads the same LAPACK factor of one matrix straight into Python
lists, with the same guard, the same sign fix and the same bits.  The det
and condition guard reads one raw Householder QR of a whole stack: the
determinant from its pivots and reflectors, and a condition bound from the
squared column norms that clears most matrices; only those it cannot clear
share one singular-value call.  Checked membership reads its coordinates
from that same QR, and the reduction's presort makes it of its
norm-ordered copy, whose coordinates start the reduction: one
factorization per checked basis.

The mirror order ``g = u @ diag(a) @ k`` (unipotent part on the left) has
no function of its own: with ``J`` the reversal matrix, its ``a`` is the
reversed ``a`` of the anti-transpose ``J @ g.T @ J``.  The two orders do
NOT share (a, u) in general, so the two membership predicates differ.
Membership tests in this package always use the k-left factors; the
u-left diagonal feeds the inequality chain in :mod:`siegel.intersections`.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain

import numpy as np

from .errors import (
    InvalidArgumentError,
    NonInvertibleError,
    NotUnimodularError,
    ToleranceNotMetError,
)

# Numerical guards, sized for binary64 at n <= 50.
DET_TOL = 1e-9
SINGULAR_TOL = 1e-12
COND_MAX = 1e12
# The SVD-free clearance of _check_group_element: its condition bound must
# sit this factor under COND_MAX, its determinant error bound under this
# share of |det|.
_COND_MARGIN = 10.0
_DET_SLACK = 0.1

MEMBERSHIP_INSIDE = "inside"
MEMBERSHIP_OUTSIDE = "outside"
MEMBERSHIP_BOUNDARY = "boundary"


def _is_real(value) -> bool:
    """The type test of the real-number rule: a real number and not a bool
    (a string or a complex number is not one)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_tolerance(tol, name: str) -> None:
    """The tolerance rule: a real number by :func:`_is_real`, finite and >= 0."""
    if not (_is_real(tol) and 0 <= tol < math.inf):
        raise InvalidArgumentError(f"{name} must be a finite real number >= 0, got {tol!r}")


def _siegel_bound(value, name: str) -> float:
    """A Siegel parameter, or the ``t`` of an integrator, by the real-number
    rule: a real number by :func:`_is_real`, positive and finite as a
    float."""
    if _is_real(value):
        try:
            bound = float(value)
        except OverflowError:
            bound = math.inf
        if 0 < bound < math.inf:
            return bound
    raise InvalidArgumentError(
        f"Siegel parameter {name} must be a positive finite real number, got {value!r}"
    )


def _finite_exp(log_value: float, what: str) -> float:
    """``math.exp(log_value)``, the one step from a log-space result into a
    float: :class:`ToleranceNotMetError`, naming ``what``, where the value
    overflows or underflows to 0."""
    try:
        value = math.exp(log_value)
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise ToleranceNotMetError(f"{what} is {value} in float (log {log_value:.6g}); use log space")
    return value


def _three_smooth(x) -> tuple[int, int] | None:
    """``(a, b)`` with ``x == 2**a * 3**b`` exactly, or None when the exact
    value of the positive number ``x`` (a rational or a binary float) is no
    such product."""
    exact = Fraction(x if isinstance(x, (float, numbers.Rational)) else float(x))
    exps = []
    for part in (exact.numerator, exact.denominator):
        twos = (part & -part).bit_length() - 1
        part >>= twos
        threes = 0
        while part % 3 == 0:
            part //= 3
            threes += 1
        if part != 1:
            return None
        exps.append((twos, threes))
    (a, b), (c, d) = exps
    return a - c, b - d


@dataclass(frozen=True, init=False)
class SiegelParams:
    """Siegel-set parameters: ``b[i] <= t`` and ``|u[i, j]| <= lam``.

    The set is stated exactly by ``t2``, the square of the ratio bound as a
    Fraction, and ``lam``, a float and so exact; ``t`` is the float every
    predicate reads.  ``SiegelParams(t, lam)`` takes real numbers (not
    bools), positive and finite as floats, stores the float ``t`` it is
    given and states ``t2 = Fraction(t)**2``.  The canonical set, whose
    ``t2`` is 4/3 and so the square of no float, is stated by
    :meth:`_canonical` alone: its ``t`` is 2/sqrt(3) rounded, the least
    float whose square is >= 4/3, so the float predicate ``b <= t`` admits
    a sliver of ``b`` above the exact bound, by less than one ulp of ``t``.

    The exact factorisations ``2**a * 3**b`` of ``2 lam`` and of ``t2`` (by
    :func:`_three_smooth`, None where there is none) are taken once here,
    for the Siegel-set volume to read.
    """

    t: float
    lam: float
    t2: Fraction
    _lam2_smooth: tuple[int, int] | None = field(repr=False, compare=False)
    _t2_smooth: tuple[int, int] | None = field(repr=False, compare=False)

    def __init__(self, t, lam):
        t = _siegel_bound(t, "t")
        self._state(t, Fraction(t) ** 2, _siegel_bound(lam, "lam"))

    @classmethod
    def _canonical(cls, lam) -> SiegelParams:
        """The canonical ratio bound, t^2 = 4/3 exactly, with ``lam`` held
        to the rule of the constructor."""
        params = object.__new__(cls)
        params._state(2.0 / math.sqrt(3.0), Fraction(4, 3), _siegel_bound(lam, "lam"))
        return params

    def _state(self, t: float, t2: Fraction, lam: float) -> None:
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "t2", t2)
        object.__setattr__(self, "_lam2_smooth", _three_smooth(2 * Fraction(lam)))
        object.__setattr__(self, "_t2_smooth", _three_smooth(t2))


#: Smallest parameters for which the Siegel set still covers SL(n,R)
#: under right multiplication by SL(n,Z): the canonical t^2 = 4/3 (t the
#: float 2/sqrt(3)) and lam = 1/2.
MINIMAL_PARAMS = SiegelParams._canonical(0.5)


def _real_array(g) -> np.ndarray:
    """``g`` as a float array of real entries, ragged nesting, complex numbers
    and strings raising :class:`InvalidArgumentError` (numpy would take the
    real part with a warning, parse ``"2"`` as 2.0, or fail without saying
    why); a float ndarray is returned as it is."""
    if type(g) is np.ndarray and g.dtype == np.float64:
        return g
    try:
        arr = np.asarray(g)
    except ValueError as exc:
        raise InvalidArgumentError(f"matrix entries do not form a regular array: {exc}") from None
    if arr.dtype.kind == "O" and all(isinstance(x, numbers.Real) for x in arr.flat):
        return arr.astype(float)
    if arr.dtype.kind not in "biuf":
        raise InvalidArgumentError(f"matrix entries must be real numbers, got dtype {arr.dtype}")
    return arr.astype(float, copy=False)


def _square_matrices(arr: np.ndarray, ndim: int) -> np.ndarray:
    """``arr``, a real array by :func:`_real_array`, held to the one rule of
    both matrix readers: ``ndim`` axes, the last two square of dimension
    n >= 2, every entry finite."""
    if arr.ndim != ndim or arr.shape[-1] != arr.shape[-2] or arr.shape[-1] < 2:
        what = "a square matrix" if ndim == 2 else "a stack of square matrices"
        raise InvalidArgumentError(f"expected {what} of dimension >= 2, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidArgumentError("matrix entries must be finite")
    return arr


def as_square_matrix(g) -> np.ndarray:
    """Validate and return ``g`` as an (n, n) float array with finite entries."""
    return _square_matrices(_real_array(g), 2)


def as_matrix_stack(g) -> np.ndarray:
    """Validate ``g`` as an (m, n, n) float stack with finite entries; a
    single (n, n) matrix is returned as the stack of one."""
    arr = _real_array(g)
    return _square_matrices(arr, 3) if arr.ndim == 3 else _square_matrices(arr, 2)[None]


def is_int(value) -> bool:
    """The package's integer rule: a Python or numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def as_count(value, name: str, least: int = 0) -> int:
    """Validate ``value`` as an integer >= ``least`` by :func:`is_int` (a
    bool or a float is not one); the one input rule for every dimension,
    size and budget."""
    if not is_int(value) or value < least:
        raise InvalidArgumentError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def _exact_floats(rows) -> np.ndarray:
    """Float copy of the integer matrix ``rows``; an entry of 2**53 or more
    in magnitude, from where not every integer is a float, raises
    :class:`NonInvertibleError` rather than round."""
    if max(map(abs, chain.from_iterable(rows))) >= 2**53:
        raise NonInvertibleError("integer matrix entry exceeds 2**53, beyond exact float")
    return np.array(rows, dtype=float)


@dataclass(frozen=True)
class UnimodularIntMatrix:
    """Element of SL(n,Z): exact integer entries, determinant exactly +1.

    ``entries`` may be any square nested sequence of integers by
    :func:`is_int` (a float, a string or a bool is not one); it is stored
    as a tuple of tuples of Python ints.
    """

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if n < 1 or any(len(row) != n for row in self.entries):
            raise InvalidArgumentError("entries must form a square matrix")
        if not all(is_int(x) for row in self.entries for x in row):
            raise InvalidArgumentError(f"entries must be integers, got {self.entries!r}")
        object.__setattr__(
            self, "entries", tuple(tuple(int(x) for x in row) for row in self.entries)
        )
        if self.det() != 1:
            raise NotUnimodularError(f"determinant is {self.det()}, must be +1")

    @classmethod
    def _trusted(cls, rows: list[list[int]]) -> UnimodularIntMatrix:
        """Wrap rows of Python ints already proved to have determinant +1,
        with no conversion or check.  Each caller states its proof: a
        product of exact det +1 moves (:func:`siegel.reduction.siegel_reduce`)
        or a cofactor expansion equal to 1
        (:func:`siegel.intersections.sl_candidates`)."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "entries", tuple(map(tuple, rows)))
        return obj

    @property
    def n(self) -> int:
        return len(self.entries)

    def det(self) -> int:
        return _bareiss_det([list(r) for r in self.entries])

    def to_array(self) -> np.ndarray:
        """The float matrix; :class:`NonInvertibleError` where an entry is
        not exact in float (by :func:`_exact_floats`)."""
        return _exact_floats(self.entries)

    def height(self) -> int:
        return max(abs(x) for row in self.entries for x in row)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "entries": [str(x) for row in self.entries for x in row],
        }


def matrix_to_json_dict(g: np.ndarray) -> dict:
    g = np.asarray(g, dtype=float)
    return {"n": int(g.shape[0]), "entries": [float(x) for x in g.ravel()]}


def matrix_from_json_dict(obj: dict) -> np.ndarray:
    """The (n, n) float matrix of ``{"n": n, "entries": [...]}``, entries
    row-major; ``n`` is held to :func:`as_count` and the entries to the
    real-number rule of every matrix argument.  A document that is not an
    object, or lacks ``n`` or ``entries``, raises
    :class:`InvalidArgumentError`."""
    if not isinstance(obj, dict):
        raise InvalidArgumentError(f"a matrix document must be an object, got {type(obj).__name__}")
    missing = sorted({"n", "entries"} - obj.keys())
    if missing:
        raise InvalidArgumentError(f"a matrix document needs n and entries, missing {missing}")
    n = as_count(obj["n"], "n", least=2)
    flat = _real_array(obj["entries"])
    if flat.size != n * n:
        raise InvalidArgumentError("entries length does not match n*n")
    return flat.reshape(n, n)


def b_from_a(a: np.ndarray) -> np.ndarray:
    """Successive ratios ``b[i] = a[i] / a[i+1]`` (row-wise on a stack)."""
    a = np.asarray(a, dtype=float)
    return a[..., :-1] / a[..., 1:]


def a_from_b(b: np.ndarray) -> np.ndarray:
    """Invert :func:`b_from_a` under the constraint ``prod(a) == 1``.

    ``a[i] = a[n-1] * prod(b[i:])`` and ``a[n-1] = prod(b[l]**(l+1)) ** (-1/n)``
    (exponent ``l+1`` counts how many a-entries each ratio touches).  Works
    row-wise on an (m, n-1) stack, and every row equals the 1-d result bit
    for bit.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[-1] + 1
    log_b = np.log(b)
    log_an = -(log_b * np.arange(1, n)).sum(axis=-1, keepdims=True) / n
    # log a[i] = log a[n-1] + sum of log b[i:], and log a[n-1] + 0.0 for i = n-1
    log_a = np.zeros(b.shape[:-1] + (n,))
    log_a[..., :-1] = np.cumsum(log_b[..., ::-1], axis=-1)[..., ::-1]
    log_a += log_an
    return np.exp(log_a, out=log_a)


def _group_elements_from_a(k, a, u) -> np.ndarray:
    """``k @ diag(a) @ u`` for the diagonal ``a`` (..., n) itself, the one
    product of the three factors; ``k`` and ``u`` (..., n, n) and ``a``
    broadcast, so a stack in any of them gives a stack of elements."""
    return k @ (a[..., None] * u)


@dataclass(frozen=True)
class IwasawaFactors:
    """Factors of ``g = k @ diag(a) @ u`` (k-left order).

    ``u`` is stored as the full unit upper triangular matrix; its strict
    upper entries are the free coordinates.
    """

    k: np.ndarray
    a: np.ndarray
    u: np.ndarray

    @property
    def n(self) -> int:
        return self.a.size

    @property
    def b(self) -> np.ndarray:
        return b_from_a(self.a)

    def reconstruct(self) -> np.ndarray:
        return _group_elements_from_a(self.k, self.a, self.u)

    def max_errors(self, source: np.ndarray) -> dict:
        """Invariant residuals: orthogonality, det(k), prod(a), reconstruction
        of ``source``."""
        n = self.n
        return {
            "ortho": float(np.max(np.abs(self.k.T @ self.k - np.eye(n)))),
            "det_k": float(abs(np.linalg.det(self.k) - 1.0)),
            "prod_a": float(abs(np.prod(self.a) - 1.0)),
            "recon": float(np.max(np.abs(self.reconstruct() - source))),
        }


@np.errstate(over="ignore")
def _squared_column_norms(g: np.ndarray) -> np.ndarray:
    """``(g * g).sum(axis=-2)``: a square that overflows gives inf, without
    a warning."""
    return (g * g).sum(axis=-2)


def _check_group_element(g: np.ndarray, raw: tuple | None = None) -> None:
    """Raise for the first matrix of ``g``, one (n, n) matrix or an (m, n, n)
    stack, whose determinant is not 1 within ``DET_TOL`` or whose 2-norm
    condition number exceeds ``COND_MAX``, by :func:`_check_factored` on
    ``raw``, the raw Householder QR ``(h, tau)`` of the stack, made here
    when not given."""
    n = g.shape[-1]
    stack = g.reshape(-1, n, n)
    h, tau = np.linalg.qr(stack, mode="raw") if raw is None else raw
    pivots = np.diagonal(h, axis1=-2, axis2=-1).tolist()
    _check_factored(stack, pivots, tau.tolist(), _squared_column_norms(stack).tolist())


def _checked_rows(g: np.ndarray, moved: np.ndarray, norms: list[float]) -> list[list[float]]:
    """The rows of ``R`` of one raw QR of ``moved``, the (n, n) matrix ``g``
    with its columns put in another order and some negated (the reduction's
    presort), after :func:`_check_factored` of ``g`` on that factor;
    ``norms`` are the squared column norms of ``moved``.  The move keeps the
    determinant and the singular values, so the check decides for ``g``,
    and a singular-value call, where one is needed, is of ``g`` itself."""
    h, tau = np.linalg.qr(moved, mode="raw")
    rows = h.T.tolist()
    _check_factored(g[None], [[row[i] for i, row in enumerate(rows)]], [tau.tolist()], [norms])
    return rows


def _householder_det(pivots: list[float], tau: list[float]) -> float:
    """The determinant ``(-1)**k * prod(pivots)`` of a matrix from its raw
    Householder QR: ``pivots`` the diagonal of ``R``, ``tau`` the reflector
    scalars and ``k`` the count of nonzero ones.  Under LAPACK's dgeqrf
    convention ``tau = 0`` exactly where the reflector is the identity, and
    every other reflector has determinant -1.

    The mantissas are multiplied apart from the exponents, so no partial
    product leaves the normal range: each step rounds as ``math.prod``
    does where its partial products stay normal, and only the result is
    rounded once more, where it is subnormal.  An exponent past the float
    range gives an infinite determinant."""
    mant, exp = 1.0, 0
    for p in pivots:
        f, e = math.frexp(p)
        mant, k = math.frexp(mant * f)
        exp += e + k
    try:
        d = math.ldexp(mant, exp)
    except OverflowError:
        d = math.copysign(math.inf, mant)
    return -d if (len(tau) - tau.count(0.0)) % 2 else d


def _check_factored(
    stack: np.ndarray, pivots: list[list[float]], taus: list[list[float]],
    norms: list[list[float]],
) -> None:
    """Raise for the first matrix of the (m, n, n) ``stack`` whose
    determinant is not 1 within ``DET_TOL`` or whose 2-norm condition number
    exceeds ``COND_MAX``; a matrix's determinant is checked before its
    condition.  Each matrix is read from one raw Householder QR of it, or of
    it with its columns moved by a signed permutation of determinant +1:
    ``pivots`` the diagonal of ``R``, ``taus`` the reflector scalars, and
    ``norms`` the squared column norms ``c`` in the factor's column order,
    one list of n floats per matrix.

    The determinant ``d`` is :func:`_householder_det` of the factor.  After
    Higham (Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    Thm. 19.4) the computed ``R`` is the exact factor of ``g + E``, ``Q``
    exactly orthogonal, with every column of ``E`` within ``gt sqrt(c_j)``
    in 2-norm, ``gt = C n**2 u / (1 - C n**2 u)``, ``u = eps / 2`` and ``C``
    a small constant: the condition number does not enter, and unlike the
    LU of partial pivoting there is no growth factor.  By multilinearity
    and Hadamard's inequality ``|det(g + E) - det g| <= ((1 + gt)**n - 1)
    sqrt(prod(c))``, about ``C n**3 u sqrt(prod(c))``, and the n - 1
    products of the pivots add ``(n - 1) u |d|``, with ``|d|`` at most about
    ``sqrt(prod(c))`` by Hadamard again; the product keeps its exponent
    apart, so no partial product underflows or overflows on the way.  So
    ``n**4 eps sqrt(prod(c))``, that is ``2 n**4 u sqrt(prod(c))``, bounds
    the error of ``d`` for any constant ``C`` up to ``2 n - 1``.

    A matrix whose determinant passes is cleared of the condition check
    without a singular-value call when its column norms certify it.
    Guggenheimer, Edelman and Johnson (College Math. J. 26, 1995) bound
    ``cond(B) < 2 / |det B|`` for ``B`` with unit columns; with
    ``B = g D^-1``, ``D = diag(sqrt(c))``, and ``cond(g) <= cond(B) cond(D)``
    this gives::

        cond(g) < 2 sqrt(prod(c) max(c) / min(c)) / |det g|

    A matrix is cleared when

    * the cap ``n**4 eps sqrt(prod(c)) <= _DET_SLACK |d|`` holds, so
      ``|det g| >= 0.9 |d|``, with room for the rounding of ``c``;
    * the bound with ``d`` is at most ``COND_MAX / _COND_MARGIN``; the
      margin covers the 1/0.9 of the determinant and the singular values'
      own error, so their ratio would not exceed ``COND_MAX`` either;
    * ``prod(c)`` is finite and at least 1/2.  Hadamard gives
      ``prod(c) >= det**2``, near 1, so less means that the product
      underflowed.  A partial product that went subnormal and came back to
      1/2 needs ``max(c) / min(c) >= 2**(4 * 1021 / n - 1)``, which the
      bound refuses at n < 56 and a check of that spread refuses beyond.

    Every other matrix before the first failing determinant takes the
    singular values of the matrix itself, in one call on their sub-stack,
    and the first of them whose ratio exceeds ``COND_MAX`` raises; the
    determinant error is raised only after them.  So the raise and its
    message are those of a determinant and singular-value check of every
    matrix in stack order.
    """
    n = stack.shape[-1]
    qr_scale = n**4 * sys.float_info.epsilon
    cond_limit = min(COND_MAX, sys.float_info.max) / _COND_MARGIN
    spread_max = 2.0 ** min(4 * 1021 / n - 1, 1023)
    # the checks run on Python floats: on one small matrix, numpy scalar
    # operations cost about as much as the LAPACK calls
    unsure, bad_det = [], None
    for i, (p, tau, c) in enumerate(zip(pivots, taus, norms)):
        d = _householder_det(p, tau)
        if abs(d - 1.0) > DET_TOL:
            bad_det = d
            break
        prod, hi, lo = math.prod(c), max(c), min(c)
        if not (
            0.5 <= prod < math.inf
            and qr_scale * math.sqrt(prod) <= _DET_SLACK * abs(d)
            and 2.0 * math.sqrt(prod * hi / lo) <= cond_limit * abs(d)
            and hi < spread_max * lo
        ):
            unsure.append(i)
    if unsure:
        for s0, *_, s1 in np.linalg.svd(stack[unsure], compute_uv=False).tolist():
            # the ratio np.linalg.cond takes; an exactly singular matrix gives inf
            cond = s0 / s1 if s1 else math.inf
            if not math.isfinite(cond) or cond > COND_MAX:
                raise NonInvertibleError(f"condition number {cond:.3e} exceeds {COND_MAX:.1e}")
    if bad_det is not None:
        raise NotUnimodularError(f"det(g) = {bad_det!r}, expected 1 within {DET_TOL}")


def _factors_from_r(r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(sign, a, u)`` with ``r = diag(sign * a) @ u``, for one QR factor
    ``r`` or an (m, n, n) stack of them.

    ``a`` is positive and ``u`` unit upper triangular, with an exact unit
    diagonal and zero lower triangle independent of rounding.  A pivot
    below ``SINGULAR_TOL`` raises :class:`NonInvertibleError`.
    """
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    a = np.abs(diag)
    if a.size and a.min() < SINGULAR_TOL:
        raise NonInvertibleError(f"column pivot {a.min():.3e} below {SINGULAR_TOL:.1e}")
    # the sign fix: row i over its signed pivot is (sign * r) / a bit for
    # bit, x / x is exactly 1.0, and adding +0.0 turns every -0.0 (the zeros
    # below a negative pivot among them) into +0.0; r is already triangular
    return diag / a, a, r / diag[..., :, None] + 0.0


def _siegel_coordinates(stack: np.ndarray, check: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """``a`` (m, n) and ``u`` (m, n, n) of every matrix of a validated
    (m, n, n) stack, from one raw QR; ``k`` is never formed.  Each row
    equals the ``a`` and ``u`` of :func:`decompose` bit for bit.  With
    ``check``, :func:`_check_group_element` reads that same QR first."""
    raw = np.linalg.qr(stack, mode="raw")
    if check:
        _check_group_element(stack, raw)
    # numpy's mode="r" is this triu of the same LAPACK factor, bit for bit
    _, a, u = _factors_from_r(np.triu(raw[0].swapaxes(-1, -2)))
    return a, u


def _factor_rows(g: np.ndarray) -> list[list[float]]:
    """The rows of the LAPACK factor of one raw QR of the validated (n, n)
    matrix ``g``, as Python float lists: row i holds ``R[i, j]`` for j >= i
    (the entries left of the diagonal are reflector data no reader reads)."""
    return np.linalg.qr(g, mode="raw")[0].T.tolist()


def _pivot_moduli(rows: list[list[float]]) -> list[float]:
    """``a`` of the factor with rows ``rows``, by :func:`_factor_rows`, with
    the pivot guard of :func:`_factors_from_r`."""
    a = [abs(row[i]) for i, row in enumerate(rows)]
    if min(a) < SINGULAR_TOL:
        raise NonInvertibleError(f"column pivot {min(a):.3e} below {SINGULAR_TOL:.1e}")
    return a


def _unit_rows(rows: list[list[float]]) -> list[list[float]]:
    """The rows of ``u`` of the factor with rows ``rows``, each entry the one
    rounded division of :func:`_factors_from_r`, so bit for bit its ``u``."""
    # x / x is exactly 1.0 and the strict lower triangle is exactly 0.0, so
    # both are written as constants; + 0.0 turns -0.0 into +0.0
    u = []
    for i, row in enumerate(rows):
        p = row[i]
        u.append([0.0] * i + [1.0] + [x / p + 0.0 for x in row[i + 1:]])
    return u


def _coordinate_lists(g: np.ndarray) -> tuple[list[float], list[list[float]]]:
    """``a`` and the rows of ``u`` of one validated (n, n) matrix as Python
    float lists, equal bit for bit to the ``a`` and ``u`` of
    :func:`_siegel_coordinates`: the same LAPACK factor, read without the
    array passes."""
    rows = _factor_rows(g)
    return _pivot_moduli(rows), _unit_rows(rows)


def decompose(g, *, check: bool = True) -> IwasawaFactors:
    """Factor ``g = k @ diag(a) @ u`` by orthonormalizing the columns of g.

    Computed with a Householder QR and a positive-diagonal sign fix, which
    yields exactly the Gram-Schmidt factors (they are unique) with better
    rounding behavior.  ``check=False`` skips the det/condition guards for
    hot loops that already know their input.  With them, the guard's raw
    R-only QR comes first, one more factorization of ``g`` than the complete
    QR: about twice the cost of an LU determinant, so a checked call takes
    about 36 to 41 us at n = 2..8 where an LU guard took 28 to 32 us, on a
    2-vCPU x86-64 host.
    """
    g = as_square_matrix(g)
    if check:
        _check_group_element(g)
    q, r = np.linalg.qr(g)
    sign, a, u = _factors_from_r(r)
    return IwasawaFactors(k=q * sign, a=a, u=u)


def membership_excess(g, p: SiegelParams, *, check: bool = True):
    """Largest constraint violation of g's Siegel coordinates.

    Negative means strictly inside, zero on the boundary, positive outside.
    ``g`` is one matrix or an (m, n, n) stack; a stack gives an array of m
    excesses, each equal bit for bit to the excess of its matrix alone, so
    callers may batch freely.  Only ``a`` and ``u`` are read, from the
    R-only kernel with the guards of :func:`decompose`, applied to every
    matrix of the stack.
    """
    g = _real_array(g)
    excess = _stack_excess(as_matrix_stack(g), p, check)
    return float(excess[0]) if g.ndim == 2 else excess


def _stack_excess(stack: np.ndarray, p: SiegelParams, check: bool) -> np.ndarray:
    """The excesses of :func:`membership_excess` for a validated (m, n, n)
    stack."""
    a, u = _siegel_coordinates(stack, check)
    # rounding is monotone, so max(x) - c == max(x - c) bit for bit; |u| - I
    # leaves the strict upper |u| as they are and zeros elsewhere, which
    # never exceed an |u| entry
    excess_b = b_from_a(a).max(axis=-1) - p.t
    excess_u = (np.abs(u) - np.eye(u.shape[-1])).max(axis=(-2, -1)) - p.lam
    return np.maximum(excess_b, excess_u)


def siegel_membership(g, p: SiegelParams, tol: float, *, check: bool = True) -> str:
    """Classify g against the Siegel set: inside / outside / boundary.

    ``inside`` iff every ``b[i] <= t - tol`` and ``|u[i, j]| <= lam - tol``;
    ``outside`` iff some constraint is exceeded by more than ``tol``;
    ``boundary`` otherwise.  The coordinates are the k-left factors of g,
    one (n, n) matrix; :func:`membership_excess` scores a stack.
    """
    _check_tolerance(tol, "tol")
    g = _real_array(g)
    if g.ndim != 2:
        raise InvalidArgumentError(
            f"siegel_membership classifies one (n, n) matrix, got shape {g.shape}; "
            "membership_excess scores a stack"
        )
    excess = _stack_excess(_square_matrices(g, 2)[None], p, check)[0]
    if excess <= -tol:
        return MEMBERSHIP_INSIDE
    if excess > tol:
        return MEMBERSHIP_OUTSIDE
    return MEMBERSHIP_BOUNDARY


@lru_cache(maxsize=None)
def _strict_upper_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, k=1)``, built once per n; the arrays are
    read-only because every caller shares them."""
    rows, cols = np.triu_indices(n, k=1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def unit_upper_stack(vals: np.ndarray, n: int) -> np.ndarray:
    """Unit upper triangular (m, n, n) stack whose strict upper entries,
    in ``triu_indices`` order, are the rows of ``vals`` (m, n(n-1)/2)."""
    vals = np.asarray(vals, dtype=float)
    u = np.zeros(vals.shape[:-1] + (n, n))
    idx = np.arange(n)
    u[..., idx, idx] = 1.0
    rows, cols = _strict_upper_indices(n)
    u[..., rows, cols] = vals
    return u
