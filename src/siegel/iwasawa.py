"""Iwasawa coordinates on SL(n,R) and Siegel-set membership.

Every ``g`` in SL(n,R) factors uniquely as ``g = k @ diag(a) @ u`` with
``k`` special orthogonal, ``a`` a positive vector of product 1 and ``u``
unit upper triangular (orthonormalize the columns of ``g`` left to right;
the three groups intersect trivially, so the factors are unique).  The
successive ratios ``b[i] = a[i] / a[i+1]`` are the natural coordinates on
the diagonal part: the Siegel set with parameters ``(t, lam)`` is the set
of ``g`` whose factors satisfy ``b[i] <= t`` and ``|u[i, j]| <= lam``.

Only :func:`decompose` forms ``k``.  Membership, the reduction and the
inequality chain read ``(a, u)`` alone, so they share one private kernel:
an R-only QR of a stack, with the singular-pivot guard and the
positive-diagonal sign fix applied once, equal bit for bit to the ``a``
and ``u`` of :func:`decompose`.

The mirror order ``g = u @ diag(a) @ k`` (unipotent part on the left) has
no function of its own: with ``J`` the reversal matrix, its ``a`` is the
reversed ``a`` of the anti-transpose ``J @ g.T @ J``.  The two orders do
NOT share (a, u) in general, so the two membership predicates differ.
Membership tests in this package always use the k-left factors; the
u-left diagonal feeds the inequality chain in :mod:`siegel.intersections`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    InvalidArgumentError,
    NonInvertibleError,
    NotUnimodularError,
)

# Numerical guards, sized for binary64 at n <= 50.
DET_TOL = 1e-9
SINGULAR_TOL = 1e-12
COND_MAX = 1e12

MEMBERSHIP_INSIDE = "inside"
MEMBERSHIP_OUTSIDE = "outside"
MEMBERSHIP_BOUNDARY = "boundary"


@dataclass(frozen=True)
class SiegelParams:
    """Siegel-set parameters: ``b[i] <= t`` and ``|u[i, j]| <= lam``."""

    t: float
    lam: float

    def __post_init__(self):
        if not (0 < self.t < math.inf and 0 < self.lam < math.inf):
            raise InvalidArgumentError("Siegel parameters must be positive and finite")


#: Smallest parameters for which the Siegel set still covers SL(n,R)
#: under right multiplication by SL(n,Z).
MINIMAL_PARAMS = SiegelParams(t=2.0 / math.sqrt(3.0), lam=0.5)


def as_square_matrix(g) -> np.ndarray:
    """Validate and return ``g`` as an (n, n) float array with finite entries."""
    arr = np.asarray(g, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidArgumentError(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise InvalidArgumentError(f"dimension must be >= 2, got {arr.shape[0]}")
    if not np.isfinite(arr).all():
        raise InvalidArgumentError("matrix entries must be finite")
    return arr


def as_matrix_stack(g) -> np.ndarray:
    """Validate ``g`` as an (m, n, n) float stack with finite entries; a
    single (n, n) matrix is returned as the stack of one."""
    arr = np.asarray(g, dtype=float)
    if arr.ndim != 3:
        return as_square_matrix(arr)[None]
    if arr.shape[1] != arr.shape[2] or arr.shape[1] < 2:
        raise InvalidArgumentError(
            f"expected a stack of square matrices of dimension >= 2, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise InvalidArgumentError("matrix entries must be finite")
    return arr


def as_count(value, name: str, least: int = 0) -> int:
    """Validate ``value`` as an integer >= ``least`` (a bool or a float is
    not one); the one input rule for every dimension, size and budget."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
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


@dataclass(frozen=True)
class UnimodularIntMatrix:
    """Element of SL(n,Z): exact integer entries, determinant exactly +1.

    ``entries`` may be any square nested sequence of integers; it is stored
    as a tuple of tuples of Python ints.
    """

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if n < 1 or any(len(row) != n for row in self.entries):
            raise InvalidArgumentError("entries must form a square matrix")
        object.__setattr__(
            self, "entries", tuple(tuple(int(x) for x in row) for row in self.entries)
        )
        if self.det() != 1:
            raise NotUnimodularError(f"determinant is {self.det()}, must be +1")

    @classmethod
    def _trusted(cls, rows: list[list[int]]) -> UnimodularIntMatrix:
        """Wrap rows of Python ints already known to have determinant +1
        (a product of exact det +1 moves), with no conversion or check."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "entries", tuple(map(tuple, rows)))
        return obj

    @property
    def n(self) -> int:
        return len(self.entries)

    def det(self) -> int:
        return _bareiss_det([list(r) for r in self.entries])

    def to_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=float)

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
    n = int(obj["n"])
    flat = np.asarray(obj["entries"], dtype=float)
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
        return self.k @ (self.a[:, None] * self.u)

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


def _check_group_element(g: np.ndarray) -> None:
    det = np.linalg.det(g)
    if abs(det - 1.0) > DET_TOL:
        raise NotUnimodularError(f"det(g) = {det!r}, expected 1 within {DET_TOL}")
    cond = np.linalg.cond(g)
    if not np.isfinite(cond) or cond > COND_MAX:
        raise NonInvertibleError(f"condition number {cond:.3e} exceeds {COND_MAX:.1e}")


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


def _siegel_coordinates(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a`` (m, n) and ``u`` (m, n, n) of every matrix of a validated
    (m, n, n) stack, from an R-only QR; ``k`` is never formed.  Each row
    equals the ``a`` and ``u`` of :func:`decompose` bit for bit."""
    _, a, u = _factors_from_r(np.linalg.qr(stack, mode="r"))
    return a, u


def decompose(g, *, check: bool = True) -> IwasawaFactors:
    """Factor ``g = k @ diag(a) @ u`` by orthonormalizing the columns of g.

    Computed with a Householder QR and a positive-diagonal sign fix, which
    yields exactly the Gram-Schmidt factors (they are unique) with better
    rounding behavior.  ``check=False`` skips the det/condition guards for
    hot loops that already know their input.
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
    g = np.asarray(g, dtype=float)
    stack = as_matrix_stack(g)
    if check:
        for matrix in stack:
            _check_group_element(matrix)
    a, u = _siegel_coordinates(stack)
    # rounding is monotone, so max(x) - c == max(x - c) bit for bit; |u| - I
    # leaves the strict upper |u| as they are and zeros elsewhere, which
    # never exceed an |u| entry
    excess_b = b_from_a(a).max(axis=-1) - p.t
    excess_u = (np.abs(u) - np.eye(u.shape[-1])).max(axis=(-2, -1)) - p.lam
    excess = np.maximum(excess_b, excess_u)
    return float(excess[0]) if g.ndim == 2 else excess


def siegel_membership(g, p: SiegelParams, tol: float, *, check: bool = True) -> str:
    """Classify g against the Siegel set: inside / outside / boundary.

    ``inside`` iff every ``b[i] <= t - tol`` and ``|u[i, j]| <= lam - tol``;
    ``outside`` iff some constraint is exceeded by more than ``tol``;
    ``boundary`` otherwise.  The coordinates are the k-left factors of g.
    """
    if not 0 <= tol < math.inf:
        raise InvalidArgumentError(f"tol must be a finite number >= 0, got {tol!r}")
    excess = membership_excess(g, p, check=check)
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
