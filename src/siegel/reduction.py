"""Reduce any g in SL(n,R) into the Siegel set of the canonical parameters
t = 2/sqrt(3), lam = 1/2 by a right SL(n,Z) move.

Classical size-reduction/exchange reduction on the Iwasawa coordinates of
the working matrix, every move realized by right multiplication with an
exact integer matrix of determinant +1:

* presort: before the first QR the columns of g are put in non-decreasing
  order of squared norm by a stable sort, a standard start for LLL-style
  reduction (Lenstra-Lenstra-Lovasz 1982, Schnorr-Euchner 1994) that leaves
  fewer exchanges to make.  The move is a signed permutation, one column
  negated when the permutation is odd, and an ordered g is not moved.  The
  det/condition guard of :mod:`siegel.iwasawa` reads the one QR of the
  ordered copy, which keeps det and singular values, and the first ``a``
  and ``u`` come from that same QR.  It is not an exchange: ``max_iter``
  and ``iterations`` count exchanges only;
* size reduction: integer column shears push every unipotent coordinate
  u[i, j] into [-1/2, 1/2] without touching the diagonal part, one row
  sweep per i from the bottom (as in Lenstra-Lenstra-Lovasz size reduction);
* exchange: where a ratio b[i] exceeds t, the one shear of column i+1 by
  column i caps |u[i, i+1]| at 1/2 and the two adjacent columns are swapped
  (one sign flipped to keep det +1), which strictly shrinks the
  Gram-Schmidt norm a[i] because t = 2/sqrt(3).

The float triangular factor ``R = diag(a) @ u`` of the working matrix is
carried across rounds, as in the incremental Gram-Schmidt update of LLL
(Cohen, Alg. 2.6.3): the shears are unit upper triangular, so they change
``u`` but not ``a``; an exchange swaps two columns of ``R`` and one 2x2
Givens rotation of rows i, i+1 makes it triangular again.  Size reduction
is lazy, as in floating-point LLL (Schnorr and Euchner 1994): an exchange at
i reads only ``a`` and u[i, i+1], and an integer shear changes neither ``a``
nor any u[k, k+1] modulo 1, so an exchange shears only the pair it swaps and
the full sweep runs once per run of exchanges, on the factor that ends it.

After each fresh QR ``a`` is read and the ratios are scanned first.  If
that QR ends the call (no ratio above t, or the budget spent), each
quotient u[i, j] = R[i, j] / R[i, i] is tested against 1/2 without building
``u``; only when one rounds away from 0 is ``u`` built and swept, and the
call stops.  Otherwise ``u`` is built and the exchanges start on the
unswept factor.  After an exchange at i the scan resumes at i - 1, since
the ratios below it did not change (LLL's index pointer).  When the
carried factor shows no exchange left, or the budget is spent, its ``u`` is
swept once and the swept basis ``h = g @ m`` gets a fresh R-only QR (``k``
is never formed): that QR ends the call if it finds no exchange either, and
otherwise the next run starts from its factor, so every status is decided
on a fresh, fully swept factor.  The sweep of that QR almost never shears,
and then ``h`` itself is sigma and its ``u`` is never built.  The exchanges
and the final ``m`` are those of a full sweep after every QR (a
size-reduced basis with a given Gram-Schmidt flag is unique, up to exact
half-integer ties).  Readings of ``potential_trace`` are carried values:
after an exchange ``a`` has been rotated from rows that were not swept, so
they can differ in the last bits from a fresh QR of the same basis.

Between QRs the loop runs on plain Python scalars, with no numpy call: ``a``
and the rows of ``u`` are float lists read straight from the raw LAPACK
factor of each QR by the one list reader of :mod:`siegel.iwasawa` (bit for
bit the ``a`` and ``u`` of :func:`siegel.iwasawa.decompose`; the first QR
factors the norm-ordered copy of ``g``, gathered exactly from its
columns), the integer matrix ``m`` is a list of columns of Python ints,
starting at the presort's signed permutation, and its inverse a list of
rows, starting at its transpose, so a swap is a list swap with one negation
on each and a shear is one scalar loop over a column of ``m`` and a row of
the inverse.  Every float update is a single rounded operation (no fused
multiply-add), the rotation included.  The float copy of ``m`` made for
each later QR, and for sigma when the last QR's input cannot serve, raises
:class:`NonInvertibleError` rather than round an entry of 2**53 or more.
sigma @ gamma = g up to two float matrix products, and gamma's determinant
is +1 by construction, a product of exact det +1 moves on Python ints.
Ratios sitting exactly on the threshold are left alone (the Siegel set is
closed), so a result may legitimately sit on the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .iwasawa import (
    MINIMAL_PARAMS,
    UnimodularIntMatrix,
    as_count,
    as_square_matrix,
    _checked_rows,
    _coordinate_lists,
    _exact_floats,
    _factor_rows,
    _pivot_moduli,
    _squared_column_norms,
    _unit_rows,
)

STATUS_REDUCED = "reduced"
STATUS_BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True)
class ReductionResult:
    """Outcome of :func:`siegel_reduce`.

    ``sigma @ gamma.to_array()`` reconstructs the input; when status is
    ``reduced``, sigma's coordinates satisfy the Siegel constraints of
    ``MINIMAL_PARAMS`` (inside or on the boundary).  ``iterations`` counts
    exchange steps, ``refreshes`` the R-only QRs made from scratch (not in
    the JSON form).
    """

    gamma: UnimodularIntMatrix
    sigma: np.ndarray
    iterations: int
    status: str
    refreshes: int

    def to_json_dict(self) -> dict:
        a, u = _coordinate_lists(self.sigma)
        return {
            "gamma": self.gamma.to_json_dict(),
            "iterations": self.iterations,
            "status": self.status,
            "b": [x / y for x, y in zip(a, a[1:])],
            "u_max": max(abs(x) for i, row in enumerate(u) for x in row[i + 1:]),
        }


def log_potential(a: np.ndarray) -> float:
    """Log of the product of leading-minor norms: sum_i (n-i) log a[i].

    Exchange steps strictly decrease it; shears leave it unchanged.
    """
    a = np.asarray(a, dtype=float)
    n = a.size
    weights = n - np.arange(1, n + 1)
    return float(np.dot(weights, np.log(a)))


def _exact_float(m: list[list[int]]) -> np.ndarray:
    """Float copy of the exact integer matrix with columns ``m``; an entry a
    float cannot hold exactly raises rather than giving an inexact sigma
    (by :func:`siegel.iwasawa._exact_floats`)."""
    return _exact_floats(m).T.copy()


def _presorted(g: np.ndarray) -> tuple[list[list[int]], list[list[float]]]:
    """The start of a reduction of ``g``: its columns in non-decreasing order
    of squared norm, by a stable sort (tied columns keep their order, so an
    ordered ``g`` is not permuted), and the one QR of that copy, which the
    det/condition guard of :func:`siegel.iwasawa.decompose` reads first.

    Returns ``m``, that move as a signed permutation given by its list of
    integer columns, with column 0 negated when the permutation is odd so
    that its determinant is +1, and the rows of the ``R`` of the copy
    ``g @ m``, by :func:`siegel.iwasawa._checked_rows`; the copy is made by
    gathering (and negating) the columns of ``g``, so no product rounds.
    """
    n = g.shape[0]
    norms = _squared_column_norms(g).tolist()
    order = sorted(range(n), key=norms.__getitem__)
    m = [[0] * n for _ in range(n)]
    for k, j in enumerate(order):
        m[k][j] = 1
    first = g.take(order, axis=1)
    if sum(x > y for x, y in combinations(order, 2)) % 2:
        m[0][order[0]] = -1
        first[:, 0] *= -1.0
    return m, _checked_rows(g, first, [norms[j] for j in order])


def _shear(
    u: list[list[float]], m: list[list[int]], m_inv: list[list[int]], i: int, j: int, r: int
) -> None:
    """col_j -= r col_i (j > i), in place: on rows 0..i of ``u`` and on ``m``
    on the right, inverted onto ``m_inv`` on the left.  ``u`` is a list of
    rows, ``m`` a list of columns and ``m_inv`` a list of rows."""
    for uk in u[: i + 1]:
        uk[j] -= uk[i] * r
    m[j] = [x - r * y for x, y in zip(m[j], m[i])]
    m_inv[i] = [x + r * y for x, y in zip(m_inv[i], m_inv[j])]


def _size_reduce(u: list[list[float]], m: list[list[int]], m_inv: list[list[int]]) -> None:
    """Push u[i][j] into [-1/2, 1/2] by unit upper integer shears, in place.

    One row sweep per i from the bottom row n - 2 up to 0, one shear
    col_j -= r_j col_i per r_j = round(u[i][j]) != 0, j > i (``round`` ties
    to even, as ``np.round`` does).  A shear of column j writes no other
    entry of row i, so each r_j is the one the row held before the sweep.
    Called once on each factor that ends a run of exchanges; in between,
    :func:`_exchange` shears only the pair it swaps.
    """
    for i in range(len(u) - 2, -1, -1):
        row = u[i]
        for j in range(i + 1, len(row)):
            if r := round(row[j]):
                _shear(u, m, m_inv, i, j, r)


def _sweep_due(rows: list[list[float]]) -> bool:
    """Whether :func:`_size_reduce` would shear the ``u`` of the factor with
    rows ``rows``, read without building it: whether some
    u[i][j] = R[i][j] / R[i][i], the division of
    :func:`siegel.iwasawa._unit_rows`, has ``round(u[i][j]) != 0``, that is
    |u[i][j]| > 1/2 (``round`` takes the tie 1/2 to 0).  The lowest row
    holding one is swept unchanged, so it shears; without one, no row does.
    """
    for i, row in enumerate(rows):
        p = row[i]
        for x in row[i + 1:]:
            if abs(x / p) > 0.5:
                return True
    return False


def _exchange(
    a: list[float], u: list[list[float]], m: list[list[int]], m_inv: list[list[int]], i: int
) -> None:
    """Exchange columns i and i+1 of the working basis, in place.

    First the one shear col_i+1 -= round(u[i][i+1]) col_i on rows 0..i of
    ``u``, on ``m`` and inverted onto ``m_inv``: the swap reads only ``a``
    and u[i][i+1], so no other entry of ``u`` needs reducing before the run
    of exchanges ends.  Then the det-corrected swap
    (col_i, col_i+1) <- (col_i+1, -col_i) on ``m`` and its inverse on the
    rows of ``m_inv``, and the same swap on the columns of
    ``R = diag(a) @ u`` followed by one Givens rotation of rows i, i+1 back
    to a positive diagonal.
    """
    j = i + 1
    ui, uj = u[i], u[j]
    if r := round(ui[j]):
        _shear(u, m, m_inv, i, j, r)
    m[i], m[j] = m[j], [-x for x in m[i]]
    m_inv[i], m_inv[j] = m_inv[j], [-x for x in m_inv[i]]
    # rows i, i+1 of R, columns swapped: block [[a_i u_ij, -a_i], [a_j, 0]]
    ai, aj = a[i], a[j]
    x = ai * ui[j]
    h = math.hypot(x, aj)
    c, s = x / h, aj / h
    a[i] = ri = c * x + s * aj
    a[j] = rj = s * ai  # the rotated second row is [0, s a_i, ...]
    ui[j] = -(c * ai) / ri
    for k in range(j + 1, len(ui)):
        xk, yk = ai * ui[k], aj * uj[k]
        ui[k] = (c * xk + s * yk) / ri
        uj[k] = (c * yk - s * xk) / rj
    for uk in u[:i]:
        uk[i], uk[j] = uk[j], -uk[i]


def _first_over(a: list[float], t: float, start: int) -> int | None:
    """First i >= start with a[i] / a[i+1] > t, or None."""
    for i in range(start, len(a) - 1):
        if a[i] / a[i + 1] > t:
            return i
    return None


def siegel_reduce(
    g, max_iter: int | None = None, *, potential_trace: list | None = None
) -> ReductionResult:
    """Find gamma in SL(n,Z) with g = sigma @ gamma and sigma in the Siegel set.

    The Siegel set is the one of the canonical parameters ``MINIMAL_PARAMS``
    (t = 2/sqrt(3), lam = 1/2), the smallest that still covers SL(n,R):
    size reduction always rounds to |u| <= 1/2, so ``reduced`` means that
    sigma is a member at those parameters and no other set is promised.

    The columns of g are first put in norm order by an exact signed
    permutation (see the module docstring), which is not an exchange.
    Default budget is 10 n^2 exchange steps; exhausting it is reported in
    ``status``, never silently truncated; a ``max_iter`` that is not an
    integer >= 0 raises :class:`InvalidArgumentError`.  Pass a list as
    ``potential_trace`` to record the reduction potential once per basis:
    at the start, of the norm-ordered basis, and after each exchange (it
    never increases).  The readings are carried values, from the ``a``
    rotated by each exchange, not from a fresh QR; a fresh QR of a basis
    already recorded adds none.

    A fresh QR that ends the call is swept only if its sweep shears; a run
    of exchanges starts on the unswept factor, shears only each exchanged
    pair, and is swept once before the fresh QR that confirms its end.
    sigma is that QR's input ``g @ m`` unless its sweep still shears.
    """
    g = as_square_matrix(g)
    n = g.shape[0]
    max_iter = 10 * n * n if max_iter is None else as_count(max_iter, "max_iter")

    m, rows = _presorted(g)  # columns
    # rows: a signed permutation's inverse is its transpose
    m_inv = [col[:] for col in m]
    exchanges = 0
    t = MINIMAL_PARAMS.t
    a = _pivot_moduli(rows)
    refreshes = 1
    if potential_trace is not None:
        potential_trace.append(log_potential(a))
    # the input g @ m of the latest later QR; the first QR's gathered copy is
    # never returned, so every sigma is a product g @ m
    h = None
    while True:
        i = _first_over(a, t, 0)
        if i is None or exchanges >= max_iter:
            # a fresh factor ends the call; its u is built only for a sweep
            # that shears, and sigma is its input unless that sweep moves m
            swept = _sweep_due(rows)
            if swept:
                _size_reduce(_unit_rows(rows), m, m_inv)
            if swept or h is None:
                h = g @ _exact_float(m)
            status = STATUS_REDUCED if i is None else STATUS_BUDGET_EXHAUSTED
            break
        u = _unit_rows(rows)
        while True:
            _exchange(a, u, m, m_inv, i)
            exchanges += 1
            if potential_trace is not None:
                potential_trace.append(log_potential(a))
            # ratios below i - 1 did not change and did not exceed t
            i = _first_over(a, t, max(i - 1, 0))
            if i is None or exchanges >= max_iter:
                break
        # only a fresh factor may end the call: it confirms or corrects what
        # the carried one shows, on the basis swept once here
        _size_reduce(u, m, m_inv)
        h = g @ _exact_float(m)
        rows = _factor_rows(h)
        a = _pivot_moduli(rows)
        refreshes += 1

    # m_inv is a product of exact det +1 moves on Python ints
    gamma = UnimodularIntMatrix._trusted(m_inv)
    return ReductionResult(
        gamma=gamma, sigma=h, iterations=exchanges, status=status, refreshes=refreshes
    )
