"""Reduce any g in SL(n,R) into the Siegel set by a right SL(n,Z) move.

Classical size-reduction/exchange reduction on the Iwasawa coordinates of
the working matrix, every move realized by right multiplication with an
exact integer matrix of determinant +1:

* size reduction: integer column shears push every unipotent coordinate
  u[i, j] into [-1/2, 1/2] without touching the diagonal part, one row
  sweep per i from the bottom (as in Lenstra-Lenstra-Lovasz size reduction);
* exchange: where a ratio b[i] exceeds t, the two adjacent columns are
  swapped (one sign flipped to keep det +1), which strictly shrinks the
  Gram-Schmidt norm a[i] because the shear step already capped |u[i, i+1]|
  at 1/2 and t >= 2/sqrt(3).

The float triangular factor ``R = diag(a) @ u`` of the working matrix is
carried across rounds, as in the incremental Gram-Schmidt update of LLL
(Cohen, Alg. 2.6.3): the shears are unit upper triangular, so they change
``u`` but not ``a``; an exchange swaps two columns of ``R`` and one 2x2
Givens rotation of rows i, i+1 makes it triangular again, after which only
rows i+1 down to 0 need sweeping.  ``R`` comes from an R-only QR (``k`` is
never formed) only at the start and when the carried factor shows nothing
left to do: that fresh round ends the call if it finds no exchange either,
and otherwise the loop carries on from the fresh factor, so every status is
decided on fresh coordinates.  The integer matrix and its inverse are exact
Python integers; the float copy made for each QR raises
:class:`NonInvertibleError` rather than round an entry of 2**53 or more.
sigma @ gamma = g up to two float matrix products, and gamma's determinant
is checked exactly.  Ratios sitting exactly on the threshold are left alone
(the Siegel set is closed), so a result may legitimately sit on the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonInvertibleError
from .iwasawa import (
    MINIMAL_PARAMS,
    SiegelParams,
    UnimodularIntMatrix,
    as_matrix_stack,
    as_square_matrix,
    b_from_a,
    _check_group_element,
    _siegel_coordinates,
)

STATUS_REDUCED = "reduced"
STATUS_BUDGET_EXHAUSTED = "budget_exhausted"
#: integers from here on are not all exactly representable as floats
_FLOAT_EXACT = 2**53


@dataclass(frozen=True)
class ReductionResult:
    """Outcome of :func:`siegel_reduce`.

    ``sigma @ gamma.to_array()`` reconstructs the input; when status is
    ``reduced``, sigma's coordinates satisfy the Siegel constraints
    (inside or on the boundary).  ``iterations`` counts exchange steps,
    ``refreshes`` the R-only QRs made from scratch (not in the JSON form).
    """

    gamma: UnimodularIntMatrix
    sigma: np.ndarray
    iterations: int
    status: str
    refreshes: int

    def to_json_dict(self) -> dict:
        a, u = _coordinates(self.sigma)
        iu = np.triu_indices(a.size, k=1)
        return {
            "gamma": self.gamma.to_json_dict(),
            "iterations": self.iterations,
            "status": self.status,
            "b": [float(x) for x in b_from_a(a)],
            "u_max": float(np.max(np.abs(u[iu]))) if iu[0].size else 0.0,
        }


def _coordinates(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a`` and ``u`` of one finite square matrix; k is never formed."""
    a, u = _siegel_coordinates(as_matrix_stack(g))
    return a[0], u[0]


def log_potential(a: np.ndarray) -> float:
    """Log of the product of leading-minor norms: sum_i (n-i) log a[i].

    Exchange steps strictly decrease it; shears leave it unchanged.
    """
    a = np.asarray(a, dtype=float)
    n = a.size
    weights = n - np.arange(1, n + 1)
    return float(np.dot(weights, np.log(a)))


def _exact_float(m: np.ndarray) -> np.ndarray:
    """Float copy of the exact integer matrix ``m``; an entry a float cannot
    hold exactly raises rather than giving an inexact sigma."""
    if np.max(np.abs(m)) >= _FLOAT_EXACT:
        raise NonInvertibleError("reduction matrix entry exceeds 2**53, beyond exact float")
    return m.astype(float)


def _size_reduce(u: np.ndarray, m: np.ndarray, m_inv: np.ndarray, top: int | None = None) -> None:
    """Push u[i, j] into [-1/2, 1/2] by unit upper integer shears, in place.

    One row sweep per i from ``top`` (default the bottom row n - 2) up to 0:
    the shear col_j -= r_j col_i for every j > i at once, applied to ``u``
    and ``m`` on the right and inverted onto ``m_inv`` on the left.
    """
    if top is None:
        top = u.shape[0] - 2
    for i in range(top, -1, -1):
        r = np.round(u[i, i + 1:])
        if r.any():
            u[: i + 1, i + 1:] -= np.outer(u[: i + 1, i], r)
            r = np.array([int(x) for x in r], dtype=object)
            m[:, i + 1:] -= np.outer(m[:, i], r)
            m_inv[i] += r @ m_inv[i + 1:]


def _exchange(a: np.ndarray, u: np.ndarray, m: np.ndarray, m_inv: np.ndarray, i: int) -> None:
    """Apply the det-corrected swap (col_i, col_i+1) <- (col_i+1, -col_i) to
    ``m`` and its inverse to the rows of ``m_inv``, and update ``a`` and
    ``u`` of ``R = diag(a) @ u`` in place: the same swap on the columns of
    R, then one Givens rotation of rows i, i+1 back to a positive diagonal.
    """
    j = i + 1
    col = m[:, i].copy()
    m[:, i] = m[:, j]
    m[:, j] = -col
    row = m_inv[i].copy()
    m_inv[i] = m_inv[j]
    m_inv[j] = -row
    # rows i, i+1 of R, columns swapped: block [[a_i u_ij, -a_i], [a_j, 0]]
    r = a[i:j + 1, None] * u[i:j + 1]
    r[:, i], r[:, j] = r[:, j], -r[:, i]
    c, s = r[:, i] / np.hypot(r[0, i], r[1, i])
    r = np.array([[c, s], [-s, c]]) @ r
    r[1, i] = 0.0
    a[i], a[j] = r[0, i], r[1, j]
    u[i:j + 1] = r / a[i:j + 1, None]
    u[:i, i], u[:i, j] = u[:i, j], -u[:i, i]


def siegel_reduce(
    g,
    max_iter: int | None = None,
    p: SiegelParams = MINIMAL_PARAMS,
    *,
    potential_trace: list | None = None,
) -> ReductionResult:
    """Find gamma in SL(n,Z) with g = sigma @ gamma and sigma in the Siegel set.

    Default budget is 10 n^2 exchange steps; exhausting it is reported in
    ``status``, never silently truncated.  Pass a list as
    ``potential_trace`` to record the reduction potential once per basis:
    at the start and after each exchange, from the carried ``a`` (it never
    increases).  A fresh QR of a basis already recorded adds no reading.
    """
    g = as_square_matrix(g)
    n = g.shape[0]
    if max_iter is None:
        max_iter = 10 * n * n
    _check_group_element(g)

    m = np.identity(n, dtype=int).astype(object)
    m_inv = m.copy()
    exchanges = refreshes = 0
    fresh = True
    while True:
        if fresh:
            a, u = _coordinates(g @ _exact_float(m))
            refreshes += 1
            top = None
            if potential_trace is not None and refreshes == 1:
                potential_trace.append(log_potential(a))
        _size_reduce(u, m, m_inv, top)
        over = np.nonzero(b_from_a(a) > p.t)[0]
        if not fresh and (over.size == 0 or exchanges >= max_iter):
            # only a fresh factor may end the call: it confirms or corrects
            # what the carried one shows
            fresh = True
            continue
        if over.size == 0:
            status = STATUS_REDUCED
            break
        if exchanges >= max_iter:
            status = STATUS_BUDGET_EXHAUSTED
            break
        i = int(over[0])
        _exchange(a, u, m, m_inv, i)
        exchanges += 1
        if potential_trace is not None:
            potential_trace.append(log_potential(a))
        fresh = False
        top = i + 1

    sigma = g @ _exact_float(m)
    gamma = UnimodularIntMatrix.from_rows(m_inv)
    return ReductionResult(
        gamma=gamma, sigma=sigma, iterations=exchanges, status=status, refreshes=refreshes
    )
