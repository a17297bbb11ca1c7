"""Reduce any g in SL(n,R) into the Siegel set by a right SL(n,Z) move.

Classical size-reduction/exchange reduction on the Iwasawa coordinates of
the working matrix, every move realized by right multiplication with an
exact integer matrix of determinant +1:

* size reduction: integer column shears push every unipotent coordinate
  u[i, j] into [-1/2, 1/2] without touching the diagonal part;
* exchange: where a ratio b[i] exceeds t, the two adjacent columns are
  swapped (one sign flipped to keep det +1), which strictly shrinks the
  Gram-Schmidt norm a[i] because the shear step already capped |u[i, i+1]|
  at 1/2 and t >= 2/sqrt(3).

Each step reads only ``a`` and ``u`` of the working matrix, so both
decompositions of an exchange are R-only QRs and ``k`` is never formed.
The accumulated integer matrix gamma satisfies sigma @ gamma = g exactly
up to two float matrix products; its determinant is checked exactly.
Ratios sitting exactly on the threshold are left alone (the Siegel set is
closed), so a result may legitimately sit on the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class ReductionResult:
    """Outcome of :func:`siegel_reduce`.

    ``sigma @ gamma.to_array()`` reconstructs the input; when status is
    ``reduced``, sigma's coordinates satisfy the Siegel constraints
    (inside or on the boundary).  ``iterations`` counts exchange steps.
    """

    gamma: UnimodularIntMatrix
    sigma: np.ndarray
    iterations: int
    status: str

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


def _shear_ops(u: np.ndarray) -> list[tuple[int, int, int]]:
    """Column ops (i, j, r) meaning col_j -= r * col_i, in application
    order, that size-reduce the unit upper triangular u."""
    n = u.shape[0]
    uu = u.copy()
    ops = []
    for j in range(1, n):
        for i in range(j - 1, -1, -1):
            r = int(np.round(uu[i, j]))
            if r:
                uu[:, j] -= r * uu[:, i]
                ops.append((i, j, r))
    return ops


def _apply_shear(m: list[list[int]], m_inv: list[list[int]], i: int, j: int, r: int) -> None:
    # m <- m @ T with T = I - r E_ij ; m_inv <- T^{-1} @ m_inv
    n = len(m)
    for row in range(n):
        m[row][j] -= r * m[row][i]
    for col in range(n):
        m_inv[i][col] += r * m_inv[j][col]


def _apply_exchange(m: list[list[int]], m_inv: list[list[int]], i: int) -> None:
    # m <- m @ P with P the det-corrected adjacent swap: new col_i = col_{i+1},
    # new col_{i+1} = -col_i ; m_inv <- P^{-1} @ m_inv
    n = len(m)
    for row in range(n):
        m[row][i], m[row][i + 1] = m[row][i + 1], -m[row][i]
    m_inv[i], m_inv[i + 1] = m_inv[i + 1], [-x for x in m_inv[i]]


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
    ``potential_trace`` to record the reduction potential at every
    decomposition (it never increases).
    """
    g = as_square_matrix(g)
    n = g.shape[0]
    if max_iter is None:
        max_iter = 10 * n * n
    _check_group_element(g)

    m = [[int(i == j) for j in range(n)] for i in range(n)]
    m_inv = [[int(i == j) for j in range(n)] for i in range(n)]
    m_float = np.eye(n)
    exchanges = 0
    while True:
        a, u = _coordinates(g @ m_float)
        if potential_trace is not None:
            potential_trace.append(log_potential(a))
        ops = _shear_ops(u)
        if ops:
            for i, j, r in ops:
                _apply_shear(m, m_inv, i, j, r)
            m_float = np.array(m, dtype=float)
            a, u = _coordinates(g @ m_float)
        over = np.nonzero(b_from_a(a) > p.t)[0]
        if over.size == 0:
            status = STATUS_REDUCED
            break
        if exchanges >= max_iter:
            status = STATUS_BUDGET_EXHAUSTED
            break
        _apply_exchange(m, m_inv, int(over[0]))
        exchanges += 1
        m_float = np.array(m, dtype=float)

    sigma = g @ m_float
    gamma = UnimodularIntMatrix.from_rows(m_inv)
    return ReductionResult(gamma=gamma, sigma=sigma, iterations=exchanges, status=status)
