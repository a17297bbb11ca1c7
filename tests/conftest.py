import math
from fractions import Fraction

import numpy as np
import pytest

from siegel import iwasawa
from siegel.haar import RngStream
from siegel.iwasawa import UnimodularIntMatrix
from siegel.volumes import SymbolicVolume


def random_sl(rng: np.random.Generator, n: int) -> np.ndarray:
    """Gaussian-entry matrix rescaled to determinant +1."""
    while True:
        g = rng.standard_normal((n, n))
        d = np.linalg.det(g)
        if abs(d) > 1e-8:
            break
    g /= abs(d) ** (1.0 / n)
    if np.linalg.det(g) < 0:
        g[:, -1] *= -1.0
    return g


def column_skewed_sl(rng, n, cond_lo=1e11, cond_hi=None):
    """Gaussian SL(n,R) element with its columns scaled apart (det kept) until
    its condition number lies in [cond_lo, cond_hi] (default [1e11, COND_MAX])."""
    cond_hi = iwasawa.COND_MAX if cond_hi is None else cond_hi
    g = random_sl(rng, n)
    d = rng.uniform(-1.0, 1.0, size=n)
    d -= d.mean()
    d /= d.max() - d.min()
    lo, hi = 0.0, 30.0  # decades between the largest and smallest column scale
    while True:
        s = 0.5 * (lo + hi)
        h = g * 10.0 ** (s * d)
        cond = np.linalg.cond(h)
        if cond < cond_lo:
            lo = s
        elif cond > cond_hi:
            hi = s
        else:
            return h


def exact_siegel_member(s):
    """Exact membership of s in the canonical Siegel set (t^2 = 4/3,
    lam = 1/2), for a matrix of floats, ints or Fractions (an array or rows).
    Floats are rationals, so G = s^T s is exact in Fraction; its LDL^T has
    D_i = a_i^2 and L_ji = u_ij, and the constraints are
    D_i <= (4/3) D_{i+1} and |L_ji| <= 1/2."""
    cols = [[Fraction(x) for x in col] for col in np.asarray(s).T.tolist()]
    n = len(cols)
    gram = [[sum(x * y for x, y in zip(ci, cj)) for cj in cols] for ci in cols]
    low = [[Fraction(0)] * n for _ in range(n)]
    d = [Fraction(0)] * n
    for j in range(n):
        d[j] = gram[j][j] - sum(low[j][k] ** 2 * d[k] for k in range(j))
        for i in range(j + 1, n):
            low[i][j] = (gram[i][j] - sum(low[i][k] * low[j][k] * d[k] for k in range(j))) / d[j]
    return all(d[i] <= Fraction(4, 3) * d[i + 1] for i in range(n - 1)) and all(
        abs(low[i][j]) <= Fraction(1, 2) for j in range(n) for i in range(j + 1, n)
    )


def random_unimodular(rng: np.random.Generator, n: int, height_cap: int = 10,
                      steps: int = 12) -> UnimodularIntMatrix:
    """Random SL(n,Z) element built from elementary shears and swaps,
    rejecting whenever an entry would exceed the cap."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.integers(0, 2)
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        trial = [row[:] for row in m]
        if kind == 0:
            c = int(rng.integers(1, 3)) * (1 if rng.integers(0, 2) else -1)
            for r in range(n):
                trial[r][j] += c * trial[r][i]
        else:
            for r in range(n):
                trial[r][i], trial[r][j] = trial[r][j], -trial[r][i]
        if max(abs(x) for row in trial for x in row) <= height_cap:
            m = trial
    return UnimodularIntMatrix(m)


def a_integral_closed_form(n: int, t: float) -> float:
    """Closed form (1/2) * t**(n(n^2-1)/6) / ((n-1)!)**2 of the diagonal-block
    integral (1/2) * Int_{(0,t]^{n-1}} prod b**(i(n-i)-1) db."""
    log_val = math.log(0.5) + n * (n * n - 1) / 6.0 * math.log(t) - 2.0 * math.lgamma(n)
    return math.exp(log_val)


def gamma_half(i: int, exp: int = 1) -> SymbolicVolume:
    """Gamma(i/2)**exp for an integer i >= 1, written out case by case:
    Gamma(m) = (m-1)! for i = 2m, and
    Gamma(m + 1/2) = sqrt(pi) (2m)! / (4^m m!) for i = 2m + 1."""
    m = i // 2
    if i % 2 == 0:
        return SymbolicVolume(factorial={m - 1: exp})
    return SymbolicVolume(
        pow2=-2 * m * exp,
        pow_pi=Fraction(exp, 2),
        factorial={2 * m: exp, m: -exp} if m else {},
    )


def sphere_volume(m: int) -> SymbolicVolume:
    """Surface volume of the unit sphere S^m: 2 pi^((m+1)/2) / Gamma((m+1)/2)."""
    return SymbolicVolume(pow2=1, pow_pi=Fraction(m + 1, 2)) / gamma_half(m + 1)


def vol_so_recursive(n: int) -> SymbolicVolume:
    """vol(SO(n)) by the submersion recursion
    vol(SO(n)) = 2^((n-1)/2) vol(S^(n-1)) vol(SO(n-1)), evaluated
    symbolically: the cross-check route for the closed form ``vol_so``."""
    out = SymbolicVolume()
    for m in range(2, n + 1):
        out = out * SymbolicVolume(pow2=Fraction(m - 1, 2)) * sphere_volume(m - 1)
    return out


class SharedStream(RngStream):
    """An :class:`RngStream` whose every ``generator()`` call hands out the
    one generator ``gen``, so calls that each draw from the start of their
    stream draw one after another from ``gen`` instead: the sequential draws
    a test replays, or the calls a counting generator records."""

    def __init__(self, gen: np.random.Generator):
        super().__init__(0)
        object.__setattr__(self, "gen", gen)

    def generator(self) -> np.random.Generator:
        return self.gen


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240614)
