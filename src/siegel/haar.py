"""Haar-measure machinery in Siegel coordinates.

The Haar measure of SL(n,R), written in the k-left order ``g = k a u``
(the order :func:`group_elements` builds, membership reads and
:func:`siegel_density` integrates), carries the Jacobian
``prod_{i<j} a_i/a_j`` against ``dk da du``: the Iwasawa integral formula
(e.g. Knapp, *Lie Groups Beyond an Introduction*, ch. VIII).  In the
a-left order ``g = a u k`` the factor is 1; at n = 2, ``x = y u_12``
turns ``dx dy / y^2`` into ``du_12 dy / y``.  In the ratio coordinates
``b[i] = a[i]/a[i+1]`` the Jacobian becomes ``prod b[i]**(i*(n-i))`` and
the full integrand over the diagonal block is
``(1/2) * prod b[i]**(i*(n-i)-1)``.  This module evaluates those kernels,
builds ``s = k @ diag(a) @ u`` from coordinates (:func:`group_elements`,
through the one product of the factors,
``siegel.iwasawa._group_elements_from_a``), samples Haar-uniform rotations
and stacks of Siegel coordinate points, and provides two independent
numerical integrators (product Gauss-Legendre quadrature and
importance-sampled Monte Carlo) for the diagonal-block integral.

A sampled point reports the log of its importance weight under the
log-uniform proposal, ``log(b) @ e`` with ``e[i] = i*(n-i)``; the Monte Carlo
integrator draws from a truncated power law instead, whose weights are
bounded.  Every dimension and count is an integer by
:func:`siegel.iwasawa.as_count`; a real argument must be a real number (not
a bool, a string or a complex number), and a vector is read by the rule for
matrix entries.  The integrators raise ``ToleranceNotMetError`` rather than
return a value that is 0 or not finite in double precision.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    InvalidArgumentError,
    InvalidRangeError,
    NonPositiveEntryError,
    ToleranceNotMetError,
)
from .iwasawa import (
    DET_TOL,
    SiegelParams,
    _finite_exp,
    _group_elements_from_a,
    _is_real,
    _real_array,
    _siegel_bound,
    a_from_b,
    as_count,
    is_int,
    matrix_to_json_dict,
    unit_upper_stack,
)

@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream keyed by (seed, stream_index).

    Identical keys always produce bitwise-identical draws; distinct
    stream indices give statistically independent streams, which is what
    per-candidate sampling uses.  Both keys are integers by
    :func:`~siegel.iwasawa.is_int` in [0, 2**64), the range of numpy's
    seed words, checked at construction (:class:`InvalidArgumentError`
    otherwise, rather than fold two seeds onto one stream) and stored as
    Python ints.
    """

    seed: int
    stream_index: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_index"):
            value = getattr(self, name)
            if not (is_int(value) and 0 <= value < 2**64):
                raise InvalidArgumentError(
                    f"RngStream {name} must be an integer in [0, 2**64), got {value!r}"
                )
            object.__setattr__(self, name, int(value))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_index,))
        return np.random.default_rng(ss)


def _as_stream(rng) -> RngStream:
    """``rng`` if it is an :class:`RngStream`: every seeded call of the
    package, sampler, estimate or search, takes a stream, not a bare
    generator, so each result is reproduced from the key it was drawn by."""
    if not isinstance(rng, RngStream):
        raise InvalidArgumentError(f"expected RngStream, got {type(rng)}")
    return rng


def conjugation_jacobian(a) -> float:
    """Determinant of ``u -> a u a^{-1}`` on strict upper coordinates.

    The map scales the (i, j) coordinate by ``a_i / a_j``, so the value is
    ``prod_{i<j} a_i / a_j``; evaluated in log space, where the unit
    product is ``|sum(log a)| <= DET_TOL``.  Raises
    ``ToleranceNotMetError`` where the value leaves the float range
    (overflows, or underflows to 0), as :func:`siegel_density` does.
    ``a`` must be a vector of length n >= 2, else
    :class:`InvalidArgumentError`.
    """
    a = _real_array(a)
    if a.ndim != 1:
        raise InvalidArgumentError(f"a must be a vector, got shape {a.shape}")
    n = as_count(a.size, "len(a)", least=2)
    if np.any(a <= 0.0) or not np.all(np.isfinite(a)):
        raise NonPositiveEntryError("all diagonal entries must be positive")
    log_a = np.log(a)
    log_det = float(np.sum(log_a))
    if abs(log_det) > DET_TOL:
        raise InvalidArgumentError(f"sum(log a) = {log_det!r}, expected 0 within {DET_TOL}")
    # sum_{i<j} (log a_i - log a_j) = sum_i (n - 2i + 1) log a_i  (1-based i)
    weights = n - 2.0 * np.arange(1, n + 1) + 1.0
    return _finite_exp(np.dot(weights, log_a), f"the jacobian at n = {n}")


def siegel_density_exponents(n: int) -> np.ndarray:
    """Exponents ``i*(n-i) - 1`` of the diagonal-block density, i = 1..n-1."""
    i = np.arange(1, as_count(n, "n", least=2))
    return i * (n - i) - 1


def _weight_exponents(n: int) -> np.ndarray:
    """Exponents ``i*(n-i)`` of the density times ``prod(b)``, i = 1..n-1:
    the log of an importance weight is ``log(b) @ _weight_exponents(n)``."""
    return siegel_density_exponents(n) + 1.0


def siegel_density(b) -> float:
    """Unnormalized density ``prod b[i]**(i*(n-i)-1)`` in ratio coordinates,
    ``exp(log(b) @ (i*(n-i)-1))``.

    Raises ``ToleranceNotMetError`` where the value leaves the float range
    (0 or not finite), as it does for typical points from n = 20 on; a
    point's ``log_weight`` holds the same information in log space.  ``b``
    must be a vector, as ``a`` of :func:`conjugation_jacobian` must, else
    :class:`InvalidArgumentError`.
    """
    b = _real_array(b)
    if b.ndim != 1:
        raise InvalidArgumentError(f"b must be a vector, got shape {b.shape}")
    if np.any(b <= 0.0) or not np.all(np.isfinite(b)):
        raise NonPositiveEntryError("all ratio coordinates must be positive")
    n = b.size + 1
    return _finite_exp(np.log(b) @ siegel_density_exponents(n), f"the density at n = {n}")


def sample_haar_so_batch(n: int, size: int, rng) -> np.ndarray:
    """Stack of ``size`` Haar-uniform SO(n) matrices, shape (size, n, n).

    QR of iid standard normals, rescaled so the triangular factor has a
    positive diagonal (Haar on O(n)); when det = -1 the last column is
    negated, which maps the reflection component onto SO(n) preserving
    the measure.  ``rng`` is an :class:`RngStream`, else
    :class:`InvalidArgumentError`; each call draws from the start of its
    stream, so the stack is a function of ``(n, size, rng)``.
    """
    n = as_count(n, "n", least=2)
    size = as_count(size, "size")
    return _haar_so_from_normals(_as_stream(rng).generator().standard_normal((size, n, n)))


def _haar_so_from_normals(z: np.ndarray) -> np.ndarray:
    """The Haar step of :func:`sample_haar_so_batch` on an (m, n, n) stack
    of standard normals."""
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    sign = np.where(diag < 0.0, -1.0, 1.0)
    q = q * sign[:, None, :]
    dets = np.linalg.det(q)
    q[dets < 0.0, :, -1] *= -1.0
    return q


def group_elements(b, u, k) -> np.ndarray:
    """``s = k @ diag(a_from_b(b)) @ u`` (the membership order) for Siegel
    coordinates ``b`` (..., n-1), ``u`` and ``k`` (..., n, n); the three
    broadcast, so a stack in any of them gives a stack of elements."""
    return _group_elements_from_a(k, a_from_b(b), u)


@dataclass(frozen=True)
class SiegelCoordinatePoint:
    """A point of the Siegel coordinate box, or a stack of them: ``b`` has
    shape (..., n-1), ``u`` and ``k`` (..., n, n).  ``points[i]`` is point i
    of a stack, as a copy."""

    b: np.ndarray
    u: np.ndarray
    k: np.ndarray

    def __getitem__(self, i) -> SiegelCoordinatePoint:
        return SiegelCoordinatePoint(b=self.b[i].copy(), u=self.u[i].copy(), k=self.k[i].copy())

    @property
    def log_weight(self):
        """log of the density times the log-uniform importance correction
        ``prod(b)``, ``log(b) @ e`` with ``e[i] = i*(n-i)`` as in
        :func:`a_integral_mc`; a float for one point, an array for a stack.
        Finite wherever ``b`` is, however small the weight itself."""
        return np.log(self.b) @ _weight_exponents(self.b.shape[-1] + 1)

    def to_group_element(self) -> np.ndarray:
        """Materialize as ``k @ diag(a) @ u`` (the membership order)."""
        return group_elements(self.b, self.u, self.k)

    def to_json_dict(self) -> dict:
        """The coordinates of one point."""
        return {
            "b": [float(x) for x in self.b],
            "u": matrix_to_json_dict(self.u),
            "k": matrix_to_json_dict(self.k),
        }


def _block_log_lows(p: SiegelParams, b_lows) -> np.ndarray:
    """``log(b_lows)`` as a column, the lower ends of a block's log b draws;
    the sampler's one range check, ``0 < b_low < t`` for every entry."""
    lows = _real_array(b_lows).reshape(-1)
    bad = ~((lows > 0.0) & (lows < p.t))
    if bad.any():
        b_min = float(lows[np.argmax(bad)])
        raise InvalidRangeError(f"need 0 < b_min < t, got b_min={b_min}, t={p.t}")
    return np.log(lows)[:, None]


def _draw_block(n: int, p: SiegelParams, log_lows: np.ndarray, gen: np.random.Generator):
    """The three generator calls of a block of ``len(log_lows)`` points: all
    log b, all u entries, all normals of the rotations, each row-major."""
    m = log_lows.shape[0]
    log_b = gen.uniform(log_lows, math.log(p.t), size=(m, n - 1))
    u_vals = gen.uniform(-p.lam, p.lam, size=(m, n * (n - 1) // 2))
    z = gen.standard_normal((m, n, n))
    return log_b, u_vals, z


def _assemble_block(log_b, u_vals, z) -> SiegelCoordinatePoint:
    """The points of drawn rows, any stack of them: ``b = exp(log_b)``, u
    from its strict upper entries, k by one Haar QR and sign fix.  Each row
    depends only on its own draws."""
    return SiegelCoordinatePoint(
        b=np.exp(log_b), u=unit_upper_stack(u_vals, z.shape[-1]), k=_haar_so_from_normals(z)
    )


def sample_siegel_block(n: int, p: SiegelParams, b_lows, rng) -> SiegelCoordinatePoint:
    """Draw one coordinate point per entry of ``b_lows``, as a stack: b
    log-uniform on [b_lows[i], t], u uniform on the lam-box, k Haar on SO(n).

    A block of m rows makes three generator calls whatever m is: all m*(n-1)
    log b, then all m*n(n-1)/2 u entries, then the m*n*n normals of the
    rotations, each row-major.  So the points depend on m, not only on the
    stream: a block of m is not m blocks of one.  The Haar QR and sign fix
    run once on the whole stack.  ``rng`` is an :class:`RngStream`, else
    :class:`InvalidArgumentError`, and each call draws from the start of
    its stream, as :func:`sample_haar_so_batch` does.
    """
    n = as_count(n, "n", least=2)
    log_lows = _block_log_lows(p, b_lows)
    return _assemble_block(*_draw_block(n, p, log_lows, _as_stream(rng).generator()))


# The non-negative halves of the 64- and 32-node Gauss-Legendre rules on
# [-1, 1], (node, weight) by ascending node, as
# numpy.polynomial.legendre.leggauss gives them; its rules are symmetric
# exactly.  Constants, like the zeta table of siegel.volumes: computing the
# rules costs far more than the product quadrature that reads them, and
# importing numpy.polynomial would load it into every process.
_GAUSS_LEGENDRE_64_HALF = (
    (0.02435029266342443, 0.048690957009139814),
    (0.07299312178779904, 0.04857546744150351),
    (0.12146281929612054, 0.048344762234802996),
    (0.16964442042399283, 0.04799938859645842),
    (0.21742364374000708, 0.04754016571483042),
    (0.2646871622087674, 0.046968182816210076),
    (0.31132287199021097, 0.04628479658131447),
    (0.3572201583376681, 0.045491627927418184),
    (0.4022701579639916, 0.044590558163756566),
    (0.4463660172534641, 0.04358372452932355),
    (0.48940314570705296, 0.04247351512365361),
    (0.5312794640198946, 0.041262563242623576),
    (0.571895646202634, 0.039953741132720544),
    (0.6111553551723933, 0.03855015317861564),
    (0.6489654712546573, 0.03705512854024009),
    (0.6852363130542333, 0.0354722132568823),
    (0.7198818501716109, 0.033805161837141794),
    (0.7528199072605319, 0.032057928354851495),
    (0.7839723589433414, 0.030234657072402554),
    (0.8132653151227975, 0.028339672614259535),
    (0.8406292962525803, 0.02637746971505491),
    (0.8659993981540928, 0.0243527025687112),
    (0.8893154459951141, 0.02227017380838297),
    (0.9105221370785028, 0.020134823153530088),
    (0.9295691721319396, 0.017951715775697284),
    (0.9464113748584028, 0.01572603047602503),
    (0.9610087996520538, 0.01346304789671786),
    (0.973326827789911, 0.011168139460131028),
    (0.983336253884626, 0.008846759826363397),
    (0.9910133714767443, 0.006504457968978502),
    (0.9963401167719552, 0.004147033260564499),
    (0.9993050417357722, 0.00178328072169414),
)
_GAUSS_LEGENDRE_32_HALF = (
    (0.048307665687738324, 0.09654008851472766),
    (0.1444719615827965, 0.09563872007927471),
    (0.23928736225213706, 0.09384439908080451),
    (0.33186860228212767, 0.09117387869576378),
    (0.42135127613063533, 0.08765209300440378),
    (0.5068999089322294, 0.08331192422694671),
    (0.5877157572407623, 0.07819389578707023),
    (0.6630442669302152, 0.07234579410884834),
    (0.7321821187402897, 0.06582222277636168),
    (0.7944837959679424, 0.058684093478535565),
    (0.84936761373257, 0.05099805926237609),
    (0.8963211557660521, 0.042835898022226836),
    (0.9349060759377397, 0.034273862913021765),
    (0.9647622555875064, 0.025392065309262024),
    (0.9856115115452684, 0.016274394730905743),
    (0.9972638618494816, 0.007018610009470506),
)


def _symmetric_rule(half: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The whole rule (nodes, weights), read-only, from its non-negative half."""
    x, w = np.array(half).T
    rule = (np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w)))
    for arr in rule:
        arr.flags.writeable = False
    return rule


_GAUSS_LEGENDRE_64 = _symmetric_rule(_GAUSS_LEGENDRE_64_HALF)
_GAUSS_LEGENDRE_32 = _symmetric_rule(_GAUSS_LEGENDRE_32_HALF)


def _gauss_legendre_block(n: int, t: float, rule: tuple[np.ndarray, np.ndarray]) -> float:
    """Product quadrature of (1/2) prod b**(i(n-i)-1) over (0, t]^(n-1),
    with the Gauss-Legendre ``rule`` (nodes, weights) on [-1, 1].

    The integrand separates, so each dimension is a 1-d monomial integral,
    exact once the rule order exceeds the exponent.
    """
    x, w = rule
    # map [-1, 1] -> [0, t]
    xs = 0.5 * t * (x + 1.0)
    ws = 0.5 * t * w
    value = 0.5
    for e in siegel_density_exponents(n):
        value *= float(np.dot(ws, xs ** float(e)))
    return value


#: Relative agreement of the 64- and 32-node rules that certifies a quadrature.
_QUADRATURE_REL_TOL = 1e-10


def a_integral_quadrature(n: int, t: float) -> float:
    """Diagonal-block integral (1/2) * Int_{(0,t]^{n-1}} prod b**(i(n-i)-1) db.

    64-node Gauss-Legendre per dimension (exact for monomials up to degree
    127, far above the exponents for n <= 11); the result is certified by
    agreement with a 32-node rule to ``_QUADRATURE_REL_TOL``.  A value that
    is 0 or not finite in double precision is not certified either.
    """
    n = as_count(n, "n", least=2)
    t = _siegel_bound(t, "t")
    hi = _gauss_legendre_block(n, t, _GAUSS_LEGENDRE_64)
    lo = _gauss_legendre_block(n, t, _GAUSS_LEGENDRE_32)
    if not (0.0 < hi < math.inf and abs(hi - lo) <= _QUADRATURE_REL_TOL * hi):
        raise ToleranceNotMetError(
            f"quadrature not certified: {hi!r} vs {lo!r} (rel_tol={_QUADRATURE_REL_TOL})"
        )
    return hi


@dataclass(frozen=True)
class MonteCarloReport:
    """Importance-sampling estimate with its standard error.

    ``truncation_bound`` is the relative mass of the region below b_min
    that the proposal cannot see; the estimate is unbiased for the integral
    over [b_min, t]^{n-1} and undershoots the full integral by at most this
    fraction.

    ``effective_samples`` is Kish's ``(sum w)**2 / sum w**2`` over the
    importance weights.  The weights are bounded, so it is a fixed share of
    ``samples`` at each n, about 3/4 per coordinate: 0.89 at n = 2 and 0.13
    at n = 8 for the default b_min.

    ``seed`` and ``stream_index`` are the key of the :class:`RngStream` the
    samples were drawn from, so the report reproduces from what it prints.
    """

    estimate: float
    std_error: float
    samples: int
    seed: int
    stream_index: int
    b_min: float
    truncation_bound: float
    effective_samples: float

    def to_json_dict(self) -> dict:
        return asdict(self)


DEFAULT_B_MIN_FRACTION = 1.0 / 16.0

#: Monte Carlo samples per block: one reused (n-1, _MC_BLOCK) draw buffer
#: (128 KiB per coordinate) and one reused weight buffer of this many
#: doubles, small enough that a block's draws and weights stay in cache from
#: the draw to the sums.
_MC_BLOCK = 1 << 14


def a_integral_mc(
    n: int,
    t: float,
    samples: int,
    rng: RngStream,
    b_min: float | None = None,
) -> MonteCarloReport:
    """Monte Carlo estimate of the same integral as :func:`a_integral_quadrature`.

    Draws each ratio coordinate b[i] from the truncated power law with
    density proportional to ``b**(e[i]/2 - 1)`` on [b_min, t], where
    ``e[i] = i*(n-i)`` is the exponent of the density times ``b[i]``: then
    ``y[i] = (b[i]/t)**(e[i]/2)`` is uniform on ``[r[i], 1]`` with
    ``r[i] = (b_min/t)**(e[i]/2)``.  Against this proposal the integrand's
    factor ``b**(e-1)`` is proportional to ``y``, so with
    ``y = (1-r)*(x+c)``, ``x = gen.random(...)`` uniform on [0, 1) and
    ``c = r/(1-r)``, a draw carries the weight ``prod(x[i] + c[i])``,
    bounded by ``prod(1 + c[i])``.  The estimate is the mean weight times
    ``exp(log_scale)``, ``log_scale = log(1/2) + sum(e*log(t) + log(2/e) +
    2*log1p(-r))``.

    That scale is the closed form's normalising constant per coordinate:
    the exact integral over [b_min, t]^(n-1) is the scale times the product
    of the factors' means ``(1+r)/(2*(1-r))``.  So the estimate checks the
    sampler and the product structure of the weight, not the constants the
    scale already holds.

    The samples run in blocks of ``_MC_BLOCK``: each is drawn by one
    ``gen.random`` into a reused (n-1, k) buffer, one contiguous row per
    coordinate (a last, partial block fills the first (n-1)*k doubles of the
    same buffer), and its weights are built row by row in a reused weight
    buffer, summed, squared in place and summed again.  A call allocates at
    most ``_MC_BLOCK*n`` doubles (1 MiB at n = 8) whatever ``samples`` is.
    Both sums are numpy's pairwise sums, not BLAS reductions, so the report
    does not depend on the BLAS thread count; the block sums are combined
    with ``math.fsum``.  The scale is applied in log space to the log of the
    mean weight, and the standard error is the estimate times the weights'
    relative standard deviation over ``sqrt(samples)``, so only an estimate
    that is itself 0 or not finite in double precision raises
    ``ToleranceNotMetError``, as does a sum of squared weights below the
    normal double range (from n of about 450 on, where the effective samples
    are about one).  Raises ``InvalidArgumentError`` for a
    non-integer ``n`` or ``samples``, a ``t`` that is not a positive finite
    real number, a ``b_min`` that is not a real number or an ``rng`` that is
    not an :class:`RngStream` (the report records its key), and
    ``InvalidRangeError`` unless ``0 < b_min < t``, exactly and with b_min
    as a float.
    """
    n = as_count(n, "n", least=2)
    samples = as_count(samples, "samples", least=2)
    t = _siegel_bound(t, "t")
    if b_min is None:
        b_min = t * DEFAULT_B_MIN_FRACTION
    elif not _is_real(b_min):
        raise InvalidArgumentError(f"b_min must be a real number, got {b_min!r}")
    if not (0.0 < b_min < t and float(b_min) < t):
        raise InvalidRangeError(f"need 0 < b_min < t, got b_min={b_min}, t={t}")
    gen = _as_stream(rng).generator()
    exponents = _weight_exponents(n)
    ratio = float(b_min) / t
    # log(r) and log(1 - r) without cancellation; a ratio that underflows to
    # 0 gives r = 0
    with np.errstate(divide="ignore"):
        log_r = 0.5 * exponents * np.log(ratio)
    log1m_r = np.log(-np.expm1(log_r))
    offsets = np.exp(log_r - log1m_r)
    log_scale = math.log(0.5) + float(
        np.sum(exponents * math.log(t) + np.log(2.0 / exponents) + 2.0 * log1m_r)
    )

    block = min(_MC_BLOCK, samples)
    draws = np.empty((n - 1) * block)
    weights = np.empty(block)
    sums, sq_sums = [], []
    for s in range(0, samples, _MC_BLOCK):
        k = min(_MC_BLOCK, samples - s)
        x, w = draws[: (n - 1) * k].reshape(n - 1, k), weights[:k]
        gen.random(out=x)
        np.add(x[0], offsets[0], out=w)
        for i in range(1, n - 1):
            np.multiply(w, np.add(x[i], offsets[i], out=x[i]), out=w)
        sums.append(float(np.sum(w)))
        sq_sums.append(float(np.sum(np.square(w, out=w))))
    total, total_sq = math.fsum(sums), math.fsum(sq_sums)
    if not total_sq >= sys.float_info.min:
        raise ToleranceNotMetError(
            f"the squared weights sum to {total_sq!r}, below the normal double range"
        )
    effective = total * (total / total_sq)
    log_estimate = log_scale + math.log(total / samples)
    with np.errstate(over="ignore"):
        estimate = float(np.exp(log_estimate))
    if not 0.0 < estimate < math.inf:
        raise ToleranceNotMetError(
            f"estimate {estimate!r} is not a positive finite double: its log is {log_estimate!r}"
        )
    # the relative variance of the weights is (samples/effective - 1) * samples/(samples - 1)
    std_error = estimate * math.sqrt(max(samples / effective - 1.0, 0.0) / (samples - 1))
    trunc = 1.0 - float(np.prod(1.0 - ratio**exponents))
    return MonteCarloReport(
        estimate=estimate,
        std_error=std_error,
        samples=samples,
        seed=rng.seed,
        stream_index=rng.stream_index,
        b_min=float(b_min),
        truncation_bound=trunc,
        effective_samples=effective,
    )
