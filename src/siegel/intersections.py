"""Which integer matrices can map the Siegel set back onto itself.

For gamma in SL(n,Z), ``gamma @ Sigma`` meets ``Sigma`` only if gamma's
entries are small: writing a witness pair s, gamma @ s in the u-left
order ``s = mu @ diag(alpha) @ kappa`` gives
``gamma = nu @ diag(beta) @ kappa' @ diag(alpha)^-1 @ mu^-1``, and a chain
of inequalities relating alpha and beta through gamma's leading entries
and block structure bounds every entry by ``sqrt(n)**(n**2 - 1)``.

This module provides those combinatorial gadgets (leading entries, finest
block partition, the height bound with its published variants), evaluates
the inequality chain on concrete witnesses, searches for witnesses by
seeded importance sampling plus local refinement, and exhaustively
enumerates the small-n candidate set together with the two-sided count
bounds.  The search is one-sided: it can certify membership in the
intersecting set, and can exclude only via the height bound; everything
else stays ``unknown``.  The bounds are those of the canonical Siegel
set (t = 2/sqrt(3), lambda = 1/2): :func:`find_witness` takes any set
inside it, where an element above the height bound still cannot
intersect, and refuses a larger one; :func:`enumerate_intersections`
searches the canonical set alone, the one its lower bound ceil(C(n))
counts for.

The search runs every candidate of an enumeration in lockstep, and
:func:`find_witness` is its one-candidate case.  The boundary probes of
all open candidates are scored as one stack.  Random samples come in
blocks of a fixed schedule, each candidate drawing from its own stream, so
each sample depends only on the seed, the candidate and the sample index,
never on the budget; one stack per block round scores the blocks of all
open candidates.  Near hits are refined in waves of at most one point per
open candidate, the + and - trials of every point in one stack per
coordinate.  Hits are still taken in sample order, candidate by
candidate, so every report is the one the candidate's own search gives,
byte for byte.  Candidates are taken in chunks so that no stack holds
more than ``_STACK_ROWS`` rows.

Caveat on conventions: witnesses are verified against the k-left
membership predicate (the one :func:`siegel.iwasawa.siegel_membership`
implements), while the chain and the height bound are certified for the
u-left reading of the Siegel set; the chain reads the u-left diagonals
as the reversed k-left ``a`` of the anti-transposes ``J s^T J``.  The two
predicates provably differ, and under the k-left one the height bound is
heuristic: at n = 2 the shear with entry 5 admits a verified k-left
witness.  ``witnessed`` therefore always means a concretely verified pair
that also passes the chain; ``excluded`` means the published bound fails;
near-witnesses that break the chain are counted in ``rejected_witnesses``
and the candidate stays ``unknown``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product as _iter_product

import numpy as np

from .errors import (
    DimensionTooLargeError,
    InvalidArgumentError,
    InvalidWitnessError,
)
from .haar import (
    DEFAULT_B_MIN_FRACTION,
    RngStream,
    SiegelCoordinatePoint,
    _assemble_block,
    _block_log_lows,
    _draw_block,
    group_elements,
)
from .iwasawa import (
    MINIMAL_PARAMS,
    SiegelParams,
    UnimodularIntMatrix,
    _bareiss_det,
    _siegel_coordinates,
    _strict_upper_indices,
    as_count,
    as_square_matrix,
    membership_excess,
    unit_upper_stack,
)
from .volumes import ratio_C

STATUS_WITNESSED = "witnessed"
STATUS_EXCLUDED = "excluded"
STATUS_UNKNOWN = "unknown"

DEFAULT_WITNESS_TOL = 1e-7
STRICT_WITNESS_TOL = 1e-9
DEFAULT_BUDGET = 400
#: Relative slack of each inequality of the chain.
CHAIN_TOL = 1e-9
#: Random samples with a pair excess up to this value are refined.
NEAR_HIT = 0.08


def leading_entries(gamma: UnimodularIntMatrix) -> list[tuple[int, int]]:
    """Per row, the (row, col) of the leftmost nonzero entry (1-based)."""
    out = []
    for i, row in enumerate(gamma.entries, start=1):
        for j, x in enumerate(row, start=1):
            if x != 0:
                out.append((i, j))
                break
        else:
            raise InvalidArgumentError(f"row {i} is zero; matrix not invertible")
    return out


def finest_partition(gamma: UnimodularIntMatrix) -> list[tuple[int, int]]:
    """Finest interval partition w.r.t. which gamma is block upper triangular.

    Components are inclusive 1-based intervals (start, end) covering 1..n;
    a cut after index k is allowed iff every entry below-left of the (k, k)
    corner vanishes (gamma[i, j] == 0 for all i > k, j <= k), and
    components are the maximal uncut runs.
    """
    n = gamma.n
    e = gamma.entries
    components = []
    start = 1
    for k in range(1, n):
        if all(e[i][j] == 0 for i in range(k, n) for j in range(k)):
            components.append((start, k))
            start = k + 1
    components.append((start, n))
    return components


def log_height_bound(n: int) -> float:
    """log of the proof-traceable bound (sqrt n)^(n^2 - 1)."""
    n = as_count(n, "n", least=2)
    return (n * n - 1) / 2.0 * math.log(n)


def height_bound(n: int) -> float:
    """Entry bound certified for every intersecting gamma: (sqrt n)^(n^2-1).

    This is the constant the bound's own derivation produces; the
    published statements carry the smaller exponent (n^2 - n)/2, exposed
    in :func:`height_bound_variants`.  The larger exponent is the safe
    choice for an exclusion test.
    """
    return math.exp(log_height_bound(n))


def height_bound_variants(n: int) -> dict[str, float]:
    """All published forms of the bound, keyed by their exponent of sqrt(n)."""
    return {
        "exponent_n2_minus_1": height_bound(n),
        "exponent_n2_minus_n": math.exp((n * n - n) / 2.0 * math.log(n)),
    }


@dataclass(frozen=True)
class FilterCheck:
    """One evaluated necessary condition: name, 1-based indices, verdict."""

    name: str
    indices: tuple[int, ...]
    passed: bool
    lhs: float
    rhs: float

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "indices": list(self.indices),
            "passed": self.passed,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


def lemma_filter_chain(
    gamma: UnimodularIntMatrix,
    s: np.ndarray,
    p: SiegelParams = MINIMAL_PARAMS,
    membership_tol: float = DEFAULT_WITNESS_TOL,
) -> list[FilterCheck]:
    """Evaluate the full inequality chain on a concrete witness pair.

    ``alpha`` and ``beta`` are the diagonal u-left factors of s and
    gamma @ s (the order in which the chain's derivation writes Siegel
    elements): the reversed ``a`` of the anti-transposes ``J @ s.T @ J``
    and ``J @ (gamma @ s).T @ J``, with ``J`` the reversal matrix, read
    as one stack of two.  Raises :class:`InvalidWitnessError` unless both
    elements satisfy the membership constraints within ``membership_tol``
    (also scored as one stack of two).  Every
    check is recorded and passes within a relative slack of ``CHAIN_TOL``;
    on a genuine witness all of them are expected to pass, and a failure
    is a loud signal of a numerical or logical fault.
    """
    n = gamma.n
    s = as_square_matrix(s)
    gamma_s = gamma.to_array() @ s
    exc_s, exc_gs = membership_excess(np.stack([s, gamma_s]), p, check=False).tolist()
    if exc_s > membership_tol or exc_gs > membership_tol:
        raise InvalidWitnessError(
            f"membership violated: excess(s)={exc_s:.3e}, excess(gamma s)={exc_gs:.3e}"
        )
    j = np.fliplr(np.eye(n))
    a, _ = _siegel_coordinates(np.stack([j @ s.T @ j, j @ gamma_s.T @ j]))
    alpha, beta = a[:, ::-1]
    sqrt_n = math.sqrt(n)
    checks: list[FilterCheck] = []

    def record(name, indices, lhs, rhs):
        checks.append(
            FilterCheck(
                name=name,
                indices=indices,
                passed=bool(lhs <= rhs + CHAIN_TOL * max(1.0, rhs)),
                lhs=float(lhs),
                rhs=float(rhs),
            )
        )

    leads = leading_entries(gamma)
    for (i, j) in leads:
        record("leading_entry_ratio", (i, j), alpha[j - 1], sqrt_n * beta[i - 1])
    for k in range(1, n + 1):
        record("diagonal_ratio", (k,), alpha[k - 1], sqrt_n * beta[k - 1])
    rev = sqrt_n ** (n - 1)
    for j in range(1, n + 1):
        record("reverse_ratio", (j,), beta[j - 1], rev * alpha[j - 1])
    comp = height_bound(n)
    # component index of each 0-based position
    component = [
        idx
        for idx, (lo, hi) in enumerate(finest_partition(gamma))
        for _ in range(lo, hi + 1)
    ]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if component[i - 1] == component[j - 1]:
                record("component_ratio", (i, j), beta[j - 1], comp * alpha[i - 1])
    record("height_bound", (), float(gamma.height()), comp)
    return checks


@dataclass(frozen=True)
class IntersectionReport:
    """Per-candidate outcome of the witness search.

    ``witnessed`` carries a verified witness point and its residual
    membership excess; ``excluded`` means the height bound (a proven
    necessary condition) failed; ``unknown`` is an honest timeout.
    ``rejected_witnesses`` counts the verified witnesses that the chain
    rejected before the verdict.
    """

    gamma: UnimodularIntMatrix
    status: str
    witness: SiegelCoordinatePoint | None
    filter_trace: list[FilterCheck]
    witness_excess: float | None = None
    rejected_witnesses: int = 0

    def to_json_dict(self) -> dict:
        return {
            "gamma": self.gamma.to_json_dict(),
            "status": self.status,
            "witness": self.witness.to_json_dict() if self.witness else None,
            "witness_excess": self.witness_excess,
            "rejected_witnesses": self.rejected_witnesses,
            "filter_trace": [c.to_json_dict() for c in self.filter_trace],
        }


@lru_cache(maxsize=None)
def _probe_block(n: int, p: SiegelParams) -> tuple[SiegelCoordinatePoint, np.ndarray]:
    """Deterministic first guesses and their group elements: identity
    diagonal, every corner/center pattern of the unipotent box.  These sit
    exactly on the boundary, which is where translate overlaps concentrate.
    Built once per (n, p); the arrays are read-only because every search
    shares them."""
    patterns = np.array(list(_iter_product((0.0, -p.lam, p.lam), repeat=n * (n - 1) // 2)))
    count = patterns.shape[0]
    b = np.ones((count, n - 1))
    u = unit_upper_stack(patterns, n)
    probes = SiegelCoordinatePoint(b=b, u=u, k=np.broadcast_to(np.eye(n), (count, n, n)))
    s = probes.to_group_element()
    b.flags.writeable = u.flags.writeable = s.flags.writeable = False
    return probes, s


_SIGNS = np.array([1.0, -1.0])
#: Rounds of coordinate descent per refinement.
_REFINE_ROUNDS = 60
#: Size of the first block of random samples; each later block doubles.
_FIRST_BLOCK = 16
#: Most rows in one stack of the search: candidates are searched in chunks
#: whose probes, sample blocks and refinement trials fit in this many rows
#: (a chunk of one when a single candidate's block is larger).
_STACK_ROWS = 1 << 14


def _pair_excess(gf: np.ndarray, s: np.ndarray, p: SiegelParams) -> np.ndarray:
    """Membership excess of every ``gf @ s``, the two broadcast to (..., n, n)."""
    gs = gf @ s
    n = gs.shape[-1]
    return membership_excess(gs.reshape(-1, n, n), p, check=False).reshape(gs.shape[:-2])


def _refine_points(
    gfs: np.ndarray, points: SiegelCoordinatePoint, p: SiegelParams
) -> tuple[SiegelCoordinatePoint, list[float]]:
    """Coordinate descent on the witness coordinates (log b, u, k-angles) of
    every point of a stack, in lockstep, keeping each point inside the box
    and minimizing the membership excess of ``gfs[i] @ s_i`` until it is at
    most ``STRICT_WITNESS_TOL``.

    For each coordinate, the + and - trial of every active point are scored
    as one stack; a point takes its + step if it improves, else its - step
    if that does.  Each point keeps its own steps, best value and stopping
    rule and leaves the stack when it stops, so row i of the result is, bit
    for bit, what point i gives alone.
    """
    m, n = points.b.shape[0], points.b.shape[-1] + 1
    log_t = math.log(p.t)
    pairs = list(zip(*_strict_upper_indices(n)))
    eye = np.eye(n)

    # every array below holds the active points along axis 0 and their
    # trials along axis 1: one trial (the point itself) or the + and - trial
    def move_b(log_b, c, deltas):
        trials = np.repeat(log_b, 2, axis=1)
        trials[:, :, c] = np.minimum(log_b[:, :, c] + deltas, log_t)
        return trials

    def move_u(u, ij, deltas):
        i, j = ij
        trials = np.repeat(u, 2, axis=1)
        trials[:, :, i, j] = np.clip(u[:, :, i, j] + deltas, -p.lam, p.lam)
        return trials

    def move_k(k, ij, deltas):
        # a Givens rotation in the (i, j) plane per trial angle
        i, j = ij
        cos_sin = np.array([(math.cos(x), math.sin(x)) for x in deltas.ravel().tolist()])
        cos, sin = cos_sin.T.reshape((2,) + deltas.shape)
        rot = np.empty(deltas.shape + (n, n))
        rot[:] = eye
        rot[..., i, i] = rot[..., j, j] = cos
        rot[..., i, j], rot[..., j, i] = -sin, sin
        return k @ rot

    def excess(gf, log_b, u, k):
        # a stack in any of (log_b, u, k) scores every trial at once
        return _pair_excess(gf, group_elements(np.exp(log_b), u, k), p)

    slots = [(move_b, range(n - 1)), (move_u, pairs), (move_k, pairs)]
    out = [np.minimum(np.log(points.b), log_t), points.u.copy(), points.k.copy()]
    best = excess(gfs, *out).tolist()
    steps = [[0.25, 0.2 * p.lam, 0.25] for _ in range(m)]
    # the points still descending: their rows of ``out``, their gammas, and
    # their coordinates with a trial axis of one; views of ``out`` until the
    # first point stops, copies after that
    rows, gf, now = list(range(m)), gfs[:, None], [x[:, None] for x in out]

    def settle():
        if len(rows) < m:
            for x, y in zip(out, now):
                x[rows] = y[:, 0]

    for _ in range(_REFINE_ROUNDS):
        improved = [False] * len(rows)
        # the + and - step of every point and slot, (points, slot, sign)
        deltas = np.array([steps[r] for r in rows])[:, :, None] * _SIGNS
        for slot, (move, coords) in enumerate(slots):
            for c in coords:
                args = list(now)
                args[slot] = trials = move(now[slot], c, deltas[:, slot])
                for a, (r, pair) in enumerate(zip(rows, excess(gf, *args).tolist())):
                    # the + trial if it improves, else the - trial if that does
                    for t, exc in enumerate(pair):
                        if exc < best[r]:
                            best[r], now[slot][a, 0], improved[a] = exc, trials[a, t], True
                            break
        keep = []
        for a, r in enumerate(rows):
            if best[r] <= STRICT_WITNESS_TOL:
                continue
            if not improved[a]:
                steps[r] = [step * 0.5 for step in steps[r]]
                if max(steps[r]) < 1e-13:
                    continue
            keep.append(a)
        if len(keep) < len(rows):
            settle()
            if not keep:
                break
            rows, gf, now = [rows[a] for a in keep], gf[keep], [x[keep] for x in now]
    else:
        settle()
    log_b, u, k = out
    return SiegelCoordinatePoint(b=np.exp(log_b), u=u, k=k), best


@lru_cache(maxsize=None)
def _sample_log_lows(p: SiegelParams, size: int) -> np.ndarray:
    """The log lower ends of the b draws of a sample block of ``size``
    points: ``t * DEFAULT_B_MIN_FRACTION`` on even rows and the top band
    ``t / sqrt(2)`` on odd ones.  Block sizes are even, so row i of every
    block has the parity of its sample index.  Built once per (p, size),
    read-only."""
    lows = np.tile([p.t * DEFAULT_B_MIN_FRACTION, p.t / math.sqrt(2.0)], size // 2)
    log_lows = _block_log_lows(p, lows)
    log_lows.flags.writeable = False
    return log_lows


def _blocks(budget: int):
    """(size, scored rows) of every sample block a budget reaches: sizes 16,
    32, 64, ..., the last one scored only up to the budget."""
    drawn, size = 0, _FIRST_BLOCK
    while drawn < budget:
        yield size, min(size, budget - drawn)
        drawn += size
        size *= 2


@dataclass(eq=False)
class _Candidate:
    """The search state of one candidate: its stream and generator, the
    height check that heads its trace, the failed checks of each
    chain-rejected witness, and its report once it has one."""

    gamma: UnimodularIntMatrix
    rng: RngStream
    head: FilterCheck
    gen: np.random.Generator | None = None
    rejected: list[list[FilterCheck]] = field(default_factory=list)
    report: IntersectionReport | None = None

    def attempt(self, point: SiegelCoordinatePoint, excess: float, p: SiegelParams) -> None:
        """Chain-check a verified candidate witness; a clean chain gives the
        report, a failed one is counted in ``rejected``."""
        try:
            checks = lemma_filter_chain(
                self.gamma,
                point.to_group_element(),
                p=p,
                membership_tol=max(DEFAULT_WITNESS_TOL, excess * 2.0 + 1e-15),
            )
        except InvalidWitnessError:
            return
        if all(c.passed for c in checks):
            self.report = IntersectionReport(
                self.gamma,
                STATUS_WITNESSED,
                point,
                [self.head] + checks,
                float(excess),
                rejected_witnesses=len(self.rejected),
            )
        else:
            self.rejected.append([c for c in checks if not c.passed])


def _search(
    gammas: list[UnimodularIntMatrix], p: SiegelParams, budget: int, rngs: list[RngStream]
) -> list[IntersectionReport]:
    """The witness search of :func:`find_witness` for every candidate, in
    lockstep; candidate i searches with stream ``rngs[i]``.  Candidates
    above the height bound are excluded at once, the others are searched in
    chunks that keep every stack within ``_STACK_ROWS`` rows."""
    cands = []
    for gamma, rng in zip(gammas, rngs):
        bound, height = height_bound(gamma.n), float(gamma.height())
        head = FilterCheck("height_bound", (), height <= bound, height, bound)
        cand = _Candidate(gamma, rng, head)
        if not head.passed:
            cand.report = IntersectionReport(gamma, STATUS_EXCLUDED, None, [head], None)
        cands.append(cand)
    live = [c for c in cands if c.report is None]
    if live:
        n = live[0].gamma.n
        # the most rows one candidate adds to a stack: its probes, its
        # largest block or the two trials of its refined point
        per_candidate = max([len(_probe_block(n, p)[1]), 2] + [size for size, _ in _blocks(budget)])
        chunk = max(1, _STACK_ROWS // per_candidate)
        for lo in range(0, len(live), chunk):
            _search_chunk(live[lo:lo + chunk], p, budget)
    return [c.report for c in cands]


def _search_chunk(cands: list[_Candidate], p: SiegelParams, budget: int) -> None:
    """Search candidates of one dimension in lockstep; every candidate
    leaves with its report.

    Probes of all candidates are scored as one stack.  In each block round
    every open candidate draws its block from its own generator, and the
    scored rows of all blocks go through one Haar QR, one ``group_elements``
    and one membership stack.  Then each open candidate puts its next near
    hit, in index order, into a wave; the wave is refined in lockstep and
    its points are chain-checked in candidate order, until no open
    candidate has a near hit left.
    """
    n = cands[0].gamma.n
    gfs = np.stack([c.gamma.to_array() for c in cands])
    probes, probe_s = _probe_block(n, p)
    for cand, excess in zip(cands, _pair_excess(gfs[:, None], probe_s, p)):
        for i in np.flatnonzero(excess <= STRICT_WITNESS_TOL):
            cand.attempt(probes[i], excess[i], p)
            if cand.report is not None:
                break
    for size, rows in _blocks(budget):
        live = [i for i, c in enumerate(cands) if c.report is None]
        if not live:
            break
        log_lows = _sample_log_lows(p, size)
        draws = []
        for i in live:
            cand = cands[i]
            if cand.gen is None:
                cand.gen = cand.rng.generator()
            draws.append(_draw_block(n, p, log_lows, cand.gen))
        # rows past the budget are drawn, never assembled or scored
        block = _assemble_block(*(np.concatenate([d[j][:rows] for d in draws]) for j in range(3)))
        s = block.to_group_element().reshape(len(live), rows, n, n)
        hits = [
            np.flatnonzero(excess <= NEAR_HIT).tolist()
            for excess in _pair_excess(gfs[live][:, None], s, p)
        ]
        while True:
            # each open candidate's next near hit, taken off its list
            wave = [
                (i, pos * rows + h.pop(0))
                for pos, (i, h) in enumerate(zip(live, hits))
                if h and cands[i].report is None
            ]
            if not wave:
                break
            owners, picked = zip(*wave)
            refined, finals = _refine_points(gfs[list(owners)], block[list(picked)], p)
            for w, i in enumerate(owners):
                if finals[w] <= DEFAULT_WITNESS_TOL:
                    cands[i].attempt(refined[w], finals[w], p)
    for cand in cands:
        if cand.report is None:
            # chain failures from rejected near-witnesses stay visible in the trace
            cand.report = IntersectionReport(
                cand.gamma, STATUS_UNKNOWN, None,
                [cand.head] + [c for failed in cand.rejected for c in failed], None,
                rejected_witnesses=len(cand.rejected),
            )


def find_witness(
    gamma: UnimodularIntMatrix,
    p: SiegelParams = MINIMAL_PARAMS,
    budget: int = DEFAULT_BUDGET,
    rng: RngStream | None = None,
) -> IntersectionReport:
    """Search for s in the Siegel set with gamma @ s also in the set.

    Order of business: the height bound (failing it proves exclusion),
    then deterministic boundary probes (kept when the pair excess is at
    most ``STRICT_WITNESS_TOL``), then seeded random points with diagonal
    ratios from ``t * DEFAULT_B_MIN_FRACTION`` (every other one from the
    top band [t/sqrt(2), t], where overlaps concentrate).  Samples whose
    pair excess is at most ``NEAR_HIT`` are refined by coordinate
    descent towards ``STRICT_WITNESS_TOL`` and kept at
    ``DEFAULT_WITNESS_TOL``.  A candidate witness only counts once the
    inequality chain passes on it; a chain violation is recorded in the
    trace and the search continues, so a ``witnessed`` verdict is always
    backed by a clean trace.  Larger budgets extend the same sample
    sequence, so a witnessed report stays the same report, byte for byte,
    at every larger budget.  A ``budget`` that is not an integer >= 0
    raises :class:`InvalidArgumentError`, and so does a ``p`` with ``t``
    or ``lam`` above :data:`MINIMAL_PARAMS`: the height bound is proved
    for the canonical set, and so for every set inside it, but not for a
    larger one.

    This is the one-candidate case of the lockstep search that
    :func:`enumerate_intersections` runs over all its candidates, so each of
    its reports is this function's report on that candidate and stream.
    Evaluation is batched, the order is not: all probes are scored as one
    stack, random points are drawn in blocks of 16, 32, 64, ... (each in
    three generator calls, see :func:`sample_siegel_block`), and the
    + and - trials of each refinement coordinate are scored as one stack.
    Every block is drawn at its full size and only its first
    ``budget - drawn`` rows are scored, so block contents depend only on
    the seed and the block index.  Hits are then taken in index order and
    the first verified witness returns, so every verdict and report is the
    one a point-by-point search of the same samples gives, bit for bit.
    """
    budget = as_count(budget, "budget")
    if p.t > MINIMAL_PARAMS.t or p.lam > MINIMAL_PARAMS.lam:
        raise InvalidArgumentError(
            f"the height bound holds only inside the canonical Siegel set "
            f"(t <= {MINIMAL_PARAMS.t!r}, lambda <= {MINIMAL_PARAMS.lam!r}), "
            f"got t={p.t!r}, lambda={p.lam!r}"
        )
    return _search([gamma], p, budget, [RngStream(0, 0) if rng is None else rng])[0]


def _primitive_rows(n: int, max_h: int) -> list[tuple[int, ...]]:
    rows = []
    for row in _iter_product(range(-max_h, max_h + 1), repeat=n):
        g = 0
        for x in row:
            g = math.gcd(g, abs(x))
        if g == 1:
            rows.append(row)
    return rows


def sl_candidates(n: int, max_h: int) -> list[UnimodularIntMatrix]:
    """Every SL(n,Z) element with all entries bounded by max_h, in
    lexicographic row order.

    Rows with gcd != 1 can never appear in a determinant-1 matrix.  For
    each prefix of n - 1 primitive rows, ``det = x . c`` with ``c`` the
    integer cofactor vector of the prefix, so the last rows are exactly
    the primitive rows x with ``x . c == 1`` (none when the prefix is
    rank-deficient and c vanishes).
    """
    n = as_count(n, "n", least=2)
    rows = _primitive_rows(n, as_count(max_h, "max_h"))
    row_array = np.array(rows, dtype=np.int64).reshape(len(rows), n)
    out: list[UnimodularIntMatrix] = []
    for prefix in _iter_product(rows, repeat=n - 1):
        c = [
            (-1) ** (n - 1 + j) * _bareiss_det([r[:j] + r[j + 1:] for r in prefix])
            for j in range(n)
        ]
        if not any(c):
            continue
        for i in np.flatnonzero(row_array @ np.array(c, dtype=np.int64) == 1):
            out.append(UnimodularIntMatrix(prefix + (rows[i],)))
    return out


def count_bounds(n: int) -> tuple[float, float]:
    """(log lower, log upper) bounds on the number of intersecting matrices.

    Lower: the volume ratio from :func:`siegel.volumes.ratio_C`.  Upper:
    the crude lattice-point count (n * height_bound(n))**(n^2 - n).
    """
    n = as_count(n, "n", least=2)
    log_lower = ratio_C(n).log_value()
    log_upper = (n * n - n) * (math.log(n) + log_height_bound(n))
    return log_lower, log_upper


def enumerate_intersections(
    n: int,
    budget_per_candidate: int = DEFAULT_BUDGET,
    rng: RngStream | None = None,
    *,
    max_height: int | None = None,
) -> tuple[list[IntersectionReport], dict]:
    """Run the witness search for the canonical Siegel set
    (:data:`MINIMAL_PARAMS`) over every candidate of height up to the bound.

    The canonical set is the one both count bounds are stated for: the
    height bound that fixes the candidates and excludes, and the volume
    ratio behind ``lower_bound``.  Candidates are exactly the SL(n,Z)
    elements with height at most floor(height_bound(n)) (overridable via
    ``max_height``; at n = 3 the full bound is 81 and the exhaustive grid
    is astronomically large, so practical runs cap it).  Each candidate
    owns the stream (seed, candidate_index), so reports are deterministic.
    The candidates are searched in lockstep, and each report equals
    ``find_witness(gamma, MINIMAL_PARAMS, budget_per_candidate,
    RngStream(seed, candidate_index))`` byte for byte.
    """
    n = as_count(n, "n", least=2)
    if n > 3:
        raise DimensionTooLargeError("exhaustive enumeration is desk-scale only (n <= 3)")
    budget_per_candidate = as_count(budget_per_candidate, "budget_per_candidate")
    if rng is None:
        rng = RngStream(0, 0)
    if max_height is None:
        max_height = int(math.floor(height_bound(n)))
    cap = as_count(max_height, "max_height")
    candidates = sl_candidates(n, cap)
    reports = _search(
        candidates,
        MINIMAL_PARAMS,
        budget_per_candidate,
        [RngStream(rng.seed, idx) for idx in range(len(candidates))],
    )
    counts = {
        STATUS_WITNESSED: sum(r.status == STATUS_WITNESSED for r in reports),
        STATUS_EXCLUDED: sum(r.status == STATUS_EXCLUDED for r in reports),
        STATUS_UNKNOWN: sum(r.status == STATUS_UNKNOWN for r in reports),
    }
    log_lower, log_upper = count_bounds(n)
    lower_bound = math.ceil(math.exp(log_lower))
    summary = {
        "n": n,
        "candidates": len(candidates),
        "witnessed": counts[STATUS_WITNESSED],
        "excluded": counts[STATUS_EXCLUDED],
        "unknown": counts[STATUS_UNKNOWN],
        "lower_bound": lower_bound,
        "upper_log_count": log_upper,
        "meets_lower_bound": counts[STATUS_WITNESSED] >= lower_bound,
        "lower_bound_gap": max(0, lower_bound - counts[STATUS_WITNESSED]),
        "seed": rng.seed,
        "budgets": {"budget_per_candidate": budget_per_candidate},
        "height_cap": cap,
    }
    return reports, summary


def reports_to_jsonl(reports: list[IntersectionReport]) -> str:
    """One compact JSON line per report, the layout of every JSON document
    the CLI writes; no reports give the empty string."""
    return "".join(
        json.dumps(r.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n" for r in reports
    )
