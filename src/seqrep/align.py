"""Exact temporally-constrained sequence matching.

A correspondence ``pi`` assigns every query frame an index in
``{0, 1, ..., m}`` where ``m`` is the target length: value ``v >= 1`` means
target frame ``v - 1``, value ``0`` declares the query frame an outlier.
The objective combines a squared-distance data term with penalties on
chronology violations (crossings), one-to-many repeats, and proportional
gaps between consecutive assignments. Because every penalty couples only
consecutive query positions, the global minimum is found exactly by a
trellis dynamic program over per-frame assignment states; a brute-force
enumerator serves as an optimality oracle on small instances.

Each trellis step costs O(m) through prefix and suffix minima, so a solve
takes O(n * (m+1)) time and memory. A crossing is never cheaper than making
the frame before it an outlier when ``lambda1 >= outlier_cost``, as the
default penalties have it, so a batch relaxes crossings (the suffix minima)
only when one of its instances has ``lambda1 < outlier_cost``. Every chunk
of every pair handed in together (one target's chunks, or all pairs of a
training epoch) is solved in one padded batched pass, each under its own
pair's penalties. Ties go to the smaller state index, and a cost is summed
along its correspondence in the order the recurrence adds it.

Pairs where either endpoint is an outlier contribute no pairwise penalty;
each outlier frame pays a flat ``outlier_cost`` instead.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    ConfigError,
    DegenerateInputError,
    DimensionError,
    ResourceLimitError,
    as_frames,
    pairwise_sqdist,
)

BRUTEFORCE_LIMIT = 10**7
_ENUM_BLOCK = 1 << 16


@dataclass(frozen=True)
class MatchPenalties:
    """Weights of the matching objective's constraint terms.

    lambda1 : cost per chronology violation (crossing)
    lambda2 : cost per one-to-many repeat
    lambda3 : per-index cost of a gap between consecutive assignments
    outlier_cost : flat cost of assigning a query frame the outlier index 0
    """

    lambda1: float
    lambda2: float
    lambda3: float
    outlier_cost: float

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "lambda3", "outlier_cost"):
            object.__setattr__(self, name, _weight(name, getattr(self, name)))


def _weight(name: str, value) -> float:
    """``value`` as a penalty weight: a finite float >= 0, else a ConfigError."""
    v = float(value)
    if not np.isfinite(v) or v < 0:
        raise ConfigError(f"{name} must be finite and >= 0, got {v}")
    return v


@dataclass(frozen=True)
class CostBreakdown:
    data: float
    outlier: float
    order: float
    duplicate: float
    gap: float

    @property
    def total(self) -> float:
        return self.data + self.outlier + self.order + self.duplicate + self.gap


@dataclass(frozen=True)
class Matching:
    """A solved correspondence for one query-vs-target(-chunk) instance.

    ``pi[j] == 0`` marks query frame j as an outlier; ``pi[j] == v >= 1``
    matches it to target frame ``target_offset + v - 1`` of the full target.
    ``total_cost`` is the solver's objective value; :func:`alignment_cost`
    scores ``pi`` term by term where the breakdown is wanted.
    """

    pi: np.ndarray
    total_cost: float
    target_offset: int = 0

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=np.int64).copy()
        if pi.ndim != 1 or pi.size < 1:
            raise DimensionError("pi must be a non-empty 1-D integer array")
        if np.any(pi < 0):
            raise ValueError("pi entries must be >= 0")
        pi.setflags(write=False)
        object.__setattr__(self, "pi", pi)


def _check_instance(query_emb, target_emb) -> tuple[np.ndarray, np.ndarray]:
    q = as_frames(query_emb, "query_emb")
    t = as_frames(target_emb, "target_emb")
    if q.shape[1] != t.shape[1]:
        raise DimensionError(
            f"dimension mismatch: query {q.shape[1]} vs target {t.shape[1]}"
        )
    return q, t


def alignment_cost(query_emb, target_emb, pi, penalties: MatchPenalties) -> CostBreakdown:
    """Score a correspondence term by term against the matching objective.

    Kept independent of both solvers so it can audit their outputs.
    """
    q, t = _check_instance(query_emb, target_emb)
    pi = np.asarray(pi, dtype=np.int64)
    n, m = q.shape[0], t.shape[0]
    if pi.shape != (n,):
        raise DimensionError(f"pi must have shape ({n},), got {pi.shape}")
    if np.any(pi < 0) or np.any(pi > m):
        raise IndexError(f"pi entries must lie in [0, {m}]")

    matched = pi > 0
    data = 0.0
    for j in np.flatnonzero(matched):
        d = q[j] - t[pi[j] - 1]
        data += float(d @ d)
    outlier = penalties.outlier_cost * float(np.sum(~matched))

    a, b = pi[:-1], pi[1:]
    both = (a > 0) & (b > 0)
    order = penalties.lambda1 * float(np.sum(both & (a > b)))
    duplicate = penalties.lambda2 * float(np.sum(both & (a == b)))
    gap_mask = both & (a + 1 < b)
    gap = penalties.lambda3 * float(np.sum((b - a)[gap_mask]))
    return CostBreakdown(data=data, outlier=outlier, order=order,
                         duplicate=duplicate, gap=gap)


def default_penalties(query_emb, target_emb) -> MatchPenalties:
    """Instance-relative penalty defaults, scaled by the mean pairwise data cost."""
    return PenaltyConfig().resolve(query_emb, target_emb)


_DEFAULT_SCALES = {"lambda1": 10.0, "lambda2": 0.5, "lambda3": 0.1, "outlier_cost": 2.0}


@dataclass(frozen=True)
class PenaltyConfig:
    """Configured matching penalties; an unset field resolves per instance.

    :meth:`resolve` takes each unset weight from :func:`default_penalties`
    of the instance at hand, so a partly set configuration keeps its set
    weights and scales the rest with the data. A set weight must be finite
    and >= 0, as in :class:`MatchPenalties`. (When loaded from a config
    file, ``config._check_type`` has already rejected non-finite values for
    every float field; this check adds >= 0 and covers direct construction.)
    """

    lambda1: float | None = None
    lambda2: float | None = None
    lambda3: float | None = None
    outlier_cost: float | None = None

    def __post_init__(self):
        for name, v in asdict(self).items():
            if v is not None:
                _weight(f"penalties.{name}", v)

    def resolve(self, query_feats, target_feats) -> MatchPenalties:
        q, t = _check_instance(query_feats, target_feats)
        return self._of(pairwise_sqdist(q, t))

    def _of(self, d2: np.ndarray) -> MatchPenalties:
        """Resolved for the instance whose (n, m) squared distances are ``d2``."""
        e_unary = float(np.mean(d2))
        return MatchPenalties(**{k: _DEFAULT_SCALES[k] * e_unary if v is None else v
                                 for k, v in asdict(self).items()})


def solve_bruteforce(query_emb, target_emb, penalties: MatchPenalties) -> Matching:
    """Enumerate every correspondence and return a global minimizer.

    Optimality oracle for :func:`solve_exact_dp`. Guarded by
    ``(m + 1) ** n <= 10**7``; ties break toward the lexicographically
    smallest correspondence.
    """
    q, t = _check_instance(query_emb, target_emb)
    n, m = q.shape[0], t.shape[0]
    n_cand = (m + 1) ** n
    if n_cand > BRUTEFORCE_LIMIT:
        raise ResourceLimitError(
            f"({m}+1)^{n} = {n_cand} candidates exceeds limit {BRUTEFORCE_LIMIT}"
        )

    # Per-position assignment cost: column 0 is the outlier price.
    d2 = pairwise_sqdist(q, t)
    unary = np.concatenate(
        [np.full((n, 1), penalties.outlier_cost), d2], axis=1
    )

    shape = (m + 1,) * n
    rows = np.arange(n)
    best_cost = np.inf
    best_pi = None
    for start in range(0, n_cand, _ENUM_BLOCK):
        idx = np.arange(start, min(start + _ENUM_BLOCK, n_cand))
        cand = np.stack(np.unravel_index(idx, shape), axis=1)  # lexicographic
        cost = unary[rows[None, :], cand].sum(axis=1)
        a, b = cand[:, :-1], cand[:, 1:]
        both = (a > 0) & (b > 0)
        cost = cost + penalties.lambda1 * (both & (a > b)).sum(axis=1)
        cost = cost + penalties.lambda2 * (both & (a == b)).sum(axis=1)
        gap = np.where(both & (a + 1 < b), b - a, 0)
        cost = cost + penalties.lambda3 * gap.sum(axis=1)
        k = int(np.argmin(cost))
        if cost[k] < best_cost:
            best_cost = float(cost[k])
            best_pi = cand[k].astype(np.int64)

    return Matching(pi=best_pi, total_cost=best_cost)


def _transition_matrices(m: int, lam1, lam2, lam3) -> np.ndarray:
    """Pairwise penalty of consecutive assignments v -> v', stored as ``w[k, v', v]``.

    One (m+1, m+1) table per instance k, whose weights are the (K, 1)
    columns ``lam1 lam2 lam3``. 0 when either state is the outlier. Between
    frames the penalty depends only on the offset v' - v, so each row is a
    reversed window of one table over the offsets.
    """
    o = np.arange(1 - m, m)  # v' - v
    with np.errstate(over="ignore"):  # only offsets past an instance's own width overflow
        by_offset = lam1 * (o < 0) + lam2 * (o == 0) + lam3 * np.where(o > 1, o, 0)
    w = np.zeros((len(by_offset), m + 1, m + 1))
    w[:, 1:, 1:] = np.lib.stride_tricks.sliding_window_view(by_offset, m, axis=1)[:, :, ::-1]
    return w


def _solve_batch(unary: np.ndarray, penalties) -> tuple[np.ndarray, np.ndarray]:
    """Exact minimizers of K instances that share n, each under its own penalties.

    ``unary`` is (K, n, M+1): column 0 holds the outlier cost, column v the
    data cost of target frame v - 1, and +inf pads an instance narrower than
    M. ``penalties`` holds one MatchPenalties per instance. Returns ``pi``
    (K, n) and ``total`` (K,).

    The forward pass keeps only the state costs of each step. Into a target
    v' >= 1 the cheapest predecessor is the smallest of d[0] (the outlier),
    d[v'] + lambda2 (repeat), d[v' - 1] (next frame), the prefix minimum of
    d[v] - lambda3 * v over v <= v' - 2 plus lambda3 * v' (gap), and the
    suffix minimum of d[v] over v > v' plus lambda1 (crossing); into 0 it is
    the minimum of all of d. The crossing term is relaxed only when some
    instance has lambda1 < outlier_cost; otherwise it never falls below d[0]
    and moves no bit (see ``cross``). The backtrack then takes each
    predecessor as the first argmin of d + w[pi[j]], and the total is summed
    along pi in the order the relaxation ``d[v] + w[v', v] + unary[v']`` adds it.
    """
    k_inst, n, width = unary.shape
    lam1, lam2, lam3 = (np.array([[getattr(p, f"lambda{i}")] for p in penalties])
                        for i in (1, 2, 3))
    live = np.isfinite(unary[:, 0])  # each instance's own columns
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is the error below
        ramp = lam3 * (np.arange(width) * live)  # lambda3 * v; 0 on pad columns, which stay +inf
    over = ~np.isfinite(ramp).all(axis=1)
    if over.any():  # inf - inf in the gap prefix would hide gap sources
        raise DegenerateInputError(f"lambda3 * {live[over][0].sum() - 1} overflows")
    # each d[v] >= b, the last step's best, and d[0] = b + outlier_cost, so with lambda1 >=
    # outlier_cost no crossing beats d[0], which wins ties (wherever the gap term rounds alike)
    cross = any(p.lambda1 < p.outlier_cost for p in penalties)
    gap = np.empty((k_inst, max(width - 3, 0)))
    ramp_src, ramp_dst = ramp[:, 1:-2], ramp[:, 3:]  # lambda3 * v for v <= v' - 2, and v'
    suffix = np.empty((k_inst, width))  # suffix[:, i] = min of d[-1 - i:]
    crossing = suffix[:, -3::-1]  # min of d[v' + 1:] for v' = 1 .. M - 1
    hist = np.empty((n, k_inst, width))
    hist[0] = unary[:, 0]
    src, dst = hist[:-1], hist[1:]
    for d, d1, d_prev, d0, d_gap, e, e1, e2, e3, e_mid, e0, u in zip(
            src, src[:, :, 1:], src[:, :, :-1], src[:, :, :1], src[:, :, 1:-2],
            dst, dst[:, :, 1:], dst[:, :, 2:], dst[:, :, 3:], dst[:, :, 1:-1], dst[:, :, 0],
            unary.transpose(1, 0, 2)[1:]):
        np.add(d1, lam2, out=e1)
        np.minimum(e1, d_prev, out=e1)
        np.minimum(e2, d0, out=e2)
        np.subtract(d_gap, ramp_src, out=gap)
        np.minimum.accumulate(gap, axis=1, out=gap)
        gap += ramp_dst
        np.minimum(e3, gap, out=e3)
        if cross:
            np.minimum.accumulate(d[:, ::-1], axis=1, out=suffix)
            np.minimum(e_mid, crossing + lam1, out=e_mid)
        np.minimum.reduce(d, axis=1, out=e0)
        e += u

    w = _transition_matrices(width - 1, lam1, lam2, lam3)
    rows = np.arange(k_inst)
    pi = np.empty((n, k_inst), dtype=np.int64)
    pi[-1] = hist[-1].argmin(axis=1)
    scores = np.empty((k_inst, width))
    for j in range(n - 1, 0, -1):
        np.add(hist[j - 1], w[rows, pi[j]], out=scores)
        scores.argmin(axis=1, out=pi[j - 1])

    pi = pi.T
    terms = np.empty((k_inst, 2 * n - 1))  # u_0, w_1, u_1, w_2, u_2, ...
    terms[:, 0::2] = np.take_along_axis(unary, pi[:, :, None], axis=2)[:, :, 0]
    terms[:, 1::2] = w[rows[:, None], pi[:, 1:], pi[:, :-1]]
    return pi, np.add.accumulate(terms, axis=1)[:, -1]


def _match_pairs(pairs, chunk_len: int | None) -> list[list[Matching]]:
    """Solve each ``(d2, penalties)`` against every chunk of its target in one batch.

    ``d2`` is the pair's (n, m) :func:`~seqrep.core.pairwise_sqdist` matrix,
    on which a :class:`PenaltyConfig` resolves. ``chunk_len`` None solves
    each whole target as one chunk. A shorter query is padded with free
    outlier rows (unary 0 in column 0, +inf elsewhere) and a narrower chunk
    with +inf columns; neither moves a bit of any solution. Returns each
    pair's Matchings in offset order.
    """
    bounds = [[(0, d2.shape[1])] if chunk_len is None else _chunk_bounds(d2.shape[1], chunk_len)
              for d2, _ in pairs]
    width = max(e - s for b in bounds for s, e in b) + 1
    unary = np.full((sum(map(len, bounds)), max(len(d2) for d2, _ in pairs), width), np.inf)
    unary[:, :, 0] = 0.0
    inst = []  # (pair, chunk start, penalties) of each instance
    for i, ((d2, pen), b) in enumerate(zip(pairs, bounds)):
        if isinstance(pen, PenaltyConfig):
            pen = pen._of(d2)
        for s, e in b:
            unary[len(inst), :len(d2), 0] = pen.outlier_cost
            unary[len(inst), :len(d2), 1:e - s + 1] = d2[:, s:e]
            inst.append((i, s, pen))
    pi, total = _solve_batch(unary, [pen for _, _, pen in inst])
    out = [[] for _ in pairs]
    for (i, s, _), p, c in zip(inst, pi, total):
        out[i].append(Matching(pi=p[:len(pairs[i][0])], total_cost=float(c), target_offset=s))
    return out


def solve_exact_dp(query_emb, target_emb, penalties: MatchPenalties | PenaltyConfig) -> Matching:
    """Exact global minimizer via a trellis over assignment states.

    The objective decomposes over consecutive query positions, so a layered
    shortest path over states ``{0, ..., m}`` with the per-pair penalty as
    edge weight is exact. Each step relaxes all m + 1 targets at once with
    prefix and suffix minima (the linear-cost distance transform of
    Felzenszwalb & Huttenlocher), so a solve takes O(n * (m+1)) time and
    memory besides the (m+1)^2 transition table the backtrack reads one row
    of per step. Ties break toward the smaller state index, both at the final
    state and during backtracking. ``total_cost`` is summed along ``pi`` in
    the recurrence's order (unary, then each transition and unary in turn). A
    :class:`PenaltyConfig` resolves on the instance, bit for bit as its ``resolve``.
    """
    q, t = _check_instance(query_emb, target_emb)
    return _match_pairs([(pairwise_sqdist(q, t), penalties)], None)[0][0]


def _chunk_bounds(n: int, chunk_len: int) -> list[tuple[int, int]]:
    """Contiguous [start, end) bounds; a length-1 remainder merges backwards."""
    if chunk_len < 2:
        raise ConfigError(f"chunk_len must be >= 2, got {chunk_len}")
    bounds = [(s, min(s + chunk_len, n)) for s in range(0, n, chunk_len)]
    if len(bounds) > 1 and bounds[-1][1] - bounds[-1][0] == 1:
        s, _ = bounds.pop()
        bounds[-1] = (bounds[-1][0], s + 1)
    return bounds


def match_features(query_feats, target_feats, penalties: MatchPenalties | PenaltyConfig,
                   chunk_len: int) -> list[Matching]:
    """Solve the full query against every chunk of an already-featured target.

    Returns one Matching per chunk of :func:`_chunk_bounds`, in offset order.
    A :class:`PenaltyConfig` resolves on the whole target, as in :func:`solve_exact_dp`.
    """
    q, t = _check_instance(query_feats, target_feats)
    return _match_pairs([(pairwise_sqdist(q, t), penalties)], chunk_len)[0]
