import dataclasses
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqrep.core import ConfigError, DegenerateInputError, ResourceLimitError, pairwise_sqdist
from seqrep.align import (
    Matching,
    MatchPenalties,
    PenaltyConfig,
    _chunk_bounds,
    _match_pairs,
    alignment_cost,
    default_penalties,
    match_features,
    solve_bruteforce,
    solve_exact_dp,
)

from conftest import random_unit_rows

PEN = MatchPenalties(lambda1=5.0, lambda2=1.0, lambda3=2.0, outlier_cost=3.0)


def random_instance(g, n, m, d=3):
    return g.normal(size=(n, d)), g.normal(size=(m, d))


def random_penalties(g, regime):
    if regime == 0:
        return MatchPenalties(0.0, 0.0, 0.0, float(g.uniform(0, 3)))
    if regime == 1:
        return MatchPenalties(*(float(v) for v in g.uniform(0, 5, size=4)))
    if regime == 2:  # dominant ordering
        return MatchPenalties(500.0, *(float(v) for v in g.uniform(0, 2, size=3)))
    return MatchPenalties(*(float(v) for v in g.uniform(0, 0.3, size=3)),
                          outlier_cost=1000.0)


class TestAlignmentCost:
    def test_identity_match_costs_zero(self, rng):
        x = rng.gen.normal(size=(4, 3))
        pi = np.arange(1, 5)
        assert alignment_cost(x, x, pi, PEN).total == 0.0

    def test_single_crossing_charges_lambda1(self):
        # data terms vanish: query frames equal their assigned target frames
        target = np.array([[1.0, 0.0], [0.0, 1.0]])
        query = target[[1, 0]]
        bd = alignment_cost(query, target, [2, 1], PEN)
        assert bd.data == 0.0
        assert bd.order == PEN.lambda1
        assert bd.total == PEN.lambda1

    def test_duplicate_and_gap_terms(self, rng):
        g = rng.gen
        query, target = random_instance(g, 3, 3)
        pi = np.array([1, 1, 3])
        bd = alignment_cost(query, target, pi, MatchPenalties(0.0, 1.0, 2.0, 0.0))
        # independent per-term recomputation
        data = sum(float(np.sum((query[j] - target[pi[j] - 1]) ** 2)) for j in range(3))
        assert bd.duplicate == 1.0
        assert bd.gap == 2.0 * (3 - 1)
        assert bd.data == pytest.approx(data, rel=1e-12)
        assert bd.total == pytest.approx(data + 1.0 + 4.0, rel=1e-12)

    def test_outlier_adjacent_pairs_unpenalized(self):
        target = np.zeros((3, 2))
        query = np.zeros((3, 2))
        bd = alignment_cost(query, target, [3, 0, 1], PEN)
        assert bd.order == 0.0 and bd.duplicate == 0.0 and bd.gap == 0.0
        assert bd.outlier == PEN.outlier_cost

    def test_out_of_range_index_raises(self):
        with pytest.raises(IndexError):
            alignment_cost(np.zeros((2, 2)), np.zeros((3, 2)), [1, 4], PEN)

    def test_stride_semantics(self):
        """Stride 1 is free, a repeat costs lambda2, a gap of g costs lambda3*g."""
        q = np.zeros((2, 1))
        t = np.zeros((5, 1))
        pen = MatchPenalties(7.0, 11.0, 13.0, 1.0)
        assert alignment_cost(q, t, [1, 2], pen).total == 0.0
        assert alignment_cost(q, t, [2, 2], pen).total == 11.0
        for gap in (2, 3, 4):
            assert alignment_cost(q, t, [1, 1 + gap], pen).total == 13.0 * gap


class TestBruteForce:
    def test_single_frame_closest_match(self, rng):
        g = rng.gen
        query = g.normal(size=(1, 3))
        target = g.normal(size=(4, 3))
        pen = MatchPenalties(1.0, 1.0, 1.0, outlier_cost=100.0)
        sol = solve_bruteforce(query, target, pen)
        d = np.sum((target - query[0]) ** 2, axis=1)
        assert sol.pi[0] == int(np.argmin(d)) + 1
        assert sol.total_cost == pytest.approx(float(d.min()))

    def test_single_frame_prefers_outlier_when_cheap(self, rng):
        g = rng.gen
        query = g.normal(size=(1, 3))
        target = query + 10.0
        sol = solve_bruteforce(query, target, MatchPenalties(0, 0, 0, 1e-3))
        assert sol.pi[0] == 0

    def test_self_match_is_identity(self, rng):
        x = random_unit_rows(rng.gen, 5, 4)
        pen = MatchPenalties(0.0, 0.0, 0.0, outlier_cost=100.0)
        sol = solve_bruteforce(x, x, pen)
        np.testing.assert_array_equal(sol.pi, np.arange(1, 6))
        assert sol.total_cost == pytest.approx(0.0, abs=1e-12)

    def test_size_guard(self):
        with pytest.raises(ResourceLimitError):
            solve_bruteforce(np.zeros((30, 1)), np.zeros((30, 1)), PEN)

    def test_overflowing_distances_rejected(self):
        with pytest.raises(DegenerateInputError, match="overflow"):
            solve_bruteforce(*OVERFLOW, MatchPenalties(1, 0.5, 0.1, 2))

    def test_lexicographic_tie_break(self):
        # two identical target frames: both assignments cost the same
        query = np.zeros((1, 2))
        target = np.zeros((2, 2))
        sol = solve_bruteforce(query, target, MatchPenalties(0, 0, 0, 5.0))
        assert sol.pi[0] == 1


class TestExactDP:
    def test_matches_bruteforce_on_random_instances(self, rng):
        g = rng.gen
        for trial in range(60):
            n = int(g.integers(1, 7))
            m = int(g.integers(1, 5))
            query, target = random_instance(g, n, m)
            pen = random_penalties(g, trial % 4)
            a = solve_exact_dp(query, target, pen)
            b = solve_bruteforce(query, target, pen)
            assert a.total_cost == pytest.approx(b.total_cost, abs=1e-9)
            # audit both solutions with the independent scorer
            assert alignment_cost(query, target, a.pi, pen).total == pytest.approx(
                a.total_cost, abs=1e-9)
            assert alignment_cost(query, target, b.pi, pen).total == pytest.approx(
                b.total_cost, abs=1e-9)

    def test_self_match_identity_cost_zero(self, rng):
        x = random_unit_rows(rng.gen, 10, 6)
        sol = solve_exact_dp(x, x, MatchPenalties(0.0, 0.0, 0.0, 100.0))
        np.testing.assert_array_equal(sol.pi, np.arange(1, 11))
        assert sol.total_cost == pytest.approx(0.0, abs=1e-12)

    def test_dominant_lambda1_forces_monotone(self, rng):
        g = rng.gen
        for _ in range(30):
            n = int(g.integers(2, 9))
            m = int(g.integers(1, 7))
            query, target = random_instance(g, n, m)
            unary_max = float(np.max(np.sum((query[:, None] - target[None]) ** 2, -1)))
            lam2, lam3, oc = (float(v) for v in g.uniform(0, 2, size=3))
            bound = n * unary_max + lam2 * n + lam3 * n * m + oc * n
            sol = solve_exact_dp(query, target, MatchPenalties(bound + 1, lam2, lam3, oc))
            # ordering is enforced on consecutive both-matched positions only;
            # an outlier in between lifts the constraint (outliers carry no
            # pairwise penalty)
            a, b = sol.pi[:-1], sol.pi[1:]
            both = (a > 0) & (b > 0)
            assert np.all(a[both] <= b[both])

    def test_empty_inputs_rejected(self):
        with pytest.raises(DegenerateInputError):
            solve_exact_dp(np.zeros((0, 2)), np.zeros((3, 2)), PEN)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 12), m=st.integers(1, 12), d=st.integers(1, 3),
           integral=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_bit_equal_to_source_major_relaxation(self, n, m, d, integral, seed):
        g = np.random.default_rng(seed)
        if integral:  # small integers everywhere: exact ties in data and penalties
            query = g.integers(-2, 3, size=(n, d)).astype(float)
            target = g.integers(-2, 3, size=(m, d)).astype(float)
            pen = MatchPenalties(*(float(v) for v in g.integers(0, 4, size=4)))
        else:
            query, target = random_instance(g, n, m, d)
            pen = random_penalties(g, int(g.integers(0, 4)))
        sol = solve_exact_dp(query, target, pen)
        pi, total = dense_dp(query, target, pen)
        np.testing.assert_array_equal(sol.pi, pi)
        assert sol.total_cost == total

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 7), m=st.integers(1, 4), d=st.integers(1, 2),
           halves=st.lists(st.integers(0, 8), min_size=4, max_size=4),
           seed=st.integers(0, 2**32 - 1))
    def test_forced_ties_match_dense_and_bruteforce(self, n, m, d, halves, seed):
        # integer features and integer or half-integer weights: every cost is
        # exact, so equal-cost correspondences tie and the tie rule decides
        g = np.random.default_rng(seed)
        query = g.integers(-1, 2, size=(n, d)).astype(float)
        target = g.integers(-1, 2, size=(m, d)).astype(float)
        pen = MatchPenalties(*(h / 2 for h in halves))
        assert_exact(query, target, pen)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 7), m=st.integers(1, 4), d=st.integers(1, 2),
           halves=st.lists(st.integers(0, 8), min_size=3, max_size=3),
           over=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    @example(n=6, m=3, d=1, halves=[2, 1, 1], over=0, seed=0)  # lambda1 == outlier_cost
    def test_no_crossing_when_an_outlier_costs_no_more(self, n, m, d, halves, over, seed):
        # with lambda1 >= outlier_cost the solver relaxes no crossing: making
        # the earlier frame an outlier is never dearer, and wins the tie
        g = np.random.default_rng(seed)
        query = g.integers(-1, 2, size=(n, d)).astype(float)
        target = g.integers(-1, 2, size=(m, d)).astype(float)
        lam2, lam3, outlier = (h / 2 for h in halves)
        sol = assert_exact(query, target, MatchPenalties(outlier + over / 2, lam2, lam3, outlier))
        a, b = sol.pi[:-1], sol.pi[1:]
        assert not np.any((a > b) & (b > 0))

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (1, 5), (4, 1), (4, 2), (6, 2)])
    def test_empty_gap_and_crossing_slices(self, rng, n, m):
        # m <= 2 leaves no gap source, m == 1 no crossing, n == 1 no step at all
        g = rng.gen
        for trial in range(20):
            query, target = random_instance(g, n, m, 2)
            if trial % 2:
                query = np.round(query)
                target = np.round(target)
                pen = MatchPenalties(*(float(v) / 2 for v in g.integers(0, 5, size=4)))
            else:
                pen = random_penalties(g, trial % 4)
            assert_exact(query, target, pen)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 7), m=st.integers(1, 4), outlier=st.sampled_from([0.0, 0.5, 2.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_all_outlier_regime(self, n, m, outlier, seed):
        # every target frame is far from every query frame: all frames are outliers
        g = np.random.default_rng(seed)
        query = g.integers(-1, 2, size=(n, 2)).astype(float)
        target = g.integers(-1, 2, size=(m, 2)).astype(float) + 10.0
        pen = MatchPenalties(*(float(v) for v in g.integers(0, 3, size=3)), outlier)
        sol = assert_exact(query, target, pen)
        np.testing.assert_array_equal(sol.pi, np.zeros(n, dtype=np.int64))
        assert sol.total_cost == n * outlier

    def test_overflowing_distances_rejected(self):
        q, t = OVERFLOW
        with pytest.raises(DegenerateInputError, match="overflow"):
            solve_exact_dp(q, t, MatchPenalties(1, 0.5, 0.1, 2))

    def test_gap_weight_overflowing_over_the_target_rejected(self, rng):
        # lambda3 * v overflows before v reaches m: the prefix form cannot hold it
        q, t = random_instance(rng.gen, 6, 8, 2)
        with pytest.raises(DegenerateInputError, match="lambda3"):
            solve_exact_dp(q, t, MatchPenalties(1.0, 0.5, 1e308, 2.0))
        with pytest.raises(DegenerateInputError, match="lambda3"):
            match_features(q, t, MatchPenalties(1.0, 0.5, 1e308, 2.0), chunk_len=4)

    def test_large_instance_is_fast(self, rng):
        g = rng.gen
        q, t = random_unit_rows(g, 2000, 8), random_unit_rows(g, 2000, 8)
        pen = default_penalties(q, t)
        t0 = time.perf_counter()
        sol = solve_exact_dp(q, t, pen)
        assert time.perf_counter() - t0 < 5.0  # O(n * m): well under a second
        assert sol.pi.shape == (2000,)

    def test_long_target_solves_in_linear_memory(self, rng):
        # the solve's own arrays take about 10 MB; one (m+1)^2 float table would take 128 MB
        q, t = random_instance(rng.gen, 100, 4000, 16)
        tracemalloc.start()
        try:
            sol = solve_exact_dp(q, t, PEN)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6
        assert sol.pi.shape == (100,)


OVERFLOW = (np.array([[1e200], [2e200]]), np.array([[1e200], [-1e200], [3.0]]))

GAP_OVERFLOW = MatchPenalties(1.0, 0.5, 1e308, 2.0)


def narrow_and_wide(g):
    """lambda3 = 1e308 fits a 1-frame target's ramp but not a 30-frame batch's width."""
    return [(*random_instance(g, 4, 1, 2), GAP_OVERFLOW), (*random_instance(g, 7, 30, 2), PEN)]


@pytest.mark.parametrize("solve, match", [
    (lambda: solve_bruteforce(*OVERFLOW, MatchPenalties(1, 0.5, 0.1, 2)), "overflow"),
    (lambda: solve_exact_dp(*OVERFLOW, MatchPenalties(1, 0.5, 0.1, 2)), "overflow"),
    (lambda: default_penalties(*OVERFLOW), "overflow"),
    (lambda: solve_exact_dp(np.zeros((6, 2)), np.ones((8, 2)), GAP_OVERFLOW), "lambda3"),
    (lambda: match_features(np.zeros((6, 2)), np.ones((8, 2)), GAP_OVERFLOW, chunk_len=4),
     "lambda3"),
    (lambda: _match_pairs([(np.ones((4, 1)), GAP_OVERFLOW), (np.ones((3, 8)), GAP_OVERFLOW)],
                          None), "lambda3 \\* 8 overflows"),
], ids=["bruteforce", "exact-dp", "default-penalties", "gap-weight", "gap-weight-chunked",
        "gap-weight-per-instance"])
def test_overflow_rejections_keep_their_type_whatever_the_error_state(solve, match,
                                                                      strict_numpy):
    # the overflow tests above, under a warning filter or errstate that raises
    with pytest.raises(DegenerateInputError, match=match):
        solve()


def test_gap_weight_overflow_past_an_instance_width_stays_silent(rng, strict_numpy):
    # the narrow instance's by-offset penalties overflow past its own width, where no solve reads
    batch = narrow_and_wide(rng.gen)
    solved = _match_pairs([(pairwise_sqdist(q, t), pen) for q, t, pen in batch], None)
    for (got,), (q, t, pen) in zip(solved, batch, strict=True):
        direct = solve_exact_dp(q, t, pen)
        np.testing.assert_array_equal(got.pi, direct.pi)
        assert got.total_cost == direct.total_cost


def assert_exact(query, target, pen):
    """π and cost bit-equal to the dense relaxation, cost equal to brute force."""
    sol = solve_exact_dp(query, target, pen)
    pi, total = dense_dp(query, target, pen)
    np.testing.assert_array_equal(sol.pi, pi)
    assert sol.total_cost == total
    assert sol.total_cost == solve_bruteforce(query, target, pen).total_cost
    return sol


def dense_dp(query, target, pen):
    """The O(n * m^2) relaxation over a full ``w[v, v']`` table (source states
    as rows), reduced along axis 0: the reference the linear-time solver must
    equal bit for bit wherever its gap term rounds alike."""
    n, m = len(query), len(target)
    unary = np.empty((n, m + 1))
    unary[:, 0] = pen.outlier_cost
    unary[:, 1:] = pairwise_sqdist(query, target)
    w = np.zeros((m + 1, m + 1))
    v = np.arange(1, m + 1)
    a, b = v[:, None], v[None, :]
    w[1:, 1:] = (pen.lambda1 * (a > b) + pen.lambda2 * (a == b)
                 + pen.lambda3 * np.where(a + 1 < b, b - a, 0))
    parent = np.empty((n, m + 1), dtype=np.int64)
    d = unary[0].copy()
    for j in range(1, n):
        stepped = d[:, None] + w
        parent[j] = np.argmin(stepped, axis=0)
        d = stepped[parent[j], np.arange(m + 1)] + unary[j]
    pi = np.empty(n, dtype=np.int64)
    pi[-1] = int(np.argmin(d))
    for j in range(n - 1, 0, -1):
        pi[j - 1] = parent[j, pi[j]]
    return pi, float(d[pi[-1]])


class TestChunking:
    def test_even_split(self):
        assert _chunk_bounds(80, 40) == [(0, 40), (40, 80)]

    def test_remainder_kept_when_two_or_more(self):
        assert [e - s for s, e in _chunk_bounds(85, 40)] == [40, 40, 5]

    def test_singleton_remainder_merged(self):
        assert _chunk_bounds(41, 40) == [(0, 41)]

    def test_chunk_len_below_two_rejected(self):
        with pytest.raises(ConfigError):
            _chunk_bounds(10, 1)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 300), chunk_len=st.integers(2, 60))
    def test_chunks_partition_target(self, n, chunk_len):
        bounds = _chunk_bounds(n, chunk_len)
        pos = 0
        for s, e in bounds:
            assert s == pos and e > s
            pos = e
        assert pos == n
        if n > 1:
            assert all(e - s >= 2 for s, e in bounds)


class TestMatchPair:
    """Chunked matching of one featured query against one featured target."""

    def test_short_target_yields_single_matching(self, rng):
        q, t = random_instance(rng.gen, 6, 9, d=4)
        out = match_features(q, t, penalties=PEN, chunk_len=40)
        assert len(out) == 1 and out[0].target_offset == 0

    def test_chunked_offsets_and_costs_match_direct_solves(self, rng):
        q, t = random_instance(rng.gen, 8, 50, d=4)
        out = match_features(q, t, penalties=PEN, chunk_len=20)
        assert [m.target_offset for m in out] == [0, 20, 40]
        for m, (s, e) in zip(out, [(0, 20), (20, 40), (40, 50)]):
            direct = solve_exact_dp(q, t[s:e], PEN)
            assert m.total_cost == pytest.approx(direct.total_cost, abs=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 8), m=st.integers(2, 50), chunk_len=st.integers(2, 20),
           integral=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(n=8, m=47, chunk_len=20, integral=False, seed=1)  # short last chunk (7)
    @example(n=8, m=41, chunk_len=20, integral=False, seed=2)  # length-1 remainder merged
    def test_batch_equals_per_chunk_solves(self, n, m, chunk_len, integral, seed):
        # the chunks of one pair are solved as one +inf-padded batch; each must
        # keep the bits of its own solve, including a short or merged last chunk
        g = np.random.default_rng(seed)
        q, t = random_instance(g, n, m, 2)
        pen = random_penalties(g, int(g.integers(0, 4)))
        if integral:
            q, t = np.round(2 * q), np.round(2 * t)
            pen = MatchPenalties(*(float(v) / 2 for v in g.integers(0, 5, size=4)))
        bounds = _chunk_bounds(m, chunk_len)
        out = match_features(q, t, penalties=pen, chunk_len=chunk_len)
        assert len(out) == len(bounds)
        for got, (s, e) in zip(out, bounds):
            direct = solve_exact_dp(q, t[s:e], pen)
            assert got.target_offset == s
            assert got.pi.max() <= e - s  # never a pad column
            np.testing.assert_array_equal(got.pi, direct.pi)
            assert got.total_cost == direct.total_cost

    def test_default_penalties_are_instance_relative(self, rng):
        g = rng.gen
        q, t = random_instance(g, 5, 6, d=4)
        pen = default_penalties(q, t)
        e_unary = float(np.mean(np.sum((q[:, None] - t[None]) ** 2, axis=-1)))
        assert pen.lambda1 == pytest.approx(10 * e_unary, rel=1e-12)
        assert pen.lambda2 == pytest.approx(0.5 * e_unary, rel=1e-12)
        assert pen.lambda3 == pytest.approx(0.1 * e_unary, rel=1e-12)
        assert pen.outlier_cost == pytest.approx(2 * e_unary, rel=1e-12)


    def test_default_penalties_reject_overflowing_distances(self):
        # a data problem, not a configuration one: no ConfigError about a NaN weight
        with pytest.raises(DegenerateInputError, match="overflow"):
            default_penalties(*OVERFLOW)


class TestMatchPairs:
    """Many pairs' chunks solved as one padded batch, as the trainer solves an epoch."""

    def test_every_chunk_keeps_the_bits_of_its_one_pair_solve(self):
        # unequal query lengths (1-frame queries too), target widths and
        # penalties in one batch; small integer features and half-integer
        # weights make exact ties, which must still break the same way
        g = np.random.default_rng(11)
        for batch in range(300):
            pairs = []
            for _ in range(int(g.integers(1, 6))):
                n = 1 if g.random() < 0.15 else int(g.integers(2, 12))
                q, t = random_instance(g, n, int(g.integers(1, 45)), 2)
                pen = random_penalties(g, int(g.integers(0, 4)))
                if batch % 2:
                    q, t = np.round(2 * q), np.round(2 * t)
                    pen = MatchPenalties(*(float(v) / 2 for v in g.integers(0, 5, size=4)))
                pairs.append((q, t, pen))
            chunk_len = int(g.integers(2, 25))
            solved = _match_pairs([(pairwise_sqdist(q, t), pen) for q, t, pen in pairs], chunk_len)
            for (q, t, pen), got in zip(pairs, solved):
                bounds = _chunk_bounds(len(t), chunk_len)
                assert [m.target_offset for m in got] == [s for s, _ in bounds]
                for m, (s, e) in zip(got, bounds):
                    direct = solve_exact_dp(q, t[s:e], pen)
                    np.testing.assert_array_equal(m.pi, direct.pi)
                    assert m.total_cost == direct.total_cost

    def test_a_penalty_config_resolves_from_the_pair_distances(self, rng):
        g = rng.gen
        for config in (PenaltyConfig(), PenaltyConfig(lambda1=7.0, outlier_cost=0.25)):
            pairs = [random_instance(g, n, m, 3) for n, m in ((5, 30), (1, 9), (12, 17))]
            got = _match_pairs([(pairwise_sqdist(q, t), config) for q, t in pairs], 8)
            resolved = _match_pairs([(pairwise_sqdist(q, t), config.resolve(q, t))
                                     for q, t in pairs], 8)
            for chunks, ref in zip(got, resolved):
                for m, r in zip(chunks, ref, strict=True):
                    np.testing.assert_array_equal(m.pi, r.pi)
                    assert (m.total_cost, m.target_offset) == (r.total_cost, r.target_offset)

    @pytest.mark.parametrize("config", [PenaltyConfig(),
                                        PenaltyConfig(lambda1=7.0, outlier_cost=0.25)],
                             ids=["default", "partly-set"])
    def test_public_solvers_take_a_penalty_config(self, rng, config):
        # solve_exact_dp and match_features under a config keep the bits of
        # solving under that config resolved for the instance
        g = rng.gen
        for n, m in ((5, 30), (1, 9), (12, 17)):
            q, t = random_instance(g, n, m, 3)
            resolved = config.resolve(q, t)
            got, ref = solve_exact_dp(q, t, config), solve_exact_dp(q, t, resolved)
            np.testing.assert_array_equal(got.pi, ref.pi)
            assert got.total_cost == ref.total_cost
            got = match_features(q, t, config, chunk_len=8)
            ref = match_features(q, t, resolved, chunk_len=8)
            for a, b in zip(got, ref, strict=True):
                np.testing.assert_array_equal(a.pi, b.pi)
                assert (a.total_cost, a.target_offset) == (b.total_cost, b.target_offset)

    def test_crossings_are_relaxed_for_a_batch_with_one_cheap_crossing(self, rng):
        # one instance whose crossing (lambda1 1 < outlier 2) beats making a
        # frame an outlier, among default-scaled ones (lambda1 10 E, outlier 2 E)
        g = rng.gen
        reversed_pair = (np.array([[10.0], [0.0]]), np.array([[0.0], [10.0]]),
                         MatchPenalties(1.0, 0.5, 0.1, 2.0))
        pairs = [(*random_instance(g, n, m, 2), PenaltyConfig())
                 for n, m in ((5, 30), (1, 9), (12, 17))]
        pairs.insert(1, reversed_pair)
        for chunk_len in (None, 8):
            solved = _match_pairs([(pairwise_sqdist(q, t), pen) for q, t, pen in pairs],
                                  chunk_len)
            for (q, t, pen), got in zip(pairs, solved):
                ref = [solve_exact_dp(q, t, pen)] if chunk_len is None else \
                    match_features(q, t, pen, chunk_len)
                for m, r in zip(got, ref, strict=True):
                    np.testing.assert_array_equal(m.pi, r.pi)
                    assert (m.total_cost, m.target_offset) == (r.total_cost, r.target_offset)
        assert list(solve_exact_dp(*reversed_pair).pi) == [2, 1]

    def test_gap_weight_guard_is_per_instance(self, rng):
        # lambda3 = 1e308 fits a 1-frame target's ramp but not the batch's
        # width: only pad columns would overflow, and they are never read
        g = rng.gen
        narrow, wide = narrow_and_wide(g)
        solved = _match_pairs([(pairwise_sqdist(q, t), pen) for q, t, pen in (narrow, wide)], None)
        for got, (q, t, pen) in zip(solved, [narrow, wide]):
            direct = solve_exact_dp(q, t, pen)
            np.testing.assert_array_equal(got[0].pi, direct.pi)
            assert got[0].total_cost == direct.total_cost
        overflowing = (*random_instance(g, 3, 8, 2), MatchPenalties(1.0, 0.5, 1e308, 2.0))
        with pytest.raises(DegenerateInputError, match="lambda3 \\* 8 overflows"):
            _match_pairs([(pairwise_sqdist(q, t), pen) for q, t, pen in (wide, overflowing)],
                         None)


class TestMatchingType:
    def test_holds_only_what_the_solver_computes(self):
        assert [f.name for f in dataclasses.fields(Matching)] == [
            "pi", "total_cost", "target_offset"]

    def test_cost_audit_on_random_pis(self, rng):
        g = rng.gen
        for _ in range(20):
            query, target = random_instance(g, 5, 4)
            pen = random_penalties(g, int(g.integers(0, 4)))
            sol = solve_exact_dp(query, target, pen)
            audit = alignment_cost(query, target, sol.pi, pen)
            assert audit.total == pytest.approx(sol.total_cost, abs=1e-9)

    def test_negative_penalties_rejected(self):
        with pytest.raises(ConfigError):
            MatchPenalties(-1.0, 0.0, 0.0, 0.0)
