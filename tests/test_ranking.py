"""Rank-stability criteria: frozen example values, brute-force oracles,
and randomized property checks."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunesim import DataError, InternalError, RankingCriterion, UsageError
from tunesim.ranking import (
    CRITERION_KINDS,
    arrr,
    epsilon_mean_distance,
    epsilon_median_distance,
    epsilon_sigma,
    is_stable,
    project,
    rbo,
    rrr,
)
from util import A, B, C, ranked, soft_rank


# independent oracles: direct summation of the defining formulas


def rbo_oracle(top, below, p):
    n = len(top)
    agreements = [
        len(set(top[:d]) & set(below[:d])) / d for d in range(1, n + 1)
    ]
    if p == 1.0:
        return sum(agreements) / n
    return sum(
        (1.0 - p) * p ** (d - 1) / (1.0 - p**n) * agreements[d - 1]
        for d in range(1, n + 1)
    )


def regret_oracle(metrics, below_positions, p, absolute):
    # metrics: top-rung values best first; below_positions[i] = index into
    # metrics of the config ranked i in the below rung
    n = len(metrics)
    weights = [p**i / sum(p**j for j in range(n)) for i in range(n)]
    total = 0.0
    for i in range(n):
        diff = metrics[i] - metrics[below_positions[i]]
        if absolute:
            diff = abs(diff)
        total += diff / metrics[i] * weights[i]
    return total


class TestSoftRank:
    def test_close_pair_shares_positions(self):
        soft = soft_rank(ranked((A, 0.90), (B, 0.89), (C, 0.50)), 0.025)
        assert soft.positions == (
            frozenset({A, B}),
            frozenset({A, B}),
            frozenset({C}),
        )

    def test_zero_epsilon_distinct_metrics_is_singletons(self):
        soft = soft_rank(ranked((A, 0.9), (B, 0.8), (C, 0.7)), 0.0)
        assert soft.positions == (frozenset({A}), frozenset({B}), frozenset({C}))

    def test_exact_ties_merge_even_at_zero_epsilon(self):
        soft = soft_rank(ranked((A, 0.5), (B, 0.5), (C, 0.5)), 0.0)
        assert all(pos == frozenset({A, B, C}) for pos in soft.positions)

    def test_self_membership(self):
        rng = random.Random(0)
        for _ in range(300):
            n = rng.randint(1, 8)
            pairs = [(i, rng.uniform(0, 1)) for i in range(n)]
            entries = ranked(*sorted(pairs, key=lambda e: -e[1]))
            soft = soft_rank(entries, rng.uniform(0, 0.5))
            for i, entry in enumerate(entries):
                assert entry.config in soft.positions[i]


class TestSoftStability:
    def test_identical_orders_stable(self):
        top = ranked((A, 0.8), (B, 0.7))
        below = ranked((A, 0.9), (B, 0.8))
        assert is_stable(RankingCriterion("soft", epsilon=0.0), top, below)

    def test_swap_within_epsilon_stable(self):
        top = ranked((A, 0.80), (B, 0.79))
        below = ranked((B, 0.90), (A, 0.89))
        assert is_stable(RankingCriterion("soft", epsilon=0.025), top, below)

    def test_swap_beyond_epsilon_unstable(self):
        top = ranked((A, 0.80), (B, 0.79))
        below = ranked((B, 0.90), (A, 0.50))
        assert not is_stable(RankingCriterion("soft", epsilon=0.025), top, below)

    def test_projection_drops_unpromoted_configs(self):
        top = ranked((A, 0.8), (B, 0.7))
        below = ranked((A, 0.9), (C, 0.85), (B, 0.8))  # C only exists below
        assert is_stable(RankingCriterion("soft", epsilon=0.0), top, below)

    def test_missing_config_below_is_ladder_corruption(self):
        top = ranked((A, 0.8), (B, 0.7))
        below = ranked((A, 0.9))
        with pytest.raises(InternalError):
            is_stable(RankingCriterion("soft", epsilon=0.0), top, below)
        with pytest.raises(InternalError):
            project(below, top)

    def test_direct_equals_soft_at_zero(self):
        top = ranked((A, 0.8), (B, 0.7))
        swapped = ranked((B, 0.9), (A, 0.8))
        assert not is_stable(RankingCriterion("direct"), top, swapped)
        assert is_stable(RankingCriterion("direct"), top, ranked((A, 0.9), (B, 0.8)))

    def test_single_element_lists_always_stable(self):
        assert is_stable(RankingCriterion("direct"), ranked((A, 0.1)), ranked((A, 0.9)))


# a coarse grid makes exact metric ties and exact epsilon boundaries common
GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
METRIC = st.one_of(st.sampled_from(GRID), st.floats(-2.0, 2.0))
EPSILON = st.one_of(st.just(0.0), st.sampled_from(GRID), st.floats(0.0, 3.0))


@st.composite
def ranked_pairs(draw):
    """(top, below): below over configs 0..n-1, top over a subset of them."""
    n = draw(st.integers(1, 8))
    below_metrics = draw(st.lists(METRIC, min_size=n, max_size=n))
    below = ranked(*sorted(enumerate(below_metrics), key=lambda cm: -cm[1]))
    members = draw(st.permutations(range(n)))[: draw(st.integers(1, n))]
    top_metrics = draw(st.lists(METRIC, min_size=len(members), max_size=len(members)))
    top = ranked(*sorted(zip(members, top_metrics), key=lambda cm: -cm[1]))
    return top, below


def oracle_soft_stable(top, below, epsilon):
    soft = soft_rank(project(below, top), epsilon)
    return all(e.config in soft.positions[i] for i, e in enumerate(top))


class TestSoftCheckAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(pair=ranked_pairs(), epsilon=EPSILON)
    def test_fast_check_agrees_with_soft_rank(self, pair, epsilon):
        top, below = pair
        expected = oracle_soft_stable(top, below, epsilon)
        assert is_stable(RankingCriterion("soft", epsilon=epsilon), top, below) == expected
        assert is_stable(RankingCriterion("soft", epsilon=epsilon), top, below) == (
            len(top) <= 1 or expected
        )
        if epsilon == 0.0:
            assert is_stable(RankingCriterion("direct"), top, below) == expected

    @settings(max_examples=100, deadline=None)
    @given(pair=ranked_pairs(), multiplier=st.sampled_from((1, 2, 3)))
    def test_adaptive_epsilons_agree_with_soft_rank(self, pair, multiplier):
        top, below = pair
        projected = [e.metric for e in project(below, top)]
        for criterion, epsilon in (
            (RankingCriterion("soft-sigma", multiplier=multiplier),
             epsilon_sigma(projected, multiplier)),
            (RankingCriterion("soft-mean-dist"), epsilon_mean_distance(projected)),
            (RankingCriterion("soft-median-dist"), epsilon_median_distance(projected)),
        ):
            assert is_stable(criterion, top, below) == (
                len(top) <= 1 or oracle_soft_stable(top, below, epsilon)
            )


class TestAdaptiveEpsilon:
    def test_sigma_of_two_points_is_half_the_gap(self):
        assert epsilon_sigma([0.8, 0.6], 1) == pytest.approx(0.1)

    def test_sigma_of_equal_metrics_is_zero(self):
        assert epsilon_sigma([0.5, 0.5, 0.5], 3) == 0.0

    def test_sigma_multiplier_two(self):
        value = epsilon_sigma([0.9, 0.8, 0.4], 2)
        assert value == pytest.approx(2 * math.sqrt(0.14 / 3), abs=1e-12)
        assert value == pytest.approx(0.4320, abs=5e-5)

    def test_sigma_under_two_entries_is_zero(self):
        assert epsilon_sigma([0.7], 2) == 0.0

    def test_mean_and_median_gap_three_metrics(self):
        below = [0.9, 0.8, 0.4]
        assert epsilon_mean_distance(below) == pytest.approx(0.25)
        assert epsilon_median_distance(below) == pytest.approx(0.25)

    def test_mean_and_median_gap_four_metrics(self):
        below = [1.0, 0.9, 0.9, 0.0]
        assert epsilon_mean_distance(below) == pytest.approx(1 / 3)
        assert epsilon_median_distance(below) == pytest.approx(0.1)

    def test_gaps_of_equal_metrics_are_zero(self):
        below = [0.5, 0.5]
        assert epsilon_mean_distance(below) == 0.0
        assert epsilon_median_distance(below) == 0.0


class TestRbo:
    def test_identical_lists_score_one(self):
        for p in (0.1, 0.5, 1.0):
            assert rbo([A, B, C], [A, B, C], p) == pytest.approx(1.0)

    def test_two_element_swap_average_overlap(self):
        assert rbo([A, B], [B, A], 1.0) == pytest.approx(0.5)

    def test_two_element_swap_weighted(self):
        assert rbo([A, B], [B, A], 0.5) == pytest.approx(1 / 3)

    def test_full_reversal_of_three(self):
        # depth agreements 0, 1/2, 1; the average is exactly 1/2
        assert rbo([A, B, C], [C, B, A], 1.0) == pytest.approx(0.5)

    def test_symmetry(self):
        rng = random.Random(1)
        for _ in range(200):
            n = rng.randint(1, 6)
            top = list(range(n))
            below = top[:]
            rng.shuffle(below)
            p = rng.choice([0.3, 0.7, 1.0])
            assert rbo(top, below, p) == pytest.approx(rbo(below, top, p))

    def test_mismatched_sets_rejected(self):
        with pytest.raises(ValueError):
            rbo([A, B], [A, C], 0.5)

    def test_stability_thresholds(self):
        top = ranked((A, 0.9), (B, 0.8))
        same = ranked((A, 0.7), (B, 0.6))
        swapped = ranked((B, 0.7), (A, 0.6))
        assert is_stable(RankingCriterion("rbo", p=0.5, threshold=0.5), top, same)
        # 0.5 sits exactly on the threshold and counts as stable
        assert is_stable(RankingCriterion("rbo", p=1.0, threshold=0.5), top, swapped)
        assert not is_stable(RankingCriterion("rbo", p=1.0, threshold=0.51), top, swapped)


class TestRegret:
    def test_same_order_scores_zero(self):
        top = ranked((A, 0.8), (B, 0.4))
        assert rrr(top, (A, B), 1.0) == 0.0
        assert arrr(top, (A, B), 1.0) == 0.0

    def test_signed_two_element_swap(self):
        top = ranked((A, 0.8), (B, 0.4))
        assert rrr(top, (B, A), 1.0) == pytest.approx(-0.25)

    def test_absolute_two_element_swap(self):
        top = ranked((A, 0.8), (B, 0.4))
        assert arrr(top, (B, A), 1.0) == pytest.approx(0.75)

    def test_small_p_weights_only_the_top_position(self):
        top = ranked((A, 0.8), (B, 0.4))
        assert rrr(top, (B, A), 0.001) == pytest.approx(0.5, abs=2e-3)

    def test_single_config_scores_zero(self):
        top = ranked((A, 0.8))
        assert arrr(top, (A,), 0.5) == 0.0

    def test_nonpositive_metric_rejected(self):
        top = ranked((A, 0.8), (B, -0.1))
        with pytest.raises(ValueError):
            rrr(top, (A, B), 1.0)

    def test_below_must_be_a_permutation(self):
        top = ranked((A, 0.8), (B, 0.4))
        with pytest.raises(ValueError):
            rrr(top, (A, C), 1.0)


class TestBruteForceOracles:
    def test_rbo_matches_direct_summation(self):
        for n in range(1, 6):
            top = list(range(n))
            for below in itertools.permutations(top):
                for p in (0.25, 0.5, 0.9, 1.0):
                    assert rbo(top, list(below), p) == pytest.approx(
                        rbo_oracle(top, below, p), abs=1e-12
                    )

    def test_regret_matches_direct_summation(self):
        for n in range(1, 6):
            metrics = [1.0 - 0.13 * i for i in range(n)]
            top = ranked(*((i, metrics[i]) for i in range(n)))
            for below in itertools.permutations(range(n)):
                for p in (0.25, 0.5, 1.0):
                    expected = regret_oracle(metrics, below, p, absolute=False)
                    assert rrr(top, below, p) == pytest.approx(expected, abs=1e-12)
                    expected = regret_oracle(metrics, below, p, absolute=True)
                    assert arrr(top, below, p) == pytest.approx(expected, abs=1e-12)


class TestRelabelingEquivariance:
    def test_criteria_ignore_config_identity(self):
        rng = random.Random(2)
        criteria = [
            RankingCriterion("direct"),
            RankingCriterion("soft", epsilon=0.05),
            RankingCriterion("soft-sigma", multiplier=2),
            RankingCriterion("soft-mean-dist"),
            RankingCriterion("soft-median-dist"),
            RankingCriterion("rbo", p=0.5, threshold=0.5),
            RankingCriterion("rrr", p=1.0, threshold=0.05),
            RankingCriterion("arrr", p=1.0, threshold=0.05),
        ]
        for _ in range(100):
            n = rng.randint(2, 6)
            top_metrics = sorted((rng.uniform(0.1, 1.0) for _ in range(n)), reverse=True)
            below_metrics = sorted((rng.uniform(0.1, 1.0) for _ in range(n)), reverse=True)
            below_ids = list(range(n))
            rng.shuffle(below_ids)
            top = ranked(*((i, top_metrics[i]) for i in range(n)))
            below = ranked(*((below_ids[i], below_metrics[i]) for i in range(n)))
            relabel = {i: i + 100 for i in range(n)}
            top2 = ranked(*((relabel[e.config], e.metric) for e in top))
            below2 = ranked(*((relabel[e.config], e.metric) for e in below))
            for criterion in criteria:
                assert is_stable(criterion, top, below) == is_stable(
                    criterion, top2, below2
                )


class TestEpsilonProperties:
    def test_monotone_in_epsilon_and_zero_equals_direct(self):
        rng = random.Random(3)
        for _ in range(2000):
            n = rng.randint(2, 7)
            top_metrics = sorted((rng.uniform(0, 1) for _ in range(n)), reverse=True)
            below_metrics = sorted((rng.uniform(0, 1) for _ in range(n)), reverse=True)
            ids = list(range(n))
            rng.shuffle(ids)
            top = ranked(*((i, top_metrics[i]) for i in range(n)))
            below = ranked(*((ids[i], below_metrics[i]) for i in range(n)))
            eps = sorted(rng.uniform(0, 0.6) for _ in range(3))
            results = [is_stable(RankingCriterion("soft", epsilon=e), top, below) for e in eps]
            # once stable, stays stable as epsilon grows
            for earlier, later in zip(results, results[1:]):
                assert later or not earlier
            # distinct metrics: epsilon zero reduces to the direct check
            assert is_stable(RankingCriterion("soft", epsilon=0.0), top, below) == is_stable(
                RankingCriterion("direct"), top, below
            )


class TestCriterionDispatch:
    def test_trivial_calls(self):
        top = ranked((A, 0.8), (B, 0.7))
        below_same = ranked((A, 0.9), (B, 0.85))
        below_swap = ranked((B, 0.9), (A, 0.85))
        assert is_stable(RankingCriterion("soft", epsilon=0.025), top, below_same)
        assert is_stable(RankingCriterion("rrr", p=1.0, threshold=0.05), top, below_same)
        assert not is_stable(RankingCriterion("direct"), top, below_swap)

    def test_degenerate_top_is_stable_for_every_criterion(self):
        top = ranked((A, 0.8))
        below = ranked((A, 0.9), (B, 0.85))
        for kind in ("direct", "soft", "rbo", "rrr", "arrr", "always-unstable"):
            assert is_stable(RankingCriterion(kind), top, below)

    def test_always_unstable_on_two_or_more(self):
        top = ranked((A, 0.8), (B, 0.7))
        below = ranked((A, 0.9), (B, 0.85))
        assert not is_stable(RankingCriterion("always-unstable"), top, below)

    def test_regret_on_nonpositive_metric_is_a_data_error_naming_the_criterion(self):
        top = ranked((A, 0.8), (B, -0.1))
        below = ranked((B, 0.9), (A, 0.5))
        for text in ("rrr", "arrr:p=0.5,t=0.1"):
            criterion = RankingCriterion.parse(text)
            with pytest.raises(DataError, match=f"ranking criterion '{criterion}': relative"):
                is_stable(criterion, top, below)

    def test_adaptive_epsilon_uses_projected_below_spread(self):
        # below's full spread is huge because of C, but C is not in the top
        # rung; after projection the sigma is small and the swap is unstable
        top = ranked((A, 0.80), (B, 0.40))
        below = ranked((B, 0.52), (A, 0.50), (C, -5.0))
        assert not is_stable(RankingCriterion("soft-sigma", multiplier=1), top, below)


class TestCriterionSpelling:
    def test_parse_round_trips(self):
        for text in (
            "direct",
            "soft:0.025",
            "soft-sigma:2",
            "soft-mean-dist",
            "soft-median-dist",
            "rbo:p=0.5,t=0.5",
            "rrr:p=0.5,t=0.05",
            "arrr:p=1,t=0.05",
            "always-unstable",
        ):
            criterion = RankingCriterion.parse(text)
            assert RankingCriterion.parse(criterion.spelling()) == criterion

    def test_parameter_defaults(self):
        assert RankingCriterion.parse("rbo") == RankingCriterion(
            "rbo", p=1.0, threshold=0.5
        )
        assert RankingCriterion.parse("rrr") == RankingCriterion(
            "rrr", p=1.0, threshold=0.05
        )

    def test_bare_spelling_matches_constructor_defaults(self):
        for kind in CRITERION_KINDS:
            if kind in ("soft", "soft-sigma"):  # these need a parameter
                continue
            assert RankingCriterion(kind) == RankingCriterion.parse(kind)
        assert RankingCriterion("rrr").spelling() == "rrr:p=1,t=0.05"
        assert RankingCriterion("arrr").spelling() == "arrr:p=1,t=0.05"
        assert RankingCriterion("rbo").spelling() == "rbo:p=1,t=0.5"

    def test_bad_spellings_rejected(self):
        for text in (
            "soft",
            "soft:abc",
            "soft-sigma",
            "soft-sigma:4",
            "rbo:q=1",
            "rbo:p=0",
            "rbo:p=1.5",
            "rbo:t=1.5",
            "direct:0.1",
            "nonsense",
        ):
            with pytest.raises(UsageError):
                RankingCriterion.parse(text)

    def test_non_finite_epsilon_rejected_naming_the_value(self):
        for text, shown in (("soft:nan", "nan"), ("soft:inf", "inf"), ("soft:-inf", "-inf")):
            with pytest.raises(UsageError, match=f"got {shown}$"):
                RankingCriterion.parse(text)
        with pytest.raises(UsageError, match="got nan"):
            RankingCriterion("soft", epsilon=math.nan)

    def test_constructor_validation(self):
        with pytest.raises(UsageError):
            RankingCriterion("soft", epsilon=-0.1)
        with pytest.raises(UsageError):
            RankingCriterion("soft-sigma", multiplier=5)
        with pytest.raises(UsageError):
            RankingCriterion("soft", multiplier=5)
        with pytest.raises(UsageError):
            RankingCriterion("rbo", p=0.0)
