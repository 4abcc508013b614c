"""Resource geometry, progressive cap growth, and rung ladder invariants."""

import copy
import math
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunesim import InternalError, ResourceSpec, SchedulerConfig, UsageError
from tunesim.core import (
    RungEntry,
    _left_sum,
    RungLadder,
    grow,
    max_rung_index,
    rung_levels,
)
from tunesim.scheduler import Scheduler
from util import pasha_scheduler


def spec(r=1, eta=3, cap=81):
    return ResourceSpec(min_resource=r, reduction_factor=eta, max_resource=cap)


def floor_log(value: int, base: int) -> int:
    # integer floor of log_base(value), by repeated multiplication
    k, power = 0, 1
    while power * base <= value:
        power *= base
        k += 1
    return k


class TestResourceSpec:
    def test_rejects_nonpositive_min_resource(self):
        with pytest.raises(UsageError):
            ResourceSpec(0, 3, 81)

    def test_rejects_reduction_factor_below_two(self):
        with pytest.raises(UsageError):
            ResourceSpec(1, 1, 81)

    def test_rejects_cap_below_initial_ladder(self):
        # the cap must fit at least the rung-2 resource
        with pytest.raises(UsageError):
            ResourceSpec(1, 3, 8)

    def test_accepts_minimal_cap(self):
        assert spec(cap=9).max_resource == 9


class TestRungResource:
    """The resource of rung k is rung_levels(spec)[k]."""

    def test_rung_zero_is_min_resource(self):
        assert rung_levels(spec())[0] == 1

    def test_power_growth(self):
        assert rung_levels(spec())[2] == 9
        assert rung_levels(ResourceSpec(2, 4, 128))[3] == 128

    def test_scales_with_min_resource(self):
        assert rung_levels(spec(r=5))[2] == 45


class TestMaxRungIndex:
    def test_exact_power_cap(self):
        assert max_rung_index(spec(cap=81)) == 4

    def test_cap_between_powers(self):
        assert max_rung_index(spec(cap=200)) == 4
        assert max_rung_index(spec(cap=242)) == 4
        assert max_rung_index(spec(cap=243)) == 5

    def test_matches_integer_log_floor(self):
        for r in range(1, 6):
            for eta in (2, 3, 4):
                for cap in range(eta * eta * r, eta * eta * r + 400, 7):
                    assert max_rung_index(spec(r, eta, cap)) == floor_log(cap // r, eta)


class TestRungLevels:
    def test_exact_power_ladder(self):
        assert rung_levels(spec(cap=81)) == (1, 3, 9, 27, 81)

    def test_cap_appended_when_not_a_power(self):
        assert rung_levels(spec(cap=200)) == (1, 3, 9, 27, 81, 200)

    def test_levels_strictly_increase(self):
        for eta in (2, 3, 4):
            for cap in (eta * eta, 50, 81, 100, 200):
                if cap < eta * eta:
                    continue
                levels = rung_levels(spec(eta=eta, cap=cap))
                assert all(a < b for a, b in zip(levels, levels[1:]))
                assert levels[-1] == cap


class TestInitialState:
    def test_values(self):
        # the starting cap is eta^2 * r, ladder level 2
        for s, cap in ((spec(cap=200), 9), (spec(eta=2, cap=64), 4), (spec(r=5, cap=405), 45)):
            sched = pasha_scheduler(s)
            assert (sched.cap, sched.top_index) == (cap, 2)


class TestGrow:
    def test_multiplies_cap_by_reduction_factor(self):
        cap = grow(pasha_scheduler(spec(cap=200)).cap, spec(cap=200))
        assert cap == 27 == rung_levels(spec(cap=200))[3]

    def test_overshoot_clamps_to_cap(self):
        # from cap 81 the next step would be 243 > 200: clamp to 200, which is
        # the top ladder level (index 5) although 3^4 = 81 is the largest power
        assert grow(81, spec(cap=200)) == 200
        assert rung_levels(spec(cap=200)).index(200) == 5

    def test_growth_at_cap_is_noop(self):
        assert grow(200, spec(cap=200)) == 200

    def test_cap_never_decreases(self):
        s = spec(cap=200)
        cap = pasha_scheduler(s).cap
        for _ in range(10):
            nxt = grow(cap, s)
            assert nxt >= cap
            cap = nxt
        assert cap == 200

    def test_top_rung_tracks_min_of_linear_and_log(self):
        # after t growth steps the cap is exactly the ladder level at index
        # min(t + 2, top), where top counts the powers of eta under the cap
        # plus the appended max_resource level when that is not a power
        for r in range(1, 6):
            for eta in (2, 3, 4):
                for extra in (0, 1, 5, 37):
                    s = spec(r, eta, eta * eta * r * eta**2 + extra)
                    levels = rung_levels(s)
                    top = floor_log(s.max_resource // r, eta)
                    top += r * eta**top != s.max_resource  # appended top level
                    cap = pasha_scheduler(s).cap
                    for t in range(7):
                        assert cap == levels[min(t + 2, top)]
                        cap = grow(cap, s)


class TestRungLadder:
    def test_levels_must_increase(self):
        with pytest.raises(ValueError):
            RungLadder((1, 3, 3))

    def test_insert_rejects_out_of_range_rung(self):
        ladder = RungLadder((1, 3, 9))
        with pytest.raises(InternalError):
            ladder.insert(3, RungEntry(0, 0.5))

    def test_insert_rejects_non_finite_metric(self):
        ladder = RungLadder((1, 3, 9))
        with pytest.raises(InternalError):
            ladder.insert(0, RungEntry(0, float("nan")))

    def test_insert_rejects_duplicate_config_per_rung(self):
        ladder = RungLadder((1, 3, 9))
        ladder.insert(0, RungEntry(0, 0.5))
        with pytest.raises(InternalError):
            ladder.insert(0, RungEntry(0, 0.6))

    def test_insert_rejects_a_reused_rank_key(self):
        ladder = RungLadder((1, 3, 9))
        ladder.insert(0, RungEntry(0, 0.5, completion_index=4))
        before = copy.deepcopy(vars(ladder))
        with pytest.raises(InternalError, match=r"config 1 reuses rank key \(-0.5, 4\) at rung 0"):
            ladder.insert(0, RungEntry(1, 0.5, completion_index=4))
        assert vars(ladder) == before
        ladder.insert(0, RungEntry(1, 0.5, completion_index=5))  # an equal metric alone is fine

    def test_upper_rung_requires_promotion_below(self):
        ladder = RungLadder((1, 3, 9))
        with pytest.raises(InternalError):
            ladder.insert(1, RungEntry(0, 0.5))
        ladder.insert(0, RungEntry(0, 0.5))
        ladder.promote(0)
        ladder.insert(1, RungEntry(0, 0.55))  # now legal
        assert [len(r) for r in ladder.rungs] == [1, 1, 0]

    def test_occupied_rungs_form_a_prefix(self):
        ladder = RungLadder((1, 3, 9, 27))
        for k in range(3):
            ladder.insert(k, RungEntry(7, 0.5 + k / 10))
            ladder.promote(k)
        occupied = [k for k, rung in enumerate(ladder.rungs) if rung]
        assert occupied == list(range(len(occupied)))

    def test_sorted_rung_breaks_ties_by_completion_index(self):
        ladder = RungLadder((1, 3, 9))
        ladder.insert(0, RungEntry(0, 0.5, completion_index=1))
        ladder.insert(0, RungEntry(1, 0.5, completion_index=0))
        ladder.insert(0, RungEntry(2, 0.9, completion_index=2))
        assert [e.config for e in ladder.sorted_rung(0)] == [2, 1, 0]

    def test_highest_nonempty(self):
        ladder = RungLadder((1, 3, 9))
        assert ladder.highest_nonempty() is None
        ladder.insert(0, RungEntry(0, 0.5))
        assert ladder.highest_nonempty() == 0
        ladder.promote(0)
        ladder.insert(1, RungEntry(0, 0.6))
        assert ladder.highest_nonempty() == 1

    def test_rungs_are_kept_best_first(self):
        ladder = RungLadder((1, 3, 9))
        for config, metric in enumerate((0.2, 0.9, 0.5, 0.9)):
            ladder.insert(0, RungEntry(config, metric, completion_index=config))
        assert [e.config for e in ladder.rungs[0]] == [1, 3, 2, 0]

    def test_promote_marks_once(self):
        ladder = RungLadder((1, 3, 9))
        entry = RungEntry(0, 0.5)
        ladder.insert(0, entry)
        # eta 1 puts the whole rung inside the quota: the best unpromoted entry
        assert ladder.promotion(1, 1) == 0
        assert ladder.promote(0) is entry
        assert ladder.promotion(1, 1) is None
        with pytest.raises(InternalError, match="no unpromoted entry to promote at rung 0"):
            ladder.promote(0)
        ladder.insert(1, RungEntry(0, 0.6))  # the mark is what insert checks

    def test_promotion_compares_the_best_unpromoted_entry_with_the_quota(self):
        ladder = RungLadder((1, 3, 9))
        for config, metric in enumerate((0.9, 0.5, 0.1)):
            ladder.insert(0, RungEntry(config, metric, completion_index=config))
        assert ladder.promotion(1, 3) == 0  # the best of three is in the top third
        assert ladder.promote(0).config == 0
        assert ladder.promotion(1, 3) is None  # the next best is not
        ladder.insert(0, RungEntry(3, 0.7, completion_index=3))
        assert ladder.promotion(1, 2) == 0  # the top half of four holds 0.7

    def test_promote_takes_the_best_unpromoted_entry(self):
        ladder = RungLadder((1, 3, 9))
        with pytest.raises(InternalError, match="no unpromoted entry to promote at rung 0"):
            ladder.promote(0)
        for config, (metric, completion) in enumerate(((0.5, 2), (0.9, 3), (0.5, 1))):
            ladder.insert(0, RungEntry(config, metric, completion))
        assert [ladder.promote(0).config for _ in range(3)] == [1, 2, 0]

    @pytest.mark.parametrize("k", [-1, 2])
    def test_promote_and_sorted_rung_refuse_a_rung_outside_the_ladder(self, k):
        ladder = RungLadder((1, 3))
        ladder.insert(0, RungEntry(7, 0.5))
        ladder.promote(0)
        ladder.insert(1, RungEntry(7, 0.6, completion_index=1))
        ladder.insert(0, RungEntry(8, 0.4, completion_index=2))
        before = copy.deepcopy(vars(ladder))
        for method in (ladder.promote, ladder.sorted_rung):
            with pytest.raises(InternalError, match=f"^rung index {k} outside ladder of 2 levels$"):
                method(k)
        assert vars(ladder) == before

    def test_equality_includes_promotion_marks(self):
        a, b = RungLadder((1, 3, 9)), RungLadder((1, 3, 9))
        for ladder in (a, b):
            ladder.insert(0, RungEntry(0, 0.5))
        assert a == b
        a.promote(0)
        assert a != b


def rank_key(entry):
    return (-entry.metric, entry.completion_index)


def brute_force_promotion(inserted, promoted, top_index, eta):
    """Highest rung below top_index with an unpromoted entry in its sorted top
    quota, or None."""
    for k in range(top_index - 1, -1, -1):
        ordered = sorted(inserted[k], key=rank_key)
        if any(e.config not in promoted[k] for e in ordered[: len(ordered) // eta]):
            return k
    return None


# few distinct values, so equal metrics are common; completion indexes are
# unique, as the scheduler's are, and drawn out of insertion order
METRICS = st.sampled_from((0.1, 0.3, 0.5, 0.7, 0.9))
COMPLETIONS = 200


class _Filled:
    """What a ladder filled step by step holds, kept by brute force: each
    rung's entries in insertion order and the configs promoted from it."""

    def __init__(self, ladder):
        self.ladder = ladder
        self.inserted = [[] for _ in ladder.levels]
        self.promoted = [set() for _ in ladder.levels]
        self.unused = list(range(COMPLETIONS))  # completion indexes not yet drawn
        self.fresh = 0  # the next config id never inserted

    def waiting(self, k):
        return [e for e in self.inserted[k] if e.config not in self.promoted[k]]

    def climbs(self):
        """(rung, config) of each promoted config its next rung does not hold yet."""
        return [
            (k + 1, config)
            for k, promoted in enumerate(self.promoted[:-1])
            for config in sorted(promoted)
            if all(e.config != config for e in self.inserted[k + 1])
        ]

    def step(self, data):
        """Promote from a rung with a waiting entry, checking that promote
        takes its best one, or insert a new entry, as data chooses."""
        rungs = [k for k in range(len(self.inserted)) if self.waiting(k)]
        if rungs and data.draw(st.booleans(), label="promote"):
            k = data.draw(st.sampled_from(rungs), label="promoted from")
            best = min(self.waiting(k), key=rank_key)
            assert self.ladder.promote(k) is best
            self.promoted[k].add(best.config)
            return
        k, config = data.draw(st.sampled_from([(0, None)] + self.climbs()), label="slot")
        if config is None:
            config, self.fresh = self.fresh, self.fresh + 1
        completion = data.draw(st.sampled_from(self.unused), label="completion")
        self.unused.remove(completion)
        entry = RungEntry(config, data.draw(METRICS, label="metric"), completion)
        self.ladder.insert(k, entry)
        self.inserted[k].append(entry)


class TestIncrementalLadderProperties:
    @settings(max_examples=100, deadline=None)
    @given(eta=st.integers(2, 4), data=st.data())
    def test_ladder_matches_a_brute_force_sort(self, eta, data):
        config = SchedulerConfig(ResourceSpec(1, eta, eta**3), num_configs=1, mode="asha")
        sched = Scheduler(config, [0])
        ladder = sched.ladder
        filled = _Filled(ladder)
        for _ in range(data.draw(st.integers(0, 50), label="steps")):
            filled.step(data)
            for k, rung in enumerate(filled.inserted):
                assert ladder.sorted_rung(k) == sorted(rung, key=rank_key)
            expected = brute_force_promotion(filled.inserted, filled.promoted, sched.top_index, eta)
            assert ladder.promotion(sched.top_index, eta) == expected

        fresh = filled.fresh
        before = copy.deepcopy(vars(ladder))
        bad = [
            (len(ladder.levels), RungEntry(fresh, 0.5), "outside ladder"),
            (-1, RungEntry(fresh, 0.5), "outside ladder"),
            (0, RungEntry(fresh, math.nan), "non-finite"),
            (0, RungEntry(fresh, math.inf), "non-finite"),
            (0, RungEntry(fresh, -math.inf), "non-finite"),
            (1, RungEntry(fresh, 0.5), "without a promotion below"),
        ]
        climbs = dict(filled.climbs())  # rung -> a config it may take
        for k, rung in enumerate(filled.inserted):
            for entry in rung:
                bad.append((k, RungEntry(entry.config, 0.5), "duplicate result"))
                if k + 1 < len(filled.inserted) and entry.config not in filled.promoted[k]:
                    bad.append((k + 1, RungEntry(entry.config, 0.5), "without a promotion"))
                # an entry the rung could take, but for its key
                taker = fresh if k == 0 else climbs.get(k)
                if taker is not None:
                    reused = RungEntry(taker, entry.metric, entry.completion_index)
                    bad.append((k, reused, "reuses rank key"))
        for k, entry, message in bad:
            with pytest.raises(InternalError, match=message):
                ladder.insert(k, entry)
        for k in range(len(ladder.levels)):
            if not filled.waiting(k):
                with pytest.raises(InternalError, match="no unpromoted entry"):
                    ladder.promote(k)
        assert vars(ladder) == before

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_promotable_matches_a_brute_force_scan(self, data):
        ladder = RungLadder((1, 2, 4, 8))
        filled = _Filled(ladder)
        for _ in range(data.draw(st.integers(0, 60), label="steps")):
            filled.step(data)
            for top in range(len(ladder.levels) + 1):
                for eta in (1, 2, 3, 4):
                    expected = brute_force_promotion(filled.inserted, filled.promoted, top, eta)
                    assert ladder.promotion(top, eta) == expected

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_a_deep_copy_promotes_its_own_entries_as_the_original_does(self, data):
        # a forked run copies its ladder whole; the copy's promotions must
        # hand out the copy's own entries, never the original's
        ladder = RungLadder((1, 2, 4, 8))
        filled = _Filled(ladder)
        for _ in range(data.draw(st.integers(0, 60), label="steps")):
            filled.step(data)
        twin = copy.deepcopy(ladder)
        assert twin == ladder
        for k in range(len(ladder.levels)):
            for _ in filled.waiting(k):
                original, copied = ladder.promote(k), twin.promote(k)
                assert copied.config == original.config
                assert any(copied is e for e in twin.rungs[k])
                assert not any(copied is e for e in ladder.rungs[k])
            for either in (ladder, twin):
                with pytest.raises(InternalError, match="no unpromoted entry"):
                    either.promote(k)
        assert twin == ladder


FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)


def bits(value: float) -> bytes:
    return struct.pack("<d", value)  # tells -0.0 from 0.0


class TestLeftSum:
    def test_each_addition_is_rounded(self):
        # a compensated sum (fsum, or sum on Python 3.12+) gives 2.0
        assert bits(_left_sum([1.0, 1e100, 1.0, -1e100])) == bits(0.0)

    def test_empty_is_zero(self):
        assert _left_sum([]) == 0

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(FINITE, max_size=12))
    def test_equals_a_left_to_right_loop(self, values):
        total = 0
        for value in values:
            total = total + value
        assert bits(_left_sum(values)) == bits(float(total))

    @pytest.mark.skipif(sys.version_info >= (3, 12), reason="sum compensates from 3.12")
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(FINITE, max_size=12))
    def test_equals_the_builtin_sum_before_3_12(self, values):
        assert bits(_left_sum(values)) == bits(float(sum(values)))
