"""Resource geometry, progressive cap growth, and rung ladder invariants."""

import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunesim import InternalError, ResourceSpec, SchedulerConfig, UsageError
from tunesim.core import (
    PashaState,
    RungEntry,
    RungLadder,
    grow,
    initial_pasha_state,
    max_rung_index,
    rung_levels,
    rung_resource,
)
from tunesim.scheduler import Scheduler


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
    def test_rung_zero_is_min_resource(self):
        assert rung_resource(0, spec()) == 1

    def test_power_growth(self):
        assert rung_resource(2, spec()) == 9
        assert rung_resource(3, ResourceSpec(2, 4, 128)) == 128

    def test_scales_with_min_resource(self):
        assert rung_resource(2, spec(r=5)) == 45

    def test_negative_rung_rejected(self):
        with pytest.raises(ValueError):
            rung_resource(-1, spec())


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
        assert initial_pasha_state(spec(cap=200)) == PashaState(0, 9, 2)
        assert initial_pasha_state(spec(eta=2, cap=64)) == PashaState(0, 4, 2)
        assert initial_pasha_state(spec(r=5, cap=405)) == PashaState(0, 45, 2)


class TestGrow:
    def test_multiplies_cap_by_reduction_factor(self):
        state = grow(initial_pasha_state(spec(cap=200)), spec(cap=200))
        assert state == PashaState(1, 27, 3)

    def test_overshoot_clamps_to_cap(self):
        # from cap 81 the next step would be 243 > 200: clamp, top rung stays 4
        state = grow(PashaState(2, 81, 4), spec(cap=200))
        assert state == PashaState(3, 200, 4)

    def test_growth_at_cap_is_noop(self):
        clamped = PashaState(3, 200, 4)
        assert grow(clamped, spec(cap=200)) is clamped

    def test_cap_never_decreases(self):
        s = spec(cap=200)
        state = initial_pasha_state(s)
        for _ in range(10):
            nxt = grow(state, s)
            assert nxt.resource_cap >= state.resource_cap
            state = nxt
        assert state.resource_cap == 200

    def test_top_rung_tracks_min_of_linear_and_log(self):
        for r in range(1, 6):
            for eta in (2, 3, 4):
                for extra in (0, 1, 5, 37):
                    s = spec(r, eta, eta * eta * r * eta**2 + extra)
                    state = initial_pasha_state(s)
                    for t in range(7):
                        expected = min(t + 2, floor_log(s.max_resource // r, eta))
                        assert state.top_rung == expected
                        state = grow(state, s)


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

    def test_upper_rung_requires_promotion_below(self):
        ladder = RungLadder((1, 3, 9))
        with pytest.raises(InternalError):
            ladder.insert(1, RungEntry(0, 0.5))
        ladder.insert(0, RungEntry(0, 0.5, promoted=True))
        ladder.insert(1, RungEntry(0, 0.55))  # now legal
        assert [len(r) for r in ladder.rungs] == [1, 1, 0]

    def test_occupied_rungs_form_a_prefix(self):
        ladder = RungLadder((1, 3, 9, 27))
        for k in range(3):
            ladder.insert(k, RungEntry(7, 0.5 + k / 10, promoted=True))
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
        ladder.insert(0, RungEntry(0, 0.5, promoted=True))
        assert ladder.highest_nonempty() == 0
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
        assert ladder.best_unpromoted(0) is entry
        ladder.promote(0, entry)
        assert entry.promoted and ladder.best_unpromoted(0) is None
        with pytest.raises(InternalError, match="already promoted"):
            ladder.promote(0, entry)
        ladder.insert(1, RungEntry(0, 0.6))  # the mark is what insert checks

    def test_equality_includes_promotion_marks(self):
        a, b = RungLadder((1, 3, 9)), RungLadder((1, 3, 9))
        for ladder in (a, b):
            ladder.insert(0, RungEntry(0, 0.5))
        assert a == b
        a.promote(0, a.rungs[0][0])
        assert a != b


def rank_key(entry):
    return (-entry.metric, entry.completion_index)


def brute_force_promotion(inserted, top_index, eta):
    """First unpromoted entry in the sorted top quota, highest rung first."""
    for k in range(top_index - 1, -1, -1):
        ordered = sorted(inserted[k], key=rank_key)
        for entry in ordered[: len(ordered) // eta]:
            if not entry.promoted:
                return k, entry
    return None


# few distinct values, so exact metric and completion-index ties are common
METRICS = st.sampled_from((0.1, 0.3, 0.5, 0.7, 0.9))
COMPLETIONS = st.integers(0, 4)


class TestIncrementalLadderProperties:
    @settings(max_examples=100, deadline=None)
    @given(eta=st.integers(2, 4), data=st.data())
    def test_ladder_matches_a_brute_force_sort(self, eta, data):
        config = SchedulerConfig(ResourceSpec(1, eta, eta**3), num_configs=1, mode="asha")
        sched = Scheduler(config, [0])
        ladder = sched.ladder
        inserted = [[] for _ in ladder.levels]  # insertion order, per rung
        fresh = 0
        for _ in range(data.draw(st.integers(0, 50), label="steps")):
            waiting = [(k, e) for k, rung in enumerate(inserted) for e in rung if not e.promoted]
            if waiting and data.draw(st.booleans(), label="promote"):
                k, entry = data.draw(st.sampled_from(waiting), label="promoted")
                ladder.promote(k, entry)
            else:
                climbs = [
                    (k + 1, e.config)
                    for k, rung in enumerate(inserted[:-1])
                    for e in rung
                    if e.promoted and all(x.config != e.config for x in inserted[k + 1])
                ]
                k, config = data.draw(st.sampled_from([(0, None)] + climbs), label="slot")
                if config is None:
                    config, fresh = fresh, fresh + 1
                entry = RungEntry(
                    config,
                    data.draw(METRICS, label="metric"),
                    promoted=data.draw(st.booleans(), label="inserted promoted"),
                    completion_index=data.draw(COMPLETIONS, label="completion"),
                )
                ladder.insert(k, entry)
                inserted[k].append(entry)
            for k, rung in enumerate(inserted):
                assert ladder.sorted_rung(k) == sorted(rung, key=rank_key)
            expected = brute_force_promotion(inserted, sched.top_index, eta)
            found = sched._find_promotion()
            if expected is None:
                assert found is None
            else:
                assert found[0] == expected[0] and found[1] is expected[1]

        before = copy.deepcopy(ladder)
        bad = [
            (len(ladder.levels), RungEntry(fresh, 0.5), "outside ladder"),
            (-1, RungEntry(fresh, 0.5), "outside ladder"),
            (0, RungEntry(fresh, math.nan), "non-finite"),
            (0, RungEntry(fresh, math.inf), "non-finite"),
            (0, RungEntry(fresh, -math.inf), "non-finite"),
            (1, RungEntry(fresh, 0.5), "without a promotion below"),
        ]
        for k, rung in enumerate(inserted):
            for entry in rung:
                bad.append((k, RungEntry(entry.config, 0.5), "duplicate result"))
                if k + 1 < len(inserted) and not entry.promoted:
                    bad.append((k + 1, RungEntry(entry.config, 0.5), "without a promotion"))
        for k, entry, message in bad:
            with pytest.raises(InternalError, match=message):
                ladder.insert(k, entry)
        assert ladder == before
