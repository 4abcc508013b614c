"""Scheduler decision logic: promotions, draws, progressive growth, baselines."""

from bisect import bisect_left
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tunesim import (
    DataError,
    InternalError,
    LearningCurveTable,
    RankingCriterion,
    ResourceSpec,
    SchedulerConfig,
    UsageError,
    simulate,
)
from tunesim.benchgen import generate
from tunesim.core import rung_levels
from tunesim.ranking import is_stable
from tunesim.scheduler import MODES, Job, Scheduler, _draws
from util import NOISY_TIGHT, TOP_CHURN, table_from_rows


def make_scheduler(mode="asha", eta=3, r=1, cap=81, n=8, order=None, **kwargs):
    config = SchedulerConfig(
        resources=ResourceSpec(r, eta, cap), num_configs=n, mode=mode, **kwargs
    )
    draws = order if order is not None else _draws(range(max(n, 16)), config.seed, n)[0]
    return Scheduler(config, draws)


def drain_serial(sched, metric_fn):
    """Run the scheduler with one synchronous worker to quiescence."""
    while True:
        job = sched.get_job()
        if job is None:
            assert sched.should_stop()
            return
        sched.report(job, metric_fn(job.config, job.target_resource))


class TestGetJob:
    def test_promotes_top_entry_of_a_full_rung(self):
        sched = make_scheduler(order=[0, 1, 2])
        for config, metric in ((0, 0.9), (1, 0.5), (2, 0.1)):
            job = sched.get_job()
            assert (job.config, job.rung, job.target_resource) == (config, 0, 1)
            sched.report(job, metric)
        job = sched.get_job()
        assert (job.config, job.rung, job.target_resource) == (0, 1, 3)

    def test_undersized_rung_draws_instead(self):
        sched = make_scheduler(order=[0, 1, 2])
        for config, metric in ((0, 0.9), (1, 0.5)):
            job = sched.get_job()
            sched.report(job, metric)
        job = sched.get_job()
        assert (job.config, job.rung) == (2, 0)  # floor(2/3) = 0 candidates

    def test_no_job_when_drawn_out_and_nothing_promotable(self):
        sched = make_scheduler(n=2, order=[0, 1])
        first = sched.get_job()
        second = sched.get_job()
        assert sched.get_job() is None  # both in flight, nothing completed
        sched.report(first, 0.9)
        sched.report(second, 0.5)
        assert sched.get_job() is None  # floor(2/3) = 0, all drawn
        assert sched.should_stop()

    def test_random_mode_has_no_scheduler(self):
        with pytest.raises(UsageError):
            make_scheduler(mode="random")

    def test_jobs_are_named_tuples_like_constructor_built_ones(self):
        sched = make_scheduler(order=[0, 1, 2])
        for config, metric in ((0, 0.9), (1, 0.5), (2, 0.1), (0, 0.8)):
            job = sched.get_job()
            built = Job(config=job.config, rung=job.rung, target_resource=job.target_resource)
            assert type(job) is Job
            assert job == built and repr(job) == repr(built) and hash(job) == hash(built)
            assert job._asdict() == built._asdict() and job[1] == job.rung
            assert job.config == config
            sched.report(job, metric)


class TestReport:
    def test_duplicate_report_rejected(self):
        sched = make_scheduler(order=[0, 1])
        job = sched.get_job()
        sched.report(job, 0.5)
        with pytest.raises(InternalError):
            sched.report(job, 0.5)

    def test_stable_pair_leaves_cap_alone(self):
        sched = make_scheduler(mode="pasha", eta=2, cap=16, n=8,
                               order=list(range(8)),
                               criterion=RankingCriterion("direct"))
        # order never changes across levels: config i scores 0.9 - i/10
        drain_serial(sched, lambda c, u: 0.9 - c / 10)
        assert sched.cap == 4  # never grew past eta^2 * r: zero growth steps
        assert sched.top_index == 2

    def test_unstable_pair_grows_once_per_report(self):
        # configs 0 and 1 swap order between levels 2 and 4
        def metric(config, units):
            if units < 4:
                return 0.9 - config / 10
            return {0: 0.5, 1: 0.9}.get(config, 0.9 - config / 10 - 0.3)

        sched = make_scheduler(mode="pasha", eta=2, cap=16, n=8,
                               order=list(range(8)),
                               criterion=RankingCriterion("direct"))
        drain_serial(sched, metric)
        assert sched.cap > 4

    def test_growth_stops_at_the_safety_net(self):
        sched = make_scheduler(mode="pasha", eta=3, cap=9, n=9,
                               order=list(range(9)),
                               criterion=RankingCriterion("always-unstable"))
        drain_serial(sched, lambda c, u: 0.9 - c / 100)
        # the cap started at the safety net (eta^2 * r = 9): no growth
        assert sched.cap == sched.ceiling == 9
        assert sched.top_index == len(sched.levels) - 1

    def test_forced_growth_reaches_the_cap_when_rungs_stay_populated(self):
        # 64 configs at eta=2 keep every rung at >= 2 entries up to level 16,
        # so an always-unstable criterion drives the cap all the way there
        sched = make_scheduler(mode="pasha", eta=2, cap=16, n=64,
                               order=list(range(64)),
                               criterion=RankingCriterion("always-unstable"))
        drain_serial(sched, lambda c, u: 0.9 - c / 100)
        assert sched.cap == sched.ceiling == 16
        assert sched.top_index == len(sched.levels) - 1

    def test_growth_stalls_when_the_top_rung_cannot_hold_two(self):
        # 16 configs at eta=2 thin out to a single entry at level 16, and a
        # one-entry top rung carries no ordering evidence: no further growth
        sched = make_scheduler(mode="pasha", eta=2, cap=64, n=16,
                               order=list(range(16)),
                               criterion=RankingCriterion("always-unstable"))
        drain_serial(sched, lambda c, u: 0.9 - c / 100)
        assert sched.cap == 2 ** (2 + 2)  # two growth steps from eta^2 * r = 4
        assert sched.ceiling == 64
        assert sched.levels[sched.top_index] == 16


# every criterion kind; metrics stay positive so the regret kinds never refuse
TRIGGER_CRITERIA = (
    "direct", "soft:0.1", "soft:0.3", "soft-sigma:1", "soft-sigma:3", "soft-mean-dist",
    "soft-median-dist", "rbo:p=0.9,t=0.5", "rbo", "rrr", "arrr", "always-unstable",
)


@st.composite
def trigger_cases(draw):
    """A pasha config and a small table with quantized metrics, so rungs tie.

    R is a power of eta or not; each config's metric is constant between
    ladder levels, the only resources a job reads.
    """
    eta = draw(st.integers(2, 4))
    powers = [eta**k for k in range(3, 7) if eta**k <= 100]
    if draw(st.booleans()):
        max_resource = draw(st.sampled_from(powers))
    else:
        max_resource = draw(st.integers(eta**2 + 1, 100).filter(lambda r: r not in powers))
    config = SchedulerConfig(
        resources=ResourceSpec(1, eta, max_resource),
        num_configs=draw(st.integers(2, 80)),
        mode="pasha",
        criterion=RankingCriterion.parse(draw(st.sampled_from(TRIGGER_CRITERIA))),
        seed=draw(st.integers(0, 3)),
        pair_below_cap=draw(st.booleans()),
    )
    levels = rung_levels(config.resources)
    quantized = st.sampled_from((0.25, 0.5, 0.75, 1.0))
    rows, costs = {}, {}
    for c in range(config.num_configs):
        at_level = draw(st.lists(quantized, min_size=len(levels), max_size=len(levels)))
        rows[c] = [at_level[bisect_left(levels, u)] for u in range(1, max_resource + 1)]
        costs[c] = [float(draw(st.integers(1, 3)))] * max_resource
    return config, table_from_rows(rows, costs), draw(st.integers(1, 6))


class TestStabilityTrigger:
    @settings(max_examples=200, deadline=None)
    @given(case=trigger_cases())
    def test_a_lower_rung_report_never_changes_the_verdict(self, case):
        """A report into the pair's lower rung adds a config the upper rung
        lacks, so it leaves the pair's verdict as it was; without
        pair_below_cap that verdict is stable, so a check there could never
        grow the cap and report checks only reports into the upper rung.

        With pair_below_cap the verdict can be unstable: after a growth the
        new pair's upper rung is the old cap level, which may hold configs
        that no check has compared yet.
        """
        config, table, workers = case
        real_report = Scheduler.report

        def report(sched, job, metric):
            pair_top = sched.top_index - 1 if sched.config.pair_below_cap else sched.top_index
            lower = sched.cap < sched.ceiling and job.rung == pair_top - 1

            def verdict():
                pair = sched.ladder.sorted_rung(pair_top), sched.ladder.sorted_rung(pair_top - 1)
                return is_stable(sched.criterion, *pair)

            before = verdict() if lower else None
            real_report(sched, job, metric)
            if lower:
                assert verdict() == before
                assert before or sched.config.pair_below_cap

        with mock.patch.object(Scheduler, "report", report):
            simulate(config, table, workers)


# every criterion kind; rrr's default threshold is rarely crossed, so one is tighter
DIFFERENTIAL_CRITERIA = (
    "direct", "soft:0.005", "soft:0.025", "soft-sigma:1", "soft-sigma:2", "soft-mean-dist",
    "soft-median-dist", "rbo:p=0.9,t=0.5", "rbo", "rrr:p=0.9,t=0.01", "arrr",
    "always-unstable",
)


CHURN_MODELS = {"noisy": NOISY_TIGHT, "top-churn": TOP_CHURN}


def churn_table(num_configs, max_resource, model, table_seed, quantized):
    """A noisy or top-churn table, where pasha's checks do fail; quantized
    rounds its metrics up to multiples of 1/32, so that rungs hold exact ties."""
    table = generate(num_configs, max_resource, CHURN_MODELS[model], table_seed)
    if not quantized:
        return table
    metrics = np.ceil(table.metrics * 32) / 32
    return LearningCurveTable(table.ids, metrics, table.costs, table.finals)


class TestIncrementalStability:
    @settings(max_examples=30, deadline=None)
    @given(
        table_args=st.tuples(
            st.integers(50, 250),
            st.sampled_from((81, 100)),
            st.sampled_from(tuple(CHURN_MODELS)),
            st.integers(0, 100),
            st.booleans(),
        ),
        seed=st.integers(0, 100),
        workers=st.integers(1, 4),
    )
    # a growth with pair_below_cap leaves an unchecked violation outside the
    # first window of the new pair, for direct and soft
    @example(table_args=(50, 81, "noisy", 0, True), seed=1, workers=2)
    # verdicts that the first and the last position of a window decide
    @example(table_args=(100, 81, "noisy", 0, False), seed=0, workers=2)
    def test_every_verdict_is_the_full_checks(self, table_args, seed, workers):
        """The scheduler keeps each pair's check incrementally; every verdict,
        for every criterion with and without pair_below_cap, must still be
        is_stable's on the ladder's rungs at that moment, and only an unstable
        one grows the cap."""
        _, max_resource, *_ = table_args
        table = churn_table(*table_args)
        real_report = Scheduler.report

        def report(sched, job, metric):
            pair_top = sched.top_index - 1 if sched.config.pair_below_cap else sched.top_index
            checked = sched.cap < sched.ceiling and job.rung == pair_top
            cap = sched.cap
            real_report(sched, job, metric)
            stable = not checked or is_stable(
                sched.criterion,
                sched.ladder.sorted_rung(pair_top),
                sched.ladder.sorted_rung(pair_top - 1),
            )
            assert (sched.cap == cap) == stable

        with mock.patch.object(Scheduler, "report", report):
            for spelling in DIFFERENTIAL_CRITERIA:
                for pair_below_cap in (False, True):
                    config = SchedulerConfig(
                        resources=ResourceSpec(1, 3, max_resource),
                        num_configs=len(table.ids),
                        mode="pasha",
                        criterion=RankingCriterion.parse(spelling),
                        seed=seed,
                        pair_below_cap=pair_below_cap,
                    )
                    simulate(config, table, workers)


class TestBestConfig:
    def test_single_config(self):
        sched = make_scheduler(n=1, order=[5])
        job = sched.get_job()
        sched.report(job, 0.7)
        assert sched.best_config() == (5, 0.7, 1)

    def test_empty_ladder_rejected(self):
        sched = make_scheduler()
        with pytest.raises(InternalError):
            sched.best_config()

    def test_highest_rung_wins_even_with_lower_better_metric(self):
        sched = make_scheduler(order=[0, 1, 2])
        for config, metric in ((0, 0.6), (1, 0.5), (2, 0.4)):
            sched.report(sched.get_job(), metric)
        promotion = sched.get_job()
        sched.report(promotion, 0.55)  # worse than its rung-0 score
        config, metric, resource = sched.best_config()
        assert (config, metric, resource) == (0, 0.55, 3)


class TestDraws:
    def test_seeded_draws_are_deterministic(self):
        assert _draws(range(10), 4, 10)[0] == _draws(range(10), 4, 10)[0]

    def test_draws_without_replacement(self):
        assert sorted(_draws(range(10), 0, 10)[0]) == list(range(10))

    def test_an_over_count_is_a_data_error(self):
        assert len(_draws(range(3), 0, 3)[0]) == 3
        with pytest.raises(DataError, match="asked for 4 draws from a universe of 3 configs"):
            _draws(range(3), 0, 4)

    def test_different_seeds_differ_somewhere(self):
        firsts = {_draws(range(50), seed, 1)[0][0] for seed in range(3)}
        assert len(firsts) > 1


class TestBaselines:
    @pytest.mark.parametrize(
        ("mode", "cap", "ceiling", "top_index"),
        [
            ("pasha", 9, 100, 2),
            ("asha", 100, 100, 5),  # levels 1, 3, 9, 27, 81, 100
            ("one-epoch", 1, 1, 0),
            ("no-increase", 9, 9, 2),
        ],
    )
    def test_each_mode_starts_at_its_cap_row(self, mode, cap, ceiling, top_index):
        sched = make_scheduler(mode=mode, cap=100)
        assert (sched.cap, sched.ceiling, sched.top_index) == (cap, ceiling, top_index)

    def test_one_epoch_picks_the_best_first_unit_config(self):
        table = table_from_rows(
            {0: [0.3, 0.9], 1: [0.8, 0.4], 2: [0.1, 0.2]},
            finals={0: 0.9, 1: 0.4, 2: 0.2},
        )
        result = simulate(
            SchedulerConfig(ResourceSpec(1, 2, 4), num_configs=3, mode="one-epoch", seed=0),
            table, 1,
        )
        assert result.chosen == 1  # dominates at one unit
        assert result.max_resources == 1
        assert result.wall_clock == pytest.approx(3.0)  # three 1 s units, W=1

    def test_one_epoch_parallel_runtime(self):
        table = table_from_rows({0: [0.3], 1: [0.8], 2: [0.1]})
        result = simulate(
            SchedulerConfig(ResourceSpec(1, 2, 4), num_configs=3, mode="one-epoch", seed=0),
            table, 3,
        )
        assert result.wall_clock == pytest.approx(1.0)

    def test_random_spends_nothing(self):
        table = table_from_rows({i: [0.1 * i] * 4 for i in range(8)})
        result = simulate(
            SchedulerConfig(ResourceSpec(1, 2, 4), num_configs=8, mode="random", seed=1),
            table, 1,
        )
        assert result.wall_clock == 0.0
        assert result.max_resources == 0
        assert result.units_consumed == 0
        assert result.chosen in range(8)

    def test_random_draw_pool_flag(self):
        table = table_from_rows({i: [0.1 * i] * 4 for i in range(8)})
        chosen = {
            simulate(
                SchedulerConfig(ResourceSpec(1, 2, 4), num_configs=8, mode="random",
                                seed=s, random_draws=2),
                table, 1,
            ).chosen
            for s in range(30)
        }
        assert len(chosen) > 1  # the pool is drawn, not a constant

    def test_no_increase_caps_at_the_initial_ladder(self):
        table = table_from_rows({i: [0.9 - 0.05 * i] * 27 for i in range(18)})
        result = simulate(
            SchedulerConfig(ResourceSpec(1, 3, 27), num_configs=18, mode="no-increase", seed=0),
            table, 1,
        )
        assert result.max_resources == 9  # eta^2 * r with r=1, eta=3


class TestSchedulerInvariants:
    def test_quiescent_rung_sizes_follow_the_reduction_factor(self):
        # each rung's current top third is fully promoted once the run drains,
        # but entries promoted early can be displaced from that top third as
        # the rung below keeps filling, so sizes form a band, not an equality
        table = table_from_rows({i: [0.9 - 0.01 * i] * 27 for i in range(20)})
        workers = 3
        for mode in ("asha", "pasha"):
            config = SchedulerConfig(
                resources=ResourceSpec(1, 3, 27), num_configs=20, mode=mode, seed=0
            )
            result = simulate(config, table, workers=workers)
            sizes = [len(r) for r in result.ladder.rungs]
            # rungs above the final promotion ceiling legitimately stay empty
            ceiling = result.ladder.levels.index(result.max_resources)
            for k in range(ceiling):
                assert sizes[k] // 3 <= sizes[k + 1] <= sizes[k] // 3 + workers

    def test_rung_sizes_are_exact_when_draw_order_matches_metric_order(self):
        # serial draining with the best config drawn first never displaces a
        # promotee, so every rung holds exactly a third of the one below
        sched = make_scheduler(mode="asha", eta=3, cap=27, n=27,
                               order=list(range(27)))
        drain_serial(sched, lambda c, u: 0.9 - c / 100)
        sizes = [len(r) for r in sched.ladder.rungs]
        assert sizes == [27, 9, 3, 1]

    def test_rescaling_metrics_preserves_decisions_under_direct_ranking(self):
        rows = {i: [0.5 + 0.02 * i + 0.001 * u for u in range(9)] for i in range(12)}
        table = table_from_rows(rows)
        scaled = table_from_rows(
            {i: [3.0 * m + 5.0 for m in rows[i]] for i in rows},
            finals={i: 3.0 * rows[i][-1] + 5.0 for i in rows},
        )
        config = SchedulerConfig(
            resources=ResourceSpec(1, 2, 8), num_configs=12, mode="pasha",
            criterion=RankingCriterion("direct"), seed=3,
        )
        plain = simulate(config, table, workers=2, collect_trace=True)
        moved = simulate(config, scaled, workers=2, collect_trace=True)
        assert [(e.config, e.rung, e.kind) for e in plain.trace] == [
            (e.config, e.rung, e.kind) for e in moved.trace
        ]
        assert plain.chosen == moved.chosen

    def test_no_job_exceeds_the_final_cap(self):
        table = table_from_rows({i: [0.9 - 0.01 * i] * 81 for i in range(30)})
        config = SchedulerConfig(
            resources=ResourceSpec(1, 3, 81), num_configs=30, mode="pasha", seed=0
        )
        result = simulate(config, table, workers=4, collect_trace=True)
        assert max(e.resource for e in result.trace) == result.max_resources
        assert result.max_resources <= 81


class TestSchedulerConfigValidation:
    def test_unknown_mode(self):
        with pytest.raises(UsageError):
            SchedulerConfig(resources=ResourceSpec(1, 3, 81), num_configs=4, mode="sha")

    def test_nonpositive_num_configs(self):
        with pytest.raises(UsageError):
            SchedulerConfig(resources=ResourceSpec(1, 3, 81), num_configs=0)

    def test_bad_random_draws(self):
        with pytest.raises(UsageError):
            SchedulerConfig(
                resources=ResourceSpec(1, 3, 81), num_configs=4, random_draws=0
            )

    @pytest.mark.parametrize("mode", [m for m in MODES if m != "pasha"])
    def test_pair_below_cap_outside_pasha_is_refused(self, mode):
        with pytest.raises(UsageError, match="pair_below_cap applies only to mode 'pasha'"):
            SchedulerConfig(
                resources=ResourceSpec(1, 3, 81), num_configs=4, mode=mode, pair_below_cap=True
            )

    @pytest.mark.parametrize("mode", [m for m in MODES if m != "random"])
    def test_random_draws_outside_random_is_refused(self, mode):
        with pytest.raises(UsageError, match="random_draws applies only to mode 'random'"):
            SchedulerConfig(
                resources=ResourceSpec(1, 3, 81), num_configs=4, mode=mode, random_draws=3
            )

    def test_both_options_on_asha_are_refused(self):
        with pytest.raises(UsageError, match="pair_below_cap"):
            SchedulerConfig(
                resources=ResourceSpec(1, 3, 81), num_configs=4, mode="asha",
                pair_below_cap=True, random_draws=3,
            )

    @pytest.mark.parametrize("mode", [m for m in MODES if m != "pasha"])
    @pytest.mark.parametrize("spelling", ["always-unstable", "soft:0.025"])
    def test_criterion_outside_pasha_is_refused(self, mode, spelling):
        with pytest.raises(UsageError, match="criterion applies only to mode 'pasha', not"):
            SchedulerConfig(
                resources=ResourceSpec(1, 3, 81), num_configs=4, mode=mode,
                criterion=RankingCriterion.parse(spelling),
            )

    @pytest.mark.parametrize("mode", MODES)
    def test_default_options_suit_every_mode(self, mode):
        config = SchedulerConfig(
            resources=ResourceSpec(1, 3, 81), num_configs=4, mode=mode,
            pair_below_cap=False, random_draws=None,
        )
        assert config.mode == mode
