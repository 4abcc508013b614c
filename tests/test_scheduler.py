"""Scheduler decision logic: promotions, draws, progressive growth, baselines."""

import pytest

from tunesim import (
    DataError,
    InternalError,
    RankingCriterion,
    ResourceSpec,
    SchedulerConfig,
    UsageError,
    simulate,
)
from tunesim.scheduler import RandomSearcher, Scheduler
from util import ScriptedSearcher, table_from_rows


def make_scheduler(mode="asha", eta=3, r=1, cap=81, n=8, order=None, **kwargs):
    config = SchedulerConfig(
        resources=ResourceSpec(r, eta, cap), num_configs=n, mode=mode, **kwargs
    )
    searcher = ScriptedSearcher(order) if order is not None else None
    return Scheduler(config, universe=range(max(n, 16)), searcher=searcher)


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
        assert sched.pasha.resource_cap == 4  # never grew past eta^2 * r
        assert sched.pasha.t == 0

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
        assert sched.pasha.resource_cap > 4

    def test_growth_stops_at_the_safety_net(self):
        sched = make_scheduler(mode="pasha", eta=3, cap=9, n=9,
                               order=list(range(9)),
                               criterion=RankingCriterion("always-unstable"))
        drain_serial(sched, lambda c, u: 0.9 - c / 100)
        assert sched.pasha.resource_cap == 9
        assert sched.pasha.t == 0  # cap started at the safety net: no growth
        assert sched.top_index == len(sched.levels) - 1

    def test_forced_growth_reaches_the_cap_when_rungs_stay_populated(self):
        # 64 configs at eta=2 keep every rung at >= 2 entries up to level 16,
        # so an always-unstable criterion drives the cap all the way there
        sched = make_scheduler(mode="pasha", eta=2, cap=16, n=64,
                               order=list(range(64)),
                               criterion=RankingCriterion("always-unstable"))
        drain_serial(sched, lambda c, u: 0.9 - c / 100)
        assert sched.pasha.resource_cap == 16
        assert sched.top_index == len(sched.levels) - 1

    def test_growth_stalls_when_the_top_rung_cannot_hold_two(self):
        # 16 configs at eta=2 thin out to a single entry at level 16, and a
        # one-entry top rung carries no ordering evidence: no further growth
        sched = make_scheduler(mode="pasha", eta=2, cap=64, n=16,
                               order=list(range(16)),
                               criterion=RankingCriterion("always-unstable"))
        drain_serial(sched, lambda c, u: 0.9 - c / 100)
        assert sched.pasha.resource_cap == 16
        assert sched.pasha.t == 2


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


class TestRandomSearcher:
    def test_seeded_draws_are_deterministic(self):
        a = RandomSearcher(range(10), seed=4)
        b = RandomSearcher(range(10), seed=4)
        assert [a.draw() for _ in range(10)] == [b.draw() for _ in range(10)]

    def test_draws_without_replacement(self):
        searcher = RandomSearcher(range(10), seed=0)
        drawn = [searcher.draw() for _ in range(10)]
        assert sorted(drawn) == list(range(10))

    def test_exhaustion_is_a_data_error(self):
        searcher = RandomSearcher(range(3), seed=0)
        for _ in range(3):
            searcher.draw()
        with pytest.raises(DataError):
            searcher.draw()

    def test_different_seeds_differ_somewhere(self):
        a = [RandomSearcher(range(50), seed=0).draw() for _ in range(1)]
        b = [RandomSearcher(range(50), seed=1).draw() for _ in range(1)]
        c = [RandomSearcher(range(50), seed=2).draw() for _ in range(1)]
        assert len({tuple(a), tuple(b), tuple(c)}) > 1


class TestBaselines:
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
