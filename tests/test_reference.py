"""A slow reference simulator, written from the papers' rules and not from the
engine, and a differential test of simulate against it.

From the engine's modules (core, scheduler, simulator) it takes only
ResourceSpec; the stability scores and epsilons are tunesim.ranking's public
functions, and the soft ranking is util.soft_rank. Rungs are plain lists
sorted on demand. Promotion is ASHA's (arXiv 1810.05934): scan the rungs from
the top for an unpromoted entry among a rung's top len // eta. The cap grows
as in PASHA (arXiv 2207.06940), with a full stability check of the pair at
every result that reaches the pair's upper rung. Free workers are served in
index order and completions in (time, index) order, the event model of Syne
Tune's simulated backend (arXiv 2207.05294). Only the check, not the
reference, drives a Scheduler: through the reference's events, to compare
the cap after each completion.
"""

from __future__ import annotations

import random
from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunesim import DataError, RankingCriterion, SchedulerConfig, generate, simulate
from tunesim.core import ResourceSpec
from tunesim.ranking import (
    arrr, epsilon_mean_distance, epsilon_median_distance, epsilon_sigma, rbo, rrr,
)
from tunesim.scheduler import Scheduler

from util import TOP_CHURN, soft_rank, table_from_rows

Entry = namedtuple("Entry", "config metric index")  # index: the run's completion count

EPSILONS = {
    "direct": lambda c, metrics: 0.0,
    "soft": lambda c, metrics: c.epsilon,
    "soft-sigma": lambda c, metrics: epsilon_sigma(metrics, c.multiplier),
    "soft-mean-dist": lambda c, metrics: epsilon_mean_distance(metrics),
    "soft-median-dist": lambda c, metrics: epsilon_median_distance(metrics),
}


def ranked(rung: list[Entry]) -> list[Entry]:
    return sorted(rung, key=lambda e: (-e.metric, e.index))


def stable(c: RankingCriterion, top: list[Entry], below: list[Entry]) -> bool:
    configs = [e.config for e in top]
    projected = [e for e in below if e.config in configs]
    order = [e.config for e in projected]
    if len(top) <= 1:
        return True
    if c.kind in EPSILONS:
        soft = soft_rank(projected, EPSILONS[c.kind](c, [e.metric for e in projected]))
        return all(config in soft.positions[i] for i, config in enumerate(configs))
    if c.kind == "rbo":
        return rbo(configs, order, c.p) >= c.threshold
    if c.kind in ("rrr", "arrr"):
        return (rrr if c.kind == "rrr" else arrr)(top, order, c.p) <= c.threshold
    return False  # always-unstable


def reference(config: SchedulerConfig, rows, costs, finals, workers, also=()):
    """simulate(config, table, workers, True, also) as (events, fields, rungs,
    same), and the cap after each completion."""
    spec = config.resources
    r, eta, R = spec.min_resource, spec.reduction_factor, spec.max_resource
    ids = sorted(rows)
    rng = random.Random(config.seed)
    rng.shuffle(ids)
    if config.mode == "random":  # draw a pool, pick from it, train nothing
        chosen = rng.choice(ids[: config.random_draws or config.num_configs])
        return [], (0.0, chosen, finals[chosen], 0, 0, 0), None, (), []
    levels = [r]
    while levels[-1] * eta <= R:
        levels.append(levels[-1] * eta)
    if levels[-1] < R:
        levels.append(R)
    modes = {"pasha": (eta * eta * r, R), "asha": (R, R), "one-epoch": (r, r)}
    modes["no-increase"] = (eta * eta * r,) * 2  # mode -> (starting cap, ceiling)
    cap = modes[config.mode][0]
    draws = iter(ids[: config.num_configs])
    rungs = [[] for _ in levels]
    promoted = [set() for _ in levels]
    trained: dict[int, int] = {}  # config -> the units it has been trained for
    busy = {}  # worker -> (finish time, config, rung)
    events, same, caps = [], list(range(len(also))), []
    now, units = 0.0, 0

    def top() -> int:
        return max(k for k, level in enumerate(levels) if level <= cap)

    def get_job():
        for k in range(top() - 1, -1, -1):
            rung = ranked(rungs[k])
            waiting = [e for e in rung[: len(rung) // eta] if e.config not in promoted[k]]
            if waiting:
                promoted[k].add(waiting[0].config)
                return waiting[0].config, k + 1
        config = next(draws, None)
        return None if config is None else (config, 0)

    def grows(c: SchedulerConfig, k: int) -> bool:
        if cap >= modes[c.mode][1] or k != top() - c.pair_below_cap:
            return False
        criterion = c.criterion or RankingCriterion("soft", epsilon=0.025)
        return not stable(criterion, ranked(rungs[k]), ranked(rungs[k - 1]))

    while True:
        for worker in range(workers):
            if worker in busy:
                continue
            job = get_job()
            if job is None:
                break
            config_id, k = job
            seconds = 0
            for unit_cost in costs[config_id][trained.get(config_id, 0) : levels[k]]:
                seconds = seconds + unit_cost
            busy[worker] = (now + seconds, config_id, k)
            events.append((now, worker, config_id, k, levels[k], None, "assign"))
        if not busy:
            break
        worker = min(busy, key=lambda w: (busy[w][0], w))
        now, config_id, k = busy.pop(worker)
        metric = rows[config_id][levels[k] - 1]
        rungs[k].append(Entry(config_id, metric, sum(map(len, rungs))))
        units += levels[k] - trained.get(config_id, 0)
        trained[config_id] = levels[k]
        events.append((now, worker, config_id, k, levels[k], metric, "complete"))
        verdict = grows(config, k)
        for i in list(same):
            try:
                if grows(also[i], k) != verdict:
                    same.remove(i)
            except ValueError:  # the member's own run refuses its data
                same.remove(i)
        if verdict:
            cap = min(cap * eta, R)
        caps.append(cap)
    k = max(k for k, rung in enumerate(rungs) if rung)
    best = ranked(rungs[k])[0].config
    fields = (now, best, finals[best], levels[k], sum(map(len, rungs)), units)
    rungs = [[tuple(e) for e in ranked(rung)] for rung in rungs]
    return events, fields, rungs, tuple(same), caps


def observed(res):
    rungs = None if res.ladder is None else [
        [(e.config, e.metric, e.completion_index) for e in rung] for rung in res.ladder.rungs
    ]
    fields = (res.wall_clock, res.chosen, res.chosen_metric_full, res.max_resources,
              res.jobs_executed, res.units_consumed)
    return [tuple(e) for e in res.trace], fields, rungs, res.same


def caps_along(events, config: SchedulerConfig, table) -> list[int]:
    """The cap after each completion of a Scheduler driven through events: a
    growth decision that the events alone would show only later shows here."""
    sched, running, caps = Scheduler(config, table.config_ids()), {}, []
    for _, _, config_id, rung, resource, metric, kind in events:
        if kind == "assign":
            running[config_id] = sched.get_job()
            assert running[config_id] == (config_id, rung, resource)
        else:
            sched.report(running.pop(config_id), metric)
            caps.append(sched.cap)
    return caps


CRITERIA = st.one_of(
    st.none(),  # pasha's default, soft:0.025
    st.sampled_from(("direct", "soft-mean-dist", "soft-median-dist", "always-unstable")).map(
        RankingCriterion),
    st.builds(RankingCriterion, st.just("soft"),
              epsilon=st.sampled_from((0.0, 0.01, 0.025, 0.1)) | st.floats(0.0, 0.3)),
    st.builds(RankingCriterion, st.just("soft-sigma"), multiplier=st.integers(1, 3)),
    st.builds(RankingCriterion, st.sampled_from(("rbo", "rrr", "arrr")),
              p=st.sampled_from((0.5, 0.9, 1.0)) | st.floats(0.05, 1.0),
              threshold=st.sampled_from((0.0, 0.01, 0.05, 0.5, 0.9)) | st.floats(0.0, 1.0)),
)


@st.composite
def setups(draw, grows=False):
    """A config, the configs grouped with it, a table's rows, costs and finals,
    and a worker count; the ceiling is a power of eta or lies between two.
    grows draws only pasha runs with pair_below_cap, at least two growth steps
    above the start and 30-60 configs that are not steady, so that the first
    check after a growth often meets a rung that already holds results."""
    below = st.just(True) if grows else st.booleans()
    eta, r = draw(st.sampled_from((2,) if grows else (2, 3, 4))), draw(st.integers(1, 2))
    power = r * eta ** draw(st.integers(3 if grows else 2, 7 - eta))
    R = draw(st.sampled_from((power, power + draw(st.integers(1, min(power * (eta - 1) - 1, 20))))))
    n = draw(st.integers(30, 60) if grows else st.integers(2, 60) | st.integers(30, 60))
    seed = draw(st.integers(0, 2**16))
    num_configs = n if grows else draw(st.sampled_from((n, n, n, n // 3 + 1)))

    def config(mode):
        options = {}
        if mode == "pasha":
            options = {"criterion": draw(CRITERIA), "pair_below_cap": draw(below)}
        if mode == "random":
            options = {"random_draws": draw(st.none() | st.integers(1, num_configs))}
        spec = ResourceSpec(r, eta, R)
        return SchedulerConfig(spec, num_configs, mode=mode, seed=seed, **options)

    mode = "pasha" if grows else draw(
        st.sampled_from(("pasha",) * 4 + ("no-increase", "asha", "one-epoch", "random")))
    also = []
    if mode in ("pasha", "no-increase"):  # they start at one cap, so they may share jobs
        modes = draw(st.lists(st.sampled_from(("pasha", "no-increase")), max_size=3))
        also = [config(m) for m in modes]
    rng = random.Random(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(("churn", "tenths") + ("tenths", "steady") * (not grows)))
    if kind == "churn":  # top ranks that keep crossing, in hundredths to force ties
        table = generate(n, max(R, 5), TOP_CHURN, seed)
        rows = {c: [round(m, 2) for m in row] for c, row in enumerate(table.metrics.tolist())}
        finals = dict(enumerate(table.finals.tolist()))
    else:  # tenths; a steady table holds one metric per config, so pasha stops
        rows = {c: [round(rng.uniform(0.1, 1.0), 1) for _ in range(R)] for c in range(n)}
        if kind == "steady":
            rows = {c: row[:1] * R for c, row in rows.items()}
        finals = {c: row[-1] for c, row in rows.items()}
    units = len(rows[0])
    if draw(st.booleans()):  # halves make simultaneous completions common
        costs = {c: [rng.choice((0.5, 1.0, 1.5)) for _ in range(units)] for c in range(n)}
    else:
        costs = {c: [rng.uniform(1e-3, 1e3) for _ in range(units)] for c in range(n)}
    return config(mode), also, (rows, costs, finals), draw(st.integers(1, 6))


def matches_the_reference(setup) -> None:
    """Every event, result field and rung of simulate, the grouped configs
    that never left and the cap after each completion, as the reference
    computes them; each config that never left, run alone in the reference,
    gives the grouped run's result."""
    config, also, data, workers = setup
    table = table_from_rows(*data)
    try:
        expected = reference(config, *data, workers, also)
    except ValueError:  # a regret criterion met a metric <= 0
        with pytest.raises(DataError):
            simulate(config, table, workers, collect_trace=True, also=also)
        return
    assert observed(simulate(config, table, workers, collect_trace=True, also=also)) == expected[:4]
    if config.mode != "random":
        assert caps_along(expected[0], config, table) == expected[4]
    for i in expected[3]:
        assert reference(also[i], *data, workers)[:3] == expected[:3]


class TestReferenceSimulator:
    @settings(max_examples=150, deadline=None)
    @given(setup=setups())
    def test_simulate_matches_the_reference(self, setup):
        matches_the_reference(setup)

    @settings(max_examples=60, deadline=None)
    @given(setup=setups(grows=True))
    def test_growth_with_the_pair_below_the_cap_matches_the_reference(self, setup):
        matches_the_reference(setup)
