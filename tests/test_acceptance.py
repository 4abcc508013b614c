"""Acceptance gate: one test per engine guarantee, each with a time budget.

Every test prints a single PASS line with its measured values (visible under
pytest -s) and enforces its runtime budget, so this module doubles as a
summary of what the engine promises:

  1. rung arithmetic            cap growth and clamping formulas, exhaustively
  2. ranking oracles            rbo/rrr/arrr vs brute-force sums, all n <= 5
  3. soft-ranking semantics     property tests on 10,000 random instances
  4. asha equivalence           forced growth reproduces asha traces exactly
  5. early stopping             progressive runs stop early, same winner
  6. noise robustness           soft ranking absorbs observation noise
  7. baseline ordering          random <= one-epoch <= progressive
  8. simulator accounting       exact cost sums, bit-exact replay
  9. eta sweep                  early stopping holds for eta in {2, 4}
"""

from __future__ import annotations

import itertools
import math
import random
import statistics
import time

from tunesim import (
    CurveModel,
    RankingCriterion,
    ResourceSpec,
    SchedulerConfig,
    generate,
    read_trace,
    replay_trace,
    simulate,
    write_trace,
)
from tunesim.core import grow, initial_pasha_state, max_rung_index
from tunesim.ranking import arrr, is_stable, rbo, rrr
from util import ranked, soft_rank

SEEDS = range(20)
NOISY_MODEL = CurveModel(
    head_count=44,
    head_gap=0.06,
    head_jitter=0.01,
    top_metric=3.5,
    damp_lo=0.18,
    damp_hi=0.35,
    noise_std=0.01,
    hard=True,
)


def finish(name, budget_s, started, detail):
    elapsed = time.perf_counter() - started
    assert elapsed < budget_s, f"{name} took {elapsed:.1f}s, budget {budget_s}s"
    print(f"PASS {name}: {detail} [{elapsed:.2f}s < {budget_s}s]")


def run_one(mode, table, eta, seed, criterion=None, cap=81, n=256, workers=4):
    config = SchedulerConfig(
        resources=ResourceSpec(1, eta, cap),
        num_configs=n,
        mode=mode,
        criterion=criterion,
        seed=seed,
    )
    return simulate(config, table, workers=workers, collect_trace=True)


def early_stopping_margins(eta):
    """Per seed: same chosen config, stopped below the cap, strictly faster."""
    direct = RankingCriterion("direct")
    match = below = faster = 0
    for seed in SEEDS:
        table = generate(256, 81, CurveModel(), seed)
        asha = run_one("asha", table, eta, seed)
        pasha = run_one("pasha", table, eta, seed, criterion=direct)
        match += asha.chosen == pasha.chosen
        below += pasha.max_resources < 81
        faster += pasha.wall_clock < asha.wall_clock
    return match, below, faster


def test_rung_arithmetic():
    started = time.perf_counter()
    checked = 0
    for r in range(1, 6):
        for eta in (2, 3, 4):
            # uncapped: after t growth steps the cap is eta^(t+2) * r and the
            # top rung index is t + 2
            roomy = ResourceSpec(r, eta, r * eta**12)
            state = initial_pasha_state(roomy)
            for t in range(0, 7):
                assert state.t == t
                assert state.resource_cap == eta ** (t + 2) * r
                assert state.top_rung == t + 2
                state = grow(state, roomy)
                checked += 1
            # clamped: growth stops exactly at the safety net, whose top rung
            # is the largest k with r * eta^k <= R
            for cap_power in (3, 4, 5):
                for slack in (0, 1):
                    cap = r * eta**cap_power + slack * (eta - 1)
                    spec = ResourceSpec(r, eta, cap)
                    state = initial_pasha_state(spec)
                    for _ in range(20):
                        state = grow(state, spec)
                    oracle_k = 0
                    while r * eta ** (oracle_k + 1) <= cap:
                        oracle_k += 1
                    assert state.resource_cap == cap
                    assert state.top_rung == oracle_k == max_rung_index(spec)
                    assert grow(state, spec) is state
                    checked += 1
    finish("rung arithmetic", 1.0, started, f"{checked} (r, eta, t) cells")


def rbo_oracle(top, below, p):
    n = len(top)
    agreements = [
        len(set(top[:d]) & set(below[:d])) / d for d in range(1, n + 1)
    ]
    if p == 1.0:
        return sum(agreements) / n
    weights = [(1 - p) * p ** (d - 1) / (1 - p**n) for d in range(1, n + 1)]
    return sum(w * a for w, a in zip(weights, agreements))


def regret_oracle(metric_of, top_order, below_order, p, absolute):
    f = [metric_of[c] for c in top_order]
    shadow = [metric_of[c] for c in below_order]
    total = sum(p**j for j in range(len(f)))
    score = 0.0
    for i in range(len(f)):
        term = f[i] - shadow[i]
        if absolute:
            term = abs(term)
        score += term / f[i] * (p**i / total)
    return score


def test_ranking_oracles():
    started = time.perf_counter()
    checked = 0
    for n in range(1, 6):
        top_order = list(range(n))
        metric_of = {c: 1.0 - 0.07 * c for c in top_order}
        top = ranked(*((c, metric_of[c]) for c in top_order))
        for below in itertools.permutations(top_order):
            for p in (0.25, 0.5, 0.9, 1.0):
                below = list(below)
                assert abs(rbo(top_order, below, p) - rbo_oracle(top_order, below, p)) < 1e-12
                assert abs(
                    rrr(top, below, p) - regret_oracle(metric_of, top_order, below, p, False)
                ) < 1e-12
                assert abs(
                    arrr(top, below, p) - regret_oracle(metric_of, top_order, below, p, True)
                ) < 1e-12
                checked += 3
    # the two-element reversal pins both formulas to closed-form values
    assert rbo([0, 1], [1, 0], 1.0) == 0.5
    assert abs(rbo([0, 1], [1, 0], 0.5) - 1.0 / 3.0) < 1e-12
    finish("ranking oracles", 10.0, started, f"{checked} oracle comparisons")


def test_soft_ranking_semantics():
    started = time.perf_counter()
    rng = random.Random(20260816)
    instances = 10_000
    for _ in range(instances):
        n = rng.randint(2, 7)
        k = rng.randint(1, n)
        # distinct metrics, then a random subset as the rung above
        metrics = rng.sample(range(1000, 9999), n)
        below = ranked(*sorted(((c, m / 1000.0) for c, m in enumerate(metrics)),
                               key=lambda cm: -cm[1]))
        members = rng.sample([e.config for e in below], k)
        top_metrics = {
            e.config: e.metric + rng.uniform(-0.5, 0.5) for e in below if e.config in members
        }
        top = ranked(*sorted(top_metrics.items(), key=lambda cm: -cm[1]))

        eps_small = rng.uniform(0.0, 2.0)
        eps_big = eps_small + rng.uniform(0.0, 2.0)
        if is_stable(RankingCriterion("soft", epsilon=eps_small), top, below):
            assert is_stable(RankingCriterion("soft", epsilon=eps_big), top, below)
        assert is_stable(RankingCriterion("soft", epsilon=0.0), top, below) == is_stable(
            RankingCriterion("direct"), top, below
        )

        soft = soft_rank(below, eps_small)
        order = [e.config for e in below]
        assert all(order[i] in soft.positions[i] for i in range(n))
    finish("soft-ranking semantics", 10.0, started, f"{instances} random instances")


def test_asha_equivalence():
    started = time.perf_counter()
    always = RankingCriterion("always-unstable")
    diffs = 0
    for seed in SEEDS:
        table = generate(64, 81, CurveModel(), seed)
        asha = run_one("asha", table, 3, seed, n=64)
        forced = run_one("pasha", table, 3, seed, criterion=always, n=64)
        if asha.trace != forced.trace:
            diffs += 1
    assert diffs == 0
    finish("asha equivalence", 30.0, started, f"{diffs} trace diffs over 20 seeds")


def test_early_stopping_correctness():
    started = time.perf_counter()
    match, below, faster = early_stopping_margins(eta=3)
    assert match == 20
    assert below >= 19
    assert faster == 20
    finish(
        "early stopping", 120.0, started,
        f"chosen match {match}/20, stopped below cap {below}/20, faster {faster}/20",
    )


def test_noise_robustness():
    started = time.perf_counter()
    soft = RankingCriterion("soft", epsilon=0.025)
    direct = RankingCriterion("direct")
    match = fewer = 0
    direct_caps = []
    for seed in SEEDS:
        table = generate(256, 81, NOISY_MODEL, seed)
        asha = run_one("asha", table, 3, seed)
        progressive = run_one("pasha", table, 3, seed, criterion=soft)
        match += asha.chosen == progressive.chosen
        fewer += progressive.units_consumed < asha.units_consumed
        direct_caps.append(run_one("pasha", table, 3, seed, criterion=direct).max_resources)
    assert match >= 18, f"soft ranking matched asha in only {match}/20 seeds"
    assert fewer == 20, f"soft ranking used fewer units in only {fewer}/20 seeds"
    finish(
        "noise robustness", 120.0, started,
        f"soft match {match}/20, fewer units {fewer}/20, "
        f"direct caps {sorted(set(direct_caps))}",
    )


def test_baseline_ordering():
    started = time.perf_counter()
    soft = RankingCriterion("soft", epsilon=0.025)
    chosen = {"random": [], "one-epoch": [], "pasha": []}
    for seed in SEEDS:
        table = generate(256, 81, NOISY_MODEL, seed)
        chosen["random"].append(run_one("random", table, 3, seed).chosen_metric_full)
        chosen["one-epoch"].append(run_one("one-epoch", table, 3, seed).chosen_metric_full)
        chosen["pasha"].append(
            run_one("pasha", table, 3, seed, criterion=soft).chosen_metric_full
        )
    mean = {k: statistics.fmean(v) for k, v in chosen.items()}
    std = {k: statistics.stdev(v) for k, v in chosen.items()}
    assert mean["random"] <= mean["one-epoch"] + std["one-epoch"]
    assert mean["one-epoch"] <= mean["pasha"] + std["pasha"]
    finish(
        "baseline ordering", 60.0, started,
        "mean chosen metric random {random:.3f} <= one-epoch {one-epoch:.3f} "
        "<= progressive {pasha:.3f} (one-std slack)".format(**mean),
    )


def test_simulator_accounting(tmp_path):
    started = time.perf_counter()
    table = generate(64, 27, CurveModel(cost_spread=0.3), seed=13)

    serial = run_one("asha", table, 3, 13, cap=27, n=64, workers=1)
    acc = 0.0
    done: dict[int, int] = {}
    for ev in serial.trace:
        if ev.kind == "assign":
            acc = acc + table.incremental_cost(ev.config, done.get(ev.config, 0), ev.resource)
            done[ev.config] = ev.resource
    assert serial.wall_clock == acc, "serial wall clock must equal the exact cost sum"

    soft = RankingCriterion("soft", epsilon=0.025)
    first = run_one("pasha", table, 3, 13, criterion=soft, cap=27, n=64)
    replayed = replay_trace(first.trace, SchedulerConfig(
        resources=ResourceSpec(1, 3, 27), num_configs=64, mode="pasha",
        criterion=soft, seed=13,
    ), table)
    assert replayed.ladder == first.ladder, "replay must rebuild the ladder bit-exactly"

    second = run_one("pasha", table, 3, 13, criterion=soft, cap=27, n=64)
    path_a, path_b = str(tmp_path / "a.trace"), str(tmp_path / "b.trace")
    write_trace(first.trace, path_a)
    write_trace(second.trace, path_b)
    bytes_a = open(path_a, "rb").read()
    assert bytes_a == open(path_b, "rb").read(), "same-seed reruns must be byte-identical"
    assert read_trace(path_a) == first.trace
    assert first == second
    finish(
        "simulator accounting", 10.0, started,
        f"wall {serial.wall_clock:.3f}s == cost sum, replay exact, "
        f"{len(bytes_a)} trace bytes identical",
    )


def test_eta_sweep():
    started = time.perf_counter()
    details = []
    for eta in (2, 4):
        match, below, faster = early_stopping_margins(eta=eta)
        assert match == 20
        assert below >= 19
        assert faster == 20
        details.append(f"eta={eta}: {match}/{below}/{faster}")
    finish("eta sweep", 240.0, started, "match/below/faster " + ", ".join(details))
