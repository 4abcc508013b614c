"""Promotion scheduling: asynchronous successive halving, its progressive-cap
variant, and the non-adaptive baselines, behind one get_job/report interface.

The scheduler is a sequential state machine. Callers (normally the simulator)
must serialize get_job and report; given one seed and one total order of
report calls the issued job sequence is deterministic.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .core import (
    ConfigId,
    DataError,
    InternalError,
    ResourceSpec,
    RungEntry,
    RungLadder,
    TunesimError,
    UsageError,
    grow,
    rung_levels,
)
from .ranking import RankingCriterion, _PairCheck, is_stable

MODES = ("pasha", "asha", "one-epoch", "no-increase", "random")

DEFAULT_CRITERION = RankingCriterion("soft", epsilon=0.025)

# per-mode option -> (the one mode that takes it, the default every other mode keeps)
MODE_OPTIONS = {"pair_below_cap": ("pasha", False), "random_draws": ("random", None)}


@dataclass(frozen=True, kw_only=True)
class _Mode:
    """A scheduling mode and its options, checked here for SchedulerConfig and
    experiment.MethodSpec alike. An option (MODE_OPTIONS, or the criterion)
    set away from its default outside its own mode is refused: the scheduler
    reads each only in its own mode, so elsewhere it would be ignored."""

    mode: str = "pasha"
    criterion: RankingCriterion | None = None  # progressive mode only
    pair_below_cap: bool = False  # compare rungs (K-1, K-2) instead of (K, K-1)
    random_draws: int | None = None  # candidate pool size for the random baseline

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise UsageError(f"unknown mode {self.mode!r}; expected one of " + ", ".join(MODES))
        if self.random_draws is not None and self.random_draws < 1:
            raise UsageError(f"random_draws must be >= 1, got {self.random_draws}")
        for name, (mode, default) in MODE_OPTIONS.items():
            if self.mode != mode and getattr(self, name) != default:
                raise UsageError(f"{name} applies only to mode {mode!r}, not {self.mode!r}")
        if self.mode != "pasha" and self.criterion is not None:
            raise UsageError(f"criterion applies only to mode 'pasha', not {self.mode!r}")


@dataclass(frozen=True)
class SchedulerConfig(_Mode):
    """Everything one scheduling run needs besides the benchmark itself."""

    resources: ResourceSpec
    num_configs: int
    seed: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_configs < 1:
            raise UsageError(f"num_configs must be >= 1, got {self.num_configs}")


class Job(NamedTuple):
    """One unit of work: train config up to target_resource, report the metric."""

    config: ConfigId
    rung: int
    target_resource: int


class RandomSearcher:
    """Uniform draws without replacement from a fixed config universe.

    Any object with a draw() -> ConfigId method can stand in for it when a
    different search strategy is wanted.
    """

    def __init__(self, universe: Sequence[ConfigId], seed: int):
        self._ids = sorted(universe)
        random.Random(seed).shuffle(self._ids)
        self._next = 0

    def draw(self) -> ConfigId:
        if self._next >= len(self._ids):
            raise DataError(
                f"config universe exhausted after {len(self._ids)} draws"
            )
        config = self._ids[self._next]
        self._next += 1
        return config


class _Growth:
    """One config's rule for growing the cap over a ladder it may share.

    index is the config's position in the Scheduler's also list (-1 for the
    run's own config); pair is the stability pair's incremental check, once
    a full check has found the pair stable.
    """

    __slots__ = ("index", "ceiling", "criterion", "pair_below_cap", "pair")

    def __init__(self, index: int, ceiling: int, config: SchedulerConfig) -> None:
        self.index, self.ceiling = index, ceiling
        self.criterion = config.criterion or DEFAULT_CRITERION
        self.pair_below_cap = config.pair_below_cap
        self.pair: _PairCheck | None = None

    def grows(
        self, ladder: RungLadder, cap: int, top: int, rung: int, position: int,
        below: RungEntry | None,
    ) -> bool:
        """Whether the report just placed at position of rung grows the cap.

        The stability pair is the top ladder level and the one beneath it
        (with pair_below_cap, the pair one level down). It is re-evaluated
        only when a report lands in the pair's upper rung. A report into the
        lower rung adds a config that the upper rung does not hold, so the
        projection, and with it the verdict, stays what it was before the
        report. The pair's first check is is_stable's full one; once that
        finds the pair stable, a ranking._PairCheck keeps the pair's
        projection, and each later report into the upper rung re-checks only
        what its result moved. below is the reported config's entry in the
        rung beneath, the one it was promoted from.
        """
        if cap >= self.ceiling:
            return False
        if rung != (top - 1 if self.pair_below_cap else top):
            return False
        if self.pair is None:
            top_rung, below_rung = ladder.sorted_rung(rung), ladder.sorted_rung(rung - 1)
            stable = is_stable(self.criterion, top_rung, below_rung)
            if stable:
                self.pair = _PairCheck(self.criterion, top_rung, below_rung)
        else:
            stable = self.pair.add(position, below)
        return not stable


class Scheduler:
    """Decision engine behind get_job and report.

    Every mode is a starting cap and a ceiling: jobs target levels up to the
    cap, and only pasha starts below its ceiling, growing toward it when the
    top rungs rank configs differently.

    The configs in also share this run's jobs for as long as they make the
    same growth decisions: they must equal config in resources,
    num_configs, seed and starting cap (so pasha and no-increase group).
    members lists those that have agreed so far; for each of them this run
    issues exactly the jobs a Scheduler of its own would.
    """

    def __init__(
        self,
        config: SchedulerConfig,
        universe: Sequence[ConfigId],
        searcher=None,
        also: Sequence[SchedulerConfig] = (),
    ):
        spec = config.resources
        r, top = spec.min_resource, spec.max_resource
        start = spec.reduction_factor**2 * r
        # mode -> (starting cap, ceiling); the random baseline has no row
        rows = {"pasha": (start, top), "asha": (top, top), "one-epoch": (r, r),
                "no-increase": (start, start)}
        if config.mode not in rows:
            raise UsageError(
                "the random baseline draws once and runs no jobs; "
                "run it with simulate instead of a Scheduler"
            )
        self.config = config
        self.spec = spec
        self.levels = rung_levels(spec)
        self.ladder = RungLadder(self.levels)
        self.searcher = searcher if searcher is not None else RandomSearcher(universe, config.seed)
        self.cap, self.ceiling = rows[config.mode]
        self._own = _Growth(-1, self.ceiling, config)
        self.criterion = self._own.criterion
        shared = (spec, config.num_configs, config.seed, self.cap)
        for index, other in enumerate(also):
            if (other.resources, other.num_configs, other.seed,
                    rows.get(other.mode, (None,))[0]) != shared:
                raise UsageError(
                    f"grouped config {index} ({other.mode!r}) differs from the run's "
                    "resources, num_configs, seed or starting cap"
                )
        # the configs of also that have made every growth decision this run made
        self.members = [_Growth(i, rows[c.mode][1], c) for i, c in enumerate(also)]
        self._eta = spec.reduction_factor
        # highest ladder index jobs may currently target: the top level not above the cap
        self.top_index = bisect_right(self.levels, self.cap) - 1
        self.drawn = 0
        self._completions = 0
        # (config, rung) of each running job -> the entry it was promoted from, if any
        self._in_flight: dict[tuple[ConfigId, int], RungEntry | None] = {}

    def get_job(self) -> Job | None:
        """Next job: an eager promotion if one exists, else a fresh draw.

        Returns None when all configs are drawn and nothing is promotable
        right now; the worker should idle until the next completion.
        """
        k = self.ladder.promotion(self.top_index, self._eta)
        if k is not None:
            entry = self.ladder.promote(k)
            config, rung = entry.config, k + 1
        elif self.drawn < self.config.num_configs:
            config, rung, entry = self.searcher.draw(), 0, None
            self.drawn += 1
        else:
            return None
        self._in_flight[(config, rung)] = entry
        # tuple.__new__ skips the named tuple's Python-level argument binding
        return tuple.__new__(Job, (config, rung, self.levels[rung]))

    def report(self, job: Job, metric: float) -> None:
        """Record a completed job; in progressive mode, maybe raise the cap.

        Whether the cap grows is _Growth.grows, asked of the run's own config
        and of every member still grouped with it. A member whose verdict
        differs from the run's, or whose check raises, leaves the group. When
        the cap grows, every member still grouped grew with it, so all drop
        their pair state together. At most one growth step per report.
        """
        config, rung, _ = job
        try:
            below = self._in_flight.pop((config, rung))
        except KeyError:
            raise InternalError(
                f"report for a job that is not in flight: config {config} rung {rung}"
            ) from None
        entry = RungEntry(config, metric, self._completions)
        self._completions += 1
        position = self.ladder.insert(rung, entry)
        if self.cap >= self.ceiling and not self.members:
            return  # a fixed or clamped cap: plain successive halving
        state = (self.ladder, self.cap, self.top_index, rung, position, below)
        grows = self._own.grows(*state)
        if self.members:
            kept = []
            for member in self.members:
                try:
                    if member.grows(*state) == grows:
                        kept.append(member)
                except TunesimError:
                    pass  # the member's own run raises this; it leaves the group
            self.members = kept
        if grows:
            self.cap = grow(self.cap, self.spec)
            self.top_index = bisect_right(self.levels, self.cap) - 1
            self._own.pair = None
            for member in self.members:
                member.pair = None

    def should_stop(self) -> bool:
        """True once every config is drawn, nothing runs, nothing is promotable."""
        return (
            self.drawn >= self.config.num_configs
            and not self._in_flight
            and self.ladder.promotion(self.top_index, self._eta) is None
        )

    def best_config(self) -> tuple[ConfigId, float, int]:
        """Best entry of the highest nonempty rung, with that rung's resource."""
        k = self.ladder.highest_nonempty()
        if k is None:
            raise InternalError("best_config on an empty ladder")
        best = self.ladder.sorted_rung(k)[0]
        return best.config, best.metric, self.levels[k]

