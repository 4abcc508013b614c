"""Rank-stability criteria over a pair of rank-ordered rungs.

A stability check compares the entries of a top rung against the entries of
the rung below it, both in the ladder's rank order: best metric first,
earlier completion first among ties. The below rung is first projected onto
the configs present in the top rung (promotion guarantees they exist below),
because positional comparison is only well defined over a common config set.

Every criterion is a score held against a bound (_Kind). is_stable is the
full check; the scheduler keeps each pair's check with a _PairCheck instead,
which re-scores only what a new top-rung result moved.
"""

from __future__ import annotations

import math
import statistics
import string
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, fields
from typing import Callable, Sequence

from .core import (
    ConfigId, DataError, InternalError, RungEntry, UsageError, _left_sum, _moments, _rank_key, _std,
)


def project(below: Sequence[RungEntry], top: Sequence[RungEntry]) -> list[RungEntry]:
    """Below's entries for top's configs, in below's order; errors if any are missing."""
    top_configs = {e.config for e in top}
    projected = [e for e in below if e.config in top_configs]
    if len(projected) != len(top_configs):
        missing = sorted(top_configs - {e.config for e in projected})
        raise InternalError(
            f"configs {missing} present in the top rung but missing below; "
            "the rung ladder is corrupt"
        )
    return projected


def _deviations(
    top: Sequence[RungEntry], projected: Sequence[RungEntry],
    below_metric: dict[ConfigId, float], lo: int, hi: int,
) -> list[float]:
    """|deviation| at positions lo..hi: below's metric of top config i against
    the metric of below's projected rank i. Top config i is in the soft
    position i of the projected below list (every config within epsilon of
    rank i's metric) iff its deviation is at most epsilon, so the soft test is
    max(deviations) <= epsilon, in O(n) without building the positions."""
    return [abs(projected[i].metric - below_metric[top[i].config]) for i in range(lo, hi + 1)]


def epsilon_sigma(metrics: Sequence[float], multiplier: int) -> float:
    """multiplier times the population standard deviation of finite metrics.

    Fewer than two metrics carry no spread information, so the result is 0.
    """
    return multiplier * _std(*_moments(metrics), 0)


def _gaps(metrics: Sequence[float]) -> list[float]:
    return [metrics[i] - metrics[i + 1] for i in range(len(metrics) - 1)]


def epsilon_mean_distance(metrics: Sequence[float]) -> float:
    """Mean gap between consecutive metrics sorted descending; 0 under two metrics."""
    gaps = _gaps(metrics)
    return statistics.fmean(gaps) if gaps else 0.0


def epsilon_median_distance(metrics: Sequence[float]) -> float:
    """Median gap between consecutive metrics sorted descending; 0 under two metrics."""
    gaps = _gaps(metrics)
    return float(statistics.median(gaps)) if gaps else 0.0


def _check_p(p: float) -> None:
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")


def rbo(
    top_order: Sequence[ConfigId], below_order: Sequence[ConfigId], p: float
) -> float:
    """Rank-biased overlap between two finite rankings of the same config set.

    Agreement at depth d is |prefix_d(top) & prefix_d(below)| / d. For p < 1
    the depth weights (1-p) * p^(d-1) are renormalized to the finite length n
    by 1 - p^n; at p = 1 those weights vanish, so the average overlap over
    all depths is returned instead.
    """
    _check_p(p)
    n = len(top_order)
    if n == 0:
        raise ValueError("rbo needs at least one config")
    if set(top_order) != set(below_order) or len(set(top_order)) != n:
        raise ValueError("rbo requires two orderings of the same config set")
    seen_top: set[ConfigId] = set()
    seen_below: set[ConfigId] = set()
    overlap = 0
    agreements = []
    for d in range(1, n + 1):
        a, b = top_order[d - 1], below_order[d - 1]
        if a == b:
            overlap += 1
        else:
            if a in seen_below:
                overlap += 1
            if b in seen_top:
                overlap += 1
        seen_top.add(a)
        seen_below.add(b)
        agreements.append(overlap / d)
    if p == 1.0:
        return _left_sum(agreements) / n
    norm = 1.0 - p**n
    return _left_sum((1.0 - p) * p ** (d - 1) / norm * agreements[d - 1] for d in range(1, n + 1))


def _regret_weights(n: int, p: float) -> list[float]:
    total = _left_sum(p**j for j in range(n))
    return [p**i / total for i in range(n)]


def _regret(
    top: Sequence[RungEntry], below_order: Sequence[ConfigId], p: float, absolute: bool
) -> float:
    _check_p(p)
    n = len(top)
    if n == 0:
        raise ValueError("regret needs at least one config")
    metric_of = {e.config: e.metric for e in top}
    if set(below_order) != set(metric_of) or len(set(below_order)) != n:
        raise ValueError("below_order must be a permutation of the top rung's configs")
    f = [e.metric for e in top]
    if any(v <= 0 for v in f):
        raise ValueError("relative regret is undefined for metrics <= 0")
    f_prime = [metric_of[c] for c in below_order]
    weights = _regret_weights(n, p)
    score = 0.0
    for i in range(n):
        term = f[i] - f_prime[i]
        if absolute:
            term = abs(term)
        score += term / f[i] * weights[i]
    return score


def rrr(top: Sequence[RungEntry], below_order: Sequence[ConfigId], p: float) -> float:
    """Weighted relative metric loss of trusting the below-rung order at the top rung.

    Position i contributes (f_i - f'_i) / f_i with weight p^i / sum_j p^j,
    where f is the top rung's metrics in top order and f'_i is the top-rung
    metric of the config ranked i below. Terms can be negative, so the sum
    is signed; 0 means perfect agreement.
    """
    return _regret(top, below_order, p, absolute=False)


def arrr(top: Sequence[RungEntry], below_order: Sequence[ConfigId], p: float) -> float:
    """Like rrr but with |f_i - f'_i| in the numerator, so never negative."""
    return _regret(top, below_order, p, absolute=True)


# Parameter syntaxes: (kind, text after the colon) -> RankingCriterion fields.


def _no_parameters(head: str, rest: str) -> dict:
    if rest:
        raise UsageError(f"{head} takes no parameters, got {rest!r}")
    return {}


def _one_parameter(field: str, convert: Callable[[str], object], needs: str):
    """Syntax kind:VALUE setting one field; needs names it in the error."""

    def parse(head: str, rest: str) -> dict:
        if not rest:
            raise UsageError(f"{head} needs {needs}")
        return {field: convert(rest)}

    return parse


def _p_and_t(head: str, rest: str) -> dict:
    """Syntax kind[:p=P][,t=T]; a missing key keeps its default, a repeated one is refused."""
    fields = {}
    for item in rest.split(",") if rest else ():
        key, _, value = item.partition("=")
        if key not in ("p", "t"):
            raise UsageError(f"unknown {head} parameter {key!r}; use p= and t=")
        field = "p" if key == "p" else "threshold"
        if field in fields:
            raise UsageError(f"{head} parameter {key!r} given twice")
        fields[field] = float(value)
    return fields


def _metrics(entries: Sequence[RungEntry]) -> list[float]:
    return [e.metric for e in entries]


def _rbo_score(c: RankingCriterion, top: Sequence[RungEntry], below: list[RungEntry]) -> float:
    """rbo negated, held against the negated threshold: negation is exact."""
    return -rbo([e.config for e in top], [e.config for e in below], c.p)


def _refusing(c: RankingCriterion, compute: Callable[..., float], *args) -> float:
    """compute(*args); a ValueError or OverflowError is a DataError naming c."""
    try:
        return compute(*args)
    except (ValueError, OverflowError) as exc:
        raise DataError(f"ranking criterion {c.spelling()!r}: {exc}") from exc


def _regret_score(absolute: bool):
    """The rrr (or, if absolute, arrr) score; a metric <= 0 is a DataError naming c."""
    return lambda c, top, below: (
        _refusing(c, _regret, top, [e.config for e in below], c.p, absolute)
    )


class _SigmaEpsilon:
    """epsilon_sigma of a projection's metrics, kept as add(metric) counts each
    one that arrives: core._std of exact integer sums, which a metric with a
    larger denominator rescales."""

    def __init__(self, c: RankingCriterion, projected: list[RungEntry]) -> None:
        self.multiplier = c.multiplier
        self.n = self.total = self.squares = 0
        self.scale = 1
        for e in projected:
            self.add(e.metric)

    def add(self, metric: float) -> None:
        num, den = metric.as_integer_ratio()
        if den > self.scale:
            factor = den // self.scale
            self.total *= factor
            self.squares *= factor * factor
            self.scale = den
        x = num * (self.scale // den)
        self.n += 1
        self.total += x
        self.squares += x * x

    def value(self) -> float:
        low = 1 - self.scale.bit_length()  # the scale is 2**-low
        return self.multiplier * _std(self.n, self.total, self.squares, low, 0)


@dataclass(frozen=True)
class _Kind:
    """One criterion kind: how it is spelled, its default threshold, and the
    score and bound of its test: the pair is stable iff score <= bound.

    bound(criterion, projected) sees the below rung projected onto the top
    rung's configs; a soft kind sets its epsilon there. A soft kind has no
    score: its score is the largest deviation (see _deviations), which the
    pair keeps; kept(criterion, projected), if set, keeps its bound as the
    projection grows. score(criterion, top, projected) sees a top rung of
    two or more entries.
    """

    parse: Callable[[str, str], dict]
    spelling: str  # canonical form, formatted by _SPELLING with c=the criterion
    threshold: float = 0.5
    bound: Callable[[RankingCriterion, list[RungEntry]], float] = lambda c, below: c.threshold
    score: Callable[[RankingCriterion, Sequence[RungEntry], list[RungEntry]], float] | None = None
    kept: Callable[[RankingCriterion, list[RungEntry]], _SigmaEpsilon] | None = None


class _Spelling(string.Formatter):
    """Spells a float field as its shortest round-trip decimal less a trailing
    .0, so that parse reads back the very float: soft:0.025, rbo:p=1,t=0.5."""

    def format_field(self, value: object, format_spec: str) -> str:
        return repr(value).removesuffix(".0") if isinstance(value, float) else str(value)


_SPELLING = _Spelling()
_BARE = "{c.kind}"
_P_T = "{c.kind}:p={c.p},t={c.threshold}"

_KINDS = {
    "direct": _Kind(_no_parameters, _BARE, bound=lambda c, below: 0.0),
    "soft": _Kind(
        _one_parameter("epsilon", float, "an epsilon, e.g. soft:0.025"),
        "{c.kind}:{c.epsilon}",
        bound=lambda c, below: c.epsilon,
    ),
    "soft-sigma": _Kind(
        _one_parameter("multiplier", int, "a multiplier, e.g. soft-sigma:2"),
        "{c.kind}:{c.multiplier}",
        kept=_SigmaEpsilon,  # epsilon_sigma of the projection's metrics
    ),
    "soft-mean-dist": _Kind(
        _no_parameters, _BARE,
        bound=lambda c, below: _refusing(c, epsilon_mean_distance, _metrics(below)),
    ),
    "soft-median-dist": _Kind(
        _no_parameters, _BARE, bound=lambda c, below: epsilon_median_distance(_metrics(below))
    ),
    "rbo": _Kind(_p_and_t, _P_T, bound=lambda c, below: -c.threshold, score=_rbo_score),
    "rrr": _Kind(_p_and_t, _P_T, 0.05, score=_regret_score(absolute=False)),
    "arrr": _Kind(_p_and_t, _P_T, 0.05, score=_regret_score(absolute=True)),
    "always-unstable": _Kind(_no_parameters, _BARE, score=lambda c, top, below: math.inf),
}

CRITERION_KINDS = tuple(_KINDS)


def _unknown_kind(name: str) -> UsageError:
    return UsageError(
        f"unknown ranking criterion {name!r}; expected one of " + ", ".join(CRITERION_KINDS)
    )


@dataclass(frozen=True)
class RankingCriterion:
    """A rank-stability rule plus its parameters.

    kind is one of CRITERION_KINDS. epsilon applies to "soft", multiplier to
    "soft-sigma", p and threshold to "rbo", "rrr" and "arrr"; a field set
    away from its default under a kind that does not read it, or a bool, is
    refused. An unset threshold takes the kind's default: 0.05 for "rrr"
    and "arrr", 0.5 otherwise. "always-unstable" forces growth at every
    non-degenerate check and exists for diagnostics and equivalence testing.
    """

    kind: str
    epsilon: float = 0.0
    multiplier: int = 1
    p: float = 1.0
    threshold: float | None = None

    def __post_init__(self) -> None:
        kind = _KINDS.get(self.kind)
        if kind is None:
            raise _unknown_kind(self.kind)
        if self.threshold is None:
            object.__setattr__(self, "threshold", kind.threshold)
        # the canonical spelling shows every field the kind reads
        shown = {name for _, name, _, _ in _SPELLING.parse(kind.spelling)}
        for f in fields(self)[1:]:
            default = kind.threshold if f.name == "threshold" else f.default
            if f"c.{f.name}" not in shown and getattr(self, f.name) != default:
                raise UsageError(f"ranking criterion {self.kind!r} takes no {f.name}")
        if isinstance(self.epsilon, bool) or not math.isfinite(self.epsilon) or self.epsilon < 0:
            raise UsageError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if type(self.multiplier) is not int or self.multiplier not in (1, 2, 3):
            raise UsageError(
                f"sigma multiplier must be 1, 2 or 3, got {self.multiplier}"
            )
        if isinstance(self.p, bool) or not 0.0 < self.p <= 1.0:
            raise UsageError(f"p must be in (0, 1], got {self.p}")
        if isinstance(self.threshold, bool) or not 0.0 <= self.threshold <= 1.0:
            raise UsageError(f"threshold must be in [0, 1], got {self.threshold}")

    @classmethod
    def parse(cls, text: str) -> "RankingCriterion":
        """Parse a spelling like soft:0.025, soft-sigma:2, rbo:p=0.5,t=0.5."""
        head, _, rest = text.strip().partition(":")
        kind = _KINDS.get(head)
        if kind is None:
            raise _unknown_kind(text)
        try:
            return cls(head, **kind.parse(head, rest))
        except (ValueError, TypeError) as exc:
            raise UsageError(f"bad criterion spelling {text!r}: {exc}") from exc

    def spelling(self) -> str:
        """Canonical text form, the inverse of parse."""
        return _SPELLING.format(_KINDS[self.kind].spelling, c=self)

    def __str__(self) -> str:
        return self.spelling()


def is_stable(
    criterion: RankingCriterion, top: Sequence[RungEntry], below: Sequence[RungEntry]
) -> bool:
    """Whether the criterion's score on the (top rung, below rung) pair is at most its bound.

    Both rungs are in the ladder's rank order. The below rung is projected
    onto the top rung's configs first; adaptive epsilon statistics are
    computed on that projection. A top rung with fewer than two configs
    carries no ordering evidence, so every criterion reports stable for it.
    A regret criterion on a metric <= 0, or soft-mean-dist on metric gaps
    whose sum overflows a float, raises a DataError naming it.
    """
    return _PairCheck(criterion, top, below).stable()


class _PairCheck:
    """Pasha's stability verdict on one (top rung, below rung) pair, kept up to
    date as results reach the top rung. stable() holds the pair's score
    against its bound; it is the one stability comparison.

    The scheduler builds it from the ladder's own rank-ordered lists once
    is_stable has found the pair stable in full; that first check must be a
    full one, as the top rung may hold configs that no check has compared
    (after a growth with pair_below_cap it does). The below rung is
    projected once; after that, add() places each new top config's below
    entry in the projection with one bisect on rank keys.

    A config inserted at top position p and projection position q changes
    only the compared pairs at positions min(p, q)..max(p, q); every other
    position compares the same two entries as before. So a soft kind keeps
    every position's deviation in an ordered list, replaces that window's,
    and scores the largest. rbo, rrr and arrr weight positions by depth,
    which every insertion shifts, so they rescore the projection in full.
    """

    def __init__(
        self, criterion: RankingCriterion, top: Sequence[RungEntry], below: Sequence[RungEntry]
    ) -> None:
        kind = _KINDS[criterion.kind]
        self._criterion, self._kind, self._top = criterion, kind, top
        projected = self._projected = project(below, top)
        self._keys = [_rank_key(e) for e in projected]
        self._below_metric = {e.config: e.metric for e in projected}
        if kind.score is None:
            self._kept = kind.kept and kind.kept(criterion, projected)
            self._deviations = _deviations(top, projected, self._below_metric, 0, len(top) - 1)
            self._ordered = sorted(self._deviations)

    def stable(self) -> bool:
        """score <= bound; true under two top entries, which carry no ordering."""
        if len(self._top) <= 1:
            return True
        c, kind, projected = self._criterion, self._kind, self._projected
        score = self._ordered[-1] if kind.score is None else kind.score(c, self._top, projected)
        return score <= (kind.bound(c, projected) if kind.kept is None else self._kept.value())

    def add(self, p: int, below_entry: RungEntry) -> bool:
        """The verdict after the ladder placed a new entry at position p of the
        top rung; below_entry is that config's entry in the below rung."""
        key = _rank_key(below_entry)
        q = bisect_right(self._keys, key)
        self._keys.insert(q, key)
        self._projected.insert(q, below_entry)
        self._below_metric[below_entry.config] = below_entry.metric
        top = self._top
        if len(self._projected) != len(top):
            raise InternalError(
                f"the stability pair projects {len(self._projected)} entries for "
                f"{len(top)} in its top rung; a top-rung result went unchecked"
            )
        if self._kind.score is None:
            lo, hi = (p, q) if p < q else (q, p)
            window = _deviations(top, self._projected, self._below_metric, lo, hi)
            ordered = self._ordered
            for d in self._deviations[lo:hi]:  # the old window, one position shorter
                del ordered[bisect_left(ordered, d)]
            self._deviations[lo:hi] = window
            for d in window:
                insort(ordered, d)
            if self._kept is not None:
                self._kept.add(below_entry.metric)
        return self.stable()
