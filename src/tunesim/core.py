"""Shared domain types: resource geometry, rung ladders, progressive cap growth, exact sums."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import reduce
from heapq import heappop, heappush
from operator import add
from typing import Iterable, Sequence

import numpy as np

ConfigId = int  # dense non-negative ids, assigned in draw order starting at 0


def _left_sum(values: Iterable[float]) -> float:
    """The values added one at a time from the left, each addition rounded.

    That is the builtin sum up to Python 3.11; from 3.12 sum compensates float
    rounding, which would move simulated times and scores with the version.
    """
    return reduce(add, values, 0)


# a column is summed _CHUNK values at a time: every weight np.bincount sums
# below is an integer under 2**37, so each partial sum of a chunk is an
# integer under 2**53, which float64 holds exactly
_CHUNK = 1 << 16
_LIMB = (1 << 18) - 1


def _moments(values: np.ndarray | Sequence[float]) -> tuple[int, int, int, int]:
    """The count n and the exact sums of finite floats: integers s1, s2 and low
    with sum(x) = s1 * 2**low and sum(x*x) = s2 * 2**(2*low).

    Each value is a signed integer m below 2**53 in magnitude times 2**(e-53),
    with np.frexp's exponent e. |m| is split into three 18-bit limbs;
    np.bincount sums the signed limbs and the limb products of each exponent,
    and only those few per-exponent sums become Python ints.
    """
    mantissas, exps = np.frexp(values)
    base = int(exps.min(initial=0))  # a zero's exponent is 0 too
    bins = (exps - base).astype(np.intp)
    counts = np.bincount(bins)
    present = np.flatnonzero(counts)  # the exponents that occur, less base
    with np.errstate(invalid="raise"):  # FloatingPointError on an inf or a nan
        ints = np.ldexp(mantissas, 53).astype(np.int64)
    signs, mags = np.sign(ints), np.abs(ints)
    s1 = s2 = 0
    for lo in range(0, len(values), _CHUNK):
        chunk = slice(lo, lo + _CHUNK)
        sign, mag = signs[chunk], mags[chunk]
        l0, l1, l2 = mag & _LIMB, (mag >> 18) & _LIMB, mag >> 36
        # |m| = l0 + l1 * 2**18 + l2 * 2**36, so m = t0 + t1 * 2**36 and
        # m*m = q0 + q1 * 2**19 + q2 * 2**36 + q3 * 2**55 + q4 * 2**72
        weights = (
            sign * (l0 + (l1 << 18)), sign * l2,
            l0 * l0, l0 * l1, l1 * l1 + 2 * l0 * l2, l1 * l2, l2 * l2,
        )
        sums = np.array(
            [np.bincount(bins[chunk], w, len(counts))[present] for w in weights], dtype=np.int64
        )
        for e, (t0, t1, q0, q1, q2, q3, q4) in zip(present.tolist(), sums.T.tolist()):
            s1 += (t0 + (t1 << 36)) << e
            s2 += (q0 + (q1 << 19) + (q2 << 36) + (q3 << 55) + (q4 << 72)) << 2 * e
    return len(values), s1, s2, base - 53


def _rounded(s1: int, low: int) -> float:
    """s1 * 2**low correctly rounded to a float; OverflowError beyond float range."""
    return float(s1 << low) if low >= 0 else s1 / (1 << -low)


def _std(n: int, s1: int, s2: int, low: int, ddof: int) -> float:
    """The std over n - ddof of values with _moments n, s1, s2, low, correctly rounded
    (statistics.pstdev for ddof 0, stdev for 1, on 3.11+); 0 under two values."""
    if n < 2:
        return 0.0
    num, den = n * s2 - s1 * s1, n * (n - ddof)
    return _sqrt_of_frac(num << 2 * low, den) if low >= 0 else _sqrt_of_frac(num, den << -2 * low)


def _sqrt_of_frac(n: int, m: int) -> float:
    """sqrt(n/m) correctly rounded, as statistics.pstdev rounds it on 3.11+.

    The integer root keeps at least 55 bits (109 guard bits under the square
    root) and rounds to odd, so the one rounding to a float that follows is
    the correct one.
    """
    q = (n.bit_length() - m.bit_length() - 109) // 2
    n, m = (n, m << 2 * q) if q >= 0 else (n << -2 * q, m)
    root = math.isqrt(n // m)
    root |= root * root * m != n  # round to odd: an inexact root gets its last bit set
    return float(root << q) if q >= 0 else root / (1 << -q)


class TunesimError(Exception):
    """Base class for every error this package raises on purpose."""


class UsageError(TunesimError):
    """Bad invocation: unknown mode, malformed criterion spelling, bad flag value."""


class DataError(TunesimError):
    """Bad input data: benchmark files, infeasible generation, more draws than configs."""


class InternalError(TunesimError):
    """Broken engine invariant. Seeing this means a bug, not bad input."""


@dataclass(frozen=True)
class ResourceSpec:
    """Successive-halving resource geometry.

    min_resource is the rung-0 budget, reduction_factor the per-rung
    survival denominator (top 1/reduction_factor get promoted), and
    max_resource the hard cap that bounds progressive growth.
    """

    min_resource: int
    reduction_factor: int
    max_resource: int

    def __post_init__(self) -> None:
        if self.min_resource < 1:
            raise UsageError(f"min_resource must be >= 1, got {self.min_resource}")
        if self.reduction_factor < 2:
            raise UsageError(
                f"reduction_factor must be >= 2, got {self.reduction_factor}"
            )
        floor = self.reduction_factor**2 * self.min_resource
        if self.max_resource < floor:
            raise UsageError(
                f"max_resource must be >= reduction_factor^2 * min_resource "
                f"({floor}), got {self.max_resource}"
            )


def max_rung_index(spec: ResourceSpec) -> int:
    """Largest k whose rung resource still fits under max_resource.

    Computed by repeated integer multiplication, never by floating-point
    logarithms, so powers of the reduction factor are exact.
    """
    k = 0
    value = spec.min_resource
    while value * spec.reduction_factor <= spec.max_resource:
        value *= spec.reduction_factor
        k += 1
    return k


def rung_levels(spec: ResourceSpec) -> tuple[int, ...]:
    """Resource amount of every ladder level, bottom to top.

    Levels are the powers min_resource * reduction_factor ** k that fit
    under max_resource; when max_resource is not itself such a power it is
    appended as the final level, so the ladder always tops out exactly at
    the cap.
    """
    levels = [spec.min_resource * spec.reduction_factor**k for k in range(max_rung_index(spec) + 1)]
    if levels[-1] < spec.max_resource:
        levels.append(spec.max_resource)
    return tuple(levels)


def grow(cap: int, spec: ResourceSpec) -> int:
    """One growth step: multiply the cap by the reduction factor.

    A step that would overshoot max_resource clamps the cap to it. Once the
    cap sits at max_resource further calls return it unchanged; the
    scheduler then behaves like plain asynchronous successive halving.
    """
    return min(cap * spec.reduction_factor, spec.max_resource)


@dataclass(slots=True)
class RungEntry:
    """One completed evaluation: config, observed metric, completion index."""

    config: ConfigId
    metric: float  # larger is better, minimization metrics are negated upstream
    completion_index: int = 0  # global tie-break counter, unique per scheduler


def _rank_key(entry: RungEntry) -> tuple[float, int]:
    return (-entry.metric, entry.completion_index)


@dataclass
class RungLadder:
    """Rung table. Rung k holds entries evaluated at levels[k] resource units.

    Every rung is kept in rank order as results arrive: best metric first,
    earlier completion_index first among ties. So rungs[k] is best-first, not
    completion order. A rung's rank keys are unique: insert refuses a key the
    rung already holds. The ladder alone holds the promotion marks:
    _promoted[k] names the configs promoted from rung k, and promote() pops
    the best of the rest from _waiting[k], a heap of (rank key, entry) pairs.
    Equality compares the levels, every rung's entries and the marks; the
    key lists, the heaps and the config sets are derived.
    """

    levels: tuple[int, ...]
    rungs: list[list[RungEntry]] = field(init=False)
    _promoted: list[set[ConfigId]] = field(init=False, repr=False)
    # beside rungs[k], its rank keys: a plain list bisects at C speed, where a
    # key= function would be called at every probe
    _keys: list[list[tuple[float, int]]] = field(init=False, repr=False, compare=False)
    # keys are unique per rung, so the heap never compares two entries
    _waiting: list[list[tuple]] = field(init=False, repr=False, compare=False)
    _configs: list[set[ConfigId]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.levels = tuple(self.levels)
        if not self.levels or any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError(f"rung levels must be strictly increasing, got {self.levels}")
        self.rungs = [[] for _ in self.levels]
        self._promoted = [set() for _ in self.levels]
        self._keys = [[] for _ in self.levels]
        self._waiting = [[] for _ in self.levels]  # unpromoted entries, best at [0]
        self._configs = [set() for _ in self.levels]

    def _check_rung(self, k: int) -> None:
        if not 0 <= k < len(self.rungs):
            raise InternalError(f"rung index {k} outside ladder of {len(self.rungs)} levels")

    def insert(self, k: int, entry: RungEntry) -> int:
        """Add a result to rung k; returns its position in the rung's rank order."""
        self._check_rung(k)
        if not math.isfinite(entry.metric):
            raise InternalError(
                f"non-finite metric for config {entry.config} at rung {k}"
            )
        if entry.config in self._configs[k]:
            raise InternalError(
                f"duplicate result for config {entry.config} at rung {k}"
            )
        if k > 0 and entry.config not in self._promoted[k - 1]:
            raise InternalError(
                f"config {entry.config} reached rung {k} without a promotion below"
            )
        key = (-entry.metric, entry.completion_index)  # _rank_key, inline
        keys = self._keys[k]
        i = bisect_right(keys, key)
        if i and keys[i - 1] == key:
            raise InternalError(f"config {entry.config} reuses rank key {key} at rung {k}")
        keys.insert(i, key)
        self.rungs[k].insert(i, entry)
        self._configs[k].add(entry.config)
        heappush(self._waiting[k], (key, entry))
        return i

    def promote(self, k: int) -> RungEntry:
        """Mark the best unpromoted entry of rung k as promoted and return it."""
        self._check_rung(k)
        if not self._waiting[k]:
            raise InternalError(f"no unpromoted entry to promote at rung {k}")
        _, entry = heappop(self._waiting[k])
        self._promoted[k].add(entry.config)
        return entry

    def promotion(self, top: int, eta: int) -> int | None:
        """Highest rung k below top whose best unpromoted entry ranks inside
        the rung's top len // eta; None if no rung has one.

        Only a rung's best unpromoted entry can qualify, and it does when its
        rank key is at most the key at the last quota position: keys are
        unique, so an equal key is that entry itself.
        """
        for k in range(top - 1, -1, -1):
            keys, waiting = self._keys[k], self._waiting[k]
            quota = len(keys) // eta
            if quota and waiting and waiting[0][0] <= keys[quota - 1]:
                return k
        return None

    def sorted_rung(self, k: int) -> list[RungEntry]:
        """Entries of rung k, best metric first, earlier completion wins ties.

        This is the ladder's own rank-ordered list; callers must not modify it.
        """
        self._check_rung(k)
        return self.rungs[k]

    def highest_nonempty(self) -> int | None:
        for k in range(len(self.rungs) - 1, -1, -1):
            if self.rungs[k]:
                return k
        return None
