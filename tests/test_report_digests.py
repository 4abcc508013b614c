"""Byte pins for `tunesim report`'s fold, and property tests of its statistics.

The digests are the sha256 of emit_report's markdown and csv for the
report_cells of one generated cells file of 8,000 cells. Their methods are
interleaved, in runs and alone, and three names must be quoted (a comma, a
quote, a line break). The runtimes spread over 1e-300..1e300, and the values
include ±0.0 and subnormals. A change to how the fold sums a column must leave
both digests unchanged.

The property tests compare each method's mean and spread with exact rational
oracles (and the spread with statistics.stdev on 3.11+), on columns shorter
and longer than 2**16 values, and check that a report, or the DataError that
refuses one, does not depend on the order of the cells.
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunesim import CellResult, DataError, aggregate, emit_report, read_cells, write_cells
from tunesim import benchgen
from tunesim.core import _moments, _std
from tunesim.experiment import _mean_std, report_cells

NAMES = ("asha", "pasha:rbo:p=0.9,t=0.5", 'say "hi"', "random", "a\r\nb", "pasha:soft:0.025")


def _value(rng: random.Random, low: float, high: float) -> float:
    """A float of any magnitude in 10**low..10**high, or now and then a zero,
    a subnormal or the smallest normal, either sign."""
    pick = rng.random()
    if pick < 0.05:
        return rng.choice((0.0, -0.0))
    if pick < 0.10:
        return rng.choice((5e-324, -5e-324, 2.2250738585072014e-308, 1e-310 * rng.random()))
    return rng.choice((1.0, -1.0)) * 10 ** rng.uniform(low, high)


def _cells(seed: int = 19, n: int = 8000) -> list[CellResult]:
    rng = random.Random(seed)
    cells: list[CellResult] = []
    while len(cells) < n:
        method = rng.choice(NAMES)
        for _ in range(rng.choice((1, 1, 2, 5, 40))):  # alone, or a run of cells
            i = len(cells)
            cells.append(CellResult(
                method, i % 97, i % 13,
                metric=_value(rng, -3, 1) if rng.random() < 0.5 else rng.random(),
                runtime=abs(_value(rng, -300, 300)),
                max_resources=rng.choice((1, 3, 9, 27, 81, 2**60 + rng.randrange(1000))),
                units=rng.randrange(256, 20000),
                jobs=rng.randrange(256, 700),
            ))
    return cells[:n]


@pytest.fixture(scope="module")
def cells_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("report") / "cells.csv")
    write_cells(_cells(), path)
    return path


DIGESTS = {
    "markdown": "42b2c8b12cc6ca7950b7d7244ee6e5cf7e2c810135019b3abc5156861bef8f78",
    "csv": "a75edbb37c1d6b50279c368b11e1bab54e74a42dda0690b99c1bc3dfe27a13b7",
}


class TestReportDigests:
    @pytest.mark.parametrize("format", sorted(DIGESTS))
    def test_report_bytes_are_pinned(self, cells_path, format):
        text = emit_report(report_cells(cells_path), format)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIGESTS[format]

    def test_the_file_takes_the_one_pass(self, cells_path):
        with mock.patch.object(
            benchgen, "_csv_records", side_effect=AssertionError("fell back")
        ):
            report_cells(cells_path)

    def test_report_cells_equals_aggregate_of_read_cells(self, cells_path):
        assert report_cells(cells_path) == aggregate(read_cells(cells_path))


def _exact_mean(values) -> float:
    """The exact sum rounded once, over n: fsum(values) / n where fsum
    returns; OverflowError where the sum is beyond the float range."""
    return float(sum(map(Fraction, values))) / len(values)


def _exact_stdev(values) -> float:
    """The correctly rounded square root of the exact sample variance, found
    by bracketing it between the midpoints of neighbouring floats."""
    exact = [Fraction(v) for v in values]
    mean = sum(exact) / len(exact)
    variance = sum((x - mean) ** 2 for x in exact) / (len(exact) - 1)
    return _root(variance)


def _root(variance: Fraction) -> float:
    # a guess within a few ulps from a 100-bit integer root, then a walk to the
    # float whose rounding interval holds sqrt(variance)
    if variance == 0:
        return 0.0
    shift = 100 - (variance.numerator.bit_length() - variance.denominator.bit_length()) // 2
    scaled = variance * Fraction(4) ** shift
    guess = math.isqrt(scaled.numerator // scaled.denominator) / Fraction(2) ** shift
    s = float(guess)
    while True:
        below = (Fraction(s) + Fraction(math.nextafter(s, 0.0))) / 2
        above = (Fraction(s) + Fraction(math.nextafter(s, math.inf))) / 2
        if variance < below**2:
            s = math.nextafter(s, 0.0)
        elif variance > above**2:
            s = math.nextafter(s, math.inf)
        elif variance == below**2 or variance == above**2:  # a tie: the even neighbour
            other = math.nextafter(s, 0.0 if variance == below**2 else math.inf)
            return s if int(math.frexp(s)[0] * 2**53) % 2 == 0 else other
        else:
            return s


def _counted_oracle(counts: dict[float, int]) -> tuple[float, float]:
    """mean and sample std of a column holding each value counts[value] times."""
    n = sum(counts.values())
    mean = sum(Fraction(v) * k for v, k in counts.items()) / n
    variance = sum((Fraction(v) - mean) ** 2 * k for v, k in counts.items()) / (n - 1)
    return float(mean * n) / n, _root(variance)


FLOATS = st.one_of(
    st.floats(-1e300, 1e300),
    st.floats(-1.0, 1.0),
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e300, 0.1)),
)


class TestMoments:
    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(FLOATS, min_size=1, max_size=50))
    def test_mean_and_spread_equal_the_exact_oracles(self, values):
        mean, std = _mean_std(np.array(values), "m", "metric")
        assert mean.hex() == _exact_mean(values).hex()
        expected = _exact_stdev(values) if len(values) > 1 else 0.0
        assert std.hex() == expected.hex()

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="stdev rounds twice before Python 3.11"
    )
    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(FLOATS, min_size=2, max_size=50))
    def test_spread_equals_statistics_stdev(self, values):
        assert _std(*_moments(np.array(values)), 1).hex() == statistics.stdev(values).hex()

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="stdev rounds twice before Python 3.11"
    )
    def test_a_column_longer_than_a_chunk(self):
        rng = random.Random(7)
        values = [_value(rng, -300, 300) for _ in range(2**16 + 3)]
        mean, std = _mean_std(np.array(values), "m", "runtime")
        assert mean.hex() == _exact_mean(values).hex()
        assert std.hex() == statistics.stdev(values).hex()

    @pytest.mark.parametrize("n", [2**16 + 3, 2**17 + 5])
    def test_full_mantissas_in_long_columns(self, n):
        """Values whose 53-bit mantissas are all or nearly all ones, in one
        exponent and in two of either sign, so every partial sum of a chunk is
        near its largest."""
        a, b, c = 2.0 - 2.0**-52, 2.0 - 2.0**-51, -(1.0 - 2.0**-53)
        for values in ([a] * (n - 1) + [b], [a, c] * (n // 2) + [a] * (n % 2)):
            counts = {v: values.count(v) for v in set(values)}
            mean, std = _mean_std(np.array(values), "m", "metric")
            assert (mean.hex(), std.hex()) == tuple(x.hex() for x in _counted_oracle(counts))


# metrics near the largest float, where a running sum can overflow while the
# exact sum does not
HUGE = st.sampled_from(
    (1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, 2.0**1023, -(2.0**1023),
     8e307, 0.5, -0.0)
)


def _outcome(cells, order):
    try:
        return aggregate(cells, order)
    except DataError as exc:
        return str(exc)


class TestOrder:
    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.tuples(st.sampled_from(("asha", "pasha")), HUGE | st.floats(-1e308, 1e308), HUGE),
            min_size=1,
            max_size=8,
        ),
        data=st.data(),
    )
    def test_report_or_refusal_is_the_same_in_any_order(self, values, data):
        cells = [
            CellResult(method, i, 0, metric, abs(runtime), 9, 10, 5)
            for i, (method, metric, runtime) in enumerate(values)
        ]
        order = sorted({c.method for c in cells})
        shuffled = data.draw(st.permutations(cells))
        assert _outcome(shuffled, order) == _outcome(cells, order)
