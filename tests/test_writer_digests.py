"""Byte pins for the two text writers, benchgen.save and
experiment.write_cells, and property tests that compare their bytes with the
row-by-row csv.writer writers kept in util.py.

Each digest is the sha256 of a written file. The tables cover a default-model
table, the hard-noise tight table of the criterion digests, a flipped
(minimize) table, hand-written rows with runs of equal values, ±0.0,
subnormals, 1e-05 and 1e16 (in both directions), and payloads csv must quote.
The cells cover method names holding commas, quotes and line breaks. A change
to how the writers format a row must leave every digest unchanged; a change
that moves one on purpose re-pins it and says why.
"""

from __future__ import annotations

import hashlib
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunesim import CellResult, CurveModel, LearningCurveTable, generate, save, write_cells
from util import NOISY_TIGHT, save_by_rows, write_cells_by_rows


def _flip(table: LearningCurveTable) -> LearningCurveTable:
    """table as loaded from a minimize file: stored negated, written back as is."""
    return LearningCurveTable(
        table.ids, -table.metrics, table.costs, -table.finals, table.payloads,
        metric_name="loss", unit_label=table.unit_label, flipped=True,
    )


def _special(flipped: bool) -> LearningCurveTable:
    table = LearningCurveTable(
        ids=[7, 0, 2**70, 2, 1],
        metrics=[
            [1.0, 1.0, 1.0, 1.0, 1.0, 1.0],  # one text for the whole row
            [0.5, 0.5, 0.5, -0.0, 0.0, -0.0],
            [1e-310, 1e-310, -1e-310, 1e22, 1e-07, 123456789.0],
            [1e-05, 1e16, 1e16, 1e-05, 0.1, 0.30000000000000004],
            [0.0, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308],
        ],
        costs=[
            [1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
            [1e-05, 1e-05, 1e16, 1e16, 5e-324, 5e-324],
            [2.5, 2.5, 2.5, 2.5, 2.5, 2.5],
            [0.1, 0.1, 0.2, 0.2, 0.2, 1e-310],
            [5e-324, 1e-05, 1e-05, 1e16, 1e16, 1e16],
        ],
        finals=[1.0, 0.0, 5e-324, 1e16, -0.0],
        metric_name="score",
        unit_label="step",
    )
    return _flip(table) if flipped else table


def _payloads() -> LearningCurveTable:
    payloads = ["lr=0.1,depth=4", 'say "hi"', "a\r\nb", "x\x0cy", " ", "", "plain", "c\rd", "e\nf"]
    n = len(payloads)
    return LearningCurveTable(
        ids=range(n),
        metrics=[[0.25 + i / 64, 0.5 + i / 64] for i in range(n)],
        costs=[[1.5, 1.5] for _ in range(n)],
        finals=[0.5 + i / 64 for i in range(n)],
        payloads=payloads,
    )


TABLES = {
    "default": lambda: generate(64, 81, CurveModel(), seed=3),
    "noisy-tight": lambda: generate(128, 81, NOISY_TIGHT, seed=0),
    "flipped": lambda: _flip(generate(32, 27, CurveModel(), seed=1)),
    "special": lambda: _special(False),
    "special-flipped": lambda: _special(True),
    "payloads": _payloads,
}

SAVED = {
    "default": "558e21cb05f8113522734b1893ac1d07f96d48c6ace17cdf5ea6a64acfd1f215",
    "noisy-tight": "2baf644fec46098a702da0a2a0face07fa1e6b2b8b974b8b1acca9457f3e0daa",
    "flipped": "5e6cacc9fcce81de9ae834867e12dc5c6e164dcc27c11778cd938207c4f8abe4",
    "special": "653743ad6eadee447398eae7476ebbaf81b2a137e11bc8217ac9f02f4faaa9c0",
    "special-flipped": "8d6aa33d61670529fb7c0891ef598326968c4e823ae51a881fbc9e8a9f2fd19b",
    "payloads": "f0aa7bf9a7b1be63c94790ef40e3e058f3021b4162b3e5b3f2d59c72eb948c9a",
}

METHODS = (
    "asha",
    "pasha:rbo:p=0.9,t=0.5",
    'say "hi"',
    "a\nb",
    "c\rd",
    "e\r\nf",
    "",
    " spaced ",
    "x\x0cy",
)
VALUES = (0.5, -0.0, 0.0, 1e16, 1e-05, 5e-324, 0.1, 123.25, math.nan, math.inf, -math.inf)
SEEDS = (0, 1, -3, 2**80)


def _cells() -> list[CellResult]:
    return [
        CellResult(
            method, SEEDS[i % 4], SEEDS[(i // 4) % 4], VALUES[i % 11], VALUES[(i * 7) % 11],
            3 ** (i % 5), 81 + i, 5 * i,
        )
        for i in range(60)
        for method in METHODS[i % 9 :] + METHODS[: i % 3]
    ]


CELLS = "6c33b958bca96b1d891e7d1c0e9e29225876acbecab50eb23db3c07088299ec5"


def _digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(TABLES))
def test_saved_bytes_are_pinned(tmp_path, name):
    path = str(tmp_path / "bench.csv")
    save(TABLES[name](), path)
    assert _digest(path) == SAVED[name]


def test_written_cells_are_pinned(tmp_path):
    path = str(tmp_path / "cells.csv")
    write_cells(_cells(), path)
    assert _digest(path) == CELLS


# repeats within a row are what the writer's shared texts cover, so values
# come from small pools with ±0.0, subnormals and both notations of repr
POOL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-05, 1e16, 0.5, -0.5, 0.1, 1e22, -1e-07]
VALUE = st.one_of(st.sampled_from(POOL), st.floats(allow_nan=False, allow_infinity=False))
COST = st.one_of(
    st.sampled_from([5e-324, 1e-310, 1e-05, 1e16, 0.5, 1.0]),
    st.floats(min_value=5e-324, allow_infinity=False),
)
# csv quotes `,` `"` `\r` `\n`; the others pass through unquoted
TEXT = st.text(st.sampled_from('ab, "\r\n\x0c\x85 =:'), max_size=5)


@st.composite
def tables(draw):
    """Tables of 1-8 configs x 1-5 units whose rows repeat values, ids up to
    2**70, an empty payload for most configs, either direction."""
    units = draw(st.integers(1, 5))
    ids = draw(st.lists(st.integers(0, 2**70), min_size=1, max_size=8, unique=True))

    def row(values, length):
        # each value may repeat its left neighbour
        out = [draw(values)]
        for _ in range(length - 1):
            out.append(out[-1] if draw(st.booleans()) else draw(values))
        return out

    return LearningCurveTable(
        ids=ids,
        metrics=[row(VALUE, units) for _ in ids],
        costs=[row(COST, units) for _ in ids],
        finals=[draw(VALUE) for _ in ids],
        payloads=[draw(st.one_of(st.just(""), TEXT)) for _ in ids],
        flipped=draw(st.booleans()),
    )


CELL = st.builds(
    CellResult,
    st.one_of(st.sampled_from(METHODS), TEXT),
    st.integers(-(2**80), 2**80),
    st.integers(-(2**80), 2**80),
    st.one_of(st.sampled_from(POOL), st.floats()),
    st.one_of(st.sampled_from(POOL), st.floats()),
    st.integers(0, 2**70),
    st.integers(0, 2**70),
    st.integers(0, 2**70),
)


def _same_bytes(write, oracle, value) -> None:
    with tempfile.TemporaryDirectory() as d:
        ours, theirs = os.path.join(d, "a.csv"), os.path.join(d, "b.csv")
        write(value, ours)
        oracle(value, theirs)
        with open(ours, "rb") as a, open(theirs, "rb") as b:
            assert a.read() == b.read()


class TestWritersMatchCsvWriter:
    @settings(max_examples=100, deadline=None)
    @given(table=tables())
    def test_save_writes_the_bytes_of_csv_writer(self, table):
        _same_bytes(save, save_by_rows, table)

    @settings(max_examples=100, deadline=None)
    @given(cells=st.lists(CELL, max_size=12))
    def test_write_cells_writes_the_bytes_of_csv_writer(self, cells):
        _same_bytes(write_cells, write_cells_by_rows, cells)
