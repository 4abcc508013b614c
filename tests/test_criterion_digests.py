"""Byte pins for every ranking criterion kind, with and without
pair_below_cap, on one small hard-noise table.

Each case pins the sha256 of the write_trace bytes and of
(chosen, wall_clock, max_resources, units_consumed). The spellings are
chosen so that the kinds disagree: the 18 cases give nine distinct traces,
and every kind grows the cap in some case. A refactor of the ranking layer must leave every digest unchanged; a
change that moves one on purpose re-pins it and says why.
"""

from __future__ import annotations

import hashlib

import pytest

from tunesim import (
    RankingCriterion,
    ResourceSpec,
    SchedulerConfig,
    generate,
    simulate,
    write_trace,
)
from tunesim.ranking import CRITERION_KINDS
from util import NOISY_TIGHT

CONFIGS = 128
UNITS = 81
WORKERS = 4

# (spelling, pair_below_cap) -> (trace sha256, result sha256)
PINNED = {
    ("direct", False): (
        "8fd6f7a653859d944f5149c1a9487f5cbf006cb35792426a9ef62329fcc98695",
        "f744ef932e00edfd889c5a67497146d13cf05e72a1b52b3f8f7d3314366ebf85",
    ),
    ("direct", True): (
        "4316195c2e970d53485eed9cf7dbdb11bcdc18bbb8bcb9bac0a5c18f7dde84ca",
        "fba1d0bd6445f50dbc9c381537dd8998152770de52c6350e0a4b1b5f505a650c",
    ),
    ("soft:0.01", False): (
        "29901269a89baf75c58ffdc6bba8d4dc1df6e3e2f06455c7ba4098076c20e532",
        "deb3b0b9680448b0c212f692c08b80671e0414d9ff2ccc715d8b19c35731f806",
    ),
    ("soft:0.01", True): (
        "567484580dd6e1eb602855b16c6cbd667826841704738250a162b6959e2a0500",
        "5acae5b5497679fe215d6743569bc73575944230051f1c5f9589906c810a80a0",
    ),
    ("soft-sigma:1", False): (
        "079d10571328f11b28441a3333d54b30bc4c07588019b12b7410cf1f1e42f7ea",
        "e52ed9648cd946a6ba26499bc5a4c9fb38c01ed4ce4e04730dd05ce6eec97219",
    ),
    ("soft-sigma:1", True): (
        "463a69ffdfefb48763985f7101c12da90f91b0620a2a0f9d5c973aae36f23659",
        "ace84b8fe3744d599a896ff783202322940e52c45bc0d70e06dd9ec64dc1ffae",
    ),
    ("soft-mean-dist", False): (
        "29901269a89baf75c58ffdc6bba8d4dc1df6e3e2f06455c7ba4098076c20e532",
        "deb3b0b9680448b0c212f692c08b80671e0414d9ff2ccc715d8b19c35731f806",
    ),
    ("soft-mean-dist", True): (
        "567484580dd6e1eb602855b16c6cbd667826841704738250a162b6959e2a0500",
        "5acae5b5497679fe215d6743569bc73575944230051f1c5f9589906c810a80a0",
    ),
    ("soft-median-dist", False): (
        "423ccc62f02c33de529817c1c0f72e7dce1c6b5035519e346221b6013fc92b7e",
        "e48eae13b411818b3e0a17a0a85e5a185024d76c32ad3dcd835ce2cf742c5a68",
    ),
    ("soft-median-dist", True): (
        "4316195c2e970d53485eed9cf7dbdb11bcdc18bbb8bcb9bac0a5c18f7dde84ca",
        "fba1d0bd6445f50dbc9c381537dd8998152770de52c6350e0a4b1b5f505a650c",
    ),
    ("rbo:p=0.9,t=0.8", False): (
        "463a69ffdfefb48763985f7101c12da90f91b0620a2a0f9d5c973aae36f23659",
        "ace84b8fe3744d599a896ff783202322940e52c45bc0d70e06dd9ec64dc1ffae",
    ),
    ("rbo:p=0.9,t=0.8", True): (
        "26174a86f8ad18caf43c0bb47d354a870ec38e0362f84ca55465efe53267dfde",
        "07f086ac9493158f2d4fe2ea9f4f8cbbe9047264f30f50364efb9afc1bc5b285",
    ),
    ("rrr:p=0.9,t=0.002", False): (
        "463a69ffdfefb48763985f7101c12da90f91b0620a2a0f9d5c973aae36f23659",
        "ace84b8fe3744d599a896ff783202322940e52c45bc0d70e06dd9ec64dc1ffae",
    ),
    ("rrr:p=0.9,t=0.002", True): (
        "26174a86f8ad18caf43c0bb47d354a870ec38e0362f84ca55465efe53267dfde",
        "07f086ac9493158f2d4fe2ea9f4f8cbbe9047264f30f50364efb9afc1bc5b285",
    ),
    ("arrr:p=0.9,t=0.005", False): (
        "463a69ffdfefb48763985f7101c12da90f91b0620a2a0f9d5c973aae36f23659",
        "ace84b8fe3744d599a896ff783202322940e52c45bc0d70e06dd9ec64dc1ffae",
    ),
    ("arrr:p=0.9,t=0.005", True): (
        "9a11eae7cacaf5f7736b8ec6c569b8727fd2fb390089059e6a6273c2964f2b40",
        "b0da1713984c13cce28aadae6798d64b04387cf1ebd90b32be88b7f09d901f52",
    ),
    ("always-unstable", False): (
        "4316195c2e970d53485eed9cf7dbdb11bcdc18bbb8bcb9bac0a5c18f7dde84ca",
        "fba1d0bd6445f50dbc9c381537dd8998152770de52c6350e0a4b1b5f505a650c",
    ),
    ("always-unstable", True): (
        "4316195c2e970d53485eed9cf7dbdb11bcdc18bbb8bcb9bac0a5c18f7dde84ca",
        "fba1d0bd6445f50dbc9c381537dd8998152770de52c6350e0a4b1b5f505a650c",
    ),
}


@pytest.fixture(scope="module")
def table():
    return generate(CONFIGS, UNITS, NOISY_TIGHT, 0)


def test_every_kind_is_pinned():
    kinds = {RankingCriterion.parse(spelling).kind for spelling, _ in PINNED}
    assert kinds == set(CRITERION_KINDS)
    assert {pair for _, pair in PINNED} == {False, True}


@pytest.mark.parametrize(("spelling", "pair_below_cap"), sorted(PINNED))
def test_criterion_digest(table, tmp_path, spelling, pair_below_cap):
    config = SchedulerConfig(
        resources=ResourceSpec(1, 3, UNITS),
        num_configs=CONFIGS,
        mode="pasha",
        criterion=RankingCriterion.parse(spelling),
        seed=0,
        pair_below_cap=pair_below_cap,
    )
    result = simulate(config, table, WORKERS, collect_trace=True)
    path = tmp_path / "trace.txt"
    write_trace(result.trace, str(path))
    outcome = (result.chosen, result.wall_clock, result.max_resources, result.units_consumed)
    assert (
        hashlib.sha256(path.read_bytes()).hexdigest(),
        hashlib.sha256(repr(outcome).encode()).hexdigest(),
    ) == PINNED[spelling, pair_below_cap]
