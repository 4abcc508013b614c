"""Byte pins for every scheduling mode at a max resource that is a power of
eta (81) and one that is not (100), on the table of the criterion digests.

Each case pins the sha256 of the write_trace bytes and of
(chosen, wall_clock, max_resources, units_consumed). pasha runs twice: with
the default criterion, which stops growing at 27, and with always-unstable,
which grows until the cap clamps at max_resource (to 100, a level that is no
power of eta) and so pins the same bytes as asha. random trains nothing, so
its trace is empty and its outcome ignores max_resource. A change to how the
scheduler holds its cap must leave every digest unchanged; a change that
moves one on purpose re-pins it and says why.
"""

from __future__ import annotations

import hashlib

import pytest

from tunesim import RankingCriterion, ResourceSpec, SchedulerConfig, generate, simulate, write_trace
from tunesim.scheduler import MODES
from util import NOISY_TIGHT

CONFIGS = 128
WORKERS = 4

ASHA_81 = (
    "4316195c2e970d53485eed9cf7dbdb11bcdc18bbb8bcb9bac0a5c18f7dde84ca",
    "fba1d0bd6445f50dbc9c381537dd8998152770de52c6350e0a4b1b5f505a650c",
)
ASHA_100 = (
    "5b0415c938704c9657c6ae42af8bcfd2805e3bd541d80d9b96f330dcb54e08ed",
    "3f2252923afca17943a7ea200160d8035b6f147f0c6a1704eeeeeb8e16debc84",
)
RANDOM = (
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "e8b459b24d9532ad469a394ede96ec9bc7a0479447f90573240b2b9be9e2b1a6",
)

# (mode, criterion spelling or None, max_resource) -> (trace sha256, result sha256)
PINNED = {
    ("asha", None, 81): ASHA_81,
    ("asha", None, 100): ASHA_100,
    ("one-epoch", None, 81): (
        "150f3917f86b64a64b2515a9a5f7c0ffacf57564f0f69303a1364900eacc93d0",
        "90027dcd4eb30abe31d72a62d408a10464c660e073e8ee08e2b40abdb5a7e1d2",
    ),
    ("one-epoch", None, 100): (
        "517991ee60359204e3ce8c9c34b7fb8f9851921669ada5bd18f2cb2bfec9ef9d",
        "1b064649fe37226f2238a627fd0066c1dab893b4f19567654ea54a9e4e962f7d",
    ),
    ("no-increase", None, 81): (
        "463a69ffdfefb48763985f7101c12da90f91b0620a2a0f9d5c973aae36f23659",
        "ace84b8fe3744d599a896ff783202322940e52c45bc0d70e06dd9ec64dc1ffae",
    ),
    ("no-increase", None, 100): (
        "5a5ea6823f9d28dfdf6d4b27c32b5b571c2fe93b97a15c9d8e4144bd083f0b0a",
        "77f743f090b10834a749fdc56a8d60e96803c314d9ed0e9d55c5473b246db710",
    ),
    ("random", None, 81): RANDOM,
    ("random", None, 100): RANDOM,
    ("pasha", None, 81): (
        "48904e6867c387fd6c89a1ca6de056db924c6ebfd0dae656bc0e5899acb0a3bf",
        "20c8eb590a17238d726d366bdc6146bf5cbf77f64b491e6dd7c26a1597f37acb",
    ),
    ("pasha", None, 100): (
        "a3c23ae55c9a69e1b1c5bf2cdbc48db34c76151823d974329dc4bfb293424451",
        "d76982282014cf5bc5417903fc7bf1fda0465c7901221882e3eeca9fbdf80652",
    ),
    ("pasha", "always-unstable", 81): ASHA_81,
    ("pasha", "always-unstable", 100): ASHA_100,
}


@pytest.fixture(scope="module")
def tables():
    return {units: generate(CONFIGS, units, NOISY_TIGHT, 0) for units in (81, 100)}


def test_every_mode_is_pinned():
    assert {mode for mode, _, _ in PINNED} == set(MODES)


@pytest.mark.parametrize(("mode", "spelling", "units"), sorted(PINNED, key=repr))
def test_mode_digest(tables, tmp_path, mode, spelling, units):
    config = SchedulerConfig(
        resources=ResourceSpec(1, 3, units),
        num_configs=CONFIGS,
        mode=mode,
        criterion=None if spelling is None else RankingCriterion.parse(spelling),
        seed=0,
    )
    result = simulate(config, tables[units], WORKERS, collect_trace=True)
    path = tmp_path / "trace.txt"
    write_trace(result.trace, str(path))
    outcome = (result.chosen, result.wall_clock, result.max_resources, result.units_consumed)
    assert (
        hashlib.sha256(path.read_bytes()).hexdigest(),
        hashlib.sha256(repr(outcome).encode()).hexdigest(),
    ) == PINNED[mode, spelling, units]
