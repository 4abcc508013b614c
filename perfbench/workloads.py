"""The benchmark's workloads: input files made from a seed, then the argv
lists handed to ``tunesim.cli.main``.

Every workload is a CLI session a tunesim user would type. The program only
sees the generated files and the argv. Set-up calls the library through its
modules (``benchgen.generate``), so a tracer that patches them sees the calls.

Tables above 256 configs use the tight curve model, because the default model
cannot be generated at 512 configs or more; no workload uses a
minimize-direction table with the rrr/arrr criteria, which crash on one
today. Both are known defects with their own fixes.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

from tunesim import benchgen, experiment
from tunesim.benchgen import CurveModel, GenerationError
from tunesim.experiment import CellResult

TIGHT = dict(head_gap=0.005, head_jitter=0.002, gap_scale=0.01)
UNITS = 81
GEOMETRY = ["--max-resource", "81", "--workers", "4"]

GRID_METHODS = (
    "asha",
    "pasha:soft:0.025",
    "pasha:soft-sigma:1",
    "pasha:rbo:p=0.9,t=0.5",
    "one-epoch",
    "no-increase",
    "random",
)
PASHA_METHODS = ("pasha:soft:0.025", "pasha:soft-sigma:1", "pasha:rbo:p=0.9,t=0.5")


@dataclass
class Command:
    """One ``cli.main`` call and what it must leave behind."""

    name: str
    argv: list[str]
    cells: int  # grid cells the call simulates (0 for verbs that schedule nothing)
    outputs: list[str]  # files or directories whose bytes are pinned and compared


@dataclass
class Inputs:
    """What set-up wrote, and what the commands need to know about it."""

    paths: dict[str, str] = field(default_factory=dict)
    bench_seeds: list[int] = field(default_factory=list)
    skipped_seeds: list[int] = field(default_factory=list)


def _methods(tokens) -> list[str]:
    argv = []
    for token in tokens:
        argv += ["--method", token]
    return argv


def _seed_range(first: int, count: int) -> str:
    return f"{first}..{first + count - 1}"


def _save_seeded(inputs: Inputs, pattern: str, n: int, model: CurveModel, first: int, count: int):
    """Write ``count`` tables named by ``pattern`` with table seeds from
    ``first`` upward, then name one more seed that has no file, so the run
    imputes it. A seed the model cannot generate is skipped and recorded."""
    seed = first
    while len(inputs.bench_seeds) < count:
        try:
            table = benchgen.generate(n, UNITS, model, seed)
        except GenerationError:
            inputs.skipped_seeds.append(seed)
        else:
            benchgen.save(table, pattern.replace("{seed}", str(seed)))
            inputs.bench_seeds.append(seed)
        seed += 1
    inputs.bench_seeds.append(seed)


ASHA_CONFIGS = 1024
ASHA_SCHEDULER_SEEDS = 4


def setup_asha_scale(seed: int, d: str) -> Inputs:
    path = os.path.join(d, "asha.csv")
    benchgen.save(benchgen.generate(ASHA_CONFIGS, UNITS, CurveModel(**TIGHT), seed), path)
    return Inputs(paths={"table": path})


def commands_asha_scale(seed: int, inputs: Inputs, out: str) -> list[Command]:
    report, cells = os.path.join(out, "report.md"), os.path.join(out, "cells.csv")
    argv = ["run", "--benchmark", inputs.paths["table"], "--method", "asha",
            "--num-configs", str(ASHA_CONFIGS), *GEOMETRY,
            "--seeds", _seed_range(ASHA_SCHEDULER_SEEDS * seed, ASHA_SCHEDULER_SEEDS),
            "--cells", cells, "--out", report]
    return [Command("run", argv, ASHA_SCHEDULER_SEEDS, [report, cells])]


PASHA_CONFIGS = 512
PASHA_TABLES = 4
PASHA_SCHEDULER_SEEDS = 2


def setup_pasha_scale(seed: int, d: str) -> Inputs:
    """PASHA_TABLES noisy tables: how much ranking work a cell does depends
    on its table, so the workload spreads over several."""
    pattern = os.path.join(d, "pasha-{seed}.csv")
    model = CurveModel(noise_std=0.002, hard=True, **TIGHT)
    inputs = Inputs(paths={"pattern": pattern})
    for table_seed in range(PASHA_TABLES * seed, PASHA_TABLES * (seed + 1)):
        table = benchgen.generate(PASHA_CONFIGS, UNITS, model, table_seed)
        benchgen.save(table, pattern.replace("{seed}", str(table_seed)))
        inputs.bench_seeds.append(table_seed)
    return inputs


def commands_pasha_scale(seed: int, inputs: Inputs, out: str) -> list[Command]:
    report, cells = os.path.join(out, "report.md"), os.path.join(out, "cells.csv")
    argv = ["run", "--benchmark", inputs.paths["pattern"], *_methods(PASHA_METHODS),
            "--num-configs", str(PASHA_CONFIGS), *GEOMETRY,
            "--seeds", _seed_range(PASHA_SCHEDULER_SEEDS * seed, PASHA_SCHEDULER_SEEDS),
            "--bench-seeds", ",".join(map(str, inputs.bench_seeds)),
            "--cells", cells, "--out", report]
    n = len(PASHA_METHODS) * PASHA_SCHEDULER_SEEDS * PASHA_TABLES
    return [Command("run", argv, n, [report, cells])]


def setup_grid_small(seed: int, d: str) -> Inputs:
    pattern = os.path.join(d, "bench-{seed}.csv")
    inputs = Inputs(paths={"pattern": pattern})
    _save_seeded(inputs, pattern, 256, CurveModel(), 4 * seed, 3)
    return inputs


GRID_SCHEDULER_SEEDS = 10


def commands_grid_small(seed: int, inputs: Inputs, out: str) -> list[Command]:
    report, cells = os.path.join(out, "report.csv"), os.path.join(out, "cells.csv")
    traces = os.path.join(out, "traces")
    argv = ["run", "--benchmark", inputs.paths["pattern"], *_methods(GRID_METHODS),
            "--num-configs", "256", *GEOMETRY,
            "--seeds", _seed_range(GRID_SCHEDULER_SEEDS * seed, GRID_SCHEDULER_SEEDS),
            "--bench-seeds", ",".join(map(str, inputs.bench_seeds)),
            "--cells", cells, "--traces", traces, "--format", "csv", "--out", report]
    n = len(GRID_METHODS) * GRID_SCHEDULER_SEEDS * len(inputs.bench_seeds)
    return [Command("run", argv, n, [report, cells, traces])]


REPORT_METHODS = ("asha", "pasha:soft:0.025", "pasha:soft-sigma:1", "pasha:rbo:p=0.9,t=0.5",
                  "one-epoch", "no-increase", "random", "pasha:direct")
REPORT_SEEDS = 100  # scheduler seeds x benchmark seeds per method: 8 x 100 x 100 = 80k rows
RANDOM_SCHEDULER_SEEDS = 10


def _synthetic_cells(seed: int) -> list[CellResult]:
    rng = random.Random(seed)
    cells = []
    for method in REPORT_METHODS:
        for ss in range(REPORT_SEEDS):
            for bs in range(REPORT_SEEDS):
                cells.append(CellResult(
                    method=method, scheduler_seed=ss, benchmark_seed=bs,
                    metric=rng.uniform(0.1, 0.95), runtime=rng.uniform(10.0, 5000.0),
                    max_resources=rng.choice((1, 3, 9, 27, 81)),
                    units=rng.randrange(256, 20000), jobs=rng.randrange(256, 700),
                ))
    return cells


def setup_tables_io(seed: int, d: str) -> Inputs:
    cross = os.path.join(d, "cross.csv")
    benchgen.save(benchgen.generate(512, UNITS, CurveModel(**TIGHT), seed), cross)
    pattern = os.path.join(d, "tio-{seed}.csv")
    inputs = Inputs(paths={"cross": cross, "pattern": pattern,
                           "cells": os.path.join(d, "big-cells.csv")})
    _save_seeded(inputs, pattern, 1024, CurveModel(**TIGHT), 3 * seed, 3)
    experiment.write_cells(_synthetic_cells(seed), inputs.paths["cells"])
    return inputs


def commands_tables_io(seed: int, inputs: Inputs, out: str) -> list[Command]:
    crossings = os.path.join(out, "crossings.csv")
    report, cells = os.path.join(out, "report.md"), os.path.join(out, "cells.csv")
    big_report = os.path.join(out, "big-report.csv")
    run = ["run", "--benchmark", inputs.paths["pattern"], "--method", "random",
           "--num-configs", "1024", *GEOMETRY,
           "--seeds", _seed_range(RANDOM_SCHEDULER_SEEDS * seed, RANDOM_SCHEDULER_SEEDS),
           "--bench-seeds", ",".join(map(str, inputs.bench_seeds)),
           "--cells", cells, "--out", report]
    return [
        Command("crossings", ["crossings", "--benchmark", inputs.paths["cross"],
                              "--out", crossings], 0, [crossings]),
        Command("run", run, RANDOM_SCHEDULER_SEEDS * len(inputs.bench_seeds), [report, cells]),
        Command("report", ["report", "--cells", inputs.paths["cells"], "--format", "csv",
                           "--out", big_report], 0, [big_report]),
    ]


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json and README.md."""

    setup: object  # (seed, input dir) -> Inputs
    commands: object  # (seed, Inputs, output dir) -> list[Command]


WORKLOADS = {
    "asha-scale": Workload(setup_asha_scale, commands_asha_scale),
    "pasha-scale": Workload(setup_pasha_scale, commands_pasha_scale),
    "grid-small": Workload(setup_grid_small, commands_grid_small),
    "tables-io": Workload(setup_tables_io, commands_tables_io),
}
