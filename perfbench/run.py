"""tunesim's benchmark: four workloads driven through ``tunesim.cli.main``.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --sweep

Run from the repository root. Set-up writes the workload's input files from
the seed several times and reports the median. Then each measured iteration
runs the workload's CLI calls in a fresh single-threaded interpreter, one at
a time, until the time budget is spent (at least two iterations). Outputs are
checked: byte-identical between iterations, equal to the pinned digests at
the default seed, and, where traces are written, replayed. Untraced runs
time set-up and calls in calibrated seconds (perfbench/clock.py). The last
line of stdout is one JSON object; with ``--trace 1`` the metrics are the
per-layer ones from perfbench/tracer.py instead of the end-to-end ones. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden.json")
DEFAULT_SEED = 0
SETUP_REPS = 5
MIN_ITERATIONS = 2  # two runs of the same inputs must give the same bytes
MAX_ITERATIONS = 50
RUN_DEADLINE_S = 170.0  # the whole benchmark invocation must end within 180 s
COVERAGE_TOLERANCE = 0.10  # layer self times must sum to the traced wall time within 10%
ENTRY_SELF = "cli.main.self_s"  # excluded from that sum

THREAD_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
os.environ.update(THREAD_ENV)  # before numpy is imported here or in a child

# counters that must repeat exactly between traced iterations
EXACT_STATS = (".calls", ".entries", ".none", ".unstable", ".bytes")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sweep", action="store_true",
                        help="print the simulate scaling table (not gated) and exit")
    parser.add_argument("--write-golden", action="store_true",
                        help="pin this workload's output digests at the default seed")
    args = parser.parse_args(argv)
    if not args.sweep and args.workload is None:
        parser.error("--workload is required")
    return args


def _import_program():
    """Import tunesim from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "tunesim", "cli.py")):
        raise SystemExit(f"benchmark: no tunesim sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import tunesim

    if os.path.dirname(os.path.abspath(tunesim.__file__)) != os.path.join(SRC, "tunesim"):
        raise SystemExit(f"benchmark: imported tunesim from {tunesim.__file__}, not {SRC}")


def _digest(path: str) -> str | None:
    """sha256 of a file, or of a directory's sorted (name, file digest) list."""
    if os.path.isfile(path):
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    if os.path.isdir(path):
        outer = hashlib.sha256()
        for name in sorted(os.listdir(path)):
            outer.update(f"{name}\0{_digest(os.path.join(path, name))}\n".encode())
        return outer.hexdigest()
    return None


def _flag(argv: list[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _cells_written(argv: list[str]) -> str | None:
    """The cells file a run call writes (report calls read theirs)."""
    return _flag(argv, "--cells") if argv[0] == "run" else None


def _replay_failures(argv: list[str]) -> list[str]:
    """Replay every recorded trace of a run call and compare it with its cell.

    replay_trace raises if the scheduler issues another job than the trace
    recorded; the replayed ladder must then reproduce the cell's chosen
    metric, rung resource, job count, unit count and simulated runtime.
    """
    from tunesim.core import ResourceSpec
    from tunesim.experiment import (ExperimentSpec, MethodSpec, _trace_name, read_cells,
                                    resolve_tables)
    from tunesim.scheduler import SchedulerConfig
    from tunesim.simulator import read_trace, replay_trace

    resources = ResourceSpec(
        min_resource=int(_flag(argv, "--min-resource", 1)),
        reduction_factor=int(_flag(argv, "--eta", 3)),
        max_resource=int(_flag(argv, "--max-resource")),
    )
    num_configs = int(_flag(argv, "--num-configs"))
    cells = read_cells(_cells_written(argv))
    bench_seeds = tuple(sorted({c.benchmark_seed for c in cells}))
    tables = resolve_tables(ExperimentSpec(
        methods=(MethodSpec.parse("asha"),), resources=resources, num_configs=num_configs,
        benchmark=_flag(argv, "--benchmark"), benchmark_seeds=bench_seeds,
    ))
    traces = _flag(argv, "--traces")
    failures = []
    for cell in cells:
        method = MethodSpec.parse(cell.method)
        if method.mode == "random":
            continue  # trains nothing, so its trace is empty and pinned by digest
        name = _trace_name(cell.method, cell.scheduler_seed, cell.benchmark_seed)
        label = f"{cell.method} s{cell.scheduler_seed} b{cell.benchmark_seed}"
        table = tables[cell.benchmark_seed]
        try:
            events = read_trace(os.path.join(traces, name))
            config = SchedulerConfig(
                resources=resources, num_configs=num_configs, mode=method.mode,
                criterion=method.criterion, seed=cell.scheduler_seed,
                pair_below_cap=method.pair_below_cap, random_draws=method.random_draws,
            )
            sched = replay_trace(events, config, table)
            chosen, _, resource = sched.best_config()
            checkpoint: dict[int, int] = {}
            units = 0
            for ev in events:
                if ev.kind == "assign":
                    units += ev.resource - checkpoint.get(ev.config, 0)
                    checkpoint[ev.config] = ev.resource
            replayed = (
                sched.should_stop(),
                table.display_metric(table.final_metric(chosen)),
                resource,
                sum(ev.kind == "assign" for ev in events),
                units,
                max(ev.time for ev in events if ev.kind == "complete"),
            )
            recorded = (True, cell.metric, cell.max_resources, cell.jobs, cell.units, cell.runtime)
            if replayed != recorded:
                failures.append(f"replay of {label}: {replayed} != cell {recorded}")
        except Exception as exc:  # counted as a failed check; the run goes on
            failures.append(f"replay of {label}: {type(exc).__name__}: {exc}")
    return failures


class Checks:
    """Operations attempted and failed, with a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, weight: int, problem: str | None) -> None:
        self.attempted += weight
        if problem is not None:
            self.failed += weight
            self.messages.append(problem)

    def fail(self, count: int, messages: list[str]) -> None:
        """Failures found later among operations already counted as attempted."""
        self.failed += count
        self.messages.extend(messages)


def _setup(workload, seed: int, work: str, trace: bool):
    """Build the inputs SETUP_REPS times; return them with each rep's
    calibrated seconds (host seconds when traced) and, when traced, each
    rep's per-layer statistics."""
    from clock import CalibratedClock
    from tracer import Tracer

    seconds, layers = [], []
    with contextlib.nullcontext() if trace else CalibratedClock() as clock:
        for _ in range(SETUP_REPS):
            inputs_dir = os.path.join(work, "inputs")
            shutil.rmtree(inputs_dir, ignore_errors=True)
            os.makedirs(inputs_dir)
            tracer = Tracer() if trace else contextlib.nullcontext()
            with tracer:
                span = None if trace else clock.span()
                start = time.perf_counter()
                inputs = workload.setup(seed, inputs_dir)
                seconds.append(time.perf_counter() - start if trace else span.stop()[1])
            if trace:
                layers.append(tracer.flat())
    return inputs, seconds, layers


def _run_child(spec: dict, out: str, timeout: float) -> dict:
    spec_path = os.path.join(out, "spec.json")
    result_path = os.path.join(out, "result.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0", **THREAD_ENV)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), spec_path, result_path],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"iteration process exited {proc.returncode}: {proc.stderr.strip()}")
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def _check_iteration(i, commands, result, reference, golden, checks, seed):
    """Count each command's cells as attempted, and as failed if the call
    failed or its outputs differ from the first iteration or the pinned digests."""
    from tunesim.experiment import read_cells

    digests = {}
    for command, call in zip(commands, result["calls"]):
        weight = max(command.cells, 1)
        found = {os.path.basename(p): _digest(p) for p in command.outputs}
        digests[command.name] = found
        problem = call["error"]
        if problem is None and _cells_written(command.argv):
            rows = len(read_cells(_cells_written(command.argv)))
            if rows != command.cells:
                problem = f"cells file holds {rows} rows, expected {command.cells}"
        if problem is None:
            if i > 0 and found != reference.get(command.name):
                problem = "outputs differ from the first iteration's"
            elif i == 0 and seed == DEFAULT_SEED and golden and found != golden.get(command.name):
                problem = f"outputs differ from the pinned digests: {found}"
        checks.record(weight, None if problem is None else
                      f"iteration {i} {command.name}: {problem}")
    return digests


def _median_layers(samples: list[dict], name: str) -> float:
    layer, _, stat = name.rpartition(".")
    values = []
    for flat in samples:
        if stat.endswith("_ratio"):
            calls = flat.get(f"{layer}.calls", 0)
            count = flat.get(f"{layer}.{stat[: -len('_ratio')]}", 0)
            values.append(count / calls if calls else 0.0)
        else:
            values.append(flat.get(name, 0))
    return statistics.median(values)


SETUP_LAYERS = ("benchgen.generate.s", "benchgen.save.s")


def _per_layer(spec_metrics, iterations, setup_layers, checks):
    walls = [sum(c["seconds"] for c in r["calls"]) for r in iterations]
    layers = [r["layers"] for r in iterations]
    for i, flat in enumerate(layers[1:], start=1):
        moved = sorted(k for k in set(flat) | set(layers[0])
                       if k.endswith(EXACT_STATS) and flat.get(k) != layers[0].get(k))
        checks.record(1, f"iteration {i}: exact counters moved: {moved}" if moved else None)
    for wall, flat in zip(walls, layers):
        # the entry point's own self time is left out: it absorbs the time of
        # every unwrapped callee, so the layers below it must cover the wall
        self_sum = sum(v for k, v in flat.items()
                       if k.endswith(".self_s") and k != ENTRY_SELF)
        off = abs(self_sum - wall) / wall
        checks.record(1, None if off <= COVERAGE_TOLERANCE else
                      f"layer self times below {ENTRY_SELF} sum to {self_sum:.4f} s, "
                      f"traced wall {wall:.4f} s")
    metrics = {}
    for m in spec_metrics:
        source = setup_layers if m["name"] in SETUP_LAYERS else layers
        metrics[m["name"]] = _median_layers(source, m["name"])
    top = sorted(((statistics.median(f.get(k, 0) for f in layers), k) for k in layers[0]
                  if k.endswith(".self_s")), reverse=True)[:8]
    print(f"traced wall_s (median of {len(walls)}): {statistics.median(walls):.4f} s; "
          "largest self times:")
    for value, key in top:
        print(f"  {key:<44} {value:10.4f} s  {value / statistics.median(walls):6.1%}")
    return metrics


def _end_to_end(iterations, setup_seconds, commands, jobs):
    """The gated end-to-end metrics; host wall time, the per-cell latencies
    and the job rate are printed only (see README.md for why).

    ``calibrated_s`` sums, over the workload's calls, each call's median over
    the iterations of its calibrated seconds (see clock.py): on a shared host
    the machine's speed drifts by more than the bound within minutes, and the
    calibration divides that drift out.
    """
    from tracer import percentile

    def per_call_median(key):
        per_call = zip(*([c[key] for c in r["calls"]] for r in iterations))
        return sum(statistics.median(values) for values in per_call)

    calibrated, wall = per_call_median("calibrated"), per_call_median("seconds")
    cell_ms = [s * 1000.0 for r in iterations for s in r["cell_seconds"]]
    p90 = percentile(cell_ms, 0.9)
    print(f"informational: wall_s = {wall:.4f} s (host seconds, probes left out); "
          f"over {len(cell_ms)} cell samples (host time): "
          f"cell_ms_p50 = {statistics.median(cell_ms):.4f} ms; cell_ms_p90 = "
          + ("n/a (needs 10 samples beyond it)" if p90 is None else f"{p90:.4f} ms")
          + "; jobs_per_s = "
          + (f"{jobs / calibrated:.1f} jobs per calibrated s" if jobs
             else "n/a (no jobs scheduled)"))
    return {
        "calibrated_s": calibrated,
        "setup_s": statistics.median(setup_seconds),
        "cells_per_s": sum(c.cells for c in commands) / calibrated,
        "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024.0 for r in iterations),
    }


def run_workload(args, spec: dict) -> int:
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    started = time.perf_counter()
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-s{args.seed}-p{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return _measure(args, spec, workload, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with_parent = os.path.dirname(work)
        if os.path.isdir(with_parent) and not os.listdir(with_parent):
            os.rmdir(with_parent)


def _measure(args, spec, workload, work, started) -> int:
    from tunesim.experiment import read_cells

    golden_all = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN, encoding="utf-8") as handle:
            golden_all = json.load(handle)
    golden = None if args.write_golden else golden_all.get(args.workload)
    if args.seed == DEFAULT_SEED and golden is None and not args.write_golden:
        print(f"benchmark: no pinned digests for {args.workload}", file=sys.stderr)
        return 2

    inputs, setup_seconds, setup_layers = _setup(workload, args.seed, work, bool(args.trace))
    if inputs.skipped_seeds:
        print(f"set-up skipped table seeds {inputs.skipped_seeds}: the curve model "
              "cannot generate them (metric floor not positive)")
    checks = Checks()
    iterations, durations, reference = [], [], {}
    first_commands, first_clean = [], False
    measure_start = time.perf_counter()
    for i in range(MAX_ITERATIONS):
        out = os.path.join(work, f"iter-{i}")
        os.makedirs(out)
        commands = workload.commands(args.seed, inputs, out)
        child = {"trace": bool(args.trace),
                 "commands": [{"name": c.name, "argv": c.argv} for c in commands]}
        t0 = time.perf_counter()
        try:
            remaining = RUN_DEADLINE_S - (t0 - started)
            result = _run_child(child, out, timeout=max(remaining, 1.0))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            checks.record(sum(max(c.cells, 1) for c in commands), f"iteration {i}: {exc}")
            break
        durations.append(time.perf_counter() - t0)
        digests = _check_iteration(i, commands, result, reference, golden, checks, args.seed)
        if i == 0:
            reference, first_commands, first_clean = digests, commands, checks.failed == 0
        else:
            shutil.rmtree(out)  # compared; only the first iteration's files are replayed
        iterations.append(result)
        elapsed = time.perf_counter() - measure_start
        if len(iterations) >= MIN_ITERATIONS and \
                elapsed + statistics.median(durations) > args.seconds:
            break
    if not iterations:
        for message in checks.messages:
            print(message, file=sys.stderr)
        return 1

    if first_clean:
        for command in first_commands:
            if "--traces" in command.argv:
                failures = _replay_failures(command.argv)
                checks.fail(len(failures), failures)
    jobs = sum(c.jobs for command in first_commands if first_clean and _cells_written(command.argv)
               for c in read_cells(_cells_written(command.argv)))

    if args.write_golden:
        if args.seed != DEFAULT_SEED or checks.failed:
            for message in checks.messages:
                print(message, file=sys.stderr)
            print("benchmark: digests are pinned only from a clean run at the default seed",
                  file=sys.stderr)
            return 2
        golden_all[args.workload] = reference
        with open(GOLDEN, "w", encoding="utf-8") as handle:
            json.dump(golden_all, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"pinned digests for {args.workload} in {GOLDEN}")

    if args.trace:
        values = _per_layer(spec["per_layer"], iterations, setup_layers, checks)
        listed = spec["per_layer"]
    else:
        values = _end_to_end(iterations, setup_seconds, first_commands, jobs)
        listed = spec["end_to_end"]
    for message in checks.messages[:20]:
        print(f"FAILED {message}")
    print(f"{args.workload} seed {args.seed}: {len(iterations)} iterations, "
          f"{SETUP_REPS} set-ups, failed_frac = {checks.failed}/{checks.attempted}")
    timing = "calibrated " if not args.trace else ""
    print(f"  iteration {timing}seconds: " + " ".join(
        f"{sum(c['calibrated' if not args.trace else 'seconds'] for c in r['calls']):.3f}"
        for r in iterations)
        + f"; set-up {timing}seconds: " + " ".join(f"{s:.3f}" for s in setup_seconds))
    metrics = {}
    for m in listed:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<40} {value:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


SWEEP_SIZES = (256, 1024, 4096)


def sweep() -> int:
    """Host seconds of one simulate call per method and size; printed only."""
    from tunesim.benchgen import CurveModel, generate
    from tunesim.core import ResourceSpec
    from tunesim.ranking import RankingCriterion
    from tunesim.scheduler import SchedulerConfig
    from tunesim.simulator import simulate

    from workloads import TIGHT

    resources = ResourceSpec(min_resource=1, reduction_factor=3, max_resource=81)
    print("| configs | asha | pasha soft:0.025 |")
    print("| --- | --- | --- |")
    for n in SWEEP_SIZES:
        table = generate(n, 81, CurveModel(**TIGHT), 0)
        row = []
        for mode, criterion in (("asha", None), ("pasha", RankingCriterion("soft", epsilon=0.025))):
            config = SchedulerConfig(resources=resources, num_configs=n, mode=mode,
                                     criterion=criterion, seed=0)
            start = time.perf_counter()
            simulate(config, table, 4)
            row.append(f"{time.perf_counter() - start:.3f} s")
        print(f"| {n} | {row[0]} | {row[1]} |", flush=True)
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    if args.sweep:
        return sweep()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
