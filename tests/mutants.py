"""Mutant catalogue: faults the tests once caught, re-checked on every run.

Each mutant is one exact text edit to one file under src/ and the tests
that must fail under it. For each mutant this script copies src/, tests/
and pyproject.toml to a temporary directory, applies the edit there, and
runs the named tests with -x and a fixed --hypothesis-seed, in a fresh
hypothesis database; the mutant is killed when pytest reports a failing
test (exit status 1). Before any mutant, the named tests must pass on the
unedited copy.

An edit whose old text is missing, or found more than once, stops the
script: a refactor that moves a mutant's code must re-express the mutant.
The catalogue only grows; a mutant removed or weakened is a change to a
check and is logged as one.

Usage, from the repository root (stdlib only; pytest and hypothesis must
be importable, as for the test suite):

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named mutants only

Exit status 0 when every mutant selected is killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HYPOTHESIS_SEED = "0"
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/tunesim
    old: str
    new: str
    tests: tuple[str, ...]


REFERENCE = "tests/test_reference.py::TestReferenceSimulator::test_simulate_matches_the_reference"
REFERENCE_BELOW = (
    "tests/test_reference.py::TestReferenceSimulator::"
    "test_growth_with_the_pair_below_the_cap_matches_the_reference"
)
INCREMENTAL = (
    "tests/test_scheduler.py::TestIncrementalStability::test_every_verdict_is_the_full_checks"
)
KEPT = (
    "tests/test_ranking.py::TestKeptEpsilon::test_each_insertion_keeps_epsilon_sigma_bit_for_bit"
)
ACCOUNTING = (
    "tests/test_simulator.py::TestTraceAccountingOracle::"
    "test_times_and_totals_follow_from_the_trace"
)
LADDER = (
    "tests/test_core.py::TestIncrementalLadderProperties",
    "tests/test_core.py::TestRungLadder",
)

CATALOGUE = (
    # the incremental stability check (CHANGES.md, the entry that added _PairCheck)
    Mutant(
        "no-full-first-check", "scheduler.py",
        "stable = is_stable(self.criterion, top_rung, below_rung)",
        "stable = True",
        (INCREMENTAL, REFERENCE_BELOW),
    ),
    Mutant(
        "window-short-at-its-end", "ranking.py",
        "for i in range(lo, hi + 1)]",
        "for i in range(lo, hi)]",
        (INCREMENTAL,),
    ),
    Mutant(
        "window-short-at-its-start", "ranking.py",
        "for i in range(lo, hi + 1)]",
        "for i in range(lo + 1, hi + 1)]",
        (INCREMENTAL,),
    ),
    Mutant(
        "kept-sigma-squares-not-rescaled", "ranking.py",
        "self.squares *= factor * factor",
        "self.squares *= factor",
        (KEPT, INCREMENTAL),
    ),
    # one fact per run: resume points and totals read from the ladder
    Mutant(
        "job-restarts-from-unit-0", "simulator.py",
        "incremental_cost(config, resume[rung], target)",
        "incremental_cost(config, 0, target)",
        (ACCOUNTING,),
    ),
    Mutant(
        "units-counted-from-their-own-level", "simulator.py",
        "for n, a, b in zip(jobs, resume, sched.levels)",
        "for n, a, b in zip(jobs, sched.levels, sched.levels)",
        (ACCOUNTING,),
    ),
    Mutant(
        "jobs-counted-at-rung-0-only", "simulator.py",
        "jobs_executed=sum(jobs),",
        "jobs_executed=jobs[0],",
        (ACCOUNTING,),
    ),
    # each rung's unpromoted entries in one heap
    Mutant(
        "promote-takes-the-heaps-last-item", "core.py",
        "_, entry = heappop(self._waiting[k])",
        "_, entry = self._waiting[k].pop()",
        LADDER,
    ),
    Mutant(
        "promotion-reads-the-heaps-last-key", "core.py",
        "waiting[0][0] <= keys[quota - 1]",
        "waiting[-1][0] <= keys[quota - 1]",
        LADDER,
    ),
    Mutant(
        "insert-appends-to-the-heap", "core.py",
        "heappush(self._waiting[k], (key, entry))",
        "self._waiting[k].append((key, entry))",
        LADDER,
    ),
    # the reference simulator's mutants
    Mutant(
        "promotion-quota-one-too-large", "core.py",
        "quota = len(keys) // eta",
        "quota = len(keys) // eta + 1",
        (REFERENCE,),
    ),
    Mutant(
        "ties-broken-by-the-later-completion", "core.py",
        "key = (-entry.metric, entry.completion_index)  # _rank_key, inline",
        "key = (-entry.metric, -entry.completion_index)  # _rank_key, inline",
        (REFERENCE,),
    ),
    Mutant(
        "check-triggered-by-lower-rung-reports", "scheduler.py",
        "if rung != (top - 1 if self.pair_below_cap else top):",
        "if rung + 1 != (top - 1 if self.pair_below_cap else top):",
        (REFERENCE,),
    ),
    Mutant(
        "member-kept-after-its-verdict-differs", "scheduler.py",
        "if member.grows(*state) == grows:",
        "if member.grows(*state) in (grows, not grows):",
        (REFERENCE,),
    ),
    # one incremental path for the soft criteria
    Mutant(
        "old-window-left-in-the-ordered-list", "ranking.py",
        "del ordered[bisect_left(ordered, d)]",
        "bisect_left(ordered, d)",
        (INCREMENTAL,),
    ),
    Mutant(
        "only-the-window-scored", "ranking.py",
        "insort(ordered, d)",
        "ordered[:] = sorted(window)",
        (INCREMENTAL,),
    ),
    Mutant(
        "kept-epsilon-not-updated", "ranking.py",
        "self._kept.add(below_entry.metric)",
        "self._kept.value()",
        (INCREMENTAL,),
    ),
    # every criterion is a score against a bound, compared in one place
    Mutant(
        "stable-iff-score-strictly-below-bound", "ranking.py",
        "return score <= (",
        "return score < (",
        (
            "tests/test_ranking.py::TestSoftStability::test_identical_orders_stable",
            "tests/test_ranking.py::TestRbo::test_stability_thresholds",
        ),
    ),
    # refusals: a bool in a criterion's float field, methods sharing trace files
    Mutant(
        "bool-accepted-as-p", "ranking.py",
        "if isinstance(self.p, bool) or not",
        "if not",
        ("tests/test_ranking.py::TestCriterionSpelling::test_constructor_validation",),
    ),
    Mutant(
        "methods-allowed-to-share-trace-files", "experiment.py",
        "if other != method.name:",
        "if False:",
        (
            "tests/test_grouped_runs.py::TestRunCellsMatchesOneSimulatePerCell::"
            "test_methods_that_would_share_trace_files_are_refused",
        ),
    ),
    # each csv format stated once, in the library; INI values read literally
    Mutant(
        "csv-report-columns-swapped", "experiment.py",
        '    "metric_mean": lambda row: repr(row.metric_mean),\n'
        '    "metric_std": lambda row: repr(row.metric_std),\n',
        '    "metric_std": lambda row: repr(row.metric_std),\n'
        '    "metric_mean": lambda row: repr(row.metric_mean),\n',
        ("tests/test_report_digests.py::TestReportDigests::test_report_bytes_are_pinned",),
    ),
    Mutant(
        "crossings-csv-without-its-header", "benchgen.py",
        '["config_a,config_b,last_crossing", *rows]',
        "rows",
        ("tests/test_cli.py::TestCrossingsVerb",),
    ),
    Mutant(
        "config-values-interpolated", "cli.py",
        "configparser.ConfigParser(interpolation=None, ",
        "configparser.ConfigParser(",
        ("tests/test_cli.py::TestConfigFile::test_a_percent_in_a_value_is_read_literally",),
    ),
    # one refusal wrapper per config-file section, the first bad line named,
    # and one mask per method in the report fold
    Mutant(
        "section-wrapper-catches-value-errors-only", "cli.py",
        "except (UsageError, ValueError) as exc:\n            raise DataError(f\"config file [",
        "except ValueError as exc:\n            raise DataError(f\"config file [",
        (
            "tests/test_cli.py::TestConfigFile::"
            "test_a_bad_method_token_in_a_section_name_is_a_data_error_naming_it",
        ),
    ),
    Mutant(
        "duplicate-refusal-names-its-own-line", "cli.py",
        "if isinstance(exc, (configparser.DuplicateSectionError, configparser.DuplicateOptionError)):",
        "if False:",
        (
            "tests/test_cli.py::TestConfigFile::"
            "test_each_configparser_refusal_is_one_line_naming_the_file_once",
        ),
    ),
    Mutant(
        "fold-mask-takes-later-methods-too", "experiment.py",
        "mask = codes == slot",
        "mask = codes >= slot",
        ("tests/test_report_digests.py::TestReportDigests::test_report_bytes_are_pinned",),
    ),
    # one typed-record reader for benchmark tables and cells files
    Mutant(
        "array-pass-skips-the-row-check", "benchgen.py",
        "        if first_bad(*arrays) is None:\n            return arrays\n",
        "        return arrays\n",
        (
            "tests/test_benchgen.py::TestOnePassLoad::test_one_pass_and_row_by_row_agree",
            "tests/test_experiment.py::TestOnePassCells::"
            "test_one_pass_row_by_row_and_column_fold_agree",
        ),
    ),
    Mutant(
        "row-path-names-the-unparsable-record-first", "benchgen.py",
        "unparsed = exc  # a bad row read before it is named first",
        "raise",
        (
            "tests/test_benchgen.py::TestOnePassLoad::test_the_first_bad_record_in_file_order_is_named",
            "tests/test_experiment.py::TestCellsIO::test_the_first_bad_record_in_file_order_is_named",
        ),
    ),
)


def _apply(src: str, mutant: Mutant) -> None:
    path = os.path.join(src, "tunesim", mutant.file)
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(
            f"mutant {mutant.name}: its old text occurs {count} times in "
            f"src/tunesim/{mutant.file}, not once; re-express it: {mutant.old!r}"
        )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text.replace(mutant.old, mutant.new))


def _run(mutant: Mutant | None, tests: tuple[str, ...]) -> int:
    """pytest's exit status on the named tests, in a copy of the tree with
    the mutant's edit applied (none for the unedited copy)."""
    with tempfile.TemporaryDirectory(prefix="tunesim-mutant-") as work:
        for name in ("src", "tests"):
            shutil.copytree(
                os.path.join(ROOT, name), os.path.join(work, name),
                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"),
            )
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), work)
        src = os.path.join(work, "src")
        if mutant is not None:
            _apply(src, mutant)
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        command = [
            sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            f"--hypothesis-seed={HYPOTHESIS_SEED}", *tests,
        ]
        done = subprocess.run(
            command, cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
        if done.returncode not in (0, 1):  # not a test outcome: a bad id, a broken edit
            sys.stdout.write(done.stdout + done.stderr)
        return done.returncode


def main(argv: list[str]) -> int:
    names = {m.name for m in CATALOGUE}
    if len(names) != len(CATALOGUE):
        raise SystemExit("two mutants share a name")
    unknown = sorted(set(argv) - names)
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(unknown)}")
    chosen = [m for m in CATALOGUE if not argv or m.name in argv]
    tests = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
    status = _run(None, tests)
    if status != 0:
        print(f"the unedited tree fails its mutants' tests (pytest exit {status})")
        return 1
    survivors = []
    for mutant in chosen:
        start = time.perf_counter()
        status = _run(mutant, mutant.tests)
        verdict = "killed" if status == 1 else f"SURVIVED (pytest exit {status})"
        print(f"{verdict:28} {mutant.name} ({time.perf_counter() - start:.1f} s)", flush=True)
        if status != 1:
            survivors.append(mutant.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
