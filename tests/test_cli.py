"""Command-line interface: verbs, exit codes, config files, flag precedence."""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from tunesim import (
    CurveModel, DataError, FormatError, LearningCurveTable, MethodSpec, UsageError, generate, load,
    read_cells, save,
)
from tunesim.benchgen import FORMAT_MAGIC
from tunesim import cli
from tunesim.cli import _parse_seeds, main
from tunesim.core import InternalError
from tunesim.scheduler import MODES


@pytest.fixture
def bench(tmp_path):
    path = str(tmp_path / "bench.csv")
    save(generate(12, 9, CurveModel(crossing_horizon=2, head_count=4), 0), path)
    return path


class TestSeedLists:
    def test_comma_separated(self):
        assert _parse_seeds("0,1,2") == (0, 1, 2)
        assert _parse_seeds("5") == (5,)

    def test_inclusive_range(self):
        assert _parse_seeds("3..6") == (3, 4, 5, 6)
        assert _parse_seeds("0,4..6") == (0, 4, 5, 6)

    def test_rejects_garbage(self):
        from tunesim import UsageError

        with pytest.raises(UsageError):
            _parse_seeds("one,two")
        with pytest.raises(UsageError):
            _parse_seeds("")
        with pytest.raises(UsageError):
            _parse_seeds("5..3")


class TestGenerateVerb:
    def test_writes_a_loadable_benchmark(self, tmp_path, capsys):
        out = str(tmp_path / "bench.csv")
        code = main(
            ["generate", "--out", out, "--num-configs", "8", "--units", "9",
             "--seed", "3"]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        assert load(out) == generate(8, 9, CurveModel(), 3)

    def test_model_flags_reach_the_generator(self, tmp_path):
        out = str(tmp_path / "bench.csv")
        code = main(
            ["generate", "--out", out, "--num-configs", "4", "--units", "9",
             "--family", "exponential_saturation", "--cost-mean", "2.0",
             "--cost-spread", "0.0"]
        )
        assert code == 0
        table = load(out)
        assert all(c == 2.0 for c in table.costs[:, 0])

    def test_infeasible_noise_is_a_data_error(self, tmp_path, capsys):
        args = ["generate", "--out", str(tmp_path / "b.csv"), "--num-configs",
                "16", "--units", "27", "--noise-std", "0.01"]
        assert main(args) == 2
        assert "error:" in capsys.readouterr().err
        assert main(args + ["--hard"]) == 0

    def test_missing_required_flag_is_a_usage_error(self, tmp_path, capsys):
        assert main(["generate", "--out", str(tmp_path / "b.csv")]) == 1
        assert "error:" in capsys.readouterr().err


class TestRunVerb:
    @pytest.mark.parametrize("mode", MODES)
    def test_more_configs_than_the_table_holds_is_one_refusal_in_every_mode(
        self, bench, mode, capsys
    ):
        argv = ["run", "--benchmark", bench, "--method", mode, "--max-resource", "9"]
        assert main([*argv, "--num-configs", "30"]) == 2
        assert capsys.readouterr().err == (
            f"error: cell (method {mode!r}, scheduler seed 0, benchmark seed 0): "
            "asked for 30 draws from a universe of 12 configs\n"
        )

    def test_end_to_end_report_cells_and_reaggregation(self, bench, tmp_path, capsys):
        report_path = str(tmp_path / "report.md")
        cells_path = str(tmp_path / "cells.csv")
        code = main(
            ["run", "--benchmark", bench, "--method", "asha", "--method",
             "one-epoch", "--max-resource", "9", "--num-configs", "12",
             "--seeds", "0..2", "--out", report_path, "--cells", cells_path]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        report_text = Path(report_path).read_text()
        assert report_text.startswith("| Method |")
        assert "| asha |" in report_text and "| one-epoch |" in report_text

        # the cells file carries no metric display name, so the header falls
        # back to "metric"; every number must survive the round trip though
        assert main(["report", "--cells", cells_path]) == 0
        again = capsys.readouterr().out
        assert again.splitlines()[0] == (
            "| Method | metric | Runtime | Speedup | Max resources | Repetitions |"
        )
        assert again.splitlines()[2:] == report_text.splitlines()[2:]

    def test_report_goes_to_stdout_without_out(self, bench, capsys):
        code = main(
            ["run", "--benchmark", bench, "--method", "one-epoch",
             "--max-resource", "9", "--num-configs", "12"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("| Method |")
        assert out.count("\n") == 3

    def test_csv_format(self, bench, capsys):
        code = main(
            ["run", "--benchmark", bench, "--method", "one-epoch",
             "--max-resource", "9", "--num-configs", "12", "--format", "csv"]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("method,repetitions,")

    def test_ranking_flag_fills_in_bare_progressive_methods(self, bench, capsys):
        code = main(
            ["run", "--benchmark", bench, "--method", "pasha", "--method",
             "pasha:direct", "--ranking", "soft:0.05", "--max-resource", "9",
             "--num-configs", "12"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "| pasha |" in out and "| pasha:direct |" in out

    def test_unknown_method_is_a_usage_error(self, bench, capsys):
        code = main(
            ["run", "--benchmark", bench, "--method", "sha",
             "--max-resource", "9", "--num-configs", "12"]
        )
        assert code == 1
        assert "unknown method" in capsys.readouterr().err

    def test_non_finite_soft_epsilon_is_a_usage_error(self, bench, capsys):
        code = main(
            ["run", "--benchmark", bench, "--method", "pasha:soft:nan",
             "--max-resource", "9", "--num-configs", "12"]
        )
        assert code == 1
        assert "epsilon must be finite" in capsys.readouterr().err

    def test_repeated_criterion_key_is_a_usage_error(self, bench, capsys):
        code = main(
            ["run", "--benchmark", bench, "--method", "pasha:rbo:p=0.9,p=0.5",
             "--max-resource", "9", "--num-configs", "12"]
        )
        assert code == 1
        assert "rbo parameter 'p' given twice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, seeds, message",
        [
            ("--seeds", "0,0,1", "seed 0 is listed more than once in the scheduler seeds"),
            ("--seeds", "0..2,1", "seed 1 is listed more than once in the scheduler seeds"),
            ("--bench-seeds", "2,2", "seed 2 is listed more than once in the benchmark seeds"),
            # random.Random(-1) draws as random.Random(1)
            ("--seeds", "-1,1", "scheduler seeds must be >= 0, got -1"),
            ("--seeds", "-1..1", "scheduler seeds must be >= 0, got -1"),
        ],
    )
    def test_repeated_seed_is_a_usage_error_before_any_table_loads(
        self, tmp_path, capsys, flag, seeds, message
    ):
        # the benchmark does not exist: loading it would be exit 2, not 1
        code = main(
            ["run", "--benchmark", str(tmp_path / "absent-{seed}.csv"), "--method", "asha",
             "--method", "random", "--max-resource", "9", "--num-configs", "12",
             f"{flag}={seeds}"]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_zero_num_configs_is_a_usage_error_before_any_table_loads(self, tmp_path, capsys):
        code = main(
            ["run", "--benchmark", str(tmp_path / "absent.csv"), "--method", "asha",
             "--max-resource", "9", "--num-configs", "0"]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: num_configs must be >= 1, got 0\n"

    def test_regret_on_a_minimize_table_names_the_cell(self, tmp_path, capsys):
        # metrics of a minimize table are negated on load, so relative regret
        # is undefined for them; the error must name the cell and criterion
        path = tmp_path / "flipped.csv"
        save(generate(27, 27, CurveModel(crossing_horizon=2, head_count=4), 0), str(path))
        path.write_text(path.read_text().replace("direction=maximize", "direction=minimize"))
        code = main(
            ["run", "--benchmark", str(path), "--method", "pasha:rrr",
             "--max-resource", "27", "--num-configs", "27"]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: cell (method 'pasha:rrr', scheduler seed 0, benchmark seed 0): "
            "ranking criterion 'rrr:p=1,t=0.05': "
            "relative regret is undefined for metrics <= 0\n"
        )

    def test_mean_distance_overflow_names_the_cell_and_criterion(self, tmp_path, capsys):
        # one config at 1.7e308, one at 0 and the rest at -1.7e308: the
        # consecutive gaps of a rung are finite, but their sum is not
        metrics = [[1.7e308 if i == 5 else 0.0 if i == 11 else -1.7e308] * 27 for i in range(27)]
        table = LearningCurveTable(range(27), metrics, np.ones((27, 27)), [m[-1] for m in metrics])
        path = str(tmp_path / "extreme.csv")
        save(table, path)
        code = main(
            ["run", "--benchmark", path, "--method", "pasha:soft-mean-dist", "--num-configs",
             "27", "--max-resource", "27", "--workers", "1", "--seeds", "0..19"]
        )
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        assert err.startswith("error: cell (method 'pasha:soft-mean-dist', scheduler seed 0, ")
        assert "ranking criterion 'soft-mean-dist': " in err

    @pytest.mark.parametrize(
        "extra, flag",
        [
            (["--method", "asha", "--pair-below-cap"], "--pair-below-cap"),
            (["--method", "asha", "--random-draws", "3"], "--random-draws"),
            (["--method", "random", "--pair-below-cap"], "--pair-below-cap"),
            (["--method", "pasha", "--random-draws", "3"], "--random-draws"),
        ],
    )
    def test_per_method_flag_without_its_mode_is_a_usage_error(
        self, bench, capsys, extra, flag
    ):
        code = main(
            ["run", "--benchmark", bench, "--max-resource", "9", "--num-configs", "12", *extra]
        )
        assert code == 1
        assert f"error: {flag} applies only to" in capsys.readouterr().err

    @pytest.mark.parametrize("methods", [["asha"], ["asha", "random", "one-epoch"]])
    def test_ranking_flag_without_a_pasha_method_is_a_usage_error(
        self, bench, capsys, methods
    ):
        tokens = [arg for m in methods for arg in ("--method", m)]
        code = main(
            ["run", "--benchmark", bench, "--max-resource", "9", "--num-configs", "12",
             *tokens, "--ranking", "soft:0.1"]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --ranking applies only to pasha methods; no pasha method given\n"
        )

    @pytest.mark.parametrize(
        "tokens", [["pasha:direct"], ["pasha:direct", "asha"], ["pasha:rbo", "pasha:soft:0.05"]]
    )
    def test_ranking_flag_when_every_pasha_method_names_its_own(self, bench, capsys, tokens):
        methods = [arg for m in tokens for arg in ("--method", m)]
        code = main(
            ["run", "--benchmark", bench, "--max-resource", "9", "--num-configs", "12",
             *methods, "--ranking", "soft:0.1"]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --ranking applies only to pasha methods without a criterion; "
            "every pasha method names its own\n"
        )

    def test_per_method_flags_with_their_modes_listed(self, bench, capsys):
        code = main(
            ["run", "--benchmark", bench, "--method", "asha", "--method", "pasha",
             "--method", "random", "--pair-below-cap", "--random-draws", "3",
             "--max-resource", "9", "--num-configs", "12"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "| pasha |" in out and "| random |" in out

    def test_zero_random_draws_is_refused_before_any_cell_runs(self, bench, tmp_path, capsys):
        traces = tmp_path / "traces"
        code = main(
            ["run", "--benchmark", bench, "--method", "asha", "--method", "random",
             "--random-draws", "0", "--max-resource", "9", "--num-configs", "12",
             "--traces", str(traces)]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: random_draws must be >= 1, got 0\n"
        assert not traces.exists()

    def test_imputation_overflow_is_a_data_error_naming_the_input(self, tmp_path, capsys):
        table = generate(12, 9, CurveModel(crossing_horizon=2, head_count=4), 0)
        table = dataclasses.replace(table, costs=np.full_like(table.costs, 1.7e308))
        for seed in (0, 1):
            save(table, str(tmp_path / f"b-{seed}.csv"))
        pattern = str(tmp_path / "b-{seed}.csv")
        code = main(
            ["run", "--benchmark", pattern, "--bench-seeds", "0,1,2", "--method", "random",
             "--max-resource", "9", "--num-configs", "12"]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: cannot impute seeds [2] of {pattern!r} from the mean of seeds [0, 1]: "
            f"the sum of config {table.ids[0]}'s cost at unit 1 overflows a float\n"
        )

    def test_a_bad_line_names_its_benchmark_file(self, tmp_path, capsys):
        pattern = str(tmp_path / "s-{seed}.csv")
        for seed in (0, 1):
            save(generate(12, 9, CurveModel(crossing_horizon=2, head_count=4), seed),
                 pattern.replace("{seed}", str(seed)))
        bad = Path(pattern.replace("{seed}", "1"))
        lines = bad.read_text().split("\n")
        fields = lines[11].split(",")  # file line 12
        fields[2] = "x" + fields[2]
        lines[11] = ",".join(fields)
        bad.write_text("\n".join(lines))
        code = main(["run", "--benchmark", pattern, "--bench-seeds", "0,1", "--method", "asha",
                     "--max-resource", "9", "--num-configs", "12"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: line 12: could not convert string to float: {fields[2]!r}\n"
        )

    def test_no_method_anywhere_is_a_usage_error(self, bench, capsys):
        code = main(["run", "--benchmark", bench, "--max-resource", "9", "--num-configs", "12"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: give at least one --method or a config file with methods\n"
        )

    def test_missing_benchmark_flag(self, capsys):
        code = main(["run", "--method", "asha", "--max-resource", "9",
                     "--num-configs", "12"])
        assert code == 1
        assert "--benchmark is required" in capsys.readouterr().err

    def test_nonexistent_benchmark_file(self, tmp_path, capsys):
        code = main(
            ["run", "--benchmark", str(tmp_path / "ghost.csv"), "--method",
             "asha", "--max-resource", "9", "--num-configs", "12"]
        )
        assert code == 2

    def test_bad_reduction_factor(self, bench, capsys):
        code = main(
            ["run", "--benchmark", bench, "--method", "asha", "--eta", "1",
             "--max-resource", "9", "--num-configs", "12"]
        )
        assert code == 1
        assert "reduction_factor" in capsys.readouterr().err

    def test_seed_grid_multiplies_cells(self, bench, tmp_path):
        cells_path = str(tmp_path / "cells.csv")
        code = main(
            ["run", "--benchmark", bench, "--method", "asha", "--method",
             "random", "--max-resource", "9", "--num-configs", "12",
             "--seeds", "0..4", "--cells", cells_path]
        )
        assert code == 0
        with open(cells_path) as handle:
            rows = [line for line in handle.read().splitlines()[1:] if line]
        assert len(rows) == 2 * 5

    def test_traces_directory_is_populated(self, bench, tmp_path):
        traces = tmp_path / "traces"
        code = main(
            ["run", "--benchmark", bench, "--method", "asha",
             "--max-resource", "9", "--num-configs", "12",
             "--traces", str(traces)]
        )
        assert code == 0
        assert list(traces.glob("asha-s0-b0.trace"))


class TestConfigFile:
    def write_config(self, tmp_path, bench, extra=""):
        path = tmp_path / "experiment.ini"
        path.write_text(
            "[experiment]\n"
            f"benchmark = {bench}\n"
            "max-resource = 9\n"
            "num-configs = 12\n"
            "seeds = 0,1\n"
            "\n"
            "[method:asha]\n"
            "\n"
            "[method:pasha]\n"
            "ranking = soft:0.05\n"
            + extra
        )
        return str(path)

    def test_config_file_drives_the_run(self, bench, tmp_path, capsys):
        config = self.write_config(tmp_path, bench)
        assert main(["run", "--config", config]) == 0
        out = capsys.readouterr().out
        assert "| asha |" in out and "| pasha |" in out

    def test_cli_methods_override_file_methods(self, bench, tmp_path, capsys):
        config = self.write_config(tmp_path, bench)
        assert main(["run", "--config", config, "--method", "one-epoch"]) == 0
        out = capsys.readouterr().out
        assert "| one-epoch |" in out
        assert "| asha |" not in out

    def test_cli_flags_override_file_settings(self, bench, tmp_path):
        config = self.write_config(tmp_path, bench)
        # file says max-resource 9; the flag forces 81 over a 9-unit table
        code = main(["run", "--config", config, "--max-resource", "81"])
        assert code == 2

    def test_method_options_in_sections(self, bench, tmp_path, capsys):
        config = self.write_config(
            tmp_path, bench,
            "\n[method:random]\nrandom-draws = 3\n",
        )
        assert main(["run", "--config", config]) == 0
        assert "| random |" in capsys.readouterr().out

    @pytest.mark.parametrize("draws", ["0", "x"])
    def test_bad_random_draws_is_a_data_error_naming_the_section(
        self, bench, tmp_path, capsys, draws
    ):
        config = self.write_config(tmp_path, bench, f"\n[method:random]\nrandom-draws = {draws}\n")
        assert main(["run", "--config", config]) == 2
        assert capsys.readouterr().err.startswith("error: config file [method:random]: ")

    def test_unknown_section_is_a_data_error(self, bench, tmp_path, capsys):
        config = self.write_config(tmp_path, bench, "\n[mystery]\nx = 1\n")
        assert main(["run", "--config", config]) == 2
        assert "unknown section" in capsys.readouterr().err

    @pytest.mark.parametrize("default", ["[DEFAULT]\nworkers = 2\n", "[DEFAULT]\n"])
    def test_a_default_section_is_an_unknown_section(self, bench, tmp_path, capsys, default):
        # configparser would otherwise copy its keys into every section
        path = Path(self.write_config(tmp_path, bench))
        path.write_text(default + "\n" + path.read_text())
        assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "error: config file: unknown section [DEFAULT]\n"

    def test_unknown_method_key_is_a_data_error(self, bench, tmp_path, capsys):
        config = self.write_config(
            tmp_path, bench, "\n[method:one-epoch]\nworkers = 2\n"
        )
        assert main(["run", "--config", config]) == 2
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line", ["worker = 4", "pair-below-cap = yes", "random-draws = 3"]
    )
    def test_unknown_experiment_key_is_a_data_error(self, bench, tmp_path, capsys, line):
        config = self.write_config(tmp_path, bench)
        path = tmp_path / "experiment.ini"
        path.write_text(path.read_text().replace("[experiment]\n", f"[experiment]\n{line}\n"))
        assert main(["run", "--config", config]) == 2
        key = line.split(" = ")[0]
        assert f"config file [experiment]: unknown key {key!r}" in capsys.readouterr().err

    def test_every_run_setting_is_an_experiment_key(self, bench, tmp_path, capsys):
        out, cells, traces = (str(tmp_path / name) for name in ("r.csv", "c.csv", "t"))
        path = tmp_path / "all.ini"
        path.write_text(
            "[experiment]\n"
            f"benchmark = {bench}\nranking = direct\neta = 2\nmin-resource = 2\n"
            "max-resource = 8\nnum-configs = 12\nworkers = 3\nseeds = 0..2\n"
            f"bench-seeds = 0\nout = {out}\nformat = csv\ncells = {cells}\n"
            f"traces = {traces}\n\n[method:pasha]\n"
        )
        assert main(["run", "--config", str(path)]) == 0
        assert capsys.readouterr().out == f"wrote {out}\n"
        assert Path(out).read_text().startswith("method,")
        rows = Path(cells).read_text().splitlines()
        assert len(rows) == 1 + 3
        assert len(os.listdir(traces)) == 3

    def test_bad_setting_value_is_a_data_error(self, bench, tmp_path, capsys):
        config = self.write_config(tmp_path, bench)
        path = tmp_path / "experiment.ini"
        path.write_text(path.read_text().replace("seeds = 0,1", "seeds = zero"))
        assert main(["run", "--config", config]) == 2
        assert "config file seeds:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("seeds = 0..2,1", "seed 1 is listed more than once in the scheduler seeds"),
            ("bench-seeds = 0,0", "seed 0 is listed more than once in the benchmark seeds"),
            ("seeds = -1,1", "scheduler seeds must be >= 0, got -1"),
        ],
    )
    def test_repeated_seed_in_the_file_is_a_usage_error(
        self, bench, tmp_path, capsys, line, message
    ):
        config = self.write_config(tmp_path, bench)
        path = tmp_path / "experiment.ini"
        path.write_text(path.read_text().replace("seeds = 0,1\n", line + "\n"))
        assert main(["run", "--config", config]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_zero_num_configs_in_the_file_is_a_usage_error_before_any_table_loads(
        self, tmp_path, capsys
    ):
        config = self.write_config(tmp_path, str(tmp_path / "absent.csv"))
        path = tmp_path / "experiment.ini"
        path.write_text(path.read_text().replace("num-configs = 12\n", "num-configs = 0\n"))
        assert main(["run", "--config", config]) == 1
        assert capsys.readouterr().err == "error: num_configs must be >= 1, got 0\n"

    def test_required_setting_missing_from_flag_and_file(self, bench, tmp_path, capsys):
        config = self.write_config(tmp_path, bench)
        path = tmp_path / "experiment.ini"
        path.write_text(path.read_text().replace("num-configs = 12\n", ""))
        assert main(["run", "--config", config]) == 1
        assert "--num-configs is required (flag or config file)" in capsys.readouterr().err
        assert main(["run", "--config", config, "--num-configs", "12"]) == 0

    def test_ranking_on_a_fixed_mode_is_refused(self, bench, tmp_path, capsys):
        config = self.write_config(
            tmp_path, bench, "\n[method:one-epoch]\nranking = direct\n"
        )
        assert main(["run", "--config", config]) == 2
        assert "takes no ranking" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode, line",
        [
            ("asha", "pair-below-cap = true"),
            ("asha", "random-draws = 5"),
            ("one-epoch", "pair-below-cap = false"),
            ("no-increase", "random-draws = 2"),
            ("random", "pair-below-cap = yes"),
            ("random", "ranking = direct"),
            ("pasha", "random-draws = 3"),
        ],
    )
    def test_per_method_key_outside_its_mode_is_a_data_error(
        self, bench, tmp_path, capsys, mode, line
    ):
        config = self.write_config(tmp_path, bench)
        path = tmp_path / "experiment.ini"
        text = path.read_text()
        section = f"[method:{mode}]\n"
        if section in text:
            text = text.replace(section, f"{section}{line}\n")
        else:
            text += f"\n{section}{line}\n"
        path.write_text(text)
        assert main(["run", "--config", config]) == 2
        key = line.split(" = ")[0]
        assert f"config file [method:{mode}]: {mode!r} takes no {key}" in capsys.readouterr().err

    def test_experiment_ranking_without_a_pasha_method_is_a_usage_error(
        self, bench, tmp_path, capsys
    ):
        path = tmp_path / "asha.ini"
        path.write_text(
            f"[experiment]\nbenchmark = {bench}\nranking = soft:0.1\n"
            "max-resource = 9\nnum-configs = 12\n\n[method:asha]\n"
        )
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: config file ranking applies only to pasha methods; no pasha method given\n"
        )
        # the flags' methods replace the file's, so the file's ranking then fits none
        config = self.write_config(tmp_path, bench)
        text = (tmp_path / "experiment.ini").read_text()
        (tmp_path / "experiment.ini").write_text(
            text.replace("[experiment]\n", "[experiment]\nranking = direct\n")
        )
        assert main(["run", "--config", config, "--method", "asha"]) == 1
        assert "config file ranking applies only to pasha" in capsys.readouterr().err
        assert main(["run", "--config", config, "--method", "pasha"]) == 0

    def test_experiment_ranking_when_every_pasha_section_names_its_own(
        self, bench, tmp_path, capsys
    ):
        # write_config's only pasha section sets its own ranking
        config = self.write_config(tmp_path, bench)
        path = tmp_path / "experiment.ini"
        path.write_text(path.read_text().replace("[experiment]\n", "[experiment]\nranking = rbo\n"))
        assert main(["run", "--config", config]) == 1
        assert capsys.readouterr().err == (
            "error: config file ranking applies only to pasha methods without a criterion; "
            "every pasha method names its own\n"
        )
        assert main(["run", "--config", config, "--method", "pasha:direct"]) == 1
        assert "config file ranking applies only to pasha" in capsys.readouterr().err
        assert main(["run", "--config", config, "--method", "pasha"]) == 0

    def test_pair_below_cap_in_a_pasha_section(self, bench, tmp_path, capsys):
        config = self.write_config(tmp_path, bench, "pair-below-cap = true\n")
        assert main(["run", "--config", config]) == 0
        assert "| pasha |" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "extra", [["--pair-below-cap"], ["--random-draws", "3"]]
    )
    def test_per_method_flag_without_a_method_flag_is_a_usage_error(
        self, bench, tmp_path, capsys, extra
    ):
        config = self.write_config(tmp_path, bench, "\n[method:random]\n")
        assert main(["run", "--config", config, *extra]) == 1
        assert f"error: {extra[0]} applies only to" in capsys.readouterr().err

    def test_ranking_in_a_section_that_names_its_criterion_is_refused(
        self, bench, tmp_path, capsys
    ):
        config = self.write_config(
            tmp_path, bench, "\n[method:pasha:soft:0.025]\nranking = always-unstable\n"
        )
        assert main(["run", "--config", config]) == 2
        assert capsys.readouterr().err == (
            "error: config file [method:pasha:soft:0.025]: the section names criterion "
            "'soft:0.025', so it takes no ranking\n"
        )

    def test_a_file_that_is_not_utf8_is_a_data_error_naming_it(self, bench, tmp_path, capsys):
        config = self.write_config(tmp_path, bench)
        with open(config, "ab") as handle:
            handle.write(b"# caf\xe9\n")
        assert main(["run", "--config", config]) == 2
        assert capsys.readouterr().err == (
            f"error: config file {config}: not UTF-8 text (invalid continuation byte)\n"
        )

    def test_a_file_without_method_sections_and_no_method_flag_is_a_usage_error(
        self, bench, tmp_path, capsys
    ):
        path = tmp_path / "experiment.ini"
        path.write_text(f"[experiment]\nbenchmark = {bench}\nmax-resource = 9\nnum-configs = 12\n")
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: give at least one --method or a config file with methods\n"
        )

    def test_a_file_configparser_refuses_is_a_data_error_naming_it(self, bench, tmp_path, capsys):
        config = self.write_config(tmp_path, bench, "[experiment]\nworkers = 2\n")
        assert main(["run", "--config", config]) == 2
        assert capsys.readouterr().err == (
            f"error: config file {config}: line 11: section 'experiment' already exists\n"
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "[experiment]\nseeds = 0\nseeds = 1\n",
                "line 3: option 'seeds' in section 'experiment' already exists",
            ),
            (
                "[experiment]\nseeds = 0\n\nworkers\n",
                "line 4: not a [section] header or a key = value line",
            ),
            (
                "# no section\n\nseeds = 0\n[experiment]\n",
                "line 3: 'seeds = 0' comes before any [section] header",
            ),
            (
                "[experiment]\nbad line\n[experiment]\n",
                "line 2: not a [section] header or a key = value line",
            ),
            (
                "[experiment]\nbad line\nseeds = 0\nseeds = 1\n",
                "line 2: not a [section] header or a key = value line",
            ),
        ],
        ids=[
            "repeated-option", "line-without-equals", "no-section-header",
            "bad-line-before-a-repeated-section", "bad-line-before-a-repeated-option",
        ],
    )
    def test_each_configparser_refusal_is_one_line_naming_the_file_once(
        self, tmp_path, capsys, text, message
    ):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: config file {path}: {message}\n"

    @pytest.mark.parametrize("name", ["r%.md", "%(num-configs)s.md"])
    def test_a_percent_in_a_value_is_read_literally(self, bench, tmp_path, capsys, name):
        out = tmp_path / name
        config = self.write_config(tmp_path, bench)
        path = tmp_path / "experiment.ini"
        path.write_text(path.read_text().replace("[experiment]\n", f"[experiment]\nout = {out}\n"))
        assert main(["run", "--config", config]) == 0
        assert capsys.readouterr().out == f"wrote {out}\n"
        assert "| pasha |" in out.read_text()
        assert sorted(os.listdir(tmp_path)) == sorted(["bench.csv", "experiment.ini", name])

    def test_a_percent_in_a_method_value_reaches_its_parser(self, bench, tmp_path, capsys):
        config = self.write_config(tmp_path, bench)
        path = tmp_path / "experiment.ini"
        path.write_text(path.read_text().replace("soft:0.05", "soft:0.1%"))
        assert main(["run", "--config", config]) == 2
        assert capsys.readouterr().err == (
            "error: config file [method:pasha]: bad criterion spelling 'soft:0.1%': "
            "could not convert string to float: '0.1%'\n"
        )

    @pytest.mark.parametrize("section", ["method:bogus", "method:pasha:bogus"])
    def test_a_bad_method_token_in_a_section_name_is_a_data_error_naming_it(
        self, bench, tmp_path, capsys, section
    ):
        config = self.write_config(tmp_path, bench, f"\n[{section}]\n")
        with pytest.raises(UsageError) as parsed:
            MethodSpec.parse(section[len("method:"):])
        assert main(["run", "--config", config]) == 2
        assert capsys.readouterr().err == f"error: config file [{section}]: {parsed.value}\n"

    def test_a_bad_experiment_ranking_is_the_files_refusal(self, bench, tmp_path, capsys):
        config = self.write_config(tmp_path, bench)
        path = tmp_path / "experiment.ini"
        text = path.read_text().replace("ranking = soft:0.05\n", "")
        path.write_text(text.replace("[experiment]\n", "[experiment]\nranking = soft:0.1%\n"))
        spelling = "bad criterion spelling 'soft:0.1%': could not convert string to float: '0.1%'"
        assert main(["run", "--config", config]) == 2
        assert capsys.readouterr().err == f"error: config file ranking: {spelling}\n"
        # the flag beats the file's value, and a bad flag stays a usage error
        assert main(["run", "--config", config, "--ranking", "soft:0.1%"]) == 1
        assert capsys.readouterr().err == f"error: {spelling}\n"

    def test_a_bad_experiment_format_is_the_files_refusal(self, bench, tmp_path, capsys):
        config = self.write_config(tmp_path, bench)
        path = tmp_path / "experiment.ini"
        path.write_text(path.read_text().replace("[experiment]\n", "[experiment]\nformat = xml\n"))
        assert main(["run", "--config", config]) == 2
        assert capsys.readouterr().err == (
            "error: config file format: unknown report format 'xml'; expected one of markdown, csv\n"
        )
        # the flag beats the file's value
        assert main(["run", "--config", config, "--format", "csv"]) == 0
        assert capsys.readouterr().out.startswith("method,")

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "ghost.ini")]) == 2


class TestReportVerb:
    def test_missing_cells_file(self, tmp_path):
        assert main(["report", "--cells", str(tmp_path / "ghost.csv")]) == 2

    def test_format_switch(self, bench, tmp_path, capsys):
        cells_path = str(tmp_path / "cells.csv")
        main(["run", "--benchmark", bench, "--method", "one-epoch",
              "--max-resource", "9", "--num-configs", "12",
              "--cells", cells_path])
        capsys.readouterr()
        assert main(["report", "--cells", cells_path, "--format", "csv"]) == 0
        assert capsys.readouterr().out.startswith("method,")

    @pytest.mark.parametrize("metric, runtime", [("nan", "1.0"), ("0.9", "inf"), ("-inf", "1.0")])
    def test_non_finite_cell_is_a_data_error_naming_its_line(
        self, tmp_path, capsys, metric, runtime
    ):
        path = tmp_path / "cells.csv"
        path.write_text(
            "method,scheduler_seed,benchmark_seed,metric,runtime_s,max_resources,units,jobs\n"
            "asha,0,0,0.8,2.0,9,10,5\n"
            f"asha,1,0,{metric},{runtime},9,10,5\n"
        )
        assert main(["report", "--cells", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}:3: non-finite" in err and "Traceback" not in err

    def test_a_file_that_is_not_utf8_is_a_data_error_naming_it(self, tmp_path, capsys):
        path = tmp_path / "cells.csv"
        path.write_bytes(
            b"method,scheduler_seed,benchmark_seed,metric,runtime_s,max_resources,units,jobs\n"
            b"asha,0,0,0.8,2.0,9,10,5\n\xff\n"
        )
        assert main(["report", "--cells", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: not UTF-8 text (invalid start byte)\n"
        with pytest.raises(DataError, match="not UTF-8 text"):
            read_cells(str(path))

    def test_max_resources_beyond_float_range_is_a_data_error_naming_the_method(
        self, tmp_path, capsys
    ):
        """A 400-digit integer reads as a Python int but cannot be averaged as
        a float; the report refuses it as bad data, not with a traceback."""
        path = tmp_path / "cells.csv"
        path.write_text(
            "method,scheduler_seed,benchmark_seed,metric,runtime_s,max_resources,units,jobs\n"
            f"asha,0,0,0.8,2.0,{'9' * 400},10,5\n"
        )
        assert main(["report", "--cells", str(path)]) == 2
        err = capsys.readouterr().err
        assert "method 'asha' has a cell whose max resource overflows a float" in err
        assert "Traceback" not in err

    def test_metric_sum_beyond_float_range_is_a_data_error_naming_the_method(
        self, tmp_path, capsys
    ):
        """Two finite 1e308 metrics sum past the largest float."""
        path = tmp_path / "cells.csv"
        path.write_text(
            "method,scheduler_seed,benchmark_seed,metric,runtime_s,max_resources,units,jobs\n"
            "asha,0,0,0.5,2.0,9,10,5\n"
            "pasha,0,0,1e308,2.0,9,10,5\n"
            "pasha,1,0,1e308,2.0,9,10,5\n"
        )
        assert main(["report", "--cells", str(path)]) == 2
        err = capsys.readouterr().err
        assert "method 'pasha': the mean or std of its metric overflows a float" in err
        assert "Traceback" not in err

    def test_metric_sum_within_float_range_is_reported_in_either_order(self, tmp_path, capsys):
        """1e308 + 1e308 - 1e308 is 1e308 in any order, though a running sum
        of the first order overflows: both orders give the same report."""
        outs = []
        for metrics in (("1e308", "1e308", "-1e308"), ("1e308", "-1e308", "1e308")):
            path = tmp_path / "cells.csv"
            path.write_text(
                "method,scheduler_seed,benchmark_seed,metric,runtime_s,max_resources,units,jobs\n"
                "asha,0,0,0.5,2.0,9,10,5\n"
                + "".join(f"pasha,{i},0,{m},2.0,9,10,5\n" for i, m in enumerate(metrics))
            )
            assert main(["report", "--cells", str(path), "--format", "csv"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        header, _, pasha = (line.split(",") for line in outs[0].splitlines())
        row = dict(zip(header, pasha))
        assert row["method"] == "pasha" and row["metric_mean"] == repr(1e308 / 3)


    def test_field_over_the_csv_limit_is_a_data_error_naming_its_line(self, tmp_path, capsys):
        """csv.reader refuses a field over its limit (131,072 characters by
        default); the refusal names the record's line instead of escaping as
        a traceback, and the limit, global to the process, stays as it is."""
        path = tmp_path / "cells.csv"
        path.write_text(
            "method,scheduler_seed,benchmark_seed,metric,runtime_s,max_resources,units,jobs\n"
            "asha,0,0,0.8,2.0,9,10,5\n"
            f"{'m' * 200_000},1,0,0.9,1.0,9,10,5\n"
        )
        with pytest.raises(DataError, match=r"cells\.csv:3: field larger than field limit"):
            read_cells(str(path))
        assert main(["report", "--cells", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}:3: field larger than field limit" in err and "Traceback" not in err

    def test_numeric_field_over_the_csv_limit_is_a_data_error_naming_its_line(
        self, tmp_path, capsys
    ):
        """A metric spelled with 200,000 digits is a float numpy reads, but a
        field csv.reader refuses; the one-pass parser leaves it to that reader."""
        path = tmp_path / "cells.csv"
        path.write_text(
            "method,scheduler_seed,benchmark_seed,metric,runtime_s,max_resources,units,jobs\n"
            "asha,0,0,0.8,2.0,9,10,5\n"
            f"asha,1,0,0.{'5' * 200_000},1.0,9,10,5\n"
        )
        with pytest.raises(DataError, match=r"cells\.csv:3: field larger than field limit"):
            read_cells(str(path))
        assert main(["report", "--cells", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{path}:3: field larger than field limit" in err and "Traceback" not in err

    def test_a_header_over_the_csv_limit_is_a_data_error_naming_line_1(self, tmp_path, capsys):
        path = tmp_path / "cells.csv"
        path.write_text(f"{'m' * 200_000}\nasha,0,0,0.8,2.0,9,10,5\n")
        assert main(["report", "--cells", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:1: field larger than field limit")
        assert "Traceback" not in err


class TestCrossingsVerb:
    def test_reports_pairs_to_stdout(self, bench, capsys):
        assert main(["crossings", "--benchmark", bench]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "config_a,config_b,last_crossing"
        from tunesim import crossing_report

        expected = crossing_report(load(bench))
        assert len(lines) - 1 == len(expected)
        for ((a, b), level), line in zip(expected, lines[1:]):
            assert line == f"{a},{b},{level}"

    def test_out_file(self, bench, tmp_path, capsys):
        out = str(tmp_path / "crossings.csv")
        assert main(["crossings", "--benchmark", bench, "--out", out]) == 0
        assert Path(out).read_text().startswith("config_a,")

    def test_a_table_with_no_crossing_writes_only_the_header(self, tmp_path, capsys):
        path = str(tmp_path / "ordered.csv")
        save(generate(12, 9, CurveModel(crossing_horizon=1, head_count=4), 0), path)
        assert main(["crossings", "--benchmark", path]) == 0
        assert capsys.readouterr().out == "config_a,config_b,last_crossing\n"


    def test_field_over_the_csv_limit_on_the_row_reader_names_its_line(self, tmp_path, capsys):
        """An id only Python reads (`1_0`) sends the file to the row-by-row
        reader, whose csv.reader refuses the long payload on line 7."""
        path = tmp_path / "bench.csv"
        path.write_text(
            FORMAT_MAGIC + "\nunits=1\ndirection=maximize\nconfigs=2\n\n"
            f"1_0,,0.5,1.0,0.5\n2,{'p' * 200_000},0.25,1.0,0.25\n"
        )
        with pytest.raises(FormatError, match="line 7: field larger than field limit"):
            load(str(path))
        assert main(["crossings", "--benchmark", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 7: field larger than field limit" in err and "Traceback" not in err

    def test_field_over_the_csv_limit_is_refused_without_an_unrelated_bad_line(
        self, tmp_path, capsys
    ):
        """numpy has no field limit, so the one-pass parser leaves a file
        holding a field that could exceed csv's to the row-by-row reader:
        the long payload is refused whether or not another line is one only
        that reader reads."""
        path = tmp_path / "bench.csv"
        path.write_text(
            FORMAT_MAGIC + "\nunits=1\ndirection=maximize\nconfigs=2\n\n"
            f"1,,0.5,1.0,0.5\n2,{'p' * 200_000},0.25,1.0,0.25\n"
        )
        with pytest.raises(FormatError, match="line 7: field larger than field limit"):
            load(str(path))
        assert main(["crossings", "--benchmark", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 7: field larger than field limit" in err and "Traceback" not in err

    def test_a_file_that_is_not_utf8_is_a_data_error_naming_it(self, bench, capsys):
        data = bytearray(Path(bench).read_bytes())
        data[300] = 0xFF
        Path(bench).write_bytes(bytes(data))
        assert main(["crossings", "--benchmark", bench]) == 2
        assert capsys.readouterr().err == f"error: {bench}: not UTF-8 text (invalid start byte)\n"

    def test_missing_file(self, tmp_path):
        assert main(["crossings", "--benchmark", str(tmp_path / "ghost.csv")]) == 2

    def test_a_header_of_zero_units_is_a_data_error_naming_the_file(self, bench, capsys):
        text = Path(bench).read_text()
        assert "\nunits=9\n" in text
        Path(bench).write_text(text.replace("\nunits=9\n", "\nunits=0\n"))
        assert main(["crossings", "--benchmark", bench]) == 2
        assert capsys.readouterr().err == f"error: {bench}: header: units must be >= 1, got 0\n"


class TestInternalErrors:
    def test_an_internal_error_is_exit_3_with_its_own_prefix(self, bench, capsys):
        """An InternalError is a bug, not bad input: exit 3, and the callee's
        message after "internal error:" instead of "error:"."""
        bug = InternalError("configs [3] present in the top rung but missing below")
        with mock.patch.object(cli, "crossing_report", side_effect=bug) as called:
            assert main(["crossings", "--benchmark", bench]) == 3
        assert called.call_count == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"internal error: {bug}\n"
