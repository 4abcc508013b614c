"""The command-line surface, pinned: every verb's options with their
destinations, defaults, required flags, choices and help texts, the types its
values parse to, and the path from generate's model flags to CurveModel."""

from __future__ import annotations

import argparse
import dataclasses

import pytest

from tunesim import CurveModel, generate, save
from tunesim.cli import _build_parser, main

FORMATS = ("markdown", "csv")
FAMILIES = ("power_law", "exponential_saturation")

# option -> (dest, default, required, choices, help, metavar)
SURFACE = {
    "generate": {
        "--out": ("out", None, True, None, "output benchmark path", None),
        "--num-configs": ("num_configs", None, True, None, None, None),
        "--units": ("units", None, True, None, "curve length U", None),
        "--seed": ("seed", 0, False, None, None, None),
        "--family": ("family", None, False, FAMILIES, None, None),
        "--crossing-horizon": ("crossing_horizon", None, False, None, None, None),
        "--noise-std": ("noise_std", None, False, None, None, None),
        "--hard": ("hard", None, False, None,
                   "accept noise levels that may reorder curves late", None),
        "--top-metric": ("top_metric", None, False, None, None, None),
        "--head-count": ("head_count", None, False, None, None, None),
        "--head-gap": ("head_gap", None, False, None, None, None),
        "--head-jitter": ("head_jitter", None, False, None, None, None),
        "--gap-scale": ("gap_scale", None, False, None, None, None),
        "--tail-theta": ("tail_theta", None, False, None, None, None),
        "--decay": ("decay", None, False, None, None, None),
        "--early-scale": ("early_scale", None, False, None, None, None),
        "--damp-lo": ("damp_lo", None, False, None, None, None),
        "--damp-hi": ("damp_hi", None, False, None, None, None),
        "--cost-mean": ("cost_mean", None, False, None, None, None),
        "--cost-spread": ("cost_spread", None, False, None, None, None),
    },
    "run": {
        "--config": ("config", None, False, None,
                     "INI experiment file; flags override it", None),
        "--benchmark": ("benchmark", None, False, None,
                        "benchmark path; {seed} expands per benchmark seed", None),
        "--method": ("methods", None, False, None,
                     "mode[:criterion], e.g. asha or pasha:soft:0.025; repeatable",
                     "TOKEN"),
        "--ranking": ("ranking", None, False, None,
                      "criterion for pasha methods given without one", None),
        "--eta": ("eta", None, False, None, "reduction factor (default 3)", None),
        "--min-resource": ("min_resource", None, False, None,
                           "rung 0 resource (default 1)", None),
        "--max-resource": ("max_resource", None, False, None,
                           "safety-net resource cap", None),
        "--num-configs": ("num_configs", None, False, None, None, None),
        "--workers": ("workers", None, False, None, None, None),
        "--seeds": ("seeds", None, False, None,
                    "scheduler seeds, e.g. 0,1,2 or 0..4", None),
        "--bench-seeds": ("bench_seeds", None, False, None,
                          "benchmark seeds (same syntax)", None),
        "--random-draws": ("random_draws", None, False, None,
                           "candidate pool size for random methods", None),
        "--pair-below-cap": ("pair_below_cap", None, False, None,
                             "compare the two rungs beneath the cap instead", None),
        "--out": ("out", None, False, None,
                  "write the report here instead of stdout", None),
        "--format": ("format", None, False, FORMATS, None, None),
        "--cells": ("cells", None, False, None,
                    "also write per-run results to this csv", None),
        "--traces": ("traces", None, False, None,
                     "also write per-run event traces here", None),
    },
    "report": {
        "--cells": ("cells", None, True, None, None, None),
        "--format": ("format", "markdown", False, FORMATS, None, None),
        "--out": ("out", None, False, None, None, None),
    },
    "crossings": {
        "--benchmark": ("benchmark", None, True, None, None, None),
        "--out": ("out", None, False, None, None, None),
    },
}

# one command line per verb naming every option, and what each parses to
FULL_LINES = {
    "generate": (
        "--out b.csv --num-configs 8 --units 9 --seed 2 --family power_law "
        "--crossing-horizon 3 --noise-std 0.5 --hard --top-metric 0.5 "
        "--head-count 4 --head-gap 0.5 --head-jitter 0.5 --gap-scale 0.5 "
        "--tail-theta 0.5 --decay 0.5 --early-scale 0.5 --damp-lo 0.5 "
        "--damp-hi 0.5 --cost-mean 0.5 --cost-spread 0.5",
        dict(out="b.csv", num_configs=8, units=9, seed=2, family="power_law",
             crossing_horizon=3, noise_std=0.5, hard=True, top_metric=0.5,
             head_count=4, head_gap=0.5, head_jitter=0.5, gap_scale=0.5,
             tail_theta=0.5, decay=0.5, early_scale=0.5, damp_lo=0.5,
             damp_hi=0.5, cost_mean=0.5, cost_spread=0.5),
    ),
    "run": (
        "--config e.ini --benchmark b.csv --method asha --method pasha "
        "--ranking direct --eta 2 --min-resource 1 --max-resource 9 "
        "--num-configs 12 --workers 4 --seeds 0..2 --bench-seeds 3,5 "
        "--random-draws 6 --pair-below-cap --out r.md --format csv "
        "--cells c.csv --traces t",
        dict(config="e.ini", benchmark="b.csv", methods=["asha", "pasha"],
             ranking="direct", eta=2, min_resource=1, max_resource=9,
             num_configs=12, workers=4, seeds=(0, 1, 2), bench_seeds=(3, 5),
             random_draws=6, pair_below_cap=True, out="r.md", format="csv",
             cells="c.csv", traces="t"),
    ),
    "report": (
        "--cells c.csv --format csv --out r.csv",
        dict(cells="c.csv", format="csv", out="r.csv"),
    ),
    "crossings": (
        "--benchmark b.csv --out x.csv",
        dict(benchmark="b.csv", out="x.csv"),
    ),
}


def _verbs() -> dict[str, argparse.ArgumentParser]:
    (sub,) = [
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return sub.choices


def _typed(values: dict) -> dict:
    return {k: (type(v).__name__, v) for k, v in values.items()}


def test_verbs():
    assert sorted(_verbs()) == ["crossings", "generate", "report", "run"]


@pytest.mark.parametrize("verb", sorted(SURFACE))
def test_sorted_option_strings(verb):
    options = sorted(o for a in _verbs()[verb]._actions for o in a.option_strings)
    assert options == sorted(["-h", "--help", *SURFACE[verb]])


@pytest.mark.parametrize("verb", sorted(SURFACE))
def test_option_details(verb):
    actual = {
        a.option_strings[-1]: (a.dest, a.default, a.required, a.choices, a.help, a.metavar)
        for a in _verbs()[verb]._actions
        if a.dest != "help"
    }
    assert actual == SURFACE[verb]


def test_family_and_format_choices():
    verbs = _verbs()
    family = {a.dest: a.choices for a in verbs["generate"]._actions}["family"]
    assert tuple(family) == FAMILIES
    for verb in ("run", "report"):
        choices = {a.dest: a.choices for a in verbs[verb]._actions}["format"]
        assert tuple(choices) == FORMATS


@pytest.mark.parametrize("verb", sorted(FULL_LINES))
def test_every_option_parses_to_its_type(verb):
    line, expected = FULL_LINES[verb]
    args = vars(_build_parser().parse_args([verb, *line.split()]))
    args.pop("verb")
    assert _typed(args) == _typed(expected)


@pytest.mark.parametrize("verb", sorted(FULL_LINES))
def test_omitted_options_take_their_defaults(verb):
    required = [o for o, row in SURFACE[verb].items() if row[2]]
    line = []
    for option in required:
        line += [option, "1"]
    args = vars(_build_parser().parse_args([verb, *line]))
    for option, (dest, default, is_required, *_rest) in SURFACE[verb].items():
        if not is_required:
            assert args[dest] == default, option


def test_every_model_flag_reaches_the_generator(tmp_path):
    values = dict(
        family="exponential_saturation", crossing_horizon=4, noise_std=0.001,
        hard=True, top_metric=0.95, head_count=6, head_gap=0.02,
        head_jitter=0.004, gap_scale=0.04, tail_theta=0.4, decay=0.8,
        early_scale=0.03, damp_lo=0.1, damp_hi=0.3, cost_mean=2.0,
        cost_spread=0.2,
    )
    defaults = CurveModel()
    fields = dataclasses.fields(CurveModel)
    assert set(values) == {f.name for f in fields}
    assert all(values[f.name] != getattr(defaults, f.name) for f in fields)

    argv = ["generate", "--out", str(tmp_path / "cli.csv"), "--num-configs", "24",
            "--units", "9", "--seed", "5"]
    for name, value in values.items():
        flag = "--" + name.replace("_", "-")
        argv += [flag] if value is True else [flag, str(value)]
    assert main(argv) == 0
    save(generate(24, 9, CurveModel(**values), 5), str(tmp_path / "lib.csv"))
    assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()
