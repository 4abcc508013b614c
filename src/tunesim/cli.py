"""Command-line front end.

Verbs: generate (write a synthetic benchmark), run (execute an experiment),
report (re-aggregate a per-run cells file), crossings (curve-order
diagnostic). Exit codes: 0 success, 1 usage error, 2 data error, 3 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import itertools
import sys

from .benchgen import FAMILIES, CurveModel, crossing_report, crossings_csv, generate, load, save
from .core import DataError, InternalError, ResourceSpec, UsageError
from .experiment import (
    REPORT_FORMATS,
    ExperimentSpec,
    MethodSpec,
    _check_format,
    emit_report,
    report_cells,
    run_experiment,
)
from .ranking import RankingCriterion
from .scheduler import MODE_OPTIONS


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; route through UsageError
    instead so the documented exit-code contract holds."""

    def error(self, message):
        raise UsageError(message)


def _parse_seeds(text: str) -> tuple[int, ...]:
    """Comma-separated integers; "a..b" expands to the inclusive range."""
    seeds: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            if ".." in token:
                lo, hi = token.split("..", 1)
                start, stop = int(lo), int(hi)
                if stop < start:
                    raise UsageError(f"empty seed range {token!r}")
                seeds.extend(range(start, stop + 1))
            else:
                seeds.append(int(token))
        except ValueError as exc:
            raise UsageError(f"bad seed list {text!r}: {exc}") from exc
    if not seeds:
        raise UsageError(f"no seeds in {text!r}")
    return tuple(seeds)


# [experiment] keys (each its run flag without --) -> (type, default, help)
_SETTINGS = {
    "benchmark": (str, None, "benchmark path; {seed} expands per benchmark seed"),
    "ranking": (str, None, "criterion for pasha methods given without one"),
    "eta": (int, 3, "reduction factor (default 3)"),
    "min-resource": (int, 1, "rung 0 resource (default 1)"),
    "max-resource": (int, None, "safety-net resource cap"),
    "num-configs": (int, None, None),
    "workers": (int, 1, None),
    "seeds": (_parse_seeds, (0,), "scheduler seeds, e.g. 0,1,2 or 0..4"),
    "bench-seeds": (_parse_seeds, (0,), "benchmark seeds (same syntax)"),
    "out": (str, None, "write the report here instead of stdout"),
    "format": (str, "markdown", None),
    "cells": (str, None, "also write per-run results to this csv"),
    "traces": (str, None, "also write per-run event traces here"),
}
_REQUIRED = ("benchmark", "max-resource", "num-configs")
# [method:…] keys -> the one mode that takes each
_METHOD_KEYS = {
    "ranking": "pasha",
    **{name.replace("_", "-"): mode for name, (mode, _) in MODE_OPTIONS.items()},
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="tunesim", description=__doc__)
    verbs = parser.add_subparsers(dest="verb", required=True)

    gen = verbs.add_parser("generate", help="write a synthetic benchmark file")
    gen.add_argument("--out", required=True, help="output benchmark path")
    gen.add_argument("--num-configs", type=int, required=True)
    gen.add_argument("--units", type=int, required=True, help="curve length U")
    gen.add_argument("--seed", type=int, default=0)
    for field in dataclasses.fields(CurveModel):
        flag = "--" + field.name.replace("_", "-")
        if isinstance(field.default, bool):
            gen.add_argument(flag, action="store_true", default=None,
                             help="accept noise levels that may reorder curves late")
        else:
            gen.add_argument(flag, type=type(field.default),
                             choices=FAMILIES if field.name == "family" else None)

    run = verbs.add_parser("run", help="run an experiment grid")
    run.add_argument("--config", help="INI experiment file; flags override it")
    run.add_argument("--method", action="append", dest="methods", metavar="TOKEN",
                     help="mode[:criterion], e.g. asha or pasha:soft:0.025; repeatable")
    run.add_argument("--random-draws", type=int,
                     help="candidate pool size for random methods")
    run.add_argument("--pair-below-cap", action="store_true", default=None,
                     help="compare the two rungs beneath the cap instead")
    for key, (cast, _, text) in _SETTINGS.items():
        run.add_argument("--" + key, type=cast, help=text,
                         choices=REPORT_FORMATS if key == "format" else None)

    rep = verbs.add_parser("report", help="re-aggregate a per-run cells file")
    rep.add_argument("--cells", required=True)
    rep.add_argument("--format", choices=REPORT_FORMATS, default="markdown")
    rep.add_argument("--out")

    cross = verbs.add_parser("crossings", help="pairwise curve-order diagnostic")
    cross.add_argument("--benchmark", required=True)
    cross.add_argument("--out")
    return parser


def _write_output(text: str, out: str | None) -> int:
    """Write text to out, or print it when no path is given."""
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {out}")
    else:
        print(text, end="")
    return 0


def _generate_command(args) -> int:
    values = {f.name: getattr(args, f.name) for f in dataclasses.fields(CurveModel)}
    model = CurveModel(**{k: v for k, v in values.items() if v is not None})
    table = generate(args.num_configs, args.units, model, args.seed)
    save(table, args.out)
    print(f"wrote {args.out}: {args.num_configs} configs x {args.units} units")
    return 0


def _refusal(exc: configparser.Error, path: str) -> str:
    """A refusal of configparser's read of path as one line that names the
    first bad line, not the file, which configparser's own text names."""
    if isinstance(exc, (configparser.DuplicateSectionError, configparser.DuplicateOptionError)):
        # raised at once, while unparsable lines are held to the end: look above it
        with open(path, encoding="utf-8") as handle:
            above = list(itertools.islice(handle, exc.lineno - 1))
        try:
            configparser.RawConfigParser().read_file(above)
        except configparser.Error as earlier:
            exc = earlier
    if isinstance(exc, configparser.MissingSectionHeaderError):
        return f"line {exc.lineno}: {exc.line.strip()!r} comes before any [section] header"
    if isinstance(exc, configparser.ParsingError):
        return f"line {exc.errors[0][0]}: not a [section] header or a key = value line"
    if isinstance(exc, configparser.DuplicateSectionError):
        return f"line {exc.lineno}: section {exc.section!r} already exists"
    return f"line {exc.lineno}: option {exc.option!r} in section {exc.section!r} already exists"


def _read_experiment_file(path: str) -> tuple[dict[str, str], list[MethodSpec]]:
    # a value's % is a literal %; no header spells the default section, so a
    # [DEFAULT] is an unknown section like any other
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    try:
        found = parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise DataError(f"config file {path}: {_refusal(exc, path)}") from exc
    except UnicodeDecodeError as exc:  # no line: the decoder reads ahead
        raise DataError(f"config file {path}: not UTF-8 text ({exc.reason})") from exc
    if not found:
        raise DataError(f"config file {path!r} not found")
    settings: dict[str, str] = {}
    methods: list[MethodSpec] = []
    for section in parser.sections():
        if section == "experiment":
            known = _SETTINGS
        elif section.startswith("method:"):
            known = _METHOD_KEYS
        else:
            raise DataError(f"config file: unknown section [{section}]")
        options = parser[section]
        try:  # every refusal inside a section names the section
            for key in options:
                if key not in known:
                    raise ValueError(f"unknown key {key!r}")
            if section == "experiment":
                settings = dict(options)
                continue
            spec = MethodSpec.parse(section[len("method:"):].strip())
            for key in options:
                if _METHOD_KEYS[key] != spec.mode:
                    raise ValueError(f"{spec.mode!r} takes no {key}")
            below, draws = options.getboolean("pair-below-cap", False), options.getint("random-draws")
            spec = dataclasses.replace(spec, pair_below_cap=below, random_draws=draws)
            if "ranking" in options:
                if spec.criterion is not None:
                    named = spec.criterion.spelling()
                    raise ValueError(f"the section names criterion {named!r}, so it takes no ranking")
                spec = dataclasses.replace(spec, criterion=RankingCriterion.parse(options["ranking"]))
        except (UsageError, ValueError) as exc:
            raise DataError(f"config file [{section}]: {exc}") from exc
        methods.append(spec)
    return settings, methods


def _run_command(args) -> int:
    settings: dict[str, str] = {}
    file_methods: list[MethodSpec] = []
    if args.config:
        settings, file_methods = _read_experiment_file(args.config)

    # each setting: its flag beats the file's value beats its default
    values = {}
    for key, (cast, default, _) in _SETTINGS.items():
        value = getattr(args, key.replace("-", "_"))
        if value is None and key in settings:
            try:
                value = cast(settings[key])
                if key == "ranking":  # a bad spelling or format is the file's, like a bad int
                    RankingCriterion.parse(value)
                elif key == "format":
                    _check_format(value)
            except (ValueError, UsageError) as exc:
                raise DataError(f"config file {key}: {exc}") from exc
        values[key] = default if value is None else value
    for key in _REQUIRED:
        if values[key] is None:
            raise UsageError(f"--{key} is required (flag or config file)")

    # each per-mode flag applies to the methods of its own mode only
    flag_options = {
        name: getattr(args, name) for name in MODE_OPTIONS if getattr(args, name) is not None
    }
    flag_methods = []
    for token in args.methods or ():
        method = MethodSpec.parse(token)
        own = {k: v for k, v in flag_options.items() if MODE_OPTIONS[k][0] == method.mode}
        flag_methods.append(dataclasses.replace(method, **own))
    flag_modes = {m.mode for m in flag_methods}
    for name in flag_options:
        mode = MODE_OPTIONS[name][0]
        if mode not in flag_modes:
            flag = "--" + name.replace("_", "-")
            raise UsageError(f"{flag} applies only to {mode} methods; no --method {mode} given")
    methods = flag_methods or file_methods
    if not methods:
        raise UsageError("give at least one --method or a config file with methods")
    if values["ranking"] is not None:
        source = "--ranking" if args.ranking is not None else "config file ranking"
        pasha = [m for m in methods if m.mode == "pasha"]
        if not pasha:
            raise UsageError(f"{source} applies only to pasha methods; no pasha method given")
        if all(m.criterion is not None for m in pasha):
            raise UsageError(
                f"{source} applies only to pasha methods without a criterion; "
                "every pasha method names its own"
            )
        criterion = RankingCriterion.parse(values["ranking"])
        methods = [
            dataclasses.replace(m, criterion=criterion)
            if m.mode == "pasha" and m.criterion is None
            else m
            for m in methods
        ]

    spec = ExperimentSpec(
        methods=tuple(methods),
        resources=ResourceSpec(
            min_resource=values["min-resource"],
            reduction_factor=values["eta"],
            max_resource=values["max-resource"],
        ),
        num_configs=values["num-configs"],
        benchmark=values["benchmark"],
        workers=values["workers"],
        scheduler_seeds=values["seeds"],
        benchmark_seeds=values["bench-seeds"],
        format=values["format"],
    )
    report = run_experiment(spec, traces_dir=values["traces"], cells_out=values["cells"])
    return _write_output(emit_report(report, spec.format), values["out"])


def _report_command(args) -> int:
    return _write_output(emit_report(report_cells(args.cells), args.format), args.out)


def _crossings_command(args) -> int:
    return _write_output(crossings_csv(crossing_report(load(args.benchmark))), args.out)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.verb == "generate":
            return _generate_command(args)
        if args.verb == "run":
            return _run_command(args)
        if args.verb == "report":
            return _report_command(args)
        return _crossings_command(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
