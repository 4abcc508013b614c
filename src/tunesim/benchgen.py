"""Synthetic tabulated learning-curve benchmarks and their on-disk format.

The generator builds curves that rise toward per-config asymptotes. Beyond a
chosen horizon the metric ordering of all configs is frozen by construction:
each config's remaining deficit is capped below its asymptote gap to the next
config, so curves can only cross during the early phase, where bounded
perturbations (damped to zero near the top ranks and vanishing at the
horizon) deliberately scramble the mid-field.
"""

from __future__ import annotations

import csv
import gc
import io
import math
import mmap
import os
import warnings
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import ConfigId, DataError
from .simulator import LearningCurveTable, _first_bad_row

FORMAT_MAGIC = "tunesim-benchmark-v1"

FAMILIES = ("power_law", "exponential_saturation")


class GenerationError(DataError):
    """The requested curve model is infeasible; nothing is silently repaired."""


class FormatError(DataError):
    """A benchmark file does not parse; the message names the offending line."""


@dataclass(frozen=True)
class CurveModel:
    """Shape parameters for synthetic learning curves.

    crossing_horizon is the resource level beyond which the config ordering
    never changes. noise_std perturbs the stored observations only, never the
    latent curves; with hard=False a noise level likely to reorder curves past
    the horizon is rejected instead of silently accepted, with hard=True such
    tables are generated anyway (that is the regime soft ranking exists for).

    The head_* fields keep the best head_count configs well separated so top
    decisions stay meaningful; gap_scale shapes the progressively denser tail.
    early_scale bounds the early-phase perturbations, which ramp in between
    the damp_lo and damp_hi rank fractions (the very best configs stay clean).
    """

    family: str = "power_law"
    crossing_horizon: int = 5
    noise_std: float = 0.0
    hard: bool = False
    top_metric: float = 0.92
    head_count: int = 16
    head_gap: float = 0.03
    head_jitter: float = 0.01
    gap_scale: float = 0.05
    tail_theta: float = 0.45
    decay: float = 1.0
    early_scale: float = 0.05
    damp_lo: float = 0.08
    damp_hi: float = 0.25
    cost_mean: float = 1.0
    cost_spread: float = 0.1

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise GenerationError(
                f"unknown curve family {self.family!r}; expected one of " + ", ".join(FAMILIES)
            )
        if self.crossing_horizon < 1:
            raise GenerationError(f"crossing_horizon must be >= 1, got {self.crossing_horizon}")
        if self.noise_std < 0:
            raise GenerationError(f"noise_std must be >= 0, got {self.noise_std}")
        if not 0.0 < self.tail_theta < 1.0:
            raise GenerationError(f"tail_theta must be in (0, 1), got {self.tail_theta}")
        if self.decay <= 0:
            raise GenerationError(f"decay must be > 0, got {self.decay}")
        if self.top_metric <= 0:
            raise GenerationError(f"top_metric must be > 0, got {self.top_metric}")
        if min(self.head_gap, self.head_jitter, self.gap_scale) <= 0:
            raise GenerationError("head_gap, head_jitter and gap_scale must be > 0")
        if self.head_count < 1:
            raise GenerationError(f"head_count must be >= 1, got {self.head_count}")
        if self.early_scale < 0:
            raise GenerationError(f"early_scale must be >= 0, got {self.early_scale}")
        if not 0.0 <= self.damp_lo < self.damp_hi:
            raise GenerationError("need 0 <= damp_lo < damp_hi")
        if self.cost_mean <= 0 or self.cost_spread < 0:
            raise GenerationError("cost_mean must be > 0 and cost_spread >= 0")


def generate(n_configs: int, units: int, model: CurveModel, seed: int) -> LearningCurveTable:
    """Draw a benchmark of n_configs curves over units resource steps.

    Latent curves are strictly increasing and never cross at or beyond the
    model's crossing_horizon. Observation noise, if any, lands on the stored
    values only. The same arguments always produce an identical table.
    """
    if n_configs < 1:
        raise GenerationError(f"n_configs must be >= 1, got {n_configs}")
    if units < model.crossing_horizon:
        raise GenerationError(
            f"units ({units}) must cover the crossing horizon ({model.crossing_horizon})"
        )
    rng = np.random.default_rng(seed)
    n, horizon = n_configs, model.crossing_horizon

    # asymptote gaps, best rank first; gaps[i] separates rank i from rank i+1
    gaps = np.empty(n)
    head = min(model.head_count, n)
    gaps[:head] = model.head_gap + rng.exponential(model.head_jitter, head)
    if head < n:
        ranks = np.arange(head, n)
        gaps[head:] = rng.exponential(model.gap_scale / np.maximum(ranks, 1))
    gaps = np.maximum(gaps, 1e-9)
    asymptote = model.top_metric - np.concatenate(([0.0], np.cumsum(gaps[:-1])))

    u = np.arange(1, units + 1, dtype=float)
    if model.family == "power_law":
        phi = u**-model.decay
    else:
        phi = np.exp(-model.decay * (u - 1.0))
    if horizon > 1:
        psi = np.where(u < horizon, ((horizon - u) / (horizon - 1)) ** 2, 0.0)
    else:
        psi = np.zeros_like(u)

    rank_fraction = np.arange(n) / n
    damp = np.clip(
        (rank_fraction - model.damp_lo) / (model.damp_hi - model.damp_lo), 0.0, 1.0
    )
    amplitude = model.early_scale * rng.uniform(0.0, 1.0, n) * damp

    latent = (
        asymptote[:, None]
        - model.tail_theta * gaps[:, None] * phi[None, :]
        - amplitude[:, None] * psi[None, :]
    )
    observed, final = latent, latent[:, -1]
    if model.noise_std > 0:
        observed = latent + rng.normal(0.0, model.noise_std, latent.shape)
        final = final + rng.normal(0.0, model.noise_std, n)
    floor = float(min(latent.min(), observed.min(), final.min()))
    if floor <= 0:
        # latent and stored values shift 1:1 with top_metric: name the 4-decimal value just above
        needed = math.floor((model.top_metric - floor) * 1e4 + 1) / 1e4
        raise GenerationError(
            f"metric floor {floor:.4f} is not positive; shrink the gaps or raise "
            f"top_metric to at least {needed:.4f}"
        )
    if model.noise_std > 0 and not model.hard and n > 1:
        tail = latent[:, horizon - 1 :]
        separation = float(np.min(tail[:-1, :] - tail[1:, :]))
        if separation < 8.0 * model.noise_std:
            raise GenerationError(
                f"observation noise std {model.noise_std:g} would reorder curves "
                f"beyond resource {horizon} (min separation {separation:g}); "
                "set hard=True to generate such a table anyway"
            )

    rate = model.cost_mean * np.exp(rng.normal(0.0, model.cost_spread, n))
    ids = rng.permutation(n)  # detach config ids from rank order
    costs = np.broadcast_to(rate[:, None], (n, units))
    return LearningCurveTable(
        ids, observed, costs, final, metric_name="accuracy", unit_label="epoch"
    )


def save(table: LearningCurveTable, path: str) -> None:
    """Write a table in the line-oriented benchmark format.

    Tables ingested from minimize-direction files are written back with their
    original direction and sign, so save followed by load is the identity.
    The bytes are csv.writer's: each row is one joined line, and a non-empty
    payload's field is the text csv.writer gives it.
    """
    sign = -1.0 if table.flipped else 1.0
    direction = "minimize" if table.flipped else "maximize"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(FORMAT_MAGIC + "\n")
        handle.write(f"units={table.resource_units}\n")
        handle.write(f"metric={table.metric_name}\n")
        handle.write(f"unit_label={table.unit_label}\n")
        handle.write(f"direction={direction}\n")
        handle.write(f"configs={len(table.ids)}\n")
        handle.write("\n")
        # one row of values and texts at a time: whole-table ones raise peak memory
        units = table.resource_units
        row = np.empty(2 * units + 1)
        bits, new = row.view(np.int64), np.ones(row.size, dtype=bool)
        rows = zip(table.config_ids(), table.payloads, table.metrics, table.costs, table.finals)
        for config, payload, metrics, costs, final in rows:
            np.multiply(metrics, sign, out=row[:units])
            row[units:-1] = costs
            row[-1] = sign * final
            # a value bit-equal to its left neighbour takes that neighbour's
            # text; repr is a function of the bits, so 0.0 and -0.0 stay apart
            np.not_equal(bits[1:], bits[:-1], out=new[1:])
            texts = ["", *map(repr, row[new].tolist())]  # a run's text at its 1-based number
            fields = ",".join(map(texts.__getitem__, new.cumsum().tolist()))
            handle.write(f"{config},{_csv_field(payload) if payload else ''},{fields}\r\n")


def _csv_field(text: str) -> str:
    """text as csv.writer writes it as one field of a row of several; csv
    quotes what needs it and refuses what it cannot write."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow([text, ""])  # csv quotes the line terminator's characters
    return buffer.getvalue()[: -len(",\r\n")]


def _parse_header(handle) -> tuple[dict[str, str], int]:
    """The header's key=value pairs, read up to and including its blank line,
    and the number of lines read."""
    if handle.readline().strip() != FORMAT_MAGIC:
        raise FormatError(f"line 1: not a {FORMAT_MAGIC} file")
    header: dict[str, str] = {}
    number = 1
    for line in iter(handle.readline, ""):
        number += 1
        line = line.strip()
        if line == "":
            return header, number
        key, sep, value = line.partition("=")
        if not sep:
            raise FormatError(f"line {number}: expected key=value, got {line!r}")
        header[key.strip()] = value.strip()
    raise FormatError("header never ends; expected a blank line before the data rows")


def load(path: str) -> LearningCurveTable:
    """Read a benchmark file, normalizing the metric direction to maximize.

    Values load bit for bit as Python's float() reads them. The rows are
    read by _read_records, so an error names the line of the first bad row
    or unparsable record in file order.
    Lines end only where csv ends them, so a quoted payload keeps its line
    breaks. Every refusal names path in front of its message; one of a file
    that is not UTF-8 names no line, as the decoder reads ahead.
    """
    try:
        return _load(path)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except DataError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _load(path: str) -> LearningCurveTable:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        header, header_lines = _parse_header(handle)
        for key in ("units", "configs", "direction"):
            if key not in header:
                raise FormatError(f"header is missing the {key} key")
        try:
            units = int(header["units"])
            declared = int(header["configs"])
        except ValueError as exc:
            raise FormatError(f"header: {exc}") from exc
        if units < 1:
            raise FormatError(f"header: units must be >= 1, got {units}")
        direction = header["direction"]
        if direction not in ("maximize", "minimize"):
            raise FormatError(
                f"header: direction must be maximize or minimize, got {direction!r}"
            )
        columns = (("id", int, 1), ("payload", str, 1), ("values", float, 2 * units + 1))
        ids, payloads, values = _read_records(
            handle, header_lines, columns,
            lambda ids, _, values: _first_bad_row(
                ids, values[:, :units], values[:, units:-1], values[:, -1]
            ),
            lambda line, message: FormatError(f"line {line}: {message}"),
        )
    if len(ids) != declared:
        raise FormatError(f"header declares {declared} configs but the file holds {len(ids)}")
    sign = -1.0 if direction == "minimize" else 1.0
    return LearningCurveTable(
        ids, sign * values[:, :units], values[:, units:-1], sign * values[:, -1], payloads.tolist(),
        metric_name=header.get("metric", "metric"),
        unit_label=header.get("unit_label", "unit"),
        flipped=(direction == "minimize"),
    )


# the numpy type of a column of each Python type
_DTYPES = {int: np.int64, float: np.float64, str: object}


def _read_records(handle, lines_before: int, columns, first_bad, error) -> list[np.ndarray]:
    """The csv records from handle's position to the end (lines_before file
    lines lie ahead of it), one array per column. columns lists (name, type,
    count) in field order, the type int, float or str; a count above 1 is
    one 2-D block of that many fields.

    The records are parsed in one numpy pass. If that pass refuses them, or
    first_bad(*arrays) names a row as (index, reason), they are read again
    row by row with int(), float() and str themselves, and error(line,
    reason) is raised for the first bad record in file order: a row
    first_bad names, or a record that does not parse. An int column read
    that way is int64 unless it holds an int beyond int64.
    """
    dtype = np.dtype(
        [(name, _DTYPES[kind], (count,) if count > 1 else ()) for name, kind, count in columns]
    )
    data = _array_pass(handle, dtype)
    if data is not None:
        arrays = [data[name] for name, _, _ in columns]
        if first_bad(*arrays) is None:
            return arrays
    kinds = [kind for _, kind, count in columns for _ in range(count)]
    lines, rows, unparsed = [], [], None
    try:
        for number, fields in _csv_records(handle, lines_before, len(kinds), error):
            try:
                rows.append([kind(text) for kind, text in zip(kinds, fields)])
            except ValueError as exc:
                raise error(number, exc) from exc
            lines.append(number)
    except DataError as exc:
        unparsed = exc  # a bad row read before it is named first
    table = np.array(rows, dtype=object).reshape(len(rows), len(kinds))
    arrays, start = [], 0
    for _, kind, count in columns:
        block = table[:, start] if count == 1 else table[:, start : start + count]
        start += count
        try:
            arrays.append(block.astype(_DTYPES[kind]))
        except OverflowError:  # an int beyond int64 stays a Python int
            arrays.append(block)
    bad = first_bad(*arrays)
    if bad is not None:
        raise error(lines[bad[0]], bad[1])
    if unparsed is not None:
        raise unparsed
    return arrays


def _array_pass(handle, dtype: np.dtype) -> np.ndarray | None:
    """The csv records from handle's position to the end, parsed in one numpy
    pass into a structured array of dtype; None if numpy refuses them. handle
    is left where it was either way.

    numpy splits fields and records as csv.reader does and converts each value
    with the same correctly rounded routines as int() and float(). It refuses a
    few spellings Python accepts (`1_0`, non-ASCII digits, ints beyond int64),
    and any warning, such as the one for no rows, is turned into a refusal.
    numpy has no field limit, so a field that could exceed csv's is refused as
    well (see _fields_fit_csv); _read_records' row-by-row path decides those.
    """
    start = handle.tell()
    if _fields_fit_csv(handle):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return np.loadtxt(
                    handle, dtype=dtype, delimiter=",", quotechar='"', comments=None, ndmin=1
                )
        except (ValueError, Warning):
            pass
        finally:
            handle.seek(start)
    return None


def _csv_records(handle, lines_before: int, width: int, error) -> Iterator[tuple[int, list[str]]]:
    """Each non-empty csv record from handle's position on, with the number of
    its first file line (lines_before is the number of file lines ahead of
    that position). A record that does not hold width fields, or that csv
    cannot split, raises error(line, message)."""
    reader = csv.reader(handle)
    lines_read = lines_before
    try:
        for row in reader:
            # a quoted field can span lines: name the record's first physical line
            number, lines_read = lines_read + 1, lines_before + reader.line_num
            if not row:
                continue
            if len(row) != width:
                raise error(number, f"expected {width} fields, got {len(row)}")
            yield number, row
    except csv.Error as exc:
        raise error(lines_read + 1, exc) from exc


def _fields_fit_csv(handle) -> bool:
    """Whether no csv field in handle's file, from its position (a line start)
    to the end, can be longer than csv.field_size_limit(); False also when a
    quote sits where csv.writer would not put one.

    Unquoted, a field lies within one line. A quoted field runs from its
    opening quote to its closing one, and each escaped quote ("") inside it
    splits that span into quote pairs that touch. So if every quote opens a
    field at its start, closes one before a separator or the end, or doubles
    its neighbour, no field is longer than the longest line or the longest
    quoted span. Lengths count bytes, never fewer than the characters csv
    counts. The file is mapped, not read: lines are checked by jumping to the
    last line end within the limit, a few searches per megabyte, and quotes
    are located only in a file that holds one. handle itself does not move.
    """
    limit = csv.field_size_limit()
    start = handle.tell()  # a UTF-8 text handle's position at a line start is a byte offset
    if start >> 64:
        return False  # a position that carries decoder state
    with open(handle.name, "rb") as raw:
        size = os.fstat(raw.fileno()).st_size
        if size - start <= limit:
            return True
        with mmap.mmap(raw.fileno(), 0, access=mmap.ACCESS_READ) as data:
            line = start  # where the line being checked starts
            while size - line > limit:
                found = data.rfind(b"\n", line, line + limit + 1)
                if found < 0:
                    return False
                line = found + 1
            if data.find(b'"', start) < 0:
                return True
            # the array view must be gone before the map closes
            return _quotes_fit_csv(np.frombuffer(data, np.uint8, offset=start), limit)


def _quotes_fit_csv(text: np.ndarray, limit: int, block: int = 1 << 20) -> bool:
    """_fields_fit_csv's test of the quotes in text, csv data that starts at
    a line start."""
    at = np.concatenate(
        [np.flatnonzero(text[i : i + block] == 34) + i for i in range(0, text.size, block)]
    )
    if at.size % 2:
        return False
    # the byte before an opening quote and after a closing one; past either
    # end of text lies a line end or the file's end
    near = np.where(np.arange(at.size) % 2 == 0, at - 1, at + 1)
    near = text[near[(near >= 0) & (near < text.size)]]
    if not ((near == 44) | (near == 10) | (near == 13) | (near == 34)).all():
        return False
    opens, closes = at[0::2], at[1::2]
    first = np.concatenate(([True], opens[1:] != closes[:-1] + 1))  # not an escape
    last = np.concatenate((first[1:], [True]))
    return bool((closes[last] - opens[first] <= limit + 1).all())


def _signs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.sign(a - b) as int8, without the subtraction that can overflow."""
    return (a > b).view(np.int8) - (a < b).view(np.int8)


# pairs crossing_report compares in one step
_CROSSING_BLOCK = 1 << 18


def crossing_report(table: LearningCurveTable) -> list[tuple[tuple[ConfigId, ConfigId], int]]:
    """Per config pair whose order ever deviates from the order at full budget,
    the last resource level at which it deviates.

    An empty list means the ordering is already final after the first unit.
    Pairs come in id order. A pair can deviate only at a disordered unit: one
    where some two configs adjacent in the final order compare differently
    than they do at the last unit. Everywhere else each column is a monotone
    image of the last, so it keeps every pair's order. Only the disordered
    units are compared pairwise, _CROSSING_BLOCK pairs or one row at a time.
    """
    matrix = table.metrics
    ranked = matrix[np.argsort(matrix[:, -1])]
    adjacent = _signs(ranked[1:], ranked[:-1])
    units = np.flatnonzero((adjacent[:, :-1] != adjacent[:, -1:]).any(axis=0)).tolist()
    report: list[tuple[tuple[ConfigId, ConfigId], int]] = []
    if not units:
        return report
    n, final = len(matrix), matrix[:, -1]
    height = max(1, _CROSSING_BLOCK // n)
    # the report's tuples would set off collections that rescan the ones built
    enabled = gc.isenabled()
    gc.disable()
    try:
        for start in range(0, n - 1, height):
            stop = min(n - 1, start + height)
            # rows start..stop-1 against every later row; a block's own lower
            # triangle is compared too and then dropped
            rows, later = slice(start, stop), slice(start + 1, None)
            order = _signs(final[rows, None], final[None, later])
            last = np.zeros(order.shape, np.int32)
            for u in units:  # ascending, so a later deviation overwrites
                column = matrix[:, u]
                last[_signs(column[rows, None], column[None, later]) != order] = u + 1
            last[np.arange(stop - start)[:, None] > np.arange(n - start - 1)] = 0
            i, j = np.nonzero(last)
            pairs = zip(table.ids[i + start].tolist(), table.ids[j + start + 1].tolist())
            report += zip(pairs, last[i, j].tolist())
    finally:
        if enabled:
            gc.enable()
    return report


def crossings_csv(report: list[tuple[tuple[ConfigId, ConfigId], int]]) -> str:
    """crossing_report's pairs as csv text: a header line, then one
    config_a,config_b,last_crossing line per pair, in the report's order."""
    rows = [f"{a},{b},{level}" for (a, b), level in report]
    return "\n".join(["config_a,config_b,last_crossing", *rows]) + "\n"
