"""Panel data model and the CSV table codec every artifact table goes through.

A panel is a rectangular collection of N daily series of equal length n,
stored as a float64 matrix.  The on-disk format is a CSV with header
``series_id,date,value``; the canonical writer sorts rows by (series_id, date)
and prints values with round-trip-exact decimal formatting, so
``load_panel(write_panel(p)) == p`` holds bit-for-bit.

Every CSV table is written by ``write_long`` (a row per series and key) or
``write_step_table`` (a row per step), and read back by ``read_long``.
"""

from __future__ import annotations

import csv
import datetime as dt
from collections import Counter
import io
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ._fields import check_field_types, parse_date, ruled

__all__ = [
    "PanelError", "SeriesPanel", "SplitSpec", "load_panel", "read_long", "split_panel",
    "write_long", "write_panel", "write_step_table",
]

_HEADER = ("series_id", "date", "value")
_DAY = dt.timedelta(days=1)


class PanelError(ValueError):
    """Malformed panel file or violated panel invariant."""


@dataclass(frozen=True, eq=False)
class SeriesPanel:
    """N equal-length daily traffic series sharing one date axis.

    ``values[i, t]`` is the traffic (KB/day) of ``series_ids[i]`` on
    ``start_date + t`` days.  Construction validates every invariant
    (unique nonempty ids, finite non-negative values, n >= 1), sorts the
    series by id and freezes the value matrix, so instances are immutable
    and safe to share across workers.
    """

    series_ids: tuple[str, ...]
    start_date: dt.date
    values: np.ndarray

    def __post_init__(self) -> None:
        ids = tuple(self.series_ids)
        if len(ids) == 0:
            raise PanelError("panel must contain at least one series")
        for sid in ids:
            if not isinstance(sid, str) or sid == "":
                raise PanelError(f"series ids must be nonempty strings, got {sid!r}")
        counts = Counter(ids)
        if len(counts) != len(ids):
            dupes = sorted(s for s, n in counts.items() if n > 1)
            raise PanelError(f"duplicate series ids: {dupes}")
        if not isinstance(self.start_date, dt.date):
            raise PanelError(f"start_date must be a datetime.date, got {self.start_date!r}")

        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2:
            raise PanelError(f"values must be a 2-D matrix, got shape {vals.shape}")
        if vals.shape[0] != len(ids):
            raise PanelError(f"{len(ids)} series ids but {vals.shape[0]} value rows")
        if vals.shape[1] < 1:
            raise PanelError("series length must be >= 1")
        if (dt.date.max - self.start_date).days < vals.shape[1] - 1:
            raise PanelError(
                f"{vals.shape[1]} days from {self.start_date} run past {dt.date.max}"
            )
        if not np.all(np.isfinite(vals)):
            bad = np.argwhere(~np.isfinite(vals))[0]
            raise PanelError(f"non-finite value in series {ids[bad[0]]!r} at step {bad[1] + 1}")
        if np.any(vals < 0):
            bad = np.argwhere(vals < 0)[0]
            raise PanelError(f"negative value in series {ids[bad[0]]!r} at step {bad[1] + 1}")

        order = sorted(range(len(ids)), key=lambda i: ids[i])
        vals = vals[order].copy()
        vals.setflags(write=False)
        object.__setattr__(self, "series_ids", tuple(ids[i] for i in order))
        object.__setattr__(self, "values", vals)

    @property
    def n_series(self) -> int:
        return self.values.shape[0]

    @property
    def n_steps(self) -> int:
        return self.values.shape[1]

    def dates(self) -> tuple[dt.date, ...]:
        return tuple(self.start_date + t * _DAY for t in range(self.n_steps))

    def series(self, sid: str) -> np.ndarray:
        """Values of one series, by id."""
        try:
            return self.values[self.series_ids.index(sid)]
        except ValueError:
            raise KeyError(sid) from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SeriesPanel):
            return NotImplemented
        return (
            self.series_ids == other.series_ids
            and self.start_date == other.start_date
            and self.values.shape == other.values.shape
            and self.values.tobytes() == other.values.tobytes()
        )


@dataclass(frozen=True)
class SplitSpec:
    """Prediction range of a panel: 1-based steps ``pred_start .. pred_end`` inclusive.

    Everything before ``pred_start`` is the conditioning (training) range, so
    ``pred_start`` must leave at least one training step.
    """

    pred_start: int = ruled(at_least=2)
    pred_end: int

    def __post_init__(self) -> None:
        check_field_types(self, PanelError)
        if self.pred_end < self.pred_start:
            raise PanelError(f"pred_end {self.pred_end} < pred_start {self.pred_start}")

    @property
    def horizon(self) -> int:
        return self.pred_end - self.pred_start + 1


def split_panel(panel: SeriesPanel, split: SplitSpec) -> tuple[SeriesPanel, SeriesPanel]:
    """Cut a panel into (train, test): steps 1..pred_start-1 and pred_start..pred_end."""
    if split.pred_end > panel.n_steps:
        raise PanelError(f"pred_end {split.pred_end} exceeds series length {panel.n_steps}")
    t0 = split.pred_start
    train = SeriesPanel(panel.series_ids, panel.start_date, panel.values[:, : t0 - 1])
    test = SeriesPanel(
        panel.series_ids,
        panel.start_date + (t0 - 1) * _DAY,
        panel.values[:, t0 - 1 : split.pred_end],
    )
    return train, test


def _csv_fields(fields: Iterable[object]) -> str:
    """Fields joined as one CSV line without its end, quoted as ``csv`` quotes
    them; the CR LF terminator makes ``csv`` quote a field holding either."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(fields)
    return buf.getvalue()[:-2]


def write_long(path: str, header: Sequence[str], series_ids: Sequence[str], keys, rows) -> None:
    """Write one line ``id,*key,value`` per series and key tuple, series-major.

    ``rows`` yields one array per series with one value per key (raveled in C
    order), and is consumed one series at a time.  Values print as
    ``repr(float(v))``, so they read back bit for bit.  The lines go to
    ``path + ".tmp"``, which replaces path after the last row; any failure,
    of ``rows`` too, removes it and leaves path as it was.
    """
    key_fields = [_csv_fields(key) for key in keys]
    tmp = path + ".tmp"
    fh = open(tmp, "w", encoding="utf-8", newline="")
    try:
        with fh:
            fh.write(_csv_fields(header) + "\n")
            for sid, row in zip(series_ids, rows, strict=True):
                prefix = _csv_fields((sid,))
                values = np.asarray(row, dtype=np.float64).ravel().tolist()
                fh.write("".join([
                    f"{prefix},{key},{v!r}\n" for key, v in zip(key_fields, values, strict=True)
                ]))
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_step_table(path: str, header: Sequence[str], steps: Sequence[int], columns) -> None:
    """Write one row per step, ``columns[j]`` holding column j's values by step,
    then a ``mean`` row with each column's mean over the steps."""
    columns = np.asarray(columns, dtype=np.float64)
    table = np.column_stack([columns, columns.mean(axis=1)]).T.tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_fields(header) + "\n")
        for label, values in zip([*map(str, steps), "mean"], table, strict=True):
            fh.write(",".join([label, *map(repr, values)]) + "\n")


def read_long(
    path: str, header: Sequence[str], parse_key: Callable, error: type, nonnegative: bool
) -> dict[str, dict]:
    """Read a three-column ``id,key,value`` table into ``{id: {key: value}}``.

    Blank lines are skipped.  ``parse_key`` turns a key field into a key or
    raises ValueError with the reason.  Every rejected row raises ``error``
    with a ``PATH:LINE:`` prefix: a bad header, a wrong field count, an empty
    id, a bad key, a bad or non-finite value, a negative value when
    ``nonnegative``, or a key seen twice for one id.  A value is bad unless
    ``float`` reads it and it is ASCII without ``_`` or surrounding
    whitespace, which ``float`` would also take but no writer writes.
    """
    table: dict[str, dict[object, float]] = {}
    keys: dict[str, object] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None:
            raise error(f"{path}:1: empty file")
        if first != list(header):
            raise error(f"{path}:1: expected header {','.join(header)!r}")
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise error(f"{path}:{reader.line_num}: expected 3 fields, got {len(row)}")
            sid, key_s, value_s = row
            if sid == "":
                raise error(f"{path}:{reader.line_num}: empty {header[0]}")
            key = keys.get(key_s)
            if key is None:
                try:
                    key = keys[key_s] = parse_key(key_s)
                except ValueError as exc:
                    raise error(f"{path}:{reader.line_num}: {exc}") from None
            try:
                if "_" in value_s or value_s != value_s.strip() or not value_s.isascii():
                    raise ValueError(value_s)
                value = float(value_s)
            except ValueError:
                raise error(f"{path}:{reader.line_num}: bad value {value_s!r}") from None
            if not math.isfinite(value):
                raise error(f"{path}:{reader.line_num}: non-finite value {value_s!r}")
            if nonnegative and value < 0:
                raise error(f"{path}:{reader.line_num}: negative value {value_s}")
            entries = table.setdefault(sid, {})
            if key in entries:
                raise error(f"{path}:{reader.line_num}: duplicate entry for ({sid!r}, {key_s})")
            entries[key] = value
    return table


def load_panel(path: str) -> SeriesPanel:
    """Read and validate a panel CSV.

    Rows may appear in any order, but per series the dates must form a
    gapless daily run, and all series must share the same start and end.
    A rejected row is named as ``PATH:LINE``; a rejected panel names the series.
    """
    by_series = read_long(path, _HEADER, parse_date, PanelError, nonnegative=True)
    if not by_series:
        raise PanelError(f"{path}: no data rows")

    spans = {sid: (min(d), len(d)) for sid, d in by_series.items()}
    lengths = {length for _, length in spans.values()}
    if len(lengths) > 1:
        detail = ", ".join(f"{sid!r}: {spans[sid][1]}" for sid in sorted(spans))
        raise PanelError(f"{path}: unequal series lengths ({detail})")
    starts = {start for start, _ in spans.values()}
    if len(starts) > 1:
        detail = ", ".join(f"{sid!r}: {spans[sid][0]}" for sid in sorted(spans))
        raise PanelError(f"{path}: series date ranges differ ({detail})")

    start = next(iter(starts))
    days = [start + t * _DAY for t in range(next(iter(lengths)))]
    ids = sorted(by_series)
    values = np.empty((len(ids), len(days)))
    for i, sid in enumerate(ids):
        try:
            values[i] = [by_series[sid][day] for day in days]
        except KeyError as exc:
            raise PanelError(f"{path}: series {sid!r}: date gap at {exc.args[0]}") from None
    return SeriesPanel(tuple(ids), start, values)


def write_panel(panel: SeriesPanel, path: str) -> None:
    """Write the canonical CSV: rows sorted by (series_id, date), values round-trip exact."""
    write_long(path, _HEADER, panel.series_ids, [(d,) for d in panel.dates()], panel.values)
