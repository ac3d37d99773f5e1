"""Panel data model: loading, validating, writing and splitting daily traffic series.

A panel is a rectangular collection of N daily series of equal length n,
stored as a float64 matrix.  The on-disk format is a CSV with header
``series_id,date,value``; the canonical writer sorts rows by (series_id, date)
and prints values with round-trip-exact decimal formatting, so
``load_panel(write_panel(p)) == p`` holds bit-for-bit.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass

import numpy as np

from ._fields import check_field_types

__all__ = ["PanelError", "SeriesPanel", "SplitSpec", "load_panel", "write_panel", "split_panel"]

_HEADER = ["series_id", "date", "value"]
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
        if len(set(ids)) != len(ids):
            dupes = sorted({s for s in ids if ids.count(s) > 1})
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

    pred_start: int
    pred_end: int

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        check_field_types(self, PanelError)
        if self.pred_start <= 1:
            raise PanelError("pred_start must be > 1 (at least one conditioning step required)")
        if self.pred_end < self.pred_start:
            raise PanelError(f"pred_end {self.pred_end} < pred_start {self.pred_start}")

    @property
    def horizon(self) -> int:
        return self.pred_end - self.pred_start + 1

    def check_against(self, n_steps: int) -> None:
        if self.pred_end > n_steps:
            raise PanelError(f"pred_end {self.pred_end} exceeds series length {n_steps}")


def split_panel(panel: SeriesPanel, split: SplitSpec) -> tuple[SeriesPanel, SeriesPanel]:
    """Cut a panel into (train, test): steps 1..pred_start-1 and pred_start..pred_end."""
    split.check_against(panel.n_steps)
    t0 = split.pred_start
    train = SeriesPanel(panel.series_ids, panel.start_date, panel.values[:, : t0 - 1])
    test = SeriesPanel(
        panel.series_ids,
        panel.start_date + (t0 - 1) * _DAY,
        panel.values[:, t0 - 1 : split.pred_end],
    )
    return train, test


def load_panel(path: str) -> SeriesPanel:
    """Read and validate a panel CSV.

    Rows may appear in any order, but per series the dates must form a
    gapless daily run, and all series must share the same start and end.
    Every rejection names the offending series and/or line number.
    """
    by_series: dict[str, dict[dt.date, float]] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PanelError(f"{path}: empty file") from None
        if header != _HEADER:
            raise PanelError(f"{path}: line 1: expected header {','.join(_HEADER)!r}")
        for lineno, row in enumerate(reader, start=2):
            if row == []:
                continue
            if len(row) != 3:
                raise PanelError(f"{path}: line {lineno}: expected 3 fields, got {len(row)}")
            sid, date_s, value_s = row
            if sid == "":
                raise PanelError(f"{path}: line {lineno}: empty series_id")
            try:
                date = dt.date.fromisoformat(date_s)
            except ValueError:
                raise PanelError(
                    f"{path}: line {lineno}: series {sid!r}: bad date {date_s!r} (want YYYY-MM-DD)"
                ) from None
            try:
                value = float(value_s)
            except ValueError:
                raise PanelError(
                    f"{path}: line {lineno}: series {sid!r}: bad value {value_s!r}"
                ) from None
            if not np.isfinite(value):
                raise PanelError(f"{path}: line {lineno}: series {sid!r}: non-finite value")
            if value < 0:
                raise PanelError(f"{path}: line {lineno}: series {sid!r}: negative value {value_s}")
            dates = by_series.setdefault(sid, {})
            if date in dates:
                raise PanelError(f"{path}: line {lineno}: duplicate entry for ({sid!r}, {date_s})")
            dates[date] = value

    if not by_series:
        raise PanelError(f"{path}: no data rows")

    spans = {sid: (min(d), max(d), len(d)) for sid, d in by_series.items()}
    lengths = {length for _, _, length in spans.values()}
    if len(lengths) > 1:
        detail = ", ".join(f"{sid!r}: {spans[sid][2]}" for sid in sorted(spans))
        raise PanelError(f"{path}: unequal series lengths ({detail})")
    starts = {start for start, _, _ in spans.values()}
    if len(starts) > 1:
        detail = ", ".join(f"{sid!r}: {spans[sid][0]}" for sid in sorted(spans))
        raise PanelError(f"{path}: series date ranges differ ({detail})")

    start = next(iter(starts))
    n = next(iter(lengths))
    for sid in sorted(by_series):
        dates = by_series[sid]
        for t in range(n):
            day = start + t * _DAY
            if day not in dates:
                raise PanelError(f"{path}: series {sid!r}: date gap at {day}")

    ids = sorted(by_series)
    values = np.array([[by_series[sid][start + t * _DAY] for t in range(n)] for sid in ids])
    return SeriesPanel(tuple(ids), start, values)


def write_panel(panel: SeriesPanel, path: str) -> None:
    """Write the canonical CSV: rows sorted by (series_id, date), values round-trip exact."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_HEADER)
        dates = panel.dates()
        for i, sid in enumerate(panel.series_ids):
            row_values = panel.values[i]
            for t, day in enumerate(dates):
                writer.writerow([sid, day.isoformat(), repr(float(row_values[t]))])
